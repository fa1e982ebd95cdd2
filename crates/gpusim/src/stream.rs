//! CUDA-style **command streams** on the simulated clock.
//!
//! The Jetson Nano's GPU has one compute engine (the SMM) and one copy
//! engine; work queued on different streams may overlap across engines —
//! a kernel can run while the copy engine moves the next buffer — but each
//! engine serves one operation at a time, and operations on the *same*
//! stream retain queue order.
//!
//! [`StreamEngine`] models exactly that arithmetic. It does **not**
//! execute anything: the cudadev host driver executes every operation
//! eagerly (results are bit-identical to synchronous mode) and only asks
//! the engine *when* the operation would have started and finished on the
//! virtual timeline. An operation's completion timestamp is its **event**
//! ([`EventId`]); streams can be made to wait on events recorded on other
//! streams ([`StreamEngine::wait_event`]), which is how double-buffered
//! tiling expresses "reuse this buffer only after its download finished".

/// Which hardware engine an operation occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The DMA copy engine (h2d and d2h transfers; the Nano has one).
    Copy,
    /// The SMM (kernel launches).
    Compute,
}

/// A recorded event: an index into the engine's completion-timestamp
/// table. Waiting on an event lower-bounds a stream's next operation by
/// the event's completion time.
pub type EventId = usize;

/// One scheduled operation's place on the virtual timeline.
#[derive(Clone, Copy, Debug)]
pub struct OpSchedule {
    pub start_s: f64,
    pub end_s: f64,
    /// Completion event (usable with [`StreamEngine::wait_event`]).
    pub event: EventId,
}

/// The per-device stream scheduler: stream tails, engine availability,
/// recorded events, and the overall horizon (latest scheduled completion).
///
/// The copy engine is a list of busy intervals rather than a single
/// next-free time: the DMA engine serves whichever queued transfer is
/// *ready*, so a transfer whose dependencies are already met may backfill
/// an idle gap the engine spends waiting on a not-yet-ready download from
/// an earlier stream. (Without this, one stream's download — queued
/// behind its kernel — would block every later stream's upload, and
/// `nowait` regions could never overlap on a single-copy-engine device.)
/// The compute engine stays a scalar tail: kernel durations are unknown
/// until the kernel has run, so [`StreamEngine::peek_start`] must not
/// depend on them.
#[derive(Debug, Default)]
pub struct StreamEngine {
    /// Tail time of each stream: operations on a stream are ordered, so a
    /// new operation starts no earlier than the stream's last completion.
    streams: Vec<f64>,
    /// Busy intervals `(start, end)` of the copy engine, sorted and
    /// non-overlapping.
    copy_busy: Vec<(f64, f64)>,
    /// Next-free time of the compute engine (kernels serialize on the SMM).
    compute_free: f64,
    /// Completion timestamps of recorded events.
    events: Vec<f64>,
    /// Latest completion scheduled so far.
    horizon: f64,
}

impl StreamEngine {
    pub fn new() -> StreamEngine {
        StreamEngine::default()
    }

    /// Create a new stream; its first operation is bounded only by
    /// `not_before` and engine availability.
    pub fn create_stream(&mut self) -> usize {
        self.streams.push(0.0);
        self.streams.len() - 1
    }

    /// Earliest time the copy engine can serve a `dur_s`-long transfer
    /// that becomes ready at `ready`: the first idle gap (between busy
    /// intervals, at or after `ready`) wide enough, else after the last
    /// interval that overlaps the candidate slot.
    fn copy_placement(&self, ready: f64, dur_s: f64) -> f64 {
        let mut cursor = ready;
        for &(s, e) in &self.copy_busy {
            if cursor + dur_s <= s {
                break;
            }
            cursor = cursor.max(e);
        }
        cursor
    }

    /// When would an operation on `stream`/`kind` start if submitted now?
    /// The start time does not depend on the operation's duration, so the
    /// driver can *peek*, execute the operation eagerly (aligning its
    /// sub-events to the returned base), and then [`StreamEngine::submit`]
    /// the measured duration — with single-threaded submission the
    /// peeked and submitted start agree. (For [`EngineKind::Copy`] the
    /// returned time is the engine's first idle moment; a submit with a
    /// real duration may land later if that gap is too narrow — the
    /// driver only ever peeks the compute engine.)
    pub fn peek_start(&self, stream: usize, kind: EngineKind, not_before: f64) -> f64 {
        let tail = self.streams.get(stream).copied().unwrap_or(0.0);
        let ready = not_before.max(tail);
        match kind {
            EngineKind::Copy => self.copy_placement(ready, 0.0),
            EngineKind::Compute => ready.max(self.compute_free),
        }
    }

    /// Queue an operation of `dur_s` simulated seconds on `stream`,
    /// occupying engine `kind`. `not_before` is the host-side submission
    /// time (an operation cannot start before it was issued).
    pub fn submit(
        &mut self,
        stream: usize,
        kind: EngineKind,
        dur_s: f64,
        not_before: f64,
    ) -> OpSchedule {
        let ready = not_before.max(self.streams.get(stream).copied().unwrap_or(0.0));
        let start_s = match kind {
            EngineKind::Copy => {
                let t = self.copy_placement(ready, dur_s);
                let at = self.copy_busy.partition_point(|&(s, _)| s < t);
                self.copy_busy.insert(at, (t, t + dur_s));
                t
            }
            EngineKind::Compute => {
                let t = ready.max(self.compute_free);
                self.compute_free = t + dur_s;
                t
            }
        };
        let end_s = start_s + dur_s;
        if let Some(tail) = self.streams.get_mut(stream) {
            *tail = end_s;
        }
        self.horizon = self.horizon.max(end_s);
        self.events.push(end_s);
        OpSchedule { start_s, end_s, event: self.events.len() - 1 }
    }

    /// Record an event on `stream`: completes when everything queued on
    /// the stream so far has completed (`cuEventRecord`).
    pub fn record_event(&mut self, stream: usize) -> EventId {
        let t = self.streams.get(stream).copied().unwrap_or(0.0);
        self.events.push(t);
        self.events.len() - 1
    }

    /// The completion timestamp of `event`.
    pub fn event_time(&self, event: EventId) -> f64 {
        self.events.get(event).copied().unwrap_or(0.0)
    }

    /// Make `stream`'s next operation wait for `event`
    /// (`cuStreamWaitEvent`): raises the stream tail to the event time.
    pub fn wait_event(&mut self, stream: usize, event: EventId) {
        let t = self.event_time(event);
        if let Some(tail) = self.streams.get_mut(stream) {
            *tail = tail.max(t);
        }
    }

    /// Latest completion scheduled so far — where the device clock lands
    /// once all queued work drains.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_stream_preserves_queue_order() {
        let mut e = StreamEngine::new();
        let s = e.create_stream();
        let a = e.submit(s, EngineKind::Copy, 2.0, 0.0);
        let b = e.submit(s, EngineKind::Compute, 3.0, 0.0);
        let c = e.submit(s, EngineKind::Copy, 1.0, 0.0);
        assert_eq!((a.start_s, a.end_s), (0.0, 2.0));
        assert_eq!((b.start_s, b.end_s), (2.0, 5.0), "launch waits for its upload");
        assert_eq!((c.start_s, c.end_s), (5.0, 6.0), "download waits for the kernel");
        assert_eq!(e.horizon(), 6.0);
    }

    #[test]
    fn copy_overlaps_compute_across_streams() {
        let mut e = StreamEngine::new();
        let s0 = e.create_stream();
        let s1 = e.create_stream();
        let u0 = e.submit(s0, EngineKind::Copy, 2.0, 0.0);
        let k0 = e.submit(s0, EngineKind::Compute, 10.0, 0.0);
        let u1 = e.submit(s1, EngineKind::Copy, 2.0, 0.0);
        // The second upload runs on the idle copy engine while the kernel
        // computes: full overlap.
        assert_eq!((u0.end_s, k0.start_s), (2.0, 2.0));
        assert_eq!((u1.start_s, u1.end_s), (2.0, 4.0));
        assert!(u1.end_s < k0.end_s, "upload hidden behind the kernel");
        let k1 = e.submit(s1, EngineKind::Compute, 5.0, 0.0);
        assert_eq!(k1.start_s, k0.end_s, "one compute engine: kernels serialize");
        assert_eq!(e.horizon(), 17.0);
    }

    #[test]
    fn single_engine_serializes_copies() {
        let mut e = StreamEngine::new();
        let s0 = e.create_stream();
        let s1 = e.create_stream();
        let a = e.submit(s0, EngineKind::Copy, 4.0, 0.0);
        let b = e.submit(s1, EngineKind::Copy, 4.0, 0.0);
        assert_eq!(b.start_s, a.end_s, "one copy engine: transfers serialize");
    }

    #[test]
    fn ready_copy_backfills_gap_left_by_waiting_download() {
        let mut e = StreamEngine::new();
        let s0 = e.create_stream();
        let s1 = e.create_stream();
        let u0 = e.submit(s0, EngineKind::Copy, 2.0, 0.0);
        let k0 = e.submit(s0, EngineKind::Compute, 10.0, 0.0);
        let d0 = e.submit(s0, EngineKind::Copy, 1.0, 0.0);
        // Stream 0's download cannot start before its kernel finishes…
        assert_eq!((u0.end_s, k0.end_s), (2.0, 12.0));
        assert_eq!((d0.start_s, d0.end_s), (12.0, 13.0));
        // …but the copy engine is idle meanwhile, and stream 1's upload is
        // ready: it backfills the gap instead of queueing behind d0.
        let u1 = e.submit(s1, EngineKind::Copy, 2.0, 0.0);
        assert_eq!((u1.start_s, u1.end_s), (2.0, 4.0), "ready upload fills the idle gap");
        // A transfer too wide for any gap lands after the conflicting
        // intervals, never on top of one.
        let big = e.submit(s1, EngineKind::Copy, 9.0, 0.0);
        assert_eq!(big.start_s, 13.0, "gap [4,12) is too narrow for 9s");
    }

    #[test]
    fn events_order_across_streams() {
        let mut e = StreamEngine::new();
        let s0 = e.create_stream();
        let s1 = e.create_stream();
        e.submit(s0, EngineKind::Compute, 7.0, 0.0);
        let ev = e.record_event(s0);
        assert_eq!(e.event_time(ev), 7.0);
        e.wait_event(s1, ev);
        let op = e.submit(s1, EngineKind::Copy, 1.0, 0.0);
        assert_eq!(op.start_s, 7.0, "stream 1 waited for stream 0's event");
    }

    #[test]
    fn not_before_lower_bounds_submission() {
        let mut e = StreamEngine::new();
        let s = e.create_stream();
        let op = e.submit(s, EngineKind::Copy, 1.0, 5.0);
        assert_eq!(op.start_s, 5.0, "an op cannot start before it was issued");
        // An idle gap between submissions does not rewind anything.
        let later = e.submit(s, EngineKind::Copy, 1.0, 100.0);
        assert_eq!(later.start_s, 100.0);
        assert_eq!(e.horizon(), 101.0);
    }

    #[test]
    fn peek_matches_submit() {
        let mut e = StreamEngine::new();
        let s0 = e.create_stream();
        let s1 = e.create_stream();
        e.submit(s0, EngineKind::Compute, 3.0, 0.0);
        let peek = e.peek_start(s1, EngineKind::Compute, 1.0);
        let op = e.submit(s1, EngineKind::Compute, 2.0, 1.0);
        assert_eq!(peek, op.start_s);
    }
}
