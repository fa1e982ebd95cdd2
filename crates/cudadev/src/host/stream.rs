//! Async command streams of the cudadev host driver.
//!
//! When [`super::CudaDevConfig::async_streams`] is set, every target
//! region gets its own stream; the h2d copies, kernel launch and d2h
//! copies issued inside the region are *executed eagerly* (so results are
//! bit-identical to synchronous mode) but *scheduled virtually* on a
//! [`gpusim::StreamEngine`] — a copy engine and a compute engine that
//! overlap on the simulated clock. Regions marked `nowait` leave their
//! work queued past region end, so consecutive regions overlap; a
//! `taskwait` (or an aggregate clock report) drains the queues.
//!
//! Clock accounting happens at **flush** time: while operations are
//! queued, their busy time accumulates in per-phase pending sums and the
//! engine tracks the schedule's horizon. A flush charges the pending sums
//! to the clock's phase buckets and books the hidden share —
//! `busy − (horizon − before)` — as [`super::DevClock::overlap_s`], so
//! `total_s()` lands exactly on `max(horizon, before)`: elapsed simulated
//! time, with per-phase attribution preserved.

use gpusim::{EngineKind, LaunchStats, StreamEngine};
use vmcommon::sync::Mutex;

use super::{CudaDev, DevClock};

/// First trace track (`tid`) used for per-stream operations. Stream `s`
/// of a device draws its async copies and kernels on track
/// `STREAM_TRACK_BASE + s` — above the driver stream (tid 0) and the
/// per-block kernel tracks (64..96).
pub const STREAM_TRACK_BASE: u64 = 100;

/// Per-device async command-stream state.
#[derive(Default)]
pub(super) struct AsyncState {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    engine: StreamEngine,
    /// Busy time queued since the last flush, by clock phase.
    pending_h2d: f64,
    pending_d2h: f64,
    pending_kernel: f64,
    /// Stream of the target region currently executing on the host
    /// thread; `None` = operations run synchronously.
    region: Option<usize>,
    /// Scoped override (the governor routes tile operations onto
    /// alternating streams for double buffering).
    overridden: Option<usize>,
    /// The current region carried `nowait`: leave its work queued at
    /// region end.
    nowait: bool,
}

impl Inner {
    fn flush(&mut self, clock: &Mutex<DevClock>) {
        let busy = self.pending_h2d + self.pending_d2h + self.pending_kernel;
        if busy <= 0.0 {
            return;
        }
        let mut clk = clock.lock();
        let before = clk.total_s();
        clk.h2d_s += self.pending_h2d;
        clk.d2h_s += self.pending_d2h;
        clk.kernel_s += self.pending_kernel;
        // The schedule's critical path never exceeds the summed busy time
        // (every op was issued at or before `before`), so the hidden share
        // is non-negative; clamp only against float noise.
        let advance = (self.engine.horizon() - before).clamp(0.0, busy);
        clk.overlap_s += busy - advance;
        self.pending_h2d = 0.0;
        self.pending_d2h = 0.0;
        self.pending_kernel = 0.0;
    }
}

impl AsyncState {
    /// The stream async operations should be queued on right now.
    pub(super) fn current(&self) -> Option<usize> {
        let inner = self.inner.lock();
        inner.overridden.or(inner.region)
    }

    pub(super) fn reset(&self) {
        *self.inner.lock() = Inner::default();
    }

    /// Quiesce the streams before a device reset or a broken-latch: charge
    /// all queued busy time to the clock, then drop the open region, any
    /// stream override and a pending `nowait` marker. Queued work was
    /// executed eagerly, so draining loses no results — but a host
    /// fallback (or a replayed launch) must not find half a region still
    /// scheduled on the engines.
    pub(super) fn drain_and_clear(&self, clock: &Mutex<DevClock>) {
        let mut inner = self.inner.lock();
        inner.flush(clock);
        inner.region = None;
        inner.overridden = None;
        inner.nowait = false;
    }
}

/// Scoped stream override: restores the previous routing on drop, so
/// error paths inside the governor cannot leak a tile's stream into
/// later operations.
pub(crate) struct StreamOverride<'a> {
    dev: &'a CudaDev,
    prev: Option<usize>,
}

impl Drop for StreamOverride<'_> {
    fn drop(&mut self) {
        self.dev.streams.inner.lock().overridden = self.prev;
    }
}

impl CudaDev {
    /// Is async submission active (an async-mode region is open)?
    pub(crate) fn async_stream(&self) -> Option<usize> {
        self.streams.current()
    }

    /// A target region begins: give it a stream (async mode only).
    pub fn stream_region_begin(&self) {
        if !self.cfg.async_streams {
            return;
        }
        let mut inner = self.streams.inner.lock();
        let sid = inner.engine.create_stream();
        inner.region = Some(sid);
        inner.nowait = false;
        drop(inner);
        self.cfg.obs.tracer.set_thread_name(
            self.pid(),
            STREAM_TRACK_BASE + sid as u64,
            &format!("stream {sid}"),
        );
    }

    /// The current region carries `nowait`: defer synchronization.
    pub fn stream_mark_nowait(&self) {
        self.streams.inner.lock().nowait = true;
    }

    /// A target region ends. Without `nowait` this is a synchronization
    /// point: queued work drains into the clock. With `nowait` the queue
    /// survives, so the next region's operations overlap it.
    pub fn stream_region_end(&self) {
        let mut inner = self.streams.inner.lock();
        inner.region = None;
        if !inner.nowait {
            inner.flush(&self.clock);
        }
        inner.nowait = false;
    }

    /// Drain all queued async work into the clock (`taskwait`, or any
    /// external clock read).
    pub fn stream_sync(&self) {
        self.streams.inner.lock().flush(&self.clock);
    }

    /// The clock with all queued async work drained — the only correct
    /// way to *read* the clock from outside the driver in async mode.
    pub fn clock_snapshot(&self) -> DevClock {
        self.stream_sync();
        *self.clock.lock()
    }

    /// An extra stream for the governor's double-buffered tiling.
    pub(crate) fn new_stream(&self) -> usize {
        let mut inner = self.streams.inner.lock();
        let sid = inner.engine.create_stream();
        drop(inner);
        self.cfg.obs.tracer.set_thread_name(
            self.pid(),
            STREAM_TRACK_BASE + sid as u64,
            &format!("stream {sid}"),
        );
        sid
    }

    /// Route subsequent async operations onto `sid` until the guard drops.
    pub(crate) fn override_stream(&self, sid: usize) -> StreamOverride<'_> {
        let mut inner = self.streams.inner.lock();
        let prev = inner.overridden.replace(sid);
        drop(inner);
        StreamOverride { dev: self, prev }
    }

    /// Queue an eagerly-executed transfer of `dur_s` simulated seconds on
    /// `stream` and draw it on the stream's trace track.
    pub(crate) fn async_copy(&self, stream: usize, h2d: bool, dur_s: f64, bytes: u64) {
        let mut inner = self.streams.inner.lock();
        let not_before = self.clock.lock().total_s();
        let op = inner.engine.submit(stream, EngineKind::Copy, dur_s, not_before);
        if h2d {
            inner.pending_h2d += dur_s;
        } else {
            inner.pending_d2h += dur_s;
        }
        drop(inner);
        self.cfg.obs.tracer.complete(
            self.pid(),
            STREAM_TRACK_BASE + stream as u64,
            if h2d { "h2d" } else { "d2h" },
            "memcpy",
            op.start_s,
            dur_s,
            vec![("bytes", bytes.into()), ("stream", (stream as u64).into())],
        );
    }

    /// Where a kernel queued on `stream` right now would start — the
    /// trace base for the eager simulation, so in-kernel block events
    /// line up with the scheduled kernel span. With single-threaded host
    /// submission, the subsequent [`CudaDev::async_queue_launch`] lands
    /// on exactly this timestamp.
    pub(crate) fn async_kernel_base(&self, stream: usize) -> f64 {
        let inner = self.streams.inner.lock();
        let not_before = self.clock.lock().total_s();
        inner.engine.peek_start(stream, EngineKind::Compute, not_before)
    }

    /// Queue a completed (eagerly-simulated) launch on `stream`: schedule
    /// its measured duration on the compute engine and bump the launch
    /// count. Returns the kernel's start on the stream's timeline.
    pub(crate) fn async_queue_launch(&self, stream: usize, stats: &LaunchStats) -> f64 {
        let mut inner = self.streams.inner.lock();
        let not_before = self.clock.lock().total_s();
        let op = inner.engine.submit(stream, EngineKind::Compute, stats.time_s, not_before);
        inner.pending_kernel += stats.time_s;
        drop(inner);
        self.clock.lock().launches += 1;
        op.start_s
    }
}
