//! Always-on flight recorder: a bounded ring of the most recent spans,
//! instants and metric deltas, dumped as a JSONL post-mortem artifact.
//!
//! Chrome traces answer "what happened over the whole run" but only when
//! tracing was enabled up front; a latched device on an untraced run used
//! to leave no record at all. The flight recorder closes that gap: every
//! [`crate::Tracer`] event and [`crate::Metrics`] delta is also written
//! into a fixed-capacity ring (oldest entries overwritten), regardless of
//! whether the tracer is enabled — so the *tail* of events leading up to a
//! failure is always available at near-zero cost.
//!
//! Dumps are written by [`FlightRecorder::post_mortem`], which fires at
//! most once per recorder (first trigger wins): `cudadev` calls it when a
//! watchdog timeout is charged and when the circuit breaker latches a
//! device, and `fig4` calls it at exit. A dump is only written
//! when a path was configured ([`crate::Obs::new`]; `fig4 --flight-dump
//! PATH` passes one) — so ordinary runs and tests never touch the
//! filesystem.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use vmcommon::sync::Mutex;

/// Ring capacity: enough to cover a full recovery storm (resets, probes,
/// replays and the latch) with the preceding region/transfer context.
pub const FLIGHT_CAPACITY: usize = 256;

/// One ring entry. `kind` is the Chrome phase code for tracer events
/// (`"B"`/`"E"`/`"X"`/`"i"`) or `"ctr"`/`"obs"` for metric deltas and
/// histogram observations.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Monotonically increasing sequence number (never resets, so gaps
    /// after wrap-around are visible).
    pub seq: u64,
    pub kind: &'static str,
    pub pid: u64,
    pub tid: u64,
    /// Simulated seconds (0 for metric deltas, which carry no clock).
    pub ts_s: f64,
    pub name: String,
    pub cat: &'static str,
    /// Compact `key=value` rendering of the event's payload.
    pub detail: String,
}

struct Ring {
    buf: Vec<FlightEvent>,
    next_seq: u64,
}

/// The bounded ring plus its dump trigger. Shared (via `Arc`) between the
/// tracer and the metrics registry of one [`crate::Obs`] handle.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    dump_path: Option<PathBuf>,
    dumped: AtomicBool,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::with_path(None)
    }
}

impl FlightRecorder {
    /// A recorder with an explicit dump path (None = record only).
    pub fn with_path(dump_path: Option<PathBuf>) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(Ring { buf: Vec::with_capacity(64), next_seq: 0 }),
            dump_path,
            dumped: AtomicBool::new(false),
        }
    }

    /// Append one entry, overwriting the oldest once the ring is full.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        kind: &'static str,
        pid: u64,
        tid: u64,
        ts_s: f64,
        name: &str,
        cat: &'static str,
        detail: String,
    ) {
        let mut ring = self.ring.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        let ev = FlightEvent { seq, kind, pid, tid, ts_s, name: name.to_string(), cat, detail };
        if ring.buf.len() < FLIGHT_CAPACITY {
            ring.buf.push(ev);
        } else {
            let at = (seq % FLIGHT_CAPACITY as u64) as usize;
            ring.buf[at] = ev;
        }
    }

    /// Entries recorded so far (capped at [`FLIGHT_CAPACITY`]).
    pub fn len(&self) -> usize {
        self.ring.lock().buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the ring, oldest entry first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let ring = self.ring.lock();
        let n = ring.buf.len();
        if n < FLIGHT_CAPACITY {
            return ring.buf.clone();
        }
        let split = (ring.next_seq % FLIGHT_CAPACITY as u64) as usize;
        let mut out = Vec::with_capacity(n);
        out.extend_from_slice(&ring.buf[split..]);
        out.extend_from_slice(&ring.buf[..split]);
        out
    }

    /// The ring as JSONL: one event object per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&format!(
                "{{\"seq\":{},\"kind\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{:.6},\"name\":",
                ev.seq, ev.kind, ev.pid, ev.tid, ev.ts_s
            ));
            crate::json::escape_into(&mut out, &ev.name);
            out.push_str(",\"cat\":");
            crate::json::escape_into(&mut out, ev.cat);
            out.push_str(",\"detail\":");
            crate::json::escape_into(&mut out, &ev.detail);
            out.push_str("}\n");
        }
        out
    }

    /// Dump the ring to the configured path, once: the first trigger
    /// (watchdog timeout, breaker latch, end of run) wins and later calls
    /// are no-ops, so the artifact keeps the tail that led up to the first
    /// failure. Returns the path when a dump was written. A recorder with
    /// no configured path records `reason` in the ring but never touches
    /// the filesystem.
    pub fn post_mortem(&self, reason: &str) -> Option<&Path> {
        let path = self.dump_path.as_deref()?;
        if self.dumped.swap(true, Ordering::SeqCst) {
            return None;
        }
        self.record("i", 0, 0, 0.0, "flight.dump", "flight", format!("reason={reason}"));
        if let Err(e) = std::fs::write(path, self.to_jsonl()) {
            eprintln!("flight recorder: failed to write {}: {e}", path.display());
            return None;
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_entries_in_order() {
        let f = FlightRecorder::default();
        for i in 0..(FLIGHT_CAPACITY as u64 + 10) {
            f.record("i", 0, 0, i as f64, &format!("ev{i}"), "test", String::new());
        }
        let evs = f.events();
        assert_eq!(evs.len(), FLIGHT_CAPACITY);
        assert_eq!(evs[0].name, "ev10");
        assert_eq!(evs.last().unwrap().name, format!("ev{}", FLIGHT_CAPACITY + 9));
        // Sequence numbers stay strictly increasing across the wrap.
        assert!(evs.windows(2).all(|w| w[1].seq == w[0].seq + 1));
    }

    #[test]
    fn jsonl_lines_parse_and_escape() {
        let f = FlightRecorder::default();
        f.record("X", 1, 2, 0.5, "weird \"name\"\n", "fault", "site=h2d".into());
        let jsonl = f.to_jsonl();
        for line in jsonl.lines() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("name").unwrap().as_str(), Some("weird \"name\"\n"));
            assert_eq!(v.get("pid").unwrap().as_f64(), Some(1.0));
        }
    }

    #[test]
    fn post_mortem_first_trigger_wins() {
        let dir = std::env::temp_dir().join("ompi-flight-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("dump-{}.jsonl", std::process::id()));
        let f = FlightRecorder::with_path(Some(path.clone()));
        f.record("i", 0, 0, 0.0, "before", "test", String::new());
        assert!(f.post_mortem("first").is_some());
        f.record("i", 0, 0, 0.0, "after", "test", String::new());
        assert!(f.post_mortem("second").is_none());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"before\""));
        assert!(text.contains("reason=first"));
        assert!(!text.contains("\"after\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn no_path_means_no_dump() {
        let f = FlightRecorder::default();
        f.record("i", 0, 0, 0.0, "x", "test", String::new());
        assert!(f.post_mortem("anything").is_none());
    }
}
