//! The span recorder and its Chrome trace-event JSON export.
//!
//! Timestamps are *simulated seconds* supplied by the caller (a `DevClock`
//! total, or a warp's cycle count over the core clock) — never wall time.
//! On export they become the microsecond `ts`/`dur` fields of the Chrome
//! trace-event format, so a trace loads directly in Perfetto or
//! `chrome://tracing`. Each device is modeled as one trace *process*
//! (`pid` = device number, the initial device comes last), and tracks within a
//! device (`tid`) separate the driver stream (tid 0) from per-warp
//! in-kernel streams.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vmcommon::sync::Mutex;

use crate::flight::FlightRecorder;
// JSON string escaping is shared with the flight recorder's JSONL dump.
use crate::json::escape_into as write_json_str;

/// Event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `B` — span begin; paired with the next [`Phase::End`] on the track.
    Begin,
    /// `E` — span end.
    End,
    /// `X` — complete event carrying its own duration.
    Complete,
    /// `i` — zero-duration instant.
    Instant,
    /// `M` — metadata (process names).
    Metadata,
}

impl Phase {
    pub fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Complete => "X",
            Phase::Instant => "i",
            Phase::Metadata => "M",
        }
    }
}

/// One argument attached to an event (`args` object in the export).
#[derive(Clone, Debug)]
pub enum ArgValue {
    U64(u64),
    F64(f64),
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub ph: Phase,
    pub name: String,
    pub cat: &'static str,
    /// Trace process: the device number (initial device = `num_devices`).
    pub pid: u64,
    /// Track within the device: 0 = driver stream, warps use their own.
    pub tid: u64,
    /// Simulated timestamp, in seconds since the device clock's reset.
    pub ts_s: f64,
    /// Duration in simulated seconds ([`Phase::Complete`] only).
    pub dur_s: f64,
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Handle for a begun span; feed it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId {
    pub pid: u64,
    pub tid: u64,
}

/// Scoped span: ends the span at drop, stamping it with the closure's
/// current simulated time — so error-return paths still close their spans.
pub struct SpanGuard<'a, F: Fn() -> f64> {
    tracer: &'a Tracer,
    span: SpanId,
    now: F,
}

impl<F: Fn() -> f64> Drop for SpanGuard<'_, F> {
    fn drop(&mut self) {
        self.tracer.end(self.span, (self.now)());
    }
}

/// The recorder. Disabled, every call is one relaxed atomic load; enabled,
/// a short critical section appending to a vector.
pub struct Tracer {
    enabled: AtomicBool,
    events: Mutex<Vec<TraceEvent>>,
    named_pids: Mutex<BTreeSet<u64>>,
    named_tids: Mutex<BTreeSet<(u64, u64)>>,
    /// Always-on post-mortem ring: every non-metadata event is mirrored
    /// here *before* the enabled gate, so disabled runs still keep a tail.
    flight: Arc<FlightRecorder>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_flight(enabled, Arc::new(FlightRecorder::default()))
    }

    /// A tracer mirroring events into a shared flight ring (the
    /// [`crate::Obs`] constructors pass the metrics registry's ring).
    pub fn with_flight(enabled: bool, flight: Arc<FlightRecorder>) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            events: Mutex::new(Vec::new()),
            named_pids: Mutex::new(BTreeSet::new()),
            named_tids: Mutex::new(BTreeSet::new()),
            flight,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, ev: TraceEvent) {
        let mut detail = String::new();
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                detail.push(' ');
            }
            match v {
                ArgValue::U64(n) => detail.push_str(&format!("{k}={n}")),
                ArgValue::F64(x) => detail.push_str(&format!("{k}={}", fmt_f64(*x))),
                ArgValue::Str(s) => detail.push_str(&format!("{k}={s}")),
            }
        }
        self.flight.record(ev.ph.code(), ev.pid, ev.tid, ev.ts_s, &ev.name, ev.cat, detail);
        if self.is_enabled() {
            self.events.lock().push(ev);
        }
    }

    /// Open a span on `(pid, tid)` at simulated time `ts_s`.
    pub fn begin(
        &self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &'static str,
        ts_s: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanId {
        self.push(TraceEvent {
            ph: Phase::Begin,
            name: name.to_string(),
            cat,
            pid,
            tid,
            ts_s,
            dur_s: 0.0,
            args,
        });
        SpanId { pid, tid }
    }

    /// Close the most recent open span on the id's track.
    pub fn end(&self, span: SpanId, ts_s: f64) {
        self.end_track(span.pid, span.tid, ts_s);
    }

    /// Close the most recent open span on `(pid, tid)` — for callers that
    /// bracket a span across separate hook calls and cannot carry a
    /// [`SpanId`] between them.
    pub fn end_track(&self, pid: u64, tid: u64, ts_s: f64) {
        self.push(TraceEvent {
            ph: Phase::End,
            name: String::new(),
            cat: "",
            pid,
            tid,
            ts_s,
            dur_s: 0.0,
            args: Vec::new(),
        });
    }

    /// Begin a span and end it automatically when the guard drops, at the
    /// simulated time `now()` reports then.
    pub fn span<F: Fn() -> f64>(
        &self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &'static str,
        now: F,
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanGuard<'_, F> {
        let span = self.begin(pid, tid, name, cat, now(), args);
        SpanGuard { tracer: self, span, now }
    }

    /// A complete (`X`) event: known start and duration in one record.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &'static str,
        ts_s: f64,
        dur_s: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(TraceEvent {
            ph: Phase::Complete,
            name: name.to_string(),
            cat,
            pid,
            tid,
            ts_s,
            dur_s,
            args,
        });
    }

    /// A zero-duration instant event.
    pub fn instant(
        &self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &'static str,
        ts_s: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(TraceEvent {
            ph: Phase::Instant,
            name: name.to_string(),
            cat,
            pid,
            tid,
            ts_s,
            dur_s: 0.0,
            args,
        });
    }

    /// Name a trace process (device). First caller wins; later calls for
    /// the same pid are dropped so layers can race to name their device.
    pub fn set_process_name(&self, pid: u64, name: &str) {
        if !self.is_enabled() || !self.named_pids.lock().insert(pid) {
            return;
        }
        self.events.lock().push(TraceEvent {
            ph: Phase::Metadata,
            name: "process_name".to_string(),
            cat: "__metadata",
            pid,
            tid: 0,
            ts_s: 0.0,
            dur_s: 0.0,
            args: vec![("name", ArgValue::Str(name.to_string()))],
        });
    }

    /// Name a track within a process (e.g. a command stream). First caller
    /// wins, like [`Tracer::set_process_name`].
    pub fn set_thread_name(&self, pid: u64, tid: u64, name: &str) {
        if !self.is_enabled() || !self.named_tids.lock().insert((pid, tid)) {
            return;
        }
        self.events.lock().push(TraceEvent {
            ph: Phase::Metadata,
            name: "thread_name".to_string(),
            cat: "__metadata",
            pid,
            tid,
            ts_s: 0.0,
            dur_s: 0.0,
            args: vec![("name", ArgValue::Str(name.to_string()))],
        });
    }

    /// Snapshot of all recorded events, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Serialize to Chrome trace-event JSON (the array form): `ts`/`dur` in
    /// microseconds, metadata events hoisted to the front so viewers see
    /// process names before their first sample.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events.lock();
        let mut out = String::from("[");
        let mut first = true;
        let ordered = events
            .iter()
            .filter(|e| e.ph == Phase::Metadata)
            .chain(events.iter().filter(|e| e.ph != Phase::Metadata));
        for ev in ordered {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n  ");
            write_event(&mut out, ev);
        }
        out.push_str("\n]\n");
        out
    }

    /// Write the Chrome trace to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"ph\":\"");
    out.push_str(ev.ph.code());
    out.push_str("\",\"name\":");
    write_json_str(out, &ev.name);
    if !ev.cat.is_empty() {
        out.push_str(",\"cat\":");
        write_json_str(out, ev.cat);
    }
    out.push_str(&format!(",\"pid\":{},\"tid\":{}", ev.pid, ev.tid));
    out.push_str(&format!(",\"ts\":{}", micros(ev.ts_s)));
    if ev.ph == Phase::Complete {
        out.push_str(&format!(",\"dur\":{}", micros(ev.dur_s)));
    }
    if ev.ph == Phase::Instant {
        // Thread-scoped instants render as small arrows on the track.
        out.push_str(",\"s\":\"t\"");
    }
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(out, k);
            out.push(':');
            match v {
                ArgValue::U64(n) => out.push_str(&n.to_string()),
                ArgValue::F64(x) => out.push_str(&fmt_f64(*x)),
                ArgValue::Str(s) => write_json_str(out, s),
            }
        }
        out.push('}');
    }
    out.push('}');
}

/// Seconds → microseconds with sub-µs precision kept (Perfetto accepts
/// fractional `ts`).
fn micros(s: f64) -> String {
    fmt_f64(s * 1e6)
}

fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_string();
    }
    let s = format!("{x:.3}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.begin(0, 0, "x", "test", 0.0, vec![]);
        t.end(s, 1.0);
        t.instant(0, 0, "i", "test", 0.5, vec![]);
        t.set_process_name(0, "dev0");
        assert!(t.is_empty());
        assert_eq!(t.to_chrome_json().trim(), "[\n]");
    }

    #[test]
    fn span_guard_closes_on_drop() {
        let t = Tracer::new(true);
        {
            let _g = t.span(1, 2, "work", "test", || 3.0, vec![("n", 7u64.into())]);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].ph, Phase::Begin);
        assert_eq!(evs[1].ph, Phase::End);
        assert_eq!((evs[1].pid, evs[1].tid), (1, 2));
        assert_eq!(evs[1].ts_s, 3.0);
    }

    #[test]
    fn chrome_json_is_parseable_and_microsecond_scaled() {
        let t = Tracer::new(true);
        t.set_process_name(3, "dev3");
        t.complete(3, 0, "h2d", "memcpy", 0.001, 0.0005, vec![("bytes", 4096u64.into())]);
        t.instant(3, 0, "fault", "fault", 0.002, vec![("site", "h2d".into())]);
        let json = t.to_chrome_json();
        let v = crate::json::parse(&json).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 3);
        // Metadata hoisted first.
        assert_eq!(arr[0].get("ph").unwrap().as_str(), Some("M"));
        let x = &arr[1];
        assert_eq!(x.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(x.get("ts").unwrap().as_f64(), Some(1000.0));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(500.0));
        assert_eq!(x.get("args").unwrap().get("bytes").unwrap().as_f64(), Some(4096.0));
    }

    #[test]
    fn process_names_dedupe_first_wins() {
        let t = Tracer::new(true);
        t.set_process_name(0, "first");
        t.set_process_name(0, "second");
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        match &evs[0].args[0].1 {
            ArgValue::Str(s) => assert_eq!(s, "first"),
            other => panic!("unexpected arg {other:?}"),
        }
    }

    #[test]
    fn strings_are_escaped() {
        let t = Tracer::new(true);
        t.instant(0, 0, "weird \"name\"\n", "test", 0.0, vec![]);
        let json = t.to_chrome_json();
        assert!(json.contains("weird \\\"name\\\"\\n"));
        crate::json::parse(&json).unwrap();
    }
}
