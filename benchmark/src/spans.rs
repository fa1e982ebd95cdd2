//! The traced run's span recorder: one span around every call the
//! benchmark makes into a layer's public function. Spans stay in memory
//! until the run ends; self time is duration minus direct children.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// The layer a span's callee belongs to (crate names, plus `bench` for the
/// benchmark's own shells: passes, ops, verification).
pub type Layer = &'static str;

#[derive(Clone, Debug)]
pub struct Span {
    pub layer: Layer,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Timed pass and op the span belongs to (`u32::MAX` outside passes).
    pub pass: u32,
    pub op: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Single-threaded recorder (the load generator is one thread).
pub struct Spans {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    ctx: Cell<(u32, u32)>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    spans: &'a Spans,
    idx: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.idx {
            let now = self.spans.now_us();
            self.spans.spans.borrow_mut()[i].end_us = now;
            self.spans.stack.borrow_mut().pop();
        }
    }
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            ctx: Cell::new((u32::MAX, u32::MAX)),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Pass and op ids stamped on spans opened from now on.
    pub fn set_ctx(&self, pass: u32, op: u32) {
        self.ctx.set((pass, op));
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn enter(&self, layer: Layer, name: &str) -> Guard<'_> {
        if !self.enabled.get() {
            return Guard { spans: self, idx: None };
        }
        let (pass, op) = self.ctx.get();
        let parent = self.stack.borrow().last().copied();
        let start_us = self.now_us();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            layer,
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent,
            pass,
            op,
        });
        let idx = spans.len() - 1;
        self.stack.borrow_mut().push(idx);
        Guard { spans: self, idx: Some(idx) }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&self, layer: Layer, name: &str, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(layer, name);
        f()
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children never overlap: the recorder is one thread's stack).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us();
        }
    }
    own
}

/// Self seconds per `(layer, name)` over the spans `keep` selects.
pub fn self_seconds_by_name(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<(Layer, String), f64> {
    let own = self_times_us(spans);
    let mut out = BTreeMap::new();
    for (s, us) in spans.iter().zip(own) {
        if keep(s) {
            *out.entry((s.layer, s.name.clone())).or_insert(0.0) += us / 1e6;
        }
    }
    out
}

/// Chrome trace-event JSON (array form; loads in Perfetto and
/// `chrome://tracing`). One complete event per span; `args` carries the
/// span's id, its parent's id, and the pass/op it belongs to.
pub fn chrome_json(spans: &[Span]) -> String {
    let own = self_times_us(spans);
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"name\":");
        obs::json::escape_into(&mut out, &s.name);
        out.push_str(",\"cat\":");
        obs::json::escape_into(&mut out, s.layer);
        let id = |v: u32| if v == u32::MAX { -1 } else { i64::from(v) };
        out.push_str(&format!(
            ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\
             \"parent\":{},\"pass\":{},\"op\":{},\"self_us\":{:.3}}}}}",
            s.start_us,
            s.dur_us(),
            s.parent.map_or(-1, |p| p as i64),
            id(s.pass),
            id(s.op),
            own[i],
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: layer.to_string(),
            start_us: start,
            end_us: end,
            parent,
            pass: 0,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // pass[0..100] > op[10..90] > {a[20..40], b[50..80]}
        let spans = vec![
            span("bench", 0.0, 100.0, None),
            span("core", 10.0, 90.0, Some(0)),
            span("cudadev", 20.0, 40.0, Some(1)),
            span("gpusim", 50.0, 80.0, Some(1)),
        ];
        assert_eq!(self_times_us(&spans), vec![20.0, 30.0, 20.0, 30.0]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_us(&spans).iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn grandchildren_are_not_subtracted_twice() {
        let spans = vec![
            span("a", 0.0, 10.0, None),
            span("b", 1.0, 9.0, Some(0)),
            span("c", 2.0, 8.0, Some(1)),
        ];
        assert_eq!(self_times_us(&spans), vec![2.0, 2.0, 6.0]);
    }

    #[test]
    fn recorder_nests_and_stamps_context() {
        let sp = Spans::new(true);
        sp.set_ctx(3, 1);
        {
            let _outer = sp.enter("bench", "op");
            sp.time("core", "call", || std::hint::black_box(1 + 1));
        }
        sp.set_enabled(false);
        sp.time("core", "ignored", || ());
        let spans = sp.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].pass, spans[1].op), (3, 1));
        assert!(spans[0].end_us >= spans[1].end_us && spans[1].end_us >= spans[1].start_us);
    }

    #[test]
    fn by_name_sums_self_time_of_selected_spans() {
        let spans = vec![
            span("bench", 0.0, 100.0, None),
            span("core", 10.0, 90.0, Some(0)),
            span("core", 20.0, 40.0, Some(1)),
        ];
        let by = self_seconds_by_name(&spans, |s| s.layer == "core");
        assert_eq!(by.len(), 1);
        assert!((by[&("core", "core".to_string())] - 80.0e-6).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_parses_and_keeps_parents() {
        let spans = vec![span("bench", 0.0, 5.0, None), span("mi\"nic", 1.0, 2.0, Some(0))];
        let parsed = obs::json::parse(&chrome_json(&spans)).expect("valid JSON");
        let arr = parsed.as_array().expect("array form");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("cat").and_then(|c| c.as_str()), Some("mi\"nic"));
        let parent = arr[1].get("args").and_then(|a| a.get("parent")).and_then(|p| p.as_f64());
        assert_eq!(parent, Some(0.0));
    }
}
