//! Per-device counters and histograms.
//!
//! Keys are `(pid, name)` where `pid` matches the trace process numbering
//! (device number; initial device = `num_devices`). Histograms use log2 buckets
//! — bucket `i` counts values with bit-length `i` — which is plenty for the
//! quantities tracked here (bytes per transfer, cycles per launch), and
//! supports deterministic percentile summaries ([`Hist::percentile`]): a
//! reported percentile is the inclusive upper bound of the bucket the
//! target rank falls in (`2^i - 1`; bucket 0 reports 0).
//!
//! Every delta is also mirrored into the shared [`FlightRecorder`] ring,
//! so a post-mortem dump shows the metric activity interleaved with spans.

use std::collections::BTreeMap;
use std::sync::Arc;

use vmcommon::sync::Mutex;

use crate::flight::FlightRecorder;

/// A log2-bucket histogram.
#[derive(Clone, Debug)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    /// `buckets[i]` counts observations with bit-length `i` (0 → bucket 0).
    pub buckets: [u64; 33],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist { count: 0, sum: 0, buckets: [0; 33] }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(32)
    }

    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[Self::bucket(v)] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile as the inclusive upper bound of the log2
    /// bucket holding the target rank: bucket 0 reports 0, bucket `i`
    /// reports `2^i - 1`. Deterministic, and an upper bound on the true
    /// percentile (never an underestimate).
    ///
    /// `p` is clamped to `[0, 100]`: `p = 0` reports the minimum bucket
    /// bound, `p = 100` (or anything above) the maximum. An empty histogram
    /// has no percentiles and reports `None`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(if i == 0 { 0 } else { (1u64 << i) - 1 });
            }
        }
        unreachable!("buckets sum to count")
    }
}

/// The metrics registry. Always-on: a counter bump is one short critical
/// section on a `BTreeMap`, far off every hot path that matters here.
pub struct Metrics {
    counters: Mutex<BTreeMap<(u64, String), u64>>,
    hists: Mutex<BTreeMap<(u64, String), Hist>>,
    /// Shared post-mortem ring; deltas are mirrored here.
    flight: Arc<FlightRecorder>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::with_flight(Arc::new(FlightRecorder::default()))
    }
}

impl Metrics {
    /// A registry mirroring its deltas into a shared flight ring (the
    /// [`crate::Obs`] constructors pass the tracer's ring).
    pub fn with_flight(flight: Arc<FlightRecorder>) -> Metrics {
        Metrics {
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            flight,
        }
    }

    pub fn incr(&self, pid: u64, name: &str, by: u64) {
        if by == 0 {
            return;
        }
        self.flight.record("ctr", pid, 0, 0.0, name, "metric", format!("+{by}"));
        *self.counters.lock().entry((pid, name.to_string())).or_insert(0) += by;
    }

    pub fn observe(&self, pid: u64, name: &str, value: u64) {
        self.flight.record("obs", pid, 0, 0.0, name, "metric", format!("={value}"));
        self.hists.lock().entry((pid, name.to_string())).or_default().observe(value);
    }

    pub fn counter(&self, pid: u64, name: &str) -> u64 {
        self.counters.lock().get(&(pid, name.to_string())).copied().unwrap_or(0)
    }

    pub fn hist(&self, pid: u64, name: &str) -> Option<Hist> {
        self.hists.lock().get(&(pid, name.to_string())).cloned()
    }

    /// All counters for one device, name-sorted.
    pub fn counters_for(&self, pid: u64) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .iter()
            .filter(|((p, _), _)| *p == pid)
            .map(|((_, name), v)| (name.clone(), *v))
            .collect()
    }

    /// Plain-text dump of every counter and histogram, for reports.
    /// Deterministically ordered: counters first, then histograms, each
    /// sorted by `(pid, name)` (the `BTreeMap` key order).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for ((pid, name), v) in self.counters.lock().iter() {
            out.push_str(&format!("dev{pid} {name} = {v}\n"));
        }
        for ((pid, name), h) in self.hists.lock().iter() {
            out.push_str(&format!(
                "dev{pid} {name}: count={} sum={} mean={:.1} p50={} p95={} p99={}\n",
                h.count,
                h.sum,
                h.mean(),
                h.percentile(50.0).unwrap_or(0),
                h.percentile(95.0).unwrap_or(0),
                h.percentile(99.0).unwrap_or(0)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_per_device() {
        let m = Metrics::default();
        m.incr(0, "launches", 2);
        m.incr(1, "launches", 5);
        m.incr(0, "launches", 1);
        assert_eq!(m.counter(0, "launches"), 3);
        assert_eq!(m.counter(1, "launches"), 5);
        assert_eq!(m.counter(2, "launches"), 0);
        assert_eq!(m.counters_for(0), vec![("launches".to_string(), 3)]);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let m = Metrics::default();
        for v in [0u64, 1, 1, 7, 4096] {
            m.observe(0, "bytes", v);
        }
        let h = m.hist(0, "bytes").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 4105);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 2); // 1, 1
        assert_eq!(h.buckets[3], 1); // 7
        assert_eq!(h.buckets[13], 1); // 4096
        assert!(m.hist(0, "other").is_none());
    }

    #[test]
    fn percentiles_on_hand_built_buckets() {
        // 10 zeros (bucket 0), 80 values of bit-length 4 (bucket 4,
        // upper bound 15), 10 of bit-length 10 (bucket 10, bound 1023).
        let mut h = Hist { count: 100, ..Hist::default() };
        h.buckets[0] = 10;
        h.buckets[4] = 80;
        h.buckets[10] = 10;
        assert_eq!(h.percentile(5.0), Some(0)); // rank 5 → bucket 0
        assert_eq!(h.percentile(10.0), Some(0)); // rank 10, still bucket 0
        assert_eq!(h.percentile(50.0), Some(15)); // rank 50 → bucket 4
        assert_eq!(h.percentile(90.0), Some(15)); // rank 90, last of bucket 4
        assert_eq!(h.percentile(95.0), Some(1023)); // rank 95 → bucket 10
        assert_eq!(h.percentile(99.0), Some(1023));
        assert_eq!(h.percentile(100.0), Some(1023));
    }

    #[test]
    fn percentile_of_empty_histogram_is_none() {
        let h = Hist::default();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(99.0), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentile_single_observation() {
        let mut h = Hist::default();
        h.observe(4096); // bucket 13, upper bound 8191
                         // Every percentile of a single observation is that observation's
                         // bucket bound, including both clamp edges.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(8191));
        }
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let mut h = Hist { count: 100, ..Hist::default() };
        h.buckets[0] = 10;
        h.buckets[4] = 90;
        // p below 0 → minimum bucket bound; above 100 → maximum. Neither
        // may fall off the bucket scan (the old code returned u64::MAX for
        // p > 100).
        assert_eq!(h.percentile(-5.0), Some(0));
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(100.0), Some(15));
        assert_eq!(h.percentile(250.0), Some(15));
        // NaN survives the clamp but the rank floor of 1 still applies, so
        // it degrades to the minimum instead of panicking or escaping.
        assert_eq!(h.percentile(f64::NAN), Some(0));
    }

    #[test]
    fn dump_order_is_deterministic() {
        let build = |order: &[(u64, &str, u64)]| {
            let m = Metrics::default();
            for &(pid, name, v) in order {
                m.incr(pid, name, v);
            }
            m.observe(1, "lat", 7);
            m.observe(0, "lat", 100);
            m.dump()
        };
        let a = build(&[(1, "b", 2), (0, "z", 1), (0, "a", 3)]);
        let b = build(&[(0, "a", 3), (0, "z", 1), (1, "b", 2)]);
        assert_eq!(a, b, "dump must not depend on insertion order");
        // Counters sorted by (pid, name), then histograms.
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(
            lines,
            vec![
                "dev0 a = 3",
                "dev0 z = 1",
                "dev1 b = 2",
                "dev0 lat: count=1 sum=100 mean=100.0 p50=127 p95=127 p99=127",
                "dev1 lat: count=1 sum=7 mean=7.0 p50=7 p95=7 p99=7",
            ]
        );
    }
}
