//! What every workload shares: the op/pass model, the verified warm-up,
//! the timed loop and its estimator.
//!
//! A workload is a fixed list of *ops*; a *pass* runs each op once, in an
//! order shuffled per pass from the seed. `cpu_s` is the sum over ops of
//! the lower quartile over passes of that op's reference CPU seconds
//! (`sys::Timing`): per-op order statistics discard each op's own
//! outliers, which a statistic of whole-pass times cannot (one slow op out
//! of eight spoils the pass), and what interference from outside does to a
//! sample is make it larger, so the lower quartile moves less than the
//! median.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use vmcommon::rng::XorShift64;

use crate::spans::Spans;
use crate::stats::{lower_quartile, median, percentile, quartiles};

/// What an op computed. Every field must repeat bit-exactly on every pass:
/// the output checksum, the simulated offload seconds (the paper's metric),
/// and the launch and simulated-block counts (a runner that starts
/// *estimating* launches instead of simulating them would keep its
/// checksum wrong and these two different).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpFacts {
    pub checksum: u64,
    pub sim_s: f64,
    pub launches: u64,
    pub blocks_simulated: u64,
}

pub struct OpRun {
    pub facts: OpFacts,
    /// Operations inside the op (1, or the jobs of a served batch) and how
    /// many of them errored, were refused or returned a wrong value.
    pub attempted: u64,
    pub failed: u64,
    /// Stopwatch latency of each inner operation (served job); empty for
    /// an op that is itself the unit of service.
    pub latencies_ms: Vec<f64>,
}

impl OpRun {
    pub fn single(facts: OpFacts) -> OpRun {
        OpRun { facts, attempted: 1, failed: 0, latencies_ms: Vec::new() }
    }
}

/// Cumulative work counters by name; the traced run reads them around its
/// timed passes. A counter named like a per-layer metric is that metric
/// per pass; the others feed ratios (`workloads::device_counters`).
pub type Counters = BTreeMap<&'static str, f64>;

pub fn per_pass(after: &Counters, before: &Counters, passes: usize) -> Counters {
    after
        .iter()
        .map(|(k, v)| (*k, (v - before.get(k).copied().unwrap_or(0.0)) / passes as f64))
        .collect()
}

pub trait Workload {
    fn op_names(&self) -> Vec<String>;

    /// Run op `i` once. With `verify`, check the complete output against
    /// the op's independent Rust reference (warm-up); without, return the
    /// facts for the bit-exact comparison with the warm-up's.
    fn run_op(&mut self, i: usize, verify: bool, sp: &Spans) -> Result<OpRun, String>;

    fn counters(&self) -> Counters;

    /// Layer drives: call the nested layers directly on this workload's
    /// own programs and sizes and set the per-layer metrics they explain.
    fn drive_layers(
        &mut self,
        cx: &DriveCx,
        out: &mut crate::metrics::Values,
    ) -> Result<(), String>;
}

pub struct DriveCx<'a> {
    pub sp: &'a Spans,
    pub dir: &'a Path,
    /// Counter deltas of one timed pass.
    pub per_pass: &'a Counters,
    /// The run's `op_p50_ms`.
    pub op_p50_ms: f64,
}

/// Tally of operations and failures over warm-up and timed passes.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// The two warm-up passes: each op once verified against its reference,
/// then once more the way the timed passes run it. The second run's facts
/// are what every timed pass must reproduce: a first run may find cold
/// caches (module load, the governor's transfer cache) and read a
/// different simulated clock than the steady state, but never a different
/// output.
pub fn warm_up(w: &mut dyn Workload, sp: &Spans, tally: &mut Tally) -> Vec<OpFacts> {
    let names = w.op_names();
    let mut pinned = Vec::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        sp.set_ctx(u32::MAX, i as u32);
        let _g = sp.enter("bench", &format!("warm:{name}"));
        let mut checksum = None;
        let mut facts = OpFacts::default();
        for verify in [true, false] {
            match w.run_op(i, verify, sp) {
                Ok(run) => {
                    tally.attempted += run.attempted;
                    if run.failed > 0 {
                        tally.fail(run.failed, format!("{name}: {} wrong results", run.failed));
                    } else if *checksum.get_or_insert(run.facts.checksum) != run.facts.checksum {
                        tally.fail(1, format!("{name}: second warm-up run changed the output"));
                    }
                    facts = run.facts;
                }
                Err(e) => {
                    tally.attempted += 1;
                    tally.fail(1, format!("{name}: {e}"));
                }
            }
        }
        pinned.push(facts);
    }
    pinned
}

/// Samples of the timed section.
pub struct Timed {
    pub names: Vec<String>,
    /// Reference CPU seconds (see `sys::Timing`) of op `i` on each pass.
    pub op_s: Vec<Vec<f64>>,
    /// Stopwatch seconds of the same samples.
    pub op_stopwatch_s: Vec<Vec<f64>>,
    /// `sys::Timing::on_cpu_share` of every timed op, in the order run.
    pub on_cpu_share: Vec<f64>,
    /// Passes whose ops were recorded by the span recorder (traced run).
    pub traced_pass: Vec<bool>,
    /// For each timed op that has inner operations (a served batch): the
    /// 50th and 99th percentile of their latencies, in reference CPU
    /// milliseconds.
    pub inner_p50_ms: Vec<f64>,
    pub inner_p99_ms: Vec<f64>,
    /// Each pass's own peak resident set, MiB.
    pub peak_rss_mib: Vec<f64>,
    pub elapsed_s: f64,
}

impl Timed {
    pub fn passes(&self) -> usize {
        self.traced_pass.len()
    }

    /// Σ over ops of the lower quartile over the selected passes of the
    /// op's reference CPU seconds.
    pub fn cpu_s(&self, select: impl Fn(usize) -> bool) -> f64 {
        self.op_s
            .iter()
            .map(|samples| {
                let picked: Vec<f64> = samples
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| select(*p))
                    .map(|(_, s)| *s)
                    .collect();
                lower_quartile(&picked)
            })
            .sum()
    }

    /// Median over the timed ops of the share of the op's stopwatch time in
    /// which no thread of the process was on the CPU.
    pub fn off_cpu_share(&self) -> f64 {
        1.0 - median(&self.on_cpu_share)
    }

    /// `(op_p50_ms, op_p99_ms)`: the latency of the workload's typical and
    /// of its slowest operation. A served job is an operation: the lower
    /// quartile over the batches of the batch's own percentile. A pass op
    /// is an operation observed once per pass: nearest-rank percentiles
    /// over the ops of the op's lower quartile over passes.
    pub fn op_latency_ms(&self) -> (f64, f64) {
        if self.inner_p50_ms.is_empty() {
            let ops: Vec<f64> = self.op_s.iter().map(|s| lower_quartile(s) * 1e3).collect();
            (percentile(&ops, 50.0), percentile(&ops, 99.0))
        } else {
            (lower_quartile(&self.inner_p50_ms), lower_quartile(&self.inner_p99_ms))
        }
    }

    pub fn print_ops(&self, pinned: &[OpFacts]) {
        println!(
            "# {:<20} {:>4} {:>10} {:>10} {:>10} {:>12} {:>12} {:>9}",
            "op", "n", "q1_ms", "median_ms", "q3_ms", "stopwatch_ms", "sim_s", "launches"
        );
        let ops = self.names.iter().zip(&self.op_s).zip(&self.op_stopwatch_s).zip(pinned);
        for (((name, samples), stopwatch), facts) in ops {
            let (q1, q3) = quartiles(samples);
            println!(
                "# {:<20} {:>4} {:>10.3} {:>10.3} {:>10.3} {:>12.3} {:>12.9} {:>9}",
                name,
                samples.len(),
                q1 * 1e3,
                median(samples) * 1e3,
                q3 * 1e3,
                median(stopwatch) * 1e3,
                facts.sim_s,
                facts.launches
            );
        }
        let stopwatch: f64 = self.op_stopwatch_s.iter().map(|s| median(s)).sum();
        println!(
            "# stopwatch seconds per pass (per-op medians) {stopwatch:.4}; reference CPU seconds \
             (per-op lower quartiles) {:.4}; off the CPU {:.1} % of an op (median)",
            self.cpu_s(|_| true),
            self.off_cpu_share() * 100.0
        );
        if !self.inner_p50_ms.is_empty() {
            println!(
                "# job latency, percentiles of each of {} batches: p50 q1 {:.3} median {:.3} ms, \
                 p99 q1 {:.3} median {:.3} ms",
                self.inner_p50_ms.len(),
                lower_quartile(&self.inner_p50_ms),
                median(&self.inner_p50_ms),
                lower_quartile(&self.inner_p99_ms),
                median(&self.inner_p99_ms)
            );
        }
    }
}

/// Below this many passes the per-op quartiles are not worth reporting.
const MIN_PASSES: usize = 3;

/// Run passes for `seconds`. `trace_pass(p)` says whether pass `p` records
/// spans (always false in the untraced run).
pub fn timed_passes(
    w: &mut dyn Workload,
    pinned: &[OpFacts],
    seed: u64,
    seconds: f64,
    sp: &Spans,
    trace_pass: impl Fn(usize) -> bool,
    tally: &mut Tally,
) -> Timed {
    let names = w.op_names();
    let mut rng = XorShift64::new(seed);
    let mut timed = Timed {
        op_s: vec![Vec::new(); names.len()],
        op_stopwatch_s: vec![Vec::new(); names.len()],
        on_cpu_share: Vec::new(),
        names,
        traced_pass: Vec::new(),
        inner_p50_ms: Vec::new(),
        inner_p99_ms: Vec::new(),
        peak_rss_mib: Vec::new(),
        elapsed_s: 0.0,
    };
    let start = Instant::now();
    let mut last_pass_s = 0.0;
    // Stop where the expected overshoot and undershoot of `seconds` balance.
    while timed.passes() < MIN_PASSES || start.elapsed().as_secs_f64() + last_pass_s / 2.0 < seconds
    {
        let pass = timed.passes();
        let traced = trace_pass(pass);
        sp.set_enabled(traced);
        sp.set_ctx(pass as u32, u32::MAX);
        crate::sys::reset_peak_rss();
        let pass_start = Instant::now();
        let _pass_span = sp.enter("bench", "pass");
        let mut order: Vec<usize> = (0..timed.names.len()).collect();
        for k in (1..order.len()).rev() {
            order.swap(k, rng.below(k as u64 + 1) as usize);
        }
        for i in order {
            sp.set_ctx(pass as u32, i as u32);
            let _op_span = sp.enter("bench", &format!("op:{}", timed.names[i]));
            let (run, timing) = crate::sys::timed(|| w.run_op(i, false, sp));
            timed.op_s[i].push(timing.cpu_s);
            timed.op_stopwatch_s[i].push(timing.stopwatch_s);
            timed.on_cpu_share.push(timing.on_cpu_share);
            match run {
                Ok(run) => {
                    tally.attempted += run.attempted;
                    if run.failed > 0 {
                        let why = format!("{}: {} wrong results", timed.names[i], run.failed);
                        tally.fail(run.failed, why);
                    } else if run.facts != pinned[i] {
                        let why = format!(
                            "{}: pass {pass} produced {:?}, warm-up {:?}",
                            timed.names[i], run.facts, pinned[i]
                        );
                        tally.fail(1, why);
                    }
                    if !run.latencies_ms.is_empty() {
                        let p = |p| percentile(&run.latencies_ms, p) * timing.scale();
                        timed.inner_p50_ms.push(p(50.0));
                        timed.inner_p99_ms.push(p(99.0));
                    }
                }
                Err(e) => {
                    tally.attempted += 1;
                    tally.fail(1, format!("{}: {e}", timed.names[i]));
                }
            }
        }
        drop(_pass_span);
        if let Ok(mib) = crate::sys::peak_rss_mib() {
            timed.peak_rss_mib.push(mib);
        }
        timed.traced_pass.push(traced);
        last_pass_s = pass_start.elapsed().as_secs_f64();
    }
    sp.set_enabled(false);
    timed.elapsed_s = start.elapsed().as_secs_f64();
    timed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two ops whose wall time the test dictates through a sleep-free
    /// fake: op 0 returns a fixed fact, op 1 breaks its fact on pass 2.
    struct Fake {
        calls: usize,
    }

    impl Workload for Fake {
        fn op_names(&self) -> Vec<String> {
            vec!["steady".into(), "flaky".into()]
        }
        fn run_op(&mut self, i: usize, _verify: bool, _sp: &Spans) -> Result<OpRun, String> {
            self.calls += 1;
            let broken = i == 1 && self.calls > 8;
            Ok(OpRun::single(OpFacts {
                checksum: if broken { 9 } else { i as u64 },
                ..OpFacts::default()
            }))
        }
        fn counters(&self) -> Counters {
            Counters::new()
        }
        fn drive_layers(
            &mut self,
            _cx: &DriveCx,
            _out: &mut crate::metrics::Values,
        ) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn a_fact_that_changes_after_warm_up_is_a_failure() {
        let sp = Spans::new(false);
        let mut w = Fake { calls: 0 };
        let mut tally = Tally::default();
        let pinned = warm_up(&mut w, &sp, &mut tally);
        assert_eq!(tally.failed, 0);
        // Zero seconds still runs MIN_PASSES passes: calls 5..=10.
        let timed = timed_passes(&mut w, &pinned, 1, 0.0, &sp, |_| false, &mut tally);
        assert_eq!(timed.passes(), MIN_PASSES);
        assert_eq!(tally.attempted, 4 + 2 * MIN_PASSES as u64);
        assert!(tally.failed >= 1, "the flaky op's changed checksum must count");
        assert!(tally.errors[0].starts_with("flaky"));
        assert!(timed.inner_p50_ms.is_empty());
    }

    #[test]
    fn cpu_s_is_the_sum_of_per_op_lower_quartiles() {
        let mut timed = Timed {
            names: vec!["a".into(), "b".into()],
            op_s: vec![vec![1.0, 9.0, 1.2], vec![2.0, 2.2, 8.0]],
            op_stopwatch_s: Vec::new(),
            on_cpu_share: Vec::new(),
            traced_pass: vec![false, true, false],
            inner_p50_ms: Vec::new(),
            inner_p99_ms: Vec::new(),
            peak_rss_mib: Vec::new(),
            elapsed_s: 0.0,
        };
        // Lower quartiles of three samples: half way from the least to the
        // middle one.
        assert!((timed.cpu_s(|_| true) - (1.1 + 2.1)).abs() < 1e-12);
        // Passes 0 and 2 only: a quarter of the way between the two.
        assert!((timed.cpu_s(|p| !timed.traced_pass[p]) - (1.05 + 3.5)).abs() < 1e-12);
        // Pass ops: the middle op and the slowest op, in milliseconds.
        assert_eq!(timed.op_latency_ms(), (1100.0, 2100.0));
        // Served batches: lower quartile over batches of the batch's percentile.
        timed.inner_p50_ms = vec![5.0, 4.0, 6.0];
        timed.inner_p99_ms = vec![20.0, 10.0, 90.0];
        assert_eq!(timed.op_latency_ms(), (4.5, 15.0));
    }

    #[test]
    fn per_pass_divides_counter_deltas() {
        let before = Counters::from([("launches", 10.0)]);
        let after = Counters::from([("launches", 40.0), ("h2d_bytes", 6.0)]);
        let d = per_pass(&after, &before, 3);
        assert_eq!(d["launches"], 10.0);
        assert_eq!(d["h2d_bytes"], 2.0);
    }
}
