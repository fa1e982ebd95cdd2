//! PR-8 observability integration: guest-source hotspot attribution,
//! the flight recorder's post-mortem dump on a device latch, and the
//! profile table's offload-latency percentiles.

use std::sync::Arc;

use minic::interp::NoHooks;
use minic::walker::TreeWalker;
use ompi_nano::unibench::{
    app_by_name, compile_omp, host_machine, run_entry, run_host_once, run_once, runner_config,
};
use ompi_nano::Runner;

fn work(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ompinano-obs-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The fig4 `--hotspots` attribution pass: a dedicated host-sequential
/// run on the VM with per-pc counting on.
fn gemm_attribution() -> Vec<minic::interp::LineHit> {
    let app = app_by_name("gemm").expect("gemm");
    let n = app.test_size;
    let m = host_machine(&app, n).unwrap();
    m.set_hotspots(true);
    run_host_once(&app, &m, n).unwrap_or_else(|e| panic!("gemm hotspot pass: {e}"));
    m.line_profile()
}

/// The acceptance bar for the profiler: on gemm, at least 80% of all VM
/// instructions must attribute to the kernel loop-nest lines of
/// `gemm_omp.c` (lines 8–15: the i/j/k loops and the accumulate/store
/// body).
#[test]
fn gemm_hotspots_attribute_kernel_loop_nest() {
    let under_vm = gemm_attribution();

    let total: u64 = under_vm.iter().map(|h| h.instructions).sum();
    assert!(total > 0, "no instructions attributed — hotspot collection is off");
    let loop_nest: u64 =
        under_vm.iter().filter(|h| (8..=15).contains(&h.line)).map(|h| h.instructions).sum();
    let share = loop_nest as f64 / total as f64;
    assert!(
        share >= 0.80,
        "loop nest (lines 8-15) holds {loop_nest}/{total} = {:.1}% of instructions, want >= 80%",
        100.0 * share
    );

    // Per-line category counts must be internally consistent: the six-way
    // dispatch split sums to the line's instruction count.
    for h in &under_vm {
        assert_eq!(
            h.dispatch.iter().sum::<u64>(),
            h.instructions,
            "{}:{}: dispatch categories disagree with the total",
            h.func,
            h.line
        );
    }
}

/// Per-line hotspot counts of `LINES_SRC`'s `run(n)` under the VM.
fn line_counts(n: i32) -> std::collections::BTreeMap<u32, u64> {
    let m = minic::interp::Machine::from_source(LINES_SRC).unwrap();
    m.set_hotspots(true);
    let mut i = minic::interp::Interp::new(m.clone(), Arc::new(minic::interp::NoHooks)).unwrap();
    i.call("run", &[vmcommon::Value::I32(n)]).unwrap();
    m.line_profile().into_iter().map(|h| (h.line, h.instructions)).collect()
}

const LINES_SRC: &str = "int run(int n)
{
    int s = 0;
    int t = 3;
    for (int i = 0; i < n; i++)
        s = s + i * t;
    s = s * 2;
    t = t + s;
    return s + t; }
";

/// Every source line keeps its own count after the VM compacts and fuses
/// ops: the loop header (5) and body (6) grow linearly with `n`, the lines
/// before and after the loop (3, 4, 7–9) do not depend on it. An 80 %
/// share (above) would not notice lines 7–9 going missing.
#[test]
fn hotspot_lines_are_exact() {
    let (c10, c20) = (line_counts(10), line_counts(20));
    for line in [3, 4, 7, 8, 9] {
        let (a, b) = (c10.get(&line), c20.get(&line));
        assert!(a.is_some_and(|&a| a > 0), "line {line} missing at n = 10: {c10:?}");
        assert_eq!(a, b, "line {line} must not depend on n: {c10:?} vs {c20:?}");
    }
    for line in [5, 6] {
        let (a, b) = (c10[&line], c20[&line]);
        // c(n) = base + per_iter * n, with per_iter > 0 and base >= 0.
        let per_iter = (b - a) / 10;
        assert!(per_iter > 0 && b - a == 10 * per_iter, "line {line}: {a} -> {b}");
        assert!(a >= 10 * per_iter, "line {line}: {a} -> {b}");
    }
    // The body runs only inside the loop.
    assert_eq!(c20[&6], 2 * c10[&6]);
    assert!(c10.keys().all(|l| (3..=9).contains(l)), "stray lines: {c10:?}");
}

/// The walker records no attribution (it dispatches no bytecode), so a
/// hotspot table from a walker run renders the "no attribution" hint.
#[test]
fn walker_records_no_attribution() {
    let app = app_by_name("gemm").expect("gemm");
    let n = app.test_size;
    let m = host_machine(&app, n).unwrap();
    m.set_hotspots(true);
    let mut w = TreeWalker::new(m.clone(), Arc::new(NoHooks)).unwrap();
    run_entry(&app, &m, n, |args| w.call("run", args)).unwrap();
    assert!(m.line_profile().is_empty());
}

/// A latching chaos run must leave a usable post-mortem: the flight dump
/// exists, is non-empty, parses line-by-line as JSON with strictly
/// increasing sequence numbers, and its tail covers the recovery story
/// that killed the device (recovery spans, the breaker reaching
/// `latched`) before the `flight.dump` trigger marker.
#[test]
fn flight_recorder_dumps_on_device_latch() {
    let app = app_by_name("atax").expect("atax");
    let n = app.test_size;
    let compiled = compile_omp(&app, &work("flight"));
    let dump = std::env::temp_dir().join(format!("ompinano-flight-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&dump);

    // Explicit sink so the dump path needs no environment mutation (env
    // vars race across the parallel test harness).
    let flight = Arc::new(obs::FlightRecorder::with_path(Some(dump.clone())));
    let sink = Arc::new(obs::Obs {
        tracer: obs::Tracer::with_flight(false, flight.clone()),
        metrics: obs::Metrics::with_flight(flight.clone()),
        flight,
    });
    let mut cfg = runner_config((app.footprint)(n));
    // Seed 45: every allocation fails terminally — the breaker spends its
    // reset budget and latches; the run completes on the host.
    cfg.fault_spec = Some("chaos:45".into());
    cfg.obs = Some(sink.clone());
    let runner = Runner::new(&compiled, &cfg).unwrap();
    run_once(&app, &runner, n).unwrap_or_else(|e| panic!("atax chaos:45 errored: {e}"));
    assert!(runner.device_broken(), "seed 45 must latch device 0");

    let text = std::fs::read_to_string(&dump).expect("flight dump written on latch");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "flight dump is empty");
    let events: Vec<obs::Json> = lines
        .iter()
        .map(|l| obs::json::parse(l).unwrap_or_else(|e| panic!("bad JSONL line `{l}`: {e}")))
        .collect();

    let mut prev_seq = -1.0;
    for ev in &events {
        let seq = ev.get("seq").and_then(|v| v.as_f64()).expect("seq field");
        assert!(seq > prev_seq, "sequence numbers must strictly increase");
        prev_seq = seq;
        for field in ["kind", "name", "cat", "detail"] {
            assert!(ev.get(field).is_some(), "missing `{field}` in {ev:?}");
        }
    }

    let last = events.last().unwrap();
    assert_eq!(last.get("name").unwrap().as_str(), Some("flight.dump"));
    assert!(
        last.get("detail").unwrap().as_str().unwrap().contains("device latched broken"),
        "the latch, not runner drop, must have triggered the dump"
    );
    let cat = |ev: &obs::Json| ev.get("cat").unwrap().as_str().unwrap().to_string();
    assert!(
        events.iter().any(|e| cat(e) == "recovery"),
        "dump tail must include the recovery spans leading to the latch"
    );
    assert!(
        events.iter().any(|e| {
            e.get("name").unwrap().as_str() == Some("breaker")
                && e.get("detail").unwrap().as_str().unwrap().contains("latched")
        }),
        "dump tail must show the breaker latching"
    );

    // First-trigger-wins: the runner-drop post-mortem must not rewrite
    // the latch dump.
    let before = std::fs::metadata(&dump).unwrap().len();
    drop(runner);
    drop(sink);
    assert_eq!(std::fs::metadata(&dump).unwrap().len(), before);
    let _ = std::fs::remove_file(&dump);
}

/// A fault-free offloaded run populates the per-device offload-latency
/// histogram, and the profile table surfaces its percentiles.
#[test]
fn profile_table_reports_region_latency_percentiles() {
    let app = app_by_name("gemm").expect("gemm");
    let n = app.test_size;
    let compiled = compile_omp(&app, &work("latency"));
    let sink = obs::Obs::enabled();
    let mut cfg = runner_config((app.footprint)(n));
    cfg.obs = Some(sink.clone());
    let runner = Runner::new(&compiled, &cfg).unwrap();
    run_once(&app, &runner, n).unwrap();

    let h = sink.metrics.hist(0, "region_latency_us").expect("device 0 must record region latency");
    assert!(h.count >= 1, "at least one target region timed");
    let pct = |p| h.percentile(p).expect("non-empty histogram has percentiles");
    let (p50, p95, p99) = (pct(50.0), pct(95.0), pct(99.0));
    assert!(p50 > 0, "a gemm region takes simulated time");
    assert!(p50 <= p95 && p95 <= p99, "percentiles must be monotone");

    let table = runner.profile_table();
    assert!(table.contains("p50us"), "missing latency columns:\n{table}");
    let dev0 = table.lines().find(|l| l.starts_with("dev0")).expect("dev0 row");
    assert!(
        dev0.contains(&p50.to_string()) && dev0.contains(&p99.to_string()),
        "dev0 row must carry the histogram's percentiles:\n{table}"
    );
}
