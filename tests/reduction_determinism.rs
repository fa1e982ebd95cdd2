//! Float results of offloaded kernels are bit-reproducible. Every block's
//! warps run on one thread under one scheduler — warp-id order, each until
//! it parks on a barrier or ends — so whatever order a block's warps touch
//! memory in, float atomics included, is the same on every run:
//!
//! * gramschmidt's `reduction(+: nrm)` folds 256 threads (8 warps of one
//!   block) into one float through `cudadev_red_f32`;
//! * a master/worker `parallel for reduction(+: total)` folds the worker
//!   warps' partial sums into the shared accumulator after the master woke
//!   them on barrier B1;
//! * a combined `schedule(dynamic, 4)` loop hands out chunks from one
//!   counter, so which thread runs which iteration — and with it the
//!   reduction's order and every warp's simulated work — is decided by the
//!   scheduler.
//!
//! The limit: at n >= 512 gramschmidt's reduction spans more than one
//! block, and with more than one block worker float atomics from
//! *different blocks* to one address still land in host scheduling order.

use ompi_nano::unibench::{self, harness};
use ompi_nano::{Ompicc, Runner, RunnerConfig, Value};

const RUNS: usize = 20;

#[test]
fn gramschmidt_outputs_are_byte_identical_across_fresh_runners() {
    let app = unibench::app_by_name("gramschmidt").unwrap();
    let dir = std::env::temp_dir().join(format!("ompinano-reddet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for n in [128, 256] {
        let run = || {
            let cfg = unibench::runner_config((app.footprint)(n));
            let built = harness::build_variant_cfg(&app, harness::Variant::OmpiCudadev, &dir, &cfg);
            let q = unibench::run_once(&app, &built.runner, n).unwrap();
            q.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
        };
        let first = run();
        for round in 1..RUNS {
            assert!(run() == first, "n = {n}: run {round} differs from run 0");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compile `src` once, then call `run(n)` on [`RUNS`] fresh runners: each
/// run's float result and simulated offload time, as bits.
fn fresh_runs(src: &str, tag: &str, n: i32) -> Vec<(u32, u64)> {
    let dir = std::env::temp_dir().join(format!("ompinano-reddet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = Ompicc::new(&dir).compile(src).unwrap();
    let runs = (0..RUNS)
        .map(|_| {
            let runner = Runner::new(&app, &RunnerConfig::default()).unwrap();
            let total = match runner.call("run", &[Value::I32(n)]) {
                Ok(Value::F32(v)) => v.to_bits(),
                other => panic!("{tag}: run({n}) gave {other:?}"),
            };
            assert!(runner.dev_clock().launches > 0, "{tag}: the region ran on the host");
            (total, runner.dev_clock().offload_s().to_bits())
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    runs
}

fn assert_one_outcome(tag: &str, runs: &[(u32, u64)]) {
    for (round, r) in runs.iter().enumerate() {
        assert!(
            *r == runs[0],
            "{tag}: run {round} gave total {:#x} and sim_s {}, run 0 gave {:#x} and {}",
            r.0,
            f64::from_bits(r.1),
            runs[0].0,
            f64::from_bits(runs[0].1)
        );
    }
}

#[test]
fn a_master_worker_float_reduction_is_byte_identical_across_fresh_runners() {
    // 0.1f * k is not exactly representable, so the sum depends on the order
    // in which the workers' partial sums are folded.
    let src = r#"
float run(int n)
{
    float total = 0.0f;
    #pragma omp target map(to: n) map(tofrom: total)
    {
        int i;
        #pragma omp parallel for reduction(+: total)
        for (i = 0; i < n; i++)
            total += 0.1f * (float) (i % 7);
    }
    return total;
}
"#;
    assert_one_outcome("master/worker", &fresh_runs(src, "mw", 3000));
}

#[test]
fn a_dynamic_schedule_is_byte_identical_across_fresh_runners() {
    // One team, so the reduction stays inside one block; each iteration
    // also weighs in by the thread that claimed it.
    let src = r#"
float run(int n)
{
    float total = 0.0f;
    int i;
    #pragma omp target teams distribute parallel for num_teams(1) schedule(dynamic, 4) \
        map(to: n) map(tofrom: total) reduction(+: total)
    for (i = 0; i < n; i++)
        total += 0.1f * (float) (i % 7) + 0.001f * (float) omp_get_thread_num();
    return total;
}
"#;
    assert_one_outcome("dynamic", &fresh_runs(src, "dyn", 3000));
}
