//! Deterministic fault-injection tests for the robust device runtime:
//! transient faults are retried to success, terminal faults latch the
//! device broken and degrade to host execution with identical results,
//! and JIT-cache corruption is invalidated and recompiled.

use ompi_nano::minic::interp::InterpError;
use ompi_nano::unibench::{
    app_by_name, compile_cuda, compile_omp, output_checksum, run_once, runner_config,
};
use ompi_nano::{BinMode, BreakerState, CudaCc, Ompicc, Runner, RunnerConfig, Value};

/// The paper's Fig. 1 SAXPY; `main` returns the number of wrong elements,
/// so `I32(0)` proves the computed `y` is bit-identical to the host-side
/// expectation regardless of where the region actually executed.
const SAXPY: &str = r#"
void saxpy_device(float a, float *x, float *y, int size)
{
    #pragma omp target map(to: a, size, x[0:size]) map(tofrom: y[0:size])
    {
        int i;
        #pragma omp parallel for
        for (i = 0; i < size; i++)
            y[i] = a * x[i] + y[i];
    }
}

int main() {
    int n = 300;
    float x[300];
    float y[300];
    for (int i = 0; i < n; i++) { x[i] = (float) i; y[i] = 0.5f; }
    saxpy_device(3.0f, x, y, n);
    int bad = 0;
    for (int i = 0; i < n; i++)
        if (y[i] != 3.0f * (float) i + 0.5f) bad++;
    return bad;
}
"#;

fn work(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ompinano-fault-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn saxpy_runner(tag: &str, fault: &str) -> Runner {
    let app = Ompicc::new(work(tag)).compile(SAXPY).unwrap();
    let cfg = RunnerConfig { fault_spec: Some(fault.into()), ..Default::default() };
    Runner::new(&app, &cfg).unwrap()
}

/// A transient launch fault (two failing calls, then clean) is retried
/// within the default budget; the program still succeeds on the device.
#[test]
fn transient_launch_fault_is_retried_to_success() {
    let runner = saxpy_runner("launch-transient", "launch@1x2");
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    let clk = runner.dev_clock();
    assert_eq!(clk.retries, 2, "both failing launch attempts must be retried");
    assert!(!runner.device_broken(), "transient faults must not latch the device");
    assert!(clk.launches >= 1, "the retried launch must eventually run");
}

/// Transient faults on the copy-in path are likewise absorbed by retry.
#[test]
fn transient_h2d_fault_is_retried_to_success() {
    let runner = saxpy_runner("h2d-transient", "h2d@1x1");
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    let clk = runner.dev_clock();
    assert_eq!(clk.retries, 1);
    assert!(!runner.device_broken());
}

/// A transient fault that outlives the retry budget is a genuine error:
/// it surfaces to the caller instead of being silently degraded.
#[test]
fn exhausted_retry_budget_surfaces_the_error() {
    let runner = saxpy_runner("launch-exhausted", "launch@1x9");
    let err = runner.run_main().unwrap_err();
    assert!(
        err.to_string().contains("injected fault"),
        "error must carry the fault diagnostic, got: {err}"
    );
    assert!(!runner.device_broken(), "a transient fault never latches the device");
    assert_eq!(runner.dev_clock().retries, 3, "default budget is three retries");
}

/// Device initialization fails terminally: every target region runs on the
/// host from the start, and the result is still correct.
#[test]
fn terminal_init_fault_falls_back_to_host() {
    let runner = saxpy_runner("init-terminal", "init@1x*");
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    assert!(runner.device_broken(), "terminal init fault must latch the device");
    assert_eq!(runner.dev_clock().launches, 0, "nothing may reach the device");
}

/// The device dies mid-region (after the copy-in, at launch): the region
/// re-executes on the host against the still-authoritative host memory.
#[test]
fn terminal_launch_fault_falls_back_mid_region() {
    let runner = saxpy_runner("launch-terminal", "launch@1x*");
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    assert!(runner.device_broken(), "terminal launch fault must latch the device");
    let clk = runner.dev_clock();
    assert_eq!(clk.launches, 0, "no launch ever completed");
    assert!(clk.h2d_bytes > 0, "the copy-in had already happened");
}

/// The device dies *after* a successful launch, at the copy-back: the
/// device results are lost, host memory is still pre-kernel state, and the
/// region must re-execute on the host rather than silently keep stale data.
#[test]
fn terminal_d2h_fault_falls_back_after_launch() {
    let runner = saxpy_runner("d2h-terminal", "d2h@1x*");
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    assert!(runner.device_broken());
    let clk = runner.dev_clock();
    assert!(clk.launches >= 1, "the kernel itself ran fine");
    assert_eq!(clk.d2h_bytes, 0, "no copy-back ever committed");
}

/// If one buffer's copy-back commits and a later one is lost, host state is
/// mixed — re-executing would double-apply. That must be a hard error, not
/// a silent fallback.
#[test]
fn copy_back_loss_after_partial_commit_is_an_error() {
    const TWO_OUT: &str = r#"
int main() {
    int n = 64;
    float y[64];
    float z[64];
    for (int i = 0; i < n; i++) { y[i] = 1.0f; z[i] = 2.0f; }
    #pragma omp target map(tofrom: y[0:n], z[0:n])
    {
        int i;
        #pragma omp parallel for
        for (i = 0; i < n; i++) { y[i] = y[i] + 1.0f; z[i] = z[i] + 1.0f; }
    }
    return 0;
}
"#;
    let app = Ompicc::new(work("partial-commit")).compile(TWO_OUT).unwrap();
    // d2h call #1 (first unmap) commits, call #2 is lost terminally.
    let cfg = RunnerConfig { fault_spec: Some("d2h@2x*".into()), ..Default::default() };
    let runner = Runner::new(&app, &cfg).unwrap();
    let err = runner.run_main().unwrap_err();
    assert!(
        err.to_string().contains("partial commit"),
        "expected the partial-commit diagnostic, got: {err}"
    );
    assert!(runner.device_broken());
}

/// The CUDA baseline's `cudaMalloc` and `cudaMemcpy` ride cudadev's retry
/// path like the OMPi variant's mappings: a transient alloc or H2D fault
/// is retried, and the outputs are bit-identical to a fault-free run.
#[test]
fn cuda_baseline_retries_transient_alloc_and_h2d_faults() {
    let app = app_by_name("bicg").expect("bicg is a unibench app");
    let n = app.test_size;
    let compiled = compile_cuda(&app, &work("cuda-baseline-retry"));
    let cfg = runner_config((app.footprint)(n));
    let clean = run_once(&app, &Runner::new(&compiled, &cfg).unwrap(), n).unwrap();
    for (plan, site) in [("h2d@2x2", "retries.h2d"), ("alloc@2x2", "retries.alloc")] {
        let obs = obs::Obs::enabled();
        let cfg =
            RunnerConfig { fault_spec: Some(plan.into()), obs: Some(obs.clone()), ..cfg.clone() };
        let runner = Runner::new(&compiled, &cfg).unwrap();
        let out = run_once(&app, &runner, n).unwrap_or_else(|e| panic!("{plan}: {e}"));
        assert_eq!(output_checksum(&out), output_checksum(&clean), "{plan}");
        assert_eq!(obs.metrics.counter(0, site), 2, "{plan}: both failing calls retried");
        assert_eq!(runner.dev_clock().retries, 2, "{plan}");
    }
}

/// A hang on the CUDA baseline needs a device reset, which would drop the
/// baseline's `cudaMalloc` blocks: there is no host copy to replay them, so
/// the run ends in one error that names every live block, and the device
/// latches. The OMPi variant, whose mappings do have host copies, recovers
/// under the same plan with the fault-free output.
#[test]
fn a_hang_on_the_cuda_baseline_names_the_blocks_a_reset_would_drop() {
    let app = app_by_name("bicg").expect("bicg is a unibench app");
    let n = app.test_size;
    let cfg = runner_config((app.footprint)(n));
    let hang = RunnerConfig { fault_spec: Some("hang@launch".into()), ..cfg.clone() };
    let cuda = compile_cuda(&app, &work("cuda-baseline-hang"));
    let clean = run_once(&app, &Runner::new(&cuda, &cfg).unwrap(), n).unwrap();

    let runner = Runner::new(&cuda, &hang).unwrap();
    let err = run_once(&app, &runner, n).unwrap_err().to_string();
    // bicg's baseline holds its matrix and four vectors when its first
    // kernel launches.
    assert!(err.starts_with("trap: device hang: injected hang"), "{err}");
    assert!(err.contains("needs a device reset, which would lose 5 live cudaMalloc"), "{err}");
    let sizes: Vec<&str> = err.split(" (").skip(1).map(|b| b.split(' ').next().unwrap()).collect();
    assert_eq!(sizes, ["36864", "384", "384", "384", "384"], "{err}");
    assert!(runner.device_broken(), "a reset that would lose blocks latches the device");

    let omp = compile_omp(&app, &work("ompi-hang"));
    let out = run_once(&app, &Runner::new(&omp, &hang).unwrap(), n).unwrap();
    assert_eq!(output_checksum(&out), output_checksum(&clean));
}

/// A `cudaMemcpy` whose host range leaves the guest arena is the guest's
/// memory fault, raised before the device sees the copy: the transient
/// fault armed on the first copy of each direction is never consumed, so
/// nothing is retried and no byte is booked.
#[test]
fn cuda_baseline_bad_host_range_is_a_guest_memory_fault() {
    for kind in [1, 2] {
        let src = format!(
            "int main() {{ float *d; float h[4]; cudaMalloc(&d, 16);
               cudaMemcpy({}, 1073741824, {kind}); return 0; }}",
            if kind == 1 { "d, h" } else { "h, d" }
        );
        let app =
            CudaCc::new(work(&format!("cuda-bad-range-{kind}"))).compile(&src, "bad").unwrap();
        let cfg = RunnerConfig { fault_spec: Some("h2d@1,d2h@1".into()), ..Default::default() };
        let runner = Runner::new(&app, &cfg).unwrap();
        let err = runner.run_main().unwrap_err();
        assert!(matches!(err, InterpError::Mem(_)), "kind {kind}: got {err}");
        let clk = runner.dev_clock();
        assert_eq!((clk.retries, clk.h2d_bytes, clk.d2h_bytes), (0, 0, 0), "kind {kind}");
    }
}

/// Host fallback is bit-identical to device execution for a unibench app:
/// the same compiled binary, run once healthy and once with a dead device,
/// produces the exact same output bits.
#[test]
fn host_fallback_bit_identical_for_unibench_app() {
    let app = app_by_name("atax").expect("atax is a unibench app");
    let n = app.test_size;
    let dir = work("unibench-atax");
    let compiled = compile_omp(&app, &dir);

    let cfg_ok = runner_config((app.footprint)(n));
    let dev_runner = Runner::new(&compiled, &cfg_ok).unwrap();
    let dev_out = run_once(&app, &dev_runner, n).unwrap();
    assert!(!dev_runner.device_broken());
    assert!(dev_runner.dev_clock().launches > 0, "healthy run must use the device");

    let cfg_bad = RunnerConfig { fault_spec: Some("launch@1x*".into()), ..cfg_ok };
    let host_runner = Runner::new(&compiled, &cfg_bad).unwrap();
    let host_out = run_once(&app, &host_runner, n).unwrap();
    assert!(host_runner.device_broken(), "terminal fault must latch the device");

    assert_eq!(dev_out.len(), host_out.len());
    for (i, (d, h)) in dev_out.iter().zip(&host_out).enumerate() {
        assert_eq!(
            d.to_bits(),
            h.to_bits(),
            "output[{i}] differs: device {d} vs host fallback {h}"
        );
    }
}

/// The recovery tentpole: a kernel that hangs once at launch is detected
/// by the watchdog, the device is reset, the data environment is replayed,
/// and the half-open probe re-runs the launch — on the *device*, never the
/// host. `main` returning `I32(0)` proves the re-executed region is
/// bit-identical to a fault-free run.
#[test]
fn hang_at_launch_recovers_via_reset_and_replay() {
    let app = Ompicc::new(work("hang-launch")).compile(SAXPY).unwrap();
    let obs = obs::Obs::enabled();
    let cfg = RunnerConfig {
        fault_spec: Some("hang@launch".into()),
        obs: Some(obs.clone()),
        ..Default::default()
    };
    let runner = Runner::new(&app, &cfg).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    assert!(!runner.device_broken(), "a recovered hang must not latch the device");
    let clk = runner.dev_clock();
    assert!(clk.launches >= 1, "the probed launch must complete on the device");
    let host_clk = runner.dev_clock_of(runner.num_devices()).unwrap();
    assert_eq!(host_clk.fallbacks, 0, "successful recovery must never fall back to the host");
    assert!(
        clk.retry_backoff_s > 0.0,
        "the watchdog deadline and breaker cool-down are simulated waiting"
    );
    assert!(obs.metrics.counter(0, "recovery.reset") >= 1, "a device reset must be recorded");
    assert!(obs.metrics.counter(0, "recovery.replayed") >= 1, "mappings must be replayed");
    assert!(obs.metrics.counter(0, "timeouts.launch") >= 1, "the watchdog timeout is counted");
    assert!(obs.metrics.counter(0, "recovery.recovered") >= 1);
    let dev = runner.registry().device(0).unwrap().clone();
    assert_eq!(dev.breaker_state(), BreakerState::Closed, "a successful probe closes the breaker");
}

/// A hang that never clears exhausts the breaker's reset budget: every
/// reset's probe hangs again, the breaker latches, and only *then* does the
/// old permanent broken-latch (and host fallback) engage. Host memory is
/// still pre-kernel, so the fallback result is still correct.
#[test]
fn persistent_hang_exhausts_reset_budget_and_latches() {
    let app = Ompicc::new(work("hang-persistent")).compile(SAXPY).unwrap();
    let obs = obs::Obs::enabled();
    let cfg = RunnerConfig {
        fault_spec: Some("hang@launch@1x*".into()),
        obs: Some(obs.clone()),
        ..Default::default()
    };
    let runner = Runner::new(&app, &cfg).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0), "host fallback must still be correct");
    assert!(runner.device_broken(), "an exhausted reset budget latches the device");
    let dev = runner.registry().device(0).unwrap().clone();
    assert_eq!(dev.breaker_state(), BreakerState::Latched);
    assert_eq!(runner.dev_clock().launches, 0, "no launch ever completed");
    assert_eq!(
        obs.metrics.counter(0, "recovery.reset"),
        u64::from(ompi_nano::ompi_core::DEFAULT_MAX_RESETS),
        "the full reset budget must be spent before latching"
    );
    assert!(obs.metrics.counter(0, "breaker.state.latched") >= 1);
    assert!(obs.metrics.counter(0, "recovery.probe") >= 1, "each reset half-opens and probes");
}

/// A two-call hang window: the first probe after a reset hangs *again*, so
/// recovery has to loop (reset #2, second cool-down) before the breaker
/// closes — still within the default budget of three, still no fallback.
#[test]
fn repeated_hang_within_budget_recovers_on_second_reset() {
    let obs = obs::Obs::enabled();
    let app = Ompicc::new(work("hang-twice")).compile(SAXPY).unwrap();
    let cfg = RunnerConfig {
        fault_spec: Some("hang@launch@1x2".into()),
        obs: Some(obs.clone()),
        ..Default::default()
    };
    let runner = Runner::new(&app, &cfg).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    assert!(!runner.device_broken());
    assert_eq!(runner.dev_clock_of(runner.num_devices()).unwrap().fallbacks, 0);
    assert!(obs.metrics.counter(0, "recovery.reset") >= 2, "both hangs cost a reset");
    assert!(obs.metrics.counter(0, "recovery.recovered") >= 1);
    let dev = runner.registry().device(0).unwrap().clone();
    assert_eq!(dev.breaker_state(), BreakerState::Closed);
}

/// Malformed `OMPI_FAULT_PLAN`-style specs surface as typed, descriptive
/// configuration errors from `Runner::new` — not as silently disabled
/// injection and not as a panic.
#[test]
fn malformed_fault_plans_surface_typed_errors() {
    let app = Ompicc::new(work("bad-plan")).compile(SAXPY).unwrap();
    for (spec, needle) in [
        ("launch@", "bad call number"),
        ("launch@0", "call numbers are 1-based"),
        ("launch@1x0", "repeat count must be at least 1"),
        ("launch@1xzz", "bad repeat count"),
        ("warp@1x2", "unknown site `warp`"),
        ("launch", "expected `site@first"),
        ("dev9z:launch@1", "bad device prefix"),
        ("chaos:banana", "seed must be an unsigned integer"),
    ] {
        let cfg = RunnerConfig { fault_spec: Some(spec.into()), ..Default::default() };
        let err = Runner::new(&app, &cfg)
            .err()
            .unwrap_or_else(|| panic!("spec `{spec}` must be rejected"));
        assert!(
            err.to_string().contains(needle),
            "spec `{spec}`: expected diagnostic containing `{needle}`, got: {err}"
        );
    }
}

/// Two `nowait` regions on async streams, then the device dies terminally
/// at the second region's launch: the pending stream work must be drained
/// (not deadlocked, not replayed against a dead arena) before the host
/// fallback, and both regions' results stay correct.
#[test]
fn terminal_fault_with_pending_nowait_streams_drains_and_falls_back() {
    const NOWAIT_TWO_REGIONS: &str = r#"
int main() {
    int n = 2048;
    float a[2048]; float b[2048];
    for (int i = 0; i < n; i++) { a[i] = 1.0f; b[i] = 2.0f; }
    #pragma omp target teams distribute parallel for nowait map(tofrom: a[0:n])
    for (int i = 0; i < n; i++)
        a[i] = 2.0f * a[i] + 1.0f;
    #pragma omp target teams distribute parallel for nowait map(tofrom: b[0:n])
    for (int i = 0; i < n; i++)
        b[i] = 2.0f * b[i] + 1.0f;
    #pragma omp taskwait
    for (int i = 0; i < n; i++) {
        if (a[i] != 3.0f) return 1;
        if (b[i] != 5.0f) return 2;
    }
    return 0;
}
"#;
    let app = Ompicc::new(work("nowait-terminal")).compile(NOWAIT_TWO_REGIONS).unwrap();
    // Launch #1 (first region) succeeds; from launch #2 on, the device is
    // lost — every reset probe re-fires the fault, so the breaker latches
    // with region 1's stream work still queued on the virtual timeline.
    let cfg = RunnerConfig {
        async_streams: Some(true),
        fault_spec: Some("launch@2x*".into()),
        ..Default::default()
    };
    let runner = Runner::new(&app, &cfg).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0), "both regions must still be correct");
    assert!(runner.device_broken());
    assert_eq!(runner.dev_clock().launches, 1, "only the first region's launch completed");
    let host_clk = runner.dev_clock_of(runner.num_devices()).unwrap();
    assert!(host_clk.fallbacks >= 1, "the second region must re-execute on the host");
}

/// An injected JIT-cache corruption is detected on reload, invalidated and
/// recompiled — the program never sees the corrupt artifact.
#[test]
fn jit_cache_corruption_is_invalidated_and_recompiled() {
    let dir = work("jit-corrupt");
    let app = Ompicc::new(&dir).with_mode(BinMode::Ptx).compile(SAXPY).unwrap();
    let cache = dir.join("jit");

    // First process: populate the disk cache.
    let cfg = RunnerConfig { jit_cache_dir: cache.clone(), ..Default::default() };
    let warm = Runner::new(&app, &cfg).unwrap();
    assert_eq!(warm.run_main().unwrap(), Value::I32(0));
    assert_eq!(warm.dev_clock().jit_compiles, 1);

    // Second process: the fault plan corrupts the cached entry before use.
    let cfg2 = RunnerConfig { fault_spec: Some("jitcache@1x1".into()), ..cfg };
    let runner = Runner::new(&app, &cfg2).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    let clk = runner.dev_clock();
    assert_eq!(clk.jit_invalidations, 1, "the corrupt entry must be invalidated");
    assert_eq!(clk.jit_compiles, 1, "and recompiled rather than trusted");
    assert_eq!(clk.jit_cache_hits, 0);
    assert!(!runner.device_broken(), "cache corruption is always recoverable");

    // Third process, no fault: the republished entry is valid again.
    let cfg3 = RunnerConfig { jit_cache_dir: cache, ..Default::default() };
    let cold = Runner::new(&app, &cfg3).unwrap();
    assert_eq!(cold.run_main().unwrap(), Value::I32(0));
    assert_eq!(cold.dev_clock().jit_cache_hits, 1);
}
