//! Chaos soak harness: every UniBench app is driven through seeded random
//! fault plans (`chaos:<seed>`, see `gpusim::FaultPlan::chaos`) mixing
//! transient faults, hangs, arena corruption and terminal failures — and
//! every run must be **bit-identical** to the fault-free baseline, whether
//! it survived on the device (recovery), degraded through the governor, or
//! fell back to the host.
//!
//! The generator is completion-safe by construction: hang windows stay
//! under the reset budget, `d2h` is never terminal (that would be a
//! legitimate partial-commit hard error), and at most one rule per site.
//! So any result difference — or any error — is a recovery bug.

use ompi_nano::unibench::{app_by_name, compile_omp, run_once, runner_config};
use ompi_nano::{Runner, RunnerConfig};

/// Fixed seeds chosen for coverage of the rule space (see the generator's
/// kind mix): terminal launch/init, hangs at launch/h2d/alloc, terminal
/// h2d/alloc, arena corruption, and plain transient bursts.
const SEEDS: [u64; 6] = [0, 3, 16, 25, 34, 50];

const APPS: [&str; 6] = ["3dconv", "bicg", "atax", "mvt", "gemm", "gramschmidt"];

fn work(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ompinano-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The soak itself: 6 apps x 6 seeds, each compared bit-for-bit against
/// the app's fault-free output from the same compiled binary.
#[test]
fn chaos_soak_is_bit_identical_across_apps_and_seeds() {
    for name in APPS {
        let app = app_by_name(name).expect("unibench app");
        let n = app.test_size;
        let compiled = compile_omp(&app, &work(name));
        let cfg = runner_config((app.footprint)(n));

        let baseline_runner = Runner::new(&compiled, &cfg).unwrap();
        let baseline = run_once(&app, &baseline_runner, n)
            .unwrap_or_else(|e| panic!("{name} fault-free baseline failed: {e}"));

        for seed in SEEDS {
            let chaos_cfg =
                RunnerConfig { fault_spec: Some(format!("chaos:{seed}")), ..cfg.clone() };
            let runner = Runner::new(&compiled, &chaos_cfg).unwrap();
            let out = run_once(&app, &runner, n)
                .unwrap_or_else(|e| panic!("{name} chaos:{seed} errored: {e}"));
            assert_eq!(out.len(), baseline.len(), "{name} chaos:{seed}: output length");
            for (i, (c, b)) in out.iter().zip(&baseline).enumerate() {
                assert_eq!(
                    c.to_bits(),
                    b.to_bits(),
                    "{name} chaos:{seed}: output[{i}] differs ({c} vs baseline {b})"
                );
            }
        }
    }
}

/// Chaos faults and the resource governor compose: a run under an active
/// fault plan AND a fuel budget far below the app's real cost must stop at
/// the budget with the typed limit error — not hang in a retry loop, not
/// panic, and not latch the device breaker (a limit is the guest's fault,
/// never the device's).
#[test]
fn tight_fuel_under_chaos_trips_cleanly() {
    // gramschmidt is the one app whose guest `run()` does real host-side
    // work between offloads (~11k VM instructions at test size) — the
    // others drive everything from a few hundred instructions of launch
    // glue, which never spans a fuel checkpoint.
    let app = app_by_name("gramschmidt").expect("gramschmidt");
    let n = app.test_size;
    let compiled = compile_omp(&app, &work("gs-fuel"));
    let obs = obs::Obs::enabled();
    let mut cfg = runner_config((app.footprint)(n));
    cfg.fault_spec = Some("chaos:3".into());
    cfg.fuel = Some(2000); // gramschmidt needs ~11k
    cfg.obs = Some(obs.clone());
    let runner = Runner::new(&compiled, &cfg).unwrap();
    let err = run_once(&app, &runner, n).expect_err("2k instructions cannot finish gramschmidt");
    assert_eq!(
        err.to_string(),
        "guest limit: guest fuel exhausted (budget 2000 instructions)",
        "the governor, not a fault or a panic, must be what stops the run"
    );
    assert_eq!(obs.metrics.counter(runner.registry().num_devices() as u64, "guest_limit.fuel"), 1);
    assert!(!runner.device_broken(), "a guest limit must never latch the breaker");
}

/// A hang-heavy seed (3 -> `hang@launch,...`) must actually exercise the
/// recovery machinery, not just happen to pass: the soak asserts at least
/// one device reset was performed and the run stayed on the device.
#[test]
fn chaos_hang_seed_exercises_reset_and_replay() {
    let app = app_by_name("atax").expect("atax");
    let n = app.test_size;
    let compiled = compile_omp(&app, &work("atax-obs"));
    let obs = obs::Obs::enabled();
    let mut cfg = runner_config((app.footprint)(n));
    cfg.fault_spec = Some("chaos:3".into());
    cfg.obs = Some(obs.clone());
    let runner = Runner::new(&compiled, &cfg).unwrap();
    run_once(&app, &runner, n).unwrap_or_else(|e| panic!("atax chaos:3 errored: {e}"));
    assert!(
        obs.metrics.counter(0, "recovery.reset") >= 1,
        "seed 3 hangs the first launch; the watchdog must reset the device"
    );
    assert!(obs.metrics.counter(0, "recovery.probe") >= 1, "each reset half-open-probes");
    assert!(!runner.device_broken(), "a one-shot hang must be recovered, not latched");
}
