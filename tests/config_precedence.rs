//! The config-precedence matrix: for every `OMPI_*` runner knob the
//! contract is
//!
//! 1. an explicit `RunnerConfig` field always wins,
//! 2. otherwise a well-formed env var applies,
//! 3. otherwise the built-in default,
//!
//! and a malformed env var that *would have applied* (rule 2) is a typed
//! [`ConfigError`] naming the variable — never a silent fallback. These
//! are regression tests for three real bugs: env vars used to overwrite
//! explicitly-set config fields, `OMPI_ASYNC` treated any non-empty
//! non-`"0"` string as true (`OMPI_ASYNC=off` meant *on*), and
//! `OMPI_DEV_MEM` truncated through `as usize`.

use std::sync::Mutex;
use std::time::Duration;

use ompi_nano::minic::interp::InterpError;
use ompi_nano::ompi_core::{DEFAULT_DEVICE_MEM, DEFAULT_LAUNCH_TIMEOUT, DEFAULT_MAX_RESETS};
use ompi_nano::serve::{JobSpec, ServeConfig, Server};
use ompi_nano::unibench::{app_by_name, compile_cuda, compile_omp, max_rel_err, run_once};
use ompi_nano::{ConfigError, DeviceRegistry, Ompicc, ResolvedConfig, Runner, RunnerConfig, Value};

/// Env vars are process globals; every test here serializes on this.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the given env vars set (`None` = explicitly unset),
/// restoring the previous state afterwards.
fn with_env<T>(vars: &[(&str, Option<&str>)], f: impl FnOnce() -> T) -> T {
    let _g = ENV_LOCK.lock().unwrap();
    let saved: Vec<(String, Option<String>)> =
        vars.iter().map(|(k, _)| (k.to_string(), std::env::var(k).ok())).collect();
    for (k, v) in vars {
        match v {
            Some(v) => std::env::set_var(k, v),
            None => std::env::remove_var(k),
        }
    }
    let out = f();
    for (k, v) in saved {
        match v {
            Some(v) => std::env::set_var(&k, v),
            None => std::env::remove_var(&k),
        }
    }
    out
}

const ALL_VARS: &[(&str, Option<&str>)] = &[
    ("OMPI_DEV_MEM", None),
    ("OMPI_ASYNC", None),
    ("OMPI_LAUNCH_TIMEOUT_MS", None),
    ("OMPI_MAX_RESETS", None),
    ("OMPI_JOB_TIMEOUT_MS", None),
    ("OMPI_GUEST_FUEL", None),
    ("OMPI_GUEST_MEM", None),
    ("OMPI_GUEST_STACK", None),
];

#[test]
fn defaults_apply_with_clean_env() {
    with_env(ALL_VARS, || {
        let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
        assert_eq!(rc.device.global_mem, DEFAULT_DEVICE_MEM);
        assert!(!rc.device.async_streams);
        assert_eq!(rc.device.launch_timeout, DEFAULT_LAUNCH_TIMEOUT);
        assert_eq!(rc.device.max_resets, DEFAULT_MAX_RESETS);
        assert_eq!(rc.job_timeout, None);
        assert_eq!(rc.fuel, None);
        assert_eq!(rc.guest_mem, None);
        assert_eq!(rc.guest_stack, None);
    });
}

#[test]
fn well_formed_env_fills_unset_fields() {
    with_env(
        &[
            ("OMPI_DEV_MEM", Some("64M")),
            ("OMPI_ASYNC", Some("on")),
            ("OMPI_LAUNCH_TIMEOUT_MS", Some("123")),
            ("OMPI_MAX_RESETS", Some("7")),
            ("OMPI_JOB_TIMEOUT_MS", Some("4500")),
            ("OMPI_GUEST_FUEL", Some("1000")),
            ("OMPI_GUEST_MEM", Some("1M")),
            ("OMPI_GUEST_STACK", Some("64")),
        ],
        || {
            let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
            assert_eq!(rc.device.global_mem, 64 << 20);
            assert!(rc.device.async_streams);
            assert_eq!(rc.device.launch_timeout, Duration::from_millis(123));
            assert_eq!(rc.device.max_resets, 7);
            assert_eq!(rc.job_timeout, Some(Duration::from_millis(4500)));
            assert_eq!(rc.fuel, Some(1000));
            assert_eq!(rc.guest_mem, Some(1 << 20));
            assert_eq!(rc.guest_stack, Some(64));
        },
    );
}

/// The headline bugfix: before the Option-ization, every one of these env
/// vars unconditionally overwrote the explicitly-configured field.
#[test]
fn explicit_config_beats_env_for_every_knob() {
    with_env(
        &[
            ("OMPI_DEV_MEM", Some("64M")),
            ("OMPI_ASYNC", Some("on")),
            ("OMPI_LAUNCH_TIMEOUT_MS", Some("123")),
            ("OMPI_MAX_RESETS", Some("7")),
            ("OMPI_JOB_TIMEOUT_MS", Some("4500")),
            ("OMPI_GUEST_FUEL", Some("1000")),
            ("OMPI_GUEST_MEM", Some("1M")),
            ("OMPI_GUEST_STACK", Some("64")),
        ],
        || {
            let cfg = RunnerConfig {
                device_mem: Some(32 << 20),
                async_streams: Some(false),
                launch_timeout: Some(Duration::from_millis(999)),
                max_resets: Some(2),
                job_timeout: Some(Duration::from_millis(8000)),
                fuel: Some(5),
                guest_mem: Some(2 << 20),
                guest_stack: Some(16),
                ..Default::default()
            };
            let rc = ResolvedConfig::resolve(&cfg).unwrap();
            assert_eq!(
                rc.device.global_mem,
                32 << 20,
                "explicit device_mem must beat OMPI_DEV_MEM"
            );
            assert!(
                !rc.device.async_streams,
                "explicit async_streams=false must beat OMPI_ASYNC=on"
            );
            assert_eq!(rc.device.launch_timeout, Duration::from_millis(999));
            assert_eq!(rc.device.max_resets, 2);
            assert_eq!(rc.job_timeout, Some(Duration::from_millis(8000)));
            assert_eq!(rc.fuel, Some(5));
            assert_eq!(rc.guest_mem, Some(2 << 20));
            assert_eq!(rc.guest_stack, Some(16));
        },
    );
}

/// A malformed env var that would apply is a typed error naming the var.
#[test]
fn malformed_env_that_would_apply_is_a_typed_error() {
    let cases: &[(&str, &str)] = &[
        ("OMPI_DEV_MEM", "banana"),
        ("OMPI_ASYNC", "banana"),
        ("OMPI_LAUNCH_TIMEOUT_MS", "fast"),
        ("OMPI_MAX_RESETS", "-1"),
        ("OMPI_JOB_TIMEOUT_MS", "1.5s"),
        ("OMPI_GUEST_FUEL", "lots"),
        ("OMPI_GUEST_MEM", "banana"),
        ("OMPI_GUEST_STACK", "deep"),
    ];
    for (var, value) in cases {
        with_env(&[(var, Some(value))], || {
            let err = ResolvedConfig::resolve(&RunnerConfig::default())
                .expect_err(&format!("{var}={value} must be rejected"));
            assert!(
                err.to_string().contains(var),
                "error for {var} must name the variable, got: {err}"
            );
        });
    }
}

/// ...but the same malformed var is harmless when the explicit config
/// means it would never apply (matching `OMPI_JOB_TIMEOUT_MS` precedent:
/// the env var is not even read).
#[test]
fn malformed_env_is_ignored_under_explicit_config() {
    with_env(
        &[
            ("OMPI_DEV_MEM", Some("banana")),
            ("OMPI_ASYNC", Some("banana")),
            ("OMPI_LAUNCH_TIMEOUT_MS", Some("fast")),
            ("OMPI_MAX_RESETS", Some("-1")),
        ],
        || {
            let cfg = RunnerConfig {
                device_mem: Some(8 << 20),
                async_streams: Some(true),
                launch_timeout: Some(Duration::from_millis(50)),
                max_resets: Some(1),
                ..Default::default()
            };
            let rc = ResolvedConfig::resolve(&cfg).unwrap();
            assert_eq!(rc.device.global_mem, 8 << 20);
            assert!(rc.device.async_streams);
        },
    );
}

/// The `OMPI_ASYNC=off` bug: the old parser treated any non-empty string
/// other than `"0"` as true. The strict parser accepts both polarity
/// families and rejects everything else.
#[test]
fn async_env_uses_strict_boolean_spellings() {
    for v in ["1", "true", "on", "yes", "TRUE", " On "] {
        with_env(&[("OMPI_ASYNC", Some(v))], || {
            let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
            assert!(rc.device.async_streams, "OMPI_ASYNC={v} must mean true");
        });
    }
    for v in ["0", "false", "off", "no", "FALSE", " Off "] {
        with_env(&[("OMPI_ASYNC", Some(v))], || {
            let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
            assert!(!rc.device.async_streams, "OMPI_ASYNC={v} must mean false");
        });
    }
    with_env(&[("OMPI_ASYNC", Some("2"))], || {
        match ResolvedConfig::resolve(&RunnerConfig::default()) {
            Err(ConfigError::Bool { var: "OMPI_ASYNC", .. }) => {}
            other => panic!("OMPI_ASYNC=2 must be a typed Bool error, got {other:?}"),
        }
    });
}

/// `OMPI_DEV_MEM` used to truncate through `as usize`; sizes that cannot
/// be represented are typed errors now (`parse_size` catches the u64
/// overflow, `ConfigError::Overflow` the usize one on 32-bit targets).
#[test]
fn dev_mem_overflow_is_typed_not_truncated() {
    with_env(&[("OMPI_DEV_MEM", Some("99999999999g"))], || {
        let err = ResolvedConfig::resolve(&RunnerConfig::default())
            .expect_err("an unrepresentable size must not wrap");
        assert!(err.to_string().contains("OMPI_DEV_MEM"), "got: {err}");
    });
}

/// The CUDA baseline manages raw device memory itself: the four runner
/// device knobs never apply there (even malformed values are unread),
/// while the job deadline and guest limits still do.
#[test]
fn cuda_path_ignores_runner_env_but_honours_guest_env() {
    with_env(
        &[
            ("OMPI_DEV_MEM", Some("banana")),
            ("OMPI_ASYNC", Some("banana")),
            ("OMPI_LAUNCH_TIMEOUT_MS", Some("fast")),
            ("OMPI_MAX_RESETS", Some("-1")),
            ("OMPI_JOB_TIMEOUT_MS", Some("2500")),
            ("OMPI_GUEST_FUEL", Some("777")),
        ],
        || {
            let rc = ResolvedConfig::resolve_cuda(&RunnerConfig::default()).unwrap();
            assert_eq!(rc.device.global_mem, DEFAULT_DEVICE_MEM);
            assert!(!rc.device.async_streams);
            assert_eq!(rc.device.launch_timeout, DEFAULT_LAUNCH_TIMEOUT);
            assert_eq!(rc.device.max_resets, DEFAULT_MAX_RESETS);
            assert_eq!(rc.job_timeout, Some(Duration::from_millis(2500)));
            assert_eq!(rc.fuel, Some(777));
        },
    );
}

const TRIVIAL: &str = r#"
int main() {
    int n = 64;
    float x[64];
    for (int i = 0; i < n; i++) x[i] = 1.0f;
    #pragma omp target teams distribute parallel for map(tofrom: x[0:n])
    for (int i = 0; i < n; i++)
        x[i] = x[i] + 1.0f;
    return 0;
}
"#;

/// End to end: `Runner::new` surfaces the typed error (as a trap naming
/// the variable) instead of silently running with a bad config.
#[test]
fn runner_new_reports_malformed_env() {
    with_env(&[("OMPI_ASYNC", Some("banana"))], || {
        let dir = std::env::temp_dir().join(format!("ompinano-precedence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = Ompicc::new(&dir).compile(TRIVIAL).unwrap();
        let err = Runner::new(&app, &RunnerConfig::default())
            .err()
            .expect("malformed OMPI_ASYNC must fail Runner::new");
        assert!(err.to_string().contains("OMPI_ASYNC"), "got: {err}");

        // The same env is harmless once the field is explicit.
        let cfg = RunnerConfig { async_streams: Some(false), ..Default::default() };
        let runner = Runner::new(&app, &cfg).unwrap();
        assert_eq!(runner.run_main().unwrap(), ompi_nano::Value::I32(0));
    });
}

/// The app-kind rule at runner level: one `Runner::new` serves both app
/// kinds, and the app's `cuda_module` decides whether the four device
/// variables apply. A malformed `OMPI_DEV_MEM` is the typed error for the
/// OpenMP app and unread for its CUDA baseline.
#[test]
fn runner_new_applies_device_env_by_app_kind() {
    with_env(&[("OMPI_DEV_MEM", Some("banana"))], || {
        let dir = std::env::temp_dir().join(format!("ompinano-appkind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = app_by_name("bicg").unwrap();
        let cuda = compile_cuda(&app, &dir);
        let omp = compile_omp(&app, &dir);
        assert!(cuda.cuda_module.is_some() && omp.cuda_module.is_none());

        let runner = Runner::new(&cuda, &RunnerConfig::default())
            .expect("OMPI_DEV_MEM must not apply to a CUDA baseline");
        let out = run_once(&app, &runner, 16).unwrap();
        assert!(max_rel_err(&out, &(app.reference)(16)) <= app.tolerance);
        assert!(runner.dev_clock().launches > 0, "the baseline must run on the device");

        let want = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap_err();
        assert!(matches!(want, ConfigError::Size { var: "OMPI_DEV_MEM", .. }), "got {want:?}");
        match Runner::new(&omp, &RunnerConfig::default()) {
            Err(InterpError::Trap(m)) => assert_eq!(m, want.to_string()),
            Err(e) => panic!("expected the ConfigError as a trap, got {e}"),
            Ok(_) => panic!("a malformed OMPI_DEV_MEM must fail Runner::new for an OpenMP app"),
        }
    });
}

/// `OMPI_HOTSPOTS` used to be parsed twice: the machine collected per-pc
/// hits for any non-empty value but `"0"` (so `off` meant *on*), while the
/// drop-time table used the strict vocabulary — collection that nothing
/// ever printed. One strict parse in the snapshot now drives both; like
/// the other display flags an unrecognized spelling is "off", not an error.
#[test]
fn hotspots_env_is_parsed_once_and_strictly() {
    let dir = std::env::temp_dir().join(format!("ompinano-hotspots-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = Ompicc::new(&dir).compile(TRIVIAL).unwrap();
    for (value, on) in
        [("1", true), ("on", true), ("0", false), ("off", false), ("banana", false), ("", false)]
    {
        with_env(&[("OMPI_HOTSPOTS", Some(value))], || {
            let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
            assert_eq!(rc.export.unwrap().hotspots, on, "OMPI_HOTSPOTS={value:?}");
            let runner = Runner::new(&app, &RunnerConfig::default()).unwrap();
            assert_eq!(runner.machine.hotspots_enabled(), on, "machine, OMPI_HOTSPOTS={value:?}");
            runner.run_main().unwrap();
            assert_eq!(!runner.machine.line_profile().is_empty(), on, "OMPI_HOTSPOTS={value:?}");

            // An explicit sink owns export: nothing would print the
            // table, so nothing is collected either.
            let cfg = RunnerConfig { obs: Some(obs::Obs::disabled()), ..Default::default() };
            assert!(!ResolvedConfig::resolve(&cfg).unwrap().export.is_some_and(|e| e.hotspots));
            assert!(!Runner::new(&app, &cfg).unwrap().machine.hotspots_enabled());
        });
    }
}

const JOB: &str = r#"
int job(int k) {
    int n = 64;
    float x[64];
    for (int i = 0; i < n; i++) x[i] = (float) (i + k);
    #pragma omp target teams distribute parallel for map(tofrom: x[0:n])
    for (int i = 0; i < n; i++)
        x[i] = 2.0f * x[i] + 1.0f;
    float s = 0.0f;
    for (int i = 0; i < n; i++) s = s + x[i];
    return (int) s;
}
int main() { return job(0); }
"#;

/// Construction time is the only snapshot. A runner and a 2-device server
/// are built under a clean environment; hostile variables set *afterwards*
/// — before the first offload and the first job, when devices initialize
/// lazily and per-job machines are built — must change nothing. (Devices
/// used to re-read `OMPI_FAULT_PLAN` at lazy init, and every machine
/// `OMPI_HOTSPOTS`.)
#[test]
fn setenv_after_construction_changes_nothing() {
    const HOSTILE: &[(&str, &str)] = &[
        ("OMPI_FAULT_PLAN", "init@1x*,dev1:init@1x*"),
        ("OMPI_GUEST_FUEL", "1"),
        ("OMPI_HOTSPOTS", "1"),
        ("OMP_NUM_THREADS", "1"),
    ];
    let clean: Vec<(&str, Option<&str>)> = HOSTILE.iter().map(|(k, _)| (*k, None)).collect();
    with_env(&clean, || {
        let dir = std::env::temp_dir().join(format!("ompinano-snapshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = Ompicc::new(dir.join("app")).compile(JOB).unwrap();
        let runner = Runner::new(&app, &RunnerConfig::default()).unwrap();
        let mut cfg = ServeConfig::new(dir.join("serve"));
        cfg.runner.num_devices = 2;
        cfg.runner.jit_cache_dir = dir.join("jit");
        let server = Server::new(&cfg).unwrap();
        let program = server.register_program("t", JOB).unwrap();

        for (k, v) in HOSTILE {
            std::env::set_var(k, v);
        }

        let expected = Value::I32((0..64).map(|i| 2 * (i + 3) + 1).sum());
        assert_eq!(runner.call("job", &[Value::I32(3)]).unwrap(), expected);
        let clk = runner.dev_clock();
        assert!(clk.launches > 0, "the region must still offload");
        assert_eq!(runner.dev_clock_of(runner.num_devices()).unwrap().fallbacks, 0);
        assert!(!runner.device_broken());
        assert!(!runner.machine.hotspots_enabled());
        assert!(runner.machine.line_profile().is_empty());
        assert_eq!(runner.hooks.rt.default_threads, 4);

        server.start();
        let ids: Vec<_> = (0..4)
            .map(|_| {
                let mut spec = JobSpec::new(program);
                spec.entry = "job".to_string();
                spec.args = vec![Value::I32(3)];
                server.submit("t", spec).unwrap()
            })
            .collect();
        for id in ids {
            assert_eq!(server.wait(id).value, Ok(expected));
        }
        server.shutdown();
        let m = &server.obs().metrics;
        assert_eq!(m.counter(server.serve_pid(), "serve.affinity.host"), 0);
        assert_eq!(m.counter(server.serve_pid(), "serve.jobs_completed"), 4);
        let launches: u64 = (0..2).map(|d| server.device(d).unwrap().clock().launches).sum();
        assert_eq!(launches, 4, "every job must run on a device");
        let fallbacks: u64 = (0..3).map(|pid| m.counter(pid, "fallbacks")).sum();
        assert_eq!(fallbacks, 0);

        // The per-job view the workers build, under the same hostile env.
        let registry = std::sync::Arc::new(DeviceRegistry::new(Vec::new(), 2));
        let view = Runner::on(&app, registry, server.resolved()).unwrap();
        assert!(!view.machine.hotspots_enabled());
        assert_eq!(view.machine.limits().fuel_budget(), None);
    });
}
