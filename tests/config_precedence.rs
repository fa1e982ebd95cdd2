//! Configuration comes from `RunnerConfig` alone: an unset field means its
//! default, whatever the environment says. The one variable the library
//! reads is `OMP_NUM_THREADS`, the OpenMP specification's initializer of
//! the host runtime's `nthreads-var`, and it is read once, at
//! construction.
//!
//! The guard below sets every variable the library once read as a second
//! spelling of a config field (`OMPI_*`) to a value that would change the
//! run if it applied, then builds a runner and a two-device server. Their
//! outputs, device clocks and success must match a clean-environment run.

use ompi_nano::serve::{JobSpec, ServeConfig, Server};
use ompi_nano::{DeviceRegistry, Ompicc, Runner, RunnerConfig, Value};

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

#[test]
fn former_ompi_variables_change_nothing() {
    let dir = std::env::temp_dir().join(format!("ompinano-config-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let flight = dir.join("flight.jsonl");
    let hostile: [(&str, &str); 13] = [
        ("OMPI_DEV_MEM", "1"),
        ("OMPI_ASYNC", "1"),
        ("OMPI_LAUNCH_TIMEOUT_MS", "1"),
        ("OMPI_MAX_RESETS", "0"),
        ("OMPI_JOB_TIMEOUT_MS", "0"),
        ("OMPI_GUEST_FUEL", "1"),
        ("OMPI_GUEST_MEM", "1"),
        ("OMPI_GUEST_STACK", "1"),
        ("OMPI_FAULT_PLAN", "init@1x*,dev1:init@1x*"),
        ("OMPI_TRACE", trace.to_str().unwrap()),
        ("OMPI_PROFILE", "1"),
        ("OMPI_HOTSPOTS", "1"),
        ("OMPI_FLIGHT_DUMP", flight.to_str().unwrap()),
    ];
    let app = Ompicc::new(dir.join("app")).compile(JOB).unwrap();
    let expected = Value::I32((0..64).map(|i| 2 * (i + 3) + 1).sum());
    let run = || {
        let runner = Runner::new(&app, &RunnerConfig::default()).unwrap();
        assert_eq!(runner.call("job", &[Value::I32(3)]).unwrap(), expected);
        assert!(!runner.machine.hotspots_enabled());
        assert!(runner.machine.line_profile().is_empty());
        runner
    };
    let clean = format!("{:?}", run().dev_clock());

    std::env::remove_var("OMP_NUM_THREADS");
    for (k, v) in hostile {
        std::env::set_var(k, v);
    }
    let runner = run();
    let clk = runner.dev_clock();
    assert!(clk.launches > 0, "the region must offload");
    assert_eq!(format!("{clk:?}"), clean, "the device clock must match the clean run");
    assert_eq!(runner.dev_clock_of(runner.num_devices()).unwrap().fallbacks, 0);
    assert!(!runner.device_broken());
    assert_eq!(runner.hooks.rt.default_threads, 4);

    let mut cfg = ServeConfig::new(dir.join("serve"));
    cfg.runner.num_devices = 2;
    cfg.runner.jit_cache_dir = dir.join("jit");
    let server = Server::new(&cfg).unwrap();
    let program = server.register_program("t", JOB).unwrap();
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

    // The per-job view the workers build.
    let registry = std::sync::Arc::new(DeviceRegistry::new(Vec::new(), 2));
    let view = Runner::on(&app, registry, server.resolved()).unwrap();
    assert!(!view.machine.hotspots_enabled());
    assert_eq!(view.machine.limits().fuel_budget(), None);
    drop((runner, view, server));
    assert!(!trace.exists() && !flight.exists(), "nothing may write the old export paths");

    // `OMP_NUM_THREADS` is read, once: at construction, not afterwards.
    std::env::set_var("OMP_NUM_THREADS", "3");
    let runner = Runner::new(&app, &RunnerConfig::default()).unwrap();
    std::env::set_var("OMP_NUM_THREADS", "1");
    assert_eq!(runner.hooks.rt.default_threads, 3);
    assert_eq!(runner.call("job", &[Value::I32(3)]).unwrap(), expected);

    std::env::remove_var("OMP_NUM_THREADS");
    for (k, _) in hostile {
        std::env::remove_var(k);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
