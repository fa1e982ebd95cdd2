//! Batch-server integration tests: the multi-tenant soak (outputs
//! bit-identical to standalone runners), typed admission rejections,
//! deterministic weighted-fair and priority scheduling, and mid-soak
//! device failure rerouting.

use ompi_nano::nvccsim::BinMode;
use ompi_nano::serve::{JobSpec, Priority, ServeConfig, ServeError, Server, TenantConfig};
use ompi_nano::{Ompicc, Runner, RunnerConfig, Value};

/// One parameterized guest program per tenant: `job(k)` offloads an
/// elementwise kernel over data seeded by `k`, reduces on the host, and
/// prints the sum — so both the return value and the captured output are
/// data-dependent and comparable bit-for-bit against a standalone run.
fn tenant_source(c: u32) -> String {
    format!(
        r#"
int job(int k) {{
    int n = 64;
    float x[64];
    for (int i = 0; i < n; i++) x[i] = (float) (i + k);
    #pragma omp target teams distribute parallel for map(tofrom: x[0:n])
    for (int i = 0; i < n; i++)
        x[i] = 2.0f * x[i] + {c}.0f;
    float s = 0.0f;
    for (int i = 0; i < n; i++) s = s + x[i];
    printf("job %d sum %f\n", k, s);
    return k;
}}
int main() {{ return job(0); }}
"#
    )
}

fn work(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ompinano-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn serve_config(tag: &str, devices: usize, workers: usize) -> ServeConfig {
    let dir = work(tag);
    let mut cfg = ServeConfig::new(&dir);
    cfg.mode = BinMode::Ptx;
    cfg.runner.num_devices = devices;
    cfg.runner.jit_cache_dir = dir.join("jit");
    cfg.runner.obs = Some(obs::Obs::disabled());
    cfg.workers = workers;
    cfg
}

/// The reference: the same source through the one-shot path — its own
/// `Ompicc`, its own `Runner`, its own registry — at the same arg.
fn reference(tag: &str, c: u32, ks: &[i32]) -> Vec<(Value, String)> {
    let dir = work(&format!("ref-{tag}-{c}"));
    let app = Ompicc::new(&dir).with_mode(BinMode::Ptx).compile(&tenant_source(c)).unwrap();
    let cfg = RunnerConfig { jit_cache_dir: dir.join("jit"), ..Default::default() };
    ks.iter()
        .map(|&k| {
            let runner = Runner::new(&app, &cfg).unwrap();
            let v = runner.call("job", &[Value::I32(k)]).unwrap();
            let mut out = runner.take_output();
            out.push_str(&runner.take_device_output());
            (v, out)
        })
        .collect()
}

/// The acceptance-criteria soak: 3 tenants × 2 devices, ≥1000 jobs with
/// per-job argument variation, every output bit-identical to a standalone
/// runner, at least one admission rejection and one affinity-driven
/// module-cache hit in the metrics, every tenant's jobs completed, and
/// positive latency percentiles per tenant and in aggregate.
#[test]
fn soak_three_tenants_two_devices_bit_identical() {
    let cfg = serve_config("soak", 2, 2);
    let obs = cfg.runner.obs.clone().unwrap();
    let server = Server::new(&cfg).unwrap();

    let tenants = ["t0", "t1", "t2"];
    let consts = [1u32, 3, 7];
    let mut programs = Vec::new();
    for (t, c) in tenants.iter().zip(consts) {
        server.register_tenant(t, TenantConfig { weight: 1, max_inflight: 2, queue_cap: 2048 });
        programs.push(server.register_program(t, &tenant_source(c)).unwrap());
    }
    // Per-tenant references for every arg value the soak uses.
    let ks: Vec<i32> = (0..8).collect();
    let refs: Vec<Vec<(Value, String)>> =
        consts.iter().map(|&c| reference("soak", c, &ks)).collect();

    server.start();
    let per_tenant = 334; // 3 × 334 = 1002 jobs
    let mut handles = Vec::new();
    for j in 0..per_tenant {
        for (ti, t) in tenants.iter().enumerate() {
            let k = j % 8;
            let mut spec = JobSpec::new(programs[ti]);
            spec.entry = "job".to_string();
            spec.args = vec![Value::I32(k)];
            let id = loop {
                match server.submit(t, spec.clone()) {
                    Ok(id) => break id,
                    // Back off when the tenant's pending cap trips — the
                    // soak intentionally outpaces 2 devices.
                    Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("submit failed: {e}"),
                }
            };
            handles.push((ti, k, id));
        }
    }
    // One deliberately impossible job proves the memory admission gate.
    let mut hog = JobSpec::new(programs[0]);
    hog.entry = "job".to_string();
    hog.args = vec![Value::I32(0)];
    hog.mem_hint = 1 << 50;
    match server.submit("t0", hog) {
        Err(ServeError::Overloaded { reason: "mem_pressure" }) => {}
        other => panic!("expected mem_pressure rejection, got {other:?}"),
    }

    for (ti, k, id) in &handles {
        let r = server.wait(*id);
        let (ref_v, ref_out) = &refs[*ti][*k as usize];
        let v = r.value.as_ref().unwrap_or_else(|e| panic!("job {id:?} failed: {e}"));
        assert_eq!(v, ref_v, "tenant {ti} job k={k}: return value");
        assert_eq!(&r.output, ref_out, "tenant {ti} job k={k}: output must be bit-identical");
    }
    server.shutdown();

    let pid = server.serve_pid();
    let m = &obs.metrics;
    assert_eq!(m.counter(pid, "serve.jobs_completed"), 1002);
    assert_eq!(m.counter(pid, "serve.jobs_failed"), 0);
    assert!(m.counter(pid, "serve.rejected.overload") >= 1);
    assert!(m.counter(pid, "serve.rejected.overload.mem_pressure") >= 1);
    assert!(
        m.counter(pid, "serve.affinity.hit") >= 1,
        "a 334-job-per-tenant soak must land repeat placements"
    );
    // Affinity pays off as in-memory module-cache hits on the devices.
    let mem_hits = m.counter(0, "modload.mem_hit") + m.counter(1, "modload.mem_hit");
    assert!(mem_hits >= 1, "warm placements must hit the module cache");

    // Every tenant completed its share, and every latency percentile, per
    // tenant and in aggregate, is defined and positive.
    for t in tenants {
        assert_eq!(m.counter(pid, &format!("serve.jobs_completed.{t}")), per_tenant as u64);
    }
    let hists = tenants.iter().map(|t| format!("job_latency_us.{t}"));
    for name in hists.chain(["job_latency_us".to_string()]) {
        let h = m.hist(pid, &name).unwrap_or_else(|| panic!("missing latency hist {name}"));
        for p in [50.0, 95.0, 99.0] {
            let v = h.percentile(p).unwrap_or_else(|| panic!("{name}: p{p} must be defined"));
            assert!(v > 0, "{name}: p{p} must be positive");
        }
    }
}

/// Deterministic weighted fairness: one worker, one device, everything
/// submitted before `start` — completion order must be the exact stride
/// schedule for weights 2:1.
#[test]
fn stride_fairness_is_exact_with_one_worker() {
    let cfg = serve_config("fair", 1, 1);
    let server = Server::new(&cfg).unwrap();
    server.register_tenant("a", TenantConfig { weight: 2, max_inflight: 1, queue_cap: 64 });
    server.register_tenant("b", TenantConfig { weight: 1, max_inflight: 1, queue_cap: 64 });
    let pa = server.register_program("a", &tenant_source(1)).unwrap();
    let pb = server.register_program("b", &tenant_source(2)).unwrap();

    let mut a_ids = Vec::new();
    let mut b_ids = Vec::new();
    for k in 0..6 {
        let mut s = JobSpec::new(pa);
        s.entry = "job".into();
        s.args = vec![Value::I32(k)];
        a_ids.push(server.submit("a", s).unwrap());
    }
    for k in 0..3 {
        let mut s = JobSpec::new(pb);
        s.entry = "job".into();
        s.args = vec![Value::I32(k)];
        b_ids.push(server.submit("b", s).unwrap());
    }
    server.start();
    for id in a_ids.iter().chain(&b_ids) {
        let r = server.wait(*id);
        assert!(r.value.is_ok());
    }
    server.shutdown();

    let order: Vec<&str> = server
        .completion_order()
        .iter()
        .map(|id| if a_ids.contains(id) { "a" } else { "b" })
        .collect();
    assert_eq!(order, ["a", "b", "a", "a", "b", "a", "a", "b", "a"]);
}

/// A high-priority job submitted last completes first.
#[test]
fn priority_lane_completes_first() {
    let cfg = serve_config("prio", 1, 1);
    let server = Server::new(&cfg).unwrap();
    server.register_tenant("a", TenantConfig { max_inflight: 1, ..Default::default() });
    server.register_tenant("b", TenantConfig { max_inflight: 1, ..Default::default() });
    let pa = server.register_program("a", &tenant_source(1)).unwrap();
    let pb = server.register_program("b", &tenant_source(2)).unwrap();

    for k in 0..3 {
        let mut s = JobSpec::new(pa);
        s.entry = "job".into();
        s.args = vec![Value::I32(k)];
        server.submit("a", s).unwrap();
    }
    let mut urgent = JobSpec::new(pb);
    urgent.entry = "job".into();
    urgent.args = vec![Value::I32(9)];
    urgent.priority = Priority::High;
    let urgent_id = server.submit("b", urgent).unwrap();

    server.start();
    let r = server.wait(urgent_id);
    assert_eq!(r.value.unwrap(), Value::I32(9));
    server.shutdown();
    assert_eq!(server.completion_order()[0], urgent_id, "the high lane must run first");
}

/// Typed overload at the tenant pending cap; the queue admits again once
/// drained, and rejected jobs leave no residue in the counters.
#[test]
fn tenant_cap_rejects_then_recovers() {
    let cfg = serve_config("cap", 1, 1);
    let obs = cfg.runner.obs.clone().unwrap();
    let server = Server::new(&cfg).unwrap();
    server.register_tenant("a", TenantConfig { weight: 1, max_inflight: 1, queue_cap: 2 });
    let pa = server.register_program("a", &tenant_source(1)).unwrap();

    let spec = |k: i32| {
        let mut s = JobSpec::new(pa);
        s.entry = "job".into();
        s.args = vec![Value::I32(k)];
        s
    };
    let id0 = server.submit("a", spec(0)).unwrap();
    let id1 = server.submit("a", spec(1)).unwrap();
    match server.submit("a", spec(2)) {
        Err(ServeError::Overloaded { reason: "tenant_queue_full" }) => {}
        other => panic!("expected tenant_queue_full, got {other:?}"),
    }
    server.start();
    assert!(server.wait(id0).value.is_ok());
    assert!(server.wait(id1).value.is_ok());
    // Drained: the same tenant is admitted again.
    let id2 = server.submit("a", spec(2)).unwrap();
    assert_eq!(server.wait(id2).value.unwrap(), Value::I32(2));
    server.shutdown();

    let pid = server.serve_pid();
    assert_eq!(obs.metrics.counter(pid, "serve.jobs_completed"), 3);
    assert_eq!(obs.metrics.counter(pid, "serve.rejected.overload.tenant_queue_full"), 1);
}

/// Submitting against another tenant's program is refused.
#[test]
fn cross_tenant_program_use_is_refused() {
    let cfg = serve_config("xtenant", 1, 1);
    let server = Server::new(&cfg).unwrap();
    let pa = server.register_program("a", &tenant_source(1)).unwrap();
    server.register_tenant("b", TenantConfig::default());
    match server.submit("b", JobSpec::new(pa)) {
        Err(ServeError::WrongTenant { owner, .. }) => assert_eq!(owner, "a"),
        other => panic!("expected WrongTenant, got {other:?}"),
    }
}

fn job_spec(program: ompi_nano::serve::ProgramId, k: i32) -> JobSpec {
    let mut s = JobSpec::new(program);
    s.entry = "job".into();
    s.args = vec![Value::I32(k)];
    s
}

/// Every served job is a fresh instance of its program's image: a global
/// bumped by one job reads zero in the next, on a guest arena the size of
/// the benchmark's (6 MiB, a mapped one).
#[test]
fn every_served_job_starts_on_a_zeroed_arena() {
    let mut cfg = serve_config("fresh", 1, 1);
    cfg.runner.host_mem = 6 << 20;
    let server = Server::new(&cfg).unwrap();
    let src = "int hits; int job(int k) { hits = hits + 1; return hits + k; } \
               int main() { return job(0); }";
    let p = server.register_program("a", src).unwrap();
    server.start();
    for k in 0..50 {
        let id = server.submit("a", job_spec(p, k)).unwrap();
        assert_eq!(server.wait(id).value, Ok(Value::I32(1 + k)), "job {k}");
    }
}

/// A program whose globals do not fit `host_mem` fails its jobs with the
/// typed error, and the server goes on serving the other programs.
#[test]
fn a_program_too_big_for_host_mem_fails_its_jobs_only() {
    let mut cfg = serve_config("toobig", 1, 1);
    cfg.runner.host_mem = 6 << 20;
    let server = Server::new(&cfg).unwrap();
    let big = server
        .register_program(
            "a",
            "float big[2097152]; int job(int k) { return k; } int main() { return 0; }",
        )
        .unwrap();
    let ok = server.register_program("a", &tenant_source(1)).unwrap();
    server.start();
    for round in 0..2 {
        let id = server.submit("a", job_spec(big, round)).unwrap();
        let err = server.wait(id).value.unwrap_err();
        assert!(err.contains("guest arena too small"), "round {round}: {err}");
        let id = server.submit("a", job_spec(ok, round)).unwrap();
        assert_eq!(server.wait(id).value, Ok(Value::I32(round)), "round {round}");
    }
}

/// Four tenants register at once: compiles run outside the programs lock,
/// and every id still runs its own program.
#[test]
fn concurrent_registrations_each_run_their_own_program() {
    let server = Server::new(&serve_config("register", 1, 1)).unwrap();
    let source = |c: i32| {
        format!(
            r#"
int job(int k) {{
    int x[32];
    #pragma omp target teams distribute parallel for map(from: x[0:32])
    for (int i = 0; i < 32; i++) x[i] = i * 100 + {c};
    return x[k];
}}
int main() {{ return job(0); }}
"#
        )
    };
    let go = std::sync::Barrier::new(4);
    let ids: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let (server, go) = (&server, &go);
                let src = source(c);
                s.spawn(move || {
                    go.wait();
                    (c, server.register_program(&format!("t{c}"), &src).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.start();
    for (c, p) in ids {
        let id = server.submit(&format!("t{c}"), job_spec(p, 3)).unwrap();
        assert_eq!(server.wait(id).value, Ok(Value::I32(300 + c)), "tenant t{c}");
    }
}

/// A device latching broken mid-soak: the tenant's warm device dies
/// between batches, the scheduler reroutes to the surviving device, and
/// every output is still bit-identical to the standalone reference.
#[test]
fn broken_device_mid_soak_reroutes_with_correct_outputs() {
    let cfg = serve_config("chaos", 2, 2);
    let obs = cfg.runner.obs.clone().unwrap();
    let server = Server::new(&cfg).unwrap();
    server.register_tenant("a", TenantConfig { weight: 1, max_inflight: 1, queue_cap: 64 });
    let pa = server.register_program("a", &tenant_source(5)).unwrap();
    let ks: Vec<i32> = (0..8).collect();
    let refs = reference("chaos", 5, &ks);
    server.start();

    let run_batch = |lo: i32, hi: i32| {
        let ids: Vec<_> = (lo..hi)
            .map(|k| {
                let mut s = JobSpec::new(pa);
                s.entry = "job".into();
                s.args = vec![Value::I32(k % 8)];
                (k % 8, server.submit("a", s).unwrap())
            })
            .collect();
        for (k, id) in ids {
            let r = server.wait(id);
            let (ref_v, ref_out) = &refs[k as usize];
            assert_eq!(r.value.as_ref().unwrap(), ref_v, "k={k}");
            assert_eq!(&r.output, ref_out, "k={k}: output after reroute");
        }
    };

    // Warm batch: with max_inflight 1 every job lands on the same device.
    run_batch(0, 5);
    let pid = server.serve_pid();
    assert!(obs.metrics.counter(pid, "serve.affinity.hit") >= 4);

    // The warm device dies between batches; the next placement reroutes.
    server.device(0).unwrap().mark_broken();
    server.device(1).unwrap(); // both devices exist
    run_batch(5, 10);
    server.shutdown();

    assert!(
        obs.metrics.counter(pid, "serve.affinity.reroute") >= 1,
        "losing the preferred device must show up as a reroute"
    );
    assert_eq!(obs.metrics.counter(pid, "serve.jobs_failed"), 0);
}
