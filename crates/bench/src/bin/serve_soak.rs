//! `serve_soak` — the batch-server soak driver.
//!
//! Stands up a [`serve::Server`] over a simulated device fleet, registers
//! N tenants (each with its own guest program and a distinct stride
//! weight), pushes a configurable number of parameterized jobs through
//! the scheduler, and reports throughput, per-tenant latency percentiles,
//! affinity placement counts, and admission rejections. One deliberately
//! impossible job (a `mem_hint` no device could satisfy) proves the
//! memory admission gate end to end.
//!
//! ```text
//! serve_soak [--jobs N] [--tenants T] [--devices D] [--workers W] [--json PATH]
//! ```
//!
//! `--json` writes the `ompi-nano/serve/v1` artifact the CI smoke job
//! asserts on (jobs completed, overload rejections, non-empty latency
//! percentiles).

use std::time::Instant;

use serve::{JobSpec, ServeConfig, ServeError, Server, TenantConfig};
use vmcommon::Value;

fn tenant_source(c: u32) -> String {
    format!(
        r#"
int job(int k) {{
    int n = 256;
    float x[256];
    for (int i = 0; i < n; i++) x[i] = (float) (i + k);
    #pragma omp target teams distribute parallel for map(tofrom: x[0:n])
    for (int i = 0; i < n; i++)
        x[i] = 2.0f * x[i] + {c}.0f;
    float s = 0.0f;
    for (int i = 0; i < n; i++) s = s + x[i];
    return (int) s;
}}
int main() {{ return job(0); }}
"#
    )
}

struct TenantRow {
    name: String,
    completed: u64,
    p50: u64,
    p95: u64,
    p99: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = 1000usize;
    let mut tenants = 3usize;
    let mut devices = 2usize;
    let mut workers = 0usize;
    let mut json_path: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                jobs = args[i + 1].parse().expect("jobs");
                i += 2;
            }
            "--tenants" => {
                tenants = args[i + 1].parse().expect("tenants");
                i += 2;
            }
            "--devices" => {
                devices = args[i + 1].parse().expect("devices");
                i += 2;
            }
            "--workers" => {
                workers = args[i + 1].parse().expect("workers");
                i += 2;
            }
            "--json" => {
                json_path = Some(std::path::PathBuf::from(&args[i + 1]));
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: serve_soak [--jobs N] [--tenants T] [--devices D] \
                     [--workers W] [--json PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(tenants >= 1 && devices >= 1 && jobs >= tenants);

    let dir = std::env::temp_dir().join(format!("ompinano-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::new(&dir);
    cfg.runner.num_devices = devices;
    cfg.runner.jit_cache_dir = dir.join("jit");
    cfg.workers = workers;
    let server = Server::new(&cfg).unwrap_or_else(|e| {
        eprintln!("server construction failed: {e}");
        std::process::exit(1);
    });
    // The server built its sink from the one env snapshot (so
    // `OMPI_FLIGHT_DUMP` arms its flight recorder).
    let obs = server.obs().clone();

    let names: Vec<String> = (0..tenants).map(|t| format!("t{t}")).collect();
    let mut programs = Vec::new();
    for (t, name) in names.iter().enumerate() {
        // Distinct weights (1, 2, 3, ... capped at 4) exercise the stride
        // scheduler with an uneven share target.
        let weight = (t as u32 % 4) + 1;
        server.register_tenant(name, TenantConfig { weight, max_inflight: 2, queue_cap: jobs + 2 });
        programs.push(server.register_program(name, &tenant_source(t as u32 + 1)).unwrap());
    }

    server.start();
    let started = Instant::now();
    let mut handles = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let t = j % tenants;
        let mut spec = JobSpec::new(programs[t]);
        spec.entry = "job".to_string();
        spec.args = vec![Value::I32((j % 8) as i32)];
        match server.submit(&names[t], spec) {
            Ok(id) => handles.push(id),
            Err(e) => {
                eprintln!("submit {j} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    // The admission-gate proof: no device can ever free 2^50 bytes.
    let mut hog = JobSpec::new(programs[0]);
    hog.entry = "job".to_string();
    hog.args = vec![Value::I32(0)];
    hog.mem_hint = 1 << 50;
    match server.submit(&names[0], hog) {
        Err(ServeError::Overloaded { reason: "mem_pressure" }) => {}
        other => {
            eprintln!("expected a mem_pressure rejection, got {other:?}");
            std::process::exit(1);
        }
    }

    let mut failed = 0u64;
    for id in handles {
        if server.wait(id).value.is_err() {
            failed += 1;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    server.shutdown();

    let pid = server.serve_pid();
    let m = &obs.metrics;
    let counter = |name: &str| m.counter(pid, name);
    let completed = counter("serve.jobs_completed");
    let rejected = counter("serve.rejected.overload");

    let rows: Vec<TenantRow> = names
        .iter()
        .map(|name| {
            let h = m.hist(pid, &format!("job_latency_us.{name}"));
            let pct = |p: f64| h.as_ref().and_then(|h| h.percentile(p)).unwrap_or(0);
            TenantRow {
                name: name.clone(),
                completed: counter(&format!("serve.jobs_completed.{name}")),
                p50: pct(50.0),
                p95: pct(95.0),
                p99: pct(99.0),
            }
        })
        .collect();

    println!(
        "# serve_soak: {completed} jobs / {tenants} tenants / {devices} devices in {wall_s:.2}s \
         ({:.0} jobs/s), {failed} failed, {rejected} rejected",
        completed as f64 / wall_s
    );
    for r in &rows {
        println!(
            "#   {}: completed={} p50={}us p95={}us p99={}us",
            r.name, r.completed, r.p50, r.p95, r.p99
        );
    }
    println!(
        "#   affinity: first={} hit={} miss={} reroute={} host={}",
        counter("serve.affinity.first"),
        counter("serve.affinity.hit"),
        counter("serve.affinity.miss"),
        counter("serve.affinity.reroute"),
        counter("serve.affinity.host"),
    );

    if let Some(path) = json_path {
        let json = render_json(&server, &obs, wall_s, failed, &rows);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("# json written to {}", path.display());
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Hand-rolled JSON (no serde in the tree), `ompi-nano/serve/v1`.
fn render_json(
    server: &Server,
    obs: &std::sync::Arc<obs::Obs>,
    wall_s: f64,
    failed: u64,
    rows: &[TenantRow],
) -> String {
    let pid = server.serve_pid();
    let c = |name: &str| obs.metrics.counter(pid, name);
    let all = obs.metrics.hist(pid, "job_latency_us");
    let pct = |p: f64| all.as_ref().and_then(|h| h.percentile(p)).unwrap_or(0);
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"ompi-nano/serve/v1\",\n");
    s.push_str(&format!("  \"devices\": {},\n", server.num_devices()));
    s.push_str(&format!("  \"wall_s\": {wall_s:.6},\n"));
    s.push_str("  \"serve\": {\n");
    s.push_str(&format!("    \"jobs_submitted\": {},\n", c("serve.jobs_submitted")));
    s.push_str(&format!("    \"jobs_completed\": {},\n", c("serve.jobs_completed")));
    s.push_str(&format!("    \"jobs_failed\": {failed},\n"));
    s.push_str(&format!(
        "    \"rejected\": {{\"overload\": {}, \"mem_pressure\": {}}},\n",
        c("serve.rejected.overload"),
        c("serve.rejected.overload.mem_pressure")
    ));
    s.push_str(&format!(
        "    \"affinity\": {{\"first\": {}, \"hit\": {}, \"miss\": {}, \"reroute\": {}, \
         \"host\": {}}},\n",
        c("serve.affinity.first"),
        c("serve.affinity.hit"),
        c("serve.affinity.miss"),
        c("serve.affinity.reroute"),
        c("serve.affinity.host")
    ));
    s.push_str(&format!(
        "    \"job_latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}}\n",
        pct(50.0),
        pct(95.0),
        pct(99.0)
    ));
    s.push_str("  },\n");
    s.push_str("  \"tenants\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"completed\": {}, \"job_latency_us\": \
             {{\"p50\": {}, \"p95\": {}, \"p99\": {}}}}}{}\n",
            r.name,
            r.completed,
            r.p50,
            r.p95,
            r.p99,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
