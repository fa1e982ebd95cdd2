//! Regenerate the paper's Fig. 4 (a)–(f): execution time vs problem size
//! for the pure CUDA version and the OMPi/cudadev version of each
//! application.
//!
//! Usage:
//!   fig4 [--app NAME] [--sizes a,b,c] [--trace PATH] [--profile]
//!        [--hotspots] [--mem SIZE] [--async] [--fuel N]
//!        [--job-timeout-ms N] [--faults SPEC] [--flight-dump PATH]
//!        [--json PATH] [--quick]
//!
//! Every run simulates every block of every launch (`ExecMode::Functional`):
//! each number is the simulated clock of a run that happened, and each
//! checksum is of a computed output, so a CUDA and an OMPi row of the same
//! (app, n) carry the same checksum, except where float atomics from
//! different blocks meet in host order (gramschmidt at n >= 512). There is
//! no sampling mode.
//!
//! `--json PATH` additionally writes a machine-readable
//! perf-trajectory artifact (wall-clock + simulated-clock per app and
//! variant, including a host-sequential series at each app's
//! `bench_size`) for the CI bench-smoke regression gate. `--quick` runs
//! the device series at each app's test size (gramschmidt: also n = 128)
//! instead of the paper sizes — the configuration the committed baseline
//! and CI use.
//!
//! `--faults SPEC` runs the OMPi variant under a fault plan (see
//! `gpusim::fault` for the syntax: `launch@2x3`, `hang@launch`,
//! `dev1:h2d@1x*`, ...). `chaos:N` is the seeded chaos plan (see
//! `gpusim::FaultPlan::chaos`): a random mix of transient faults, hangs
//! and terminal failures that exercises the watchdog / reset-and-replay /
//! circuit-breaker recovery path while keeping results bit-identical.
//! Combine with `--trace` to inspect the `recovery.reset` and
//! `breaker.probe` events on the timeline. A malformed plan, or one with
//! no rule for device 0 (fig4 runs one device), exits 2 before any run. The CUDA baseline is left un-faulted — it has no
//! recovery runtime to degrade through.
//!
//! `--flight-dump PATH` gives the flight recorder a dump path: the ring's
//! last events land there as JSONL on the first device latch or watchdog
//! timeout, or at the end of the run if neither fired.
//!
//! `--fuel N` and `--job-timeout-ms N` arm the guest resource governor on
//! the OMPi variant (instruction budget / wall-clock deadline per `run()`
//! call — see the "Guest limits" section in the README). A tripped limit
//! surfaces as a typed error from the runner instead of a hang; the CUDA
//! baseline has no guest interpreter to govern and runs unlimited.
//!
//! `--mem 32M` caps the OMPi variant's device arena below the working set,
//! driving the memory governor's evict → tile → fallback ladder
//! (the CUDA baseline keeps its full arena: it manages raw device memory
//! itself and has no governor to degrade through).
//!
//! `--async` runs the OMPi variant with async command streams: transfers
//! and launches schedule on per-region streams whose copy and compute
//! engines overlap on the simulated clock. Results are bit-identical to
//! the synchronous run (compare the `# checksum` lines); the hidden time
//! shows up in the `overlap` comment lines and as per-stream trace tracks.
//! Combine with `--mem` to see the governor's double-buffered tiling
//! pipeline transfers under compute within a single region.
//!
//! By default every app runs over its paper sizes: one such run took 878 s
//! of wall time on two vCPUs, 445 s of it gramschmidt@2048 (6144 launches
//! per variant) and 266 s gemm@2048; `--quick` took 0.83–0.94 s. `--trace
//! PATH` writes a Chrome trace-event JSON of every run (load in Perfetto /
//! chrome://tracing) and `--profile` prints the per-device simulated-time
//! profile table after each measurement.
//!
//! `--hotspots` prints each app's guest-source "hot lines" table: VM
//! instruction/dispatch counters attributed to source lines through the
//! compiler's pc→line tables. The attribution comes from a dedicated
//! host-sequential pass (at the app's test size).

use std::sync::Arc;

use ompi_core::RunnerConfig;
use unibench::{
    all_apps, app_by_name, build_variant_cfg, host_machine, measure, output_checksum,
    run_host_once, runner_config, Variant,
};

/// One measured point for the `--json` artifact.
struct JsonRow {
    app: &'static str,
    variant: &'static str,
    n: u32,
    wall_s: f64,
    sim_s: f64,
    kernel_s: f64,
    memcpy_s: f64,
    launches: u64,
    checksum: u64,
    vm_instructions: u64,
}

/// The `--quick` device sizes: each app's test size, and for gramschmidt
/// also n = 128, where one 256-thread block folds a float `reduction(+)`
/// across its warps — so the baseline's exact checksum gate covers a
/// multi-warp float reduction.
fn quick_sizes(app: &unibench::App) -> Vec<u32> {
    let mut sizes = vec![app.test_size];
    if app.name == "gramschmidt" {
        sizes.push(128);
    }
    sizes
}

const USAGE: &str = "usage: fig4 [--app NAME] [--sizes a,b,c] [--trace PATH] [--profile]
            [--hotspots] [--mem SIZE] [--async] [--fuel N]
            [--job-timeout-ms N] [--faults SPEC] [--flight-dump PATH]
            [--json PATH] [--quick]";

/// Report a malformed command line and exit with status 2.
fn usage(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut app_filter: Option<String> = None;
    let mut sizes_override: Option<Vec<u32>> = None;
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut profile = false;
    let mut hotspots = false;
    let mut mem_cap: Option<u64> = None;
    let mut fuel: Option<u64> = None;
    let mut job_timeout_ms: Option<u64> = None;
    let mut async_streams = false;
    let mut faults: Option<String> = None;
    let mut flight_dump: Option<std::path::PathBuf> = None;
    let mut json_path: Option<std::path::PathBuf> = None;
    let mut quick = false;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let arg = arg.as_str();
        let mut value = || rest.next().unwrap_or_else(|| usage(&format!("{arg} needs a value")));
        match arg {
            "--app" => app_filter = Some(value().clone()),
            "--sizes" => {
                let list = value();
                let sizes: Option<Vec<u32>> =
                    list.split(',').map(|s| s.trim().parse().ok()).collect();
                sizes_override = Some(sizes.unwrap_or_else(|| {
                    usage(&format!(
                        "--sizes: expected a comma-separated list of sizes, got `{list}`"
                    ))
                }));
            }
            "--trace" => trace_path = Some(std::path::PathBuf::from(value())),
            "--profile" => profile = true,
            "--hotspots" => hotspots = true,
            "--mem" => {
                mem_cap = Some(
                    vmcommon::fmt::parse_size(value())
                        .unwrap_or_else(|e| usage(&format!("--mem: {e}"))),
                )
            }
            "--fuel" => {
                let v = value();
                fuel = Some(v.parse().unwrap_or_else(|_| {
                    usage(&format!("--fuel: expected an instruction budget, got `{v}`"))
                }));
            }
            "--job-timeout-ms" => {
                let v = value();
                job_timeout_ms = Some(v.parse().unwrap_or_else(|_| {
                    usage(&format!("--job-timeout-ms: expected milliseconds, got `{v}`"))
                }));
            }
            "--async" => async_streams = true,
            "--faults" => {
                let v = value();
                match gpusim::FaultPlan::parse(v) {
                    Err(e) => usage(&format!("--faults: {e}")),
                    Ok(p) if p.rules().is_empty() => usage(&format!(
                        "--faults: `{v}` has no rule for device 0, the one device fig4 runs"
                    )),
                    Ok(_) => faults = Some(v.clone()),
                }
            }
            "--flight-dump" => flight_dump = Some(std::path::PathBuf::from(value())),
            "--json" => json_path = Some(std::path::PathBuf::from(value())),
            "--quick" => quick = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    // What the OMPi variant sets on top of `runner_config`.
    let ompi_knobs = |cfg: &mut RunnerConfig| {
        if let Some(cap) = mem_cap {
            let base = cfg.device_mem.unwrap_or(usize::MAX);
            cfg.device_mem = Some((cap as usize).min(base));
        }
        cfg.async_streams = Some(async_streams);
        cfg.fault_spec = faults.clone();
        cfg.fuel = fuel;
        cfg.job_timeout = job_timeout_ms.map(std::time::Duration::from_millis);
    };
    // Every runner shares this sink, so one trace and one flight dump
    // cover the whole run.
    let obs = obs::Obs::new(trace_path.is_some() || profile, flight_dump);
    // Per process: two runs side by side must not load each other's
    // half-written kernel binaries.
    let work = std::env::temp_dir().join(format!("ompi-fig4-{}", std::process::id()));

    let apps = match &app_filter {
        Some(name) => vec![app_by_name(name).unwrap_or_else(|| {
            eprintln!("unknown app `{name}`; available: 3dconv bicg atax mvt gemm gramschmidt");
            std::process::exit(2);
        })],
        None => all_apps(),
    };

    println!("# Fig. 4 reproduction — simulated Jetson Nano 2GB (sm_53, 128-core Maxwell)");
    let mode = runner_config(0).exec_mode;
    println!("# mode: {mode:?}; times are simulated seconds (kernel + memory operations)\n");
    let mut rows: Vec<JsonRow> = Vec::new();
    for app in apps {
        let sizes: Vec<u32> = sizes_override.clone().unwrap_or_else(|| {
            if quick {
                quick_sizes(&app)
            } else {
                app.paper_sizes.to_vec()
            }
        });
        println!("## {}", app.name);
        println!("{:>8}  {:>14}  {:>14}  {:>8}", "size", "CUDA [s]", "OMPi [s]", "OMPi/CUDA");
        for &n in &sizes {
            let mut row = Vec::new();
            for variant in [Variant::Cuda, Variant::OmpiCudadev] {
                let mut cfg = runner_config((app.footprint)(n));
                cfg.obs = Some(obs.clone());
                if variant == Variant::OmpiCudadev {
                    ompi_knobs(&mut cfg);
                }
                let built = build_variant_cfg(&app, variant, &work, &cfg);
                // Runner::call drains the machine's VM counters into obs
                // metrics at the initial-device pid; the delta is this run's.
                let pid = built.runner.registry().num_devices() as u64;
                let insns0 = obs.metrics.counter(pid, "vm.instructions");
                let t0 = std::time::Instant::now();
                let m = measure(&app, &built, n);
                let wall_s = t0.elapsed().as_secs_f64();
                if json_path.is_some() {
                    rows.push(JsonRow {
                        app: app.name,
                        variant: if variant == Variant::Cuda { "cuda" } else { "ompi" },
                        n,
                        wall_s,
                        sim_s: m.time_s,
                        kernel_s: m.kernel_s,
                        memcpy_s: m.memcpy_s,
                        launches: m.launches,
                        checksum: m.checksum,
                        vm_instructions: obs.metrics.counter(pid, "vm.instructions") - insns0,
                    });
                }
                println!(
                    "# checksum {} n={n} {} {:#018x}",
                    app.name,
                    variant.label().replace(' ', "-"),
                    m.checksum
                );
                if async_streams && variant == Variant::OmpiCudadev {
                    println!(
                        "# overlap {} n={n}: {:.6}s hidden of {:.6}s busy",
                        app.name,
                        m.overlap_s,
                        m.time_s + m.overlap_s
                    );
                }
                if profile {
                    println!("# {} {} n={n}", app.name, variant.label());
                    for line in built.runner.profile_table().lines() {
                        println!("# {line}");
                    }
                }
                // The aggregate is the registry-level sum; show the
                // per-device split whenever more than one device is live.
                if m.per_device.len() > 1 {
                    for (i, d) in m.per_device.iter().enumerate() {
                        println!(
                            "#   {} dev{i}: total {:.6}s (kernel {:.6}s, memcpy {:.6}s), {} launches",
                            variant.label(),
                            d.total_s(),
                            d.kernel_s,
                            d.memcpy_s(),
                            d.launches
                        );
                    }
                }
                row.push(m.time_s);
            }
            println!(
                "{:>8}  {:>14.6}  {:>14.6}  {:>8.3}",
                n,
                row[0],
                row[1],
                row[1] / row[0].max(1e-12)
            );
        }
        if json_path.is_some() {
            // Host-sequential series: the guest program executed directly
            // (no translation, no device) — the engine's raw throughput,
            // which the bench-smoke CI gate watches for regressions.
            let n = app.bench_size;
            let m = host_machine(&app, n).unwrap();
            let t0 = std::time::Instant::now();
            let out = run_host_once(&app, &m, n)
                .unwrap_or_else(|e| panic!("{} host-seq failed at n={n}: {e}", app.name));
            let wall_s = t0.elapsed().as_secs_f64();
            let checksum = output_checksum(&out);
            println!(
                "# checksum {} n={n} host-seq {:#018x}  ({wall_s:.3}s wall)",
                app.name, checksum
            );
            rows.push(JsonRow {
                app: app.name,
                variant: "host-seq",
                n,
                wall_s,
                sim_s: 0.0,
                kernel_s: 0.0,
                memcpy_s: 0.0,
                launches: 0,
                checksum,
                vm_instructions: m.drain_vm_counters().instructions,
            });
        }
        if hotspots {
            print!("{}", hotspot_table(&app));
        }
        println!();
    }
    let _ = std::fs::remove_dir_all(&work);

    if let Some(path) = &json_path {
        match std::fs::write(path, render_json(&format!("{mode:?}"), &rows)) {
            Ok(()) => eprintln!("# perf trajectory written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = trace_path {
        match write_trace(&obs, &path) {
            Ok(()) => eprintln!("# trace written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write trace to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    // End-of-run flight dump (`--flight-dump`, no-op without it). A device
    // latch or watchdog timeout mid-run already dumped and wins over this
    // one.
    obs.flight.post_mortem("fig4 exit");
}

/// Hand-rolled JSON for the `BENCH_fig4.json` perf-trajectory artifact —
/// no serde in the tree, and the shape is flat enough not to want it.
fn render_json(mode: &str, rows: &[JsonRow]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"ompi-nano/fig4/v1\",\n");
    s.push_str("  \"engine\": \"vm\",\n");
    s.push_str(&format!("  \"mode\": \"{}\",\n", mode.replace('"', "")));
    s.push_str("  \"series\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"app\": \"{}\", \"variant\": \"{}\", \"n\": {}, \"wall_s\": {:.6}, \
             \"sim_s\": {:.9}, \"kernel_s\": {:.9}, \"memcpy_s\": {:.9}, \"launches\": {}, \
             \"vm_instructions\": {}, \"checksum\": \"{:#018x}\"}}{}\n",
            r.app,
            r.variant,
            r.n,
            r.wall_s,
            r.sim_s,
            r.kernel_s,
            r.memcpy_s,
            r.launches,
            r.vm_instructions,
            r.checksum,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The guest-source hotspot table for one app: a dedicated attribution
/// pass on the bytecode VM (host-sequential, at the app's test size).
fn hotspot_table(app: &unibench::App) -> String {
    let n = app.test_size;
    let m = host_machine(app, n).unwrap_or_else(|e| panic!("{} hotspots: {e}", app.name));
    m.set_hotspots(true);
    run_host_once(app, &m, n)
        .unwrap_or_else(|e| panic!("{} hotspot pass failed at n={n}: {e}", app.name));
    let rows: Vec<obs::HotLine> = m
        .line_profile()
        .into_iter()
        .map(|h| obs::HotLine {
            func: h.func,
            line: h.line,
            instructions: h.instructions,
            dispatch: h.dispatch,
        })
        .collect();
    obs::render_hotspots(&format!("{} n={n} (vm attribution)", app.name), &rows)
}

/// Export the combined trace of every run. Runners named their own device
/// processes as they initialized (first-wins), so only unnamed processes
/// still need labels — fig4 runners are single-device, making pid 0 the
/// offload device and pid 1 the initial device.
fn write_trace(obs: &Arc<obs::Obs>, path: &std::path::Path) -> std::io::Result<()> {
    obs.tracer.set_process_name(0, "dev0");
    obs.tracer.set_process_name(1, "host (initial device)");
    obs.tracer.write_json(path)
}
