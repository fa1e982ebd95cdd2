//! The repo benchmark: one workload per invocation.
//!
//! ```text
//! ompi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the span recorder off.
//! `--trace 1` is the separate traced run: it records a span around every
//! call into a layer, drives the nested layers directly, prints the
//! per-layer metrics and writes `benchmark/out/trace-<workload>.json`.
//! Lines starting with `#` are for people; the last line of standard
//! output is the result object. Any verification failure makes the exit
//! code non-zero.

mod drives;
mod harness;
mod metrics;
mod progs;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use harness::{timed_passes, warm_up, DriveCx, OpFacts, Tally, Workload};
use metrics::{Values, END_TO_END, PER_LAYER};
use spans::Spans;
use stats::median;
use sys::ProcTimes;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` the traced run spends in timed passes; the layer
/// drives take about the rest.
const TRACED_PASS_SHARE: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 20.0, trace: false };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?.clone(),
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("--seed: `{v}` is not a number"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 600.0 => s,
                    _ => return Err(format!("--seconds: `{v}` is not in (0, 600]")),
                };
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes `--trace 0|1`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            workloads::NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// A workload ready for its first timed pass.
struct SetUp {
    workload: Box<dyn Workload>,
    /// The facts every timed run of an op must reproduce.
    pinned: Vec<OpFacts>,
    /// Reference CPU seconds the set-up took.
    seconds: f64,
}

/// Build the workload under `dir` and run its two warm-up passes: all that
/// happens before the first timed pass.
fn set_up(args: &Args, dir: &Path, sp: &Spans, tally: &mut Tally) -> Result<SetUp, String> {
    let (built, timing) = sys::timed(|| {
        let mut workload = {
            let _g = sp.enter("bench", "build");
            workloads::build(&args.workload, args.seed, dir, sp)?
        };
        let pinned = warm_up(workload.as_mut(), sp, tally);
        Ok::<_, String>((workload, pinned))
    });
    let (workload, pinned) = built?;
    Ok(SetUp { workload, pinned, seconds: timing.cpu_s })
}

struct Report {
    tally: Tally,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn untraced(args: &Args, work: &sys::WorkDir) -> Result<Report, String> {
    let sp = Spans::new(false);
    let mut tally = Tally::default();
    // The timed passes run on the first instance, the way a user's process
    // sets up once; the other set-ups follow. Instances after the first
    // inherit the allocator's state: now and then a second server's workers
    // got fresh malloc arenas while the first one's freed 6 MiB job arenas
    // stayed resident, and `peak_rss_mib` read 42 MiB instead of 30 (2 runs
    // in 21, always from the second or third set-up on).
    let first = set_up(args, &work.path().join("setup0"), &sp, &mut tally)?;
    let mut setups = vec![first.seconds];
    let SetUp { workload: mut w, pinned, .. } = first;
    let timed =
        timed_passes(w.as_mut(), &pinned, args.seed, args.seconds, &sp, |_| false, &mut tally);
    // One instance alive at a time.
    drop(w);
    for rep in 1..SETUP_REPS {
        let again = set_up(args, &work.path().join(format!("setup{rep}")), &sp, &mut tally)?;
        setups.push(again.seconds);
    }
    for (rep, s) in setups.iter().enumerate() {
        println!("# set-up {rep}: {s:.4} s");
    }
    timed.print_ops(&pinned);
    println!("# {} passes in {:.3} s", timed.passes(), timed.elapsed_s);
    let (op_p50_ms, op_p99_ms) = timed.op_latency_ms();
    let mut v = Values::default();
    v.set("setup_s", median(&setups));
    v.set("cpu_s", timed.cpu_s(|_| true));
    v.set("op_p50_ms", op_p50_ms);
    v.set("op_p99_ms", op_p99_ms);
    if timed.peak_rss_mib.is_empty() {
        return Err("no VmHWM in /proc/self/status".to_string());
    }
    v.set("peak_rss_mib", median(&timed.peak_rss_mib));
    println!(
        "# peak RSS per pass: median {:.1} MiB, max {:.1} MiB",
        median(&timed.peak_rss_mib),
        timed.peak_rss_mib.iter().copied().fold(0.0, f64::max)
    );
    Ok(Report { tally, metrics: v.in_catalogue(END_TO_END)? })
}

fn traced(args: &Args, work: &sys::WorkDir) -> Result<Report, String> {
    let sp = Spans::new(true);
    let mut tally = Tally::default();
    let mut v = Values::default();
    v.set("bench.calib_ms", sys::calib_ms());

    let SetUp { workload: mut w, pinned, .. } =
        set_up(args, &work.path().join("setup"), &sp, &mut tally)?;
    let before = (w.counters(), ProcTimes::now()?);
    let timed = timed_passes(
        w.as_mut(),
        &pinned,
        args.seed,
        args.seconds * TRACED_PASS_SHARE,
        &sp,
        |pass| pass % 2 == 1,
        &mut tally,
    );
    let after = (w.counters(), ProcTimes::now()?);
    let passes = timed.passes();
    let per_pass = harness::per_pass(&after.0, &before.0, passes);
    let proc = after.1.since(&before.1);
    v.set("proc.user_s", proc.user_s / passes as f64);
    v.set("proc.sys_s", proc.sys_s / passes as f64);
    v.set("proc.minor_faults", proc.minor_faults / passes as f64);

    // Traced against untraced passes of the same run, same estimator.
    let cpu_traced = timed.cpu_s(|p| timed.traced_pass[p]);
    let cpu_plain = timed.cpu_s(|p| !timed.traced_pass[p]);
    v.set("bench.trace_overhead_share", cpu_traced / cpu_plain - 1.0);
    v.set("bench.off_cpu_share", timed.off_cpu_share());

    // Self seconds per span name over the traced passes, per pass.
    let all = sp.snapshot();
    let traced_passes = timed.traced_pass.iter().filter(|t| **t).count().max(1) as f64;
    let in_pass = spans::self_seconds_by_name(&all, |s| s.pass != u32::MAX);
    let self_s = |layer: &'static str, name: &str| {
        in_pass.get(&(layer, name.to_string())).copied().unwrap_or(0.0) / traced_passes
    };
    let vm_s = self_s("minic", "vm_run");
    let call_s = self_s("core", "runner_call");
    v.set("minic.vm_s", vm_s);
    v.set("core.runner_call_s", call_s);

    // A counter named like a per-layer metric is that metric, per pass.
    for (slot, value) in &per_pass {
        if PER_LAYER.iter().any(|(name, _)| name == slot) {
            v.set(slot, *value);
        }
    }
    let vm_instr = v.get("minic.vm_instr");
    if vm_s > 0.0 && vm_instr > 0.0 {
        v.set("minic.vm_ns_per_instr", vm_s * 1e9 / vm_instr);
    }
    // JIT outcomes are rare events of set-up and cold starts: a share over
    // the whole run, not per pass.
    let jit = |k: &str| after.0.get(k).copied().unwrap_or(0.0);
    if jit("jit_hits") + jit("jit_compiles") > 0.0 {
        let share = jit("jit_hits") / (jit("jit_hits") + jit("jit_compiles"));
        v.set("cudadev.jit_cache_hit_share", share);
    }

    sp.set_enabled(true);
    sp.set_ctx(u32::MAX, u32::MAX);
    let cx = DriveCx {
        sp: &sp,
        dir: &work.path().join("drives"),
        per_pass: &per_pass,
        op_p50_ms: timed.op_latency_ms().0,
    };
    {
        let _g = sp.enter("bench", "layer_drives");
        w.drive_layers(&cx, &mut v)?;
    }
    // What `Runner::call` spends outside the transfers and kernels the
    // drives reproduce: guest host code, hooks, launch set-up.
    let driven = ["cudadev.map_s", "cudadev.unmap_s", "cudadev.update_s", "gpusim.launch_s"];
    if call_s > 0.0 {
        v.set("core.runner_residual_s", call_s - driven.iter().map(|n| v.get(n)).sum::<f64>());
    }
    drop(w);

    timed.print_ops(&pinned);
    // The traced passes accounted for: every span's self time, by layer.
    let pass_s: f64 = all
        .iter()
        .filter(|s| (s.layer, s.name.as_str()) == ("bench", "pass"))
        .map(|s| s.dur_us() / 1e6)
        .sum::<f64>()
        / traced_passes;
    let mut by_layer = std::collections::BTreeMap::new();
    for ((layer, _), s) in &in_pass {
        *by_layer.entry(*layer).or_insert(0.0) += s / traced_passes;
    }
    let parts: Vec<String> = by_layer.iter().map(|(l, s)| format!("{l} {s:.4}")).collect();
    println!("# traced pass {pass_s:.4} s = self seconds of {}", parts.join(" + "));

    let path = work.out_dir().join(format!("trace-{}.json", args.workload));
    let all = sp.snapshot();
    std::fs::write(&path, spans::chrome_json(&all))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# {} spans written to {}", all.len(), path.display());
    Ok(Report { tally, metrics: v.in_catalogue(PER_LAYER)? })
}

fn run(args: &Args) -> Result<Report, String> {
    let stray = sys::scrub_env();
    if !stray.is_empty() {
        println!("# removed from the environment: {}", stray.join(" "));
    }
    // A sandbox that forbids the affinity call still gets a run, on all
    // its CPUs: numbers of one machine stay comparable with each other.
    let cpu = match sys::pin_to_one_cpu() {
        Ok(cpu) => format!("cpu {cpu}"),
        Err(e) => format!("ALL cpus ({e}: times are not those of a pinned run)"),
    };
    let work = sys::WorkDir::create()?;
    println!(
        "# workload {} seed {} seconds {} trace {} on {} work dir {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        cpu,
        work.path().display()
    );
    if args.trace {
        traced(args, &work)
    } else {
        untraced(args, &work)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let report = match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ompi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    for (name, unit, value) in &report.metrics {
        println!("# {name:<32} {value:>18.6} {unit}");
    }
    let Tally { attempted, failed, errors } = &report.tally;
    println!(
        "# failed_share {} ({failed} of {attempted})",
        *failed as f64 / (*attempted).max(1) as f64
    );
    for e in errors {
        eprintln!("ompi-benchmark: failed: {e}");
    }
    println!("{}", metrics::render(*failed == 0, *attempted, *failed, &report.metrics));
    if *failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
