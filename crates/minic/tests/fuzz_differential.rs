//! Differential fuzzing of the two execution engines.
//!
//! For each seed, [`minic::fuzzgen::generate`] produces a deterministic
//! mini-C program, which runs under the bytecode VM and the tree-walking
//! oracle with the same fuel budget. The contract:
//!
//! 1. the lexer→parser→sema→compile→vm pipeline never panics;
//! 2. both engines terminate (the fuel governor bounds hostile loops);
//! 3. unless one engine fuel-trapped, return value, printed output, and
//!    error messages are byte-identical.
//!
//! Fuel is the one limit checked at engine-specific step boundaries, so a
//! program near the budget may trap in one engine and finish in the other;
//! those runs assert termination only. Every other trap (division by zero,
//! stack overflow, …) must match byte for byte.
//!
//! `OMPI_FUZZ_SEEDS` / `OMPI_FUZZ_SEED_BASE` scale the sweep (CI smoke
//! runs 1200 seeds). On failure the seed is printed and the generated
//! program is written to `OMPI_FUZZ_ARTIFACT_DIR` (default: temp dir).

use std::sync::Arc;

use minic::bytecode::Op;
use minic::interp::{Hooks, IResult, Interp, Machine, NoHooks};
use minic::walker::TreeWalker;
use vmcommon::Value;

/// Generous budget: orders of magnitude above what a generated program
/// needs unless it contains a genuinely unbounded loop.
const FUEL: u64 = 500_000;

/// The whole run of one engine, flattened for comparison.
type Outcome = Result<(String, String), String>;

/// A fresh execution context over a machine, as a guest-call closure.
type Ctx = Box<dyn FnMut(&str, &[Value]) -> IResult<Value>>;

/// Builds one engine's [`Ctx`]; the first on a machine runs its global
/// initializers.
type Build = fn(Arc<Machine>, Arc<dyn Hooks>) -> IResult<Ctx>;

fn vm(m: Arc<Machine>, hooks: Arc<dyn Hooks>) -> IResult<Ctx> {
    let mut i = Interp::new(m, hooks)?;
    Ok(Box::new(move |name, args| i.call(name, args)))
}

fn walker(m: Arc<Machine>, hooks: Arc<dyn Hooks>) -> IResult<Ctx> {
    let mut w = TreeWalker::new(m, hooks)?;
    Ok(Box::new(move |name, args| w.call(name, args)))
}

const ENGINES: [(&str, Build); 2] = [("vm", vm), ("walker", walker)];

fn run_engine(src: &str, build: Build) -> Outcome {
    let m = match Machine::from_source(src) {
        Ok(m) => m,
        // A frontend rejection is engine-independent by construction; it
        // still must not panic, which reaching here proves.
        Err(e) => return Err(format!("frontend: {e}")),
    };
    m.limits().set_fuel(Some(FUEL));
    let mut i = match build(m.clone(), Arc::new(NoHooks)) {
        Ok(i) => i,
        Err(e) => return Err(format!("init: {e}")),
    };
    match i("main", &[]) {
        Ok(v) => Ok((format!("{v:?}"), m.take_output())),
        Err(e) => Err(e.to_string()),
    }
}

fn fuel_trapped(o: &Outcome) -> bool {
    matches!(o, Err(e) if e.contains("guest fuel exhausted"))
}

/// Write the offending program next to the failure message so CI can
/// upload it as an artifact.
fn fail(seed: u64, src: &str, why: &str) -> ! {
    let dir = std::env::var("OMPI_FUZZ_ARTIFACT_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("fuzz_seed_{seed}.c"));
    let _ = std::fs::write(&path, src);
    panic!(
        "differential fuzz failure at seed {seed}: {why}\n\
         program written to {}\n\
         reproduce with: OMPI_FUZZ_SEED_BASE={seed} OMPI_FUZZ_SEEDS=1 \
         cargo test --test fuzz_differential",
        path.display()
    );
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

/// Both engines' outcomes, or `None` if the pipeline panicked. The runs
/// happen on a worker thread with a big stack: the walker recurses on the
/// host stack, and generated programs legitimately reach the guest depth
/// limit. A panic surfaces as a join error instead of killing the harness.
fn run_both(seed: u64, src: &str) -> Option<(Outcome, Outcome)> {
    let src = src.to_string();
    std::thread::Builder::new()
        .name(format!("fuzz-{seed}"))
        .stack_size(64 << 20)
        .spawn(move || (run_engine(&src, vm), run_engine(&src, walker)))
        .expect("spawn fuzz worker")
        .join()
        .ok()
}

#[test]
fn engines_agree_over_seed_sweep() {
    let base = env_u64("OMPI_FUZZ_SEED_BASE", 0);
    let seeds = env_u64("OMPI_FUZZ_SEEDS", 300);
    for seed in base..base + seeds {
        let src = minic::fuzzgen::generate(seed);
        let Some((vm, walker)) = run_both(seed, &src) else {
            fail(seed, &src, "pipeline panicked")
        };
        // Fuel granularity differs per engine: if either trapped on fuel,
        // "both terminated" is the whole assertion.
        if fuel_trapped(&vm) || fuel_trapped(&walker) {
            continue;
        }
        if vm != walker {
            fail(seed, &src, &format!("engines diverge:\n  vm:     {vm:?}\n  walker: {walker:?}"));
        }
    }
}

/// The oracle covers the loop pass: in a tenth or more of the default
/// sweep's programs, the pass deleted or moved ops and neither engine ran
/// out of fuel, so the sweep compared the two.
#[test]
fn the_loop_pass_fires_in_compared_programs() {
    let mut fired = 0;
    for seed in 0..300 {
        let src = minic::fuzzgen::generate(seed);
        let Ok(m) = Machine::from_source(&src) else { continue };
        let s = m.image().compiled().loop_stats;
        if s.removed + s.hoisted == 0 {
            continue;
        }
        if let Some((vm, walker)) = run_both(seed, &src) {
            fired += !(fuel_trapped(&vm) || fuel_trapped(&walker)) as u32;
        }
    }
    assert!(fired >= 30, "the loop pass fired in {fired} of 300 compared programs");
}

/// The oracle covers the fusion pass: in the default sweep, each kind of
/// superinstruction is in ten or more compared programs, and in some the
/// guest traps on a fused load out of guest memory.
#[test]
fn every_superinstruction_runs_in_compared_programs() {
    let kind = |op: &Op| match op {
        Op::LoadIdxSum { .. } => Some(0),
        Op::LoadIdxMad { .. } => Some(1),
        Op::FmaIdx { .. } => Some(2),
        Op::IncJcmp { .. } => Some(3),
        _ => None,
    };
    let (mut fired, mut trapped) = ([0u32; 4], 0);
    for seed in 0..300 {
        let src = minic::fuzzgen::generate(seed);
        let Ok(m) = Machine::from_source(&src) else { continue };
        let mut has = [false; 4];
        for op in m.image().compiled().chunks.iter().flat_map(|c| &c.code) {
            kind(op).into_iter().for_each(|k| has[k] = true);
        }
        let Some((vm, walker)) = run_both(seed, &src) else { continue };
        if fuel_trapped(&vm) || fuel_trapped(&walker) {
            continue;
        }
        (0..4).for_each(|k| fired[k] += has[k] as u32);
        trapped += matches!(&vm, Err(e) if e.contains("out of bounds")) as u32;
    }
    assert!(fired.iter().all(|&n| n >= 10), "programs with each superinstruction: {fired:?}");
    assert!(trapped >= 3, "{trapped} programs trapped on a fused load");
}

/// Fuel-limited runs of a guaranteed-hostile program terminate in both
/// engines with the typed fuel error.
#[test]
fn hostile_loop_terminates_under_fuel() {
    let src = "int main() { while (1); return 0; }";
    for (engine, build) in ENGINES {
        let m = Machine::from_source(src).unwrap();
        m.limits().set_fuel(Some(10_000));
        let mut i = build(m, Arc::new(NoHooks)).unwrap();
        let err = i("main", &[]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "guest limit: guest fuel exhausted (budget 10000 instructions)",
            "under {engine}"
        );
    }
}
