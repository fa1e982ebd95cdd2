//! `unibench` — the evaluation suite of the paper (§5).
//!
//! Six UniBench/Polybench applications, each in three forms:
//!
//! * an **OpenMP** version using `target`-family constructs (compiled by
//!   the OMPi reproduction, executed through the cudadev module);
//! * a **pure CUDA** version (the baseline the paper compares against,
//!   compiled by the nvcc stand-in);
//! * a **sequential Rust reference** used to validate both.
//!
//! The applications: `3dconv` (stencil), `bicg`, `atax`, `mvt`, `gemm`
//! (kernels) and `gramschmidt` (solver) — "typical GPU workloads" from the
//! linear-algebra and stencil categories.

use std::sync::Arc;

use minic::interp::{IResult, Interp, Machine, NoHooks};
use ompi_core::{CudaCc, Ompicc, Runner, RunnerConfig};
use vmcommon::{addr, Value};

pub mod apps;
pub mod harness;

pub use apps::{all_apps, app_by_name, App};
pub use harness::{
    build_variant_cfg, measure, output_checksum, validate_app, Built, Measurement, Variant,
};

/// Allocate a guest f32 buffer on a machine's heap and fill it.
pub fn alloc_f32(m: &Machine, data: &[f32]) -> IResult<Value> {
    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let off = m.heap.lock().alloc(bytes.len().max(4) as u64)?;
    m.mem.write_bytes(off, &bytes)?;
    Ok(Value::Ptr(addr::make(addr::Space::Host, off)))
}

/// Read back a guest f32 buffer.
pub fn read_f32(m: &Machine, ptr: Value, len: usize) -> IResult<Vec<f32>> {
    let mut bytes = vec![0u8; len * 4];
    m.mem.read_bytes(addr::offset(ptr.as_ptr()), &mut bytes)?;
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
}

/// Relative-error comparison for float outputs produced with different
/// accumulation orders.
pub fn max_rel_err(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let denom = x.abs().max(y.abs()).max(1e-3);
            (x - y).abs() / denom
        })
        .fold(0.0f32, f32::max)
}

/// Default runner configuration for a problem size (arena sizes scale with
/// the footprint). Every block of every launch is simulated.
pub fn runner_config(bytes_needed: u64) -> RunnerConfig {
    let slack = 96u64 << 20;
    RunnerConfig {
        host_mem: (bytes_needed + slack) as usize,
        device_mem: Some((bytes_needed + slack) as usize),
        jit_cache_dir: std::env::temp_dir().join("ompi-jitcache"),
        ..RunnerConfig::default()
    }
}

/// Compile helpers used by tests and the Fig. 4 harness.
pub fn compile_omp(app: &App, work_dir: &std::path::Path) -> ompi_core::CompiledApp {
    Ompicc::new(work_dir.join(format!("{}-omp", app.name)))
        .compile(app.omp_src)
        .unwrap_or_else(|e| panic!("ompicc failed for {}: {e}", app.name))
}

pub fn compile_cuda(app: &App, work_dir: &std::path::Path) -> ompi_core::CompiledApp {
    CudaCc::new(work_dir.join(format!("{}-cuda", app.name)))
        .compile(app.cuda_src, &format!("{}_cuda", app.name))
        .unwrap_or_else(|e| panic!("cudacc failed for {}: {e}", app.name))
}

/// Run an app's guest `run(...)` entry with freshly initialized buffers;
/// returns the outputs. Buffers are freed afterwards so repeated
/// measurements (Criterion iterations) do not exhaust the guest heap.
pub fn run_once(app: &App, runner: &Runner, n: u32) -> IResult<Vec<f32>> {
    run_entry(app, &runner.machine, n, |args| runner.call("run", args))
}

/// Build a machine that executes an app's untranslated OpenMP source
/// directly on the host (directives get 1-thread semantics).
pub fn host_machine(app: &App, n: u32) -> IResult<Arc<Machine>> {
    let slack = 96u64 << 20;
    Machine::from_source_with_mem(app.omp_src, ((app.footprint)(n) + slack) as usize)
}

/// Run an app's guest `run(...)` host-sequentially on the VM (no OMPi
/// translation, no device hooks). Same buffer discipline as [`run_once`].
pub fn run_host_once(app: &App, m: &Arc<Machine>, n: u32) -> IResult<Vec<f32>> {
    let mut i = Interp::new(m.clone(), Arc::new(NoHooks))?;
    run_entry(app, m, n, |args| i.call("run", args))
}

/// Set up an app's buffers in `m`, pass them to `call` (which runs the
/// guest `run(...)` entry on an engine of the caller's choice), read the
/// outputs and free the buffers.
pub fn run_entry(
    app: &App,
    m: &Arc<Machine>,
    n: u32,
    mut call: impl FnMut(&[Value]) -> IResult<Value>,
) -> IResult<Vec<f32>> {
    let args = (app.setup)(m, n)?;
    let ran = call(&args);
    let out = ran.and_then(|_| (app.outputs)(m, &args, n));
    for a in &args[1..] {
        if let Value::Ptr(p) = a {
            let _ = m.heap.lock().free(addr::offset(*p));
        }
    }
    out
}
