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

/// Floats moved per bulk copy by [`alloc_f32`] and [`read_f32`]: they
/// stream through one stack buffer of this many, not a full-size copy.
const CHUNK: usize = 16 << 10;

/// Allocate a guest f32 buffer on a machine's heap and fill it.
pub fn alloc_f32(m: &Machine, data: &[f32]) -> IResult<Value> {
    let len = data.len() as u64 * 4;
    let off = m.heap.lock().alloc(len.max(4))?;
    m.mem.check_range(off, len)?;
    let mut buf = [0u8; CHUNK * 4];
    for (i, floats) in data.chunks(CHUNK).enumerate() {
        let bytes = &mut buf[..floats.len() * 4];
        for (b, v) in bytes.chunks_exact_mut(4).zip(floats) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        m.mem.write_bytes(off + (i * CHUNK * 4) as u64, bytes)?;
    }
    Ok(Value::Ptr(addr::make(addr::Space::Host, off)))
}

/// Read back a guest f32 buffer.
pub fn read_f32(m: &Machine, ptr: Value, len: usize) -> IResult<Vec<f32>> {
    let off = addr::offset(ptr.as_ptr());
    m.mem.check_range(off, len as u64 * 4)?;
    let (mut out, mut buf) = (Vec::with_capacity(len), [0u8; CHUNK * 4]);
    while out.len() < len {
        let bytes = &mut buf[..(len - out.len()).min(CHUNK) * 4];
        m.mem.read_bytes(off + out.len() as u64 * 4, bytes)?;
        out.extend(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())));
    }
    Ok(out)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Buffers on either side of the chunk size round-trip bit for bit,
    /// and a read past the arena fails on its whole range before any copy.
    #[test]
    fn f32_buffers_stream_through_the_chunk_buffer() {
        let m = Machine::from_source_with_mem("int main() { return 0; }", 1 << 20).unwrap();
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5] {
            let data: Vec<f32> = (0..n).map(|i| i as f32 * -0.75 + f32::EPSILON).collect();
            let p = alloc_f32(&m, &data).unwrap();
            let back = read_f32(&m, p, n).unwrap();
            assert!(back.iter().map(|v| v.to_bits()).eq(data.iter().map(|v| v.to_bits())), "{n}");
        }
        let arena = m.mem.size() as u64;
        let err = read_f32(&m, Value::Ptr(addr::make(addr::Space::Host, 8)), arena as usize / 4);
        let want = vmcommon::MemError::OutOfBounds { offset: 8, size: arena };
        assert!(matches!(err, Err(minic::interp::InterpError::Mem(e)) if e == want), "{err:?}");
    }
}
