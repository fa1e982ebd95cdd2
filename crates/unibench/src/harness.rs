//! Build/measure/validate machinery shared by tests and the Fig. 4 harness.

use ompi_core::Runner;

use crate::apps::App;
use crate::{compile_cuda, compile_omp, max_rel_err, run_once, runner_config};

/// Which implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// OpenMP version through OMPi + cudadev.
    OmpiCudadev,
    /// Hand-written CUDA through the nvcc stand-in.
    Cuda,
}

impl Variant {
    pub fn label(&self) -> &'static str {
        match self {
            Variant::OmpiCudadev => "OMPi CUDADEV",
            Variant::Cuda => "CUDA",
        }
    }
}

/// A compiled, instantiated application.
pub struct Built {
    pub runner: Runner,
    pub variant: Variant,
}

/// One measured point of a Fig. 4 series.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub n: u32,
    /// The paper's metric: kernel time + required memory operations
    /// (simulated seconds), aggregated over every offload device.
    pub time_s: f64,
    pub kernel_s: f64,
    pub memcpy_s: f64,
    /// Simulated time hidden by async transfer/compute overlap (0 in
    /// synchronous mode).
    pub overlap_s: f64,
    pub launches: u64,
    /// Per-device clock snapshots (registry order, one per offload device).
    pub per_device: Vec<cudadev::DevClock>,
    /// Order- and bit-exact FNV-1a hash of the output vector — async and
    /// sync runs of the same app must agree on it.
    pub checksum: u64,
}

/// FNV-1a over the outputs' IEEE bit patterns: a cheap bit-exact
/// fingerprint for comparing async against sync runs.
pub fn output_checksum(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Compile one variant of an app and instantiate a runner with `cfg`.
/// [`runner_config`] sizes a configuration for a problem size; the
/// memory-pressure paths (fig4's `--mem`, the golden tests) cap
/// `device_mem` below the app footprint to exercise the governor.
pub fn build_variant_cfg(
    app: &App,
    variant: Variant,
    work_dir: &std::path::Path,
    cfg: &ompi_core::RunnerConfig,
) -> Built {
    let compiled = match variant {
        Variant::OmpiCudadev => compile_omp(app, work_dir),
        Variant::Cuda => compile_cuda(app, work_dir),
    };
    Built { runner: Runner::new(&compiled, cfg).expect("runner"), variant }
}

/// Run once at size `n` and report the virtual device time, read through
/// the device registry: the aggregate clock plus one snapshot per device.
pub fn measure(app: &App, built: &Built, n: u32) -> Measurement {
    let registry = built.runner.registry();
    registry.reset_clocks();
    let out = run_once(app, &built.runner, n).unwrap_or_else(|e| {
        panic!("{} ({}) failed at n={n}: {e}", app.name, built.variant.label())
    });
    let clk = registry.aggregate_clock();
    let per_device =
        (0..registry.num_devices()).filter_map(|i| registry.clock_of(i)).collect::<Vec<_>>();
    Measurement {
        n,
        time_s: clk.offload_s(),
        kernel_s: clk.kernel_s,
        memcpy_s: clk.memcpy_s(),
        overlap_s: clk.overlap_s,
        launches: clk.launches,
        per_device,
        checksum: output_checksum(&out),
    }
}

/// Functional validation: both variants at the app's test size must match
/// the sequential Rust reference.
pub fn validate_app(app: &App, work_dir: &std::path::Path) -> Result<(), String> {
    let n = app.test_size;
    let reference = (app.reference)(n);
    for variant in [Variant::OmpiCudadev, Variant::Cuda] {
        let cfg = runner_config((app.footprint)(n));
        let built = build_variant_cfg(app, variant, work_dir, &cfg);
        let got = run_once(app, &built.runner, n)
            .map_err(|e| format!("{} {}: {e}", app.name, variant.label()))?;
        if got.len() != reference.len() {
            return Err(format!(
                "{} {}: output length {} vs reference {}",
                app.name,
                variant.label(),
                got.len(),
                reference.len()
            ));
        }
        let err = max_rel_err(&got, &reference);
        if err > app.tolerance {
            // Locate the worst element for the diagnostic.
            let (idx, _) = got
                .iter()
                .zip(&reference)
                .enumerate()
                .max_by(|(_, (x, y)), (_, (p, q))| {
                    let e1 = (*x - *y).abs() / x.abs().max(y.abs()).max(1e-3);
                    let e2 = (*p - *q).abs() / p.abs().max(q.abs()).max(1e-3);
                    e1.partial_cmp(&e2).unwrap()
                })
                .unwrap();
            return Err(format!(
                "{} {}: max rel err {err:.2e} > {:.1e} at [{idx}]: got {} want {}",
                app.name,
                variant.label(),
                app.tolerance,
                got[idx],
                reference[idx],
            ));
        }
    }
    Ok(())
}
