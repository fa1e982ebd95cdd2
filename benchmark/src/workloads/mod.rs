//! The four workloads and what the device ones share.

use std::path::Path;
use std::sync::Arc;

use gpusim::ExecMode;
use ompi_core::{Runner, RunnerConfig};
use unibench::{build_variant_cfg, max_rel_err, output_checksum, run_once, App, Built, Variant};

use crate::drives::{DirectApp, KernelLaunch, Program};
use crate::harness::{Counters, OpFacts, OpRun, Workload};
use crate::spans::Spans;

mod dev_kernels;
mod dev_runtime;
mod host_vm;
mod serve_closed;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["host_vm", "dev_kernels", "dev_runtime", "serve_closed"];

/// Build workload `name`: compile its programs under `dir`, instantiate
/// its runners or server, compute its references. Everything the first
/// timed pass needs except the warm-up pass, which the caller runs.
pub fn build(name: &str, seed: u64, dir: &Path, sp: &Spans) -> Result<Box<dyn Workload>, String> {
    match name {
        "host_vm" => Ok(Box::new(host_vm::HostVm::build(sp)?)),
        "dev_kernels" => Ok(Box::new(dev_kernels::DevKernels::build(dir, sp)?)),
        "dev_runtime" => Ok(Box::new(dev_runtime::DevRuntime::build(dir, sp)?)),
        "serve_closed" => Ok(Box::new(serve_closed::ServeClosed::build(seed, dir, sp)?)),
        other => Err(format!("unknown workload `{other}` (one of {})", NAMES.join(", "))),
    }
}

/// Guest arena beyond the app's own footprint: interpreter stack plus
/// allocator slack. (`unibench::runner_config` reserves 96 MiB; a third of
/// that keeps peak RSS about the arrays rather than about slack.)
const ARENA_SLACK: u64 = 32 << 20;

pub fn app_mem(app: &App, n: u32) -> usize {
    ((app.footprint)(n) + ARENA_SLACK) as usize
}

/// Runner configuration of a persistent device op. `launch_sampling` stays
/// off: with it on, cudadev *estimates* a kernel from its ninth launch on
/// instead of simulating it — passes get fast and outputs stop being
/// computed.
pub fn runner_cfg(app: &App, n: u32, dir: &Path, obs: &Arc<obs::Obs>) -> RunnerConfig {
    RunnerConfig {
        host_mem: app_mem(app, n),
        device_mem: Some(app_mem(app, n)),
        exec_mode: ExecMode::Functional,
        jit_cache_dir: dir.join("jit"),
        launch_sampling: false,
        obs: Some(obs.clone()),
        ..RunnerConfig::default()
    }
}

/// Complete outputs against the sequential reference.
pub fn check(out: &[f32], reference: &[f32], tolerance: f32) -> Result<(), String> {
    if out.len() != reference.len() {
        return Err(format!("{} outputs, reference {}", out.len(), reference.len()));
    }
    let err = max_rel_err(out, reference);
    if err.is_nan() || err > tolerance {
        return Err(format!("max rel err {err:e} > {tolerance:e}"));
    }
    Ok(())
}

pub fn program_of(app: &App, n: u32) -> Program {
    Program { name: app.name.to_string(), src: app.omp_src.to_string(), host_mem: app_mem(app, n) }
}

/// An app compiled by OMPi and instantiated once; every pass calls its
/// `run` entry again on the same runner.
pub struct DevOp {
    pub name: String,
    pub app: App,
    pub n: u32,
    pub built: Built,
    /// `None` for sampled execution, whose outputs are partial: only the
    /// checksum's stability and the simulated clock are checked.
    pub reference: Option<Vec<f32>>,
}

impl DevOp {
    pub fn build(
        name: &str,
        app: App,
        n: u32,
        cfg: &RunnerConfig,
        dir: &Path,
        sp: &Spans,
    ) -> DevOp {
        let complete = cfg.exec_mode == ExecMode::Functional;
        let reference = complete.then(|| sp.time("bench", "reference", || (app.reference)(n)));
        let built = sp.time("core", "ompicc_compile+runner_new", || {
            build_variant_cfg(&app, Variant::OmpiCudadev, &dir.join(name), cfg)
        });
        DevOp { name: name.to_string(), app, n, built, reference }
    }

    /// One call of the app's `run` entry on freshly filled buffers (what
    /// `unibench::measure` does, keeping the outputs for the check).
    pub fn run(&self, verify: bool, sp: &Spans, acc: &mut Counters) -> Result<OpRun, String> {
        let runner = &self.built.runner;
        let blocks_before = blocks_simulated(runner);
        runner.reset_dev_clock();
        let out = sp
            .time("core", "runner_call", || run_once(&self.app, runner, self.n))
            .map_err(|e| e.to_string())?;
        if let (true, Some(reference)) = (verify, &self.reference) {
            check(&out, reference, self.app.tolerance)?;
        }
        let clk = runner.dev_clock();
        add_clock(acc, &clk);
        Ok(OpRun::single(OpFacts {
            checksum: output_checksum(&out),
            sim_s: clk.offload_s(),
            launches: clk.launches,
            blocks_simulated: blocks_simulated(runner) - blocks_before,
        }))
    }

    pub fn device(&self) -> Option<Arc<gpusim::Device>> {
        sim_device(&self.built.runner)
    }
}

/// The simulator device behind a single-device runner, once initialised.
pub fn sim_device(runner: &Runner) -> Option<Arc<gpusim::Device>> {
    runner.registry().device(0).and_then(|d| d.raw_device())
}

/// Blocks the runner's device has simulated so far.
pub fn blocks_simulated(runner: &Runner) -> u64 {
    sim_device(runner).map_or(0, |d| d.stats.lock().blocks_simulated)
}

/// What the workloads keep of a device clock that covers one op: the
/// simulated offload seconds (the paper's metric), the share of them async
/// overlap hid, and the JIT outcomes (which only the clock counts).
///
/// A counter named like a per-layer metric *is* that metric, per pass; the
/// other slots feed ratios.
pub fn add_clock(acc: &mut Counters, clk: &cudadev::DevClock) {
    for (slot, v) in [
        ("sim.offload_s", clk.offload_s()),
        ("cudadev.overlap_s", clk.overlap_s),
        ("jit_hits", clk.jit_cache_hits as f64),
        ("jit_compiles", clk.jit_compiles as f64),
    ] {
        *acc.entry(slot).or_insert(0.0) += v;
    }
}

/// Counters every device workload reads from the `obs` sink its runners
/// share (device pids `0..devices`, the host shim at `devices`) and from
/// the simulator devices' own statistics.
pub fn device_counters(
    obs: &obs::Obs,
    devices: u64,
    sims: &[Arc<gpusim::Device>],
    acc: &Counters,
) -> Counters {
    let mut c = acc.clone();
    let m = &obs.metrics;
    c.insert("minic.vm_instr", m.counter(devices, "vm.instructions") as f64);
    for (slot, cat) in VM_DISPATCH.iter().zip(minic::bytecode::OP_CATS) {
        c.insert(slot, m.counter(devices, &format!("vm.dispatch.{cat}")) as f64);
    }
    for pid in 0..devices {
        for (key, value) in m.counters_for(pid) {
            let slot = match key.as_str() {
                "h2d_bytes" => "cudadev.h2d_bytes",
                "d2h_bytes" => "cudadev.d2h_bytes",
                "launches" => "cudadev.launches",
                "pressure.evict" => "cudadev.pressure_evict",
                "pressure.stage" => "cudadev.pressure_stage",
                "pressure.tile" => "cudadev.pressure_tile",
                k if k.starts_with("retries.") => "cudadev.retries",
                _ => continue,
            };
            *c.entry(slot).or_insert(0.0) += value as f64;
        }
    }
    for d in sims {
        let st = d.stats.lock();
        *c.entry("gpusim.lane_insts").or_insert(0.0) += st.lane_insts as f64;
        *c.entry("gpusim.blocks_simulated").or_insert(0.0) += st.blocks_simulated as f64;
        *c.entry("gpusim.mem_transactions").or_insert(0.0) += st.mem_transactions as f64;
    }
    c
}

/// Counter slots of the six VM dispatch categories, in
/// `minic::bytecode::OP_CATS` order.
pub const VM_DISPATCH: [&str; 6] = [
    "minic.vm_dispatch_mem",
    "minic.vm_dispatch_idx",
    "minic.vm_dispatch_alu",
    "minic.vm_dispatch_ctrl",
    "minic.vm_dispatch_call",
    "minic.vm_dispatch_misc",
];

/// The launches an app's CUDA variant makes at size `n`, as its host code
/// in `crates/unibench/src/apps/*_cuda.c` computes them.
pub fn cuda_launches(app: &str, n: u32, mode: ExecMode) -> DirectApp {
    let rows = [n.div_ceil(256), 1, 1];
    let b256 = [256, 1, 1];
    let two = |k1, k2| {
        vec![
            KernelLaunch { kernel: k1, grid: rows, block: b256, ints: vec![n as i32], ptrs: 3 },
            KernelLaunch { kernel: k2, grid: rows, block: b256, ints: vec![n as i32], ptrs: 3 },
        ]
    };
    let (name, elems, launches) = match app {
        "3dconv" => (
            "3dconv",
            (n as usize).pow(3),
            vec![KernelLaunch {
                kernel: "conv3d_kernel",
                grid: [(n - 2).div_ceil(32), (n - 2).div_ceil(4), (n - 2).div_ceil(2)],
                block: [32, 4, 2],
                ints: vec![n as i32],
                ptrs: 2,
            }],
        ),
        "bicg" => ("bicg", (n * n) as usize, two("bicg_kernel1", "bicg_kernel2")),
        "atax" => ("atax", (n * n) as usize, two("atax_kernel1", "atax_kernel2")),
        "mvt" => ("mvt", (n * n) as usize, two("mvt_kernel1", "mvt_kernel2")),
        "gemm" => (
            "gemm",
            (n * n) as usize,
            vec![KernelLaunch {
                kernel: "gemm_kernel",
                grid: [n.div_ceil(32), n.div_ceil(8), 1],
                block: [32, 8, 1],
                ints: vec![n as i32],
                ptrs: 3,
            }],
        ),
        "gramschmidt" => (
            "gramschmidt",
            (n * n) as usize,
            (0..n as i32)
                .flat_map(|k| {
                    let ints = vec![n as i32, k];
                    [
                        KernelLaunch {
                            kernel: "gs_kernel1",
                            grid: [1, 1, 1],
                            block: b256,
                            ints: ints.clone(),
                            ptrs: 2,
                        },
                        KernelLaunch {
                            kernel: "gs_kernel2",
                            grid: rows,
                            block: b256,
                            ints: ints.clone(),
                            ptrs: 3,
                        },
                        KernelLaunch {
                            kernel: "gs_kernel3",
                            grid: rows,
                            block: b256,
                            ints,
                            ptrs: 3,
                        },
                    ]
                })
                .collect(),
        ),
        other => panic!("no CUDA launch table for `{other}`"),
    };
    DirectApp { name, elems, mode, launches }
}
