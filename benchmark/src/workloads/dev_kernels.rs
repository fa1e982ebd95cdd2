//! `dev_kernels`: five UniBench apps and the master/worker region,
//! offloaded through OMPi onto persistent runners, every block simulated.
//!
//! Why: gpusim's warp stepping does nearly all the work (transfers are a
//! few percent of a pass). `mw_region` reaches the same simulator through
//! the Fig. 3 master/worker scheme — shared-memory stack, named barriers,
//! `cudadev::devlib` — instead of plain grid launches. Outputs are
//! complete, so every op is checked against its sequential reference.

use std::path::Path;
use std::sync::Arc;

use gpusim::ExecMode;
use unibench::{all_apps, app_by_name, build_variant_cfg, measure, App, Variant};

use crate::drives;
use crate::harness::{Counters, DriveCx, OpRun, Workload};
use crate::metrics::Values;
use crate::progs;
use crate::spans::Spans;
use crate::stats::geomean;
use crate::workloads::{cuda_launches, device_counters, program_of, runner_cfg, DevOp};

/// Sizes for a pass of about one second on the 2-vCPU box the benchmark
/// was sized on, so a 20 s run sees each op some twenty times.
const SIZES: [(&str, u32); 6] = [
    ("3dconv", 40),
    ("bicg", 768),
    ("atax", 768),
    ("mvt", 768),
    ("gemm", 112),
    ("mw_region", 131072),
];
/// gramschmidt is `dev_runtime`'s launch-bound op; it enters here only in
/// the paper's OMPi-over-CUDA ratio, at that op's size.
const GRAMSCHMIDT_N: u32 = super::dev_runtime::GRAMSCHMIDT_N;

fn app_of(name: &str) -> App {
    app_by_name(name).unwrap_or_else(progs::mw_region)
}

pub struct DevKernels {
    ops: Vec<DevOp>,
    obs: Arc<obs::Obs>,
    acc: Counters,
}

impl DevKernels {
    pub fn build(dir: &Path, sp: &Spans) -> Result<DevKernels, String> {
        let obs = obs::Obs::disabled();
        let ops = SIZES
            .iter()
            .map(|&(name, n)| {
                let app = app_of(name);
                let cfg = runner_cfg(&app, n, dir, &obs);
                DevOp::build(name, app, n, &cfg, dir, sp)
            })
            .collect();
        Ok(DevKernels { ops, obs, acc: Counters::new() })
    }
}

/// The paper's headline ratio: geometric mean over the six UniBench apps
/// of simulated offload seconds under OMPi over those under CUDA.
fn ompi_over_cuda(dir: &Path, sp: &Spans) -> f64 {
    let ratios: Vec<f64> = all_apps()
        .iter()
        .map(|app| {
            let n = SIZES.iter().find(|(a, _)| *a == app.name).map_or(GRAMSCHMIDT_N, |s| s.1);
            let sim_s = |variant: Variant, sub: &str| {
                let cfg = runner_cfg(app, n, dir, &obs::Obs::disabled());
                let built = build_variant_cfg(app, variant, &dir.join(sub), &cfg);
                sp.time("core", "runner_call", || measure(app, &built, n)).time_s
            };
            sim_s(Variant::OmpiCudadev, "ratio-omp") / sim_s(Variant::Cuda, "ratio-cuda")
        })
        .collect();
    geomean(&ratios)
}

impl Workload for DevKernels {
    fn op_names(&self) -> Vec<String> {
        self.ops.iter().map(|o| o.name.clone()).collect()
    }

    fn run_op(&mut self, i: usize, verify: bool, sp: &Spans) -> Result<OpRun, String> {
        self.ops[i].run(verify, sp, &mut self.acc)
    }

    fn counters(&self) -> Counters {
        let sims: Vec<_> = self.ops.iter().filter_map(DevOp::device).collect();
        device_counters(&self.obs, 1, &sims, &self.acc)
    }

    fn drive_layers(&mut self, cx: &DriveCx, out: &mut Values) -> Result<(), String> {
        let programs: Vec<_> = self.ops.iter().map(|o| program_of(&o.app, o.n)).collect();
        drives::frontend(cx.sp, &programs, out)?;
        let modules = drives::backend(cx.sp, cx.dir, &programs, out)?;
        let apps = all_apps();
        let cuda: Vec<(&str, &str)> = apps.iter().map(|a| (a.name, a.cuda_src)).collect();
        drives::cudacc(cx.sp, cx.dir, &cuda, out)?;
        drives::cudadev_layer(cx.sp, cx.dir, &modules, cx.per_pass, out)?;
        let direct: Vec<_> = SIZES
            .iter()
            .filter(|(name, _)| app_by_name(name).is_some())
            .map(|&(name, n)| cuda_launches(name, n, ExecMode::Functional))
            .collect();
        drives::gpusim_layer(cx.sp, cx.dir, &direct, out)?;
        out.set("sim.ompi_over_cuda", ompi_over_cuda(cx.dir, cx.sp));
        Ok(())
    }
}
