//! `dev_runtime`: cheap kernels, so the offloading runtime does the work.
//!
//! Why: cudadev's map/unmap/update, the fixed cost of a launch, module
//! load and JIT, the memory governor and the async streams dominate, and
//! gpusim does little. `tiled_sync` and `tiled_async` are two uses of the
//! governor, and the persistent ops a third use of the same map/launch
//! path, so a gain for one that costs another shows.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gpusim::ExecMode;
use nvccsim::BinMode;
use ompi_core::{Ompicc, Runner, RunnerConfig};
use unibench::{all_apps, app_by_name, output_checksum, run_once, App};

use crate::drives;
use crate::harness::{Counters, DriveCx, OpFacts, OpRun, Workload};
use crate::metrics::Values;
use crate::progs;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{
    add_clock, blocks_simulated, check, cuda_launches, device_counters, program_of, runner_cfg,
    DevOp,
};

/// `launch_many`: 3 kernels per column, launched from a host loop.
pub const GRAMSCHMIDT_N: u32 = 32;
/// `xfer_map` moves `8 * n` bytes up and `4 * n` down.
const XFER_MAP_N: u32 = 2 << 20;
/// `xfer_update` moves `4 * n` bytes each way, sixteen times.
const XFER_UPDATE_N: u32 = 512 << 10;
/// `tiled_*`: the matrix is `4 * n * n` bytes = 1 MiB against a device
/// arena of [`TILED_DEVICE_MEM`].
const TILED_N: u32 = 512;
const TILED_DEVICE_MEM: usize = 512 << 10;
/// `stream3d`: the paper's mid size, four blocks of each launch simulated.
const STREAM3D_N: u32 = 128;

/// Compile → instantiate → first run → drop of all six apps, each pass in
/// a fresh directory with an empty JIT cache.
struct ColdStart {
    apps: Vec<App>,
    references: Vec<Vec<f32>>,
    dir: PathBuf,
    starts: u64,
    obs: Arc<obs::Obs>,
}

impl ColdStart {
    fn run(&mut self, verify: bool, sp: &Spans, acc: &mut Counters) -> Result<OpRun, String> {
        let dir = self.dir.join(format!("cold{}", self.starts));
        self.starts += 1;
        let mut facts = OpFacts::default();
        for (app, reference) in self.apps.iter().zip(&self.references) {
            let n = app.test_size;
            let err = |e: String| format!("{}: {e}", app.name);
            let cc = Ompicc::new(dir.join(app.name)).with_mode(BinMode::Ptx);
            let compiled = sp
                .time("core", "ompicc_compile", || cc.compile(app.omp_src))
                .map_err(|e| err(e.to_string()))?;
            let cfg = runner_cfg(app, n, &dir, &self.obs);
            let runner = sp
                .time("core", "runner_new", || Runner::new(&compiled, &cfg))
                .map_err(|e| err(e.to_string()))?;
            let out = sp
                .time("core", "runner_call", || run_once(app, &runner, n))
                .map_err(|e| err(e.to_string()))?;
            if verify {
                check(&out, reference, app.tolerance).map_err(err)?;
            }
            let clk = runner.dev_clock();
            facts.checksum = facts.checksum.rotate_left(7) ^ output_checksum(&out);
            add_clock(acc, &clk);
            facts.sim_s += clk.offload_s();
            facts.launches += clk.launches;
            facts.blocks_simulated += blocks_simulated(&runner);
            sp.time("core", "runner_drop", || drop(runner));
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(OpRun::single(facts))
    }
}

pub struct DevRuntime {
    ops: Vec<DevOp>,
    cold: ColdStart,
    obs: Arc<obs::Obs>,
    acc: Counters,
}

/// A persistent op: an app instantiated once under a changed config.
struct Persistent {
    name: &'static str,
    app: App,
    n: u32,
    change: fn(&mut RunnerConfig),
}

fn persistent() -> Vec<Persistent> {
    let gramschmidt = app_by_name("gramschmidt").expect("a UniBench app");
    let conv3d = app_by_name("3dconv").expect("a UniBench app");
    let op = |name, app, n, change| Persistent { name, app, n, change };
    vec![
        op("xfer_map", progs::xfer_map(), XFER_MAP_N, |_| ()),
        op("xfer_update", progs::xfer_update(), XFER_UPDATE_N, |_| ()),
        op("launch_many", gramschmidt, GRAMSCHMIDT_N, |_| ()),
        op("tiled_sync", progs::row_matvec(), TILED_N, |c| c.device_mem = Some(TILED_DEVICE_MEM)),
        op("tiled_async", progs::row_matvec(), TILED_N, |c| {
            c.device_mem = Some(TILED_DEVICE_MEM);
            c.async_streams = Some(true);
        }),
        op("stream3d", conv3d, STREAM3D_N, |c| c.exec_mode = ExecMode::Sampled { max_blocks: 4 }),
    ]
}

fn build_ops(
    select: impl Fn(&str) -> bool,
    dir: &Path,
    obs: &Arc<obs::Obs>,
    sp: &Spans,
) -> Vec<DevOp> {
    persistent()
        .into_iter()
        .filter(|p| select(p.name))
        .map(|p| {
            let mut cfg = runner_cfg(&p.app, p.n, dir, obs);
            (p.change)(&mut cfg);
            DevOp::build(p.name, p.app, p.n, &cfg, dir, sp)
        })
        .collect()
}

impl DevRuntime {
    pub fn build(dir: &Path, sp: &Spans) -> Result<DevRuntime, String> {
        let obs = obs::Obs::disabled();
        let ops = build_ops(|_| true, dir, &obs, sp);
        let apps = all_apps();
        let references = apps.iter().map(|a| (a.reference)(a.test_size)).collect();
        let cold =
            ColdStart { apps, references, dir: dir.to_path_buf(), starts: 0, obs: obs.clone() };
        Ok(DevRuntime { ops, cold, obs, acc: Counters::new() })
    }
}

/// `obs.enabled_overhead_share`: the transfer- and launch-bound ops on
/// runners that record `obs` trace events against runners that do not.
fn obs_overhead(dir: &Path, sp: &Spans) -> Result<f64, String> {
    let cheap = |name: &str| ["xfer_map", "xfer_update", "launch_many"].contains(&name);
    let sets = [
        build_ops(cheap, &dir.join("obs-off"), &obs::Obs::disabled(), sp),
        build_ops(cheap, &dir.join("obs-on"), &obs::Obs::enabled(), sp),
    ];
    let mut seconds = [Vec::new(), Vec::new()];
    let mut sink = Counters::new();
    for _ in 0..3 {
        for (ops, samples) in sets.iter().zip(&mut seconds) {
            let t = Instant::now();
            for op in ops {
                op.run(false, sp, &mut sink)?;
            }
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    Ok(median(&seconds[1]) / median(&seconds[0]) - 1.0)
}

impl Workload for DevRuntime {
    fn op_names(&self) -> Vec<String> {
        self.ops.iter().map(|o| o.name.clone()).chain(["cold_start".to_string()]).collect()
    }

    fn run_op(&mut self, i: usize, verify: bool, sp: &Spans) -> Result<OpRun, String> {
        match self.ops.get(i) {
            Some(op) => op.run(verify, sp, &mut self.acc),
            None => self.cold.run(verify, sp, &mut self.acc),
        }
    }

    fn counters(&self) -> Counters {
        let sims: Vec<_> = self.ops.iter().filter_map(DevOp::device).collect();
        device_counters(&self.obs, 1, &sims, &self.acc)
    }

    fn drive_layers(&mut self, cx: &DriveCx, out: &mut Values) -> Result<(), String> {
        let mut programs: Vec<_> = self.ops.iter().map(|o| program_of(&o.app, o.n)).collect();
        programs.extend(self.cold.apps.iter().map(|a| program_of(a, a.test_size)));
        drives::frontend(cx.sp, &programs, out)?;
        let modules = drives::backend(cx.sp, cx.dir, &programs, out)?;
        let gs = app_by_name("gramschmidt").expect("a UniBench app");
        drives::cudacc(cx.sp, cx.dir, &[(gs.name, gs.cuda_src)], out)?;
        drives::cudadev_layer(cx.sp, cx.dir, &modules, cx.per_pass, out)?;
        let direct = [cuda_launches(gs.name, GRAMSCHMIDT_N, ExecMode::Functional)];
        drives::gpusim_layer(cx.sp, cx.dir, &direct, out)?;
        out.set("obs.enabled_overhead_share", obs_overhead(cx.dir, cx.sp)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_capped_arena_is_smaller_than_the_tiled_matrix() {
        let app = progs::row_matvec();
        assert!((app.footprint)(TILED_N) > 2 * TILED_DEVICE_MEM as u64);
    }
}
