//! Kernel launches: grid iteration, block execution, sampled simulation
//! and the kernel time model.
//!
//! A launch runs a [`Program`]: the module lowered once (cudadev keeps one
//! per loaded module). [`launch`] is the one-off form for a bare
//! `sptx::Module`, which lowers it first.
//!
//! **Who runs a block's warps.** Blocks are independent and are handed to
//! `Device::block_workers` worker threads, lowest block first. All warps of
//! a block run on its worker's thread under one deterministic scheduler:
//! warp 0 runs until it yields ([`Yield`]), then the next unfinished,
//! unparked warp in warp-id order after it, round and round.
//!
//! * A warp that arrives at a named barrier it does not complete is parked
//!   there; the arrival that completes it releases every warp that arrived,
//!   at the latest arrival's clock plus the barrier latency
//!   ([`Barriers`]), and goes on running.
//! * A warp whose loop spins on an atomic that made no progress yields to
//!   the next warp and stays runnable.
//! * The first warp that fails ends the block, and its error is the
//!   block's.
//! * When no warp can run but one is parked, the block is deadlocked: the
//!   launch fails at once with [`ExecError::BarrierDeadlock`].
//!
//! A kernel that never yields — every combined `target teams distribute
//! parallel for` with a static schedule is of this kind — thus runs warp 0,
//! 1, 2, … to completion, and in every kernel the order in which a block's
//! warps touch memory, float atomics included, is the same on every run.
//!
//! Issue cycles, the latency clock, `lane_insts` and transactions are kept
//! per warp and meet only at barriers. When blocks fail, the launch reports
//! the lowest failing block's error, whichever worker saw its failure
//! first.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vmcommon::sync::Mutex;

use crate::barrier::Barriers;
use crate::device::{Device, ExecError};
use crate::program::Program;
use crate::timing;
use crate::warp::{iter_lanes, BlockCtx, BlockEnv, DeviceLib, Warp, Yield};

/// Launch configuration (grid/block shapes + kernel parameters as raw bit
/// patterns, exactly like `cuLaunchKernel`'s param buffer).
#[derive(Clone, Debug)]
pub struct LaunchConfig {
    pub grid: [u32; 3],
    pub block: [u32; 3],
    pub params: Vec<u64>,
}

/// A tiled launch window: run `cfg.grid` physical blocks as the slice of a
/// larger *logical* grid starting at (linear) team `team_base`. Each block
/// observes the logical grid as `%nctaid` and its absolute logical position
/// as `%ctaid`, so `cudadev_get_distribute_chunk` computes exactly the
/// chunk bounds the monolithic launch would — the memory governor relies
/// on this to keep tiled offloads bit-identical to untiled ones.
#[derive(Clone, Copy, Debug)]
pub struct TileView {
    /// Linear index (in the logical grid) of this tile's first block.
    pub team_base: u64,
    /// The full grid the kernel believes it was launched with.
    pub logical_grid: [u32; 3],
}

/// How much of the grid to actually simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Execute every block — full output correctness.
    Functional,
    /// Execute at most `max_blocks` evenly-spaced blocks and extrapolate
    /// the timing; output is only partially computed. No Fig. 4 number,
    /// test or example uses it: only the repo benchmark's `stream3d` op.
    Sampled { max_blocks: u32 },
}

/// Per-launch results.
#[derive(Clone, Debug, Default)]
pub struct LaunchStats {
    pub blocks_total: u64,
    pub blocks_executed: u64,
    /// Extrapolated totals.
    pub issue_cycles: u64,
    pub mem_transactions: u64,
    pub lane_insts: u64,
    /// Slowest simulated block (latency cycles).
    pub max_block_cycles: u64,
    /// Modeled kernel duration in core cycles.
    pub kernel_cycles: u64,
    /// Modeled kernel duration in seconds (incl. launch overhead).
    pub time_s: f64,
    pub divergent_branches: u64,
    /// Blocks resident simultaneously on the SMM (occupancy).
    pub resident_blocks: u64,
    /// Waves the grid needs at that residency: `ceil(total / resident)`.
    pub waves: u64,
}

#[derive(Default)]
struct BlockAccum {
    issue: u64,
    transactions: u64,
    lane_insts: u64,
    divergent: u64,
    max_block_cycles: u64,
    executed: u64,
}

/// Launch a kernel of a module that has not been lowered: lower a copy of
/// it, then [`Program::launch`]. A caller that launches one module more
/// than once keeps a [`Program`] instead.
pub fn launch(
    device: &Device,
    module: &sptx::Module,
    kernel: &str,
    cfg: &LaunchConfig,
    lib: &dyn DeviceLib,
    mode: ExecMode,
) -> Result<LaunchStats, ExecError> {
    Program::new(Arc::new(module.clone())).launch(device, kernel, cfg, lib, mode, None)
}

impl Program {
    /// Launch `kernel`, over all of `cfg.grid` or, with a [`TileView`], as
    /// a window of a larger logical grid.
    pub fn launch(
        &self,
        device: &Device,
        kernel: &str,
        cfg: &LaunchConfig,
        lib: &dyn DeviceLib,
        mode: ExecMode,
        tile: Option<TileView>,
    ) -> Result<LaunchStats, ExecError> {
        device.fault_check(crate::fault::FaultSite::Launch)?;
        let (kidx, kfun) =
            self.function(kernel).ok_or_else(|| ExecError::UnknownKernel(kernel.to_string()))?;
        if !kfun.is_kernel {
            return Err(ExecError::BadLaunch(format!("`{kernel}` is not a kernel entry point")));
        }
        let module = self.module();
        if !module.device_lib_linked {
            return Err(ExecError::BadLaunch(format!(
                "module `{}` was not linked against the device library",
                module.name
            )));
        }
        if cfg.params.len() != kfun.params {
            return Err(ExecError::BadLaunch(format!(
                "kernel `{kernel}` takes {} parameters, launch provided {}",
                kfun.params,
                cfg.params.len()
            )));
        }
        let threads_per_block = cfg.block[0] as u64 * cfg.block[1] as u64 * cfg.block[2] as u64;
        if threads_per_block == 0 || threads_per_block > device.props.max_threads_per_block as u64 {
            return Err(ExecError::BadLaunch(format!(
                "block of {threads_per_block} threads (max {})",
                device.props.max_threads_per_block
            )));
        }
        if kfun.shared_size > device.props.shared_mem_per_block {
            return Err(ExecError::BadLaunch(format!(
                "kernel needs {} bytes of shared memory (max {})",
                kfun.shared_size, device.props.shared_mem_per_block
            )));
        }
        let blocks_total = cfg.grid[0] as u64 * cfg.grid[1] as u64 * cfg.grid[2] as u64;
        if blocks_total == 0 {
            return Err(ExecError::BadLaunch("empty grid".into()));
        }

        // Choose the blocks to simulate.
        let chosen: Vec<u64> = match mode {
            ExecMode::Functional => (0..blocks_total).collect(),
            ExecMode::Sampled { max_blocks } => {
                let max = max_blocks.max(1) as u64;
                if blocks_total <= max {
                    (0..blocks_total).collect()
                } else {
                    // Evenly spaced sample, always including the first and last
                    // blocks (edge blocks often do boundary work).
                    let mut v: Vec<u64> = (0..max).map(|i| i * blocks_total / max).collect();
                    v.push(blocks_total - 1);
                    v.dedup();
                    v
                }
            }
        };

        let accum = Mutex::new(BlockAccum::default());
        // The failing block with the lowest index, and its error. Blocks are
        // handed out in increasing order and every block taken runs to the
        // end, so every block below the one recorded has finished by the time
        // the workers stop.
        let error: Mutex<Option<(u64, ExecError)>> = Mutex::new(None);
        let next = AtomicUsize::new(0);
        let workers = device.block_workers.min(chosen.len());

        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= chosen.len() || error.lock().is_some() {
                return;
            }
            let lin = chosen[i];
            match run_block(device, self, kidx, cfg, lib, lin, threads_per_block as u32, tile) {
                Ok(b) => {
                    if let Some(t) = device.trace() {
                        // One complete event per simulated block. All
                        // start at the launch base — wave pipelining is
                        // summarized by the launch span, not re-modeled
                        // per block.
                        t.obs.tracer.complete(
                            t.pid,
                            BLOCK_TRACK_BASE + lin % BLOCK_TRACKS,
                            &format!("block {lin}"),
                            "block",
                            t.base_s,
                            b.max_block_cycles as f64 / device.props.clock_hz,
                            vec![
                                ("cycles", b.max_block_cycles.into()),
                                ("lane_insts", b.lane_insts.into()),
                            ],
                        );
                    }
                    let mut a = accum.lock();
                    a.issue += b.issue;
                    a.transactions += b.transactions;
                    a.lane_insts += b.lane_insts;
                    a.divergent += b.divergent;
                    a.max_block_cycles = a.max_block_cycles.max(b.max_block_cycles);
                    a.executed += 1;
                }
                Err(e) => {
                    let mut slot = error.lock();
                    if slot.as_ref().is_none_or(|(first, _)| lin < *first) {
                        *slot = Some((lin, e));
                    }
                }
            }
        };
        // A set of one runs on the calling thread.
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        if let Some((_, e)) = error.into_inner() {
            return Err(e);
        }
        let a = accum.into_inner();
        let executed = a.executed.max(1);
        let scale = blocks_total as f64 / executed as f64;

        let issue_total = (a.issue as f64 * scale) as u64;
        let transactions_total = (a.transactions as f64 * scale) as u64;
        let lane_insts_total = (a.lane_insts as f64 * scale) as u64;

        // Kernel time model (see `timing` module docs): the max of the issue
        // throughput bound, the DRAM bandwidth bound, and the wave-pipelined
        // critical path.
        let resident = timing::resident_blocks(threads_per_block as u32, kfun.shared_size) as u64;
        let waves = blocks_total.div_ceil(resident);
        let issue_bound = issue_total / timing::WARP_SCHEDULERS;
        let mem_bound = (transactions_total as f64 * timing::CYCLES_PER_TRANSACTION) as u64;
        let path_bound = a.max_block_cycles * waves;
        let kernel_cycles = issue_bound.max(mem_bound).max(path_bound).max(1);
        let time_s = timing::LAUNCH_OVERHEAD_S + kernel_cycles as f64 / device.props.clock_hz;

        {
            let mut st = device.stats.lock();
            st.kernels_launched += 1;
            st.blocks_total += blocks_total;
            st.blocks_simulated += a.executed;
            st.lane_insts += a.lane_insts;
            st.mem_transactions += a.transactions;
            st.divergent_branches += a.divergent;
            st.busy_time_s += time_s;
        }

        Ok(LaunchStats {
            blocks_total,
            blocks_executed: a.executed,
            issue_cycles: issue_total,
            mem_transactions: transactions_total,
            lane_insts: lane_insts_total,
            max_block_cycles: a.max_block_cycles,
            kernel_cycles,
            time_s,
            divergent_branches: a.divergent,
            resident_blocks: resident,
            waves,
        })
    }
}

/// Trace track (`tid`) layout within a device process: per-block events
/// round-robin over a bounded set of tracks above the per-warp tracks the
/// device library uses.
const BLOCK_TRACK_BASE: u64 = 64;
const BLOCK_TRACKS: u64 = 32;

#[derive(Default)]
struct BlockResult {
    issue: u64,
    transactions: u64,
    lane_insts: u64,
    divergent: u64,
    max_block_cycles: u64,
}

impl BlockResult {
    fn add_warp(&mut self, w: &Warp<'_>) {
        self.issue += w.issue;
        self.transactions += w.stats.mem_transactions;
        self.lane_insts += w.stats.lane_insts;
        self.divergent += w.stats.divergent_branches;
        self.max_block_cycles = self.max_block_cycles.max(w.clock);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_block(
    device: &Device,
    program: &Program,
    kidx: u32,
    cfg: &LaunchConfig,
    lib: &dyn DeviceLib,
    lin_block: u64,
    nthreads: u32,
    tile: Option<TileView>,
) -> Result<BlockResult, ExecError> {
    let shared_static = program.funcs[kidx as usize].shared_size;
    // Under a tiled launch the block takes its identity (and the grid
    // shape it reports) from the logical grid, not the physical window.
    let logical_grid = tile.map_or(cfg.grid, |t| t.logical_grid);
    let lin_logical = tile.map_or(lin_block, |t| t.team_base + lin_block);
    let gx = logical_grid[0] as u64;
    let gy = logical_grid[1] as u64;
    let ctaid = [
        (lin_logical % gx) as u32,
        ((lin_logical / gx) % gy) as u32,
        (lin_logical / (gx * gy)) as u32,
    ];
    let env = BlockEnv {
        device,
        program,
        lib,
        ctx: BlockCtx::new(timing::SHARED_MEM_PER_BLOCK as usize),
        grid_dim: logical_grid,
        block_dim: cfg.block,
        ctaid,
        nthreads,
        shared_static,
    };
    // The device library's dynamic shared-memory stack starts above the
    // kernel's static allocation (slot convention shared with cudadev).
    env.ctx.ext[crate::SHMEM_SP_SLOT].store(shared_static, Ordering::Relaxed);

    let nwarps = nthreads.div_ceil(timing::WARP_SIZE);
    let all = u32::MAX >> (32 - nwarps);
    let mut block = Block {
        waiting: Default::default(),
        barriers: Barriers::default(),
        parked: 0,
        finished: 0,
        out: BlockResult::default(),
    };
    let mut w = 0u32;
    loop {
        // A warp starts on this stack when it is first scheduled and is boxed
        // only when it yields, so a kernel that never yields keeps one warp
        // at a time and boxes none.
        match block.waiting[w as usize].take() {
            Some(mut warp) => {
                if !block.turn(w, &mut warp)? {
                    block.waiting[w as usize] = Some(warp);
                }
            }
            None => {
                let mut warp = Warp::new(&env, w);
                warp.start(kidx, &cfg.params)?;
                if !block.turn(w, &mut warp)? {
                    block.waiting[w as usize] = Some(Box::new(warp));
                }
            }
        }
        let runnable = all & !(block.finished | block.parked);
        if runnable == 0 {
            return if block.parked == 0 { Ok(block.out) } else { Err(block.barriers.deadlock()) };
        }
        // Round robin: the next runnable warp after `w`, wrapping.
        let after = runnable & u32::MAX.checked_shl(w + 1).unwrap_or(0);
        w = if after != 0 { after } else { runnable }.trailing_zeros();
    }
}

/// The warps of one block between their turns.
struct Block<'e> {
    /// Warps that yielded, by id.
    waiting: [Option<Box<Warp<'e>>>; 32],
    barriers: Barriers,
    /// Warps parked on a barrier, and warps that ran to their end, one bit
    /// per warp id.
    parked: u32,
    finished: u32,
    out: BlockResult,
}

impl<'e> Block<'e> {
    /// Give warp `w` its turn: run it until it ends (`true`, its counts
    /// added to the block's) or yields (`false`). The arrival that completes
    /// a barrier releases the warps parked there and goes on running.
    fn turn(&mut self, w: u32, warp: &mut Warp<'e>) -> Result<bool, ExecError> {
        loop {
            match warp.run()? {
                Yield::Done => {
                    self.out.add_warp(warp);
                    self.finished |= 1 << w;
                    return Ok(true);
                }
                Yield::Spin => return Ok(false),
                Yield::Barrier { id, count } => {
                    let Some((released, cycles)) = self.barriers.arrive(id, count, w, warp.clock)
                    else {
                        self.parked |= 1 << w;
                        return Ok(false);
                    };
                    for v in iter_lanes(released & !(1 << w)) {
                        self.waiting[v as usize].as_mut().expect("a parked warp").release(cycles);
                    }
                    warp.release(cycles);
                    self.parked &= !released;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use sptx::builder::{op, FnBuilder};
    use sptx::{BinOp, CvtTy, MemTy, ScalarTy, SpecialReg};
    use vmcommon::MemError;

    use super::*;
    use crate::warp::NoLib;

    const WILD: u64 = 0x0700_0000_0000_0000;

    /// With four block workers, eight one-warp blocks each load from a wild
    /// address of their own, and block 0 first spins: the error is block
    /// 0's every time, although later blocks fail first.
    #[test]
    fn the_lowest_failing_block_is_reported() {
        let mut b = FnBuilder::new("k", true);
        let ctaid = b.mov(op::sp(SpecialReg::CtaidX));
        let first = b.bin(ScalarTy::I32, BinOp::SetEq, op::r(ctaid), op::i(0));
        b.begin_if();
        let i = b.mov(op::i(0));
        b.begin_loop();
        let done = b.bin(ScalarTy::I32, BinOp::SetGe, op::r(i), op::i(20_000));
        b.begin_if();
        b.brk();
        b.end_if(op::r(done));
        let next = b.bin(ScalarTy::I32, BinOp::Add, op::r(i), op::i(1));
        b.mov_to(i, op::r(next));
        b.end_loop();
        b.end_if(op::r(first));
        let c64 = b.cvt(CvtTy::I64, CvtTy::I32, op::r(ctaid));
        let off = b.bin(ScalarTy::I64, BinOp::Mul, op::r(c64), op::i(8));
        let wild = b.bin(ScalarTy::I64, BinOp::Add, op::r(off), op::i(WILD as i64));
        b.ld(MemTy::B64, op::r(wild), 0);
        let module = sptx::Module {
            name: "wild".into(),
            arch: "sm_53".into(),
            functions: vec![b.build()],
            device_lib_linked: true,
        };
        let program = Program::new(Arc::new(module));
        let mut d = Device::new(1 << 20);
        d.block_workers = 4;
        let cfg = LaunchConfig { grid: [8, 1, 1], block: [32, 1, 1], params: vec![] };
        for _ in 0..50 {
            let err = program.launch(&d, "k", &cfg, &NoLib, ExecMode::Functional, None);
            match err {
                Err(ExecError::Mem(MemError::BadSpace { addr: WILD })) => {}
                other => panic!("expected block 0's fault, got {other:?}"),
            }
        }
    }
}
