//! The **device part** of the cudadev module: the device runtime library
//! that gets linked with every kernel (§4.2.2).
//!
//! It implements the OpenMP functionality available inside offloaded
//! kernels:
//!
//! * the master/worker scheme for stand-alone `parallel` regions (§3.2):
//!   `cudadev_register_parallel`, `cudadev_workerfunc`,
//!   `cudadev_exit_target`, the shared-memory stack
//!   (`cudadev_push_shmem`/`cudadev_pop_shmem`) and the B1/B2 named-barrier
//!   protocol;
//! * iteration distribution for combined constructs (§3.1):
//!   `cudadev_get_distribute_chunk` and `cudadev_get_{static,dynamic,
//!   guided}_chunk`;
//! * worksharing (`sections` assigned across warps, `single` via
//!   if-master), `critical` via busy-spin CAS locks, barriers with the
//!   W⌈N/W⌉ rounding rule;
//! * the device-side `omp_*` query API.

use std::sync::atomic::Ordering;

use gpusim::{iter_lanes, DeviceLib, ExecError, LaneVec, LibStep, Warp};
use vmcommon::sched::static_block;

/// Block `ext` slot assignments (slot 0 is gpusim's shared-memory stack
/// pointer).
pub mod slots {
    /// Dynamic/guided schedule: iterations already claimed.
    pub const DYN_COUNTER: usize = 1;
    /// Master/worker: registered parallel-region function index.
    pub const MW_FN: usize = 2;
    /// Master/worker: shared-variable struct pointer.
    pub const MW_VARS: usize = 3;
    /// Master/worker: number of participating threads.
    pub const MW_NTHR: usize = 4;
    /// Master/worker: target-region exit flag.
    pub const MW_EXIT: usize = 5;
    /// 1 while a master/worker parallel region is executing.
    pub const MW_MODE: usize = 6;
    /// `sections` dispenser.
    pub const SECTIONS: usize = 7;
    /// `single` winner flag.
    pub const SINGLE: usize = 8;
    /// Master/worker: the master warp's clock when it opened the running
    /// region (the start of its trace event).
    pub const MW_START: usize = 9;
}

/// Named barrier ids used by the master/worker protocol (§3.2).
pub const B1: u32 = 1;
pub const B2: u32 = 2;

/// Threads per master/worker kernel: one master warp + 3 worker warps — the
/// Nano's SMM has 128 cores.
pub const MW_BLOCK_THREADS: u32 = 128;

/// Worker threads available to parallel regions (3 warps).
pub const MW_WORKERS: u32 = 96;

/// Warp size.
const W: u32 = 32;

/// Round `n` up to a multiple of the warp size (the paper's X = W⌈N/W⌉).
pub fn round_barrier_count(n: u32) -> u32 {
    n.div_ceil(W).max(1) * W
}

/// The exported symbol list (used to link kernels).
pub fn exports() -> Vec<String> {
    [
        "cudadev_in_masterwarp",
        "cudadev_is_masterthr",
        "cudadev_register_parallel",
        "cudadev_workerfunc",
        "cudadev_exit_target",
        "cudadev_push_shmem",
        "cudadev_pop_shmem",
        "cudadev_getaddr",
        "cudadev_get_distribute_chunk",
        "cudadev_get_static_chunk",
        "cudadev_get_dynamic_chunk",
        "cudadev_get_guided_chunk",
        "cudadev_sched_reset",
        "cudadev_red_f32",
        "cudadev_red_f64",
        "cudadev_red_i32",
        "cudadev_barrier",
        "cudadev_critical_enter",
        "cudadev_critical_exit",
        "cudadev_sections_next",
        "cudadev_sections_reset",
        "cudadev_single_enter",
        "cudadev_single_reset",
        "omp_get_thread_num",
        "omp_get_num_threads",
        "omp_get_team_num",
        "omp_get_num_teams",
        "omp_is_initial_device",
        "powf",
        "pow",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The device library. One instance per CudaDev module; `lock_area` is a
/// small global-memory region reserved at initialization for `critical`
/// lock words.
pub struct CudaDeviceLib {
    /// Device global-memory address of the lock area (16 × u32 lock words).
    pub lock_area: u64,
}

/// Number of lock words in the lock area.
pub const NUM_LOCKS: u64 = 16;

impl CudaDeviceLib {
    pub fn new(lock_area: u64) -> CudaDeviceLib {
        CudaDeviceLib { lock_area }
    }

    /// Thread id *within the current parallel region* for a lane.
    fn region_tid(&self, warp: &Warp<'_>, lane: u32) -> i64 {
        let lin = warp.lin_tid(lane) as i64;
        if self.mw_active(warp) {
            lin - W as i64
        } else {
            lin
        }
    }

    fn region_nthr(&self, warp: &Warp<'_>) -> u32 {
        if self.mw_active(warp) {
            warp.env.ctx.ext[slots::MW_NTHR].load(Ordering::Acquire) as u32
        } else {
            warp.env.nthreads
        }
    }

    fn mw_active(&self, warp: &Warp<'_>) -> bool {
        warp.env.ctx.ext[slots::MW_MODE].load(Ordering::Acquire) != 0
    }
}

/// Resolve a tagged address to the arena it lives in (global or shared).
fn resolve_arena<'w>(warp: &'w Warp<'_>, addr: u64) -> Result<&'w vmcommon::MemArena, ExecError> {
    match vmcommon::addr::space(addr) {
        Some(vmcommon::addr::Space::Global) => Ok(&warp.env.device.global),
        Some(vmcommon::addr::Space::Shared) => Ok(&warp.env.ctx.shared),
        _ => Err(ExecError::Trap(format!("reduction accumulator in invalid space: {addr:#x}"))),
    }
}

fn fold_f32(a: f32, b: f32, op: u64) -> Result<f32, ExecError> {
    Ok(match op {
        0 => a + b,
        1 => a * b,
        2 => a.max(b),
        3 => a.min(b),
        _ => return Err(ExecError::Trap(format!("bad reduction opcode {op}"))),
    })
}

fn fold_f64(a: f64, b: f64, op: u64) -> Result<f64, ExecError> {
    Ok(match op {
        0 => a + b,
        1 => a * b,
        2 => a.max(b),
        3 => a.min(b),
        _ => return Err(ExecError::Trap(format!("bad reduction opcode {op}"))),
    })
}

fn fold_i32(a: i32, b: i32, op: u64) -> Result<i32, ExecError> {
    Ok(match op {
        0 => a.wrapping_add(b),
        1 => a.wrapping_mul(b),
        2 => a.max(b),
        3 => a.min(b),
        _ => return Err(ExecError::Trap(format!("bad reduction opcode {op}"))),
    })
}

/// Per-lane uniform helper.
fn first(mask: u32, args: &LaneVec) -> u64 {
    args[mask.trailing_zeros().min(31) as usize]
}

/// Arrive at named barrier `id` for `count` threads, traced as `label`,
/// and go on at phase `next` once it completes.
fn bar(id: u32, count: u32, label: &'static str, next: u32) -> Result<LibStep, ExecError> {
    Ok(LibStep::Barrier { id, count, label, next })
}

/// Emit an instant event on the calling warp's track at its current
/// simulated time.
fn warp_instant(
    warp: &Warp<'_>,
    name: &str,
    cat: &'static str,
    args: Vec<(&'static str, obs::ArgValue)>,
) {
    if let Some(t) = warp.env.device.trace() {
        let hz = warp.env.device.props.clock_hz;
        t.obs.tracer.instant(
            t.pid,
            1 + warp.warp_id as u64,
            name,
            cat,
            t.base_s + warp.clock as f64 / hz,
            args,
        );
    }
}

fn uniform_ret(v: u64) -> LibStep {
    LibStep::Ret([v; 32])
}

impl DeviceLib for CudaDeviceLib {
    fn call(
        &self,
        name: &str,
        warp: &mut Warp<'_>,
        mask: u32,
        args: &[LaneVec],
        _sargs: &[String],
        phase: u32,
    ) -> Result<LibStep, ExecError> {
        match name {
            // ------------------------------------------------ identity-ish
            "cudadev_in_masterwarp" => {
                let mut out = [0u64; 32];
                for lane in iter_lanes(mask) {
                    out[lane as usize] = ((args[0][lane as usize] as i64) < W as i64) as u64;
                }
                Ok(LibStep::Ret(out))
            }
            "cudadev_is_masterthr" => {
                let mut out = [0u64; 32];
                for lane in iter_lanes(mask) {
                    out[lane as usize] = (args[0][lane as usize] as i64 == 0) as u64;
                }
                Ok(LibStep::Ret(out))
            }
            "cudadev_getaddr" => Ok(LibStep::Ret(args[0])),

            // --------------------------------------------------- omp_* API
            "omp_get_thread_num" => {
                let mut out = [0u64; 32];
                for lane in iter_lanes(mask) {
                    out[lane as usize] = self.region_tid(warp, lane).max(0) as u64;
                }
                Ok(LibStep::Ret(out))
            }
            "omp_get_num_threads" => Ok(uniform_ret(self.region_nthr(warp) as u64)),
            "omp_get_team_num" => {
                let [gx, gy, _] = warp.env.grid_dim;
                let [cx, cy, cz] = warp.env.ctaid;
                Ok(uniform_ret(
                    (cx as u64) + (cy as u64) * gx as u64 + (cz as u64) * (gx as u64 * gy as u64),
                ))
            }
            "omp_get_num_teams" => {
                let [gx, gy, gz] = warp.env.grid_dim;
                Ok(uniform_ret(gx as u64 * gy as u64 * gz as u64))
            }
            "omp_is_initial_device" => Ok(uniform_ret(0)),

            // ---------------------------------------------- shared-mem stack
            "cudadev_push_shmem" => {
                // (src_ptr, size) → shared address of the pushed copy.
                // Master-thread only (sequential region).
                let src = first(mask, &args[0]);
                let size = first(mask, &args[1]);
                let sp = &warp.env.ctx.ext[gpusim::SHMEM_SP_SLOT];
                let off = sp.load(Ordering::Acquire);
                let aligned = off.next_multiple_of(8);
                let dst = vmcommon::addr::make(vmcommon::addr::Space::Shared, aligned);
                warp.copy_bytes(dst, src, size)?;
                let depth = aligned + size.next_multiple_of(8);
                sp.store(depth, Ordering::Release);
                warp_instant(
                    warp,
                    "shmem push",
                    "shmem",
                    vec![("bytes", size.into()), ("depth", depth.into())],
                );
                Ok(uniform_ret(dst))
            }
            "cudadev_pop_shmem" => {
                // (dst_ptr, size): copy the top entry back and deallocate.
                let dst = first(mask, &args[0]);
                let size = first(mask, &args[1]);
                let sp = &warp.env.ctx.ext[gpusim::SHMEM_SP_SLOT];
                let top = sp.load(Ordering::Acquire);
                let entry = top
                    .checked_sub(size.next_multiple_of(8))
                    .ok_or_else(|| ExecError::Trap("shared-memory stack underflow".into()))?;
                let src = vmcommon::addr::make(vmcommon::addr::Space::Shared, entry);
                warp.copy_bytes(dst, src, size)?;
                sp.store(entry, Ordering::Release);
                warp_instant(
                    warp,
                    "shmem pop",
                    "shmem",
                    vec![("bytes", size.into()), ("depth", entry.into())],
                );
                Ok(uniform_ret(0))
            }

            // ------------------------------------------------ master/worker
            // A call that waits on B1/B2 returns the barrier to the warp and
            // is re-entered at its next phase once the barrier completes.
            "cudadev_register_parallel" => match phase {
                // (fn_index, vars_ptr, nthr) — master thread only.
                0 => {
                    let nthr = (first(mask, &args[2]) as u32).clamp(1, MW_WORKERS);
                    let ext = &warp.env.ctx.ext;
                    ext[slots::MW_FN].store(first(mask, &args[0]), Ordering::Release);
                    ext[slots::MW_VARS].store(first(mask, &args[1]), Ordering::Release);
                    ext[slots::MW_NTHR].store(nthr as u64, Ordering::Release);
                    ext[slots::MW_START].store(warp.clock, Ordering::Release);
                    ext[slots::MW_MODE].store(1, Ordering::Release);
                    // Wake the workers (region start)…
                    bar(B1, MW_BLOCK_THREADS, "B1 wake", 1)
                }
                // …and wait for region completion.
                1 => bar(B1, MW_BLOCK_THREADS, "B1 wait", 2),
                _ => {
                    let ext = &warp.env.ctx.ext;
                    ext[slots::MW_MODE].store(0, Ordering::Release);
                    if let Some(t) = warp.env.device.trace() {
                        let hz = warp.env.device.props.clock_hz;
                        let region_start = ext[slots::MW_START].load(Ordering::Acquire);
                        let nthr = ext[slots::MW_NTHR].load(Ordering::Acquire);
                        let fnidx = ext[slots::MW_FN].load(Ordering::Acquire);
                        t.obs.tracer.complete(
                            t.pid,
                            1 + warp.warp_id as u64,
                            "parallel region",
                            "parallel",
                            t.base_s + region_start as f64 / hz,
                            warp.clock.saturating_sub(region_start) as f64 / hz,
                            vec![("nthreads", nthr.into()), ("fn", fnidx.into())],
                        );
                    }
                    Ok(uniform_ret(0))
                }
            },
            "cudadev_workerfunc" => match phase {
                // Worker warps: serve parallel regions until exit, with the
                // warp's full live mask. Park until the master opens a
                // region or exits.
                0 => bar(B1, MW_BLOCK_THREADS, "B1 park", 1),
                1 => {
                    let ext = &warp.env.ctx.ext;
                    if ext[slots::MW_EXIT].load(Ordering::Acquire) != 0 {
                        return Ok(uniform_ret(0));
                    }
                    let func = ext[slots::MW_FN].load(Ordering::Acquire) as u32;
                    let vars = ext[slots::MW_VARS].load(Ordering::Acquire);
                    let nthr = ext[slots::MW_NTHR].load(Ordering::Acquire) as u32;
                    // Lanes participating in this region.
                    let mut pmask = 0u32;
                    for lane in iter_lanes(mask) {
                        let rtid = warp.lin_tid(lane) as i64 - W as i64;
                        if rtid >= 0 && (rtid as u32) < nthr {
                            pmask |= 1 << lane;
                        }
                    }
                    if pmask != 0 {
                        Ok(LibStep::Run { func, arg: vars, mask: pmask, next: 2 })
                    } else {
                        bar(B1, MW_BLOCK_THREADS, "B1 rejoin", 0)
                    }
                }
                // Participants synchronize on B2 (rounded count)…
                2 => {
                    let nthr = warp.env.ctx.ext[slots::MW_NTHR].load(Ordering::Acquire) as u32;
                    bar(B2, round_barrier_count(nthr), "B2 wait", 3)
                }
                // …and at region end every warp rejoins the master on B1.
                _ => bar(B1, MW_BLOCK_THREADS, "B1 rejoin", 0),
            },
            "cudadev_exit_target" => match phase {
                0 => {
                    warp.env.ctx.ext[slots::MW_EXIT].store(1, Ordering::Release);
                    // Release the workers so they observe the exit flag.
                    bar(B1, MW_BLOCK_THREADS, "B1 exit", 1)
                }
                _ => Ok(uniform_ret(0)),
            },

            // ------------------------------------------- chunk distribution
            "cudadev_get_distribute_chunk" => {
                // (total, &lb, &ub): the team-master chunk of 0..total.
                let total = first(mask, &args[0]);
                let [gx, gy, gz] = warp.env.grid_dim;
                let nteams = gx as u64 * gy as u64 * gz as u64;
                let [cx, cy, cz] = warp.env.ctaid;
                let team = cx as u64 + cy as u64 * gx as u64 + cz as u64 * (gx as u64 * gy as u64);
                let (lb, ub) = static_block(total, nteams, team);
                for lane in iter_lanes(mask) {
                    warp.mem_write_u64(args[1][lane as usize], lb)?;
                    warp.mem_write_u64(args[2][lane as usize], ub)?;
                }
                Ok(uniform_ret(0))
            }
            "cudadev_get_static_chunk" => {
                // (lb, ub, chunk, &mylb, &myub): blocked (chunk==0) or the
                // first cyclic chunk of the calling thread.
                let nthr = self.region_nthr(warp) as u64;
                let chunk = first(mask, &args[2]);
                for lane in iter_lanes(mask) {
                    let lb = args[0][lane as usize];
                    let ub = args[1][lane as usize];
                    let tid = self.region_tid(warp, lane).max(0) as u64;
                    let total = ub.saturating_sub(lb);
                    let (s, e) = if chunk == 0 {
                        static_block(total, nthr, tid)
                    } else {
                        vmcommon::sched::static_cyclic(total, nthr, tid, chunk, 0).unwrap_or((0, 0))
                    };
                    warp.mem_write_u64(args[3][lane as usize], lb + s)?;
                    warp.mem_write_u64(args[4][lane as usize], lb + e)?;
                }
                Ok(uniform_ret(0))
            }
            "cudadev_sched_reset" => {
                // Called by region thread 0 before a dynamic/guided loop
                // (followed by a region barrier emitted by the compiler).
                warp.env.ctx.ext[slots::DYN_COUNTER].store(0, Ordering::Release);
                Ok(uniform_ret(0))
            }
            "cudadev_get_dynamic_chunk" => {
                // (lb, ub, chunk, &mylb, &myub) → 1 if a chunk was claimed.
                let chunk = first(mask, &args[2]).max(1);
                let mut out = [0u64; 32];
                for lane in iter_lanes(mask) {
                    let lb = args[0][lane as usize];
                    let ub = args[1][lane as usize];
                    let total = ub.saturating_sub(lb);
                    let start =
                        warp.env.ctx.ext[slots::DYN_COUNTER].fetch_add(chunk, Ordering::AcqRel);
                    if start < total {
                        let end = (start + chunk).min(total);
                        warp.mem_write_u64(args[3][lane as usize], lb + start)?;
                        warp.mem_write_u64(args[4][lane as usize], lb + end)?;
                        out[lane as usize] = 1;
                    }
                }
                Ok(LibStep::Ret(out))
            }
            "cudadev_get_guided_chunk" => {
                let minc = first(mask, &args[2]).max(1);
                let nthr = self.region_nthr(warp) as u64;
                let mut out = [0u64; 32];
                for lane in iter_lanes(mask) {
                    let lb = args[0][lane as usize];
                    let ub = args[1][lane as usize];
                    let total = ub.saturating_sub(lb);
                    let ctr = &warp.env.ctx.ext[slots::DYN_COUNTER];
                    let mut claimed = None;
                    loop {
                        let taken = ctr.load(Ordering::Acquire);
                        if taken >= total {
                            break;
                        }
                        let remaining = total - taken;
                        let size = remaining.div_ceil(nthr).max(minc).min(remaining);
                        if ctr
                            .compare_exchange_weak(
                                taken,
                                taken + size,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            claimed = Some((taken, taken + size));
                            break;
                        }
                    }
                    if let Some((s, e)) = claimed {
                        warp.mem_write_u64(args[3][lane as usize], lb + s)?;
                        warp.mem_write_u64(args[4][lane as usize], lb + e)?;
                        out[lane as usize] = 1;
                    }
                }
                Ok(LibStep::Ret(out))
            }

            // ------------------------------------------------ synchronization
            "cudadev_barrier" => match phase {
                0 if self.mw_active(warp) => {
                    bar(B2, round_barrier_count(self.region_nthr(warp)), "B2 wait", 1)
                }
                0 => bar(0, warp.env.nthreads.next_multiple_of(W), "barrier", 1),
                _ => Ok(uniform_ret(0)),
            },
            "cudadev_critical_enter" => {
                // Busy-spin CAS on a global lock word (§4.2.2). Whole-warp:
                // lanes of the same warp enter one at a time would deadlock
                // in lockstep; acquire once per warp (the region body runs
                // with the warp's active mask, which is how the paper's
                // lockstep warps behave). A warp of this block never yields
                // inside a critical section, so the holder this spins on is
                // a warp of another block, on another block worker.
                let id = first(mask, &args[0]) % NUM_LOCKS;
                let addr = self.lock_area + id * 4;
                let off = vmcommon::addr::offset(addr);
                let mut spins = 0u64;
                loop {
                    if warp.env.device.global.cas_u32(off, 0, 1)? == 0 {
                        break;
                    }
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                    if spins > 50_000_000 {
                        return Err(ExecError::Trap("critical-section livelock".into()));
                    }
                }
                // Contention cost: a handful of cycles per retry.
                warp.add_cost(2, 4 + 2 * spins.min(1000));
                Ok(uniform_ret(0))
            }
            "cudadev_critical_exit" => {
                let id = first(mask, &args[0]) % NUM_LOCKS;
                let addr = self.lock_area + id * 4;
                let off = vmcommon::addr::offset(addr);
                warp.env.device.global.store_u32(off, 0)?;
                warp.add_cost(2, 4);
                Ok(uniform_ret(0))
            }

            // ------------------------------------------------- worksharing
            "cudadev_sections_reset" => {
                warp.env.ctx.ext[slots::SECTIONS].store(0, Ordering::Release);
                Ok(uniform_ret(0))
            }
            "cudadev_sections_next" => {
                // (nsections) → section index or -1. One claim per *warp*
                // per call (first active lane), so consecutive sections land
                // on different warps — the paper's divergence-avoidance rule.
                let nsec = first(mask, &args[0]);
                let mut out = [(-1i64) as u64; 32];
                let leader = mask.trailing_zeros().min(31);
                let i = warp.env.ctx.ext[slots::SECTIONS].fetch_add(1, Ordering::AcqRel);
                if i < nsec {
                    out[leader as usize] = i;
                }
                Ok(LibStep::Ret(out))
            }
            "cudadev_single_reset" => {
                warp.env.ctx.ext[slots::SINGLE].store(0, Ordering::Release);
                Ok(uniform_ret(0))
            }
            "cudadev_single_enter" => {
                // If-master logic: thread 0 of the region executes.
                let mut out = [0u64; 32];
                for lane in iter_lanes(mask) {
                    out[lane as usize] = (self.region_tid(warp, lane) == 0) as u64;
                }
                Ok(LibStep::Ret(out))
            }

            // -------------------------------------------------- reductions
            // cudadev_red_*(accum_ptr, value, opcode): atomically fold
            // `value` into the accumulator. opcode: 0 add, 1 mul, 2 max,
            // 3 min. Used by reduction clauses on combined constructs.
            "cudadev_red_f32" => {
                for lane in iter_lanes(mask) {
                    let addr = args[0][lane as usize];
                    let val = f32::from_bits(args[1][lane as usize] as u32);
                    let op = args[2][lane as usize];
                    let mem = resolve_arena(warp, addr)?;
                    let off = vmcommon::addr::offset(addr);
                    loop {
                        let cur = mem.load_u32(off)?;
                        let next = fold_f32(f32::from_bits(cur), val, op)?.to_bits();
                        if mem.cas_u32(off, cur, next)? == cur {
                            break;
                        }
                    }
                }
                warp.add_cost(4, 40);
                Ok(uniform_ret(0))
            }
            "cudadev_red_f64" => {
                for lane in iter_lanes(mask) {
                    let addr = args[0][lane as usize];
                    let val = f64::from_bits(args[1][lane as usize]);
                    let op = args[2][lane as usize];
                    let mem = resolve_arena(warp, addr)?;
                    let off = vmcommon::addr::offset(addr);
                    loop {
                        let cur = mem.load_u64(off)?;
                        let next = fold_f64(f64::from_bits(cur), val, op)?.to_bits();
                        if mem.cas_u64(off, cur, next)? == cur {
                            break;
                        }
                    }
                }
                warp.add_cost(4, 40);
                Ok(uniform_ret(0))
            }
            "cudadev_red_i32" => {
                for lane in iter_lanes(mask) {
                    let addr = args[0][lane as usize];
                    let val = args[1][lane as usize] as u32 as i32;
                    let op = args[2][lane as usize];
                    let mem = resolve_arena(warp, addr)?;
                    let off = vmcommon::addr::offset(addr);
                    loop {
                        let cur = mem.load_u32(off)? as i32;
                        let next = fold_i32(cur, val, op)? as u32;
                        if mem.cas_u32(off, cur as u32, next)? == cur as u32 {
                            break;
                        }
                    }
                }
                warp.add_cost(4, 40);
                Ok(uniform_ret(0))
            }

            // ------------------------------------------------------- math
            "powf" => {
                let mut out = [0u64; 32];
                for lane in iter_lanes(mask) {
                    let a = f32::from_bits(args[0][lane as usize] as u32);
                    let b = f32::from_bits(args[1][lane as usize] as u32);
                    out[lane as usize] = a.powf(b).to_bits() as u64;
                }
                Ok(LibStep::Ret(out))
            }
            "pow" => {
                let mut out = [0u64; 32];
                for lane in iter_lanes(mask) {
                    let a = f64::from_bits(args[0][lane as usize]);
                    let b = f64::from_bits(args[1][lane as usize]);
                    out[lane as usize] = a.powf(b).to_bits();
                }
                Ok(LibStep::Ret(out))
            }

            other => Err(ExecError::UnknownIntrinsic(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_rounding_rule() {
        // X = W⌈N/W⌉ (§4.2.2).
        assert_eq!(round_barrier_count(96), 96);
        assert_eq!(round_barrier_count(40), 64);
        assert_eq!(round_barrier_count(1), 32);
        assert_eq!(round_barrier_count(33), 64);
        assert_eq!(round_barrier_count(0), 32);
    }

    #[test]
    fn exports_cover_protocol() {
        let e = exports();
        for sym in [
            "cudadev_register_parallel",
            "cudadev_workerfunc",
            "cudadev_exit_target",
            "cudadev_push_shmem",
            "cudadev_pop_shmem",
            "cudadev_get_distribute_chunk",
            "cudadev_get_static_chunk",
            "omp_get_thread_num",
        ] {
            assert!(e.iter().any(|s| s == sym), "missing {sym}");
        }
    }
}
