//! The SIMT warp interpreter.
//!
//! Each simulated warp executes its function's lowered program (see
//! [`crate::program`]: every SPTX function is decoded once, when the module
//! is loaded, into a flat list of ops with operands, costs and branch
//! targets resolved) in lockstep across its 32 lanes, carrying an explicit
//! *active mask*. Divergence works like the hardware's reconvergence stack:
//! an `If` pushes an entry that remembers the lanes still owed the else side
//! and the lanes that finished a side, a `Loop` pushes one that collects the
//! lanes that `break` and `continue`, and the matching `EndIf`/`LoopEnd`
//! merges them back. When the mask drops to zero (every lane returned,
//! broke or continued), the warp jumps to the innermost entry's terminator
//! — the flat form of "skip the rest of this block".
//!
//! **What is warp-wide.** One op is decoded once per warp, not once per
//! lane, and was decoded into that form once per module. Its operands are
//! whole [`LaneVec`]s read in place (a register row, a row of the function's
//! constant table holding an immediate already narrowed to the instruction
//! type, a special register from the per-warp table built in [`Warp::new`]),
//! and one branch-free loop computes all 32 lanes straight into the
//! destination row under the mask ([`alu`]), so inactive lanes keep their
//! bits. `mov`, `bin`, `un`, `cvt`, the `if` condition and the address/value
//! side of `ld`/`st` all run this way; an address chain fused into its
//! access ([`crate::program`]) is one such loop, a shift when its scale is a
//! power of two. The lowering folds nvccsim's loop tests (`setp`, `not`,
//! `if`, `break` and the `if`'s end: one [`Op::Leave`] that turns the
//! comparison into the exit mask), its `op t; mov x, t` assignments and its
//! one-use constants into the ops they feed, so each dispatch does more of
//! the warp's work. `issue`/`clock` are charged once per op from the costs
//! stored on it, and `lane_insts` grows by the mask's population count
//! times the instructions the op stands for. Memory is warp-wide where its
//! address row allows ([`mem`]): every active lane at one address is one
//! access, and a full warp at a constant positive stride is one
//! bounds-and-alignment check for all 32 lanes.
//!
//! **What stays lane-ordered, and why.** Wherever the order of lanes is
//! observable the interpreter walks the active lanes lowest first: every
//! other memory access, and a strided one that would fault (the fault
//! reported is the lowest faulting lane's, and of two lanes storing to one
//! address the higher wins), atomics (a float `atom.add` accumulates in lane order),
//! integer `div`/`rem` (only an executing lane may trap on a zero divisor),
//! and device-library calls.
//!
//! **Who runs a warp.** The block worker's scheduler ([`crate::launch`]),
//! one [`Warp::run`] at a time. A warp runs until it yields: at a barrier
//! arrival, whether a `bar.sync` or one a device-library call asked for
//! ([`LibStep::Barrier`], the master/worker B1/B2 protocol of §3.2); at a
//! loop back-edge after an iteration in which an `atom.cas` found another
//! word than the expected one, or an `atom.exch` returned the word it
//! wrote, in some active lane (a lock or flag hand-off: the sibling that
//! will store gets to run); or at its end. All it needs to go on lives in
//! the warp ([`frames`]). A spin on a plain `ld` never yields, so it never
//! ends if the warp it waits for has not run yet.

pub(crate) mod alu;
mod frames;
mod mem;
#[cfg(test)]
mod tests;

use std::cmp::Ordering;
use std::sync::atomic::AtomicU64;

use vmcommon::MemArena;

use crate::device::{Device, ExecError};
use crate::program::{Cond, Func, Op, Program, Src, WarpOp};
use crate::timing;

/// One value per lane.
pub type LaneVec = [u64; 32];

/// What a device-library call asks of the warp that made it.
// `Ret` carries its row by value, as every call returns one; a box would
// allocate per call.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug)]
pub enum LibStep {
    /// The call is complete: its value in every lane (written to the call's
    /// destination row under the call's mask).
    Ret(LaneVec),
    /// Arrive at named barrier `id`, which waits for `count` threads, and
    /// re-enter the call at phase `next` once it completes. The wait is
    /// traced as `label` on the warp's track.
    Barrier { id: u32, count: u32, label: &'static str, next: u32 },
    /// Run device function `func` with the uniform argument `arg` on the
    /// lanes of `mask`, and re-enter the call at phase `next` once it
    /// returns.
    Run { func: u32, arg: u64, mask: u32, next: u32 },
}

/// The device runtime library: resolves `intr` calls the core simulator
/// does not handle itself. Implemented by cudadev's device part.
pub trait DeviceLib: Send + Sync {
    /// A call is entered at phase 0. One that answers [`LibStep::Barrier`]
    /// or [`LibStep::Run`] is entered again, with the same `mask`, `args`
    /// and `sargs`, at the phase it named — so a call that waits keeps no
    /// host stack while it does.
    fn call(
        &self,
        name: &str,
        warp: &mut Warp<'_>,
        mask: u32,
        args: &[LaneVec],
        sargs: &[String],
        phase: u32,
    ) -> Result<LibStep, ExecError>;
}

/// A library that resolves nothing (pure-CUDA kernels).
pub struct NoLib;

impl DeviceLib for NoLib {
    fn call(
        &self,
        name: &str,
        _warp: &mut Warp<'_>,
        _mask: u32,
        _args: &[LaneVec],
        _sargs: &[String],
        _phase: u32,
    ) -> Result<LibStep, ExecError> {
        Err(ExecError::UnknownIntrinsic(name.to_string()))
    }
}

/// Number of device-library scratch slots per block (used by cudadev for
/// the master/worker registration record and the shared-memory stack
/// pointer).
pub const EXT_SLOTS: usize = 16;

/// Per-block shared state.
pub struct BlockCtx {
    /// The block's shared memory (48 KiB on the Nano).
    pub shared: MemArena,
    /// Device-library scratch (e.g. parallel-region registration record).
    pub ext: [AtomicU64; EXT_SLOTS],
}

impl BlockCtx {
    pub fn new(shared_bytes: usize) -> BlockCtx {
        BlockCtx { shared: MemArena::new(shared_bytes), ext: Default::default() }
    }
}

/// Everything shared by the warps of one block.
pub struct BlockEnv<'a> {
    pub device: &'a Device,
    pub program: &'a Program,
    pub lib: &'a dyn DeviceLib,
    pub ctx: BlockCtx,
    pub grid_dim: [u32; 3],
    pub block_dim: [u32; 3],
    pub ctaid: [u32; 3],
    /// Threads in this block.
    pub nthreads: u32,
    /// Static shared-memory bytes claimed by the kernel (the dynamic
    /// shared-memory stack of the device library starts above this).
    pub shared_static: u64,
}

/// Per-warp execution statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct WarpStats {
    pub lane_insts: u64,
    pub mem_transactions: u64,
    pub divergent_branches: u64,
}

struct Frame {
    /// The running function, by index in the program.
    func: u32,
    /// Where the frame goes on: its next op and the lanes active there.
    pc: u32,
    mask: u32,
    /// This frame's first entry in the warp's mask stack.
    ctl_base: u32,
    /// The device-library call at `pc - 1` is in progress: the phase to
    /// re-enter it at.
    resume: Option<u32>,
    /// Start of this frame's registers in the warp's register stack
    /// (reg-major: register `r`, lane `l` is `regs[reg_base + r * 32 + l]`).
    reg_base: usize,
    /// Start of this frame's window in the warp-local memory stack.
    local_base: usize,
    /// Each lane's `.local` base address in this frame.
    local_row: LaneVec,
    ret_vals: LaneVec,
}

/// Why [`Warp::run`] handed the block's thread back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Yield {
    /// The kernel returned.
    Done,
    /// The warp arrived at named barrier `id`, which waits for `count`
    /// threads.
    Barrier { id: u32, count: u32 },
    /// A loop goes round again after an iteration whose atomic made no
    /// progress.
    Spin,
}

/// Why [`Warp::step`] left its function.
enum Stop {
    /// The function ended.
    End,
    /// A call pushed a frame.
    Switched,
    Yield(Yield),
}

/// An `if` or `loop` a warp is executing: one entry of its mask stack.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ctl {
    /// `pending`: the lanes still owed the else side; `out`: the lanes that
    /// finished a side; `term`: where a side left without lanes goes.
    If { pending: u32, out: u32, term: u32 },
    /// `brk`: the lanes that left by `break`; `cont`: the lanes that
    /// `continue`d this iteration; `term`: the `LoopEnd`; `stalls`: the
    /// warp's [`Warp::stalls`] when this iteration began.
    Loop { brk: u32, cont: u32, term: u32, stalls: u32 },
}

impl Ctl {
    fn term(&self) -> usize {
        match *self {
            Ctl::If { term, .. } | Ctl::Loop { term, .. } => term as usize,
        }
    }
}

/// A warp mid-execution.
pub struct Warp<'a> {
    pub env: &'a BlockEnv<'a>,
    pub warp_id: u32,
    frames: Vec<Frame>,
    /// Latency clock (cycles) — synchronized at barriers.
    pub clock: u64,
    /// Issue cycles (throughput cost).
    pub issue: u64,
    pub stats: WarpStats,
    /// Register stack: one window of `num_regs` rows per live frame.
    regs: Vec<u64>,
    /// Warp-private local memory stack (all lanes interleaved per frame).
    local_stack: Vec<u8>,
    /// Every special register's value in every lane, indexed by
    /// `SpecialReg as usize`.
    specials: [LaneVec; NUM_SPECIALS],
    /// The `if`s and `loop`s being executed by every live frame, innermost
    /// last.
    ctl: Vec<Ctl>,
    /// Atomics that made no progress in some active lane so far (wrapping):
    /// an `atom.cas` that found another word than the expected one, an
    /// `atom.exch` that returned the word it wrote.
    stalls: u32,
    /// How a device-library barrier wait is traced, while the warp is in
    /// one.
    wait_label: Option<&'static str>,
}

const LOCAL_STACK_LIMIT: usize = 4 << 20;

const NUM_SPECIALS: usize = sptx::SpecialReg::WarpId as usize + 1;

/// Call-argument rows kept on the host stack; longer packs go to the heap.
const INLINE_ARGS: usize = 8;

/// The row starting at `at`.
#[inline(always)]
fn row(regs: &[u64], at: usize) -> &LaneVec {
    regs[at..at + 32].try_into().expect("32-lane row")
}

/// The register stack split around the row an op writes, with everything
/// else an operand can be read from.
struct Reads<'s> {
    /// The registers below and above the destination row.
    lo: &'s [u64],
    hi: &'s [u64],
    /// Where the destination row starts, and the frame's first register.
    at: usize,
    base: usize,
    consts: &'s [LaneVec],
    specials: &'s [LaneVec; NUM_SPECIALS],
    local: &'s LaneVec,
}

impl<'s> Reads<'s> {
    /// Operand `s`'s row; `None` when it is the destination row itself.
    #[inline(always)]
    fn get(&self, s: Src) -> Option<&'s LaneVec> {
        Some(match s {
            Src::Reg(r) => {
                let r = self.base + r as usize;
                match r.cmp(&self.at) {
                    Ordering::Less => row(self.lo, r),
                    Ordering::Greater => row(self.hi, r - self.at - 32),
                    Ordering::Equal => return None,
                }
            }
            Src::Const(i) => &self.consts[i as usize],
            Src::Special(s) => &self.specials[s as usize],
            Src::LocalBase => self.local,
        })
    }
}

impl<'a> Warp<'a> {
    pub fn new(env: &'a BlockEnv<'a>, warp_id: u32) -> Warp<'a> {
        use sptx::SpecialReg::*;
        let [bx, by, bz] = env.block_dim;
        let mut specials = [[0u64; 32]; NUM_SPECIALS];
        for (s, v) in [
            (NtidX, bx),
            (NtidY, by),
            (NtidZ, bz),
            (CtaidX, env.ctaid[0]),
            (CtaidY, env.ctaid[1]),
            (CtaidZ, env.ctaid[2]),
            (NctaidX, env.grid_dim[0]),
            (NctaidY, env.grid_dim[1]),
            (NctaidZ, env.grid_dim[2]),
            (WarpId, warp_id),
        ] {
            specials[s as usize] = [v as u64; 32];
        }
        for lane in 0..32u32 {
            let lin = warp_id * 32 + lane;
            let l = lane as usize;
            specials[TidX as usize][l] = (lin % bx) as u64;
            specials[TidY as usize][l] = ((lin / bx) % by) as u64;
            specials[TidZ as usize][l] = (lin / (bx * by)) as u64;
            specials[LaneId as usize][l] = lane as u64;
        }
        Warp {
            env,
            warp_id,
            frames: Vec::new(),
            clock: 0,
            issue: 0,
            stats: WarpStats::default(),
            regs: Vec::new(),
            local_stack: Vec::new(),
            specials,
            ctl: Vec::new(),
            stalls: 0,
            wait_label: None,
        }
    }

    /// Linear thread id within the block of `lane`.
    #[inline]
    pub fn lin_tid(&self, lane: u32) -> u32 {
        self.warp_id * 32 + lane
    }

    fn frame(&self) -> &Frame {
        self.frames.last().expect("active frame")
    }

    fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("active frame")
    }

    /// Operand `s` of an op of `f`, all lanes (raw bit patterns), for an op
    /// that writes no register while it reads.
    #[inline(always)]
    fn read<'s>(&'s self, f: &'s Func, s: Src) -> &'s LaneVec {
        match s {
            Src::Reg(r) => row(&self.regs, self.frame().reg_base + r as usize),
            Src::Const(i) => &f.consts[i as usize],
            Src::Special(s) => &self.specials[s as usize],
            Src::LocalBase => &self.frame().local_row,
        }
    }

    /// Uniform operand value (first active lane).
    fn read_uniform(&self, f: &Func, s: Src, mask: u32) -> u64 {
        self.read(f, s)[mask.trailing_zeros().min(31) as usize]
    }

    /// Register row `dst` of the running frame, writable, beside everything
    /// an operand of `f` can be read from.
    #[inline(always)]
    fn split<'s>(&'s mut self, f: &'s Func, dst: u32) -> (Reads<'s>, &'s mut LaneVec) {
        let frame = self.frames.last().expect("active frame");
        let at = frame.reg_base + dst as usize;
        let (lo, rest) = self.regs.split_at_mut(at);
        let (out, hi) = rest.split_at_mut(32);
        let reads = Reads {
            lo,
            hi,
            at,
            base: frame.reg_base,
            consts: &f.consts,
            specials: &self.specials,
            local: &frame.local_row,
        };
        (reads, out.try_into().expect("32-lane row"))
    }

    /// Run `op` with register row `dst` as its output and `a` as its input
    /// (a copy of the row when `a` is `dst` itself).
    #[inline(always)]
    fn alu1<R>(
        &mut self,
        f: &Func,
        dst: u32,
        a: Src,
        op: impl FnOnce(&mut LaneVec, &LaneVec) -> R,
    ) -> R {
        let (reads, out) = self.split(f, dst);
        match reads.get(a) {
            Some(a) => op(out, a),
            None => {
                let copy = *out;
                op(out, &copy)
            }
        }
    }

    /// [`Warp::alu1`] with two inputs.
    #[inline(always)]
    fn alu2<R>(
        &mut self,
        f: &Func,
        dst: u32,
        a: Src,
        b: Src,
        op: impl FnOnce(&mut LaneVec, &LaneVec, &LaneVec) -> R,
    ) -> R {
        let (reads, out) = self.split(f, dst);
        match (reads.get(a), reads.get(b)) {
            (Some(a), Some(b)) => op(out, a, b),
            (a, b) => {
                let copy = *out;
                op(out, a.unwrap_or(&copy), b.unwrap_or(&copy))
            }
        }
    }

    /// Register row `dst` of the running frame, writable.
    fn row_mut(&mut self, dst: u32) -> &mut LaneVec {
        let at = self.frame().reg_base + dst as usize;
        (&mut self.regs[at..at + 32]).try_into().expect("32-lane row")
    }

    /// Write `v` to register row `dst` in the lanes of `mask`; the other
    /// lanes keep their bits.
    fn set_row(&mut self, dst: u32, v: &LaneVec, mask: u32) {
        alu::blend(self.row_mut(dst), v, mask);
    }

    pub fn add_cost(&mut self, issue: u64, lat: u64) {
        self.issue += issue;
        self.clock += lat;
    }

    /// Charge one op, and the instructions it stands for, to the lanes of
    /// `mask`.
    #[inline(always)]
    fn charge(&mut self, op: &WarpOp, mask: u32) {
        self.add_cost(op.issue as u64, op.lat as u64);
        self.stats.lane_insts += (op.count * mask.count_ones()) as u64;
    }

    /// Step through `f`'s ops on the running frame from `pc` for the lanes
    /// in `mask` until the function ends, a call pushes a frame or the warp
    /// yields; returns why, with the `pc` and mask to go on from saved in
    /// the frame. Each `If`/`Loop` pushes a control entry that its
    /// `EndIf`/`LoopEnd` pops; whenever the mask is empty the warp goes to
    /// the innermost entry above `base` (the frame's first) and to the end
    /// of `f` when there is none.
    fn step(
        &mut self,
        f: &Func,
        mut pc: usize,
        mut mask: u32,
        base: usize,
    ) -> Result<Stop, ExecError> {
        let ops = &f.ops[..];
        loop {
            if mask == 0 {
                pc = self.ctl[base..].last().map_or(ops.len(), Ctl::term);
            }
            let Some(op) = ops.get(pc) else {
                self.save(pc, mask);
                return Ok(Stop::End);
            };
            pc += 1;
            match op.op {
                Op::Mov { dst, src } => {
                    self.charge(op, mask);
                    self.alu1(f, dst, src, |out, v| alu::blend(out, v, mask));
                }
                Op::Bin { ty, op: bop, dst, a, b } => {
                    self.charge(op, mask);
                    let warp = self.warp_id;
                    self.alu2(f, dst, a, b, |out, a, b| alu::bin(ty, bop, out, a, b, mask))
                        .map_err(|m| ExecError::Trap(format!("{m} in warp {warp}")))?;
                }
                Op::Un { ty, op: uop, dst, a } => {
                    self.charge(op, mask);
                    self.alu1(f, dst, a, |out, a| alu::un(ty, uop, out, a, mask));
                }
                Op::Cvt { to, from, dst, src } => {
                    self.charge(op, mask);
                    self.alu1(f, dst, src, |out, v| alu::cvt(to, from, out, v, mask));
                }
                Op::Ld { ty, dst, addr, offset } => {
                    self.charge(op, mask);
                    self.ld(f, ty, dst, addr, offset, mask)?;
                }
                Op::St { ty, src, addr, offset } => {
                    self.charge(op, mask);
                    self.st(f, ty, src, addr, offset, mask)?;
                }
                Op::AtomCas { dst, addr, expected, new } => {
                    self.charge(op, mask);
                    self.atom_cas(f, dst, addr, expected, new, mask)?;
                }
                Op::Atom { op: aop, dst, addr, val } => {
                    self.charge(op, mask);
                    self.atom(f, aop, dst, addr, val, mask)?;
                }
                Op::BarSync { id, count } => {
                    self.charge(op, mask);
                    let id = self.read_uniform(f, id, mask) as u32;
                    let expected = match count {
                        Some(c) => self.read_uniform(f, c, mask) as u32,
                        None => self.env.nthreads.next_multiple_of(timing::WARP_SIZE),
                    };
                    let y = self.bar_sync(id, expected, None)?;
                    self.save(pc, mask);
                    return Ok(Stop::Yield(y));
                }
                Op::Call { func, ref args, .. } => {
                    self.charge(op, mask);
                    self.save(pc, mask);
                    self.with_args(f, args, mask, |w, pack| w.push_frame(func, pack, mask))?;
                    return Ok(Stop::Switched);
                }
                Op::Intrinsic(_) => {
                    self.charge(op, mask);
                    self.save(pc, mask);
                    if let Some(stop) = self.lib_step(f, pc - 1, mask, 0)? {
                        return Ok(stop);
                    }
                }
                Op::Ret { val } => {
                    self.charge(op, mask);
                    let v = val.map_or([0; 32], |v| *self.read(f, v));
                    let frame = self.frames.last_mut().expect("active frame");
                    alu::blend(&mut frame.ret_vals, &v, mask);
                    mask = 0;
                }
                Op::Trap { ref msg } => {
                    self.charge(op, mask);
                    return Err(ExecError::Trap(format!("kernel trap: {msg}")));
                }
                Op::If { cond, else_pc } => {
                    let m_then = alu::nonzero_mask(self.read(f, cond)) & mask;
                    let m_else = mask & !m_then;
                    if m_then != 0 && m_else != 0 {
                        self.stats.divergent_branches += 1;
                        self.clock += timing::DIVERGENCE_LAT;
                    }
                    self.add_cost(op.issue as u64, op.lat as u64);
                    self.ctl.push(Ctl::If { pending: m_else, out: 0, term: else_pc });
                    mask = m_then;
                }
                Op::Else { endif } => {
                    let Some(Ctl::If { pending, out, term }) = self.ctl.last_mut() else {
                        unreachable!("`else` outside its `if`")
                    };
                    *term = endif;
                    if *pending != 0 {
                        *out |= mask;
                        mask = std::mem::take(pending);
                    } else {
                        pc = endif as usize;
                    }
                }
                Op::EndIf => {
                    let Some(Ctl::If { pending, out, .. }) = self.ctl.pop() else {
                        unreachable!("`endif` outside its `if`")
                    };
                    mask |= out | pending;
                }
                Op::Loop { end } => {
                    let stalls = self.stalls;
                    self.ctl.push(Ctl::Loop { brk: 0, cont: 0, term: end, stalls });
                }
                Op::LoopEnd { start } => {
                    self.add_cost(op.issue as u64, op.lat as u64);
                    let Some(Ctl::Loop { brk, cont, stalls, .. }) = self.ctl.last_mut() else {
                        unreachable!("loop end outside its loop")
                    };
                    let cur = (mask | std::mem::take(cont)) & !*brk;
                    if cur != 0 {
                        mask = cur;
                        pc = start as usize + 1;
                        // An iteration whose atomic made no progress spins:
                        // let the sibling it waits for run.
                        if *stalls != self.stalls {
                            *stalls = self.stalls;
                            self.save(pc, mask);
                            return Ok(Stop::Yield(Yield::Spin));
                        }
                    } else {
                        mask = *brk;
                        self.ctl.pop();
                    }
                }
                Op::Break { up } => {
                    *self.loop_masks(up).0 |= mask;
                    mask = 0;
                }
                Op::Continue { up } => {
                    *self.loop_masks(up).1 |= mask;
                    mask = 0;
                }
                Op::Leave { cond, negate, cont, up } => {
                    let leave =
                        (self.cond_mask(f, cond) ^ if negate { u32::MAX } else { 0 }) & mask;
                    let stay = mask & !leave;
                    if leave != 0 && stay != 0 {
                        self.stats.divergent_branches += 1;
                        self.clock += timing::DIVERGENCE_LAT;
                    }
                    self.charge(op, mask);
                    let (brk, conts) = self.loop_masks(up);
                    *if cont { conts } else { brk } |= leave;
                    mask = stay;
                }
                Op::Stray { msg } => return Err(ExecError::Trap(msg.into())),
            }
        }
    }

    /// The lanes where the test of an [`Op::Leave`] is true.
    fn cond_mask(&self, f: &Func, cond: Cond) -> u32 {
        match cond {
            Cond::Row(s) => alu::nonzero_mask(self.read(f, s)),
            Cond::Cmp { ty, op, a, b } => {
                let mut t = [0; 32];
                alu::bin(ty, op, &mut t, self.read(f, a), self.read(f, b), u32::MAX)
                    .expect("a comparison cannot trap");
                alu::nonzero_mask(&t)
            }
        }
    }

    /// The `break` and `continue` masks of the loop `up` `if`s out from the
    /// innermost control entry.
    fn loop_masks(&mut self, up: u32) -> (&mut u32, &mut u32) {
        let i = self.ctl.len() - 1 - up as usize;
        match &mut self.ctl[i] {
            Ctl::Loop { brk, cont, .. } => (brk, cont),
            Ctl::If { .. } => unreachable!("a break or continue is lowered with its loop's depth"),
        }
    }
}

/// Iterate the set lanes of a mask, lowest first.
pub fn iter_lanes(mask: u32) -> impl Iterator<Item = u32> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let lane = rest.trailing_zeros();
            rest &= rest - 1;
            lane
        })
    })
}
