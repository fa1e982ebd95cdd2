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
//! side of `ld`/`st` all run this way. `issue`/`clock` are charged once per
//! warp instruction from the costs stored on the op, and `lane_insts` grows
//! by the mask's population count.
//!
//! **What stays lane-ordered, and why.** Wherever the order of lanes is
//! observable the interpreter walks the active lanes lowest first
//! ([`mem`]): memory accesses (the fault reported is the lowest faulting
//! lane's, and of two lanes storing to one address the higher wins),
//! atomics (a float `atom.add` accumulates in lane order), integer
//! `div`/`rem` (only an executing lane may trap on a zero divisor), and
//! device-library calls.
//!
//! **Who runs a warp.** Warps of one block interact only through
//! shared/global memory, atomics and the block's named barriers. The
//! program records, per kernel, whether one of them can *wait* for another
//! ([`crate::waits::can_wait`]): through a `bar.sync`, through a blocking
//! device-library call ([`DeviceLib::may_wait`] — the paper's master/worker
//! machinery of §3.2, where worker warps park on barrier B1 while the master
//! warp executes sequential code), or through an `atom.cas`/`atom.exch`,
//! which is how a lock or flag hand-off between warps is written (the loser
//! spins until a sibling stores again).
//!
//! * A kernel that cannot wait runs warp 0, 1, 2, … to completion on the
//!   block worker's thread. There is nothing to schedule: no warp ever
//!   needs a sibling to have run, and the order in which the block's warps
//!   touch memory — float atomics included — is the same on every run.
//!   Should such a warp reach [`Warp::bar_sync`] after all (a library whose
//!   `may_wait` left a call out), it traps at once; it never parks.
//! * A kernel that can wait gets one OS thread per warp, so the warps of
//!   its block run concurrently, and a warp that fails aborts the block
//!   ([`BlockCtx::abort`]) so parked siblings leave at once instead of
//!   waiting out the deadlock timeout. Here the interleaving of warps — and
//!   with it the order of float atomics to one address — is the host
//!   scheduler's.
//!
//! What neither gives: with more than one block worker, atomics from
//! *different blocks* to one address land in host order. And a kernel that
//! spins on a plain `ld` until a higher-numbered sibling warp stores is
//! not recognised as waiting: run inline it spins forever, the one shape
//! that a thread per warp ran and this rule does not.

pub(crate) mod alu;
mod mem;
#[cfg(test)]
mod tests;

use std::cmp::Ordering;
use std::sync::atomic::AtomicU64;

use vmcommon::addr::{self, Space};
use vmcommon::fmt::FmtArg;
use vmcommon::{MemArena, Value};

use crate::barrier::{NamedBarrier, Released, BARRIER_HOST_TIMEOUT};
use crate::device::{Device, ExecError};
use crate::program::{Func, Op, Program, Src, WarpOp};
use crate::timing;

/// One value per lane.
pub type LaneVec = [u64; 32];

/// The device runtime library: resolves `intr` calls the core simulator
/// does not handle itself. Implemented by cudadev's device part.
pub trait DeviceLib: Send + Sync {
    fn call(
        &self,
        name: &str,
        warp: &mut Warp<'_>,
        mask: u32,
        args: &[LaneVec],
        sargs: &[String],
    ) -> Result<Option<LaneVec>, ExecError>;

    /// Can a call to `name` make the calling warp wait until a sibling warp
    /// of its block acts — in practice, arrives at a named barrier? The
    /// program asks when it lowers a kernel ([`crate::waits::can_wait`]); a
    /// library that answers `false` for a call that does reach
    /// [`Warp::bar_sync`] gets a trap, not a hang.
    fn may_wait(&self, _name: &str) -> bool {
        false
    }
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
    ) -> Result<Option<LaneVec>, ExecError> {
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
    /// The 16 PTX named barriers.
    pub barriers: Vec<NamedBarrier>,
    /// Device-library scratch (e.g. parallel-region registration record).
    pub ext: [AtomicU64; EXT_SLOTS],
}

impl BlockCtx {
    pub fn new(shared_bytes: usize) -> BlockCtx {
        BlockCtx {
            shared: MemArena::new(shared_bytes),
            barriers: (0..16).map(NamedBarrier::new).collect(),
            ext: Default::default(),
        }
    }

    /// Tear the block down after a warp failed: every warp parked on one of
    /// its barriers, and every later arrival, returns at once with
    /// [`ExecError::BlockAborted`]. The failing warp calls this; its own
    /// error is the one the launch reports.
    pub fn abort(&self) {
        for b in &self.barriers {
            b.abort();
        }
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
    /// Name of the kernel being run (diagnostics).
    pub kernel: &'a str,
    /// The launch found that this kernel cannot wait on a sibling warp, so
    /// the block's warps run one after another on one thread: a barrier one
    /// of them parks on could never be released.
    pub inline_warps: bool,
}

/// Per-warp execution statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct WarpStats {
    pub lane_insts: u64,
    pub mem_transactions: u64,
    pub divergent_branches: u64,
}

struct Frame {
    /// Start of this frame's registers in the warp's register stack
    /// (reg-major: register `r`, lane `l` is `regs[reg_base + r * 32 + l]`).
    reg_base: usize,
    /// Start of this frame's window in the warp-local memory stack.
    local_base: usize,
    /// Each lane's `.local` base address in this frame.
    local_row: LaneVec,
    ret_vals: LaneVec,
}

/// An `if` or `loop` a warp is executing: one entry of its mask stack.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ctl {
    /// `pending`: the lanes still owed the else side; `out`: the lanes that
    /// finished a side; `term`: where a side left without lanes goes.
    If { pending: u32, out: u32, term: u32 },
    /// `brk`: the lanes that left by `break`; `cont`: the lanes that
    /// `continue`d this iteration; `term`: the `LoopEnd`.
    Loop { brk: u32, cont: u32, term: u32 },
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
        }
    }

    /// Lanes of this warp that exist in the block.
    pub fn initial_mask(&self) -> u32 {
        let first = self.warp_id * 32;
        let live = self.env.nthreads.saturating_sub(first).min(32);
        if live == 0 {
            0
        } else if live == 32 {
            u32::MAX
        } else {
            (1u32 << live) - 1
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

    /// Write `v` to register row `dst` in the lanes of `mask`; the other
    /// lanes keep their bits.
    fn set_row(&mut self, dst: u32, v: &LaneVec, mask: u32) {
        let at = self.frame().reg_base + dst as usize;
        let out = (&mut self.regs[at..at + 32]).try_into().expect("32-lane row");
        alu::blend(out, v, mask);
    }

    pub fn add_cost(&mut self, issue: u64, lat: u64) {
        self.issue += issue;
        self.clock += lat;
    }

    /// Charge one instruction for the lanes of `mask`.
    #[inline(always)]
    fn charge(&mut self, op: &WarpOp, mask: u32) {
        self.add_cost(op.issue as u64, op.lat as u64);
        self.stats.lane_insts += mask.count_ones() as u64;
    }

    /// Arrive at named barrier `id` on behalf of this warp.
    pub fn bar_sync(&mut self, id: u32, expected_threads: u32) -> Result<(), ExecError> {
        if id as usize >= self.env.ctx.barriers.len() {
            return Err(ExecError::Trap(format!("barrier id {id} out of range")));
        }
        if expected_threads == 0 || !expected_threads.is_multiple_of(timing::WARP_SIZE) {
            return Err(ExecError::Trap(format!(
                "bar.sync count {expected_threads} is not a positive multiple of {}",
                timing::WARP_SIZE
            )));
        }
        // More threads than the block's warps hold can never arrive.
        let nthreads = self.env.nthreads;
        if expected_threads > nthreads.next_multiple_of(timing::WARP_SIZE) {
            return Err(ExecError::Trap(format!(
                "bar.sync {id} waits for {expected_threads} threads but the block has \
                 {nthreads}"
            )));
        }
        if self.env.inline_warps {
            return Err(ExecError::Trap(format!(
                "kernel `{}` reached bar.sync {id} in warp {} but was classified as never \
                 waiting on a sibling warp (DeviceLib::may_wait must name every blocking call)",
                self.env.kernel, self.warp_id
            )));
        }
        self.issue += timing::BARRIER_ISSUE;
        match self.env.ctx.barriers[id as usize].sync(
            expected_threads,
            &mut self.clock,
            BARRIER_HOST_TIMEOUT,
        )? {
            Released::Complete => Ok(()),
            Released::Aborted => Err(ExecError::BlockAborted),
        }
    }

    // ------------------------------------------------------------ control

    /// Execute a kernel entry: `params` are uniform across lanes.
    pub fn run_kernel(&mut self, func: u32, params: &[u64], mask: u32) -> Result<(), ExecError> {
        let args: Vec<LaneVec> = params.iter().map(|&p| [p; 32]).collect();
        self.exec_function(func, &args, mask)?;
        Ok(())
    }

    /// Execute a device function on this warp for the lanes in `mask`.
    /// Returns per-lane return values.
    pub fn call_device_fn(
        &mut self,
        func: u32,
        args: &[LaneVec],
        mask: u32,
    ) -> Result<LaneVec, ExecError> {
        self.exec_function(func, args, mask)
    }

    fn exec_function(
        &mut self,
        func: u32,
        args: &[LaneVec],
        mask: u32,
    ) -> Result<LaneVec, ExecError> {
        let program = self.env.program;
        let f = program
            .funcs
            .get(func as usize)
            .ok_or_else(|| ExecError::Trap(format!("function index {func} out of range")))?;
        if args.len() != f.params {
            return Err(ExecError::Trap(format!(
                "call to `{}` with {} args (expects {})",
                f.name,
                args.len(),
                f.params
            )));
        }
        if self.frames.len() >= 64 {
            return Err(ExecError::Trap("device call stack overflow".into()));
        }
        let local_base = self.local_stack.len();
        let local_total = f.local_size as usize * 32;
        if local_base + local_total > LOCAL_STACK_LIMIT {
            return Err(ExecError::Trap("local memory exhausted".into()));
        }
        self.local_stack.resize(local_base + local_total, 0);
        // The frame's registers start zeroed, arguments in the first rows.
        let reg_base = self.regs.len();
        self.regs.resize(reg_base + f.num_regs as usize * 32, 0);
        for (i, a) in args.iter().enumerate() {
            self.regs[reg_base + i * 32..reg_base + (i + 1) * 32].copy_from_slice(a);
        }
        self.frames.push(Frame {
            reg_base,
            local_base,
            local_row: std::array::from_fn(|lane| {
                addr::make(Space::Local, local_base as u64 + lane as u64 * f.local_size)
            }),
            ret_vals: [0; 32],
        });
        let ctl = self.ctl.len();
        let res = self.run(f, mask);
        self.ctl.truncate(ctl);
        let frame = self.frames.pop().expect("frame");
        self.regs.truncate(frame.reg_base);
        self.local_stack.truncate(frame.local_base);
        res?;
        Ok(frame.ret_vals)
    }

    /// Step through `f`'s ops on the running frame for the lanes in `mask`;
    /// returns the lanes that reach its end. Each `If`/`Loop` pushes a
    /// control entry that its `EndIf`/`LoopEnd` pops; whenever the mask is
    /// empty the warp goes to the innermost entry's terminator, or leaves
    /// `f` when it is inside none.
    fn run(&mut self, f: &Func, mut mask: u32) -> Result<u32, ExecError> {
        let ops = &f.ops[..];
        let base = self.ctl.len();
        let mut pc = 0;
        loop {
            if mask == 0 {
                pc = self.ctl[base..].last().map_or(ops.len(), Ctl::term);
            }
            let Some(op) = ops.get(pc) else { return Ok(mask) };
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
                    self.bar_sync(id, expected)?;
                }
                Op::Call { func, dst, ref args } => {
                    self.charge(op, mask);
                    let rv =
                        self.with_args(f, args, mask, |w, pack| w.exec_function(func, pack, mask))?;
                    if let Some(d) = dst {
                        self.set_row(d, &rv, mask);
                    }
                }
                Op::Intrinsic(ref i) => {
                    self.charge(op, mask);
                    let rv = self.with_args(f, &i.args, mask, |w, pack| {
                        w.dispatch_intrinsic(&i.name, mask, pack, &i.sargs)
                    })?;
                    if let Some(d) = i.dst {
                        self.set_row(d, &rv.unwrap_or([0; 32]), mask);
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
                Op::Loop { end } => self.ctl.push(Ctl::Loop { brk: 0, cont: 0, term: end }),
                Op::LoopEnd { start } => {
                    self.add_cost(op.issue as u64, op.lat as u64);
                    let Some(Ctl::Loop { brk, cont, .. }) = self.ctl.last_mut() else {
                        unreachable!("loop end outside its loop")
                    };
                    let cur = (mask | std::mem::take(cont)) & !*brk;
                    if cur != 0 {
                        mask = cur;
                        pc = start as usize + 1;
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
                Op::Stray { msg } => return Err(ExecError::Trap(msg.into())),
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

    /// Evaluate call arguments into rows (active lanes hold the operand,
    /// inactive lanes 0) and run `callee` on them. Up to [`INLINE_ARGS`]
    /// rows live in this frame — kept out of `run`'s, which every op pays
    /// for — and longer packs on the heap.
    #[inline(never)]
    fn with_args<R>(
        &mut self,
        f: &Func,
        args: &[Src],
        mask: u32,
        callee: impl FnOnce(&mut Self, &[LaneVec]) -> R,
    ) -> R {
        let mut inline = [[0u64; 32]; INLINE_ARGS];
        let mut spill = Vec::new();
        let rows = if args.len() <= INLINE_ARGS {
            &mut inline[..args.len()]
        } else {
            spill.resize(args.len(), [0; 32]);
            &mut spill[..]
        };
        for (row, a) in rows.iter_mut().zip(args) {
            alu::blend(row, self.read(f, *a), mask);
        }
        callee(self, rows)
    }

    fn dispatch_intrinsic(
        &mut self,
        name: &str,
        mask: u32,
        args: &[LaneVec],
        sargs: &[String],
    ) -> Result<Option<LaneVec>, ExecError> {
        match name {
            "printf" => {
                let fmt = sargs
                    .first()
                    .cloned()
                    .ok_or_else(|| ExecError::Trap("device printf without format".into()))?;
                let kinds = crate::printf_arg_kinds(&fmt);
                let mut out = String::new();
                for lane in iter_lanes(mask) {
                    let mut fargs = Vec::new();
                    for (ai, is_str) in kinds.iter().enumerate() {
                        let bits = args.get(ai).map(|a| a[lane as usize]).unwrap_or(0);
                        if *is_str {
                            fargs.push(FmtArg::Str(self.read_cstr(bits)?));
                        } else {
                            // Device printf promotes f32 to f64 at the call
                            // site (handled by the compiler); raw bits here
                            // are i64 or f64.
                            fargs.push(FmtArg::Val(decode_printf_arg(bits, &fmt, ai)));
                        }
                    }
                    out.push_str(&vmcommon::fmt::format(&fmt, &fargs));
                }
                self.env.device.printf_output.lock().push_str(&out);
                Ok(Some([out.len() as u64; 32]))
            }
            _ => {
                let lib = self.env.lib;
                lib.call(name, self, mask, args, sargs)
            }
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

/// Decode a printf argument from raw bits based on the conversion kind.
fn decode_printf_arg(bits: u64, fmt: &str, index: usize) -> Value {
    // Find the index-th conversion to decide integer vs float.
    let mut seen = 0usize;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            continue;
        }
        if chars.peek() == Some(&'%') {
            chars.next();
            continue;
        }
        let mut conv = None;
        for c in chars.by_ref() {
            if c.is_ascii_alphabetic() && !matches!(c, 'l' | 'z' | 'h') {
                conv = Some(c);
                break;
            }
        }
        if let Some(conv) = conv {
            if seen == index {
                return match conv {
                    'f' | 'F' | 'e' | 'E' | 'g' | 'G' => Value::F64(f64::from_bits(bits)),
                    'p' | 'x' | 'X' | 'u' => Value::I64(bits as i64),
                    _ => Value::I64(bits as i64),
                };
            }
            seen += 1;
        }
    }
    Value::I64(bits as i64)
}
