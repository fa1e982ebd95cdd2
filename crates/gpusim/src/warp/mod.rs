//! The SIMT warp interpreter.
//!
//! Each simulated warp executes the structured SPTX IR in lockstep across
//! its 32 lanes, carrying an explicit *active mask*. Divergence works
//! exactly like the hardware's reconvergence stack, but over the structured
//! tree: an `if` partitions the mask, a `loop` keeps iterating until every
//! lane has left via `break`/`ret`, and control merges when the node
//! finishes.
//!
//! **What is warp-wide.** An instruction is decoded once per warp, not once
//! per lane. Its operands resolve to whole [`LaneVec`]s (a register row,
//! an immediate splat already narrowed to the instruction type, a special
//! register from the per-warp table built in [`Warp::new`]), its
//! `(type, op)` pair is matched once, and one branch-free loop computes all
//! 32 lanes ([`alu`]); the result is blended into the destination row under
//! the mask, so inactive lanes keep their bits. `mov`, `bin`, `un`, `cvt`,
//! the `if` condition and the address/value side of `ld`/`st` all run this
//! way. `issue`/`clock` are charged once per warp instruction and
//! `lane_insts` grows by the mask's population count.
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
//! shared/global memory, atomics and the block's named barriers. The launch
//! decides from the kernel's code whether one of them can *wait* for
//! another ([`crate::waits::can_wait`]): through a `bar.sync`, through a
//! blocking device-library call ([`DeviceLib::may_wait`] — the paper's
//! master/worker machinery of §3.2, where worker warps park on barrier B1
//! while the master warp executes sequential code), or through an
//! `atom.cas`/`atom.exch`, which is how a lock or flag hand-off between
//! warps is written (the loser spins until a sibling stores again).
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

mod alu;
mod mem;
#[cfg(test)]
mod tests;

use std::borrow::Cow;
use std::sync::atomic::AtomicU64;

use sptx::{Operand, ScalarTy};
use vmcommon::addr::{self, Space};
use vmcommon::fmt::FmtArg;
use vmcommon::{MemArena, Value};

use crate::barrier::{NamedBarrier, Released, BARRIER_HOST_TIMEOUT};
use crate::device::{Device, ExecError};
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
    /// launch asks before it runs a kernel ([`crate::waits::can_wait`]); a
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
    pub module: &'a sptx::Module,
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
    /// Per-lane local bytes.
    local_size: u64,
    ret_vals: LaneVec,
}

/// Flow bookkeeping for structured execution.
#[derive(Default)]
struct FlowMasks {
    brk: Vec<u32>,
    cont: Vec<u32>,
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
}

const LOCAL_STACK_LIMIT: usize = 4 << 20;

const NUM_SPECIALS: usize = sptx::SpecialReg::WarpId as usize + 1;

/// Call-argument rows kept on the host stack; longer packs go to the heap.
const INLINE_ARGS: usize = 8;

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

    /// Register `r` of the current frame, all lanes.
    #[inline]
    fn row(&self, r: sptx::Reg) -> &LaneVec {
        let at = self.frame().reg_base + r.0 as usize * 32;
        self.regs[at..at + 32].try_into().expect("32-lane row")
    }

    #[inline]
    fn row_mut(&mut self, r: sptx::Reg) -> &mut LaneVec {
        let at = self.frame().reg_base + r.0 as usize * 32;
        (&mut self.regs[at..at + 32]).try_into().expect("32-lane row")
    }

    /// Write `v` to register `r` in the lanes of `mask`; the other lanes
    /// keep their bits.
    #[inline]
    fn set_row(&mut self, r: sptx::Reg, v: &LaneVec, mask: u32) {
        alu::blend(self.row_mut(r), v, mask);
    }

    /// Evaluate an operand in every lane (raw bit patterns): a register or
    /// special register is read in place, anything else is built.
    #[inline]
    fn operand(&self, o: &Operand) -> Cow<'_, LaneVec> {
        match o {
            Operand::Reg(r) => Cow::Borrowed(self.row(*r)),
            Operand::ImmI(v) => Cow::Owned([*v as u64; 32]),
            Operand::ImmF(v) => Cow::Owned([v.to_bits(); 32]),
            Operand::Special(s) => Cow::Borrowed(&self.specials[*s as usize]),
            Operand::LocalBase => {
                let f = self.frame();
                Cow::Owned(std::array::from_fn(|lane| {
                    addr::make(Space::Local, f.local_base as u64 + lane as u64 * f.local_size)
                }))
            }
            Operand::SharedBase => Cow::Owned([addr::make(Space::Shared, 0); 32]),
        }
    }

    /// Evaluate an operand of a `ty`-typed ALU instruction. Immediates
    /// carry their natural encoding (`ImmF` is f64 bits, `ImmI` a
    /// sign-extended integer); the one that needs normalising into the
    /// instruction type is a float literal in an f32 operation.
    #[inline]
    fn operand_as(&self, o: &Operand, ty: ScalarTy) -> Cow<'_, LaneVec> {
        match (o, ty) {
            (Operand::ImmF(v), ScalarTy::F32) => Cow::Owned([(*v as f32).to_bits() as u64; 32]),
            _ => self.operand(o),
        }
    }

    /// Evaluate an operand for one lane (raw bit pattern).
    #[inline]
    pub fn op_val(&self, o: &Operand, lane: u32) -> u64 {
        self.operand(o)[lane as usize]
    }

    /// Uniform operand value (first active lane).
    fn op_uniform(&self, o: &Operand, mask: u32) -> u64 {
        let lane = mask.trailing_zeros().min(31);
        self.op_val(o, lane)
    }

    pub fn add_cost(&mut self, issue: u64, lat: u64) {
        self.issue += issue;
        self.clock += lat;
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
        let module = self.env.module;
        let f = module
            .functions
            .get(func as usize)
            .ok_or_else(|| ExecError::Trap(format!("function index {func} out of range")))?;
        if args.len() != f.params.len() {
            return Err(ExecError::Trap(format!(
                "call to `{}` with {} args (expects {})",
                f.name,
                args.len(),
                f.params.len()
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
            local_size: f.local_size,
            ret_vals: [0; 32],
        });
        let body: &[sptx::Node] = &f.body;
        let mut flow = FlowMasks::default();
        let res = self.exec_nodes(body, mask, &mut flow);
        let frame = self.frames.pop().expect("frame");
        self.regs.truncate(frame.reg_base);
        self.local_stack.truncate(frame.local_base);
        res?;
        Ok(frame.ret_vals)
    }

    /// Execute nodes; returns the mask of lanes still active afterwards.
    fn exec_nodes(
        &mut self,
        nodes: &[sptx::Node],
        mut mask: u32,
        flow: &mut FlowMasks,
    ) -> Result<u32, ExecError> {
        for n in nodes {
            if mask == 0 {
                break;
            }
            match n {
                sptx::Node::Inst(i) => {
                    mask = self.exec_inst(i, mask)?;
                }
                sptx::Node::If { cond, then_b, else_b } => {
                    let m_then = alu::nonzero_mask(&self.operand(cond)) & mask;
                    let m_else = mask & !m_then;
                    if m_then != 0 && m_else != 0 {
                        self.stats.divergent_branches += 1;
                        self.clock += timing::DIVERGENCE_LAT;
                    }
                    self.add_cost(1, 2);
                    let mut out = 0u32;
                    if m_then != 0 {
                        out |= self.exec_nodes(then_b, m_then, flow)?;
                    }
                    if m_else != 0 {
                        out |= self.exec_nodes(else_b, m_else, flow)?;
                    }
                    mask = out;
                }
                sptx::Node::Loop { body } => {
                    flow.brk.push(0);
                    let mut cur = mask;
                    loop {
                        flow.cont.push(0);
                        let out = self.exec_nodes(body, cur, flow)?;
                        let continued = flow.cont.pop().unwrap();
                        cur = out | continued;
                        let broken = *flow.brk.last().unwrap();
                        cur &= !broken;
                        self.add_cost(1, 2);
                        if cur == 0 {
                            break;
                        }
                    }
                    mask = flow.brk.pop().unwrap();
                }
                sptx::Node::Break => {
                    *flow
                        .brk
                        .last_mut()
                        .ok_or_else(|| ExecError::Trap("break outside loop".into()))? |= mask;
                    mask = 0;
                }
                sptx::Node::Continue => {
                    *flow
                        .cont
                        .last_mut()
                        .ok_or_else(|| ExecError::Trap("continue outside loop".into()))? |= mask;
                    mask = 0;
                }
            }
        }
        Ok(mask)
    }

    /// Execute one instruction for the lanes in `mask` (never empty).
    fn exec_inst(&mut self, i: &sptx::Inst, mask: u32) -> Result<u32, ExecError> {
        use sptx::Inst;
        let (ic, lc) = timing::inst_cost(i);
        self.add_cost(ic, lc);
        self.stats.lane_insts += mask.count_ones() as u64;
        match i {
            Inst::Mov { dst, src } => {
                let v = self.operand(src).into_owned();
                self.set_row(*dst, &v, mask);
            }
            Inst::Bin { ty, op, dst, a, b } => {
                let r =
                    alu::bin(*ty, *op, &self.operand_as(a, *ty), &self.operand_as(b, *ty), mask)
                        .map_err(|m| ExecError::Trap(format!("{m} in warp {}", self.warp_id)))?;
                self.set_row(*dst, &r, mask);
            }
            Inst::Un { ty, op, dst, a } => {
                let r = alu::un(*ty, *op, &self.operand_as(a, *ty), mask);
                self.set_row(*dst, &r, mask);
            }
            Inst::Cvt { to, from, dst, src } => {
                let r = match src {
                    Operand::ImmF(f) if matches!(from, sptx::CvtTy::F32 | sptx::CvtTy::F64) => {
                        [alu::cvt_imm_f(*to, *f); 32]
                    }
                    _ => alu::cvt(*to, *from, &self.operand(src)),
                };
                self.set_row(*dst, &r, mask);
            }
            Inst::Ld { ty, dst, addr: ao, offset } => {
                let addrs = self.lane_addrs(ao, *offset);
                let v = self.load_lanes(*ty, &addrs, mask)?;
                self.set_row(*dst, &v, mask);
                self.coalesce(&addrs, mask);
            }
            Inst::St { ty, src, addr: ao, offset } => {
                let addrs = self.lane_addrs(ao, *offset);
                let v = self.operand(src).into_owned();
                self.store_lanes(*ty, &addrs, &v, mask)?;
                self.coalesce(&addrs, mask);
            }
            Inst::AtomCas { dst, addr, expected, new } => {
                let (addrs, e, n) = (self.operand(addr), self.operand(expected), self.operand(new));
                let mut old = [0u64; 32];
                for lane in iter_lanes(mask) {
                    let l = lane as usize;
                    let (m, off) = self.resolve_atomic(addrs[l])?;
                    old[l] = m.cas_u32(off, e[l] as u32, n[l] as u32)? as u64;
                }
                self.set_row(*dst, &old, mask);
            }
            Inst::Atom { op, dst, addr, val } => {
                let (addrs, v) = (self.operand(addr), self.operand(val));
                let rmw = mem::atom_fn(*op);
                let mut old = [0u64; 32];
                for lane in iter_lanes(mask) {
                    let l = lane as usize;
                    let (m, off) = self.resolve_atomic(addrs[l])?;
                    old[l] = rmw(m, off, v[l])?;
                }
                self.set_row(*dst, &old, mask);
            }
            Inst::BarSync { id, count } => {
                let idv = self.op_uniform(id, mask) as u32;
                let expected = match count {
                    Some(c) => self.op_uniform(c, mask) as u32,
                    None => self.env.nthreads.next_multiple_of(timing::WARP_SIZE),
                };
                self.bar_sync(idv, expected)?;
            }
            Inst::Call { func, dst, args } => {
                let rv =
                    self.with_args(args, mask, |w, pack| w.exec_function(*func, pack, mask))?;
                if let Some(d) = dst {
                    self.set_row(*d, &rv, mask);
                }
            }
            Inst::Intrinsic { name, dst, args, sargs } => {
                let rv = self.with_args(args, mask, |w, pack| {
                    w.dispatch_intrinsic(name, mask, pack, sargs)
                })?;
                if let Some(d) = dst {
                    self.set_row(*d, &rv.unwrap_or([0; 32]), mask);
                }
            }
            Inst::Ret { val } => {
                let v = val.map_or([0; 32], |v| self.operand(&v).into_owned());
                let f = self.frames.last_mut().expect("active frame");
                alu::blend(&mut f.ret_vals, &v, mask);
                return Ok(0);
            }
            Inst::Trap { msg } => {
                return Err(ExecError::Trap(format!("kernel trap: {msg}")));
            }
        }
        Ok(mask)
    }

    /// `addr + offset` in every lane (wrapping: an inactive lane may hold
    /// anything).
    #[inline]
    fn lane_addrs(&self, addr: &Operand, offset: i64) -> LaneVec {
        self.operand(addr).map(|a| (a as i64).wrapping_add(offset) as u64)
    }

    /// Evaluate call arguments into rows (active lanes hold the operand,
    /// inactive lanes 0) and run `callee` on them. Up to [`INLINE_ARGS`]
    /// rows live in this frame — kept out of `exec_inst`'s, which every
    /// instruction pays for — and longer packs on the heap.
    #[inline(never)]
    fn with_args<R>(
        &mut self,
        args: &[Operand],
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
            alu::blend(row, &self.operand(a), mask);
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
