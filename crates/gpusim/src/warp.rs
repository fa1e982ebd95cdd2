//! The SIMT warp interpreter.
//!
//! Each simulated warp runs on one OS thread and executes the structured
//! SPTX IR in lockstep across its 32 lanes, carrying an explicit *active
//! mask*. Divergence works exactly like the hardware's reconvergence
//! stack, but over the structured tree: an `if` partitions the mask, a
//! `loop` keeps iterating until every lane has left via `break`/`ret`, and
//! control merges when the node finishes.
//!
//! Warps of the same block interact only through shared/global memory,
//! atomics and the block's named barriers — which is precisely the paper's
//! master/worker machinery (§3.2): worker warps park on barrier B1 while
//! the master warp executes sequential code, so those *must* run
//! concurrently; hence the thread-per-warp design.

use std::sync::atomic::AtomicU64;

use vmcommon::addr::{self, Space};
use vmcommon::fmt::FmtArg;
use vmcommon::{MemArena, Value};

use crate::barrier::{NamedBarrier, BARRIER_HOST_TIMEOUT};
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
}

/// Per-warp execution statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct WarpStats {
    pub lane_insts: u64,
    pub mem_transactions: u64,
    pub divergent_branches: u64,
}

struct Frame {
    /// Register file, reg-major: `regs[reg * 32 + lane]`.
    regs: Vec<u64>,
    /// Start of this frame's window in the warp-local memory stack.
    local_base: usize,
    /// Per-lane local bytes.
    local_size: u64,
    ret_vals: LaneVec,
    ret_mask: u32,
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
    /// Warp-private local memory stack (all lanes interleaved per frame).
    local_stack: Vec<u8>,
}

const LOCAL_STACK_LIMIT: usize = 4 << 20;

impl<'a> Warp<'a> {
    pub fn new(env: &'a BlockEnv<'a>, warp_id: u32) -> Warp<'a> {
        Warp {
            env,
            warp_id,
            frames: Vec::new(),
            clock: 0,
            issue: 0,
            stats: WarpStats::default(),
            local_stack: Vec::new(),
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

    fn special(&self, s: sptx::SpecialReg, lane: u32) -> u64 {
        use sptx::SpecialReg::*;
        let [bx, by, _bz] = self.env.block_dim;
        let lin = self.lin_tid(lane);
        match s {
            TidX => (lin % bx) as u64,
            TidY => ((lin / bx) % by) as u64,
            TidZ => (lin / (bx * by)) as u64,
            NtidX => self.env.block_dim[0] as u64,
            NtidY => self.env.block_dim[1] as u64,
            NtidZ => self.env.block_dim[2] as u64,
            CtaidX => self.env.ctaid[0] as u64,
            CtaidY => self.env.ctaid[1] as u64,
            CtaidZ => self.env.ctaid[2] as u64,
            NctaidX => self.env.grid_dim[0] as u64,
            NctaidY => self.env.grid_dim[1] as u64,
            NctaidZ => self.env.grid_dim[2] as u64,
            LaneId => lane as u64,
            WarpId => self.warp_id as u64,
        }
    }

    fn frame(&self) -> &Frame {
        self.frames.last().expect("active frame")
    }

    fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("active frame")
    }

    #[inline]
    fn reg(&self, r: sptx::Reg, lane: u32) -> u64 {
        self.frame().regs[r.0 as usize * 32 + lane as usize]
    }

    #[inline]
    fn set_reg(&mut self, r: sptx::Reg, lane: u32, v: u64) {
        self.frame_mut().regs[r.0 as usize * 32 + lane as usize] = v;
    }

    /// Evaluate an operand for one lane (raw bit pattern).
    #[inline]
    pub fn op_val(&self, o: &sptx::Operand, lane: u32) -> u64 {
        match o {
            sptx::Operand::Reg(r) => self.reg(*r, lane),
            sptx::Operand::ImmI(v) => *v as u64,
            sptx::Operand::ImmF(v) => v.to_bits(),
            sptx::Operand::Special(s) => self.special(*s, lane),
            sptx::Operand::LocalBase => {
                let f = self.frame();
                addr::make(Space::Local, f.local_base as u64 + lane as u64 * f.local_size)
            }
            sptx::Operand::SharedBase => addr::make(Space::Shared, 0),
        }
    }

    /// Uniform operand value (first active lane).
    fn op_uniform(&self, o: &sptx::Operand, mask: u32) -> u64 {
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
        self.issue += timing::BARRIER_ISSUE;
        self.env.ctx.barriers[id as usize].sync(
            expected_threads,
            &mut self.clock,
            BARRIER_HOST_TIMEOUT,
        )?;
        Ok(())
    }

    // ------------------------------------------------------------- memory

    /// Resolve a tagged guest address for `size` bytes. Returns which arena
    /// (or the local stack) it lives in.
    fn resolve(&self, a: u64) -> Result<Resolved<'_>, ExecError> {
        match addr::space(a) {
            Some(Space::Global) => Ok(Resolved::Arena(&self.env.device.global, addr::offset(a))),
            Some(Space::Shared) => Ok(Resolved::Arena(&self.env.ctx.shared, addr::offset(a))),
            Some(Space::Local) => Ok(Resolved::Local(addr::offset(a) as usize)),
            _ => Err(ExecError::Mem(vmcommon::MemError::BadSpace { addr: a })),
        }
    }

    fn load_mem(&mut self, ty: sptx::MemTy, a: u64) -> Result<u64, ExecError> {
        Ok(match self.resolve(a)? {
            Resolved::Arena(m, off) => match ty {
                sptx::MemTy::B8 => m.load_u8(off)? as u64,
                sptx::MemTy::B32 | sptx::MemTy::F32 => m.load_u32(off)? as u64,
                sptx::MemTy::B64 | sptx::MemTy::F64 => m.load_u64(off)?,
            },
            Resolved::Local(off) => {
                let size = ty.size() as usize;
                let end = off.checked_add(size).ok_or(ExecError::Trap("local overflow".into()))?;
                if end > self.local_stack.len() {
                    return Err(ExecError::Trap(format!("local read out of bounds at {off:#x}")));
                }
                let mut buf = [0u8; 8];
                buf[..size].copy_from_slice(&self.local_stack[off..end]);
                u64::from_le_bytes(buf)
            }
        })
    }

    fn store_mem(&mut self, ty: sptx::MemTy, a: u64, v: u64) -> Result<(), ExecError> {
        match self.resolve(a)? {
            Resolved::Arena(m, off) => match ty {
                sptx::MemTy::B8 => m.store_u8(off, v as u8)?,
                sptx::MemTy::B32 | sptx::MemTy::F32 => m.store_u32(off, v as u32)?,
                sptx::MemTy::B64 | sptx::MemTy::F64 => m.store_u64(off, v)?,
            },
            Resolved::Local(off) => {
                let size = ty.size() as usize;
                let end = off.checked_add(size).ok_or(ExecError::Trap("local overflow".into()))?;
                if end > self.local_stack.len() {
                    return Err(ExecError::Trap(format!("local write out of bounds at {off:#x}")));
                }
                self.local_stack[off..end].copy_from_slice(&v.to_le_bytes()[..size]);
            }
        }
        Ok(())
    }

    /// Copy raw bytes between any device-visible spaces (device-library
    /// helper, e.g. `cudadev_push_shmem`).
    pub fn copy_bytes(&mut self, dst: u64, src: u64, len: u64) -> Result<(), ExecError> {
        for i in 0..len {
            let b = self.load_mem(sptx::MemTy::B8, src + i)? as u8;
            self.store_mem(sptx::MemTy::B8, dst + i, b as u64)?;
        }
        Ok(())
    }

    /// Read a device-side NUL-terminated string.
    pub fn read_cstr(&mut self, mut a: u64) -> Result<String, ExecError> {
        let mut s = Vec::new();
        loop {
            let b = self.load_mem(sptx::MemTy::B8, a)? as u8;
            if b == 0 {
                break;
            }
            s.push(b);
            a += 1;
            if s.len() > 1 << 16 {
                return Err(ExecError::Trap("unterminated device string".into()));
            }
        }
        Ok(String::from_utf8_lossy(&s).into_owned())
    }

    /// Public typed accessors for the device library.
    pub fn mem_read_u32(&mut self, a: u64) -> Result<u32, ExecError> {
        Ok(self.load_mem(sptx::MemTy::B32, a)? as u32)
    }

    pub fn mem_write_u32(&mut self, a: u64, v: u32) -> Result<(), ExecError> {
        self.store_mem(sptx::MemTy::B32, a, v as u64)
    }

    pub fn mem_read_u64(&mut self, a: u64) -> Result<u64, ExecError> {
        self.load_mem(sptx::MemTy::B64, a)
    }

    pub fn mem_write_u64(&mut self, a: u64, v: u64) -> Result<(), ExecError> {
        self.store_mem(sptx::MemTy::B64, a, v)
    }

    /// Count coalesced 32-byte transactions for a set of lane addresses.
    fn coalesce(&mut self, addrs: &[u64], count: usize) {
        let mut segs = [u64::MAX; 32];
        let mut nsegs = 0usize;
        for &a in &addrs[..count] {
            if addr::space(a) != Some(Space::Global) {
                continue;
            }
            let seg = addr::offset(a) / timing::TRANSACTION_BYTES;
            if !segs[..nsegs].contains(&seg) {
                segs[nsegs] = seg;
                nsegs += 1;
            }
        }
        self.stats.mem_transactions += nsegs as u64;
        // Throughput: roughly one transaction per cycle of issue;
        // latency: one exposed access per instruction.
        self.issue += nsegs as u64;
        if count > 0 {
            let lat = match addr::space(addrs[0]) {
                Some(Space::Global) => timing::GLOBAL_MEM_LAT,
                Some(Space::Shared) => timing::SHARED_MEM_LAT,
                _ => timing::LOCAL_MEM_LAT,
            };
            self.clock += lat;
        }
    }

    // ------------------------------------------------------------ control

    /// Execute a kernel entry: `params` are uniform across lanes.
    pub fn run_kernel(&mut self, func: u32, params: &[u64], mask: u32) -> Result<(), ExecError> {
        let mut args = Vec::with_capacity(params.len());
        for &p in params {
            args.push([p; 32]);
        }
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
        let mut regs = vec![0u64; f.num_regs as usize * 32];
        for (i, a) in args.iter().enumerate() {
            regs[i * 32..(i + 1) * 32].copy_from_slice(a);
        }
        self.frames.push(Frame {
            regs,
            local_base,
            local_size: f.local_size,
            ret_vals: [0; 32],
            ret_mask: 0,
        });
        let body: &[sptx::Node] = &f.body;
        let mut flow = FlowMasks::default();
        let res = self.exec_nodes(body, mask, &mut flow);
        let frame = self.frames.pop().expect("frame");
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
                    let mut m_then = 0u32;
                    for lane in iter_lanes(mask) {
                        if (self.op_val(cond, lane) as u32) != 0 {
                            m_then |= 1 << lane;
                        }
                    }
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

    fn exec_inst(&mut self, i: &sptx::Inst, mask: u32) -> Result<u32, ExecError> {
        use sptx::Inst;
        let (ic, lc) = timing::inst_cost(i);
        self.add_cost(ic, lc);
        self.stats.lane_insts += mask.count_ones() as u64;
        match i {
            Inst::Mov { dst, src } => {
                for lane in iter_lanes(mask) {
                    let v = self.op_val(src, lane);
                    self.set_reg(*dst, lane, v);
                }
            }
            Inst::Bin { ty, op, dst, a, b } => {
                for lane in iter_lanes(mask) {
                    let av = self.op_val(a, lane);
                    let bv = self.op_val(b, lane);
                    let r = alu_bin(*ty, *op, av, bv, a, b)
                        .map_err(|m| ExecError::Trap(format!("{m} in warp {}", self.warp_id)))?;
                    self.set_reg(*dst, lane, r);
                }
            }
            Inst::Un { ty, op, dst, a } => {
                for lane in iter_lanes(mask) {
                    let av = self.op_val(a, lane);
                    let r = alu_un(*ty, *op, av, a);
                    self.set_reg(*dst, lane, r);
                }
            }
            Inst::Cvt { to, from, dst, src } => {
                for lane in iter_lanes(mask) {
                    let v = self.op_val(src, lane);
                    let r = convert(*to, *from, v, src);
                    self.set_reg(*dst, lane, r);
                }
            }
            Inst::Ld { ty, dst, addr: ao, offset } => {
                let mut addrs = [0u64; 32];
                let mut n = 0usize;
                for lane in iter_lanes(mask) {
                    let a = (self.op_val(ao, lane) as i64 + offset) as u64;
                    addrs[n] = a;
                    n += 1;
                    let v = self.load_mem(*ty, a)?;
                    self.set_reg(*dst, lane, v);
                }
                self.coalesce(&addrs, n);
            }
            Inst::St { ty, src, addr: ao, offset } => {
                let mut addrs = [0u64; 32];
                let mut n = 0usize;
                for lane in iter_lanes(mask) {
                    let a = (self.op_val(ao, lane) as i64 + offset) as u64;
                    addrs[n] = a;
                    n += 1;
                    let v = self.op_val(src, lane);
                    self.store_mem(*ty, a, v)?;
                }
                self.coalesce(&addrs, n);
            }
            Inst::AtomCas { dst, addr, expected, new } => {
                for lane in iter_lanes(mask) {
                    let a = self.op_val(addr, lane);
                    let e = self.op_val(expected, lane) as u32;
                    let nv = self.op_val(new, lane) as u32;
                    let old = match self.resolve(a)? {
                        Resolved::Arena(m, off) => m.cas_u32(off, e, nv)?,
                        Resolved::Local(_) => {
                            return Err(ExecError::Trap("atomic on local memory".into()))
                        }
                    };
                    self.set_reg(*dst, lane, old as u64);
                }
            }
            Inst::Atom { op, dst, addr, val } => {
                for lane in iter_lanes(mask) {
                    let a = self.op_val(addr, lane);
                    let v = self.op_val(val, lane);
                    let (m, off) = match self.resolve(a)? {
                        Resolved::Arena(m, off) => (m, off),
                        Resolved::Local(_) => {
                            return Err(ExecError::Trap("atomic on local memory".into()))
                        }
                    };
                    let old = match op {
                        sptx::AtomOp::CasB32 => unreachable!("separate instruction"),
                        sptx::AtomOp::AddI32 => m.fetch_add_u32(off, v as u32)? as u64,
                        sptx::AtomOp::AddI64 => m.fetch_add_u64(off, v)?,
                        sptx::AtomOp::AddF32 => {
                            m.fetch_add_f32(off, f32::from_bits(v as u32))?.to_bits() as u64
                        }
                        sptx::AtomOp::AddF64 => m.fetch_add_f64(off, f64::from_bits(v))?.to_bits(),
                        sptx::AtomOp::ExchB32 => m.swap_u32(off, v as u32)? as u64,
                        sptx::AtomOp::MinI32 => m.fetch_min_i32(off, v as i32)? as u32 as u64,
                        sptx::AtomOp::MaxI32 => m.fetch_max_i32(off, v as i32)? as u32 as u64,
                    };
                    self.set_reg(*dst, lane, old);
                }
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
                let mut lane_args = Vec::with_capacity(args.len());
                for a in args {
                    let mut lv = [0u64; 32];
                    for lane in iter_lanes(mask) {
                        lv[lane as usize] = self.op_val(a, lane);
                    }
                    lane_args.push(lv);
                }
                let rv = self.exec_function(*func, &lane_args, mask)?;
                if let Some(d) = dst {
                    for lane in iter_lanes(mask) {
                        self.set_reg(*d, lane, rv[lane as usize]);
                    }
                }
            }
            Inst::Intrinsic { name, dst, args, sargs } => {
                let mut lane_args = Vec::with_capacity(args.len());
                for a in args {
                    let mut lv = [0u64; 32];
                    for lane in iter_lanes(mask) {
                        lv[lane as usize] = self.op_val(a, lane);
                    }
                    lane_args.push(lv);
                }
                let rv = self.dispatch_intrinsic(name, mask, &lane_args, sargs)?;
                if let Some(d) = dst {
                    let rv = rv.unwrap_or([0; 32]);
                    for lane in iter_lanes(mask) {
                        self.set_reg(*d, lane, rv[lane as usize]);
                    }
                }
            }
            Inst::Ret { val } => {
                for lane in iter_lanes(mask) {
                    let v = val.map(|v| self.op_val(&v, lane)).unwrap_or(0);
                    let f = self.frame_mut();
                    f.ret_vals[lane as usize] = v;
                    f.ret_mask |= 1 << lane;
                }
                return Ok(0);
            }
            Inst::Trap { msg } => {
                return Err(ExecError::Trap(format!("kernel trap: {msg}")));
            }
        }
        Ok(mask)
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

enum Resolved<'m> {
    Arena(&'m MemArena, u64),
    Local(usize),
}

/// Iterate set lanes of a mask.
pub fn iter_lanes(mask: u32) -> impl Iterator<Item = u32> {
    (0..32u32).filter(move |l| mask & (1 << l) != 0)
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

// ----------------------------------------------------------------- ALU

fn alu_bin(
    ty: sptx::ScalarTy,
    op: sptx::BinOp,
    a_bits: u64,
    b_bits: u64,
    a_op: &sptx::Operand,
    b_op: &sptx::Operand,
) -> Result<u64, String> {
    use sptx::{BinOp as B, ScalarTy as T};
    // Immediates carry their natural encoding: ImmF is f64 bits, ImmI is a
    // sign-extended integer — normalize into the instruction type.
    #[inline]
    fn f32_of(bits: u64, o: &sptx::Operand) -> f32 {
        match o {
            sptx::Operand::ImmF(v) => *v as f32,
            _ => f32::from_bits(bits as u32),
        }
    }
    #[inline]
    fn f64_of(bits: u64, o: &sptx::Operand) -> f64 {
        match o {
            sptx::Operand::ImmF(v) => *v,
            _ => f64::from_bits(bits),
        }
    }
    Ok(match ty {
        T::I32 => {
            let a = a_bits as u32 as i32;
            let b = b_bits as u32 as i32;
            let r: i32 = match op {
                B::Add => a.wrapping_add(b),
                B::Sub => a.wrapping_sub(b),
                B::Mul => a.wrapping_mul(b),
                B::Div => {
                    if b == 0 {
                        return Err("division by zero".into());
                    }
                    a.wrapping_div(b)
                }
                B::Rem => {
                    if b == 0 {
                        return Err("remainder by zero".into());
                    }
                    a.wrapping_rem(b)
                }
                B::Min => a.min(b),
                B::Max => a.max(b),
                B::And => a & b,
                B::Or => a | b,
                B::Xor => a ^ b,
                B::Shl => a.wrapping_shl(b as u32),
                B::Shr => a.wrapping_shr(b as u32),
                B::SetLt => (a < b) as i32,
                B::SetLe => (a <= b) as i32,
                B::SetGt => (a > b) as i32,
                B::SetGe => (a >= b) as i32,
                B::SetEq => (a == b) as i32,
                B::SetNe => (a != b) as i32,
            };
            r as u32 as u64
        }
        T::I64 => {
            let a = a_bits as i64;
            let b = b_bits as i64;
            if op.is_comparison() {
                let r = match op {
                    B::SetLt => a < b,
                    B::SetLe => a <= b,
                    B::SetGt => a > b,
                    B::SetGe => a >= b,
                    B::SetEq => a == b,
                    B::SetNe => a != b,
                    _ => unreachable!(),
                };
                return Ok(r as u64);
            }
            let r: i64 = match op {
                B::Add => a.wrapping_add(b),
                B::Sub => a.wrapping_sub(b),
                B::Mul => a.wrapping_mul(b),
                B::Div => {
                    if b == 0 {
                        return Err("division by zero".into());
                    }
                    a.wrapping_div(b)
                }
                B::Rem => {
                    if b == 0 {
                        return Err("remainder by zero".into());
                    }
                    a.wrapping_rem(b)
                }
                B::Min => a.min(b),
                B::Max => a.max(b),
                B::And => a & b,
                B::Or => a | b,
                B::Xor => a ^ b,
                B::Shl => a.wrapping_shl(b as u32),
                B::Shr => a.wrapping_shr(b as u32),
                _ => unreachable!(),
            };
            r as u64
        }
        T::F32 => {
            let a = f32_of(a_bits, a_op);
            let b = f32_of(b_bits, b_op);
            if op.is_comparison() {
                let r = match op {
                    B::SetLt => a < b,
                    B::SetLe => a <= b,
                    B::SetGt => a > b,
                    B::SetGe => a >= b,
                    B::SetEq => a == b,
                    B::SetNe => a != b,
                    _ => unreachable!(),
                };
                return Ok(r as u64);
            }
            let r: f32 = match op {
                B::Add => a + b,
                B::Sub => a - b,
                B::Mul => a * b,
                B::Div => a / b,
                B::Rem => a % b,
                B::Min => a.min(b),
                B::Max => a.max(b),
                _ => return Err(format!("bitwise {op:?} on f32")),
            };
            r.to_bits() as u64
        }
        T::F64 => {
            let a = f64_of(a_bits, a_op);
            let b = f64_of(b_bits, b_op);
            if op.is_comparison() {
                let r = match op {
                    B::SetLt => a < b,
                    B::SetLe => a <= b,
                    B::SetGt => a > b,
                    B::SetGe => a >= b,
                    B::SetEq => a == b,
                    B::SetNe => a != b,
                    _ => unreachable!(),
                };
                return Ok(r as u64);
            }
            let r: f64 = match op {
                B::Add => a + b,
                B::Sub => a - b,
                B::Mul => a * b,
                B::Div => a / b,
                B::Rem => a % b,
                B::Min => a.min(b),
                B::Max => a.max(b),
                _ => return Err(format!("bitwise {op:?} on f64")),
            };
            r.to_bits()
        }
    })
}

fn alu_un(ty: sptx::ScalarTy, op: sptx::UnOp, bits: u64, src: &sptx::Operand) -> u64 {
    use sptx::{ScalarTy as T, UnOp as U};
    match ty {
        T::F32 => {
            let v = match src {
                sptx::Operand::ImmF(x) => *x as f32,
                _ => f32::from_bits(bits as u32),
            };
            let r: f32 = match op {
                U::Neg => -v,
                U::Not => return (v == 0.0) as u64,
                U::BitNot => f32::from_bits(!v.to_bits()),
                U::Sqrt => v.sqrt(),
                U::Abs => v.abs(),
                U::Floor => v.floor(),
                U::Ceil => v.ceil(),
                U::Exp => v.exp(),
                U::Log => v.ln(),
                U::Sin => v.sin(),
                U::Cos => v.cos(),
            };
            r.to_bits() as u64
        }
        T::F64 => {
            let v = match src {
                sptx::Operand::ImmF(x) => *x,
                _ => f64::from_bits(bits),
            };
            let r: f64 = match op {
                U::Neg => -v,
                U::Not => return (v == 0.0) as u64,
                U::BitNot => f64::from_bits(!v.to_bits()),
                U::Sqrt => v.sqrt(),
                U::Abs => v.abs(),
                U::Floor => v.floor(),
                U::Ceil => v.ceil(),
                U::Exp => v.exp(),
                U::Log => v.ln(),
                U::Sin => v.sin(),
                U::Cos => v.cos(),
            };
            r.to_bits()
        }
        T::I32 => {
            let v = bits as u32 as i32;
            let r: i32 = match op {
                U::Neg => v.wrapping_neg(),
                U::Not => (v == 0) as i32,
                U::BitNot => !v,
                U::Abs => v.wrapping_abs(),
                _ => v,
            };
            r as u32 as u64
        }
        T::I64 => {
            let v = bits as i64;
            let r: i64 = match op {
                U::Neg => v.wrapping_neg(),
                U::Not => (v == 0) as i64,
                U::BitNot => !v,
                U::Abs => v.wrapping_abs(),
                _ => v,
            };
            r as u64
        }
    }
}

fn convert(to: sptx::CvtTy, from: sptx::CvtTy, bits: u64, src: &sptx::Operand) -> u64 {
    use sptx::CvtTy as C;
    // Decode source value.
    let as_f64 = |bits: u64| -> f64 {
        match from {
            C::F32 => f32::from_bits(bits as u32) as f64,
            C::F64 => f64::from_bits(bits),
            C::I64 => bits as i64 as f64,
            C::I32 => bits as u32 as i32 as f64,
            C::S8 => bits as u8 as i8 as f64,
        }
    };
    let as_i64 = |bits: u64| -> i64 {
        match from {
            C::F32 => {
                if let sptx::Operand::ImmF(v) = src {
                    *v as i64
                } else {
                    f32::from_bits(bits as u32) as i64
                }
            }
            C::F64 => f64::from_bits(bits) as i64,
            C::I64 => bits as i64,
            C::I32 => bits as u32 as i32 as i64,
            C::S8 => bits as u8 as i8 as i64,
        }
    };
    let fsrc = if let sptx::Operand::ImmF(v) = src {
        if matches!(from, C::F32 | C::F64) {
            Some(*v)
        } else {
            None
        }
    } else {
        None
    };
    match to {
        C::S8 => (as_i64(bits) as i8) as u8 as u64,
        C::I32 => {
            let v = match fsrc {
                Some(f) => f as i32 as i64,
                None => as_i64(bits) as i32 as i64,
            };
            v as i32 as u32 as u64
        }
        C::I64 => match fsrc {
            Some(f) => (f as i64) as u64,
            None => as_i64(bits) as u64,
        },
        C::F32 => {
            let v = match fsrc {
                Some(f) => f,
                None => as_f64(bits),
            };
            (v as f32).to_bits() as u64
        }
        C::F64 => {
            let v = match fsrc {
                Some(f) => f,
                None => as_f64(bits),
            };
            v.to_bits()
        }
    }
}
