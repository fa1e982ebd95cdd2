//! The register bytecode VM, [`Interp`] — the host executor.
//!
//! Executes [`crate::bytecode::CompiledProgram`]s produced by
//! [`crate::compile`]: one per [`crate::Image`], shared by every machine
//! instantiated from it. Semantics are bit-identical to the tree-walking
//! oracle ([`crate::walker`]): every arithmetic step goes through the
//! shared [`crate::rt`] helpers, typed memory access replicates the
//! walker's `load_typed`/`store_typed` byte-for-byte, and trap conditions
//! carry the walker's exact messages. Only dispatch cost differs.
//!
//! Execution model: one `Value` register stack per [`Interp`], on which each
//! guest call pushes a window of its chunk's `nregs` registers (the
//! compiler pre-resolves scalar locals into window slots; a call's
//! arguments are read in place from the caller's window, so no call
//! allocates), a guest-memory stack frame identical to the walker's for
//! address-taken and aggregate locals, and guest-to-guest calls on an
//! explicit [`Frame`] stack — guest recursion must not consume host stack,
//! whose debug-build frames would overflow well before the guest's
//! configurable frame limit (`OMPI_GUEST_STACK`, default 200).
//!
//! The typed and fused ops (`AddI` … `IncI`) run a fast path when their
//! operands carry the tags the specialisation pass proved, calling the
//! same `rt` domain helpers as `apply_binop`; any other tag runs the
//! generic sequence the op replaced, so a wrong proof costs speed, never
//! a different answer.
//!
//! Billing and counting go per straight run, not per op: entering a run
//! (frame entry, call return, either arm of a branch) adds its length
//! ([`crate::bytecode::Chunk::run_len`]) to the unbilled fuel, checks the
//! fuel/deadline checkpoint once enough has accumulated, and bumps one
//! entry counter in a flat per-[`Interp`] buffer. When the top-level call
//! returns, the entry counts flush to the machine's atomic counters as
//! the instruction count, its six dispatch categories and (with hotspots
//! on) per-pc hits (see `obs`'s `vm.*` metrics). Every dispatched op
//! counts once, in its own category, for every call that returns; a trap
//! bills the rest of its run too.

use std::sync::Arc;

use vmcommon::addr::{self, Space};
use vmcommon::{MemArena, MemError, Value};

use crate::ast::BinOp;
use crate::bytecode::{CompiledProgram, Op, ParamSpec, TyK, R};
use crate::interp::{HookCtx, Hooks, IResult, InterpError, Machine, STACK_SIZE};
use crate::limits::{GuestLimitError, FUEL_CHECK_INTERVAL};
use crate::rt;

/// An execution context: one per OS thread, with its own guest stack.
pub struct Interp {
    machine: Arc<Machine>,
    hooks: Arc<dyn Hooks>,
    stack_block: u64,
    sp: u64,
    depth: u32,
    /// Instructions since the last fuel/deadline checkpoint; billed to the
    /// machine's fuel pool once at least [`FUEL_CHECK_INTERVAL`] ops have
    /// accumulated and drained (without trapping) at flush.
    unbilled: u64,
    /// Run entries since the last flush, laid out by
    /// [`crate::bytecode::Chunk::base`]: per chunk an "entered" flag, then
    /// one count per pc (non-zero only where a run starts).
    entries: Vec<u64>,
    /// Attribute dispatch to source lines (snapshot of the machine flag).
    hot: bool,
    /// The register stack: a guest frame is the window
    /// `[reg_base, reg_base + nregs)`, pushed on call, truncated on return.
    regs: Vec<Value>,
}

impl Interp {
    /// Create a VM with a fresh guest stack. Runs global initializers on
    /// first creation per machine (compiling the image's program if no
    /// machine has yet).
    pub fn new(machine: Arc<Machine>, hooks: Arc<dyn Hooks>) -> IResult<Interp> {
        let stack_block = machine.heap.lock().alloc(STACK_SIZE)?;
        let hot = machine.hotspots_enabled();
        let mut vm = Interp {
            machine,
            hooks,
            stack_block,
            sp: stack_block,
            depth: 0,
            unbilled: 0,
            entries: Vec::new(),
            hot,
            regs: Vec::new(),
        };
        vm.init_globals_once()?;
        Ok(vm)
    }

    fn init_globals_once(&mut self) -> IResult<()> {
        let image = self.machine.image.clone();
        let prog = image.compiled();
        let Some(idx) = prog.init_chunk else { return Ok(()) };
        self.machine.clone().init_globals_once(|| {
            let r = self.call_chunk(prog, idx, &[]);
            self.flush_counters(prog);
            r.map(drop)
        })
    }

    /// Run `main` (or any entry) with no arguments.
    pub fn run_main(&mut self) -> IResult<Value> {
        self.call("main", &[])
    }

    /// Call a guest function by name.
    pub fn call(&mut self, name: &str, args: &[Value]) -> IResult<Value> {
        let image = self.machine.image.clone();
        let prog = image.compiled();
        let idx = match prog.fn_chunk.get(name) {
            Some(&i) => i,
            None => return Err(InterpError::Trap(format!("undefined function `{name}`"))),
        };
        let r = self.call_chunk(prog, idx, args);
        self.flush_counters(prog);
        r
    }

    fn flush_counters(&mut self, prog: &CompiledProgram) {
        // Bill the partial fuel interval without trapping: a drained pool
        // then traps at the first checkpoint of the next call.
        self.machine.limits.drain_fuel(self.unbilled);
        self.unbilled = 0;
        // An op runs once per entry of every run that covers it, and
        // counts once, in its category.
        let mut dispatch = [0u64; 6];
        let mut hits = Vec::new();
        for (ci, chunk) in prog.chunks.iter().enumerate() {
            let Some(slots) = self.entries.get_mut(chunk.base as usize..) else { break };
            let (entered, counts) = slots.split_first_mut().expect("a chunk has a flag slot");
            if std::mem::take(entered) == 0 {
                continue;
            }
            hits.clear();
            let mut live = 0;
            for (op, n) in chunk.code.iter().zip(counts.iter_mut()) {
                live += std::mem::take(n);
                dispatch[op.cat() as usize] += live;
                if self.hot {
                    hits.push(live);
                }
                if op.ends_run() {
                    live = 0;
                }
            }
            if self.hot {
                self.machine.add_line_hits(ci as u32, &hits);
            }
        }
        let instructions = dispatch.iter().sum::<u64>();
        if instructions != 0 {
            self.machine.add_vm_counters(instructions, &dispatch);
        }
    }

    fn call_chunk(&mut self, prog: &CompiledProgram, idx: u32, args: &[Value]) -> IResult<Value> {
        // An error abandons every frame entered since this call (guest
        // state is about to be reported broken anyway) — restore the
        // stack pointer, depth and register stack wholesale.
        let (sp0, depth0) = (self.sp, self.depth);
        let mut regs = std::mem::take(&mut self.regs);
        let len0 = regs.len();
        // The host's arguments sit below the first window, like a caller's.
        regs.extend_from_slice(args);
        let mut entries = std::mem::take(&mut self.entries);
        if entries.len() < prog.counter_len() {
            entries.resize(prog.counter_len(), 0);
        }
        let r = self.run(prog, idx, &mut regs, len0, &mut entries);
        self.entries = entries;
        regs.truncate(len0);
        self.regs = regs;
        if r.is_err() {
            self.sp = sp0;
            self.depth = depth0;
        }
        r
    }

    /// Bill the unbilled fuel and check the deadline.
    #[cold]
    #[inline(never)]
    fn checkpoint(&mut self) -> IResult<()> {
        self.machine.limits.checkpoint(self.unbilled)?;
        self.unbilled = 0;
        Ok(())
    }

    /// Enter a guest frame: checks, guest-stack reservation, register
    /// window setup, parameter binding. On error the caller unwinds
    /// `sp`/`depth` (see `call_chunk`).
    /// The `nargs` arguments are `regs[args..]`; the callee's window is
    /// pushed at the top of `regs`.
    fn new_frame(
        &mut self,
        prog: &CompiledProgram,
        idx: u32,
        regs: &mut Vec<Value>,
        (args, nargs): (usize, usize),
        ret_dst: u16,
    ) -> IResult<Frame> {
        // Same order as the walker's `call_def`: depth first, then argc,
        // then the hard stack block, then the governor's byte ceiling.
        let stack_limit = self.machine.limits.stack_limit();
        if self.depth > stack_limit {
            return Err(GuestLimitError::StackOverflow { limit: stack_limit }.into());
        }
        let chunk = &prog.chunks[idx as usize];
        if nargs != chunk.params.len() {
            return Err(InterpError::Trap(format!(
                "call to `{}` with {} args (expected {})",
                chunk.name,
                nargs,
                chunk.params.len()
            )));
        }
        let saved_sp = self.sp;
        let base = self.sp.next_multiple_of(16);
        if base + chunk.frame_size > self.stack_block + STACK_SIZE {
            return Err(InterpError::Trap("guest stack exhausted".into()));
        }
        // Stack usage derives from `sp`, so unwinding needs no credits;
        // identical frame layouts keep this check engine-agnostic.
        self.machine.limits.check_footprint(base + chunk.frame_size - self.stack_block)?;
        self.sp = base + chunk.frame_size;
        self.depth += 1;

        let reg_base = regs.len();
        regs.resize(reg_base + chunk.nregs as usize, Value::I32(0));
        for &(r, ty) in &chunk.zero_init {
            regs[reg_base + r as usize] = zero_k(ty);
        }
        for (k, spec) in chunk.params.iter().enumerate() {
            let v = regs[args + k];
            match spec {
                ParamSpec::Reg { reg, ty } => regs[reg_base + *reg as usize] = convert_k(v, *ty),
                ParamSpec::Mem { off, ty } => {
                    let a = addr::make(Space::Host, addr::offset(base) + *off as u64);
                    store_k(&self.machine, a, *ty, v)?;
                }
            }
        }
        Ok(Frame { chunk: idx, pc: 0, base, saved_sp, ret_dst, reg_base })
    }

    /// The dispatch loop, over an explicit guest call stack. `entries` is
    /// the run-entry buffer (see [`Interp::entries`]), sized for `prog`.
    fn run(
        &mut self,
        prog: &CompiledProgram,
        idx: u32,
        stack: &mut Vec<Value>,
        args: usize,
        entries: &mut [u64],
    ) -> IResult<Value> {
        let mut frames: Vec<Frame> = Vec::new();
        let mut cur = self.new_frame(prog, idx, stack, (args, stack.len() - args), 0)?;
        let machine = self.machine.clone();
        let mem = &machine.mem;
        'frame: loop {
            let chunk = &prog.chunks[cur.chunk as usize];
            let code = &chunk.code;
            // The chunk's "entered" flag, then its per-pc entry counts.
            let base = chunk.base as usize;
            entries[base] = 1;
            // Enter the run starting at `$pc`: count it, bill its length.
            macro_rules! enter {
                ($pc:expr) => {{
                    let at: usize = $pc;
                    entries[base + 1 + at] += 1;
                    self.unbilled += chunk.run_len[at] as u64;
                    if self.unbilled >= FUEL_CHECK_INTERVAL {
                        self.checkpoint()?;
                    }
                    at
                }};
            }
            let frame_off = addr::offset(cur.base);
            let mut pc = enter!(cur.pc);
            let regs = &mut stack[cur.reg_base..cur.reg_base + chunk.nregs as usize];
            loop {
                match &code[pc] {
                    Op::Const { dst, idx } => {
                        regs[*dst as usize] = prog.consts[*idx as usize];
                    }
                    Op::Mov { dst, src } => regs[*dst as usize] = regs[*src as usize],
                    Op::Conv { dst, src, ty } => {
                        regs[*dst as usize] = convert_k(regs[*src as usize], *ty);
                    }
                    Op::FrameAddr { dst, off } => {
                        regs[*dst as usize] =
                            Value::Ptr(addr::make(Space::Host, frame_off + *off as u64));
                    }
                    Op::LoadSlot { dst, off, ty } => {
                        regs[*dst as usize] = load_arena(mem, frame_off + *off as u64, *ty)?;
                    }
                    Op::StoreSlot { off, src, ty } => {
                        store_arena(mem, frame_off + *off as u64, *ty, regs[*src as usize])?;
                    }
                    Op::LoadAbs { dst, at, ty } => {
                        let a = prog.consts[*at as usize].as_ptr();
                        regs[*dst as usize] = load_k(&machine, a, *ty)?;
                    }
                    Op::StoreAbs { at, src, ty } => {
                        let a = prog.consts[*at as usize].as_ptr();
                        store_k(&self.machine, a, *ty, regs[*src as usize])?;
                    }
                    Op::Load { dst, addr, off, ty } => {
                        let p = regs[*addr as usize].as_ptr();
                        if p == 0 {
                            return Err(InterpError::Mem(MemError::Null));
                        }
                        regs[*dst as usize] = load_k(&machine, p.wrapping_add(*off as u64), *ty)?;
                    }
                    Op::Store { addr, off, src, ty } => {
                        let p = regs[*addr as usize].as_ptr();
                        if p == 0 {
                            return Err(InterpError::Mem(MemError::Null));
                        }
                        store_k(&machine, p.wrapping_add(*off as u64), *ty, regs[*src as usize])?;
                    }
                    Op::LoadIdx { dst, base, idx, stride, ty } => {
                        let a =
                            idx_addr(regs[*base as usize], regs[*idx as usize], *stride as u64)?;
                        regs[*dst as usize] = load_k(&machine, a, *ty)?;
                    }
                    Op::StoreIdx { base, idx, stride, src, ty } => {
                        let a =
                            idx_addr(regs[*base as usize], regs[*idx as usize], *stride as u64)?;
                        store_k(&self.machine, a, *ty, regs[*src as usize])?;
                    }
                    Op::AddrIdx { dst, base, idx, stride } => {
                        let a =
                            idx_addr(regs[*base as usize], regs[*idx as usize], *stride as u64)?;
                        regs[*dst as usize] = Value::Ptr(a);
                    }
                    Op::LoadIdxD { dst, base, idx, stride, ty } => {
                        let s = regs[*stride as usize].as_i64() as u64;
                        let a = idx_addr(regs[*base as usize], regs[*idx as usize], s)?;
                        regs[*dst as usize] = load_k(&machine, a, *ty)?;
                    }
                    Op::StoreIdxD { base, idx, stride, src, ty } => {
                        let s = regs[*stride as usize].as_i64() as u64;
                        let a = idx_addr(regs[*base as usize], regs[*idx as usize], s)?;
                        store_k(&self.machine, a, *ty, regs[*src as usize])?;
                    }
                    Op::AddrIdxD { dst, base, idx, stride } => {
                        let s = regs[*stride as usize].as_i64() as u64;
                        let a = idx_addr(regs[*base as usize], regs[*idx as usize], s)?;
                        regs[*dst as usize] = Value::Ptr(a);
                    }
                    Op::ChkNull { src } => {
                        if regs[*src as usize].as_ptr() == 0 {
                            return Err(InterpError::Mem(MemError::Null));
                        }
                    }
                    Op::Stride { dst, extent, elem } => {
                        let n = regs[*extent as usize].as_i64();
                        if n < 0 {
                            return Err(InterpError::Trap("negative VLA extent".into()));
                        }
                        regs[*dst as usize] = Value::I64((*elem as u64 * n as u64) as i64);
                    }
                    Op::StrideD { dst, extent, elem } => {
                        let n = regs[*extent as usize].as_i64();
                        if n < 0 {
                            return Err(InterpError::Trap("negative VLA extent".into()));
                        }
                        let e = regs[*elem as usize].as_i64() as u64;
                        regs[*dst as usize] = Value::I64((e * n as u64) as i64);
                    }
                    Op::Bin { op, dst, a, b, stride } => {
                        regs[*dst as usize] = rt::apply_binop(
                            *op,
                            regs[*a as usize],
                            *stride as u64,
                            regs[*b as usize],
                        )?;
                    }
                    Op::BinD { op, dst, a, b, stride } => {
                        let s = regs[*stride as usize].as_i64() as u64;
                        regs[*dst as usize] =
                            rt::apply_binop(*op, regs[*a as usize], s, regs[*b as usize])?;
                    }
                    Op::PtrDiff { dst, a, b, stride } => {
                        let s = *stride as u64;
                        regs[*dst as usize] = ptr_diff(regs[*a as usize], regs[*b as usize], s);
                    }
                    Op::PtrDiffD { dst, a, b, stride } => {
                        let s = regs[*stride as usize].as_i64() as u64;
                        regs[*dst as usize] = ptr_diff(regs[*a as usize], regs[*b as usize], s);
                    }
                    Op::FmaAssign { dst, a, b, ty } => {
                        // Exactly the walker's compound-assign: rhs product,
                        // then accumulate, then convert — two rounding steps.
                        let t =
                            rt::apply_binop(BinOp::Mul, regs[*a as usize], 1, regs[*b as usize])?;
                        let s = rt::apply_binop(BinOp::Add, regs[*dst as usize], 1, t)?;
                        regs[*dst as usize] = convert_k(s, *ty);
                    }
                    Op::Neg { dst, src } => {
                        regs[*dst as usize] = match regs[*src as usize] {
                            Value::I32(v) => Value::I32(v.wrapping_neg()),
                            Value::I64(v) => Value::I64(v.wrapping_neg()),
                            Value::F32(v) => Value::F32(-v),
                            Value::F64(v) => Value::F64(-v),
                            Value::Ptr(v) => Value::I64(-(v as i64)),
                        };
                    }
                    Op::NotL { dst, src } => {
                        regs[*dst as usize] = Value::I32(!regs[*src as usize].is_truthy() as i32);
                    }
                    Op::BitNot { dst, src } => {
                        regs[*dst as usize] = match regs[*src as usize] {
                            Value::I64(v) => Value::I64(!v),
                            v => Value::I32(!v.as_i32()),
                        };
                    }
                    Op::Truth { dst, src } => {
                        regs[*dst as usize] = Value::I32(regs[*src as usize].is_truthy() as i32);
                    }
                    Op::Jmp { to } => {
                        pc = enter!(*to as usize);
                        continue;
                    }
                    Op::Jz { cond, to } => {
                        let taken = !regs[*cond as usize].is_truthy();
                        pc = enter!(if taken { *to as usize } else { pc + 1 });
                        continue;
                    }
                    Op::Jnz { cond, to } => {
                        let taken = regs[*cond as usize].is_truthy();
                        pc = enter!(if taken { *to as usize } else { pc + 1 });
                        continue;
                    }
                    Op::Ret { src } => {
                        let v = regs[*src as usize];
                        self.sp = cur.saved_sp;
                        self.depth -= 1;
                        stack.truncate(cur.reg_base);
                        match frames.pop() {
                            None => return Ok(v),
                            Some(parent) => {
                                let dst = cur.ret_dst as usize;
                                cur = parent;
                                stack[cur.reg_base + dst] = v;
                                continue 'frame;
                            }
                        }
                    }
                    Op::Call { dst, func, abase, nargs } => {
                        // The arguments are read in place from this window.
                        let args = (cur.reg_base + *abase as usize, *nargs as usize);
                        cur.pc = pc + 1;
                        let callee = self.new_frame(prog, *func, stack, args, *dst)?;
                        frames.push(std::mem::replace(&mut cur, callee));
                        continue 'frame;
                    }
                    Op::CallBuiltin { dst, which, abase, nargs } => {
                        let a = *abase as usize;
                        regs[*dst as usize] =
                            rt::call_builtin(&machine, *which, &regs[a..a + *nargs as usize])?;
                    }
                    Op::CallHook { dst, name, abase, nargs } => {
                        let name = &prog.strs[*name as usize];
                        let a = *abase as usize;
                        let hooks = self.hooks.clone();
                        let ctx = HookCtx::new(&machine, &self.hooks, call_fresh);
                        match hooks.call(name, &regs[a..a + *nargs as usize], &ctx)? {
                            Some(v) => regs[*dst as usize] = v,
                            None => {
                                return Err(InterpError::Trap(format!("unknown function `{name}`")))
                            }
                        }
                    }
                    Op::Printf { dst, fmt, abase, nargs } => {
                        let fmt = &prog.strs[*fmt as usize];
                        let a = *abase as usize;
                        regs[*dst as usize] =
                            rt::do_printf(&machine, fmt, &regs[a..a + *nargs as usize])?;
                    }
                    Op::PrintfD { dst, fmt, abase, nargs } => {
                        let p = regs[*fmt as usize].as_ptr();
                        let fmt = machine.mem.read_cstr(addr::offset(p))?;
                        let a = *abase as usize;
                        let avail = &regs[a..a + *nargs as usize];
                        let n = rt::printf_arg_kinds(&fmt).len().min(avail.len());
                        regs[*dst as usize] = rt::do_printf(&machine, &fmt, &avail[..n])?;
                    }
                    Op::Launch { name, gb, abase, nargs } => {
                        let name = &prog.strs[*name as usize];
                        let g = dim3_from(regs, *gb);
                        let b = dim3_from(regs, *gb + 3);
                        let a = *abase as usize;
                        let hooks = self.hooks.clone();
                        let ctx = HookCtx::new(&machine, &self.hooks, call_fresh);
                        hooks.kernel_launch(name, g, b, &regs[a..a + *nargs as usize], &ctx)?;
                    }
                    Op::DimFix { dst, src } => {
                        regs[*dst as usize] =
                            Value::I64(regs[*src as usize].as_i64().max(1) as u32 as i64);
                    }
                    Op::Dim3Load { dst3, off } => {
                        let a = frame_off + *off as u64;
                        for k in 0..3u64 {
                            regs[(*dst3 + k as u16) as usize] =
                                Value::I64(mem.load_u32(a + 4 * k)? as i64);
                        }
                    }
                    Op::Dim3Store { off, src3 } => {
                        let a = frame_off + *off as u64;
                        for k in 0..3u64 {
                            let v = regs[(*src3 + k as u16) as usize].as_i64() as u32;
                            mem.store_u32(a + 4 * k, v)?;
                        }
                    }
                    Op::Trap { msg } => {
                        return Err(InterpError::Trap(prog.strs[*msg as usize].clone()))
                    }
                    Op::AddI { dst, a, b, conv } => {
                        let (x, y) = (regs[*a as usize], regs[*b as usize]);
                        int2(regs, *dst, BinOp::Add, x, y, *conv)?;
                    }
                    Op::SubI { dst, a, b, conv } => {
                        let (x, y) = (regs[*a as usize], regs[*b as usize]);
                        int2(regs, *dst, BinOp::Sub, x, y, *conv)?;
                    }
                    Op::MulI { dst, a, b, conv } => {
                        let (x, y) = (regs[*a as usize], regs[*b as usize]);
                        int2(regs, *dst, BinOp::Mul, x, y, *conv)?;
                    }
                    Op::AddIK { dst, a, k, conv } => {
                        let x = regs[*a as usize];
                        int2(regs, *dst, BinOp::Add, x, Value::I32(*k), *conv)?;
                    }
                    Op::MulIK { dst, a, k, conv } => {
                        let x = regs[*a as usize];
                        int2(regs, *dst, BinOp::Mul, x, Value::I32(*k), *conv)?;
                    }
                    Op::AddF { dst, a, b, conv } => {
                        let (x, y) = (regs[*a as usize], regs[*b as usize]);
                        f32x2(regs, *dst, BinOp::Add, x, y, *conv)?;
                    }
                    Op::SubF { dst, a, b, conv } => {
                        let (x, y) = (regs[*a as usize], regs[*b as usize]);
                        f32x2(regs, *dst, BinOp::Sub, x, y, *conv)?;
                    }
                    Op::MulF { dst, a, b, conv } => {
                        let (x, y) = (regs[*a as usize], regs[*b as usize]);
                        f32x2(regs, *dst, BinOp::Mul, x, y, *conv)?;
                    }
                    Op::MulKF { dst, a, k, conv } => {
                        let x = regs[*a as usize];
                        f32x2(regs, *dst, BinOp::Mul, x, Value::F32(*k), *conv)?;
                    }
                    Op::FmaF { dst, a, b } => {
                        let (s, x, y) = (regs[*dst as usize], regs[*a as usize], regs[*b as usize]);
                        if let (Value::F32(s), Value::F32(x), Value::F32(y)) = (s, x, y) {
                            let p = rt::f32_op(BinOp::Mul, x, y);
                            regs[*dst as usize] = Value::F32(rt::f32_op(BinOp::Add, s, p));
                        } else {
                            let p = rt::apply_binop(BinOp::Mul, x, 1, y)?;
                            generic(regs, *dst, BinOp::Add, s, p, Some(TyK::Float))?;
                        }
                    }
                    Op::Jcmp { op, a, b, to, when, float } => {
                        let (x, y) = (regs[*a as usize], regs[*b as usize]);
                        let holds = match (x, y) {
                            (Value::I32(x), Value::I32(y)) if !*float => {
                                rt::cmp_holds(*op, Some(x.cmp(&y)))
                            }
                            (Value::F32(x), Value::F32(y)) if *float => {
                                rt::cmp_holds(*op, (x as f64).partial_cmp(&(y as f64)))
                            }
                            _ => generic_cmp(*op, x, y)?,
                        };
                        pc = enter!(if holds == *when { *to as usize } else { pc + 1 });
                        continue;
                    }
                    Op::JcmpIK { op, a, k, to, when } => {
                        let holds = match regs[*a as usize] {
                            Value::I32(x) => rt::cmp_holds(*op, Some(x.cmp(&(*k as i32)))),
                            x => generic_cmp(*op, x, Value::I32(*k as i32))?,
                        };
                        pc = enter!(if holds == *when { *to as usize } else { pc + 1 });
                        continue;
                    }
                    Op::IncI { r, k } => match regs[*r as usize] {
                        Value::I32(x) => {
                            let v = rt::int_op(BinOp::Add, x as i64, *k as i64)?;
                            regs[*r as usize] = Value::I32(v as i32);
                        }
                        x => {
                            generic(regs, *r, BinOp::Add, x, Value::I64(*k as i64), Some(TyK::Int))?
                        }
                    },
                }
                pc += 1;
            }
        }
    }
}

/// One live guest frame on the explicit call stack.
struct Frame {
    chunk: u32,
    /// Resumption point in the chunk (the op after the pending `Call`).
    pc: usize,
    /// Guest frame base address.
    base: u64,
    /// `sp` to restore when this frame returns.
    saved_sp: u64,
    /// Caller register receiving the return value.
    ret_dst: u16,
    /// Start of this frame's window in the register stack.
    reg_base: usize,
}

impl Drop for Interp {
    fn drop(&mut self) {
        let _ = self.machine.heap.lock().free(self.stack_block);
    }
}

/// [`HookCtx::call_guest`] on the VM.
fn call_fresh(
    machine: Arc<Machine>,
    hooks: Arc<dyn Hooks>,
    name: &str,
    args: &[Value],
) -> IResult<Value> {
    Interp::new(machine, hooks)?.call(name, args)
}

/// Fused element address: the walker's `(p + i * stride)` with its null
/// check at lvalue time.
#[inline]
fn idx_addr(base: Value, idx: Value, stride: u64) -> IResult<u64> {
    let p = base.as_ptr();
    if p == 0 {
        return Err(InterpError::Mem(MemError::Null));
    }
    Ok(rt::ptr_offset(p, idx.as_i64(), stride))
}

/// Pointer difference `(a - b) / stride` (a zero stride divides by 1).
fn ptr_diff(a: Value, b: Value, stride: u64) -> Value {
    let d = (a.as_ptr() as i64).wrapping_sub(b.as_ptr() as i64);
    Value::I64(d.wrapping_div(stride.max(1) as i64))
}

// Typed arms: the `I32`/`F32` fast path calls the same domain helper as
// `rt::apply_binop`; any other tag runs the generic op they replaced.
// The fast path writes its register itself, apart from the fallback's.

/// The generic form of a typed op: `apply_binop`, then the absorbed
/// `Conv` if there was one, into `regs[dst]`.
#[cold]
#[inline(never)]
fn generic(
    regs: &mut [Value],
    dst: R,
    op: BinOp,
    x: Value,
    y: Value,
    conv: Option<TyK>,
) -> IResult<()> {
    let v = rt::apply_binop(op, x, 1, y)?;
    regs[dst as usize] = conv.map_or(v, |ty| convert_k(v, ty));
    Ok(())
}

/// The generic form of a `Jcmp`'s comparison.
#[cold]
#[inline(never)]
fn generic_cmp(op: BinOp, x: Value, y: Value) -> IResult<bool> {
    Ok(rt::apply_binop(op, x, 1, y)?.is_truthy())
}

/// `regs[dst] = x op y` on two `I32`s; other tags run the generic form.
#[inline(always)]
fn int2(regs: &mut [Value], dst: R, op: BinOp, x: Value, y: Value, conv: bool) -> IResult<()> {
    if let (Value::I32(a), Value::I32(b)) = (x, y) {
        regs[dst as usize] = Value::I32(rt::int_op(op, a as i64, b as i64)? as i32);
        return Ok(());
    }
    generic(regs, dst, op, x, y, conv.then_some(TyK::Int))
}

/// `regs[dst] = x op y` on two `F32`s; other tags run the generic form.
#[inline(always)]
fn f32x2(regs: &mut [Value], dst: R, op: BinOp, x: Value, y: Value, conv: bool) -> IResult<()> {
    if let (Value::F32(a), Value::F32(b)) = (x, y) {
        regs[dst as usize] = Value::F32(rt::f32_op(op, a, b));
        return Ok(());
    }
    generic(regs, dst, op, x, y, conv.then_some(TyK::Float))
}

/// [`rt::convert`] over the compact type kind (identical per-type rules).
#[inline]
fn convert_k(v: Value, ty: TyK) -> Value {
    match ty {
        TyK::Char => Value::I32(v.as_i64() as i8 as i32),
        TyK::Int => Value::I32(v.as_i32()),
        TyK::Long => Value::I64(v.as_i64()),
        TyK::Float => Value::F32(v.as_f32()),
        TyK::Double => Value::F64(v.as_f64()),
        TyK::Ptr => Value::Ptr(v.as_ptr()),
        // Whole-dim3 assignment converts like the walker: identity.
        TyK::Dim3X => v,
    }
}

/// The typed zero a fresh frame slot would load as.
fn zero_k(ty: TyK) -> Value {
    match ty {
        TyK::Char | TyK::Int => Value::I32(0),
        TyK::Long => Value::I64(0),
        TyK::Float => Value::F32(0.0),
        TyK::Double => Value::F64(0.0),
        TyK::Ptr => Value::Ptr(0),
        TyK::Dim3X => Value::I32(0),
    }
}

/// The walker's `resolve_space`: host addresses only.
#[inline]
fn resolve(m: &Machine, a: u64) -> IResult<&MemArena> {
    match addr::space(a) {
        Some(Space::Host) => Ok(&m.mem),
        _ => Err(InterpError::Mem(MemError::BadSpace { addr: a })),
    }
}

/// The walker's `load_typed`, keyed by [`TyK`].
#[inline]
fn load_k(m: &Machine, a: u64, ty: TyK) -> IResult<Value> {
    let mem = resolve(m, a)?;
    load_arena(mem, addr::offset(a), ty)
}

#[inline]
fn load_arena(mem: &MemArena, off: u64, ty: TyK) -> IResult<Value> {
    Ok(match ty {
        TyK::Char => Value::I32(mem.load_u8(off)? as i8 as i32),
        TyK::Int => Value::I32(mem.load_u32(off)? as i32),
        TyK::Long => Value::I64(mem.load_u64(off)? as i64),
        TyK::Float => Value::F32(f32::from_bits(mem.load_u32(off)?)),
        TyK::Double => Value::F64(f64::from_bits(mem.load_u64(off)?)),
        TyK::Ptr => Value::Ptr(mem.load_u64(off)?),
        TyK::Dim3X => return Err(InterpError::Trap("cannot load value of type dim3".into())),
    })
}

/// The walker's `store_typed`, keyed by [`TyK`] (`Dim3X` stores the x
/// component, matching whole-`dim3` scalar stores).
#[inline]
fn store_k(m: &Machine, a: u64, ty: TyK, v: Value) -> IResult<()> {
    let mem = resolve(m, a)?;
    store_arena(mem, addr::offset(a), ty, v)
}

#[inline]
fn store_arena(mem: &MemArena, off: u64, ty: TyK, v: Value) -> IResult<()> {
    match ty {
        TyK::Char => mem.store_u8(off, v.as_i64() as u8)?,
        TyK::Int => mem.store_u32(off, v.as_i32() as u32)?,
        TyK::Long => mem.store_u64(off, v.as_i64() as u64)?,
        TyK::Float => mem.store_u32(off, v.as_f32().to_bits())?,
        TyK::Double => mem.store_u64(off, v.as_f64().to_bits())?,
        TyK::Ptr => mem.store_u64(off, v.as_ptr())?,
        TyK::Dim3X => mem.store_u32(off, v.as_i64() as u32)?,
    }
    Ok(())
}

fn dim3_from(regs: &[Value], at: u16) -> [u32; 3] {
    [
        regs[at as usize].as_i64() as u32,
        regs[at as usize + 1].as_i64() as u32,
        regs[at as usize + 2].as_i64() as u32,
    ]
}

#[cfg(test)]
mod tests;
