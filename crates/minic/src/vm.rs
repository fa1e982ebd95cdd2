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
//! Execution model: one register stack per [`Interp`], split into two
//! parallel arrays over the same register numbers — 64-bit payloads and
//! 1-byte `Value` tags (`vm/regs.rs`). Each guest call pushes a window of its
//! chunk's `nregs` registers on both (the compiler pre-resolves scalar
//! locals into window slots; a call's arguments are read in place from the
//! caller's window, so no call allocates), a guest-memory stack frame
//! identical to the walker's for address-taken and aggregate locals, and
//! guest-to-guest calls on an explicit [`Frame`] stack — guest recursion
//! must not consume host stack, whose debug-build frames would overflow
//! well before the guest's configurable frame limit (`RunnerConfig::guest_stack`,
//! default 200). A `Value` is built only where one leaves the register
//! file: the generic fallbacks, argument packs for builtins, hooks,
//! `printf` and launches, and the host-visible return value.
//!
//! The typed and fused ops (`AddI` … `IncI`) run a fast path when their
//! operands carry the tags the specialisation pass proved, calling the
//! same `rt` domain helpers as `apply_binop`; any other tag runs the
//! generic sequence the op replaced, so a wrong proof costs speed, never
//! a different answer. A superinstruction (`LoadIdxSum` … `IncJcmp`) runs
//! the arms of the ops it replaced, in order.
//!
//! Billing and counting go per straight run, not per op: entering a run
//! (frame entry, call return, either arm of a branch) adds its length
//! ([`crate::bytecode::Chunk::run_len`]) to the unbilled fuel, checks the
//! fuel/deadline checkpoint once enough has accumulated, and bumps one
//! entry counter in a flat per-[`Interp`] buffer. When the top-level call
//! returns, the entry counts flush to the machine's atomic counters as
//! the instruction count, its six dispatch categories and (with hotspots
//! on) per-pc hits (see `obs`'s `vm.*` metrics). Every dispatched op
//! counts once per op it stands for ([`crate::bytecode::Op::cats`]), in
//! that op's category, for every call that returns; a trap bills the rest
//! of its run too.

use std::sync::Arc;

use vmcommon::addr::{self, Space};
use vmcommon::{MemArena, MemError, Value};

use crate::ast::BinOp;
use crate::bytecode::{CompiledProgram, Op, ParamSpec, TyK};
use crate::interp::{HookCtx, Hooks, IResult, InterpError, Machine, STACK_SIZE};
use crate::limits::{GuestLimitError, FUEL_CHECK_INTERVAL};
use crate::rt;
use regs::{tag, Regs, Slot, Window};

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
    regs: Regs,
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
            regs: Regs::default(),
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
        // counts once per op it stands for, in that op's category.
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
                for &cat in op.cats() {
                    dispatch[cat as usize] += live;
                }
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
        for &v in args {
            regs.push(Slot::of(v));
        }
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
        regs: &mut Regs,
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

        // Every register starts as `I32(0)`; the chunk lists the others'
        // typed zeros and leaves out the registers its parameters bind.
        let reg_base = regs.len();
        regs.grow(chunk.nregs as usize);
        for &(r, ty) in &chunk.zero_init {
            regs.set(reg_base + r as usize, Slot::zero(ty));
        }
        for (k, spec) in chunk.params.iter().enumerate() {
            let v = regs.at(args + k);
            match spec {
                ParamSpec::Reg { reg, ty } => regs.set(reg_base + *reg as usize, bind(v, *ty)),
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
        stack: &mut Regs,
        args: usize,
        entries: &mut [u64],
    ) -> IResult<Value> {
        let mut frames: Vec<Frame> = Vec::new();
        let mut cur = self.new_frame(prog, idx, stack, (args, stack.len() - args), 0)?;
        let machine = self.machine.clone();
        let mem = &machine.mem;
        // Argument packs handed to builtins, hooks, printf and launches.
        let mut pack = Vec::new();
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
            let mut w = stack.window(cur.reg_base, chunk.nregs as usize);
            loop {
                match &code[pc] {
                    Op::Const { dst, idx } => w.set(*dst, Slot::of(prog.consts[*idx as usize])),
                    Op::Mov { dst, src } => w.set(*dst, w.at(*src)),
                    Op::Conv { dst, src, ty } => w.set(*dst, convert_k(w.get(*src), *ty)),
                    Op::FrameAddr { dst, off } => {
                        w.set(*dst, Slot::ptr(addr::make(Space::Host, frame_off + *off as u64)));
                    }
                    Op::LoadSlot { dst, off, ty } => {
                        w.set(*dst, load_arena(mem, frame_off + *off as u64, *ty)?);
                    }
                    Op::StoreSlot { off, src, ty } => {
                        store_arena(mem, frame_off + *off as u64, *ty, w.at(*src))?;
                    }
                    Op::LoadAbs { dst, at, ty } => {
                        let a = prog.consts[*at as usize].as_ptr();
                        w.set(*dst, load_k(&machine, a, *ty)?);
                    }
                    Op::StoreAbs { at, src, ty } => {
                        let a = prog.consts[*at as usize].as_ptr();
                        store_k(&self.machine, a, *ty, w.at(*src))?;
                    }
                    Op::Load { dst, addr, off, ty } => {
                        let p = w.get(*addr).as_ptr();
                        if p == 0 {
                            return Err(InterpError::Mem(MemError::Null));
                        }
                        w.set(*dst, load_k(&machine, p.wrapping_add(*off as u64), *ty)?);
                    }
                    Op::Store { addr, off, src, ty } => {
                        let p = w.get(*addr).as_ptr();
                        if p == 0 {
                            return Err(InterpError::Mem(MemError::Null));
                        }
                        store_k(&machine, p.wrapping_add(*off as u64), *ty, w.at(*src))?;
                    }
                    Op::LoadIdx { dst, base, idx, stride, ty } => {
                        let a = idx_addr(w.at(*base), w.at(*idx), *stride as u64)?;
                        w.set(*dst, load_k(&machine, a, *ty)?);
                    }
                    Op::StoreIdx { base, idx, stride, src, ty } => {
                        let a = idx_addr(w.at(*base), w.at(*idx), *stride as u64)?;
                        store_k(&self.machine, a, *ty, w.at(*src))?;
                    }
                    Op::AddrIdx { dst, base, idx, stride } => {
                        let a = idx_addr(w.at(*base), w.at(*idx), *stride as u64)?;
                        w.set(*dst, Slot::ptr(a));
                    }
                    Op::LoadIdxD { dst, base, idx, stride, ty } => {
                        let s = w.get(*stride).as_i64() as u64;
                        let a = idx_addr(w.at(*base), w.at(*idx), s)?;
                        w.set(*dst, load_k(&machine, a, *ty)?);
                    }
                    Op::StoreIdxD { base, idx, stride, src, ty } => {
                        let s = w.get(*stride).as_i64() as u64;
                        let a = idx_addr(w.at(*base), w.at(*idx), s)?;
                        store_k(&self.machine, a, *ty, w.at(*src))?;
                    }
                    Op::AddrIdxD { dst, base, idx, stride } => {
                        let s = w.get(*stride).as_i64() as u64;
                        let a = idx_addr(w.at(*base), w.at(*idx), s)?;
                        w.set(*dst, Slot::ptr(a));
                    }
                    Op::ChkNull { src } => {
                        if w.get(*src).as_ptr() == 0 {
                            return Err(InterpError::Mem(MemError::Null));
                        }
                    }
                    Op::Stride { dst, extent, elem } => {
                        let n = w.get(*extent).as_i64();
                        if n < 0 {
                            return Err(InterpError::Trap("negative VLA extent".into()));
                        }
                        w.set(*dst, Slot::i64((*elem as u64 * n as u64) as i64));
                    }
                    Op::StrideD { dst, extent, elem } => {
                        let n = w.get(*extent).as_i64();
                        if n < 0 {
                            return Err(InterpError::Trap("negative VLA extent".into()));
                        }
                        let e = w.get(*elem).as_i64() as u64;
                        w.set(*dst, Slot::i64((e * n as u64) as i64));
                    }
                    Op::Bin { op, dst, a, b, stride } => {
                        let v = rt::apply_binop(*op, w.get(*a), *stride as u64, w.get(*b))?;
                        w.set(*dst, Slot::of(v));
                    }
                    Op::BinD { op, dst, a, b, stride } => {
                        let s = w.get(*stride).as_i64() as u64;
                        w.set(*dst, Slot::of(rt::apply_binop(*op, w.get(*a), s, w.get(*b))?));
                    }
                    Op::PtrDiff { dst, a, b, stride } => {
                        w.set(*dst, ptr_diff(w.get(*a), w.get(*b), *stride as u64));
                    }
                    Op::PtrDiffD { dst, a, b, stride } => {
                        let s = w.get(*stride).as_i64() as u64;
                        w.set(*dst, ptr_diff(w.get(*a), w.get(*b), s));
                    }
                    Op::FmaAssign { dst, a, b, ty } => {
                        // Exactly the walker's compound-assign: rhs product,
                        // then accumulate, then convert — two rounding steps.
                        let t = rt::apply_binop(BinOp::Mul, w.get(*a), 1, w.get(*b))?;
                        let s = rt::apply_binop(BinOp::Add, w.get(*dst), 1, t)?;
                        w.set(*dst, convert_k(s, *ty));
                    }
                    Op::Neg { dst, src } => {
                        let v = match w.get(*src) {
                            Value::I32(v) => Value::I32(v.wrapping_neg()),
                            Value::I64(v) => Value::I64(v.wrapping_neg()),
                            Value::F32(v) => Value::F32(-v),
                            Value::F64(v) => Value::F64(-v),
                            Value::Ptr(v) => Value::I64(-(v as i64)),
                        };
                        w.set(*dst, Slot::of(v));
                    }
                    Op::NotL { dst, src } => {
                        w.set(*dst, Slot::i32(!w.get(*src).is_truthy() as i32));
                    }
                    Op::BitNot { dst, src } => {
                        let v = match w.get(*src) {
                            Value::I64(v) => Value::I64(!v),
                            v => Value::I32(!v.as_i32()),
                        };
                        w.set(*dst, Slot::of(v));
                    }
                    Op::Truth { dst, src } => {
                        w.set(*dst, Slot::i32(w.get(*src).is_truthy() as i32));
                    }
                    Op::Jmp { to } => {
                        pc = enter!(*to as usize);
                        continue;
                    }
                    Op::Jz { cond, to } => {
                        let taken = !w.get(*cond).is_truthy();
                        pc = enter!(if taken { *to as usize } else { pc + 1 });
                        continue;
                    }
                    Op::Jnz { cond, to } => {
                        let taken = w.get(*cond).is_truthy();
                        pc = enter!(if taken { *to as usize } else { pc + 1 });
                        continue;
                    }
                    Op::Ret { src } => {
                        let v = w.at(*src);
                        self.sp = cur.saved_sp;
                        self.depth -= 1;
                        stack.truncate(cur.reg_base);
                        match frames.pop() {
                            None => return Ok(v.value()),
                            Some(parent) => {
                                let dst = cur.ret_dst as usize;
                                cur = parent;
                                stack.set(cur.reg_base + dst, v);
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
                        let args = w.pack(&mut pack, *abase, *nargs);
                        w.set(*dst, Slot::of(rt::call_builtin(&machine, *which, args)?));
                    }
                    Op::CallHook { dst, name, abase, nargs } => {
                        let name = &prog.strs[*name as usize];
                        let args = w.pack(&mut pack, *abase, *nargs);
                        let hooks = self.hooks.clone();
                        let ctx = HookCtx::new(&machine, &self.hooks, call_fresh);
                        match hooks.call(name, args, &ctx)? {
                            Some(v) => w.set(*dst, Slot::of(v)),
                            None => {
                                return Err(InterpError::Trap(format!("unknown function `{name}`")))
                            }
                        }
                    }
                    Op::Printf { dst, fmt, abase, nargs } => {
                        let fmt = &prog.strs[*fmt as usize];
                        let args = w.pack(&mut pack, *abase, *nargs);
                        w.set(*dst, Slot::of(rt::do_printf(&machine, fmt, args)?));
                    }
                    Op::PrintfD { dst, fmt, abase, nargs } => {
                        let p = w.get(*fmt).as_ptr();
                        let fmt = machine.mem.read_cstr(addr::offset(p))?;
                        let avail = w.pack(&mut pack, *abase, *nargs);
                        let n = rt::printf_arg_kinds(&fmt).len().min(avail.len());
                        w.set(*dst, Slot::of(rt::do_printf(&machine, &fmt, &avail[..n])?));
                    }
                    Op::Launch { name, gb, abase, nargs } => {
                        let name = &prog.strs[*name as usize];
                        let g = dim3_from(&w, *gb);
                        let b = dim3_from(&w, *gb + 3);
                        let args = w.pack(&mut pack, *abase, *nargs);
                        let hooks = self.hooks.clone();
                        let ctx = HookCtx::new(&machine, &self.hooks, call_fresh);
                        hooks.kernel_launch(name, g, b, args, &ctx)?;
                    }
                    Op::DimFix { dst, src } => {
                        let v = w.get(*src).as_i64().max(1) as u32 as i64;
                        w.set(*dst, Slot::i64(v));
                    }
                    Op::Dim3Load { dst3, off } => {
                        let a = frame_off + *off as u64;
                        for k in 0..3u64 {
                            let v = mem.load_u32(a + 4 * k)? as i64;
                            w.set(*dst3 + k as u16, Slot::i64(v));
                        }
                    }
                    Op::Dim3Store { off, src3 } => {
                        let a = frame_off + *off as u64;
                        for k in 0..3u64 {
                            let v = w.get(*src3 + k as u16).as_i64() as u32;
                            mem.store_u32(a + 4 * k, v)?;
                        }
                    }
                    Op::Trap { msg } => {
                        return Err(InterpError::Trap(prog.strs[*msg as usize].clone()))
                    }
                    Op::AddI { dst, a, b, conv } => {
                        w.set(*dst, int2(BinOp::Add, w.at(*a), w.at(*b), *conv)?);
                    }
                    Op::SubI { dst, a, b, conv } => {
                        w.set(*dst, int2(BinOp::Sub, w.at(*a), w.at(*b), *conv)?);
                    }
                    Op::MulI { dst, a, b, conv } => {
                        w.set(*dst, int2(BinOp::Mul, w.at(*a), w.at(*b), *conv)?);
                    }
                    Op::AddIK { dst, a, k, conv } => {
                        w.set(*dst, int2(BinOp::Add, w.at(*a), Slot::i32(*k), *conv)?);
                    }
                    Op::MulIK { dst, a, k, conv } => {
                        w.set(*dst, int2(BinOp::Mul, w.at(*a), Slot::i32(*k), *conv)?);
                    }
                    Op::AddF { dst, a, b, conv } => {
                        w.set(*dst, f32x2(BinOp::Add, w.at(*a), w.at(*b), *conv)?);
                    }
                    Op::SubF { dst, a, b, conv } => {
                        w.set(*dst, f32x2(BinOp::Sub, w.at(*a), w.at(*b), *conv)?);
                    }
                    Op::MulF { dst, a, b, conv } => {
                        w.set(*dst, f32x2(BinOp::Mul, w.at(*a), w.at(*b), *conv)?);
                    }
                    Op::MulKF { dst, a, k, conv } => {
                        w.set(*dst, f32x2(BinOp::Mul, w.at(*a), Slot::f32(*k), *conv)?);
                    }
                    Op::FmaF { dst, a, b } => w.set(*dst, fma_f(w.at(*dst), w.at(*a), w.at(*b))?),
                    Op::Jcmp { op, a, b, to, when, float } => {
                        let (x, y) = (w.at(*a), w.at(*b));
                        let holds = match (x.tag, y.tag) {
                            (tag::F32, tag::F32) if *float => rt::cmp_holds(
                                *op,
                                (x.as_f32() as f64).partial_cmp(&(y.as_f32() as f64)),
                            ),
                            _ if *float => generic_cmp(*op, x, y)?,
                            _ => cmp_i(*op, x, y)?,
                        };
                        pc = enter!(if holds == *when { *to as usize } else { pc + 1 });
                        continue;
                    }
                    Op::JcmpIK { op, a, k, to, when } => {
                        let x = w.at(*a);
                        let holds = match x.tag {
                            tag::I32 => rt::cmp_holds(*op, Some(x.as_i32().cmp(&(*k as i32)))),
                            _ => generic_cmp(*op, x, Slot::i32(*k as i32))?,
                        };
                        pc = enter!(if holds == *when { *to as usize } else { pc + 1 });
                        continue;
                    }
                    Op::IncI { r, k } => w.set(*r, inc_i(w.at(*r), *k)?),
                    // Superinstructions: the arms of the ops they replaced,
                    // in order, minus the writes of dead intermediates.
                    Op::LoadIdxSum { dst, base, a, b, ty } => {
                        let t = int2(BinOp::Add, w.at(*a), w.at(*b), false)?;
                        let at = idx_addr(w.at(*base), t, elem_size(*ty))?;
                        w.set(*dst, load_k(&machine, at, *ty)?);
                    }
                    Op::LoadIdxMad { dst, base, i, n, j, ty } => {
                        let t = int2(BinOp::Mul, w.at(*i), w.at(*n), false)?;
                        let u = int2(BinOp::Add, t, w.at(*j), false)?;
                        let at = idx_addr(w.at(*base), u, elem_size(*ty))?;
                        w.set(*dst, load_k(&machine, at, *ty)?);
                    }
                    Op::FmaIdx { acc, x, base, idx, first } => {
                        let at = idx_addr(w.at(*base), w.at(*idx), elem_size(TyK::Float))?;
                        let t = load_k(&machine, at, TyK::Float)?;
                        let (p, q) = if *first { (t, w.at(*x)) } else { (w.at(*x), t) };
                        w.set(*acc, fma_f(w.at(*acc), p, q)?);
                    }
                    Op::IncJcmp { op, r, b, k, to, when } => {
                        let x = inc_i(w.at(*r), *k as i32)?;
                        w.set(*r, x);
                        let holds = cmp_i(*op, x, w.at(*b))?;
                        pc = enter!(if holds == *when { *to as usize } else { pc + 1 });
                        continue;
                    }
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

// Typed arms: the `I32`/`F32` fast path calls the same domain helper as
// `rt::apply_binop`; any other tag runs the generic op they replaced.

/// `x op y` on two `I32`s; other tags run the generic form.
#[inline(always)]
fn int2(op: BinOp, x: Slot, y: Slot, conv: bool) -> IResult<Slot> {
    if x.tag == tag::I32 && y.tag == tag::I32 {
        return Ok(Slot::i32(rt::int_op(op, x.as_i32() as i64, y.as_i32() as i64)? as i32));
    }
    generic(op, x, y, conv.then_some(TyK::Int))
}

/// `x op y` on two `F32`s; other tags run the generic form.
#[inline(always)]
fn f32x2(op: BinOp, x: Slot, y: Slot, conv: bool) -> IResult<Slot> {
    if x.tag == tag::F32 && y.tag == tag::F32 {
        return Ok(Slot::f32(rt::f32_op(op, x.as_f32(), y.as_f32())));
    }
    generic(op, x, y, conv.then_some(TyK::Float))
}

/// `IncI`: `convert(x + I64(k), int)`.
#[inline(always)]
fn inc_i(x: Slot, k: i32) -> IResult<Slot> {
    if x.tag == tag::I32 {
        return Ok(Slot::i32(rt::int_op(BinOp::Add, x.as_i32() as i64, k as i64)? as i32));
    }
    generic(BinOp::Add, x, Slot::i64(k as i64), Some(TyK::Int))
}

/// `FmaF`: `convert(s + x * y, float)` on three `F32`s; other tags run
/// `FmaAssign`'s two `apply_binop` steps.
#[inline(always)]
fn fma_f(s: Slot, x: Slot, y: Slot) -> IResult<Slot> {
    if s.tag == tag::F32 && x.tag == tag::F32 && y.tag == tag::F32 {
        let p = rt::f32_op(BinOp::Mul, x.as_f32(), y.as_f32());
        return Ok(Slot::f32(rt::f32_op(BinOp::Add, s.as_f32(), p)));
    }
    let p = rt::apply_binop(BinOp::Mul, x.value(), 1, y.value())?;
    generic(BinOp::Add, s, Slot::of(p), Some(TyK::Float))
}

/// The `I32`-domain comparison of a `Jcmp`; other tags run the generic
/// form.
#[inline(always)]
fn cmp_i(op: BinOp, x: Slot, y: Slot) -> IResult<bool> {
    if x.tag == tag::I32 && y.tag == tag::I32 {
        return Ok(rt::cmp_holds(op, Some(x.as_i32().cmp(&y.as_i32()))));
    }
    generic_cmp(op, x, y)
}

/// The generic form of a typed op: `apply_binop`, then the absorbed
/// `Conv` if there was one.
#[cold]
#[inline(never)]
fn generic(op: BinOp, x: Slot, y: Slot, conv: Option<TyK>) -> IResult<Slot> {
    let v = rt::apply_binop(op, x.value(), 1, y.value())?;
    Ok(conv.map_or(Slot::of(v), |ty| convert_k(v, ty)))
}

/// The generic form of a `Jcmp`'s comparison.
#[cold]
#[inline(never)]
fn generic_cmp(op: BinOp, x: Slot, y: Slot) -> IResult<bool> {
    Ok(rt::apply_binop(op, x.value(), 1, y.value())?.is_truthy())
}

/// Fused element address: the walker's `(p + i * stride)` with its null
/// check at lvalue time. A `PTR` base and an `I32` index are read from
/// their payloads; other tags convert through `Value`.
#[inline(always)]
fn idx_addr(base: Slot, idx: Slot, stride: u64) -> IResult<u64> {
    let (p, i) = if base.tag == tag::PTR && idx.tag == tag::I32 {
        (base.bits, idx.as_i32() as i64)
    } else {
        (base.value().as_ptr(), idx.value().as_i64())
    };
    if p == 0 {
        return Err(InterpError::Mem(MemError::Null));
    }
    Ok(rt::ptr_offset(p, i, stride))
}

/// A fused load's stride: the size of its element type.
#[inline(always)]
fn elem_size(ty: TyK) -> u64 {
    ty.size().map_or(0, u64::from)
}

/// A register argument bound to a parameter of type `ty`: its bits as
/// they are when it already has `ty`'s tag (a `char` always narrows),
/// else `convert_k`.
#[inline(always)]
fn bind(v: Slot, ty: TyK) -> Slot {
    if v.tag == Slot::zero(ty).tag && ty != TyK::Char {
        return v;
    }
    convert_k(v.value(), ty)
}

/// Pointer difference `(a - b) / stride` (a zero stride divides by 1).
fn ptr_diff(a: Value, b: Value, stride: u64) -> Slot {
    let d = (a.as_ptr() as i64).wrapping_sub(b.as_ptr() as i64);
    Slot::i64(d.wrapping_div(stride.max(1) as i64))
}

/// [`rt::convert`] over the compact type kind (identical per-type rules).
#[inline(always)]
fn convert_k(v: Value, ty: TyK) -> Slot {
    match ty {
        TyK::Char => Slot::i32(v.as_i64() as i8 as i32),
        TyK::Int => Slot::i32(v.as_i32()),
        TyK::Long => Slot::i64(v.as_i64()),
        TyK::Float => Slot::f32(v.as_f32()),
        TyK::Double => Slot::f64(v.as_f64()),
        TyK::Ptr => Slot::ptr(v.as_ptr()),
        // Whole-dim3 assignment converts like the walker: identity.
        TyK::Dim3X => Slot::of(v),
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
fn load_k(m: &Machine, a: u64, ty: TyK) -> IResult<Slot> {
    let mem = resolve(m, a)?;
    load_arena(mem, addr::offset(a), ty)
}

#[inline]
fn load_arena(mem: &MemArena, off: u64, ty: TyK) -> IResult<Slot> {
    Ok(match ty {
        TyK::Char => Slot::i32(mem.load_u8(off)? as i8 as i32),
        TyK::Int => Slot::i32(mem.load_u32(off)? as i32),
        TyK::Long => Slot::i64(mem.load_u64(off)? as i64),
        TyK::Float => Slot::f32(f32::from_bits(mem.load_u32(off)?)),
        TyK::Double => Slot::f64(f64::from_bits(mem.load_u64(off)?)),
        TyK::Ptr => Slot::ptr(mem.load_u64(off)?),
        TyK::Dim3X => return Err(InterpError::Trap("cannot load value of type dim3".into())),
    })
}

/// The walker's `store_typed`, keyed by [`TyK`] (`Dim3X` stores the x
/// component, matching whole-`dim3` scalar stores).
#[inline]
fn store_k(m: &Machine, a: u64, ty: TyK, s: Slot) -> IResult<()> {
    let mem = resolve(m, a)?;
    store_arena(mem, addr::offset(a), ty, s)
}

#[inline]
fn store_arena(mem: &MemArena, off: u64, ty: TyK, s: Slot) -> IResult<()> {
    let v = s.value();
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

fn dim3_from(w: &Window, at: u16) -> [u32; 3] {
    [0, 1, 2].map(|k| w.get(at + k).as_i64() as u32)
}

mod regs;
#[cfg(test)]
mod tests;
