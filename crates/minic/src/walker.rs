//! The tree-walking interpreter, retained as the differential-test
//! oracle for the bytecode VM.
//!
//! This was the original production executor; every production path now
//! runs the VM, [`crate::interp::Interp`], and nothing outside tests
//! builds a [`TreeWalker`]. The walker survives because its semantics are
//! the executable specification: differential tests build both engines
//! over the same programs and assert bit-identical results. A guest call
//! a hook re-enters ([`HookCtx::call_guest`]) runs on a fresh walker, so
//! the oracle stays complete through the runtime hooks too (host
//! `parallel` team threads included).

use std::sync::Arc;

use vmcommon::addr::{self, Space};
use vmcommon::{MemArena, MemError, Value};

use crate::ast::*;
use crate::interp::{HookCtx, Hooks, IResult, InterpError, Machine, STACK_SIZE};
use crate::limits::{GuestLimitError, FUEL_CHECK_INTERVAL};
use crate::rt::{self, convert};
use crate::types::{ArrayLen, Ty};

pub(crate) enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// An execution context: one per OS thread, with its own guest stack.
pub struct TreeWalker {
    machine: Arc<Machine>,
    hooks: Arc<dyn Hooks>,
    stack_block: u64,
    sp: u64,
    /// Base address of the current frame.
    frame_base: u64,
    /// Slot offsets of the current function's frame.
    frame: *const crate::sema::FrameInfo,
    depth: u32,
    /// Walker steps (statements + expressions) since the last
    /// fuel/deadline checkpoint. The step granularity differs from the
    /// VM's, so fuel traps are compared as "both terminated", never
    /// byte-for-byte (see [`crate::limits`]).
    unbilled: u64,
}

// SAFETY: `frame` points into `machine.image.prog`, which is kept alive by
// the `Arc<Machine>` (and its `Arc<Image>`) held alongside it and is never
// mutated after construction.
unsafe impl Send for TreeWalker {}

impl TreeWalker {
    /// Create a walker with a fresh guest stack. Runs global initializers
    /// on first creation per machine.
    pub fn new(machine: Arc<Machine>, hooks: Arc<dyn Hooks>) -> IResult<TreeWalker> {
        let stack_block = machine.heap.lock().alloc(STACK_SIZE)?;
        let mut it = TreeWalker {
            machine,
            hooks,
            stack_block,
            sp: stack_block,
            frame_base: stack_block,
            frame: std::ptr::null(),
            depth: 0,
            unbilled: 0,
        };
        it.init_globals_once()?;
        Ok(it)
    }

    fn init_globals_once(&mut self) -> IResult<()> {
        // Evaluate global initializers in a synthetic frame.
        let image = self.machine.image.clone();
        self.machine.clone().init_globals_once(|| {
            for (g, &base) in image.info.globals.iter().zip(&image.global_addrs) {
                if let Some(init) = &g.init {
                    self.store_init(base, &g.ty, init)?;
                }
            }
            Ok(())
        })
    }

    fn store_init(&mut self, base: u64, ty: &Ty, init: &Init) -> IResult<()> {
        match (ty, init) {
            (Ty::Array(elem, _), Init::List(list)) => {
                let esz = self.sizeof_rt(elem)?;
                for (i, it) in list.iter().enumerate() {
                    self.store_init(base + i as u64 * esz, elem, it)?;
                }
                Ok(())
            }
            (_, Init::Expr(e)) => {
                let v = self.eval(e)?;
                self.store_typed(base, ty, v)
            }
            (_, Init::List(_)) => Err(InterpError::Trap("brace initializer on scalar".into())),
        }
    }

    /// Run `main` (or any entry) with no arguments.
    pub fn run_main(&mut self) -> IResult<Value> {
        self.call("main", &[])
    }

    /// Call a guest function by name.
    pub fn call(&mut self, name: &str, args: &[Value]) -> IResult<Value> {
        let fd = self
            .machine
            .image
            .func(name)
            .ok_or_else(|| InterpError::Trap(format!("undefined function `{name}`")))?;
        // SAFETY: see `TreeWalker::frame` field comment — borrows from the
        // Arc'd immutable program.
        let fd: &'static FuncDef = unsafe { std::mem::transmute::<&FuncDef, &FuncDef>(fd) };
        let r = self.call_def(fd, args);
        // Bill the partial fuel interval (mirrors the VM's counter flush) —
        // but only at the true top-level boundary. `eval_call` re-enters
        // here for guest→guest calls, and draining there would reset the
        // interval on every call, letting call-heavy loops dodge the
        // checkpoint forever.
        if self.depth == 0 {
            self.machine.limits.drain_fuel(self.unbilled);
            self.unbilled = 0;
        }
        r
    }

    /// Fuel + deadline accounting, charged once per statement executed and
    /// once per expression evaluated.
    #[inline]
    fn tick(&mut self) -> IResult<()> {
        self.unbilled += 1;
        if self.unbilled >= FUEL_CHECK_INTERVAL {
            self.machine.limits.checkpoint(self.unbilled)?;
            self.unbilled = 0;
        }
        Ok(())
    }

    fn call_def(&mut self, fd: &FuncDef, args: &[Value]) -> IResult<Value> {
        // Same order as the VM's `new_frame`: depth first, then argc, then
        // the hard stack block, then the governor's byte ceiling.
        let stack_limit = self.machine.limits.stack_limit();
        if self.depth > stack_limit {
            return Err(GuestLimitError::StackOverflow { limit: stack_limit }.into());
        }
        if args.len() != fd.sig.params.len() {
            return Err(InterpError::Trap(format!(
                "call to `{}` with {} args (expected {})",
                fd.sig.name,
                args.len(),
                fd.sig.params.len()
            )));
        }
        let saved_sp = self.sp;
        let saved_base = self.frame_base;
        let saved_frame = self.frame;
        let base = self.sp.next_multiple_of(16);
        if base + fd.frame.size > self.stack_block + STACK_SIZE {
            return Err(InterpError::Trap("guest stack exhausted".into()));
        }
        // Stack usage derives from `sp`, so unwinding needs no credits;
        // identical frame layouts keep this check engine-agnostic.
        self.machine.limits.check_footprint(base + fd.frame.size - self.stack_block)?;
        self.frame_base = base;
        self.sp = base + fd.frame.size;
        self.frame = &fd.frame;
        self.depth += 1;

        let r = (|| {
            for (p, v) in fd.sig.params.iter().zip(args) {
                let slot = &fd.frame.slots[p.slot as usize];
                let a = addr::offset(self.frame_base) + slot.offset;
                let a = addr::make(Space::Host, a);
                self.store_typed(a, &slot.ty, *v)?;
            }
            self.exec_block_stmts(&fd.body.stmts)
        })();
        // Restore the frame whether the body returned or trapped, so an
        // aborted call (e.g. a limit trap) unwinds the guest stack level
        // by level — mirroring the VM's wholesale restore in `call_chunk`.
        self.depth -= 1;
        self.sp = saved_sp;
        self.frame_base = saved_base;
        self.frame = saved_frame;
        let mut ret = Value::I32(0);
        match r? {
            Flow::Return(v) => ret = v,
            Flow::Normal => {}
            Flow::Break | Flow::Continue => {
                return Err(InterpError::Trap("break/continue escaped function body".into()))
            }
        }
        // Convert the return value to the declared type.
        Ok(convert(ret, &fd.sig.ret))
    }

    fn frame_info(&self) -> &crate::sema::FrameInfo {
        // SAFETY: set in call_def; valid for the duration of the call.
        unsafe { &*self.frame }
    }

    fn slot_addr(&self, slot: u32) -> u64 {
        let s = &self.frame_info().slots[slot as usize];
        addr::make(Space::Host, addr::offset(self.frame_base) + s.offset)
    }

    // ------------------------------------------------------- statements

    fn exec_block_stmts(&mut self, stmts: &[Stmt]) -> IResult<Flow> {
        for s in stmts {
            match self.exec(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, s: &Stmt) -> IResult<Flow> {
        self.tick()?;
        match s {
            Stmt::Block(b) => self.exec_block_stmts(&b.stmts),
            Stmt::Empty => Ok(Flow::Normal),
            Stmt::Decl(d) => {
                if let Some(init) = &d.init {
                    let a = self.slot_addr(d.slot);
                    let ty = self.frame_info().slots[d.slot as usize].ty.clone();
                    match (&ty, init) {
                        (Ty::Dim3, Init::Expr(e)) => {
                            let dims = self.eval_dim3(e)?;
                            self.machine.mem.store_u32(addr::offset(a), dims[0])?;
                            self.machine.mem.store_u32(addr::offset(a) + 4, dims[1])?;
                            self.machine.mem.store_u32(addr::offset(a) + 8, dims[2])?;
                        }
                        _ => self.store_init(a, &ty, init)?,
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_s, else_s } => {
                if self.eval(cond)?.is_truthy() {
                    self.exec(then_s)
                } else if let Some(e) = else_s {
                    self.exec(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.is_truthy() {
                    match self.exec(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond } => {
                loop {
                    match self.exec(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if !self.eval(cond)?.is_truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { init, cond, step, body } => {
                if let Some(i) = init {
                    self.exec(i)?;
                }
                loop {
                    if let Some(c) = cond {
                        if !self.eval(c)?.is_truthy() {
                            break;
                        }
                    }
                    match self.exec(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if let Some(st) = step {
                        self.eval(st)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::I32(0),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Omp(o) => {
                // Directives reaching the interpreter execute their body
                // sequentially (a valid 1-thread OpenMP execution). This is
                // the untranslated / host-fallback path.
                if let Some(b) = &o.body {
                    if o.dir.kind == crate::omp::DirKind::Sections {
                        // All sections run in order.
                        return self.exec(b);
                    }
                    self.exec(b)
                } else {
                    Ok(Flow::Normal)
                }
            }
        }
    }

    // ------------------------------------------------------ expressions

    fn eval(&mut self, e: &Expr) -> IResult<Value> {
        self.tick()?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::I32(*v as i32)),
            ExprKind::FloatLit(v, true) => Ok(Value::F32(*v as f32)),
            ExprKind::FloatLit(v, false) => Ok(Value::F64(*v)),
            ExprKind::StrLit(s) => Ok(Value::Ptr(
                self.machine
                    .image
                    .rodata_addr(s)
                    .ok_or_else(|| InterpError::Trap("unregistered string literal".into()))?,
            )),
            ExprKind::Ident(name, resolved) => match resolved {
                Resolved::Local(slot) => {
                    let a = self.slot_addr(*slot);
                    let ty = self.frame_info().slots[*slot as usize].ty.clone();
                    if ty.is_array() {
                        Ok(Value::Ptr(a))
                    } else {
                        self.load_typed(a, &ty)
                    }
                }
                Resolved::Global(i) => {
                    let a = self.machine.image.global_addrs[*i as usize];
                    let ty = self.machine.image.info.globals[*i as usize].ty.clone();
                    if ty.is_array() {
                        Ok(Value::Ptr(a))
                    } else {
                        self.load_typed(a, &ty)
                    }
                }
                Resolved::Func => {
                    // Function designators evaluate to an opaque id; the
                    // runtime resolves them by name at registration time.
                    Err(InterpError::Trap(format!("function `{name}` used as a value on the host")))
                }
                Resolved::CudaBuiltin(_) => {
                    Err(InterpError::Trap(format!("CUDA builtin `{name}` referenced in host code")))
                }
                Resolved::Unresolved => Err(InterpError::Trap(format!(
                    "unresolved identifier `{name}` (sema not run?)"
                ))),
            },
            ExprKind::Call { callee, args } => self.eval_call(callee, args),
            ExprKind::KernelLaunch { callee, grid, block, args } => {
                let g = self.eval_dim3(grid)?;
                let b = self.eval_dim3(block)?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                let hooks = self.hooks.clone();
                let ctx = HookCtx::new(&self.machine, &self.hooks, call_fresh);
                hooks.kernel_launch(callee, g, b, &vals, &ctx)?;
                Ok(Value::I32(0))
            }
            ExprKind::Dim3 { .. } => {
                let d = self.eval_dim3(e)?;
                // A dim3 rvalue only appears in launch config position;
                // encode x for the rare scalar context.
                Ok(Value::I32(d[0] as i32))
            }
            ExprKind::Member { .. } => {
                let (a, ty) = self.lvalue(e)?;
                self.load_typed(a, &ty)
            }
            ExprKind::Index { .. } => {
                let (a, ty) = self.lvalue(e)?;
                if ty.is_array() {
                    Ok(Value::Ptr(a))
                } else {
                    self.load_typed(a, &ty)
                }
            }
            ExprKind::Unary { op, expr } => match op {
                UnOp::Neg => Ok(match self.eval(expr)? {
                    Value::I32(v) => Value::I32(v.wrapping_neg()),
                    Value::I64(v) => Value::I64(v.wrapping_neg()),
                    Value::F32(v) => Value::F32(-v),
                    Value::F64(v) => Value::F64(-v),
                    Value::Ptr(v) => Value::I64(-(v as i64)),
                }),
                UnOp::Not => Ok(Value::I32(!self.eval(expr)?.is_truthy() as i32)),
                UnOp::BitNot => Ok(match self.eval(expr)? {
                    Value::I64(v) => Value::I64(!v),
                    v => Value::I32(!v.as_i32()),
                }),
                UnOp::Deref => {
                    let (a, ty) = self.lvalue(e)?;
                    if ty.is_array() {
                        Ok(Value::Ptr(a))
                    } else {
                        self.load_typed(a, &ty)
                    }
                }
                UnOp::Addr => {
                    let (a, _) = self.lvalue(expr)?;
                    Ok(Value::Ptr(a))
                }
            },
            ExprKind::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            ExprKind::Assign { op, lhs, rhs } => {
                let (a, ty) = self.lvalue(lhs)?;
                let v = match op {
                    None => self.eval(rhs)?,
                    Some(op) => {
                        let cur = self.load_typed(a, &ty)?;
                        let stride = self.ptr_stride(lhs)?;
                        let rval = self.eval(rhs)?;
                        rt::apply_binop(*op, cur, stride, rval)?
                    }
                };
                let v = convert(v, &ty);
                self.store_typed(a, &ty, v)?;
                Ok(v)
            }
            ExprKind::IncDec { pre, inc, expr } => {
                let (a, ty) = self.lvalue(expr)?;
                let old = self.load_typed(a, &ty)?;
                let stride = self.ptr_stride(expr)?;
                let delta = Value::I64(if *inc { 1 } else { -1 });
                let new = rt::apply_binop(BinOp::Add, old, stride, delta)?;
                let new = convert(new, &ty);
                self.store_typed(a, &ty, new)?;
                Ok(if *pre { new } else { old })
            }
            ExprKind::Ternary { cond, then_e, else_e } => {
                if self.eval(cond)?.is_truthy() {
                    self.eval(then_e)
                } else {
                    self.eval(else_e)
                }
            }
            ExprKind::Cast { ty, expr } => {
                let v = self.eval(expr)?;
                Ok(convert(v, ty))
            }
            ExprKind::SizeofTy(ty) => Ok(Value::I64(self.sizeof_rt(ty)? as i64)),
            ExprKind::SizeofExpr(inner) => Ok(Value::I64(self.sizeof_rt(&inner.ty)? as i64)),
            ExprKind::Comma(a, b) => {
                self.eval(a)?;
                self.eval(b)
            }
        }
    }

    /// Evaluate a grid/block configuration expression: a `dim3` value, a
    /// `dim3` variable, or a bare integer.
    pub fn eval_dim3(&mut self, e: &Expr) -> IResult<[u32; 3]> {
        match &e.kind {
            ExprKind::Dim3 { x, y, z } => {
                let xv = self.eval(x)?.as_i64().max(1) as u32;
                let yv = match y {
                    Some(y) => self.eval(y)?.as_i64().max(1) as u32,
                    None => 1,
                };
                let zv = match z {
                    Some(z) => self.eval(z)?.as_i64().max(1) as u32,
                    None => 1,
                };
                Ok([xv, yv, zv])
            }
            ExprKind::Ident(_, Resolved::Local(slot))
                if self.frame_info().slots[*slot as usize].ty == Ty::Dim3 =>
            {
                let a = addr::offset(self.slot_addr(*slot));
                Ok([
                    self.machine.mem.load_u32(a)?,
                    self.machine.mem.load_u32(a + 4)?,
                    self.machine.mem.load_u32(a + 8)?,
                ])
            }
            _ => {
                let v = self.eval(e)?.as_i64().max(1) as u32;
                Ok([v, 1, 1])
            }
        }
    }

    /// Stride for pointer arithmetic on `e` (1 for non-pointers).
    fn ptr_stride(&mut self, e: &Expr) -> IResult<u64> {
        match e.ty.decayed() {
            Ty::Ptr(inner) => self.sizeof_rt(&inner),
            _ => Ok(1),
        }
    }

    fn eval_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> IResult<Value> {
        // Short-circuit logicals.
        if op == BinOp::LogAnd {
            return Ok(Value::I32(
                (self.eval(lhs)?.is_truthy() && self.eval(rhs)?.is_truthy()) as i32,
            ));
        }
        if op == BinOp::LogOr {
            return Ok(Value::I32(
                (self.eval(lhs)?.is_truthy() || self.eval(rhs)?.is_truthy()) as i32,
            ));
        }
        let lv = self.eval(lhs)?;
        let rv = self.eval(rhs)?;
        // Pointer arithmetic uses the pointer operand's stride.
        let lt = lhs.ty.decayed();
        let rt_ = rhs.ty.decayed();
        if lt.is_ptr() && rt_.is_ptr() && op == BinOp::Sub {
            let stride = self.ptr_stride(lhs)?.max(1);
            let d = (lv.as_ptr() as i64).wrapping_sub(rv.as_ptr() as i64);
            return Ok(Value::I64(d.wrapping_div(stride as i64)));
        }
        let stride = if lt.is_ptr() {
            self.ptr_stride(lhs)?
        } else if rt_.is_ptr() {
            self.ptr_stride(rhs)?
        } else {
            1
        };
        rt::apply_binop(op, lv, stride, rv)
    }

    // ---------------------------------------------------------- lvalues

    fn lvalue(&mut self, e: &Expr) -> IResult<(u64, Ty)> {
        match &e.kind {
            ExprKind::Ident(name, resolved) => match resolved {
                Resolved::Local(slot) => {
                    Ok((self.slot_addr(*slot), self.frame_info().slots[*slot as usize].ty.clone()))
                }
                Resolved::Global(i) => Ok((
                    self.machine.image.global_addrs[*i as usize],
                    self.machine.image.info.globals[*i as usize].ty.clone(),
                )),
                _ => Err(InterpError::Trap(format!("`{name}` is not an lvalue"))),
            },
            ExprKind::Unary { op: UnOp::Deref, expr } => {
                let p = self.eval(expr)?.as_ptr();
                if p == 0 {
                    return Err(InterpError::Mem(MemError::Null));
                }
                let ty = match expr.ty.decayed() {
                    Ty::Ptr(inner) => *inner,
                    other => {
                        return Err(InterpError::Trap(format!("deref of non-pointer {other}")))
                    }
                };
                Ok((p, ty))
            }
            ExprKind::Index { base, index } => {
                let bv = self.eval(base)?;
                let p = bv.as_ptr();
                if p == 0 {
                    return Err(InterpError::Mem(MemError::Null));
                }
                let elem = match base.ty.decayed() {
                    Ty::Ptr(inner) => *inner,
                    other => {
                        return Err(InterpError::Trap(format!("index of non-pointer {other}")))
                    }
                };
                let stride = self.sizeof_rt(&elem)?;
                let i = self.eval(index)?.as_i64();
                Ok((rt::ptr_offset(p, i, stride), elem))
            }
            ExprKind::Member { base, field } => {
                let (a, ty) = self.lvalue(base)?;
                if ty != Ty::Dim3 {
                    return Err(InterpError::Trap(format!("member access on {ty}")));
                }
                let off = match field.as_str() {
                    "x" => 0,
                    "y" => 4,
                    "z" => 8,
                    _ => return Err(InterpError::Trap(format!("dim3 has no member {field}"))),
                };
                Ok((a.wrapping_add(off), Ty::Int))
            }
            ExprKind::Cast { expr, .. } => self.lvalue(expr),
            _ => Err(InterpError::Trap("expression is not an lvalue".into())),
        }
    }

    /// Runtime sizeof, evaluating VLA extents in the current frame.
    fn sizeof_rt(&mut self, ty: &Ty) -> IResult<u64> {
        match ty {
            Ty::Array(elem, len) => {
                let n = match len {
                    ArrayLen::Const(n) => *n,
                    ArrayLen::Expr(e) => {
                        let v = self.eval(e)?.as_i64();
                        if v < 0 {
                            return Err(InterpError::Trap("negative VLA extent".into()));
                        }
                        v as u64
                    }
                    ArrayLen::Unspec => {
                        return Err(InterpError::Trap("sizeof of unsized array".into()))
                    }
                };
                Ok(self.sizeof_rt(elem)? * n)
            }
            other => other
                .size()
                .ok_or_else(|| InterpError::Trap(format!("sizeof of unsized type {other}"))),
        }
    }

    // ------------------------------------------------------ typed memory

    pub fn load_typed(&self, a: u64, ty: &Ty) -> IResult<Value> {
        let mem = self.resolve_space(a)?;
        let off = addr::offset(a);
        Ok(match ty {
            Ty::Char => Value::I32(mem.load_u8(off)? as i8 as i32),
            Ty::Int => Value::I32(mem.load_u32(off)? as i32),
            Ty::Long => Value::I64(mem.load_u64(off)? as i64),
            Ty::Float => Value::F32(f32::from_bits(mem.load_u32(off)?)),
            Ty::Double => Value::F64(f64::from_bits(mem.load_u64(off)?)),
            Ty::Ptr(_) => Value::Ptr(mem.load_u64(off)?),
            other => return Err(InterpError::Trap(format!("cannot load value of type {other}"))),
        })
    }

    pub fn store_typed(&self, a: u64, ty: &Ty, v: Value) -> IResult<()> {
        let mem = self.resolve_space(a)?;
        let off = addr::offset(a);
        match ty {
            Ty::Char => mem.store_u8(off, v.as_i64() as u8)?,
            Ty::Int => mem.store_u32(off, v.as_i32() as u32)?,
            Ty::Long => mem.store_u64(off, v.as_i64() as u64)?,
            Ty::Float => mem.store_u32(off, v.as_f32().to_bits())?,
            Ty::Double => mem.store_u64(off, v.as_f64().to_bits())?,
            Ty::Ptr(_) => mem.store_u64(off, v.as_ptr())?,
            Ty::Dim3 => {
                // Stored elementwise via eval_dim3 paths; scalar store sets x.
                mem.store_u32(off, v.as_i64() as u32)?;
            }
            other => return Err(InterpError::Trap(format!("cannot store value of type {other}"))),
        }
        Ok(())
    }

    fn resolve_space(&self, a: u64) -> IResult<&MemArena> {
        match addr::space(a) {
            Some(Space::Host) => Ok(&self.machine.mem),
            _ => Err(InterpError::Mem(MemError::BadSpace { addr: a })),
        }
    }

    // ----------------------------------------------------------- calls

    fn eval_call(&mut self, callee: &str, args: &[Expr]) -> IResult<Value> {
        // Guest-defined function?
        if self.machine.image.func(callee).is_some() {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(self.eval(a)?);
            }
            return self.call(callee, &vals);
        }
        // printf needs raw format access.
        if callee == "printf" {
            return self.do_printf(args);
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a)?);
        }
        if let Some(which) = rt::builtin_index(callee) {
            return rt::call_builtin(&self.machine, which, &vals);
        }
        let hooks = self.hooks.clone();
        let ctx = HookCtx::new(&self.machine, &self.hooks, call_fresh);
        if let Some(v) = hooks.call(callee, &vals, &ctx)? {
            return Ok(v);
        }
        Err(InterpError::Trap(format!("unknown function `{callee}`")))
    }

    fn do_printf(&mut self, args: &[Expr]) -> IResult<Value> {
        if args.is_empty() {
            return Err(InterpError::Trap("printf needs a format".into()));
        }
        let fmt = match &args[0].kind {
            ExprKind::StrLit(s) => s.clone(),
            _ => {
                let p = self.eval(&args[0])?.as_ptr();
                self.machine.mem.read_cstr(addr::offset(p))?
            }
        };
        // Arguments are evaluated lazily against the conversion list, so
        // surplus arguments are never evaluated (mirrored by the compiler
        // for static formats).
        let mut vals = Vec::new();
        for (a, _) in args[1..].iter().zip(rt::printf_arg_kinds(&fmt)) {
            vals.push(self.eval(a)?);
        }
        rt::do_printf(&self.machine, &fmt, &vals)
    }
}

impl Drop for TreeWalker {
    fn drop(&mut self) {
        let _ = self.machine.heap.lock().free(self.stack_block);
    }
}

/// [`HookCtx::call_guest`] on the walker.
fn call_fresh(
    machine: Arc<Machine>,
    hooks: Arc<dyn Hooks>,
    name: &str,
    args: &[Value],
) -> IResult<Value> {
    TreeWalker::new(machine, hooks)?.call(name, args)
}
