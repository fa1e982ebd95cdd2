//! Expression and statement lowering (the second half of the compiler;
//! see the module docs in `mod.rs` for the contract).

use vmcommon::Value;

use super::loops::optimize;
use super::specialize::{specialize, ChunkFacts};
use super::{mutates, pure_nt, residency, store_kind, tyk, Cx, FnCx, Loop, Place, SizeV};
use crate::ast::*;
use crate::bytecode::{run_lens, Chunk, Op, ParamSpec, TyK, R};
use crate::rt;
use crate::sema::FrameInfo;
use crate::types::Ty;

/// Compile one function definition to a chunk.
pub(super) fn compile_fn(cx: &mut Cx<'_>, fd: &FuncDef) -> Chunk {
    let resident = residency(fd);
    let mut slot_reg: Vec<Option<R>> = vec![None; fd.frame.slots.len()];
    let mut next: R = 0;
    for (i, r) in resident.iter().enumerate() {
        if *r {
            slot_reg[i] = Some(next);
            next += 1;
        }
    }
    let zero_init: Vec<(R, TyK)> = fd
        .frame
        .slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| slot_reg[i].map(|r| (r, tyk(&s.ty).expect("reg slot is scalar"))))
        .collect();
    let mut f = FnCx {
        cx,
        frame: &fd.frame,
        ret: fd.sig.ret.clone(),
        slot_reg,
        first_tmp: next,
        tmp: next,
        max_reg: next,
        code: Vec::new(),
        loops: Vec::new(),
        cur_line: fd.sig.pos.line,
        lines: Vec::new(),
    };

    // Parameter binding specs (in declaration order, like the walker).
    let mut params = Vec::with_capacity(fd.sig.params.len());
    for p in &fd.sig.params {
        let slot = &fd.frame.slots[p.slot as usize];
        match f.slot_reg[p.slot as usize] {
            Some(reg) => params.push(ParamSpec::Reg { reg, ty: tyk(&slot.ty).unwrap() }),
            None => match store_kind(&slot.ty) {
                Some(ty) => params.push(ParamSpec::Mem { off: slot.offset as u32, ty }),
                None => {
                    // The walker's `store_typed` would trap while binding
                    // this parameter, before any body effect.
                    f.trap(format!("cannot store value of type {}", slot.ty));
                    params.push(ParamSpec::Reg { reg: f.alloc(), ty: TyK::Int });
                }
            },
        }
    }

    for s in &fd.body.stmts {
        f.stmt(s);
    }
    // Missing return: the walker falls back to I32(0), converted.
    f.tmp = f.first_tmp;
    let z = f.const_into(Value::I32(0));
    let out = f.conv_ret(z);
    f.emit(Op::Ret { src: out });

    let (code, line_table) = f.finish(&zero_init);
    // The binding plan: a new frame's registers start as `I32(0)` and its
    // register parameters bind theirs, so entry writes only the other
    // slots' typed zeros that differ from `I32(0)`.
    let bound = |r: R| params.iter().any(|p| matches!(p, ParamSpec::Reg { reg, .. } if *reg == r));
    let zero_init = zero_init
        .into_iter()
        .filter(|&(r, ty)| !matches!(ty, TyK::Char | TyK::Int | TyK::Dim3X) && !bound(r))
        .collect();
    Chunk {
        name: fd.sig.name.clone(),
        nregs: f.max_reg,
        frame_size: fd.frame.size,
        params,
        zero_init,
        run_len: run_lens(&code),
        code,
        line_table,
        base: 0,
    }
}

/// Compile the synthetic global-initializer chunk (None if no global
/// has an initializer).
pub(super) fn compile_global_init(cx: &mut Cx<'_>) -> Option<Chunk> {
    let inits: Vec<(u64, Ty, Init)> = cx
        .m
        .info
        .globals
        .iter()
        .enumerate()
        .filter_map(|(i, g)| g.init.clone().map(|init| (cx.m.global_addrs[i], g.ty.clone(), init)))
        .collect();
    if inits.is_empty() {
        return None;
    }
    let empty = FrameInfo::default();
    let mut f = FnCx {
        cx,
        frame: &empty,
        ret: Ty::Void,
        slot_reg: Vec::new(),
        first_tmp: 0,
        tmp: 0,
        max_reg: 0,
        code: Vec::new(),
        loops: Vec::new(),
        cur_line: 0,
        lines: Vec::new(),
    };
    for (base, ty, init) in &inits {
        f.tmp = 0;
        f.store_init_abs(*base, ty, init);
    }
    let z = f.const_into(Value::I32(0));
    f.emit(Op::Ret { src: z });
    let (code, line_table) = f.finish(&[]);
    Some(Chunk {
        name: "<global-init>".into(),
        nregs: f.max_reg,
        frame_size: 0,
        params: Vec::new(),
        zero_init: Vec::new(),
        run_len: run_lens(&code),
        code,
        line_table,
        base: 0,
    })
}

impl FnCx<'_, '_> {
    /// Specialise the emitted code (`slots`: the register slots' declared
    /// types), optimise its loops (which may add registers to `max_reg`)
    /// and intern its line table.
    fn finish(&mut self, slots: &[(R, TyK)]) -> (Vec<Op>, u32) {
        let facts =
            ChunkFacts { consts: &self.cx.consts, slots, nregs: self.max_reg, rets: &self.cx.rets };
        let (code, lines) =
            specialize(std::mem::take(&mut self.code), std::mem::take(&mut self.lines), &facts);
        let (code, lines) = optimize(code, lines, &mut self.max_reg, &mut self.cx.loop_stats);
        (code, self.cx.line_table(lines))
    }

    // -------------------------------------------------------- statements

    fn stmt(&mut self, s: &Stmt) {
        self.tmp = self.first_tmp;
        match s {
            Stmt::Block(b) => {
                for st in &b.stmts {
                    self.stmt(st);
                }
            }
            Stmt::Empty => {}
            Stmt::Decl(d) => self.decl(d),
            Stmt::Expr(e) => {
                self.rvalue(e);
            }
            Stmt::If { cond, then_s, else_s } => {
                let c = self.rvalue(cond);
                let jz = self.emit(Op::Jz { cond: c, to: u32::MAX });
                self.stmt(then_s);
                match else_s {
                    Some(e) => {
                        let jmp = self.emit(Op::Jmp { to: u32::MAX });
                        let here = self.here();
                        self.patch(jz, here);
                        self.stmt(e);
                        let here = self.here();
                        self.patch(jmp, here);
                    }
                    None => {
                        let here = self.here();
                        self.patch(jz, here);
                    }
                }
            }
            Stmt::While { cond, body } => {
                let top = self.here();
                self.tmp = self.first_tmp;
                let c = self.rvalue(cond);
                let jz = self.emit(Op::Jz { cond: c, to: u32::MAX });
                self.loops.push(Loop { breaks: Vec::new(), continues: Vec::new() });
                self.stmt(body);
                self.emit(Op::Jmp { to: top });
                let end = self.here();
                self.patch(jz, end);
                let l = self.loops.pop().unwrap();
                for at in l.breaks {
                    self.patch(at, end);
                }
                for at in l.continues {
                    self.patch(at, top);
                }
            }
            Stmt::DoWhile { body, cond } => {
                let top = self.here();
                self.loops.push(Loop { breaks: Vec::new(), continues: Vec::new() });
                self.stmt(body);
                let check = self.here();
                self.tmp = self.first_tmp;
                let c = self.rvalue(cond);
                self.emit(Op::Jnz { cond: c, to: top });
                let end = self.here();
                let l = self.loops.pop().unwrap();
                for at in l.breaks {
                    self.patch(at, end);
                }
                for at in l.continues {
                    self.patch(at, check);
                }
            }
            Stmt::For { init, cond, step, body } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                let top = self.here();
                let jz = cond.as_ref().map(|c| {
                    self.tmp = self.first_tmp;
                    let r = self.rvalue(c);
                    self.emit(Op::Jz { cond: r, to: u32::MAX })
                });
                self.loops.push(Loop { breaks: Vec::new(), continues: Vec::new() });
                self.stmt(body);
                let stepat = self.here();
                if let Some(st) = step {
                    self.tmp = self.first_tmp;
                    self.rvalue(st);
                }
                self.emit(Op::Jmp { to: top });
                let end = self.here();
                if let Some(jz) = jz {
                    self.patch(jz, end);
                }
                let l = self.loops.pop().unwrap();
                for at in l.breaks {
                    self.patch(at, end);
                }
                for at in l.continues {
                    self.patch(at, stepat);
                }
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.rvalue(e),
                    None => self.const_into(Value::I32(0)),
                };
                let out = self.conv_ret(v);
                self.emit(Op::Ret { src: out });
            }
            Stmt::Break => match self.loops.last().is_some() {
                true => {
                    let at = self.emit(Op::Jmp { to: u32::MAX });
                    self.loops.last_mut().unwrap().breaks.push(at);
                }
                false => self.trap("break/continue escaped function body".into()),
            },
            Stmt::Continue => match self.loops.last().is_some() {
                true => {
                    let at = self.emit(Op::Jmp { to: u32::MAX });
                    self.loops.last_mut().unwrap().continues.push(at);
                }
                false => self.trap("break/continue escaped function body".into()),
            },
            Stmt::Omp(o) => {
                // Directives execute their body sequentially, exactly as
                // in the walker (a legal 1-thread OpenMP execution).
                self.set_line(o.pos);
                if let Some(b) = &o.body {
                    self.stmt(b);
                }
            }
        }
    }

    fn conv_ret(&mut self, v: R) -> R {
        match tyk(&self.ret.clone()) {
            Some(t) => {
                let dst = self.alloc();
                self.emit(Op::Conv { dst, src: v, ty: t });
                dst
            }
            None => v, // convert() is the identity for void/aggregate
        }
    }

    fn decl(&mut self, d: &VarDecl) {
        self.set_line(d.pos);
        let Some(init) = &d.init else { return };
        let slot = &self.frame.slots[d.slot as usize];
        let (ty, off) = (slot.ty.clone(), slot.offset as u32);
        if let (Ty::Dim3, Init::Expr(e)) = (&ty, init) {
            let d3 = self.alloc_n(3);
            self.dim3_into(e, d3);
            self.emit(Op::Dim3Store { off, src3: d3 });
            return;
        }
        match self.slot_reg[d.slot as usize] {
            Some(reg) => match init {
                Init::Expr(e) => {
                    let v = self.rvalue(e);
                    // store_typed + later load == Conv for every scalar.
                    self.emit(Op::Conv { dst: reg, src: v, ty: tyk(&ty).unwrap() });
                }
                Init::List(_) => self.trap("brace initializer on scalar".into()),
            },
            None => self.store_init_frame(off, &ty, init),
        }
    }

    fn store_init_frame(&mut self, off: u32, ty: &Ty, init: &Init) {
        match (ty, init) {
            (Ty::Array(elem, _), Init::List(list)) => match elem.size() {
                Some(es) => {
                    for (i, it) in list.iter().enumerate() {
                        self.store_init_frame(off + (i as u64 * es) as u32, elem, it);
                    }
                }
                // Documented divergence: the walker would evaluate the
                // VLA extent here; no program in the suite does this.
                None => self.trap("brace initializer on VLA".into()),
            },
            (_, Init::Expr(e)) => {
                let v = self.rvalue(e);
                match store_kind(ty) {
                    Some(t) => {
                        self.emit(Op::StoreSlot { off, src: v, ty: t });
                    }
                    None => self.trap(format!("cannot store value of type {ty}")),
                }
            }
            (_, Init::List(_)) => self.trap("brace initializer on scalar".into()),
        }
    }

    fn store_init_abs(&mut self, base: u64, ty: &Ty, init: &Init) {
        match (ty, init) {
            (Ty::Array(elem, _), Init::List(list)) => match elem.size() {
                Some(es) => {
                    for (i, it) in list.iter().enumerate() {
                        self.store_init_abs(base + i as u64 * es, elem, it);
                    }
                }
                None => self.trap("brace initializer on VLA".into()),
            },
            (_, Init::Expr(e)) => {
                let v = self.rvalue(e);
                match store_kind(ty) {
                    Some(t) => {
                        let at = self.cx.konst(Value::Ptr(base));
                        self.emit(Op::StoreAbs { at, src: v, ty: t });
                    }
                    None => self.trap(format!("cannot store value of type {ty}")),
                }
            }
            (_, Init::List(_)) => self.trap("brace initializer on scalar".into()),
        }
    }

    // ------------------------------------------------------- expressions

    pub(super) fn rvalue(&mut self, e: &Expr) -> R {
        self.set_line(e.pos);
        match &e.kind {
            ExprKind::IntLit(v) => self.const_into(Value::I32(*v as i32)),
            ExprKind::FloatLit(v, true) => self.const_into(Value::F32(*v as f32)),
            ExprKind::FloatLit(v, false) => self.const_into(Value::F64(*v)),
            ExprKind::StrLit(s) => match self.cx.m.rodata_addr(s) {
                Some(a) => self.const_into(Value::Ptr(a)),
                None => {
                    self.trap("unregistered string literal".into());
                    self.alloc()
                }
            },
            ExprKind::Ident(name, resolved) => match resolved {
                Resolved::Local(slot) => match self.slot_reg[*slot as usize] {
                    Some(r) => r,
                    None => {
                        let s = &self.frame.slots[*slot as usize];
                        let p = Place::Slot(s.offset as u32, s.ty.clone());
                        self.load_place(p)
                    }
                },
                Resolved::Global(i) => {
                    let a = self.cx.m.global_addrs[*i as usize];
                    let ty = self.cx.m.info.globals[*i as usize].ty.clone();
                    let at = self.cx.konst(Value::Ptr(a));
                    self.load_place(Place::Abs(at, ty))
                }
                Resolved::Func => {
                    self.trap(format!("function `{name}` used as a value on the host"));
                    self.alloc()
                }
                Resolved::CudaBuiltin(_) => {
                    self.trap(format!("CUDA builtin `{name}` referenced in host code"));
                    self.alloc()
                }
                Resolved::Unresolved => {
                    self.trap(format!("unresolved identifier `{name}` (sema not run?)"));
                    self.alloc()
                }
            },
            ExprKind::Call { callee, args } => self.call_c(callee, args),
            ExprKind::KernelLaunch { callee, grid, block, args } => {
                let gb = self.alloc_n(6);
                self.dim3_into(grid, gb);
                self.dim3_into(block, gb + 3);
                let nargs = args.len().min(u8::MAX as usize);
                if args.len() > u8::MAX as usize {
                    self.trap("kernel launch with more than 255 arguments".into());
                }
                let abase = self.alloc_n(nargs as u16);
                for (k, a) in args.iter().take(nargs).enumerate() {
                    self.rv_to(a, abase + k as R);
                }
                let name = self.cx.string(callee);
                self.emit(Op::Launch { name, gb, abase, nargs: nargs as u8 });
                self.const_into(Value::I32(0))
            }
            ExprKind::Dim3 { .. } => {
                let d3 = self.alloc_n(3);
                self.dim3_into(e, d3);
                // The walker encodes x (as i32) in scalar contexts.
                let dst = self.alloc();
                self.emit(Op::Conv { dst, src: d3, ty: TyK::Int });
                dst
            }
            ExprKind::Member { .. } | ExprKind::Index { .. } => {
                let p = self.place(e, true);
                self.load_place(p)
            }
            ExprKind::Unary { op, expr } => match op {
                UnOp::Neg => {
                    let src = self.rvalue(expr);
                    let dst = self.alloc();
                    self.emit(Op::Neg { dst, src });
                    dst
                }
                UnOp::Not => {
                    let src = self.rvalue(expr);
                    let dst = self.alloc();
                    self.emit(Op::NotL { dst, src });
                    dst
                }
                UnOp::BitNot => {
                    let src = self.rvalue(expr);
                    let dst = self.alloc();
                    self.emit(Op::BitNot { dst, src });
                    dst
                }
                UnOp::Deref => {
                    let p = self.place(e, true);
                    self.load_place(p)
                }
                UnOp::Addr => {
                    let p = self.place(expr, true);
                    self.addr_of_place(p)
                }
            },
            ExprKind::Binary { op, lhs, rhs } => self.bin_c(*op, lhs, rhs),
            ExprKind::Assign { op, lhs, rhs } => self.assign_c(*op, lhs, rhs),
            ExprKind::IncDec { pre, inc, expr } => self.incdec_c(*pre, *inc, expr),
            ExprKind::Ternary { cond, then_e, else_e } => {
                let dst = self.alloc();
                let c = self.rvalue(cond);
                let jz = self.emit(Op::Jz { cond: c, to: u32::MAX });
                self.rv_to(then_e, dst);
                let jmp = self.emit(Op::Jmp { to: u32::MAX });
                let here = self.here();
                self.patch(jz, here);
                self.rv_to(else_e, dst);
                let here = self.here();
                self.patch(jmp, here);
                dst
            }
            ExprKind::Cast { ty, expr } => {
                let v = self.rvalue(expr);
                match tyk(ty) {
                    Some(t) => {
                        let dst = self.alloc();
                        self.emit(Op::Conv { dst, src: v, ty: t });
                        dst
                    }
                    None => v, // convert() is the identity for non-scalars
                }
            }
            ExprKind::SizeofTy(ty) => {
                let ty = ty.clone();
                match self.sizeof_c(&ty) {
                    SizeV::St(s) => self.const_into(Value::I64(s as i64)),
                    SizeV::Dy(r) => r,
                }
            }
            ExprKind::SizeofExpr(inner) => {
                let ty = inner.ty.clone();
                match self.sizeof_c(&ty) {
                    SizeV::St(s) => self.const_into(Value::I64(s as i64)),
                    SizeV::Dy(r) => r,
                }
            }
            ExprKind::Comma(a, b) => {
                self.rvalue(a);
                self.rvalue(b)
            }
        }
    }

    /// Compile `e` and make sure the result lands in `dst`.
    fn rv_to(&mut self, e: &Expr, dst: R) {
        let r = self.rvalue(e);
        if r != dst {
            self.emit(Op::Mov { dst, src: r });
        }
    }

    fn addr_of_place(&mut self, p: Place) -> R {
        match p {
            // Residency analysis keeps address-taken slots in memory, so
            // a Reg place can only be reached by a program the walker
            // would also reject.
            Place::Reg(..) => {
                self.trap("expression is not an lvalue".into());
                self.alloc()
            }
            Place::Slot(off, _) => {
                let dst = self.alloc();
                self.emit(Op::FrameAddr { dst, off });
                dst
            }
            Place::Abs(at, _) => {
                let a = match self.cx.consts[at as usize] {
                    Value::Ptr(p) => p,
                    _ => unreachable!(),
                };
                self.const_into(Value::Ptr(a))
            }
            Place::Mem(addr, off, _) => {
                if off == 0 {
                    addr
                } else {
                    let o = self.const_into(Value::I64(off as i64));
                    let dst = self.alloc();
                    self.emit(Op::Bin { op: BinOp::Add, dst, a: addr, b: o, stride: 1 });
                    dst
                }
            }
            Place::Idx(base, idx, stride, _) => self.addr_of_idx(base, idx, stride),
            Place::Trapped => self.alloc(),
        }
    }

    fn bin_c(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> R {
        // Short-circuit logicals.
        if op == BinOp::LogAnd {
            let dst = self.alloc();
            let l = self.rvalue(lhs);
            let jz = self.emit(Op::Jz { cond: l, to: u32::MAX });
            let r = self.rvalue(rhs);
            self.emit(Op::Truth { dst, src: r });
            let jmp = self.emit(Op::Jmp { to: u32::MAX });
            let here = self.here();
            self.patch(jz, here);
            let idx = self.cx.konst(Value::I32(0));
            self.emit(Op::Const { dst, idx });
            let here = self.here();
            self.patch(jmp, here);
            return dst;
        }
        if op == BinOp::LogOr {
            let dst = self.alloc();
            let l = self.rvalue(lhs);
            let jnz = self.emit(Op::Jnz { cond: l, to: u32::MAX });
            let r = self.rvalue(rhs);
            self.emit(Op::Truth { dst, src: r });
            let jmp = self.emit(Op::Jmp { to: u32::MAX });
            let here = self.here();
            self.patch(jnz, here);
            let idx = self.cx.konst(Value::I32(1));
            self.emit(Op::Const { dst, idx });
            let here = self.here();
            self.patch(jmp, here);
            return dst;
        }
        let l = self.rvalue(lhs);
        let l = self.shield(l, rhs);
        let r = self.rvalue(rhs);
        let lt = lhs.ty.decayed();
        let rt_ = rhs.ty.decayed();
        // Pointer difference divides by the left stride.
        if lt.is_ptr() && rt_.is_ptr() && op == BinOp::Sub {
            let stride = self.ptr_stride_c(lhs);
            let dst = self.alloc();
            match stride {
                SizeV::St(s) if s <= u32::MAX as u64 => {
                    self.emit(Op::PtrDiff { dst, a: l, b: r, stride: s as u32 });
                }
                SizeV::St(s) => {
                    let sr = self.const_into(Value::I64(s as i64));
                    self.emit(Op::PtrDiffD { dst, a: l, b: r, stride: sr });
                }
                SizeV::Dy(sr) => {
                    self.emit(Op::PtrDiffD { dst, a: l, b: r, stride: sr });
                }
            }
            return dst;
        }
        let stride = if lt.is_ptr() {
            self.ptr_stride_c(lhs)
        } else if rt_.is_ptr() {
            self.ptr_stride_c(rhs)
        } else {
            SizeV::St(1)
        };
        let dst = self.alloc();
        match stride {
            SizeV::St(s) if s <= u32::MAX as u64 => {
                self.emit(Op::Bin { op, dst, a: l, b: r, stride: s as u32 });
            }
            SizeV::St(s) => {
                let sr = self.const_into(Value::I64(s as i64));
                self.emit(Op::BinD { op, dst, a: l, b: r, stride: sr });
            }
            SizeV::Dy(sr) => {
                self.emit(Op::BinD { op, dst, a: l, b: r, stride: sr });
            }
        }
        dst
    }

    fn assign_c(&mut self, op: Option<BinOp>, lhs: &Expr, rhs: &Expr) -> R {
        // FMA fast path: `acc += a * b` on a register-resident scalar.
        if op == Some(BinOp::Add) {
            if let ExprKind::Ident(_, Resolved::Local(slot)) = &lhs.kind {
                if let Some(reg) = self.slot_reg[*slot as usize] {
                    let ty = &self.frame.slots[*slot as usize].ty;
                    if let ExprKind::Binary { op: BinOp::Mul, lhs: x, rhs: y } = &rhs.kind {
                        if !ty.is_ptr()
                            && !x.ty.decayed().is_ptr()
                            && !y.ty.decayed().is_ptr()
                            && !mutates(rhs)
                        {
                            let a = self.rvalue(x);
                            let b = self.rvalue(y);
                            self.emit(Op::FmaAssign { dst: reg, a, b, ty: tyk(ty).unwrap() });
                            return reg;
                        }
                    }
                }
            }
        }
        let rest_pure = pure_nt(rhs);
        let p = self.place(lhs, rest_pure);
        let v = match op {
            None => self.rvalue(rhs),
            Some(op) => {
                let cur = self.load_place(p.clone());
                let cur = self.shield(cur, rhs);
                let stride = self.ptr_stride_c(lhs);
                let r = self.rvalue(rhs);
                let dst = self.alloc();
                match stride {
                    SizeV::St(s) if s <= u32::MAX as u64 => {
                        self.emit(Op::Bin { op, dst, a: cur, b: r, stride: s as u32 });
                    }
                    SizeV::St(s) => {
                        let sr = self.const_into(Value::I64(s as i64));
                        self.emit(Op::BinD { op, dst, a: cur, b: r, stride: sr });
                    }
                    SizeV::Dy(sr) => {
                        self.emit(Op::BinD { op, dst, a: cur, b: r, stride: sr });
                    }
                }
                dst
            }
        };
        self.store_converted(&p, v)
    }

    /// `convert(v, place type)`, store it, and return the converted value
    /// (the walker's assignment result).
    fn store_converted(&mut self, p: &Place, v: R) -> R {
        let pty = match p {
            Place::Reg(r, t) => {
                self.emit(Op::Conv { dst: *r, src: v, ty: *t });
                return *r;
            }
            Place::Slot(_, ty) | Place::Abs(_, ty) | Place::Mem(_, _, ty) => ty.clone(),
            Place::Idx(_, _, _, ty) => ty.clone(),
            Place::Trapped => return v,
        };
        let out = match tyk(&pty) {
            Some(t) => {
                let dst = self.alloc();
                self.emit(Op::Conv { dst, src: v, ty: t });
                dst
            }
            None => v, // convert() is the identity for dim3/aggregates
        };
        self.store_place(p, out);
        out
    }

    fn incdec_c(&mut self, pre: bool, inc: bool, expr: &Expr) -> R {
        let p = self.place(expr, true);
        let old = self.load_place(p.clone());
        let old = if self.is_slot_reg(old) {
            // The store below overwrites the slot register; keep the old
            // value for postfix results.
            let dst = self.alloc();
            self.emit(Op::Mov { dst, src: old });
            dst
        } else {
            old
        };
        let stride = self.ptr_stride_c(expr);
        let delta = self.const_into(Value::I64(if inc { 1 } else { -1 }));
        let new = self.alloc();
        match stride {
            SizeV::St(s) if s <= u32::MAX as u64 => {
                self.emit(Op::Bin { op: BinOp::Add, dst: new, a: old, b: delta, stride: s as u32 });
            }
            SizeV::St(s) => {
                let sr = self.const_into(Value::I64(s as i64));
                self.emit(Op::BinD { op: BinOp::Add, dst: new, a: old, b: delta, stride: sr });
            }
            SizeV::Dy(sr) => {
                self.emit(Op::BinD { op: BinOp::Add, dst: new, a: old, b: delta, stride: sr });
            }
        }
        let stored = self.store_converted(&p, new);
        if pre {
            stored
        } else {
            old
        }
    }

    fn call_c(&mut self, callee: &str, args: &[Expr]) -> R {
        // Resolution order matches the walker: program definitions shadow
        // printf, printf shadows builtins, builtins shadow hooks.
        if self.cx.m.func(callee).is_some() {
            if args.len() > u8::MAX as usize {
                for a in args {
                    self.rvalue(a);
                }
                self.trap(format!("call to `{callee}` with too many args"));
                return self.alloc();
            }
            let abase = self.alloc_n(args.len() as u16);
            for (k, a) in args.iter().enumerate() {
                self.rv_to(a, abase + k as R);
            }
            let dst = self.alloc();
            let func = self.cx.fn_chunk[callee];
            self.emit(Op::Call { dst, func, abase, nargs: args.len() as u8 });
            return dst;
        }
        if callee == "printf" {
            return self.printf_c(args);
        }
        let abase = self.alloc_n(args.len().min(255) as u16);
        for (k, a) in args.iter().take(255).enumerate() {
            self.rv_to(a, abase + k as R);
        }
        let nargs = args.len().min(255) as u8;
        let dst = self.alloc();
        if let Some(which) = rt::builtin_index(callee) {
            self.emit(Op::CallBuiltin { dst, which, abase, nargs });
        } else {
            let name = self.cx.string(callee);
            self.emit(Op::CallHook { dst, name, abase, nargs });
        }
        dst
    }

    fn printf_c(&mut self, args: &[Expr]) -> R {
        if args.is_empty() {
            self.trap("printf needs a format".into());
            return self.alloc();
        }
        if let ExprKind::StrLit(s) = &args[0].kind {
            // Static format: compile exactly the conversion-matched
            // arguments — surplus arguments are never evaluated, exactly
            // like the walker's zip.
            let n = rt::printf_arg_kinds(s).len().min(args.len() - 1).min(255);
            let fmt = self.cx.string(s);
            let abase = self.alloc_n(n as u16);
            for (k, a) in args[1..1 + n].iter().enumerate() {
                self.rv_to(a, abase + k as R);
            }
            let dst = self.alloc();
            self.emit(Op::Printf { dst, fmt, abase, nargs: n as u8 });
            return dst;
        }
        // Dynamic format: all arguments evaluate eagerly (documented
        // divergence — the walker zips lazily against the runtime format).
        let fmt = self.rvalue(&args[0]);
        let n = (args.len() - 1).min(255);
        let abase = self.alloc_n(n as u16);
        for (k, a) in args[1..1 + n].iter().enumerate() {
            self.rv_to(a, abase + k as R);
        }
        let dst = self.alloc();
        self.emit(Op::PrintfD { dst, fmt, abase, nargs: n as u8 });
        dst
    }

    /// Compile a grid/block configuration into three consecutive
    /// registers (each `I64(max(v,1) as u32)`, like the walker).
    fn dim3_into(&mut self, e: &Expr, dst3: R) {
        match &e.kind {
            ExprKind::Dim3 { x, y, z } => {
                let xv = self.rvalue(x);
                self.emit(Op::DimFix { dst: dst3, src: xv });
                match y {
                    Some(y) => {
                        let yv = self.rvalue(y);
                        self.emit(Op::DimFix { dst: dst3 + 1, src: yv });
                    }
                    None => {
                        let idx = self.cx.konst(Value::I64(1));
                        self.emit(Op::Const { dst: dst3 + 1, idx });
                    }
                }
                match z {
                    Some(z) => {
                        let zv = self.rvalue(z);
                        self.emit(Op::DimFix { dst: dst3 + 2, src: zv });
                    }
                    None => {
                        let idx = self.cx.konst(Value::I64(1));
                        self.emit(Op::Const { dst: dst3 + 2, idx });
                    }
                }
            }
            ExprKind::Ident(_, Resolved::Local(slot))
                if self.frame.slots[*slot as usize].ty == Ty::Dim3 =>
            {
                let off = self.frame.slots[*slot as usize].offset as u32;
                self.emit(Op::Dim3Load { dst3, off });
            }
            _ => {
                let v = self.rvalue(e);
                self.emit(Op::DimFix { dst: dst3, src: v });
                let idx = self.cx.konst(Value::I64(1));
                self.emit(Op::Const { dst: dst3 + 1, idx });
                self.emit(Op::Const { dst: dst3 + 2, idx });
            }
        }
    }
}
