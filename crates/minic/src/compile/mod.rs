//! AST → register bytecode compiler.
//!
//! One [`Chunk`] per function definition, plus a synthetic chunk for
//! global initializers. The compiler is *total*: anything it cannot
//! lower (or that the walker would reject at runtime) becomes a
//! [`Op::Trap`] carrying the walker's exact message, so both engines
//! fail identically and compilation itself never errors.
//!
//! The contract is bit-identical behaviour with [`crate::walker`]:
//!
//! * **Evaluation order is preserved** — lvalue before rhs in
//!   assignments, base → null-check → stride → index for subscripts,
//!   operands left-to-right. Where a fused op would reorder an
//!   *observable* step (a trap or output) past an impure expression, an
//!   explicit [`Op::ChkNull`] keeps the walker's order; for pure
//!   index/rhs expressions the fused check is indistinguishable.
//! * **Register residency is conservative** — only scalar locals whose
//!   address is never taken (`&x`, including through casts) live in
//!   registers; everything else keeps its sema-assigned frame slot, and
//!   `frame_size` is unchanged so stack-exhaustion behaviour matches.
//! * **Every write is converted** — a register write goes through
//!   [`Op::Conv`], which equals the walker's `store_typed`/`load_typed`
//!   round-trip for every scalar type.
//!
//! Known (documented) divergences, all outside the apps' behaviour:
//! reads of reused-stack garbage (registers are typed-zeroed instead),
//! `printf` through a *runtime* format pointer evaluates surplus
//! arguments eagerly, and brace initializers on VLA-typed locals trap.

use std::collections::HashMap;

use vmcommon::Value;

use crate::ast::*;
use crate::bytecode::{Chunk, CompiledProgram, LoopStats, Op, TyK, R};
use crate::image::Image;
use crate::interp::{visit_child_exprs, visit_child_stmts, visit_stmt_exprs};
use crate::types::{ArrayLen, Ty};

/// Compile the image's program against its static layout. Infallible; see
/// module docs. [`Image::compiled`] is the one caller: a program compiles
/// once, however many machines run it.
pub fn compile(m: &Image) -> CompiledProgram {
    let mut cx = Cx {
        m,
        consts: Vec::new(),
        strs: Vec::new(),
        str_map: HashMap::new(),
        fn_chunk: HashMap::new(),
        line_tables: Vec::new(),
        line_map: HashMap::new(),
        rets: Vec::new(),
        loop_stats: LoopStats::default(),
    };
    let defs: Vec<&FuncDef> = m
        .prog
        .items
        .iter()
        .filter_map(|it| match it {
            Item::Func(f) => Some(f),
            _ => None,
        })
        .collect();
    cx.rets = defs.iter().map(|fd| tyk(&fd.sig.ret)).collect();
    // Later definitions shadow earlier ones in `Image::fn_defs`
    // (last insert wins); keep the same resolution.
    for (i, fd) in defs.iter().enumerate() {
        cx.fn_chunk.insert(fd.sig.name.clone(), i as u32);
    }
    let mut chunks: Vec<Chunk> = Vec::with_capacity(defs.len() + 1);
    for fd in &defs {
        chunks.push(compile_fn(&mut cx, fd));
    }
    let init_chunk = compile_global_init(&mut cx).map(|c| {
        chunks.push(c);
        (chunks.len() - 1) as u32
    });
    let mut base = 0;
    for c in &mut chunks {
        c.base = base;
        base += 1 + c.code.len() as u32;
    }
    CompiledProgram {
        chunks,
        fn_chunk: cx.fn_chunk,
        init_chunk,
        consts: cx.consts,
        strs: cx.strs,
        line_tables: cx.line_tables,
        loop_stats: cx.loop_stats,
    }
}

/// Program-wide compile state (pools).
struct Cx<'m> {
    m: &'m Image,
    consts: Vec<Value>,
    strs: Vec<String>,
    str_map: HashMap<String, u32>,
    fn_chunk: HashMap<String, u32>,
    line_tables: Vec<Vec<(u32, u32)>>,
    line_map: HashMap<Vec<(u32, u32)>, u32>,
    /// Declared return type per chunk index (what its `Ret` converts to).
    rets: Vec<Option<TyK>>,
    loop_stats: LoopStats,
}

impl Cx<'_> {
    fn konst(&mut self, v: Value) -> u32 {
        // Bit-exact dedup (don't let -0.0/NaN fold via PartialEq).
        let key = |v: &Value| match *v {
            Value::I32(x) => (0u8, x as u32 as u64),
            Value::I64(x) => (1, x as u64),
            Value::F32(x) => (2, x.to_bits() as u64),
            Value::F64(x) => (3, x.to_bits()),
            Value::Ptr(x) => (4, x),
        };
        let k = key(&v);
        if let Some(i) = self.consts.iter().position(|c| key(c) == k) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    /// Intern a pc→line table, deduplicating bit-exactly like the
    /// constant pool (chunks with identical line shapes share one table).
    fn line_table(&mut self, t: Vec<(u32, u32)>) -> u32 {
        if let Some(&i) = self.line_map.get(&t) {
            return i;
        }
        self.line_tables.push(t.clone());
        let i = (self.line_tables.len() - 1) as u32;
        self.line_map.insert(t, i);
        i
    }

    fn string(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.str_map.get(s) {
            return i;
        }
        self.strs.push(s.to_string());
        let i = (self.strs.len() - 1) as u32;
        self.str_map.insert(s.to_string(), i);
        i
    }
}

/// Scalar type → compact kind (None for array/dim3/void/unknown).
fn tyk(ty: &Ty) -> Option<TyK> {
    Some(match ty {
        Ty::Char => TyK::Char,
        Ty::Int => TyK::Int,
        Ty::Long => TyK::Long,
        Ty::Float => TyK::Float,
        Ty::Double => TyK::Double,
        Ty::Ptr(_) => TyK::Ptr,
        _ => return None,
    })
}

/// Does the subtree contain anything that can write guest state?
/// (Used to decide when a register-resident operand must be copied to a
/// temp before evaluating the other operand.)
fn mutates(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Assign { .. }
        | ExprKind::IncDec { .. }
        | ExprKind::Call { .. }
        | ExprKind::KernelLaunch { .. } => return true,
        _ => {}
    }
    let mut found = false;
    visit_child_exprs(e, &mut |c| found |= mutates(c));
    found
}

/// Provably side-effect-free *and* non-trapping (cannot emit output,
/// trap, or write state). Fused null checks may float past these.
fn pure_nt(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(..) | ExprKind::StrLit(_) => true,
        ExprKind::Ident(_, Resolved::Local(_)) | ExprKind::Ident(_, Resolved::Global(_)) => {
            !matches!(e.ty, Ty::Dim3 | Ty::Unknown | Ty::Void)
        }
        ExprKind::Unary { op: UnOp::Neg | UnOp::Not | UnOp::BitNot, expr } => pure_nt(expr),
        ExprKind::Binary { op, lhs, rhs } => {
            !matches!(op, BinOp::Div | BinOp::Rem)
                && !lhs.ty.decayed().is_ptr()
                && !rhs.ty.decayed().is_ptr()
                && pure_nt(lhs)
                && pure_nt(rhs)
        }
        ExprKind::Cast { expr, .. } => pure_nt(expr),
        ExprKind::SizeofTy(ty) => ty.size().is_some(),
        ExprKind::SizeofExpr(inner) => inner.ty.size().is_some(),
        ExprKind::Ternary { cond, then_e, else_e } => {
            pure_nt(cond) && pure_nt(then_e) && pure_nt(else_e)
        }
        ExprKind::Comma(a, b) => pure_nt(a) && pure_nt(b),
        _ => false,
    }
}

/// Peel casts off an expression (lvalue casts are transparent).
fn peel(e: &Expr) -> &Expr {
    match &e.kind {
        ExprKind::Cast { expr, .. } => peel(expr),
        _ => e,
    }
}

/// Which slots must stay memory-resident: address taken, shared, or
/// non-scalar type.
fn residency(fd: &FuncDef) -> Vec<bool> {
    let mut reg: Vec<bool> =
        fd.frame.slots.iter().map(|s| tyk(&s.ty).is_some() && !s.shared).collect();
    fn scan_expr(e: &Expr, reg: &mut [bool]) {
        if let ExprKind::Unary { op: UnOp::Addr, expr } = &e.kind {
            if let ExprKind::Ident(_, Resolved::Local(slot)) = &peel(expr).kind {
                reg[*slot as usize] = false;
            }
        }
        visit_child_exprs(e, &mut |c| scan_expr(c, reg));
    }
    fn scan_stmt(s: &Stmt, reg: &mut [bool]) {
        visit_stmt_exprs(s, &mut |e| scan_expr(e, reg));
        visit_child_stmts(s, &mut |c| scan_stmt(c, reg));
    }
    for s in &fd.body.stmts {
        scan_stmt(s, &mut reg);
    }
    reg
}

/// A compiled lvalue: where a value lives and how to reach it.
#[derive(Clone)]
enum Place {
    /// Register-resident scalar slot.
    Reg(R, TyK),
    /// Memory-resident frame slot at a static offset.
    Slot(u32, Ty),
    /// Global at a static address (consts index of the `Ptr`).
    Abs(u32, Ty),
    /// Computed pointer + static byte offset.
    Mem(R, u32, Ty),
    /// Fused element: `base + idx * stride`.
    Idx(R, R, SizeV, Ty),
    /// The walker would have trapped constructing this lvalue; the trap
    /// op is already emitted.
    Trapped,
}

/// A compile-time-static or register-held size/stride.
#[derive(Clone, Copy)]
enum SizeV {
    St(u64),
    Dy(R),
}

struct Loop {
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

/// Per-function compile state.
struct FnCx<'c, 'm> {
    cx: &'c mut Cx<'m>,
    frame: &'c crate::sema::FrameInfo,
    /// Declared return type (returns are converted to it).
    ret: Ty,
    /// Slot index → register (register-resident slots only).
    slot_reg: Vec<Option<R>>,
    /// First temp register; statement boundaries reset the watermark here.
    first_tmp: R,
    tmp: R,
    max_reg: u16,
    code: Vec<Op>,
    loops: Vec<Loop>,
    /// Source line attributed to the ops emitted next (0 = unknown).
    cur_line: u32,
    /// RLE pc→line runs, appended by [`FnCx::emit`] in lockstep with
    /// `code`. Purely additional metadata: the op stream is unchanged.
    lines: Vec<(u32, u32)>,
}

impl FnCx<'_, '_> {
    fn alloc(&mut self) -> R {
        let r = self.tmp;
        self.tmp += 1;
        self.max_reg = self.max_reg.max(self.tmp);
        r
    }

    fn alloc_n(&mut self, n: u16) -> R {
        let r = self.tmp;
        self.tmp += n;
        self.max_reg = self.max_reg.max(self.tmp);
        r
    }

    fn emit(&mut self, op: Op) -> usize {
        if self.lines.last().map(|&(_, l)| l) != Some(self.cur_line) {
            self.lines.push((self.code.len() as u32, self.cur_line));
        }
        self.code.push(op);
        self.code.len() - 1
    }

    /// Attribute subsequently emitted ops to `pos`'s line (keeps the
    /// previous attribution for synthetic positions).
    fn set_line(&mut self, pos: crate::token::Pos) {
        if pos.line != 0 {
            self.cur_line = pos.line;
        }
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.code[at] {
            Op::Jmp { to: t } | Op::Jz { to: t, .. } | Op::Jnz { to: t, .. } => *t = to,
            _ => unreachable!("patch target is not a jump"),
        }
    }

    fn trap(&mut self, msg: String) {
        let msg = self.cx.string(&msg);
        self.emit(Op::Trap { msg });
    }

    fn const_into(&mut self, v: Value) -> R {
        let idx = self.cx.konst(v);
        let dst = self.alloc();
        self.emit(Op::Const { dst, idx });
        dst
    }

    /// Is `r` a slot-resident register (live across statements)?
    fn is_slot_reg(&self, r: R) -> bool {
        r < self.first_tmp
    }

    /// Copy `r` to a temp if the upcoming compilation of `next` could
    /// mutate a slot register out from under us.
    fn shield(&mut self, r: R, next: &Expr) -> R {
        if self.is_slot_reg(r) && mutates(next) {
            let dst = self.alloc();
            self.emit(Op::Mov { dst, src: r });
            dst
        } else {
            r
        }
    }

    // ----------------------------------------------------------- sizeof

    /// Compile `sizeof(ty)`, evaluating VLA extents exactly like the
    /// walker's `sizeof_rt` (extent first, negative check, then element).
    fn sizeof_c(&mut self, ty: &Ty) -> SizeV {
        match ty {
            Ty::Array(elem, len) => match len {
                ArrayLen::Const(n) => match self.sizeof_c(elem) {
                    SizeV::St(e) => SizeV::St(e.wrapping_mul(*n)),
                    SizeV::Dy(er) => {
                        let nr = self.const_into(Value::I64(*n as i64));
                        let dst = self.alloc();
                        self.emit(Op::Bin { op: BinOp::Mul, dst, a: nr, b: er, stride: 1 });
                        SizeV::Dy(dst)
                    }
                },
                ArrayLen::Expr(e) => {
                    let ext = self.rvalue(e);
                    match self.sizeof_c_static(elem) {
                        Some(es) if es <= u32::MAX as u64 => {
                            let dst = self.alloc();
                            self.emit(Op::Stride { dst, extent: ext, elem: es as u32 });
                            SizeV::Dy(dst)
                        }
                        _ => {
                            // Negative check on this extent before the
                            // element size is computed (walker order holds
                            // for static elements; dynamic elements are
                            // checked by their own Stride ops).
                            let chk = self.alloc();
                            self.emit(Op::Stride { dst: chk, extent: ext, elem: 1 });
                            let er = match self.sizeof_c(elem) {
                                SizeV::St(e) => self.const_into(Value::I64(e as i64)),
                                SizeV::Dy(r) => r,
                            };
                            let dst = self.alloc();
                            self.emit(Op::StrideD { dst, extent: chk, elem: er });
                            SizeV::Dy(dst)
                        }
                    }
                }
                ArrayLen::Unspec => {
                    self.trap("sizeof of unsized array".into());
                    SizeV::St(1)
                }
            },
            other => match other.size() {
                Some(s) => SizeV::St(s),
                None => {
                    self.trap(format!("sizeof of unsized type {other}"));
                    SizeV::St(1)
                }
            },
        }
    }

    fn sizeof_c_static(&self, ty: &Ty) -> Option<u64> {
        ty.size()
    }

    /// Stride for pointer arithmetic on `e` (1 for non-pointers).
    fn ptr_stride_c(&mut self, e: &Expr) -> SizeV {
        match e.ty.decayed() {
            Ty::Ptr(inner) => self.sizeof_c(&inner),
            _ => SizeV::St(1),
        }
    }

    // ----------------------------------------------------------- places

    /// Compile an lvalue. `rest_pure` promises that everything between
    /// this place's construction and its first memory access is
    /// non-observable, letting fused null checks stand in for the
    /// walker's check-at-lvalue-time.
    fn place(&mut self, e: &Expr, rest_pure: bool) -> Place {
        match &e.kind {
            ExprKind::Ident(name, resolved) => match resolved {
                Resolved::Local(slot) => {
                    let ty = self.frame.slots[*slot as usize].ty.clone();
                    match self.slot_reg[*slot as usize] {
                        Some(r) => Place::Reg(r, tyk(&ty).expect("reg slot is scalar")),
                        None => Place::Slot(self.frame.slots[*slot as usize].offset as u32, ty),
                    }
                }
                Resolved::Global(i) => {
                    let a = self.cx.m.global_addrs[*i as usize];
                    let ty = self.cx.m.info.globals[*i as usize].ty.clone();
                    let at = self.cx.konst(Value::Ptr(a));
                    Place::Abs(at, ty)
                }
                _ => {
                    self.trap(format!("`{name}` is not an lvalue"));
                    Place::Trapped
                }
            },
            ExprKind::Unary { op: UnOp::Deref, expr } => {
                let p = self.rvalue(expr);
                // The walker null-checks at lvalue time, before anything
                // later in the statement runs.
                self.emit(Op::ChkNull { src: p });
                match expr.ty.decayed() {
                    Ty::Ptr(inner) => Place::Mem(p, 0, *inner),
                    other => {
                        self.trap(format!("deref of non-pointer {other}"));
                        Place::Trapped
                    }
                }
            }
            ExprKind::Index { base, index } => {
                let bv = self.rvalue(base);
                let elem = match base.ty.decayed() {
                    Ty::Ptr(inner) => *inner,
                    other => {
                        self.trap(format!("index of non-pointer {other}"));
                        return Place::Trapped;
                    }
                };
                if !(rest_pure && pure_nt(index)) {
                    self.emit(Op::ChkNull { src: bv });
                }
                let bv = self.shield(bv, index);
                let stride = self.sizeof_c(&elem);
                let i = self.rvalue(index);
                Place::Idx(bv, i, stride, elem)
            }
            ExprKind::Member { base, field } => {
                let bp = self.place(base, rest_pure);
                let bty = match &bp {
                    Place::Reg(_, _) => {
                        // Register slots are scalars, never dim3.
                        self.trap(format!("member access on {}", base.ty));
                        return Place::Trapped;
                    }
                    Place::Slot(_, ty) | Place::Abs(_, ty) | Place::Mem(_, _, ty) => ty.clone(),
                    Place::Idx(_, _, _, ty) => ty.clone(),
                    Place::Trapped => return Place::Trapped,
                };
                if bty != Ty::Dim3 {
                    self.trap(format!("member access on {bty}"));
                    return Place::Trapped;
                }
                let off: u32 = match field.as_str() {
                    "x" => 0,
                    "y" => 4,
                    "z" => 8,
                    _ => {
                        self.trap(format!("dim3 has no member {field}"));
                        return Place::Trapped;
                    }
                };
                match bp {
                    Place::Slot(o, _) => Place::Slot(o + off, Ty::Int),
                    Place::Abs(at, _) => {
                        let base_addr = match self.cx.consts[at as usize] {
                            Value::Ptr(p) => p,
                            _ => unreachable!("Abs place holds a Ptr const"),
                        };
                        let at = self.cx.konst(Value::Ptr(base_addr + off as u64));
                        Place::Abs(at, Ty::Int)
                    }
                    Place::Mem(a, o, _) => Place::Mem(a, o + off, Ty::Int),
                    Place::Idx(b, i, s, _) => {
                        let a = self.addr_of_idx(b, i, s);
                        Place::Mem(a, off, Ty::Int)
                    }
                    Place::Reg(..) | Place::Trapped => unreachable!(),
                }
            }
            ExprKind::Cast { expr, .. } => self.place(expr, rest_pure),
            _ => {
                self.trap("expression is not an lvalue".into());
                Place::Trapped
            }
        }
    }

    fn addr_of_idx(&mut self, base: R, idx: R, stride: SizeV) -> R {
        let dst = self.alloc();
        match stride {
            SizeV::St(s) if s <= u32::MAX as u64 => {
                self.emit(Op::AddrIdx { dst, base, idx, stride: s as u32 });
            }
            SizeV::St(s) => {
                let sr = self.const_into(Value::I64(s as i64));
                self.emit(Op::AddrIdxD { dst, base, idx, stride: sr });
            }
            SizeV::Dy(sr) => {
                self.emit(Op::AddrIdxD { dst, base, idx, stride: sr });
            }
        }
        dst
    }

    /// Load a place as an rvalue (array-typed places decay to their
    /// address, dim3 loads trap — both as in the walker).
    fn load_place(&mut self, p: Place) -> R {
        match p {
            Place::Reg(r, _) => r,
            Place::Slot(off, ty) => {
                if ty.is_array() {
                    let dst = self.alloc();
                    self.emit(Op::FrameAddr { dst, off });
                    return dst;
                }
                match tyk(&ty) {
                    Some(t) => {
                        let dst = self.alloc();
                        self.emit(Op::LoadSlot { dst, off, ty: t });
                        dst
                    }
                    None => {
                        self.trap(format!("cannot load value of type {ty}"));
                        self.alloc()
                    }
                }
            }
            Place::Abs(at, ty) => {
                if ty.is_array() {
                    let addr = match self.cx.consts[at as usize] {
                        Value::Ptr(p) => p,
                        _ => unreachable!(),
                    };
                    return self.const_into(Value::Ptr(addr));
                }
                match tyk(&ty) {
                    Some(t) => {
                        let dst = self.alloc();
                        self.emit(Op::LoadAbs { dst, at, ty: t });
                        dst
                    }
                    None => {
                        self.trap(format!("cannot load value of type {ty}"));
                        self.alloc()
                    }
                }
            }
            Place::Mem(addr, off, ty) => {
                if ty.is_array() {
                    if off == 0 {
                        return addr;
                    }
                    let offr = self.const_into(Value::I64(off as i64));
                    let dst = self.alloc();
                    self.emit(Op::Bin { op: BinOp::Add, dst, a: addr, b: offr, stride: 1 });
                    return dst;
                }
                match tyk(&ty) {
                    Some(t) => {
                        let dst = self.alloc();
                        self.emit(Op::Load { dst, addr, off, ty: t });
                        dst
                    }
                    None => {
                        self.trap(format!("cannot load value of type {ty}"));
                        self.alloc()
                    }
                }
            }
            Place::Idx(base, idx, stride, ty) => {
                if ty.is_array() {
                    return self.addr_of_idx(base, idx, stride);
                }
                match tyk(&ty) {
                    Some(t) => {
                        let dst = self.alloc();
                        match stride {
                            SizeV::St(s) if s <= u32::MAX as u64 => {
                                self.emit(Op::LoadIdx { dst, base, idx, stride: s as u32, ty: t });
                            }
                            SizeV::St(s) => {
                                let sr = self.const_into(Value::I64(s as i64));
                                self.emit(Op::LoadIdxD { dst, base, idx, stride: sr, ty: t });
                            }
                            SizeV::Dy(sr) => {
                                self.emit(Op::LoadIdxD { dst, base, idx, stride: sr, ty: t });
                            }
                        }
                        dst
                    }
                    None => {
                        self.trap(format!("cannot load value of type {ty}"));
                        self.alloc()
                    }
                }
            }
            Place::Trapped => self.alloc(),
        }
    }

    /// Store `src` to a place with `store_typed` semantics (the value is
    /// type-coerced by the store itself). For register places, the
    /// equivalent coercion is an explicit [`Op::Conv`].
    fn store_place(&mut self, p: &Place, src: R) {
        match p {
            Place::Reg(r, t) => {
                self.emit(Op::Conv { dst: *r, src, ty: *t });
            }
            Place::Slot(off, ty) => match store_kind(ty) {
                Some(t) => {
                    self.emit(Op::StoreSlot { off: *off, src, ty: t });
                }
                None => self.trap(format!("cannot store value of type {ty}")),
            },
            Place::Abs(at, ty) => match store_kind(ty) {
                Some(t) => {
                    self.emit(Op::StoreAbs { at: *at, src, ty: t });
                }
                None => self.trap(format!("cannot store value of type {ty}")),
            },
            Place::Mem(addr, off, ty) => match store_kind(ty) {
                Some(t) => {
                    self.emit(Op::Store { addr: *addr, off: *off, src, ty: t });
                }
                None => self.trap(format!("cannot store value of type {ty}")),
            },
            Place::Idx(base, idx, stride, ty) => match store_kind(ty) {
                Some(t) => match stride {
                    SizeV::St(s) if *s <= u32::MAX as u64 => {
                        self.emit(Op::StoreIdx {
                            base: *base,
                            idx: *idx,
                            stride: *s as u32,
                            src,
                            ty: t,
                        });
                    }
                    SizeV::St(s) => {
                        let sr = self.const_into(Value::I64(*s as i64));
                        self.emit(Op::StoreIdxD { base: *base, idx: *idx, stride: sr, src, ty: t });
                    }
                    SizeV::Dy(sr) => {
                        self.emit(Op::StoreIdxD {
                            base: *base,
                            idx: *idx,
                            stride: *sr,
                            src,
                            ty: t,
                        });
                    }
                },
                None => self.trap(format!("cannot store value of type {ty}")),
            },
            Place::Trapped => {}
        }
    }
}

/// Store kind for a place type (`Dim3` stores its x component, like the
/// walker's `store_typed`).
fn store_kind(ty: &Ty) -> Option<TyK> {
    match ty {
        Ty::Dim3 => Some(TyK::Dim3X),
        other => tyk(other),
    }
}

mod expr;
mod fuse;
mod loops;
mod specialize;

use expr::{compile_fn, compile_global_init};
