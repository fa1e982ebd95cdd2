//! Specialisation pass: prove each register's `Value` tag at each op and
//! rewrite the hot shapes into typed and fused ops (see
//! [`crate::bytecode`]'s typed ops). Runs once per chunk, after emission
//! and before the loop pass (`compile/loops.rs`) and the interning of the
//! line table.
//!
//! **Proof rule.**
//!
//! * A *slot register* (resident local) has its declared type's tag for
//!   the whole chunk when one scan finds that every op writing it is a
//!   `Conv` or `FmaAssign` to that type (the typed zero at entry and the
//!   parameter binding convert to it too); otherwise its tag is unknown.
//! * A *temp* is tracked forward within a basic block from each op's
//!   result rule: a constant's tag, a load's or `Conv`'s type, the
//!   `apply_binop` promotion rule, a callee's declared return type or a
//!   builtin's signature. At every jump target temp tags reset to unknown
//!   (an epoch bump, so the reset is O(1)).
//! * *Deadness* comes from one backward bitset liveness pass over the
//!   temps (slot registers are never swallowed or dropped). A fusion needs
//!   every temp it swallows to be dead afterwards and no jump target inside
//!   the fused span.
//!
//! An op whose operand tags are not proven keeps its generic form, and
//! every typed VM arm re-checks the tags it was promised, so a wrong proof
//! costs speed, never a different answer. The pass is linear in the code
//! size (times the register bitset width) and runs once per
//! [`crate::Image`] ([`crate::Image::compiled`]), however many machines and
//! served jobs run the program.

use vmcommon::Value;

use crate::ast::BinOp;
use crate::bytecode::{Op, TyK, R};
use crate::rt;

/// A register's runtime tag, as far as the pass can prove it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tag {
    Unk,
    I32,
    I64,
    F32,
    F64,
    Ptr,
}

fn tag_of_ty(ty: TyK) -> Tag {
    match ty {
        TyK::Char | TyK::Int => Tag::I32,
        TyK::Long => Tag::I64,
        TyK::Float => Tag::F32,
        TyK::Double => Tag::F64,
        TyK::Ptr => Tag::Ptr,
        TyK::Dim3X => Tag::Unk,
    }
}

fn tag_of_val(v: Value) -> Tag {
    match v {
        Value::I32(_) => Tag::I32,
        Value::I64(_) => Tag::I64,
        Value::F32(_) => Tag::F32,
        Value::F64(_) => Tag::F64,
        Value::Ptr(_) => Tag::Ptr,
    }
}

/// [`rt::apply_binop`]'s result tag for operand tags `a`, `b`.
fn binop_tag(op: BinOp, a: Tag, b: Tag) -> Tag {
    use Tag::*;
    if op.is_comparison() {
        return I32;
    }
    if a == Unk || b == Unk || matches!(op, BinOp::LogAnd | BinOp::LogOr) {
        return Unk;
    }
    if (a == Ptr && matches!(op, BinOp::Add | BinOp::Sub)) || (b == Ptr && op == BinOp::Add) {
        return Ptr;
    }
    if matches!(a, F32 | F64) || matches!(b, F32 | F64) {
        return match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                if matches!(a, F64 | Ptr) || matches!(b, F64 | Ptr) {
                    F64
                } else {
                    F32
                }
            }
            _ => Unk, // traps
        };
    }
    if matches!(a, I64 | Ptr) || matches!(b, I64 | Ptr) {
        I64
    } else {
        I32
    }
}

/// Result tag of builtin `which` (its signature in [`rt::call_builtin`]).
fn builtin_tag(which: u16) -> Tag {
    match rt::BUILTINS[which as usize] {
        "sqrtf" | "fabsf" | "powf" | "expf" | "logf" | "fmaxf" | "fminf" => Tag::F32,
        "sqrt" | "fabs" | "pow" | "exp" | "log" | "sin" | "cos" | "floor" | "ceil" | "fmax"
        | "fmin" => Tag::F64,
        "abs" | "free" => Tag::I32,
        "malloc" => Tag::Ptr,
        _ => Tag::Unk, // memset returns its argument; exit traps
    }
}

/// The registers an op writes, as a contiguous run `(first, count)`.
pub(super) fn def_of(op: &Op) -> Option<(R, u16)> {
    use Op::*;
    Some(match *op {
        Const { dst, .. }
        | Mov { dst, .. }
        | Conv { dst, .. }
        | FrameAddr { dst, .. }
        | LoadSlot { dst, .. }
        | LoadAbs { dst, .. }
        | Load { dst, .. }
        | LoadIdx { dst, .. }
        | AddrIdx { dst, .. }
        | LoadIdxD { dst, .. }
        | AddrIdxD { dst, .. }
        | Stride { dst, .. }
        | StrideD { dst, .. }
        | Bin { dst, .. }
        | BinD { dst, .. }
        | PtrDiff { dst, .. }
        | PtrDiffD { dst, .. }
        | FmaAssign { dst, .. }
        | Neg { dst, .. }
        | NotL { dst, .. }
        | BitNot { dst, .. }
        | Truth { dst, .. }
        | Call { dst, .. }
        | CallBuiltin { dst, .. }
        | CallHook { dst, .. }
        | Printf { dst, .. }
        | PrintfD { dst, .. }
        | DimFix { dst, .. }
        | AddI { dst, .. }
        | SubI { dst, .. }
        | MulI { dst, .. }
        | AddIK { dst, .. }
        | MulIK { dst, .. }
        | AddF { dst, .. }
        | SubF { dst, .. }
        | MulF { dst, .. }
        | MulKF { dst, .. }
        | FmaF { dst, .. }
        | IncI { r: dst, .. }
        | LoadIdxSum { dst, .. }
        | LoadIdxMad { dst, .. }
        | FmaIdx { acc: dst, .. }
        | IncJcmp { r: dst, .. } => (dst, 1),
        Dim3Load { dst3, .. } => (dst3, 3),
        StoreSlot { .. }
        | StoreAbs { .. }
        | Store { .. }
        | StoreIdx { .. }
        | StoreIdxD { .. }
        | ChkNull { .. }
        | Jmp { .. }
        | Jz { .. }
        | Jnz { .. }
        | Jcmp { .. }
        | JcmpIK { .. }
        | Ret { .. }
        | Launch { .. }
        | Dim3Store { .. }
        | Trap { .. } => return None,
    })
}

/// Call `f` on every register an op reads.
pub(super) fn uses_of(op: &Op, mut f: impl FnMut(R)) {
    use Op::*;
    let mut run = |first: R, n: u16| (first..first + n).for_each(&mut f);
    match *op {
        Mov { src, .. }
        | Conv { src, .. }
        | StoreSlot { src, .. }
        | StoreAbs { src, .. }
        | Load { addr: src, .. }
        | ChkNull { src }
        | Stride { extent: src, .. }
        | Neg { src, .. }
        | NotL { src, .. }
        | BitNot { src, .. }
        | Truth { src, .. }
        | Jz { cond: src, .. }
        | Jnz { cond: src, .. }
        | Ret { src }
        | DimFix { src, .. }
        | AddIK { a: src, .. }
        | MulIK { a: src, .. }
        | MulKF { a: src, .. }
        | JcmpIK { a: src, .. }
        | IncI { r: src, .. } => run(src, 1),
        Store { addr: a, src: b, .. }
        | LoadIdx { base: a, idx: b, .. }
        | AddrIdx { base: a, idx: b, .. }
        | StrideD { extent: a, elem: b, .. }
        | Bin { a, b, .. }
        | PtrDiff { a, b, .. }
        | AddI { a, b, .. }
        | SubI { a, b, .. }
        | MulI { a, b, .. }
        | AddF { a, b, .. }
        | SubF { a, b, .. }
        | MulF { a, b, .. }
        | Jcmp { a, b, .. }
        | IncJcmp { r: a, b, .. } => {
            run(a, 1);
            run(b, 1);
        }
        StoreIdx { base, idx, src: c, .. }
        | LoadIdxD { base, idx, stride: c, .. }
        | AddrIdxD { base, idx, stride: c, .. }
        | BinD { a: base, b: idx, stride: c, .. }
        | PtrDiffD { a: base, b: idx, stride: c, .. }
        | FmaAssign { dst: base, a: idx, b: c, .. }
        | FmaF { dst: base, a: idx, b: c }
        | LoadIdxSum { base, a: idx, b: c, .. } => {
            run(base, 1);
            run(idx, 1);
            run(c, 1);
        }
        StoreIdxD { base, idx, stride, src, .. }
        | LoadIdxMad { base, i: idx, n: stride, j: src, .. }
        | FmaIdx { acc: base, x: idx, base: stride, idx: src, .. } => {
            run(base, 1);
            run(idx, 1);
            run(stride, 1);
            run(src, 1);
        }
        Call { abase, nargs, .. }
        | CallBuiltin { abase, nargs, .. }
        | CallHook { abase, nargs, .. }
        | Printf { abase, nargs, .. } => run(abase, nargs as u16),
        PrintfD { fmt, abase, nargs, .. } => {
            run(fmt, 1);
            run(abase, nargs as u16);
        }
        Launch { gb, abase, nargs, .. } => {
            run(gb, 6);
            run(abase, nargs as u16);
        }
        Dim3Store { src3, .. } => run(src3, 3),
        Const { .. }
        | FrameAddr { .. }
        | LoadSlot { .. }
        | LoadAbs { .. }
        | Dim3Load { .. }
        | Jmp { .. }
        | Trap { .. } => {}
    }
}

/// Jump target of a control op.
pub(super) fn target_mut(op: &mut Op) -> Option<&mut u32> {
    match op {
        Op::Jmp { to } | Op::Jz { to, .. } | Op::Jnz { to, .. } => Some(to),
        Op::Jcmp { to, .. } | Op::JcmpIK { to, .. } | Op::IncJcmp { to, .. } => Some(to),
        _ => None,
    }
}

/// The (up to two) registers whose deadness after an op a rewrite asks
/// about: a `Const`/`Mov` destination, a `Bin`'s operands, a `Conv`'s
/// source, a conditional jump's condition.
fn probes(op: &Op) -> [Option<R>; 2] {
    match *op {
        Op::Const { dst, .. } | Op::Mov { dst, .. } => [Some(dst), None],
        Op::Bin { a, b, .. } => [Some(a), Some(b)],
        Op::Conv { src, .. } | Op::Jz { cond: src, .. } | Op::Jnz { cond: src, .. } => {
            [Some(src), None]
        }
        _ => [None, None],
    }
}

/// What the pass needs besides the code.
pub(super) struct ChunkFacts<'a> {
    pub consts: &'a [Value],
    /// Each register slot's declared type; slot registers are `0..len`.
    pub slots: &'a [(R, TyK)],
    pub nregs: u16,
    /// Declared return type per chunk index (`None`: not a scalar).
    pub rets: &'a [Option<TyK>],
}

/// Rewrite `code` (and its RLE pc→line table) into typed and fused ops.
pub(super) fn specialize(
    code: Vec<Op>,
    lines: Vec<(u32, u32)>,
    facts: &ChunkFacts<'_>,
) -> (Vec<Op>, Vec<(u32, u32)>) {
    let mut p = Pass::new(code, facts);
    p.liveness();
    p.rewrite();
    p.compact(lines)
}

/// Per-temp forward state; stale (`epoch` behind) means unknown.
#[derive(Clone, Copy)]
struct RegState {
    epoch: u32,
    tag: Tag,
    /// pc of the `Const` that wrote this register, and the exit count then,
    /// while nothing has read it: a fusion may embed the constant and drop
    /// that op if no conditional exit (a path that could still read it)
    /// came in between.
    konst: Option<(u32, u32)>,
}

struct Pass<'a> {
    facts: &'a ChunkFacts<'a>,
    code: Vec<Op>,
    /// Registers below this are slot registers.
    first_tmp: R,
    /// Proven tag of each slot register.
    slot_tag: Vec<Tag>,
    /// Per pc: index into `live_in` if the pc is a jump target.
    target: Vec<u32>,
    /// Per target: is it reached by a backward (or self) jump?
    back: Vec<bool>,
    /// Live-in temp set of each target, `words` u64s each.
    live_in: Vec<u64>,
    words: usize,
    /// Per pc: bit k set when `probes(op)[k]` is a temp dead after the op.
    dead: Vec<u8>,
    /// Per pc: does the op survive compaction?
    keep: Vec<bool>,
    regs: Vec<RegState>,
    epoch: u32,
    /// Conditional jumps passed so far.
    exits: u32,
}

const NOT_TARGET: u32 = u32::MAX;

impl<'a> Pass<'a> {
    fn new(code: Vec<Op>, facts: &'a ChunkFacts<'a>) -> Pass<'a> {
        let n = code.len();
        let first_tmp = facts.slots.len() as R;
        let mut target = vec![NOT_TARGET; n + 1];
        let mut back = Vec::new();
        for (pc, op) in code.iter().enumerate() {
            if let Op::Jmp { to } | Op::Jz { to, .. } | Op::Jnz { to, .. } = *op {
                let t = &mut target[to as usize];
                if *t == NOT_TARGET {
                    *t = back.len() as u32;
                    back.push(false);
                }
                back[*t as usize] |= to as usize <= pc;
            }
        }
        // Slot proof: every write to a slot register converts to its type.
        let mut slot_tag: Vec<Tag> = facts.slots.iter().map(|&(_, ty)| tag_of_ty(ty)).collect();
        for op in &code {
            let Some((d, cnt)) = def_of(op) else { continue };
            for r in d..(d + cnt).min(first_tmp) {
                let declared = facts.slots[r as usize].1;
                let ok =
                    matches!(*op, Op::Conv { ty, .. } | Op::FmaAssign { ty, .. } if ty == declared);
                if !ok {
                    slot_tag[r as usize] = Tag::Unk;
                }
            }
        }
        let words = (facts.nregs as usize).div_ceil(64).max(1);
        Pass {
            facts,
            first_tmp,
            slot_tag,
            live_in: vec![0; back.len() * words],
            back,
            target,
            words,
            dead: vec![0; n],
            keep: vec![true; n],
            regs: vec![RegState { epoch: 0, tag: Tag::Unk, konst: None }; facts.nregs as usize],
            epoch: 1,
            exits: 0,
            code,
        }
    }

    fn is_target(&self, pc: usize) -> bool {
        self.target[pc] != NOT_TARGET
    }

    /// Can the `k` ops from `pc` be fused: present, and none after the
    /// first a jump target?
    fn free(&self, pc: usize, k: usize) -> bool {
        pc + k <= self.code.len() && (1..k).all(|i| !self.is_target(pc + i))
    }

    // ---------------------------------------------------------- liveness

    /// Backward liveness of temps, recording `dead` flags. Repeats only if
    /// a backward jump's target gained live temps (temps never live across
    /// a statement, so one round normally settles it).
    fn liveness(&mut self) {
        let w = self.words;
        let mut live = vec![0u64; w];
        loop {
            live.iter_mut().for_each(|x| *x = 0);
            let mut changed = false;
            for pc in (0..self.code.len()).rev() {
                match self.code[pc] {
                    Op::Jmp { to } => {
                        let t = self.target[to as usize] as usize * w;
                        live.copy_from_slice(&self.live_in[t..t + w]);
                    }
                    Op::Jz { to, .. } | Op::Jnz { to, .. } => {
                        let t = self.target[to as usize] as usize * w;
                        live.iter_mut().zip(&self.live_in[t..t + w]).for_each(|(l, x)| *l |= x);
                    }
                    Op::Ret { .. } | Op::Trap { .. } => live.iter_mut().for_each(|x| *x = 0),
                    _ => {}
                }
                let first_tmp = self.first_tmp;
                let is_dead = |r: R| r >= first_tmp && live[r as usize / 64] >> (r % 64) & 1 == 0;
                let mut flags = 0u8;
                for (k, r) in probes(&self.code[pc]).into_iter().enumerate() {
                    if r.is_some_and(is_dead) {
                        flags |= 1 << k;
                    }
                }
                self.dead[pc] = flags;
                if let Some((d, cnt)) = def_of(&self.code[pc]) {
                    for r in d.max(first_tmp)..d + cnt {
                        live[r as usize / 64] &= !(1 << (r % 64));
                    }
                }
                uses_of(&self.code[pc], |r| {
                    if r >= first_tmp {
                        live[r as usize / 64] |= 1 << (r % 64);
                    }
                });
                let t = self.target[pc];
                if t != NOT_TARGET {
                    let slot = &mut self.live_in[t as usize * w..(t as usize + 1) * w];
                    changed |= self.back[t as usize] && slot != live.as_slice();
                    slot.copy_from_slice(&live);
                }
            }
            if !changed {
                return;
            }
        }
    }

    fn dead_after(&self, pc: usize, probe: usize) -> bool {
        self.dead[pc] >> probe & 1 != 0
    }

    // ------------------------------------------------------ forward tags

    fn tag(&self, r: R) -> Tag {
        if r < self.first_tmp {
            return self.slot_tag[r as usize];
        }
        let s = self.regs[r as usize];
        if s.epoch == self.epoch {
            s.tag
        } else {
            Tag::Unk
        }
    }

    /// The constant in `r` if a fusion may embed it and drop its `Const`.
    fn konst(&self, r: R) -> Option<(u32, Value)> {
        let s = self.regs.get(r as usize).filter(|_| r >= self.first_tmp)?;
        let (pc, exits) = s.konst.filter(|_| s.epoch == self.epoch)?;
        if exits != self.exits {
            return None;
        }
        match self.code[pc as usize] {
            Op::Const { idx, .. } => Some((pc, self.facts.consts[idx as usize])),
            _ => None,
        }
    }

    fn set(&mut self, r: R, tag: Tag, konst: Option<u32>) {
        if r >= self.first_tmp {
            let konst = konst.map(|pc| (pc, self.exits));
            self.regs[r as usize] = RegState { epoch: self.epoch, tag, konst };
        }
    }

    /// Record the result tag of an op that stays in the code.
    fn apply(&mut self, pc: usize, op: &Op) {
        use Op::*;
        let Some((dst, cnt)) = def_of(op) else { return };
        let t = match *op {
            Const { idx, .. } => {
                let tag = tag_of_val(self.facts.consts[idx as usize]);
                return self.set(dst, tag, Some(pc as u32));
            }
            Mov { src, .. } => self.tag(src),
            Conv { src, ty: TyK::Dim3X, .. } => self.tag(src),
            Conv { ty, .. }
            | LoadSlot { ty, .. }
            | LoadAbs { ty, .. }
            | Load { ty, .. }
            | LoadIdx { ty, .. }
            | LoadIdxD { ty, .. }
            | FmaAssign { ty, .. } => tag_of_ty(ty),
            FrameAddr { .. } | AddrIdx { .. } | AddrIdxD { .. } => Tag::Ptr,
            Stride { .. }
            | StrideD { .. }
            | PtrDiff { .. }
            | PtrDiffD { .. }
            | DimFix { .. }
            | Dim3Load { .. } => Tag::I64,
            Bin { op, a, b, .. } | BinD { op, a, b, .. } => binop_tag(op, self.tag(a), self.tag(b)),
            Neg { src, .. } => match self.tag(src) {
                Tag::Ptr => Tag::I64,
                t => t,
            },
            BitNot { src, .. } => match self.tag(src) {
                Tag::I64 => Tag::I64,
                Tag::Unk => Tag::Unk,
                _ => Tag::I32,
            },
            NotL { .. } | Truth { .. } | Printf { .. } | PrintfD { .. } => Tag::I32,
            Call { func, .. } => self.facts.rets[func as usize].map_or(Tag::Unk, tag_of_ty),
            CallBuiltin { which, .. } => builtin_tag(which),
            CallHook { .. } => Tag::Unk,
            AddI { .. } | SubI { .. } | MulI { .. } | AddIK { .. } | MulIK { .. } | IncI { .. } => {
                Tag::I32
            }
            AddF { .. } | SubF { .. } | MulF { .. } | MulKF { .. } | FmaF { .. } => Tag::F32,
            _ => Tag::Unk,
        };
        for r in dst..dst + cnt {
            self.set(r, t, None);
        }
    }

    // ---------------------------------------------------------- rewrites

    fn rewrite(&mut self) {
        let n = self.code.len();
        let mut pc = 0;
        while pc < n {
            if self.is_target(pc) {
                self.epoch += 1;
            }
            let (new, span) = self.fuse(pc);
            // Every op of the span is consumed: reads end a constant's
            // droppability, writes start from unknown.
            for q in pc..pc + span {
                if matches!(self.code[q], Op::Jz { .. } | Op::Jnz { .. }) {
                    self.exits += 1;
                }
                uses_of(&self.code[q], |r| {
                    if let Some(s) = self.regs.get_mut(r as usize) {
                        s.konst = None;
                    }
                });
                if let Some((d, cnt)) = def_of(&self.code[q]) {
                    (d..d + cnt).for_each(|r| self.set(r, Tag::Unk, None));
                }
            }
            match new {
                Some(op) => {
                    self.apply(pc, &op);
                    self.code[pc] = op;
                    self.keep[pc + 1..pc + span].iter_mut().for_each(|k| *k = false);
                }
                None if self.keep[pc] => {
                    let op = self.code[pc].clone();
                    self.apply(pc, &op);
                }
                None => {}
            }
            pc += span;
        }
    }

    /// The rewrite at `pc`, if any, and how many original ops it covers.
    /// `(None, 1)` keeps the op; a dead `Const`/`Mov` is marked dropped.
    fn fuse(&mut self, pc: usize) -> (Option<Op>, usize) {
        match self.code[pc] {
            Op::Const { .. } | Op::Mov { .. } if self.dead_after(pc, 0) => {
                self.keep[pc] = false;
                (None, 1)
            }
            Op::Mov { .. } => match self.inc(pc) {
                Some(op) => (Some(op), 4),
                None => (None, 1),
            },
            Op::Bin { op, dst, a, b, stride: 1 } if op.is_comparison() && self.free(pc, 2) => {
                match self.code[pc + 1] {
                    Op::Jz { cond, to } | Op::Jnz { cond, to }
                        if cond == dst && self.dead_after(pc + 1, 0) =>
                    {
                        let when = matches!(self.code[pc + 1], Op::Jnz { .. });
                        match self.jcmp(pc, op, a, b, to, when) {
                            Some(j) => (Some(j), 2),
                            None => (None, 1),
                        }
                    }
                    _ => (None, 1),
                }
            }
            Op::Bin { op: BinOp::Add | BinOp::Sub | BinOp::Mul, dst, a, b, stride: 1 } => {
                let tag = match (self.tag(a), self.tag(b)) {
                    (Tag::I32, Tag::I32) => Tag::I32,
                    (Tag::F32, Tag::F32) => Tag::F32,
                    _ => return (None, 1),
                };
                // Absorb a following `Conv` to the same type (never `char`,
                // which narrows): the typed op writes its destination.
                let conv = match self.code.get(pc + 1) {
                    Some(&Op::Conv { dst: cd, src, ty })
                        if src == dst
                            && ty != TyK::Char
                            && tag_of_ty(ty) == tag
                            && self.free(pc, 2)
                            && self.dead_after(pc + 1, 0) =>
                    {
                        Some(cd)
                    }
                    _ => None,
                };
                let typed = self.arith(pc, tag, conv.unwrap_or(dst), conv.is_some());
                (Some(typed), 1 + conv.is_some() as usize)
            }
            Op::FmaAssign { dst, a, b, ty: TyK::Float }
                if [dst, a, b].iter().all(|&r| self.tag(r) == Tag::F32) =>
            {
                (Some(Op::FmaF { dst, a, b }), 1)
            }
            _ => (None, 1),
        }
    }

    /// `Mov t, r; Const d, I64(±1); Bin Add n, t, d; Conv r, n, int` on a
    /// proven `int` slot register, every temp dead afterwards.
    fn inc(&self, pc: usize) -> Option<Op> {
        let c = &self.code;
        if !self.free(pc, 4) {
            return None;
        }
        let (Op::Mov { dst: t, src: r }, Op::Const { dst: d, idx }) = (&c[pc], &c[pc + 1]) else {
            return None;
        };
        let k = match self.facts.consts[*idx as usize] {
            Value::I64(k @ (1 | -1)) => k as i32,
            _ => return None,
        };
        let Op::Bin { op: BinOp::Add, dst: nw, a, b, stride: 1 } = c[pc + 2] else { return None };
        let Op::Conv { dst: r2, src, ty: TyK::Int } = c[pc + 3] else { return None };
        let slot_int = (*r < self.first_tmp)
            && self.facts.slots[*r as usize].1 == TyK::Int
            && self.slot_tag[*r as usize] == Tag::I32;
        let ok = slot_int
            && (a, b, r2, src) == (*t, *d, *r, nw)
            && self.dead_after(pc + 2, 0)
            && self.dead_after(pc + 2, 1)
            && self.dead_after(pc + 3, 0);
        ok.then_some(Op::IncI { r: *r, k })
    }

    /// The constant operand `probe` (0: `a`, 1: `b`) of the `Bin` at `pc`
    /// and its `Const`'s pc, if the `Bin` is its only reader.
    fn konst_operand(&self, pc: usize, probe: usize) -> Option<(u32, Value)> {
        let Op::Bin { a, b, .. } = self.code[pc] else { return None };
        let r = if probe == 0 { a } else { b };
        self.konst(r).filter(|_| a != b && self.dead_after(pc, probe))
    }

    /// The typed form of the `Bin` (`Add`/`Sub`/`Mul`) at `pc` on two
    /// `tag` operands, writing `dst`, embedding a constant operand where
    /// one fits.
    fn arith(&mut self, pc: usize, tag: Tag, dst: R, conv: bool) -> Op {
        let Op::Bin { op, a, b, .. } = self.code[pc] else { unreachable!("arith on a non-Bin") };
        if tag == Tag::I32 {
            let int = |v: Option<(u32, Value)>| match v {
                Some((kpc, Value::I32(k))) => Some((kpc, k)),
                _ => None,
            };
            // Constant on the right; on the left only where the op
            // commutes. `x - k` is `x + (-k)`, except for i32::MIN (its
            // negation wraps) and 0 (`-0.0 - 0` is not `-0.0 + 0`, should
            // the fallback ever see a float).
            let right = int(self.konst_operand(pc, 1))
                .filter(|&(_, k)| op != BinOp::Sub || (k != i32::MIN && k != 0));
            let left = int(self.konst_operand(pc, 0)).filter(|_| op != BinOp::Sub);
            let (x, (kpc, k)) = match (right, left) {
                (Some(c), _) => (a, c),
                (_, Some(c)) => (b, c),
                _ => {
                    return match op {
                        BinOp::Add => Op::AddI { dst, a, b, conv },
                        BinOp::Sub => Op::SubI { dst, a, b, conv },
                        _ => Op::MulI { dst, a, b, conv },
                    }
                }
            };
            self.keep[kpc as usize] = false;
            return match op {
                BinOp::Add => Op::AddIK { dst, a: x, k, conv },
                BinOp::Sub => Op::AddIK { dst, a: x, k: k.wrapping_neg(), conv },
                _ => Op::MulIK { dst, a: x, k, conv },
            };
        }
        let float = |v: Option<(u32, Value)>| match v {
            Some((kpc, Value::F32(k))) if !k.is_nan() => Some((kpc, k)),
            _ => None,
        };
        if op == BinOp::Mul {
            let left = float(self.konst_operand(pc, 0)).map(|c| (b, c));
            if let Some((x, (kpc, k))) = left.or(float(self.konst_operand(pc, 1)).map(|c| (a, c))) {
                self.keep[kpc as usize] = false;
                return Op::MulKF { dst, a: x, k, conv };
            }
        }
        match op {
            BinOp::Add => Op::AddF { dst, a, b, conv },
            BinOp::Sub => Op::SubF { dst, a, b, conv },
            _ => Op::MulF { dst, a, b, conv },
        }
    }

    /// `Bin cmp; Jz/Jnz` as one compare-and-branch, when the operand tags
    /// are both `I32` (or one an `I32` constant) or both `F32`.
    fn jcmp(&mut self, pc: usize, op: BinOp, a: R, b: R, to: u32, when: bool) -> Option<Op> {
        let (ta, tb) = (self.tag(a), self.tag(b));
        if (ta, tb) == (Tag::I32, Tag::I32) {
            let small = |v: Option<(u32, Value)>| match v {
                Some((kpc, Value::I32(k))) => Some((kpc, i16::try_from(k).ok()?)),
                _ => None,
            };
            let right = small(self.konst_operand(pc, 1)).map(|c| (op, a, c));
            let left = small(self.konst_operand(pc, 0)).map(|c| (mirror(op), b, c));
            return Some(match right.or(left) {
                Some((op, a, (kpc, k))) => {
                    self.keep[kpc as usize] = false;
                    Op::JcmpIK { op, a, k, to, when }
                }
                None => Op::Jcmp { op, a, b, to, when, float: false },
            });
        }
        ((ta, tb) == (Tag::F32, Tag::F32)).then_some(Op::Jcmp { op, a, b, to, when, float: true })
    }

    // -------------------------------------------------------- compaction

    /// Drop the ops marked dead or fused away, remap jump targets and the
    /// RLE line table (a fused op keeps the line of its first op).
    fn compact(self, lines: Vec<(u32, u32)>) -> (Vec<Op>, Vec<(u32, u32)>) {
        let n = self.code.len();
        let mut new_pc = Vec::with_capacity(n + 1);
        let mut next = 0u32;
        for &k in &self.keep {
            new_pc.push(next);
            next += k as u32;
        }
        new_pc.push(next);
        let mut out = Vec::with_capacity(next as usize);
        for (mut op, keep) in self.code.into_iter().zip(self.keep) {
            if keep {
                if let Some(to) = target_mut(&mut op) {
                    *to = new_pc[*to as usize];
                }
                out.push(op);
            }
        }
        let mut table: Vec<(u32, u32)> = Vec::with_capacity(lines.len());
        for (start, line) in lines {
            let s = new_pc[start as usize];
            if s as usize == out.len() {
                continue;
            }
            match table.last_mut() {
                // The previous run lost all its ops.
                Some(last) if last.0 == s => *last = (s, line),
                _ => table.push((s, line)),
            }
            // Runs that now touch may carry the same line.
            if let [.., (_, l0), (_, l1)] = table[..] {
                if l0 == l1 {
                    table.pop();
                }
            }
        }
        (out, table)
    }
}

/// `a op b` ⇔ `b mirror(op) a`.
fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Gt => BinOp::Lt,
        BinOp::Le => BinOp::Ge,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

#[cfg(test)]
mod tests;
