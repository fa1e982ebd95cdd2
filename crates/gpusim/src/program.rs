//! A module lowered for execution: every SPTX function becomes, once, a
//! flat list of [`WarpOp`]s that a warp steps through by program counter.
//!
//! Lowering decides ahead of time everything the tree walk used to decide
//! on each dynamic instruction, and each rule keeps a simulated number
//! exact:
//!
//! * **Operands** become a [`Src`]: a register's row offset in the frame, a
//!   row of the function's constant table, a special register or the
//!   frame's `.local` base. An immediate is splatted into the table once and
//!   narrowed exactly as the op reads it: an `ImmF` becomes f32 bits only in
//!   an f32 `bin`/`un`; everywhere else (`mov`, `ld`/`st`, atomics, a `cvt`
//!   from an integer, calls) it keeps its f64 bits. `SharedBase` is a
//!   constant row too.
//! * **Costs**: each instruction carries its `(issue, latency)` from
//!   [`timing::inst_cost`]; `if` and the loop-continuation test carry their
//!   fixed (1, 2).
//! * **Folding**: a `cvt` of a constant is a `mov` of the converted constant
//!   (both cost (1, 2)). A float immediate read as a float converts straight
//!   from its f64 value ([`alu::cvt_imm_f`]), anything else as a register
//!   holding those bits would.
//! * **Fusion**: an address chain `[cvt.i64.i32 t1, x;] mul.i64 t2, t1|x, k;
//!   add.i64 t3, base, t2` right before the `ld`/`st [t3+off]` it feeds
//!   becomes that access's [`Addr::Index`], computed in one lane loop, when
//!   `k` is a constant and each `t` is written once and read once in the
//!   whole function (counted once per function, before lowering), so never
//!   observed but by the next op. The fused op bills exactly what it
//!   replaces: its `issue` and `lat` are the sums of the replaced ops', and
//!   its [`WarpOp::count`] of instructions multiplies `lane_insts`. The
//!   temporaries are not written at all. None of the replaced ops can trap,
//!   so a fault of the access reports as it did. Three more folds of
//!   nvccsim's bookkeeping follow the same rules (one-use temporaries,
//!   adjacent ops, summed bills, temporaries never written):
//!   - **Loop exits.** `[setp.cc t1, a, b;] [not.i32 t2, t1;] if t { break |
//!     continue }`, with no else and inside a loop, is one [`Op::Leave`]: it
//!     computes the exit mask from the comparison (or the row), ORs it into
//!     the loop's `break`/`continue` mask, and charges the `if`'s cost and
//!     divergence as an `If` would. It pushes no control entry. Any `if`
//!     whose only statement is a `break`/`continue` takes the `if` part.
//!   - **Results.** `op t, …; mov x, t` is `op x, …` when `op` is a `mov`,
//!     `un`, `cvt` or a `bin` that cannot trap (`x` may be an operand of
//!     `op`: the ALU reads a copy of its destination row). An op that may
//!     trap (integer `div`/`rem`, an `ld`) keeps its `mov`, so that a trap
//!     bills exactly the ops before it.
//!   - **Constants.** `mov t, const` (often a folded `cvt` of a literal)
//!     right before the `bin`/`un` that reads `t` becomes its constant
//!     operand.
//! * **Control flow** becomes branch targets over the warp's mask stack:
//!   `If`/`Else`/`EndIf`, `Loop`/`LoopEnd`, and `Break`/`Continue` that know
//!   how many `if`s lie between them and their loop. A `break` or
//!   `continue` outside any loop lowers to an op that traps when it runs —
//!   and only then, as the tree walk did.

use std::sync::Arc;

use sptx::{AtomOp, BinOp, CvtTy, Inst, MemTy, Node, Operand, ScalarTy, UnOp};
use vmcommon::addr::{self, Space};

use crate::timing;
use crate::warp::{alu, LaneVec};

/// Where an operand's 32 lanes come from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Src {
    /// A register: the offset of its row in the frame's register window.
    Reg(u32),
    /// A row of the function's constant table.
    Const(u32),
    /// A special register, by `SpecialReg as usize`.
    Special(u8),
    /// Each lane's `.local` window base in the running frame.
    LocalBase,
}

/// Where an `ld`/`st`'s 32 addresses come from, before its offset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Addr {
    /// A row of addresses.
    Row(Src),
    /// `base + idx * scale` in wrapping 64-bit arithmetic, `idx`
    /// sign-extended from its low 32 bits first when `sext`: an address
    /// chain fused into its access.
    Index { base: Src, idx: Src, sext: bool, scale: i64 },
}

/// The test of a folded loop exit ([`Op::Leave`]), true in a lane where the
/// low 32 bits of its value are non-zero.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Cond {
    /// A row, as an `if` reads it.
    Row(Src),
    /// `setp.op.ty a, b`, computed without writing its row.
    Cmp { ty: ScalarTy, op: BinOp, a: Src, b: Src },
}

/// What one op does. Register destinations are row offsets, like
/// [`Src::Reg`]; branch targets are op indices.
#[derive(Debug)]
pub(crate) enum Op {
    Mov {
        dst: u32,
        src: Src,
    },
    Bin {
        ty: ScalarTy,
        op: BinOp,
        dst: u32,
        a: Src,
        b: Src,
    },
    Un {
        ty: ScalarTy,
        op: UnOp,
        dst: u32,
        a: Src,
    },
    Cvt {
        to: CvtTy,
        from: CvtTy,
        dst: u32,
        src: Src,
    },
    Ld {
        ty: MemTy,
        dst: u32,
        addr: Addr,
        offset: i64,
    },
    St {
        ty: MemTy,
        src: Src,
        addr: Addr,
        offset: i64,
    },
    AtomCas {
        dst: u32,
        addr: Src,
        expected: Src,
        new: Src,
    },
    Atom {
        op: AtomOp,
        dst: u32,
        addr: Src,
        val: Src,
    },
    BarSync {
        id: Src,
        count: Option<Src>,
    },
    Call {
        func: u32,
        dst: Option<u32>,
        args: Box<[Src]>,
    },
    Intrinsic(Box<IntrinsicOp>),
    Ret {
        val: Option<Src>,
    },
    Trap {
        msg: Box<str>,
    },
    /// Split the mask on `cond`: the then side runs from the next op, the
    /// else side from `else_pc` (an `Else`, or the `EndIf` when there is
    /// none).
    If {
        cond: Src,
        else_pc: u32,
    },
    /// End of the then side.
    Else {
        endif: u32,
    },
    /// Both sides' lanes merge.
    EndIf,
    /// Enter a loop whose `LoopEnd` is `end`.
    Loop {
        end: u32,
    },
    /// The continuation test: back to the op after `start` while any lane
    /// is left in the loop.
    LoopEnd {
        start: u32,
    },
    /// Leave (or end the iteration of) the loop `up` `if`s out.
    Break {
        up: u32,
    },
    Continue {
        up: u32,
    },
    /// `if cond { break }` (`continue` when `cont`) with no else, inside a
    /// loop: the lanes where `cond` holds (fails, when `negate`) leave the
    /// loop `up` `if`s out and the rest go on. No control entry is pushed.
    Leave {
        cond: Cond,
        negate: bool,
        cont: bool,
        up: u32,
    },
    /// A `break`/`continue` with no loop around it.
    Stray {
        msg: &'static str,
    },
}

#[derive(Debug)]
pub(crate) struct IntrinsicOp {
    pub name: String,
    pub dst: Option<u32>,
    pub args: Box<[Src]>,
    pub sargs: Vec<String>,
}

/// One op and what a warp is charged for executing it.
#[derive(Debug)]
pub(crate) struct WarpOp {
    pub issue: u32,
    pub lat: u32,
    /// The SPTX instructions the op stands for: each active lane counts
    /// this many in `lane_insts`.
    pub count: u32,
    pub op: Op,
}

/// A lowered function.
pub(crate) struct Func {
    pub name: String,
    pub is_kernel: bool,
    /// Parameters (passed in the first registers).
    pub params: usize,
    pub num_regs: u32,
    /// Bytes of per-lane `.local` memory.
    pub local_size: u64,
    /// Bytes of static `.shared` memory.
    pub shared_size: u64,
    pub ops: Vec<WarpOp>,
    pub consts: Vec<LaneVec>,
}

/// A module and its functions, lowered once for execution.
pub struct Program {
    module: Arc<sptx::Module>,
    pub(crate) funcs: Vec<Func>,
}

impl Program {
    /// Lower every function of `module`.
    pub fn new(module: Arc<sptx::Module>) -> Program {
        let funcs = module.functions.iter().map(Func::lower).collect();
        Program { module, funcs }
    }

    /// The module this program was lowered from.
    pub fn module(&self) -> &Arc<sptx::Module> {
        &self.module
    }

    /// The lowered function `name`, with its index.
    pub(crate) fn function(&self, name: &str) -> Option<(u32, &Func)> {
        let i = self.funcs.iter().position(|f| f.name == name)?;
        Some((i as u32, &self.funcs[i]))
    }
}

/// `(issue, latency)` of an `if` split and of a loop-continuation test.
const BRANCH_COST: (u64, u64) = (1, 2);

impl Func {
    pub(crate) fn lower(f: &sptx::Function) -> Func {
        let mut l = Lower { uses: Uses::of(f), ..Lower::default() };
        l.nodes(&f.body);
        Func {
            name: f.name.clone(),
            is_kernel: f.is_kernel,
            params: f.params.len(),
            num_regs: f.num_regs,
            local_size: f.local_size,
            shared_size: f.shared_size,
            ops: l.ops,
            consts: l.consts.iter().map(|&bits| [bits; 32]).collect(),
        }
    }
}

fn row(r: sptx::Reg) -> u32 {
    r.0 * 32
}

/// The raw bits of an operand that is the same in every lane and frame.
fn const_bits(o: &Operand) -> Option<u64> {
    match *o {
        Operand::ImmI(v) => Some(v as u64),
        Operand::ImmF(v) => Some(v.to_bits()),
        Operand::SharedBase => Some(addr::make(Space::Shared, 0)),
        Operand::Reg(_) | Operand::Special(_) | Operand::LocalBase => None,
    }
}

/// How often each register of a function is written and read, counted up
/// to 2: fusion only asks whether both are exactly once.
#[derive(Default)]
struct Uses {
    writes: Vec<u8>,
    reads: Vec<u8>,
}

impl Uses {
    fn of(f: &sptx::Function) -> Uses {
        // `num_regs` is a hint: the tables grow to the highest register used.
        let n = f.num_regs as usize;
        let mut u = Uses { writes: vec![0; n], reads: vec![0; n] };
        u.nodes(&f.body);
        u
    }

    fn bump(counts: &mut Vec<u8>, r: sptx::Reg) {
        let i = r.0 as usize;
        if i >= counts.len() {
            counts.resize(i + 1, 0);
        }
        counts[i] = (counts[i] + 1).min(2);
    }

    fn read(&mut self, o: &Operand) {
        if let Operand::Reg(r) = *o {
            Uses::bump(&mut self.reads, r);
        }
    }

    fn nodes(&mut self, nodes: &[Node]) {
        for n in nodes {
            match n {
                Node::Inst(i) => self.inst(i),
                Node::If { cond, then_b, else_b } => {
                    self.read(cond);
                    self.nodes(then_b);
                    self.nodes(else_b);
                }
                Node::Loop { body } => self.nodes(body),
                Node::Break | Node::Continue => {}
            }
        }
    }

    fn inst(&mut self, i: &Inst) {
        let dst = match i {
            Inst::Mov { dst, src } | Inst::Un { dst, a: src, .. } | Inst::Cvt { dst, src, .. } => {
                self.read(src);
                Some(*dst)
            }
            Inst::Bin { dst, a, b, .. } => {
                self.reads(&[a, b]);
                Some(*dst)
            }
            Inst::Ld { dst, addr, .. } => {
                self.read(addr);
                Some(*dst)
            }
            Inst::St { src, addr, .. } => {
                self.reads(&[src, addr]);
                None
            }
            Inst::AtomCas { dst, addr, expected, new } => {
                self.reads(&[addr, expected, new]);
                Some(*dst)
            }
            Inst::Atom { dst, addr, val, .. } => {
                self.reads(&[addr, val]);
                Some(*dst)
            }
            Inst::BarSync { id, count } => {
                self.read(id);
                count.iter().for_each(|c| self.read(c));
                None
            }
            Inst::Call { dst, args, .. } | Inst::Intrinsic { dst, args, .. } => {
                args.iter().for_each(|a| self.read(a));
                *dst
            }
            Inst::Ret { val } => {
                val.iter().for_each(|v| self.read(v));
                None
            }
            Inst::Trap { .. } => None,
        };
        if let Some(d) = dst {
            Uses::bump(&mut self.writes, d);
        }
    }

    fn reads(&mut self, ops: &[&Operand]) {
        ops.iter().for_each(|o| self.read(o));
    }

    /// Is `s` a register written once and read once in the function?
    fn once(&self, s: Src) -> bool {
        let Src::Reg(row) = s else { return false };
        let r = (row / 32) as usize;
        self.writes.get(r) == Some(&1) && self.reads.get(r) == Some(&1)
    }
}

/// What a fused op bills for the ops it replaced: their summed issue and
/// latency, and their count.
#[derive(Clone, Copy, Default)]
struct Bill {
    issue: u64,
    lat: u64,
    count: u32,
}

impl Bill {
    fn add(self, op: &WarpOp) -> Bill {
        Bill {
            issue: self.issue + op.issue as u64,
            lat: self.lat + op.lat as u64,
            count: self.count + op.count,
        }
    }
}

#[derive(Default)]
struct Lower {
    ops: Vec<WarpOp>,
    /// The constant table, one splat value per row.
    consts: Vec<u64>,
    /// The constructs around the op being lowered, innermost last: `true`
    /// for a loop, `false` for an `if`.
    nest: Vec<bool>,
    uses: Uses,
}

impl Lower {
    fn push(&mut self, cost: (u64, u64), op: Op) -> u32 {
        self.push_billed(cost, Bill::default(), op)
    }

    /// Push `op` costing `cost`, standing also for the ops `fused` bills.
    fn push_billed(&mut self, (issue, lat): (u64, u64), fused: Bill, op: Op) -> u32 {
        let (issue, lat) = ((issue + fused.issue) as u32, (lat + fused.lat) as u32);
        self.ops.push(WarpOp { issue, lat, count: 1 + fused.count, op });
        self.ops.len() as u32 - 1
    }

    /// The last op pushed, when it writes row `t` and `t` is a register
    /// written once and read once in the function: so its one reader is
    /// the op being lowered.
    fn producer(&self, t: Src) -> Option<&Op> {
        let op = &self.ops.last()?.op;
        let (Op::Mov { dst, .. } | Op::Bin { dst, .. } | Op::Un { dst, .. } | Op::Cvt { dst, .. }) =
            *op
        else {
            return None;
        };
        (Src::Reg(dst) == t && self.uses.once(t)).then_some(op)
    }

    /// Pop the last op, adding what it billed to `bill`.
    fn pop_into(&mut self, bill: &mut Bill) {
        let op = self.ops.pop().expect("an op to fold");
        *bill = bill.add(&op);
    }

    /// `mov x, t` right after the `mov`/`bin`/`un`/`cvt` that writes `t`,
    /// `t` written and read once: that op writes `x` instead and bills the
    /// `mov`. A `bin` that may trap keeps its `mov` (as does an `ld`, never
    /// a producer), so a trap still bills exactly the ops before it.
    fn forward(&mut self, x: u32, t: Src, (issue, lat): (u64, u64)) -> bool {
        match self.producer(t) {
            Some(&Op::Bin { ty, op, .. }) if alu::bin_may_trap(ty, op) => return false,
            Some(_) => {}
            None => return false,
        }
        let last = self.ops.last_mut().expect("the producer");
        if let Op::Mov { dst, .. }
        | Op::Bin { dst, .. }
        | Op::Un { dst, .. }
        | Op::Cvt { dst, .. } = &mut last.op
        {
            *dst = x;
        }
        last.issue += issue as u32;
        last.lat += lat as u32;
        last.count += 1;
        true
    }

    /// An operand that is the one reader of `mov t, const` right before
    /// it: the constant, with the `mov` popped and billed to `bill`.
    fn fold_const(&mut self, s: Src, bill: &mut Bill) -> Src {
        match self.producer(s) {
            Some(&Op::Mov { src: c @ Src::Const(_), .. }) => {
                self.pop_into(bill);
                c
            }
            _ => s,
        }
    }

    /// `[setp.cc t1, a, b;] [not.i32 t2, t1;] if t { break | continue }`,
    /// each `t` written and read once: one [`Op::Leave`] that bills the
    /// `if`'s cost and the folded ops.
    fn leave(&mut self, cond: &Operand, cont: bool, up: u32) {
        let mut bill = Bill { issue: BRANCH_COST.0, lat: BRANCH_COST.1, count: 0 };
        let mut row = self.src(cond);
        let mut negate = false;
        if let Some(&Op::Un { ty: ScalarTy::I32, op: UnOp::Not, a, .. }) = self.producer(row) {
            self.pop_into(&mut bill);
            (row, negate) = (a, true);
        }
        let mut cond = Cond::Row(row);
        if let Some(&Op::Bin { ty, op, a, b, .. }) = self.producer(row) {
            if op.is_comparison() {
                self.pop_into(&mut bill);
                cond = Cond::Cmp { ty, op, a, b };
            }
        }
        let op = Op::Leave { cond, negate, cont, up };
        self.ops.push(WarpOp {
            issue: bill.issue as u32,
            lat: bill.lat as u32,
            count: bill.count,
            op,
        });
    }

    /// The addresses of an `ld`/`st`, fusing in the address chain right
    /// before it, `[cvt.i64.i32 t1, x;] mul.i64 t2, t1|x, k; add.i64 t3,
    /// base, t2`, when each `t` is written once and read once in the whole
    /// function (so by the op that follows it) and `k` is a constant. The
    /// chain's ops are popped and billed to the access.
    fn addr(&mut self, a: &Operand) -> (Addr, Bill) {
        let t3 = self.src(a);
        self.fuse_chain(t3).unwrap_or((Addr::Row(t3), Bill::default()))
    }

    fn fuse_chain(&mut self, t3: Src) -> Option<(Addr, Bill)> {
        let n = self.ops.len();
        let back = |k: usize| n.checked_sub(k).map(|i| &self.ops[i].op);
        let Some(&Op::Bin { ty: ScalarTy::I64, op: BinOp::Add, dst, a, b }) = back(1) else {
            return None;
        };
        let Some(&Op::Bin { ty: ScalarTy::I64, op: BinOp::Mul, dst: t2, a: x, b: k }) = back(2)
        else {
            return None;
        };
        let t2 = Src::Reg(t2);
        let base = match (a, b) {
            (base, t) | (t, base) if t == t2 => base,
            _ => return None,
        };
        let (x, scale) = match (x, k) {
            (x, Src::Const(k)) | (Src::Const(k), x) => (x, self.consts[k as usize] as i64),
            _ => return None,
        };
        if Src::Reg(dst) != t3 || !self.uses.once(t3) || !self.uses.once(t2) {
            return None;
        }
        let (idx, sext, len) = match back(3) {
            Some(&Op::Cvt { to: CvtTy::I64, from: CvtTy::I32, dst: t1, src })
                if Src::Reg(t1) == x && self.uses.once(x) =>
            {
                (src, true, 3)
            }
            _ => (x, false, 2),
        };
        let bill = self.ops.drain(n - len..).fold(Bill::default(), |b, op| b.add(&op));
        Some((Addr::Index { base, idx, sext, scale }, bill))
    }

    fn constant(&mut self, bits: u64) -> Src {
        let i = self.consts.iter().position(|&c| c == bits).unwrap_or_else(|| {
            self.consts.push(bits);
            self.consts.len() - 1
        });
        Src::Const(i as u32)
    }

    /// An operand as its raw bits.
    fn src(&mut self, o: &Operand) -> Src {
        match (o, const_bits(o)) {
            (_, Some(bits)) => self.constant(bits),
            (Operand::Reg(r), _) => Src::Reg(row(*r)),
            (Operand::Special(s), _) => Src::Special(*s as u8),
            _ => Src::LocalBase,
        }
    }

    /// An operand of a `ty`-typed ALU op: a float literal in an f32 op is
    /// narrowed to f32.
    fn src_as(&mut self, o: &Operand, ty: ScalarTy) -> Src {
        match (o, ty) {
            (Operand::ImmF(v), ScalarTy::F32) => self.constant((*v as f32).to_bits() as u64),
            _ => self.src(o),
        }
    }

    fn srcs(&mut self, args: &[Operand]) -> Box<[Src]> {
        args.iter().map(|a| self.src(a)).collect()
    }

    /// How many `if`s lie between here and the innermost loop, if any.
    fn loop_depth(&self) -> Option<u32> {
        self.nest.iter().rev().position(|&is_loop| is_loop).map(|up| up as u32)
    }

    fn nodes(&mut self, nodes: &[Node]) {
        for n in nodes {
            match n {
                Node::Inst(i) => self.inst(i),
                Node::If { cond, then_b, else_b } => {
                    if let (Some(up), [exit @ (Node::Break | Node::Continue)], []) =
                        (self.loop_depth(), &then_b[..], &else_b[..])
                    {
                        self.leave(cond, matches!(exit, Node::Continue), up);
                        continue;
                    }
                    let cond = self.src(cond);
                    let at = self.push(BRANCH_COST, Op::If { cond, else_pc: 0 });
                    self.nest.push(false);
                    self.nodes(then_b);
                    let else_pc = self.ops.len() as u32;
                    if !else_b.is_empty() {
                        self.push((0, 0), Op::Else { endif: 0 });
                        self.nodes(else_b);
                    }
                    self.nest.pop();
                    let endif = self.push((0, 0), Op::EndIf);
                    self.ops[at as usize].op = Op::If { cond, else_pc };
                    if else_pc != endif {
                        self.ops[else_pc as usize].op = Op::Else { endif };
                    }
                }
                Node::Loop { body } => {
                    let start = self.push((0, 0), Op::Loop { end: 0 });
                    self.nest.push(true);
                    self.nodes(body);
                    self.nest.pop();
                    let end = self.push(BRANCH_COST, Op::LoopEnd { start });
                    self.ops[start as usize].op = Op::Loop { end };
                }
                Node::Break => {
                    let op = self
                        .loop_depth()
                        .map_or(Op::Stray { msg: "break outside loop" }, |up| Op::Break { up });
                    self.push((0, 0), op);
                }
                Node::Continue => {
                    let op = self
                        .loop_depth()
                        .map_or(Op::Stray { msg: "continue outside loop" }, |up| Op::Continue {
                            up,
                        });
                    self.push((0, 0), op);
                }
            }
        }
    }

    fn inst(&mut self, i: &Inst) {
        let mut consts = Bill::default();
        let op = match i {
            Inst::Mov { dst, src } => {
                let src = self.src(src);
                if self.forward(row(*dst), src, timing::inst_cost(i)) {
                    return;
                }
                Op::Mov { dst: row(*dst), src }
            }
            Inst::Bin { ty, op, dst, a, b } => {
                let (a, b) = (self.src_as(a, *ty), self.src_as(b, *ty));
                let (a, b) = (self.fold_const(a, &mut consts), self.fold_const(b, &mut consts));
                Op::Bin { ty: *ty, op: *op, dst: row(*dst), a, b }
            }
            Inst::Un { ty, op, dst, a } => {
                let a = self.src_as(a, *ty);
                Op::Un { ty: *ty, op: *op, dst: row(*dst), a: self.fold_const(a, &mut consts) }
            }
            Inst::Cvt { to, from, dst, src } => {
                let folded = match src {
                    Operand::ImmF(f) if matches!(from, CvtTy::F32 | CvtTy::F64) => {
                        Some(alu::cvt_imm_f(*to, *f))
                    }
                    _ => const_bits(src).map(|bits| {
                        let mut out = [0; 32];
                        alu::cvt(*to, *from, &mut out, &[bits; 32], u32::MAX);
                        out[0]
                    }),
                };
                match folded {
                    Some(bits) => Op::Mov { dst: row(*dst), src: self.constant(bits) },
                    None => Op::Cvt { to: *to, from: *from, dst: row(*dst), src: self.src(src) },
                }
            }
            Inst::Ld { ty, dst, addr, offset } => {
                let (addr, chain) = self.addr(addr);
                let op = Op::Ld { ty: *ty, dst: row(*dst), addr, offset: *offset };
                self.push_billed(timing::inst_cost(i), chain, op);
                return;
            }
            Inst::St { ty, src, addr, offset } => {
                let src = self.src(src);
                let (addr, chain) = self.addr(addr);
                let op = Op::St { ty: *ty, src, addr, offset: *offset };
                self.push_billed(timing::inst_cost(i), chain, op);
                return;
            }
            Inst::AtomCas { dst, addr, expected, new } => Op::AtomCas {
                dst: row(*dst),
                addr: self.src(addr),
                expected: self.src(expected),
                new: self.src(new),
            },
            Inst::Atom { op, dst, addr, val } => {
                Op::Atom { op: *op, dst: row(*dst), addr: self.src(addr), val: self.src(val) }
            }
            Inst::BarSync { id, count } => {
                Op::BarSync { id: self.src(id), count: count.as_ref().map(|c| self.src(c)) }
            }
            Inst::Call { func, dst, args } => {
                Op::Call { func: *func, dst: dst.map(row), args: self.srcs(args) }
            }
            Inst::Intrinsic { name, dst, args, sargs } => Op::Intrinsic(Box::new(IntrinsicOp {
                name: name.clone(),
                dst: dst.map(row),
                args: self.srcs(args),
                sargs: sargs.clone(),
            })),
            Inst::Ret { val } => Op::Ret { val: val.as_ref().map(|v| self.src(v)) },
            Inst::Trap { msg } => Op::Trap { msg: msg.as_str().into() },
        };
        self.push_billed(timing::inst_cost(i), consts, op);
    }
}
