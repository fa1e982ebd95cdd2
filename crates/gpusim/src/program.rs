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
        addr: Src,
        offset: i64,
    },
    St {
        ty: MemTy,
        src: Src,
        addr: Src,
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
        let mut l = Lower::default();
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

#[derive(Default)]
struct Lower {
    ops: Vec<WarpOp>,
    /// The constant table, one splat value per row.
    consts: Vec<u64>,
    /// The constructs around the op being lowered, innermost last: `true`
    /// for a loop, `false` for an `if`.
    nest: Vec<bool>,
}

impl Lower {
    fn push(&mut self, (issue, lat): (u64, u64), op: Op) -> u32 {
        self.ops.push(WarpOp { issue: issue as u32, lat: lat as u32, op });
        self.ops.len() as u32 - 1
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
        let op = match i {
            Inst::Mov { dst, src } => Op::Mov { dst: row(*dst), src: self.src(src) },
            Inst::Bin { ty, op, dst, a, b } => Op::Bin {
                ty: *ty,
                op: *op,
                dst: row(*dst),
                a: self.src_as(a, *ty),
                b: self.src_as(b, *ty),
            },
            Inst::Un { ty, op, dst, a } => {
                Op::Un { ty: *ty, op: *op, dst: row(*dst), a: self.src_as(a, *ty) }
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
                Op::Ld { ty: *ty, dst: row(*dst), addr: self.src(addr), offset: *offset }
            }
            Inst::St { ty, src, addr, offset } => {
                Op::St { ty: *ty, src: self.src(src), addr: self.src(addr), offset: *offset }
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
        self.push(timing::inst_cost(i), op);
    }
}
