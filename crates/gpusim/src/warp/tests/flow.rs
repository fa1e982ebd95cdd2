//! The lowered control flow against the tree walk it replaced.
//!
//! [`exec_nodes`] and [`FlowMasks`] are the interpreter's former structured
//! executor, kept as the oracle for control flow and fusion: every straight-line
//! instruction runs through the per-op path (lowered on its own), so the two
//! can differ only in how `if`, `loop`, `break`, `continue`, `ret` and the
//! mask are handled — and in the ops that the lowering folds together and
//! the tree walk runs one by one: address chains fused into their loads and
//! stores, loop-exit tests, results forwarded past a `mov`, and constants
//! forwarded into their reader. A seeded generator builds kernels of nested
//! `if`/else and counter-bounded loops with `break`/`continue` at any depth,
//! `ret` inside loops, lane-divergent conditions, and each of those shapes
//! as nvccsim emits it, foldable or not; each runs both ways from identical
//! warps under several masks, and registers (but the one-use temporaries a
//! fold never writes), memory, return values, `issue`, `clock`,
//! `lane_insts`, `divergent_branches` and the result (a fault included)
//! must agree.

use sptx::{BinOp, CvtTy, Inst, MemTy, Node, Operand, Reg, ScalarTy, SpecialReg, UnOp};
use vmcommon::addr;

use super::super::*;
use super::{lowered, operand, reg_mut, run_body, warp, with_env};
use crate::program::{Addr, Cond};

/// The structured tree with each instruction lowered once.
enum Tree {
    Inst(Func),
    If { cond: Operand, then_b: Vec<Tree>, else_b: Vec<Tree> },
    Loop(Vec<Tree>),
    Break,
    Continue,
}

fn tree(nodes: &[Node]) -> Vec<Tree> {
    nodes
        .iter()
        .map(|n| match n {
            Node::Inst(i) => Tree::Inst(lowered(vec![Node::Inst(i.clone())])),
            Node::If { cond, then_b, else_b } => {
                Tree::If { cond: *cond, then_b: tree(then_b), else_b: tree(else_b) }
            }
            Node::Loop { body } => Tree::Loop(tree(body)),
            Node::Break => Tree::Break,
            Node::Continue => Tree::Continue,
        })
        .collect()
}

/// Flow bookkeeping for structured execution.
#[derive(Default)]
struct FlowMasks {
    brk: Vec<u32>,
    cont: Vec<u32>,
}

/// Execute nodes; returns the mask of lanes still active afterwards.
fn exec_nodes(
    w: &mut Warp<'_>,
    nodes: &[Tree],
    mut mask: u32,
    flow: &mut FlowMasks,
) -> Result<u32, ExecError> {
    for n in nodes {
        if mask == 0 {
            break;
        }
        match n {
            Tree::Inst(f) => {
                mask = run_body(w, f, mask)?;
            }
            Tree::If { cond, then_b, else_b } => {
                let m_then = alu::nonzero_mask(&operand(w, cond)) & mask;
                let m_else = mask & !m_then;
                if m_then != 0 && m_else != 0 {
                    w.stats.divergent_branches += 1;
                    w.clock += timing::DIVERGENCE_LAT;
                }
                w.add_cost(1, 2);
                let mut out = 0u32;
                if m_then != 0 {
                    out |= exec_nodes(w, then_b, m_then, flow)?;
                }
                if m_else != 0 {
                    out |= exec_nodes(w, else_b, m_else, flow)?;
                }
                mask = out;
            }
            Tree::Loop(body) => {
                flow.brk.push(0);
                let mut cur = mask;
                loop {
                    flow.cont.push(0);
                    let out = exec_nodes(w, body, cur, flow)?;
                    let continued = flow.cont.pop().unwrap();
                    cur = out | continued;
                    let broken = *flow.brk.last().unwrap();
                    cur &= !broken;
                    w.add_cost(1, 2);
                    if cur == 0 {
                        break;
                    }
                }
                mask = flow.brk.pop().unwrap();
            }
            Tree::Break => {
                *flow
                    .brk
                    .last_mut()
                    .ok_or_else(|| ExecError::Trap("break outside loop".into()))? |= mask;
                mask = 0;
            }
            Tree::Continue => {
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

// ------------------------------------------------------------- generator

/// Registers of a generated kernel: four data registers, the store address
/// row, one loop counter per loop depth, condition temporaries, the buffer's
/// base in every lane, and from [`CHAIN0`] on the one-use temporaries of the
/// foldable shapes: [`CHAINS`] address chains, then [`SETS`] loop tests,
/// forwarded results and forwarded constants each. A later shape of a kind
/// reuses the first one's, which writes each twice and keeps it unfolded.
const DATA: u32 = 4;
const ADDR: Reg = Reg(4);
const COUNTER0: u32 = 5;
const MAX_LOOPS: u32 = 3;
const TEMP0: u32 = COUNTER0 + MAX_LOOPS;
const TEMPS: u32 = 2;
const BASE: Reg = Reg(TEMP0 + TEMPS);
const CHAIN0: u32 = BASE.0 + 1;
const CHAINS: u32 = 4;
const SETS: u32 = 4;
/// Loop tests: `setp t1; not t2, t1`.
const TEST0: u32 = CHAIN0 + 3 * CHAINS;
/// `op t; mov x, t`.
const FWD0: u32 = TEST0 + 2 * SETS;
/// `mov t, const; op x, …, t`.
const CONST0: u32 = FWD0 + SETS;
const REGS: usize = (CONST0 + SETS) as usize;
const MAX_DEPTH: u32 = 4;
/// Store sites per kernel; each site is a 32-lane row of words.
const SITES: u32 = 48;

/// A seeded xorshift generator of structured kernels.
#[derive(Default)]
struct Gen {
    x: u64,
    /// Statements left to emit.
    budget: u32,
    site: u32,
    /// Shapes emitted: address chains, loop tests, forwarded results and
    /// forwarded constants.
    chains: u32,
    tests: u32,
    fwds: u32,
    consts: u32,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { x: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1, budget: 24, ..Gen::default() }
    }

    /// A kernel: a block, then a store of every data register, so that no
    /// data register is a one-use temporary a fold may leave unwritten.
    fn kernel(&mut self) -> Vec<Node> {
        let mut body = self.block(0, 0);
        for r in 0..DATA {
            body.push(Node::Inst(Inst::St {
                ty: MemTy::B32,
                src: Operand::Reg(Reg(r)),
                addr: Operand::Reg(ADDR),
                offset: (SITES - 1 - r) as i64 * 128,
            }));
        }
        body
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn data(&mut self) -> Reg {
        Reg(self.below(DATA as u64) as u32)
    }

    fn temp(&mut self) -> Reg {
        Reg(TEMP0 + self.below(TEMPS as u64) as u32)
    }

    /// A source that differs per lane, per thread or not at all.
    fn operand(&mut self) -> Operand {
        match self.below(5) {
            0 => Operand::ImmI(self.below(9) as i64 - 4),
            1 => Operand::Special(SpecialReg::LaneId),
            2 => Operand::Special(SpecialReg::TidX),
            _ => Operand::Reg(self.data()),
        }
    }

    fn alu(&mut self) -> Node {
        let dst = self.data();
        let inst = match self.below(8) {
            0 => Inst::Mov { dst, src: self.operand() },
            1 => Inst::Cvt { to: CvtTy::I64, from: CvtTy::I32, dst, src: self.operand() },
            2 => Inst::Bin {
                ty: ScalarTy::F32,
                op: BinOp::Mul,
                dst,
                a: Operand::Reg(dst),
                b: Operand::ImmF(1.5),
            },
            _ => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Xor][self.below(4) as usize];
                Inst::Bin {
                    ty: ScalarTy::I32,
                    op,
                    dst,
                    a: Operand::Reg(self.data()),
                    b: self.operand(),
                }
            }
        };
        Node::Inst(inst)
    }

    /// Each block ends by storing a lane-specific value at its own site.
    fn store(&mut self) -> Node {
        let site = self.site % SITES;
        self.site += 1;
        let src = if self.chance(50) { Operand::Reg(self.data()) } else { self.operand() };
        Node::Inst(Inst::St {
            ty: MemTy::B32,
            src,
            addr: Operand::Reg(ADDR),
            offset: site as i64 * 128,
        })
    }

    /// `p[x]` as the translator emits it: `cvt.i64.i32 t1, x; mul.i64 t2,
    /// t1, k; add.i64 t3, base, t2; ld|st [t3+off]` (the `cvt` sometimes
    /// left out), which the lowering fuses into the access unless a
    /// temporary is read again later, is written again, or an `if` splits
    /// the chain. The access stays inside the buffer, `x * k` within ±124
    /// bytes of `base + off`, except for the strides that fault: 2
    /// (misaligned) and 2^40 (out of the arena).
    fn chain(&mut self) -> Vec<Node> {
        let t = CHAIN0 + 3 * (self.chains % CHAINS);
        self.chains += 1;
        let temps = [Reg(t), Reg(t + 1), Reg(t + 2)];
        let [t1, t2, t3] = temps;
        let mut out = vec![];
        let x = match self.below(4) {
            0 => Operand::Special(SpecialReg::LaneId),
            1 => Operand::Special(SpecialReg::TidX),
            2 => Operand::ImmI(self.below(5) as i64),
            // A data register cut to 0..8, or to -7..=0 (its upper bits
            // clear, so only its sign extension keeps it small).
            _ => {
                let m = self.temp();
                let i32_bin =
                    |op, a, b| Node::Inst(Inst::Bin { ty: ScalarTy::I32, op, dst: m, a, b });
                out.push(i32_bin(BinOp::And, Operand::Reg(self.data()), Operand::ImmI(7)));
                if self.chance(50) {
                    out.push(i32_bin(BinOp::Sub, Operand::ImmI(0), Operand::Reg(m)));
                }
                Operand::Reg(m)
            }
        };
        let k = if self.chance(10) {
            [2, 1 << 40][self.below(2) as usize]
        } else {
            [0, 4, 8, -4, 12][self.below(5) as usize]
        };
        let base = Operand::Reg(if self.chance(50) { ADDR } else { BASE });
        let i64_bin = |op, dst, a, b| Node::Inst(Inst::Bin { ty: ScalarTy::I64, op, dst, a, b });
        let mut chain = vec![];
        let idx = if self.chance(70) {
            chain.push(Node::Inst(Inst::Cvt { to: CvtTy::I64, from: CvtTy::I32, dst: t1, src: x }));
            Operand::Reg(t1)
        } else {
            x
        };
        chain.push(i64_bin(BinOp::Mul, t2, idx, Operand::ImmI(k)));
        chain.push(if self.chance(50) {
            i64_bin(BinOp::Add, t3, base, Operand::Reg(t2))
        } else {
            i64_bin(BinOp::Add, t3, Operand::Reg(t2), base)
        });
        let ty =
            [MemTy::B32, MemTy::F32, MemTy::B32, MemTy::B8, MemTy::B64][self.below(5) as usize];
        let offset = (1 + self.below(SITES as u64 / 2) as i64) * 128;
        let addr = Operand::Reg(t3);
        chain.push(Node::Inst(if self.chance(50) {
            Inst::Ld { ty, dst: self.data(), addr, offset }
        } else {
            Inst::St { ty, src: self.operand(), addr, offset }
        }));
        match self.below(8) {
            // A temporary read again.
            0 => chain.push(Node::Inst(Inst::Bin {
                ty: ScalarTy::I32,
                op: BinOp::Add,
                dst: self.data(),
                a: Operand::Reg(temps[self.below(3) as usize]),
                b: Operand::ImmI(1),
            })),
            // A temporary written again.
            1 => chain.push(Node::Inst(Inst::Mov {
                dst: temps[self.below(3) as usize],
                src: Operand::ImmI(3),
            })),
            // An `if` between two links.
            2 => {
                let at = 1 + self.below(chain.len() as u64 - 1) as usize;
                let then_b = chain.split_off(at);
                let (cond_insts, cond) = self.cond();
                chain.extend(cond_insts);
                chain.push(Node::If { cond, then_b, else_b: vec![] });
            }
            _ => {}
        }
        out.extend(chain);
        out
    }

    /// Instructions computing a condition, and the condition.
    fn cond(&mut self) -> (Vec<Node>, Operand) {
        let t = self.temp();
        let bin = |op, a, b| Node::Inst(Inst::Bin { ty: ScalarTy::I32, op, dst: t, a, b });
        match self.below(6) {
            0 => {
                let k = Operand::ImmI(self.below(33) as i64);
                (vec![bin(BinOp::SetLt, Operand::Special(SpecialReg::LaneId), k)], Operand::Reg(t))
            }
            1 => {
                let m = Operand::ImmI(2 + self.below(3) as i64);
                let rem = bin(BinOp::Rem, Operand::Special(SpecialReg::TidX), m);
                let k = Operand::ImmI(self.below(2) as i64);
                (vec![rem, bin(BinOp::SetEq, Operand::Reg(t), k)], Operand::Reg(t))
            }
            2 => {
                let bit = Operand::ImmI(1 << self.below(3));
                (vec![bin(BinOp::And, Operand::Reg(self.data()), bit)], Operand::Reg(t))
            }
            3 => (vec![], Operand::Special(SpecialReg::LaneId)),
            4 => (vec![], Operand::ImmI(self.below(2) as i64)),
            _ => (vec![], Operand::Reg(self.data())),
        }
    }

    fn if_node(&mut self, depth: u32, loops: u32) -> Vec<Node> {
        let (mut out, cond) = self.cond();
        let then_b = self.block(depth + 1, loops);
        let else_b = if self.chance(50) { self.block(depth + 1, loops) } else { vec![] };
        out.push(Node::If { cond, then_b, else_b });
        out
    }

    /// `ctr = 0; loop { ctr += 1; if ctr + (lane & k) > bound { break } … }`,
    /// sometimes with a `continue` test after the `break`'s: lanes leave
    /// after different trip counts, and `continue` still counts.
    fn loop_node(&mut self, depth: u32, loops: u32) -> Vec<Node> {
        let ctr = Reg(COUNTER0 + loops);
        let t = self.temp();
        let bin = |op, dst, a, b| Node::Inst(Inst::Bin { ty: ScalarTy::I32, op, dst, a, b });
        let mut body = vec![
            bin(BinOp::Add, ctr, Operand::Reg(ctr), Operand::ImmI(1)),
            bin(
                BinOp::And,
                t,
                Operand::Special(SpecialReg::LaneId),
                Operand::ImmI(self.below(4) as i64),
            ),
            bin(BinOp::Add, t, Operand::Reg(t), Operand::Reg(ctr)),
        ];
        let bound = 1 + self.below(3) as i64;
        body.extend(self.exit_test(t, bound, Node::Break));
        if self.chance(30) {
            let lower = bound - 1 - self.below(2) as i64;
            body.extend(self.exit_test(t, lower, Node::Continue));
        }
        body.extend(self.block(depth + 1, loops + 1));
        vec![Node::Inst(Inst::Mov { dst: ctr, src: Operand::ImmI(0) }), Node::Loop { body }]
    }

    /// `if t > bound { exit }` as nvccsim emits a loop test, `setp.le t1, t,
    /// bound; not.i32 t2, t1; if t2 { exit }`, or without the `not`, or with
    /// the `setp` into `t` itself (written again, so not folded). The
    /// lowering folds it into one op, unless the `if` has an else, the exit
    /// sits in a second `if` (which folds on its own), another op sits
    /// between two links, or a temporary is read again.
    fn exit_test(&mut self, t: Reg, bound: i64, exit: Node) -> Vec<Node> {
        let temps = [TEST0 + 2 * (self.tests % SETS), TEST0 + 2 * (self.tests % SETS) + 1];
        let [t1, t2] = temps.map(Reg);
        self.tests += 1;
        let setp = |op, dst| {
            let (a, b) = (Operand::Reg(t), Operand::ImmI(bound));
            Node::Inst(Inst::Bin { ty: ScalarTy::I32, op, dst, a, b })
        };
        let not = |dst, a| Node::Inst(Inst::Un { ty: ScalarTy::I32, op: UnOp::Not, dst, a });
        let (mut out, cond) = match self.below(3) {
            0 => (vec![setp(BinOp::SetLe, t1), not(t2, Operand::Reg(t1))], t2),
            1 => (vec![setp(BinOp::SetGt, t1)], t1),
            _ => (vec![setp(BinOp::SetLe, t), not(t2, Operand::Reg(t))], t2),
        };
        let (mut then_b, mut else_b) = (vec![exit], vec![]);
        match self.below(10) {
            0 => else_b.push(self.alu()),
            // Every lane passes a `break`'s second `if`, so each loop ends.
            1 => {
                let cond = match then_b[0] {
                    Node::Break => Operand::ImmI(1),
                    _ => Operand::Special(SpecialReg::LaneId),
                };
                then_b = vec![Node::If { cond, then_b, else_b: vec![] }];
            }
            2 => {
                let at = self.below(out.len() as u64) as usize;
                out.insert(at, self.alu());
            }
            3 => then_b.insert(0, self.alu()),
            _ => {}
        }
        out.push(Node::If { cond: Operand::Reg(cond), then_b, else_b });
        if self.chance(10) {
            let a = Operand::Reg(Reg(temps[self.below(2) as usize]));
            let dst = self.data();
            out.push(Node::Inst(Inst::Bin { ty: ScalarTy::I32, op: BinOp::Add, dst, a, b: a }));
        }
        out
    }

    /// `op t, …; mov x, t`, nvccsim's assignment through a temporary, `x`
    /// often an operand of `op`: the `mov` is forwarded into `op` unless
    /// `op` may trap (a `div`, by zero now and then, or an `ld`), another op
    /// sits between the two, or `t` is read or written again.
    fn forward(&mut self) -> Vec<Node> {
        let t = Reg(FWD0 + self.fwds % SETS);
        self.fwds += 1;
        let x = self.data();
        let a = if self.chance(50) { Operand::Reg(x) } else { self.operand() };
        let op = match self.below(8) {
            0 => Inst::Mov { dst: t, src: a },
            1 => {
                let op = [UnOp::Neg, UnOp::Not, UnOp::BitNot][self.below(3) as usize];
                Inst::Un { ty: ScalarTy::I32, op, dst: t, a }
            }
            2 => Inst::Cvt { to: CvtTy::I64, from: CvtTy::I32, dst: t, src: a },
            3 => Inst::Bin { ty: ScalarTy::F32, op: BinOp::Mul, dst: t, a, b: Operand::ImmF(1.5) },
            4 => {
                let b = Operand::ImmI(self.below(8) as i64 - 1);
                Inst::Bin { ty: ScalarTy::I32, op: BinOp::Div, dst: t, a, b }
            }
            5 => {
                let offset = (self.below(SITES as u64) * 128) as i64;
                Inst::Ld { ty: MemTy::B32, dst: t, addr: Operand::Reg(ADDR), offset }
            }
            _ => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Xor][self.below(3) as usize];
                Inst::Bin { ty: ScalarTy::I32, op, dst: t, a, b: self.operand() }
            }
        };
        let mut out = vec![Node::Inst(op)];
        if self.chance(15) {
            out.push(self.alu());
        }
        out.push(Node::Inst(Inst::Mov { dst: x, src: Operand::Reg(t) }));
        if self.chance(10) {
            let dst = self.data();
            let b = Operand::ImmI(1);
            out.push(Node::Inst(Inst::Bin {
                ty: ScalarTy::I32,
                op: BinOp::Add,
                dst,
                a: Operand::Reg(t),
                b,
            }));
        }
        out
    }

    /// `mov t, const` (a `cvt` of a literal, folded) and the op that reads
    /// `t`: the constant becomes that op's operand when the op is a `bin` or
    /// `un` reading `t` once right after it.
    fn constant(&mut self) -> Vec<Node> {
        let t = Reg(CONST0 + self.consts % SETS);
        self.consts += 1;
        let (ty, def) = if self.chance(50) {
            let src = Operand::ImmF([2123.0, 0.5, -3.25][self.below(3) as usize]);
            (ScalarTy::F32, Inst::Cvt { to: CvtTy::F32, from: CvtTy::F64, dst: t, src })
        } else {
            (ScalarTy::I32, Inst::Mov { dst: t, src: Operand::ImmI(self.below(9) as i64 - 4) })
        };
        let (x, tr) = (self.data(), Operand::Reg(t));
        let reader = match self.below(8) {
            0 => Inst::Un { ty, op: UnOp::Neg, dst: x, a: tr },
            1 => Inst::St { ty: MemTy::B32, src: tr, addr: Operand::Reg(ADDR), offset: 128 },
            2 => Inst::Bin { ty, op: BinOp::Add, dst: x, a: tr, b: tr },
            _ => {
                let op = [BinOp::Mul, BinOp::Add, BinOp::Sub][self.below(3) as usize];
                let (a, b) =
                    if self.chance(50) { (Operand::Reg(x), tr) } else { (tr, Operand::Reg(x)) };
                Inst::Bin { ty, op, dst: x, a, b }
            }
        };
        let mut out = vec![Node::Inst(def)];
        if self.chance(15) {
            out.push(self.alu());
        }
        out.push(Node::Inst(reader));
        out
    }

    fn block(&mut self, depth: u32, loops: u32) -> Vec<Node> {
        let mut out = Vec::new();
        for _ in 0..1 + self.below(4) {
            if self.budget == 0 {
                break;
            }
            self.budget -= 1;
            match self.below(14) {
                0..=2 if depth < MAX_DEPTH => out.extend(self.if_node(depth, loops)),
                3 | 4 if depth < MAX_DEPTH && loops < MAX_LOOPS => {
                    out.extend(self.loop_node(depth, loops))
                }
                // Outside a loop, only now and then: that traps when it runs.
                5 if loops > 0 || self.chance(3) => {
                    out.push(if self.chance(50) { Node::Break } else { Node::Continue })
                }
                6 if self.chance(loops as u64 * 15 + 5) => {
                    let val = self.chance(50).then(|| Operand::Reg(self.data()));
                    out.push(Node::Inst(Inst::Ret { val }));
                }
                7 | 8 => out.extend(self.chain()),
                9 => out.extend(self.forward()),
                10 => out.extend(self.constant()),
                _ => out.push(self.alu()),
            }
        }
        out.push(self.store());
        out
    }
}

/// Everything a run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<u32, String>,
    regs: Vec<u64>,
    ret_vals: LaneVec,
    mem: Vec<u8>,
    issue: u64,
    clock: u64,
    lane_insts: u64,
    divergent_branches: u64,
}

/// Bytes of the buffer the generated stores write.
const BUF_BYTES: u64 = SITES as u64 * 128;

/// Run `engine` on a fresh warp of `env` whose data registers hold
/// lane-specific values and whose address row points at each lane's word of
/// the zeroed buffer at `buf`.
fn observe<'a>(
    env: &'a BlockEnv<'a>,
    buf: u64,
    engine: impl FnOnce(&mut Warp<'a>) -> Result<u32, ExecError>,
) -> Outcome {
    env.device.memset_d8(buf, 0, BUF_BYTES).unwrap();
    let mut w = warp(env);
    w.regs.resize(REGS * 32, 0);
    for i in 0..DATA {
        *reg_mut(&mut w, Reg(i)) =
            std::array::from_fn(|l| (l as u64 * (2 * i as u64 + 3)) ^ i as u64);
    }
    *reg_mut(&mut w, ADDR) = std::array::from_fn(|l| buf + 4 * l as u64);
    *reg_mut(&mut w, BASE) = [buf; 32];
    let result = engine(&mut w).map_err(|e| e.to_string());
    let mut mem = vec![0u8; BUF_BYTES as usize];
    env.device.global.read_bytes(addr::offset(buf), &mut mem).unwrap();
    // A fold never writes its one-use temporaries, which nothing else reads.
    let mut regs = w.regs.clone();
    regs[CHAIN0 as usize * 32..].fill(0);
    Outcome {
        result,
        regs,
        ret_vals: w.frame().ret_vals,
        mem,
        issue: w.issue,
        clock: w.clock,
        lane_insts: w.stats.lane_insts,
        divergent_branches: w.stats.divergent_branches,
    }
}

/// The register row `op` writes, if any.
fn dst_row(op: &Op) -> Option<u32> {
    match *op {
        Op::Mov { dst, .. }
        | Op::Bin { dst, .. }
        | Op::Un { dst, .. }
        | Op::Cvt { dst, .. }
        | Op::Ld { dst, .. }
        | Op::AtomCas { dst, .. }
        | Op::Atom { dst, .. } => Some(dst),
        _ => None,
    }
}

/// How many of `body`'s instructions write a register in `regs`, and how
/// many of `f`'s ops still do.
fn writes_into(body: &[Node], f: &Func, regs: std::ops::Range<u32>) -> (u32, u32) {
    let mut emitted = 0;
    sptx::visit_insts(body, &mut |i| {
        let dst = match i {
            Inst::Mov { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Cvt { dst, .. }
            | Inst::Ld { dst, .. } => Some(dst.0),
            _ => None,
        };
        emitted += dst.is_some_and(|d| regs.contains(&d)) as u32;
    });
    let left = f.ops.iter().filter_map(|op| dst_row(&op.op)).filter(|r| regs.contains(&(r / 32)));
    (emitted, left.count() as u32)
}

#[test]
fn lowered_control_flow_matches_the_tree_walk() {
    const FLOW_MASKS: [u32; 5] = [u32::MAX, 0x1, 0x8000_0001, 0x5555_5555, 0xF_FFFF];
    let (mut divergent, mut traps, mut all_left) = (0, 0, 0);
    let (mut chains, mut fused) = (0, 0);
    // Per fold kind, the writes of its temporaries emitted and left.
    let kinds =
        [("loop test", TEST0..FWD0), ("result", FWD0..CONST0), ("constant", CONST0..REGS as u32)];
    let mut folded = [(0, 0); 3];
    with_env(sptx::Module::default(), |env| {
        let buf = env.device.mem_alloc(BUF_BYTES).unwrap();
        for seed in 0..2000 {
            let mut gen = Gen::new(seed);
            let body = gen.kernel();
            let oracle = tree(&body);
            let flat = lowered(body.clone());
            chains += gen.chains;
            fused += flat
                .ops
                .iter()
                .filter(|op| {
                    matches!(
                        op.op,
                        Op::Ld { addr: Addr::Index { .. }, .. }
                            | Op::St { addr: Addr::Index { .. }, .. }
                    )
                })
                .count() as u32;
            for (n, (_, regs)) in folded.iter_mut().zip(&kinds) {
                let (emitted, left) = writes_into(&body, &flat, regs.clone());
                *n = (n.0 + emitted, n.1 + left);
            }
            for mask in FLOW_MASKS {
                let want =
                    observe(env, buf, |w| exec_nodes(w, &oracle, mask, &mut FlowMasks::default()));
                let got = observe(env, buf, |w| {
                    let r = run_body(w, &flat, mask);
                    if r.is_ok() {
                        assert!(w.ctl.is_empty(), "seed {seed}: control stack left {:?}", w.ctl);
                    }
                    r
                });
                assert!(got == want, "seed {seed} mask {mask:#x}:\n got {got:?}\nwant {want:?}");
                divergent += (want.divergent_branches > 0) as u32;
                traps += want.result.is_err() as u32;
                all_left += (want.result == Ok(0)) as u32;
            }
        }
    });
    // The generator reaches every kind of exit, and the lowering folds some
    // of each kind of shape but not all.
    assert!(divergent > 2000 && traps > 50 && all_left > 200, "{divergent} {traps} {all_left}");
    assert!(fused > chains / 4 && fused < chains * 3 / 4, "{fused} of {chains} chains fused");
    for ((kind, _), (emitted, left)) in kinds.iter().zip(folded) {
        let gone = emitted - left;
        assert!(gone > emitted / 4 && gone < emitted * 3 / 4, "{kind}: {gone} of {emitted} folded");
    }
}

#[test]
fn a_stray_break_traps_only_when_it_runs() {
    let stray = |cond| Node::If { cond, then_b: vec![Node::Break], else_b: vec![] };
    let unreached =
        lowered(vec![stray(Operand::ImmI(0)), Node::Inst(Inst::Trap { msg: "end".into() })]);
    let reached = lowered(vec![stray(Operand::Special(SpecialReg::LaneId))]);
    with_env(sptx::Module::default(), |env| {
        let buf = env.device.mem_alloc(BUF_BYTES).unwrap();
        let r = observe(env, buf, |w| run_body(w, &unreached, u32::MAX));
        assert_eq!(r.result, Err("device trap: kernel trap: end".into()), "never reached");
        let r = observe(env, buf, |w| run_body(w, &reached, 0b11));
        assert_eq!(r.result, Err("device trap: break outside loop".into()));
        assert_eq!(r.divergent_branches, 1);
    });
}

// --------------------------------------------------------------- lowering

/// bicg's first kernel's inner loop, `t += a[i * n + j] * r[i]`, as nvccsim
/// emits it: each load is fed by a `cvt`/`mul`/`add` chain of one-use
/// temporaries.
const BICG_INNER_LOOP: &str = "\
.version 1
.target sm_53
.module k0_run
.linked 1

.func kernel _kernelFunc0_run(i32 n, i64 a, i64 r, i64 s) regs=53 local=32 shared=0
{
    mov %r9, 0;
    loop {
        setp.lt.i32 %r34, %r9, %r0;
        not.i32 %r35, %r34;
        if %r35 {
            break;
        }
        mul.i32 %r36, %r9, %r0;
        add.i32 %r37, %r36, %r7;
        cvt.i64.i32 %r38, %r37;
        mul.i64 %r39, %r38, 4;
        add.i64 %r40, %r1, %r39;
        ld.f32 %r41, [%r40];
        cvt.i64.i32 %r42, %r9;
        mul.i64 %r43, %r42, 4;
        add.i64 %r44, %r2, %r43;
        ld.f32 %r45, [%r44];
        mul.f32 %r46, %r41, %r45;
        add.f32 %r47, %r8, %r46;
        mov %r8, %r47;
        add.i32 %r48, %r9, 1;
        mov %r9, %r48;
    }
    ret;
}
";

fn is_control(op: &Op) -> bool {
    use Op::*;
    matches!(op, If { .. } | Else { .. } | EndIf | Loop { .. } | LoopEnd { .. })
        || matches!(op, Break { .. } | Continue { .. } | Stray { .. })
}

/// The addresses of `f`'s loads, in order.
fn load_addrs(f: &Func) -> Vec<Addr> {
    f.ops
        .iter()
        .filter_map(|op| if let Op::Ld { addr, .. } = op.op { Some(addr) } else { None })
        .collect()
}

#[test]
fn bicg_inner_loop_fuses_both_address_chains() {
    let module = sptx::text::parse_module(BICG_INNER_LOOP).unwrap();
    let sptx_fn = &module.functions[0];
    let f = Func::lower(sptx_fn);
    // mov, loop, 20 ops of body, loop end, ret: 24 unfolded. The address
    // chains take 6, the loop test 4 (`setp`, `not`, `if`, `break` and the
    // `if`'s end become one op) and the two `mov`s 2.
    assert_eq!(f.ops.len(), 12);
    let test =
        Cond::Cmp { ty: ScalarTy::I32, op: BinOp::SetLt, a: Src::Reg(9 * 32), b: Src::Reg(0) };
    assert!(
        matches!(f.ops[2], WarpOp { issue: 3, lat: 10, count: 2, op: Op::Leave { cond, negate: true, cont: false, up: 0 } } if cond == test),
        "{:?}",
        f.ops[2]
    );
    // `add.f32 %r47, %r8, %r46; mov %r8, %r47` is one op writing %r8.
    assert!(
        matches!(
            f.ops[8],
            WarpOp {
                count: 2,
                op: Op::Bin { ty: ScalarTy::F32, dst: 256, a: Src::Reg(256), .. },
                ..
            }
        ),
        "{:?}",
        f.ops[8]
    );
    let index = |base: u32, idx: u32| Addr::Index {
        base: Src::Reg(base * 32),
        idx: Src::Reg(idx * 32),
        sext: true,
        scale: 4,
    };
    assert_eq!(load_addrs(&f), [index(1, 37), index(2, 9)]);
    // Billed exactly as the instructions it stands for, plus the `if` and
    // the loop's continuation test.
    let mut insts = vec![];
    sptx::visit_insts(&sptx_fn.body, &mut |i| insts.push(i));
    let (issue, lat) =
        insts.iter().map(|i| timing::inst_cost(i)).fold((2, 4), |(a, b), (c, d)| (a + c, b + d));
    let sum = |g: fn(&WarpOp) -> u32| f.ops.iter().map(|op| g(op) as u64).sum::<u64>();
    assert_eq!((sum(|op| op.issue), sum(|op| op.lat)), (issue, lat));
    let counted: u32 = f.ops.iter().filter(|op| !is_control(&op.op)).map(|op| op.count).sum();
    assert_eq!(counted as usize, insts.len());
}

#[test]
fn only_a_chain_of_one_use_adjacent_temporaries_is_fused() {
    use sptx::builder::op;
    // (read t3 again after the load, put an op between `mul` and `add`)
    for (read_again, split) in [(false, false), (true, false), (false, true)] {
        let mut b = sptx::builder::FnBuilder::new("f", false);
        let base = b.param("base", ScalarTy::I64);
        let t1 = b.cvt(CvtTy::I64, CvtTy::I32, op::sp(SpecialReg::LaneId));
        let t2 = b.bin(ScalarTy::I64, BinOp::Mul, op::r(t1), op::i(4));
        if split {
            b.mov(op::i(0));
        }
        let t3 = b.bin(ScalarTy::I64, BinOp::Add, op::r(base), op::r(t2));
        let v = b.ld(MemTy::B32, op::r(t3), 0);
        if read_again {
            b.bin(ScalarTy::I64, BinOp::Add, op::r(t3), op::r(v));
        }
        let f = Func::lower(&b.build());
        let fused = matches!(load_addrs(&f)[..], [Addr::Index { .. }]);
        assert_eq!(fused, !read_again && !split, "read again {read_again}, split {split}");
    }
}
