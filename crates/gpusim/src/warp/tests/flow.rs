//! The lowered control flow against the tree walk it replaced.
//!
//! [`exec_nodes`] and [`FlowMasks`] are the interpreter's former structured
//! executor, kept as the oracle for control flow only: every straight-line
//! instruction runs through the per-op path (lowered on its own), so the two
//! can differ only in how `if`, `loop`, `break`, `continue`, `ret` and the
//! mask are handled. A seeded generator builds kernels of nested `if`/else
//! and counter-bounded loops with `break`/`continue` at any depth, `ret`
//! inside loops and lane-divergent conditions; each runs both ways from
//! identical warps under several masks, and registers, memory, return
//! values, `issue`, `clock`, `lane_insts`, `divergent_branches` and the
//! result must agree.

use sptx::{BinOp, CvtTy, Inst, MemTy, Node, Operand, Reg, ScalarTy, SpecialReg};
use vmcommon::addr;

use super::super::*;
use super::{lowered, operand, reg_mut, run_body, warp, with_env};

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
/// row, one loop counter per loop depth, and condition temporaries.
const DATA: u32 = 4;
const ADDR: Reg = Reg(4);
const COUNTER0: u32 = 5;
const MAX_LOOPS: u32 = 3;
const TEMP0: u32 = COUNTER0 + MAX_LOOPS;
const TEMPS: u32 = 2;
const REGS: usize = (TEMP0 + TEMPS) as usize;
const MAX_DEPTH: u32 = 4;
/// Store sites per kernel; each site is a 32-lane row of words.
const SITES: u32 = 48;

/// A seeded xorshift generator of structured kernels.
struct Gen {
    x: u64,
    /// Statements left to emit.
    budget: u32,
    site: u32,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { x: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1, budget: 24, site: 0 }
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

    /// `ctr = 0; loop { ctr += 1; if ctr + (lane & k) > bound { break } … }`:
    /// lanes leave after different trip counts, and `continue` still counts.
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
            bin(BinOp::SetGt, t, Operand::Reg(t), Operand::ImmI(1 + self.below(3) as i64)),
            Node::If { cond: Operand::Reg(t), then_b: vec![Node::Break], else_b: vec![] },
        ];
        body.extend(self.block(depth + 1, loops + 1));
        vec![Node::Inst(Inst::Mov { dst: ctr, src: Operand::ImmI(0) }), Node::Loop { body }]
    }

    fn block(&mut self, depth: u32, loops: u32) -> Vec<Node> {
        let mut out = Vec::new();
        for _ in 0..1 + self.below(4) {
            if self.budget == 0 {
                break;
            }
            self.budget -= 1;
            match self.below(12) {
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
    let result = engine(&mut w).map_err(|e| e.to_string());
    let mut mem = vec![0u8; BUF_BYTES as usize];
    env.device.global.read_bytes(addr::offset(buf), &mut mem).unwrap();
    Outcome {
        result,
        regs: w.regs.clone(),
        ret_vals: w.frame().ret_vals,
        mem,
        issue: w.issue,
        clock: w.clock,
        lane_insts: w.stats.lane_insts,
        divergent_branches: w.stats.divergent_branches,
    }
}

#[test]
fn lowered_control_flow_matches_the_tree_walk() {
    const FLOW_MASKS: [u32; 5] = [u32::MAX, 0x1, 0x8000_0001, 0x5555_5555, 0xF_FFFF];
    let (mut divergent, mut traps, mut all_left) = (0, 0, 0);
    with_env(sptx::Module::default(), |env| {
        let buf = env.device.mem_alloc(BUF_BYTES).unwrap();
        for seed in 0..2000 {
            let body = Gen::new(seed).block(0, 0);
            let oracle = tree(&body);
            let flat = lowered(body);
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
    // The generator reaches every kind of exit.
    assert!(divergent > 2000 && traps > 50 && all_left > 200, "{divergent} {traps} {all_left}");
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
