//! The lowered control flow against the tree walk it replaced.
//!
//! [`exec_nodes`] and [`FlowMasks`] are the interpreter's former structured
//! executor, kept as the oracle for control flow and fusion: every straight-line
//! instruction runs through the per-op path (lowered on its own), so the two
//! can differ only in how `if`, `loop`, `break`, `continue`, `ret` and the
//! mask are handled — and in the address chains that the lowering fuses
//! into their loads and stores and the tree walk runs op by op. A seeded
//! generator builds kernels of nested `if`/else and counter-bounded loops
//! with `break`/`continue` at any depth, `ret` inside loops, lane-divergent
//! conditions and address chains, fusable or not; each runs both ways from
//! identical warps under several masks, and registers, memory, return
//! values, `issue`, `clock`, `lane_insts`, `divergent_branches` and the
//! result (a fault included) must agree.

use sptx::{BinOp, CvtTy, Inst, MemTy, Node, Operand, Reg, ScalarTy, SpecialReg};
use vmcommon::addr;

use super::super::*;
use super::{lowered, operand, reg_mut, run_body, warp, with_env};
use crate::program::Addr;

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
/// base in every lane, and the temporaries of [`CHAINS`] address chains.
const DATA: u32 = 4;
const ADDR: Reg = Reg(4);
const COUNTER0: u32 = 5;
const MAX_LOOPS: u32 = 3;
const TEMP0: u32 = COUNTER0 + MAX_LOOPS;
const TEMPS: u32 = 2;
const BASE: Reg = Reg(TEMP0 + TEMPS);
const CHAIN0: u32 = BASE.0 + 1;
/// Chains with temporaries of their own; later ones reuse them, which
/// writes each twice and keeps those chains unfused.
const CHAINS: u32 = 4;
const REGS: usize = (CHAIN0 + 3 * CHAINS) as usize;
const MAX_DEPTH: u32 = 4;
/// Store sites per kernel; each site is a 32-lane row of words.
const SITES: u32 = 48;

/// A seeded xorshift generator of structured kernels.
struct Gen {
    x: u64,
    /// Statements left to emit.
    budget: u32,
    site: u32,
    /// Address chains emitted.
    chains: u32,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { x: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1, budget: 24, site: 0, chains: 0 }
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
                7 | 8 => out.extend(self.chain()),
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
    // A fused chain never writes its temporaries, which nothing else reads.
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

#[test]
fn lowered_control_flow_matches_the_tree_walk() {
    const FLOW_MASKS: [u32; 5] = [u32::MAX, 0x1, 0x8000_0001, 0x5555_5555, 0xF_FFFF];
    let (mut divergent, mut traps, mut all_left) = (0, 0, 0);
    let (mut chains, mut fused) = (0, 0);
    with_env(sptx::Module::default(), |env| {
        let buf = env.device.mem_alloc(BUF_BYTES).unwrap();
        for seed in 0..2000 {
            let mut gen = Gen::new(seed);
            let body = gen.block(0, 0);
            let oracle = tree(&body);
            let flat = lowered(body);
            chains += gen.chains;
            fused += flat.ops.iter().filter(|op| op.count > 1).count() as u32;
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
    // The generator reaches every kind of exit, and the lowering fuses some
    // of its chains but not all.
    assert!(divergent > 2000 && traps > 50 && all_left > 200, "{divergent} {traps} {all_left}");
    assert!(fused > chains / 4 && fused < chains * 3 / 4, "{fused} of {chains} chains fused");
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
    // mov, loop, 20 ops of body, loop end, ret: 24 unfused, 6 fewer fused.
    assert_eq!(f.ops.len(), 18);
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
