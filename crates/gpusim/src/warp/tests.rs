//! The warp-wide paths against a lane-at-a-time reference.
//!
//! Each instruction under test is lowered as a one-op program and run on a
//! warp's live frame. `scalar` below is the interpreter's former per-lane
//! arithmetic, kept as the oracle: every `(type, op)` × operand kind × mask
//! must give, in each active lane, exactly what that code gave, and leave
//! inactive lanes alone. The memory tests pin what a guest can observe of
//! lane order; `flow` holds the lowered control flow to the tree walk it
//! replaced.

mod flow;
mod mem;
mod scalar;

use std::sync::Arc;

use sptx::{BinOp, CvtTy, Inst, Node, Operand, Reg, ScalarTy, SpecialReg, UnOp};
use vmcommon::addr::{self, Space};

use super::*;
use crate::NoLib;

/// Full warp, lane 0 only, lane 31 only, every other lane, a partial-warp
/// tail (20 live lanes).
const MASKS: [u32; 5] = [u32::MAX, 0x1, 0x8000_0000, 0x5555_5555, 0x000F_FFFF];

const TYS: [ScalarTy; 4] = [ScalarTy::I32, ScalarTy::I64, ScalarTy::F32, ScalarTy::F64];
const BIN_OPS: [BinOp; 18] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::SetLt,
    BinOp::SetLe,
    BinOp::SetGt,
    BinOp::SetGe,
    BinOp::SetEq,
    BinOp::SetNe,
];
const UN_OPS: [UnOp; 11] = [
    UnOp::Neg,
    UnOp::Not,
    UnOp::BitNot,
    UnOp::Sqrt,
    UnOp::Abs,
    UnOp::Floor,
    UnOp::Ceil,
    UnOp::Exp,
    UnOp::Log,
    UnOp::Sin,
    UnOp::Cos,
];
const CVT_TYS: [CvtTy; 5] = [CvtTy::S8, CvtTy::I32, CvtTy::I64, CvtTy::F32, CvtTy::F64];

const R0: Reg = Reg(0);
const R1: Reg = Reg(1);
const R2: Reg = Reg(2);
const NUM_REGS: usize = 4;
const LOCAL_SIZE: u64 = 16;

/// A 64-thread (8×4×2) block, block (2, 1, 0) of a 3×2×1 grid, of a
/// launch of `module`, on a device with room for a warp at a 3 KiB stride.
fn with_env(module: sptx::Module, f: impl FnOnce(&BlockEnv<'_>)) {
    let device = Device::new(128 << 10);
    let program = Program::new(Arc::new(module));
    f(&BlockEnv {
        device: &device,
        program: &program,
        lib: &NoLib,
        ctx: BlockCtx::new(4096),
        grid_dim: [3, 2, 1],
        block_dim: [8, 4, 2],
        ctaid: [2, 1, 0],
        nthreads: 64,
        shared_static: 0,
    });
}

/// Warp 1 of the block with one live frame of [`NUM_REGS`] registers and
/// [`LOCAL_SIZE`] local bytes per lane.
fn warp<'a>(env: &'a BlockEnv<'a>) -> Warp<'a> {
    let mut warp = Warp::new(env, 1);
    warp.regs.resize(NUM_REGS * 32, 0);
    warp.local_stack.resize(LOCAL_SIZE as usize * 32, 0);
    warp.frames.push(Frame {
        func: 0,
        pc: 0,
        mask: 0,
        ctl_base: 0,
        resume: None,
        reg_base: 0,
        local_base: 0,
        local_row: std::array::from_fn(|lane| addr::make(Space::Local, lane as u64 * LOCAL_SIZE)),
        ret_vals: [0; 32],
    });
    warp
}

fn with_warp(module: sptx::Module, f: impl FnOnce(&mut Warp<'_>)) {
    with_env(module, |env| f(&mut warp(env)));
}

/// A function of `body` with the live frame's shape.
fn frame_fn(body: Vec<Node>) -> sptx::Function {
    sptx::Function {
        name: "t".into(),
        is_kernel: false,
        params: vec![],
        num_regs: NUM_REGS as u32,
        local_size: LOCAL_SIZE,
        shared_size: 0,
        body,
    }
}

/// `body` lowered as a function with the live frame's shape.
fn lowered(body: Vec<Node>) -> Func {
    Func::lower(&frame_fn(body))
}

/// Step `f`, which makes no call and never yields, from its first op to its
/// end on the live frame; returns the lanes that reach the end.
fn run_body(w: &mut Warp<'_>, f: &Func, mask: u32) -> Result<u32, ExecError> {
    match w.step(f, 0, mask, w.ctl.len())? {
        Stop::End => Ok(w.frame().mask),
        _ => panic!("the body left its frame"),
    }
}

/// Run `inst`, lowered as a one-op program, on the live frame; returns the
/// lanes still active after it.
fn exec(w: &mut Warp<'_>, inst: &Inst, mask: u32) -> Result<u32, ExecError> {
    run_body(w, &lowered(vec![Node::Inst(inst.clone())]), mask)
}

/// Register `r` of the live frame, all lanes.
fn reg(w: &Warp<'_>, r: Reg) -> LaneVec {
    *row(&w.regs, r.0 as usize * 32)
}

fn reg_mut<'w>(w: &'w mut Warp<'_>, r: Reg) -> &'w mut LaneVec {
    let at = r.0 as usize * 32;
    (&mut w.regs[at..at + 32]).try_into().unwrap()
}

/// An operand in every lane, as the tree walk read it: the raw bits of a
/// register, a special register, an immediate (`ImmF` as f64) or a base
/// address.
fn operand(w: &Warp<'_>, o: &Operand) -> LaneVec {
    match *o {
        Operand::Reg(r) => reg(w, r),
        Operand::ImmI(v) => [v as u64; 32],
        Operand::ImmF(v) => [v.to_bits(); 32],
        Operand::Special(s) => w.specials[s as usize],
        Operand::LocalBase => w.frame().local_row,
        Operand::SharedBase => [addr::make(Space::Shared, 0); 32],
    }
}

fn op_val(w: &Warp<'_>, o: &Operand, lane: u32) -> u64 {
    operand(w, o)[lane as usize]
}

/// Lane values that exercise the edges of `ty` (garbage upper bits
/// included, as a register reused across types holds them).
fn samples(ty: ScalarTy, salt: u64) -> LaneVec {
    let ints: [u64; 16] = [
        0,
        1,
        u64::MAX,
        i32::MIN as u32 as u64,
        i32::MAX as u64,
        i64::MIN as u64,
        i64::MAX as u64,
        31,
        32,
        33,
        63,
        64,
        65,
        0xdead_beef_0000_0007,
        (-7i64) as u64,
        0x1_0000_0000,
    ];
    let f32s: [f32; 16] = [
        0.0,
        -0.0,
        1.5,
        -2.25,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        3e9,
        -3e9,
        0.1,
        7.0,
        -7.5,
        1e20,
        f32::MIN_POSITIVE,
        123.456,
    ];
    let f64s: [f64; 16] = [
        0.0,
        -0.0,
        1.5,
        -2.25,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e-310,
        3e9,
        -3e9,
        0.1,
        7.0,
        -7.5,
        1e300,
        9.3e18,
        123.456,
    ];
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
    std::array::from_fn(|lane| {
        // First half: the edge table (rotated by `salt` so two operands
        // pair differently); second half: xorshift noise.
        if lane < 16 {
            let i = (lane + salt as usize) % 16;
            match ty {
                ScalarTy::I32 | ScalarTy::I64 => ints[i],
                ScalarTy::F32 => f32s[i].to_bits() as u64,
                ScalarTy::F64 => f64s[i].to_bits(),
            }
        } else {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    })
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Reg,
    ImmI,
    ImmF,
    Special,
}
const KINDS: [Kind; 4] = [Kind::Reg, Kind::ImmI, Kind::ImmF, Kind::Special];

/// The two immediate sets: small values, then a shift count past every
/// width and a literal that is not an f32.
const IMMS: [(i64, f64); 2] = [(3, 2.5), (67, -0.1)];

fn operand_of(kind: Kind, reg: Reg, (imm_i, imm_f): (i64, f64)) -> Operand {
    match kind {
        Kind::Reg => Operand::Reg(reg),
        Kind::ImmI => Operand::ImmI(imm_i),
        Kind::ImmF => Operand::ImmF(imm_f),
        // Lane-varying, and zero in lane 0 (a zero divisor).
        Kind::Special => Operand::Special(SpecialReg::LaneId),
    }
}

fn sentinel() -> LaneVec {
    std::array::from_fn(|lane| 0x5e17_0000_0000_0000 | lane as u64)
}

fn is_nan(float32: bool, bits: u64) -> bool {
    if float32 {
        f32::from_bits(bits as u32).is_nan()
    } else {
        f64::from_bits(bits).is_nan()
    }
}

/// Bit equality, except that two NaNs of a float-typed result are equal
/// (which operand's payload an `a + b` of two NaNs keeps is up to the
/// code generator).
fn same(float: Option<bool>, got: u64, want: u64) -> bool {
    got == want || float.is_some_and(|f32_| is_nan(f32_, got) && is_nan(f32_, want))
}

fn float_result(ty: ScalarTy) -> Option<bool> {
    match ty {
        ScalarTy::F32 => Some(true),
        ScalarTy::F64 => Some(false),
        _ => None,
    }
}

/// Run `inst` (destination `dst`) under `mask` and hold it to `want`, the
/// per-lane reference result (`Err` = the trap message of that lane).
fn check_inst(
    w: &mut Warp<'_>,
    inst: &Inst,
    dst: Reg,
    mask: u32,
    float: Option<bool>,
    want: impl Fn(&Warp<'_>, u32) -> Result<u64, String>,
) {
    let before = reg(w, dst);
    let mut expect = Ok(before);
    for lane in iter_lanes(mask) {
        match (want(w, lane), &mut expect) {
            (Ok(v), Ok(row)) => row[lane as usize] = v,
            (Err(m), Ok(_)) => expect = Err(format!("device trap: {m} in warp {}", w.warp_id)),
            _ => {}
        }
    }
    let (issue, clock, insts) = (w.issue, w.clock, w.stats.lane_insts);
    let got = exec(w, inst, mask);
    // Charged once per warp instruction, counted once per active lane.
    let (ic, lc) = timing::inst_cost(inst);
    assert_eq!((w.issue - issue, w.clock - clock), (ic, lc), "{inst:?}");
    assert_eq!(w.stats.lane_insts - insts, mask.count_ones() as u64, "{inst:?}");
    match (got, expect) {
        (Ok(m), Ok(row)) => {
            assert_eq!(m, mask, "{inst:?}");
            for (lane, (&g, &e)) in reg(w, dst).iter().zip(&row).enumerate() {
                let active = mask >> lane & 1 != 0;
                assert!(
                    if active { same(float, g, e) } else { g == e },
                    "{inst:?} mask {mask:#x} lane {lane} (active: {active}): got {g:#x}, want {e:#x}"
                );
            }
        }
        (Err(g), Err(e)) => assert_eq!(g.to_string(), e, "{inst:?} mask {mask:#x}"),
        (g, e) => {
            panic!("{inst:?} mask {mask:#x}: got {:?}, want {e:?}", g.map_err(|e| e.to_string()))
        }
    }
}

#[test]
fn special_registers_follow_the_block_shape() {
    with_warp(sptx::Module::default(), |w| {
        for lane in 0..32u32 {
            let lin = 32 + lane;
            let want = [
                (SpecialReg::TidX, lin % 8),
                (SpecialReg::TidY, (lin / 8) % 4),
                (SpecialReg::TidZ, lin / 32),
                (SpecialReg::NtidX, 8),
                (SpecialReg::NtidY, 4),
                (SpecialReg::NtidZ, 2),
                (SpecialReg::CtaidX, 2),
                (SpecialReg::CtaidY, 1),
                (SpecialReg::CtaidZ, 0),
                (SpecialReg::NctaidX, 3),
                (SpecialReg::NctaidY, 2),
                (SpecialReg::NctaidZ, 1),
                (SpecialReg::LaneId, lane),
                (SpecialReg::WarpId, 1),
            ];
            for (s, v) in want {
                assert_eq!(op_val(w, &Operand::Special(s), lane), v as u64, "{s:?} lane {lane}");
            }
        }
    });
}

#[test]
fn iter_lanes_is_the_set_bits_in_ascending_order() {
    for mask in MASKS.into_iter().chain([0, 0x8000_0001, 0x0001_0000]) {
        let want: Vec<u32> = (0..32).filter(|l| mask >> l & 1 != 0).collect();
        assert_eq!(iter_lanes(mask).collect::<Vec<_>>(), want, "{mask:#x}");
    }
}

#[test]
fn mov_of_every_operand_kind_under_every_mask() {
    with_warp(sptx::Module::default(), |w| {
        let srcs = [
            Operand::Reg(R0),
            Operand::ImmI(-5),
            Operand::ImmF(0.1),
            Operand::Special(SpecialReg::TidY),
            Operand::LocalBase,
            Operand::SharedBase,
        ];
        for src in srcs {
            for mask in MASKS {
                *reg_mut(w, R0) = samples(ScalarTy::I64, 1);
                *reg_mut(w, R2) = sentinel();
                let inst = Inst::Mov { dst: R2, src };
                check_inst(w, &inst, R2, mask, None, |w, lane| Ok(op_val(w, &src, lane)));
            }
        }
        // The values themselves: immediates are raw bits, each lane's local
        // window is its own, shared memory starts at offset 0.
        let mov = |w: &mut Warp<'_>, src| {
            exec(w, &Inst::Mov { dst: R2, src }, u32::MAX).unwrap();
            reg(w, R2)
        };
        assert_eq!(mov(w, Operand::ImmI(-5))[7], (-5i64) as u64);
        assert_eq!(mov(w, Operand::ImmF(0.1))[7], 0.1f64.to_bits());
        assert_eq!(mov(w, Operand::SharedBase)[7], addr::make(Space::Shared, 0));
        assert_eq!(
            mov(w, Operand::LocalBase)[3],
            addr::make(Space::Local, 3 * LOCAL_SIZE),
            "lane 3's .local base"
        );
    });
}

#[test]
fn bin_matches_the_scalar_reference_under_every_mask() {
    with_warp(sptx::Module::default(), |w| {
        for ty in TYS {
            for op in BIN_OPS {
                for (ka, kb) in KINDS.iter().flat_map(|a| KINDS.iter().map(move |b| (*a, *b))) {
                    for imms in IMMS {
                        for mask in MASKS {
                            // `dst` apart from the sources, then aliasing `a`.
                            for dst in [R2, R0] {
                                *reg_mut(w, R0) = samples(ty, 0);
                                *reg_mut(w, R1) = samples(ty, 5);
                                *reg_mut(w, R2) = sentinel();
                                let a = operand_of(ka, R0, imms);
                                let b = operand_of(kb, R1, imms);
                                let inst = Inst::Bin { ty, op, dst, a, b };
                                let float = float_result(ty).filter(|_| !op.is_comparison());
                                check_inst(w, &inst, dst, mask, float, |w, lane| {
                                    let (av, bv) = (op_val(w, &a, lane), op_val(w, &b, lane));
                                    scalar::alu_bin(ty, op, av, bv, &a, &b)
                                });
                            }
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn un_matches_the_scalar_reference_under_every_mask() {
    with_warp(sptx::Module::default(), |w| {
        for ty in TYS {
            for op in UN_OPS {
                for kind in KINDS {
                    for imms in IMMS {
                        for mask in MASKS {
                            for dst in [R2, R0] {
                                *reg_mut(w, R0) = samples(ty, 3);
                                *reg_mut(w, R2) = sentinel();
                                let a = operand_of(kind, R0, imms);
                                let inst = Inst::Un { ty, op, dst, a };
                                let float = float_result(ty).filter(|_| op != UnOp::Not);
                                check_inst(w, &inst, dst, mask, float, |w, lane| {
                                    Ok(scalar::alu_un(ty, op, op_val(w, &a, lane), &a))
                                });
                            }
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn cvt_matches_the_scalar_reference_under_every_mask() {
    with_warp(sptx::Module::default(), |w| {
        for to in CVT_TYS {
            for from in CVT_TYS {
                let src_ty = match from {
                    CvtTy::F32 => ScalarTy::F32,
                    CvtTy::F64 => ScalarTy::F64,
                    _ => ScalarTy::I64,
                };
                let float = match to {
                    CvtTy::F32 => Some(true),
                    CvtTy::F64 => Some(false),
                    _ => None,
                };
                for kind in KINDS {
                    // 3e9 saturates as an immediate and wraps from a register.
                    for imms in IMMS.into_iter().chain([(i64::MIN, 3e9)]) {
                        for mask in MASKS {
                            for dst in [R2, R0] {
                                *reg_mut(w, R0) = samples(src_ty, 2);
                                *reg_mut(w, R2) = sentinel();
                                let src = operand_of(kind, R0, imms);
                                let inst = Inst::Cvt { to, from, dst, src };
                                check_inst(w, &inst, dst, mask, float, |w, lane| {
                                    Ok(scalar::convert(to, from, op_val(w, &src, lane), &src))
                                });
                            }
                        }
                    }
                }
            }
        }
    });
}

/// The cases the sweeps cover, spelled out with values computed by hand.
#[test]
fn hand_computed_corner_cases() {
    with_warp(sptx::Module::default(), |w| {
        let run = |w: &mut Warp<'_>, inst: Inst| {
            exec(w, &inst, u32::MAX).unwrap();
            reg(w, R2)[0]
        };
        let f32r = |v: f32| [v.to_bits() as u64; 32];
        let bin = |ty, op, a, b| Inst::Bin { ty, op, dst: R2, a, b };
        let (r0, r1) = (Operand::Reg(R0), Operand::Reg(R1));

        // A float literal in an f32 op is narrowed to f32 first: 2^24 + 1
        // becomes 2^24, and adding 1 rounds back to it (in f64 the sum
        // would be 2^24 + 2).
        *reg_mut(w, R0) = f32r(1.0);
        let got = run(w, bin(ScalarTy::F32, BinOp::Add, r0, Operand::ImmF(16_777_217.0)));
        assert_eq!(got, 16_777_216.0f32.to_bits() as u64);

        // min/max return the operand that is a number; rem of a NaN is NaN.
        *reg_mut(w, R0) = f32r(f32::NAN);
        *reg_mut(w, R1) = f32r(2.0);
        assert_eq!(run(w, bin(ScalarTy::F32, BinOp::Min, r0, r1)), 2.0f32.to_bits() as u64);
        assert_eq!(run(w, bin(ScalarTy::F32, BinOp::Max, r1, r0)), 2.0f32.to_bits() as u64);
        assert!(f32::from_bits(run(w, bin(ScalarTy::F32, BinOp::Rem, r0, r1)) as u32).is_nan());
        *reg_mut(w, R0) = f32r(7.5);
        assert_eq!(run(w, bin(ScalarTy::F32, BinOp::Rem, r0, r1)), 1.5f32.to_bits() as u64);

        // Shift counts wrap at the lane width.
        *reg_mut(w, R0) = [1; 32];
        assert_eq!(run(w, bin(ScalarTy::I32, BinOp::Shl, r0, Operand::ImmI(33))), 2);
        assert_eq!(run(w, bin(ScalarTy::I64, BinOp::Shl, r0, Operand::ImmI(65))), 2);
        *reg_mut(w, R0) = [(-8i32) as u32 as u64; 32];
        let got = run(w, bin(ScalarTy::I32, BinOp::Shr, r0, Operand::ImmI(34)));
        assert_eq!(got, (-2i32) as u32 as u64, "arithmetic shift by 34 % 32");

        // i32 results are zero-extended; i32::MIN / -1 wraps.
        *reg_mut(w, R0) = [i32::MIN as u32 as u64; 32];
        let got = run(w, bin(ScalarTy::I32, BinOp::Div, r0, Operand::ImmI(-1)));
        assert_eq!(got, i32::MIN as u32 as u64);

        // A register f32 goes to i32 through i64 (wraps); a literal saturates.
        *reg_mut(w, R0) = f32r(3e9);
        let cvt = |src| Inst::Cvt { to: CvtTy::I32, from: CvtTy::F32, dst: R2, src };
        assert_eq!(run(w, cvt(r0)), 3_000_000_000u64, "3e9 as i64 as i32, zero-extended");
        assert_eq!(run(w, cvt(Operand::ImmF(3e9))), i32::MAX as u64);
    });
}

#[test]
fn integer_division_traps_only_for_an_executing_lane() {
    with_warp(sptx::Module::default(), |w| {
        for ty in [ScalarTy::I32, ScalarTy::I64] {
            for (op, what) in [(BinOp::Div, "division"), (BinOp::Rem, "remainder")] {
                *reg_mut(w, R0) = [100; 32];
                *reg_mut(w, R1) = std::array::from_fn(|lane| if lane == 3 { 0 } else { 7 });
                *reg_mut(w, R2) = sentinel();
                let inst = Inst::Bin { ty, op, dst: R2, a: Operand::Reg(R0), b: Operand::Reg(R1) };
                // Lane 3 is switched off: no trap, and it keeps its bits.
                assert_eq!(exec(w, &inst, !(1 << 3)).unwrap(), !(1 << 3));
                assert_eq!(reg(w, R2)[3], sentinel()[3]);
                assert_eq!(reg(w, R2)[4], if op == BinOp::Div { 14 } else { 2 });
                // Lane 3 executes: the trap, with the message it always had.
                let err = exec(w, &inst, 0b1000).unwrap_err();
                assert_eq!(err.to_string(), format!("device trap: {what} by zero in warp 1"));
            }
        }
        // Bitwise ops on floats are a trap too.
        let inst = Inst::Bin {
            ty: ScalarTy::F32,
            op: BinOp::Xor,
            dst: R2,
            a: Operand::Reg(R0),
            b: Operand::Reg(R1),
        };
        let err = exec(w, &inst, 1).unwrap_err();
        assert_eq!(err.to_string(), "device trap: bitwise Xor on f32 in warp 1");
    });
}

#[test]
fn if_condition_reads_the_low_32_bits_of_each_active_lane() {
    with_warp(sptx::Module::default(), |w| {
        let node = Node::If {
            cond: Operand::Reg(R0),
            then_b: vec![Node::Inst(Inst::Mov { dst: R2, src: Operand::ImmI(1) })],
            else_b: vec![Node::Inst(Inst::Mov { dst: R2, src: Operand::ImmI(2) })],
        };
        let f = lowered(vec![node]);
        // True where the low word is non-zero: lanes 1 and 3 of every four.
        let cond: LaneVec =
            std::array::from_fn(|lane| [0, 1, 0x7_0000_0000, 0xffff_ffff_0000_0001][lane % 4]);
        for mask in MASKS {
            *reg_mut(w, R0) = cond;
            *reg_mut(w, R2) = sentinel();
            let divergent = w.stats.divergent_branches;
            assert_eq!(run_body(w, &f, mask).unwrap(), mask, "both sides reconverge");
            for lane in 0..32usize {
                let want = match (mask >> lane & 1 != 0, lane % 4) {
                    (false, _) => sentinel()[lane],
                    (true, 1 | 3) => 1,
                    (true, _) => 2,
                };
                assert_eq!(reg(w, R2)[lane], want, "mask {mask:#x} lane {lane}");
            }
            let both = mask & 0xaaaa_aaaa != 0 && mask & 0x5555_5555 != 0;
            assert_eq!(w.stats.divergent_branches - divergent, both as u64, "mask {mask:#x}");
        }
    });
}
