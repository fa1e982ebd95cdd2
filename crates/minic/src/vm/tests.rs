//! Each typed or fused op against the generic sequence it replaces, both
//! run by the VM on hand-built chunks. The argument registers take every
//! corner tag unconverted, so the typed arm runs where the tags match and
//! the fallback arm everywhere else; the two chunks must agree bit for bit
//! (NaNs aside, whose bits Rust does not fix), error messages included.

use std::sync::Arc;

use vmcommon::Value;

use super::Interp;
use crate::ast::BinOp;
use crate::bytecode::{run_lens, Chunk, CompiledProgram, Op, ParamSpec, TyK, R};
use crate::interp::{Machine, NoHooks};

fn corners() -> Vec<Value> {
    use Value::*;
    vec![
        I32(0),
        I32(1),
        I32(-1),
        I32(7),
        I32(i32::MIN),
        I32(i32::MAX),
        I64(-1),
        I64(i64::MIN),
        I64(1 << 40),
        F32(0.0),
        F32(-0.0),
        F32(1.5),
        F32(-3.25),
        F32(f32::NAN),
        F32(f32::INFINITY),
        F32(16_777_216.0),
        F64(-0.0),
        F64(2.5),
        F64(f64::NAN),
        Ptr(0),
        Ptr(0x100),
    ]
}

const CMPS: [BinOp; 6] = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne];

/// A VM to run hand-built chunks on; `consts[0..2]` are `I32(0)`, `I32(1)`.
struct Bench {
    vm: Interp,
    consts: Vec<Value>,
}

impl Bench {
    fn new(extra: &[Value]) -> Bench {
        let m = Machine::from_source_with_mem("int main() { return 0; }", 8 << 20).unwrap();
        let mut consts = vec![Value::I32(0), Value::I32(1)];
        consts.extend_from_slice(extra);
        Bench { vm: Interp::new(m, Arc::new(NoHooks)).unwrap(), consts }
    }

    /// Bit-exact outcome of `code` with `args` in registers `0..`.
    fn run(&mut self, code: &[Op], args: &[Value]) -> String {
        let chunk = Chunk {
            name: "t".into(),
            nregs: 8,
            frame_size: 0,
            // `Dim3X` binds without converting.
            params: (0..args.len())
                .map(|r| ParamSpec::Reg { reg: r as R, ty: TyK::Dim3X })
                .collect(),
            zero_init: Vec::new(),
            code: code.to_vec(),
            line_table: 0,
            run_len: run_lens(code),
            base: 0,
        };
        let prog = CompiledProgram {
            chunks: vec![chunk],
            consts: self.consts.clone(),
            ..Default::default()
        };
        // Rust leaves a NaN result's sign and payload unspecified (LLVM
        // may commute `a + b`), so any NaN matches any NaN.
        match self.vm.call_chunk(&prog, 0, args) {
            Ok(Value::F32(x)) if x.is_nan() => "F32(NaN)".into(),
            Ok(Value::F64(x)) if x.is_nan() => "F64(NaN)".into(),
            Ok(Value::F32(x)) => format!("F32({:#x})", x.to_bits()),
            Ok(Value::F64(x)) => format!("F64({:#x})", x.to_bits()),
            Ok(v) => format!("{v:?}"),
            Err(e) => format!("error: {e}"),
        }
    }

    fn same(&mut self, typed: &[Op], generic: &[Op], args: &[Value]) {
        let (t, g) = (self.run(typed, args), self.run(generic, args));
        assert_eq!(t, g, "{typed:?} vs {generic:?} on {args:?}");
    }
}

/// The two exits after a conditional jump: `Ret 0` falling through (the
/// first two ops), `Ret 1` at the target (the last two).
fn outcome() -> [Op; 4] {
    [
        Op::Const { dst: 7, idx: 0 },
        Op::Ret { src: 7 },
        Op::Const { dst: 7, idx: 1 },
        Op::Ret { src: 7 },
    ]
}

#[test]
fn typed_arithmetic_matches_bin_and_conv() {
    let mut b = Bench::new(&[]);
    type Make = fn(R, R, R, bool) -> Op;
    let ops: [(BinOp, TyK, Make); 6] = [
        (BinOp::Add, TyK::Int, |dst, a, b, conv| Op::AddI { dst, a, b, conv }),
        (BinOp::Sub, TyK::Int, |dst, a, b, conv| Op::SubI { dst, a, b, conv }),
        (BinOp::Mul, TyK::Int, |dst, a, b, conv| Op::MulI { dst, a, b, conv }),
        (BinOp::Add, TyK::Float, |dst, a, b, conv| Op::AddF { dst, a, b, conv }),
        (BinOp::Sub, TyK::Float, |dst, a, b, conv| Op::SubF { dst, a, b, conv }),
        (BinOp::Mul, TyK::Float, |dst, a, b, conv| Op::MulF { dst, a, b, conv }),
    ];
    for (op, ty, make) in ops {
        for x in corners() {
            for y in corners() {
                let bin = Op::Bin { op, dst: 2, a: 0, b: 1, stride: 1 };
                b.same(
                    &[make(2, 0, 1, false), Op::Ret { src: 2 }],
                    &[bin.clone(), Op::Ret { src: 2 }],
                    &[x, y],
                );
                b.same(
                    &[make(3, 0, 1, true), Op::Ret { src: 3 }],
                    &[bin, Op::Conv { dst: 3, src: 2, ty }, Op::Ret { src: 3 }],
                    &[x, y],
                );
            }
        }
    }
}

#[test]
fn constant_forms_match_bin_with_the_constant() {
    let ks = [0, 1, -1, 7, i32::MAX, i32::MIN + 1];
    let fs = [0.0f32, -0.0, 1.5, f32::INFINITY, 16_777_216.0];
    let extra: Vec<Value> =
        ks.iter().map(|&k| Value::I32(k)).chain(fs.iter().map(|&k| Value::F32(k))).collect();
    let mut b = Bench::new(&extra);
    for x in corners() {
        for (i, &k) in ks.iter().enumerate() {
            let idx = 2 + i as u32;
            for conv in [false, true] {
                let tail = |generic: &[Op]| {
                    let mut code = generic.to_vec();
                    if conv {
                        code.push(Op::Conv { dst: 3, src: 2, ty: TyK::Int });
                    }
                    code.push(Op::Ret { src: if conv { 3 } else { 2 } });
                    code
                };
                let dst = if conv { 3 } else { 2 };
                let ret = Op::Ret { src: dst };
                for (op, typed) in [
                    (BinOp::Add, Op::AddIK { dst, a: 0, k, conv }),
                    // `x - k` is stored as `x + (-k)` (never for k = 0).
                    (BinOp::Sub, Op::AddIK { dst, a: 0, k: k.wrapping_neg(), conv }),
                    (BinOp::Mul, Op::MulIK { dst, a: 0, k, conv }),
                ] {
                    if op == BinOp::Sub && k == 0 {
                        continue;
                    }
                    let konst = Op::Const { dst: 1, idx };
                    let right =
                        tail(&[konst.clone(), Op::Bin { op, dst: 2, a: 0, b: 1, stride: 1 }]);
                    b.same(&[typed.clone(), ret.clone()], &right, &[x]);
                    if op != BinOp::Sub {
                        let left = tail(&[konst, Op::Bin { op, dst: 2, a: 1, b: 0, stride: 1 }]);
                        b.same(&[typed, ret.clone()], &left, &[x]);
                    }
                }
            }
        }
        for (i, &k) in fs.iter().enumerate() {
            let konst = Op::Const { dst: 1, idx: 2 + ks.len() as u32 + i as u32 };
            let typed = [Op::MulKF { dst: 2, a: 0, k, conv: false }, Op::Ret { src: 2 }];
            for (a, bb) in [(0, 1), (1, 0)] {
                let generic =
                    [konst.clone(), Op::Bin { op: BinOp::Mul, dst: 2, a, b: bb, stride: 1 }];
                b.same(&typed, &[&generic[..], &[Op::Ret { src: 2 }]].concat(), &[x]);
            }
        }
    }
}

#[test]
fn fused_fma_matches_fma_assign() {
    let mut b = Bench::new(&[]);
    for s in corners() {
        for x in corners() {
            for y in corners() {
                b.same(
                    &[Op::FmaF { dst: 0, a: 1, b: 2 }, Op::Ret { src: 0 }],
                    &[Op::FmaAssign { dst: 0, a: 1, b: 2, ty: TyK::Float }, Op::Ret { src: 0 }],
                    &[s, x, y],
                );
            }
        }
    }
}

#[test]
fn compare_and_branch_matches_bin_and_jump() {
    let ks = [0i16, 2, -1, i16::MIN, i16::MAX];
    let extra: Vec<Value> = ks.iter().map(|&k| Value::I32(k as i32)).collect();
    let mut b = Bench::new(&extra);
    for op in CMPS {
        for when in [false, true] {
            let jump = |to| if when { Op::Jnz { cond: 2, to } } else { Op::Jz { cond: 2, to } };
            for x in corners() {
                for float in [false, true] {
                    for y in corners() {
                        let typed =
                            [&[Op::Jcmp { op, a: 0, b: 1, to: 3, when, float }][..], &outcome()]
                                .concat();
                        let bin = Op::Bin { op, dst: 2, a: 0, b: 1, stride: 1 };
                        let generic = [&[bin, jump(4)][..], &outcome()].concat();
                        b.same(&typed, &generic, &[x, y]);
                    }
                }
                for (i, &k) in ks.iter().enumerate() {
                    let konst = Op::Const { dst: 1, idx: 2 + i as u32 };
                    let typed =
                        [&[Op::JcmpIK { op, a: 0, k, to: 3, when }][..], &outcome()].concat();
                    let bin = Op::Bin { op, dst: 2, a: 0, b: 1, stride: 1 };
                    let generic = [&[konst.clone(), bin, jump(5)][..], &outcome()].concat();
                    b.same(&typed, &generic, &[x]);
                    // A constant on the left is mirrored to the right.
                    let mirrored = match op {
                        BinOp::Lt => BinOp::Gt,
                        BinOp::Gt => BinOp::Lt,
                        BinOp::Le => BinOp::Ge,
                        BinOp::Ge => BinOp::Le,
                        other => other,
                    };
                    let typed =
                        [&[Op::JcmpIK { op: mirrored, a: 0, k, to: 3, when }][..], &outcome()]
                            .concat();
                    let bin = Op::Bin { op, dst: 2, a: 1, b: 0, stride: 1 };
                    let generic = [&[konst, bin, jump(5)][..], &outcome()].concat();
                    b.same(&typed, &generic, &[x]);
                }
            }
        }
    }
}

#[test]
fn increment_matches_mov_const_bin_conv() {
    let mut b = Bench::new(&[Value::I64(1), Value::I64(-1)]);
    for x in corners() {
        for (k, idx) in [(1, 2), (-1, 3)] {
            b.same(
                &[Op::IncI { r: 0, k }, Op::Ret { src: 0 }],
                &[
                    Op::Mov { dst: 1, src: 0 },
                    Op::Const { dst: 2, idx },
                    Op::Bin { op: BinOp::Add, dst: 3, a: 1, b: 2, stride: 1 },
                    Op::Conv { dst: 0, src: 3, ty: TyK::Int },
                    Op::Ret { src: 0 },
                ],
                &[x],
            );
        }
    }
}
