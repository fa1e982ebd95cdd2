//! Each typed or fused op, superinstructions included, against the
//! sequence it replaces, both run by the VM on hand-built chunks. The argument registers take every
//! corner tag unconverted, so the typed arm runs where the tags match and
//! the fallback arm everywhere else; the two chunks must agree bit for bit,
//! error messages included, except that an arithmetic NaN result matches
//! any NaN (Rust does not fix its bits). Values that only move through
//! registers (`Const`, `Mov`, `Conv`, calls, returns) must keep every bit,
//! NaN payloads included.

use std::hint::black_box;
use std::sync::Arc;

use vmcommon::addr::{self, Space};
use vmcommon::Value;

use super::Interp;
use crate::ast::BinOp;
use crate::bytecode::{run_lens, Chunk, CompiledProgram, Op, ParamSpec, TyK, R};
use crate::interp::{Machine, NoHooks};
use crate::rt;
use crate::types::Ty;

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
        I64(-2),
        I64(i64::MIN),
        I64(1 << 40),
        F32(0.0),
        F32(-0.0),
        F32(1.5),
        F32(-3.25),
        F32(f32::NAN),
        F32(f32::from_bits(0x7fc0_1234)),
        F32(f32::from_bits(0xffc0_0001)),
        F32(f32::INFINITY),
        F32(16_777_216.0),
        F64(-0.0),
        F64(2.5),
        F64(f64::NAN),
        F64(f64::from_bits(0x7ff8_0000_dead_beef)),
        F64(f64::from_bits(0xfff8_0000_0000_0001)),
        Ptr(0),
        Ptr(0x100),
        Ptr(0xffff_8000_0000_0100),
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

    /// Run `chunks[0]` with `args` in registers `0..`.
    fn call(&mut self, mut chunks: Vec<Chunk>, args: &[Value]) -> Result<Value, String> {
        let mut base = 0;
        for c in &mut chunks {
            c.base = base;
            base += 1 + c.code.len() as u32;
        }
        let prog = CompiledProgram { chunks, consts: self.consts.clone(), ..Default::default() };
        self.vm.call_chunk(&prog, 0, args).map_err(|e| format!("error: {e}"))
    }

    /// Outcome of `code` with `args` in registers `0..`, bit-exact apart
    /// from NaNs.
    fn run(&mut self, code: &[Op], args: &[Value]) -> String {
        // `Dim3X` binds without converting.
        let params = (0..args.len()).map(|r| ParamSpec::Reg { reg: r as R, ty: TyK::Dim3X });
        // Rust leaves a NaN result's sign and payload unspecified (LLVM
        // may commute `a + b`), so any NaN matches any NaN.
        match self.call(vec![chunk(code, params.collect(), 0)], args) {
            Ok(Value::F32(x)) if x.is_nan() => "F32(NaN)".into(),
            Ok(Value::F64(x)) if x.is_nan() => "F64(NaN)".into(),
            Ok(v) => exact(v),
            Err(e) => e,
        }
    }

    /// A guest buffer holding `bytes`, as a pointer.
    fn buffer(&self, bytes: &[u8]) -> Value {
        let m = &self.vm.machine;
        let off = m.heap.lock().alloc(bytes.len() as u64).unwrap();
        m.mem.write_bytes(off, bytes).unwrap();
        Value::Ptr(addr::make(Space::Host, off))
    }

    fn same(&mut self, typed: &[Op], generic: &[Op], args: &[Value]) {
        let (t, g) = (self.run(typed, args), self.run(generic, args));
        assert_eq!(t, g, "{typed:?} vs {generic:?} on {args:?}");
    }
}

/// A chunk of 8 registers with `frame_size` bytes of guest frame.
fn chunk(code: &[Op], params: Vec<ParamSpec>, frame_size: u64) -> Chunk {
    Chunk {
        name: "t".into(),
        nregs: 8,
        frame_size,
        params,
        zero_init: Vec::new(),
        code: code.to_vec(),
        line_table: 0,
        run_len: run_lens(code),
        base: 0,
    }
}

/// A value's variant and every payload bit.
fn exact(v: Value) -> String {
    match v {
        Value::F32(x) => format!("F32({:#x})", x.to_bits()),
        Value::F64(x) => format!("F64({:#x})", x.to_bits()),
        v => format!("{v:?}"),
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

/// The walker's rule for a value converted to `ty`.
fn convert(v: Value, ty: TyK) -> Value {
    let ty = match ty {
        TyK::Char => Ty::Char,
        TyK::Int => Ty::Int,
        TyK::Long => Ty::Long,
        TyK::Float => Ty::Float,
        TyK::Double => Ty::Double,
        TyK::Ptr => Ty::Ptr(Box::new(Ty::Int)),
        TyK::Dim3X => Ty::Dim3,
    };
    rt::convert(black_box(v), &ty)
}

#[test]
fn registers_keep_every_bit_through_moves_conversions_calls_and_returns() {
    const TYS: [TyK; 7] =
        [TyK::Char, TyK::Int, TyK::Long, TyK::Float, TyK::Double, TyK::Ptr, TyK::Dim3X];
    let mut b = Bench::new(&corners());
    for (i, v) in corners().into_iter().enumerate() {
        // A host argument comes back as it went in.
        let echo = chunk(&[Op::Ret { src: 0 }], vec![ParamSpec::Reg { reg: 0, ty: TyK::Dim3X }], 0);
        assert_eq!(b.call(vec![echo], &[v]).map(exact), Ok(exact(v)), "host argument");
        for ty in TYS {
            // `Const`, `Mov`, `Conv`, then a call binding the result to a
            // register parameter and (but for `dim3`, which does not load)
            // a frame parameter of the same type; the callee returns one.
            let caller = chunk(
                &[
                    Op::Const { dst: 0, idx: 2 + i as u32 },
                    Op::Mov { dst: 1, src: 0 },
                    Op::Conv { dst: 2, src: 1, ty },
                    Op::Mov { dst: 3, src: 2 },
                    Op::Mov { dst: 4, src: 2 },
                    Op::Call { dst: 5, func: 1, abase: 3, nargs: 2 },
                    Op::Ret { src: 5 },
                ],
                Vec::new(),
                0,
            );
            let mem_ty = if ty == TyK::Dim3X { TyK::Long } else { ty };
            let params = vec![ParamSpec::Reg { reg: 0, ty }, ParamSpec::Mem { off: 0, ty: mem_ty }];
            let want = convert(convert(v, ty), ty);
            let mem_want = convert(convert(v, ty), mem_ty);
            for (code, want) in [
                (vec![Op::Ret { src: 0 }], want),
                (vec![Op::LoadSlot { dst: 1, off: 0, ty: mem_ty }, Op::Ret { src: 1 }], mem_want),
            ] {
                let callee = chunk(&code, params.clone(), 8);
                let got = b.call(vec![caller.clone(), callee], &[]);
                assert_eq!(got.map(exact), Ok(exact(want)), "{v:?} as {ty:?}, callee {code:?}");
            }
        }
    }
}

#[test]
fn a_register_that_changes_tag_reads_as_its_latest_value() {
    let p = 0xffff_8000_0000_0100;
    let mut b = Bench::new(&[Value::I32(-7), Value::Ptr(p)]);
    // r0 is `I32`, then `F64` (by `Conv`), then `Ptr` (by `Const`), then
    // `I32` again; every read after a change sees the new tag, typed ops
    // included (they fall back to the generic form).
    let code = [
        Op::Const { dst: 0, idx: 2 },
        Op::Mov { dst: 1, src: 0 },
        Op::Conv { dst: 0, src: 0, ty: TyK::Double },
        Op::Mov { dst: 2, src: 0 },
        Op::AddI { dst: 3, a: 0, b: 0, conv: false },
        Op::Const { dst: 0, idx: 3 },
        Op::Mov { dst: 4, src: 0 },
        Op::AddIK { dst: 5, a: 0, k: 1, conv: false },
        Op::Conv { dst: 0, src: 0, ty: TyK::Int },
        Op::AddI { dst: 6, a: 0, b: 0, conv: false },
        Op::Mov { dst: 7, src: 0 },
    ];
    let want = [
        Value::I32(0x100),
        Value::I32(-7),
        Value::F64(-7.0),
        Value::F64(-14.0),
        Value::Ptr(p),
        Value::Ptr(p + 1),
        Value::I32(0x200),
        Value::I32(0x100),
    ];
    for (r, want) in want.into_iter().enumerate() {
        let got = b.run(&[&code[..], &[Op::Ret { src: r as R }]].concat(), &[]);
        assert_eq!(got, exact(want), "r{r}");
    }
}

// ------------------------------------------------------- superinstructions

/// Indices for the fused loads: in range, out of range either way, and
/// every tag the `I32` fast path must refuse.
fn indices() -> Vec<Value> {
    use Value::*;
    vec![I32(0), I32(1), I32(3), I32(-1), I32(i32::MAX), I32(i32::MIN), I64(2), I64(-1)]
        .into_iter()
        .chain([F32(1.5), F64(2.5), Ptr(0x100)])
        .collect()
}

/// A 16-float guest buffer of corner floats (NaN payloads included), a
/// null pointer and every other tag as the base of a fused load.
fn bases(b: &Bench) -> Vec<Value> {
    let floats = corners().into_iter().filter_map(|v| match v {
        Value::F32(x) => Some(x),
        _ => None,
    });
    let bytes: Vec<u8> = floats.cycle().take(16).flat_map(|x| x.to_le_bytes()).collect();
    let mut out = vec![b.buffer(&bytes), Value::Ptr(0)];
    out.extend([Value::I32(64), Value::I64(64), Value::F64(1.0)]);
    out
}

const LOAD_TYS: [TyK; 4] = [TyK::Float, TyK::Int, TyK::Char, TyK::Double];

#[test]
fn sum_indexed_load_matches_add_then_load() {
    let mut b = Bench::new(&[]);
    for base in bases(&b) {
        for x in indices() {
            for y in indices() {
                for ty in LOAD_TYS {
                    let stride = ty.size().unwrap();
                    b.same(
                        &[Op::LoadIdxSum { dst: 4, base: 0, a: 1, b: 2, ty }, Op::Ret { src: 4 }],
                        &[
                            Op::AddI { dst: 3, a: 1, b: 2, conv: false },
                            Op::LoadIdx { dst: 4, base: 0, idx: 3, stride, ty },
                            Op::Ret { src: 4 },
                        ],
                        &[base, x, y],
                    );
                }
            }
        }
    }
}

#[test]
fn row_major_load_matches_mul_add_then_load() {
    let mut b = Bench::new(&[]);
    for base in bases(&b) {
        for i in indices() {
            for n in indices() {
                for j in indices() {
                    for ty in [TyK::Float, TyK::Long] {
                        let stride = ty.size().unwrap();
                        b.same(
                            &[
                                Op::LoadIdxMad { dst: 7, base: 0, i: 1, n: 2, j: 3, ty },
                                Op::Ret { src: 7 },
                            ],
                            &[
                                Op::MulI { dst: 5, a: 1, b: 2, conv: false },
                                Op::AddI { dst: 6, a: 5, b: 3, conv: false },
                                Op::LoadIdx { dst: 7, base: 0, idx: 6, stride, ty },
                                Op::Ret { src: 7 },
                            ],
                            &[base, i, n, j],
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn fma_from_memory_matches_load_then_fma() {
    let mut b = Bench::new(&[]);
    let idx = [Value::I32(0), Value::I32(5), Value::I32(-1), Value::I64(3), Value::F32(2.0)];
    for base in bases(&b) {
        for k in idx {
            for acc in corners() {
                for x in corners() {
                    for first in [false, true] {
                        let (a, bb) = if first { (4, 1) } else { (1, 4) };
                        b.same(
                            &[
                                Op::FmaIdx { acc: 0, x: 1, base: 2, idx: 3, first },
                                Op::Ret { src: 0 },
                            ],
                            &[
                                Op::LoadIdx { dst: 4, base: 2, idx: 3, stride: 4, ty: TyK::Float },
                                Op::FmaF { dst: 0, a, b: bb },
                                Op::Ret { src: 0 },
                            ],
                            &[acc, x, base, k],
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn increment_and_branch_matches_increment_then_compare() {
    let mut b = Bench::new(&[]);
    // Falling through returns the register; the target returns it as a
    // `double`, so both the branch and the new value show.
    let exits =
        [Op::Ret { src: 0 }, Op::Conv { dst: 7, src: 0, ty: TyK::Double }, Op::Ret { src: 7 }];
    for op in CMPS {
        for when in [false, true] {
            for k in [1i8, -1, 127, -128] {
                for r in corners() {
                    for y in corners() {
                        let jcmp = Op::Jcmp { op, a: 0, b: 1, to: 3, when, float: false };
                        let typed = [&[Op::IncJcmp { op, r: 0, b: 1, k, to: 2, when }][..], &exits]
                            .concat();
                        for inc in [
                            Op::IncI { r: 0, k: k as i32 },
                            Op::AddIK { dst: 0, a: 0, k: k as i32, conv: true },
                        ] {
                            let generic = [&[inc, jcmp.clone()][..], &exits].concat();
                            b.same(&typed, &generic, &[r, y]);
                        }
                    }
                }
            }
        }
    }
}
