//! The specialisation pass on compiled programs (which shapes become typed
//! ops and which must stay generic) and on hand-built code (the proof
//! rule's edges, constant dropping, jump and line remapping).

use vmcommon::Value;

use super::{builtin_tag, specialize, tag_of_val, ChunkFacts};
use crate::ast::BinOp;
use crate::bytecode::{Op, TyK, R};
use crate::interp::Machine;
use crate::rt;

/// The specialised code of `func` in `src`.
fn code_of(src: &str, func: &str) -> Vec<Op> {
    let m = Machine::from_source(src).unwrap();
    let prog = m.image().compiled();
    prog.chunks[prog.fn_chunk[func] as usize].code.clone()
}

fn has(code: &[Op], pred: impl Fn(&Op) -> bool) -> bool {
    code.iter().any(pred)
}

/// Is `op` at `pc` a jump to `pc` or earlier?
fn backward(op: &Op, pc: usize) -> bool {
    let mut op = op.clone();
    super::target_mut(&mut op).is_some_and(|to| *to as usize <= pc)
}

#[test]
fn hot_shapes_become_typed_ops() {
    let code = code_of(
        r#"
float run(int n, float *a, float *b) {
    float acc = 0.0f;
    int s = 0;
    for (int i = 0; i < n; i++) {
        acc += 2.0f * a[i] * b[i];
        s = s + i * 3;
    }
    if (n < 2) return acc;
    return acc + s;
}
"#,
        "run",
    );
    // `i++` and the loop test rotated behind it fuse into one op, and so
    // do the `b[i]` load and the `FmaF` that consumes it.
    assert!(
        has(&code, |op| matches!(op, Op::IncJcmp { op: BinOp::Lt, k: 1, when: true, .. })),
        "{code:?}"
    );
    assert!(has(&code, |op| matches!(op, Op::Jcmp { op: BinOp::Lt, float: false, .. })));
    assert!(has(&code, |op| matches!(op, Op::JcmpIK { op: BinOp::Lt, k: 2, when: false, .. })));
    assert!(has(&code, |op| matches!(op, Op::MulKF { k, .. } if *k == 2.0)));
    assert!(has(&code, |op| matches!(op, Op::FmaIdx { first: false, .. })));
    assert!(has(&code, |op| matches!(op, Op::MulIK { k: 3, .. })));
    // `s = s + ...` writes the slot directly.
    assert!(has(&code, |op| matches!(op, Op::AddI { conv: true, .. })));
    // Nothing up to the loop's back edge is generic (`acc + s` after the
    // loop mixes float and int, and stays so).
    // (The loop pass rotates the test onto the back edge, so that is the
    // first jump to an earlier pc, whatever its kind.)
    let back = (0..code.len()).find(|&pc| backward(&code[pc], pc)).unwrap();
    assert!(!has(&code[..back], |op| matches!(op, Op::Bin { .. })), "{code:?}");
}

#[test]
fn narrowing_and_mixed_shapes_stay_generic() {
    // char ++ narrows, so neither IncI nor a Conv-absorbing op may appear.
    let code = code_of("int f() { char c = 127; c++; c = c + 1; return c; }", "f");
    assert!(!has(&code, |op| matches!(op, Op::IncI { .. })), "{code:?}");
    assert!(!has(&code, |op| matches!(op, Op::AddIK { conv: true, .. })), "{code:?}");
    assert_eq!(code.iter().filter(|op| matches!(op, Op::Conv { ty: TyK::Char, .. })).count(), 3);
    // long ++ and long arithmetic have no typed form.
    let code = code_of("long f(long i) { i++; i = i + 1; return i; }", "f");
    assert!(!has(&code, |op| matches!(op, Op::IncI { .. } | Op::AddIK { .. } | Op::AddI { .. })));
    // A ternary's tag is decided at run time.
    let code = code_of("float f(int c, float x) { return (c ? 1 : 2.5f) + x; }", "f");
    assert!(has(&code, |op| matches!(op, Op::Bin { op: BinOp::Add, .. })), "{code:?}");
    // float against long compares generically.
    let code = code_of("int f(float x, long l) { if (x < l) return 1; return 0; }", "f");
    assert!(has(&code, |op| matches!(op, Op::Bin { op: BinOp::Lt, .. })), "{code:?}");
    assert!(!has(&code, |op| matches!(op, Op::Jcmp { .. } | Op::JcmpIK { .. })));
}

/// Run the pass on hand-built code: `slots` are the register slots'
/// declared types, `consts` the pool.
fn pass(
    code: Vec<Op>,
    lines: Vec<(u32, u32)>,
    slots: &[TyK],
    consts: &[Value],
) -> (Vec<Op>, Vec<(u32, u32)>) {
    let slots: Vec<(R, TyK)> = slots.iter().enumerate().map(|(r, &t)| (r as R, t)).collect();
    let facts = ChunkFacts { consts, slots: &slots, nregs: 8, rets: &[] };
    specialize(code, lines, &facts)
}

const ADD: fn(R, R, R) -> Op = |dst, a, b| Op::Bin { op: BinOp::Add, dst, a, b, stride: 1 };

#[test]
fn a_slot_written_other_than_by_conversion_is_unproven() {
    let run =
        |write: Op| pass(vec![write, ADD(2, 0, 0), Op::Ret { src: 2 }], vec![], &[TyK::Int], &[]).0;
    let proven = run(Op::Conv { dst: 0, src: 1, ty: TyK::Int });
    assert!(matches!(proven[1], Op::AddI { .. }), "{proven:?}");
    let unproven = run(Op::Mov { dst: 0, src: 1 });
    assert!(matches!(unproven[1], Op::Bin { .. }), "{unproven:?}");
}

#[test]
fn temp_tags_reset_at_jump_targets() {
    let consts = [Value::I32(1)];
    // r1 is written before the jump target at pc 2: unknown there.
    let code = vec![
        Op::Const { dst: 1, idx: 0 },
        Op::Jz { cond: 0, to: 2 },
        ADD(2, 1, 1),
        Op::Ret { src: 2 },
    ];
    let (out, _) = pass(code.clone(), vec![], &[TyK::Int], &consts);
    assert!(matches!(out[2], Op::Bin { .. }), "{out:?}");
    // Without the target the same add is typed; both operands are the one
    // constant register, so its `Const` stays.
    let mut no_target = code;
    no_target[1] = Op::Jz { cond: 0, to: 3 };
    let (out, _) = pass(no_target, vec![], &[TyK::Int], &consts);
    assert!(matches!(out[..], [Op::Const { .. }, _, Op::AddI { .. }, _]), "{out:?}");
}

#[test]
fn a_constant_live_on_a_side_exit_is_kept() {
    let consts = [Value::I32(5)];
    let code = vec![
        Op::Const { dst: 1, idx: 0 },
        Op::Jz { cond: 0, to: 4 },
        ADD(2, 0, 1),
        Op::Ret { src: 2 },
        Op::Ret { src: 1 },
    ];
    let (out, _) = pass(code, vec![], &[TyK::Int], &consts);
    assert!(
        matches!(out[..], [Op::Const { .. }, Op::Jz { to: 4, .. }, Op::AddI { .. }, _, _]),
        "{out:?}"
    );
}

#[test]
fn dropped_and_fused_ops_remap_jumps_and_lines() {
    let consts = [Value::I32(9), Value::I64(1)];
    let code = vec![
        Op::Const { dst: 1, idx: 0 }, // line 3: dead, dropped
        Op::Mov { dst: 2, src: 0 },   // line 4: `r0++` ...
        Op::Const { dst: 3, idx: 1 },
        ADD(4, 2, 3),
        Op::Conv { dst: 0, src: 4, ty: TyK::Int },
        Op::Jnz { cond: 0, to: 1 }, // line 5
        Op::Ret { src: 0 },         // line 6
    ];
    let lines = vec![(0, 3), (1, 4), (5, 5), (6, 6)];
    let (out, lines) = pass(code, lines, &[TyK::Int], &consts);
    assert!(
        matches!(out[..], [Op::IncI { r: 0, k: 1 }, Op::Jnz { to: 0, .. }, Op::Ret { .. }]),
        "{out:?}"
    );
    assert_eq!(lines, vec![(0, 4), (1, 5), (2, 6)]);
}

#[test]
fn builtin_tags_match_the_builtins() {
    let m = Machine::from_source("int main() { return 0; }").unwrap();
    for (which, name) in rt::BUILTINS.iter().enumerate() {
        let args = match *name {
            // exit traps; memset returns its first argument.
            "exit" | "memset" => continue,
            "free" => vec![Value::Ptr(0)],
            _ => vec![Value::F64(2.0), Value::F64(3.0)],
        };
        let v = rt::call_builtin(&m, which as u16, &args).unwrap();
        assert_eq!(builtin_tag(which as u16), tag_of_val(v), "{name}");
    }
}
