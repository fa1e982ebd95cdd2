//! The loop pass on hand-built code: what each part does, each refusal,
//! and the jump and line remapping. Registers `r0`, `r1` are `int` slots
//! (`n` and a counter), the rest temps.

use super::{optimize, renamable, rename, uses_of};
use crate::ast::BinOp;
use crate::bytecode::{LoopStats, Op, TyK, R};

/// Run the pass on `code` with `nregs` registers; the result, the new
/// register count and what the pass did.
fn run(
    code: Vec<Op>,
    lines: Vec<(u32, u32)>,
    nregs: u16,
) -> (Vec<Op>, Vec<(u32, u32)>, u16, LoopStats) {
    let (mut n, mut stats) = (nregs, LoopStats::default());
    let (code, lines) = optimize(code, lines, &mut n, &mut stats);
    (code, lines, n, stats)
}

fn add(dst: R, a: R, b: R) -> Op {
    Op::AddI { dst, a, b, conv: false }
}

fn mulk(dst: R, a: R, k: i32) -> Op {
    Op::MulIK { dst, a, k, conv: false }
}

/// `if !(r_a < r_b) goto to`.
fn exit_unless_lt(a: R, b: R, to: u32) -> Op {
    Op::Jcmp { op: BinOp::Lt, a, b, to, when: false, float: false }
}

const INC: Op = Op::IncI { r: 1, k: 1 };

// ------------------------------------------------------- value numbering

#[test]
fn a_recomputation_is_deleted_and_its_readers_renamed() {
    // The commuted `r1 + r0` is the same value.
    let code = vec![add(2, 0, 1), add(3, 1, 0), mulk(4, 3, 2), Op::Ret { src: 4 }];
    let (out, _, nregs, stats) = run(code, vec![], 8);
    assert!(matches!(out[..], [Op::AddI { dst: 2, .. }, Op::MulIK { a: 2, .. }, _]), "{out:?}");
    assert_eq!((stats.removed, nregs), (1, 8));
}

#[test]
fn no_renaming_across_a_redefinition_of_the_holder() {
    // r2 is rewritten before r3's reader: renaming it to r2 would read
    // the new value.
    let code = vec![
        add(2, 0, 1),
        add(3, 0, 1),
        Op::Const { dst: 2, idx: 0 },
        mulk(4, 3, 2),
        Op::Ret { src: 4 },
    ];
    let (out, _, _, stats) = run(code.clone(), vec![], 8);
    assert_eq!(stats, LoopStats::default(), "{out:?}");
    // Nor across a redefinition of an operand before the recomputation.
    let mut operand = code;
    operand[2] = Op::Conv { dst: 0, src: 5, ty: TyK::Int };
    operand.swap(1, 2);
    let (out, _, _, stats) = run(operand, vec![], 8);
    assert_eq!(stats, LoopStats::default(), "{out:?}");
}

#[test]
fn a_recomputation_live_out_of_its_block_is_kept() {
    // r3 is read after the branch.
    let code = vec![
        add(2, 0, 1),
        add(3, 0, 1),
        Op::Jz { cond: 0, to: 4 },
        Op::Ret { src: 3 },
        Op::Ret { src: 2 },
    ];
    let (out, _, _, stats) = run(code, vec![], 8);
    assert_eq!(stats.removed, 0, "{out:?}");
}

// ------------------------------------------------------------------ LICM

/// `for (; r1 < r0; r1++) { r2 = r0 * 4; r3 = r2 + r1; }` with a header
/// test, so the pass also rotates it.
fn counted_loop() -> Vec<Op> {
    vec![
        exit_unless_lt(1, 0, 5), // 0: header
        mulk(2, 0, 4),           // 1: invariant
        add(3, 2, 1),            // 2
        INC,                     // 3
        Op::Jmp { to: 0 },       // 4: back edge
        Op::Ret { src: 3 },      // 5
    ]
}

#[test]
fn an_invariant_op_moves_in_front_of_its_loop_and_the_test_rotates() {
    let lines = vec![(0, 10), (1, 11), (3, 12), (5, 13)];
    let (out, lines, nregs, stats) = run(counted_loop(), lines, 8);
    // The rotated test fuses with the increment in front of it.
    let want = [
        mulk(2, 0, 4),
        exit_unless_lt(1, 0, 4),
        add(3, 2, 1),
        Op::IncJcmp { op: BinOp::Lt, r: 1, b: 0, k: 1, to: 2, when: true },
        Op::Ret { src: 3 },
    ];
    assert_eq!(format!("{out:?}"), format!("{want:?}"));
    // The hoisted op keeps its line (11); the rotated test sits on the
    // back edge's (12), which is the increment's too.
    assert_eq!(lines, vec![(0, 11), (1, 10), (2, 11), (3, 12), (4, 13)]);
    assert_eq!(stats, LoopStats { removed: 0, hoisted: 1, rotated: 1, fused: 1 });
    assert_eq!(nregs, 8);
}

#[test]
fn values_climb_out_of_a_nest_innermost_first() {
    // for (; r1 < r0; r1++) for (r2 = 0; r2 < r0; r2++) { r0*4; r1*r0 }
    let code = vec![
        exit_unless_lt(1, 0, 9),                      // 0: outer header
        Op::Const { dst: 2, idx: 0 },                 // 1
        exit_unless_lt(2, 0, 7),                      // 2: inner header
        mulk(3, 0, 4),                                // 3: invariant in both
        Op::MulI { dst: 4, a: 1, b: 0, conv: false }, // 4: inner only
        Op::IncI { r: 2, k: 1 },                      // 5
        Op::Jmp { to: 2 },                            // 6
        INC,                                          // 7
        Op::Jmp { to: 0 },                            // 8
        Op::Ret { src: 1 },                           // 9
    ];
    let (out, _, _, stats) = run(code, vec![], 8);
    assert!(
        matches!(
            out[..],
            [
                Op::MulIK { dst: 3, .. },
                Op::Jcmp { to: 7, when: false, .. },
                Op::Const { .. },
                Op::MulI { dst: 4, .. },
                Op::Jcmp { to: 6, when: false, .. },
                Op::IncJcmp { r: 2, k: 1, to: 5, when: true, .. },
                Op::IncJcmp { r: 1, k: 1, to: 2, when: true, .. },
                Op::Ret { .. },
            ]
        ),
        "{out:?}"
    );
    assert_eq!(stats, LoopStats { removed: 0, hoisted: 3, rotated: 2, fused: 2 });
}

#[test]
fn no_hoisting_out_of_a_loop_entered_from_outside() {
    let mut code = vec![Op::Jnz { cond: 5, to: 1 }];
    code.extend(counted_loop());
    for op in &mut code[1..] {
        if let Some(to) = super::target_mut(op) {
            *to += 1;
        }
    }
    let (out, _, _, stats) = run(code, vec![], 8);
    assert_eq!(stats.hoisted, 0, "{out:?}");
    assert!(matches!(out[2], Op::MulIK { .. }), "{out:?}");
}

#[test]
fn no_hoisting_of_an_op_whose_operand_the_loop_writes() {
    let writes = [
        Op::Conv { dst: 0, src: 5, ty: TyK::Int },
        Op::IncI { r: 0, k: -1 },
        Op::FmaF { dst: 0, a: 5, b: 6 },
        Op::Dim3Load { dst3: 7, off: 0 }, // r7..r9
    ];
    for (w, reads) in writes.into_iter().zip([0, 0, 0, 9]) {
        let mut code = counted_loop();
        code[1] = mulk(2, reads, 4);
        code.insert(3, w.clone());
        for op in &mut code {
            if let Some(to) = super::target_mut(op) {
                *to += (*to >= 3) as u32;
            }
        }
        let (out, _, _, stats) = run(code, vec![], 10);
        assert_eq!(stats.hoisted, 0, "{w:?}: {out:?}");
    }
}

#[test]
fn a_temp_with_several_definitions_moves_to_a_fresh_register() {
    // r2 is also written after the loop, so the hoisted op gets r8 and
    // its reader in the block is renamed.
    let mut code = counted_loop();
    code[5] = Op::Const { dst: 2, idx: 0 };
    code.push(Op::Ret { src: 2 });
    let (out, _, nregs, stats) = run(code, vec![], 8);
    assert_eq!((stats.hoisted, nregs), (1, 9), "{out:?}");
    assert!(matches!(out[..2], [Op::MulIK { dst: 8, .. }, _]), "{out:?}");
    assert!(matches!(out[2], Op::AddI { a: 8, .. }), "{out:?}");
}

#[test]
fn no_hoisting_when_the_renamed_temp_is_live_out() {
    // As above, but r2 is read after a branch inside the loop: its
    // readers are not all in its block.
    let code = vec![
        exit_unless_lt(1, 0, 6), // 0
        mulk(2, 0, 4),           // 1
        Op::Jz { cond: 1, to: 3 },
        add(3, 2, 1), // 3: reads r2 in another block
        INC,
        Op::Jmp { to: 0 },
        Op::Const { dst: 2, idx: 0 }, // 6: a second definition
        Op::Ret { src: 2 },
    ];
    let (out, _, nregs, stats) = run(code, vec![], 8);
    assert_eq!((stats.hoisted, nregs), (0, 8), "{out:?}");
}

// -------------------------------------------------------------- rotation

#[test]
fn no_rotation_unless_the_test_exits_to_the_op_after_the_back_edge() {
    let mut code = counted_loop();
    code[0] = exit_unless_lt(1, 0, 6);
    code.push(Op::Ret { src: 1 });
    let (out, _, _, stats) = run(code, vec![], 8);
    assert_eq!(stats.rotated, 0, "{out:?}");
    assert!(matches!(out[4], Op::Jmp { to: 1 }), "{out:?}");
    // Nor when something else precedes the test in the header.
    let mut code = counted_loop();
    code.insert(0, Op::Mov { dst: 6, src: 1 });
    for op in &mut code {
        if let Some(to) = super::target_mut(op) {
            *to += 1;
        }
    }
    if let Op::Jmp { to } = &mut code[5] {
        *to = 0;
    }
    let (out, _, _, stats) = run(code, vec![], 8);
    assert_eq!(stats.rotated, 0, "{out:?}");
}

// --------------------------------------------------------------- helpers

/// Renaming reaches exactly the reads [`uses_of`] reports, except where an
/// op reads the register as part of a run or updates it in place.
#[test]
fn renaming_covers_every_single_read() {
    let ops = [
        Op::Mov { dst: 9, src: 1 },
        Op::Store { addr: 1, off: 0, src: 2, ty: TyK::Int },
        Op::StoreIdx { base: 1, idx: 2, stride: 4, src: 3, ty: TyK::Int },
        Op::StoreIdxD { base: 1, idx: 2, stride: 3, src: 4, ty: TyK::Int },
        Op::LoadIdxD { dst: 9, base: 1, idx: 2, stride: 3, ty: TyK::Int },
        Op::BinD { op: BinOp::Add, dst: 9, a: 1, b: 2, stride: 3 },
        Op::FmaAssign { dst: 1, a: 2, b: 3, ty: TyK::Float },
        Op::FmaF { dst: 1, a: 2, b: 3 },
        Op::IncI { r: 1, k: 1 },
        Op::Jcmp { op: BinOp::Lt, a: 1, b: 2, to: 0, when: true, float: false },
        Op::JcmpIK { op: BinOp::Lt, a: 1, k: 2, to: 0, when: true },
        Op::PrintfD { dst: 9, fmt: 1, abase: 2, nargs: 2 },
        Op::Call { dst: 9, func: 0, abase: 1, nargs: 2 },
        Op::Launch { name: 0, gb: 1, abase: 7, nargs: 1 },
        Op::Dim3Store { off: 0, src3: 1 },
        Op::StrideD { dst: 9, extent: 1, elem: 2 },
    ];
    for op in ops {
        for r in 1..=8 {
            let mut renamed = op.clone();
            if !renamable(&mut renamed, r) {
                continue;
            }
            rename(&mut renamed, r, 20);
            let (mut want, mut got) = (Vec::new(), Vec::new());
            uses_of(&op, |x| want.push(if x == r { 20 } else { x }));
            uses_of(&renamed, |x| got.push(x));
            assert_eq!(got, want, "{op:?} renaming r{r}");
        }
    }
    // In-place and run operands are not renamable.
    assert!(!renamable(&mut Op::IncI { r: 1, k: 1 }, 1));
    assert!(!renamable(&mut Op::FmaF { dst: 1, a: 2, b: 3 }, 1));
    assert!(!renamable(&mut Op::Call { dst: 9, func: 0, abase: 1, nargs: 2 }, 2));
    assert!(renamable(&mut Op::PrintfD { dst: 9, fmt: 1, abase: 2, nargs: 2 }, 1));
}
