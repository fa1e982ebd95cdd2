//! The fusion pass: what it makes of the UniBench loop shapes, each
//! refusal on hand-built code, and the counts, hotspot lines and fuel
//! traps of a fused program, pinned at their values before fusion.

use std::sync::Arc;

use crate::ast::BinOp;
use crate::bytecode::{LoopStats, Op, TyK, R};
use crate::compile::loops::optimize;
use crate::interp::{Interp, Machine, NoHooks};

/// The compiled code of `func` in `src`.
fn code_of(src: &str, func: &str) -> Vec<Op> {
    let m = Machine::from_source(src).unwrap();
    let prog = m.image().compiled();
    prog.chunks[prog.fn_chunk[func] as usize].code.clone()
}

/// The bodies of the innermost loops: from a backward jump's target
/// through the jump, with no other backward jump inside.
fn inner_loops(code: &[Op]) -> Vec<&[Op]> {
    let back = |pc: usize| {
        let mut op = code[pc].clone();
        super::super::specialize::target_mut(&mut op).map(|to| *to as usize).filter(|&to| to <= pc)
    };
    (0..code.len())
        .filter_map(|pc| back(pc).map(|to| (to, pc)))
        .filter(|&(to, pc)| (to..pc).all(|q| back(q).is_none()))
        .map(|(to, pc)| &code[to..=pc])
        .collect()
}

fn kinds(ops: &[Op]) -> Vec<String> {
    ops.iter().map(|op| format!("{op:?}").split(' ').next().unwrap().to_string()).collect()
}

#[test]
fn bicg_inner_loops_are_three_ops_and_gemms_five() {
    // bicg's and gemm's host loops (UniBench's sources without the
    // pragmas).
    let bicg = code_of(
        r#"
void run(int n, float *a, float *r, float *s, float *p, float *q) {
    for (int j = 0; j < n; j++) {
        float t = 0.0f;
        for (int i = 0; i < n; i++)
            t += a[i * n + j] * r[i];
        s[j] = t;
    }
    for (int i = 0; i < n; i++) {
        float t = 0.0f;
        for (int j = 0; j < n; j++)
            t += a[i * n + j] * p[j];
        q[i] = t;
    }
}
"#,
        "run",
    );
    let loops: Vec<Vec<String>> = inner_loops(&bicg).into_iter().map(kinds).collect();
    assert_eq!(
        loops,
        [["LoadIdxMad", "FmaIdx", "IncJcmp"], ["LoadIdxSum", "FmaIdx", "IncJcmp"]],
        "{bicg:?}"
    );
    let gemm = code_of(
        r#"
void run(int n, float *a, float *b, float *c) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            float acc = c[i * n + j] * 2123.0f;
            for (int k = 0; k < n; k++)
                acc += 32412.0f * a[i * n + k] * b[k * n + j];
            c[i * n + j] = acc;
        }
    }
}
"#,
        "run",
    );
    let loops: Vec<Vec<String>> = inner_loops(&gemm).into_iter().map(kinds).collect();
    assert_eq!(loops, [["LoadIdxSum", "MulKF", "LoadIdxMad", "FmaF", "IncJcmp"]], "{gemm:?}");
}

/// Run the loop pass, fusion included, on `code` (8 registers; `r0` an
/// `int` slot, `r1` a pointer) with per-pc `lines`.
fn run(code: Vec<Op>, lines: &[u32]) -> (Vec<Op>, LoopStats) {
    let table = lines.iter().enumerate().map(|(pc, &l)| (pc as u32, l)).collect();
    let (mut nregs, mut stats) = (8, LoopStats::default());
    let (code, _) = optimize(code, table, &mut nregs, &mut stats);
    (code, stats)
}

fn sum_load(t: R) -> [Op; 2] {
    [
        Op::AddI { dst: t, a: 0, b: 2, conv: false },
        Op::LoadIdx { dst: 6, base: 1, idx: t, stride: 4, ty: TyK::Float },
    ]
}

fn inc_test(to: u32) -> [Op; 2] {
    [Op::IncI { r: 0, k: 1 }, Op::Jcmp { op: BinOp::Lt, a: 0, b: 2, to, when: true, float: false }]
}

#[test]
fn adjacent_shapes_with_dead_temps_fuse() {
    let (out, stats) = run([&sum_load(5)[..], &[Op::Ret { src: 6 }]].concat(), &[3, 3, 3]);
    assert_eq!(stats.fused, 1, "{out:?}");
    assert!(matches!(out[..], [Op::LoadIdxSum { dst: 6, base: 1, a: 0, b: 2, ty: TyK::Float }, _]));
    // The intermediate may be the load's own destination.
    let (out, _) = run([&sum_load(6)[..], &[Op::Ret { src: 6 }]].concat(), &[3, 3, 3]);
    assert!(matches!(out[0], Op::LoadIdxSum { .. }), "{out:?}");
    let (out, stats) = run([&inc_test(0)[..], &[Op::Ret { src: 0 }]].concat(), &[3, 3, 3]);
    assert_eq!(stats.fused, 1, "{out:?}");
    assert!(matches!(out[0], Op::IncJcmp { r: 0, b: 2, k: 1, to: 0, when: true, .. }));
    // `r = r + k` with its `Conv` is an increment too.
    let add = Op::AddIK { dst: 0, a: 0, k: -3, conv: true };
    let (out, _) = run(vec![add, inc_test(0)[1].clone(), Op::Ret { src: 0 }], &[3, 3, 3]);
    assert!(matches!(out[0], Op::IncJcmp { k: -3, .. }), "{out:?}");
}

#[test]
fn no_fusion_when_a_temp_is_read_later_or_a_later_op_is_a_jump_target() {
    let refused: [(&str, Vec<Op>); 9] = [
        ("temp read after the pair", [&sum_load(5)[..], &[Op::Ret { src: 5 }]].concat()),
        (
            "temp live out of the block",
            [
                &sum_load(5)[..],
                &[Op::Jz { cond: 6, to: 4 }, Op::Ret { src: 6 }, Op::Ret { src: 5 }],
            ]
            .concat(),
        ),
        (
            "the load is a jump target",
            [&[Op::Jz { cond: 0, to: 2 }][..], &sum_load(5), &[Op::Ret { src: 6 }]].concat(),
        ),
        (
            "the test is a jump target",
            [&[Op::Jz { cond: 0, to: 2 }][..], &inc_test(0), &[Op::Ret { src: 0 }]].concat(),
        ),
        (
            "the load's base is the temp",
            vec![
                Op::AddI { dst: 5, a: 0, b: 2, conv: false },
                Op::LoadIdx { dst: 6, base: 5, idx: 5, stride: 4, ty: TyK::Float },
                Op::Ret { src: 6 },
            ],
        ),
        (
            "a stride that is not the element size",
            vec![
                Op::AddI { dst: 5, a: 0, b: 2, conv: false },
                Op::LoadIdx { dst: 6, base: 1, idx: 5, stride: 8, ty: TyK::Float },
                Op::Ret { src: 6 },
            ],
        ),
        (
            "an increment wider than i8",
            vec![inc_test(0)[1].clone(), Op::IncI { r: 0, k: 200 }, inc_test(0)[1].clone()],
        ),
        (
            "the loaded value is both factors",
            vec![
                Op::LoadIdx { dst: 5, base: 1, idx: 0, stride: 4, ty: TyK::Float },
                Op::FmaF { dst: 4, a: 5, b: 5 },
                Op::Ret { src: 4 },
            ],
        ),
        (
            "an AddIK that absorbed no Conv",
            vec![
                Op::AddIK { dst: 0, a: 0, k: 1, conv: false },
                inc_test(0)[1].clone(),
                Op::Ret { src: 0 },
            ],
        ),
    ];
    for (why, code) in refused {
        let lines = vec![3; code.len()];
        let (out, stats) = run(code, &lines);
        assert_eq!(stats.fused, 0, "{why}: {out:?}");
    }
    // Nor across source lines: hotspot lines stay where they were.
    let (out, stats) = run([&sum_load(5)[..], &[Op::Ret { src: 6 }]].concat(), &[3, 4, 4]);
    assert_eq!(stats.fused, 0, "{out:?}");
}

/// A loop nest with every superinstruction, and what it reported before
/// fusion: instruction and dispatch counts, hotspot lines, and where fuel
/// budgets trap.
const NEST: &str = r#"int main() {
    int n = 20;
    float a[400];
    float x[20];
    for (int i = 0; i < n * n; i++)
        a[i] = i * 0.5f;
    for (int j = 0; j < n; j++)
        x[j] = j + 1.0f;
    float s = 0.0f;
    for (int i = 0; i < n; i++) {
        float t = 0.0f;
        for (int j = 0; j < n; j++)
            t += a[j * n + i] * x[j];
        s += t * a[i + i * n];
        printf("%d\n", i);
    }
    int k = 0;
    while (k <= n) {
        s = s + x[k % n];
        k = k + 1;
    }
    return (int) s;
}
"#;

#[test]
fn a_fused_nest_counts_bills_and_profiles_as_before() {
    let m = Machine::from_source(NEST).unwrap();
    let prog = m.image().compiled();
    assert_eq!(prog.loop_stats.fused, 8);
    let code = kinds(&prog.chunks[prog.fn_chunk["main"] as usize].code);
    for op in ["LoadIdxMad", "LoadIdxSum", "FmaIdx", "IncJcmp"] {
        assert!(code.iter().any(|k| k == op), "no {op} in {code:?}");
    }
    m.set_hotspots(true);
    let r = Interp::new(m.clone(), Arc::new(NoHooks)).unwrap().run_main();
    assert_eq!(format!("{r:?}"), "Ok(I32(55790376))");
    let c = m.drain_vm_counters();
    assert_eq!((c.instructions, c.dispatch), (6987, [0, 1261, 3052, 886, 20, 1768]));
    let lines: Vec<(u32, u64, [u64; 6])> =
        m.line_profile().into_iter().map(|h| (h.line, h.instructions, h.dispatch)).collect();
    let want = [
        (2, 2, [0, 0, 1, 0, 0, 1]),
        (5, 804, [0, 0, 402, 401, 0, 1]),
        (6, 2000, [0, 400, 800, 0, 0, 800]),
        (7, 43, [0, 0, 21, 21, 0, 1]),
        (8, 100, [0, 20, 40, 0, 0, 40]),
        (9, 2, [0, 0, 1, 0, 0, 1]),
        (10, 43, [0, 0, 21, 21, 0, 1]),
        (11, 40, [0, 0, 20, 0, 0, 20]),
        (12, 860, [0, 0, 420, 420, 0, 20]),
        (13, 2800, [0, 800, 1200, 0, 0, 800]),
        (14, 100, [0, 20, 60, 0, 0, 20]),
        (15, 40, [0, 0, 0, 0, 20, 20]),
        (17, 2, [0, 0, 1, 0, 0, 1]),
        (18, 1, [0, 0, 0, 1, 0, 0]),
        (19, 105, [0, 21, 42, 0, 0, 42]),
        (20, 42, [0, 0, 21, 21, 0, 0]),
        (22, 3, [0, 0, 2, 1, 0, 0]),
    ];
    assert_eq!(lines, want);
    // Fuel traps at the same checkpoints: after the same printed lines.
    for (fuel, printed) in [(3000, Some(0)), (4000, Some(5)), (6000, Some(16)), (7000, None)] {
        let m = Machine::from_source(NEST).unwrap();
        m.limits().set_fuel(Some(fuel));
        let r = Interp::new(m.clone(), Arc::new(NoHooks)).unwrap().run_main();
        let trapped = r.is_err().then(|| m.take_output().lines().count());
        assert_eq!(trapped, printed, "fuel {fuel}: {r:?}");
    }
}
