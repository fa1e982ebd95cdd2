//! Superinstructions: the last pass over a chunk's code, run at the end of
//! the loop pass (`compile/loops.rs`) once it has rotated the loop tests,
//! so once per [`crate::Image`]. It rewrites the adjacent typed ops that
//! dominate the UniBench loop nests into one op each:
//!
//! | ops | superinstruction |
//! |---|---|
//! | `MulI t = i * n; AddI u = t + j; LoadIdx d = base[u]` | `LoadIdxMad` |
//! | `AddI t = a + b; LoadIdx d = base[t]` | `LoadIdxSum` |
//! | `LoadIdx t = base[k]` (a `float`); `FmaF acc += x * t` | `FmaIdx` |
//! | `IncI r, k` or `AddIK r = r + k` (with its `Conv`); `Jcmp r op b` | `IncJcmp` |
//!
//! A run of ops fuses only if
//!
//! * its ops are adjacent in one basic block, so no op after the first is
//!   a jump target: runs, and with them fuel checkpoints, stay where they
//!   were;
//! * every intermediate register is read by the next op only and is dead
//!   after it (liveness from the loop pass's [`Flow`], one backward sweep
//!   per block), so not writing it changes nothing;
//! * its ops share one source line, so hotspot lines do not move;
//! * its constants fit the superinstruction (a load's stride is its
//!   type's size, an increment fits in `i8`; `Op` stays 12 bytes).
//!
//! A superinstruction is one dispatch but weighs as the ops it replaced
//! ([`Op::cats`]), and its VM arm runs their arms in order, so results,
//! traps, fuel and instruction counts are unchanged. The increment's two
//! forms share one generic path: `IncI` adds `I64(k)` and `AddIK` adds
//! `I32(k)`, and `apply_binop` followed by the conversion to `int` gives
//! the same for both constants whatever the register's tag.

use super::loops::Flow;
use super::specialize::{def_of, uses_of};
use crate::bytecode::{Op, TyK, R};

/// Could `op` start a superinstruction? (The pass skips chunks with none.)
pub(super) fn leads(op: &Op) -> bool {
    matches!(
        op,
        Op::MulI { .. } | Op::AddI { .. } | Op::LoadIdx { .. } | Op::IncI { .. } | Op::AddIK { .. }
    )
}

/// Fuse the runs of kept ops in `code` (source line per pc: `line`) that
/// form a superinstruction: it takes the run's first slot and the other
/// slots are dropped from `keep`. Returns how many it made.
pub(super) fn fuse(code: &mut [Op], keep: &mut [bool], line: &[u32], flow: &Flow) -> u32 {
    let mut fused = 0;
    let (mut ops, mut dies, mut live) = (Vec::new(), Vec::new(), Vec::new());
    for b in 0..flow.blocks() {
        ops.clear();
        ops.extend(flow.range(b).filter(|&pc| keep[pc]));
        live.clear();
        live.extend_from_slice(flow.live_out_of(b));
        dies_next(code, &ops, &mut live, &mut dies);
        let mut i = 0;
        while i < ops.len() {
            let Some((op, n)) = shape(code, &ops[i..], &dies[i..], line) else {
                i += 1;
                continue;
            };
            code[ops[i]] = op;
            ops[i + 1..i + n].iter().for_each(|&pc| keep[pc] = false);
            fused += 1;
            i += n;
        }
    }
    fused
}

/// `dies[i]`: the register the op at `ops[i]` writes holds a dead value
/// once the op at `ops[i + 1]` has run (that op overwrites it, or nothing
/// reads it later). `live` holds the block's live-out set and is used up.
fn dies_next(code: &[Op], ops: &[usize], live: &mut [u64], dies: &mut Vec<bool>) {
    dies.clear();
    dies.resize(ops.len(), false);
    let bit = |r: R| (r as usize / 64, 1u64 << (r % 64));
    for i in (1..ops.len()).rev() {
        // `live` is the set after `ops[i]`.
        let next = &code[ops[i]];
        if let Some((t, _)) = def_of(&code[ops[i - 1]]) {
            let overwritten = def_of(next).is_some_and(|(d, n)| (d..d + n).contains(&t));
            let (w, m) = bit(t);
            dies[i - 1] = overwritten || live[w] & m == 0;
        }
        if let Some((d, n)) = def_of(next) {
            (d..d + n).map(bit).for_each(|(w, m)| live[w] &= !m);
        }
        uses_of(next, |r| {
            let (w, m) = bit(r);
            live[w] |= m;
        });
    }
}

/// The superinstruction the ops at the start of `at` form, and how many
/// ops it replaces. `dies` is [`dies_next`] from `at[0]` on.
fn shape(code: &[Op], at: &[usize], dies: &[bool], line: &[u32]) -> Option<(Op, usize)> {
    let op = |k: usize| at.get(k).map(|&pc| &code[pc]);
    let one_line = |n: usize| at[1..n].iter().all(|&pc| line[pc] == line[at[0]]);
    let fused = |n: usize| one_line(n) && dies[..n - 1].iter().all(|&d| d);
    let elem = |stride: u32, ty: TyK| ty.size() == Some(stride);
    match (op(0)?, op(1), op(2)) {
        (
            &Op::MulI { dst: t, a: i, b: n, conv: false },
            Some(&Op::AddI { dst: u, a, b: j, conv: false }),
            Some(&Op::LoadIdx { dst, base, idx, stride, ty }),
        ) if a == t && j != t && idx == u && base != t && base != u && elem(stride, ty) => {
            fused(3).then_some((Op::LoadIdxMad { dst, base, i, n, j, ty }, 3))
        }
        (
            &Op::AddI { dst: t, a, b, conv: false },
            Some(&Op::LoadIdx { dst, base, idx, stride, ty }),
            _,
        ) if idx == t && base != t && elem(stride, ty) => {
            fused(2).then_some((Op::LoadIdxSum { dst, base, a, b, ty }, 2))
        }
        (
            &Op::LoadIdx { dst: t, base, idx, stride: 4, ty: TyK::Float },
            Some(&Op::FmaF { dst: acc, a, b }),
            _,
        ) if acc != t && (a == t) != (b == t) => {
            let (x, first) = if a == t { (b, true) } else { (a, false) };
            fused(2).then_some((Op::FmaIdx { acc, x, base, idx, first }, 2))
        }
        (inc, Some(&Op::Jcmp { op, a, b, to, when, float: false }), _) => {
            let (r, k) = increment(inc)?;
            let k = i8::try_from(k).ok()?;
            (a == r && one_line(2)).then_some((Op::IncJcmp { op, r, b, k, to, when }, 2))
        }
        _ => None,
    }
}

/// `r = convert(r + k, int)` as `IncI` or as an in-place `AddIK` that
/// absorbed its `Conv`: the register and the constant.
fn increment(op: &Op) -> Option<(R, i32)> {
    match *op {
        Op::IncI { r, k } => Some((r, k)),
        Op::AddIK { dst, a, k, conv: true } if dst == a => Some((dst, k)),
        _ => None,
    }
}

#[cfg(test)]
mod tests;
