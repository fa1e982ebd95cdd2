//! Pure lane arithmetic: `bin`, `un` and `cvt` over whole [`LaneVec`]s,
//! written straight into the destination row.
//!
//! Every entry point matches its `(type, op)` pair once and then runs a
//! branch-free loop over all 32 lanes, active or not, that stores each
//! result into `out` under the mask: an inactive lane keeps its bits, and
//! with the whole warp active the loop is a plain store. Computing a lane
//! that is switched off is harmless, with two exceptions that walk only the
//! active lanes, in ascending order: integer `div`/`rem`, whose zero-divisor
//! trap must only fire for a lane that really executes, and the ops that are
//! a libm call per lane (`rem` on floats, `floor`, `ceil`, `exp`, `log`,
//! `sin`, `cos`), which no compiler vectorises and which the one-lane master
//! warp of a master/worker region should not pay 32 times.
//!
//! Operands arrive as raw bit patterns already normalised to the
//! instruction type (see `crate::program`). `out` may hold an operand's
//! own row only as a copy: the caller splits the register stack around it.

use sptx::{BinOp, CvtTy, ScalarTy, UnOp};

use super::{iter_lanes, LaneVec};

/// Overwrite the lanes of `row` selected by `mask` with `v`'s.
#[inline]
pub(super) fn blend(row: &mut LaneVec, v: &LaneVec, mask: u32) {
    if mask == u32::MAX {
        *row = *v;
    } else {
        for (l, (r, &x)) in row.iter_mut().zip(v).enumerate() {
            *r = if mask >> l & 1 != 0 { x } else { *r };
        }
    }
}

/// Bit `l` is set where the low 32 bits of lane `l` are non-zero (the
/// truth value of an `if` condition).
#[inline]
pub(super) fn nonzero_mask(v: &LaneVec) -> u32 {
    let mut m = 0u32;
    for (l, &x) in v.iter().enumerate() {
        m |= ((x as u32 != 0) as u32) << l;
    }
    m
}

/// `out = f(a)` in the lanes of `mask`, computed in all 32.
#[inline(always)]
fn map1(out: &mut LaneVec, a: &LaneVec, mask: u32, f: impl Fn(u64) -> u64) {
    if mask == u32::MAX {
        for (o, &x) in out.iter_mut().zip(a) {
            *o = f(x);
        }
    } else {
        for (l, (o, &x)) in out.iter_mut().zip(a).enumerate() {
            let r = f(x);
            *o = if mask >> l & 1 != 0 { r } else { *o };
        }
    }
}

/// `out = f(a, b)` in the lanes of `mask`, computed in all 32.
#[inline(always)]
fn map2(out: &mut LaneVec, a: &LaneVec, b: &LaneVec, mask: u32, f: impl Fn(u64, u64) -> u64) {
    if mask == u32::MAX {
        for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
            *o = f(x, y);
        }
    } else {
        for (l, (o, (&x, &y))) in out.iter_mut().zip(a.iter().zip(b)).enumerate() {
            let r = f(x, y);
            *o = if mask >> l & 1 != 0 { r } else { *o };
        }
    }
}

/// `out = f(a)` computed in the active lanes only.
#[inline(always)]
fn active1(out: &mut LaneVec, a: &LaneVec, mask: u32, f: impl Fn(u64) -> u64) {
    for l in iter_lanes(mask) {
        out[l as usize] = f(a[l as usize]);
    }
}

#[inline(always)]
fn active2(out: &mut LaneVec, a: &LaneVec, b: &LaneVec, mask: u32, f: impl Fn(u64, u64) -> u64) {
    for l in iter_lanes(mask) {
        out[l as usize] = f(a[l as usize], b[l as usize]);
    }
}

/// `$t` is the signed lane type, `$u` the unsigned type of the same width
/// (registers hold the value zero-extended to 64 bits).
macro_rules! int_bin {
    ($t:ty, $u:ty, $op:expr, $out:expr, $a:expr, $b:expr, $mask:expr) => {{
        let d = |x: u64| x as $u as $t;
        let e = |r: $t| r as $u as u64;
        match $op {
            BinOp::Add => map2($out, $a, $b, $mask, |x, y| e(d(x).wrapping_add(d(y)))),
            BinOp::Sub => map2($out, $a, $b, $mask, |x, y| e(d(x).wrapping_sub(d(y)))),
            BinOp::Mul => map2($out, $a, $b, $mask, |x, y| e(d(x).wrapping_mul(d(y)))),
            // The trap names no lane, so one look at the executing lanes'
            // divisors decides it.
            BinOp::Div | BinOp::Rem if iter_lanes($mask).any(|l| d($b[l as usize]) == 0) => {
                let what = if $op == BinOp::Div { "division" } else { "remainder" };
                return Err(format!("{what} by zero"));
            }
            BinOp::Div => active2($out, $a, $b, $mask, |x, y| e(d(x).wrapping_div(d(y)))),
            BinOp::Rem => active2($out, $a, $b, $mask, |x, y| e(d(x).wrapping_rem(d(y)))),
            BinOp::Min => map2($out, $a, $b, $mask, |x, y| e(d(x).min(d(y)))),
            BinOp::Max => map2($out, $a, $b, $mask, |x, y| e(d(x).max(d(y)))),
            BinOp::And => map2($out, $a, $b, $mask, |x, y| e(d(x) & d(y))),
            BinOp::Or => map2($out, $a, $b, $mask, |x, y| e(d(x) | d(y))),
            BinOp::Xor => map2($out, $a, $b, $mask, |x, y| e(d(x) ^ d(y))),
            BinOp::Shl => map2($out, $a, $b, $mask, |x, y| e(d(x).wrapping_shl(d(y) as u32))),
            BinOp::Shr => map2($out, $a, $b, $mask, |x, y| e(d(x).wrapping_shr(d(y) as u32))),
            BinOp::SetLt => map2($out, $a, $b, $mask, |x, y| (d(x) < d(y)) as u64),
            BinOp::SetLe => map2($out, $a, $b, $mask, |x, y| (d(x) <= d(y)) as u64),
            BinOp::SetGt => map2($out, $a, $b, $mask, |x, y| (d(x) > d(y)) as u64),
            BinOp::SetGe => map2($out, $a, $b, $mask, |x, y| (d(x) >= d(y)) as u64),
            BinOp::SetEq => map2($out, $a, $b, $mask, |x, y| (d(x) == d(y)) as u64),
            BinOp::SetNe => map2($out, $a, $b, $mask, |x, y| (d(x) != d(y)) as u64),
        }
    }};
}

/// `$t` is the float lane type, `$u` the unsigned type holding its bits.
macro_rules! float_bin {
    ($t:ty, $u:ty, $name:literal, $op:expr, $out:expr, $a:expr, $b:expr, $mask:expr) => {{
        let d = |x: u64| <$t>::from_bits(x as $u);
        let e = |r: $t| r.to_bits() as u64;
        match $op {
            BinOp::Add => map2($out, $a, $b, $mask, |x, y| e(d(x) + d(y))),
            BinOp::Sub => map2($out, $a, $b, $mask, |x, y| e(d(x) - d(y))),
            BinOp::Mul => map2($out, $a, $b, $mask, |x, y| e(d(x) * d(y))),
            BinOp::Div => map2($out, $a, $b, $mask, |x, y| e(d(x) / d(y))),
            BinOp::Rem => active2($out, $a, $b, $mask, |x, y| e(d(x) % d(y))),
            BinOp::Min => map2($out, $a, $b, $mask, |x, y| e(d(x).min(d(y)))),
            BinOp::Max => map2($out, $a, $b, $mask, |x, y| e(d(x).max(d(y)))),
            BinOp::SetLt => map2($out, $a, $b, $mask, |x, y| (d(x) < d(y)) as u64),
            BinOp::SetLe => map2($out, $a, $b, $mask, |x, y| (d(x) <= d(y)) as u64),
            BinOp::SetGt => map2($out, $a, $b, $mask, |x, y| (d(x) > d(y)) as u64),
            BinOp::SetGe => map2($out, $a, $b, $mask, |x, y| (d(x) >= d(y)) as u64),
            BinOp::SetEq => map2($out, $a, $b, $mask, |x, y| (d(x) == d(y)) as u64),
            BinOp::SetNe => map2($out, $a, $b, $mask, |x, y| (d(x) != d(y)) as u64),
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {
                return Err(format!("bitwise {:?} on {}", $op, $name))
            }
        }
    }};
}

/// `out = a op b` in the lanes of `mask`. A trap leaves `out` untouched.
pub(super) fn bin(
    ty: ScalarTy,
    op: BinOp,
    out: &mut LaneVec,
    a: &LaneVec,
    b: &LaneVec,
    mask: u32,
) -> Result<(), String> {
    match ty {
        ScalarTy::I32 => int_bin!(i32, u32, op, out, a, b, mask),
        ScalarTy::I64 => int_bin!(i64, u64, op, out, a, b, mask),
        ScalarTy::F32 => float_bin!(f32, u32, "f32", op, out, a, b, mask),
        ScalarTy::F64 => float_bin!(f64, u64, "f64", op, out, a, b, mask),
    }
    Ok(())
}

/// Can [`bin`] trap on this `(type, op)`? Integer `div`/`rem` (a zero
/// divisor) and the bitwise ops on floats can.
pub(crate) fn bin_may_trap(ty: ScalarTy, op: BinOp) -> bool {
    use BinOp::*;
    match ty {
        ScalarTy::I32 | ScalarTy::I64 => matches!(op, Div | Rem),
        ScalarTy::F32 | ScalarTy::F64 => matches!(op, And | Or | Xor | Shl | Shr),
    }
}

macro_rules! int_un {
    ($t:ty, $u:ty, $op:expr, $out:expr, $a:expr, $mask:expr) => {{
        let d = |x: u64| x as $u as $t;
        let e = |r: $t| r as $u as u64;
        match $op {
            UnOp::Neg => map1($out, $a, $mask, |x| e(d(x).wrapping_neg())),
            UnOp::Not => map1($out, $a, $mask, |x| (d(x) == 0) as u64),
            UnOp::BitNot => map1($out, $a, $mask, |x| e(!d(x))),
            UnOp::Abs => map1($out, $a, $mask, |x| e(d(x).wrapping_abs())),
            // The float-only ops pass an integer through (re-truncated to
            // the lane width).
            _ => map1($out, $a, $mask, |x| e(d(x))),
        }
    }};
}

macro_rules! float_un {
    ($t:ty, $u:ty, $op:expr, $out:expr, $a:expr, $mask:expr) => {{
        let d = |x: u64| <$t>::from_bits(x as $u);
        let e = |r: $t| r.to_bits() as u64;
        match $op {
            UnOp::Neg => map1($out, $a, $mask, |x| e(-d(x))),
            UnOp::Not => map1($out, $a, $mask, |x| (d(x) == 0.0) as u64),
            UnOp::BitNot => map1($out, $a, $mask, |x| e(<$t>::from_bits(!d(x).to_bits()))),
            UnOp::Sqrt => map1($out, $a, $mask, |x| e(d(x).sqrt())),
            UnOp::Abs => map1($out, $a, $mask, |x| e(d(x).abs())),
            UnOp::Floor => active1($out, $a, $mask, |x| e(d(x).floor())),
            UnOp::Ceil => active1($out, $a, $mask, |x| e(d(x).ceil())),
            UnOp::Exp => active1($out, $a, $mask, |x| e(d(x).exp())),
            UnOp::Log => active1($out, $a, $mask, |x| e(d(x).ln())),
            UnOp::Sin => active1($out, $a, $mask, |x| e(d(x).sin())),
            UnOp::Cos => active1($out, $a, $mask, |x| e(d(x).cos())),
        }
    }};
}

/// `out = op a` in the lanes of `mask`.
pub(super) fn un(ty: ScalarTy, op: UnOp, out: &mut LaneVec, a: &LaneVec, mask: u32) {
    match ty {
        ScalarTy::I32 => int_un!(i32, u32, op, out, a, mask),
        ScalarTy::I64 => int_un!(i64, u64, op, out, a, mask),
        ScalarTy::F32 => float_un!(f32, u32, op, out, a, mask),
        ScalarTy::F64 => float_un!(f64, u64, op, out, a, mask),
    }
}

/// `out = cvt.to.from v` of each lane's raw bits, in the lanes of `mask`.
/// Float sources go to integers through `i64` (so f32→i32 wraps rather
/// than saturates) and integer sources to f32 through `f64`, as the scalar
/// interpreter always did.
pub(crate) fn cvt(to: CvtTy, from: CvtTy, out: &mut LaneVec, v: &LaneVec, mask: u32) {
    let lanes = (out, v, mask);
    match from {
        CvtTy::F32 => cvt_to(
            to,
            lanes,
            |b| f32::from_bits(b as u32) as i64,
            |b| f32::from_bits(b as u32) as f64,
        ),
        CvtTy::F64 => cvt_to(to, lanes, |b| f64::from_bits(b) as i64, f64::from_bits),
        CvtTy::I64 => cvt_to(to, lanes, |b| b as i64, |b| b as i64 as f64),
        CvtTy::I32 => cvt_to(to, lanes, |b| b as u32 as i32 as i64, |b| b as u32 as i32 as f64),
        CvtTy::S8 => cvt_to(to, lanes, |b| b as u8 as i8 as i64, |b| b as u8 as i8 as f64),
    }
}

#[inline(always)]
fn cvt_to(
    to: CvtTy,
    (out, v, mask): (&mut LaneVec, &LaneVec, u32),
    as_i64: impl Fn(u64) -> i64,
    as_f64: impl Fn(u64) -> f64,
) {
    match to {
        CvtTy::S8 => map1(out, v, mask, |b| as_i64(b) as i8 as u8 as u64),
        CvtTy::I32 => map1(out, v, mask, |b| as_i64(b) as i32 as u32 as u64),
        CvtTy::I64 => map1(out, v, mask, |b| as_i64(b) as u64),
        CvtTy::F32 => map1(out, v, mask, |b| (as_f64(b) as f32).to_bits() as u64),
        CvtTy::F64 => map1(out, v, mask, |b| as_f64(b).to_bits()),
    }
}

/// `cvt` of a float *immediate* read as a float: the f64 literal converts
/// directly (never rounded through f32 first, and straight to i32 with
/// saturation), which differs from a register source in the last place.
pub(crate) fn cvt_imm_f(to: CvtTy, f: f64) -> u64 {
    match to {
        CvtTy::S8 => f as i64 as i8 as u8 as u64,
        CvtTy::I32 => f as i32 as u32 as u64,
        CvtTy::I64 => f as i64 as u64,
        CvtTy::F32 => (f as f32).to_bits() as u64,
        CvtTy::F64 => f.to_bits(),
    }
}
