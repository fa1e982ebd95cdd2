//! Runtime semantics shared by the bytecode VM and the tree-walking
//! oracle: value conversions, the full C binary-operator semantics,
//! printf argument classification, and the builtin function table.
//!
//! Keeping these in one place is what makes the "bit-identical results"
//! contract between [`crate::vm`] and [`crate::walker`] checkable: both
//! engines call the same functions for every arithmetic step.

use std::cmp::Ordering;

use vmcommon::addr::{self, Space};
use vmcommon::fmt::FmtArg;
use vmcommon::Value;

use crate::ast::BinOp;
use crate::interp::{IResult, InterpError, Machine};
use crate::types::Ty;

/// Convert a value to a C type (cast semantics).
pub fn convert(v: Value, ty: &Ty) -> Value {
    match ty {
        Ty::Char => Value::I32(v.as_i64() as i8 as i32),
        Ty::Int => Value::I32(v.as_i32()),
        Ty::Long => Value::I64(v.as_i64()),
        Ty::Float => Value::F32(v.as_f32()),
        Ty::Double => Value::F64(v.as_f64()),
        Ty::Ptr(_) => Value::Ptr(v.as_ptr()),
        _ => v,
    }
}

/// Does comparison `op` hold for operands ordered `ord` (`None`: unordered,
/// a NaN took part)? A table lookup, so a typed compare-and-branch costs
/// no second jump table.
#[inline(always)]
pub fn cmp_holds(op: BinOp, ord: Option<Ordering>) -> bool {
    // Bits: less, equal, greater, unordered.
    let mask: u8 = match op {
        BinOp::Lt => 0b0001,
        BinOp::Le => 0b0011,
        BinOp::Eq => 0b0010,
        BinOp::Ge => 0b0110,
        BinOp::Gt => 0b0100,
        BinOp::Ne => 0b1101,
        _ => 0,
    };
    let bit = match ord {
        Some(o) => (o as i8 + 1) as u8,
        None => 3,
    };
    mask >> bit & 1 != 0
}

/// `p + i * stride` in guest address arithmetic: wraps like the C the
/// guest was written in, never panics the host.
#[inline]
pub fn ptr_offset(p: u64, i: i64, stride: u64) -> u64 {
    p.wrapping_add(i.wrapping_mul(stride as i64) as u64)
}

/// The integer domain of [`apply_binop`] over operands widened to `i64`:
/// wrapping arithmetic, div/rem-by-zero traps, comparisons as 0/1. The
/// caller narrows to `I32` unless an operand was 64-bit.
#[inline(always)]
pub fn int_op(op: BinOp, a: i64, b: i64) -> IResult<i64> {
    use BinOp::*;
    Ok(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                return Err(InterpError::Trap("integer division by zero".into()));
            }
            a.wrapping_div(b)
        }
        Rem => {
            if b == 0 {
                return Err(InterpError::Trap("integer remainder by zero".into()));
            }
            a.wrapping_rem(b)
        }
        Shl => a.wrapping_shl(b as u32),
        Shr => a.wrapping_shr(b as u32),
        BitAnd => a & b,
        BitOr => a | b,
        BitXor => a ^ b,
        Lt | Gt | Le | Ge | Eq | Ne => cmp_holds(op, Some(a.cmp(&b))) as i64,
        LogAnd | LogOr => unreachable!("short-circuit forms are lowered before apply_binop"),
    })
}

/// The f32 domain: arithmetic with single-precision rounding, used when
/// an `F32` meets an `F32` or an integer. Only called for the five
/// arithmetic operators.
#[inline(always)]
pub fn f32_op(op: BinOp, a: f32, b: f32) -> f32 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        _ => f32::NAN,
    }
}

/// The f64 domain: arithmetic when a `F64` participates, and every float
/// comparison (f32 operands compare after widening, exactly).
#[inline(always)]
pub fn f64_op(op: BinOp, a: f64, b: f64) -> IResult<Value> {
    use BinOp::*;
    Ok(match op {
        Add => Value::F64(a + b),
        Sub => Value::F64(a - b),
        Mul => Value::F64(a * b),
        Div => Value::F64(a / b),
        Rem => Value::F64(a % b),
        Lt | Gt | Le | Ge | Eq | Ne => Value::I32(cmp_holds(op, a.partial_cmp(&b)) as i32),
        _ => return Err(InterpError::Trap(format!("bitwise op {op:?} on float"))),
    })
}

/// The full C binary-operator semantics over runtime values: pointer±int
/// with the pointer operand's stride, f32-preserving float arithmetic,
/// wrapping integer arithmetic, div/rem-by-zero traps. `lstride` is the
/// stride of whichever operand is pointer-typed (1 otherwise).
///
/// The typed VM ops call the same domain helpers ([`int_op`], [`f32_op`],
/// [`f64_op`]) when their operand tags match, and this function otherwise.
#[inline]
pub fn apply_binop(op: BinOp, lv: Value, lstride: u64, rv: Value) -> IResult<Value> {
    use BinOp::*;
    // Pointer ± integer.
    if let Value::Ptr(p) = lv {
        if matches!(op, Add | Sub) {
            let i = rv.as_i64();
            return Ok(Value::Ptr(ptr_offset(
                p,
                if op == Add { i } else { i.wrapping_neg() },
                lstride,
            )));
        }
    }
    if let Value::Ptr(p) = rv {
        if op == Add {
            return Ok(Value::Ptr(ptr_offset(p, lv.as_i64(), lstride)));
        }
    }
    let float =
        matches!(lv, Value::F32(_) | Value::F64(_)) || matches!(rv, Value::F32(_) | Value::F64(_));
    if float {
        let r = f64_op(op, lv.as_f64(), rv.as_f64())?;
        // Preserve f32 semantics when no f64 operand participates.
        let both_f32 = !matches!(lv, Value::F64(_) | Value::Ptr(_))
            && !matches!(rv, Value::F64(_) | Value::Ptr(_));
        if both_f32 && !op.is_comparison() {
            return Ok(Value::F32(f32_op(op, lv.as_f32(), rv.as_f32())));
        }
        return Ok(r);
    }
    let wide =
        matches!(lv, Value::I64(_) | Value::Ptr(_)) || matches!(rv, Value::I64(_) | Value::Ptr(_));
    let r = int_op(op, lv.as_i64(), rv.as_i64())?;
    Ok(if wide && !op.is_comparison() { Value::I64(r) } else { Value::I32(r as i32) })
}

/// For each conversion in a printf format: does it consume a string?
pub fn printf_arg_kinds(fmt: &str) -> Vec<bool> {
    let mut out = Vec::new();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            continue;
        }
        if chars.peek() == Some(&'%') {
            chars.next();
            continue;
        }
        // Skip flags/width/precision/length.
        let mut conv = None;
        for c in chars.by_ref() {
            if c.is_ascii_alphabetic() && !matches!(c, 'l' | 'z' | 'h') {
                conv = Some(c);
                break;
            }
        }
        if let Some(conv) = conv {
            out.push(conv == 's');
        }
    }
    out
}

/// Format and emit a printf call whose arguments are already evaluated
/// (the argument list is zipped against the conversion kinds, exactly
/// like the walker). Returns the printf result value.
pub fn do_printf(m: &Machine, fmt: &str, args: &[Value]) -> IResult<Value> {
    let mut fargs = Vec::new();
    for (v, spec_is_str) in args.iter().zip(printf_arg_kinds(fmt)) {
        if spec_is_str {
            let s = m.mem.read_cstr(addr::offset(v.as_ptr()))?;
            fargs.push(FmtArg::Str(s));
        } else {
            fargs.push(FmtArg::Val(*v));
        }
    }
    let out = vmcommon::fmt::format(fmt, &fargs);
    let n = out.len();
    m.emit(&out);
    Ok(Value::I32(n as i32))
}

/// Builtin host functions, indexable by [`Op::CallBuiltin`]'s `which`.
pub const BUILTINS: &[&str] = &[
    "sqrt", "sqrtf", "fabs", "fabsf", "pow", "powf", "exp", "expf", "log", "logf", "sin", "cos",
    "floor", "ceil", "fmax", "fmin", "fmaxf", "fminf", "abs", "malloc", "free", "memset", "exit",
];

pub fn builtin_index(name: &str) -> Option<u16> {
    BUILTINS.iter().position(|b| *b == name).map(|i| i as u16)
}

/// Execute builtin `which` (an index into [`BUILTINS`]). Missing
/// arguments default to `I32(0)`, as in the walker.
pub fn call_builtin(m: &Machine, which: u16, args: &[Value]) -> IResult<Value> {
    let a0 = || args.first().copied().unwrap_or(Value::I32(0));
    let a1 = || args.get(1).copied().unwrap_or(Value::I32(0));
    Ok(match BUILTINS[which as usize] {
        "sqrt" => Value::F64(a0().as_f64().sqrt()),
        "sqrtf" => Value::F32(a0().as_f32().sqrt()),
        "fabs" => Value::F64(a0().as_f64().abs()),
        "fabsf" => Value::F32(a0().as_f32().abs()),
        "pow" => Value::F64(a0().as_f64().powf(a1().as_f64())),
        "powf" => Value::F32(a0().as_f32().powf(a1().as_f32())),
        "exp" => Value::F64(a0().as_f64().exp()),
        "expf" => Value::F32(a0().as_f32().exp()),
        "log" => Value::F64(a0().as_f64().ln()),
        "logf" => Value::F32(a0().as_f32().ln()),
        "sin" => Value::F64(a0().as_f64().sin()),
        "cos" => Value::F64(a0().as_f64().cos()),
        "floor" => Value::F64(a0().as_f64().floor()),
        "ceil" => Value::F64(a0().as_f64().ceil()),
        "fmax" => Value::F64(a0().as_f64().max(a1().as_f64())),
        "fmin" => Value::F64(a0().as_f64().min(a1().as_f64())),
        "fmaxf" => Value::F32(a0().as_f32().max(a1().as_f32())),
        "fminf" => Value::F32(a0().as_f32().min(a1().as_f32())),
        "abs" => Value::I32(a0().as_i32().wrapping_abs()),
        "malloc" => {
            let size = a0().as_i64().max(0) as u64;
            // Charge the governor before touching the arena: a rejected
            // request must not disturb the allocator, and a failed
            // allocation must not leave a phantom charge.
            m.limits.charge_heap(size)?;
            let off = match m.heap.lock().alloc(size) {
                Ok(off) => off,
                Err(e) => {
                    m.limits.credit_heap(size);
                    return Err(e.into());
                }
            };
            // The allocator may round the block up; grow the charge to the
            // actual size so the credit on `free` stays symmetric.
            if let Some(actual) = m.heap.lock().block_size(off) {
                if actual > size {
                    m.limits.charge_heap_unchecked(actual - size);
                }
            }
            Value::Ptr(addr::make(Space::Host, off))
        }
        "free" => {
            let p = a0().as_ptr();
            if p != 0 {
                let off = addr::offset(p);
                let mut heap = m.heap.lock();
                let size = heap.block_size(off);
                heap.free(off)?;
                drop(heap);
                // Credit only what was actually freed (a bad pointer has
                // already errored out above).
                if let Some(size) = size {
                    m.limits.credit_heap(size);
                }
            }
            Value::I32(0)
        }
        "memset" => {
            let p = addr::offset(a0().as_ptr());
            let byte = a1().as_i32() as u8;
            let len = args.get(2).copied().unwrap_or(Value::I32(0)).as_i64() as u64;
            for i in 0..len {
                m.mem.store_u8(p + i, byte)?;
            }
            a0()
        }
        "exit" => return Err(InterpError::Trap(format!("guest called exit({})", a0().as_i32()))),
        other => unreachable!("unhandled builtin {other}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: [BinOp; 16] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Lt,
        BinOp::Gt,
        BinOp::Le,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
    ];

    /// Bit-exact outcome, errors by message; any NaN matches any NaN (Rust
    /// leaves a NaN result's sign and payload unspecified).
    fn key(r: IResult<Value>) -> String {
        match r {
            Ok(Value::F32(x)) if x.is_nan() => "F32(NaN)".into(),
            Ok(Value::F64(x)) if x.is_nan() => "F64(NaN)".into(),
            Ok(Value::F32(x)) => format!("F32({:#x})", x.to_bits()),
            Ok(Value::F64(x)) => format!("F64({:#x})", x.to_bits()),
            Ok(v) => format!("{v:?}"),
            Err(e) => format!("error: {e}"),
        }
    }

    /// The domain helpers the typed VM arms call give `apply_binop`'s
    /// answer for operands of their domain: i32::MIN / -1, % -1, zero
    /// divisors, shifts past the width, int ⊕ long, ±0.0 and NaN.
    #[test]
    fn domain_helpers_agree_with_apply_binop() {
        let ints = [0, 1, -1, 2, 31, 32, 64, i32::MIN, i32::MAX];
        let longs = [0, -1, 1 << 40, i64::MIN, i64::MAX];
        for op in OPS {
            for a in ints {
                for b in ints {
                    let got = int_op(op, a as i64, b as i64).map(|r| Value::I32(r as i32));
                    let want = apply_binop(op, Value::I32(a), 1, Value::I32(b));
                    assert_eq!(key(got), key(want), "{a} {op:?} {b}");
                }
                for l in longs {
                    let widen = |r: i64| match op.is_comparison() {
                        true => Value::I32(r as i32),
                        false => Value::I64(r),
                    };
                    let got = int_op(op, l, a as i64).map(widen);
                    assert_eq!(key(got), key(apply_binop(op, Value::I64(l), 1, Value::I32(a))));
                    let got = int_op(op, a as i64, l).map(widen);
                    assert_eq!(key(got), key(apply_binop(op, Value::I32(a), 1, Value::I64(l))));
                }
            }
        }
        let floats = [0.0f32, -0.0, 1.5, -2.0, f32::NAN, f32::INFINITY, 3.0e38, 1.0e-45];
        for op in OPS {
            for a in floats {
                for b in floats {
                    let want32 = apply_binop(op, Value::F32(a), 1, Value::F32(b));
                    let got32 = match op {
                        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                            Ok(Value::F32(f32_op(op, a, b)))
                        }
                        _ => f64_op(op, a as f64, b as f64),
                    };
                    assert_eq!(key(got32), key(want32), "{a} {op:?} {b} (f32)");
                    let (a, b) = (a as f64 * 1.25, b as f64);
                    let want64 = apply_binop(op, Value::F64(a), 1, Value::F64(b));
                    assert_eq!(key(f64_op(op, a, b)), key(want64), "{a} {op:?} {b} (f64)");
                }
            }
        }
    }
}
