//! The lane-at-a-time arithmetic the interpreter used before it went
//! warp-wide (same expressions, folded into macros): the reference the
//! sweeps compare against.

use sptx::{BinOp as B, CvtTy as C, Operand, ScalarTy as T, UnOp as U};

fn f32_of(bits: u64, o: &Operand) -> f32 {
    match o {
        Operand::ImmF(v) => *v as f32,
        _ => f32::from_bits(bits as u32),
    }
}

fn f64_of(bits: u64, o: &Operand) -> f64 {
    match o {
        Operand::ImmF(v) => *v,
        _ => f64::from_bits(bits),
    }
}

macro_rules! int_op {
    ($a:expr, $b:expr, $op:expr) => {{
        let (a, b) = ($a, $b);
        match $op {
            B::Add => a.wrapping_add(b),
            B::Sub => a.wrapping_sub(b),
            B::Mul => a.wrapping_mul(b),
            B::Div if b == 0 => return Err("division by zero".into()),
            B::Div => a.wrapping_div(b),
            B::Rem if b == 0 => return Err("remainder by zero".into()),
            B::Rem => a.wrapping_rem(b),
            B::Min => a.min(b),
            B::Max => a.max(b),
            B::And => a & b,
            B::Or => a | b,
            B::Xor => a ^ b,
            B::Shl => a.wrapping_shl(b as u32),
            B::Shr => a.wrapping_shr(b as u32),
            B::SetLt => (a < b) as _,
            B::SetLe => (a <= b) as _,
            B::SetGt => (a > b) as _,
            B::SetGe => (a >= b) as _,
            B::SetEq => (a == b) as _,
            B::SetNe => (a != b) as _,
        }
    }};
}

macro_rules! float_op {
    ($a:expr, $b:expr, $op:expr, $name:literal) => {{
        let (a, b) = ($a, $b);
        match $op {
            B::SetLt => return Ok((a < b) as u64),
            B::SetLe => return Ok((a <= b) as u64),
            B::SetGt => return Ok((a > b) as u64),
            B::SetGe => return Ok((a >= b) as u64),
            B::SetEq => return Ok((a == b) as u64),
            B::SetNe => return Ok((a != b) as u64),
            B::Add => a + b,
            B::Sub => a - b,
            B::Mul => a * b,
            B::Div => a / b,
            B::Rem => a % b,
            B::Min => a.min(b),
            B::Max => a.max(b),
            op => return Err(format!("bitwise {op:?} on {}", $name)),
        }
    }};
}

pub fn alu_bin(
    ty: T,
    op: B,
    a_bits: u64,
    b_bits: u64,
    a_op: &Operand,
    b_op: &Operand,
) -> Result<u64, String> {
    Ok(match ty {
        T::I32 => {
            let r: i32 = int_op!(a_bits as u32 as i32, b_bits as u32 as i32, op);
            r as u32 as u64
        }
        T::I64 => {
            let r: i64 = int_op!(a_bits as i64, b_bits as i64, op);
            r as u64
        }
        T::F32 => {
            let r: f32 = float_op!(f32_of(a_bits, a_op), f32_of(b_bits, b_op), op, "f32");
            r.to_bits() as u64
        }
        T::F64 => {
            let r: f64 = float_op!(f64_of(a_bits, a_op), f64_of(b_bits, b_op), op, "f64");
            r.to_bits()
        }
    })
}

macro_rules! float_un {
    ($v:expr, $op:expr, $t:ty) => {{
        let v = $v;
        match $op {
            U::Neg => -v,
            U::Not => return (v == 0.0) as u64,
            U::BitNot => <$t>::from_bits(!v.to_bits()),
            U::Sqrt => v.sqrt(),
            U::Abs => v.abs(),
            U::Floor => v.floor(),
            U::Ceil => v.ceil(),
            U::Exp => v.exp(),
            U::Log => v.ln(),
            U::Sin => v.sin(),
            U::Cos => v.cos(),
        }
    }};
}

macro_rules! int_un {
    ($v:expr, $op:expr) => {{
        let v = $v;
        match $op {
            U::Neg => v.wrapping_neg(),
            U::Not => (v == 0) as _,
            U::BitNot => !v,
            U::Abs => v.wrapping_abs(),
            _ => v,
        }
    }};
}

pub fn alu_un(ty: T, op: U, bits: u64, src: &Operand) -> u64 {
    match ty {
        T::F32 => {
            let r: f32 = float_un!(f32_of(bits, src), op, f32);
            r.to_bits() as u64
        }
        T::F64 => {
            let r: f64 = float_un!(f64_of(bits, src), op, f64);
            r.to_bits()
        }
        T::I32 => {
            let r: i32 = int_un!(bits as u32 as i32, op);
            r as u32 as u64
        }
        T::I64 => {
            let r: i64 = int_un!(bits as i64, op);
            r as u64
        }
    }
}

pub fn convert(to: C, from: C, bits: u64, src: &Operand) -> u64 {
    let as_f64 = |bits: u64| -> f64 {
        match from {
            C::F32 => f32::from_bits(bits as u32) as f64,
            C::F64 => f64::from_bits(bits),
            C::I64 => bits as i64 as f64,
            C::I32 => bits as u32 as i32 as f64,
            C::S8 => bits as u8 as i8 as f64,
        }
    };
    let as_i64 = |bits: u64| -> i64 {
        match from {
            C::F32 => match src {
                Operand::ImmF(v) => *v as i64,
                _ => f32::from_bits(bits as u32) as i64,
            },
            C::F64 => f64::from_bits(bits) as i64,
            C::I64 => bits as i64,
            C::I32 => bits as u32 as i32 as i64,
            C::S8 => bits as u8 as i8 as i64,
        }
    };
    let fsrc = match src {
        Operand::ImmF(v) if matches!(from, C::F32 | C::F64) => Some(*v),
        _ => None,
    };
    match to {
        C::S8 => (as_i64(bits) as i8) as u8 as u64,
        C::I32 => {
            let v = match fsrc {
                Some(f) => f as i32 as i64,
                None => as_i64(bits) as i32 as i64,
            };
            v as i32 as u32 as u64
        }
        C::I64 => match fsrc {
            Some(f) => (f as i64) as u64,
            None => as_i64(bits) as u64,
        },
        C::F32 => (fsrc.unwrap_or_else(|| as_f64(bits)) as f32).to_bits() as u64,
        C::F64 => fsrc.unwrap_or_else(|| as_f64(bits)).to_bits(),
    }
}
