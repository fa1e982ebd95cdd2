//! The VM's register file: 64-bit payloads and 1-byte `Value` tags in two
//! parallel arrays over the same register numbers.
//!
//! Every register write is one `u64` store plus one byte store, and every
//! read loads exactly those widths back, so a read can always be forwarded
//! from the store that wrote it. A register held as a 16-byte `Value`
//! would be written by two narrower stores (tag, then payload) and often
//! read back by one 16-byte load, which the core cannot forward from two
//! pending stores: it waits until both reach L1. In a loop body each op
//! reads what the op before it just wrote, so almost every op would pay
//! that wait. A `Value` is built only where one leaves the file
//! ([`Window::get`], [`Slot::value`]).

use vmcommon::Value;

use crate::bytecode::{TyK, R};

/// `Value` tags as the register file stores them.
pub(super) mod tag {
    pub const I32: u8 = 0;
    pub const I64: u8 = 1;
    pub const F32: u8 = 2;
    pub const F64: u8 = 3;
    pub const PTR: u8 = 4;
}

/// One register as the file holds it: a 64-bit payload and a [`tag`].
/// An `I32` is sign-extended and floats keep their raw bits, so NaN
/// payloads and `-0.0` survive every register move. Two scalars, so it
/// passes to and returns from a call in two machine registers.
#[derive(Clone, Copy)]
pub(super) struct Slot {
    pub bits: u64,
    pub tag: u8,
}

impl Slot {
    #[inline(always)]
    pub fn of(v: Value) -> Slot {
        match v {
            Value::I32(x) => Slot::i32(x),
            Value::I64(x) => Slot::i64(x),
            Value::F32(x) => Slot::f32(x),
            Value::F64(x) => Slot::f64(x),
            Value::Ptr(x) => Slot::ptr(x),
        }
    }

    #[inline(always)]
    pub fn i32(x: i32) -> Slot {
        Slot { bits: x as i64 as u64, tag: tag::I32 }
    }

    #[inline(always)]
    pub fn i64(x: i64) -> Slot {
        Slot { bits: x as u64, tag: tag::I64 }
    }

    #[inline(always)]
    pub fn f32(x: f32) -> Slot {
        Slot { bits: x.to_bits() as u64, tag: tag::F32 }
    }

    #[inline(always)]
    pub fn f64(x: f64) -> Slot {
        Slot { bits: x.to_bits(), tag: tag::F64 }
    }

    #[inline(always)]
    pub fn ptr(x: u64) -> Slot {
        Slot { bits: x, tag: tag::PTR }
    }

    /// The typed zero of `ty`: what a zeroed frame slot loads as.
    #[inline(always)]
    pub fn zero(ty: TyK) -> Slot {
        let tag = match ty {
            TyK::Char | TyK::Int | TyK::Dim3X => tag::I32,
            TyK::Long => tag::I64,
            TyK::Float => tag::F32,
            TyK::Double => tag::F64,
            TyK::Ptr => tag::PTR,
        };
        Slot { bits: 0, tag }
    }

    #[inline(always)]
    pub fn value(self) -> Value {
        match self.tag {
            tag::I32 => Value::I32(self.as_i32()),
            tag::I64 => Value::I64(self.bits as i64),
            tag::F32 => Value::F32(self.as_f32()),
            tag::F64 => Value::F64(f64::from_bits(self.bits)),
            _ => Value::Ptr(self.bits),
        }
    }

    /// The payload read as an `I32`'s (the caller checked the tag).
    #[inline(always)]
    pub fn as_i32(self) -> i32 {
        self.bits as i32
    }

    /// The payload read as an `F32`'s (the caller checked the tag).
    #[inline(always)]
    pub fn as_f32(self) -> f32 {
        f32::from_bits(self.bits as u32)
    }
}

/// The register stack: a guest frame is the window
/// `[reg_base, reg_base + nregs)` of both arrays, pushed on call,
/// truncated on return.
#[derive(Default)]
pub(super) struct Regs {
    bits: Vec<u64>,
    tags: Vec<u8>,
}

impl Regs {
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    pub fn push(&mut self, s: Slot) {
        self.bits.push(s.bits);
        self.tags.push(s.tag);
    }

    /// Push `n` registers holding `I32(0)`.
    pub fn grow(&mut self, n: usize) {
        let len = self.len() + n;
        self.bits.resize(len, 0);
        self.tags.resize(len, tag::I32);
    }

    pub fn truncate(&mut self, len: usize) {
        self.bits.truncate(len);
        self.tags.truncate(len);
    }

    pub fn at(&self, r: usize) -> Slot {
        Slot { bits: self.bits[r], tag: self.tags[r] }
    }

    pub fn set(&mut self, r: usize, s: Slot) {
        self.bits[r] = s.bits;
        self.tags[r] = s.tag;
    }

    /// The frame window `[base, base + n)`.
    #[inline(always)]
    pub fn window(&mut self, base: usize, n: usize) -> Window<'_> {
        Window { bits: &mut self.bits[base..][..n], tags: &mut self.tags[base..][..n] }
    }
}

/// One frame's registers, indexed by the chunk's register numbers.
pub(super) struct Window<'a> {
    bits: &'a mut [u64],
    tags: &'a mut [u8],
}

impl Window<'_> {
    #[inline(always)]
    pub fn at(&self, r: R) -> Slot {
        Slot { bits: self.bits[r as usize], tag: self.tags[r as usize] }
    }

    #[inline(always)]
    pub fn get(&self, r: R) -> Value {
        self.at(r).value()
    }

    #[inline(always)]
    pub fn set(&mut self, r: R, s: Slot) {
        self.bits[r as usize] = s.bits;
        self.tags[r as usize] = s.tag;
    }

    /// Registers `[a, a + n)` as `Value`s, in the reused `pack`.
    pub fn pack<'p>(&self, pack: &'p mut Vec<Value>, a: R, n: u8) -> &'p [Value] {
        pack.clear();
        pack.extend((a..a + n as R).map(|r| self.get(r)));
        pack
    }
}
