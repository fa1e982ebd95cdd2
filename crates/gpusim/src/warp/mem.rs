//! The warp's view of memory: generic (tagged) addressing into the global
//! arena, the block's shared memory and the warp-local stack, the per-lane
//! side of `ld`/`st`/`atom`, and the coalescing model.
//!
//! Memory is where lanes stay *ordered*: the fault reported is the lowest
//! faulting lane's, two lanes storing to one address leave the higher lane's
//! value, and a float atomic accumulates in lane order — all of which a
//! guest can observe. Addresses and values are computed warp-wide (a fused
//! address chain in one lane loop, see [`Addr`]); an `ld`/`st` then looks at
//! the shape of its address row:
//!
//! * **Uniform** — every active lane has one address: one access, its value
//!   splatted (a store writes the highest active lane's value), and
//!   `is_global` transactions.
//! * **Affine** — a full warp at `first + lane * stride`, `stride > 0`, in the
//!   global or shared arena: one bounds-and-alignment check for all 32
//!   lanes ([`MemArena::load_strided`]), and the transactions in closed
//!   form, 32 when `stride >= 32` bytes and `seg(last) - seg(first) + 1`
//!   otherwise. A run that leaves the arena, into another tag or by
//!   wrapping, fails that check.
//! * **Anything else**, an affine run whose check fails, and local memory:
//!   the lane-ordered path ([`Warp::ld_lanes`], [`Warp::st_lanes`]), one
//!   active lane at a time, lowest first, through [`MemArena`]'s checks.
//!
//! A shape never decides an observable: a failed check of an affine run has
//! moved nothing, and the lane-ordered path then reports the lowest faulting
//! lane. Atomics always walk the lanes.

use sptx::{AtomOp, MemTy};
use vmcommon::addr::{self, Space};
use vmcommon::mem::MemResult;
use vmcommon::MemArena;

use super::{iter_lanes, LaneVec, Warp};
use crate::device::ExecError;
use crate::program::{Addr, Func, Src};
use crate::timing;

enum Resolved<'m> {
    Arena(&'m MemArena, u64),
    Local(usize),
}

/// One lane's atomic read-modify-write: `(arena, offset, operand) -> old`.
type AtomFn = fn(&MemArena, u64, u64) -> MemResult<u64>;

/// The lane operation of an `atom` instruction, selected once per warp
/// instruction.
fn atom_fn(op: AtomOp) -> AtomFn {
    use AtomOp::*;
    match op {
        CasB32 => unreachable!("separate instruction"),
        AddI32 => |m, off, v| Ok(m.fetch_add_u32(off, v as u32)? as u64),
        AddI64 => |m, off, v| m.fetch_add_u64(off, v),
        AddF32 => |m, off, v| Ok(m.fetch_add_f32(off, f32::from_bits(v as u32))?.to_bits() as u64),
        AddF64 => |m, off, v| Ok(m.fetch_add_f64(off, f64::from_bits(v))?.to_bits()),
        ExchB32 => |m, off, v| Ok(m.swap_u32(off, v as u32)? as u64),
        MinI32 => |m, off, v| Ok(m.fetch_min_i32(off, v as i32)? as u32 as u64),
        MaxI32 => |m, off, v| Ok(m.fetch_max_i32(off, v as i32)? as u32 as u64),
    }
}

// Arena accesses of the narrow widths, in register (zero-extended u64) terms.
fn load_u8(m: &MemArena, off: u64) -> MemResult<u64> {
    m.load_u8(off).map(u64::from)
}
fn load_u32(m: &MemArena, off: u64) -> MemResult<u64> {
    m.load_u32(off).map(u64::from)
}
fn store_u8(m: &MemArena, off: u64, v: u64) -> MemResult<()> {
    m.store_u8(off, v as u8)
}
fn store_u32(m: &MemArena, off: u64, v: u64) -> MemResult<()> {
    m.store_u32(off, v as u32)
}

impl<'a> Warp<'a> {
    // The memory ops of `run`, kept out of line so that their lane loops
    // and temporaries stay out of the dispatch loop that every op runs in.

    /// `ld`: the active lanes' values into row `dst`.
    #[inline(never)]
    pub(super) fn ld(
        &mut self,
        f: &Func,
        ty: MemTy,
        dst: u32,
        addr: Addr,
        offset: i64,
        mask: u32,
    ) -> Result<(), ExecError> {
        let addrs = self.lane_addrs(f, addr, offset);
        self.ld_row(ty, dst, &addrs, mask)
    }

    /// `st`: the active lanes' values of `src` to memory.
    #[inline(never)]
    pub(super) fn st(
        &mut self,
        f: &Func,
        ty: MemTy,
        src: Src,
        addr: Addr,
        offset: i64,
        mask: u32,
    ) -> Result<(), ExecError> {
        let addrs = self.lane_addrs(f, addr, offset);
        let v = *self.read(f, src);
        self.st_row(ty, &addrs, &v, mask)
    }

    /// `ld` of the addresses `addrs`, by their shape.
    pub(super) fn ld_row(
        &mut self,
        ty: MemTy,
        dst: u32,
        addrs: &LaneVec,
        mask: u32,
    ) -> Result<(), ExecError> {
        match shape(addrs, mask) {
            Shape::Uniform(a) => {
                let v = self.load_mem(ty, a)?;
                self.set_row(dst, &[v; 32], mask);
                self.charge_mem(is_global(a) as u64, a);
                return Ok(());
            }
            Shape::Affine { first, stride } => {
                if let Some(m) = self.arena(first) {
                    // A full warp: the whole row is written, or none of it.
                    let (off, out) = (addr::offset(first), self.row_mut(dst));
                    let loaded = match ty.size() {
                        1 => m.load_strided::<1>(off, stride, out),
                        4 => m.load_strided::<4>(off, stride, out),
                        _ => m.load_strided::<8>(off, stride, out),
                    };
                    if loaded.is_ok() {
                        self.charge_mem(affine_segments(first, stride), first);
                        return Ok(());
                    }
                }
            }
            Shape::Other => {}
        }
        self.ld_lanes(ty, dst, addrs, mask)
    }

    /// `st` of `vals` to the addresses `addrs`, by their shape.
    pub(super) fn st_row(
        &mut self,
        ty: MemTy,
        addrs: &LaneVec,
        vals: &LaneVec,
        mask: u32,
    ) -> Result<(), ExecError> {
        match shape(addrs, mask) {
            Shape::Uniform(a) => {
                // Of the lanes storing to one address, the highest wins.
                self.store_mem(ty, a, vals[31 - mask.leading_zeros() as usize])?;
                self.charge_mem(is_global(a) as u64, a);
                return Ok(());
            }
            Shape::Affine { first, stride } => {
                if let Some(m) = self.arena(first) {
                    let off = addr::offset(first);
                    let stored = match ty.size() {
                        1 => m.store_strided::<1>(off, stride, vals),
                        4 => m.store_strided::<4>(off, stride, vals),
                        _ => m.store_strided::<8>(off, stride, vals),
                    };
                    if stored.is_ok() {
                        self.charge_mem(affine_segments(first, stride), first);
                        return Ok(());
                    }
                }
            }
            Shape::Other => {}
        }
        self.st_lanes(ty, addrs, vals, mask)
    }

    /// The lane-ordered `ld`, for any shape: each active lane's load, lowest
    /// lane first, then the coalescing charge.
    pub(super) fn ld_lanes(
        &mut self,
        ty: MemTy,
        dst: u32,
        addrs: &LaneVec,
        mask: u32,
    ) -> Result<(), ExecError> {
        let v = self.load_lanes(ty, addrs, mask)?;
        self.set_row(dst, &v, mask);
        self.coalesce(addrs, mask);
        Ok(())
    }

    /// The lane-ordered `st`, for any shape.
    pub(super) fn st_lanes(
        &mut self,
        ty: MemTy,
        addrs: &LaneVec,
        vals: &LaneVec,
        mask: u32,
    ) -> Result<(), ExecError> {
        self.store_lanes(ty, addrs, vals, mask)?;
        self.coalesce(addrs, mask);
        Ok(())
    }

    /// `atom.cas.b32`, lowest lane first; the old words into row `dst`. A
    /// lane whose old word is not the expected one made no progress (see
    /// [`Yield::Spin`](super::Yield::Spin)).
    #[inline(never)]
    pub(super) fn atom_cas(
        &mut self,
        f: &Func,
        dst: u32,
        addr: Src,
        expected: Src,
        new: Src,
        mask: u32,
    ) -> Result<(), ExecError> {
        let (addrs, e, n) = (self.read(f, addr), self.read(f, expected), self.read(f, new));
        let (mut old, mut stalled) = ([0u64; 32], false);
        for lane in iter_lanes(mask) {
            let l = lane as usize;
            let (m, off) = self.resolve_atomic(addrs[l])?;
            let was = m.cas_u32(off, e[l] as u32, n[l] as u32)?;
            stalled |= was != e[l] as u32;
            old[l] = was as u64;
        }
        self.stalls = self.stalls.wrapping_add(stalled as u32);
        self.set_row(dst, &old, mask);
        Ok(())
    }

    /// A fetch-and-op `atom`, lowest lane first; the old values into row
    /// `dst`. An `atom.exch` that returns the word it wrote made no
    /// progress.
    #[inline(never)]
    pub(super) fn atom(
        &mut self,
        f: &Func,
        op: AtomOp,
        dst: u32,
        addr: Src,
        val: Src,
        mask: u32,
    ) -> Result<(), ExecError> {
        let (addrs, v) = (self.read(f, addr), self.read(f, val));
        let rmw = atom_fn(op);
        let (mut old, mut stalled) = ([0u64; 32], false);
        for lane in iter_lanes(mask) {
            let l = lane as usize;
            let (m, off) = self.resolve_atomic(addrs[l])?;
            old[l] = rmw(m, off, v[l])?;
            stalled |= op == AtomOp::ExchB32 && old[l] == v[l] as u32 as u64;
        }
        self.stalls = self.stalls.wrapping_add(stalled as u32);
        self.set_row(dst, &old, mask);
        Ok(())
    }

    /// `addr + offset` in every lane (wrapping: an inactive lane may hold
    /// anything). A power-of-two scale is a shift: the build's baseline
    /// x86-64 has no 64-bit lane multiply, so a multiply walks the lanes.
    #[inline(always)]
    pub(super) fn lane_addrs(&self, f: &Func, addr: Addr, offset: i64) -> LaneVec {
        let (base, idx, sext, scale) = match addr {
            Addr::Row(a) => return self.read(f, a).map(|a| a.wrapping_add(offset as u64)),
            Addr::Index { base, idx, sext, scale } => (base, idx, sext, scale),
        };
        let (b, x) = (self.read(f, base), self.read(f, idx));
        let at =
            |l: usize, scaled: i64| (b[l] as i64).wrapping_add(scaled).wrapping_add(offset) as u64;
        let sx = |v: u64| v as u32 as i32 as i64;
        let k = scale.trailing_zeros();
        match (sext, scale > 0 && scale & (scale - 1) == 0) {
            (true, true) => std::array::from_fn(|l| at(l, sx(x[l]) << k)),
            (false, true) => std::array::from_fn(|l| at(l, (x[l] as i64) << k)),
            (true, false) => std::array::from_fn(|l| at(l, sx(x[l]).wrapping_mul(scale))),
            (false, false) => std::array::from_fn(|l| at(l, (x[l] as i64).wrapping_mul(scale))),
        }
    }

    /// The arena a tagged address lives in; `None` for local memory and
    /// for an address in no device space.
    fn arena(&self, a: u64) -> Option<&'a MemArena> {
        match self.resolve(a) {
            Ok(Resolved::Arena(m, _)) => Some(m),
            _ => None,
        }
    }

    /// Resolve a tagged guest address to the arena (or the local stack) it
    /// lives in.
    fn resolve(&self, a: u64) -> Result<Resolved<'a>, ExecError> {
        let env = self.env;
        match addr::space(a) {
            Some(Space::Global) => Ok(Resolved::Arena(&env.device.global, addr::offset(a))),
            Some(Space::Shared) => Ok(Resolved::Arena(&env.ctx.shared, addr::offset(a))),
            Some(Space::Local) => Ok(Resolved::Local(addr::offset(a) as usize)),
            _ => Err(ExecError::Mem(vmcommon::MemError::BadSpace { addr: a })),
        }
    }

    /// The arena word an atomic targets; local memory has no atomics.
    fn resolve_atomic(&self, a: u64) -> Result<(&'a MemArena, u64), ExecError> {
        match self.resolve(a)? {
            Resolved::Arena(m, off) => Ok((m, off)),
            Resolved::Local(_) => Err(ExecError::Trap("atomic on local memory".into())),
        }
    }

    /// One lane's load of `size` bytes at `a`; `arena` is the access for
    /// that width.
    #[inline(always)]
    fn load_one(
        &self,
        a: u64,
        size: usize,
        arena: impl Fn(&MemArena, u64) -> MemResult<u64>,
    ) -> Result<u64, ExecError> {
        Ok(match self.resolve(a)? {
            Resolved::Arena(m, off) => arena(m, off)?,
            Resolved::Local(off) => {
                let end = off.checked_add(size).ok_or(ExecError::Trap("local overflow".into()))?;
                if end > self.local_stack.len() {
                    return Err(ExecError::Trap(format!("local read out of bounds at {off:#x}")));
                }
                let mut buf = [0u8; 8];
                buf[..size].copy_from_slice(&self.local_stack[off..end]);
                u64::from_le_bytes(buf)
            }
        })
    }

    /// One lane's store of the low `size` bytes of `v` at `a`.
    #[inline(always)]
    fn store_one(
        &mut self,
        a: u64,
        v: u64,
        size: usize,
        arena: impl Fn(&MemArena, u64, u64) -> MemResult<()>,
    ) -> Result<(), ExecError> {
        match self.resolve(a)? {
            Resolved::Arena(m, off) => arena(m, off, v)?,
            Resolved::Local(off) => {
                let end = off.checked_add(size).ok_or(ExecError::Trap("local overflow".into()))?;
                if end > self.local_stack.len() {
                    return Err(ExecError::Trap(format!("local write out of bounds at {off:#x}")));
                }
                self.local_stack[off..end].copy_from_slice(&v.to_le_bytes()[..size]);
            }
        }
        Ok(())
    }

    /// `ld`: load each active lane's address, lowest lane first; inactive
    /// lanes read 0.
    fn load_lanes(&self, ty: MemTy, addrs: &LaneVec, mask: u32) -> Result<LaneVec, ExecError> {
        let mut out = [0u64; 32];
        macro_rules! each {
            ($size:expr, $arena:expr) => {
                for lane in iter_lanes(mask) {
                    out[lane as usize] = self.load_one(addrs[lane as usize], $size, $arena)?;
                }
            };
        }
        match ty {
            MemTy::B8 => each!(1, load_u8),
            MemTy::B32 | MemTy::F32 => each!(4, load_u32),
            MemTy::B64 | MemTy::F64 => each!(8, MemArena::load_u64),
        }
        Ok(out)
    }

    /// `st`: store each active lane's value, lowest lane first.
    fn store_lanes(
        &mut self,
        ty: MemTy,
        addrs: &LaneVec,
        vals: &LaneVec,
        mask: u32,
    ) -> Result<(), ExecError> {
        macro_rules! each {
            ($size:expr, $arena:expr) => {
                for lane in iter_lanes(mask) {
                    self.store_one(addrs[lane as usize], vals[lane as usize], $size, $arena)?;
                }
            };
        }
        match ty {
            MemTy::B8 => each!(1, store_u8),
            MemTy::B32 | MemTy::F32 => each!(4, store_u32),
            MemTy::B64 | MemTy::F64 => each!(8, MemArena::store_u64),
        }
        Ok(())
    }

    /// A single access, for the device-library helpers below.
    fn load_mem(&self, ty: MemTy, a: u64) -> Result<u64, ExecError> {
        match ty {
            MemTy::B8 => self.load_one(a, 1, load_u8),
            MemTy::B32 | MemTy::F32 => self.load_one(a, 4, load_u32),
            MemTy::B64 | MemTy::F64 => self.load_one(a, 8, MemArena::load_u64),
        }
    }

    fn store_mem(&mut self, ty: MemTy, a: u64, v: u64) -> Result<(), ExecError> {
        match ty {
            MemTy::B8 => self.store_one(a, v, 1, store_u8),
            MemTy::B32 | MemTy::F32 => self.store_one(a, v, 4, store_u32),
            MemTy::B64 | MemTy::F64 => self.store_one(a, v, 8, MemArena::store_u64),
        }
    }

    /// Copy raw bytes between any device-visible spaces (device-library
    /// helper, e.g. `cudadev_push_shmem`).
    pub fn copy_bytes(&mut self, dst: u64, src: u64, len: u64) -> Result<(), ExecError> {
        for i in 0..len {
            let b = self.load_mem(MemTy::B8, src + i)? as u8;
            self.store_mem(MemTy::B8, dst + i, b as u64)?;
        }
        Ok(())
    }

    /// Read a device-side NUL-terminated string.
    pub fn read_cstr(&mut self, mut a: u64) -> Result<String, ExecError> {
        let mut s = Vec::new();
        loop {
            let b = self.load_mem(MemTy::B8, a)? as u8;
            if b == 0 {
                break;
            }
            s.push(b);
            a += 1;
            if s.len() > 1 << 16 {
                return Err(ExecError::Trap("unterminated device string".into()));
            }
        }
        Ok(String::from_utf8_lossy(&s).into_owned())
    }

    /// Typed store for the device library.
    pub fn mem_write_u64(&mut self, a: u64, v: u64) -> Result<(), ExecError> {
        self.store_mem(MemTy::B64, a, v)
    }

    /// Charge one `ld`/`st` for its memory traffic: the distinct 32-byte
    /// global segments the active lanes touch (issue cycles and
    /// transactions) and one exposed access latency, that of the first
    /// active lane's space.
    pub(super) fn coalesce(&mut self, addrs: &LaneVec, mask: u32) {
        if mask != 0 {
            self.charge_mem(global_segments(addrs, mask), addrs[mask.trailing_zeros() as usize]);
        }
    }

    /// Charge `nsegs` transactions and the latency of `first`'s space.
    fn charge_mem(&mut self, nsegs: u64, first: u64) {
        self.stats.mem_transactions += nsegs;
        // Throughput: roughly one transaction per cycle of issue;
        // latency: one exposed access per instruction.
        self.issue += nsegs;
        self.clock += match addr::space(first) {
            Some(Space::Global) => timing::GLOBAL_MEM_LAT,
            Some(Space::Shared) => timing::SHARED_MEM_LAT,
            _ => timing::LOCAL_MEM_LAT,
        };
    }
}

/// The layout of one access's addresses over its active lanes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum Shape {
    /// Every active lane has this address.
    Uniform(u64),
    /// All 32 lanes at `first + lane * stride`, `stride > 0`. A run that
    /// leaves the first lane's arena — by wrapping or into another tag —
    /// fails the arena's check, as it faults on the lane-ordered path.
    Affine {
        first: u64,
        stride: u64,
    },
    Other,
}

pub(super) fn shape(addrs: &LaneVec, mask: u32) -> Shape {
    if mask != u32::MAX {
        let first = addrs[mask.trailing_zeros().min(31) as usize];
        let uniform = mask != 0 && iter_lanes(mask).all(|l| addrs[l as usize] == first);
        return if uniform { Shape::Uniform(first) } else { Shape::Other };
    }
    let (first, stride) = (addrs[0], addrs[1].wrapping_sub(addrs[0]));
    if !addrs.windows(2).all(|w| w[1].wrapping_sub(w[0]) == stride) {
        Shape::Other
    } else if stride == 0 {
        Shape::Uniform(first)
    } else if (stride as i64) > 0 {
        Shape::Affine { first, stride }
    } else {
        Shape::Other
    }
}

fn is_global(a: u64) -> bool {
    addr::space(a) == Some(Space::Global)
}

/// [`global_segments`] of an [`Shape::Affine`] run, in closed form: no two
/// lanes share a segment once the stride is a segment or more, and below
/// that no segment between the first lane's and the last's is skipped.
fn affine_segments(first: u64, stride: u64) -> u64 {
    if !is_global(first) {
        return 0;
    }
    if stride >= timing::TRANSACTION_BYTES {
        return 32;
    }
    let seg = |a: u64| addr::offset(a) / timing::TRANSACTION_BYTES;
    seg(first + 31 * stride) - seg(first) + 1
}

/// Number of distinct 32-byte global-memory segments among the active
/// lanes' addresses.
fn global_segments(addrs: &LaneVec, mask: u32) -> u64 {
    let seg_of = |lane: u32| {
        let a = addrs[lane as usize];
        (addr::space(a) == Some(Space::Global)).then(|| addr::offset(a) / timing::TRANSACTION_BYTES)
    };
    // The usual access is unit- or fixed-stride in the lane index, so the
    // segment sequence never steps backwards and the distinct segments are
    // exactly the steps forward.
    let mut nsegs = 0u64;
    let mut last = None;
    let mut monotone = true;
    for seg in iter_lanes(mask).filter_map(seg_of) {
        match last {
            Some(l) if seg < l => {
                monotone = false;
                break;
            }
            Some(l) if seg == l => {}
            _ => {
                nsegs += 1;
                last = Some(seg);
            }
        }
    }
    if monotone {
        return nsegs;
    }
    // Any other pattern (descending, permuted): first-seen scan.
    let mut segs = [0u64; 32];
    let mut n = 0usize;
    for seg in iter_lanes(mask).filter_map(seg_of) {
        if !segs[..n].contains(&seg) {
            segs[n] = seg;
            n += 1;
        }
    }
    n as u64
}
