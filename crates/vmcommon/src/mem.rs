//! Guest memory arena with race-safe word access.
//!
//! All guest loads and stores go through naturally-aligned atomic operations
//! with `Relaxed` ordering. A guest program that races with itself (e.g. a
//! benchmark kernel with a bug) therefore observes unspecified *values*, but
//! the simulator never exhibits host-level undefined behaviour. Guest
//! synchronization primitives (CAS spin locks, named barriers) are built on
//! the atomic RMW operations below plus host-side condvars, which provide the
//! necessary happens-before edges for the values they protect — matching the
//! guidance in "Rust Atomics and Locks" on building locks from atomics.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Errors produced by guest memory accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Access outside the arena: `offset..offset+size` not in bounds.
    OutOfBounds { offset: u64, size: u64 },
    /// Access not aligned to its natural alignment.
    Misaligned { offset: u64, align: u64 },
    /// Dereference of a pointer with an invalid or foreign space tag.
    BadSpace { addr: u64 },
    /// Dereference of the null guest pointer.
    Null,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { offset, size } => {
                write!(f, "guest access out of bounds: {size} bytes at offset {offset:#x}")
            }
            MemError::Misaligned { offset, align } => {
                write!(
                    f,
                    "misaligned guest access at offset {offset:#x} (need {align}-byte alignment)"
                )
            }
            MemError::BadSpace { addr } => write!(f, "invalid guest address space: {addr:#018x}"),
            MemError::Null => write!(f, "null guest pointer dereference"),
        }
    }
}

impl std::error::Error for MemError {}

pub type MemResult<T> = Result<T, MemError>;

/// A fixed-size guest memory arena.
///
/// The backing buffer is zero-initialized and 16-byte aligned: an anonymous
/// mapping from 1 MiB up on Linux, a heap block otherwise. The
/// arena is `Sync`: concurrent access from many simulator threads is safe
/// because every access is atomic.
pub struct MemArena {
    base: *mut u8,
    size: usize,
}

// SAFETY: `base` and `size` never change after `new`; all access to the
// buffer goes through atomic operations on naturally-aligned words, and the
// raw pointer is never exposed.
unsafe impl Send for MemArena {}
unsafe impl Sync for MemArena {}

/// Arenas of at least this many bytes are anonymous private mappings; smaller
/// ones come from the heap.
///
/// A mapping is zero because the kernel supplies zeroed pages as they are
/// first touched, so a fresh arena costs one syscall plus the pages the guest
/// touches, whatever its size. The heap cannot do that for a guest-sized
/// buffer: glibc serves a multi-MiB `calloc` from memory it recycled and
/// clears all of it. Per arena created and dropped on one thread of a 2-vCPU
/// x86-64 Xeon guest under Linux: 6 MiB took 190–228 µs from the heap and
/// 1.4 µs mapped (5.6 µs with 3 pages touched). Small arenas go the other
/// way: a block's 48 KiB of shared memory took 0.32–0.36 µs from the heap
/// against 1.1 µs mapped untouched and 12.6 µs with all 12 pages touched,
/// and with two threads `munmap`'s TLB shootdowns made the mapping 2–3x
/// worse again. Transparent huge pages were `madvise`-only there, so a
/// mapping got 4 KiB pages.
pub(crate) const MAP_MIN: usize = 1 << 20;

impl MemArena {
    /// Allocate a zeroed arena of `size` bytes (rounded up to 16).
    pub fn new(size: usize) -> MemArena {
        let size = size.max(16).next_multiple_of(16);
        MemArena { base: backing::alloc(size), size }
    }

    /// Total capacity in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    #[inline]
    fn check(&self, offset: u64, size: u64, align: u64) -> MemResult<usize> {
        let end = offset.checked_add(size).ok_or(MemError::OutOfBounds { offset, size })?;
        if end > self.size as u64 {
            return Err(MemError::OutOfBounds { offset, size });
        }
        if !offset.is_multiple_of(align) {
            return Err(MemError::Misaligned { offset, align });
        }
        Ok(offset as usize)
    }

    // SAFETY of the from_ptr uses below: `check` guarantees the address is
    // in-bounds and aligned; the arena outlives the reference; all other
    // access to the location is likewise atomic.

    #[inline]
    pub fn load_u8(&self, offset: u64) -> MemResult<u8> {
        let o = self.check(offset, 1, 1)?;
        Ok(unsafe { AtomicU8::from_ptr(self.base.add(o)).load(Ordering::Relaxed) })
    }

    #[inline]
    pub fn store_u8(&self, offset: u64, v: u8) -> MemResult<()> {
        let o = self.check(offset, 1, 1)?;
        unsafe { AtomicU8::from_ptr(self.base.add(o)).store(v, Ordering::Relaxed) };
        Ok(())
    }

    #[inline]
    pub fn load_u32(&self, offset: u64) -> MemResult<u32> {
        let o = self.check(offset, 4, 4)?;
        Ok(unsafe { AtomicU32::from_ptr(self.base.add(o) as *mut u32).load(Ordering::Relaxed) })
    }

    #[inline]
    pub fn store_u32(&self, offset: u64, v: u32) -> MemResult<()> {
        let o = self.check(offset, 4, 4)?;
        unsafe { AtomicU32::from_ptr(self.base.add(o) as *mut u32).store(v, Ordering::Relaxed) };
        Ok(())
    }

    #[inline]
    pub fn load_u64(&self, offset: u64) -> MemResult<u64> {
        let o = self.check(offset, 8, 8)?;
        Ok(unsafe { AtomicU64::from_ptr(self.base.add(o) as *mut u64).load(Ordering::Relaxed) })
    }

    #[inline]
    pub fn store_u64(&self, offset: u64, v: u64) -> MemResult<()> {
        let o = self.check(offset, 8, 8)?;
        unsafe { AtomicU64::from_ptr(self.base.add(o) as *mut u64).store(v, Ordering::Relaxed) };
        Ok(())
    }

    /// Atomic compare-and-swap on a 32-bit word; returns the previous value.
    /// Uses acquire/release ordering: this is the primitive the device
    /// library's spin locks are built on, so it must publish the data the
    /// lock protects.
    pub fn cas_u32(&self, offset: u64, expected: u32, new: u32) -> MemResult<u32> {
        let o = self.check(offset, 4, 4)?;
        let a = unsafe { AtomicU32::from_ptr(self.base.add(o) as *mut u32) };
        Ok(match a.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) => prev,
            Err(prev) => prev,
        })
    }

    /// Atomic add on a 32-bit integer word; returns the previous value.
    pub fn fetch_add_u32(&self, offset: u64, v: u32) -> MemResult<u32> {
        let o = self.check(offset, 4, 4)?;
        let a = unsafe { AtomicU32::from_ptr(self.base.add(o) as *mut u32) };
        Ok(a.fetch_add(v, Ordering::AcqRel))
    }

    /// Atomic add on a 64-bit integer word; returns the previous value.
    pub fn fetch_add_u64(&self, offset: u64, v: u64) -> MemResult<u64> {
        let o = self.check(offset, 8, 8)?;
        let a = unsafe { AtomicU64::from_ptr(self.base.add(o) as *mut u64) };
        Ok(a.fetch_add(v, Ordering::AcqRel))
    }

    /// Atomic compare-and-swap on a 64-bit word; returns the previous value.
    pub fn cas_u64(&self, offset: u64, expected: u64, new: u64) -> MemResult<u64> {
        let o = self.check(offset, 8, 8)?;
        let a = unsafe { AtomicU64::from_ptr(self.base.add(o) as *mut u64) };
        Ok(match a.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) => prev,
            Err(prev) => prev,
        })
    }

    /// Atomic exchange on a 32-bit word; returns the previous value.
    pub fn swap_u32(&self, offset: u64, v: u32) -> MemResult<u32> {
        let o = self.check(offset, 4, 4)?;
        let a = unsafe { AtomicU32::from_ptr(self.base.add(o) as *mut u32) };
        Ok(a.swap(v, Ordering::AcqRel))
    }

    /// Atomic f32 add implemented as a CAS loop (the shape `atomicAdd(float*)`
    /// has on Maxwell); returns the previous value.
    pub fn fetch_add_f32(&self, offset: u64, v: f32) -> MemResult<f32> {
        let o = self.check(offset, 4, 4)?;
        let a = unsafe { AtomicU32::from_ptr(self.base.add(o) as *mut u32) };
        let mut cur = a.load(Ordering::Acquire);
        loop {
            let next = (f32::from_bits(cur) + v).to_bits();
            match a.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(prev) => return Ok(f32::from_bits(prev)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Atomic f64 add as a CAS loop; returns the previous value.
    pub fn fetch_add_f64(&self, offset: u64, v: f64) -> MemResult<f64> {
        let o = self.check(offset, 8, 8)?;
        let a = unsafe { AtomicU64::from_ptr(self.base.add(o) as *mut u64) };
        let mut cur = a.load(Ordering::Acquire);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match a.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(prev) => return Ok(f64::from_bits(prev)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Atomic min on a signed 32-bit word; returns the previous value.
    pub fn fetch_min_i32(&self, offset: u64, v: i32) -> MemResult<i32> {
        let o = self.check(offset, 4, 4)?;
        // AtomicI32 and AtomicU32 have identical layout; reuse the u32 cell.
        let a = unsafe { AtomicU32::from_ptr(self.base.add(o) as *mut u32) };
        let mut cur = a.load(Ordering::Acquire);
        loop {
            let next = (cur as i32).min(v) as u32;
            match a.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(prev) => return Ok(prev as i32),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Atomic max on a signed 32-bit word; returns the previous value.
    pub fn fetch_max_i32(&self, offset: u64, v: i32) -> MemResult<i32> {
        let o = self.check(offset, 4, 4)?;
        let a = unsafe { AtomicU32::from_ptr(self.base.add(o) as *mut u32) };
        let mut cur = a.load(Ordering::Acquire);
        loop {
            let next = (cur as i32).max(v) as u32;
            match a.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(prev) => return Ok(prev as i32),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Load `out.len()` values of `W` bytes (1, 4 or 8), zero-extended, at
    /// `offset`, `offset + stride`, `offset + 2 * stride`, …: one bounds and
    /// alignment check for the whole run, then one relaxed atomic load per
    /// element. On an error, the first failing element's, nothing is read
    /// and `out` is left as it was.
    pub fn load_strided<const W: usize>(
        &self,
        offset: u64,
        stride: u64,
        out: &mut [u64],
    ) -> MemResult<()> {
        let p = self.strided::<W>(offset, stride, out.len())?;
        for (i, o) in out.iter_mut().enumerate() {
            // SAFETY: `strided` checked every element in bounds and aligned.
            *o = unsafe { load_w::<W>(p.wrapping_add(i * stride as usize)) };
        }
        Ok(())
    }

    /// Store the low `W` bytes of each of `vals` at `offset + i * stride`,
    /// checked like [`MemArena::load_strided`]; on an error nothing is
    /// written.
    pub fn store_strided<const W: usize>(
        &self,
        offset: u64,
        stride: u64,
        vals: &[u64],
    ) -> MemResult<()> {
        let p = self.strided::<W>(offset, stride, vals.len())?;
        for (i, &v) in vals.iter().enumerate() {
            // SAFETY: as in `load_strided`.
            unsafe { store_w::<W>(p.wrapping_add(i * stride as usize), v) };
        }
        Ok(())
    }

    /// The base pointer of `n` `W`-byte elements `stride` apart from
    /// `offset`, once all of them are in bounds and aligned: when the first
    /// and last are and `stride` keeps the alignment, every one between is.
    /// An element whose offset does not fit in 64 bits is out of bounds.
    fn strided<const W: usize>(&self, offset: u64, stride: u64, n: usize) -> MemResult<*mut u8> {
        let w = W as u64;
        let at = |i: u64| stride.checked_mul(i).and_then(|d| offset.checked_add(d));
        let ends_ok = |last| self.check(offset, w, w).and(self.check(last, w, w)).is_ok();
        match at((n as u64).saturating_sub(1)) {
            Some(last) if n > 0 && stride.is_multiple_of(w) && ends_ok(last) => {}
            _ => {
                for i in 0..n as u64 {
                    let o = at(i).ok_or(MemError::OutOfBounds { offset: u64::MAX, size: w })?;
                    self.check(o, w, w)?;
                }
            }
        }
        Ok(self.at(offset as usize))
    }

    /// Is `[offset, offset+len)` inside the arena? The bounds check every
    /// bulk operation below makes, for callers that must know before the
    /// first byte moves.
    pub fn check_range(&self, offset: u64, len: u64) -> MemResult<()> {
        self.check(offset, len, 1).map(|_| ())
    }

    // The bulk operations below check bounds once for the whole range and
    // then walk it with `walk`: bytes up to the first 8-byte boundary,
    // relaxed atomic words, bytes after the last boundary. Not atomic as a
    // whole (like a real DMA), but every word access is.

    /// Bulk copy out of the arena.
    pub fn read_bytes(&self, offset: u64, dst: &mut [u8]) -> MemResult<()> {
        let p = self.at(self.check(offset, dst.len() as u64, 1)?);
        let out = Cell::from_mut(dst).as_slice_of_cells();
        // SAFETY: `check` bounded the range and `walk` stays inside it; its
        // word indices sit at 8-aligned arena offsets, hence 8-aligned
        // addresses (arena bases are 16-aligned).
        walk(
            offset,
            out.len(),
            |i| {
                out[i].set(unsafe { byte(p.add(i)) }.load(Ordering::Relaxed));
                true
            },
            |i| {
                let w = unsafe { word(p.add(i)) }.load(Ordering::Relaxed);
                out[i..i + 8].iter().zip(w.to_le_bytes()).for_each(|(c, b)| c.set(b));
                true
            },
        );
        Ok(())
    }

    /// Bulk copy into the arena.
    pub fn write_bytes(&self, offset: u64, src: &[u8]) -> MemResult<()> {
        let p = self.at(self.check(offset, src.len() as u64, 1)?);
        // SAFETY: as in `read_bytes`.
        walk(
            offset,
            src.len(),
            |i| {
                unsafe { byte(p.add(i)) }.store(src[i], Ordering::Relaxed);
                true
            },
            |i| {
                let w = u64::from_le_bytes(src[i..i + 8].try_into().unwrap());
                unsafe { word(p.add(i)) }.store(w, Ordering::Relaxed);
                true
            },
        );
        Ok(())
    }

    /// Zero a byte range.
    pub fn zero(&self, offset: u64, len: u64) -> MemResult<()> {
        let p = self.at(self.check(offset, len, 1)?);
        // SAFETY: as in `read_bytes`.
        walk(
            offset,
            len as usize,
            |i| {
                unsafe { byte(p.add(i)) }.store(0, Ordering::Relaxed);
                true
            },
            |i| {
                unsafe { word(p.add(i)) }.store(0, Ordering::Relaxed);
                true
            },
        );
        Ok(())
    }

    /// Copy `len` bytes from this arena at `offset` into `dst` at
    /// `dst_offset` — one pass, no intermediate buffer. Both ranges are
    /// checked before any byte moves. Words are used when the two offsets
    /// agree mod 8, bytes otherwise. Overlapping ranges in one arena copy
    /// front to back.
    pub fn copy_to(&self, offset: u64, dst: &MemArena, dst_offset: u64, len: u64) -> MemResult<()> {
        let s = self.at(self.check(offset, len, 1)?);
        let d = dst.at(dst.check(dst_offset, len, 1)?);
        // SAFETY: both ranges were bounded above and every index stays
        // inside them; word indices come from `walk` only when the offsets
        // agree mod 8, so they are aligned on both sides.
        let copy_byte = |i: usize| {
            unsafe {
                byte(d.add(i)).store(byte(s.add(i)).load(Ordering::Relaxed), Ordering::Relaxed)
            };
            true
        };
        if offset % 8 == dst_offset % 8 {
            walk(offset, len as usize, copy_byte, |i| {
                unsafe {
                    word(d.add(i)).store(word(s.add(i)).load(Ordering::Relaxed), Ordering::Relaxed)
                };
                true
            });
        } else {
            (0..len as usize).for_each(|i| {
                copy_byte(i);
            });
        }
        Ok(())
    }

    /// Do `len` bytes at `offset` equal `len` bytes of `other` at
    /// `other_offset`? Same checks and loop shape as
    /// [`MemArena::copy_to`]; stops at the first difference.
    pub fn range_eq(
        &self,
        offset: u64,
        other: &MemArena,
        other_offset: u64,
        len: u64,
    ) -> MemResult<bool> {
        let a = self.at(self.check(offset, len, 1)?);
        let b = other.at(other.check(other_offset, len, 1)?);
        // SAFETY: as in `copy_to`.
        let eq_byte = |i: usize| unsafe {
            byte(a.add(i)).load(Ordering::Relaxed) == byte(b.add(i)).load(Ordering::Relaxed)
        };
        Ok(if offset % 8 == other_offset % 8 {
            walk(offset, len as usize, eq_byte, |i| unsafe {
                word(a.add(i)).load(Ordering::Relaxed) == word(b.add(i)).load(Ordering::Relaxed)
            })
        } else {
            (0..len as usize).all(eq_byte)
        })
    }

    /// Base pointer of a range `check` has already bounded.
    #[inline]
    fn at(&self, o: usize) -> *mut u8 {
        self.base.wrapping_add(o)
    }

    /// Read a NUL-terminated guest string (bounded by the arena end).
    pub fn read_cstr(&self, offset: u64) -> MemResult<String> {
        let mut bytes = Vec::new();
        let mut off = offset;
        loop {
            let b = self.load_u8(off)?;
            if b == 0 {
                break;
            }
            bytes.push(b);
            off += 1;
        }
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }
}

impl Drop for MemArena {
    fn drop(&mut self) {
        // SAFETY: `base` came from `backing::alloc(self.size)` and is freed
        // once, here.
        unsafe { backing::free(self.base, self.size) };
    }
}

/// Where arena bytes come from: see [`MAP_MIN`].
mod backing {
    use super::MAP_MIN;
    use std::alloc::{alloc_zeroed, dealloc, Layout};

    #[cfg(target_os = "linux")]
    mod os {
        use std::ffi::{c_int, c_long, c_void};

        pub const PROT_READ: c_int = 1;
        pub const PROT_WRITE: c_int = 2;
        pub const MAP_PRIVATE: c_int = 2;
        pub const MAP_ANONYMOUS: c_int = 0x20;
        pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;

        // From the C library std already links.
        extern "C" {
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                offset: c_long,
            ) -> *mut c_void;
            pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        }
    }

    #[cfg(target_os = "linux")]
    fn mapped(size: usize) -> bool {
        size >= MAP_MIN
    }

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 16).expect("arena layout")
    }

    /// `size` zeroed bytes, 16-byte aligned; `size` is non-zero.
    pub(super) fn alloc(size: usize) -> *mut u8 {
        #[cfg(target_os = "linux")]
        if mapped(size) {
            use os::*;
            // SAFETY: an anonymous mapping with no address hint touches no
            // existing memory; the result is checked below.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    size,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            assert!(p != MAP_FAILED, "guest arena mapping of {size} bytes failed");
            // Page-aligned, hence 16-aligned.
            return p.cast();
        }
        // SAFETY: the layout has non-zero size.
        let base = unsafe { alloc_zeroed(layout(size)) };
        assert!(!base.is_null(), "guest arena allocation of {size} bytes failed");
        base
    }

    /// Release what [`alloc`] returned.
    ///
    /// # Safety
    /// `base` came from `alloc(size)` with this `size` and is not used again.
    pub(super) unsafe fn free(base: *mut u8, size: usize) {
        #[cfg(target_os = "linux")]
        if mapped(size) {
            // SAFETY: per the contract, `base..base+size` is one live
            // mapping. A failure cannot be reported from `Drop`; it would
            // leak the range, nothing worse.
            unsafe { os::munmap(base.cast(), size) };
            return;
        }
        // SAFETY: per the contract, allocated by `alloc_zeroed` with this
        // layout.
        unsafe { dealloc(base, layout(size)) };
    }
}

/// The atomic byte at `p`.
///
/// # Safety
/// `p` lies inside a live arena.
#[inline]
unsafe fn byte<'a>(p: *mut u8) -> &'a AtomicU8 {
    unsafe { AtomicU8::from_ptr(p) }
}

/// The atomic word at `p`.
///
/// # Safety
/// `p..p+8` lies inside a live arena and `p` is 8-byte aligned.
#[inline]
unsafe fn word<'a>(p: *mut u8) -> &'a AtomicU64 {
    unsafe { AtomicU64::from_ptr(p as *mut u64) }
}

/// The `W`-byte word at `p`, zero-extended: the strided loads' element
/// access, whatever the width (1, 4 or 8).
///
/// # Safety
/// `p..p+W` lies inside a live arena and `p` is `W`-aligned.
#[inline(always)]
unsafe fn load_w<const W: usize>(p: *mut u8) -> u64 {
    const { assert!(W == 1 || W == 4 || W == 8, "access widths are 1, 4 and 8 bytes") };
    unsafe {
        match W {
            1 => byte(p).load(Ordering::Relaxed) as u64,
            4 => AtomicU32::from_ptr(p.cast()).load(Ordering::Relaxed) as u64,
            _ => word(p).load(Ordering::Relaxed),
        }
    }
}

/// Store the low `W` bytes of `v` at `p`: the strided stores' element
/// access.
///
/// # Safety
/// As for [`load_w`].
#[inline(always)]
unsafe fn store_w<const W: usize>(p: *mut u8, v: u64) {
    const { assert!(W == 1 || W == 4 || W == 8, "access widths are 1, 4 and 8 bytes") };
    unsafe {
        match W {
            1 => byte(p).store(v as u8, Ordering::Relaxed),
            4 => AtomicU32::from_ptr(p.cast()).store(v as u32, Ordering::Relaxed),
            _ => word(p).store(v, Ordering::Relaxed),
        }
    }
}

/// Walk `len` bytes that start at arena offset `offset`: `byte(i)` for
/// each byte before the first 8-byte boundary, `word(i)` for each whole
/// word, `byte(i)` for the bytes after the last boundary, `i` counted from
/// the start of the range. Stops at the first `false` and returns it.
#[inline(always)]
fn walk(
    offset: u64,
    len: usize,
    mut byte: impl FnMut(usize) -> bool,
    mut word: impl FnMut(usize) -> bool,
) -> bool {
    let head = ((offset.wrapping_neg() % 8) as usize).min(len);
    let tail = head + (len - head) / 8 * 8;
    (0..head).all(&mut byte) && (head..tail).step_by(8).all(&mut word) && (tail..len).all(&mut byte)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_words() {
        let m = MemArena::new(64);
        m.store_u32(4, 0xdead_beef).unwrap();
        m.store_u64(8, 0x0123_4567_89ab_cdef).unwrap();
        m.store_u8(1, 7).unwrap();
        assert_eq!(m.load_u32(4).unwrap(), 0xdead_beef);
        assert_eq!(m.load_u64(8).unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(m.load_u8(1).unwrap(), 7);
    }

    #[test]
    fn bounds_and_alignment_checked() {
        let m = MemArena::new(32);
        assert!(matches!(m.load_u32(30), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(m.load_u32(2), Err(MemError::Misaligned { .. })));
        assert!(matches!(m.store_u64(u64::MAX - 2, 0), Err(MemError::OutOfBounds { .. })));
    }

    #[test]
    fn cas_semantics() {
        let m = MemArena::new(32);
        m.store_u32(0, 5).unwrap();
        assert_eq!(m.cas_u32(0, 5, 9).unwrap(), 5);
        assert_eq!(m.load_u32(0).unwrap(), 9);
        // Failing CAS returns the current value and leaves memory untouched.
        assert_eq!(m.cas_u32(0, 5, 1).unwrap(), 9);
        assert_eq!(m.load_u32(0).unwrap(), 9);
    }

    #[test]
    fn float_atomic_add() {
        let m = MemArena::new(32);
        m.store_u32(0, 1.5f32.to_bits()).unwrap();
        assert_eq!(m.fetch_add_f32(0, 2.25).unwrap(), 1.5);
        assert_eq!(f32::from_bits(m.load_u32(0).unwrap()), 3.75);
    }

    #[test]
    fn bulk_copy_roundtrip() {
        let m = MemArena::new(64);
        let data: Vec<u8> = (0..37).collect();
        m.write_bytes(3, &data).unwrap();
        let mut out = vec![0u8; 37];
        m.read_bytes(3, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn bulk_ops_cover_heads_words_and_tails() {
        // Every (offset mod 8, length) shape of the head/word/tail walk.
        for off in 0..8u64 {
            for len in 0..=27usize {
                let m = MemArena::new(64);
                let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37) | 1).collect();
                m.write_bytes(off, &data).unwrap();
                let mut out = vec![0u8; len];
                m.read_bytes(off, &mut out).unwrap();
                assert_eq!(out, data, "offset {off}, length {len}");
                m.zero(off, len as u64).unwrap();
                m.read_bytes(off, &mut out).unwrap();
                assert!(out.iter().all(|&b| b == 0), "zero at offset {off}, length {len}");
            }
        }
        let m = MemArena::new(64);
        assert!(matches!(m.zero(60, 8), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(m.write_bytes(57, &[1; 8]), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(m.read_bytes(57, &mut [0; 8]), Err(MemError::OutOfBounds { .. })));
    }

    /// An arena of `size` bytes holding `byte(i) = i * 7 + seed`.
    fn patterned(size: usize, seed: u8) -> MemArena {
        let m = MemArena::new(size);
        let data: Vec<u8> =
            (0..m.size()).map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed)).collect();
        m.write_bytes(0, &data).unwrap();
        m
    }

    fn snapshot(m: &MemArena) -> Vec<u8> {
        let mut out = vec![0u8; m.size()];
        m.read_bytes(0, &mut out).unwrap();
        out
    }

    #[test]
    fn copy_to_moves_exactly_the_range() {
        // (src offset, dst offset, length): same alignment mod 8 with a
        // head and a tail, different alignment, whole words only, shorter
        // than one word, and zero length at the very end of both arenas.
        for (so, dof, len) in
            [(3u64, 11u64, 37u64), (3, 6, 37), (8, 16, 32), (5, 13, 2), (1, 2, 7), (128, 256, 0)]
        {
            let src = patterned(128, 1);
            let dst = patterned(256, 99);
            let before = snapshot(&dst);
            src.copy_to(so, &dst, dof, len).unwrap();
            let after = snapshot(&dst);
            let s = snapshot(&src);
            let (so, dof, len) = (so as usize, dof as usize, len as usize);
            assert_eq!(
                &after[dof..dof + len],
                &s[so..so + len],
                "copied bytes ({so}, {dof}, {len})"
            );
            assert_eq!(
                &after[..dof],
                &before[..dof],
                "bytes before the range ({so}, {dof}, {len})"
            );
            assert_eq!(
                &after[dof + len..],
                &before[dof + len..],
                "bytes after ({so}, {dof}, {len})"
            );
            assert_eq!(snapshot(&src), s, "the source is never written");
        }
    }

    #[test]
    fn copy_to_out_of_bounds_is_typed_and_moves_nothing() {
        let src = patterned(64, 1);
        let dst = patterned(64, 2);
        let before = snapshot(&dst);
        // Source side, destination side, and an overflowing offset.
        for (so, dof, len) in [(40u64, 0u64, 32u64), (0, 40, 32), (u64::MAX - 3, 0, 8)] {
            let err = src.copy_to(so, &dst, dof, len).unwrap_err();
            assert!(matches!(err, MemError::OutOfBounds { .. }), "({so}, {dof}, {len}): {err}");
            assert_eq!(snapshot(&dst), before, "({so}, {dof}, {len}) moved bytes");
        }
        assert!(matches!(src.range_eq(60, &dst, 0, 8), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(src.range_eq(0, &dst, 60, 8), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(src.check_range(64, 1), Err(MemError::OutOfBounds { .. })));
        assert_eq!(src.check_range(64, 0), Ok(()));
    }

    #[test]
    fn range_eq_finds_a_difference_anywhere() {
        for (ao, bo, len) in [(3u64, 19u64, 45u64), (3, 6, 45), (0, 8, 40), (2, 10, 3)] {
            let a = patterned(128, 5);
            let b = MemArena::new(128);
            a.copy_to(ao, &b, bo, len).unwrap();
            assert!(a.range_eq(ao, &b, bo, len).unwrap(), "equal ranges ({ao}, {bo}, {len})");
            assert!(b.range_eq(bo, &a, ao, len).unwrap(), "symmetric ({ao}, {bo}, {len})");
            // First, middle and last byte.
            for at in [0, len / 2, len - 1] {
                let orig = b.load_u8(bo + at).unwrap();
                b.store_u8(bo + at, orig ^ 0x80).unwrap();
                assert!(!a.range_eq(ao, &b, bo, len).unwrap(), "byte {at} of ({ao}, {bo}, {len})");
                b.store_u8(bo + at, orig).unwrap();
            }
        }
        let (a, b) = (patterned(64, 1), patterned(64, 2));
        assert!(a.range_eq(64, &b, 64, 0).unwrap(), "empty ranges are equal");
    }

    #[test]
    fn a_new_arena_is_zero_on_either_side_of_the_mapping_threshold() {
        // (requested, rounded): heap just below the threshold, mapped from it.
        for (asked, size) in
            [(MAP_MIN - 17, MAP_MIN - 16), (MAP_MIN, MAP_MIN), (MAP_MIN + 1, MAP_MIN + 16)]
        {
            let m = MemArena::new(asked);
            assert_eq!(m.size(), size, "rounding of {asked}");
            m.write_bytes(0, &vec![0xA5; size]).unwrap();
            drop(m);
            let m = MemArena::new(asked);
            assert_eq!(m.size(), size);
            assert!(snapshot(&m).iter().all(|&b| b == 0), "arena of {asked} bytes is not zero");
        }
    }

    #[test]
    fn strided_access_checks_once_and_reports_the_first_failing_element() {
        let m = patterned(256, 3);
        let mut out = [7u64; 4];
        m.load_strided::<4>(8, 12, &mut out).unwrap();
        let want: Vec<u64> = (0..4).map(|i| m.load_u32(8 + 12 * i).unwrap() as u64).collect();
        assert_eq!(out[..], want[..]);
        m.store_strided::<1>(1, 100, &[0x1ff, 0x2aa]).unwrap();
        assert_eq!((m.load_u8(1).unwrap(), m.load_u8(101).unwrap()), (0xff, 0xaa));
        let before = snapshot(&m);
        // (offset, stride, elements): the first failing element's error.
        let oob = |offset| MemError::OutOfBounds { offset, size: 8 };
        for (off, stride, n, err) in [
            (8, 8, 32, oob(256)),
            (200, 40, 4, oob(280)),
            (12, 8, 2, MemError::Misaligned { offset: 12, align: 8 }),
            (0, 12, 3, MemError::Misaligned { offset: 12, align: 8 }),
            (8, u64::MAX - 4, 2, oob(u64::MAX)),
        ] {
            let mut out = [7u64; 32];
            assert_eq!(m.load_strided::<8>(off, stride, &mut out[..n]), Err(err));
            assert_eq!(out, [7; 32], "({off}, {stride}, {n}) read");
            assert_eq!(m.store_strided::<8>(off, stride, &[1; 32][..n]), Err(err));
            assert_eq!(snapshot(&m), before, "({off}, {stride}, {n}) wrote");
        }
        assert_eq!(m.load_strided::<4>(1 << 20, 4, &mut []), Ok(()), "no element, no check");
    }

    #[test]
    fn cstr_read() {
        let m = MemArena::new(64);
        m.write_bytes(8, b"hello\0world").unwrap();
        assert_eq!(m.read_cstr(8).unwrap(), "hello");
    }

    #[test]
    fn concurrent_fetch_add_sums() {
        let m = std::sync::Arc::new(MemArena::new(64));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.fetch_add_u32(16, 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.load_u32(16).unwrap(), 8000);
    }
}
