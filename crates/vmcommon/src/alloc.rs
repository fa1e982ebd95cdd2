//! First-fit block allocator over a guest arena range.
//!
//! Used by the device runtime for `cuMemAlloc`/`cuMemFree` and by the host
//! interpreter's heap (`malloc`/`free`). Metadata lives host-side, so guest
//! corruption cannot break the allocator.

use std::collections::BTreeMap;

/// Allocation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough contiguous space.
    OutOfMemory { requested: u64 },
    /// `free` of a pointer that was never allocated (or double free).
    InvalidFree { offset: u64 },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory { requested } => {
                write!(f, "guest allocator out of memory ({requested} bytes requested)")
            }
            AllocError::InvalidFree { offset } => {
                write!(f, "invalid guest free at offset {offset:#x}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// First-fit allocator managing `[start, start+len)` of an arena.
///
/// All blocks are aligned to [`BlockAllocator::ALIGN`] bytes (256, matching
/// the CUDA driver's allocation granularity, which also guarantees natural
/// alignment for every scalar type the guest languages have).
#[derive(Debug)]
pub struct BlockAllocator {
    start: u64,
    /// Free blocks: offset -> length. Coalesced on free.
    free: BTreeMap<u64, u64>,
    /// Live blocks: offset -> length.
    live: BTreeMap<u64, u64>,
    high_water: u64,
}

impl BlockAllocator {
    /// Allocation alignment/granularity in bytes.
    pub const ALIGN: u64 = 256;

    /// Manage the byte range `[start, start + len)`.
    pub fn new(start: u64, len: u64) -> BlockAllocator {
        let astart = start.next_multiple_of(Self::ALIGN);
        let len = len.saturating_sub(astart - start);
        let mut free = BTreeMap::new();
        if len >= Self::ALIGN {
            free.insert(astart, len - len % Self::ALIGN);
        }
        BlockAllocator { start: astart, free, live: BTreeMap::new(), high_water: 0 }
    }

    /// Allocate `size` bytes (rounded up to the granularity); returns the
    /// arena offset of the block.
    pub fn alloc(&mut self, size: u64) -> Result<u64, AllocError> {
        let need = size.max(1).next_multiple_of(Self::ALIGN);
        let slot =
            self.free.iter().find(|(_, &flen)| flen >= need).map(|(&off, &flen)| (off, flen));
        let (off, flen) = slot.ok_or(AllocError::OutOfMemory { requested: size })?;
        self.free.remove(&off);
        if flen > need {
            self.free.insert(off + need, flen - need);
        }
        self.live.insert(off, need);
        self.high_water = self.high_water.max(self.bytes_in_use());
        Ok(off)
    }

    /// Reserve `size` bytes at exactly `offset` (rounded up to the
    /// granularity). Used to reconstruct a prior layout — e.g. replaying
    /// device mappings after a reset — where every block must come back at
    /// its original address so outstanding pointers stay valid. Fails with
    /// `OutOfMemory` if the range is not entirely free, and `InvalidFree`
    /// if `offset` is not aligned to the granularity.
    pub fn alloc_at(&mut self, offset: u64, size: u64) -> Result<(), AllocError> {
        if !offset.is_multiple_of(Self::ALIGN) {
            return Err(AllocError::InvalidFree { offset });
        }
        let need = size.max(1).next_multiple_of(Self::ALIGN);
        // The free block containing `offset`, if any.
        let slot = self
            .free
            .range(..=offset)
            .next_back()
            .map(|(&off, &flen)| (off, flen))
            .filter(|&(off, flen)| offset + need <= off + flen);
        let (off, flen) = slot.ok_or(AllocError::OutOfMemory { requested: size })?;
        self.free.remove(&off);
        if offset > off {
            self.free.insert(off, offset - off);
        }
        let tail = (off + flen) - (offset + need);
        if tail > 0 {
            self.free.insert(offset + need, tail);
        }
        self.live.insert(offset, need);
        self.high_water = self.high_water.max(self.bytes_in_use());
        Ok(())
    }

    /// Free a block previously returned by [`BlockAllocator::alloc`].
    pub fn free(&mut self, offset: u64) -> Result<(), AllocError> {
        let len = self.live.remove(&offset).ok_or(AllocError::InvalidFree { offset })?;
        // Insert and coalesce with neighbours.
        let mut off = offset;
        let mut flen = len;
        if let Some((&poff, &plen)) = self.free.range(..off).next_back() {
            if poff + plen == off {
                self.free.remove(&poff);
                off = poff;
                flen += plen;
            }
        }
        if let Some(&nlen) = self.free.get(&(off + flen)) {
            self.free.remove(&(off + flen));
            flen += nlen;
        }
        self.free.insert(off, flen);
        Ok(())
    }

    /// Size of the live block at `offset`, if any.
    pub fn block_size(&self, offset: u64) -> Option<u64> {
        self.live.get(&offset).copied()
    }

    /// Total bytes currently allocated (including granularity padding).
    pub fn bytes_in_use(&self) -> u64 {
        self.live.values().sum()
    }

    /// Peak bytes in use since creation.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Total free bytes (may be fragmented across blocks).
    pub fn bytes_free(&self) -> u64 {
        self.free.values().sum()
    }

    /// Size of the largest contiguous free block.
    pub fn largest_free(&self) -> u64 {
        self.free.values().copied().max().unwrap_or(0)
    }

    /// The managed range start.
    pub fn range_start(&self) -> u64 {
        self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;

    #[test]
    fn alloc_free_reuse() {
        let mut a = BlockAllocator::new(0, 4096);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(100).unwrap();
        assert_ne!(x, y);
        a.free(x).unwrap();
        let z = a.alloc(50).unwrap();
        assert_eq!(z, x, "first-fit reuses the freed block");
    }

    #[test]
    fn oom_when_exhausted() {
        let mut a = BlockAllocator::new(0, 1024);
        a.alloc(512).unwrap();
        a.alloc(256).unwrap();
        assert!(a.alloc(512).is_err());
    }

    #[test]
    fn double_free_rejected() {
        let mut a = BlockAllocator::new(0, 1024);
        let x = a.alloc(10).unwrap();
        a.free(x).unwrap();
        assert_eq!(a.free(x), Err(AllocError::InvalidFree { offset: x }));
    }

    #[test]
    fn coalescing_allows_big_realloc() {
        let mut a = BlockAllocator::new(0, 4 * BlockAllocator::ALIGN);
        let x = a.alloc(1).unwrap();
        let y = a.alloc(1).unwrap();
        let z = a.alloc(1).unwrap();
        a.free(y).unwrap();
        a.free(x).unwrap();
        a.free(z).unwrap();
        // Full range must be whole again.
        let w = a.alloc(4 * BlockAllocator::ALIGN).unwrap();
        assert_eq!(w, 0);
    }

    #[test]
    fn start_is_aligned() {
        let a = BlockAllocator::new(17, 4096);
        assert_eq!(a.range_start() % BlockAllocator::ALIGN, 0);
    }

    /// `alloc_at` reconstructs an arbitrary prior layout on a fresh
    /// allocator: every block comes back at its original offset and the
    /// allocator behaves identically afterwards.
    #[test]
    fn alloc_at_replays_a_layout() {
        let mut a = BlockAllocator::new(0, 64 * 1024);
        let x = a.alloc(300).unwrap();
        let y = a.alloc(1000).unwrap();
        let z = a.alloc(1).unwrap();
        a.free(y).unwrap();
        let live: Vec<(u64, u64)> = [(x, 300), (z, 1)].into();

        let mut b = BlockAllocator::new(0, 64 * 1024);
        for &(off, len) in &live {
            b.alloc_at(off, len).unwrap();
        }
        assert_eq!(b.block_size(x), a.block_size(x));
        assert_eq!(b.block_size(z), a.block_size(z));
        assert_eq!(b.bytes_in_use(), a.bytes_in_use());
        // The hole left by `y` is allocatable again, first-fit as before.
        assert_eq!(b.alloc(1000).unwrap(), y);
    }

    #[test]
    fn alloc_at_rejects_overlap_and_misalignment() {
        let mut a = BlockAllocator::new(0, 4096);
        let x = a.alloc(512).unwrap();
        assert_eq!(
            a.alloc_at(x, 256),
            Err(AllocError::OutOfMemory { requested: 256 }),
            "range already live"
        );
        assert_eq!(
            a.alloc_at(x + 256, 256),
            Err(AllocError::OutOfMemory { requested: 256 }),
            "tail of a live block"
        );
        assert!(a.alloc_at(13, 10).is_err(), "unaligned offset");
        assert!(a.alloc_at(4096, 256).is_err(), "past the end");
        a.alloc_at(1024, 256).unwrap();
        assert!(a.free(1024).is_ok());
    }

    /// Random alloc/free sequences never hand out overlapping blocks and
    /// always stay inside the managed range.
    #[test]
    fn no_overlap() {
        for seed in 0..128u64 {
            let mut rng = XorShift64::new(seed);
            let nops = rng.range_u64(1, 60);
            let mut a = BlockAllocator::new(0, 64 * 1024);
            let mut blocks: Vec<(u64, u64)> = Vec::new();
            for _ in 0..nops {
                let (size, do_free) = (rng.below(2048), rng.bool());
                if do_free && !blocks.is_empty() {
                    let (off, _) = blocks.swap_remove(0);
                    a.free(off).unwrap();
                } else if let Ok(off) = a.alloc(size) {
                    let len = size.max(1).next_multiple_of(BlockAllocator::ALIGN);
                    assert!(off + len <= 64 * 1024, "seed {seed}: out of range");
                    for &(o, l) in &blocks {
                        assert!(off + len <= o || o + l <= off, "seed {seed}: overlap");
                    }
                    blocks.push((off, len));
                }
            }
        }
    }
}
