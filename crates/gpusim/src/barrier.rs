//! PTX-style named barriers (`bar.sync id, count`) of one block.
//!
//! Semantics follow §4.2.2 of the paper and the PTX ISA:
//!
//! * 16 barriers per block;
//! * arrival is **per warp** — a warp with any active lane arrives on
//!   behalf of all 32 of its threads, which is why the expected count must
//!   be a multiple of the warp size (the paper rounds N participants up to
//!   X = W⌈N/W⌉);
//! * different subsets of warps can synchronize on different barrier ids
//!   concurrently.
//!
//! The block's warps run on one thread under one scheduler (see
//! [`crate::launch`]), so a barrier is plain bookkeeping: who has arrived,
//! and the latest arrival's virtual clock. The arrival that meets the count
//! completes it, and every warp that arrived resumes at that latest clock
//! plus the barrier latency.

use crate::device::ExecError;
use crate::timing;

/// Named barriers per block.
pub const NUM_BARRIERS: usize = 16;

/// One barrier's current generation.
#[derive(Clone, Copy, Default)]
struct Barrier {
    /// Threads that have arrived.
    arrived: u32,
    /// The count the latest arrival waits for.
    expected: u32,
    /// Latest virtual clock among the arrivals.
    max_cycles: u64,
    /// The warps that have arrived, one bit per warp id.
    warps: u32,
}

/// The 16 named barriers of a block.
#[derive(Default)]
pub(crate) struct Barriers([Barrier; NUM_BARRIERS]);

impl Barriers {
    /// Warp `warp` arrives at barrier `id` at virtual time `cycles`, waiting
    /// for `expected` threads. When this arrival completes the barrier it
    /// returns the warps to release (this one included) and the clock they
    /// resume at, and the barrier starts a new generation.
    pub fn arrive(&mut self, id: u32, expected: u32, warp: u32, cycles: u64) -> Option<(u32, u64)> {
        debug_assert_eq!(expected % timing::WARP_SIZE, 0);
        let b = &mut self.0[id as usize];
        b.arrived += timing::WARP_SIZE;
        b.expected = expected;
        b.max_cycles = b.max_cycles.max(cycles);
        b.warps |= 1 << warp;
        if b.arrived < expected {
            return None;
        }
        let released = (b.warps, b.max_cycles + timing::BARRIER_LAT);
        *b = Barrier::default();
        Some(released)
    }

    /// The error of a block whose every unfinished warp is parked: the
    /// barrier the lowest parked warp waits on, with its arrivals so far.
    pub fn deadlock(&self) -> ExecError {
        let (id, b) = self
            .0
            .iter()
            .enumerate()
            .filter(|(_, b)| b.warps != 0)
            .min_by_key(|(_, b)| b.warps.trailing_zeros())
            .expect("a parked warp waits on some barrier");
        ExecError::BarrierDeadlock {
            barrier: id as u32,
            expected_threads: b.expected,
            arrived_threads: b.arrived,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_when_count_reached() {
        let mut b = Barriers::default();
        for w in 0..3u32 {
            assert_eq!(b.arrive(0, 128, w, 100 * (w as u64 + 1)), None);
        }
        // Everyone resumes at the same, latest-arrival-based clock.
        assert_eq!(b.arrive(0, 128, 3, 50), Some((0b1111, 300 + timing::BARRIER_LAT)));
    }

    #[test]
    fn partial_subsets_independent() {
        // Two warps sync on barrier 1 with count 64 while a third waits on
        // barrier 2: barrier 1 completes on its own.
        let mut b = Barriers::default();
        assert_eq!(b.arrive(2, 64, 0, 10), None);
        assert_eq!(b.arrive(1, 64, 1, 10), None);
        assert_eq!(b.arrive(1, 64, 2, 50), Some((0b110, 50 + timing::BARRIER_LAT)));
        match b.deadlock() {
            ExecError::BarrierDeadlock {
                barrier: 2,
                expected_threads: 64,
                arrived_threads: 32,
            } => {}
            other => panic!("expected barrier 2 to hold warp 0, got {other:?}"),
        }
    }

    #[test]
    fn reusable_across_generations() {
        let mut b = Barriers::default();
        for round in 0..3u64 {
            assert_eq!(b.arrive(2, 64, 0, round * 1000), None);
            let released = b.arrive(2, 64, 1, round * 1000 + 1);
            assert_eq!(released, Some((0b11, round * 1000 + 1 + timing::BARRIER_LAT)));
        }
    }
}
