//! A small deterministic PRNG for tests and randomized data generation.
//!
//! The property tests and benchmark harnesses need reproducible random
//! streams without an external dependency; this is the xorshift64* engine
//! (Vigna 2016) seeded through a splitmix64 scramble so that consecutive
//! seeds give uncorrelated streams.

/// Deterministic xorshift64* generator.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Create a generator; any seed (including 0) is valid.
    pub fn new(seed: u64) -> XorShift64 {
        // splitmix64 scramble: avoids the all-zero state and decorrelates
        // small consecutive seeds.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        XorShift64 { state: (z ^ (z >> 31)) | 1 }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift reduction; bias is negligible for test-sized bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi);
        lo.wrapping_add(self.below((hi - lo) as u64) as i64)
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// True with probability `num/denom`.
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.below(denom) < num
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A finite f32 from a bounded decimal grid (roundtrips text formats).
    pub fn small_f32(&mut self) -> f32 {
        self.range_i64(-1_000_000, 1_000_000) as f32 / 64.0
    }

    /// Pick a random element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelated() {
        let (mut a, mut b) = (XorShift64::new(0), XorShift64::new(1));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_in_range() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.range_i64(-5, 5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn bools_mix() {
        let mut r = XorShift64::new(3);
        let trues = (0..1000).filter(|_| r.bool()).count();
        assert!((300..700).contains(&trues), "{trues}");
    }
}
