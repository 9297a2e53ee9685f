//! A small, deterministic, dependency-free pseudo-random number generator.
//!
//! The simulator needs randomness in exactly one place — UVM physical-frame
//! placement (fragmentation and cross-chunk contiguity draws) — and the
//! property-test harnesses need a reproducible stream to drive generators.
//! Cryptographic quality is irrelevant; what matters is that a given seed
//! produces the same sequence on every platform and every run, because
//! simulation determinism is a tested invariant.
//!
//! The core is SplitMix64 (Steele, Lea & Flood, "Fast Splittable
//! Pseudorandom Number Generators", OOPSLA 2014): a 64-bit counter passed
//! through a mixing function. It is tiny, passes BigCrush when used this
//! way, and has no state beyond one `u64`.

/// Deterministic 64-bit PRNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Equal seeds yield equal
    /// streams forever.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses the widening-multiply technique with a rejection step so the
    /// result is exactly uniform (Lemire, "Fast Random Integer Generation
    /// in an Interval").
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
            // Rejected: retry with a fresh draw (rare unless bound is huge).
        }
    }

    /// Uniform draw from the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Uniform `usize` draw from `[0, bound)`, for indexing.
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut r = SimRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn bounded_draws_stay_in_range_and_cover() {
        let mut r = SimRng::seed_from_u64(99);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.range_inclusive(0, 9);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..=9 should appear");
        for _ in 0..1000 {
            let v = r.range_inclusive(5, 7);
            assert!((5..=7).contains(&v));
        }
    }

    #[test]
    fn known_vector() {
        // Pin the stream so accidental algorithm changes (which would
        // silently shift every UVM layout) fail loudly.
        let mut r = SimRng::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }
}
