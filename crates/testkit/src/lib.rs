//! Deterministic randomness for tests and benches.
//!
//! The workspace builds in an offline sandbox, so `rand` and `proptest`
//! cannot be resolved from a registry.  This crate provides the small
//! surface those suites actually use: a seedable PRNG with range and
//! Bernoulli sampling, mirroring the `rand 0.9` method names
//! (`seed_from_u64`, `random_range`, `random_bool`) so call sites read
//! the same, plus a tiny `cases` driver for randomized property tests.
//!
//! The generator is SplitMix64 — 64-bit state, full period, passes the
//! statistical tests that matter for shuffling workloads; not
//! cryptographic, never used for anything but test-case generation.

use std::ops::{Range, RangeInclusive};

pub mod alloc;

/// A seedable deterministic PRNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    /// Seed the generator; equal seeds give equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        StdRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample from a half-open or inclusive integer range.
    pub fn random_range<T, R>(&mut self, range: R) -> T
    where
        T: RangeSample,
        R: Into<Bounds<T>>,
    {
        let Bounds { lo, hi_inclusive } = range.into();
        T::sample(self, lo, hi_inclusive)
    }

    /// Bernoulli sample: `true` with probability `p`.
    pub fn random_bool(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Weighted choice: the index `i` with probability
    /// `weights[i] / sum(weights)`.  Zero-weight entries are never picked;
    /// panics if `weights` is empty or sums to zero (a misconfigured mix
    /// should fail loudly, not silently bias toward index 0).
    pub fn pick_weighted(&mut self, weights: &[u64]) -> usize {
        let total: u64 = weights.iter().sum();
        assert!(total > 0, "pick_weighted needs a positive total weight");
        let mut draw = self.random_range(0..total);
        for (i, &w) in weights.iter().enumerate() {
            if draw < w {
                return i;
            }
            draw -= w;
        }
        unreachable!("draw < total by construction")
    }
}

/// Normalized inclusive bounds for [`StdRng::random_range`].
pub struct Bounds<T> {
    lo: T,
    hi_inclusive: T,
}

/// Integer types samplable from a range.
pub trait RangeSample: Copy {
    /// Uniform sample in `[lo, hi]` (inclusive).
    fn sample(rng: &mut StdRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn sample(rng: &mut StdRng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty sample range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width range: any output is in bounds.
                    return rng.next_u64() as $t;
                }
                // Multiply-shift reduction; the bias over a 64-bit draw is
                // far below anything a test could observe.
                let r = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (lo as u64).wrapping_add(r) as $t
            }
        }

        impl From<Range<$t>> for Bounds<$t> {
            fn from(r: Range<$t>) -> Self {
                assert!(r.start < r.end, "empty sample range");
                Bounds { lo: r.start, hi_inclusive: r.end - 1 }
            }
        }

        impl From<RangeInclusive<$t>> for Bounds<$t> {
            fn from(r: RangeInclusive<$t>) -> Self {
                Bounds { lo: *r.start(), hi_inclusive: *r.end() }
            }
        }
    )*};
}

impl_range_sample!(u8, u16, u32, u64, usize, i32, i64);

/// Run `f` over `n` seeded cases, reporting the failing seed on panic.
///
/// The replacement for a `proptest!` block: each case gets its own
/// deterministic generator, and a failure names the case index so it can
/// be replayed exactly (`cases(1, |_| ...)` with the index hard-wired).
pub fn cases(n: u64, mut f: impl FnMut(&mut StdRng)) {
    for case in 0..n {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(p) = r {
            eprintln!("testkit: failing case index {case} (of {n})");
            std::panic::resume_unwind(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: usize = rng.random_range(3..17usize);
            assert!((3..17).contains(&v));
            let w: u32 = rng.random_range(1..=255u32);
            assert!((1..=255).contains(&w));
            let x: i64 = rng.random_range(-5..=5i64);
            assert!((-5..=5).contains(&x));
        }
    }

    #[test]
    fn bool_probability_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    #[should_panic(expected = "empty sample range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let _: usize = rng.random_range(5..5usize);
    }

    #[test]
    fn weighted_pick_matches_weights() {
        let mut rng = StdRng::seed_from_u64(4);
        let weights = [1u64, 3, 6];
        let mut hits = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            hits[rng.pick_weighted(&weights)] += 1;
        }
        // Each observed frequency within 2 points of its expectation
        // (10% / 30% / 60%); at n = 100k the standard error is < 0.2%.
        for (i, &w) in weights.iter().enumerate() {
            let expected = w as f64 / 10.0;
            let observed = hits[i] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.02,
                "index {i}: observed {observed:.3}, expected {expected:.3}"
            );
        }
    }

    #[test]
    fn weighted_pick_skips_zero_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let i = rng.pick_weighted(&[0, 7, 0, 2, 0]);
            assert!(i == 1 || i == 3, "zero-weight index {i} picked");
        }
    }

    #[test]
    fn weighted_pick_is_deterministic() {
        let mut a = StdRng::seed_from_u64(6);
        let mut b = StdRng::seed_from_u64(6);
        let w = [5u64, 1, 4, 2];
        for _ in 0..1000 {
            assert_eq!(a.pick_weighted(&w), b.pick_weighted(&w));
        }
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn weighted_pick_rejects_zero_total() {
        let mut rng = StdRng::seed_from_u64(7);
        rng.pick_weighted(&[0, 0]);
    }
}
