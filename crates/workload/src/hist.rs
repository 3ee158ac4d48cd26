//! Fixed-bucket log-linear latency histogram.
//!
//! Per-op latencies are recorded concurrently by the op threads themselves
//! (green threads scattered across node drivers), so the buckets are plain
//! relaxed atomics — recording is one `fetch_add`, never a lock.  Values
//! are whole microseconds.  Below 64 µs every value has a bucket of
//! its own; above, each power of two is cut into 64 linear
//! sub-buckets, so a bucket is at most 1/64 (1.6 %) as wide as its lower
//! edge, and a quantile interpolated inside it is never further than that
//! from the true value.  Values at or above 2^40 µs (12 days) land in the
//! last bucket.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of [`SUB`].
const SUB_BITS: u32 = 6;
/// Linear sub-buckets per power of two.
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^MAX_BITS µs share the last bucket.
const MAX_BITS: u32 = 40;

/// Number of buckets.
pub const N_BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) * SUB as usize;

/// Concurrent log-linear histogram of microsecond latencies.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// The bucket a value of `us` lands in.
fn index(us: u64) -> usize {
    if us < SUB {
        return us as usize;
    }
    let us = us.min((1 << MAX_BITS) - 1);
    let shift = 63 - us.leading_zeros() - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((us >> shift) & (SUB - 1))) as usize
}

/// The lowest and highest whole-µs value bucket `i` holds.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, i as f64);
    }
    let shift = i / SUB - 1;
    let low = (SUB + i % SUB) << shift;
    (low as f64, (low + (1 << shift) - 1) as f64)
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record one latency.
    pub fn record_us(&self, us: u64) {
        self.buckets[index(us)].fetch_add(1, Ordering::Relaxed);
    }

    fn counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Mean of the recorded latencies, µs (0.0 when empty), each sample
    /// taken at the middle of its bucket: exact below 64 µs, within
    /// a bucket's width above.
    pub fn mean_us(&self) -> f64 {
        let (mut n, mut sum) = (0u64, 0.0);
        for (i, c) in self.counts().into_iter().enumerate() {
            let (lo, hi) = bounds(i);
            n += c;
            sum += c as f64 * (lo + hi) / 2.0;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Quantile `q` in `[0, 1]`, µs (0.0 when empty): the value of rank
    /// `q × count`, the samples of a bucket taken as spread evenly over
    /// the whole-µs values it holds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let counts = self.counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, hi) = bounds(i);
                let into = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * into;
            }
            seen += c;
        }
        unreachable!("rank {rank} lies within the {total} samples")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of rank `ceil(q × n)` in a sorted sample.
    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn empty_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.99), 0.0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn small_values_are_exact_and_huge_values_clamp() {
        let h = LogHistogram::new();
        for us in [0u64, 1, 2, 3, 63] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean_us(), (1 + 2 + 3 + 63) as f64 / 5.0);
        assert_eq!(h.quantile_us(0.5), 2.0);
        h.record_us(u64::MAX);
        assert_eq!(h.quantile_us(1.0), ((1u64 << MAX_BITS) - 1) as f64);
    }

    /// Every quantile of a constant stream and of a uniform one lies
    /// within 3 % of the exact value (the log2 buckets this replaced read
    /// any p50 in [64, 128) µs for a constant 100 µs, and a p99 of ~127).
    #[test]
    fn quantiles_are_within_three_percent() {
        let constant = vec![100u64; 1000];
        let uniform: Vec<u64> = (1..=10_000).collect();
        for sorted in [constant, uniform] {
            let h = LogHistogram::new();
            for &us in &sorted {
                h.record_us(us);
            }
            for q in (0..=1000).map(|i| i as f64 / 1000.0).chain([0.999, 0.9999]) {
                let (got, want) = (h.quantile_us(q), exact(&sorted, q));
                assert!(
                    (got - want).abs() <= 0.03 * want,
                    "q={q}: histogram {got} vs exact {want}"
                );
            }
            let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
            assert!((h.mean_us() - mean).abs() <= 0.03 * mean);
        }
    }

    #[test]
    fn concurrent_recording_counts_everything() {
        let h = std::sync::Arc::new(LogHistogram::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.record_us(t * 1000 + i % 500);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }
}
