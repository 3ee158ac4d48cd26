//! Fixed-size log-linear latency histogram.
//!
//! Values are nanoseconds.  Each power of two is cut into 128 linear
//! sub-buckets, so a bucket is at most 1/128 = 0.78 % wide and a quantile
//! is never further than that from the true value.  The
//! table is allocated once in set-up; recording is an index computation
//! and one increment, with no per-sample allocation.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^42 ns (73 min) land in the last bucket.
const MAX_BITS: u32 = 42;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) * SUB as usize;

pub struct Histogram {
    counts: Box<[u32]>,
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0u32; BUCKETS].into_boxed_slice(),
            count: 0,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let v = v.min((1 << MAX_BITS) - 1);
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((v >> shift) & (SUB - 1))) as usize
    }

    /// Lower edge and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        (((SUB + i % SUB) << shift) as f64, (1u64 << shift) as f64)
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value below which a share `q` of the samples fall, in ns;
    /// 0 for an empty histogram.  Samples are taken as spread evenly over
    /// their bucket, so the result moves with the rank inside a bucket
    /// instead of snapping to one value per bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).clamp(0.5, self.count as f64);
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c as f64 >= rank {
                let (low, width) = Self::bucket(i);
                return (low + width * (rank - seen) / c as f64).min(self.max as f64);
            }
            seen += c as f64;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn quantiles_within_one_percent_on_known_distributions() {
        // Uniform 1 µs – 1 ms, and a long-tailed product of two uniforms
        // spanning six decades: both are checked against the exact sorted
        // sample at the quantiles the benchmark reports.
        let mut rng = Rng::new(7);
        let uniform: Vec<u64> = (0..200_000).map(|_| 1_000 + rng.below(999_000)).collect();
        let tailed: Vec<u64> = (0..200_000)
            .map(|_| 50 + rng.below(10_000) * rng.below(10_000))
            .collect();
        for mut samples in [uniform, tailed] {
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            for q in [0.5, 0.9, 0.99] {
                let want = exact_quantile(&samples, q);
                let got = h.quantile(q);
                assert!(
                    (got - want).abs() <= 0.01 * want,
                    "q={q}: histogram {got} vs exact {want}"
                );
            }
            assert_eq!(h.max(), *samples.last().unwrap());
            assert_eq!(h.count(), samples.len() as u64);
        }
    }

    #[test]
    fn small_values_are_exact_and_huge_values_clamp() {
        let mut h = Histogram::new();
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(
            h.quantile(1.0 / 128.0),
            1.0,
            "the first sample's bucket is [0, 1)"
        );
        assert_eq!(h.quantile(1.0), 127.0, "never beyond the largest sample");
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(1.0) <= (1u64 << MAX_BITS) as f64);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        a.record(1_000);
        b.record(3_000);
        b.record(5_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.quantile(0.5) - 3_000.0).abs() < 30.0);
    }
}
