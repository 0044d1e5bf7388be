//! Log-bucket latency histogram: every request is recorded, none sampled.
//!
//! 128 sub-buckets per power of two, so a bucket is at most 1/128 of
//! its lower bound wide and reporting its midpoint is within 0.4 % of
//! any sample in it (values below 256 ns are exact).

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^42 ns (~73 min) get their own bucket; beyond that
/// they clamp into the last one.
const MAX_EXP: u32 = 42;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize + 1) * SUB as usize;

#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // v in [2^exp, 2^(exp+1))
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    ((exp - SUB_BITS) as u64 * SUB + SUB + sub) as usize
}

/// Inclusive lower bound and exclusive upper bound of a bucket.
fn bounds_of(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < 2 * SUB {
        return (b, b + 1);
    }
    let shift = (b - SUB) / SUB; // exp - SUB_BITS
    let sub = (b - SUB) % SUB;
    let lo = (SUB + sub) << shift;
    (lo, lo + (1 << shift))
}

impl LogHist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile `q` in `(0, 1]` as a bucket midpoint;
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bounds_of(b);
                return Some((lo + hi - 1) as f64 / 2.0);
            }
        }
        unreachable!("total is the sum of the bucket counts")
    }

    /// Like [`quantile`](Self::quantile), but only when at least ten
    /// samples lie beyond it — a tail percentile read off fewer is one
    /// outlier's latency, not a percentile.
    pub fn supported_quantile(&self, q: f64) -> Option<f64> {
        let beyond = self.total as f64 * (1.0 - q);
        (beyond >= 10.0).then(|| self.quantile(q)).flatten()
    }
}

/// Median of a small slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut prev_hi = 0;
        for b in 0..BUCKETS - 1 {
            let (lo, hi) = bounds_of(b);
            assert_eq!(lo, prev_hi, "bucket {b} starts where the last ended");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi - 1), b);
            // Width ≤ 1/128 of the lower bound ⇒ midpoint error < 0.4 %.
            assert!(hi - lo == 1 || (hi - lo) as f64 / lo as f64 <= 1.0 / 128.0);
            prev_hi = hi;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_one_percent() {
        let mut h = LogHist::default();
        // 1..=100_000 µs in ns: exact quantiles are known.
        for i in 1..=100_000u64 {
            h.record(i * 1000);
        }
        for (q, exact) in [(0.5, 50_000_000.0), (0.99, 99_000_000.0), (1.0, 1e8)] {
            let got = h.quantile(q).unwrap();
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut h = LogHist::default();
        assert_eq!(h.quantile(0.5), None);
        for i in 0..999 {
            h.record(1000 + i);
        }
        // 999 × 1 % = 9.99 samples beyond p99: not supported yet.
        assert!(h.supported_quantile(0.99).is_none());
        assert!(h.supported_quantile(0.5).is_some());
        h.record(5000);
        assert!(h.supported_quantile(0.99).is_some());
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (LogHist::default(), LogHist::default());
        a.record(100);
        b.record(1_000_000);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let p = a.quantile(0.5).unwrap();
        assert!((p - 1e6).abs() / 1e6 < 0.01);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
