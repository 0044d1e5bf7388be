//! Property tests certifying the log2 histogram against a naive
//! sorted-vector model: bucket counts conserve samples, min/max and
//! percentile bounds bracket the true order statistics, and merging is
//! lossless (merge(a, b) == record(a ++ b)).

use proptest::prelude::*;
use softmem_telemetry::{bucket_bounds, bucket_index, Histogram};

/// Sample streams that cover every bucket magnitude: small ints,
/// zeros, and full-range values built from a base and a shift.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            3 => 0u64..50,
            2 => (1u64..=1024).prop_map(|v| v * 1_000),
            1 => (1u64..=255, 0u32..56).prop_map(|(base, shift)| base << shift),
        ],
        1..200,
    )
}

/// Nearest-rank percentile of a sorted sample vector.
fn true_percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bucket_counts_sum_to_n(xs in samples()) {
        let h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, xs.len() as u64);
        let bucket_total: u64 = s.buckets.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, xs.len() as u64);
        prop_assert_eq!(s.sum, xs.iter().sum::<u64>());
        // Every sample landed in the bucket whose bounds contain it.
        for &(b, _) in &s.buckets {
            let (lo, hi) = bucket_bounds(b);
            prop_assert!(xs.iter().any(|&x| lo <= x && x <= hi));
            prop_assert!(xs.iter().filter(|&&x| bucket_index(x) == b).count() > 0);
        }
    }

    #[test]
    fn min_max_and_percentile_bounds_bracket_truth(xs in samples(), p in 1u32..100) {
        let h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let s = h.snapshot();
        prop_assert_eq!(s.min, sorted[0]);
        prop_assert_eq!(s.max, *sorted.last().unwrap());
        let truth = true_percentile(&sorted, p as f64);
        let (lo, hi) = s.percentile(p as f64);
        prop_assert!(
            lo <= truth && truth <= hi,
            "p{} bounds ({},{}) miss true value {}",
            p, lo, hi, truth
        );
        prop_assert!(lo >= s.min && hi <= s.max);
    }

    #[test]
    fn merge_equals_concatenated_record(a in samples(), b in samples()) {
        let ha = Histogram::new();
        for &x in &a {
            ha.record(x);
        }
        let hb = Histogram::new();
        for &x in &b {
            hb.record(x);
        }
        ha.merge_from(&hb);

        let concat = Histogram::new();
        for &x in a.iter().chain(b.iter()) {
            concat.record(x);
        }
        prop_assert_eq!(ha.snapshot(), concat.snapshot());
    }
}
