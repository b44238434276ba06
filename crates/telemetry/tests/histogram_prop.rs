//! Property tests for the one histogram: `merged_with` must behave like
//! recording everything into one histogram, regardless of how the
//! samples were split or in which order the parts were merged; and the
//! derived views (`cumulative`, `quantile`, `quantile_upper`) must stay
//! inside what an independent count over the raw samples allows.

use proptest::prelude::*;
use rococo_telemetry::{Histogram, HistogramSnapshot};

/// Records `samples` into one fresh histogram and snapshots it.
fn snap(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::default();
    for &s in samples {
        h.record(s);
    }
    h.snapshot()
}

/// Latency-shaped sample values: spread across bucket decades, with the
/// top of the u64 range reachable.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1_000,
        1_000u64..1_000_000,
        1_000_000u64..10_000_000_000,
        Just(u64::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_equals_single_histogram(
        a in prop::collection::vec(sample(), 0..40),
        b in prop::collection::vec(sample(), 0..40),
    ) {
        let mut all = a.clone();
        all.extend_from_slice(&b);
        // Exact merge: identical counts, buckets, sum and max — and so
        // identical quantiles and mean.
        prop_assert_eq!(snap(&a).merged_with(&snap(&b)), snap(&all));
    }

    #[test]
    fn merge_is_associative_and_commutative(
        a in prop::collection::vec(sample(), 0..30),
        b in prop::collection::vec(sample(), 0..30),
        c in prop::collection::vec(sample(), 0..30),
    ) {
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));
        let left = sa.merged_with(&sb).merged_with(&sc);
        prop_assert_eq!(&left, &sa.merged_with(&sb.merged_with(&sc)));
        prop_assert_eq!(&left, &sc.merged_with(&sb).merged_with(&sa));
    }

    #[test]
    fn merging_an_empty_snapshot_is_identity(
        a in prop::collection::vec(sample(), 0..40),
    ) {
        let sa = snap(&a);
        prop_assert_eq!(&sa.merged_with(&snap(&[])), &sa);
        prop_assert_eq!(&HistogramSnapshot::default().merged_with(&sa), &sa);
    }

    #[test]
    fn cumulative_is_monotone_and_never_overcounts(
        a in prop::collection::vec(sample(), 0..60),
        bounds in prop::collection::vec(sample(), 1..8),
        edges in prop::collection::vec(0u32..64, 1..8),
    ) {
        let s = snap(&a);
        let at_most = |bound: u64| a.iter().filter(|&&v| v <= bound).count() as u64;

        let mut bounds = bounds;
        bounds.sort_unstable();
        bounds.dedup();
        let cum = s.cumulative(&bounds);
        prop_assert!(cum.windows(2).all(|w| w[0] <= w[1]), "{:?}", cum);
        for (&bound, &n) in bounds.iter().zip(&cum) {
            prop_assert!(n <= at_most(bound), "le {} claims {} of {}", bound, n, at_most(bound));
        }

        // 2^i - 1 is the inclusive upper edge of a bucket for every i,
        // so the count there is exact.
        let mut edges: Vec<u64> = edges.iter().map(|&i| (1u64 << i) - 1).collect();
        edges.sort_unstable();
        edges.dedup();
        for (&edge, &n) in edges.iter().zip(&s.cumulative(&edges)) {
            prop_assert_eq!(n, at_most(edge), "le {}", edge);
        }
    }

    #[test]
    fn quantiles_bracket_the_recorded_maximum(
        a in prop::collection::vec(sample(), 1..60),
        q in 0u32..=1_000,
    ) {
        let s = snap(&a);
        prop_assert_eq!(s.max, *a.iter().max().unwrap());
        prop_assert!(s.quantile(f64::from(q) / 1e3) <= s.max);
        prop_assert!(s.max <= s.quantile_upper(1.0));
    }
}
