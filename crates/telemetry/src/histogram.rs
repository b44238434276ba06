//! The workspace's one histogram: lock-free, log-bucketed, `u64` values.
//!
//! Buckets are exact below 16, then geometric with 8 sub-buckets per
//! octave (a 3-bit mantissa) up to `u64::MAX`, giving a worst-case
//! relative error of ~6 % per recorded value — enough for p50/p99/p999
//! of request latency, fsync latency and batch sizes alike — while
//! recording is three relaxed atomic RMWs (bucket, sum, max). One fixed
//! resolution, no parameter: every power of two is a bucket edge, so an
//! exposition can pick decade or power-of-two `le` bounds from the same
//! counts.
//!
//! Snapshots carry their full bucket counts, so merging
//! ([`HistogramSnapshot::merged_with`]) is exact: counts add, quantiles
//! are recomputed from the merged distribution and the mean comes from
//! the summed totals.

use crate::quantile::bucket_index;
use std::sync::atomic::{AtomicU64, Ordering};

/// Exact buckets for values `0..16`.
const EXACT: usize = 16;
/// Sub-buckets per octave above the exact range.
const SUB: usize = 8;
/// Octaves above the exact range: `2^4 ..= 2^63`.
const OCTAVES: usize = 60;
const BUCKETS: usize = EXACT + OCTAVES * SUB;

fn bucket_of(v: u64) -> usize {
    if v < EXACT as u64 {
        return v as usize;
    }
    let b = 63 - v.leading_zeros() as usize; // top-bit position, >= 4
    let m = ((v >> (b - 3)) & 0x7) as usize; // 3 mantissa bits
    EXACT + (b - 4) * SUB + m
}

/// Smallest value that lands in a bucket, and the bucket's width.
fn span_of(idx: usize) -> (u64, u64) {
    if idx < EXACT {
        return (idx as u64, 1);
    }
    let b = 4 + (idx - EXACT) / SUB;
    let m = ((idx - EXACT) % SUB) as u64;
    ((1u64 << b) | (m << (b - 3)), 1u64 << (b - 3))
}

/// Largest value that lands in a bucket (its inclusive upper edge).
fn upper_of(idx: usize) -> u64 {
    let (lower, width) = span_of(idx);
    lower + (width - 1)
}

/// Concurrent log-bucketed histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (wraps like the recording counter).
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Per-bucket counts, always the full fixed layout.
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Quantile `q` in `0.0..=1.0` as the midpoint of the bucket holding
    /// the target observation, clamped to [`max`](Self::max) so it never
    /// exceeds a value actually recorded. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        bucket_index(&self.buckets, self.count, q).map_or(0, |i| {
            let (lower, width) = span_of(i);
            (lower + width / 2).min(self.max)
        })
    }

    /// Inclusive upper edge of the bucket holding quantile `q` — a
    /// conservative (over-)estimate of the quantile. 0 when empty.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        bucket_index(&self.buckets, self.count, q).map_or(0, upper_of)
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges two snapshots exactly, as if every value had been recorded
    /// into one histogram.
    pub fn merged_with(&self, other: &Self) -> Self {
        Self {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Cumulative counts at the given ascending inclusive upper bounds,
    /// for Prometheus-style exposition. A bucket is counted under the
    /// first bound at or above its inclusive upper edge, so each count
    /// is a lower bound on the true `observations <= bound` (never an
    /// overcount), and exact wherever the bound is a bucket edge.
    pub fn cumulative(&self, bounds: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; bounds.len()];
        for (i, c) in self.occupied() {
            if let Some(j) = bounds.iter().position(|&bound| upper_of(i) <= bound) {
                out[j] += c;
            }
        }
        for j in 1..out.len() {
            out[j] += out[j - 1];
        }
        out
    }

    /// Data-dependent `le` bounds for an exposition in powers of two: 0,
    /// then `2^i` for every occupied octave `[2^(i-1), 2^i)` up to
    /// `2^31`. Empty octaves are skipped to keep the exposition small;
    /// anything at or above `2^31` is left to the `+Inf` bucket.
    pub fn pow2_bounds(&self) -> Vec<u64> {
        let mut bounds = vec![0u64];
        for (i, _) in self.occupied() {
            let octave = 64 - span_of(i).0.leading_zeros();
            if (1..=31).contains(&octave) && bounds.last() != Some(&(1 << octave)) {
                bounds.push(1 << octave);
            }
        }
        bounds
    }

    /// `(bucket index, count)` of every non-empty bucket, ascending.
    fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(samples: &[u64]) -> HistogramSnapshot {
        let h = Histogram::default();
        for &v in samples {
            h.record(v);
        }
        h.snapshot()
    }

    fn p50_p99_p999(s: &HistogramSnapshot) -> (u64, u64, u64) {
        (s.quantile(0.5), s.quantile(0.99), s.quantile(0.999))
    }

    #[test]
    fn buckets_are_monotonic_and_bounded() {
        let mut last = 0;
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 65_535, 1 << 30, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket regressed at {v}");
            assert!(b < BUCKETS);
            last = b;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(upper_of(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_upper_edges_are_tight() {
        for v in [0u64, 15, 16, 17, 100, 4_096, 1 << 20, u64::MAX / 2] {
            let idx = bucket_of(v);
            let upper = upper_of(idx);
            assert!(v <= upper, "{v} above its bucket edge {upper}");
            // The next value after the edge lands in a later bucket.
            assert!(bucket_of(upper + 1) > idx, "edge {upper} not tight for {v}");
        }
    }

    #[test]
    fn every_power_of_two_starts_a_bucket() {
        for i in 0..64 {
            let v = 1u64 << i;
            assert_eq!(span_of(bucket_of(v)).0, v, "2^{i} is not a bucket edge");
        }
    }

    #[test]
    fn representative_value_within_relative_error() {
        for v in [20u64, 100, 999, 12_345, 1_000_000, 123_456_789] {
            let (lower, width) = span_of(bucket_of(v));
            let rep = lower + width / 2;
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.07, "{v} -> {rep} (err {err})");
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let ramp: Vec<u64> = (1..=10_000u64).map(|v| v * 100).collect(); // 100ns .. 1ms
        let s = snap(&ramp);
        assert_eq!(s.count, 10_000);
        let (p50, p99, p999) = p50_p99_p999(&s);
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.10, "{p50}");
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.10, "{p99}");
        assert!(p999 >= p99 && p99 >= p50);
        assert_eq!(s.max, 1_000_000);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(p50_p99_p999(&s), (0, 0, 0));
        assert_eq!(s.quantile_upper(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_quantiles_are_that_sample() {
        for v in [0u64, 7, 16, 12_345] {
            let s = snap(&[v]);
            assert_eq!((s.count, s.max), (1, v));
            // One sample: every quantile is clamped to it exactly.
            assert_eq!(p50_p99_p999(&s), (v, v, v), "v={v}");
            assert_eq!(s.mean(), v as f64);
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let s = snap(&[4_096; 100]); // everything in one bucket
        let empty = HistogramSnapshot::default();
        assert_eq!(s.quantile(0.5), s.quantile(0.999));
        assert_eq!(s.merged_with(&empty), s);
        assert_eq!(empty.merged_with(&s), s);
    }

    #[test]
    fn quantiles_never_exceed_observed_max() {
        // 4096 sits at the lower edge of a width-512 bucket; the bucket
        // midpoint (4352) must not leak out of the quantiles.
        let s = snap(&[4_096; 1_000]);
        assert_eq!(s.max, 4_096);
        assert!(s.quantile(0.5) <= s.max && s.quantile(0.999) <= s.max);
        assert!(s.quantile_upper(1.0) >= s.max);
    }

    #[test]
    fn merge_recomputes_quantiles_from_combined_distribution() {
        // Shard A: 99 fast ops. Shard B: 1 slow op. The service-level
        // p50 must stay fast, the tail must show the slow op.
        let a = snap(&[1_000; 99]);
        let m = a.merged_with(&snap(&[1_000_000]));
        assert_eq!(m.count, 100);
        assert_eq!(m.quantile(0.5), a.quantile(0.5));
        assert!(m.quantile(0.999) >= 900_000);
        // Mean from summed totals: (99*1_000 + 1_000_000) / 100.
        assert!((m.mean() - 10_990.0).abs() < 1e-9, "mean {}", m.mean());
        assert_eq!(m.sum, 99 * 1_000 + 1_000_000);
    }

    #[test]
    fn top_bucket_counts_stay_coherent() {
        // Everything at or above the top bucket's lower edge shares it;
        // u64::MAX wraps the relaxed sum, so only the mean is garbage.
        let s = snap(&[u64::MAX, u64::MAX - 1, (1u64 << 63) | (7u64 << 60), 0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[BUCKETS - 1], 3);
        assert_eq!(s.max, u64::MAX);
        let (p50, p99, p999) = p50_p99_p999(&s);
        assert!(p50 <= p99 && p99 <= p999 && p999 > 0);
        assert_eq!(s.quantile_upper(1.0), u64::MAX);
        let m = s.merged_with(&s);
        assert_eq!((m.count, m.buckets[BUCKETS - 1]), (8, 6));
    }

    #[test]
    fn mean_and_upper_quantiles_of_small_counts() {
        // Batch-size shaped input: small exact values.
        let s = snap(&[1, 1, 2, 8, 8, 8, 8, 8]);
        assert_eq!(s.count, 8);
        assert!((s.mean() - 44.0 / 8.0).abs() < 1e-9);
        assert_eq!(s.quantile_upper(0.5), 8);
        assert_eq!(s.quantile_upper(0.01), 1);
    }

    #[test]
    fn cumulative_export_is_monotone_and_complete() {
        let s = snap(&[10, 500, 5_000, 50_000, 50_000, 5_000_000]);
        let cum = s.cumulative(&[1_000, 100_000, 10_000_000]);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cum, [2, 5, s.count]);
    }

    #[test]
    fn pow2_bounds_skip_empty_octaves_and_stop_at_2_pow_31() {
        assert_eq!(HistogramSnapshot::default().pow2_bounds(), [0]);
        let s = snap(&[0, 1, 3, 8, 1_000, 1_023, (1 << 31) - 1, 1 << 31, u64::MAX]);
        let bounds = s.pow2_bounds();
        assert_eq!(bounds, [0, 2, 4, 16, 1_024, 1 << 31]);
        // Octave [2^(i-1), 2^i) is counted under le = 2^i; the two
        // samples at or above 2^31 are left to +Inf.
        assert_eq!(s.cumulative(&bounds), [1, 2, 3, 4, 6, 7]);
    }

    /// The exposition's power-of-two bounds stop at 2^31, the buckets do
    /// not: a 5 s stall keeps its magnitude in `quantile_upper` and is
    /// claimed by no finite `le`.
    #[test]
    fn values_past_2_pow_31_keep_their_upper_bound() {
        let s = snap(&[5_000_000_000]);
        assert!(s.quantile_upper(1.0) >= 5_000_000_000);
        assert_eq!(s.quantile(1.0), 5_000_000_000);
        assert_eq!(s.cumulative(&s.pow2_bounds()), [0], "only +Inf holds it");
    }
}
