//! Shared quantile math.
//!
//! The histogram's bucket scan and `trace_report`'s sorted request
//! totals answer the same question — "which rank does quantile `q`
//! select, and which bucket/sample holds it?" — with this one
//! implementation: nearest-rank (inclusive) selection,
//! `rank = ceil(q · n)` clamped to `[1, n]`.

/// The 1-based nearest rank selected by quantile `q` out of `count`
/// observations, or 0 when there are no observations. `q` is clamped to
/// `[0, 1]`; any `q > 0` selects at least rank 1 and `q = 1.0` selects
/// rank `count` exactly.
pub fn rank_of(count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * count as f64).ceil() as u64;
    rank.clamp(1, count)
}

/// Index of the histogram bucket containing the observation at quantile
/// `q`, scanning `counts` cumulatively against a nearest-rank target
/// computed from `total`. Returns `None` when `total` is 0. When `total`
/// exceeds the sum of `counts` (relaxed counter snapshots can tear), the
/// last non-empty bucket is returned, or `None` if every bucket is
/// empty.
pub fn bucket_index(counts: &[u64], total: u64, q: f64) -> Option<usize> {
    let target = rank_of(total, q);
    if target == 0 {
        return None;
    }
    let mut seen = 0u64;
    let mut last_nonempty = None;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 {
            last_nonempty = Some(i);
        }
        seen = seen.saturating_add(c);
        if seen >= target {
            return Some(i);
        }
    }
    last_nonempty
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_boundaries() {
        assert_eq!(rank_of(0, 0.5), 0);
        assert_eq!(rank_of(1, 0.0), 1);
        assert_eq!(rank_of(1, 1.0), 1);
        assert_eq!(rank_of(100, 0.5), 50);
        assert_eq!(rank_of(100, 0.99), 99);
        assert_eq!(rank_of(100, 0.999), 100);
        assert_eq!(rank_of(100, 1.0), 100);
        // Out-of-range q is clamped, not propagated.
        assert_eq!(rank_of(10, -1.0), 1);
        assert_eq!(rank_of(10, 2.0), 10);
    }

    #[test]
    fn bucket_index_empty() {
        assert_eq!(bucket_index(&[], 0, 0.5), None);
        assert_eq!(bucket_index(&[0, 0, 0], 0, 0.99), None);
        // total claims observations but every bucket is empty.
        assert_eq!(bucket_index(&[0, 0], 5, 0.5), None);
    }

    #[test]
    fn bucket_index_single_sample() {
        assert_eq!(bucket_index(&[0, 1, 0], 1, 0.0), Some(1));
        assert_eq!(bucket_index(&[0, 1, 0], 1, 0.5), Some(1));
        assert_eq!(bucket_index(&[0, 1, 0], 1, 1.0), Some(1));
    }

    #[test]
    fn bucket_index_exact_edge() {
        // 10 observations split 5/5: rank 5 is the *last* observation of
        // bucket 0, so p50 must select bucket 0 and anything above rank
        // 5 must select bucket 1.
        let counts = [5u64, 5];
        assert_eq!(bucket_index(&counts, 10, 0.5), Some(0));
        assert_eq!(bucket_index(&counts, 10, 0.50001), Some(1));
        assert_eq!(bucket_index(&counts, 10, 1.0), Some(1));
    }

    #[test]
    fn bucket_index_torn_total_falls_back_to_last_nonempty() {
        // total (from a separate relaxed counter) exceeds the bucket sum.
        assert_eq!(bucket_index(&[2, 3, 0], 100, 0.99), Some(1));
    }
}
