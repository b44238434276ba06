//! Probabilistic false-positivity model for partitioned bloom signatures.
//!
//! Reproduces the analysis behind Figure 7 of the paper, which follows the
//! model of Jeffrey & Steffan, *Understanding bloom filter intersection for
//! lazy address-set disambiguation* (SPAA'11). Two quantities matter to
//! ROCoCoTM:
//!
//! * **query false positivity** — the probability that a membership query for
//!   an address *not* in the summarised set answers `true`;
//! * **intersection false set-overlap** — the probability that the bitwise
//!   AND of the signatures of two *disjoint* sets is non-empty.
//!
//! The paper's conclusion, which these functions reproduce: false set-overlap
//! rises sharply even for small sets, so ROCoCoTM (a) sizes signatures at
//! `m = 512`, and (b) only performs intersections on signatures holding at
//! most 8 elements, falling back to per-address queries for precision.

/// Probability that a *specific* bit of a partition is set after inserting
/// `n` elements into a partitioned filter with `m` total bits and `k`
/// partitions.
///
/// Each insert sets exactly one bit in each partition of `m/k` bits, so a
/// given bit survives one insert with probability `1 - k/m`.
///
/// # Panics
///
/// Panics if `k == 0` or `m < k`.
pub fn bit_set_probability(m: usize, k: usize, n: usize) -> f64 {
    assert!(k > 0, "k must be positive");
    assert!(m >= k, "m must be at least k");
    1.0 - (1.0 - k as f64 / m as f64).powi(n as i32)
}

/// False-positive probability of a membership **query** against a signature
/// summarising `n` elements (m total bits, k partitions).
///
/// A query tests one bit per partition, so the false-positive probability is
/// the per-bit set probability raised to the `k`-th power.
///
/// # Panics
///
/// Panics if `k == 0` or `m < k`.
///
/// ```
/// let fp = rococo_sigs::fp_model::query_fp(512, 8, 8);
/// assert!(fp < 1e-6, "m=512,k=8,n=8 should be a very accurate filter");
/// ```
pub fn query_fp(m: usize, k: usize, n: usize) -> f64 {
    bit_set_probability(m, k, n).powi(k as i32)
}

/// False **set-overlap** probability of an intersection between the
/// signatures of two disjoint sets of `n_a` and `n_b` elements.
///
/// For a *partitioned* filter, an element common to both sets would set the
/// same bit in **every** partition of both signatures, so the AND of two
/// signatures summarises a non-empty intersection only if it is non-zero in
/// every partition (the Bulk intersection rule). Under the independent-bits
/// approximation, a given bit of a partition with `m/k` bits is set in both
/// signatures with probability `p_a * p_b`, so
///
/// ```text
/// P_fso = ( 1 - (1 - p_a * p_b)^(m/k) )^k
/// ```
///
/// This is the quantity plotted in Figure 7(b) and the reason the paper caps
/// intersected signatures at eight elements: at `m = 512, k = 8` it is about
/// 1.6 % for `n = 8` but rises above 70 % by `n = 16`.
///
/// # Panics
///
/// Panics if `k == 0` or `m < k`.
pub fn intersection_fp(m: usize, k: usize, n_a: usize, n_b: usize) -> f64 {
    let pa = bit_set_probability(m, k, n_a);
    let pb = bit_set_probability(m, k, n_b);
    let per_partition = 1.0 - (1.0 - pa * pb).powi((m / k) as i32);
    per_partition.powi(k as i32)
}

/// A single row of a Figure 7 sweep: analytic query and intersection false
/// positivity for one element count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpPoint {
    /// Number of elements stored in the signature(s).
    pub n: usize,
    /// Query false-positive probability.
    pub query_fp: f64,
    /// Intersection false set-overlap probability (both sides hold `n`).
    pub intersection_fp: f64,
}

/// Sweeps `n = 1..=n_max` for a given geometry, producing the series plotted
/// in Figure 7.
pub fn sweep(m: usize, k: usize, n_max: usize) -> Vec<FpPoint> {
    (1..=n_max)
        .map(|n| FpPoint {
            n,
            query_fp: query_fp(m, k, n),
            intersection_fp: intersection_fp(m, k, n, n),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_in_n() {
        for n in 1..63 {
            assert!(query_fp(512, 8, n + 1) >= query_fp(512, 8, n));
            assert!(intersection_fp(512, 8, n + 1, n + 1) >= intersection_fp(512, 8, n, n));
        }
    }

    #[test]
    fn larger_m_reduces_fp() {
        for n in [4, 8, 16, 32] {
            assert!(query_fp(1024, 8, n) < query_fp(512, 8, n));
        }
        // Away from saturation, a larger filter also reduces false
        // set-overlap (both sides approach 1.0 for very large n).
        for n in [4, 8, 16] {
            assert!(intersection_fp(1024, 8, n, n) < intersection_fp(512, 8, n, n));
        }
    }

    #[test]
    fn intersection_is_much_worse_than_query() {
        // The paper's central observation in 5.2: false set-overlap is
        // frequent even with a small number of elements.
        let q = query_fp(512, 8, 8);
        let i = intersection_fp(512, 8, 8, 8);
        assert!(i > 100.0 * q, "query {q} vs intersection {i}");
    }

    #[test]
    fn paper_design_point_is_acceptable() {
        // With at most 8 elements per intersected signature, false
        // set-overlap stays in the low percents.
        assert!(intersection_fp(512, 8, 8, 8) < 0.05);
        // ... while at n = 32 it would already be unusable.
        assert!(intersection_fp(512, 8, 32, 32) > 0.3);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        for m in [256usize, 512, 1024] {
            for n in [0usize, 1, 8, 64, 512] {
                for f in [query_fp(m, 8, n), intersection_fp(m, 8, n, n)] {
                    assert!((0.0..=1.0).contains(&f), "m={m} n={n} fp={f}");
                }
            }
        }
    }

    #[test]
    fn zero_elements_never_false_positive() {
        assert_eq!(query_fp(512, 8, 0), 0.0);
        assert_eq!(intersection_fp(512, 8, 0, 8), 0.0);
    }

    #[test]
    fn sweep_has_requested_length() {
        let s = sweep(512, 8, 64);
        assert_eq!(s.len(), 64);
        assert_eq!(s[0].n, 1);
        assert_eq!(s[63].n, 64);
    }
}
