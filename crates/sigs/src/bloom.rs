//! Partitioned bloom-filter signatures.

use crate::hash::MultiplyShift;
use std::fmt;

/// Maximum number of partitions a scheme supports (bounds a stack buffer on
/// the hot path).
const MAX_K: usize = 16;

/// A parallel (partitioned) bloom-filter scheme.
///
/// The scheme fixes the signature geometry — `m` total bits split into `k`
/// equal partitions — and owns the hash family. Signatures ([`Sig`]) are
/// plain bit vectors; all operations that need hashing (insert, query) go
/// through the scheme so that every signature in a system is guaranteed to
/// use the same geometry.
///
/// The paper's design point is `m = 512`, `k = 8`
/// ([`SigScheme::paper_default`]): eight partitions of 64 bits, matching one
/// 512-bit AVX register / cache line on the CPU and a flat wire bundle on the
/// FPGA.
#[derive(Debug, Clone)]
pub struct SigScheme {
    m_bits: usize,
    k: usize,
    part_bits: usize,
    words: usize,
    hashers: MultiplyShift,
}

impl SigScheme {
    /// Default seed used by [`SigScheme::paper_default`] and
    /// [`SigScheme::new`]'s convenience callers. Fixed so that every
    /// component of a system (CPU side, simulated FPGA side) derives the same
    /// hash family, exactly like a synthesised bitstream would.
    pub const DEFAULT_SEED: u64 = 0x5eed_0000_0c0c_0a19;

    /// Creates a scheme with `m_bits` total bits and `k` partitions, deriving
    /// the hash family from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `m_bits` is not a multiple of `64 * k`, if it exceeds
    /// 65 536 (a [`PrehashedAddr`] stores bit indices as `u16`), if the
    /// partition size is not a power of two, or if `k` is 0 or greater
    /// than 16.
    pub fn with_seed(m_bits: usize, k: usize, seed: u64) -> Self {
        assert!(k > 0 && k <= MAX_K, "k must be in 1..=16, got {k}");
        assert!(
            m_bits <= 1 << 16,
            "m_bits ({m_bits}) must fit a u16 bit index (at most 65536)"
        );
        assert!(
            m_bits.is_multiple_of(64) && m_bits.is_multiple_of(k),
            "m_bits ({m_bits}) must be a multiple of 64 and of k ({k})"
        );
        let part_bits = m_bits / k;
        assert!(
            part_bits.is_power_of_two(),
            "partition size {part_bits} must be a power of two"
        );
        let out_bits = part_bits.trailing_zeros();
        Self {
            m_bits,
            k,
            part_bits,
            words: m_bits / 64,
            hashers: MultiplyShift::new(k, out_bits, seed),
        }
    }

    /// Creates a scheme with the default seed.
    ///
    /// See [`SigScheme::with_seed`] for panics.
    pub fn new(m_bits: usize, k: usize) -> Self {
        Self::with_seed(m_bits, k, Self::DEFAULT_SEED)
    }

    /// The paper's design point: 512 bits, 8 partitions.
    pub fn paper_default() -> Self {
        Self::new(512, 8)
    }

    /// Total signature size in bits (`m`).
    pub fn m_bits(&self) -> usize {
        self.m_bits
    }

    /// Number of partitions (`k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Signature size in 64-bit words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Creates an empty signature of this scheme's geometry.
    pub fn new_sig(&self) -> Sig {
        Sig {
            words: vec![0; self.words],
        }
    }

    /// Inserts `addr` into `sig` (one bit per partition).
    ///
    /// # Panics
    ///
    /// Panics if `sig` does not match this scheme's geometry.
    #[inline]
    pub fn insert(&self, sig: &mut Sig, addr: u64) {
        assert_eq!(sig.words.len(), self.words, "signature geometry mismatch");
        for bit in self.bits_of(addr) {
            sig.words[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// The signature bit indices of `addr`, one per partition.
    #[inline]
    fn bits_of(&self, addr: u64) -> impl Iterator<Item = usize> + '_ {
        let buckets = self.hashers.hash_all(addr).enumerate();
        buckets.map(|(i, bucket)| i * self.part_bits + bucket as usize)
    }

    /// [`SigScheme::insert`] of positions computed by [`SigScheme::prehash`]:
    /// a caller that already prehashed an address to query it (the
    /// validation engine does, for every request) inserts it without
    /// hashing a second time.
    ///
    /// # Panics
    ///
    /// Panics if `sig` does not match this scheme's geometry.
    #[inline]
    pub fn insert_prehashed(&self, sig: &mut Sig, pre: &PrehashedAddr) {
        assert_eq!(sig.words.len(), self.words, "signature geometry mismatch");
        for &bit in pre.bit_indices() {
            sig.words[usize::from(bit) / 64] |= 1u64 << (bit % 64);
        }
    }

    /// Tests whether `addr` may be a member of the set summarised by `sig`.
    ///
    /// A `false` answer is exact (no false negatives); a `true` answer may be
    /// a false positive with the probability modelled by
    /// [`crate::fp_model::query_fp`].
    ///
    /// # Panics
    ///
    /// Panics if `sig` does not match this scheme's geometry.
    #[inline]
    pub fn query(&self, sig: &Sig, addr: u64) -> bool {
        self.query_prehashed(sig, &self.prehash(addr))
    }

    /// Builds a signature summarising all of `addrs`.
    pub fn sig_of<I: IntoIterator<Item = u64>>(&self, addrs: I) -> Sig {
        let mut sig = self.new_sig();
        for a in addrs {
            self.insert(&mut sig, a);
        }
        sig
    }

    /// Partition-aware set-intersection test (the Bulk rule).
    ///
    /// An element common to both summarised sets sets the same bit in every
    /// partition of both signatures, so the sets *may* intersect only if the
    /// bitwise AND is non-zero in **every** partition. A `false` answer is
    /// exact; a `true` answer is a false set-overlap with the probability
    /// modelled by [`crate::fp_model::intersection_fp`].
    ///
    /// Word-parallel: partitions are a power of two bits wide, so they either
    /// span whole 64-bit words (`part_bits >= 64`) or pack evenly into one
    /// word without straddling (`part_bits < 64`). Either way each partition's
    /// AND-is-zero test is a handful of word operations with no per-bit
    /// iteration — the software shadow of the FPGA's flat AND/OR reduction
    /// tree over the 512-bit signature bundle.
    ///
    /// # Panics
    ///
    /// Panics if either signature does not match this scheme's geometry.
    pub fn sets_may_intersect(&self, a: &Sig, b: &Sig) -> bool {
        assert_eq!(a.words.len(), self.words, "signature geometry mismatch");
        assert_eq!(b.words.len(), self.words, "signature geometry mismatch");
        let aw = &a.words;
        let bw = &b.words;
        if self.part_bits >= 64 {
            // Whole words per partition: OR-accumulate the per-word ANDs and
            // fail fast on the first all-zero partition.
            let mut w = 0;
            while w < self.words {
                let part_end = w + self.part_bits / 64;
                let mut acc = 0u64;
                while w < part_end {
                    acc |= aw[w] & bw[w];
                    w += 1;
                }
                if acc == 0 {
                    return false;
                }
            }
            true
        } else {
            // Sub-word partitions (power of two < 64) never straddle a word:
            // one masked AND decides each partition.
            let per_word = 64 / self.part_bits;
            let part_mask = (1u64 << self.part_bits) - 1;
            let mut p = 0;
            while p < self.k {
                let word = p / per_word;
                let shift = (p % per_word) * self.part_bits;
                if aw[word] & bw[word] & (part_mask << shift) == 0 {
                    return false;
                }
                p += 1;
            }
            true
        }
    }

    /// Precomputes the signature positions of `addr` so repeated membership
    /// queries ([`SigScheme::query_prehashed`]) skip the hash family entirely.
    ///
    /// The validator probes each request address against every write
    /// signature in its history window; hashing once per address instead of
    /// once per (address, window entry) pair removes the dominant cost.
    #[inline]
    pub fn prehash(&self, addr: u64) -> PrehashedAddr {
        let mut bits = [0u16; MAX_K];
        for (slot, bit) in bits.iter_mut().zip(self.bits_of(addr)) {
            debug_assert!(bit < self.m_bits);
            *slot = bit as u16;
        }
        PrehashedAddr {
            bits,
            k: self.k as u8,
        }
    }

    /// [`SigScheme::query`] against positions computed by
    /// [`SigScheme::prehash`].
    ///
    /// # Panics
    ///
    /// Panics if `sig` does not match this scheme's geometry.
    #[inline]
    pub fn query_prehashed(&self, sig: &Sig, pre: &PrehashedAddr) -> bool {
        assert_eq!(sig.words.len(), self.words, "signature geometry mismatch");
        pre.bit_indices()
            .iter()
            .all(|&bit| sig.words[usize::from(bit) / 64] & (1u64 << (bit % 64)) != 0)
    }
}

/// The `k` signature bit indices an address maps to under one
/// [`SigScheme`], one per partition, precomputed via [`SigScheme::prehash`].
/// 34 bytes: a 16-address request's prehashes fit nine cache lines.
///
/// Only meaningful with the scheme that produced it — querying through a
/// different scheme of the same word count silently tests the wrong bits.
#[derive(Debug, Clone, Copy)]
pub struct PrehashedAddr {
    bits: [u16; MAX_K],
    k: u8,
}

impl PrehashedAddr {
    /// The bit indices in `[0, m)`, in partition order: the address is in a
    /// signature's set only if the signature has every one of them set.
    #[inline]
    pub fn bit_indices(&self) -> &[u16] {
        &self.bits[..usize::from(self.k)]
    }
}

/// A bloom-filter signature: a fixed-width bit vector.
///
/// All set-algebra operations (`union_with`, `intersect`, `overlaps`) are
/// geometry-agnostic bitwise operations; insertion and membership query live
/// on [`SigScheme`].
#[derive(PartialEq, Eq, Hash)]
pub struct Sig {
    words: Vec<u64>,
}

impl Clone for Sig {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
        }
    }

    /// Copies `source`'s bits into this signature's own words: publishing
    /// a write signature into a slot that already holds one allocates
    /// nothing (the derived `clone_from` would build a new vector).
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
    }
}

impl Sig {
    /// Creates an empty signature with `words` 64-bit words. Prefer
    /// [`SigScheme::new_sig`], which ties the size to a scheme.
    pub fn zeroed(words: usize) -> Self {
        Self {
            words: vec![0; words],
        }
    }

    /// Whether no bit is set (summarises the empty set, or is only ever
    /// compared against).
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Size in 64-bit words.
    pub fn len_words(&self) -> usize {
        self.words.len()
    }

    /// In-place set union (`self |= other`).
    ///
    /// # Panics
    ///
    /// Panics if the signatures have different sizes.
    pub fn union_with(&mut self, other: &Sig) {
        assert_eq!(
            self.words.len(),
            other.words.len(),
            "signature size mismatch"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Set intersection (`self & other`), returned as a new signature.
    ///
    /// # Panics
    ///
    /// Panics if the signatures have different sizes.
    pub fn intersect(&self, other: &Sig) -> Sig {
        assert_eq!(
            self.words.len(),
            other.words.len(),
            "signature size mismatch"
        );
        Sig {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Whether the intersection with `other` is non-empty.
    ///
    /// This is the *set intersection* test the paper uses for eager conflict
    /// detection; a `true` may be a false set-overlap with probability
    /// modelled by [`crate::fp_model::intersection_fp`].
    ///
    /// # Panics
    ///
    /// Panics if the signatures have different sizes.
    #[inline]
    pub fn overlaps(&self, other: &Sig) -> bool {
        assert_eq!(
            self.words.len(),
            other.words.len(),
            "signature size mismatch"
        );
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Raw word view (for hardware-model code that shifts signatures through
    /// register files).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for Sig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sig[{}b, {} ones]",
            self.words.len() * 64,
            self.count_ones()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let s = SigScheme::paper_default();
        let mut sig = s.new_sig();
        let addrs: Vec<u64> = (0..64).map(|i| i * 977 + 13).collect();
        for &a in &addrs {
            s.insert(&mut sig, a);
        }
        for &a in &addrs {
            assert!(s.query(&sig, a), "false negative for {a}");
        }
    }

    #[test]
    fn empty_sig_queries_false() {
        let s = SigScheme::paper_default();
        let sig = s.new_sig();
        for a in 0..1000u64 {
            assert!(!s.query(&sig, a));
        }
    }

    #[test]
    fn one_bit_per_partition() {
        let s = SigScheme::paper_default();
        let mut sig = s.new_sig();
        s.insert(&mut sig, 0xfeed);
        assert_eq!(sig.count_ones(), 8, "one insert must set exactly k bits");
    }

    #[test]
    fn union_superset_of_both() {
        let s = SigScheme::paper_default();
        let mut a = s.sig_of([1, 2, 3]);
        let b = s.sig_of([100, 200]);
        a.union_with(&b);
        for addr in [1u64, 2, 3, 100, 200] {
            assert!(s.query(&a, addr));
        }
    }

    #[test]
    fn intersect_of_disjoint_small_sets_is_usually_empty() {
        // With n = 1 on each side and m = 512, a false set-overlap should be
        // extremely rare; over 500 trials expect at most a few.
        let s = SigScheme::paper_default();
        let mut overlap = 0;
        for i in 0..500u64 {
            let a = s.sig_of([i * 2 + 1_000_000]);
            let b = s.sig_of([i * 2 + 2_000_001]);
            if a.overlaps(&b) {
                overlap += 1;
            }
        }
        assert!(overlap < 20, "too many false set-overlaps: {overlap}");
    }

    #[test]
    fn clone_from_copies_into_the_same_words() {
        let s = SigScheme::paper_default();
        let source = s.sig_of([1, 2, 3]);
        let mut slot = s.sig_of([99]);
        let words = slot.words.as_ptr();
        slot.clone_from(&source);
        assert_eq!(slot, source);
        assert_eq!(slot.words.as_ptr(), words, "no new allocation");
    }

    #[test]
    fn overlaps_matches_intersect_nonempty() {
        let s = SigScheme::new(256, 4);
        let a = s.sig_of(0..20u64);
        let b = s.sig_of(15..40u64);
        assert_eq!(a.overlaps(&b), !a.intersect(&b).is_empty());
    }

    #[test]
    fn scheme_sizes() {
        let s = SigScheme::new(1024, 8);
        assert_eq!(s.words(), 16);
        assert_eq!(s.m_bits(), 1024);
        assert_eq!(s.k(), 8);
        assert_eq!(s.new_sig().len_words(), 16);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn mismatched_sig_rejected() {
        let s = SigScheme::paper_default();
        let mut wrong = Sig::zeroed(4);
        s.insert(&mut wrong, 1);
    }

    /// Reference implementation of the partition rule: per-bit scan, no word
    /// tricks. The word-parallel fast paths must agree with this exactly.
    fn intersect_reference(s: &SigScheme, a: &Sig, b: &Sig) -> bool {
        (0..s.k).all(|p| {
            (p * s.part_bits..(p + 1) * s.part_bits)
                .any(|bit| a.words[bit / 64] & b.words[bit / 64] & (1u64 << (bit % 64)) != 0)
        })
    }

    #[test]
    fn word_parallel_intersection_matches_reference() {
        // Geometries covering every fast path: part_bits = 64 (paper
        // default), multi-word partitions (128), and sub-word partitions
        // (32 and 16).
        for (m, k) in [(512, 8), (1024, 8), (512, 16), (256, 16), (256, 4)] {
            let s = SigScheme::new(m, k);
            let mut seed = 0x1234_5678_9abc_def0u64 ^ (m as u64) << 16 ^ k as u64;
            let mut next = || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            };
            for trial in 0..200 {
                // Vary set sizes so some trials saturate partitions and some
                // leave them empty.
                let na = (trial % 17) as usize;
                let nb = (trial % 5) as usize;
                let a = s.sig_of((0..na).map(|_| next()));
                let b = s.sig_of((0..nb).map(|_| next()));
                assert_eq!(
                    s.sets_may_intersect(&a, &b),
                    intersect_reference(&s, &a, &b),
                    "m={m} k={k} trial={trial}"
                );
                // Shared-element case: must always report possible overlap.
                if na > 0 {
                    let shared = next();
                    let mut a2 = a.clone();
                    let mut b2 = b.clone();
                    s.insert(&mut a2, shared);
                    s.insert(&mut b2, shared);
                    assert!(s.sets_may_intersect(&a2, &b2));
                }
            }
            // Empty signatures never intersect anything.
            let empty = s.new_sig();
            assert!(!s.sets_may_intersect(&empty, &empty));
        }
    }

    #[test]
    fn prehashed_insert_sets_exactly_the_named_bits() {
        // 65 536 bits is the largest geometry a u16 bit index addresses.
        for (m, k) in [(512, 8), (512, 16), (1024, 8), (256, 16), (65_536, 16)] {
            let s = SigScheme::new(m, k);
            for a in (0..40u64).map(|i| i * 131 + 7) {
                let pre = s.prehash(a);
                let bits = pre.bit_indices();
                assert_eq!(bits.len(), k);
                // One index per partition, in partition order.
                assert!(bits
                    .iter()
                    .enumerate()
                    .all(|(i, &bit)| usize::from(bit) / (m / k) == i));
                let mut sig = s.new_sig();
                s.insert_prehashed(&mut sig, &pre);
                assert_eq!(sig.count_ones() as usize, k, "m={m} k={k}");
                assert!(bits
                    .iter()
                    .all(|&bit| sig.as_words()[usize::from(bit) / 64] >> (bit % 64) & 1 == 1));
                assert_eq!(sig, s.sig_of([a]));
            }
        }
    }

    #[test]
    fn prehashed_addr_is_packed() {
        assert_eq!(std::mem::size_of::<PrehashedAddr>(), 34);
    }

    #[test]
    #[should_panic(expected = "u16 bit index")]
    fn oversized_signature_rejected() {
        let _ = SigScheme::new(1 << 17, 8);
    }

    #[test]
    fn prehashed_query_matches_query() {
        for (m, k) in [(512, 8), (512, 16), (1024, 8)] {
            let s = SigScheme::new(m, k);
            let sig = s.sig_of((0..40u64).map(|i| i * 131 + 7));
            for a in 0..600u64 {
                let pre = s.prehash(a);
                assert_eq!(
                    s.query(&sig, a),
                    s.query_prehashed(&sig, &pre),
                    "m={m} k={k} addr={a}"
                );
            }
        }
    }
}
