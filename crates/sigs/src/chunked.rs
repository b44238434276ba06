//! Chunked read-set summaries (Algorithm 1's per-8-address sub-signatures).
//!
//! Section 5.3: "Since the set intersection on bloom-filter signatures
//! features a sharp rise of false positivity after recording eight elements,
//! the read set summarizes a signature for every subset of eight addresses.
//! If the signature of the whole read set overlaps with TempSet, the
//! transaction iterates signatures in each sub-set for more accurate
//! intersection with TempSet."

use crate::bloom::{PrehashedAddr, Sig, SigScheme};

/// A read-set summary holding a whole-set signature plus one signature per
/// chunk of up to [`ChunkedSig::CHUNK`] addresses, along with the raw
/// addresses themselves.
///
/// The three-level overlap test ([`ChunkedSig::conflicts_with`]) mirrors the
/// paper's refinement ladder:
///
/// 1. whole-set signature ∩ other — O(1), coarse;
/// 2. per-chunk signature ∩ other — O(r/8), keeps each intersected signature
///    at ≤ 8 elements where false set-overlap is low (Figure 7);
/// 3. per-address membership query against `other` — exact up to query false
///    positivity, which is orders of magnitude lower than intersection false
///    overlap.
#[derive(Debug, Clone)]
pub struct ChunkedSig {
    whole: Sig,
    chunks: Vec<Sig>,
    addrs: Vec<u64>,
}

impl ChunkedSig {
    /// Addresses per sub-signature. The paper picks 8: a 512-bit signature's
    /// intersection false positivity is acceptable up to eight elements, and
    /// "each 512-bit cacheline can store exactly eight 64-bit addresses".
    pub const CHUNK: usize = 8;

    /// Creates an empty summary for `scheme`'s geometry.
    pub fn new(scheme: &SigScheme) -> Self {
        Self {
            whole: scheme.new_sig(),
            chunks: Vec::new(),
            addrs: Vec::new(),
        }
    }

    /// Number of addresses recorded.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether no address has been recorded.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The recorded addresses, in insertion order.
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// Records `addr` in the whole-set signature and the current chunk.
    ///
    /// Chunk signatures retained by a previous [`ChunkedSig::clear`] are
    /// reused in place, so a recycled summary inserts without allocating
    /// until it outgrows its previous high-water mark.
    pub fn insert(&mut self, scheme: &SigScheme, addr: u64) {
        self.insert_prehashed(scheme, addr, &scheme.prehash(addr));
    }

    /// [`ChunkedSig::insert`] of an address the caller has already
    /// prehashed with `scheme` ([`SigScheme::prehash`]): a reader that
    /// queried other signatures with `pre` records the address without
    /// hashing it again.
    pub fn insert_prehashed(&mut self, scheme: &SigScheme, addr: u64, pre: &PrehashedAddr) {
        scheme.insert_prehashed(&mut self.whole, pre);
        let idx = self.addrs.len() / Self::CHUNK;
        if idx == self.chunks.len() {
            self.chunks.push(scheme.new_sig());
        }
        scheme.insert_prehashed(&mut self.chunks[idx], pre);
        self.addrs.push(addr);
    }

    /// Clears the summary for reuse, zeroing chunk signatures in place
    /// rather than freeing them: read-set summaries are recycled on every
    /// transaction, and keeping the chunk allocations makes the steady
    /// state allocation-free.
    pub fn clear(&mut self) {
        self.whole.clear();
        for chunk in &mut self.chunks {
            chunk.clear();
        }
        self.addrs.clear();
    }

    /// Three-level refined conflict test against `other` (typically the
    /// union of committed write-set signatures, the paper's `TempSet`).
    ///
    /// Returns `true` only if some *recorded address* queries positive in
    /// `other`, i.e. the result has only the (tiny) query false positivity —
    /// intersection false overlaps at levels 1 and 2 merely cost extra work,
    /// not extra aborts.
    pub fn conflicts_with(&self, scheme: &SigScheme, other: &Sig) -> bool {
        if other.is_empty() || !scheme.sets_may_intersect(&self.whole, other) {
            return false;
        }
        // Only the chunks actually covering recorded addresses are live;
        // trailing chunks retained by `clear` are zeroed and skipped.
        let live = self.addrs.len().div_ceil(Self::CHUNK);
        for (ci, chunk) in self.chunks[..live].iter().enumerate() {
            if !scheme.sets_may_intersect(chunk, other) {
                continue;
            }
            let start = ci * Self::CHUNK;
            let end = (start + Self::CHUNK).min(self.addrs.len());
            if self.addrs[start..end]
                .iter()
                .any(|&a| scheme.query(other, a))
            {
                return true;
            }
        }
        false
    }

    /// Coarse conflict test: whole-set signature overlap only (what a
    /// hardware structure without the address list would report).
    pub fn coarse_overlaps(&self, other: &Sig) -> bool {
        self.whole.overlaps(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> SigScheme {
        SigScheme::paper_default()
    }

    #[test]
    fn detects_true_conflicts() {
        let s = scheme();
        let mut rs = ChunkedSig::new(&s);
        for a in 0..20u64 {
            rs.insert(&s, a * 31);
        }
        // Write set containing one of the read addresses.
        let ws = s.sig_of([5 * 31]);
        assert!(rs.conflicts_with(&s, &ws));
    }

    #[test]
    fn no_conflict_with_empty_other() {
        let s = scheme();
        let mut rs = ChunkedSig::new(&s);
        rs.insert(&s, 42);
        assert!(!rs.conflicts_with(&s, &s.new_sig()));
    }

    #[test]
    fn refinement_filters_false_overlaps() {
        // Build a large read set and many disjoint write sets; the refined
        // test must report (almost) no conflicts even though the coarse
        // whole-set signature is saturated enough to overlap frequently.
        let s = scheme();
        let mut rs = ChunkedSig::new(&s);
        for a in 0..64u64 {
            rs.insert(&s, a);
        }
        let mut coarse = 0;
        let mut refined = 0;
        for i in 0..200u64 {
            let ws = s.sig_of([1_000_000 + i * 7, 2_000_000 + i * 13]);
            if rs.coarse_overlaps(&ws) {
                coarse += 1;
            }
            if rs.conflicts_with(&s, &ws) {
                refined += 1;
            }
        }
        assert!(
            refined <= coarse,
            "refinement may never add conflicts ({refined} > {coarse})"
        );
        assert!(
            refined < 5,
            "refined false conflicts too frequent: {refined}"
        );
    }

    #[test]
    fn chunk_count_tracks_len() {
        let s = scheme();
        let mut rs = ChunkedSig::new(&s);
        assert!(rs.is_empty());
        for a in 0..17u64 {
            rs.insert(&s, a);
        }
        assert_eq!(rs.len(), 17);
        assert_eq!(rs.chunks.len(), 3); // ceil(17 / 8)
        rs.clear();
        assert!(rs.is_empty());
        // Chunk allocations are retained (zeroed) for reuse.
        assert_eq!(rs.chunks.len(), 3);
        assert!(rs.chunks.iter().all(Sig::is_empty));
    }

    #[test]
    fn reuse_after_clear_behaves_like_fresh() {
        let s = scheme();
        let mut rs = ChunkedSig::new(&s);
        for a in 0..20u64 {
            rs.insert(&s, a * 31);
        }
        rs.clear();
        // A recycled summary must not remember cleared addresses...
        let old = s.sig_of([5 * 31]);
        assert!(!rs.conflicts_with(&s, &old));
        // ...and must detect conflicts on its new contents.
        for a in [7u64, 1000, 2000] {
            rs.insert(&s, a);
        }
        assert!(rs.conflicts_with(&s, &s.sig_of([1000u64])));
        assert!(!rs.conflicts_with(&s, &s.sig_of([31u64 * 3])));
        assert_eq!(rs.addrs(), &[7, 1000, 2000]);
    }

    #[test]
    fn a_prehashed_insert_records_what_insert_does() {
        let s = scheme();
        let (mut plain, mut pre) = (ChunkedSig::new(&s), ChunkedSig::new(&s));
        for a in (0..20u64).map(|i| i * 977 + 3) {
            plain.insert(&s, a);
            pre.insert_prehashed(&s, a, &s.prehash(a));
        }
        assert_eq!(plain.whole, pre.whole);
        assert_eq!(plain.chunks, pre.chunks);
        assert_eq!(plain.addrs(), pre.addrs());
    }

    #[test]
    fn addrs_returns_insertion_order() {
        let s = scheme();
        let mut rs = ChunkedSig::new(&s);
        for a in [5u64, 3, 9] {
            rs.insert(&s, a);
        }
        assert_eq!(rs.addrs(), &[5, 3, 9]);
    }
}
