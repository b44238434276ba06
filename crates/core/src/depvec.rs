//! Bit vectors over window slots (the `f`, `b`, `p`, `s` vectors of Fig. 4).

use std::fmt;

/// A bit vector indexed by window slot, used for the adjacency vectors `f`
/// and `b` and the closure vectors `p` and `s` of the ROCoCo algorithm.
///
/// The capacity is fixed at construction (the window size `W`); all binary
/// operations require equal capacities.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DepVec {
    bits: usize,
    words: Vec<u64>,
}

impl DepVec {
    /// Creates an all-zero vector over `bits` slots.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn new(bits: usize) -> Self {
        assert!(bits > 0, "DepVec must have at least one slot");
        Self {
            bits,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Capacity in slots.
    pub fn capacity(&self) -> usize {
        self.bits
    }

    /// Sets slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.bits, "slot {i} out of range {}", self.bits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        assert!(i < self.bits, "slot {i} out of range {}", self.bits);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.bits, "slot {i} out of range {}", self.bits);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Whether every slot is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set slots.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Clears all slots.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Overwrites `self` with `other` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn copy_from(&mut self, other: &DepVec) {
        assert_eq!(self.bits, other.bits, "DepVec capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Overwrites `self` with the ring-indexed bit vector `ring` rotated so
    /// that ring position `start` lands on slot 0: slot `s` becomes bit
    /// `(start + s) % capacity` of `ring`. This is how a vector indexed by
    /// `seq % W` (where a commit's bookkeeping sits) turns into one indexed
    /// by window slot (`seq − oldest`), with `start = oldest % W`.
    ///
    /// # Panics
    ///
    /// Panics if `ring` does not hold exactly the words of a
    /// `capacity`-bit vector, has a bit set at or beyond `capacity`, or if
    /// `start >= capacity`.
    pub fn copy_rotated_from(&mut self, ring: &[u64], start: usize) {
        assert_eq!(ring.len(), self.words.len(), "DepVec capacity mismatch");
        assert!(
            start < self.bits,
            "rotation {start} out of range {}",
            self.bits
        );
        self.clear();
        let head = self.bits - start;
        self.or_bit_range(ring, start, 0, head);
        self.or_bit_range(ring, 0, head, start);
        assert_eq!(
            self.count_ones(),
            ring.iter().map(|w| w.count_ones()).sum::<u32>(),
            "ring vector has bits beyond the capacity"
        );
    }

    /// ORs bits `[from, from + len)` of `src` into slots `[to, to + len)`.
    fn or_bit_range(&mut self, src: &[u64], mut from: usize, mut to: usize, mut len: usize) {
        while len > 0 {
            // As many bits as stay inside one source and one destination word.
            let n = len.min(64 - from % 64).min(64 - to % 64);
            let chunk = (src[from / 64] >> (from % 64)) & (u64::MAX >> (64 - n));
            self.words[to / 64] |= chunk << (to % 64);
            from += n;
            to += n;
            len -= n;
        }
    }

    /// In-place OR (`self |= other`).
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn or_with(&mut self, other: &DepVec) {
        assert_eq!(self.bits, other.bits, "DepVec capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Whether `self & other` is non-zero — the cycle-detection test
    /// `p ∧ s ≠ 0` of Figure 4(a).
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn intersects(&self, other: &DepVec) -> bool {
        assert_eq!(self.bits, other.bits, "DepVec capacity mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Shifts the vector one slot towards zero (slot 0 falls off), modelling
    /// the register shift when the sliding window evicts its oldest
    /// transaction.
    pub fn shift_down(&mut self) {
        let n = self.words.len();
        for i in 0..n {
            let carry = if i + 1 < n {
                self.words[i + 1] << 63
            } else {
                0
            };
            self.words[i] = (self.words[i] >> 1) | carry;
        }
        // Mask off any bit that may have been shifted past the capacity.
        self.mask_tail();
    }

    fn mask_tail(&mut self) {
        let rem = self.bits % 64;
        if rem != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << rem) - 1;
        }
    }

    /// Iterates the indices of set slots in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Raw word view.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for DepVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DepVec{{")?;
        let mut first = true;
        for i in self.iter_ones() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}/{}", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = DepVec::new(100);
        for i in [0usize, 1, 63, 64, 65, 99] {
            assert!(!v.get(i));
            v.set(i);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 6);
        v.unset(64);
        assert!(!v.get(64));
    }

    #[test]
    fn intersects_and_or() {
        let mut a = DepVec::new(64);
        let mut b = DepVec::new(64);
        a.set(3);
        b.set(7);
        assert!(!a.intersects(&b));
        a.or_with(&b);
        assert!(a.intersects(&b));
        assert!(a.get(3) && a.get(7));
    }

    #[test]
    fn shift_down_drops_slot_zero() {
        let mut v = DepVec::new(130);
        v.set(0);
        v.set(64);
        v.set(129);
        v.shift_down();
        assert!(!v.get(0));
        assert!(v.get(63), "bit 64 must move to 63");
        assert!(v.get(128), "bit 129 must move to 128");
        assert!(!v.get(129));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn shift_down_of_slot_one_lands_on_zero() {
        let mut v = DepVec::new(64);
        v.set(1);
        v.shift_down();
        assert!(v.get(0));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    fn copy_from_overwrites() {
        let mut a = DepVec::new(70);
        a.set(3);
        let mut b = DepVec::new(70);
        b.set(69);
        a.copy_from(&b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn copy_from_rejects_other_capacity() {
        DepVec::new(8).copy_from(&DepVec::new(9));
    }

    #[test]
    fn copy_rotated_from_matches_bit_by_bit() {
        for cap in [1usize, 2, 5, 63, 64, 65, 128, 130] {
            let words = cap.div_ceil(64);
            for start in [0, 1, cap / 2, cap.saturating_sub(2), cap - 1] {
                let start = start.min(cap - 1);
                // Every third ring position plus the two ends.
                let mut ring = vec![0u64; words];
                for pos in (0..cap).filter(|p| p % 3 == 0 || *p == cap - 1) {
                    ring[pos / 64] |= 1 << (pos % 64);
                }
                let mut v = DepVec::new(cap);
                v.set(0); // stale contents must not survive
                v.copy_rotated_from(&ring, start);
                for slot in 0..cap {
                    let pos = (start + slot) % cap;
                    assert_eq!(
                        v.get(slot),
                        ring[pos / 64] >> (pos % 64) & 1 == 1,
                        "cap {cap} start {start} slot {slot}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond the capacity")]
    fn copy_rotated_from_rejects_stray_bits() {
        DepVec::new(10).copy_rotated_from(&[1 << 10], 3);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut v = DepVec::new(200);
        for i in [5usize, 64, 70, 199] {
            v.set(i);
        }
        let ones: Vec<_> = v.iter_ones().collect();
        assert_eq!(ones, vec![5, 64, 70, 199]);
    }

    #[test]
    fn debug_format_lists_bits() {
        let mut v = DepVec::new(8);
        v.set(2);
        assert_eq!(format!("{v:?}"), "DepVec{2}/8");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        DepVec::new(10).set(10);
    }
}
