//! Fixed-capacity bit vectors: the adjacency rows of [`order`](crate::order)
//! graphs, and a convenient way to spell an `f` or `b` vector of Fig. 4.

use std::fmt;

/// A bit vector over `capacity` slots, fixed at construction; all binary
/// operations require equal capacities. Over the `W` ring positions of a
/// window its [`as_words`](Self::as_words) are what
/// [`ReachMatrix`](crate::ReachMatrix) and
/// [`RococoValidator`](crate::RococoValidator) take as `f` and `b`.
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

    /// Number of set slots.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Clears all slots.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
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

    /// Iterates the indices of set slots in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.words.iter().enumerate();
        words.flat_map(|(wi, &w)| ones(w).map(move |b| wi * 64 + b))
    }

    /// Raw word view.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

/// Indices of the set bits of `word`, ascending.
pub(crate) fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
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
