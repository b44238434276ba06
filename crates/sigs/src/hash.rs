//! Approximately universal hashing with the multiply-shift scheme.
//!
//! The paper (section 5.2) chooses multiply-shift hashing [Dietzfelbinger et
//! al. 1997] because one hash evaluation is a single multiply plus a shift,
//! which maps both to a handful of AVX instructions on the CPU and to DSP
//! blocks on the FPGA.

/// SplitMix64 step — a tiny, high-quality seeded generator used to derive the
/// random odd multipliers of a hash family without pulling in a full RNG
/// dependency.
///
/// Advances `state` and returns the next 64-bit output.
///
/// ```
/// # use rococo_sigs::splitmix64;
/// let mut s = 42;
/// let a = splitmix64(&mut s);
/// let b = splitmix64(&mut s);
/// assert_ne!(a, b);
/// ```
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A family of `k` multiply-shift hash functions mapping a 64-bit key into
/// `[0, 2^out_bits)`.
///
/// Function `i` computes `(a_i * x) >> (64 - out_bits)` with a fixed random
/// odd multiplier `a_i`. The family is approximately 2-universal, which is
/// the property the bloom false-positivity model of [`crate::fp_model`]
/// assumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplyShift {
    mults: Vec<u64>,
    out_bits: u32,
}

impl MultiplyShift {
    /// Creates a family of `k` functions with `out_bits` output bits, with
    /// multipliers derived deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `out_bits` is not in `1..=63`.
    pub fn new(k: usize, out_bits: u32, seed: u64) -> Self {
        assert!(k > 0, "hash family must have at least one function");
        assert!(
            (1..=63).contains(&out_bits),
            "out_bits must be in 1..=63, got {out_bits}"
        );
        let mut state = seed ^ 0xa076_1d64_78bd_642f;
        let mults = (0..k)
            .map(|_| splitmix64(&mut state) | 1) // multipliers must be odd
            .collect();
        Self { mults, out_bits }
    }

    /// Number of functions in the family.
    pub fn len(&self) -> usize {
        self.mults.len()
    }

    /// Whether the family is empty (never true for a constructed family).
    pub fn is_empty(&self) -> bool {
        self.mults.is_empty()
    }

    /// Output width in bits of every function.
    pub fn out_bits(&self) -> u32 {
        self.out_bits
    }

    /// Evaluates function `i` on `key`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn hash(&self, i: usize, key: u64) -> u64 {
        self.mults[i].wrapping_mul(key) >> (64 - self.out_bits)
    }

    /// Evaluates the whole family on `key`, yielding one bucket per function.
    pub fn hash_all<'a>(&'a self, key: u64) -> impl Iterator<Item = u64> + 'a {
        let shift = 64 - self.out_bits;
        self.mults.iter().map(move |a| a.wrapping_mul(key) >> shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 7;
        let mut b = 7;
        for _ in 0..16 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
    }

    #[test]
    fn outputs_fit_in_range() {
        let fam = MultiplyShift::new(8, 6, 1);
        for key in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            for h in fam.hash_all(key) {
                assert!(h < 64, "hash {h} out of range for 6 output bits");
            }
        }
    }

    #[test]
    fn different_seeds_give_different_families() {
        let a = MultiplyShift::new(4, 9, 1);
        let b = MultiplyShift::new(4, 9, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn family_spreads_keys() {
        // A crude avalanche check: consecutive keys should not all collide.
        let fam = MultiplyShift::new(1, 10, 3);
        let mut buckets = std::collections::HashSet::new();
        for key in 0..1024u64 {
            buckets.insert(fam.hash(0, key));
        }
        assert!(
            buckets.len() > 256,
            "only {} distinct buckets out of 1024 keys",
            buckets.len()
        );
    }

    #[test]
    #[should_panic(expected = "out_bits")]
    fn rejects_zero_width() {
        let _ = MultiplyShift::new(1, 0, 0);
    }
}
