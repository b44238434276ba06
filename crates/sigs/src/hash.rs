//! Approximately universal hashing with the multiply-shift scheme.
//!
//! The paper (section 5.2) chooses multiply-shift hashing [Dietzfelbinger et
//! al. 1997] because one hash evaluation is a single multiply plus a shift,
//! which maps both to a handful of AVX instructions on the CPU and to DSP
//! blocks on the FPGA.

use crate::SigScheme;

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

/// The family of [`SigScheme::K`] multiply-shift hash functions mapping a
/// 64-bit key into `[0, 2^out_bits)`, one function per signature partition.
///
/// Function `i` computes `(a_i * x) >> (64 - out_bits)` with a fixed random
/// odd multiplier `a_i`. The family is approximately 2-universal, which is
/// the property the bloom false-positivity model of [`crate::fp_model`]
/// assumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplyShift {
    mults: [u64; SigScheme::K],
    out_bits: u32,
}

impl MultiplyShift {
    /// Creates the family with `out_bits` output bits, with multipliers
    /// derived deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `out_bits` is not in `1..=63`.
    pub fn new(out_bits: u32, seed: u64) -> Self {
        assert!(
            (1..=63).contains(&out_bits),
            "out_bits must be in 1..=63, got {out_bits}"
        );
        let mut state = seed ^ 0xa076_1d64_78bd_642f;
        // Multipliers must be odd.
        let mults = std::array::from_fn(|_| splitmix64(&mut state) | 1);
        Self { mults, out_bits }
    }

    /// Output width in bits of every function.
    pub fn out_bits(&self) -> u32 {
        self.out_bits
    }

    /// Evaluates the whole family on `key`, one bucket per function.
    #[inline]
    pub fn hash_all(&self, key: u64) -> [u64; SigScheme::K] {
        let shift = 64 - self.out_bits;
        self.mults.map(|a| a.wrapping_mul(key) >> shift)
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
        let fam = MultiplyShift::new(6, 1);
        for key in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            for h in fam.hash_all(key) {
                assert!(h < 64, "hash {h} out of range for 6 output bits");
            }
        }
    }

    #[test]
    fn different_seeds_give_different_families() {
        let a = MultiplyShift::new(9, 1);
        let b = MultiplyShift::new(9, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn family_spreads_keys() {
        // A crude avalanche check: consecutive keys should not all collide.
        let fam = MultiplyShift::new(10, 3);
        let mut buckets = std::collections::HashSet::new();
        for key in 0..1024u64 {
            buckets.insert(fam.hash_all(key)[0]);
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
        let _ = MultiplyShift::new(0, 0);
    }
}
