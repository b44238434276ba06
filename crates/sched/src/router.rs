//! Footprint prediction and HTM admission: the router's policy.
//!
//! The router implements the limited-set admission rule of the hybrid-TM
//! literature (Kafousis et al.): a transaction may take the best-effort
//! HTM fast path only if its *predicted* read and write footprints fit
//! under bounds derived from the hardware capacity. Prediction is an
//! EWMA of observed per-commit footprints keyed by the caller-supplied
//! scheduling class ([`rococo_stm::TmSystem::set_tx_class`]).
//!
//! The rule is a pair of methods on plain values (`ClassState`);
//! [`Router`] keeps one atomic per field and moves it with them. The live
//! `HybridTm` and the simulator's `SimSystem::Hybrid` route with the same
//! `Router`.

use std::sync::atomic::{AtomicU32, Ordering};

use rococo_stm::HtmConfig;

/// Fixed-point shift of the EWMA accumulators (value = accumulator >> 8).
const EWMA_FP: u32 = 8;
/// EWMA smoothing: new = old + (sample - old) / 2^EWMA_SHIFT.
const EWMA_SHIFT: u32 = 2;

/// Admission bounds on a predicted footprint, in words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Bound on the predicted read footprint.
    pub reads: u32,
    /// Bound on the predicted write footprint.
    pub writes: u32,
}

impl Bounds {
    /// The largest footprints the HTM holds however its words fall: one
    /// word per line, `read_capacity` lines read and `write_sets ×
    /// write_ways` lines written.
    pub fn of_htm(htm: &HtmConfig) -> Self {
        Self::of_lines(
            htm.read_capacity,
            htm.write_sets.saturating_mul(htm.write_ways),
        )
    }

    /// One word per line of a read and a write capacity, in lines.
    pub fn of_lines(read_lines: usize, write_lines: usize) -> Self {
        let words = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        Self {
            reads: words(read_lines),
            writes: words(write_lines),
        }
    }
}

/// One class's prediction as plain values: EWMAs of committed read and
/// write footprint sizes, 24.8 fixed point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ClassState {
    ewma_reads: u32,
    ewma_writes: u32,
}

impl ClassState {
    /// Predicted footprint `(reads, writes)`, in words.
    fn predicted(self) -> (u32, u32) {
        (self.ewma_reads >> EWMA_FP, self.ewma_writes >> EWMA_FP)
    }

    /// The limited-set admission decision.
    fn admits(self, bounds: Bounds) -> bool {
        let (reads, writes) = self.predicted();
        reads <= bounds.reads && writes <= bounds.writes
    }

    /// Folds one committed footprint into the prediction.
    fn commit(self, reads: u32, writes: u32) -> Self {
        Self {
            ewma_reads: ewma(self.ewma_reads, reads),
            ewma_writes: ewma(self.ewma_writes, writes),
        }
    }
}

/// One EWMA step in 24.8 fixed point. A zero accumulator is treated as
/// unseeded and takes the sample directly (a genuinely zero-footprint
/// transaction predicts "tiny", which is the right answer anyway).
fn ewma(old: u32, sample: u32) -> u32 {
    let sample_fp = sample.saturating_mul(1 << EWMA_FP);
    if old == 0 {
        sample_fp
    } else if sample_fp >= old {
        old + ((sample_fp - old) >> EWMA_SHIFT)
    } else {
        old - ((old - sample_fp) >> EWMA_SHIFT)
    }
}

/// The router: each class's prediction in atomics, one per field, so
/// that the routes and commits of many threads update it without a lock.
/// A racing commit may lose an EWMA sample, which only perturbs the
/// prediction, never correctness. On one thread the relaxed atomics cost
/// what plain values do.
#[derive(Debug)]
pub struct Router {
    classes: Vec<[AtomicU32; 2]>,
    bounds: Bounds,
}

impl Router {
    /// A router over `classes` classes admitting under `bounds`.
    pub fn new(classes: usize, bounds: Bounds) -> Self {
        Self {
            classes: (0..classes).map(|_| Default::default()).collect(),
            bounds,
        }
    }

    pub(crate) fn n_classes(&self) -> usize {
        self.classes.len()
    }

    fn load(&self, class: usize) -> ClassState {
        let [reads, writes] = &self.classes[class];
        ClassState {
            ewma_reads: reads.load(Ordering::Relaxed),
            ewma_writes: writes.load(Ordering::Relaxed),
        }
    }

    /// Whether an attempt of `class` may take the fast path.
    pub fn admits(&self, class: usize) -> bool {
        self.load(class).admits(self.bounds)
    }

    /// Folds a committed footprint into `class`'s prediction.
    pub fn commit(&self, class: usize, reads: u32, writes: u32) {
        let next = self.load(class).commit(reads, writes);
        let [r, w] = &self.classes[class];
        r.store(next.ewma_reads, Ordering::Relaxed);
        w.store(next.ewma_writes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: Bounds = Bounds {
        reads: 64,
        writes: 16,
    };

    #[test]
    fn ewma_converges_to_constant_sample() {
        let mut cs = ClassState::default();
        for _ in 0..64 {
            cs = cs.commit(40, 40);
        }
        assert_eq!(cs.predicted(), (40, 40));
    }

    #[test]
    fn bounds_are_the_htm_capacity_in_lines() {
        assert_eq!(
            Bounds::of_htm(&HtmConfig::default()),
            Bounds {
                reads: 4096,
                writes: 512
            }
        );
    }

    #[test]
    fn big_classes_lose_eligibility_small_classes_keep_it() {
        let r = Router::new(2, BOUNDS);
        for _ in 0..8 {
            r.commit(0, 4, 2);
            r.commit(1, 500, 200);
        }
        assert!(r.admits(0));
        assert!(!r.admits(1), "footprint above bound");
        assert_eq!(r.load(0).predicted(), (4, 2));
        let (pr, pw) = r.load(1).predicted();
        assert!(pr > 64 && pw > 16, "big class predicted big");
    }
}
