//! Footprint prediction and HTM-admission hysteresis.
//!
//! The router implements the limited-set admission rule of the hybrid-TM
//! literature (Kafousis et al.): a transaction may take the best-effort
//! HTM fast path only if its *predicted* read and write footprints fit
//! under bounds derived from the hardware capacity. Prediction is an
//! EWMA of observed per-commit footprints keyed by the caller-supplied
//! scheduling class ([`rococo_stm::TmSystem::set_tx_class`]); classes
//! that repeatedly blow the capacity anyway are banned from the fast
//! path for an exponentially growing cooldown (hysteresis), so a
//! mispredicted class cannot oscillate between capacity-abort storms and
//! re-admission.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Fixed-point shift of the EWMA accumulators (value = accumulator >> 8).
const EWMA_FP: u32 = 8;
/// EWMA smoothing: new = old + (sample - old) / 2^EWMA_SHIFT.
const EWMA_SHIFT: u32 = 2;
/// Cap on the exponential ban-streak backoff: a ban lasts at most
/// `cooldown << MAX_STREAK_SHIFT` ticks.
const MAX_STREAK_SHIFT: u32 = 6;

/// The pure hysteresis rule, factored out of the per-class atomics so it
/// can be property-tested: cooldowns are *monotone* — banning a class
/// again can only push its re-admission time further out, never pull it
/// in, and while `now < cooldown_until` the class is never admitted.
#[derive(Debug, Clone, Copy)]
pub struct Hysteresis {
    /// Capacity aborts tolerated before a ban.
    pub strike_limit: u32,
    /// Base cooldown length, in router-clock ticks (one tick per route).
    pub cooldown: u64,
}

impl Hysteresis {
    /// The cooldown deadline after one more ban at tick `now` with the
    /// given consecutive-ban streak, merged with the current deadline.
    /// Monotone in `current_until` by construction (`max`).
    pub fn ban(&self, now: u64, streak: u32, current_until: u64) -> u64 {
        let len = self
            .cooldown
            .saturating_mul(1u64 << streak.min(MAX_STREAK_SHIFT));
        current_until.max(now.saturating_add(len.max(1)))
    }

    /// Whether a class with the given deadline may be admitted at `now`.
    pub fn admitted(&self, now: u64, cooldown_until: u64) -> bool {
        now >= cooldown_until
    }
}

/// Per-class router state. All fields are atomics updated from commit
/// and abort bookkeeping paths; approximate races (a lost EWMA update, a
/// strike counted twice) only perturb the prediction, never correctness.
#[derive(Debug, Default)]
pub(crate) struct ClassState {
    /// EWMA of committed read-footprint sizes, 24.8 fixed point.
    ewma_reads: AtomicU32,
    /// EWMA of committed write-footprint sizes, 24.8 fixed point.
    ewma_writes: AtomicU32,
    /// Capacity aborts since the last ban or fast-path commit.
    strikes: AtomicU32,
    /// Consecutive bans (exponent of the cooldown backoff).
    ban_streak: AtomicU32,
    /// Router-clock tick before which the class stays off the fast path.
    cooldown_until: AtomicU64,
}

/// The router: per-class prediction state plus the adaptive admission
/// bounds the feedback loop tunes online.
#[derive(Debug)]
pub(crate) struct Router {
    classes: Vec<ClassState>,
    hysteresis: Hysteresis,
    /// Admission bound on the predicted read footprint, in words.
    read_bound: AtomicU32,
    /// Admission bound on the predicted write footprint, in words.
    write_bound: AtomicU32,
    /// Configured ceilings the feedback loop may grow back toward.
    read_bound_cap: u32,
    write_bound_cap: u32,
}

impl Router {
    pub(crate) fn new(
        classes: usize,
        hysteresis: Hysteresis,
        read_bound: u32,
        write_bound: u32,
    ) -> Self {
        Self {
            classes: (0..classes).map(|_| ClassState::default()).collect(),
            hysteresis,
            read_bound: AtomicU32::new(read_bound),
            write_bound: AtomicU32::new(write_bound),
            read_bound_cap: read_bound,
            write_bound_cap: write_bound,
        }
    }

    pub(crate) fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// The limited-set admission decision for `class` at tick `now`.
    pub(crate) fn htm_eligible(&self, class: usize, now: u64) -> bool {
        let cs = &self.classes[class];
        if !self
            .hysteresis
            .admitted(now, cs.cooldown_until.load(Ordering::Relaxed))
        {
            return false;
        }
        let reads = cs.ewma_reads.load(Ordering::Relaxed) >> EWMA_FP;
        let writes = cs.ewma_writes.load(Ordering::Relaxed) >> EWMA_FP;
        reads <= self.read_bound.load(Ordering::Relaxed)
            && writes <= self.write_bound.load(Ordering::Relaxed)
    }

    /// Folds one committed footprint sample into the class prediction.
    /// `on_htm` commits also clear the strike counter — the class fits.
    pub(crate) fn record_commit(&self, class: usize, reads: u32, writes: u32, on_htm: bool) {
        let cs = &self.classes[class];
        ewma_update(&cs.ewma_reads, reads);
        ewma_update(&cs.ewma_writes, writes);
        if on_htm {
            cs.strikes.store(0, Ordering::Relaxed);
        }
    }

    /// Records one HTM capacity abort; returns `true` when this strike
    /// banned the class (caller counts it and emits telemetry).
    pub(crate) fn record_capacity(&self, class: usize, now: u64) -> bool {
        let cs = &self.classes[class];
        let strikes = cs.strikes.fetch_add(1, Ordering::Relaxed) + 1;
        if strikes < self.hysteresis.strike_limit {
            return false;
        }
        cs.strikes.store(0, Ordering::Relaxed);
        let streak = cs.ban_streak.fetch_add(1, Ordering::Relaxed);
        let until = self
            .hysteresis
            .ban(now, streak, cs.cooldown_until.load(Ordering::Relaxed));
        cs.cooldown_until.fetch_max(until, Ordering::Relaxed);
        true
    }

    /// Feedback step: capacity pressure since the last step shrinks the
    /// admission bounds multiplicatively; a quiet interval grows them
    /// additively back toward the configured caps (AIMD). Expired
    /// cooldowns also bleed the ban streak so an old offender is not
    /// punished forever.
    pub(crate) fn adapt_bounds(&self, capacity_delta: u64, now: u64) {
        let step = |bound: &AtomicU32, cap: u32| {
            let b = bound.load(Ordering::Relaxed);
            let next = if capacity_delta > 0 {
                (b - b / 4).max(4)
            } else {
                (b + b / 8 + 1).min(cap)
            };
            bound.store(next, Ordering::Relaxed);
        };
        step(&self.read_bound, self.read_bound_cap);
        step(&self.write_bound, self.write_bound_cap);
        for cs in &self.classes {
            if self
                .hysteresis
                .admitted(now, cs.cooldown_until.load(Ordering::Relaxed))
            {
                let s = cs.ban_streak.load(Ordering::Relaxed);
                cs.ban_streak.store(s / 2, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn read_bound(&self) -> u32 {
        self.read_bound.load(Ordering::Relaxed)
    }

    pub(crate) fn write_bound(&self) -> u32 {
        self.write_bound.load(Ordering::Relaxed)
    }

    /// Predicted (EWMA) footprint of a class, in words — for tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn predicted(&self, class: usize) -> (u32, u32) {
        let cs = &self.classes[class];
        (
            cs.ewma_reads.load(Ordering::Relaxed) >> EWMA_FP,
            cs.ewma_writes.load(Ordering::Relaxed) >> EWMA_FP,
        )
    }
}

/// One EWMA step in 24.8 fixed point. A zero accumulator is treated as
/// unseeded and takes the sample directly (a genuinely zero-footprint
/// transaction predicts "tiny", which is the right answer anyway).
fn ewma_update(acc: &AtomicU32, sample: u32) {
    let sample_fp = sample.saturating_mul(1 << EWMA_FP);
    let old = acc.load(Ordering::Relaxed);
    let new = if old == 0 {
        sample_fp
    } else if sample_fp >= old {
        old + ((sample_fp - old) >> EWMA_SHIFT)
    } else {
        old - ((old - sample_fp) >> EWMA_SHIFT)
    };
    acc.store(new, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ewma_converges_to_constant_sample() {
        let acc = AtomicU32::new(0);
        for _ in 0..64 {
            ewma_update(&acc, 40);
        }
        assert_eq!(acc.load(Ordering::Relaxed) >> EWMA_FP, 40);
    }

    #[test]
    fn big_classes_lose_eligibility_small_classes_keep_it() {
        let h = Hysteresis {
            strike_limit: 3,
            cooldown: 16,
        };
        let r = Router::new(2, h, 64, 16);
        for _ in 0..8 {
            r.record_commit(0, 4, 2, false);
            r.record_commit(1, 500, 200, false);
        }
        assert!(r.htm_eligible(0, 100));
        assert!(!r.htm_eligible(1, 100), "footprint above bound");
        let (pr, pw) = r.predicted(0);
        assert!(pr <= 64 && pw <= 16, "small class predicted small");
        let (pr, pw) = r.predicted(1);
        assert!(pr > 64 && pw > 16, "big class predicted big");
    }

    #[test]
    fn strikes_ban_and_cooldown_expires() {
        let h = Hysteresis {
            strike_limit: 2,
            cooldown: 10,
        };
        let r = Router::new(1, h, 64, 16);
        assert!(!r.record_capacity(0, 5));
        assert!(r.record_capacity(0, 5), "second strike bans");
        assert!(!r.htm_eligible(0, 6));
        assert!(!r.htm_eligible(0, 14));
        assert!(
            r.htm_eligible(0, 15),
            "cooldown 10 from tick 5 expires at 15"
        );
    }

    proptest! {
        /// The satellite property: hysteresis is monotone. However a
        /// class is denied (banned) repeatedly, its re-admission deadline
        /// never moves earlier, and it is never admitted before the
        /// deadline standing at that moment.
        #[test]
        fn hysteresis_is_monotone(
            cooldown in 1u64..1_000,
            strike_limit in 1u32..8,
            bans in proptest::prop::collection::vec((0u64..10_000, 0u32..12), 1..40),
        ) {
            let h = Hysteresis { strike_limit, cooldown };
            let mut until = 0u64;
            let mut now = 0u64;
            for (advance, streak) in bans {
                now = now.saturating_add(advance);
                let next = h.ban(now, streak, until);
                // Deadlines only ever move out.
                prop_assert!(next >= until);
                // A ban at `now` always denies at least one future tick.
                prop_assert!(next > now);
                until = next;
                // Denied for every tick strictly before the deadline.
                prop_assert!(!h.admitted(until - 1, until));
                prop_assert!(h.admitted(until, until));
            }
            // A longer streak never shortens the deadline either.
            let base = h.ban(now, 0, until);
            for s in 1..10u32 {
                prop_assert!(h.ban(now, s, until) >= base);
            }
        }

        /// Router-level restatement: after a ban at tick `t`, the class
        /// is ineligible at every tick in `[t, deadline)` regardless of
        /// how many further capacity strikes land in between.
        #[test]
        fn banned_class_stays_out_for_the_full_cooldown(
            cooldown in 1u64..200,
            extra_strikes in 0usize..20,
        ) {
            let h = Hysteresis { strike_limit: 1, cooldown };
            let r = Router::new(1, h, 64, 16);
            prop_assert!(r.record_capacity(0, 0));
            let deadline = cooldown.max(1);
            for i in 0..extra_strikes {
                r.record_capacity(0, (i as u64) % deadline);
            }
            for t in 0..deadline {
                prop_assert!(!r.htm_eligible(0, t));
            }
        }
    }
}
