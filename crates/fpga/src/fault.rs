//! Seeded fault injection for the validation service (chaos testing).
//!
//! The CPU-side ROCoCoTM protocol (commit queue, update set, `ValidTS`
//! extension) is only exercised under *pathological* FPGA timing when the
//! validator misbehaves: verdicts arrive late, requests are serviced out
//! of submission order, transactions are spuriously rejected, or the
//! validator simply stalls. On real hardware those schedules are rare and
//! unreproducible; here they are produced on demand from a seed, so the
//! `rococo-chaos` harness can drive the commit path through the exact
//! interleavings where hybrid-TM systems historically break.
//!
//! All injection happens at the *service* layer ([`super::ValidationService`],
//! on the thread that posts the request), never inside
//! [`ValidationEngine`](crate::ValidationEngine): an injected abort is
//! returned **instead of** processing the request, so the engine's
//! window/reachability state stays exactly what the CPU side observed. That
//! keeps injected faults indistinguishable from a legitimately slow or
//! conservative FPGA — the protocol must tolerate them without any
//! correctness loss.

/// Configuration of the fault injector. All probabilities are per-request
/// and drawn from a deterministic generator seeded with [`FaultConfig::seed`]
/// (decision `n` of a run is a pure function of the seed, independent of
/// wall-clock time).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the injection decision stream.
    pub seed: u64,
    /// Probability that the verdict reply is held until after the *next*
    /// message is serviced (reply reordering relative to submission).
    pub reorder_prob: f64,
    /// Probability that the validator sleeps [`FaultConfig::delay_us`]
    /// before replying (late verdict).
    pub delay_prob: f64,
    /// Verdict delay duration, microseconds.
    pub delay_us: u64,
    /// Probability of a spurious `AbortCycle` verdict (returned without
    /// consulting the engine, as a bloom-pessimistic FPGA might).
    pub spurious_cycle_prob: f64,
    /// Probability of a spurious `AbortWindowOverflow` verdict.
    pub spurious_window_prob: f64,
    /// Probability that the posting thread pauses for
    /// [`FaultConfig::pause_us`] *before* validating, under the engine's
    /// lock (stall of the whole validator).
    pub pause_prob: f64,
    /// Validator pause duration, microseconds.
    pub pause_us: u64,
}

impl FaultConfig {
    /// No injection at all (the default for production configurations).
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            reorder_prob: 0.0,
            delay_prob: 0.0,
            delay_us: 0,
            spurious_cycle_prob: 0.0,
            spurious_window_prob: 0.0,
            pause_prob: 0.0,
            pause_us: 0,
        }
    }

    /// Timing-only chaos: late, reordered and stalled verdicts, but every
    /// verdict the engine produces is delivered unchanged. Under this
    /// preset liveness properties (e.g. the irrevocability escalation
    /// bound) still hold, so harnesses can assert them.
    pub fn timing_only(seed: u64) -> Self {
        Self {
            seed,
            reorder_prob: 0.2,
            delay_prob: 0.15,
            delay_us: 30,
            spurious_cycle_prob: 0.0,
            spurious_window_prob: 0.0,
            pause_prob: 0.05,
            pause_us: 50,
        }
    }

    /// Full chaos: timing faults plus spurious abort verdicts. Safety
    /// oracles must hold; liveness bounds are off the table (an injected
    /// abort can hit even an irrevocable attempt's validation).
    pub fn aggressive(seed: u64) -> Self {
        Self {
            seed,
            spurious_cycle_prob: 0.05,
            spurious_window_prob: 0.05,
            ..Self::timing_only(seed)
        }
    }

    /// Whether any fault class has a nonzero rate.
    pub fn enabled(&self) -> bool {
        self.reorder_prob > 0.0
            || self.delay_prob > 0.0
            || self.spurious_cycle_prob > 0.0
            || self.spurious_window_prob > 0.0
            || self.pause_prob > 0.0
    }

    /// Whether verdicts can be falsified (not just delayed): spurious
    /// aborts void liveness guarantees such as the escalation bound.
    pub fn falsifies_verdicts(&self) -> bool {
        self.spurious_cycle_prob > 0.0 || self.spurious_window_prob > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

rococo_telemetry::stats_block! {
    /// Live counters of injected faults, shared between the posting
    /// threads and every [`ServiceHandle`](crate::ServiceHandle).
    pub struct FaultStats;
    /// A point-in-time copy of [`FaultStats`], surfaced by service layers
    /// so operators can tell injected chaos apart from organic aborts.
    #[derive(Copy)]
    pub struct FaultSnapshot;

    groups {
        "rococo_faults_injected_total", "Faults injected into the validation service, by class" {
            /// Verdict replies delayed.
            pub(crate) delayed: kind = "delay";
            /// Requests serviced out of submission order.
            pub(crate) reordered: kind = "reorder";
            /// Spurious `AbortCycle` verdicts injected.
            pub(crate) spurious_cycle: kind = "spurious-cycle";
            /// Spurious `AbortWindowOverflow` verdicts injected.
            pub(crate) spurious_window: kind = "spurious-window";
            /// Validator stalls injected.
            pub(crate) pauses: kind = "pause";
        }
    }
}

impl FaultSnapshot {
    /// Total injected faults of every class.
    pub fn total(&self) -> u64 {
        self.delayed + self.reordered + self.spurious_cycle + self.spurious_window + self.pauses
    }

    /// Spurious abort verdicts of either kind.
    pub fn spurious_aborts(&self) -> u64 {
        self.spurious_cycle + self.spurious_window
    }
}

/// The deterministic decision stream: an xoshiro-class generator owned by
/// the validation service. Independent of the `rand` shim so the decision
/// sequence is stable even if the workload generators evolve.
#[derive(Debug, Clone)]
pub(crate) struct FaultRng {
    s: [u64; 2],
}

impl FaultRng {
    pub(crate) fn new(seed: u64) -> Self {
        // splitmix64 expansion of the seed (never all-zero state).
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next() | 1],
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xoroshiro128+ step.
        let s0 = self.s[0];
        let mut s1 = self.s[1];
        let out = s0.wrapping_add(s1);
        s1 ^= s0;
        self.s[0] = s0.rotate_left(24) ^ s1 ^ (s1 << 16);
        self.s[1] = s1.rotate_left(37);
        out
    }

    /// Bernoulli draw with probability `p`.
    pub(crate) fn hit(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn disabled_config_injects_nothing() {
        let cfg = FaultConfig::disabled();
        assert!(!cfg.enabled());
        assert!(!cfg.falsifies_verdicts());
        let mut rng = FaultRng::new(1);
        for _ in 0..1000 {
            assert!(!rng.hit(cfg.delay_prob));
        }
    }

    #[test]
    fn decision_stream_is_deterministic() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let draws_a: Vec<bool> = (0..256).map(|_| a.hit(0.3)).collect();
        let draws_b: Vec<bool> = (0..256).map(|_| b.hit(0.3)).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|&d| d));
        assert!(draws_a.iter().any(|&d| !d));
    }

    #[test]
    fn presets_classify_correctly() {
        assert!(FaultConfig::timing_only(7).enabled());
        assert!(!FaultConfig::timing_only(7).falsifies_verdicts());
        assert!(FaultConfig::aggressive(7).falsifies_verdicts());
    }

    #[test]
    fn snapshot_totals() {
        let s = FaultStats::default();
        s.delayed.store(2, Ordering::Relaxed);
        s.spurious_cycle.store(3, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.total(), 5);
        assert_eq!(snap.spurious_aborts(), 3);
    }
}
