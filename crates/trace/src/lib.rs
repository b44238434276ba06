//! Synthetic transactional workload traces.
//!
//! Reproduces the micro-benchmark of the paper's section 6.1 — "a simple
//! synthetic micro-benchmark similar to EigenBench" — plus more general
//! trace generators used by ablation studies:
//!
//! * [`EigenConfig`] / [`eigen_trace`] — transactions over a 1024-slot
//!   array, each accessing `N` distinct locations with 50 % reads and 50 %
//!   writes; for two transactions the probability of at least one collision
//!   is `1 − (1 − N/1024)^N` ([`EigenConfig::collision_rate`]).
//! * [`ZipfConfig`] / [`zipf_trace`] — skewed-access traces for contention
//!   studies.
//! * [`Trace`] — a sequence of transaction footprints.
//!
//! # Example
//!
//! ```
//! use rococo_trace::{eigen_trace, EigenConfig};
//!
//! let cfg = EigenConfig { locations: 1024, accesses: 8, ..EigenConfig::default() };
//! let trace = eigen_trace(&cfg, 42);
//! assert_eq!(trace.len(), cfg.transactions);
//! assert!((0.0..=1.0).contains(&cfg.collision_rate()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One transactional operation in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read the object at the given address.
    Read(u64),
    /// Write the object at the given address.
    Write(u64),
}

impl Op {
    /// The accessed address.
    pub fn addr(&self) -> u64 {
        match *self {
            Op::Read(a) | Op::Write(a) => a,
        }
    }

    /// Whether the operation is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write(_))
    }
}

/// The recorded operations of a single transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnTrace {
    /// Operations in program order.
    pub ops: Vec<Op>,
}

impl TxnTrace {
    /// Addresses read (deduplicated, insertion order).
    pub fn read_set(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for op in &self.ops {
            if let Op::Read(a) = *op {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Addresses written (deduplicated, insertion order).
    pub fn write_set(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for op in &self.ops {
            if let Op::Write(a) = *op {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Whether the transaction performs no writes.
    pub fn is_read_only(&self) -> bool {
        self.ops.iter().all(|op| !op.is_write())
    }

    /// Whether this transaction's footprint collides with `other`'s — i.e.
    /// they access at least one common location with at least one side
    /// writing.
    pub fn collides_with(&self, other: &TxnTrace) -> bool {
        for a in &self.ops {
            for b in &other.ops {
                if a.addr() == b.addr() && (a.is_write() || b.is_write()) {
                    return true;
                }
            }
        }
        false
    }
}

/// A sequence of transactions, in the order they arrive for execution.
pub type Trace = Vec<TxnTrace>;

/// Configuration of the EigenBench-like micro-benchmark (section 6.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EigenConfig {
    /// Size of the shared array (the paper uses 1024 memory locations).
    pub locations: u64,
    /// Number of locations each transaction accesses (`N`; the paper sweeps
    /// 4, 8, …, 32).
    pub accesses: usize,
    /// Fraction of accesses that are reads (the paper uses 0.5).
    pub read_fraction: f64,
    /// Number of transactions per trace.
    pub transactions: usize,
}

impl Default for EigenConfig {
    fn default() -> Self {
        Self {
            locations: 1024,
            accesses: 8,
            read_fraction: 0.5,
            transactions: 1000,
        }
    }
}

impl EigenConfig {
    /// The paper's analytic pairwise collision rate
    /// `1 − (1 − N/L)^N`: the probability that two transactions touch at
    /// least one common location.
    pub fn collision_rate(&self) -> f64 {
        1.0 - (1.0 - self.accesses as f64 / self.locations as f64).powi(self.accesses as i32)
    }
}

/// Generates one seeded trace of the micro-benchmark: each transaction
/// accesses [`EigenConfig::accesses`] *distinct* uniformly random locations,
/// each independently a read or a write per
/// [`EigenConfig::read_fraction`].
///
/// # Panics
///
/// Panics if `accesses > locations` or `read_fraction` is outside `[0, 1]`.
pub fn eigen_trace(cfg: &EigenConfig, seed: u64) -> Trace {
    assert!(
        (cfg.accesses as u64) <= cfg.locations,
        "cannot pick {} distinct locations out of {}",
        cfg.accesses,
        cfg.locations
    );
    assert!(
        (0.0..=1.0).contains(&cfg.read_fraction),
        "read_fraction must be a probability"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cfg.transactions)
        .map(|_| {
            let mut chosen: Vec<u64> = Vec::with_capacity(cfg.accesses);
            while chosen.len() < cfg.accesses {
                let a = rng.gen_range(0..cfg.locations);
                if !chosen.contains(&a) {
                    chosen.push(a);
                }
            }
            let ops = chosen
                .into_iter()
                .map(|a| {
                    if rng.gen_bool(cfg.read_fraction) {
                        Op::Read(a)
                    } else {
                        Op::Write(a)
                    }
                })
                .collect();
            TxnTrace { ops }
        })
        .collect()
}

/// Configuration of a skewed (Zipf-like) trace generator, used by ablation
/// studies to model hot-spot contention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfConfig {
    /// Number of addressable locations.
    pub locations: u64,
    /// Zipf exponent (0 = uniform; around 0.8–1.2 = realistic skew).
    pub theta: f64,
    /// Number of accesses per transaction.
    pub accesses: usize,
    /// Fraction of accesses that are reads.
    pub read_fraction: f64,
    /// Number of transactions.
    pub transactions: usize,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        Self {
            locations: 1024,
            theta: 0.9,
            accesses: 8,
            read_fraction: 0.5,
            transactions: 1000,
        }
    }
}

/// A small Zipf sampler over `0..n` with exponent `theta`, built on
/// Walker's alias method: O(n) precomputation, O(1) per sample.
///
/// The previous inverse-CDF implementation binary-searched a cumulative
/// table per draw — ~log2(n) dependent cache misses that, with the load
/// generator sharing cores with the service under test, showed up as
/// measured service throughput. The alias method draws with one table
/// lookup and one comparison.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Probability of keeping slot `i` (vs. redirecting to `alias[i]`),
    /// scaled so a uniform draw in `[0, 1)` can be compared directly.
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` items with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n` exceeds `u32::MAX`, or `theta < 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(n <= u64::from(u32::MAX), "domain too large for alias table");
        assert!(theta >= 0.0, "theta must be non-negative");
        let n = n as usize;
        let mut weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        // Scale so the mean bucket weight is exactly 1.
        let scale = n as f64 / total;
        for w in &mut weights {
            *w *= scale;
        }
        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        // Vose's stable construction: pair an under-full bucket with an
        // over-full one until both worklists drain.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            if w < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s as usize] = weights[s as usize];
            alias[s as usize] = l;
            weights[l as usize] -= 1.0 - weights[s as usize];
            if weights[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Residual buckets (floating-point dust) keep prob = 1.
        Self { prob, alias }
    }
}

impl Distribution<u64> for ZipfSampler {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let scaled = u * self.prob.len() as f64;
        let i = (scaled as usize).min(self.prob.len() - 1);
        // Reuse the fractional part as the keep/redirect coin: it is
        // independent of the bucket index in distribution.
        let coin = scaled - i as f64;
        if coin < self.prob[i] {
            i as u64
        } else {
            u64::from(self.alias[i])
        }
    }
}

/// Generates a seeded skewed trace. Locations within a transaction are
/// deduplicated (re-sampled on repeats).
///
/// # Panics
///
/// Panics if `accesses > locations` or `read_fraction` is outside `[0, 1]`.
pub fn zipf_trace(cfg: &ZipfConfig, seed: u64) -> Trace {
    assert!(
        (cfg.accesses as u64) <= cfg.locations,
        "cannot pick {} distinct locations out of {}",
        cfg.accesses,
        cfg.locations
    );
    assert!(
        (0.0..=1.0).contains(&cfg.read_fraction),
        "read_fraction must be a probability"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = ZipfSampler::new(cfg.locations, cfg.theta);
    (0..cfg.transactions)
        .map(|_| {
            let mut chosen: Vec<u64> = Vec::with_capacity(cfg.accesses);
            while chosen.len() < cfg.accesses {
                let a = sampler.sample(&mut rng);
                if !chosen.contains(&a) {
                    chosen.push(a);
                }
            }
            let ops = chosen
                .into_iter()
                .map(|a| {
                    if rng.gen_bool(cfg.read_fraction) {
                        Op::Read(a)
                    } else {
                        Op::Write(a)
                    }
                })
                .collect();
            TxnTrace { ops }
        })
        .collect()
}

/// Measures the *empirical* pairwise collision rate of a trace by sampling
/// `pairs` random transaction pairs. Used by tests to confirm generated
/// traces match [`EigenConfig::collision_rate`].
///
/// # Panics
///
/// Panics if the trace holds fewer than two transactions.
pub fn empirical_collision_rate(trace: &Trace, pairs: usize, seed: u64) -> f64 {
    assert!(trace.len() >= 2, "need at least two transactions");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut collisions = 0usize;
    for _ in 0..pairs {
        let i = rng.gen_range(0..trace.len());
        let mut j = rng.gen_range(0..trace.len());
        while j == i {
            j = rng.gen_range(0..trace.len());
        }
        // "Collision" in the paper counts any common location (its formula
        // has no read/write distinction).
        let a = &trace[i];
        let b = &trace[j];
        let hit = a
            .ops
            .iter()
            .any(|x| b.ops.iter().any(|y| x.addr() == y.addr()));
        if hit {
            collisions += 1;
        }
    }
    collisions as f64 / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eigen_shapes() {
        let cfg = EigenConfig {
            accesses: 12,
            transactions: 50,
            ..EigenConfig::default()
        };
        let trace = eigen_trace(&cfg, 7);
        assert_eq!(trace.len(), 50);
        for t in &trace {
            assert_eq!(t.ops.len(), 12);
            let mut addrs: Vec<u64> = t.ops.iter().map(|o| o.addr()).collect();
            addrs.sort_unstable();
            addrs.dedup();
            assert_eq!(addrs.len(), 12, "locations must be distinct");
        }
    }

    #[test]
    fn eigen_is_deterministic_per_seed() {
        let cfg = EigenConfig::default();
        assert_eq!(eigen_trace(&cfg, 1), eigen_trace(&cfg, 1));
        assert_ne!(eigen_trace(&cfg, 1), eigen_trace(&cfg, 2));
    }

    #[test]
    fn collision_rate_matches_paper_sweep() {
        // The paper: N = 4..32 corresponds to 1.5 % – 63.8 %.
        let lo = EigenConfig {
            accesses: 4,
            ..EigenConfig::default()
        };
        let hi = EigenConfig {
            accesses: 32,
            ..EigenConfig::default()
        };
        assert!((lo.collision_rate() - 0.0155).abs() < 0.002);
        assert!((hi.collision_rate() - 0.638).abs() < 0.005);
    }

    #[test]
    fn empirical_collision_tracks_analytic() {
        let cfg = EigenConfig {
            accesses: 16,
            transactions: 400,
            ..EigenConfig::default()
        };
        let trace = eigen_trace(&cfg, 3);
        let emp = empirical_collision_rate(&trace, 20_000, 4);
        let ana = cfg.collision_rate();
        assert!(
            (emp - ana).abs() < 0.05,
            "empirical {emp} vs analytic {ana}"
        );
    }

    #[test]
    fn read_write_sets() {
        let t = TxnTrace {
            ops: vec![
                Op::Read(1),
                Op::Write(2),
                Op::Read(1),
                Op::Write(2),
                Op::Read(3),
            ],
        };
        assert_eq!(t.read_set(), vec![1, 3]);
        assert_eq!(t.write_set(), vec![2]);
        assert!(!t.is_read_only());
        assert!(TxnTrace {
            ops: vec![Op::Read(9)]
        }
        .is_read_only());
    }

    #[test]
    fn collides_requires_a_write() {
        let r = TxnTrace {
            ops: vec![Op::Read(5)],
        };
        let r2 = TxnTrace {
            ops: vec![Op::Read(5)],
        };
        let w = TxnTrace {
            ops: vec![Op::Write(5)],
        };
        assert!(!r.collides_with(&r2), "read-read is not a collision");
        assert!(r.collides_with(&w));
        assert!(w.collides_with(&r));
    }

    #[test]
    fn zipf_skews_towards_small_indices() {
        let cfg = ZipfConfig {
            theta: 1.2,
            transactions: 300,
            ..ZipfConfig::default()
        };
        let trace = zipf_trace(&cfg, 11);
        let hot = trace
            .iter()
            .flat_map(|t| t.ops.iter())
            .filter(|o| o.addr() < 16)
            .count();
        let total: usize = trace.iter().map(|t| t.ops.len()).sum();
        assert!(
            hot as f64 / total as f64 > 0.2,
            "expected hot head: {hot}/{total}"
        );
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let s = ZipfSampler::new(100, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[s.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 2.0, "uniform-ish expected: {min}..{max}");
    }

    #[test]
    #[should_panic(expected = "distinct locations")]
    fn rejects_oversized_access_count() {
        let cfg = EigenConfig {
            locations: 4,
            accesses: 5,
            ..EigenConfig::default()
        };
        let _ = eigen_trace(&cfg, 0);
    }
}
