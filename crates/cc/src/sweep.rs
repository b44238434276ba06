//! Parameter sweeps for the Figure 9 experiment.

use crate::engine::run_policy;
use crate::policies::{CcPolicy, Rococo, Tocc, TwoPhaseLocking};
use rococo_trace::{eigen_trace, EigenConfig};

/// One Figure 9 data point: mean abort rates of the three CC algorithms at
/// one (`N`, `T`) setting, averaged over seeded traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Point {
    /// Locations accessed per transaction (`N`).
    pub accesses: usize,
    /// Concurrency level (`T`).
    pub concurrency: usize,
    /// Analytic pairwise collision rate `1 − (1 − N/1024)^N`.
    pub collision_rate: f64,
    /// Mean abort rate of 2PL.
    pub abort_2pl: f64,
    /// Mean abort rate of TOCC.
    pub abort_tocc: f64,
    /// Mean abort rate of ROCoCo.
    pub abort_rococo: f64,
}

/// Parameters of a Figure 9 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Config {
    /// Access counts to sweep (the paper uses 4, 8, …, 32).
    pub access_counts: Vec<usize>,
    /// Concurrency levels (the paper uses 4 and 16).
    pub concurrency_levels: Vec<usize>,
    /// Seeded traces per point (the paper uses 50).
    pub seeds: u64,
    /// Transactions per trace.
    pub transactions: usize,
    /// ROCoCo sliding-window capacity.
    pub window: usize,
}

impl Default for Fig9Config {
    fn default() -> Self {
        Self {
            access_counts: (1..=8).map(|i| i * 4).collect(),
            concurrency_levels: vec![4, 16],
            seeds: 50,
            transactions: 1000,
            window: 64,
        }
    }
}

/// Computes one Figure 9 point: replays `seeds` traces at (`accesses`, `T`)
/// under all three policies and averages the abort rates.
pub fn fig9_point(
    accesses: usize,
    concurrency: usize,
    seeds: u64,
    transactions: usize,
    window: usize,
) -> Fig9Point {
    let cfg = EigenConfig {
        accesses,
        transactions,
        ..EigenConfig::default()
    };
    let mut sums = [0.0f64; 3];
    for seed in 0..seeds {
        let trace = eigen_trace(&cfg, seed);
        let mut policies: [&mut dyn CcPolicy; 3] = [
            &mut TwoPhaseLocking::new(),
            &mut Tocc::new(),
            &mut Rococo::with_window(window),
        ];
        for (i, p) in policies.iter_mut().enumerate() {
            sums[i] += run_policy(*p, &trace, concurrency).stats.abort_rate();
        }
    }
    let n = seeds as f64;
    Fig9Point {
        accesses,
        concurrency,
        collision_rate: cfg.collision_rate(),
        abort_2pl: sums[0] / n,
        abort_tocc: sums[1] / n,
        abort_rococo: sums[2] / n,
    }
}

/// Runs the full Figure 9 sweep.
pub fn fig9_sweep(cfg: &Fig9Config) -> Vec<Fig9Point> {
    let mut out = Vec::new();
    for &t in &cfg.concurrency_levels {
        for &n in &cfg.access_counts {
            out.push(fig9_point(n, t, cfg.seeds, cfg.transactions, cfg.window));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_orders_policies() {
        let p = fig9_point(16, 16, 5, 400, 64);
        assert!(p.abort_rococo <= p.abort_tocc + 1e-9);
        assert!(p.abort_tocc <= p.abort_2pl + 1e-9);
        assert!(p.collision_rate > 0.0);
    }

    #[test]
    fn gap_grows_with_concurrency() {
        // Section 6.1: at T = 4 ROCoCo is only slightly better than TOCC;
        // at T = 16 the gap is larger.
        let lo = fig9_point(16, 4, 8, 500, 64);
        let hi = fig9_point(16, 16, 8, 500, 64);
        let gap_lo = lo.abort_tocc - lo.abort_rococo;
        let gap_hi = hi.abort_tocc - hi.abort_rococo;
        assert!(
            gap_hi >= gap_lo,
            "gap should grow with T: {gap_lo} vs {gap_hi}"
        );
    }

    #[test]
    fn sweep_covers_grid() {
        let cfg = Fig9Config {
            access_counts: vec![4, 8],
            concurrency_levels: vec![4],
            seeds: 2,
            transactions: 100,
            window: 64,
        };
        let points = fig9_sweep(&cfg);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].accesses, 4);
        assert_eq!(points[1].accesses, 8);
    }
}
