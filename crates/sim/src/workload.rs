//! Workloads: phase-structured, priced transaction traces for the
//! simulator.

use crate::cost::SeqCost;
use rococo_stm::TxnRecord;

/// One transaction as the simulator replays it: its footprint and its
/// sequential price.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PricedTxn {
    /// Deduplicated read set.
    pub reads: Vec<u64>,
    /// Deduplicated write set.
    pub writes: Vec<u64>,
    /// What the transaction costs on the sequential machine, nanoseconds.
    pub seq_ns: f64,
}

/// A phase-structured transaction trace.
///
/// Phases correspond to barrier-separated parallel regions of the source
/// application (kmeans iterations, genome's three phases, …): the
/// simulator drains one phase completely before starting the next, exactly
/// like the application's barriers do.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// Transactions per phase, in commit order.
    pub phases: Vec<Vec<PricedTxn>>,
}

impl Workload {
    /// Builds a workload from recorded footprints, pricing each one once
    /// with `cost`: records are grouped by their phase epoch, keeping only
    /// odd epochs (transactions inside marked parallel phases). Records
    /// outside a marked phase — setup and validation work, or a log
    /// recorded without phase markers — are dropped.
    pub fn from_records<I: IntoIterator<Item = TxnRecord>>(records: I, cost: SeqCost) -> Self {
        let mut phases: Vec<Vec<PricedTxn>> = Vec::new();
        let mut current_epoch = u64::MAX;
        for r in records {
            if r.epoch % 2 == 0 {
                continue;
            }
            if r.epoch != current_epoch {
                current_epoch = r.epoch;
                phases.push(Vec::new());
            }
            let seq_ns = cost.price(r.reads.len(), r.writes.len());
            phases
                .last_mut()
                .expect("phase pushed on epoch change")
                .push(PricedTxn {
                    reads: r.reads,
                    writes: r.writes,
                    seq_ns,
                });
        }
        Self { phases }
    }

    /// Total number of transactions.
    pub fn len(&self) -> usize {
        self.phases.iter().map(Vec::len).sum()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequential execution time: the sum of the transactions' prices (the
    /// STAMP sequential baseline of Figure 10).
    pub fn sequential_ns(&self) -> f64 {
        self.phases.iter().flatten().map(|t| t.seq_ns).sum()
    }

    /// Mean footprint sizes `(reads, writes)` — used by reports.
    pub fn mean_footprint(&self) -> (f64, f64) {
        let n = self.len().max(1) as f64;
        let r: usize = self.phases.iter().flatten().map(|t| t.reads.len()).sum();
        let w: usize = self.phases.iter().flatten().map(|t| t.writes.len()).sum();
        (r as f64 / n, w as f64 / n)
    }

    /// Fraction of read-only transactions.
    pub fn read_only_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let ro = self
            .phases
            .iter()
            .flatten()
            .filter(|t| t.writes.is_empty())
            .count();
        ro as f64 / self.len() as f64
    }
}

impl FromIterator<PricedTxn> for Workload {
    /// Collects loose transactions into a single-phase workload (test
    /// helper).
    fn from_iter<I: IntoIterator<Item = PricedTxn>>(iter: I) -> Self {
        Self {
            phases: vec![iter.into_iter().collect()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COST: SeqCost = SeqCost {
        base_ns: 70.0,
        access_ns: 15.0,
    };

    fn rec(epoch: u64) -> TxnRecord {
        TxnRecord {
            reads: vec![1],
            writes: vec![2],
            epoch,
        }
    }

    #[test]
    fn groups_by_odd_epochs() {
        let w = Workload::from_records(
            vec![
                rec(0), // setup: dropped
                rec(1),
                rec(1),
                rec(2), // between phases: dropped
                rec(3),
                rec(4), // validation: dropped
            ],
            COST,
        );
        assert_eq!(w.phases.len(), 2);
        assert_eq!(w.phases[0].len(), 2);
        assert_eq!(w.phases[1].len(), 1);
        assert_eq!(w.len(), 3);
        assert!((w.sequential_ns() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_ns_is_the_sum_of_the_counted_prices() {
        let footprints = [(0usize, 1usize), (3, 0), (5, 2), (40, 9), (1, 1)];
        let records = footprints.iter().map(|&(r, w)| TxnRecord {
            reads: (0..r as u64).collect(),
            writes: (100..100 + w as u64).collect(),
            epoch: 1,
        });
        let w = Workload::from_records(records, COST);
        let expected: f64 = footprints
            .iter()
            .map(|&(r, w)| COST.base_ns + COST.access_ns * (r + w) as f64)
            .sum();
        assert_eq!(w.sequential_ns(), expected);
        assert_eq!(w.phases[0][3].seq_ns, 70.0 + 15.0 * 49.0);
    }

    #[test]
    fn stats_helpers() {
        let mut all = vec![rec(1); 3];
        all.push(TxnRecord {
            reads: vec![1, 2, 3],
            writes: vec![],
            epoch: 1,
        });
        let w = Workload::from_records(all, COST);
        assert!((w.read_only_fraction() - 0.25).abs() < 1e-9);
        let (r, _w) = w.mean_footprint();
        assert!(r > 1.0);
    }
}
