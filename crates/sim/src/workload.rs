//! Workloads: phase-structured transaction traces for the simulator.

use rococo_stm::TxnRecord;

/// A phase-structured transaction trace.
///
/// Phases correspond to barrier-separated parallel regions of the source
/// application (kmeans iterations, genome's three phases, …): the
/// simulator drains one phase completely before starting the next, exactly
/// like the application's barriers do.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// Transactions per phase, in commit order.
    pub phases: Vec<Vec<TxnRecord>>,
}

impl Workload {
    /// Builds a workload from a recording-wrapper log: records are grouped
    /// by their phase epoch, keeping only odd epochs (transactions inside
    /// marked parallel phases; setup and validation work is even-epoch).
    pub fn from_records<I: IntoIterator<Item = TxnRecord>>(records: I) -> Self {
        let mut phases: Vec<Vec<TxnRecord>> = Vec::new();
        let mut current_epoch = u64::MAX;
        for r in records {
            if r.epoch % 2 == 0 {
                continue;
            }
            if r.epoch != current_epoch {
                current_epoch = r.epoch;
                phases.push(Vec::new());
            }
            phases
                .last_mut()
                .expect("phase pushed on epoch change")
                .push(r);
        }
        // A workload recorded without phase markers (e.g. synthesised in
        // tests): treat everything as one phase.
        if phases.is_empty() {
            return Self { phases: Vec::new() };
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

    /// Recorded sequential execution time: the sum of measured per-
    /// transaction times (the STAMP sequential baseline of Figure 10).
    pub fn sequential_ns(&self) -> f64 {
        self.phases.iter().flatten().map(|r| r.exec_ns).sum()
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
            .filter(|t| t.is_read_only())
            .count();
        ro as f64 / self.len() as f64
    }
}

impl FromIterator<TxnRecord> for Workload {
    /// Collects loose records into a single-phase workload (test helper;
    /// epochs are ignored).
    fn from_iter<I: IntoIterator<Item = TxnRecord>>(iter: I) -> Self {
        Self {
            phases: vec![iter.into_iter().collect()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: u64) -> TxnRecord {
        TxnRecord {
            reads: vec![1],
            writes: vec![2],
            exec_ns: 100.0,
            epoch,
        }
    }

    #[test]
    fn groups_by_odd_epochs() {
        let w = Workload::from_records(vec![
            rec(0), // setup: dropped
            rec(1),
            rec(1),
            rec(2), // between phases: dropped
            rec(3),
            rec(4), // validation: dropped
        ]);
        assert_eq!(w.phases.len(), 2);
        assert_eq!(w.phases[0].len(), 2);
        assert_eq!(w.phases[1].len(), 1);
        assert_eq!(w.len(), 3);
        assert!((w.sequential_ns() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn stats_helpers() {
        let mut all = vec![rec(1); 3];
        all.push(TxnRecord {
            reads: vec![1, 2, 3],
            writes: vec![],
            exec_ns: 50.0,
            epoch: 1,
        });
        let w = Workload::from_records(all);
        assert!((w.read_only_fraction() - 0.25).abs() < 1e-9);
        let (r, _w) = w.mean_footprint();
        assert!(r > 1.0);
    }
}
