//! The replay engine implementing the section 6.1 concurrency model.

use crate::policies::CcPolicy;
use rococo_core::order::Footprint;
use rococo_trace::{Trace, TxnTrace};
use std::collections::HashMap;

/// Why a replayed transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// A lock conflict with a concurrent transaction (pessimistic CC).
    LockConflict,
    /// The transaction read a version that a concurrent commit overwrote
    /// and the policy's ordering primitive cannot reorder past it.
    StaleRead,
    /// Committing would create a cycle in `→rw` (a true serializability
    /// violation).
    Cycle,
    /// The transaction's snapshot slid out of the validator's window.
    WindowOverflow,
}

/// A policy's decision for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Commit the transaction.
    Commit,
    /// Abort it for the given reason.
    Abort(AbortReason),
}

/// A committed transaction, as visible to later policy decisions.
#[derive(Debug, Clone)]
pub struct CommittedView {
    /// Arrival index in the trace.
    pub arrival: usize,
    /// Position in the committed sequence (the validator's `Seq`).
    pub commit_index: usize,
    /// Deduplicated read set.
    pub reads: Vec<u64>,
    /// Deduplicated write set.
    pub writes: Vec<u64>,
}

/// Everything a policy may inspect when deciding transaction `arrival`.
#[derive(Debug)]
pub struct TxnView<'a> {
    /// Arrival index of the candidate.
    pub arrival: usize,
    /// The candidate's trace (operations, footprints).
    pub txn: &'a TxnTrace,
    /// The candidate observes updates only of transactions that arrived
    /// *before* this index (`arrival - T`, clamped at 0): the last `T`
    /// transactions are invisible, per section 6.1.
    pub snapshot_arrival: usize,
    /// All transactions committed so far, in commit order.
    pub committed: &'a [CommittedView],
}

impl TxnView<'_> {
    /// Committed transactions the candidate has *not* observed (arrival at
    /// or after the snapshot point) — the conflict horizon for optimistic
    /// validation. The committed list is sorted by arrival, so this is a
    /// suffix.
    pub fn unobserved_commits(&self) -> impl Iterator<Item = &CommittedView> {
        let snap = self.snapshot_arrival;
        let lo = self.committed.partition_point(|c| c.arrival < snap);
        self.committed[lo..].iter()
    }

    /// Number of committed transactions the candidate has observed — i.e.
    /// its snapshot expressed as a commit-sequence number.
    pub fn snapshot_seq(&self) -> u64 {
        let snap = self.snapshot_arrival;
        self.committed.partition_point(|c| c.arrival < snap) as u64
    }
}

/// Aggregate statistics of one replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CcStats {
    /// Transactions replayed.
    pub total: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Aborts per reason.
    pub aborts: HashMap<AbortReason, usize>,
}

impl CcStats {
    /// Total number of aborted transactions.
    pub fn aborted(&self) -> usize {
        self.aborts.values().sum()
    }

    /// Aborted / total (0.0 for an empty replay) — the paper's Figure 9
    /// metric.
    pub fn abort_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.aborted() as f64 / self.total as f64
        }
    }
}

/// The outcome of replaying a trace under one policy.
#[derive(Debug, Clone)]
pub struct CcRunResult {
    /// Aggregate statistics.
    pub stats: CcStats,
    /// Per-transaction decisions, indexed by arrival.
    pub decisions: Vec<Decision>,
    /// Footprints of committed transactions in commit order, ready for the
    /// [`rococo_core::order::rw_graph`] serializability oracle.
    pub committed_footprints: Vec<Footprint>,
}

/// Replays `trace` in arrival order under concurrency `T` and lets `policy`
/// decide each transaction's fate.
///
/// Transaction `j` executes against a snapshot that excludes the last `T`
/// arrivals (`snapshot_arrival = j - T`, clamped at 0). Decisions are made
/// in arrival order; a committed transaction becomes visible to transaction
/// `j` only once it leaves `j`'s invisibility window.
///
/// # Panics
///
/// Panics if `concurrency == 0`.
pub fn run_policy(policy: &mut dyn CcPolicy, trace: &Trace, concurrency: usize) -> CcRunResult {
    assert!(concurrency > 0, "concurrency must be at least 1");
    policy.reset();
    let mut committed: Vec<CommittedView> = Vec::new();
    let mut decisions = Vec::with_capacity(trace.len());
    let mut footprints = Vec::new();
    let mut stats = CcStats {
        total: trace.len(),
        ..CcStats::default()
    };

    for (arrival, txn) in trace.iter().enumerate() {
        let view = TxnView {
            arrival,
            txn,
            snapshot_arrival: arrival.saturating_sub(concurrency),
            committed: &committed,
        };
        let snapshot_seq = view.snapshot_seq() as usize;
        let decision = policy.decide(&view);
        decisions.push(decision);
        match decision {
            Decision::Commit => {
                stats.committed += 1;
                footprints.push(Footprint {
                    reads: txn.read_set(),
                    writes: txn.write_set(),
                    observed: snapshot_seq,
                });
                committed.push(CommittedView {
                    arrival,
                    commit_index: committed.len(),
                    reads: txn.read_set(),
                    writes: txn.write_set(),
                });
            }
            Decision::Abort(reason) => {
                *stats.aborts.entry(reason).or_insert(0) += 1;
            }
        }
    }

    CcRunResult {
        stats,
        decisions,
        committed_footprints: footprints,
    }
}

pub(crate) fn intersects(xs: &[u64], ys: &[u64]) -> bool {
    // Footprints are small (N ≤ 32 in the micro-benchmark); linear scan
    // beats hashing.
    xs.iter().any(|x| ys.contains(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{CcPolicy, Tocc};
    use rococo_trace::{Op, TxnTrace};

    struct CommitAll;
    impl CcPolicy for CommitAll {
        fn name(&self) -> &'static str {
            "commit-all"
        }
        fn reset(&mut self) {}
        fn decide(&mut self, _view: &TxnView<'_>) -> Decision {
            Decision::Commit
        }
    }

    fn txn(reads: &[u64], writes: &[u64]) -> TxnTrace {
        TxnTrace {
            ops: reads
                .iter()
                .map(|&a| Op::Read(a))
                .chain(writes.iter().map(|&a| Op::Write(a)))
                .collect(),
        }
    }

    #[test]
    fn commit_all_commits_all() {
        let trace = vec![txn(&[1], &[2]), txn(&[2], &[3])];
        let r = run_policy(&mut CommitAll, &trace, 4);
        assert_eq!(r.stats.committed, 2);
        assert_eq!(r.stats.abort_rate(), 0.0);
        assert_eq!(r.committed_footprints.len(), 2);
    }

    #[test]
    fn snapshot_arrival_clamps() {
        // With T = 4, the first transactions have snapshot 0.
        let trace = vec![txn(&[1], &[]); 6];
        let mut seen = Vec::new();
        struct Probe<'a>(&'a mut Vec<usize>);
        impl CcPolicy for Probe<'_> {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn reset(&mut self) {}
            fn decide(&mut self, view: &TxnView<'_>) -> Decision {
                self.0.push(view.snapshot_arrival);
                Decision::Commit
            }
        }
        run_policy(&mut Probe(&mut seen), &trace, 4);
        assert_eq!(seen, vec![0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn unobserved_commits_window() {
        let trace = vec![
            txn(&[], &[10]), // arrival 0
            txn(&[], &[11]), // arrival 1
            txn(&[], &[12]), // arrival 2
            txn(&[10, 11, 12], &[]),
        ];
        struct Probe(usize);
        impl CcPolicy for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn reset(&mut self) {}
            fn decide(&mut self, view: &TxnView<'_>) -> Decision {
                if view.arrival == 3 {
                    // T = 2: snapshot_arrival = 1, so commits 1 and 2 are
                    // unobserved, commit 0 observed.
                    self.0 = view.unobserved_commits().count();
                    assert_eq!(view.snapshot_seq(), 1);
                }
                Decision::Commit
            }
        }
        let mut p = Probe(0);
        run_policy(&mut p, &trace, 2);
        assert_eq!(p.0, 2);
    }

    #[test]
    fn stats_count_reasons() {
        let trace = vec![txn(&[], &[1]), txn(&[1], &[1]), txn(&[1], &[1])];
        let r = run_policy(&mut Tocc::new(), &trace, 2);
        assert_eq!(r.stats.total, 3);
        assert_eq!(r.stats.committed + r.stats.aborted(), 3);
    }
}
