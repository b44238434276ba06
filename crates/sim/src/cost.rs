//! Cost models: what a transaction costs on the sequential machine
//! ([`SeqCost`], counted from its footprint) and the per-system
//! bookkeeping overheads the simulator charges on top of it
//! ([`CostModel`]).
//!
//! The constants below are calibrated against published characterisations
//! rather than fitted to the paper's end results: word-granular STM
//! instrumentation costs on the order of 10 ns per access (TinySTM/TL2
//! overheads of 2–5× on access-dominated code), HTM instrumentation is
//! nearly free, ROCoCoTM replaces per-access locking with signature
//! arithmetic but pays the out-of-core validation latency per read-write
//! transaction (section 6.3's 1-thread penalty of ~1.32×), and running 28
//! workers on 14 physical cores inflates per-thread time (hyper-threading
//! and cache thrashing, which section 6.3 credits for TinySTM's poorer
//! 14→28 scaling against signature-based ROCoCoTM).

use rococo_fpga::TimingModel;

/// The sequential price of one transaction, from its counts alone:
/// `base_ns + access_ns × (reads + writes)`. `base_ns` also carries the
/// application's non-transactional time per transaction (the work between
/// transactions of a parallel phase), so a workload's priced total is its
/// whole sequential parallel region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqCost {
    /// Nanoseconds per transaction, whatever its footprint.
    pub base_ns: f64,
    /// Nanoseconds per deduplicated read or write.
    pub access_ns: f64,
}

impl SeqCost {
    /// The price of a transaction with `reads` reads and `writes` writes.
    pub fn price(&self, reads: usize, writes: usize) -> f64 {
        self.base_ns + self.access_ns * (reads + writes) as f64
    }
}

/// Per-system simulation parameters.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Physical cores of the simulated machine (HARP2: 14).
    pub cores: usize,
    /// Per-thread slowdown factor applied when more workers than cores run
    /// (hyper-threading + shared-cache pressure), per system:
    /// `[TinySTM, TSX, ROCoCoTM]`. Section 6.3 observes TinySTM suffers
    /// more than signature-based ROCoCoTM.
    pub ht_penalty: [f64; 3],

    /// TinySTM: added nanoseconds per transactional read (lock probe +
    /// read-set log + occasional extension).
    pub tiny_read_ns: f64,
    /// TinySTM: added nanoseconds per transactional write (redo log).
    pub tiny_write_ns: f64,
    /// TinySTM: fixed commit cost plus per-read validation and per-write
    /// lock/write-back costs.
    pub tiny_commit_fixed_ns: f64,
    /// TinySTM per-read commit-validation cost.
    pub tiny_commit_per_read_ns: f64,
    /// TinySTM per-write commit cost.
    pub tiny_commit_per_write_ns: f64,

    /// TSX: added nanoseconds per access (near zero — hardware tracking).
    pub tsx_access_ns: f64,
    /// TSX: fixed begin+commit instruction cost.
    pub tsx_commit_fixed_ns: f64,
    /// TSX: abort + restart penalty.
    pub tsx_abort_penalty_ns: f64,
    /// TSX: cache-line capacity of the write set (lines).
    pub tsx_write_capacity_lines: usize,
    /// TSX: line capacity of read tracking.
    pub tsx_read_capacity_lines: usize,
    /// TSX: hardware attempts before the global-lock fallback.
    pub tsx_max_attempts: u32,
    /// TSX: per-attempt spurious-abort probability at full 2× core
    /// oversubscription (hyperthread pairs share L1, so transactional
    /// state suffers conflict/capacity misses from the sibling thread —
    /// the paper attributes the 28-thread "avalanche of aborts" partly to
    /// these indeterministic microarchitectural aborts, footnote 10).
    /// Scales linearly from 0 at the core count.
    pub tsx_spurious_ht: f64,

    /// ROCoCoTM: added nanoseconds per transactional read (signature
    /// insert + commit-queue drain, amortised).
    pub rococo_read_ns: f64,
    /// ROCoCoTM: added nanoseconds per transactional write.
    pub rococo_write_ns: f64,
    /// ROCoCoTM: read-only commit cost (never leaves the CPU).
    pub rococo_ro_commit_ns: f64,
    /// ROCoCoTM: write-back cost per written word at commit.
    pub rococo_commit_per_write_ns: f64,
    /// ROCoCoTM: FPGA window size `W`.
    pub rococo_window: usize,
    /// ROCoCoTM: interconnect + pipeline timing.
    pub timing: TimingModel,

    /// Abort back-off before a retry, all systems (exponential base).
    pub backoff_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            cores: 14,
            // TinySTM's per-location metadata thrashes worst under HT;
            // TSX keeps state in L1 but invalidations hurt; ROCoCoTM's
            // global signatures have the smallest footprint (section 6.3).
            ht_penalty: [1.55, 1.40, 1.18],

            tiny_read_ns: 9.0,
            tiny_write_ns: 6.0,
            tiny_commit_fixed_ns: 25.0,
            tiny_commit_per_read_ns: 5.0,
            tiny_commit_per_write_ns: 12.0,

            tsx_access_ns: 0.8,
            tsx_commit_fixed_ns: 35.0,
            tsx_abort_penalty_ns: 150.0,
            tsx_write_capacity_lines: 448, // ~L1d write budget (56 KiB eqv)
            tsx_read_capacity_lines: 512,  // read tracking bounded by L1d
            tsx_max_attempts: 5,
            tsx_spurious_ht: 0.35,

            rococo_read_ns: 11.0,
            rococo_write_ns: 5.0,
            rococo_ro_commit_ns: 15.0,
            rococo_commit_per_write_ns: 6.0,
            rococo_window: 64,
            timing: TimingModel::default(),

            backoff_ns: 120.0,
        }
    }
}

impl CostModel {
    /// The per-thread slowdown at `threads` workers for system index `sys`
    /// (0 = TinySTM, 1 = TSX, 2 = ROCoCoTM): 1.0 at or below the core
    /// count, ramping linearly to the full penalty at 2× cores.
    pub fn thread_factor(&self, sys: usize, threads: usize) -> f64 {
        if threads <= self.cores {
            return 1.0;
        }
        let over = (threads - self.cores) as f64 / self.cores as f64;
        1.0 + (self.ht_penalty[sys] - 1.0) * over.min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_factor_ramps() {
        let m = CostModel::default();
        assert_eq!(m.thread_factor(0, 1), 1.0);
        assert_eq!(m.thread_factor(0, 14), 1.0);
        let mid = m.thread_factor(0, 21);
        let full = m.thread_factor(0, 28);
        assert!(mid > 1.0 && mid < full);
        assert!((full - m.ht_penalty[0]).abs() < 1e-9);
        // ROCoCoTM suffers least.
        assert!(m.thread_factor(2, 28) < m.thread_factor(0, 28));
    }
}
