//! # rococo-sched — adaptive hybrid transaction routing
//!
//! A fourth [`TmSystem`] implementation, [`HybridTm`], that wraps the
//! repo's best-effort HTM emulation ([`rococo_stm::TsxHtm`]) and the
//! ROCoCoTM runtime ([`rococo_stm::RococoTm`]) over one shared heap and
//! routes every transaction attempt between them:
//!
//! * **Admission** ([`mod@crate::router`]): predicts each transaction's
//!   footprint from an EWMA of committed read/write-set sizes keyed by a
//!   caller-supplied class tag ([`TmSystem::set_tx_class`]), and admits
//!   to the HTM fast path only while the prediction fits the HTM's
//!   capacity (Kafousis' limited-set rule).
//! * **Migration**: an attempt that dies of an HTM capacity abort is
//!   retried on the software path, whatever its class predicts.
//!
//! Each moves the hybrid's speedup by 2 % or more in the simulator's
//! router ablation (`ablation_router`).
//!
//! The two engines are mutually blind (eager line snooping vs. signature
//! validation), so a mode gate ([`mod@crate::gate`]) runs them in
//! alternating epochs and rebases each engine's dense commit sequence
//! into one dense hybrid sequence — the WAL recovery invariant holds
//! even when transactions migrate between backends mid-retry. The gate
//! is the only thing an attempt acquires: contention between
//! transactions is ordered by the engines' validation, never by mutual
//! exclusion in front of them.
//!
//! ```
//! use rococo_sched::{run_classed, HybridConfig, HybridTm};
//! use rococo_stm::{TmConfig, TmSystem, Transaction};
//!
//! let tm = HybridTm::with_config(TmConfig { heap_words: 1 << 10, max_threads: 2 });
//! let a = tm.heap().alloc(1);
//! run_classed(&tm, 0, 1, |tx| {
//!     let v = tx.read(a)?;
//!     tx.write(a, v + 1)
//! });
//! assert_eq!(tm.heap().load_direct(a), 1);
//! ```

#![warn(missing_docs)]

mod gate;
mod hybrid;
mod router;

pub use hybrid::{HybridConfig, HybridTm, HybridTx, SchedSnapshot};
pub use router::{Bounds, Router};

use rococo_stm::{atomically, try_atomically_seq, Abort, TmSystem};

/// Runs `body` as a class-tagged transaction, retrying until it commits
/// — [`rococo_stm::atomically`] plus a [`TmSystem::set_tx_class`] tag.
///
/// The closure is re-executable and may run on *different backends*
/// across retries (the hybrid router migrates capacity-aborted attempts
/// from the HTM fast path to the software path), so the usual rule is
/// stricter than it looks: side effects must be idempotent across
/// engines, not just across retries of one engine.
pub fn run_classed<S, R, F>(system: &S, thread_id: usize, class: u32, body: F) -> R
where
    S: TmSystem + ?Sized,
    F: FnMut(&mut S::Tx<'_>) -> Result<R, Abort>,
{
    system.set_tx_class(thread_id, class);
    atomically(system, thread_id, body)
}

/// One class-tagged transaction attempt reporting the durable commit
/// sequence — [`rococo_stm::try_atomically_seq`] plus a
/// [`TmSystem::set_tx_class`] tag. The closure may re-execute on a
/// different backend on the caller's next attempt (see [`run_classed`]).
///
/// # Errors
///
/// Returns the [`Abort`] if either the closure or the commit aborts.
pub fn try_classed<S, R, F>(
    system: &S,
    thread_id: usize,
    class: u32,
    body: &mut F,
) -> Result<(R, Option<u64>), Abort>
where
    S: TmSystem + ?Sized,
    F: FnMut(&mut S::Tx<'_>) -> Result<R, Abort>,
{
    system.set_tx_class(thread_id, class);
    try_atomically_seq(system, thread_id, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rococo_stm::{AbortKind, HtmConfig, TmConfig, TmSystem, Transaction};
    use std::sync::Arc;

    fn small_tm() -> HybridTm {
        HybridTm::with_config(TmConfig {
            heap_words: 1 << 12,
            max_threads: 4,
        })
    }

    /// An HTM sized so any transaction writing ≥ 2 distinct lines
    /// capacity-aborts — forcing mid-retry migration to the slow path.
    fn tiny_htm_tm(classes: usize) -> HybridTm {
        HybridTm::with_configs(HybridConfig {
            tm: TmConfig {
                heap_words: 1 << 12,
                max_threads: 4,
            },
            htm: HtmConfig {
                line_shift: 0,
                write_sets: 1,
                write_ways: 1,
                read_capacity: 4096,
                max_attempts: 5,
            },
            classes,
            ..HybridConfig::default()
        })
    }

    #[test]
    fn read_write_commit_roundtrip() {
        let tm = small_tm();
        let a = tm.heap().alloc(2);
        run_classed(&tm, 0, 0, |tx| {
            tx.write(a, 7)?;
            tx.write(a + 1, 9)
        });
        let (sum, _) = try_classed(&tm, 0, 0, &mut |tx: &mut HybridTx<'_>| {
            Ok(tx.read(a)? + tx.read(a + 1)?)
        })
        .unwrap();
        assert_eq!(sum, 16);
        let snap = tm.sched_snapshot();
        assert_eq!(snap.routes_htm + snap.routes_sw, 2);
        assert!(snap.commits_htm + snap.commits_sw == 2);
    }

    #[test]
    fn counters_stay_consistent_across_threads() {
        // Spread over 64 words, then every thread on one hot word: the
        // engines' validation alone must order the storm.
        for (n_threads, iters, words) in [(4usize, 200u64, 64u64), (2, 3000, 1)] {
            let tm = Arc::new(small_tm());
            let base = tm.heap().alloc(words as usize);
            let threads: Vec<_> = (0..n_threads)
                .map(|t| {
                    let tm = tm.clone();
                    std::thread::spawn(move || {
                        for i in 0..iters {
                            let addr = base + ((t as u64 * 7 + i) % words) as usize;
                            run_classed(&*tm, t, (i % 3) as u32, |tx| {
                                let v = tx.read(addr)?;
                                tx.write(addr, v + 1)
                            });
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let commits = n_threads as u64 * iters;
            let snap = tm.stats_snapshot();
            assert_eq!(snap.commits, commits, "one commit per closure success");
            let sched = tm.sched_snapshot();
            assert_eq!(
                sched.commits_htm + sched.commits_sw,
                commits,
                "per-path commits partition total commits"
            );
            let total: u64 = (0..words as usize)
                .map(|i| tm.heap().load_direct(base + i))
                .sum();
            assert_eq!(total, commits, "no lost updates across engines");
        }
    }

    #[test]
    fn capacity_abort_migrates_mid_retry() {
        let tm = tiny_htm_tm(4);
        let a = tm.heap().alloc(8);
        // An unseeded class is admitted to the HTM; two writes overflow
        // its one-word write set, and the retry runs on software.
        run_classed(&tm, 0, 3, |tx| {
            tx.write(a, 1)?;
            tx.write(a + 1, 1)
        });
        let snap = tm.sched_snapshot();
        assert_eq!(snap.migrations, 1, "capacity abort must migrate to sw");
        assert_eq!((snap.routes_htm, snap.routes_sw), (1, 1));
        assert_eq!((snap.commits_htm, snap.commits_sw), (0, 1));
        let stats = tm.stats_snapshot();
        assert_eq!(
            stats.aborts[AbortKind::Capacity.index()],
            1,
            "outer stats carry the capacity abort"
        );
    }

    #[test]
    fn hybrid_sequences_stay_dense_across_migrations() {
        let tm = tiny_htm_tm(2);
        let a = tm.heap().alloc(8);
        let mut seqs = Vec::new();
        for i in 0..40u64 {
            // Alternate small (HTM-fitting, class 0) and large
            // (capacity-aborting, migrating, class 1) transactions so
            // commits interleave engines.
            let wide = i % 2 == 0;
            let (_, seq) = try_run(&tm, 0, u32::from(wide), |tx| {
                let n = if wide { 4 } else { 1 };
                for k in 0..n {
                    let v = tx.read(a + k)?;
                    tx.write(a + k, v + 1)?;
                }
                Ok(())
            });
            seqs.push(seq.expect("read-write commit must carry a seq"));
        }
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        let expect: Vec<u64> = (0..40).collect();
        assert_eq!(sorted, expect, "hybrid seq must stay dense: {seqs:?}");
        let sched = tm.sched_snapshot();
        assert_eq!(
            (sched.commits_htm, sched.commits_sw),
            (20, 20),
            "each width commits on its own engine: {sched:?}"
        );
        assert_eq!(sched.migrations, 1, "only the unseeded wide class migrates");
    }

    /// Retry loop returning the commit sequence of the winning attempt.
    fn try_run<F>(tm: &HybridTm, thread: usize, class: u32, mut body: F) -> ((), Option<u64>)
    where
        F: FnMut(&mut HybridTx<'_>) -> Result<(), rococo_stm::Abort>,
    {
        loop {
            match try_classed(tm, thread, class, &mut body) {
                Ok(r) => return r,
                Err(_) => continue,
            }
        }
    }

    /// `commit_seq` validates, publishes and retires on whichever engine
    /// ran the attempt, and the hybrid sequence stays dense across the
    /// switch between them.
    #[test]
    fn commit_seq_retires_on_either_engine() {
        // A one-word write set: one write commits on HTM; a second write
        // capacity-aborts there, and the retry runs on software.
        let tm = tiny_htm_tm(1);
        let a = tm.heap().alloc(2);
        let mut tx = tm.begin(0);
        tx.write(a, 1).unwrap();
        assert_eq!(tx.commit_seq(), Ok(Some(0)));
        let mut tx = tm.begin(0);
        tx.write(a, 2).unwrap();
        assert_eq!(
            tx.write(a + 1, 2).map_err(|e| e.kind),
            Err(AbortKind::Capacity)
        );
        drop(tx);
        let mut tx = tm.begin(0);
        tx.write(a, 2).unwrap();
        tx.write(a + 1, 2).unwrap();
        assert_eq!(tx.commit_seq(), Ok(Some(1)));
        assert_eq!(tm.heap().load_direct(a + 1), 2, "published at commit");
        let sched = tm.sched_snapshot();
        assert_eq!((sched.commits_htm, sched.commits_sw), (1, 1));
    }

    #[test]
    fn inner_validation_counters_surface_without_double_counting() {
        // A write bound of 1 word: the 4-read/4-write class's EWMA exceeds
        // it after its first commit, so later routes take the software path.
        let tm = tiny_htm_tm(4);
        let a = tm.heap().alloc(4);
        // Big-footprint class predictions route to the software path,
        // whose commits run FPGA validation.
        for i in 0..50u64 {
            run_classed(&tm, 0, 1, |tx| {
                for k in 0..4 {
                    let v = tx.read(a + k)?;
                    tx.write(a + k, v + i)?;
                }
                Ok(())
            });
        }
        let merged = tm.stats_snapshot();
        let outer = tm.stats().snapshot();
        assert_eq!(merged.commits, outer.commits, "commits from outer only");
        assert_eq!(merged.starts, outer.starts);
        let sw = tm.sched_snapshot().commits_sw;
        assert!(sw > 0, "EWMA must push the wide class to the slow path");
        assert!(
            merged.validations >= sw.saturating_sub(1),
            "slow-path commits validate ({} validations, {sw} sw commits)",
            merged.validations,
        );
        assert_eq!(outer.validations, 0, "outer stats never see validation");
    }

    #[test]
    fn export_extra_metrics_emits_sched_family() {
        let tm = small_tm();
        let a = tm.heap().alloc(1);
        run_classed(&tm, 0, 0, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)
        });
        let mut reg = rococo_telemetry::MetricsRegistry::new();
        tm.export_extra_metrics(&mut reg);
        let text = reg.render_prometheus();
        for family in [
            "rococo_sched_routes_total",
            "rococo_sched_commits_total",
            "rococo_sched_migrations_total",
            "rococo_sched_deferrals_total",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }
}
