//! # rococo-sched — adaptive hybrid transaction routing
//!
//! A fourth [`TmSystem`] implementation, [`HybridTm`], that wraps the
//! repo's best-effort HTM emulation ([`rococo_stm::TsxHtm`]) and the
//! ROCoCoTM runtime ([`rococo_stm::RococoTm`]) over one shared heap and
//! routes every transaction attempt between them:
//!
//! * **Router** ([`mod@crate::router`]): predicts each transaction's
//!   footprint from an EWMA of committed read/write-set sizes keyed by a
//!   caller-supplied class tag ([`TmSystem::set_tx_class`]), and admits
//!   to the HTM fast path only under a limited-set bound (Kafousis'
//!   admission rule). Classes that blow the hardware capacity anyway are
//!   banned for an exponentially growing cooldown (hysteresis).
//! * **Contention-aware scheduler** ([`mod@crate::conflict`]): recent
//!   abort edges between classes are tracked in a bounded,
//!   bloom-signature-approximate conflict table; hot conflicting pairs
//!   are serialized through per-group admission tokens instead of
//!   retry-storming.
//! * **Feedback loop** ([`HybridTm`]'s adapt step): consumes the
//!   abort-cause counters and footprint samples the telemetry layer
//!   already collects and adapts the admission bounds (AIMD) and the
//!   serialization groups online.
//!
//! The two engines are mutually blind (eager line snooping vs. signature
//! validation), so a mode gate ([`mod@crate::gate`]) runs them in
//! alternating epochs and rebases each engine's dense commit sequence
//! into one dense hybrid sequence — the WAL recovery invariant holds
//! even when transactions migrate between backends mid-retry.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conflict;
mod gate;
mod hybrid;
mod router;

pub use hybrid::{HybridConfig, HybridPending, HybridTm, HybridTx, SchedSnapshot};
pub use router::Hysteresis;

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
    use rococo_stm::{
        finish_submitted, try_submit, AbortKind, HtmConfig, Submitted, TmConfig, TmSystem,
        Transaction,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
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
            cooldown: 8,
            strike_limit: 2,
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
        let tm = Arc::new(small_tm());
        let base = tm.heap().alloc(64);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let tm = tm.clone();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let addr = base + ((t as u64 * 7 + i) % 64) as usize;
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
        let snap = tm.stats_snapshot();
        assert_eq!(snap.commits, 800, "one commit per closure success");
        let sched = tm.sched_snapshot();
        assert_eq!(
            sched.commits_htm + sched.commits_sw,
            800,
            "per-path commits partition total commits"
        );
        let total: u64 = (0..64).map(|i| tm.heap().load_direct(base + i)).sum();
        assert_eq!(total, 800, "no lost updates across engines");
    }

    #[test]
    fn capacity_abort_migrates_mid_retry_and_bans_with_hysteresis() {
        let tm = tiny_htm_tm(4);
        let a = tm.heap().alloc(8);
        // Class 5 clamps into range; writes 4 distinct lines ⇒ blows the
        // 1×1 write cache on the HTM path every time.
        for round in 0..8u64 {
            run_classed(&tm, 0, 3, |tx| {
                for k in 0..4 {
                    let addr = a + k;
                    let v = tx.read(addr)?;
                    tx.write(addr, v + round)?;
                }
                Ok(())
            });
        }
        let snap = tm.sched_snapshot();
        assert!(snap.migrations > 0, "capacity abort must migrate to sw");
        assert!(snap.capacity_bans > 0, "repeat offenders must be banned");
        assert!(snap.routes_sw >= snap.migrations);
        let stats = tm.stats_snapshot();
        assert!(
            stats.aborts[AbortKind::Capacity.index()] > 0,
            "outer stats carry the capacity aborts"
        );
    }

    #[test]
    fn hybrid_sequences_stay_dense_across_migrations() {
        let tm = tiny_htm_tm(2);
        let a = tm.heap().alloc(8);
        let mut seqs = Vec::new();
        for i in 0..40u64 {
            // Alternate small (HTM-fitting) and large (capacity-aborting,
            // migrating) transactions so commits interleave engines.
            let wide = i % 2 == 0;
            let (_, seq) = try_run(&tm, 0, |tx| {
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
    }

    /// Retry loop returning the commit sequence of the winning attempt.
    fn try_run<F>(tm: &HybridTm, thread: usize, mut body: F) -> ((), Option<u64>)
    where
        F: FnMut(&mut HybridTx<'_>) -> Result<(), rococo_stm::Abort>,
    {
        loop {
            match try_classed(tm, thread, 0, &mut body) {
                Ok(r) => return r,
                Err(_) => continue,
            }
        }
    }

    #[test]
    fn submit_finish_path_works_and_holds_the_epoch() {
        let tm = small_tm();
        let a = tm.heap().alloc(1);
        let submitted = try_submit(&tm, 0, &mut |tx: &mut HybridTx<'_>| {
            let v = tx.read(a)?;
            tx.write(a, v + 5)
        });
        match submitted {
            Submitted::Pending(p, ()) => {
                let seq = finish_submitted(&tm, p).unwrap();
                assert!(seq.is_some());
            }
            Submitted::Deferred(tx, ()) => {
                rococo_stm::commit_deferred(&tm, tx).unwrap();
            }
            Submitted::Aborted(a) => panic!("unexpected abort: {a}"),
        }
        assert_eq!(tm.heap().load_direct(a), 5);
        assert_eq!(tm.stats_snapshot().commits, 1);
    }

    #[test]
    fn inner_validation_counters_surface_without_double_counting() {
        // Bounds of 2 words: the 4-read/4-write class's EWMA exceeds them
        // after its first commit, so later routes take the software path.
        let tm = HybridTm::with_configs(HybridConfig {
            tm: TmConfig {
                heap_words: 1 << 12,
                max_threads: 4,
            },
            read_bound: 2,
            write_bound: 2,
            ..HybridConfig::default()
        });
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
            "rococo_sched_read_bound_words",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn conflict_storm_forms_serialization_group() {
        // Two classes hammering one word with tiny adapt interval: the
        // conflict table must eventually serialize them through a token.
        let tm = HybridTm::with_configs(HybridConfig {
            tm: TmConfig {
                heap_words: 1 << 10,
                max_threads: 4,
            },
            adapt_interval: 64,
            hot_threshold: 4,
            ..HybridConfig::default()
        });
        let tm = Arc::new(tm);
        let hot = tm.heap().alloc(1);
        let stop = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let tm = tm.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    for _ in 0..3000 {
                        run_classed(&*tm, t, t as u32, |tx| {
                            let v = tx.read(hot)?;
                            tx.write(hot, v + 1)
                        });
                        if stop.load(Ordering::Relaxed) > 0 {
                            break;
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(tm.heap().load_direct(hot), tm.stats_snapshot().commits);
        // The storm may or may not persist long enough to trip the
        // threshold on a 1-core box, but the adapt loop must have run.
        assert!(tm.sched_snapshot().adapts > 0);
    }
}
