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
//! * **Feedback loop** ([`HybridTm`]'s adapt step): consumes the
//!   capacity-abort counter and footprint samples the telemetry layer
//!   already collects and adapts the admission bounds online (AIMD).
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
        finish_submitted, try_submit, AbortKind, HtmConfig, PendingCommit, RococoConfig, Submitted,
        TmConfig, TmSystem, Transaction,
    };
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

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

    /// A software-path pending holds unpublished writes until `finish`;
    /// an HTM one was settled at submission.
    #[test]
    fn only_a_software_pending_is_in_flight() {
        // Bounds of 0 words: the first commit runs on HTM, after it the
        // class predicts a footprint over the bound and routes to software.
        let tm = HybridTm::with_configs(HybridConfig {
            tm: TmConfig {
                heap_words: 1 << 10,
                max_threads: 2,
            },
            read_bound: 0,
            write_bound: 0,
            ..HybridConfig::default()
        });
        let a = tm.heap().alloc(1);
        for on_htm in [true, false] {
            let Submitted::Pending(p, ()) = try_submit(&tm, 0, &mut |tx: &mut HybridTx<'_>| {
                let v = tx.read(a)?;
                tx.write(a, v + 1)
            }) else {
                panic!("an uncontended commit submits");
            };
            assert_eq!(p.in_flight(), !on_htm, "on_htm {on_htm}");
            finish_submitted(&tm, p).unwrap();
        }
        let sched = tm.sched_snapshot();
        assert_eq!((sched.commits_htm, sched.commits_sw), (1, 1));
        assert_eq!(tm.heap().load_direct(a), 2);
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

    /// ROADMAP item 1(a)'s schedule, pinned. Thread A keeps a software
    /// pending (a commit-gate read guard lives inside it); thread B, one
    /// abort past `irrevocable_after`, escalates in `begin` and blocks on
    /// the exclusive commit gate behind that guard; A then begins its
    /// next attempt. A's `begin` must return — it acquires the mode gate
    /// only, which A's own pending pins to software — so A reaches its
    /// drain and B's `begin` returns. Every wait is bounded: the watchdog
    /// fails the test instead of hanging it.
    #[test]
    fn begin_with_pendings_outstanding_never_waits_on_another_begin() {
        const WATCHDOG: Duration = Duration::from_secs(20);
        fn bump(addr: usize) -> impl FnMut(&mut HybridTx<'_>) -> Result<(), rococo_stm::Abort> {
            move |tx| {
                let v = tx.read(addr)?;
                tx.write(addr, v + 1)
            }
        }
        let tm = Arc::new(HybridTm::with_configs(HybridConfig {
            tm: TmConfig {
                heap_words: 1 << 10,
                max_threads: 2,
            },
            rococo: RococoConfig {
                window: 4,
                queue_len: 4,
                irrevocable_after: 1,
                ..RococoConfig::default()
            },
            // Bounds of 0 words: after the first commit the class
            // predicts a footprint over the bound and routes to software.
            read_bound: 0,
            write_bound: 0,
            ..HybridConfig::default()
        }));
        let (a_word, b_word) = (tm.heap().alloc(2), tm.heap().alloc(1));
        run_classed(&*tm, 0, 0, bump(a_word));

        // B's doomed attempt: four foreign commits wrap the 4-entry
        // commit queue under its snapshot, so its first read aborts and
        // its escalation counter reaches `irrevocable_after`.
        let sw_before = tm.sched_snapshot().routes_sw;
        let mut doomed = tm.begin(1);
        for _ in 0..4 {
            run_classed(&*tm, 0, 0, bump(a_word));
        }
        let abort = doomed
            .read(b_word)
            .expect_err("the commit queue was overrun");
        assert_eq!(abort.kind, AbortKind::FpgaWindow);
        drop(doomed);
        assert_eq!(
            tm.sched_snapshot().routes_sw - sw_before,
            5,
            "every attempt after the warm-up runs on the software path"
        );

        /// Thread A, a worker in miniature: submit, keep the pending,
        /// begin again, drain, commit.
        fn worker_a(
            tm: &HybridTm,
            word: usize,
            says: mpsc::Sender<&'static str>,
            may_go: mpsc::Receiver<()>,
        ) {
            let Submitted::Pending(first, ()) = try_submit(tm, 0, &mut bump(word)) else {
                panic!("an uncontended software commit submits asynchronously");
            };
            says.send("holds a pending").unwrap();
            // Pending held across this park, on purpose: parking with a pending outstanding is the schedule under test; the main thread's watchdog bounds the wait
            may_go.recv().unwrap();
            // The next attempt, with the pending outstanding and B parked
            // on the commit gate. Whatever the slow path answers, the
            // worker's protocol is: drain, then commit. (Its own word: two
            // pipelined bumps of one word are a true rw+ww cycle, which
            // the TxKV worker drains before — not this test.)
            match try_submit(tm, 0, &mut bump(word + 1)) {
                Submitted::Pending(second, ()) => {
                    says.send("began again").unwrap();
                    finish_submitted(tm, first).unwrap();
                    finish_submitted(tm, second).unwrap();
                }
                Submitted::Deferred(tx, ()) => {
                    says.send("began again").unwrap();
                    finish_submitted(tm, first).unwrap();
                    rococo_stm::commit_deferred(tm, tx).unwrap();
                }
                Submitted::Aborted(abort) => panic!("unexpected abort: {abort}"),
            }
            says.send("drained").unwrap();
        }
        let (a_says, a_progress) = mpsc::channel();
        let (b_says, b_progress) = mpsc::channel();
        let (release_a, a_may_go) = mpsc::channel::<()>();
        let a = {
            let tm = tm.clone();
            std::thread::spawn(move || worker_a(&tm, a_word, a_says, a_may_go))
        };
        assert_eq!(a_progress.recv_timeout(WATCHDOG), Ok("holds a pending"));

        let routes_before = tm.sched_snapshot().routes_sw;
        let b = {
            let tm = tm.clone();
            std::thread::spawn(move || {
                // `begin` escalates: `commit_gate.write()` behind A's
                // pending.
                let mut tx = tm.begin(1);
                b_says.send("begin returned").unwrap();
                tx.write(b_word, 1).unwrap();
                tx.commit_seq().expect("an irrevocable transaction commits");
            })
        };
        // B is routed (it passed the mode gate) and is at most a few
        // instructions short of the commit gate; give it time to park
        // there. The schedule holds either way — it only decides whether
        // A's second submit is answered `Pending` or `Deferred`.
        let deadline = Instant::now() + WATCHDOG;
        while tm.sched_snapshot().routes_sw == routes_before {
            assert!(Instant::now() < deadline, "B never passed the mode gate");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            b_progress.try_recv().is_err(),
            "B's begin returned while A's pending held the commit gate"
        );

        release_a.send(()).unwrap();
        assert_eq!(
            a_progress.recv_timeout(WATCHDOG),
            Ok("began again"),
            "A's begin waited on B's begin"
        );
        assert_eq!(b_progress.recv_timeout(WATCHDOG), Ok("begin returned"));
        assert_eq!(a_progress.recv_timeout(WATCHDOG), Ok("drained"));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(tm.heap().load_direct(a_word), 6);
        assert_eq!(tm.heap().load_direct(a_word + 1), 1);
        assert_eq!(tm.heap().load_direct(b_word), 1);
        assert_eq!(tm.stats_snapshot().fallback_commits, 1, "B ran irrevocably");
    }
}
