//! The simulated FPGA inside the live TM runtime: a [`ValidationEngine`]
//! behind one lock, run by the thread that posts a request to it.
//!
//! ROCoCoTM cascades CPU execution/commit stages and FPGA detect/manage
//! stages through two asynchronous message queues (the pull/push queues of
//! Figure 6) so that communication latency is amortised by overlapping
//! transactions. Those queues exist because the CPU and the FPGA are two
//! executors; here there is one. [`ServiceHandle::post`] takes the engine's
//! lock, validates the caller's request on the caller's thread and returns
//! the verdict. The engine sees the requests in lock order, which is the
//! order one pull queue would deliver them in. The overlap of Figure 6 is
//! modelled by [`TimingModel`](crate::TimingModel).
//!
//! # Faults
//!
//! With a seeded [`FaultConfig`] (chaos testing) the validator can stall,
//! reject spuriously, or deliver late — without touching the engine's
//! state, so the CPU-side protocol meets pathological but legal FPGA
//! timing. Every fault is rolled under the lock, in lock order, and counted
//! there in the `injected_*` members of [`EngineStats`]. A stall
//! sleeps under the lock and holds every other poster back; a late verdict
//! sleeps after the lock is released, so a successor can get its verdict —
//! a later commit sequence — first: verdicts arrive out of order.
//!
//! # Stop and death
//!
//! Once `stopped` is set (under the lock), a request is answered
//! [`FpgaVerdict::ServiceStopped`] without reaching the engine, so the
//! statistics [`ValidationService::shutdown`] returns are final. A panic in
//! the engine or the injector poisons the lock: it goes on to the poster,
//! every later `post` answers `ServiceStopped`, and the statistics are read
//! through the poison.

use crate::engine::{EngineConfig, EngineStats, FpgaVerdict, ValidateRequest, ValidationEngine};
use crate::fault::{FaultConfig, FaultRng};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The engine's lock: a `std` mutex, so that a panic under it poisons it.
/// A leaf lock: its holder takes no other lock.
struct EngineLock(Mutex<Validator>);

impl EngineLock {
    /// The validator, poisoned or not.
    fn lock(&self) -> MutexGuard<'_, Validator> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A handle for submitting validation requests to the service. Cheap to
/// clone; one per worker thread.
#[derive(Clone)]
pub struct ServiceHandle {
    /// The engine and what surrounds it.
    validator: Arc<EngineLock>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle").finish_non_exhaustive()
    }
}

impl ServiceHandle {
    /// Validates a request on the calling thread, under the engine's lock,
    /// and returns its verdict. The address slices are copied into a
    /// buffer the engine keeps: nothing is allocated.
    ///
    /// Once the service has stopped, or died of a panic, the verdict is
    /// [`FpgaVerdict::ServiceStopped`] and the request never reaches the
    /// engine.
    ///
    /// # Panics
    ///
    /// Propagates a panic of the engine; the service is dead from then on.
    pub fn post(
        &self,
        tx_id: u64,
        valid_ts: u64,
        read_addrs: &[u64],
        write_addrs: &[u64],
    ) -> FpgaVerdict {
        // A poisoned lock is a dead engine.
        let Some(mut v) = self.validator.0.lock().ok().filter(|v| !v.stopped) else {
            return FpgaVerdict::ServiceStopped;
        };
        let (verdict, late) = v.post(tx_id, valid_ts, read_addrs, write_addrs);
        drop(v);
        if let Some(late) = late {
            std::thread::sleep(late);
        }
        verdict
    }

    /// [`ServiceHandle::post`] for a request built by value (execution
    /// threads in ROCoCoTM "send R/W-set to FPGA and wait for verdict").
    pub fn validate(&self, req: ValidateRequest) -> FpgaVerdict {
        self.post(req.tx_id, req.valid_ts, &req.read_addrs, &req.write_addrs)
    }

    /// [`ServiceHandle::validate`], its verdict wrapped in a
    /// [`PendingVerdict`]. Kept only for the pinned benchmark's
    /// `fpga.pipelined_ns` probe, and deleted by its next refresh
    /// (ROADMAP.md, item 2).
    pub fn validate_async(&self, req: ValidateRequest) -> PendingVerdict {
        PendingVerdict(self.validate(req))
    }

    /// The validator's statistics as they stand, stopped or not (zeroed
    /// counters before the first verdict): the engine's verdicts and the
    /// faults injected (all zero unless the service was spawned with
    /// fault injection). Once the service has shut down these are the
    /// final end-of-run statistics.
    pub fn stats(&self) -> EngineStats {
        self.validator.lock().stats()
    }
}

/// A verdict already decided, for the one caller that still consumes
/// verdicts through `wait`: the pinned benchmark's `fpga.pipelined_ns`
/// probe. Deleted with [`ServiceHandle::validate_async`].
#[derive(Debug)]
pub struct PendingVerdict(FpgaVerdict);

impl PendingVerdict {
    /// The verdict.
    pub fn wait(self) -> FpgaVerdict {
        self.0
    }
}

/// A validation service: the engine behind its lock. There is no thread;
/// dropping the service stops it.
pub struct ValidationService {
    handle: ServiceHandle,
}

impl std::fmt::Debug for ValidationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValidationService").finish_non_exhaustive()
    }
}

impl ValidationService {
    /// Starts a service with the given engine configuration and no fault
    /// injection.
    pub fn spawn(config: EngineConfig) -> Self {
        Self::spawn_with_faults(config, FaultConfig::disabled())
    }

    /// Starts a service with seeded fault injection (chaos testing — see
    /// [`FaultConfig`]).
    pub fn spawn_with_faults(config: EngineConfig, faults: FaultConfig) -> Self {
        let validator = Validator {
            config,
            engine: None,
            rng: FaultRng::new(faults.seed),
            faults,
            injected: EngineStats::default(),
            stopped: false,
            req: ValidateRequest::default(),
            #[cfg(test)]
            order: Vec::new(),
        };
        Self {
            handle: ServiceHandle {
                validator: Arc::new(EngineLock(Mutex::new(validator))),
            },
        }
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Stops the service and returns the final engine statistics.
    pub fn shutdown(self) -> EngineStats {
        self.stop()
    }

    /// Closes the door: nothing posted from now on reaches the engine.
    fn stop(&self) -> EngineStats {
        let mut v = self.handle.validator.lock();
        v.stopped = true;
        v.stats()
    }
}

impl Drop for ValidationService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What the engine's lock guards: the engine, the fault injector and the
/// request being validated.
struct Validator {
    config: EngineConfig,
    /// Built by the first validation from `config`, so that an engine
    /// which rejects its configuration fails the way any engine panic
    /// does — inside a `post`, killing the service — rather than in
    /// `spawn`.
    engine: Option<ValidationEngine>,
    /// The injector: its rates and its decision stream. A rate of 0 never
    /// draws from the stream.
    faults: FaultConfig,
    rng: FaultRng,
    /// The faults injected so far, in the `injected_*` members; the other
    /// members stay zero (the engine counts its verdicts).
    injected: EngineStats,
    /// Stop requested: nothing more reaches the engine.
    stopped: bool,
    /// The request being validated; its vectors are reused from post to
    /// post.
    req: ValidateRequest,
    /// Transaction ids in the order they were validated.
    #[cfg(test)]
    order: Vec<u64>,
}

impl Validator {
    fn stats(&self) -> EngineStats {
        let mut stats = (self.engine.as_ref())
            .map(ValidationEngine::stats)
            .unwrap_or_default();
        stats.merge(&self.injected);
        stats
    }

    /// Validates a posted request and returns the verdict with how late it
    /// is to be delivered, if at all.
    fn post(
        &mut self,
        tx_id: u64,
        valid_ts: u64,
        reads: &[u64],
        writes: &[u64],
    ) -> (FpgaVerdict, Option<Duration>) {
        let req = &mut self.req;
        req.tx_id = tx_id;
        req.valid_ts = valid_ts;
        req.read_addrs.clear();
        req.read_addrs.extend_from_slice(reads);
        req.write_addrs.clear();
        req.write_addrs.extend_from_slice(writes);
        #[cfg(test)]
        self.order.push(tx_id);
        let (f, rng, counts) = (&self.faults, &mut self.rng, &mut self.injected);
        if roll(rng, f.pause_prob, &mut counts.injected_pauses, "pause") {
            std::thread::sleep(Duration::from_micros(f.pause_us));
        }
        // A spurious abort replaces the engine's run: the engine never sees
        // the request, so its window state is what the CPU side infers.
        let verdict = if roll(
            rng,
            f.spurious_cycle_prob,
            &mut counts.injected_spurious_cycle,
            "spurious-cycle",
        ) {
            FpgaVerdict::AbortCycle
        } else if roll(
            rng,
            f.spurious_window_prob,
            &mut counts.injected_spurious_window,
            "spurious-window",
        ) {
            FpgaVerdict::AbortWindowOverflow
        } else {
            let config = &self.config;
            let engine = self
                .engine
                .get_or_insert_with(|| ValidationEngine::new(config.clone()));
            engine.process(&self.req)
        };
        let late = roll(rng, f.delay_prob, &mut counts.injected_delays, "delay");
        (verdict, late.then(|| Duration::from_micros(f.delay_us)))
    }
}

/// Rolls one fault class; a hit is counted and recorded.
fn roll(rng: &mut FaultRng, rate: f64, count: &mut u64, kind: &'static str) -> bool {
    let hit = rng.hit(rate);
    if hit {
        *count += 1;
        rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Fault { kind });
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    fn req(tx_id: u64, valid_ts: u64, reads: &[u64], writes: &[u64]) -> ValidateRequest {
        ValidateRequest {
            tx_id,
            valid_ts,
            read_addrs: reads.to_vec(),
            write_addrs: writes.to_vec(),
        }
    }

    #[test]
    fn blocking_roundtrip() {
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        let v = h.validate(req(1, 0, &[10], &[20]));
        assert!(v.is_commit());
        let stats = svc.shutdown();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.commits, 1);
    }

    #[test]
    fn async_submission_overlaps() {
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        let pending: Vec<_> = (0..32u64)
            .map(|i| h.validate_async(req(i, 0, &[i + 5000], &[i + 9000])))
            .collect();
        for p in pending {
            assert!(p.wait().is_commit());
        }
        assert_eq!(h.stats().commits, 32);
    }

    #[test]
    fn stats_after_shutdown_equal_the_final_counters() {
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        assert!(h.validate(req(0, 0, &[1], &[2])).is_commit());
        assert_eq!(h.stats().commits, 1);
        let final_stats = svc.shutdown();
        assert_eq!(h.stats(), final_stats);
        // A request posted after the stop never reaches the engine.
        assert_eq!(
            h.validate(req(1, 0, &[3], &[4])),
            FpgaVerdict::ServiceStopped
        );
        assert_eq!(h.stats(), final_stats);
        // Dropping (instead of shutdown) leaves the final counters behind
        // too.
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        assert!(h.validate(req(0, 0, &[3], &[4])).is_commit());
        drop(svc);
        assert_eq!(h.stats().commits, 1);
    }

    #[test]
    fn verdicts_keep_rococo_semantics_across_threads() {
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        assert!(h.validate(req(0, 0, &[7], &[8])).is_commit());
        // Write skew partner must abort even when submitted from another
        // thread.
        let skew = std::thread::scope(|s| s.spawn(|| h.validate(req(1, 0, &[8], &[7]))).join());
        assert_eq!(skew.unwrap(), FpgaVerdict::AbortCycle);
    }

    #[test]
    fn many_threads_hammering() {
        let svc = ValidationService::spawn(EngineConfig::default());
        // Track the snapshot like the STM's GlobalTS does: one counter all
        // threads read before a request and raise on a commit verdict. (A
        // per-thread copy only stays inside the window while the scheduler
        // interleaves the threads request by request — which a link that
        // answers without a context switch no longer forces.)
        let global_ts = AtomicU64::new(0);
        let total: u64 = std::thread::scope(|s| {
            let joins: Vec<_> = (0..8u64)
                .map(|t| {
                    let (h, global_ts) = (svc.handle(), &global_ts);
                    s.spawn(move || {
                        let mut commits = 0;
                        for i in 0..200u64 {
                            let base = 1_000_000 + t * 10_000 + i * 4;
                            let valid_ts = global_ts.load(Ordering::SeqCst);
                            let v = h.validate(req(t * 1000 + i, valid_ts, &[base], &[base + 1]));
                            if let FpgaVerdict::Commit { seq } = v {
                                commits += 1;
                                global_ts.fetch_max(seq + 1, Ordering::SeqCst);
                            }
                        }
                        commits
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).sum()
        });
        let stats = svc.shutdown();
        assert_eq!(stats.requests, 1600);
        assert_eq!(stats.commits, total);
        // Disjoint footprints: overwhelmingly commits (bloom false
        // positives may cause a handful of cycle aborts at worst... but a
        // cycle needs both directions, so expect none or almost none).
        assert!(total > 1500, "commits: {total}");
    }

    #[test]
    fn combined_verdicts_match_a_replay_in_engine_order() {
        // K submitters post random footprints over 96 addresses, each
        // with a snapshot of its own up to 71 commits behind the newest.
        // Replayed through a fresh engine in the order the live one took
        // them under its lock, every request must get the verdict it got
        // live.
        const REQUESTS: u64 = 400;
        for submitters in [1u64, 2, 4, 8] {
            let svc = ValidationService::spawn(EngineConfig::default());
            let global_ts = AtomicU64::new(0);
            let live: HashMap<u64, (ValidateRequest, FpgaVerdict)> = std::thread::scope(|s| {
                let joins: Vec<_> = (0..submitters)
                    .map(|t| {
                        let (h, global_ts) = (svc.handle(), &global_ts);
                        s.spawn(move || {
                            let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            let mut next = move || {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                x
                            };
                            (0..REQUESTS)
                                .map(|i| {
                                    let r = next();
                                    let reads: Vec<u64> =
                                        (0..1 + r % 4).map(|_| next() % 96).collect();
                                    let writes: Vec<u64> =
                                        (0..1 + (r >> 8) % 4).map(|_| next() % 96).collect();
                                    let behind = (r >> 16) % 72;
                                    let valid_ts =
                                        global_ts.load(Ordering::SeqCst).saturating_sub(behind);
                                    let request = req(t << 32 | i, valid_ts, &reads, &writes);
                                    let verdict = h.validate(request.clone());
                                    if let FpgaVerdict::Commit { seq } = verdict {
                                        global_ts.fetch_max(seq + 1, Ordering::SeqCst);
                                    }
                                    (request.tx_id, (request, verdict))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                joins
                    .into_iter()
                    .flat_map(|j| j.join().expect("submitter panicked"))
                    .collect()
            });
            let order = svc.handle.validator.lock().order.clone();
            assert_eq!(order.len() as u64, submitters * REQUESTS, "K {submitters}");
            assert_eq!(
                order.iter().collect::<HashSet<_>>().len(),
                order.len(),
                "K {submitters}: every request validated once"
            );

            let mut replay = ValidationEngine::new(EngineConfig::default());
            for (position, tx_id) in order.iter().enumerate() {
                let (request, verdict) = &live[tx_id];
                assert_eq!(
                    replay.process(request),
                    *verdict,
                    "K {submitters}, position {position}"
                );
            }
            let stats = svc.shutdown();
            assert_eq!(stats, replay.stats(), "K {submitters}");
            assert!(
                stats.commits > 0 && stats.aborts_cycle > 0 && stats.aborts_window > 0,
                "K {submitters}: every verdict kind must occur: {stats:?}"
            );
        }
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        h.validate(req(0, 0, &[1], &[2]));
        drop(svc); // must not hang or panic
    }

    #[test]
    fn validate_after_shutdown_is_a_clean_abort() {
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        drop(svc);
        // The send side fails: no panic, a ServiceStopped verdict.
        assert_eq!(
            h.validate(req(0, 0, &[1], &[2])),
            FpgaVerdict::ServiceStopped
        );
        // Async submissions resolve the same way.
        assert_eq!(
            h.validate_async(req(1, 0, &[3], &[4])).wait(),
            FpgaVerdict::ServiceStopped
        );
    }

    #[test]
    fn workers_blocked_in_validate_survive_service_drop() {
        // Workers hammer validate() from several threads while the main
        // thread tears the service down. Every call must return a real
        // verdict or ServiceStopped — never panic, never hang.
        let svc = ValidationService::spawn(EngineConfig::default());
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for t in 0..4u64 {
                let (h, stop) = (svc.handle(), &stop);
                joins.push(s.spawn(move || {
                    let mut stopped_seen = 0u64;
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) || stopped_seen == 0 {
                        let v = h.validate(req(t * 1_000_000 + i, 0, &[t + 10], &[t + 20]));
                        if v == FpgaVerdict::ServiceStopped {
                            stopped_seen += 1;
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        i += 1;
                    }
                    stopped_seen
                }));
            }
            std::thread::sleep(Duration::from_millis(5));
            drop(svc);
            stop.store(true, Ordering::Relaxed);
            for j in joins {
                let stopped = j.join().expect("worker panicked during service drop");
                assert!(stopped >= 1, "worker never saw the clean stop signal");
            }
        });
    }

    #[test]
    fn faults_injected_preserve_verdict_meaning() {
        // Under aggressive injection every commit verdict must still be a
        // true engine commit (spurious verdicts are only ever aborts), and
        // the injected classes are counted.
        let svc = ValidationService::spawn_with_faults(
            EngineConfig::default(),
            FaultConfig::aggressive(3),
        );
        let h = svc.handle();
        let mut commits = 0u64;
        for i in 0..300u64 {
            let base = 10_000 + i * 4;
            if h.validate(req(i, 0, &[base], &[base + 1])).is_commit() {
                commits += 1;
            }
        }
        let stats = svc.shutdown();
        assert!(stats.injected() > 0, "aggressive preset injected nothing");
        // Engine-side commits equal CPU-side observed commits: injection
        // never forged a commit.
        assert_eq!(stats.commits, commits);
        // Requests the engine saw = submitted minus spuriously aborted.
        assert_eq!(stats.requests, 300 - stats.injected_spurious_aborts());
    }

    #[test]
    fn every_ticket_gets_its_own_verdict_under_aggressive_faults() {
        const PRODUCERS: u64 = 8;
        const REQUESTS: u64 = 2_000;
        let svc = ValidationService::spawn_with_faults(
            EngineConfig::default(),
            FaultConfig::aggressive(11),
        );
        let global_ts = AtomicU64::new(0);
        let mut all_seqs = HashSet::new();
        std::thread::scope(|s| {
            let joins: Vec<_> = (0..PRODUCERS)
                .map(|t| {
                    let (h, global_ts) = (svc.handle(), &global_ts);
                    s.spawn(move || {
                        let mut seqs = Vec::new();
                        for i in 0..REQUESTS {
                            let base = 1_000_000 + t * 100_000 + i * 4;
                            let valid_ts = global_ts.load(Ordering::SeqCst);
                            match h.post(t, valid_ts, &[base], &[base + 1]) {
                                FpgaVerdict::Commit { seq } => {
                                    global_ts.fetch_max(seq + 1, Ordering::SeqCst);
                                    seqs.push(seq);
                                }
                                FpgaVerdict::ServiceStopped => panic!("live service stopped"),
                                _ => {}
                            }
                        }
                        seqs
                    })
                })
                .collect();
            for j in joins {
                for seq in j.join().expect("producer panicked") {
                    assert!(
                        all_seqs.insert(seq),
                        "commit {seq} delivered to two submitters"
                    );
                }
            }
        });
        let stats = svc.shutdown();
        for (class, count) in [
            ("delay", stats.injected_delays),
            ("pause", stats.injected_pauses),
            ("spurious-cycle", stats.injected_spurious_cycle),
            ("spurious-window", stats.injected_spurious_window),
        ] {
            assert!(count > 0, "no {class} fault injected: {stats:?}");
        }
        assert_eq!(
            stats.requests + stats.injected_spurious_aborts(),
            PRODUCERS * REQUESTS
        );
        // Every commit the engine granted reached exactly one submitter.
        assert_eq!(stats.commits, all_seqs.len() as u64);
    }

    #[test]
    fn a_poster_behind_a_stalled_post_gets_its_verdict() {
        // A stall runs under the lock: a second poster queues behind the
        // first on the lock and gets its own verdict once the first is
        // done.
        const STALL: Duration = Duration::from_micros(2_000);
        let svc = ValidationService::spawn_with_faults(
            EngineConfig::default(),
            FaultConfig {
                seed: 5,
                pause_prob: 1.0,
                pause_us: STALL.as_micros() as u64,
                ..FaultConfig::disabled()
            },
        );
        let h = svc.handle();
        for i in (0..8u64).step_by(2) {
            let started = Instant::now();
            std::thread::scope(|s| {
                let behind = s.spawn(|| h.post(i + 1, 0, &[101 + i], &[201 + i]));
                let posted = Instant::now();
                assert!(h.post(i, 0, &[100 + i], &[200 + i]).is_commit());
                assert!(posted.elapsed() >= STALL, "the stall ran in post");
                assert!(behind.join().expect("poster panicked").is_commit());
            });
            assert!(
                started.elapsed() >= 2 * STALL,
                "the two stalls ran one after the other"
            );
        }

        // A late verdict sleeps after the lock is released: a second
        // poster gets its verdict, a later commit, while the first still
        // sleeps. The seed makes the first delay roll hit and the second
        // miss.
        const LATE: Duration = Duration::from_millis(20);
        let seed = (0..)
            .find(|&seed| {
                let mut rng = FaultRng::new(seed);
                rng.hit(0.5) && !rng.hit(0.5)
            })
            .expect("some seed delays only the first verdict");
        let svc = ValidationService::spawn_with_faults(
            EngineConfig::default(),
            FaultConfig {
                seed,
                delay_prob: 0.5,
                delay_us: LATE.as_micros() as u64,
                ..FaultConfig::disabled()
            },
        );
        let h = svc.handle();
        let posted = Instant::now();
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(|| h.post(1, 0, &[1], &[2]));
            while h.stats().requests == 0 {
                std::thread::yield_now();
            }
            let second = h.post(2, 0, &[3], &[4]);
            assert!(
                posted.elapsed() < LATE,
                "the second verdict waited for the first to wake"
            );
            (first.join().expect("poster panicked"), second)
        });
        assert!(posted.elapsed() >= LATE, "the first verdict came late");
        match (first, second) {
            (FpgaVerdict::Commit { seq: a }, FpgaVerdict::Commit { seq: b }) => assert!(a < b),
            other => panic!("two disjoint commits expected: {other:?}"),
        }
        assert_eq!(h.stats().injected_delays, 1);
    }

    #[test]
    fn a_large_footprint_arrives_intact() {
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        let n = 64;
        let reads: Vec<u64> = (0..n).map(|i| 10_000 + i).collect();
        let writes: Vec<u64> = (0..n).map(|i| 20_000 + i).collect();
        assert!(h.post(1, 0, &reads, &writes).is_commit());
        // The write-skew partner over the *last* read and write: it
        // commits only if one of them was lost on the way.
        let (r, w) = (reads[n as usize - 1], writes[n as usize - 1]);
        assert_eq!(h.post(2, 0, &[w], &[r]), FpgaVerdict::AbortCycle);
    }

    #[test]
    fn an_engine_that_panics_in_post_stops_the_service() {
        // A window of 0 makes the engine, built by the first validation,
        // panic (`RococoValidator::new` asserts a positive window).
        let svc = ValidationService::spawn(EngineConfig {
            window: 0,
            ..EngineConfig::default()
        });
        let h = svc.handle();
        let posted = catch_unwind(AssertUnwindSafe(|| h.post(1, 0, &[1], &[2])));
        assert!(
            posted.is_err(),
            "the engine's panic propagates to the poster"
        );
        assert!(
            h.validator.0.is_poisoned(),
            "the panic poisoned the engine's lock"
        );
        assert_eq!(h.post(2, 0, &[3], &[4]), FpgaVerdict::ServiceStopped);
        assert_eq!(h.stats(), EngineStats::default());
        assert_eq!(svc.shutdown(), EngineStats::default());
    }
}
