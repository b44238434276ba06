//! The simulated FPGA inside the live TM runtime: a [`ValidationEngine`]
//! behind one lock, run by the thread that posts a request to it.
//!
//! ROCoCoTM cascades CPU execution/commit stages and FPGA detect/manage
//! stages through two asynchronous message queues (the pull/push queues of
//! Figure 6) so that communication latency is amortised by overlapping
//! transactions. Those queues exist because the CPU and the FPGA are two
//! executors; here there is one. [`ServiceHandle::post`] takes the engine's
//! lock, validates the caller's request on the caller's thread and returns
//! a [`PendingVerdict`] that already holds the verdict. The engine sees the
//! requests in lock order, which is the order one pull queue would deliver
//! them in. Validation costs the posting CPU the engine's time instead of
//! running beside it; the overlap of Figure 6 is modelled by
//! [`TimingModel`](crate::TimingModel).
//!
//! # Faults
//!
//! The service optionally runs with a seeded [`FaultConfig`] (chaos
//! testing): verdicts can be delayed, serviced out of submission order,
//! or spuriously rejected, and the validator can stall — all without
//! touching the engine's state, so the CPU-side protocol is exercised
//! under pathological FPGA timing that stays semantically legal. The
//! faults run, and their flight-recorder events are emitted, on the
//! posting thread, under the lock.
//!
//! The only verdict still owed when `post` returns is that of a request
//! the reorder fault holds back. It gets a cell — the one allocation of
//! this path, chaos runs only — answered by the next `post`, which
//! validates its own request first and the held one second, or by the held
//! request's own waiter once `REORDER_FLUSH` has passed without one.
//!
//! # Stop and death
//!
//! `stopped` is set and read under the lock: a request posted after it is
//! answered [`FpgaVerdict::ServiceStopped`] without reaching the engine, so
//! the statistics [`ValidationService::shutdown`] returns are final. A
//! panic in the engine or the injector would leave a half-updated engine
//! behind a lock that does not poison, so every run of either is armed
//! with a guard ([`DeathGuard`]) that, on unwind, sets `stopped` and `dead`.
//! The panic goes on to the caller and nobody runs the engine again; the
//! waiter of a held request that sees `dead` returns `ServiceStopped`.

use crate::engine::{EngineConfig, EngineStats, FpgaVerdict, ValidateRequest, ValidationEngine};
use crate::fault::{FaultConfig, FaultRng, FaultSnapshot, FaultStats};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The shared state of one validation service.
struct Link {
    /// The engine and what surrounds it. A leaf lock: its holder takes no
    /// other lock.
    validator: Mutex<Validator>,
    /// Stop requested: nothing more reaches the engine. Written under
    /// `validator`.
    stopped: AtomicBool,
    /// An engine run panicked: nobody runs the engine again.
    dead: AtomicBool,
    /// Verdicts posted and not yet consumed.
    in_flight: AtomicU64,
    faults: FaultStats,
}

impl Link {
    /// Runs `f` — the engine, the injector — armed with a [`DeathGuard`].
    fn armed<R>(&self, f: impl FnOnce() -> R) -> R {
        let guard = DeathGuard(self);
        let result = f();
        std::mem::forget(guard);
        result
    }

    /// Waits for a held request's verdict: from the next `post`, or
    /// validated by this thread once `REORDER_FLUSH` has passed without
    /// one.
    fn wait_held(&self, cell: &OnceLock<FpgaVerdict>) -> FpgaVerdict {
        loop {
            if let Some(&verdict) = cell.get() {
                return verdict;
            }
            if self.dead.load(Ordering::SeqCst) {
                return FpgaVerdict::ServiceStopped;
            }
            if let Some(mut v) = self.validator.try_lock() {
                if !self.dead.load(Ordering::SeqCst) {
                    self.armed(|| v.flush_held(self, false));
                }
            }
            std::thread::yield_now();
        }
    }

    /// Closes the door and validates a held request; returns the engine's
    /// final counters.
    fn shutdown(&self) -> EngineStats {
        let mut v = self.validator.lock();
        self.stopped.store(true, Ordering::SeqCst);
        if !self.dead.load(Ordering::SeqCst) {
            self.armed(|| v.flush_held(self, true));
        }
        v.stats()
    }
}

/// Armed around every engine run, which `forget`s it on the way out: it is
/// dropped only when a panic unwinds through the run, with the lock still
/// held, and then nobody runs the engine again.
struct DeathGuard<'a>(&'a Link);

impl Drop for DeathGuard<'_> {
    fn drop(&mut self) {
        self.0.stopped.store(true, Ordering::SeqCst);
        self.0.dead.store(true, Ordering::SeqCst);
    }
}

/// A handle for submitting validation requests to the service. Cheap to
/// clone; one per worker thread.
#[derive(Clone)]
pub struct ServiceHandle {
    link: Arc<Link>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl ServiceHandle {
    /// Validates a request on the calling thread, under the engine's lock,
    /// and returns its [`PendingVerdict`]; the caller consumes it when it
    /// is ready to act on the verdict (meta-pipelining). The address slices
    /// are copied into a buffer the engine keeps: nothing is allocated.
    ///
    /// `post` never refuses and never waits for another request's verdict,
    /// so a thread may hold any number of unconsumed verdicts. Once the
    /// service has stopped the handle is born settled with
    /// [`FpgaVerdict::ServiceStopped`].
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
    ) -> PendingVerdict {
        let link = &self.link;
        let mut v = link.validator.lock();
        let state = if link.stopped.load(Ordering::SeqCst) {
            PendingState::Settled(FpgaVerdict::ServiceStopped)
        } else {
            let state = link.armed(|| v.post(link, tx_id, valid_ts, read_addrs, write_addrs));
            link.in_flight.fetch_add(1, Ordering::Relaxed);
            state
        };
        drop(v);
        PendingVerdict {
            link: Arc::clone(link),
            state,
        }
    }

    /// Submits a request and returns its verdict (execution threads in
    /// ROCoCoTM "send R/W-set to FPGA and wait for verdict").
    ///
    /// If the service has stopped — or dies while the request is held
    /// back — this returns [`FpgaVerdict::ServiceStopped`] instead of
    /// panicking, so a worker submitting during service teardown gets a
    /// clean abort path.
    pub fn validate(&self, req: ValidateRequest) -> FpgaVerdict {
        self.validate_async(req).wait()
    }

    /// [`ServiceHandle::post`] for a request built by value.
    ///
    /// Async submitters count toward [`ServiceHandle::in_flight`] exactly
    /// like blocking ones: the counter is incremented here and released
    /// when the verdict is consumed (or the pending handle is dropped), so
    /// admission-control layers watching the load signal see every
    /// outstanding validation, not just the blocking ones.
    pub fn validate_async(&self, req: ValidateRequest) -> PendingVerdict {
        self.post(req.tx_id, req.valid_ts, &req.read_addrs, &req.write_addrs)
    }

    /// Number of verdicts posted and not yet consumed across *all* clients
    /// of this engine, blocking and asynchronous alike. A cheap load
    /// signal: service layers shed or delay work when it backs up.
    pub fn in_flight(&self) -> u64 {
        self.link.in_flight.load(Ordering::Relaxed)
    }

    /// Counters of injected faults so far (all zero unless the service
    /// was spawned with fault injection enabled).
    pub fn fault_stats(&self) -> FaultSnapshot {
        self.link.faults.snapshot()
    }

    /// The engine's statistics as they stand, stopped or not (zeroed
    /// counters before the first verdict). Once the service has shut down
    /// these are the final end-of-run statistics.
    pub fn stats(&self) -> EngineStats {
        self.link.validator.lock().stats()
    }
}

/// A posted validation whose verdict is not yet consumed. Holds one unit
/// of the service's `in_flight` load signal until the verdict is consumed
/// or the handle is dropped.
pub struct PendingVerdict {
    link: Arc<Link>,
    state: PendingState,
}

#[derive(Debug)]
enum PendingState {
    /// Validated at `post`.
    Ready(FpgaVerdict),
    /// Held back by the reorder fault: answered into the cell. Dropping
    /// the handle leaves the request to the engine, which still serves it.
    Held(Arc<OnceLock<FpgaVerdict>>),
    /// The service had stopped before submission; not counted in flight.
    Settled(FpgaVerdict),
}

impl std::fmt::Debug for PendingVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingVerdict")
            .field("state", &self.state)
            .finish()
    }
}

impl PendingVerdict {
    /// The verdict: at once, unless the reorder fault held the request
    /// back. Returns [`FpgaVerdict::ServiceStopped`] if the service had
    /// stopped at submission, or died before a held request was served.
    ///
    /// # Panics
    ///
    /// Propagates a panic of the engine while this thread serves a held
    /// request; the service is dead from then on.
    pub fn wait(self) -> FpgaVerdict {
        match &self.state {
            PendingState::Ready(verdict) | PendingState::Settled(verdict) => *verdict,
            PendingState::Held(cell) => self.link.wait_held(cell),
        }
    }
}

impl Drop for PendingVerdict {
    fn drop(&mut self) {
        if !matches!(self.state, PendingState::Settled(_)) {
            self.link.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A validation service: the engine behind its lock. There is no thread;
/// dropping the service stops it after validating a held request.
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
        let link = Link {
            validator: Mutex::new(Validator::new(config, faults)),
            stopped: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            faults: FaultStats::default(),
        };
        Self {
            handle: ServiceHandle {
                link: Arc::new(link),
            },
        }
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Stops the service and returns the final engine statistics.
    pub fn shutdown(self) -> EngineStats {
        self.handle.link.shutdown()
    }
}

impl Drop for ValidationService {
    fn drop(&mut self) {
        self.handle.link.shutdown();
    }
}

/// How long a held-back (reordered) request may wait for a successor
/// before it is served anyway — bounds the latency injection can add to
/// the last request of a burst.
const REORDER_FLUSH: Duration = Duration::from_micros(200);

struct Injector {
    cfg: FaultConfig,
    rng: FaultRng,
}

impl Injector {
    /// Rolls the pre-validation fault: a validator stall.
    fn maybe_pause(&mut self, stats: &FaultStats) {
        if self.rng.hit(self.cfg.pause_prob) {
            stats.pauses.fetch_add(1, Ordering::Relaxed);
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Fault { kind: "pause" });
            std::thread::sleep(Duration::from_micros(self.cfg.pause_us));
        }
    }

    /// Rolls the spurious-abort fault. `Some(verdict)` replaces engine
    /// processing entirely (the engine never observes the request, so its
    /// window state matches what the CPU side can infer from the abort).
    fn maybe_spurious(&mut self, stats: &FaultStats) -> Option<FpgaVerdict> {
        if self.rng.hit(self.cfg.spurious_cycle_prob) {
            stats.spurious_cycle.fetch_add(1, Ordering::Relaxed);
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Fault {
                kind: "spurious-cycle"
            });
            return Some(FpgaVerdict::AbortCycle);
        }
        if self.rng.hit(self.cfg.spurious_window_prob) {
            stats.spurious_window.fetch_add(1, Ordering::Relaxed);
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Fault {
                kind: "spurious-window"
            });
            return Some(FpgaVerdict::AbortWindowOverflow);
        }
        None
    }

    /// Rolls the late-verdict fault (sleep before replying).
    fn maybe_delay(&mut self, stats: &FaultStats) {
        if self.rng.hit(self.cfg.delay_prob) {
            stats.delayed.fetch_add(1, Ordering::Relaxed);
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Fault { kind: "delay" });
            std::thread::sleep(Duration::from_micros(self.cfg.delay_us));
        }
    }

    /// Rolls the reorder fault: whether to hold this request back until
    /// after its successor is served.
    fn maybe_hold(&mut self) -> bool {
        self.rng.hit(self.cfg.reorder_prob)
    }
}

/// What the link's lock guards: the engine, the injector, the request
/// being validated and the one held back for reordering.
struct Validator {
    config: EngineConfig,
    /// Built by the first validation from `config`, so that an engine
    /// which rejects its configuration fails the way any engine panic
    /// does — inside a `post`, killing the service — rather than in
    /// `spawn`.
    engine: Option<ValidationEngine>,
    injector: Option<Injector>,
    /// The request being validated; its vectors are reused from post to
    /// post.
    req: ValidateRequest,
    /// The request held back for reordering, its cell and since when:
    /// served after the next one, or once `REORDER_FLUSH` has passed
    /// without one.
    held_req: ValidateRequest,
    held: Option<(Arc<OnceLock<FpgaVerdict>>, Instant)>,
    /// Transaction ids in the order they were validated.
    #[cfg(test)]
    order: Vec<u64>,
}

impl Validator {
    fn new(config: EngineConfig, faults: FaultConfig) -> Self {
        Self {
            config,
            engine: None,
            injector: faults.enabled().then(|| Injector {
                rng: FaultRng::new(faults.seed),
                cfg: faults,
            }),
            req: ValidateRequest::default(),
            held_req: ValidateRequest::default(),
            held: None,
            #[cfg(test)]
            order: Vec::new(),
        }
    }

    fn stats(&self) -> EngineStats {
        self.engine
            .as_ref()
            .map(ValidationEngine::stats)
            .unwrap_or_default()
    }

    /// Takes a posted request: maybe stalls, maybe holds it back,
    /// otherwise validates it — and then the one held before it.
    fn post(
        &mut self,
        link: &Link,
        tx_id: u64,
        valid_ts: u64,
        reads: &[u64],
        writes: &[u64],
    ) -> PendingState {
        let req = &mut self.req;
        req.tx_id = tx_id;
        req.valid_ts = valid_ts;
        req.read_addrs.clear();
        req.read_addrs.extend_from_slice(reads);
        req.write_addrs.clear();
        req.write_addrs.extend_from_slice(writes);
        if let Some(injector) = &mut self.injector {
            injector.maybe_pause(&link.faults);
            if self.held.is_none() && injector.maybe_hold() {
                link.faults.reordered.fetch_add(1, Ordering::Relaxed);
                rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Fault { kind: "reorder" });
                std::mem::swap(&mut self.req, &mut self.held_req);
                let cell = Arc::new(OnceLock::new());
                self.held = Some((Arc::clone(&cell), Instant::now()));
                return PendingState::Held(cell);
            }
        }
        let verdict = self.validate(link);
        self.flush_held(link, true);
        PendingState::Ready(verdict)
    }

    /// Validates the held request and answers its cell, if `now` or if no
    /// successor came within `REORDER_FLUSH`.
    fn flush_held(&mut self, link: &Link, now: bool) {
        let due = self
            .held
            .take_if(|(_, since)| now || since.elapsed() >= REORDER_FLUSH);
        if let Some((cell, _)) = due {
            std::mem::swap(&mut self.req, &mut self.held_req);
            let verdict = self.validate(link);
            cell.set(verdict).expect("a held request is answered once");
        }
    }

    /// Validates `self.req`: a spurious verdict instead of the engine's,
    /// maybe, and a delay after, maybe.
    fn validate(&mut self, link: &Link) -> FpgaVerdict {
        #[cfg(test)]
        self.order.push(self.req.tx_id);
        let spurious = self
            .injector
            .as_mut()
            .and_then(|i| i.maybe_spurious(&link.faults));
        let verdict = spurious.unwrap_or_else(|| {
            let config = &self.config;
            let engine = self
                .engine
                .get_or_insert_with(|| ValidationEngine::new(config.clone()));
            engine.process(&self.req)
        });
        if let Some(injector) = &mut self.injector {
            injector.maybe_delay(&link.faults);
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet, VecDeque};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn req(tx_id: u64, valid_ts: u64, reads: &[u64], writes: &[u64]) -> ValidateRequest {
        ValidateRequest {
            tx_id,
            valid_ts,
            read_addrs: reads.to_vec(),
            write_addrs: writes.to_vec(),
        }
    }

    /// The reorder fault on every request it can hold (one at a time), and
    /// no other fault.
    fn always_reorder() -> FaultConfig {
        FaultConfig {
            seed: 1,
            reorder_prob: 1.0,
            ..FaultConfig::disabled()
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
    fn async_submitters_count_as_in_flight() {
        // Regression: async submissions must count as in flight until
        // their verdict is consumed, or admission control undercounts
        // load. Every verdict is known at `post`: consuming it is what
        // releases the count.
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        let pending: Vec<_> = (0..8u64)
            .map(|i| h.validate_async(req(i, 0, &[i + 100], &[i + 200])))
            .collect();
        assert_eq!(
            h.in_flight(),
            8,
            "async submissions missing from the load signal"
        );
        for p in pending {
            assert!(p.wait().is_commit());
        }
        assert_eq!(h.in_flight(), 0, "consuming a verdict must release it");
    }

    #[test]
    fn dropping_pending_verdict_releases_in_flight() {
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        let p = h.validate_async(req(0, 0, &[1], &[2]));
        assert_eq!(h.in_flight(), 1);
        drop(p);
        assert_eq!(h.in_flight(), 0);
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
            let order = svc.handle.link.validator.lock().order.clone();
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
        assert_eq!(h.in_flight(), 0);
        // Async submissions resolve the same way.
        assert_eq!(
            h.validate_async(req(1, 0, &[3], &[4])).wait(),
            FpgaVerdict::ServiceStopped
        );
        assert_eq!(h.in_flight(), 0);
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
    fn injected_faults_preserve_verdict_meaning() {
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
        let injected = h.fault_stats();
        assert!(injected.total() > 0, "aggressive preset injected nothing");
        let stats = svc.shutdown();
        // Engine-side commits equal CPU-side observed commits: injection
        // never forged a commit.
        assert_eq!(stats.commits, commits);
        // Requests the engine saw = submitted minus spuriously aborted.
        assert_eq!(stats.requests, 300 - injected.spurious_aborts());
    }

    #[test]
    fn reordering_is_bounded_by_flush_timeout() {
        // With reordering forced on, a lone request (no successor to swap
        // with) must still be answered within the flush window.
        let svc = ValidationService::spawn_with_faults(EngineConfig::default(), always_reorder());
        let h = svc.handle();
        assert!(h.validate(req(0, 0, &[5], &[6])).is_commit());
        assert!(h.fault_stats().reordered >= 1);
    }

    #[test]
    fn every_ticket_gets_its_own_verdict_under_aggressive_faults() {
        const PRODUCERS: u64 = 8;
        const REQUESTS: u64 = 2_000;
        const IN_FLIGHT: usize = 8;
        let svc = ValidationService::spawn_with_faults(
            EngineConfig::default(),
            FaultConfig::aggressive(11),
        );
        let global_ts = AtomicU64::new(0);
        let mut all_seqs = HashSet::new();
        std::thread::scope(|s| {
            let joins: Vec<_> = (0..PRODUCERS)
                .map(|t| {
                    let h = svc.handle();
                    let global_ts = &global_ts;
                    s.spawn(move || {
                        let mut seqs = Vec::new();
                        let mut verdicts = 0u64;
                        let mut settle = |p: PendingVerdict| {
                            verdicts += 1;
                            match p.wait() {
                                FpgaVerdict::Commit { seq } => {
                                    global_ts.fetch_max(seq + 1, Ordering::SeqCst);
                                    seqs.push(seq);
                                }
                                FpgaVerdict::ServiceStopped => panic!("live service stopped"),
                                _ => {}
                            }
                        };
                        let mut pending = VecDeque::with_capacity(IN_FLIGHT);
                        for i in 0..REQUESTS {
                            if pending.len() == IN_FLIGHT {
                                settle(pending.pop_front().expect("full window"));
                            }
                            let base = 1_000_000 + t * 100_000 + i * 4;
                            let valid_ts = global_ts.load(Ordering::SeqCst);
                            pending.push_back(h.post(t, valid_ts, &[base], &[base + 1]));
                        }
                        pending.into_iter().for_each(&mut settle);
                        (verdicts, seqs)
                    })
                })
                .collect();
            for j in joins {
                let (verdicts, seqs) = j.join().expect("producer panicked");
                assert_eq!(verdicts, REQUESTS, "one verdict per ticket");
                for seq in seqs {
                    assert!(
                        all_seqs.insert(seq),
                        "commit {seq} delivered to two submitters"
                    );
                }
            }
        });
        let h = svc.handle();
        let injected = h.fault_stats();
        for (class, count) in [
            ("delay", injected.delayed),
            ("reorder", injected.reordered),
            ("pause", injected.pauses),
            ("spurious-cycle", injected.spurious_cycle),
            ("spurious-window", injected.spurious_window),
        ] {
            assert!(count > 0, "no {class} fault injected: {injected:?}");
        }
        assert_eq!(h.in_flight(), 0);
        let stats = svc.shutdown();
        assert_eq!(
            stats.requests + injected.spurious_aborts(),
            PRODUCERS * REQUESTS
        );
        // Every commit the engine granted reached exactly one submitter.
        assert_eq!(stats.commits, all_seqs.len() as u64);
    }

    #[test]
    fn a_poster_behind_a_stalled_post_gets_its_verdict() {
        // Every request stalls the thread that posts it, before or after
        // the engine, under the lock; a second poster queues behind the
        // first on the lock and gets its own verdict once the first is
        // done.
        const STALL: Duration = Duration::from_micros(2_000);
        for faults in [
            FaultConfig {
                seed: 5,
                pause_prob: 1.0,
                pause_us: STALL.as_micros() as u64,
                ..FaultConfig::disabled()
            },
            FaultConfig {
                seed: 5,
                delay_prob: 1.0,
                delay_us: STALL.as_micros() as u64,
                ..FaultConfig::disabled()
            },
        ] {
            let svc = ValidationService::spawn_with_faults(EngineConfig::default(), faults);
            let h = svc.handle();
            for i in (0..8u64).step_by(2) {
                let started = Instant::now();
                std::thread::scope(|s| {
                    let behind = s.spawn(|| h.post(i + 1, 0, &[101 + i], &[201 + i]).wait());
                    let posted = Instant::now();
                    let first = h.post(i, 0, &[100 + i], &[200 + i]);
                    assert!(posted.elapsed() >= STALL, "the stall ran in post");
                    assert!(first.wait().is_commit());
                    assert!(behind.join().expect("poster panicked").is_commit());
                });
                assert!(
                    started.elapsed() >= 2 * STALL,
                    "the two stalls ran one after the other"
                );
            }
        }
    }

    #[test]
    fn a_large_footprint_arrives_intact() {
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        let n = 64;
        let reads: Vec<u64> = (0..n).map(|i| 10_000 + i).collect();
        let writes: Vec<u64> = (0..n).map(|i| 20_000 + i).collect();
        assert!(h.post(1, 0, &reads, &writes).wait().is_commit());
        // The write-skew partner over the *last* read and write: it
        // commits only if one of them was lost on the way.
        let (r, w) = (reads[n as usize - 1], writes[n as usize - 1]);
        assert_eq!(h.post(2, 0, &[w], &[r]).wait(), FpgaVerdict::AbortCycle);
    }

    /// A window of 0 makes the engine, built by the first validation,
    /// panic (`RococoValidator::new` asserts a positive window).
    fn dying_engine() -> EngineConfig {
        EngineConfig {
            window: 0,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn an_engine_that_panics_in_post_stops_the_service() {
        let svc = ValidationService::spawn(dying_engine());
        let h = svc.handle();
        let posted = catch_unwind(AssertUnwindSafe(|| h.post(1, 0, &[1], &[2])));
        assert!(
            posted.is_err(),
            "the engine's panic propagates to the poster"
        );
        assert_eq!(h.post(2, 0, &[3], &[4]).wait(), FpgaVerdict::ServiceStopped);
        assert_eq!(h.stats(), EngineStats::default());
        assert_eq!(h.in_flight(), 0);
        drop(svc); // the shutdown returns at once on a dead service
    }

    #[test]
    fn a_held_verdict_is_answered_stopped_when_the_engine_dies_first() {
        let svc = ValidationService::spawn_with_faults(dying_engine(), always_reorder());
        let h = svc.handle();
        // Held back before any engine exists; the next post validates its
        // own request first and dies there.
        let held = h.post(1, 0, &[1], &[2]);
        assert!(matches!(held.state, PendingState::Held(_)));
        let posted = catch_unwind(AssertUnwindSafe(|| h.post(2, 0, &[3], &[4])));
        assert!(
            posted.is_err(),
            "the engine's panic propagates to the poster"
        );
        assert_eq!(held.wait(), FpgaVerdict::ServiceStopped);
        assert_eq!(h.in_flight(), 0);
    }

    #[test]
    fn a_dropped_held_verdict_is_still_served() {
        let svc = ValidationService::spawn_with_faults(EngineConfig::default(), always_reorder());
        let h = svc.handle();
        let held = h.post(1, 0, &[1], &[2]);
        assert!(matches!(held.state, PendingState::Held(_)));
        drop(held);
        assert_eq!(h.in_flight(), 0, "nobody waits for it any more");
        // The next post validates its own request, then the held one.
        assert!(h.post(2, 0, &[3], &[4]).wait().is_commit());
        assert_eq!(
            h.stats().requests,
            2,
            "the engine still saw the dropped request"
        );
        assert_eq!(h.in_flight(), 0);
        assert_eq!(svc.shutdown().commits, 2);
    }
}
