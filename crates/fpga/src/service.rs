//! The simulated FPGA inside the live TM runtime: a [`ValidationEngine`]
//! behind the link's ring, executed by whichever thread waits on the link.
//!
//! ROCoCoTM cascades CPU execution/commit stages and FPGA detect/manage
//! stages through two asynchronous message queues (the pull/push queues of
//! Figure 6) so that communication latency is amortised by overlapping
//! transactions. Here workers write their requests into the slots of one
//! lock-free ring and read their [`FpgaVerdict`] back from the same slot;
//! the engine serves the slots in ring order on the thread of whoever waits
//! (see [`crate::link`] for the slot lifecycle, the combining and the stop
//! protocol). Validation therefore costs the waiting CPU the engine's time
//! instead of running beside it; the overlap of Figure 6 is modelled by
//! [`TimingModel`](crate::TimingModel).
//!
//! The service optionally runs with a seeded [`FaultConfig`] (chaos
//! testing): verdicts can be delayed, serviced out of submission order,
//! or spuriously rejected, and the validator can stall — all without
//! touching the engine's state, so the CPU-side protocol is exercised
//! under pathological FPGA timing that stays semantically legal. The
//! faults run, and their flight-recorder events are emitted, on the
//! serving thread.

use crate::engine::{EngineConfig, EngineStats, FpgaVerdict, ValidateRequest, ValidationEngine};
use crate::fault::{FaultConfig, FaultRng, FaultSnapshot, FaultStats};
use crate::link::{Link, DEFAULT_LANES, LANE_DEPTH};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Writes a request into the next ring slot without waiting for the
    /// verdict; returns a [`PendingVerdict`] so the caller can overlap
    /// other work (meta-pipelining). The address slices are copied into
    /// the slot: nothing is allocated.
    ///
    /// The slot stays taken until the verdict is consumed (or the handle
    /// dropped), and slots are claimed in ring order. When the slot this
    /// ticket maps to is still taken (the ring is full), `post` serves the
    /// ring and yields until it is free — which never happens if the
    /// caller itself holds it. So call `post` only from a thread that
    /// holds no unconsumed verdict, or that is the ring's only submitter
    /// and consumes in submission order with fewer outstanding than the
    /// ring has slots (64 for [`ValidationService::spawn`]); every other
    /// caller uses [`ServiceHandle::try_post`] and consumes its oldest
    /// verdict when that reports the ring full.
    ///
    /// Once the service has stopped the handle is born settled with
    /// [`FpgaVerdict::ServiceStopped`].
    pub fn post(
        &self,
        tx_id: u64,
        valid_ts: u64,
        read_addrs: &[u64],
        write_addrs: &[u64],
    ) -> PendingVerdict {
        let pos = self.link.claim();
        self.publish(pos, tx_id, valid_ts, read_addrs, write_addrs)
    }

    /// [`ServiceHandle::post`] that gives up instead of waiting: `None`
    /// when the ring is full.
    pub fn try_post(
        &self,
        tx_id: u64,
        valid_ts: u64,
        read_addrs: &[u64],
        write_addrs: &[u64],
    ) -> Option<PendingVerdict> {
        let pos = if self.link.is_stopped() {
            None
        } else {
            Some(self.link.try_claim()?)
        };
        Some(self.publish(pos, tx_id, valid_ts, read_addrs, write_addrs))
    }

    /// Fills the claimed slot; with no slot (the service has stopped) the
    /// handle is born settled.
    fn publish(
        &self,
        pos: Option<u64>,
        tx_id: u64,
        valid_ts: u64,
        read_addrs: &[u64],
        write_addrs: &[u64],
    ) -> PendingVerdict {
        let state = match pos {
            Some(pos) => {
                self.link
                    .publish(pos, tx_id, valid_ts, read_addrs, write_addrs);
                PendingState::Slot(pos)
            }
            None => PendingState::Settled(FpgaVerdict::ServiceStopped),
        };
        PendingVerdict {
            link: Arc::clone(&self.link),
            state,
        }
    }

    /// Submits a request and blocks until the verdict arrives (execution
    /// threads in ROCoCoTM "send R/W-set to FPGA and wait for verdict").
    ///
    /// If the service has stopped — or dies while the request is
    /// outstanding — this returns [`FpgaVerdict::ServiceStopped`] instead
    /// of panicking, so a worker blocked here during service teardown gets
    /// a clean abort path.
    pub fn validate(&self, req: ValidateRequest) -> FpgaVerdict {
        self.validate_async(req).wait()
    }

    /// [`ServiceHandle::post`] for a request built by value.
    ///
    /// Async submitters count toward [`ServiceHandle::in_flight`] exactly
    /// like blocking ones: the counter is incremented here and released
    /// when the verdict is delivered (or the pending handle is dropped),
    /// so admission-control layers watching the load signal see every
    /// outstanding validation, not just the blocking ones.
    pub fn validate_async(&self, req: ValidateRequest) -> PendingVerdict {
        self.post(req.tx_id, req.valid_ts, &req.read_addrs, &req.write_addrs)
    }

    /// Number of validations currently waiting for a verdict across *all*
    /// clients of this engine, blocking and asynchronous alike. A cheap
    /// load signal: service layers shed or delay work when the shared
    /// validator backs up.
    pub fn in_flight(&self) -> u64 {
        self.link.in_flight()
    }

    /// Number of submitted requests nobody has served yet (queue depth of
    /// the pull queue of Figure 6).
    pub fn queue_depth(&self) -> usize {
        self.link.queue_depth()
    }

    /// Counters of injected faults so far (all zero unless the service
    /// was spawned with fault injection enabled).
    pub fn fault_stats(&self) -> FaultSnapshot {
        self.link.faults.snapshot()
    }

    /// Reads the engine's statistics, after serving every request
    /// published so far.
    ///
    /// Returns `None` once the service has stopped — a metrics scrape
    /// racing service teardown must degrade, not panic, exactly like every
    /// other path degrades to [`FpgaVerdict::ServiceStopped`]. Callers that
    /// want a best-effort answer fall back to [`ServiceHandle::last_stats`].
    pub fn stats(&self) -> Option<EngineStats> {
        self.link.stats()
    }

    /// The engine's statistics as they stand, without serving (zeroed
    /// counters before the first verdict). Once the service has shut down
    /// this holds the final end-of-run statistics.
    pub fn last_stats(&self) -> EngineStats {
        self.link.last_stats()
    }
}

/// An outstanding asynchronous validation. Holds its ring slot, and one
/// unit of the service's `in_flight` load signal, until the verdict is
/// consumed or the handle is dropped.
pub struct PendingVerdict {
    link: Arc<Link>,
    state: PendingState,
}

#[derive(Debug)]
enum PendingState {
    /// The ring position whose verdict is still owed.
    Slot(u64),
    /// Consumed, or the service had stopped before submission.
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
    /// Blocks until the verdict arrives, serving the ring meanwhile.
    /// Returns [`FpgaVerdict::ServiceStopped`] if the service shut down
    /// first.
    ///
    /// # Panics
    ///
    /// Propagates a panic of the engine while this thread serves it; the
    /// link is dead from then on (see [`crate::link`]).
    pub fn wait(mut self) -> FpgaVerdict {
        match self.state {
            PendingState::Settled(verdict) => verdict,
            PendingState::Slot(pos) => {
                let verdict = self.link.wait_verdict(pos);
                self.state = PendingState::Settled(verdict);
                verdict
            }
        }
    }
}

impl Drop for PendingVerdict {
    fn drop(&mut self) {
        if let PendingState::Slot(pos) = self.state {
            self.link.abandon(pos);
        }
    }
}

/// A validation service: the link and the engine behind it. There is no
/// thread; dropping the service stops the link after serving what was
/// already published.
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
        Self::spawn_with_lanes(config, faults, DEFAULT_LANES)
    }

    /// [`ValidationService::spawn_with_faults`] with the ring sized for
    /// `lanes` submitting threads of [`LANE_DEPTH`] outstanding
    /// validations each (rounded up to a power of two).
    pub fn spawn_with_lanes(config: EngineConfig, faults: FaultConfig, lanes: usize) -> Self {
        Self::spawn_ring(config, faults, lanes.max(1) * LANE_DEPTH)
    }

    pub(crate) fn spawn_ring(config: EngineConfig, faults: FaultConfig, depth: usize) -> Self {
        let link = Link::new(depth, Validator::new(config, faults));
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
    /// Rolls the pre-dequeue fault: a validator stall.
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

/// What the link's lock guards: the engine, the injector, the position
/// held back for reordering and the one request buffer every slot is
/// copied into.
pub(crate) struct Validator {
    config: EngineConfig,
    /// Built by the first serve from `config`, so that an engine which
    /// rejects its configuration fails the way any engine panic does —
    /// inside a serve, killing the link — rather than in `spawn`.
    engine: Option<ValidationEngine>,
    injector: Option<Injector>,
    /// A position held back for reordering, and since when: served after
    /// the next one, or once `REORDER_FLUSH` has passed without one.
    held: Option<(u64, Instant)>,
    req: ValidateRequest,
}

impl Validator {
    pub(crate) fn new(config: EngineConfig, faults: FaultConfig) -> Self {
        Self {
            config,
            engine: None,
            injector: faults.enabled().then(|| Injector {
                rng: FaultRng::new(faults.seed),
                cfg: faults,
            }),
            held: None,
            req: ValidateRequest {
                tx_id: 0,
                valid_ts: 0,
                read_addrs: Vec::new(),
                write_addrs: Vec::new(),
            },
        }
    }

    pub(crate) fn stats(&self) -> EngineStats {
        self.engine
            .as_ref()
            .map(ValidationEngine::stats)
            .unwrap_or_default()
    }

    /// Takes the position `link` just dequeued: maybe stalls, maybe holds
    /// it back, otherwise serves it — and then the one held before it.
    pub(crate) fn dequeued(&mut self, link: &Link, pos: u64) {
        if let Some(injector) = &mut self.injector {
            injector.maybe_pause(&link.faults);
            if self.held.is_none() && injector.maybe_hold() {
                link.faults.reordered.fetch_add(1, Ordering::Relaxed);
                rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Fault { kind: "reorder" });
                self.held = Some((pos, Instant::now()));
                return;
            }
        }
        self.serve(link, pos);
        if let Some((held, _)) = self.held.take() {
            self.serve(link, held);
        }
    }

    /// Serves the held position if no successor came within
    /// `REORDER_FLUSH`, or at once if `now`; whether it did.
    pub(crate) fn flush_held(&mut self, link: &Link, now: bool) -> bool {
        match self.held {
            Some((pos, since)) if now || since.elapsed() >= REORDER_FLUSH => {
                self.held = None;
                self.serve(link, pos);
                true
            }
            _ => false,
        }
    }

    /// Validates the request in ring position `pos` and answers its slot.
    fn serve(&mut self, link: &Link, pos: u64) {
        link.read_request(pos, &mut self.req);
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
        link.answer(pos, verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
        assert_eq!(h.stats().expect("service is live").commits, 32);
    }

    #[test]
    fn stats_after_shutdown_degrades_instead_of_panicking() {
        // Regression: a metrics scrape racing service teardown used to
        // panic in stats(); it must now degrade to None with the final
        // counters available via last_stats().
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        assert!(h.validate(req(0, 0, &[1], &[2])).is_commit());
        let live = h.stats().expect("live service answers stats");
        assert_eq!(live.commits, 1);
        let final_stats = svc.shutdown();
        assert_eq!(h.stats(), None, "stopped service must not answer");
        assert_eq!(
            h.last_stats(),
            final_stats,
            "last-known snapshot must hold the end-of-run counters"
        );
        // Dropping (instead of shutdown) must also leave the final
        // counters behind.
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        assert!(h.validate(req(0, 0, &[3], &[4])).is_commit());
        drop(svc);
        assert_eq!(h.stats(), None);
        assert_eq!(h.last_stats().commits, 1);
    }

    #[test]
    fn async_submitters_count_as_in_flight() {
        // Regression: async submissions must hold an in-flight slot until
        // their verdict is delivered, or admission control undercounts
        // load. A paused validator keeps the verdicts outstanding
        // deterministically while we sample the signal.
        let svc = ValidationService::spawn_with_faults(
            EngineConfig::default(),
            FaultConfig {
                seed: 1,
                pause_prob: 1.0,
                pause_us: 2_000,
                ..FaultConfig::disabled()
            },
        );
        let h = svc.handle();
        let pending: Vec<_> = (0..8u64)
            .map(|i| h.validate_async(req(i, 0, &[i + 100], &[i + 200])))
            .collect();
        // All eight were submitted and none can have been answered within
        // the first pause window.
        assert!(
            h.in_flight() == 8,
            "async submissions missing from the load signal: {}",
            h.in_flight()
        );
        for p in pending {
            assert!(p.wait().is_commit());
        }
        assert_eq!(h.in_flight(), 0, "verdict delivery must release slots");
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
    fn combined_verdicts_match_a_replay_in_ring_order() {
        // K submitters post random footprints over 96 addresses, each
        // with a snapshot of its own up to 71 commits behind the newest,
        // and wait: whoever waits serves. Replayed in ring order through a
        // fresh engine, every request must get the verdict it got live.
        const REQUESTS: u64 = 400;
        for submitters in [1u64, 2, 4, 8] {
            let svc = ValidationService::spawn(EngineConfig::default());
            let global_ts = AtomicU64::new(0);
            let mut log: Vec<_> = std::thread::scope(|s| {
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
                                    let pending = h.validate_async(request.clone());
                                    let PendingState::Slot(pos) = pending.state else {
                                        panic!("the service is live");
                                    };
                                    let verdict = pending.wait();
                                    if let FpgaVerdict::Commit { seq } = verdict {
                                        global_ts.fetch_max(seq + 1, Ordering::SeqCst);
                                    }
                                    (pos, request, verdict)
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
            log.sort_by_key(|&(pos, ..)| pos);
            let positions: Vec<u64> = log.iter().map(|&(pos, ..)| pos).collect();
            assert_eq!(positions, (0..submitters * REQUESTS).collect::<Vec<_>>());

            let mut replay = ValidationEngine::new(EngineConfig::default());
            for (pos, request, verdict) in &log {
                assert_eq!(
                    replay.process(request),
                    *verdict,
                    "K {submitters}, position {pos}"
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
        let svc = ValidationService::spawn_with_faults(
            EngineConfig::default(),
            FaultConfig {
                seed: 9,
                reorder_prob: 1.0,
                ..FaultConfig::disabled()
            },
        );
        let h = svc.handle();
        assert!(h.validate(req(0, 0, &[5], &[6])).is_commit());
        assert!(h.fault_stats().reordered >= 1);
    }
}
