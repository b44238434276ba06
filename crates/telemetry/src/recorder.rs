//! The transaction flight recorder.
//!
//! Every participating thread owns a private ring buffer (a *lane*) of
//! [`EventRecord`]s. Emission appends to the calling thread's lane only
//! — no cross-thread synchronisation, no locks, no allocation after the
//! ring is first sized — which makes it safe at commit-path frequencies
//! and legal inside re-executable atomic closures: an aborted attempt's
//! events simply stay in the ring attributed to that attempt number.
//!
//! Memory is bounded: each lane holds at most the configured ring
//! capacity (default [`DEFAULT_RING_EVENTS`] events of
//! `size_of::<EventRecord>()` bytes each, ≈ 48 B, so ≈ 192 KiB per
//! thread at the default); older events are overwritten and counted in
//! `dropped`.
//!
//! Cold paths go through a global mutex: [`flush_thread`] moves a lane's
//! contents into the global collected buffer (called once per thread at
//! worker exit), [`drain_events`] takes everything for export, and
//! [`dump_anomaly`] snapshots the *calling thread's* recent history into
//! the dump list — anomalies (escalation, livelock cap, durability loss,
//! worker panic) are detected on the thread whose history explains them,
//! so the observing thread can always read its own ring without racing.
//!
//! When the recorder is disabled ([`enabled`] is false) every
//! instrumentation point costs one relaxed atomic load and a branch.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_EVENTS: usize = 4096;

/// One transaction-lifecycle event. All variants are `Copy` and carry
/// only scalars and `&'static str` labels so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TxEvent {
    /// A request entered the TxKV service and was assigned to a shard
    /// queue. Emitted on the *client* thread, under the freshly minted
    /// trace id.
    Ingress {
        /// Destination shard index.
        shard: u32,
        /// The request's scheduling class.
        class: u32,
    },
    /// A shard worker dequeued the request and started processing it.
    Dequeue {
        /// Time the request spent waiting in the shard queue, ns.
        wait_ns: u64,
    },
    /// The worker finished the request and sent the reply.
    Reply {
        /// `"ok"` for success, otherwise the error label (`"shed"`,
        /// `"aborted"`, ...).
        outcome: &'static str,
    },
    /// A transaction attempt began. Bumps the lane's attempt counter.
    Begin,
    /// The attempt's read set grew to `len` addresses (sampled at powers
    /// of two to bound event volume).
    ReadSet {
        /// Read-set size at the sample point.
        len: u32,
    },
    /// The attempt's write set grew to `len` addresses (sampled at
    /// powers of two).
    WriteSet {
        /// Write-set size at the sample point.
        len: u32,
    },
    /// A validation request was submitted to the FPGA service.
    ValidateSubmit {
        /// Read-set size in the request.
        reads: u32,
        /// Write/update-set size in the request.
        writes: u32,
    },
    /// The FPGA verdict arrived.
    Verdict {
        /// `"commit"`, `"abort-cycle"`, `"abort-window"` or `"stopped"`.
        verdict: &'static str,
        /// Modelled end-to-end validation latency (timing model), ns.
        model_ns: u64,
        /// Modelled Detector-stage share of `model_ns`, ns.
        detector_ns: u64,
        /// Modelled Manager-stage share of `model_ns`, ns.
        manager_ns: u64,
        /// Requests in flight at the validation service (occupancy).
        in_flight: u32,
    },
    /// The attempt aborted.
    Abort {
        /// Canonical `AbortKind::as_label()` string.
        kind: &'static str,
    },
    /// The attempt committed.
    Commit {
        /// Global commit sequence number (0 for read-only commits and
        /// for backends without one).
        seq: u64,
    },
    /// The thread escalated to irrevocable (fallback-locked) execution.
    Escalated {
        /// Consecutive aborts that triggered the escalation.
        consecutive_aborts: u32,
    },
    /// A WAL append for this transaction was acknowledged durable.
    WalAppend {
        /// The appended commit sequence number.
        seq: u64,
        /// Number of key-value writes in the record.
        writes: u32,
    },
    /// The WAL writer completed an fsync batch.
    WalFsync {
        /// Records covered by the fsync.
        records: u64,
        /// Wall-clock fsync duration, ns.
        ns: u64,
    },
    /// The retry policy backed off before re-attempting.
    Backoff {
        /// 1-based attempt number that just failed.
        attempt: u32,
        /// Backoff delay before the next attempt, ns.
        delay_ns: u64,
    },
    /// The fault injector perturbed the validation service.
    Fault {
        /// Injected fault kind (delay, reorder, spurious verdict, ...).
        kind: &'static str,
    },
    /// A committed transaction's durability acknowledgement was lost
    /// (WAL dead).
    DurabilityLost,
    /// A transaction body panicked in a worker.
    WorkerPanic,
    /// The replication shipper broadcast a stream batch to a follower.
    ReplShip {
        /// First commit sequence number in the batch.
        first_seq: u64,
        /// Records in the batch.
        records: u32,
        /// Follower the batch was shipped to.
        follower: u32,
    },
    /// A follower applied a replication batch to its store.
    ReplApply {
        /// The follower's index in the cluster.
        follower: u32,
        /// First sequence number *not yet* applied after this batch (the
        /// follower's new watermark).
        next_seq: u64,
        /// Records applied from the batch (duplicates skipped).
        records: u32,
    },
    /// The cluster coordinator completed a primary fail-over.
    Failover {
        /// The cluster epoch after the fail-over.
        epoch: u64,
        /// Index of the follower elected as the new primary.
        elected: u32,
    },
    /// The hybrid scheduler routed a transaction attempt to a backend.
    Route {
        /// The caller-supplied scheduling class of the transaction.
        class: u32,
        /// `"htm"` or `"sw"` — the path the router chose.
        path: &'static str,
    },
    /// The hybrid scheduler made a transaction wait before admission
    /// (backend mode drain).
    RouteDefer {
        /// The caller-supplied scheduling class of the transaction.
        class: u32,
        /// `"mode-drain"`: waiting for the other engine's transactions
        /// to retire.
        reason: &'static str,
    },
}

impl TxEvent {
    /// Short stable name for rendering and tests.
    pub fn name(&self) -> &'static str {
        match self {
            TxEvent::Ingress { .. } => "ingress",
            TxEvent::Dequeue { .. } => "dequeue",
            TxEvent::Reply { .. } => "reply",
            TxEvent::Begin => "begin",
            TxEvent::ReadSet { .. } => "read-set",
            TxEvent::WriteSet { .. } => "write-set",
            TxEvent::ValidateSubmit { .. } => "validate-submit",
            TxEvent::Verdict { .. } => "verdict",
            TxEvent::Abort { .. } => "abort",
            TxEvent::Commit { .. } => "commit",
            TxEvent::Escalated { .. } => "escalated",
            TxEvent::WalAppend { .. } => "wal-append",
            TxEvent::WalFsync { .. } => "wal-fsync",
            TxEvent::Backoff { .. } => "backoff",
            TxEvent::Fault { .. } => "fault",
            TxEvent::DurabilityLost => "durability-lost",
            TxEvent::WorkerPanic => "worker-panic",
            TxEvent::ReplShip { .. } => "repl-ship",
            TxEvent::ReplApply { .. } => "repl-apply",
            TxEvent::Failover { .. } => "failover",
            TxEvent::Route { .. } => "route",
            TxEvent::RouteDefer { .. } => "route-defer",
        }
    }
}

/// A recorded event with its timing and attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Nanoseconds since the recorder was (first) enabled.
    pub ns: u64,
    /// Recorder lane id (one per participating thread).
    pub lane: u32,
    /// Per-lane transaction attempt number (bumped by [`TxEvent::Begin`]).
    pub attempt: u64,
    /// Causal trace id of the request this event belongs to, captured
    /// from the emitting thread's trace context at emission time. 0
    /// means "no request context" (infrastructure events such as WAL
    /// fsyncs or replication batches, or tracing disabled).
    pub trace: u64,
    /// The event.
    pub event: TxEvent,
}

/// An anomaly dump: the dumping thread's buffered history at the moment
/// the anomaly was observed.
#[derive(Debug, Clone)]
pub struct AnomalyDump {
    /// Why the dump was taken (e.g. `"irrevocability-escalation"`).
    pub reason: &'static str,
    /// Nanoseconds since recorder enable at the dump point.
    pub ns: u64,
    /// Lane (thread) that observed the anomaly.
    pub lane: u32,
    /// Events overwritten by ring wrap-around before this dump (0 means
    /// `events` is the lane's complete history).
    pub dropped: u64,
    /// The lane's buffered events, oldest first.
    pub events: Vec<EventRecord>,
}

impl AnomalyDump {
    /// Human-readable rendering, one event per line.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "anomaly `{}` on lane {} at {} ns ({} events, {} dropped)\n",
            self.reason,
            self.lane,
            self.ns,
            self.events.len(),
            self.dropped
        );
        for e in &self.events {
            let _ = writeln!(
                out,
                "  {:>12} ns  attempt {:>4}  {:?}",
                e.ns, e.attempt, e.event
            );
        }
        out
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU32 = AtomicU32::new(0);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static RING_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_RING_EVENTS);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static COLLECTED: Mutex<Vec<EventRecord>> = Mutex::new(Vec::new());
static DUMPS: Mutex<Vec<AnomalyDump>> = Mutex::new(Vec::new());
static LANE_NAMES: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());

struct Lane {
    id: u32,
    generation: u32,
    attempt: u64,
    cap: usize,
    buf: Vec<EventRecord>,
    /// Next overwrite position once `buf` is full.
    head: usize,
    dropped: u64,
}

thread_local! {
    static LANE: RefCell<Option<Lane>> = const { RefCell::new(None) };
    /// The request trace id events on this thread are currently
    /// attributed to. Plain per-thread state, not part of any atomic
    /// closure, so setting it is re-execution-safe: re-running an
    /// attempt re-stamps the same id.
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Mints a fresh non-zero trace id. Called once per request at TxKV
/// ingress; ids are process-global and never reused within a run.
#[inline]
pub fn mint_trace() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// Sets the calling thread's trace context: subsequent events emitted on
/// this thread carry `trace` until [`clear_current_trace`] or the next
/// `set_current_trace`. Idempotent, so calling it again for the same
/// request (e.g. before a re-executed attempt) is harmless.
#[inline]
pub fn set_current_trace(trace: u64) {
    CURRENT_TRACE.with(|t| t.set(trace));
}

/// Clears the calling thread's trace context; subsequent events carry
/// trace 0 (no request attribution).
#[inline]
pub fn clear_current_trace() {
    CURRENT_TRACE.with(|t| t.set(0));
}

/// The calling thread's current trace context (0 when unset).
// `Cell::get` is passed as a path, not called as `.get(..)`: the
// lint's name-based blocking propagation would otherwise conflate this
// accessor with blocking `get`s elsewhere in the workspace and taint
// every `Lane::push` call site.
#[inline]
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(Cell::get)
}

impl Lane {
    fn new() -> Self {
        let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("lane-{id}"));
        if let Ok(mut names) = LANE_NAMES.lock() {
            names.push((id, name));
        }
        Self {
            id,
            generation: GENERATION.load(Ordering::Relaxed),
            attempt: 0,
            cap: RING_CAP.load(Ordering::Relaxed).max(16),
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Discards buffered state when the recorder was re-enabled since
    /// this lane last recorded (stale events from a previous run).
    fn refresh(&mut self) {
        let generation = GENERATION.load(Ordering::Relaxed);
        if self.generation != generation {
            self.generation = generation;
            self.attempt = 0;
            self.cap = RING_CAP.load(Ordering::Relaxed).max(16);
            self.buf.clear();
            self.head = 0;
            self.dropped = 0;
        }
    }

    fn push(&mut self, event: TxEvent) {
        self.refresh();
        if matches!(event, TxEvent::Begin) {
            self.attempt += 1;
        }
        let rec = EventRecord {
            ns: now_ns(),
            lane: self.id,
            attempt: self.attempt,
            trace: current_trace(),
            event,
        };
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Buffered events, oldest first.
    fn in_order(&self) -> Vec<EventRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// True when the flight recorder is enabled. This relaxed load is the
/// entire disabled-path cost of every instrumentation point.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables the recorder with the given per-thread ring capacity (in
/// events; clamped to at least 16), clearing previously collected
/// events, dumps, and — lazily, on their next emission — stale lane
/// contents from a previous enable.
pub fn enable(ring_events: usize) {
    let _ = EPOCH.get_or_init(Instant::now);
    RING_CAP.store(ring_events.max(16), Ordering::Relaxed);
    GENERATION.fetch_add(1, Ordering::Relaxed);
    if let Ok(mut c) = COLLECTED.lock() {
        c.clear();
    }
    if let Ok(mut d) = DUMPS.lock() {
        d.clear();
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables the recorder. In-flight emissions on other threads may still
/// land in their lanes; they are discarded on the next [`enable`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Records `event` on the calling thread's lane. Callers should use the
/// [`tlm_event!`](crate::tlm_event) macro instead, which performs the
/// enabled check before evaluating the event expression.
pub fn emit(event: TxEvent) {
    if !enabled() {
        return;
    }
    LANE.with(|l| {
        if let Ok(mut slot) = l.try_borrow_mut() {
            slot.get_or_insert_with(Lane::new).push(event);
        }
    });
}

/// Moves the calling thread's buffered events into the global collected
/// buffer. Call once per participating thread when it finishes (worker
/// exit, service shutdown); [`drain_events`] flushes the *calling*
/// thread automatically.
pub fn flush_thread() {
    LANE.with(|l| {
        let mut slot = l.borrow_mut();
        if let Some(lane) = slot.as_mut() {
            lane.refresh();
            if lane.buf.is_empty() {
                return;
            }
            let events = lane.in_order();
            lane.buf.clear();
            lane.head = 0;
            if let Ok(mut c) = COLLECTED.lock() {
                c.extend_from_slice(&events);
            }
        }
    });
}

/// Flushes the calling thread, then takes and returns every collected
/// event, sorted by timestamp. Threads that have not called
/// [`flush_thread`] keep their buffered events.
pub fn drain_events() -> Vec<EventRecord> {
    flush_thread();
    let mut events = match COLLECTED.lock() {
        Ok(mut c) => std::mem::take(&mut *c),
        Err(_) => Vec::new(),
    };
    events.sort_by_key(|e| (e.ns, e.lane));
    events
}

/// Snapshots the calling thread's buffered history as an [`AnomalyDump`]
/// with the given reason. No-op when the recorder is disabled.
pub fn dump_anomaly(reason: &'static str) {
    if !enabled() {
        return;
    }
    LANE.with(|l| {
        let mut slot = l.borrow_mut();
        let Some(lane) = slot.as_mut() else { return };
        lane.refresh();
        let dump = AnomalyDump {
            reason,
            ns: now_ns(),
            lane: lane.id,
            dropped: lane.dropped,
            events: lane.in_order(),
        };
        if let Ok(mut d) = DUMPS.lock() {
            d.push(dump);
        }
    });
}

/// Takes and returns every anomaly dump recorded since [`enable`].
pub fn take_dumps() -> Vec<AnomalyDump> {
    match DUMPS.lock() {
        Ok(mut d) => std::mem::take(&mut *d),
        Err(_) => Vec::new(),
    }
}

/// `(lane id, thread name)` pairs for every lane ever created, for
/// labelling trace tracks.
pub fn lane_names() -> Vec<(u32, String)> {
    LANE_NAMES.lock().map(|n| n.clone()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The recorder is process-global; tests in this module serialise on
    /// this lock so enable/disable cycles don't interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let _g = serial();
        disable();
        crate::tlm_event!(TxEvent::Begin);
        enable(64);
        assert!(drain_events().is_empty());
        disable();
    }

    #[test]
    fn events_carry_attempt_numbers_and_order() {
        let _g = serial();
        enable(64);
        emit(TxEvent::Begin);
        emit(TxEvent::ReadSet { len: 1 });
        emit(TxEvent::Abort {
            kind: "cpu-stale-read",
        });
        emit(TxEvent::Begin);
        emit(TxEvent::Commit { seq: 9 });
        let events = drain_events();
        disable();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].attempt, 1);
        assert_eq!(events[2].attempt, 1);
        assert_eq!(events[3].attempt, 2);
        assert_eq!(events[4].event, TxEvent::Commit { seq: 9 });
        assert!(events.windows(2).all(|w| w[0].ns <= w[1].ns));
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let _g = serial();
        enable(16); // clamped minimum
        for i in 0..40 {
            emit(TxEvent::Commit { seq: i });
        }
        LANE.with(|l| {
            let mut slot = l.borrow_mut();
            let lane = slot.as_mut().unwrap();
            lane.refresh();
            assert_eq!(lane.buf.len(), 16);
            assert_eq!(lane.dropped, 24);
            let events = lane.in_order();
            // Oldest surviving event first.
            assert_eq!(events[0].event, TxEvent::Commit { seq: 24 });
            assert_eq!(events[15].event, TxEvent::Commit { seq: 39 });
        });
        let _ = drain_events();
        disable();
    }

    #[test]
    fn cross_thread_flush_collects_everything() {
        let _g = serial();
        enable(1024);
        std::thread::scope(|s| {
            for t in 0..3 {
                s.spawn(move || {
                    emit(TxEvent::Begin);
                    emit(TxEvent::Commit { seq: t });
                    flush_thread();
                });
            }
        });
        let events = drain_events();
        disable();
        assert_eq!(events.len(), 6);
        let lanes: std::collections::HashSet<u32> = events.iter().map(|e| e.lane).collect();
        assert_eq!(lanes.len(), 3);
    }

    #[test]
    fn anomaly_dump_snapshots_own_history() {
        let _g = serial();
        enable(256);
        emit(TxEvent::Begin);
        emit(TxEvent::Abort { kind: "fpga-cycle" });
        emit(TxEvent::Begin);
        emit(TxEvent::Abort { kind: "fpga-cycle" });
        dump_anomaly("test-escalation");
        let dumps = take_dumps();
        let _ = drain_events();
        disable();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.reason, "test-escalation");
        assert_eq!(d.dropped, 0);
        assert_eq!(d.events.len(), 4);
        assert_eq!(d.events[3].attempt, 2);
        assert!(d.to_text().contains("test-escalation"));
    }

    #[test]
    fn trace_context_stamps_events() {
        let _g = serial();
        enable(64);
        let t = mint_trace();
        assert_ne!(t, 0);
        set_current_trace(t);
        emit(TxEvent::Begin);
        emit(TxEvent::Commit { seq: 1 });
        clear_current_trace();
        emit(TxEvent::WalFsync { records: 1, ns: 10 });
        let events = drain_events();
        disable();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].trace, t);
        assert_eq!(events[1].trace, t);
        assert_eq!(events[2].trace, 0);
    }

    #[test]
    fn ring_wraparound_does_not_leak_across_generation_bump() {
        let _g = serial();
        // First generation: wrap the ring several times over so head is
        // mid-buffer and `dropped` is non-zero when the recorder stops.
        enable(16);
        for i in 0..50 {
            emit(TxEvent::Commit { seq: i });
        }
        LANE.with(|l| {
            let mut slot = l.borrow_mut();
            let lane = slot.as_mut().unwrap();
            lane.refresh();
            assert_eq!(lane.buf.len(), 16);
            assert!(lane.dropped > 0);
            assert_ne!(lane.head, 0, "wrap must leave head mid-buffer");
        });
        disable();
        // Second generation: the stale wrapped ring must be discarded on
        // the lane's next emission, not rotated into the new export.
        enable(16);
        emit(TxEvent::Begin);
        emit(TxEvent::Commit { seq: 1000 });
        LANE.with(|l| {
            let mut slot = l.borrow_mut();
            let lane = slot.as_mut().unwrap();
            assert_eq!(lane.head, 0, "generation bump must reset head");
            assert_eq!(lane.dropped, 0, "generation bump must reset drops");
        });
        let events = drain_events();
        disable();
        assert_eq!(events.len(), 2, "stale-generation events leaked");
        assert_eq!(events[0].event, TxEvent::Begin);
        assert_eq!(events[0].attempt, 1, "attempt counter must restart");
        assert_eq!(events[1].event, TxEvent::Commit { seq: 1000 });
        // Wrap the new generation's ring too: survivors must all be
        // post-bump events.
        enable(16);
        for i in 0..40 {
            emit(TxEvent::Commit { seq: 2000 + i });
        }
        let events = drain_events();
        disable();
        assert_eq!(events.len(), 16);
        assert!(events
            .iter()
            .all(|e| matches!(e.event, TxEvent::Commit { seq } if seq >= 2000)));
    }

    #[test]
    fn reenable_discards_stale_lane_contents() {
        let _g = serial();
        enable(64);
        emit(TxEvent::Begin);
        disable();
        enable(64);
        emit(TxEvent::Commit { seq: 1 });
        let events = drain_events();
        disable();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, TxEvent::Commit { seq: 1 });
        // Attempt counter also reset with the generation.
        assert_eq!(events[0].attempt, 0);
    }
}
