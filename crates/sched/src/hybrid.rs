//! `HybridTm`: the adaptive hybrid transaction system.
//!
//! Wraps a [`TsxHtm`] fast path and a [`RococoTm`] slow path over one
//! shared heap, routing each transaction attempt per the module docs of
//! [`crate::router`], [`crate::conflict`] and [`crate::gate`].

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rococo_sigs::{Sig, SigScheme};
use rococo_stm::{
    Abort, AbortKind, Addr, HtmConfig, PendingCommit, RococoConfig, RococoTm, StatsSnapshot,
    TmConfig, TmHeap, TmStats, TmSystem, Transaction, TsxHtm, Word,
};

use crate::conflict::ConflictTable;
use crate::gate::{ModeGate, ModeGuard};
use crate::router::{Hysteresis, Router};

type HwTx<'a> = <TsxHtm as TmSystem>::Tx<'a>;
type SwTx<'a> = <RococoTm as TmSystem>::Tx<'a>;
type SwPending<'a> = <SwTx<'a> as Transaction>::Pending;

/// Construction parameters for [`HybridTm`].
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Shared heap size and worker count (≤ 64 threads — the HTM
    /// emulation's snoop-filter limit).
    pub tm: TmConfig,
    /// Slow-path (ROCoCoTM) parameters; its `tm` field is overridden
    /// with [`HybridConfig::tm`].
    pub rococo: RococoConfig,
    /// Fast-path (HTM emulation) parameters.
    pub htm: HtmConfig,
    /// Scheduling classes the router distinguishes (class tags are
    /// clamped into this range).
    pub classes: usize,
    /// Initial/ceiling admission bound on predicted read footprints,
    /// in words (the limited-read-set half of the admission rule).
    pub read_bound: u32,
    /// Initial/ceiling admission bound on predicted write footprints,
    /// in words (the limited-write-set half).
    pub write_bound: u32,
    /// HTM capacity aborts tolerated before a class is banned from the
    /// fast path.
    pub strike_limit: u32,
    /// Base fast-path ban length, in router-clock ticks (one tick per
    /// route); doubles per consecutive ban.
    pub cooldown: u64,
    /// Cap on the exponential ban backoff.
    pub max_streak_shift: u32,
    /// Attributed abort edges per adapt interval that make a class pair
    /// hot enough to serialize through one admission token.
    pub hot_threshold: u32,
    /// Routes between feedback-loop steps.
    pub adapt_interval: u64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            tm: TmConfig::default(),
            rococo: RococoConfig::default(),
            htm: HtmConfig::default(),
            classes: 16,
            read_bound: 256,
            write_bound: 64,
            strike_limit: 3,
            cooldown: 256,
            max_streak_shift: 6,
            hot_threshold: 32,
            adapt_interval: 1024,
        }
    }
}

rococo_telemetry::stats_block! {
    /// Router/scheduler counters, all monotone.
    struct SchedStats;
    /// A point-in-time copy of the scheduler counters.
    #[derive(Copy)]
    pub struct SchedSnapshot;

    counters {
        /// They never block: the software mode was active.
        htm_overflow: "rococo_sched_htm_overflow_total", "HTM-eligible attempts redirected to software by the mode gate";
        migrations: "rococo_sched_migrations_total", "Mid-retry migrations (HTM capacity abort re-routed to software)";
        capacity_bans: "rococo_sched_capacity_bans_total", "Fast-path bans issued by the capacity hysteresis";
        adapts: "rococo_sched_adapts_total", "Feedback-loop steps taken";
    }
    groups {
        "rococo_sched_routes_total", "Transaction attempts routed, by chosen path" {
            /// Attempts routed to the HTM fast path.
            routes_htm: path = "htm";
            /// Attempts routed to the ROCoCoTM slow path.
            routes_sw: path = "sw";
        }
        "rococo_sched_commits_total", "Commits retired, by path" {
            /// Commits retired on the fast path.
            commits_htm: path = "htm";
            /// Commits retired on the slow path.
            commits_sw: path = "sw";
        }
        "rococo_sched_deferrals_total", "Attempts that waited before admission, by reason" {
            /// Attempts that waited on a conflict-serialization token.
            deferrals_token: reason = "token";
            /// Attempts that waited for the other engine's epoch to drain.
            deferrals_mode: reason = "mode-drain";
        }
    }
    gauges {
        serialized_classes: u32 = "rococo_sched_serialized_classes", "Classes currently inside a conflict-serialization group";
        /// In words.
        read_bound: u32 = "rococo_sched_read_bound_words", "Current admission bound on predicted read footprints";
        /// In words.
        write_bound: u32 = "rococo_sched_write_bound_words", "Current admission bound on predicted write footprints";
    }
}

impl SchedSnapshot {
    /// Total routing deferrals (token + mode-drain waits).
    pub fn deferrals(&self) -> u64 {
        self.deferrals_token + self.deferrals_mode
    }
}

#[derive(Debug, Default)]
struct AdaptState {
    last_capacity_aborts: u64,
    epoch: u64,
}

/// The adaptive hybrid transaction system. See the crate docs.
#[derive(Debug)]
pub struct HybridTm {
    heap: Arc<TmHeap>,
    rococo: RococoTm,
    htm: TsxHtm,
    /// Outer stats: the generic entry points bump starts/commits/aborts
    /// here exactly once per attempt. The engines' own stats carry only
    /// their internal counters (fallback/read-only commits, validation
    /// timings), which [`HybridTm::stats_snapshot`] folds in.
    stats: TmStats,
    gate: ModeGate,
    router: Router,
    conflicts: ConflictTable,
    scheme: SigScheme,
    /// Per-thread scheduling class, set via `set_tx_class`.
    class_of: Vec<AtomicU32>,
    /// Per-thread flag: the previous attempt died of an HTM capacity
    /// abort, so the next attempt must migrate to the software path.
    migrate_next: Vec<AtomicBool>,
    /// Router clock: one tick per route (the cooldown time base — no
    /// wall clock, so routing decisions stay deterministic under test).
    clock: AtomicU64,
    sched: SchedStats,
    adapt_state: Mutex<AdaptState>,
    config: HybridConfig,
}

impl HybridTm {
    /// Creates a hybrid system with default routing parameters.
    pub fn with_config(tm: TmConfig) -> Self {
        Self::with_configs(HybridConfig {
            tm,
            ..HybridConfig::default()
        })
    }

    /// Creates a hybrid system with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `tm.max_threads > 64` (HTM emulation limit), if
    /// `classes` is 0 or greater than 64, or on invalid ROCoCoTM
    /// parameters.
    pub fn with_configs(mut config: HybridConfig) -> Self {
        assert!(
            config.tm.max_threads <= 64,
            "the hybrid's HTM fast path supports at most 64 threads"
        );
        assert!(
            (1..=64).contains(&config.classes),
            "classes must be in 1..=64"
        );
        config.rococo.tm = config.tm;
        let heap = Arc::new(TmHeap::new(config.tm.heap_words));
        let rococo = RococoTm::with_shared_heap(config.rococo.clone(), heap.clone());
        let htm = TsxHtm::with_shared_heap(config.tm, config.htm, heap.clone());
        let scheme = rococo.scheme().clone();
        let hysteresis = Hysteresis {
            strike_limit: config.strike_limit.max(1),
            cooldown: config.cooldown.max(1),
            max_streak_shift: config.max_streak_shift,
        };
        Self {
            router: Router::new(
                config.classes,
                hysteresis,
                config.read_bound,
                config.write_bound,
            ),
            conflicts: ConflictTable::new(config.classes, scheme.clone()),
            scheme,
            class_of: (0..config.tm.max_threads)
                .map(|_| AtomicU32::new(0))
                .collect(),
            migrate_next: (0..config.tm.max_threads)
                .map(|_| AtomicBool::new(false))
                .collect(),
            heap,
            rococo,
            htm,
            stats: TmStats::default(),
            gate: ModeGate::new(),
            clock: AtomicU64::new(0),
            sched: SchedStats::default(),
            adapt_state: Mutex::new(AdaptState::default()),
            config,
        }
    }

    /// The wrapped slow-path runtime (validator handle, FPGA stats).
    pub fn rococo(&self) -> &RococoTm {
        &self.rococo
    }

    /// A point-in-time copy of the router/scheduler counters.
    pub fn sched_snapshot(&self) -> SchedSnapshot {
        self.sched.snapshot(
            self.conflicts.serialized_classes(),
            self.router.read_bound(),
            self.router.write_bound(),
        )
    }

    /// Commit bookkeeping shared by all commit shapes; runs while the
    /// committer's mode guard is still held.
    fn on_commit(&self, thread: usize, class: usize, on_htm: bool, fp: &Footprint) {
        self.router
            .record_commit(class, fp.reads, fp.writes, on_htm);
        if fp.writes > 0 {
            self.conflicts.record_commit_writes(class, &fp.wsig);
        }
        let ctr = if on_htm {
            &self.sched.commits_htm
        } else {
            &self.sched.commits_sw
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        self.migrate_next[thread].store(false, Ordering::Relaxed);
    }

    /// Abort bookkeeping shared by all abort shapes.
    fn on_abort(&self, thread: usize, class: usize, on_htm: bool, kind: AbortKind, fp: &Footprint) {
        match kind {
            AbortKind::Capacity if on_htm => {
                self.migrate_next[thread].store(true, Ordering::Relaxed);
                let now = self.clock.load(Ordering::Relaxed);
                if self.router.record_capacity(class, now) {
                    self.sched.capacity_bans.fetch_add(1, Ordering::Relaxed);
                }
            }
            AbortKind::Conflict | AbortKind::FpgaCycle | AbortKind::FpgaWindow => {
                self.conflicts.attribute_abort(class, &fp.sig);
            }
            _ => {}
        }
    }

    /// The feedback loop: consumes the abort-cause counters the generic
    /// entry points accumulate on the outer stats (the same counters the
    /// telemetry registry exports) plus the footprint samples already
    /// folded into the router EWMAs, and adapts admission bounds and
    /// serialization groups. Skipped when another thread is mid-step.
    fn adapt(&self) {
        let Some(mut st) = self.adapt_state.try_lock() else {
            return;
        };
        self.sched.adapts.fetch_add(1, Ordering::Relaxed);
        let caps = self.stats.aborts[AbortKind::Capacity.index()].load(Ordering::Relaxed);
        let delta = caps.saturating_sub(st.last_capacity_aborts);
        st.last_capacity_aborts = caps;
        let now = self.clock.load(Ordering::Relaxed);
        self.router.adapt_bounds(delta, now);
        self.conflicts.adapt(self.config.hot_threshold, st.epoch);
        st.epoch += 1;
    }
}

/// Footprint bookkeeping carried by a transaction from begin to its
/// commit/abort point.
#[derive(Debug)]
struct Footprint {
    reads: u32,
    writes: u32,
    /// Read+write footprint signature (abort attribution).
    sig: Sig,
    /// Write-only footprint signature (published on commit).
    wsig: Sig,
}

#[derive(Debug)]
enum Inner<'a> {
    Htm(HwTx<'a>),
    Sw(SwTx<'a>),
}

/// A [`HybridTm`] transaction.
///
/// Field order is load-bearing: the inner transaction must drop (and
/// release its engine claims) before the mode guard retires us from the
/// epoch, and the admission token goes last.
#[derive(Debug)]
pub struct HybridTx<'a> {
    tm: &'a HybridTm,
    thread: usize,
    class: usize,
    on_htm: bool,
    fp: Footprint,
    /// Ensures `on_abort` bookkeeping fires at most once per attempt
    /// (execution-time aborts surface through `read`/`write`, which a
    /// doomed-but-still-running closure may call again).
    abort_noted: bool,
    inner: Option<Inner<'a>>,
    guard: Option<ModeGuard<'a>>,
    /// Held for its release point, never read: the conflict-serialization
    /// token covers the *execute* window only. It is released at the
    /// first commit step (`submit_commit`/`commit_seq`), before anything
    /// that can block: a committer may turn-wait on sequences whose
    /// owners are parked in other workers' pending batches, and those
    /// workers must be able to acquire our token to reach their drain.
    #[allow(dead_code)]
    token: Option<parking_lot::MutexGuard<'a, ()>>,
}

impl HybridTx<'_> {
    /// Routes execution-time aborts (capacity overflows, eager conflict
    /// detection) into the scheduler's feedback loop. Commit-time aborts
    /// take their own path through `commit_seq`/`finish`.
    fn note_abort<T>(&mut self, res: Result<T, Abort>) -> Result<T, Abort> {
        if let Err(abort) = &res {
            if !self.abort_noted {
                self.abort_noted = true;
                self.tm
                    .on_abort(self.thread, self.class, self.on_htm, abort.kind, &self.fp);
            }
        }
        res
    }
}

impl<'a> Transaction for HybridTx<'a> {
    fn read(&mut self, addr: Addr) -> Result<Word, Abort> {
        self.fp.reads += 1;
        self.tm.scheme.insert(&mut self.fp.sig, addr as u64);
        let res = match self.inner.as_mut().expect("transaction already consumed") {
            Inner::Htm(tx) => tx.read(addr),
            Inner::Sw(tx) => tx.read(addr),
        };
        self.note_abort(res)
    }

    fn write(&mut self, addr: Addr, val: Word) -> Result<(), Abort> {
        self.fp.writes += 1;
        self.tm.scheme.insert(&mut self.fp.sig, addr as u64);
        self.tm.scheme.insert(&mut self.fp.wsig, addr as u64);
        let res = match self.inner.as_mut().expect("transaction already consumed") {
            Inner::Htm(tx) => tx.write(addr, val),
            Inner::Sw(tx) => tx.write(addr, val),
        };
        self.note_abort(res)
    }

    fn commit_seq(mut self) -> Result<Option<u64>, Abort> {
        // Execute window over: release the serialization token before the
        // commit can turn-wait (deadlock freedom — see the `token` docs).
        self.token = None;
        let res = match self.inner.take().expect("transaction already consumed") {
            Inner::Htm(tx) => tx.commit_seq(),
            Inner::Sw(tx) => tx.commit_seq(),
        };
        match res {
            Ok(seq) => {
                self.tm
                    .on_commit(self.thread, self.class, self.on_htm, &self.fp);
                // Map while the guard (still a field of `self`) pins the
                // mode — the rebase invariant of [`crate::gate`].
                Ok(seq.map(|s| self.tm.gate.map_seq(self.on_htm, s)))
            }
            Err(abort) => {
                if !self.abort_noted {
                    self.abort_noted = true;
                    self.tm
                        .on_abort(self.thread, self.class, self.on_htm, abort.kind, &self.fp);
                }
                Err(abort)
            }
        }
    }

    type Pending = HybridPending<'a>;

    fn submit_commit(mut self) -> Result<HybridPending<'a>, Self> {
        // Execute window over: release the serialization token before any
        // commit step, *including* the `Err(self)` hand-backs — the
        // worker drains its pending batch before the deferred commit, and
        // that drain turn-waits on sequences whose owners may be blocked
        // acquiring this very token (deadlock freedom — see `token`).
        self.token = None;
        match self.inner.take().expect("transaction already consumed") {
            Inner::Htm(tx) => {
                // The HTM emulation settles at submit; do the commit
                // bookkeeping now, while guard and token are still held.
                let outcome = match tx.submit_commit() {
                    Ok(ready) => ready.finish(),
                    Err(tx) => {
                        self.inner = Some(Inner::Htm(tx));
                        return Err(self);
                    }
                };
                let mapped = match outcome {
                    Ok(seq) => {
                        self.tm.on_commit(self.thread, self.class, true, &self.fp);
                        Ok(seq.map(|s| self.tm.gate.map_seq(true, s)))
                    }
                    Err(abort) => {
                        if !self.abort_noted {
                            self.abort_noted = true;
                            self.tm
                                .on_abort(self.thread, self.class, true, abort.kind, &self.fp);
                        }
                        Err(abort)
                    }
                };
                Ok(HybridPending(PendingInner::Ready(mapped)))
            }
            Inner::Sw(tx) => match tx.submit_commit() {
                Ok(pending) => {
                    // The pending keeps the mode guard (software mode
                    // stays pinned until the verdict lands); the token was
                    // already released above so a hot class's next attempt
                    // can overlap our verdict wait.
                    let wsig_empty = Sig::zeroed(0);
                    let sig_empty = Sig::zeroed(0);
                    Ok(HybridPending(PendingInner::Sw {
                        tm: self.tm,
                        pending,
                        guard: self.guard.take(),
                        thread: self.thread,
                        class: self.class,
                        fp: Footprint {
                            reads: self.fp.reads,
                            writes: self.fp.writes,
                            sig: std::mem::replace(&mut self.fp.sig, sig_empty),
                            wsig: std::mem::replace(&mut self.fp.wsig, wsig_empty),
                        },
                    }))
                }
                Err(tx) => {
                    // The slow path demands a synchronous commit
                    // (irrevocable or contended commit gate): hand the
                    // rebuilt hybrid transaction back for
                    // `commit_deferred`.
                    self.inner = Some(Inner::Sw(tx));
                    Err(self)
                }
            },
        }
    }
}

/// A [`HybridTx`] whose commit was submitted. HTM commits are settled
/// already; software commits carry the ROCoCoTM pending plus the mode
/// guard that pins the software epoch until the verdict lands.
#[derive(Debug)]
pub struct HybridPending<'a>(PendingInner<'a>);

// The size skew is deliberate: a pending is created per commit on the
// hot path and lives on the worker's stack/batch vector only — boxing
// the software variant would buy a heap allocation per transaction to
// save bytes nobody keeps around.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum PendingInner<'a> {
    /// Settled at submit (HTM path).
    Ready(Result<Option<u64>, Abort>),
    /// Validation in flight on the software path.
    Sw {
        tm: &'a HybridTm,
        pending: SwPending<'a>,
        /// Pins the software mode until finished/dropped.
        guard: Option<ModeGuard<'a>>,
        thread: usize,
        class: usize,
        fp: Footprint,
    },
}

impl PendingCommit for HybridPending<'_> {
    fn finish(self) -> Result<Option<u64>, Abort> {
        match self.0 {
            PendingInner::Ready(outcome) => outcome,
            PendingInner::Sw {
                tm,
                pending,
                guard,
                thread,
                class,
                fp,
            } => {
                let out = match pending.finish() {
                    Ok(seq) => {
                        tm.on_commit(thread, class, false, &fp);
                        Ok(seq.map(|s| tm.gate.map_seq(false, s)))
                    }
                    Err(abort) => {
                        tm.on_abort(thread, class, false, abort.kind, &fp);
                        Err(abort)
                    }
                };
                // Only now release the epoch.
                drop(guard);
                out
            }
        }
    }
}

impl TmSystem for HybridTm {
    type Tx<'a> = HybridTx<'a>;

    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn heap(&self) -> &TmHeap {
        &self.heap
    }

    fn begin(&self, thread_id: usize) -> HybridTx<'_> {
        let class = (self.class_of[thread_id].load(Ordering::Relaxed) as usize)
            .min(self.router.n_classes() - 1);
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if now.is_multiple_of(self.config.adapt_interval) {
            self.adapt();
        }
        // Mid-retry migration: an attempt that just died of an HTM
        // capacity abort re-routes to the software path immediately (the
        // hysteresis ban may or may not have triggered yet).
        let migrate = self.migrate_next[thread_id].load(Ordering::Relaxed);
        let eligible = !migrate && self.router.htm_eligible(class, now);
        // Conflict serialization first, gate second — always in this
        // order, and never while holding a gate guard, so the scheduler's
        // lock graph stays acyclic.
        let token = match self.conflicts.token_for(class) {
            Some(g) => {
                let (t, waited) = self.conflicts.acquire(g);
                if waited {
                    self.sched.deferrals_token.fetch_add(1, Ordering::Relaxed);
                    rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::RouteDefer {
                        class: class as u32,
                        reason: "token",
                    });
                }
                Some(t)
            }
            None => None,
        };
        let (guard, on_htm, waited) = self.gate.enter(eligible);
        if waited {
            self.sched.deferrals_mode.fetch_add(1, Ordering::Relaxed);
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::RouteDefer {
                class: class as u32,
                reason: "mode-drain",
            });
        }
        if eligible && !on_htm {
            self.sched.htm_overflow.fetch_add(1, Ordering::Relaxed);
        }
        if migrate {
            self.migrate_next[thread_id].store(false, Ordering::Relaxed);
            if !on_htm {
                self.sched.migrations.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (ctr, path) = if on_htm {
            (&self.sched.routes_htm, "htm")
        } else {
            (&self.sched.routes_sw, "sw")
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Route {
            class: class as u32,
            path,
        });
        let inner = if on_htm {
            Inner::Htm(self.htm.begin(thread_id))
        } else {
            Inner::Sw(self.rococo.begin(thread_id))
        };
        HybridTx {
            tm: self,
            thread: thread_id,
            class,
            on_htm,
            fp: Footprint {
                reads: 0,
                writes: 0,
                sig: self.scheme.new_sig(),
                wsig: self.scheme.new_sig(),
            },
            abort_noted: false,
            inner: Some(inner),
            guard: Some(guard),
            token,
        }
    }

    fn stats(&self) -> &TmStats {
        &self.stats
    }

    fn mark_phase(&self) {
        self.rococo.mark_phase();
        self.htm.mark_phase();
    }

    fn injected_faults(&self) -> Option<rococo_fpga::FaultSnapshot> {
        self.rococo.injected_faults()
    }

    fn engine_stats(&self) -> Option<rococo_fpga::EngineStats> {
        self.rococo.engine_stats()
    }

    fn set_tx_class(&self, thread_id: usize, class: u32) {
        self.class_of[thread_id].store(class, Ordering::Relaxed);
    }

    /// Merges the engines' internal counters into the outer snapshot.
    /// The outer stats carry starts/commits/aborts (bumped exactly once
    /// per attempt by the generic entry points); the engines' own stats
    /// never see those, only their internal fallback/read-only/validation
    /// counters — so this sum double-counts nothing.
    fn stats_snapshot(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        for inner in [self.rococo.stats().snapshot(), self.htm.stats().snapshot()] {
            debug_assert_eq!(inner.starts, 0, "inner engines never see entry points");
            debug_assert_eq!(inner.commits, 0, "inner engines never see entry points");
            snap.merge(&inner);
        }
        snap
    }

    fn export_extra_metrics(&self, reg: &mut rococo_telemetry::MetricsRegistry) {
        self.sched_snapshot().export_metrics(reg);
    }
}
