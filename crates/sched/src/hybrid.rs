//! `HybridTm`: the adaptive hybrid transaction system.
//!
//! Wraps a [`TsxHtm`] fast path and a [`RococoTm`] slow path over one
//! shared heap, routing each transaction attempt per the module docs of
//! [`crate::router`] and [`crate::gate`].

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use rococo_stm::{
    Abort, AbortKind, Addr, CommitSection, HtmConfig, RococoConfig, RococoTm, StatsSnapshot,
    TmConfig, TmHeap, TmStats, TmSystem, Transaction, TsxHtm, Word,
};

use crate::gate::{ModeGate, ModeGuard};
use crate::router::{Bounds, Router};

type HwTx<'a> = <TsxHtm as TmSystem>::Tx<'a>;
type SwTx<'a> = <RococoTm as TmSystem>::Tx<'a>;

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
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            tm: TmConfig::default(),
            rococo: RococoConfig::default(),
            htm: HtmConfig::default(),
            classes: 16,
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
            /// Attempts that waited for the other engine's epoch to drain.
            deferrals_mode: reason = "mode-drain";
        }
    }
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
    /// Per-thread scheduling class, set via `set_tx_class`.
    class_of: Vec<AtomicU32>,
    /// Per-thread flag: the previous attempt died of an HTM capacity
    /// abort, so the next attempt must migrate to the software path.
    migrate_next: Vec<AtomicBool>,
    sched: SchedStats,
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
        Self {
            router: Router::new(config.classes, Bounds::of_htm(&config.htm)),
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
            sched: SchedStats::default(),
        }
    }

    /// The wrapped slow-path runtime (validator handle, FPGA stats).
    pub fn rococo(&self) -> &RococoTm {
        &self.rococo
    }

    /// A point-in-time copy of the router/scheduler counters.
    pub fn sched_snapshot(&self) -> SchedSnapshot {
        self.sched.snapshot()
    }
}

/// Words read and written by one attempt (the router's EWMA sample).
#[derive(Debug, Clone, Copy, Default)]
struct Footprint {
    reads: u32,
    writes: u32,
}

/// The scheduler's side of one attempt, carried from `begin` to the
/// commit/abort point.
#[derive(Debug)]
struct Route<'a> {
    tm: &'a HybridTm,
    thread: usize,
    class: usize,
    on_htm: bool,
    fp: Footprint,
    /// Ensures the abort bookkeeping fires at most once per attempt
    /// (execution-time aborts surface through `read`/`write`, which a
    /// doomed-but-still-running closure may call again).
    abort_noted: bool,
    /// Membership in the current epoch — the one thing an attempt holds,
    /// kept for its release point (the route's drop), never read.
    _guard: ModeGuard<'a>,
}

impl Route<'_> {
    /// Notes an abort — execution-time (capacity overflow, eager conflict
    /// detection) or commit-time: after an HTM capacity abort the
    /// thread's next attempt migrates to the software path.
    fn note_abort<T>(&mut self, res: Result<T, Abort>) -> Result<T, Abort> {
        if let Err(abort) = &res {
            if !self.abort_noted {
                self.abort_noted = true;
                if self.on_htm && abort.kind == AbortKind::Capacity {
                    self.tm.migrate_next[self.thread].store(true, Ordering::Relaxed);
                }
            }
        }
        res
    }

    /// Retires the attempt with its engine's commit outcome: the
    /// bookkeeping step behind `commit_seq`. The sequence is mapped while
    /// the guard (still a field of `self`) pins the mode
    /// — the rebase invariant of [`crate::gate`] — and only then does
    /// dropping `self` release the epoch.
    fn retire(mut self, res: Result<Option<u64>, Abort>) -> Result<Option<u64>, Abort> {
        let seq = self.note_abort(res)?;
        let tm = self.tm;
        tm.router.commit(self.class, self.fp.reads, self.fp.writes);
        let ctr = if self.on_htm {
            &tm.sched.commits_htm
        } else {
            &tm.sched.commits_sw
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        tm.migrate_next[self.thread].store(false, Ordering::Relaxed);
        Ok(seq.map(|s| tm.gate.map_seq(self.on_htm, s)))
    }
}

#[derive(Debug)]
enum Inner<'a> {
    Htm(HwTx<'a>),
    Sw(SwTx<'a>),
}

/// A [`HybridTm`] transaction.
///
/// Field order is load-bearing: the inner transaction must drop (and
/// release its engine claims) before the mode guard inside `route`
/// retires us from the epoch.
#[derive(Debug)]
pub struct HybridTx<'a> {
    inner: Inner<'a>,
    route: Route<'a>,
}

impl Transaction for HybridTx<'_> {
    fn read(&mut self, addr: Addr) -> Result<Word, Abort> {
        self.route.fp.reads += 1;
        let res = match &mut self.inner {
            Inner::Htm(tx) => tx.read(addr),
            Inner::Sw(tx) => tx.read(addr),
        };
        self.route.note_abort(res)
    }

    fn write(&mut self, addr: Addr, val: Word) -> Result<(), Abort> {
        self.route.fp.writes += 1;
        let res = match &mut self.inner {
            Inner::Htm(tx) => tx.write(addr, val),
            Inner::Sw(tx) => tx.write(addr, val),
        };
        self.route.note_abort(res)
    }

    fn commit_in(self, section: CommitSection) -> Result<Option<u64>, Abort> {
        let res = match self.inner {
            Inner::Htm(tx) => tx.commit_in(section),
            Inner::Sw(tx) => tx.commit_in(section),
        };
        self.route.retire(res)
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
        // Mid-retry migration: an attempt that just died of an HTM
        // capacity abort re-routes to the software path, whatever its
        // class predicts.
        let migrate = self.migrate_next[thread_id].load(Ordering::Relaxed);
        let eligible = !migrate && self.router.admits(class);
        // The one blocking acquisition of an attempt; the thread holds no
        // guard here, since its every earlier commit retired its own.
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
            inner,
            route: Route {
                tm: self,
                thread: thread_id,
                class,
                on_htm,
                fp: Footprint::default(),
                abort_noted: false,
                _guard: guard,
            },
        }
    }

    fn stats(&self) -> &TmStats {
        &self.stats
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
