//! The TM-system interface shared by every runtime.

use crate::heap::{Addr, TmHeap, Word};
use std::fmt;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// One validation phase in this many reads the wall clock: the first, and
/// then every `VALIDATION_SAMPLE`-th (see [`TmStats::time_validation`]).
/// A prime, so the sample never locks onto work that recurs every
/// power-of-two verdicts: a period of 64 timed only the commits that open
/// a Detector bank generation at `W` = 64, and read twice the mean.
const VALIDATION_SAMPLE: u64 = 61;

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortKind {
    /// Eagerly detected conflict on the CPU side (lock conflict, doomed by
    /// a concurrent transaction, stale read / broken snapshot).
    Conflict,
    /// The simulated FPGA rejected the transaction: dependency cycle.
    FpgaCycle,
    /// The simulated FPGA rejected the transaction: sliding-window overflow
    /// (also used for commit-queue overruns on the CPU side).
    FpgaWindow,
    /// Hardware-capacity abort (HTM cache-footprint overflow).
    Capacity,
    /// The HTM fallback lock was taken, dooming hardware transactions.
    FallbackLock,
    /// The user closure requested a retry.
    Explicit,
    /// The backend's validation service stopped before producing a
    /// verdict (shutdown or validator death). The transaction's effects
    /// were discarded; retrying is pointless unless the service comes
    /// back.
    ServiceStopped,
}

impl AbortKind {
    /// Every abort kind, in the order the per-reason counters are laid
    /// out. Service layers iterate this to build abort-cause breakdowns
    /// without hard-coding the variant list.
    pub const ALL: [AbortKind; 7] = [
        AbortKind::Conflict,
        AbortKind::FpgaCycle,
        AbortKind::FpgaWindow,
        AbortKind::Capacity,
        AbortKind::FallbackLock,
        AbortKind::Explicit,
        AbortKind::ServiceStopped,
    ];

    /// Number of abort kinds — the length of dense per-cause counter
    /// arrays indexed by [`AbortKind::index`].
    pub const COUNT: usize = Self::ALL.len();

    /// The position of this kind within [`AbortKind::ALL`] (stable index
    /// for dense per-cause counter arrays).
    pub fn index(self) -> usize {
        match self {
            AbortKind::Conflict => 0,
            AbortKind::FpgaCycle => 1,
            AbortKind::FpgaWindow => 2,
            AbortKind::Capacity => 3,
            AbortKind::FallbackLock => 4,
            AbortKind::Explicit => 5,
            AbortKind::ServiceStopped => 6,
        }
    }

    /// Canonical short label for this kind — the one spelling used by
    /// service reports, chaos reproducer output, and telemetry metric
    /// label values (`rococo_*_aborts_total{kind="..."}`).
    pub fn as_label(self) -> &'static str {
        match self {
            AbortKind::Conflict => "cpu-stale-read",
            AbortKind::FpgaCycle => "fpga-cycle",
            AbortKind::FpgaWindow => "fpga-window",
            AbortKind::Capacity => "htm-capacity",
            AbortKind::FallbackLock => "htm-fallback-lock",
            AbortKind::Explicit => "explicit-retry",
            AbortKind::ServiceStopped => "validator-stopped",
        }
    }

    /// [`as_label`](Self::as_label) of the kind at `index` — the label
    /// function of every per-cause counter family.
    pub fn label_at(index: usize) -> &'static str {
        Self::ALL[index].as_label()
    }
}

/// A transaction abort. Returned by [`Transaction`] operations; propagate
/// it with `?` so [`atomically`] can retry the closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort {
    /// The abort class (used for the per-reason statistics of Figure 10).
    pub kind: AbortKind,
}

impl Abort {
    /// Convenience constructor.
    pub fn new(kind: AbortKind) -> Self {
        Self { kind }
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction aborted: {}", self.kind.as_label())
    }
}

impl std::error::Error for Abort {}

/// Construction parameters common to all TM systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmConfig {
    /// Heap capacity in 64-bit words.
    pub heap_words: usize,
    /// Maximum number of worker threads that will ever call
    /// [`TmSystem::begin`] concurrently (thread ids must be `< max_threads`).
    pub max_threads: usize,
}

impl Default for TmConfig {
    fn default() -> Self {
        Self {
            heap_words: 1 << 20,
            max_threads: 28,
        }
    }
}

/// One in-flight transaction.
///
/// Reads and writes return [`Abort`] when the runtime detects a conflict
/// eagerly; the caller should propagate the error outwards (the
/// [`atomically`] loop re-executes the closure). Writes are buffered by
/// every runtime and only reach the heap on a successful commit.
pub trait Transaction {
    /// Transactionally reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the runtime detects that this transaction can
    /// no longer commit (e.g. its snapshot broke).
    fn read(&mut self, addr: Addr) -> Result<Word, Abort>;

    /// Transactionally writes `val` to `addr` (buffered until commit).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the runtime detects that this transaction can
    /// no longer commit.
    fn write(&mut self, addr: Addr, val: Word) -> Result<(), Abort>;

    /// Attempts to commit, consuming the transaction and reporting the
    /// transaction's **durable sequence number**: a dense counter
    /// (`0, 1, 2, ...` per system) fetched *inside* the commit critical
    /// section, so that sequence order is consistent with serialization
    /// order for every dependent pair of transactions. Read-only commits
    /// return `Ok(None)` — they change nothing and need no log record.
    ///
    /// The durability layer writes committed transactions to its redo
    /// log in this order; density is what lets crash recovery prove the
    /// log has no holes.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if validation fails; all buffered writes are
    /// discarded.
    fn commit_seq(self) -> Result<Option<u64>, Abort>
    where
        Self: Sized;

    /// Attempts to commit, consuming the transaction.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if validation fails; all buffered writes are
    /// discarded.
    fn commit(self) -> Result<(), Abort>
    where
        Self: Sized,
    {
        self.commit_seq().map(|_| ())
    }
}

/// A transactional-memory runtime.
pub trait TmSystem: Send + Sync {
    /// The transaction type handed to worker closures.
    type Tx<'a>: Transaction
    where
        Self: 'a;

    /// Human-readable system name (used by benchmark reports).
    fn name(&self) -> &'static str;

    /// The shared heap.
    fn heap(&self) -> &TmHeap;

    /// Starts a transaction on behalf of worker `thread_id`.
    ///
    /// # Panics
    ///
    /// May panic if `thread_id` exceeds the configured `max_threads`.
    fn begin(&self, thread_id: usize) -> Self::Tx<'_>;

    /// Statistics accumulated since construction.
    fn stats(&self) -> &TmStats;

    /// Phase-boundary hook: the STAMP harness calls this at the start and
    /// end of every timed parallel phase. The default does nothing; the
    /// recording wrapper uses it to tag transaction records with a phase
    /// epoch.
    fn mark_phase(&self) {}

    /// Injected-fault counters of the backend's validation service, when
    /// the backend runs one with chaos-testing fault injection enabled.
    /// `None` for backends without a validation service (or with
    /// injection disabled counters stay zero). Service layers surface
    /// this in their reports so injected chaos is distinguishable from
    /// organic aborts.
    fn injected_faults(&self) -> Option<rococo_fpga::FaultSnapshot> {
        None
    }

    /// Counters of the backend's FPGA validation engine, when the backend
    /// runs one. `None` for backends without a validation service.
    /// Telemetry scrapers surface these under `rococo_fpga_*`.
    fn engine_stats(&self) -> Option<rococo_fpga::EngineStats> {
        None
    }

    /// Tags the transactions worker `thread_id` begins next with a
    /// scheduling class. Plain backends ignore the tag; the hybrid
    /// scheduler keys footprint prediction and conflict serialization on
    /// it. Calling this is not a transactional side effect — it is safe
    /// (if pointless) to call between retries of the same request.
    fn set_tx_class(&self, _thread_id: usize, _class: u32) {}

    /// A coherent statistics view for reporting. The default reads
    /// [`TmSystem::stats`] directly. Composite systems override this to
    /// fold in backend-internal counters (fallback/read-only commits,
    /// validation timings) that the generic entry points only ever bump
    /// on the *inner* backends' stats — without touching starts, commits
    /// or aborts, which the entry points bump exactly once on the outer
    /// stats.
    fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats().snapshot()
    }

    /// Exports backend-specific metric families beyond `rococo_tm_*`
    /// into `reg`. The default exports nothing; the hybrid scheduler
    /// publishes its `rococo_sched_*` router counters through this hook
    /// (the service scraper cannot name the sched crate without a
    /// dependency cycle).
    fn export_extra_metrics(&self, _reg: &mut rococo_telemetry::MetricsRegistry) {}
}

/// Runs `body` as a transaction on `system`, retrying on abort with
/// exponential backoff until it commits. Returns the closure's result.
///
/// The closure may be executed multiple times; side effects outside the
/// transaction should be idempotent. Returning `Err(Abort)` from the
/// closure also triggers a retry (use [`AbortKind::Explicit`] for
/// programmatic retry).
pub fn atomically<S, R, F>(system: &S, thread_id: usize, mut body: F) -> R
where
    S: TmSystem + ?Sized,
    F: FnMut(&mut S::Tx<'_>) -> Result<R, Abort>,
{
    let mut backoff = 0u32;
    loop {
        match try_atomically(system, thread_id, &mut body) {
            Ok(r) => return r,
            Err(_) => {
                // Bounded randomised-ish exponential backoff.
                let spins = 1u32 << backoff.min(10);
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
                if backoff >= 10 {
                    std::thread::yield_now();
                }
                backoff += 1;
            }
        }
    }
}

/// Runs `body` as a single transaction attempt: begin, execute, commit.
///
/// # Errors
///
/// Returns the [`Abort`] if either the closure or the commit aborts.
pub fn try_atomically<S, R, F>(system: &S, thread_id: usize, body: &mut F) -> Result<R, Abort>
where
    S: TmSystem + ?Sized,
    F: FnMut(&mut S::Tx<'_>) -> Result<R, Abort>,
{
    try_atomically_seq(system, thread_id, body).map(|(r, _)| r)
}

/// Like [`try_atomically`] but also reports the commit's durable
/// sequence number (`None` for read-only commits) — the hook the
/// durability layer uses to log committed transactions in serialization
/// order. See [`Transaction::commit_seq`].
///
/// # Errors
///
/// Returns the [`Abort`] if either the closure or the commit aborts.
pub fn try_atomically_seq<S, R, F>(
    system: &S,
    thread_id: usize,
    body: &mut F,
) -> Result<(R, Option<u64>), Abort>
where
    S: TmSystem + ?Sized,
    F: FnMut(&mut S::Tx<'_>) -> Result<R, Abort>,
{
    system.stats().starts.fetch_add(1, Ordering::Relaxed);
    // Emitted before `begin` so any escalation event the backend records
    // while admitting the attempt lands inside this attempt's history.
    rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Begin);
    let mut tx = system.begin(thread_id);
    match body(&mut tx) {
        Ok(r) => {
            let outcome = tx.commit_seq();
            tally(system, &outcome);
            outcome.map(|seq| (r, seq))
        }
        Err(abort) => {
            tally(system, &Err(abort));
            Err(abort)
        }
    }
}

/// The bookkeeping every attempt gets where it settles: a commit bumps
/// `commits` and emits `Commit`; an abort — of the body or of the commit —
/// is counted by kind and emits `Abort`.
fn tally<S: TmSystem + ?Sized>(system: &S, outcome: &Result<Option<u64>, Abort>) {
    match outcome {
        Ok(seq) => {
            system.stats().commits.fetch_add(1, Ordering::Relaxed);
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Commit {
                seq: seq.unwrap_or(0),
            });
        }
        Err(abort) => {
            system.stats().record_abort(abort.kind);
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Abort {
                kind: abort.kind.as_label(),
            });
        }
    }
}

rococo_telemetry::stats_block! {
    /// Shared statistics counters. All counters are monotonically
    /// increasing and updated with relaxed atomics; read a
    /// coherent-enough view with [`TmStats::snapshot`].
    pub struct TmStats;
    /// A point-in-time copy of [`TmStats`].
    pub struct StatsSnapshot;

    counters {
        pub starts: "rococo_tm_starts_total", "Transaction attempts started";
        pub commits: "rococo_tm_commits_total", "Transactions committed";
        /// The fallback path is the HTM global lock.
        pub fallback_commits: "rococo_tm_fallback_commits_total", "Commits that ran on a fallback path";
        pub read_only_commits: "rococo_tm_read_only_commits_total", "Read-only commits (never leave the CPU)";
        /// Summed over the timed validations only, one in
        /// `VALIDATION_SAMPLE` (61); see [`TmStats::time_validation`].
        pub validation_ns: "rococo_tm_validation_ns_total", "Wall-clock nanoseconds spent in validation";
        /// What the validation phase would take on the simulated
        /// platform (FPGA pipeline + CCI hops), charged for every
        /// validation. A backend that validates on the CPU charges none.
        pub validation_model_ns: "rococo_tm_validation_model_ns_total", "Model-time nanoseconds spent in validation";
        pub validations: "rococo_tm_validations_total", "Validation phases measured";
    }
    families {
        /// Indexed by [`AbortKind::index`].
        pub aborts: [AbortKind::COUNT] "rococo_tm_aborts_total", "Transaction aborts by cause",
            "kind" => AbortKind::label_at;
    }
}

impl TmStats {
    /// Records one abort of the given kind.
    pub fn record_abort(&self, kind: AbortKind) {
        self.aborts[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `validate`, one validation phase, and counts it in
    /// `validations`. Only a phase whose count is a multiple of
    /// `VALIDATION_SAMPLE` (61), the first one included, reads the wall
    /// clock around it and adds its time to `validation_ns`: two clock
    /// reads cost about as much as the verdict they would time.
    pub fn time_validation<R>(&self, validate: impl FnOnce() -> R) -> R {
        self.sample_validation(Instant::now, validate)
    }

    /// [`time_validation`](Self::time_validation) with the clock it reads.
    fn sample_validation<R>(
        &self,
        mut now: impl FnMut() -> Instant,
        validate: impl FnOnce() -> R,
    ) -> R {
        let nth = self.validations.fetch_add(1, Ordering::Relaxed);
        if !nth.is_multiple_of(VALIDATION_SAMPLE) {
            return validate();
        }
        let started = now();
        let outcome = validate();
        let ns = now().saturating_duration_since(started).as_nanos() as u64;
        self.validation_ns.fetch_add(ns, Ordering::Relaxed);
        outcome
    }
}

impl StatsSnapshot {
    /// Total aborts.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Aborted attempts over all attempts — the Figure 10 abort-rate
    /// metric ("the ratio of the number of aborted transactions over the
    /// total number of executed transactions").
    pub fn abort_rate(&self) -> f64 {
        let total = self.commits + self.total_aborts();
        if total == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / total as f64
        }
    }

    /// Aborts attributed to the FPGA (the dotted series of Figure 10).
    pub fn fpga_aborts(&self) -> u64 {
        self.aborts[AbortKind::FpgaCycle.index()] + self.aborts[AbortKind::FpgaWindow.index()]
    }

    /// FPGA-attributed abort rate.
    pub fn fpga_abort_rate(&self) -> f64 {
        let total = self.commits + self.total_aborts();
        if total == 0 {
            0.0
        } else {
            self.fpga_aborts() as f64 / total as f64
        }
    }

    /// Mean wall-clock validation overhead per measured transaction, in
    /// microseconds (Figure 11): `validation_ns` over the timed
    /// validations, `⌈validations / 61⌉` of them.
    pub fn mean_validation_us(&self) -> f64 {
        let timed = self.validations.div_ceil(VALIDATION_SAMPLE);
        if timed == 0 {
            0.0
        } else {
            self.validation_ns as f64 / timed as f64 / 1000.0
        }
    }

    /// Mean model-time validation overhead per measured transaction, in
    /// microseconds (Figure 11, simulated-platform time).
    pub fn mean_validation_model_us(&self) -> f64 {
        if self.validations == 0 {
            0.0
        } else {
            self.validation_model_ns as f64 / self.validations as f64 / 1000.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_rates() {
        let s = TmStats::default();
        s.commits.store(80, Ordering::Relaxed);
        s.record_abort(AbortKind::Conflict);
        s.record_abort(AbortKind::FpgaCycle);
        for _ in 0..18 {
            s.record_abort(AbortKind::Conflict);
        }
        let snap = s.snapshot();
        assert_eq!(snap.total_aborts(), 20);
        assert!((snap.abort_rate() - 0.2).abs() < 1e-9);
        assert_eq!(snap.fpga_aborts(), 1);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let snap = TmStats::default().snapshot();
        assert_eq!(snap.abort_rate(), 0.0);
        assert_eq!(snap.mean_validation_us(), 0.0);
    }

    #[test]
    fn three_of_130_validations_read_the_clock() {
        // The k-th clock read answers k² µs past `base`, so the timed
        // validations (reads 0–1, 2–3, 4–5) last 1, 5 and 9 µs.
        let stats = TmStats::default();
        let base = Instant::now();
        let reads = std::cell::Cell::new(0u64);
        let clock = || {
            let k = reads.replace(reads.get() + 1);
            base + std::time::Duration::from_micros(k * k)
        };
        for n in 0..130u64 {
            assert_eq!(stats.sample_validation(&clock, || n), n);
        }
        assert_eq!(
            reads.get(),
            2 * 3,
            "three validations timed, two reads each"
        );
        let snap = stats.snapshot();
        assert_eq!(snap.validations, 130);
        assert_eq!(snap.validation_ns, 15_000);
        assert_eq!(snap.mean_validation_us(), 5.0);
    }

    #[test]
    fn abort_display_uses_the_canonical_label() {
        let a = Abort::new(AbortKind::Capacity);
        assert_eq!(a.to_string(), "transaction aborted: htm-capacity");
    }

    #[test]
    fn labels_are_unique_and_stable() {
        let labels: Vec<&str> = AbortKind::ALL.iter().map(|k| k.as_label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), AbortKind::COUNT, "duplicate label");
        assert_eq!(labels[AbortKind::Conflict.index()], "cpu-stale-read");
    }
}
