//! Running STAMP applications on a chosen TM system.

use crate::apps::{self, AppId, AppResult};
use rococo_stm::{
    GlobalLockTm, RococoTm, SeqTm, StatsSnapshot, TinyStm, TmConfig, TmSystem, TsxHtm,
};
use std::time::{Duration, Instant};

/// The TM systems Figure 10 compares (plus two reference systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Sequential reference (speedup baseline; single-threaded only).
    Seq,
    /// One global lock around every transaction.
    GlobalLock,
    /// The TinySTM-style LSA baseline.
    TinyStm,
    /// The TSX-style best-effort HTM emulation.
    TsxHtm,
    /// ROCoCoTM with the simulated FPGA validator.
    Rococo,
}

impl SystemKind {
    /// All systems, in report order.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::Seq,
        SystemKind::GlobalLock,
        SystemKind::TinyStm,
        SystemKind::TsxHtm,
        SystemKind::Rococo,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Seq => "Sequential",
            SystemKind::GlobalLock => "GlobalLock",
            SystemKind::TinyStm => "TinySTM",
            SystemKind::TsxHtm => "TSX-HTM",
            SystemKind::Rococo => "ROCoCoTM",
        }
    }
}

/// Input-size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// Seconds-long unit-test sizes.
    Tiny,
    /// Default experiment sizes (used by the Figure 10 harness).
    Small,
    /// Larger, paper-shaped inputs (several seconds per run).
    Paper,
}

/// The outcome of one (app, system, threads) run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The application.
    pub app: AppId,
    /// System display name.
    pub system: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock duration of the parallel phase.
    pub duration: Duration,
    /// TM statistics.
    pub stats: StatsSnapshot,
    /// FPGA engine statistics (ROCoCoTM only).
    pub fpga: Option<rococo_fpga::EngineStats>,
    /// Whether the app's self-validation passed.
    pub validated: bool,
    /// App-specific result digest.
    pub checksum: u64,
}

impl Outcome {
    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        self.stats.commits as f64 / self.duration.as_secs_f64().max(1e-12)
    }
}

/// Runs `app` on a freshly constructed system of the given kind.
///
/// # Panics
///
/// Panics if `threads == 0`, or if `kind` is [`SystemKind::Seq`] with
/// `threads != 1` (the sequential reference is single-threaded by
/// definition).
pub fn run(app: AppId, kind: SystemKind, threads: usize, preset: Preset) -> Outcome {
    assert!(threads > 0, "need at least one thread");
    assert!(
        kind != SystemKind::Seq || threads == 1,
        "the sequential reference runs on exactly one thread"
    );
    let cfg = TmConfig {
        heap_words: apps::heap_words(app, preset),
        max_threads: threads,
    };
    match kind {
        SystemKind::Seq => run_on(app, &SeqTm::with_config(cfg), kind, threads, preset),
        SystemKind::GlobalLock => {
            run_on(app, &GlobalLockTm::with_config(cfg), kind, threads, preset)
        }
        SystemKind::TinyStm => run_on(app, &TinyStm::with_config(cfg), kind, threads, preset),
        SystemKind::TsxHtm => run_on(app, &TsxHtm::with_config(cfg), kind, threads, preset),
        SystemKind::Rococo => {
            let tm = RococoTm::with_config(cfg);
            let mut outcome = run_on(app, &tm, kind, threads, preset);
            outcome.fpga = Some(tm.fpga_stats());
            outcome
        }
    }
}

fn run_on<S: TmSystem>(
    app: AppId,
    sys: &S,
    kind: SystemKind,
    threads: usize,
    preset: Preset,
) -> Outcome {
    let result: AppResult = apps::dispatch(app, sys, threads, preset);
    Outcome {
        app,
        system: kind.name(),
        threads,
        duration: result.parallel,
        stats: sys.stats().snapshot(),
        fpga: None,
        validated: result.validated,
        checksum: result.checksum,
    }
}

/// Records `app`'s committed transactions by running it single-threaded
/// under the recording wrapper over the sequential runtime. Returns the
/// raw records (phase-tagged via epochs) and the wall time of the parallel
/// phases — the inputs to the virtual-time multicore simulator.
///
/// # Panics
///
/// Panics if the app fails its self-validation during recording.
pub fn record_workload(app: AppId, preset: Preset) -> (Vec<rococo_stm::TxnRecord>, Duration) {
    let cfg = TmConfig {
        heap_words: apps::heap_words(app, preset),
        max_threads: 1,
    };
    let rec = rococo_stm::Recorder::new(SeqTm::with_config(cfg));
    let result = apps::dispatch(app, &rec, 1, preset);
    assert!(
        result.validated,
        "{}: recording run failed validation",
        app.name()
    );
    (rec.into_log(), result.parallel)
}

/// Runs one timed parallel phase: marks the phase boundary on the TM
/// system (so a recording wrapper can tag the transactions), spawns the
/// workers, and returns the phase's wall duration.
pub fn parallel_phase<S, F>(sys: &S, threads: usize, f: F) -> Duration
where
    S: rococo_stm::TmSystem,
    F: Fn(usize) + Sync,
{
    sys.mark_phase();
    let t0 = Instant::now();
    scope_threads(threads, f);
    let dt = t0.elapsed();
    sys.mark_phase();
    dt
}

/// Spawns `threads` scoped workers running `f(thread_id)` and joins them.
/// Panics in workers propagate to the caller.
pub fn scope_threads<F>(threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if threads == 1 {
        f(0);
        return;
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || f(t))).collect();
        for h in handles {
            h.join().expect("worker thread panicked");
        }
    });
}

/// Splits `0..total` into `threads` contiguous ranges; range `t` for
/// worker `t`.
pub fn partition(total: usize, threads: usize, t: usize) -> std::ops::Range<usize> {
    let per = total.div_ceil(threads);
    let start = (t * per).min(total);
    let end = ((t + 1) * per).min(total);
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything_disjointly() {
        for total in [0usize, 1, 7, 100, 101] {
            for threads in [1usize, 2, 3, 8] {
                let mut seen = vec![false; total];
                for t in 0..threads {
                    for i in partition(total, threads, t) {
                        assert!(!seen[i], "index {i} covered twice");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "total={total} threads={threads}");
            }
        }
    }

    #[test]
    fn scope_threads_runs_all_ids() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mask = AtomicU64::new(0);
        scope_threads(5, |t| {
            mask.fetch_or(1 << t, Ordering::SeqCst);
        });
        assert_eq!(mask.load(Ordering::SeqCst), 0b11111);
    }

    #[test]
    #[should_panic(expected = "exactly one thread")]
    fn seq_requires_one_thread() {
        let _ = run(AppId::Ssca2, SystemKind::Seq, 2, Preset::Tiny);
    }
}
