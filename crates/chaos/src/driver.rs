//! The schedule-perturbing stress driver.
//!
//! [`run_chaos`] executes one seeded workload against one backend, with
//! optional fault injection in the ROCoCoTM validation service, records
//! the full history and judges it with [`crate::oracle`]. [`sweep`] runs
//! a parameter matrix; [`shrink`] reduces a failing configuration to a
//! smaller one that still fails; [`reproducer_command`] renders the
//! one-liner that replays any configuration.

use crate::history::ChaosRecorder;
use crate::oracle::{check_history, OracleInput};
use crate::workload::{apply_op, gen_ops, Layout, INITIAL_BALANCE};
use rococo_fpga::{FaultConfig, FaultSnapshot};
use rococo_sched::{HybridConfig, HybridTm, SchedSnapshot};
use rococo_stm::{
    try_atomically, AbortKind, GlobalLockTm, HtmConfig, RococoConfig, RococoTm, TinyStm, TmConfig,
    TmSystem, TsxHtm,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// Which TM runtime a chaos run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The paper's hybrid TM (the only backend with an injectable
    /// validation service).
    Rococo,
    /// The TinySTM-style LSA baseline.
    Tiny,
    /// The TSX-style best-effort HTM emulation.
    Htm,
    /// The single-global-lock runtime.
    Lock,
    /// The adaptive hybrid router (`rococo-sched`): HTM fast path plus
    /// the ROCoCoTM slow path over one heap. Chaos runs it with a
    /// deliberately tiny HTM write-set so multi-word transactions
    /// capacity-abort and migrate backends mid-retry — the interleaving
    /// the serializability oracle must survive.
    Hybrid,
    /// The sequential reference (always driven with one thread; it has no
    /// synchronisation). Exists to sanity-check the oracle itself.
    Seq,
}

impl BackendKind {
    /// Every backend, in sweep order.
    pub const ALL: [BackendKind; 6] = [
        BackendKind::Rococo,
        BackendKind::Tiny,
        BackendKind::Htm,
        BackendKind::Lock,
        BackendKind::Hybrid,
        BackendKind::Seq,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Rococo => "rococo",
            BackendKind::Tiny => "tiny",
            BackendKind::Htm => "htm",
            BackendKind::Lock => "lock",
            BackendKind::Hybrid => "hybrid",
            BackendKind::Seq => "seq",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.name() == s)
    }
}

/// Fault-injection intensity for the ROCoCoTM validation service
/// (ignored by the other backends, which have no service to disturb).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPreset {
    /// No injection.
    None,
    /// Delays, reply reordering and validator pauses — verdicts stay
    /// truthful, so liveness oracles remain valid.
    Timing,
    /// Timing faults plus spurious abort verdicts. Safety must still
    /// hold; liveness oracles are suspended (an injected abort is
    /// indistinguishable from a real one from the CPU side).
    Aggressive,
}

impl FaultPreset {
    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FaultPreset::None => "none",
            FaultPreset::Timing => "timing",
            FaultPreset::Aggressive => "aggressive",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        [Self::None, Self::Timing, Self::Aggressive]
            .into_iter()
            .find(|p| p.name() == s)
    }

    fn config(self, seed: u64) -> FaultConfig {
        match self {
            FaultPreset::None => FaultConfig::disabled(),
            FaultPreset::Timing => FaultConfig::timing_only(seed),
            FaultPreset::Aggressive => FaultConfig::aggressive(seed),
        }
    }
}

/// One chaos-run configuration. Fully determines the workload; the
/// schedule itself still varies run to run (that is the point), but every
/// decision the harness makes is a function of these fields.
#[derive(Debug, Clone, Copy)]
pub struct ChaosParams {
    /// Seed for workload generation and fault injection.
    pub seed: u64,
    /// Backend under test.
    pub backend: BackendKind,
    /// Worker threads (forced to 1 for [`BackendKind::Seq`]).
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Accounts (must be at least 2).
    pub accounts: usize,
    /// Fault-injection preset (ROCoCoTM only).
    pub faults: FaultPreset,
    /// ROCoCoTM commit-queue length. Small values stress the laggard
    /// path; the seed default (1024) effectively disables it.
    pub queue_len: usize,
    /// ROCoCoTM FPGA window size.
    pub window: usize,
    /// ROCoCoTM read-path spin budget before a conflict abort.
    pub update_spin: usize,
    /// ROCoCoTM irrevocability escalation threshold.
    pub irrevocable_after: u32,
    /// Check strict serializability (real-time order), not just
    /// serializability.
    pub strict: bool,
}

impl Default for ChaosParams {
    fn default() -> Self {
        Self {
            seed: 1,
            backend: BackendKind::Rococo,
            threads: 4,
            ops_per_thread: 400,
            accounts: 16,
            faults: FaultPreset::Timing,
            queue_len: 8,
            window: 8,
            update_spin: 512,
            irrevocable_after: 8,
            strict: true,
        }
    }
}

/// The outcome of one chaos run.
#[derive(Debug)]
pub struct ChaosReport {
    /// The configuration that produced this report.
    pub params: ChaosParams,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Longest run of consecutive failed attempts observed by any one
    /// worker (liveness signal; bounded by `irrevocable_after` for
    /// ROCoCoTM when verdicts are truthful).
    pub max_failed_streak: u32,
    /// Injected-fault counters, when the backend ran with injection.
    pub injected: Option<FaultSnapshot>,
    /// Abort causes with non-zero counts, in [`AbortKind::ALL`] order,
    /// labelled with the canonical [`AbortKind::as_label`] spelling used
    /// by server reports and telemetry metric labels.
    pub abort_breakdown: Vec<(&'static str, u64)>,
    /// Router/scheduler counters, for [`BackendKind::Hybrid`] runs only
    /// — in particular `migrations`, which proves attempts actually
    /// crossed backends mid-retry during the run.
    pub sched: Option<SchedSnapshot>,
    /// Oracle violations; empty means the run passed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Whether the run passed every oracle.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} seed={} threads={} ops={} faults={}: {} commits, {} aborts{}, streak {}{} -> {}",
            self.params.backend.name(),
            self.params.seed,
            self.params.threads,
            self.params.ops_per_thread,
            self.params.faults.name(),
            self.commits,
            self.aborts,
            if self.abort_breakdown.is_empty() {
                String::new()
            } else {
                let parts: Vec<String> = self
                    .abort_breakdown
                    .iter()
                    .map(|(label, n)| format!("{label}={n}"))
                    .collect();
                format!(" [{}]", parts.join(" "))
            },
            self.max_failed_streak,
            match (&self.injected, &self.sched) {
                (Some(f), Some(s)) if f.total() > 0 => format!(
                    ", {} injected faults, {} migrations",
                    f.total(),
                    s.migrations
                ),
                (Some(f), None) if f.total() > 0 => format!(", {} injected faults", f.total()),
                (_, Some(s)) => format!(", {} migrations", s.migrations),
                _ => String::new(),
            },
            if self.ok() {
                "OK".to_string()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }
}

/// A worker gives up and reports a liveness violation after this many
/// consecutive failed attempts at one operation — the harness must
/// terminate even when the system under test livelocks.
const ATTEMPT_CAP: u32 = 100_000;

/// Runs one chaos configuration end to end.
pub fn run_chaos(params: &ChaosParams) -> ChaosReport {
    assert!(params.accounts >= 2, "workload needs at least 2 accounts");
    let mut params = *params;
    if params.backend == BackendKind::Seq {
        params.threads = 1; // SeqTm has no synchronisation
    }
    let layout = Layout {
        accounts: params.accounts,
    };
    let tm_config = TmConfig {
        heap_words: layout.heap_words().next_power_of_two(),
        max_threads: params.threads,
    };
    let rococo_config = RococoConfig {
        tm: tm_config,
        window: params.window,
        queue_len: params.queue_len.max(params.window),
        update_spin: params.update_spin,
        irrevocable_after: params.irrevocable_after,
        faults: params.faults.config(params.seed),
    };
    match params.backend {
        BackendKind::Rococo => run_on(
            RococoTm::with_configs(rococo_config),
            &params,
            &layout,
            |_| None,
        ),
        BackendKind::Tiny => run_on(TinyStm::with_config(tm_config), &params, &layout, |_| None),
        BackendKind::Htm => run_on(TsxHtm::with_config(tm_config), &params, &layout, |_| None),
        BackendKind::Lock => run_on(
            GlobalLockTm::with_config(tm_config),
            &params,
            &layout,
            |_| None,
        ),
        BackendKind::Hybrid => run_on(
            // The HTM write-set is shrunk to one direct-mapped word-granular
            // entry, so any transaction writing two distinct words
            // capacity-aborts its fast-path attempt and migrates to the
            // software path mid-retry — the schedule under test. The slow
            // path inherits the run's fault injection.
            HybridTm::with_configs(HybridConfig {
                tm: tm_config,
                rococo: rococo_config,
                htm: HtmConfig {
                    line_shift: 0,
                    write_sets: 1,
                    write_ways: 1,
                    read_capacity: 4096,
                    max_attempts: 5,
                },
                classes: 4,
                cooldown: 8,
                strike_limit: 2,
                ..HybridConfig::default()
            }),
            &params,
            &layout,
            |tm| Some(tm.sched_snapshot()),
        ),
        BackendKind::Seq => run_on(
            rococo_stm::SeqTm::with_config(tm_config),
            &params,
            &layout,
            |_| None,
        ),
    }
}

fn run_on<S: TmSystem + 'static>(
    system: S,
    params: &ChaosParams,
    layout: &Layout,
    sched: impl FnOnce(&S) -> Option<SchedSnapshot>,
) -> ChaosReport {
    let recorder = ChaosRecorder::new(system, params.threads);
    for addr in layout.all_addrs() {
        recorder.heap().store_direct(addr, layout.initial(addr));
    }

    let barrier = Barrier::new(params.threads);
    let livelocked = AtomicBool::new(false);
    let mut streaks = vec![0u32; params.threads];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, streak_out) in streaks.iter_mut().enumerate() {
            let recorder = &recorder;
            let barrier = &barrier;
            let livelocked = &livelocked;
            handles.push(scope.spawn(move || {
                let ops = gen_ops(params.seed, t, params.ops_per_thread, params.accounts);
                let mut max_streak = 0u32;
                barrier.wait();
                'ops: for op in &ops {
                    let mut streak = 0u32;
                    loop {
                        match try_atomically(recorder, t, &mut |tx| apply_op(tx, layout, op)) {
                            Ok(()) => break,
                            Err(_) => {
                                streak += 1;
                                max_streak = max_streak.max(streak);
                                if streak >= ATTEMPT_CAP {
                                    livelocked.store(true, Ordering::Relaxed);
                                    // The capped worker's own ring is the
                                    // history that explains the livelock.
                                    rococo_telemetry::dump_anomaly("livelock-cap");
                                    break 'ops;
                                }
                                // Tiny bounded backoff; long waits would
                                // hide the very interleavings we want.
                                for _ in 0..(streak.min(64) * 8) {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                }
                *streak_out = max_streak;
                rococo_telemetry::flush_thread();
            }));
        }
        for h in handles {
            h.join().expect("chaos worker panicked");
        }
    });

    let histories = recorder.take_histories();
    let initial: HashMap<_, _> = layout.all_addrs().map(|a| (a, layout.initial(a))).collect();
    let final_heap: HashMap<_, _> = layout
        .all_addrs()
        .map(|a| (a, recorder.heap().load_direct(a)))
        .collect();

    let mut violations = check_history(&OracleInput {
        initial,
        final_heap: final_heap.clone(),
        versioned: layout
            .all_addrs()
            .filter(|&a| layout.is_versioned(a))
            .collect(),
        strict: params.strict,
        histories: histories.clone(),
    });

    // Fast oracle: bank conservation. Redundant with the replay check but
    // cheap, independent, and the first thing to look at when debugging.
    let total: u128 = (0..params.accounts)
        .map(|i| final_heap[&layout.balance(i)] as u128)
        .sum();
    let expected = INITIAL_BALANCE as u128 * params.accounts as u128;
    if total != expected {
        violations.push(format!(
            "bank conservation broken: balances sum to {total}, expected {expected}"
        ));
    }

    let commits = histories.iter().filter(|t| t.outcome.committed()).count() as u64;
    let aborts = histories.len() as u64 - commits;
    let max_failed_streak = streaks.iter().copied().max().unwrap_or(0);

    if livelocked.load(Ordering::Relaxed) {
        violations.push(format!(
            "livelock: a worker failed {ATTEMPT_CAP} consecutive attempts at one operation"
        ));
    }

    // Liveness oracle: with truthful verdicts, ROCoCoTM's escalation
    // guarantees the attempt after `irrevocable_after` consecutive aborts
    // runs irrevocably and commits, bounding every failure streak. An
    // injected spurious verdict can abort even an irrevocable transaction,
    // so the bound only holds when injection does not falsify verdicts.
    // The hybrid router is deliberately excluded: its retries alternate
    // between engines, so the slow path's consecutive-abort escalation
    // counter is not advanced by every failed attempt and the per-worker
    // streak can legitimately exceed `irrevocable_after` (the harness-level
    // ATTEMPT_CAP livelock check still applies).
    if params.backend == BackendKind::Rococo
        && params.faults != FaultPreset::Aggressive
        && max_failed_streak > params.irrevocable_after
    {
        violations.push(format!(
            "escalation bound broken: a worker failed {} consecutive attempts, but \
             irrevocability must guarantee commit after {}",
            max_failed_streak, params.irrevocable_after
        ));
    }

    // Per-cause abort counts from the runtime's own stats, under the
    // canonical labels — the same spelling server reports and telemetry
    // metrics use, so reproducer output cross-references directly.
    let stats = recorder.stats().snapshot();
    let abort_breakdown: Vec<(&'static str, u64)> = AbortKind::ALL
        .iter()
        .filter_map(|k| {
            let n = stats.aborts[k.index()];
            (n > 0).then_some((k.as_label(), n))
        })
        .collect();

    ChaosReport {
        params: *params,
        commits,
        aborts,
        max_failed_streak,
        injected: recorder.injected_faults(),
        abort_breakdown,
        sched: sched(recorder.inner()),
        violations,
    }
}

/// Runs `base` across seeds and backends. Backends with an injectable
/// validation service (Rococo, and Hybrid via its slow path) run each
/// seed at every fault preset; the rest once per seed. Returns every
/// report.
pub fn sweep(base: &ChaosParams, seeds: &[u64], backends: &[BackendKind]) -> Vec<ChaosReport> {
    let mut reports = Vec::new();
    for &backend in backends {
        let injectable = matches!(backend, BackendKind::Rococo | BackendKind::Hybrid);
        let presets: &[FaultPreset] = if injectable {
            &[
                FaultPreset::None,
                FaultPreset::Timing,
                FaultPreset::Aggressive,
            ]
        } else {
            &[FaultPreset::None]
        };
        for &seed in seeds {
            for &faults in presets {
                reports.push(run_chaos(&ChaosParams {
                    seed,
                    backend,
                    faults,
                    ..*base
                }));
            }
        }
    }
    reports
}

/// Shrinks a failing configuration: repeatedly halves threads, operation
/// count and accounts while the failure reproduces. Bounded work; returns
/// the smallest configuration found to still fail (possibly the input).
pub fn shrink(params: &ChaosParams) -> ChaosParams {
    let mut best = *params;
    let mut improved = true;
    while improved {
        improved = false;
        let mut candidates = Vec::new();
        if best.threads > 2 {
            candidates.push(ChaosParams {
                threads: best.threads / 2,
                ..best
            });
        }
        if best.ops_per_thread > 25 {
            candidates.push(ChaosParams {
                ops_per_thread: best.ops_per_thread / 2,
                ..best
            });
        }
        if best.accounts > 2 {
            candidates.push(ChaosParams {
                accounts: (best.accounts / 2).max(2),
                ..best
            });
        }
        for cand in candidates {
            // A shrunk config must fail reliably to be a useful reproducer:
            // require 2 failures out of 2 runs.
            if (0..2).all(|_| !run_chaos(&cand).ok()) {
                best = cand;
                improved = true;
                break;
            }
        }
    }
    best
}

/// The command line that replays `params`.
pub fn reproducer_command(params: &ChaosParams) -> String {
    format!(
        "cargo run --release -p rococo-chaos --bin chaos -- --backend {} --seed {} \
         --threads {} --ops {} --accounts {} --faults {} --queue-len {} --window {} \
         --update-spin {} --irrevocable-after {}{}",
        params.backend.name(),
        params.seed,
        params.threads,
        params.ops_per_thread,
        params.accounts,
        params.faults.name(),
        params.queue_len,
        params.window,
        params.update_spin,
        params.irrevocable_after,
        if params.strict { "" } else { " --no-strict" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_baseline_passes_the_oracle() {
        let report = run_chaos(&ChaosParams {
            backend: BackendKind::Seq,
            ops_per_thread: 200,
            accounts: 8,
            faults: FaultPreset::None,
            ..ChaosParams::default()
        });
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.commits >= 200);
    }

    #[test]
    fn global_lock_passes_concurrently() {
        let report = run_chaos(&ChaosParams {
            backend: BackendKind::Lock,
            threads: 4,
            ops_per_thread: 150,
            faults: FaultPreset::None,
            ..ChaosParams::default()
        });
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn rococo_with_timing_faults_passes() {
        let report = run_chaos(&ChaosParams {
            seed: 3,
            threads: 4,
            ops_per_thread: 120,
            ..ChaosParams::default()
        });
        assert!(report.ok(), "{:?}", report.violations);
        assert!(
            report.injected.is_some(),
            "rococo must surface fault counters"
        );
    }

    #[test]
    fn hybrid_passes_the_oracle_while_migrating_mid_retry() {
        let report = run_chaos(&ChaosParams {
            seed: 7,
            backend: BackendKind::Hybrid,
            threads: 4,
            ops_per_thread: 150,
            ..ChaosParams::default()
        });
        assert!(report.ok(), "{:?}", report.violations);
        let sched = report.sched.expect("hybrid must surface sched counters");
        assert!(
            sched.migrations > 0,
            "the tiny HTM write-set must force mid-retry migrations: {sched:?}"
        );
        assert!(
            sched.commits_sw > 0,
            "no commit on the slow path: {sched:?}"
        );
    }

    #[test]
    fn reproducer_round_trips_the_parameters() {
        let p = ChaosParams::default();
        let cmd = reproducer_command(&p);
        assert!(cmd.contains("--backend rococo"));
        assert!(cmd.contains("--seed 1"));
        assert!(cmd.contains("--faults timing"));
    }
}
