//! `engine-replay`: a seeded EigenBench trace replayed through
//! `ValidationEngine::process` on this thread — no service, no STM, no WAL.

use crate::gen::stream_seed;
use crate::spec::{
    Workload, REPLAY_ACCESSES, REPLAY_BLOCK, REPLAY_CONCURRENCY, REPLAY_TRANSACTIONS, REPLAY_WINDOW,
};
use crate::stats::{vm_hwm_mib, Hist};
use rococo_cc::{run_policy, CcPolicy, Rococo, Tocc};
use rococo_core::order::{rw_graph, Footprint};
use rococo_fpga::{EngineConfig, EngineStats, FpgaVerdict, ValidateRequest, ValidationEngine};
use rococo_trace::{eigen_trace, EigenConfig, Trace};
use std::time::{Duration, Instant};

/// Block spans a traced segment keeps for `trace.json`.
pub const SPAN_CAP: usize = 20_000;
/// Committed transactions the serializability check builds the `→rw`
/// graph over (the graph is quadratic in this).
const ACYCLIC_PREFIX: usize = 3_000;

pub fn trace_of(seed: u64, segment: usize, transactions: usize) -> Trace {
    eigen_trace(
        &EigenConfig {
            accesses: REPLAY_ACCESSES,
            transactions,
            ..EigenConfig::default()
        },
        stream_seed(Workload::EngineReplay, seed, segment),
    )
}

fn requests_of(trace: &Trace) -> Vec<ValidateRequest> {
    trace
        .iter()
        .enumerate()
        .map(|(arrival, txn)| ValidateRequest {
            tx_id: arrival as u64,
            valid_ts: 0,
            read_addrs: txn.read_set(),
            write_addrs: txn.write_set(),
        })
        .collect()
}

/// One pass: every request through a fresh engine under the §6.1
/// visibility model — transaction `j` has observed the commits among the
/// arrivals before `j − T` (as `tests/fpga_engine.rs::replay_engine`, with
/// the snapshot kept incrementally instead of rescanned). `on_block` gets
/// the start and end of every `REPLAY_BLOCK` consecutive `process` calls;
/// `committed`, when given, collects the committed footprints in commit
/// order.
fn pass(
    reqs: &mut [ValidateRequest],
    mut on_block: impl FnMut(Instant, Instant),
    mut committed: Option<&mut Vec<Footprint>>,
) -> EngineStats {
    let mut engine = ValidationEngine::new(EngineConfig {
        window: REPLAY_WINDOW,
        ..EngineConfig::default()
    });
    let mut seq_of_arrival: Vec<Option<u64>> = vec![None; reqs.len()];
    let mut valid_ts = 0u64;
    let mut observed = 0usize;
    let mut block_start = Instant::now();
    for arrival in 0..reqs.len() {
        if let Some(newly_visible) = arrival.checked_sub(REPLAY_CONCURRENCY + 1) {
            if let Some(seq) = seq_of_arrival[newly_visible] {
                valid_ts = seq + 1;
                observed += 1;
            }
        }
        reqs[arrival].valid_ts = valid_ts;
        if let FpgaVerdict::Commit { seq } = engine.process(&reqs[arrival]) {
            seq_of_arrival[arrival] = Some(seq);
            if let Some(out) = committed.as_deref_mut() {
                out.push(Footprint {
                    reads: reqs[arrival].read_addrs.clone(),
                    writes: reqs[arrival].write_addrs.clone(),
                    observed,
                });
            }
        }
        if (arrival + 1) % REPLAY_BLOCK == 0 {
            let now = Instant::now();
            on_block(block_start, now);
            block_start = now;
        }
    }
    engine.stats()
}

pub struct ReplaySegment {
    /// Trace generation, request building and an untimed warm-up pass.
    pub setup_s: f64,
    /// `VmHWM` when the timed passes ended.
    pub hwm_mib: f64,
    pub verdicts: u64,
    pub elapsed: Duration,
    /// Host time per block of `REPLAY_BLOCK` `process` calls.
    pub block: Hist,
    /// Verdict counts of one pass (every pass must agree).
    pub pass_stats: EngineStats,
    /// Traced segments: `[start, end]` nanosecond offsets from `started` of
    /// the first [`SPAN_CAP`] blocks.
    pub spans: Vec<[u64; 2]>,
    pub started: Instant,
    pub errors: Vec<String>,
}

impl ReplaySegment {
    pub fn throughput(&self) -> f64 {
        self.verdicts as f64 / self.elapsed.as_secs_f64()
    }
}

/// One segment: generate the trace, warm up, then replay whole passes (a
/// fresh engine each) until `secs` have gone by, and check the outputs.
pub fn run_segment<const TRACED: bool>(seed: u64, segment: usize, secs: f64) -> ReplaySegment {
    let setup_started = Instant::now();
    let trace = trace_of(seed, segment, REPLAY_TRANSACTIONS);
    let mut reqs = requests_of(&trace);
    drop(trace);
    let mut errors = Vec::new();
    // The warm-up pass sets the verdict counts every timed pass must repeat.
    let reference = pass(&mut reqs, |_, _| {}, None);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let mut block = Hist::new();
    let mut spans = Vec::with_capacity(if TRACED { SPAN_CAP } else { 0 });
    let mut passes = 0u64;
    while passes == 0 || Instant::now() < deadline {
        let stats = pass(
            &mut reqs,
            |from, to| {
                block.record((to - from).as_nanos() as u64);
                if TRACED && spans.len() < SPAN_CAP {
                    let at = |t: Instant| (t - started).as_nanos() as u64;
                    spans.push([at(from), at(to)]);
                }
            },
            None,
        );
        passes += 1;
        if stats != reference {
            errors.push(format!(
                "pass {passes} decided {stats:?}, the first pass {reference:?}"
            ));
        }
    }
    let elapsed = started.elapsed();
    ReplaySegment {
        setup_s,
        hwm_mib: vm_hwm_mib(),
        verdicts: passes * reqs.len() as u64,
        elapsed,
        block,
        pass_stats: reference,
        spans,
        started,
        errors,
    }
}

/// Soundness, checked once per run on segment 0's trace: whatever the
/// signatures alias, the engine may only commit serializable histories.
pub fn commits_are_serializable(seed: u64) -> bool {
    let trace = trace_of(seed, 0, REPLAY_TRANSACTIONS);
    let mut committed = Vec::new();
    pass(&mut requests_of(&trace), |_, _| {}, Some(&mut committed));
    committed.truncate(ACYCLIC_PREFIX);
    rw_graph(&committed).is_acyclic()
}

/// The seed-determined guards on the whole of segment
/// 0's trace: engine aborts over exact `cc::Rococo` aborts, and the abort
/// rates of ROCoCo and timestamp OCC (the paper's Fig. 9 claim).
pub struct Guards {
    pub exact_inflation: f64,
    pub rococo_abort_rate: f64,
    pub tocc_abort_rate: f64,
}

pub fn guards(seed: u64) -> Guards {
    let trace = trace_of(seed, 0, REPLAY_TRANSACTIONS);
    let engine = pass(&mut requests_of(&trace), |_, _| {}, None);
    let policy = |p: &mut dyn CcPolicy| run_policy(p, &trace, REPLAY_CONCURRENCY).stats;
    let exact = policy(&mut Rococo::with_window(REPLAY_WINDOW));
    let tocc = policy(&mut Tocc::new());
    Guards {
        exact_inflation: engine.aborts() as f64 / exact.aborted().max(1) as f64,
        rococo_abort_rate: exact.abort_rate(),
        tocc_abort_rate: tocc.abort_rate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `tests/fpga_engine.rs::replay_engine`, verbatim in its quadratic
    /// form: the reference the incremental snapshot must agree with.
    fn replay_reference(trace: &Trace) -> (Vec<Footprint>, usize) {
        let mut engine = ValidationEngine::new(EngineConfig {
            window: REPLAY_WINDOW,
            ..EngineConfig::default()
        });
        let mut commit_seq_of_arrival: Vec<Option<u64>> = vec![None; trace.len()];
        let mut committed = Vec::new();
        let mut aborts = 0usize;
        for (arrival, txn) in trace.iter().enumerate() {
            let snap_arrival = arrival.saturating_sub(REPLAY_CONCURRENCY);
            let seen = || commit_seq_of_arrival[..snap_arrival].iter().flatten();
            let valid_ts = seen().max().map(|&s| s + 1).unwrap_or(0);
            let snapshot_commits = seen().count();
            let verdict = engine.process(&ValidateRequest {
                tx_id: arrival as u64,
                valid_ts,
                read_addrs: txn.read_set(),
                write_addrs: txn.write_set(),
            });
            match verdict {
                FpgaVerdict::Commit { seq } => {
                    commit_seq_of_arrival[arrival] = Some(seq);
                    committed.push(Footprint {
                        reads: txn.read_set(),
                        writes: txn.write_set(),
                        observed: snapshot_commits,
                    });
                }
                _ => aborts += 1,
            }
        }
        (committed, aborts)
    }

    #[test]
    fn incremental_snapshot_matches_the_reference_replay() {
        let trace = trace_of(5, 1, 1_500);
        let (want, want_aborts) = replay_reference(&trace);
        let mut got = Vec::new();
        let mut blocks = 0;
        let stats = pass(&mut requests_of(&trace), |_, _| blocks += 1, Some(&mut got));
        assert_eq!(got, want);
        assert_eq!(stats.aborts() as usize, want_aborts);
        assert_eq!(stats.requests as usize, trace.len());
        assert_eq!(blocks, trace.len() / REPLAY_BLOCK);
        assert!(rw_graph(&got).is_acyclic());
    }

    #[test]
    fn guards_are_determined_by_the_seed() {
        let a = guards(9);
        let b = guards(9);
        assert_eq!(a.exact_inflation, b.exact_inflation);
        assert_eq!(a.rococo_abort_rate, b.rococo_abort_rate);
        assert_eq!(a.tocc_abort_rate, b.tocc_abort_rate);
        assert!(
            a.rococo_abort_rate < a.tocc_abort_rate,
            "Fig. 9: ROCoCo aborts less"
        );
    }
}
