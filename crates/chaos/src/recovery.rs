//! Crash-recovery chaos: kill the WAL writer at an armed point under
//! live TxKV load, recover the directory, and check prefix consistency.
//!
//! The harness drives a durable [`TxKv`] service with two kinds of keys:
//!
//! * **Ledger keys** — one per client, written only by that client with
//!   strictly ascending values (`Put k=c, v=1,2,3,...`). After recovery,
//!   the key's value must lie in `[last_acked, last_submitted]`: every
//!   acknowledged write survives (the WAL acked it after appending), and
//!   nothing the client never submitted can appear. A crash may keep a
//!   committed-but-unacked suffix — that is the documented
//!   [`KillPoint::PostAppendPreAck`] anomaly — but never lose an ack.
//! * **Bank keys** — preloaded through the service (so the preload is
//!   itself logged), then shuffled by `Transfer`s. Recovery replays a
//!   *prefix* of the serialization order, and every transfer conserves
//!   the total, so the recovered balances must still sum to the preload.
//!
//! Because the simulated crash kills the writer thread in place (the
//! page cache survives), the acked-writes-survive invariant holds for
//! every [`FsyncPolicy`] — the fsync mode changes what a real power cut
//! could lose, not what this harness can observe. The matrix still runs
//! all modes: group-commit batching and the ack protocol differ per
//! mode, and the oracle must hold in each.

use crate::driver::BackendKind;
use rococo_server::{DurabilityConfig, Request, Response, TxKv, TxKvConfig, TxKvError, TxKvReport};
use rococo_stm::{GlobalLockTm, RococoConfig, RococoTm, TinyStm, TmConfig, TmSystem, TsxHtm};
use rococo_wal::{FsyncPolicy, KillPoint, KillSwitch};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Bank keys all start at this balance (preloaded through the service so
/// the preload itself is logged).
pub const BANK_BALANCE: u64 = 1_000;

/// One crash-recovery run's configuration.
#[derive(Debug, Clone)]
pub struct RecoveryParams {
    /// Seed for the per-client operation streams and the kill countdown.
    pub seed: u64,
    /// Backend the service runs on (Seq is excluded — it has no
    /// synchronisation and cannot back a multi-worker service).
    pub backend: BackendKind,
    /// Where the simulated crash strikes; `None` runs to a clean
    /// shutdown (the oracle then requires *exact* recovery).
    pub kill_point: Option<KillPoint>,
    /// Client threads (each owns one ledger key).
    pub clients: usize,
    /// Operations per client (each op is one ledger put plus one
    /// transfer).
    pub ops_per_client: usize,
    /// Bank keys shuffled by transfers.
    pub bank_keys: u64,
    /// Ack durability policy for the run.
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many logged transactions (small values make
    /// the checkpoint kill points reachable under short runs).
    pub checkpoint_every: u64,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        Self {
            seed: 1,
            backend: BackendKind::Tiny,
            kill_point: Some(KillPoint::MidAppend),
            clients: 4,
            ops_per_client: 200,
            bank_keys: 8,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 64,
        }
    }
}

/// The outcome of one crash-recovery run.
#[derive(Debug)]
pub struct RecoveryRunReport {
    /// The configuration that produced this report.
    pub params: RecoveryParams,
    /// Whether the armed kill point actually fired during the run.
    pub crashed: bool,
    /// Acknowledged writes across all clients (ledger puts + transfers).
    pub acked: u64,
    /// Requests that committed in memory but lost their WAL ack.
    pub lost_acks: u64,
    /// What WAL recovery reported when the service restarted.
    pub recovery: rococo_wal::RecoveryReport,
    /// The crashed run's final service report (WAL counters included).
    pub load_report: TxKvReport,
    /// Oracle violations; empty means the run passed.
    pub violations: Vec<String>,
}

impl RecoveryRunReport {
    /// Whether the run passed every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "recovery {} kill={} fsync={} seed={}: {} acked, {} lost acks, \
             replayed {} (ckpt {:?}, torn {}B) -> {}",
            self.params.backend.name(),
            self.params.kill_point.map_or("none", |p| p.name()),
            self.params.fsync.name(),
            self.params.seed,
            self.acked,
            self.lost_acks,
            self.recovery.replayed,
            self.recovery.checkpoint_seq,
            self.recovery.torn_truncated_bytes,
            if self.ok() {
                "OK".to_string()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }
}

/// Per-client ledger bounds, filled in during the load phase.
#[derive(Debug, Default, Clone)]
struct ClientLedger {
    /// Highest ledger value whose `Put` was acknowledged.
    last_acked: u64,
    /// Highest ledger value ever submitted.
    last_submitted: u64,
    /// Acknowledged requests (ledger puts and transfers).
    acked: u64,
    /// Requests that failed with [`TxKvError::DurabilityLost`].
    lost: u64,
    /// Harness-level problems (unexpected error kinds).
    errors: Vec<String>,
}

fn service_config(
    params: &RecoveryParams,
    dir: PathBuf,
    kill: Option<Arc<KillSwitch>>,
) -> TxKvConfig {
    TxKvConfig {
        shards: 2,
        workers_per_shard: 2,
        queue_capacity: 64,
        keys: params.clients as u64 + params.bank_keys,
        durability: Some(DurabilityConfig {
            dir,
            fsync: params.fsync,
            checkpoint_every: params.checkpoint_every,
            kill,
        }),
        ..TxKvConfig::default()
    }
}

/// Runs one crash-recovery configuration end to end: load (with the kill
/// switch armed), crash, restart + recover, judge.
pub fn run_recovery(params: &RecoveryParams) -> RecoveryRunReport {
    assert!(params.clients >= 1, "need at least one client");
    assert!(params.bank_keys >= 2, "transfers need at least 2 bank keys");
    let tm_cfg = |cfg: &TxKvConfig| TmConfig {
        heap_words: cfg.heap_words(),
        max_threads: cfg.worker_threads(),
    };
    match params.backend {
        BackendKind::Rococo => run_on(params, |cfg| {
            Arc::new(RococoTm::with_configs(RococoConfig {
                tm: tm_cfg(cfg),
                ..RococoConfig::default()
            }))
        }),
        BackendKind::Tiny => run_on(params, |cfg| Arc::new(TinyStm::with_config(tm_cfg(cfg)))),
        BackendKind::Htm => run_on(params, |cfg| Arc::new(TsxHtm::with_config(tm_cfg(cfg)))),
        BackendKind::Lock => run_on(params, |cfg| {
            Arc::new(GlobalLockTm::with_config(tm_cfg(cfg)))
        }),
        BackendKind::Hybrid => run_on(params, |cfg| {
            Arc::new(rococo_sched::HybridTm::with_config(tm_cfg(cfg)))
        }),
        BackendKind::Seq => panic!("the sequential backend cannot run a multi-worker service"),
    }
}

fn run_on<S: TmSystem + 'static>(
    params: &RecoveryParams,
    make: impl Fn(&TxKvConfig) -> Arc<S>,
) -> RecoveryRunReport {
    let dir = rococo_wal::scratch_dir("recovery");
    let kill = params
        .kill_point
        // Vary when the crash lands without losing determinism of the
        // submitted streams.
        .map(|p| KillSwitch::arm(p, 1 + params.seed % 16));
    let cfg = service_config(params, dir.clone(), kill.clone());
    let kv = TxKv::start(make(&cfg), cfg.clone()).expect("durable service failed to start");

    // Preload the bank through the service so the preload is logged. If
    // the crash lands this early, skip the transfer phase: the oracle
    // then only has per-key {0, BANK_BALANCE} states to check.
    let mut preload_acked = 0u64;
    let mut preload_lost = 0u64;
    for b in 0..params.bank_keys {
        match kv.call(Request::Put {
            key: params.clients as u64 + b,
            value: BANK_BALANCE,
        }) {
            Ok(_) => preload_acked += 1,
            Err(TxKvError::DurabilityLost) => preload_lost += 1,
            Err(e) => panic!("bank preload failed unexpectedly: {e}"),
        }
    }
    let preload_complete = preload_acked == params.bank_keys;

    let mut ledgers = vec![ClientLedger::default(); params.clients];
    if preload_complete {
        let barrier = Barrier::new(params.clients);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for (c, ledger) in ledgers.iter_mut().enumerate() {
                let kv = &kv;
                let barrier = &barrier;
                let stop = &stop;
                scope.spawn(move || {
                    let mut rng = params.seed ^ ((c as u64 + 1) << 32) | 1;
                    barrier.wait();
                    for i in 1..=params.ops_per_client as u64 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        ledger.last_submitted = i;
                        match call_until_admitted(
                            kv,
                            Request::Put {
                                key: c as u64,
                                value: i,
                            },
                        ) {
                            Ok(_) => {
                                ledger.last_acked = i;
                                ledger.acked += 1;
                            }
                            Err(TxKvError::DurabilityLost) => {
                                ledger.lost += 1;
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                            Err(TxKvError::RetriesExhausted { .. }) => {} // known not committed
                            Err(e) => ledger.errors.push(format!("ledger put: {e}")),
                        }
                        let from = params.clients as u64 + xorshift(&mut rng) % params.bank_keys;
                        let mut to = params.clients as u64 + xorshift(&mut rng) % params.bank_keys;
                        if to == from {
                            to = params.clients as u64
                                + (to - params.clients as u64 + 1) % params.bank_keys;
                        }
                        let amount = 1 + xorshift(&mut rng) % 5;
                        match call_until_admitted(kv, Request::Transfer { from, to, amount }) {
                            Ok(_) => ledger.acked += 1,
                            Err(TxKvError::DurabilityLost) => {
                                ledger.lost += 1;
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                            Err(TxKvError::RetriesExhausted { .. }) => {}
                            Err(e) => ledger.errors.push(format!("transfer: {e}")),
                        }
                    }
                });
            }
        });
    }

    let crashed = kill.as_ref().is_some_and(|k| k.fired());
    let load_report = kv.shutdown();

    // Restart onto a fresh backend and recover the directory.
    let cfg2 = TxKvConfig {
        durability: Some(DurabilityConfig {
            dir: dir.clone(),
            fsync: params.fsync,
            checkpoint_every: 0,
            kill: None,
        }),
        ..cfg
    };
    let (kv2, recovery) =
        TxKv::recover(make(&cfg2), cfg2.clone()).expect("recovery failed to start");
    let read = |key: u64| match kv2.call(Request::Get { key }) {
        Ok(Response::Value(v)) => v,
        other => panic!("recovered read of key {key} failed: {other:?}"),
    };

    let mut violations = Vec::new();
    for (c, ledger) in ledgers.iter().enumerate() {
        for e in &ledger.errors {
            violations.push(format!("client {c} harness error: {e}"));
        }
        let v = read(c as u64);
        if v < ledger.last_acked {
            violations.push(format!(
                "client {c}: acked ledger write lost — recovered {v}, acked up to {}",
                ledger.last_acked
            ));
        }
        if v > ledger.last_submitted {
            violations.push(format!(
                "client {c}: recovered ledger value {v} was never submitted (max {})",
                ledger.last_submitted
            ));
        }
        if !crashed && v != ledger.last_acked {
            violations.push(format!(
                "client {c}: clean shutdown must recover exactly — got {v}, acked {}",
                ledger.last_acked
            ));
        }
    }

    let balances: Vec<u64> = (0..params.bank_keys)
        .map(|b| read(params.clients as u64 + b))
        .collect();
    if preload_complete {
        let total: u128 = balances.iter().map(|&b| b as u128).sum();
        let expected = BANK_BALANCE as u128 * params.bank_keys as u128;
        if total != expected {
            violations.push(format!(
                "bank conservation broken after recovery: balances sum to {total}, expected {expected}"
            ));
        }
    } else {
        // Crash during preload: each bank key is either untouched or
        // holds exactly its preload value.
        for (b, &v) in balances.iter().enumerate() {
            if v != 0 && v != BANK_BALANCE {
                violations.push(format!(
                    "bank key {b}: impossible recovered balance {v} (preload never finished)"
                ));
            }
        }
    }

    if params.kill_point.is_none() {
        if crashed {
            violations.push("no kill point armed, yet the harness saw a crash".into());
        }
        let lost: u64 = ledgers.iter().map(|l| l.lost).sum::<u64>() + preload_lost;
        if lost > 0 {
            violations.push(format!("{lost} acks lost without a crash"));
        }
    } else if let Some(point) = params.kill_point {
        // An armed append-path kill that never fired means the run was
        // too short to reach it — surface that so the matrix stays
        // honest (checkpoint kill points legitimately depend on load
        // volume, so only flag the always-reachable append points).
        if !crashed
            && params.checkpoint_every > 0
            && matches!(
                point,
                KillPoint::PreAppend | KillPoint::MidAppend | KillPoint::PostAppendPreAck
            )
            && preload_complete
            && params.clients * params.ops_per_client >= 64
        {
            violations.push(format!("armed kill point {} never fired", point.name()));
        }
    }

    drop(kv2);
    let _ = std::fs::remove_dir_all(&dir);

    RecoveryRunReport {
        params: params.clone(),
        crashed,
        acked: ledgers.iter().map(|l| l.acked).sum::<u64>() + preload_acked,
        lost_acks: ledgers.iter().map(|l| l.lost).sum::<u64>() + preload_lost,
        recovery,
        load_report,
        violations,
    }
}

/// Calls the service, retrying admission-control sheds (the queue being
/// momentarily full is backpressure, not an outcome).
fn call_until_admitted<S: TmSystem + 'static>(
    kv: &TxKv<S>,
    req: Request,
) -> Result<Response, TxKvError> {
    loop {
        match kv.call(req.clone()) {
            Err(TxKvError::Overloaded { .. }) => std::thread::yield_now(),
            other => return other,
        }
    }
}

/// The workload generator of both service harnesses (this one and
/// [`crate::cluster`]): pinned seeds replay the same schedules in each.
pub(crate) fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Backends the recovery matrix covers (Seq cannot back a multi-worker
/// service).
pub const RECOVERY_BACKENDS: [BackendKind; 3] =
    [BackendKind::Tiny, BackendKind::Htm, BackendKind::Rococo];

/// Runs the full kill-point × fsync-mode matrix for each seed and
/// backend. Bounded and seeded: the CI entry point.
pub fn recovery_sweep(
    base: &RecoveryParams,
    seeds: &[u64],
    backends: &[BackendKind],
) -> Vec<RecoveryRunReport> {
    let fsyncs = [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(8),
        FsyncPolicy::Never,
    ];
    let mut kill_points: Vec<Option<KillPoint>> = vec![None];
    kill_points.extend(KillPoint::ALL.map(Some));
    let mut reports = Vec::new();
    for &backend in backends {
        for &seed in seeds {
            for &kill_point in &kill_points {
                for &fsync in &fsyncs {
                    reports.push(run_recovery(&RecoveryParams {
                        seed,
                        backend,
                        kill_point,
                        fsync,
                        ..base.clone()
                    }));
                }
            }
        }
    }
    reports
}

/// The command line that replays `params`.
pub fn recovery_reproducer(params: &RecoveryParams) -> String {
    format!(
        "cargo run --release -p rococo-chaos --bin recovery -- --backend {} --seed {} \
         --kill {} --fsync {} --clients {} --ops {} --bank-keys {} --checkpoint-every {}",
        params.backend.name(),
        params.seed,
        params.kill_point.map_or("none", |p| p.name()),
        params.fsync.name(),
        params.clients,
        params.ops_per_client,
        params.bank_keys,
        params.checkpoint_every,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_recovers_exactly() {
        let report = run_recovery(&RecoveryParams {
            kill_point: None,
            ops_per_client: 40,
            clients: 2,
            ..RecoveryParams::default()
        });
        assert!(report.ok(), "{:?}", report.violations);
        assert!(!report.crashed);
        assert_eq!(report.lost_acks, 0);
    }

    #[test]
    fn mid_append_crash_recovers_prefix_consistently() {
        let report = run_recovery(&RecoveryParams {
            seed: 3,
            kill_point: Some(KillPoint::MidAppend),
            ops_per_client: 150,
            ..RecoveryParams::default()
        });
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.crashed, "kill point never fired");
        assert!(report.recovery.torn_truncated_bytes > 0 || report.recovery.replayed > 0);
    }

    #[test]
    fn post_append_pre_ack_keeps_unacked_writes() {
        let report = run_recovery(&RecoveryParams {
            seed: 7,
            kill_point: Some(KillPoint::PostAppendPreAck),
            ops_per_client: 150,
            ..RecoveryParams::default()
        });
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.crashed);
        assert!(report.lost_acks > 0, "the dying writer must drop some acks");
    }
}
