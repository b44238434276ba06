//! Crash-recovery chaos: kill the WAL at an armed point under
//! live TxKV load, recover the directory, and check prefix consistency.
//!
//! The harness drives a durable [`TxKv`] with the service workload
//! ([`crate::service`]) and holds the recovered table to its ledger and
//! bank oracle. A crash may keep a committed-but-unacked suffix — that
//! is the documented [`KillPoint::PostAppendPreAck`] anomaly — but never
//! lose an ack; a clean shutdown must recover exactly.
//!
//! Because the simulated crash stops the WAL in place, in whichever
//! worker thread is writing the batch (the page cache survives), the acked-writes-survive invariant holds for
//! every [`FsyncPolicy`] — the fsync mode changes what a real power cut
//! could lose, not what this harness can observe. The matrix still runs
//! all modes: group-commit batching and the ack protocol differ per
//! mode, and the oracle must hold in each.

use crate::driver::BackendKind;
use crate::service::{check_table, on_backend, run_load, OnBackend, Reply, Service, Workload};
use rococo_server::{DurabilityConfig, Request, Response, TxKv, TxKvConfig, TxKvError};
use rococo_stm::{TmConfig, TmSystem};
use rococo_wal::{FsyncPolicy, KillPoint, KillSwitch};
use std::sync::Arc;

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
            "recovery {} kill={}{} fsync={} seed={}: {} acked, {} lost acks, \
             replayed {} (ckpt {:?}, torn {}B) -> {}",
            self.params.backend.name(),
            self.params.kill_point.map_or("none", |p| p.name()),
            match (self.params.kill_point, self.crashed) {
                (None, _) => "",
                (Some(_), true) => " (fired)",
                (Some(_), false) => " (not fired)",
            },
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

/// A durable node under the service workload: a request the dying WAL
/// writer never acknowledged is lost, not failed.
impl<S: TmSystem + 'static> Service for TxKv<S> {
    fn issue(&self, req: &Request, errors: &mut Vec<String>) -> Reply {
        loop {
            return match self.call(req.clone()) {
                Ok(_) => Reply::Acked(None),
                Err(TxKvError::Overloaded { .. }) => {
                    std::thread::yield_now();
                    continue;
                }
                Err(TxKvError::RetriesExhausted { .. }) => Reply::NotCommitted,
                Err(TxKvError::DurabilityLost) => Reply::Lost,
                Err(e) => {
                    errors.push(format!("{req:?}: {e}"));
                    Reply::NotCommitted
                }
            };
        }
    }
}

/// Runs one crash-recovery configuration end to end: load (with the kill
/// switch armed), crash, restart + recover, judge.
pub fn run_recovery(params: &RecoveryParams) -> RecoveryRunReport {
    assert!(params.clients >= 1, "need at least one client");
    assert!(params.bank_keys >= 2, "transfers need at least 2 bank keys");
    assert!(
        params
            .kill_point
            .is_none_or(|p| KillPoint::WAL.contains(&p)),
        "a recovery run reaches only the KillPoint::WAL points"
    );
    on_backend(params.backend, params)
}

impl OnBackend for &RecoveryParams {
    type Out = RecoveryRunReport;

    fn on<S: TmSystem + 'static>(self, make: fn(TmConfig) -> S) -> RecoveryRunReport {
        let w = Workload {
            seed: self.seed,
            clients: self.clients,
            ops_per_client: self.ops_per_client,
            bank_keys: self.bank_keys,
        };
        let dir = rococo_wal::scratch_dir("recovery");
        // Vary when the crash lands without losing determinism of the
        // submitted streams. The preload is sequential, one WAL batch per
        // put, so an append kill counts its batches from the end of the
        // preload and meets the concurrent clients; a checkpoint kill
        // counts checkpoints, which the preload never reaches.
        let occurrence = 1 + self.seed % 16;
        let kill = self.kill_point.map(|p| {
            let after = match p {
                KillPoint::MidCheckpoint | KillPoint::MidTruncate => occurrence,
                _ => w.bank_keys + occurrence,
            };
            KillSwitch::arm(p, after)
        });
        let durability = |checkpoint_every, kill| {
            Some(DurabilityConfig {
                dir: dir.clone(),
                fsync: self.fsync,
                checkpoint_every,
                kill,
            })
        };
        let cfg = TxKvConfig {
            shards: 2,
            workers_per_shard: 2,
            queue_capacity: 64,
            keys: w.keys(),
            durability: durability(self.checkpoint_every, kill.clone()),
            ..TxKvConfig::default()
        };
        let tm = TmConfig {
            heap_words: cfg.heap_words(),
            max_threads: cfg.worker_threads(),
        };
        let kv =
            TxKv::start(Arc::new(make(tm)), cfg.clone()).expect("durable service failed to start");
        let load = run_load(&kv, &w);
        let crashed = kill.as_ref().is_some_and(|k| k.fired());
        let logged = kv.shutdown().wal.map_or(0, |w| w.appended_records);

        // Restart onto a fresh backend and recover the directory.
        let cfg = TxKvConfig {
            durability: durability(0, None),
            ..cfg
        };
        let (kv, recovery) =
            TxKv::recover(Arc::new(make(tm)), cfg).expect("recovery failed to start");
        let table: Vec<u64> = (0..w.keys())
            .map(|key| match kv.call(Request::Get { key }) {
                Ok(Response::Value(v)) => v,
                other => panic!("recovered read of key {key} failed: {other:?}"),
            })
            .collect();
        drop(kv);
        let _ = std::fs::remove_dir_all(&dir);

        let mut violations = load.violations();
        check_table(
            &table,
            &load,
            !crashed,
            "the recovered table",
            &mut violations,
        );
        let lost = load.total(|l| l.lost);
        match self.kill_point {
            None => {
                if crashed {
                    violations.push("no kill point armed, yet the harness saw a crash".into());
                }
                if lost > 0 {
                    violations.push(format!("{lost} acks lost without a crash"));
                }
            }
            // An armed kill that never fired although the load reached it
            // would pass the run without testing what it names. An append
            // point is reached once the clients have written the armed
            // number of batches after the preload: a batch holds at most
            // one record per client, since each waits for its reply. A
            // checkpoint point is reached once the run has logged one
            // interval per checkpoint up to the armed occurrence, plus one
            // interval of slack for the claim.
            Some(point) if !crashed && self.checkpoint_every > 0 => {
                let reached = match point {
                    KillPoint::PreAppend | KillPoint::MidAppend | KillPoint::PostAppendPreAck => {
                        load.preload_complete
                            && logged >= w.bank_keys + occurrence * self.clients as u64
                    }
                    KillPoint::MidCheckpoint | KillPoint::MidTruncate => {
                        logged >= (occurrence + 1) * self.checkpoint_every
                    }
                    KillPoint::MidShip | KillPoint::DuringElection => false,
                };
                if reached {
                    violations.push(format!(
                        "armed kill point {} never fired ({logged} records logged)",
                        point.name()
                    ));
                }
            }
            Some(_) => {}
        }

        RecoveryRunReport {
            params: self.clone(),
            crashed,
            acked: load.total(|l| l.acked),
            lost_acks: lost,
            recovery,
            violations,
        }
    }
}

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
    kill_points.extend(KillPoint::WAL.map(Some));
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
        "cargo run --release -p rococo-chaos --bin chaos -- recovery --backend {} --seed {} \
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
