//! Distributed chaos: drive a replicated TxKV cluster under seeded link
//! faults, partitions, and crash points, and check the replication
//! guarantees end to end.
//!
//! The workload mirrors the crash-recovery harness ([`crate::recovery`])
//! but runs against a [`Cluster`] instead of a single node:
//!
//! * **Ledger keys** — one per client, written only by that client with
//!   strictly ascending values. Every acknowledged put returns its
//!   commit sequence, and the client immediately performs a
//!   watermark-gated follower read with that sequence: the follower
//!   *must* return exactly the value just written (read-your-writes).
//! * **Bank keys** — preloaded through the cluster, then shuffled by
//!   `Transfer`s. Followers apply whole records atomically, so *every*
//!   follower snapshot conserves the bank total, and after the run all
//!   alive replicas must converge to the primary's exact table.
//!
//! Clients drive fail-over themselves: a [`ReplError::PrimaryDown`]
//! makes the caller invoke [`Cluster::recover_primary`] with the epoch
//! it observed and retry — racing coordinators are resolved by the
//! epoch check ([`ReplError::StaleEpoch`] means someone else won). The
//! run must always end with a *serving* primary; acked writes surviving
//! every fail-over is the durability oracle.

use crate::driver::BackendKind;
use crate::recovery::xorshift;
use parking_lot::Mutex;
use rococo_repl::{
    Cluster, ClusterConfig, FailoverReport, LinkFaults, ReplError, ReplKillPoint, ReplKillSwitch,
    ReplSnapshot,
};
use rococo_server::{Request, TxKvError};
use rococo_stm::{GlobalLockTm, RococoConfig, RococoTm, TinyStm, TmConfig, TmSystem, TsxHtm};
use rococo_wal::{KillPoint, KillSwitch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Bank keys all start at this balance (preloaded through the cluster
/// so the preload itself replicates).
pub const CLUSTER_BANK_BALANCE: u64 = 1_000;

/// Where the simulated failure strikes a cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterKill {
    /// The primary dies midway through broadcasting a stream batch
    /// ([`ReplKillPoint::MidShip`]).
    MidShip,
    /// The primary's WAL writer dies after appending but before acking
    /// ([`KillPoint::PostAppendPreAck`]): the classic acked-vs-logged
    /// ambiguity, resolved by fencing plus log-replay fail-over.
    PreAck,
    /// The harness demotes a healthy primary mid-run and the elected
    /// follower crashes before catch-up completes
    /// ([`ReplKillPoint::DuringElection`]): the coordinator must fall
    /// back to the next candidate.
    DuringElection,
}

impl ClusterKill {
    /// Every cluster kill scenario, in lifecycle order.
    pub const ALL: [ClusterKill; 3] = [
        ClusterKill::MidShip,
        ClusterKill::PreAck,
        ClusterKill::DuringElection,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ClusterKill::MidShip => "mid-batch-ship",
            ClusterKill::PreAck => "pre-ack",
            ClusterKill::DuringElection => "during-election",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One cluster chaos run's configuration.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Seed for the operation streams, kill countdowns, and link faults.
    pub seed: u64,
    /// Backend every node runs on (Seq is excluded as in the recovery
    /// matrix).
    pub backend: BackendKind,
    /// Follower replica count.
    pub followers: usize,
    /// Client threads (each owns one ledger key).
    pub clients: usize,
    /// Operations per client (each op is one ledger put, one follower
    /// read-back, and one transfer).
    pub ops_per_client: usize,
    /// Bank keys shuffled by transfers.
    pub bank_keys: u64,
    /// Failure scenario; `None` runs fault-free (the baseline the
    /// convergence oracle must hold on too).
    pub kill: Option<ClusterKill>,
    /// Partition follower 0 mid-run and heal it: the gap protocol must
    /// re-converge the replica.
    pub partition: bool,
    /// Percent of stream frames the links drop (gap + resend path).
    pub drop_pct: u32,
    /// Percent of stream frames the links reorder (duplicate/overlap
    /// path).
    pub reorder_pct: u32,
}

impl Default for ClusterParams {
    fn default() -> Self {
        Self {
            seed: 1,
            backend: BackendKind::Tiny,
            followers: 2,
            clients: 3,
            ops_per_client: 100,
            bank_keys: 8,
            kill: None,
            partition: false,
            drop_pct: 0,
            reorder_pct: 0,
        }
    }
}

/// The outcome of one cluster chaos run.
#[derive(Debug)]
pub struct ClusterRunReport {
    /// The configuration that produced this report.
    pub params: ClusterParams,
    /// Whether the armed kill actually fired.
    pub crashed: bool,
    /// Acknowledged requests across all clients (puts + transfers).
    pub acked: u64,
    /// Watermark-gated follower reads that returned a value.
    pub reads_checked: u64,
    /// Follower reads that timed out while a partition or fail-over was
    /// in flight (tolerated: the watermark rule refuses stale data
    /// rather than serving it).
    pub reads_tolerated: u64,
    /// Every completed fail-over, in order.
    pub failovers: Vec<FailoverReport>,
    /// Replication counters at shutdown.
    pub snapshot: ReplSnapshot,
    /// Oracle violations; empty means the run passed.
    pub violations: Vec<String>,
}

impl ClusterRunReport {
    /// Whether the run passed every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        let downtime_us = self
            .failovers
            .iter()
            .map(|f| f.downtime.as_micros())
            .max()
            .unwrap_or(0);
        format!(
            "cluster {} kill={} partition={} drop={}% seed={}: {} acked, {} reads \
             ({} lag-tolerated), {} fail-overs (max downtime {}us), epoch {} -> {}",
            self.params.backend.name(),
            self.params.kill.map_or("none", |k| k.name()),
            self.params.partition,
            self.params.drop_pct,
            self.params.seed,
            self.acked,
            self.reads_checked,
            self.reads_tolerated,
            self.failovers.len(),
            downtime_us,
            self.snapshot.epoch,
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
    /// Follower reads that returned a value and passed the check.
    reads_checked: u64,
    /// Follower reads tolerated (lag timeout under partition/fail-over,
    /// or the follower was crashed/promoted away).
    reads_tolerated: u64,
    /// Oracle violations this client observed live.
    violations: Vec<String>,
    /// Harness-level problems (unexpected error kinds).
    errors: Vec<String>,
}

/// Outcome of a cluster call driven through the fail-over protocol.
enum Driven {
    /// Acked, with the commit sequence for update requests.
    Acked(Option<u64>),
    /// Known not committed (retries exhausted on the primary).
    NotCommitted,
    /// The cluster never returned to service within the attempt bound.
    GaveUp,
}

/// Calls the cluster, retrying admission sheds and driving fail-over on
/// [`ReplError::PrimaryDown`] the way a real client-side coordinator
/// would: observe the epoch, attempt recovery, treat a stale epoch as
/// someone else having won, retry the request.
fn drive<S: TmSystem + 'static>(
    cluster: &Cluster<S>,
    req: &Request,
    failovers: &Mutex<Vec<FailoverReport>>,
    errors: &mut Vec<String>,
) -> Driven {
    // Generous bound: each fail-over replays the log, so a run with
    // several crashes still converges long before this trips.
    for _ in 0..10_000 {
        match cluster.call(req.clone()) {
            Ok((_, seq)) => return Driven::Acked(seq),
            Err(ReplError::PrimaryDown) => {
                let observed = cluster.epoch();
                match cluster.recover_primary(observed) {
                    Ok(report) => failovers.lock().push(report),
                    Err(ReplError::StaleEpoch { .. }) => {} // another client won the race
                    Err(e) => {
                        errors.push(format!("fail-over failed: {e}"));
                        return Driven::GaveUp;
                    }
                }
            }
            Err(ReplError::Kv(TxKvError::Overloaded { .. })) => std::thread::yield_now(),
            Err(ReplError::Kv(TxKvError::RetriesExhausted { .. })) => return Driven::NotCommitted,
            Err(e) => {
                errors.push(format!("cluster call failed unexpectedly: {e}"));
                return Driven::GaveUp;
            }
        }
    }
    errors.push("cluster never returned to service".into());
    Driven::GaveUp
}

/// Runs one cluster chaos configuration end to end: load (with the
/// scenario's kill armed), client-driven fail-over, convergence, judge.
pub fn run_cluster(params: &ClusterParams) -> ClusterRunReport {
    assert!(params.clients >= 1, "need at least one client");
    assert!(params.bank_keys >= 2, "transfers need at least 2 bank keys");
    let tm_cfg = |cfg: &ClusterConfig| {
        let kv = cfg.kv_config(std::path::PathBuf::new(), None);
        TmConfig {
            heap_words: kv.heap_words(),
            max_threads: kv.worker_threads(),
        }
    };
    match params.backend {
        BackendKind::Rococo => run_on(params, |cfg| {
            let tm = tm_cfg(cfg);
            move || {
                Arc::new(RococoTm::with_configs(RococoConfig {
                    tm,
                    ..RococoConfig::default()
                }))
            }
        }),
        BackendKind::Tiny => run_on(params, |cfg| {
            let tm = tm_cfg(cfg);
            move || Arc::new(TinyStm::with_config(tm))
        }),
        BackendKind::Htm => run_on(params, |cfg| {
            let tm = tm_cfg(cfg);
            move || Arc::new(TsxHtm::with_config(tm))
        }),
        BackendKind::Lock => run_on(params, |cfg| {
            let tm = tm_cfg(cfg);
            move || Arc::new(GlobalLockTm::with_config(tm))
        }),
        BackendKind::Hybrid => run_on(params, |cfg| {
            let tm = tm_cfg(cfg);
            move || Arc::new(rococo_sched::HybridTm::with_config(tm))
        }),
        BackendKind::Seq => panic!("the sequential backend cannot run a multi-worker service"),
    }
}

fn run_on<S, M, F>(params: &ClusterParams, make: M) -> ClusterRunReport
where
    S: TmSystem + 'static,
    M: Fn(&ClusterConfig) -> F,
    F: Fn() -> Arc<S> + Send + Sync + 'static,
{
    let (repl_kill, wal_kill) = match params.kill {
        Some(ClusterKill::MidShip) => (
            Some(ReplKillSwitch::arm(
                ReplKillPoint::MidShip,
                1 + params.seed % 8,
            )),
            None,
        ),
        Some(ClusterKill::DuringElection) => (
            Some(ReplKillSwitch::arm(ReplKillPoint::DuringElection, 1)),
            None,
        ),
        Some(ClusterKill::PreAck) => (
            None,
            Some(KillSwitch::arm(
                KillPoint::PostAppendPreAck,
                1 + params.seed % 16,
            )),
        ),
        None => (None, None),
    };
    let cfg = ClusterConfig {
        followers: params.followers,
        keys: params.clients as u64 + params.bank_keys,
        queue_capacity: 64,
        // A fault at 0 % never rolls, so the seed alone changes nothing.
        link_faults: LinkFaults {
            seed: params.seed,
            drop_pct: params.drop_pct,
            reorder_pct: params.reorder_pct,
        },
        kill: repl_kill.clone(),
        wal_kill: wal_kill.clone(),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(make(&cfg), cfg).expect("cluster failed to start");

    let failovers = Mutex::new(Vec::new());
    let max_seq = AtomicU64::new(0);
    let mut ledgers = vec![ClientLedger::default(); params.clients];
    let mut harness_errors: Vec<String> = Vec::new();

    // Preload the bank through the cluster so the preload replicates.
    // Driving through `drive` means even a very early crash (a WAL kill
    // countdown landing inside the preload) is recovered and the preload
    // still completes.
    let mut preload_complete = true;
    for b in 0..params.bank_keys {
        let req = Request::Put {
            key: params.clients as u64 + b,
            value: CLUSTER_BANK_BALANCE,
        };
        match drive(&cluster, &req, &failovers, &mut harness_errors) {
            Driven::Acked(Some(seq)) => {
                max_seq.fetch_max(seq, Ordering::Relaxed);
            }
            Driven::Acked(None) => {
                harness_errors.push(format!("preload of bank key {b} acked without a sequence"));
                preload_complete = false;
            }
            Driven::NotCommitted | Driven::GaveUp => {
                preload_complete = false;
            }
        }
    }

    // Load phase. The partition / demotion chaos runs from the main
    // thread while the clients hammer the cluster.
    if preload_complete {
        let read_timeout = if params.partition {
            // Reads against the partitioned follower are *expected* to
            // time out — keep the stall short so the run stays bounded.
            Duration::from_millis(150)
        } else {
            Duration::from_secs(2)
        };
        let barrier = Barrier::new(params.clients + 1);
        std::thread::scope(|scope| {
            for (c, ledger) in ledgers.iter_mut().enumerate() {
                let cluster = &cluster;
                let barrier = &barrier;
                let failovers = &failovers;
                let max_seq = &max_seq;
                let params = &*params;
                scope.spawn(move || {
                    let mut rng = params.seed ^ ((c as u64 + 1) << 32) | 1;
                    barrier.wait();
                    for i in 1..=params.ops_per_client as u64 {
                        ledger.last_submitted = i;
                        let put = Request::Put {
                            key: c as u64,
                            value: i,
                        };
                        match drive(cluster, &put, failovers, &mut ledger.errors) {
                            Driven::Acked(Some(seq)) => {
                                ledger.last_acked = i;
                                ledger.acked += 1;
                                max_seq.fetch_max(seq, Ordering::Relaxed);
                                let f =
                                    (xorshift(&mut rng) % params.followers.max(1) as u64) as usize;
                                check_read_your_writes(
                                    cluster,
                                    f,
                                    c as u64,
                                    i,
                                    seq,
                                    read_timeout,
                                    params,
                                    ledger,
                                );
                            }
                            Driven::Acked(None) => ledger
                                .errors
                                .push(format!("ledger put {i} acked without a sequence")),
                            Driven::NotCommitted => {} // known not committed
                            Driven::GaveUp => break,
                        }
                        let from = params.clients as u64 + xorshift(&mut rng) % params.bank_keys;
                        let mut to = params.clients as u64 + xorshift(&mut rng) % params.bank_keys;
                        if to == from {
                            to = params.clients as u64
                                + (to - params.clients as u64 + 1) % params.bank_keys;
                        }
                        let amount = 1 + xorshift(&mut rng) % 5;
                        let transfer = Request::Transfer { from, to, amount };
                        match drive(cluster, &transfer, failovers, &mut ledger.errors) {
                            Driven::Acked(Some(seq)) => {
                                ledger.acked += 1;
                                max_seq.fetch_max(seq, Ordering::Relaxed);
                            }
                            Driven::Acked(None) => ledger
                                .errors
                                .push("transfer acked without a sequence".into()),
                            Driven::NotCommitted => {}
                            Driven::GaveUp => break,
                        }
                    }
                });
            }

            // Chaos from the coordinator's seat.
            barrier.wait();
            if params.partition {
                std::thread::sleep(Duration::from_millis(5));
                cluster.set_partitioned(0, true);
                std::thread::sleep(Duration::from_millis(40));
                cluster.set_partitioned(0, false);
            }
            if params.kill == Some(ClusterKill::DuringElection) {
                // Let some load land, then demote the healthy primary;
                // the armed kill crashes the winning candidate and the
                // election must fall back.
                std::thread::sleep(Duration::from_millis(15));
                match cluster.fail_over() {
                    Ok(report) => failovers.lock().push(report),
                    Err(ReplError::StaleEpoch { .. }) => {}
                    Err(e) => harness_errors.push(format!("harness demotion failed: {e}")),
                }
            }
        });
    }

    // The run must end with a serving primary, whatever the scenario
    // threw at it.
    if cluster.poisoned() {
        match cluster.recover_primary(cluster.epoch()) {
            Ok(report) => failovers.lock().push(report),
            Err(ReplError::StaleEpoch { .. }) => {}
            Err(e) => harness_errors.push(format!("final fail-over failed: {e}")),
        }
    }

    let mut violations: Vec<String> = Vec::new();
    for (c, ledger) in ledgers.iter().enumerate() {
        for v in &ledger.violations {
            violations.push(format!("client {c}: {v}"));
        }
        for e in &ledger.errors {
            violations.push(format!("client {c} harness error: {e}"));
        }
    }
    violations.extend(harness_errors);

    // Durability oracle: every acked write is visible on the (possibly
    // several-times-failed-over) primary.
    let keys = params.clients as u64 + params.bank_keys;
    let mut primary_table: Vec<u64> = Vec::with_capacity(keys as usize);
    let mut primary_serving = true;
    for key in 0..keys {
        match cluster.get(key) {
            Ok(v) => primary_table.push(v),
            Err(e) => {
                violations.push(format!(
                    "run must end with a serving primary: get({key}): {e}"
                ));
                primary_serving = false;
                break;
            }
        }
    }
    if primary_serving {
        for (c, ledger) in ledgers.iter().enumerate() {
            let v = primary_table[c];
            if v < ledger.last_acked {
                violations.push(format!(
                    "client {c}: acked ledger write lost across fail-over — \
                     primary has {v}, acked up to {}",
                    ledger.last_acked
                ));
            }
            if v > ledger.last_submitted {
                violations.push(format!(
                    "client {c}: primary ledger value {v} was never submitted (max {})",
                    ledger.last_submitted
                ));
            }
        }
        if preload_complete {
            let total: u128 = primary_table[params.clients..]
                .iter()
                .map(|&b| b as u128)
                .sum();
            let expected = CLUSTER_BANK_BALANCE as u128 * params.bank_keys as u128;
            if total != expected {
                violations.push(format!(
                    "bank conservation broken on the primary: sum {total}, expected {expected}"
                ));
            }
        }

        // Convergence oracle: every surviving follower reaches the
        // primary's exact table once the stream drains. Waiting to
        // `final_seq + 1` covers every acked write; the lag-drain poll
        // then covers any committed-but-unacked suffix a dying writer
        // appended past the last ack.
        let final_seq = max_seq.load(Ordering::Relaxed);
        if !cluster.wait_catch_up(final_seq + 1, Duration::from_secs(5)) {
            violations.push(format!(
                "followers never caught up to seq {final_seq} after the run"
            ));
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        let drained = loop {
            let behind = (0..cluster.follower_count()).any(|f| cluster.lag(f).is_ok_and(|l| l > 0));
            if !behind {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        if !drained {
            violations.push("replication stream never drained after the run".into());
        }
        for f in 0..cluster.follower_count() {
            if !cluster.follower_alive(f) {
                continue; // crashed or promoted away
            }
            match cluster.follower_snapshot(f) {
                Ok((table, watermark)) => {
                    if table != primary_table {
                        violations.push(format!(
                            "follower {f} diverged from the primary at watermark {watermark}"
                        ));
                    }
                    if preload_complete {
                        let total: u128 = table[params.clients..].iter().map(|&b| b as u128).sum();
                        let expected = CLUSTER_BANK_BALANCE as u128 * params.bank_keys as u128;
                        if total != expected {
                            violations.push(format!(
                                "bank conservation broken on follower {f}: sum {total}, \
                                 expected {expected}"
                            ));
                        }
                    }
                }
                Err(e) => violations.push(format!("follower {f} snapshot failed: {e}")),
            }
        }
    }

    // Scenario accounting: an armed kill that never fired means the run
    // never reached the failure it claims to test.
    let crashed = repl_kill.as_ref().is_some_and(|k| k.fired())
        || wal_kill.as_ref().is_some_and(|k| k.fired());
    if params.kill.is_some() && preload_complete {
        if !crashed && params.clients * params.ops_per_client >= 64 {
            violations.push(format!(
                "armed kill {} never fired",
                params.kill.map_or("?", |k| k.name())
            ));
        }
        if crashed && failovers.lock().is_empty() {
            violations.push("the kill fired but no fail-over completed".into());
        }
    }
    if params.partition {
        let dropped = cluster
            .link_stats(0)
            .map_or(0, |s| s.dropped.load(Ordering::Relaxed));
        if dropped == 0 {
            violations.push("partition scenario dropped no frames".into());
        }
    }

    let report = cluster.shutdown();
    ClusterRunReport {
        params: params.clone(),
        crashed,
        acked: ledgers.iter().map(|l| l.acked).sum(),
        reads_checked: ledgers.iter().map(|l| l.reads_checked).sum(),
        reads_tolerated: ledgers.iter().map(|l| l.reads_tolerated).sum(),
        failovers: failovers.into_inner(),
        snapshot: report.snapshot,
        violations,
    }
}

/// Performs one watermark-gated read-back against follower `f` and
/// classifies the outcome. The ledger key is single-writer, so a read
/// gated on the put's own sequence must return exactly the value just
/// written — anything else is a replication bug, not staleness.
#[allow(clippy::too_many_arguments)]
fn check_read_your_writes<S: TmSystem + 'static>(
    cluster: &Cluster<S>,
    f: usize,
    key: u64,
    expected: u64,
    seq: u64,
    timeout: Duration,
    params: &ClusterParams,
    ledger: &mut ClientLedger,
) {
    match cluster.follower_read(f, key, Some(seq), timeout) {
        Ok(v) => {
            ledger.reads_checked += 1;
            if v != expected {
                ledger.violations.push(format!(
                    "read-your-writes broken: follower {f} returned {v} for \
                     seq {seq}, expected {expected}"
                ));
            }
        }
        // A timed-out read under partition or fail-over is the watermark
        // rule doing its job: refuse stale data rather than serve it.
        Err(ReplError::LagTimeout { .. }) if params.partition || params.kill.is_some() => {
            ledger.reads_tolerated += 1;
        }
        // Crashed or promoted away mid-run: no read to check.
        Err(ReplError::FollowerDown { .. }) => ledger.reads_tolerated += 1,
        Err(e) => ledger
            .violations
            .push(format!("follower {f} read failed: {e}")),
    }
}

/// Runs the scenario matrix — fault-free, every kill point, partition,
/// and a lossy-reordering link — for each seed and backend. Bounded and
/// seeded: the `ci.sh --repl` entry point.
pub fn cluster_sweep(
    base: &ClusterParams,
    seeds: &[u64],
    backends: &[BackendKind],
) -> Vec<ClusterRunReport> {
    let mut reports = Vec::new();
    for &backend in backends {
        for &seed in seeds {
            let with = |params: ClusterParams| ClusterParams {
                seed,
                backend,
                ..params
            };
            reports.push(run_cluster(&with(base.clone())));
            for kill in ClusterKill::ALL {
                reports.push(run_cluster(&with(ClusterParams {
                    kill: Some(kill),
                    ..base.clone()
                })));
            }
            reports.push(run_cluster(&with(ClusterParams {
                partition: true,
                ..base.clone()
            })));
            reports.push(run_cluster(&with(ClusterParams {
                drop_pct: 25,
                reorder_pct: 15,
                ..base.clone()
            })));
        }
    }
    reports
}

/// The command line that replays `params`.
pub fn cluster_reproducer(params: &ClusterParams) -> String {
    let mut cmd = format!(
        "cargo run --release -p rococo-chaos --bin repl_cluster -- --backend {} --seed {} \
         --kill {} --followers {} --clients {} --ops {} --bank-keys {}",
        params.backend.name(),
        params.seed,
        params.kill.map_or("none", |k| k.name()),
        params.followers,
        params.clients,
        params.ops_per_client,
        params.bank_keys,
    );
    if params.partition {
        cmd.push_str(" --partition");
    }
    if params.drop_pct > 0 {
        cmd.push_str(&format!(" --drop-pct {}", params.drop_pct));
    }
    if params.reorder_pct > 0 {
        cmd.push_str(&format!(" --reorder-pct {}", params.reorder_pct));
    }
    cmd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_converges() {
        let report = run_cluster(&ClusterParams {
            ops_per_client: 40,
            clients: 2,
            ..ClusterParams::default()
        });
        assert!(report.ok(), "{:?}", report.violations);
        assert!(!report.crashed);
        assert!(report.reads_checked > 0);
        assert!(report.failovers.is_empty());
    }

    #[test]
    fn mid_ship_kill_fails_over_and_keeps_acks() {
        let report = run_cluster(&ClusterParams {
            seed: 5,
            kill: Some(ClusterKill::MidShip),
            ops_per_client: 60,
            clients: 2,
            ..ClusterParams::default()
        });
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.crashed, "armed kill never fired");
        assert!(!report.failovers.is_empty());
        assert!(report.snapshot.epoch >= 1);
    }

    #[test]
    fn lossy_link_run_heals_through_the_gap_protocol() {
        let report = run_cluster(&ClusterParams {
            seed: 9,
            drop_pct: 30,
            reorder_pct: 20,
            ops_per_client: 50,
            clients: 2,
            ..ClusterParams::default()
        });
        assert!(report.ok(), "{:?}", report.violations);
        assert!(
            report.snapshot.gaps_detected > 0,
            "a 30% lossy link must force gap detection"
        );
    }
}
