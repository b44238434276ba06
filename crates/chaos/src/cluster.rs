//! Distributed chaos: drive a replicated TxKV cluster under seeded link
//! faults, partitions, and crash points, and check the replication
//! guarantees end to end.
//!
//! The cluster runs the crash-recovery harness's service workload
//! ([`crate::service`]) with two additions:
//!
//! * every acknowledged ledger put returns its commit sequence, and the
//!   client immediately performs a watermark-gated follower read with
//!   that sequence: the follower *must* return exactly the value just
//!   written (read-your-writes);
//! * followers apply whole records atomically, so *every* follower
//!   snapshot conserves the bank total, and after the run all alive
//!   replicas must converge to the primary's exact table.
//!
//! Clients drive fail-over themselves: a [`ReplError::PrimaryDown`]
//! makes the caller invoke [`Cluster::recover_primary`] with the epoch
//! it observed and retry — racing coordinators are resolved by the
//! epoch check ([`ReplError::StaleEpoch`] means someone else won). The
//! run must always end with a *serving* primary; acked writes surviving
//! every fail-over is the durability oracle.
//!
//! Nothing here sleeps or polls. The clients' gated reads run the
//! shipper rounds, and a read that finds the primary fenced drives the
//! fail-over and reads again, so reads across a fail-over are checked
//! too. The scenario's clock is the count of acknowledged ledger puts:
//! from a quarter of the run's puts the harness cuts the first live
//! follower's link (or demotes the primary for `during-election`), and
//! from half of them, once the cut link has refused a gated read, it
//! heals the link (`Driver::tick`). A partition run whose cut link
//! refused no read is a violation: that is the check that the cut
//! overlapped the load.

use crate::driver::BackendKind;
use crate::service::{
    check_bank, check_table, on_backend, run_load, Ledger, Load, OnBackend, Reply, Service,
    Workload,
};
use parking_lot::Mutex;
use rococo_repl::{Cluster, ClusterConfig, FailoverReport, LinkFaults, ReplError, ReplSnapshot};
use rococo_server::{DurabilityConfig, Request, TxKvConfig, TxKvError};
use rococo_stm::{TmConfig, TmSystem};
use rococo_wal::{FsyncPolicy, KillPoint, KillSwitch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// Crash point, one of [`KillPoint::CLUSTER`]; `None` runs fault-free
    /// (the baseline the convergence oracle must hold on too). The harness
    /// demotes a healthy primary mid-run for
    /// [`KillPoint::DuringElection`], so that its armed kill crashes the
    /// winning candidate.
    pub kill: Option<KillPoint>,
    /// Partition the first follower still alive mid-run and heal it: the
    /// gap protocol must re-converge the replica.
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
    /// Follower reads refused by the cut link (tolerated: the watermark
    /// rule refuses stale data rather than serving it) or addressed to a
    /// follower that crashed or was promoted away.
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
             ({} tolerated), {} fail-overs (max downtime {}us), epoch {} -> {}",
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

/// A cluster under the service workload, driven through the fail-over
/// protocol the way a real client-side coordinator would.
struct Driver<'a, S: TmSystem + 'static> {
    cluster: &'a Cluster<S>,
    params: &'a ClusterParams,
    /// Every completed fail-over, in order.
    failovers: Mutex<Vec<FailoverReport>>,
    /// The scenario clock: acknowledged ledger puts so far.
    puts: AtomicU64,
    /// The follower whose link the partition cut.
    cut: Mutex<Option<usize>>,
    /// Watermark-gated reads the cut link refused.
    refused: AtomicU64,
}

impl<S: TmSystem + 'static> Driver<'_, S> {
    /// Books a fail-over attempt named `what`; `false` when it failed. A
    /// stale epoch means another coordinator won the race.
    fn book(
        &self,
        attempt: Result<FailoverReport, ReplError>,
        what: &str,
        errors: &mut Vec<String>,
    ) -> bool {
        match attempt {
            Ok(report) => {
                self.failovers.lock().push(report);
                true
            }
            Err(ReplError::StaleEpoch { .. }) => true,
            Err(e) => {
                errors.push(format!("{what} failed: {e}"));
                false
            }
        }
    }

    /// Recovers a fenced primary: observe the epoch, attempt the
    /// fail-over; `false` when it failed.
    fn recover(&self, errors: &mut Vec<String>) -> bool {
        let observed = self.cluster.epoch();
        self.book(self.cluster.recover_primary(observed), "fail-over", errors)
    }

    /// Advances the scenario clock to `puts` acknowledged ledger puts.
    ///
    /// * At a quarter of the run's puts `during-election` demotes the
    ///   healthy primary; its armed kill crashes the winning candidate.
    /// * The partition cuts the first follower still alive (the shipper
    ///   skips a promoted one) at the first put from a quarter on that
    ///   finds the primary serving: the fail-over a fenced primary waits
    ///   for may promote the follower just cut.
    /// * The link heals at the first put from half of the run on once
    ///   the cut has refused a read. A heal at a bare count can rescue
    ///   every read still shipping against the cut link (on a short run
    ///   it does), and one after the load would cost a refused read's
    ///   rounds on every read routed to the cut link.
    fn tick(&self, puts: u64, errors: &mut Vec<String>) {
        let (cluster, params) = (self.cluster, self.params);
        let run = (params.clients * params.ops_per_client) as u64;
        let quarter = (run / 4).max(1);
        if puts == quarter && params.kill == Some(KillPoint::DuringElection) {
            self.book(cluster.fail_over(), "harness demotion", errors);
        }
        if !params.partition || puts < quarter {
            return;
        }
        let mut cut = self.cut.lock();
        match *cut {
            None if !cluster.poisoned() => {
                *cut = (0..cluster.follower_count()).find(|&f| cluster.follower_alive(f));
                if let Some(f) = *cut {
                    cluster.set_partitioned(f, true);
                }
            }
            Some(f) if puts >= run / 2 && self.refused.load(Ordering::SeqCst) > 0 => {
                cluster.set_partitioned(f, false);
            }
            _ => {}
        }
    }
}

impl<S: TmSystem + 'static> Service for Driver<'_, S> {
    /// On [`ReplError::PrimaryDown`]: observe the epoch, attempt
    /// recovery, treat a stale epoch as someone else having won, retry.
    fn issue(&self, req: &Request, errors: &mut Vec<String>) -> Reply {
        // Generous bound: each fail-over replays the log, so a run with
        // several crashes still converges long before this trips.
        for _ in 0..10_000 {
            match self.cluster.call(req.clone()) {
                Ok((_, seq)) => {
                    if seq.is_none() {
                        errors.push(format!("{req:?} acked without a sequence"));
                    }
                    return Reply::Acked(seq);
                }
                Err(ReplError::PrimaryDown) => {
                    if !self.recover(errors) {
                        return Reply::Lost;
                    }
                }
                Err(ReplError::Kv(TxKvError::Overloaded { .. })) => std::thread::yield_now(),
                Err(ReplError::Kv(TxKvError::RetriesExhausted { .. })) => {
                    return Reply::NotCommitted
                }
                Err(e) => {
                    errors.push(format!("cluster call failed unexpectedly: {e}"));
                    return Reply::Lost;
                }
            }
        }
        errors.push("cluster never returned to service".into());
        Reply::Lost
    }

    /// One watermark-gated read-back. The ledger key is single-writer, so
    /// a read gated on the put's own sequence must return exactly the
    /// value just written — anything else is a replication bug, not
    /// staleness. A fenced primary ships nothing: the read drives the
    /// fail-over as [`Service::issue`] does and reads again.
    fn acked_put(&self, c: usize, value: u64, seq: Option<u64>, ledger: &mut Ledger) {
        let Some(seq) = seq else { return };
        let puts = self.puts.fetch_add(1, Ordering::SeqCst) + 1;
        self.tick(puts, &mut ledger.violations);
        let f = (c + value as usize) % self.params.followers.max(1);
        let mut read = self.cluster.follower_read(f, c as u64, Some(seq));
        while read == Err(ReplError::PrimaryDown) {
            if !self.recover(&mut ledger.violations) {
                return;
            }
            read = self.cluster.follower_read(f, c as u64, Some(seq));
        }
        match read {
            Ok(v) => {
                ledger.reads_checked += 1;
                if v != value {
                    ledger.violations.push(format!(
                        "read-your-writes broken: follower {f} returned {v} for \
                         seq {seq}, expected {value}"
                    ));
                }
            }
            // The cut link refusing a read is the watermark rule doing its
            // job: refuse stale data rather than serve it. A gated read on
            // a fenced primary returns `PrimaryDown`, never `LagTimeout`,
            // so this one was refused by the cut alone.
            Err(ReplError::LagTimeout { .. }) if *self.cut.lock() == Some(f) => {
                self.refused.fetch_add(1, Ordering::SeqCst);
                ledger.reads_tolerated += 1;
            }
            // Crashed or promoted away mid-run: no read to check.
            Err(ReplError::FollowerDown { .. }) => ledger.reads_tolerated += 1,
            Err(e) => ledger
                .violations
                .push(format!("follower {f} read failed: {e}")),
        }
    }
}

/// Runs one cluster chaos configuration end to end: load (with the
/// scenario's kill armed), client-driven fail-over, convergence, judge.
pub fn run_cluster(params: &ClusterParams) -> ClusterRunReport {
    assert!(params.clients >= 1, "need at least one client");
    assert!(params.bank_keys >= 2, "transfers need at least 2 bank keys");
    assert!(
        params.kill.is_none_or(|p| KillPoint::CLUSTER.contains(&p)),
        "a cluster run reaches only the KillPoint::CLUSTER points"
    );
    on_backend(params.backend, params)
}

impl OnBackend for &ClusterParams {
    type Out = ClusterRunReport;

    fn on<S: TmSystem + 'static>(self, make: fn(TmConfig) -> S) -> ClusterRunReport {
        let params = self;
        let w = Workload {
            seed: params.seed,
            clients: params.clients,
            ops_per_client: params.ops_per_client,
            bank_keys: params.bank_keys,
        };
        let kill = params.kill.map(|point| {
            let countdown = match point {
                KillPoint::MidShip => 1 + params.seed % 8,
                KillPoint::PostAppendPreAck => 1 + params.seed % 16,
                // The election the harness's demotion forces.
                _ => 1,
            };
            KillSwitch::arm(point, countdown)
        });
        let dir = rococo_wal::scratch_dir("chaos-cluster");
        let kv = TxKvConfig {
            shards: 2,
            workers_per_shard: 2,
            queue_capacity: 64,
            keys: w.keys(),
            durability: Some(DurabilityConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                checkpoint_every: 0,
                kill: kill.clone(),
            }),
            ..TxKvConfig::default()
        };
        let cfg = ClusterConfig {
            followers: params.followers,
            // A fault at 0 % never rolls, so the seed alone changes nothing.
            link_faults: LinkFaults {
                seed: params.seed,
                drop_pct: params.drop_pct,
                reorder_pct: params.reorder_pct,
            },
        };
        let tm = TmConfig {
            heap_words: kv.heap_words(),
            max_threads: kv.worker_threads(),
        };
        let cluster =
            Cluster::start(move || Arc::new(make(tm)), kv, cfg).expect("cluster failed to start");
        let driver = Driver {
            cluster: &cluster,
            params,
            failovers: Mutex::new(Vec::new()),
            puts: AtomicU64::new(0),
            cut: Mutex::new(None),
            refused: AtomicU64::new(0),
        };

        // The preload goes through the fail-over protocol too, so even a
        // very early crash (a WAL kill countdown landing inside it) is
        // recovered and the preload still completes.
        let load = run_load(&driver, &w);
        // A load cut short may stop before the heal.
        let cut = *driver.cut.lock();
        if let Some(f) = cut {
            cluster.set_partitioned(f, false);
        }

        // The run must end with a serving primary, whatever the scenario
        // threw at it.
        let mut violations = load.violations();
        if cluster.poisoned() {
            let observed = cluster.epoch();
            let attempt = cluster.recover_primary(observed);
            driver.book(attempt, "final fail-over", &mut violations);
        }

        // Durability oracle: every acked write is visible on the
        // (possibly several-times-failed-over) primary.
        match (0..w.keys())
            .map(|key| cluster.get(key))
            .collect::<Result<Vec<u64>, _>>()
        {
            Err(e) => violations.push(format!("run must end with a serving primary: {e}")),
            Ok(primary) => {
                check_table(&primary, &load, false, "the primary", &mut violations);
                converge(&cluster, &primary, &load, &mut violations);
            }
        }

        // Scenario accounting: an armed kill that never fired means the run
        // never reached the failure it claims to test.
        let failovers = driver.failovers.into_inner();
        let crashed = kill.as_ref().is_some_and(|k| k.fired());
        if params.kill.is_some() && load.preload_complete {
            if !crashed && params.clients * params.ops_per_client >= 64 {
                violations.push(format!(
                    "armed kill {} never fired",
                    params.kill.map_or("?", |k| k.name())
                ));
            }
            if crashed && failovers.is_empty() {
                violations.push("the kill fired but no fail-over completed".into());
            }
        }
        let reads_tolerated = load.total(|l| l.reads_tolerated);
        if params.partition {
            let dropped = (cut.and_then(|f| cluster.link_stats(f)))
                .map_or(0, |s| s.dropped.load(Ordering::Relaxed));
            if dropped == 0 {
                violations.push("partition scenario dropped no frames".into());
            }
            if driver.refused.load(Ordering::SeqCst) == 0 {
                violations.push("the partition overlapped no watermark-gated read".into());
            }
        }

        let snapshot = cluster.shutdown().snapshot;
        let _ = std::fs::remove_dir_all(&dir);
        ClusterRunReport {
            params: params.clone(),
            crashed,
            acked: load.total(|l| l.acked),
            reads_checked: load.total(|l| l.reads_checked),
            reads_tolerated,
            failovers,
            snapshot,
            violations,
        }
    }
}

/// Convergence oracle: every surviving follower reaches the primary's
/// exact table once the stream drains, and its snapshot conserves the
/// bank. Catching up to the whole log covers every acked write and any
/// committed-but-unacked suffix a dying writer appended past the last
/// ack.
fn converge<S: TmSystem + 'static>(
    cluster: &Cluster<S>,
    primary: &[u64],
    load: &Load,
    violations: &mut Vec<String>,
) {
    if !cluster.catch_up() {
        violations.push("replication stream never drained after the run".into());
    }
    for f in 0..cluster.follower_count() {
        if !cluster.follower_alive(f) {
            continue; // crashed or promoted away
        }
        match cluster.follower_snapshot(f) {
            Ok((table, watermark)) => {
                if table != primary {
                    violations.push(format!(
                        "follower {f} diverged from the primary at watermark {watermark}"
                    ));
                }
                check_bank(
                    &table[load.clients.len()..],
                    load.preload_complete,
                    &format!("follower {f}"),
                    violations,
                );
            }
            Err(e) => violations.push(format!("follower {f} snapshot failed: {e}")),
        }
    }
}

/// Runs the scenario matrix — fault-free, every kill point, partition,
/// and a lossy-reordering link — for each seed and backend. Bounded and
/// seeded: the CI entry point.
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
            for kill in KillPoint::CLUSTER {
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
        "cargo run --release -p rococo-chaos --bin chaos -- cluster --backend {} --seed {} \
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
            kill: Some(KillPoint::MidShip),
            ops_per_client: 60,
            clients: 2,
            ..ClusterParams::default()
        });
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.crashed, "armed kill never fired");
        assert!(!report.failovers.is_empty());
        assert!(report.snapshot.epoch >= 1);
    }

    /// Seed 1's mid-ship kill elects follower 0 before the partition
    /// falls, and seed 6's leaves the primary fenced across the whole
    /// partition window: either way the harness must cut a link that
    /// still carries frames.
    #[test]
    fn partition_after_promotion_still_drops_frames() {
        for seed in [1, 6] {
            let report = run_cluster(&ClusterParams {
                seed,
                kill: Some(KillPoint::MidShip),
                partition: true,
                ..ClusterParams::default()
            });
            assert!(report.ok(), "seed {seed}: {:?}", report.violations);
            assert!(report.crashed, "seed {seed}: armed kill never fired");
        }
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
