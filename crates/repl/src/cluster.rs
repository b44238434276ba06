//! The replicated cluster: one durable TxKV primary, N in-process
//! follower nodes fed by WAL log shipping, and a deterministic fail-over
//! coordinator.
//!
//! # Architecture
//!
//! The primary is an ordinary durable [`TxKv`] (checkpointing disabled,
//! so its log is the complete history). A **shipper** thread tails the
//! primary's `wal.log`, decodes complete record frames (a partial frame
//! at the tail is withheld until the writer finishes it), and broadcasts
//! dense [`StreamBatch`]es to each follower over a simulated
//! [`link`](crate::link) — per-follower cursors, so a slow or faulty
//! link never stalls the others. Followers validate every batch
//! (CRC, framing, density), apply it batch-atomically into their own
//! key table, and advance a `next_expected` watermark; a gap or a
//! rejected batch triggers a **Nack** carrying the expected sequence,
//! which rewinds the shipper's cursor (resend). Resends overlap, so
//! followers skip duplicates by sequence number — the stream is
//! idempotent by construction.
//!
//! # Read-your-writes
//!
//! A durable write's ack carries its on-disk commit sequence `s`
//! ([`TxKv::call_with_seq`]). A follower read that passes `min_seq = s`
//! blocks until the follower's `next_expected > s`, at which point the
//! follower has applied that write and every write serialized before it
//! — the log is dense, so the watermark comparison is exact, not
//! heuristic.
//!
//! # Fail-over
//!
//! [`Cluster::fail_over`] (or a chaos kill) demotes the primary:
//! the poison flag fences new requests, the old primary drains and
//! dumps its flight-recorder history (`primary-demoted`), the
//! most-caught-up live follower is elected (a
//! [`ReplKillPoint::DuringElection`] kill crashes the candidate and the
//! coordinator re-elects), and a new primary is recovered from the
//! shared log — the simulated-process crash model keeps the disk, so
//! WAL recovery *is* catch-up. Under [`FsyncPolicy::Always`] every
//! acked write is on that disk before its ack, hence no
//! acked-then-lost writes across fail-over; the elected follower's
//! watermark is checked against the recovered log (`watermark ≤
//! recovered next_seq`) as a built-in oracle against phantom applies.
//! The promoted node leaves the follower read set; the epoch counter
//! makes [`Cluster::recover_primary`] idempotent for racing observers.

use crate::kill::{ReplKillPoint, ReplKillSwitch};
use crate::link::{link, LinkFaults, LinkStats, LinkTx};
use crate::stats::{ReplSnapshot, ReplStats};
use crate::stream::StreamBatch;
use parking_lot::{Mutex, RwLock};
use rococo_server::{DurabilityConfig, Request, Response, TxKv, TxKvConfig, TxKvError, TxKvReport};
use rococo_stm::TmSystem;
use rococo_wal::record::decode_all;
use rococo_wal::{FsyncPolicy, KillSwitch, WalRecord};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Records per stream batch at most (bounds batch latency and makes the
/// mid-broadcast kill point land inside a burst, not after it).
const MAX_SHIP_RECORDS: usize = 64;

/// Shipper poll cadence: how often the log tail is re-read and cursors
/// advanced.
const SHIP_INTERVAL: Duration = Duration::from_micros(500);

/// Cluster topology and failure-injection knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Follower node count (0 is legal: a cluster that can only recover
    /// from disk).
    pub followers: usize,
    /// Keyspace size, shared by the primary and every follower replica.
    pub keys: u64,
    /// Primary's shard count.
    pub shards: usize,
    /// Primary's workers per shard.
    pub workers_per_shard: usize,
    /// Primary's shard queue depth.
    pub queue_capacity: usize,
    /// WAL directory; `None` allocates a scratch directory the cluster
    /// removes at shutdown.
    pub dir: Option<PathBuf>,
    /// Faults of every primary→follower link (per-follower fault streams
    /// are decorrelated from this seed).
    pub link_faults: LinkFaults,
    /// Armed replication-layer crash point (chaos testing only).
    pub kill: Option<Arc<ReplKillSwitch>>,
    /// Armed WAL crash point for the *initial* primary (the `pre-ack`
    /// scenario arms `PostAppendPreAck` here); a recovered primary runs
    /// without one.
    pub wal_kill: Option<Arc<KillSwitch>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            followers: 2,
            keys: 1 << 10,
            shards: 2,
            workers_per_shard: 2,
            queue_capacity: 128,
            dir: None,
            link_faults: LinkFaults::none(),
            kill: None,
            wal_kill: None,
        }
    }
}

impl ClusterConfig {
    /// The primary's TxKV configuration for `dir`, with checkpointing
    /// disabled — the log must stay the complete history for the shipper
    /// to tail and for fail-over recovery to rebuild from — and every
    /// ack behind an fsync ([`FsyncPolicy::Always`], the one mode whose
    /// acked writes survive fail-over against real power loss).
    pub fn kv_config(&self, dir: PathBuf, kill: Option<Arc<KillSwitch>>) -> TxKvConfig {
        TxKvConfig {
            shards: self.shards,
            workers_per_shard: self.workers_per_shard,
            queue_capacity: self.queue_capacity,
            keys: self.keys,
            durability: Some(DurabilityConfig {
                dir,
                fsync: FsyncPolicy::Always,
                checkpoint_every: 0,
                kill,
            }),
            ..TxKvConfig::default()
        }
    }
}

/// Why a cluster operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplError {
    /// The primary is demoted, crashed, or mid-fail-over; retry after
    /// [`Cluster::recover_primary`].
    PrimaryDown,
    /// The addressed follower has crashed or was promoted away.
    FollowerDown {
        /// The follower index.
        follower: u32,
    },
    /// A watermark-gated follower read timed out before the follower
    /// caught up to `min_seq`.
    LagTimeout {
        /// The follower index.
        follower: u32,
        /// The watermark the read required.
        min_seq: u64,
        /// The follower's `next_expected` when the read gave up.
        applied: u64,
    },
    /// [`Cluster::recover_primary`] observed an epoch that has already
    /// passed: another coordinator completed the fail-over.
    StaleEpoch {
        /// The epoch the caller observed.
        observed: u64,
        /// The cluster's current epoch.
        current: u64,
    },
    /// An invariant the replication design guarantees was violated —
    /// this is a bug report, not a retryable condition.
    Inconsistent {
        /// The violated invariant.
        reason: &'static str,
    },
    /// The primary's service layer rejected or failed the request.
    Kv(TxKvError),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::PrimaryDown => write!(f, "primary down: awaiting fail-over"),
            ReplError::FollowerDown { follower } => {
                write!(f, "follower {follower} is not serving reads")
            }
            ReplError::LagTimeout {
                follower,
                min_seq,
                applied,
            } => write!(
                f,
                "follower {follower} read timed out: needs seq > {min_seq}, applied {applied}"
            ),
            ReplError::StaleEpoch { observed, current } => write!(
                f,
                "fail-over already completed: observed epoch {observed}, now {current}"
            ),
            ReplError::Inconsistent { reason } => {
                write!(f, "replication invariant violated: {reason}")
            }
            ReplError::Kv(e) => write!(f, "primary request failed: {e}"),
        }
    }
}

impl std::error::Error for ReplError {}

/// What one completed fail-over did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverReport {
    /// The cluster epoch after the fail-over.
    pub epoch: u64,
    /// The follower that won the election (`None` when no follower was
    /// alive — the new primary still recovers from the shared log).
    pub elected: Option<u32>,
    /// The winner's `next_expected` at election time.
    pub candidate_watermark: u64,
    /// `next_seq` the recovered log resumed at. The built-in oracle
    /// checks `candidate_watermark <= recovered_next_seq`.
    pub recovered_next_seq: u64,
    /// Candidates crashed by a `during-election` kill before one stuck.
    pub crashed_candidates: u32,
    /// Demotion-to-serving wall time (writes block for this long).
    pub downtime: Duration,
}

/// The final accounting a cluster hands back at shutdown.
#[derive(Debug)]
pub struct ReplReport {
    /// Replication counters and per-follower lag at shutdown.
    pub snapshot: ReplSnapshot,
    /// The serving primary's report (`None` if it was down at shutdown).
    pub primary: Option<TxKvReport>,
    /// Reports of every primary demoted by a fail-over, oldest first.
    pub demoted: Vec<TxKvReport>,
}

/// One follower node's shared state (the applier thread holds clones).
struct FollowerNode {
    store: Arc<RwLock<Vec<u64>>>,
    next_expected: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
    partitioned: Arc<AtomicBool>,
    link_stats: Arc<LinkStats>,
    handle: Option<JoinHandle<()>>,
}

/// A replicated TxKV cluster. See the module docs for the architecture.
pub struct Cluster<S: TmSystem + 'static> {
    cfg: ClusterConfig,
    dir: PathBuf,
    owns_dir: bool,
    /// Fresh-backend factory: durable recovery requires a backend that
    /// has never committed, so fail-over constructs a new one.
    make: Box<dyn Fn() -> Arc<S> + Send + Sync>,
    primary: Arc<RwLock<Option<TxKv<S>>>>,
    /// Fence: set the instant the primary is known dead or demoted;
    /// requests fail fast instead of reaching a zombie.
    poisoned: Arc<AtomicBool>,
    epoch: Arc<AtomicU64>,
    stats: Arc<ReplStats>,
    /// Sequence the shipper has read off the log (== durable records
    /// known to replication); follower lag is measured against this.
    shipped_seq: Arc<AtomicU64>,
    followers: Vec<FollowerNode>,
    shipper: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    failover_lock: Mutex<()>,
    demoted: Mutex<Vec<TxKvReport>>,
    final_primary: Option<TxKvReport>,
}

impl<S: TmSystem + 'static> Cluster<S> {
    /// Starts (or restarts, if `cfg.dir` holds state) a cluster. The
    /// factory must return a freshly constructed backend sized for
    /// [`ClusterConfig::kv_config`] on every call — fail-over uses it to
    /// build the recovered primary.
    ///
    /// # Errors
    ///
    /// [`ReplError::Kv`] when the primary cannot start (bad
    /// configuration, unopenable WAL directory).
    pub fn start(
        make: impl Fn() -> Arc<S> + Send + Sync + 'static,
        cfg: ClusterConfig,
    ) -> Result<Self, ReplError> {
        let owns_dir = cfg.dir.is_none();
        let dir = cfg
            .dir
            .clone()
            .unwrap_or_else(|| rococo_wal::scratch_dir("repl-cluster"));
        let make: Box<dyn Fn() -> Arc<S> + Send + Sync> = Box::new(make);
        let kv_cfg = cfg.kv_config(dir.clone(), cfg.wal_kill.clone());
        let (kv, _) = TxKv::recover(make(), kv_cfg).map_err(ReplError::Kv)?;

        let stats = Arc::new(ReplStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let poisoned = Arc::new(AtomicBool::new(false));
        let shipped_seq = Arc::new(AtomicU64::new(0));
        let (nack_tx, nack_rx) = channel::<(u32, u64)>();

        let mut followers = Vec::with_capacity(cfg.followers);
        let mut links = Vec::with_capacity(cfg.followers);
        for f in 0..cfg.followers {
            // Decorrelate the per-link fault streams: identical seeds on
            // every link would drop the same batches everywhere.
            let faults = LinkFaults {
                seed: cfg
                    .link_faults
                    .seed
                    .wrapping_add((f as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..cfg.link_faults
            };
            let (tx, rx, partitioned, link_stats) = link(faults);
            let store = Arc::new(RwLock::new(vec![0u64; cfg.keys as usize]));
            let next_expected = Arc::new(AtomicU64::new(0));
            let alive = Arc::new(AtomicBool::new(true));
            let handle = {
                let store = Arc::clone(&store);
                let next_expected = Arc::clone(&next_expected);
                let alive = Arc::clone(&alive);
                let stop = Arc::clone(&stop);
                let stats = Arc::clone(&stats);
                let nack = nack_tx.clone();
                let keys = cfg.keys;
                std::thread::Builder::new()
                    .name(format!("repl-follower-{f}"))
                    .spawn(move || {
                        run_follower(
                            f as u32,
                            keys,
                            rx,
                            store,
                            next_expected,
                            alive,
                            stop,
                            nack,
                            stats,
                        )
                    })
                    .expect("failed to spawn repl follower")
            };
            followers.push(FollowerNode {
                store,
                next_expected,
                alive,
                partitioned,
                link_stats,
                handle: Some(handle),
            });
            links.push(tx);
        }
        drop(nack_tx);

        let shipper = {
            let log = dir.join("wal.log");
            let alive: Vec<Arc<AtomicBool>> =
                followers.iter().map(|n| Arc::clone(&n.alive)).collect();
            let stop = Arc::clone(&stop);
            let poisoned = Arc::clone(&poisoned);
            let shipped_seq = Arc::clone(&shipped_seq);
            let stats = Arc::clone(&stats);
            let kill = cfg.kill.clone();
            std::thread::Builder::new()
                .name("repl-shipper".into())
                .spawn(move || {
                    run_shipper(
                        log,
                        links,
                        alive,
                        nack_rx,
                        stop,
                        poisoned,
                        shipped_seq,
                        stats,
                        kill,
                    )
                })
                .expect("failed to spawn repl shipper")
        };

        Ok(Self {
            cfg,
            dir,
            owns_dir,
            make,
            primary: Arc::new(RwLock::new(Some(kv))),
            poisoned,
            epoch: Arc::new(AtomicU64::new(0)),
            stats,
            shipped_seq,
            followers,
            shipper: Some(shipper),
            stop,
            failover_lock: Mutex::new(()),
            demoted: Mutex::new(Vec::new()),
            final_primary: None,
        })
    }

    /// The WAL directory the cluster replicates from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration the cluster started with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Current cluster epoch (bumped by every completed fail-over).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether the primary is fenced (crashed or demoted, fail-over not
    /// yet completed).
    pub fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Sends a request to the primary, returning the response and — for
    /// update requests in this durable cluster — the on-disk commit
    /// sequence usable as a [`Cluster::follower_read`] watermark.
    ///
    /// # Errors
    ///
    /// [`ReplError::PrimaryDown`] when the primary is fenced or its log
    /// died mid-request (the fence is raised as a side effect);
    /// [`ReplError::Kv`] for service-level failures.
    pub fn call(&self, req: Request) -> Result<(Response, Option<u64>), ReplError> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(ReplError::PrimaryDown);
        }
        let guard = self.primary.read();
        let Some(kv) = guard.as_ref() else {
            return Err(ReplError::PrimaryDown);
        };
        match kv.call_with_seq(req) {
            Ok(ok) => Ok(ok),
            Err(TxKvError::DurabilityLost) => {
                // The log writer died: fence immediately so no later
                // request can be acked by a primary that cannot log it.
                self.poisoned.store(true, Ordering::SeqCst);
                Err(ReplError::PrimaryDown)
            }
            Err(e) => {
                if let TxKvError::RetriesExhausted { last, .. } = e {
                    self.stats.note_retries_exhausted(last);
                }
                Err(ReplError::Kv(e))
            }
        }
    }

    /// Durable put; returns the write's on-disk commit sequence (its
    /// read-your-writes watermark).
    ///
    /// # Errors
    ///
    /// As [`Cluster::call`].
    pub fn put(&self, key: u64, value: u64) -> Result<u64, ReplError> {
        let (_, seq) = self.call(Request::Put { key, value })?;
        seq.ok_or(ReplError::Inconsistent {
            reason: "durable update acked without a commit sequence",
        })
    }

    /// Point read against the primary.
    ///
    /// # Errors
    ///
    /// As [`Cluster::call`].
    pub fn get(&self, key: u64) -> Result<u64, ReplError> {
        match self.call(Request::Get { key })? {
            (Response::Value(v), _) => Ok(v),
            _ => Err(ReplError::Inconsistent {
                reason: "get answered with a non-value response",
            }),
        }
    }

    /// Snapshot read against follower `f`, gated on the read-your-writes
    /// watermark: with `min_seq = Some(s)` the read blocks until the
    /// follower has applied sequence `s` (i.e. `next_expected > s`), so
    /// a client that writes with [`Cluster::put`] and reads back with
    /// that sequence always sees its own write.
    ///
    /// # Errors
    ///
    /// [`ReplError::FollowerDown`] for a crashed or promoted follower;
    /// [`ReplError::LagTimeout`] when the watermark is not reached in
    /// `timeout`; [`ReplError::Kv`] for an out-of-range key.
    pub fn follower_read(
        &self,
        f: usize,
        key: u64,
        min_seq: Option<u64>,
        timeout: Duration,
    ) -> Result<u64, ReplError> {
        let node = self.follower(f)?;
        if let Some(min) = min_seq {
            let deadline = Instant::now() + timeout;
            while node.next_expected.load(Ordering::SeqCst) <= min {
                if !node.alive.load(Ordering::SeqCst) {
                    return Err(ReplError::FollowerDown { follower: f as u32 });
                }
                if Instant::now() >= deadline {
                    return Err(ReplError::LagTimeout {
                        follower: f as u32,
                        min_seq: min,
                        applied: node.next_expected.load(Ordering::SeqCst),
                    });
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let store = node.store.read();
        store
            .get(key as usize)
            .copied()
            .ok_or(ReplError::Kv(TxKvError::KeyOutOfRange {
                key,
                keys: self.cfg.keys,
            }))
    }

    /// A batch-atomic snapshot of follower `f`'s whole key table plus
    /// the watermark it is consistent with: the returned table reflects
    /// exactly the writes with sequence `< watermark` (appliers update
    /// the store and the watermark under one write lock).
    ///
    /// # Errors
    ///
    /// [`ReplError::FollowerDown`] for a crashed or promoted follower.
    pub fn follower_snapshot(&self, f: usize) -> Result<(Vec<u64>, u64), ReplError> {
        let node = self.follower(f)?;
        let store = node.store.read();
        let watermark = node.next_expected.load(Ordering::SeqCst);
        Ok((store.clone(), watermark))
    }

    /// Replication lag of follower `f` in sequence numbers: durable
    /// records known to the shipper minus records the follower applied.
    ///
    /// # Errors
    ///
    /// [`ReplError::FollowerDown`] for a crashed or promoted follower.
    pub fn lag(&self, f: usize) -> Result<u64, ReplError> {
        let node = self.follower(f)?;
        Ok(self
            .shipped_seq
            .load(Ordering::SeqCst)
            .saturating_sub(node.next_expected.load(Ordering::SeqCst)))
    }

    /// Partitions (or heals) the link to follower `f`: while partitioned
    /// every shipped frame is dropped; the gap protocol re-converges the
    /// follower after healing.
    pub fn set_partitioned(&self, f: usize, partitioned: bool) {
        if let Some(node) = self.followers.get(f) {
            node.partitioned.store(partitioned, Ordering::SeqCst);
        }
    }

    /// Whether follower `f` is alive and serving reads.
    pub fn follower_alive(&self, f: usize) -> bool {
        self.followers
            .get(f)
            .is_some_and(|n| n.alive.load(Ordering::SeqCst))
    }

    /// Configured follower count (including crashed and promoted ones —
    /// indices are stable for the cluster's lifetime).
    pub fn follower_count(&self) -> usize {
        self.followers.len()
    }

    /// Link counters for follower `f`'s stream (sent, dropped, shed,
    /// reordered), for harness assertions.
    pub fn link_stats(&self, f: usize) -> Option<Arc<LinkStats>> {
        self.followers.get(f).map(|n| Arc::clone(&n.link_stats))
    }

    /// Blocks until every live follower has applied sequence numbers up
    /// to at least `min_seq`; `false` on timeout.
    pub fn wait_catch_up(&self, min_seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let behind = self.followers.iter().any(|n| {
                n.alive.load(Ordering::SeqCst) && n.next_expected.load(Ordering::SeqCst) < min_seq
            });
            if !behind {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Demotes the current primary (even a healthy one) and fails over.
    /// Equivalent to observing the current epoch and calling
    /// [`Cluster::recover_primary`].
    ///
    /// # Errors
    ///
    /// As [`Cluster::recover_primary`].
    pub fn fail_over(&self) -> Result<FailoverReport, ReplError> {
        self.recover_primary(self.epoch())
    }

    /// Runs the fail-over protocol, idempotently: the caller passes the
    /// epoch it observed the failure in, and if another coordinator has
    /// already moved the cluster past it this returns
    /// [`ReplError::StaleEpoch`] without touching anything.
    ///
    /// Protocol: fence (poison flag) → drain and demote the old primary
    /// (its flight recorder dumps as `primary-demoted`) → elect the
    /// most-caught-up live follower (re-electing past `during-election`
    /// crashes) → recover a new primary from the shared log → check the
    /// candidate's watermark against the recovered log → promote,
    /// unfence, bump the epoch.
    ///
    /// # Errors
    ///
    /// [`ReplError::StaleEpoch`] as above; [`ReplError::Kv`] when log
    /// recovery fails; [`ReplError::Inconsistent`] when a follower is
    /// ahead of the recovered log (an acked-write-loss or phantom-apply
    /// bug the oracle caught).
    pub fn recover_primary(&self, observed_epoch: u64) -> Result<FailoverReport, ReplError> {
        let _coordinator = self.failover_lock.lock();
        let current = self.epoch.load(Ordering::SeqCst);
        if current != observed_epoch {
            return Err(ReplError::StaleEpoch {
                observed: observed_epoch,
                current,
            });
        }
        let t0 = Instant::now();
        // Fence first: from here no request reaches the old primary, so
        // nothing can be acked by a node about to lose its identity.
        self.poisoned.store(true, Ordering::SeqCst);
        rococo_telemetry::dump_anomaly("primary-demoted");
        if let Some(kv) = self.primary.write().take() {
            // Drain: queued requests finish (their acks are backed by
            // the log) and the WAL writer flushes and exits.
            // The fail-over lock is held across the drain on purpose: it
            // exists to serialize recovery, and shutdown's drain is
            // bounded and never takes it, so the hold cannot deadlock.
            self.demoted.lock().push(kv.shutdown());
        }
        // Let in-flight frames land so the election sees settled
        // watermarks; bounded, not required for correctness.
        std::thread::sleep(SHIP_INTERVAL * 2);

        let mut crashed = 0u32;
        let (elected, candidate_watermark) = loop {
            let best = self
                .followers
                .iter()
                .enumerate()
                .filter(|(_, n)| n.alive.load(Ordering::SeqCst))
                .max_by_key(|(_, n)| n.next_expected.load(Ordering::SeqCst));
            let Some((f, node)) = best else {
                break (None, 0);
            };
            if self
                .cfg
                .kill
                .as_ref()
                .is_some_and(|k| k.should_fire(ReplKillPoint::DuringElection))
            {
                // The winner dies before catch-up completes; count it
                // and re-elect among the survivors.
                node.alive.store(false, Ordering::SeqCst);
                self.stats.follower_crashes.fetch_add(1, Ordering::Relaxed);
                crashed += 1;
                continue;
            }
            break (Some(f as u32), node.next_expected.load(Ordering::SeqCst));
        };

        // Catch-up = WAL recovery on the shared disk: replays the full
        // log (torn tail truncated) and resumes the dense sequence.
        let kv_cfg = self.cfg.kv_config(self.dir.clone(), None);
        let (kv, report) = TxKv::recover((self.make)(), kv_cfg).map_err(ReplError::Kv)?;
        let recovered_next_seq = report.checkpoint_seq.unwrap_or(0) + report.replayed;
        if candidate_watermark > recovered_next_seq {
            return Err(ReplError::Inconsistent {
                reason: "elected follower is ahead of the recovered log",
            });
        }
        // The promoted node stops serving follower reads: its replica
        // is now the primary's identity.
        if let Some(f) = elected {
            self.followers[f as usize]
                .alive
                .store(false, Ordering::SeqCst);
        }
        *self.primary.write() = Some(kv);
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.poisoned.store(false, Ordering::SeqCst);
        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
        rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Failover {
            epoch,
            elected: elected.unwrap_or(u32::MAX),
        });
        Ok(FailoverReport {
            epoch,
            elected,
            candidate_watermark,
            recovered_next_seq,
            crashed_candidates: crashed,
            downtime: t0.elapsed(),
        })
    }

    /// Point-in-time replication counters plus per-follower lag.
    pub fn snapshot(&self) -> ReplSnapshot {
        let shipped = self.shipped_seq.load(Ordering::SeqCst);
        let lags = self
            .followers
            .iter()
            .map(|n| shipped.saturating_sub(n.next_expected.load(Ordering::SeqCst)))
            .collect();
        self.stats.snapshot(lags, self.epoch.load(Ordering::SeqCst))
    }

    /// Stops the cluster — shipper, primary, appliers, in that order —
    /// and returns the final accounting.
    pub fn shutdown(mut self) -> ReplReport {
        self.stop_and_join();
        ReplReport {
            snapshot: self.snapshot(),
            primary: self.final_primary.take(),
            demoted: std::mem::take(&mut *self.demoted.lock()),
        }
    }

    fn follower(&self, f: usize) -> Result<&FollowerNode, ReplError> {
        let node = self
            .followers
            .get(f)
            .ok_or(ReplError::FollowerDown { follower: f as u32 })?;
        if !node.alive.load(Ordering::SeqCst) {
            return Err(ReplError::FollowerDown { follower: f as u32 });
        }
        Ok(node)
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.shipper.take() {
            let _ = h.join();
        }
        if let Some(kv) = self.primary.write().take() {
            self.final_primary = Some(kv.shutdown());
        }
        for node in &mut self.followers {
            if let Some(h) = node.handle.take() {
                let _ = h.join();
            }
        }
        if self.owns_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

impl<S: TmSystem + 'static> Drop for Cluster<S> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl<S: TmSystem + 'static> std::fmt::Debug for Cluster<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("followers", &self.followers.len())
            .field("epoch", &self.epoch())
            .field("poisoned", &self.poisoned())
            .finish()
    }
}

/// The shipper loop: tail the log, honour nacks, broadcast batches.
#[allow(clippy::too_many_arguments)]
fn run_shipper(
    log: PathBuf,
    mut links: Vec<LinkTx>,
    alive: Vec<Arc<AtomicBool>>,
    nacks: Receiver<(u32, u64)>,
    stop: Arc<AtomicBool>,
    poisoned: Arc<AtomicBool>,
    shipped_seq: Arc<AtomicU64>,
    stats: Arc<ReplStats>,
    kill: Option<Arc<ReplKillSwitch>>,
) {
    // The full record cache: `cache[i].seq == i`. The log is dense from
    // 0 and never truncated (checkpointing is disabled), so resends are
    // an index, not a disk seek.
    let mut cache: Vec<WalRecord> = Vec::new();
    let mut offset: u64 = 0; // bytes of complete frames consumed
    let mut cursors = vec![0u64; links.len()];
    let mut tick: u64 = 0;
    loop {
        tick += 1;
        if stop.load(Ordering::SeqCst) {
            for l in &mut links {
                l.flush();
            }
            break;
        }
        while let Ok((f, expected)) = nacks.try_recv() {
            let f = f as usize;
            if expected < cursors[f] {
                cursors[f] = expected;
                stats.resends.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !poisoned.load(Ordering::SeqCst) {
            // Tail the log: decode complete frames past our offset; a
            // partial frame mid-append is left for the next poll. A
            // fail-over may truncate the torn tail, but never a complete
            // frame — the offset stays valid across primary changes.
            if let Ok(mut file) = File::open(&log) {
                let mut buf = Vec::new();
                if file.seek(SeekFrom::Start(offset)).is_ok()
                    && file.read_to_end(&mut buf).is_ok()
                    && !buf.is_empty()
                {
                    let (records, _end) = decode_all(&buf);
                    for rec in records {
                        debug_assert_eq!(rec.seq, cache.len() as u64, "log must be dense");
                        offset += rec.frame_len() as u64;
                        cache.push(rec);
                    }
                    shipped_seq.store(cache.len() as u64, Ordering::SeqCst);
                }
            }
            'broadcast: for (f, l) in links.iter_mut().enumerate() {
                if !alive[f].load(Ordering::SeqCst) {
                    // Dead follower: fast-forward so the loop stays cheap.
                    cursors[f] = cache.len() as u64;
                    continue;
                }
                while (cursors[f] as usize) < cache.len() {
                    if kill
                        .as_ref()
                        .is_some_and(|k| k.should_fire(ReplKillPoint::MidShip))
                    {
                        // Primary dies mid-broadcast: a strict prefix of
                        // the followers got this round's batches. Fence
                        // and stop shipping until fail-over recovers.
                        poisoned.store(true, Ordering::SeqCst);
                        break 'broadcast;
                    }
                    let first = cursors[f];
                    let end = (first as usize + MAX_SHIP_RECORDS).min(cache.len());
                    let batch = StreamBatch::new(first, cache[first as usize..end].to_vec());
                    let n = batch.records.len();
                    l.send(batch.encode());
                    cursors[f] = batch.next_seq();
                    stats.batches_shipped.fetch_add(1, Ordering::Relaxed);
                    stats.records_shipped.fetch_add(n as u64, Ordering::Relaxed);
                    rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::ReplShip {
                        first_seq: first,
                        records: n as u32,
                        follower: f as u32,
                    });
                }
                l.flush();
            }
            // Heartbeat: an empty batch at the cursor position, every
            // few polls. A caught-up follower skips it as a duplicate; a
            // follower whose *last* data batch was dropped sees a gap it
            // would otherwise never learn about (nothing newer is coming
            // to trigger detection) and nacks for the resend.
            if tick.is_multiple_of(8) && !poisoned.load(Ordering::SeqCst) {
                for (f, l) in links.iter_mut().enumerate() {
                    if alive[f].load(Ordering::SeqCst) {
                        l.send(StreamBatch::new(cursors[f], Vec::new()).encode());
                        l.flush();
                    }
                }
            }
        }
        std::thread::sleep(SHIP_INTERVAL);
    }
    rococo_telemetry::flush_thread();
}

/// One follower's apply loop: validate, gap-check, apply batch-atomically.
#[allow(clippy::too_many_arguments)]
fn run_follower(
    f: u32,
    keys: u64,
    rx: crate::link::LinkRx,
    store: Arc<RwLock<Vec<u64>>>,
    next_expected: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    nack: Sender<(u32, u64)>,
    stats: Arc<ReplStats>,
) {
    while !stop.load(Ordering::SeqCst) && alive.load(Ordering::SeqCst) {
        let Some(bytes) = rx.recv(Duration::from_millis(5)) else {
            continue;
        };
        if !alive.load(Ordering::SeqCst) {
            break;
        }
        let batch = match StreamBatch::decode(&bytes) {
            Ok(b) => b,
            Err(_) => {
                // Corrupt on the wire: discard as a unit and rewind the
                // shipper to our position (a resend is idempotent).
                stats.batches_rejected.fetch_add(1, Ordering::Relaxed);
                let _ = nack.send((f, next_expected.load(Ordering::SeqCst)));
                continue;
            }
        };
        let expected = next_expected.load(Ordering::SeqCst);
        if batch.first_seq > expected {
            // Gap: a predecessor was dropped or is still in flight
            // behind a reordering link. Ask for a resend from our
            // position; this batch will arrive again after it.
            stats.gaps_detected.fetch_add(1, Ordering::Relaxed);
            let _ = nack.send((f, expected));
            continue;
        }
        if batch.next_seq() <= expected {
            // Entirely behind us: an overlapping resend already applied.
            stats
                .duplicates_skipped
                .fetch_add(batch.records.len() as u64, Ordering::Relaxed);
            continue;
        }
        let skip = (expected - batch.first_seq) as usize;
        stats
            .duplicates_skipped
            .fetch_add(skip as u64, Ordering::Relaxed);
        let t0 = Instant::now();
        {
            // One write lock per batch: snapshot readers see whole
            // batches or nothing, and the watermark moves under the same
            // lock so a snapshot's (table, watermark) pair is exact.
            let mut table = store.write();
            for rec in &batch.records[skip..] {
                for &(k, v) in &rec.writes {
                    if k < keys {
                        table[k as usize] = v;
                    }
                }
            }
            next_expected.store(batch.next_seq(), Ordering::SeqCst);
        }
        let applied = batch.records.len() - skip;
        stats.apply_ns.record(t0.elapsed().as_nanos() as u64);
        stats.batches_applied.fetch_add(1, Ordering::Relaxed);
        stats
            .records_applied
            .fetch_add(applied as u64, Ordering::Relaxed);
        rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::ReplApply {
            follower: f,
            next_seq: batch.next_seq(),
            records: applied as u32,
        });
    }
    rococo_telemetry::flush_thread();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rococo_stm::{TinyStm, TmConfig};

    fn tiny_cluster(cfg: ClusterConfig) -> Cluster<TinyStm> {
        let kv_cfg = cfg.kv_config(PathBuf::new(), None);
        let tm_cfg = TmConfig {
            heap_words: kv_cfg.heap_words(),
            max_threads: kv_cfg.worker_threads(),
        };
        Cluster::start(move || Arc::new(TinyStm::with_config(tm_cfg)), cfg).unwrap()
    }

    #[test]
    fn followers_catch_up_and_serve_read_your_writes() {
        let cluster = tiny_cluster(ClusterConfig {
            followers: 2,
            keys: 128,
            ..ClusterConfig::default()
        });
        let mut last_seq = 0;
        for k in 0..50u64 {
            last_seq = cluster.put(k, k + 1000).unwrap();
        }
        assert!(cluster.wait_catch_up(last_seq + 1, Duration::from_secs(10)));
        for f in 0..2 {
            // The watermark rule: a read gated on the write's sequence
            // must see it.
            assert_eq!(
                cluster
                    .follower_read(f, 49, Some(last_seq), Duration::from_secs(5))
                    .unwrap(),
                1049
            );
            let (snap, watermark) = cluster.follower_snapshot(f).unwrap();
            assert!(watermark > last_seq);
            assert_eq!(snap[7], 1007);
            assert_eq!(cluster.lag(f).unwrap(), 0);
        }
        let report = cluster.shutdown();
        assert!(report.snapshot.batches_shipped >= 2, "{report:?}");
        assert_eq!(report.snapshot.failovers, 0);
        assert!(report.primary.is_some());
    }

    #[test]
    fn dropped_batches_gap_detect_and_resend() {
        let cluster = tiny_cluster(ClusterConfig {
            followers: 1,
            keys: 64,
            link_faults: LinkFaults {
                seed: 11,
                drop_pct: 35,
                reorder_pct: 20,
            },
            ..ClusterConfig::default()
        });
        let mut last_seq = 0;
        for k in 0..60u64 {
            last_seq = cluster.put(k % 64, k).unwrap();
            // One record per ship round, so drops hit distinct batches.
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            cluster.wait_catch_up(last_seq + 1, Duration::from_secs(10)),
            "follower never converged past the faulty link: {:?}",
            cluster.snapshot()
        );
        assert_eq!(
            cluster
                .follower_read(0, 59, Some(last_seq), Duration::from_secs(5))
                .unwrap(),
            59
        );
        let snap = cluster.snapshot();
        assert!(
            snap.gaps_detected > 0 && snap.resends > 0,
            "faults never exercised the gap protocol: {snap:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn failover_preserves_acked_writes() {
        let cluster = tiny_cluster(ClusterConfig {
            followers: 2,
            keys: 64,
            ..ClusterConfig::default()
        });
        let mut last_seq = 0;
        for k in 0..20u64 {
            last_seq = cluster.put(k, k * 3).unwrap();
        }
        cluster.wait_catch_up(last_seq + 1, Duration::from_secs(10));
        let report = cluster.fail_over().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(cluster.epoch(), 1);
        let elected = report.elected.expect("a live follower must win");
        assert!(report.candidate_watermark <= report.recovered_next_seq);
        assert!(!cluster.follower_alive(elected as usize), "promoted");
        // Durability oracle: every acked write survives on the new
        // primary.
        for k in 0..20u64 {
            assert_eq!(cluster.get(k).unwrap(), k * 3);
        }
        // The cluster still accepts writes and replicates them to the
        // surviving follower.
        let seq = cluster.put(5, 999).unwrap();
        assert!(seq >= last_seq, "sequence must continue densely");
        let survivor = (0..2).find(|&f| cluster.follower_alive(f)).unwrap();
        assert_eq!(
            cluster
                .follower_read(survivor, 5, Some(seq), Duration::from_secs(10))
                .unwrap(),
            999
        );
        // Idempotency: a coordinator that observed the old epoch loses.
        assert!(matches!(
            cluster.recover_primary(0),
            Err(ReplError::StaleEpoch {
                observed: 0,
                current: 1
            })
        ));
        let report = cluster.shutdown();
        assert_eq!(report.snapshot.failovers, 1);
        assert_eq!(report.demoted.len(), 1, "the demoted primary reported");
    }

    #[test]
    fn mid_ship_kill_demotes_and_recovery_keeps_acked_writes() {
        let kill = ReplKillSwitch::arm(ReplKillPoint::MidShip, 3);
        let cluster = tiny_cluster(ClusterConfig {
            followers: 2,
            keys: 64,
            kill: Some(Arc::clone(&kill)),
            ..ClusterConfig::default()
        });
        let mut acked = Vec::new();
        for k in 0..200u64 {
            match cluster.put(k % 64, k + 1) {
                Ok(seq) => acked.push((k % 64, k + 1, seq)),
                Err(ReplError::PrimaryDown) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            std::thread::sleep(Duration::from_micros(300));
        }
        assert!(kill.fired(), "the mid-ship kill never triggered");
        assert!(cluster.poisoned());
        let report = cluster.recover_primary(0).unwrap();
        assert_eq!(report.epoch, 1);
        assert!(!cluster.poisoned());
        // Every write acked before the crash survives fail-over.
        let mut expect = std::collections::HashMap::new();
        for &(k, v, _) in &acked {
            expect.insert(k, v);
        }
        for (&k, &v) in &expect {
            assert_eq!(cluster.get(k).unwrap(), v, "acked write to key {k} lost");
        }
        cluster.shutdown();
    }

    #[test]
    fn during_election_kill_crashes_the_candidate_and_reelects() {
        let kill = ReplKillSwitch::arm(ReplKillPoint::DuringElection, 1);
        let cluster = tiny_cluster(ClusterConfig {
            followers: 2,
            keys: 32,
            kill: Some(Arc::clone(&kill)),
            ..ClusterConfig::default()
        });
        let mut last_seq = 0;
        for k in 0..10u64 {
            last_seq = cluster.put(k, k).unwrap();
        }
        cluster.wait_catch_up(last_seq + 1, Duration::from_secs(10));
        let report = cluster.fail_over().unwrap();
        assert!(kill.fired());
        assert_eq!(report.crashed_candidates, 1);
        let elected = report.elected.expect("the second candidate wins");
        // One follower crashed mid-election, the other was promoted:
        // nobody is left serving follower reads, but the primary is.
        assert!(!cluster.follower_alive(0));
        assert!(!cluster.follower_alive(1));
        assert!(matches!(
            cluster.follower_read(elected as usize, 0, None, Duration::ZERO),
            Err(ReplError::FollowerDown { .. })
        ));
        for k in 0..10u64 {
            assert_eq!(cluster.get(k).unwrap(), k);
        }
        let snap = cluster.snapshot();
        assert_eq!(snap.follower_crashes, 1);
        cluster.shutdown();
    }

    #[test]
    fn partition_heals_through_the_gap_protocol() {
        let cluster = tiny_cluster(ClusterConfig {
            followers: 1,
            keys: 32,
            ..ClusterConfig::default()
        });
        let seq0 = cluster.put(1, 10).unwrap();
        assert!(cluster.wait_catch_up(seq0 + 1, Duration::from_secs(10)));
        cluster.set_partitioned(0, true);
        let mut last_seq = 0;
        for k in 0..20u64 {
            last_seq = cluster.put(k % 32, k + 100).unwrap();
        }
        // Partitioned: the follower cannot reach the new watermark.
        assert!(matches!(
            cluster.follower_read(0, 0, Some(last_seq), Duration::from_millis(50)),
            Err(ReplError::LagTimeout { .. })
        ));
        cluster.set_partitioned(0, false);
        assert!(
            cluster.wait_catch_up(last_seq + 1, Duration::from_secs(10)),
            "follower never re-converged after healing: {:?}",
            cluster.snapshot()
        );
        assert_eq!(
            cluster
                .follower_read(0, 19, Some(last_seq), Duration::from_secs(5))
                .unwrap(),
            119
        );
        let stats = cluster.link_stats(0).unwrap();
        assert!(stats.dropped.load(Ordering::Relaxed) > 0);
        cluster.shutdown();
    }
}
