//! The replicated cluster: one durable TxKV primary, N in-process
//! follower nodes fed by WAL log shipping, and a deterministic fail-over
//! coordinator.
//!
//! # Architecture
//!
//! The primary is an ordinary durable [`TxKv`] (checkpointing disabled,
//! so its log is the complete history). A **shipper round**
//! ([`Cluster::ship`]) tails the primary's `wal.log`, decodes complete
//! record frames (a partial frame at the tail is withheld until its
//! writer finishes it), and broadcasts dense [`StreamBatch`]es to each
//! follower over a simulated [`link`](crate::link) — per-follower
//! cursors, so a faulty link never stalls the others. The cluster starts
//! no thread: a round runs on whichever thread needs one (a gated read,
//! [`Cluster::catch_up`], a load generator's tick), one at a time under
//! the shipper's lock. A follower is a key table the shipper writes:
//! each frame a link delivers is received in the round, which validates
//! the batch (CRC, framing, density), applies it batch-atomically, and
//! advances the follower's `next_expected` watermark; a gap or a
//! rejected batch leaves a **nack** at the expected sequence in the
//! follower's nack cell, and the next round rewinds that follower's
//! cursor to it (resend). Resends overlap, so followers skip duplicates
//! by sequence number — the stream is idempotent by construction.
//!
//! # Read-your-writes
//!
//! A durable write's ack carries its on-disk commit sequence `s`
//! ([`TxKv::call_with_seq`]). A follower read that passes `min_seq = s`
//! ships rounds until the follower's `next_expected > s`, at which point
//! the follower has applied that write and every write serialized before
//! it — the log is dense, so the watermark comparison is exact, not
//! heuristic.
//!
//! # Fail-over
//!
//! [`Cluster::fail_over`] (or a chaos kill) demotes the primary:
//! the poison flag fences new requests, the old primary drains and
//! dumps its flight-recorder history (`primary-demoted`), the
//! most-caught-up live follower is elected (a
//! [`KillPoint::DuringElection`] kill crashes the candidate and the
//! coordinator re-elects), and a new primary is recovered from the
//! shared log — the simulated-process crash model keeps the disk, so
//! WAL recovery *is* catch-up. Under [`FsyncPolicy::Always`] every
//! acked write is on that disk before its ack, hence no
//! acked-then-lost writes across fail-over; the elected follower's
//! watermark is checked against the recovered log (`watermark ≤
//! recovered next_seq`) as a built-in oracle against phantom applies.
//! The promoted node leaves the follower read set; the epoch counter
//! makes [`Cluster::recover_primary`] idempotent for racing observers.

use crate::link::{LinkFaults, LinkStats, LinkTx};
use crate::stats::{ReplSnapshot, ReplStats};
use crate::stream::StreamBatch;
use parking_lot::{Mutex, RwLock};
use rococo_server::{DurabilityConfig, Request, Response, TxKv, TxKvConfig, TxKvError, TxKvReport};
use rococo_stm::TmSystem;
use rococo_wal::record::decode_all;
use rococo_wal::{FsyncPolicy, KillPoint, KillSwitch, WalRecord};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records per stream batch at most (bounds batch latency and makes the
/// mid-broadcast kill point land inside a burst, not after it).
const MAX_SHIP_RECORDS: usize = 64;

/// Rounds a gated read or [`Cluster::catch_up`] ships before it gives
/// up. A round delivers every record in the log unless its link drops
/// the frame; a lost tail is seen at the next heartbeat (at most 8
/// rounds) and resent the round after, so only a partition or a fenced
/// primary (which ships nothing) exhausts this. A gated read stops at
/// once on a fenced primary instead.
const CATCH_UP_ROUNDS: u32 = 512;

/// Cluster topology and failure-injection knobs; the primary's own shape
/// is the [`TxKvConfig`] passed to [`Cluster::start`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Follower node count (0 is legal: a cluster that can only recover
    /// from disk).
    pub followers: usize,
    /// Faults of every primary→follower link (per-follower fault streams
    /// are decorrelated from this seed).
    pub link_faults: LinkFaults,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            followers: 2,
            link_faults: LinkFaults::none(),
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
    /// A watermark-gated follower read shipped its rounds and the
    /// follower still had not caught up to `min_seq`.
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
                "follower {follower} did not catch up: needs seq > {min_seq}, applied {applied}"
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

/// One follower node: a key table the shipper writes.
struct Follower {
    index: u32,
    store: RwLock<Vec<u64>>,
    next_expected: AtomicU64,
    alive: AtomicBool,
    /// The lowest sequence a gap or a rejected batch asked to be resent
    /// from since the shipper last looked; [`NO_NACK`] when none.
    nack: AtomicU64,
    partitioned: AtomicBool,
    link_stats: Arc<LinkStats>,
}

/// The empty nack cell.
const NO_NACK: u64 = u64::MAX;

/// What a shipper round reads and writes besides its own state.
struct Shared {
    followers: Vec<Follower>,
    /// Fence: set the instant the primary is known dead or demoted;
    /// requests fail fast instead of reaching a zombie.
    poisoned: AtomicBool,
    /// Sequence the shipper has read off the log (== durable records
    /// known to replication); follower lag is measured against this.
    shipped_seq: AtomicU64,
    stats: ReplStats,
}

/// A replicated TxKV cluster. See the module docs for the architecture.
///
/// Lock order: the shipper's lock is taken before a follower's store
/// lock, and never while `primary` or `failover_lock` is held.
pub struct Cluster<S: TmSystem + 'static> {
    /// The primary's configuration; a recovered primary runs it as is
    /// (its kill switch moves to `kill` at the first start).
    kv: TxKvConfig,
    dir: PathBuf,
    owns_dir: bool,
    /// The armed crash switch of `kv.durability` (chaos testing only):
    /// the first primary's WAL polls it, and the shipper and the election
    /// poll it for the whole run.
    kill: Option<Arc<KillSwitch>>,
    /// Fresh-backend factory: durable recovery requires a backend that
    /// has never committed, so fail-over constructs a new one.
    make: Box<dyn Fn() -> Arc<S> + Send + Sync>,
    primary: RwLock<Option<TxKv<S>>>,
    epoch: AtomicU64,
    shared: Shared,
    shipper: Mutex<Shipper>,
    failover_lock: Mutex<()>,
    demoted: Mutex<Vec<TxKvReport>>,
    final_primary: Option<TxKvReport>,
}

impl<S: TmSystem + 'static> Cluster<S> {
    /// Starts (or restarts, if the WAL directory holds state) a cluster
    /// whose primary runs `kv`. With `kv.durability` unset the cluster
    /// logs to a scratch directory it removes at shutdown; a supplied one
    /// must ack behind every fsync ([`FsyncPolicy::Always`], the one mode
    /// whose acked writes survive fail-over against real power loss) and
    /// never checkpoint (the log must stay the complete history for the
    /// shipper to tail and for fail-over to rebuild from). Its kill
    /// switch is the cluster's one crash switch: the first primary's WAL
    /// polls it (a recovered primary runs without it), and the shipper
    /// and the election poll it at [`KillPoint::MidShip`] and
    /// [`KillPoint::DuringElection`]. The factory must return a
    /// freshly constructed backend sized for `kv` on every call —
    /// fail-over uses it to build the recovered primary.
    ///
    /// # Errors
    ///
    /// [`ReplError::Kv`] when the primary cannot start (bad
    /// configuration, a durability mode the cluster cannot replicate, an
    /// unopenable WAL directory).
    pub fn start(
        make: impl Fn() -> Arc<S> + Send + Sync + 'static,
        mut kv: TxKvConfig,
        cfg: ClusterConfig,
    ) -> Result<Self, ReplError> {
        let owns_dir = kv.durability.is_none();
        let dur = kv.durability.get_or_insert_with(|| DurabilityConfig {
            dir: rococo_wal::scratch_dir("repl-cluster"),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 0,
            kill: None,
        });
        if dur.fsync != FsyncPolicy::Always || dur.checkpoint_every != 0 {
            return Err(ReplError::Kv(TxKvError::InvalidConfig {
                reason: "a replicated primary needs fsync always and no checkpoints",
            }));
        }
        let dir = dur.dir.clone();
        let make: Box<dyn Fn() -> Arc<S> + Send + Sync> = Box::new(make);
        let (primary, _) = TxKv::recover(make(), kv.clone()).map_err(|e| {
            if owns_dir {
                let _ = std::fs::remove_dir_all(&dir);
            }
            ReplError::Kv(e)
        })?;
        let kill = kv.durability.as_mut().and_then(|dur| dur.kill.take());

        let followers = (0..cfg.followers as u32)
            .map(|index| Follower {
                index,
                store: RwLock::new(vec![0u64; kv.keys as usize]),
                next_expected: AtomicU64::new(0),
                alive: AtomicBool::new(true),
                nack: AtomicU64::new(NO_NACK),
                partitioned: AtomicBool::new(false),
                link_stats: Arc::default(),
            })
            .collect();
        Ok(Self {
            shipper: Mutex::new(Shipper::new(dir.join("wal.log"), &cfg)),
            kv,
            dir,
            owns_dir,
            kill,
            make,
            primary: RwLock::new(Some(primary)),
            epoch: AtomicU64::new(0),
            shared: Shared {
                followers,
                poisoned: AtomicBool::new(false),
                shipped_seq: AtomicU64::new(0),
                stats: ReplStats::default(),
            },
            failover_lock: Mutex::new(()),
            demoted: Mutex::new(Vec::new()),
            final_primary: None,
        })
    }

    /// The WAL directory the cluster replicates from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current cluster epoch (bumped by every completed fail-over).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether the primary is fenced (crashed or demoted, fail-over not
    /// yet completed).
    pub fn poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::SeqCst)
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
        if self.shared.poisoned.load(Ordering::SeqCst) {
            return Err(ReplError::PrimaryDown);
        }
        let guard = self.primary.read();
        let Some(kv) = guard.as_ref() else {
            return Err(ReplError::PrimaryDown);
        };
        match kv.call_with_seq(req) {
            Ok(ok) => Ok(ok),
            Err(TxKvError::DurabilityLost) => {
                // The log died: fence immediately so no later
                // request can be acked by a primary that cannot log it.
                self.shared.poisoned.store(true, Ordering::SeqCst);
                Err(ReplError::PrimaryDown)
            }
            Err(e) => {
                if let TxKvError::RetriesExhausted { last, .. } = e {
                    self.shared.stats.note_retries_exhausted(last);
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
    /// watermark: with `min_seq = Some(s)` the read ships rounds until
    /// the follower has applied sequence `s` (i.e. `next_expected > s`),
    /// so a client that writes with [`Cluster::put`] and reads back with
    /// that sequence always sees its own write.
    ///
    /// # Errors
    ///
    /// [`ReplError::FollowerDown`] for a crashed or promoted follower;
    /// [`ReplError::PrimaryDown`] when the read must wait and the primary
    /// is fenced (retry after [`Cluster::recover_primary`]);
    /// [`ReplError::LagTimeout`] when `CATCH_UP_ROUNDS` rounds, each
    /// begun with the primary serving, do not reach the watermark;
    /// [`ReplError::Kv`] for an out-of-range key.
    pub fn follower_read(
        &self,
        f: usize,
        key: u64,
        min_seq: Option<u64>,
    ) -> Result<u64, ReplError> {
        let node = self.follower(f)?;
        if let Some(min) = min_seq {
            let mut rounds = 0;
            while node.next_expected.load(Ordering::SeqCst) <= min {
                if !node.alive.load(Ordering::SeqCst) {
                    return Err(ReplError::FollowerDown { follower: f as u32 });
                }
                if self.poisoned() {
                    // A fenced primary ships nothing: no round can help
                    // until the fail-over the caller must drive.
                    return Err(ReplError::PrimaryDown);
                }
                if rounds == CATCH_UP_ROUNDS {
                    return Err(ReplError::LagTimeout {
                        follower: f as u32,
                        min_seq: min,
                        applied: node.next_expected.load(Ordering::SeqCst),
                    });
                }
                self.ship();
                rounds += 1;
            }
        }
        let store = node.store.read();
        store
            .get(key as usize)
            .copied()
            .ok_or(ReplError::Kv(TxKvError::KeyOutOfRange {
                key,
                keys: self.kv.keys,
            }))
    }

    /// A batch-atomic snapshot of follower `f`'s whole key table plus
    /// the watermark it is consistent with: the returned table reflects
    /// exactly the writes with sequence `< watermark` (the shipper updates
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
            .shared
            .shipped_seq
            .load(Ordering::SeqCst)
            .saturating_sub(node.next_expected.load(Ordering::SeqCst)))
    }

    /// Partitions (or heals) the link to follower `f`: while partitioned
    /// every shipped frame is dropped; the gap protocol re-converges the
    /// follower after healing.
    pub fn set_partitioned(&self, f: usize, partitioned: bool) {
        if let Some(node) = self.shared.followers.get(f) {
            node.partitioned.store(partitioned, Ordering::SeqCst);
        }
    }

    /// Whether follower `f` is alive and serving reads.
    pub fn follower_alive(&self, f: usize) -> bool {
        self.follower(f).is_ok()
    }

    /// Configured follower count (including crashed and promoted ones —
    /// indices are stable for the cluster's lifetime).
    pub fn follower_count(&self) -> usize {
        self.shared.followers.len()
    }

    /// Link counters for follower `f`'s stream (sent, dropped,
    /// reordered), for harness assertions.
    pub fn link_stats(&self, f: usize) -> Option<Arc<LinkStats>> {
        let node = self.shared.followers.get(f);
        node.map(|n| Arc::clone(&n.link_stats))
    }

    /// Runs one shipper round on the calling thread: honour nacks, tail
    /// the log, broadcast, and hand every frame a link delivers to its
    /// follower. Rounds are serialised; a fenced primary ships nothing.
    pub fn ship(&self) {
        let kill = self.kill.as_deref();
        self.shipper.lock().round(&self.shared, kill);
    }

    /// Ships rounds until every live follower has applied the whole log
    /// (lag 0); `false` when `CATCH_UP_ROUNDS` rounds do not get there.
    pub fn catch_up(&self) -> bool {
        (0..CATCH_UP_ROUNDS).any(|_| {
            self.ship();
            (0..self.follower_count()).all(|f| self.lag(f).map_or(true, |l| l == 0))
        })
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
        self.shared.poisoned.store(true, Ordering::SeqCst);
        rococo_telemetry::dump_anomaly("primary-demoted");
        if let Some(kv) = self.primary.write().take() {
            // Drain: queued requests finish (their acks are backed by
            // the log) and the WAL writes what is posted and closes.
            // The fail-over lock is held across the drain on purpose: it
            // exists to serialize recovery, and shutdown's drain is
            // bounded and never takes it, so the hold cannot deadlock.
            self.demoted.lock().push(kv.shutdown());
        }

        let mut crashed = 0u32;
        let (elected, candidate_watermark) = loop {
            let best = self
                .shared
                .followers
                .iter()
                .enumerate()
                .filter(|(_, n)| n.alive.load(Ordering::SeqCst))
                .max_by_key(|(_, n)| n.next_expected.load(Ordering::SeqCst));
            let Some((f, node)) = best else {
                break (None, 0);
            };
            if self
                .kill
                .as_ref()
                .is_some_and(|k| k.should_fire(KillPoint::DuringElection))
            {
                // The winner dies before catch-up completes; count it
                // and re-elect among the survivors.
                node.alive.store(false, Ordering::SeqCst);
                let crashes = &self.shared.stats.follower_crashes;
                crashes.fetch_add(1, Ordering::Relaxed);
                crashed += 1;
                continue;
            }
            break (Some(f as u32), node.next_expected.load(Ordering::SeqCst));
        };

        // Catch-up = WAL recovery on the shared disk: replays the full
        // log (torn tail truncated) and resumes the dense sequence.
        let (kv, report) = TxKv::recover((self.make)(), self.kv.clone()).map_err(ReplError::Kv)?;
        let recovered_next_seq = report.checkpoint_seq.unwrap_or(0) + report.replayed;
        if candidate_watermark > recovered_next_seq {
            return Err(ReplError::Inconsistent {
                reason: "elected follower is ahead of the recovered log",
            });
        }
        // The promoted node stops serving follower reads: its replica
        // is now the primary's identity.
        if let Some(f) = elected {
            self.shared.followers[f as usize]
                .alive
                .store(false, Ordering::SeqCst);
        }
        *self.primary.write() = Some(kv);
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.shared.poisoned.store(false, Ordering::SeqCst);
        self.shared.stats.failovers.fetch_add(1, Ordering::Relaxed);
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
        let shared = &self.shared;
        let shipped = shared.shipped_seq.load(Ordering::SeqCst);
        let lags = (shared.followers.iter())
            .map(|n| shipped.saturating_sub(n.next_expected.load(Ordering::SeqCst)))
            .collect();
        shared.stats.snapshot(lags, self.epoch())
    }

    /// Stops the primary and returns the final accounting.
    pub fn shutdown(mut self) -> ReplReport {
        self.stop();
        ReplReport {
            snapshot: self.snapshot(),
            primary: self.final_primary.take(),
            demoted: std::mem::take(&mut *self.demoted.lock()),
        }
    }

    fn follower(&self, f: usize) -> Result<&Follower, ReplError> {
        let node = self.shared.followers.get(f);
        node.filter(|n| n.alive.load(Ordering::SeqCst))
            .ok_or(ReplError::FollowerDown { follower: f as u32 })
    }

    fn stop(&mut self) {
        if let Some(kv) = self.primary.write().take() {
            self.final_primary = Some(kv.shutdown());
        }
        if self.owns_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

impl<S: TmSystem + 'static> Drop for Cluster<S> {
    fn drop(&mut self) {
        self.stop();
    }
}

impl<S: TmSystem + 'static> std::fmt::Debug for Cluster<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("followers", &self.shared.followers.len())
            .field("epoch", &self.epoch())
            .field("poisoned", &self.poisoned())
            .finish()
    }
}

/// The shipper's own state: per follower a link and a cursor, and the
/// log it tails.
struct Shipper {
    log: PathBuf,
    links: Vec<LinkTx>,
    cursors: Vec<u64>,
    /// The full record cache: `cache[i].seq == i`. The log is dense from
    /// 0 and never truncated (checkpointing is disabled), so resends are
    /// an index, not a disk seek.
    cache: Vec<WalRecord>,
    /// Bytes of complete frames consumed.
    offset: u64,
    tick: u64,
}

impl Shipper {
    fn new(log: PathBuf, cfg: &ClusterConfig) -> Self {
        // Decorrelate the per-link fault streams: identical seeds on
        // every link would drop the same batches everywhere.
        let links = (1..=cfg.followers as u64)
            .map(|f| {
                let seed = f.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                LinkTx::new(LinkFaults {
                    seed: cfg.link_faults.seed.wrapping_add(seed),
                    ..cfg.link_faults
                })
            })
            .collect();
        Self {
            log,
            links,
            cursors: vec![0; cfg.followers],
            cache: Vec::new(),
            offset: 0,
            tick: 0,
        }
    }

    /// One round: honour nacks, tail the log, broadcast batches and hand
    /// every frame a link delivers to its follower.
    fn round(&mut self, shared: &Shared, kill: Option<&KillSwitch>) {
        let stats = &shared.stats;
        self.tick += 1;
        for (node, cursor) in shared.followers.iter().zip(&mut self.cursors) {
            let expected = node.nack.swap(NO_NACK, Ordering::SeqCst);
            if expected < *cursor {
                *cursor = expected;
                stats.resends.fetch_add(1, Ordering::Relaxed);
            }
        }
        if shared.poisoned.load(Ordering::SeqCst) {
            return;
        }
        // Tail the log: decode complete frames past our offset; a
        // partial frame mid-append is left for the next round. A
        // fail-over may truncate the torn tail, but never a complete
        // frame — the offset stays valid across primary changes.
        if let Ok(mut file) = File::open(&self.log) {
            let mut buf = Vec::new();
            if file.seek(SeekFrom::Start(self.offset)).is_ok()
                && file.read_to_end(&mut buf).is_ok()
                && !buf.is_empty()
            {
                let (records, _end) = decode_all(&buf);
                for rec in records {
                    debug_assert_eq!(rec.seq, self.cache.len() as u64, "log must be dense");
                    self.offset += rec.frame_len() as u64;
                    self.cache.push(rec);
                }
                shared
                    .shipped_seq
                    .store(self.cache.len() as u64, Ordering::SeqCst);
            }
        }
        let cache = &self.cache;
        'broadcast: for (f, node) in shared.followers.iter().enumerate() {
            let (link, cursor) = (&mut self.links[f], &mut self.cursors[f]);
            if !node.alive.load(Ordering::SeqCst) {
                continue; // a dead follower never comes back
            }
            while (*cursor as usize) < cache.len() {
                if kill.is_some_and(|k| k.should_fire(KillPoint::MidShip)) {
                    // Primary dies mid-broadcast: a strict prefix of
                    // the followers got this round's batches. Fence
                    // and stop shipping until fail-over recovers.
                    shared.poisoned.store(true, Ordering::SeqCst);
                    break 'broadcast;
                }
                let first = *cursor;
                let end = (first as usize + MAX_SHIP_RECORDS).min(cache.len());
                let batch = StreamBatch::new(first, cache[first as usize..end].to_vec());
                let n = batch.records.len();
                node.ship(link, batch.encode(), stats);
                *cursor = batch.next_seq();
                stats.batches_shipped.fetch_add(1, Ordering::Relaxed);
                stats.records_shipped.fetch_add(n as u64, Ordering::Relaxed);
                rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::ReplShip {
                    first_seq: first,
                    records: n as u32,
                    follower: f as u32,
                });
            }
            node.flush(link, stats);
        }
        // Heartbeat: an empty batch at the cursor position, every
        // few rounds. A caught-up follower skips it as a duplicate; a
        // follower whose *last* data batch was dropped sees a gap it
        // would otherwise never learn about (nothing newer is coming
        // to trigger detection) and nacks for the resend.
        if self.tick.is_multiple_of(8) && !shared.poisoned.load(Ordering::SeqCst) {
            for (f, node) in shared.followers.iter().enumerate() {
                if node.alive.load(Ordering::SeqCst) {
                    let beat = StreamBatch::new(self.cursors[f], Vec::new()).encode();
                    node.ship(&mut self.links[f], beat, stats);
                    node.flush(&mut self.links[f], stats);
                }
            }
        }
    }
}

impl Follower {
    /// Offers `bytes` to this follower's link, receiving what it delivers.
    fn ship(&self, link: &mut LinkTx, bytes: Vec<u8>, stats: &ReplStats) {
        let partitioned = self.partitioned.load(Ordering::SeqCst);
        for frame in link.send(bytes, partitioned, &self.link_stats) {
            self.receive(&frame, stats);
        }
    }

    /// Receives the frame this follower's link is holding back, if any.
    fn flush(&self, link: &mut LinkTx, stats: &ReplStats) {
        if let Some(frame) = link.flush(&self.link_stats) {
            self.receive(&frame, stats);
        }
    }

    /// Validates, gap-checks and applies one frame batch-atomically.
    fn receive(&self, bytes: &[u8], stats: &ReplStats) {
        if !self.alive.load(Ordering::SeqCst) {
            return;
        }
        let expected = self.next_expected.load(Ordering::SeqCst);
        let batch = match StreamBatch::decode(bytes) {
            Ok(batch) if batch.first_seq <= expected => batch,
            refused => {
                // Corrupt on the wire (discarded as a unit), or a gap: a
                // predecessor was dropped or is held back by a reordering
                // link. Either way, ask for a resend from our position; a
                // resend is idempotent, and a batch past the gap arrives
                // again after it.
                let counter = match refused {
                    Err(_) => &stats.batches_rejected,
                    Ok(_) => &stats.gaps_detected,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                self.nack.fetch_min(expected, Ordering::SeqCst);
                return;
            }
        };
        if batch.next_seq() <= expected {
            // Entirely behind us: an overlapping resend already applied.
            stats
                .duplicates_skipped
                .fetch_add(batch.records.len() as u64, Ordering::Relaxed);
            return;
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
            let mut table = self.store.write();
            for rec in &batch.records[skip..] {
                for &(k, v) in &rec.writes {
                    if let Some(slot) = table.get_mut(k as usize) {
                        *slot = v;
                    }
                }
            }
            self.next_expected.store(batch.next_seq(), Ordering::SeqCst);
        }
        let applied = batch.records.len() - skip;
        stats.apply_ns.record(t0.elapsed().as_nanos() as u64);
        stats.batches_applied.fetch_add(1, Ordering::Relaxed);
        stats
            .records_applied
            .fetch_add(applied as u64, Ordering::Relaxed);
        rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::ReplApply {
            follower: self.index,
            next_seq: batch.next_seq(),
            records: applied as u32,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rococo_stm::{TinyStm, TmConfig};

    /// A primary of `keys` keys on 2 shards × 2 workers, logging to a
    /// scratch directory the cluster owns.
    fn kv(keys: u64) -> TxKvConfig {
        TxKvConfig {
            shards: 2,
            workers_per_shard: 2,
            keys,
            ..TxKvConfig::default()
        }
    }

    fn start_tiny(kv: TxKvConfig, cfg: ClusterConfig) -> Result<Cluster<TinyStm>, ReplError> {
        let tm_cfg = TmConfig {
            heap_words: kv.heap_words(),
            max_threads: kv.worker_threads(),
        };
        Cluster::start(move || Arc::new(TinyStm::with_config(tm_cfg)), kv, cfg)
    }

    fn tiny_cluster(keys: u64, cfg: ClusterConfig) -> Cluster<TinyStm> {
        start_tiny(kv(keys), cfg).unwrap()
    }

    /// A two-follower cluster armed with `kill`, which arrives as every
    /// caller's does: in the primary's durability config. Its scratch
    /// directory is the caller's to remove.
    fn armed_cluster(keys: u64, kill: &Arc<KillSwitch>) -> Cluster<TinyStm> {
        let durability = DurabilityConfig {
            dir: rococo_wal::scratch_dir("repl-armed"),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 0,
            kill: Some(Arc::clone(kill)),
        };
        let kv = TxKvConfig {
            durability: Some(durability),
            ..kv(keys)
        };
        start_tiny(kv, ClusterConfig::default()).unwrap()
    }

    /// Shuts an [`armed_cluster`] down and removes its directory.
    fn shutdown_armed(cluster: Cluster<TinyStm>) {
        let dir = cluster.dir().to_path_buf();
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn followers_catch_up_and_serve_read_your_writes() {
        let cluster = tiny_cluster(
            128,
            ClusterConfig {
                followers: 2,
                ..ClusterConfig::default()
            },
        );
        let mut last_seq = 0;
        for k in 0..50u64 {
            last_seq = cluster.put(k, k + 1000).unwrap();
        }
        assert!(cluster.catch_up());
        for f in 0..2 {
            // The watermark rule: a read gated on the write's sequence
            // must see it.
            assert_eq!(cluster.follower_read(f, 49, Some(last_seq)).unwrap(), 1049);
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
        let cluster = tiny_cluster(
            64,
            ClusterConfig {
                followers: 1,
                link_faults: LinkFaults {
                    seed: 11,
                    drop_pct: 35,
                    reorder_pct: 20,
                },
            },
        );
        let mut last_seq = 0;
        for k in 0..60u64 {
            last_seq = cluster.put(k % 64, k).unwrap();
            // One record per ship round, so drops hit distinct batches.
            cluster.ship();
        }
        assert!(
            cluster.catch_up(),
            "follower never converged past the faulty link: {:?}",
            cluster.snapshot()
        );
        assert_eq!(cluster.follower_read(0, 59, Some(last_seq)).unwrap(), 59);
        let snap = cluster.snapshot();
        assert!(
            snap.gaps_detected > 0 && snap.resends > 0,
            "faults never exercised the gap protocol: {snap:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn failover_preserves_acked_writes() {
        let cluster = tiny_cluster(
            64,
            ClusterConfig {
                followers: 2,
                ..ClusterConfig::default()
            },
        );
        let mut last_seq = 0;
        for k in 0..20u64 {
            last_seq = cluster.put(k, k * 3).unwrap();
        }
        cluster.catch_up();
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
        assert_eq!(cluster.follower_read(survivor, 5, Some(seq)).unwrap(), 999);
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
        let kill = KillSwitch::arm(KillPoint::MidShip, 3);
        let cluster = armed_cluster(64, &kill);
        let mut acked = Vec::new();
        for k in 0..200u64 {
            match cluster.put(k % 64, k + 1) {
                Ok(seq) => acked.push((k % 64, k + 1, seq)),
                Err(ReplError::PrimaryDown) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            cluster.ship();
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
        shutdown_armed(cluster);
    }

    #[test]
    fn a_gated_read_on_a_fenced_primary_fails_fast_and_reads_after_recovery() {
        let kill = KillSwitch::arm(KillPoint::MidShip, 1);
        let cluster = armed_cluster(8, &kill);
        let seq = cluster.put(3, 42).unwrap();
        // The read's first round dies before its batch leaves: the
        // fence stops the read there, not after its rounds run out.
        assert_eq!(
            cluster.follower_read(0, 3, Some(seq)),
            Err(ReplError::PrimaryDown)
        );
        assert!(kill.fired());
        assert_eq!(cluster.snapshot().batches_shipped, 0);
        let report = cluster.recover_primary(0).unwrap();
        let f = (0..2).find(|&f| Some(f as u32) != report.elected).unwrap();
        assert_eq!(cluster.follower_read(f, 3, Some(seq)), Ok(42));
        shutdown_armed(cluster);
    }

    #[test]
    fn during_election_kill_crashes_the_candidate_and_reelects() {
        let kill = KillSwitch::arm(KillPoint::DuringElection, 1);
        let cluster = armed_cluster(32, &kill);
        for k in 0..10u64 {
            cluster.put(k, k).unwrap();
        }
        cluster.catch_up();
        let report = cluster.fail_over().unwrap();
        assert!(kill.fired());
        assert_eq!(report.crashed_candidates, 1);
        let elected = report.elected.expect("the second candidate wins");
        // One follower crashed mid-election, the other was promoted:
        // nobody is left serving follower reads, but the primary is.
        assert!(!cluster.follower_alive(0));
        assert!(!cluster.follower_alive(1));
        assert!(matches!(
            cluster.follower_read(elected as usize, 0, None),
            Err(ReplError::FollowerDown { .. })
        ));
        for k in 0..10u64 {
            assert_eq!(cluster.get(k).unwrap(), k);
        }
        let snap = cluster.snapshot();
        assert_eq!(snap.follower_crashes, 1);
        shutdown_armed(cluster);
    }

    #[test]
    fn a_corrupt_frame_is_rejected_nacked_and_resent() {
        let cluster = tiny_cluster(
            8,
            ClusterConfig {
                followers: 1,
                ..ClusterConfig::default()
            },
        );
        let seq = cluster.put(3, 42).unwrap();
        cluster.set_partitioned(0, true);
        cluster.ship(); // the batch is dropped
        cluster.set_partitioned(0, false);
        let cursor = cluster.shipper.lock().cursors[0];
        assert_eq!(cursor, seq + 1, "the cursor is past the write");

        let log = std::fs::read(cluster.dir.join("wal.log")).unwrap();
        let mut frame = StreamBatch::new(0, decode_all(&log).0).encode();
        frame[crate::stream::ENVELOPE_LEN] ^= 1;
        let node = &cluster.shared.followers[0];
        node.receive(&frame, &cluster.shared.stats);
        assert_eq!(cluster.follower_snapshot(0).unwrap(), (vec![0; 8], 0));
        assert_eq!(cluster.snapshot().batches_rejected, 1);
        assert_eq!(
            node.nack.load(Ordering::SeqCst),
            0,
            "nacked at next_expected"
        );

        cluster.ship();
        let read = cluster.follower_read(0, 3, Some(seq));
        assert_eq!(read, Ok(42));
        assert_eq!(cluster.snapshot().resends, 1);
        cluster.shutdown();
    }

    #[test]
    fn partition_heals_through_the_gap_protocol() {
        let cluster = tiny_cluster(
            32,
            ClusterConfig {
                followers: 1,
                ..ClusterConfig::default()
            },
        );
        cluster.put(1, 10).unwrap();
        assert!(cluster.catch_up());
        cluster.set_partitioned(0, true);
        let mut last_seq = 0;
        for k in 0..20u64 {
            last_seq = cluster.put(k % 32, k + 100).unwrap();
        }
        // Partitioned: the follower cannot reach the new watermark.
        assert!(matches!(
            cluster.follower_read(0, 0, Some(last_seq)),
            Err(ReplError::LagTimeout { .. })
        ));
        cluster.set_partitioned(0, false);
        assert!(
            cluster.catch_up(),
            "follower never re-converged after healing: {:?}",
            cluster.snapshot()
        );
        assert_eq!(cluster.follower_read(0, 19, Some(last_seq)).unwrap(), 119);
        let stats = cluster.link_stats(0).unwrap();
        assert!(stats.dropped.load(Ordering::Relaxed) > 0);
        cluster.shutdown();
    }

    /// A seed is a schedule: one thread drives the puts and the rounds,
    /// so every drop, reorder, gap and resend replays exactly.
    #[test]
    fn a_seeded_lossy_link_replays_exactly() {
        let run = || {
            let cluster = tiny_cluster(
                64,
                ClusterConfig {
                    followers: 2,
                    link_faults: LinkFaults {
                        seed: 7,
                        drop_pct: 30,
                        reorder_pct: 20,
                    },
                },
            );
            for k in 0..40u64 {
                cluster.put(k, k + 1).unwrap();
                cluster.ship();
            }
            assert!(cluster.catch_up(), "{:?}", cluster.snapshot());
            let s = cluster.snapshot();
            let counters = [
                s.batches_shipped,
                s.records_shipped,
                s.batches_applied,
                s.records_applied,
                s.gaps_detected,
                s.resends,
                s.batches_rejected,
                s.duplicates_skipped,
            ];
            let links: Vec<[u64; 3]> = (0..2)
                .map(|f| {
                    let l = cluster.link_stats(f).unwrap();
                    [&l.sent, &l.dropped, &l.reordered].map(|c| c.load(Ordering::Relaxed))
                })
                .collect();
            let tables: Vec<_> = (0..2)
                .map(|f| cluster.follower_snapshot(f).unwrap())
                .collect();
            cluster.shutdown();
            (counters, links, tables)
        };
        let first = run();
        assert!(first.0[4] > 0, "the lossy link opened no gap: {first:?}");
        for _ in 1..6 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn the_cluster_refuses_a_primary_it_cannot_replicate() {
        let dir = rococo_wal::scratch_dir("repl-refused");
        for (fsync, checkpoint_every) in [
            (FsyncPolicy::EveryN(8), 0),
            (FsyncPolicy::Never, 0),
            (FsyncPolicy::Always, 64),
        ] {
            let durability = DurabilityConfig {
                dir: dir.clone(),
                fsync,
                checkpoint_every,
                kill: None,
            };
            let kv = TxKvConfig {
                durability: Some(durability),
                ..kv(8)
            };
            assert!(
                matches!(
                    start_tiny(kv, ClusterConfig::default()),
                    Err(ReplError::Kv(TxKvError::InvalidConfig { .. }))
                ),
                "{fsync:?}, checkpoint every {checkpoint_every}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);

        let cluster = tiny_cluster(8, ClusterConfig::default());
        let scratch = cluster.dir().to_path_buf();
        assert!(scratch.join("wal.log").exists());
        cluster.shutdown();
        assert!(
            !scratch.exists(),
            "the cluster removes the directory it made"
        );
    }
}
