//! The TxKV service front-end: configuration, admission, routing,
//! lifecycle, and (in durable mode) recovery and checkpointing.

use crate::hop::{reply_pair, PendingReply, Refused, ShardQueue};
use crate::request::{Request, Response, TxKvError};
use crate::shard::{checkpoint_table, run_worker, AutoCheckpoint, Job, WorkerCtx, WorkerWal};
use crate::stats::{ShardSnapshot, ShardStats, TxKvReport};
use parking_lot::RwLock;
use rococo_stm::{Addr, TmSystem};
use rococo_wal::{FsyncPolicy, KillSwitch, RecoveryReport, Wal, WalConfig};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Durable-mode configuration: where the write-ahead log lives and how
/// it acknowledges.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory for the log and checkpoint files (created if missing).
    pub dir: PathBuf,
    /// When an append is acknowledged relative to fsync (see
    /// [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Checkpoint (snapshot + log truncation) each time the durable
    /// watermark has moved on by this many logged transactions; the
    /// worker whose batch made one due takes it. `0` disables automatic
    /// checkpoints ([`TxKv::checkpoint`] still works).
    pub checkpoint_every: u64,
    /// Armed crash point for chaos testing; `None` in production.
    pub kill: Option<Arc<KillSwitch>>,
}

impl DurabilityConfig {
    /// Durable defaults for `dir`: fsync-per-batch, checkpoint every
    /// 100k transactions.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 100_000,
            kill: None,
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TxKvConfig {
    /// Which TM runtime a harness should build for this configuration.
    /// [`TxKv::start`] takes the already-built system and ignores it.
    pub backend: crate::BackendChoice,
    /// Number of shards (request queues). Requests are hash-routed by
    /// primary key; sharding partitions the queueing and the statistics,
    /// not the data — all shards execute against one shared TM heap, so
    /// cross-shard transfers are ordinary transactions.
    pub shards: usize,
    /// Worker threads draining each shard's queue.
    pub workers_per_shard: usize,
    /// Bounded depth of each shard queue. When a queue is full, new
    /// requests are shed with [`TxKvError::Overloaded`] instead of
    /// queueing without bound.
    pub queue_capacity: usize,
    /// Keyspace size: valid keys are `0..keys`, each one word on the TM
    /// heap.
    pub keys: u64,
    /// Write-ahead logging; `None` runs the service in memory (a crash
    /// loses everything, as before this field existed).
    pub durability: Option<DurabilityConfig>,
    /// Directory for the metric files (`metrics.prom`, the Prometheus
    /// text exposition, and `metrics.json`; created if missing, each
    /// written atomically by temp + rename), written once when the
    /// service stops, after its workers have left. `None` writes none.
    pub telemetry: Option<PathBuf>,
}

impl PartialEq for DurabilityConfig {
    fn eq(&self, other: &Self) -> bool {
        // KillSwitch carries no identity worth comparing.
        self.dir == other.dir
            && self.fsync == other.fsync
            && self.checkpoint_every == other.checkpoint_every
    }
}

impl Default for TxKvConfig {
    fn default() -> Self {
        Self {
            backend: crate::BackendChoice::default(),
            shards: 4,
            workers_per_shard: 2,
            queue_capacity: 128,
            keys: 1 << 16,
            durability: None,
            telemetry: None,
        }
    }
}

impl TxKvConfig {
    /// Heap words the backend must be built with to hold the key table
    /// (plus slack for future service metadata).
    pub fn heap_words(&self) -> usize {
        self.keys as usize + 64
    }

    /// Total worker threads the service will start — the backend's
    /// `max_threads` must be at least this.
    pub fn worker_threads(&self) -> usize {
        self.shards * self.workers_per_shard
    }
}

/// The TxKV service: sharded queues and worker pools over one shared
/// transactional heap. See the crate docs for the architecture.
#[derive(Debug)]
pub struct TxKv<S: TmSystem + 'static> {
    system: Arc<S>,
    cfg: TxKvConfig,
    table: Addr,
    queues: Vec<Arc<ShardQueue>>,
    stats: Vec<Arc<ShardStats>>,
    workers: Vec<JoinHandle<()>>,
    started: Instant,
    /// Durable-mode state: the WAL opener handle (closes the WAL on
    /// drop) and the commit pause gate a checkpoint, the workers' or
    /// [`TxKv::checkpoint`]'s, write-locks to quiesce.
    wal: Option<Wal>,
    pause: Arc<RwLock<()>>,
    /// WAL counters captured at shutdown, so the final report still
    /// carries them after the WAL has been closed.
    final_wal: Option<rococo_wal::WalSnapshot>,
}

/// The service's one telemetry scrape: gathers the final `report` and
/// every subsystem's counters into a registry and writes the run
/// directory's metrics files.
fn scrape_metrics<S: TmSystem + ?Sized>(system: &S, report: &TxKvReport, dir: &std::path::Path) {
    let mut reg = rococo_telemetry::MetricsRegistry::new();
    report.export_metrics(&mut reg);
    // `stats_snapshot` (not `stats().snapshot()`): a routing backend
    // merges the counters only its wrapped engines track into one
    // snapshot, with starts/commits/aborts counted exactly once at the
    // outer layer — so `rococo_tm_*` never double-counts a commit.
    system.stats_snapshot().export_metrics(&mut reg);
    if let Some(engine) = system.engine_stats() {
        engine.export_metrics(&mut reg);
    }
    // Backend-specific families (e.g. the hybrid's `rococo_sched_*`).
    system.export_extra_metrics(&mut reg);
    let _ = rococo_telemetry::rundir::write_metrics(dir, &reg);
}

impl<S: TmSystem + 'static> TxKv<S> {
    /// Starts the service: allocates the key table on the backend's heap
    /// and spawns `shards * workers_per_shard` worker threads. With
    /// `cfg.durability` set this also recovers the WAL directory first —
    /// [`TxKv::recover`] is the same call but hands back the recovery
    /// report.
    ///
    /// # Errors
    ///
    /// Returns [`TxKvError::InvalidConfig`] for a zero-sized pool, a
    /// heap too small for the key table, a backend that has already run
    /// transactions (recovery must rebuild onto a fresh heap), or a WAL
    /// directory that cannot be opened.
    pub fn start(system: Arc<S>, cfg: TxKvConfig) -> Result<Self, TxKvError> {
        Self::recover(system, cfg).map(|(kv, _)| kv)
    }

    /// Starts the service, recovering durable state when
    /// `cfg.durability` is set: loads the newest valid checkpoint,
    /// replays the log tail in commit order (torn tail truncated), seeds
    /// the key table, and resumes logging where the disk left off. The
    /// report says what recovery found; without durability it is empty.
    ///
    /// # Errors
    ///
    /// As [`TxKv::start`].
    pub fn recover(system: Arc<S>, cfg: TxKvConfig) -> Result<(Self, RecoveryReport), TxKvError> {
        if cfg.shards == 0 || cfg.workers_per_shard == 0 {
            return Err(TxKvError::InvalidConfig {
                reason: "shards and workers_per_shard must be at least 1",
            });
        }
        if cfg.keys == 0 {
            return Err(TxKvError::InvalidConfig {
                reason: "keyspace must hold at least one key",
            });
        }
        if cfg.queue_capacity == 0 {
            return Err(TxKvError::InvalidConfig {
                reason: "queue_capacity must be at least 1",
            });
        }
        let heap = system.heap();
        if heap.len() - heap.allocated() < cfg.keys as usize {
            return Err(TxKvError::InvalidConfig {
                reason:
                    "backend heap too small for the key table (size it with TxKvConfig::heap_words)",
            });
        }
        let table: Addr = heap.alloc(cfg.keys as usize);

        // Durable mode: recover the directory and seed the table before
        // any worker can run a transaction.
        let mut wal = None;
        let mut base_seq = 0u64;
        let mut report = RecoveryReport::default();
        if let Some(dur) = &cfg.durability {
            // The durable sequence must restart at 0 for the rebased
            // on-disk sequence (base + tm_seq) to stay dense — a backend
            // that already committed transactions has burnt sequence
            // numbers we never logged.
            if system.stats().snapshot().commits > 0 {
                return Err(TxKvError::InvalidConfig {
                    reason: "durable recovery requires a freshly constructed backend",
                });
            }
            let wal_cfg = WalConfig {
                dir: dur.dir.clone(),
                fsync: dur.fsync,
                kill: dur.kill.clone(),
            };
            let (w, recovered) = Wal::open(wal_cfg).map_err(|_| TxKvError::InvalidConfig {
                reason: "could not open the WAL directory",
            })?;
            if recovered.values.len() > cfg.keys as usize {
                return Err(TxKvError::InvalidConfig {
                    reason: "checkpoint holds more keys than the configured keyspace",
                });
            }
            // Checkpoint image first, then the replayed log tail: direct
            // stores are safe here because no transactions run yet.
            for (k, &v) in recovered.values.iter().enumerate() {
                heap.store_direct(table + k, v);
            }
            for rec in &recovered.records {
                for &(k, v) in &rec.writes {
                    if k < cfg.keys {
                        heap.store_direct(table + k as Addr, v);
                    }
                }
            }
            base_seq = recovered.next_seq;
            report = recovered.report;
            wal = Some(w);
        }

        let pause = Arc::new(RwLock::new(()));
        let checkpoints = match (&wal, &cfg.durability) {
            (Some(w), Some(dur)) if dur.checkpoint_every > 0 => Some(Arc::new(AutoCheckpoint {
                wal: w.client(),
                due: AtomicU64::new(w.durable_seq() + dur.checkpoint_every),
                every: dur.checkpoint_every,
                keys: cfg.keys,
            })),
            _ => None,
        };
        let mut queues = Vec::with_capacity(cfg.shards);
        let mut stats = Vec::with_capacity(cfg.shards);
        let mut workers = Vec::with_capacity(cfg.worker_threads());
        for shard in 0..cfg.shards {
            let queue = Arc::new(ShardQueue::new(cfg.queue_capacity, cfg.workers_per_shard));
            let shard_stats = Arc::new(ShardStats::default());
            for w in 0..cfg.workers_per_shard {
                let ctx = WorkerCtx {
                    system: Arc::clone(&system),
                    table,
                    thread_id: shard * cfg.workers_per_shard + w,
                    stats: Arc::clone(&shard_stats),
                    queue: Arc::clone(&queue),
                    seat: w,
                    pause: Arc::clone(&pause),
                    wal: wal.as_ref().map(|w| WorkerWal {
                        wal: w.client(),
                        base_seq,
                    }),
                    checkpoints: checkpoints.clone(),
                };
                let handle = std::thread::Builder::new()
                    .name(format!("txkv-{shard}-{w}"))
                    .spawn(move || run_worker(ctx))
                    .expect("failed to spawn txkv worker");
                workers.push(handle);
            }
            queues.push(queue);
            stats.push(shard_stats);
        }

        Ok((
            Self {
                system,
                cfg,
                table,
                queues,
                stats,
                workers,
                started: Instant::now(),
                wal,
                pause,
                final_wal: None,
            },
            report,
        ))
    }

    /// Takes a checkpoint now (durable mode): quiesces commits, writes a
    /// snapshot of the key table, and truncates the log. Returns the
    /// sequence number the checkpoint covers up to.
    ///
    /// # Errors
    ///
    /// [`TxKvError::InvalidConfig`] when the service is not durable;
    /// [`TxKvError::DurabilityLost`] when the WAL has died.
    pub fn checkpoint(&self) -> Result<u64, TxKvError> {
        let Some(wal) = &self.wal else {
            return Err(TxKvError::InvalidConfig {
                reason: "checkpoint requires durability to be configured",
            });
        };
        checkpoint_table(&*self.system, &self.pause, wal, self.table, self.cfg.keys)
            .map_err(|_| TxKvError::DurabilityLost)
    }

    /// The backend this service runs on.
    pub fn backend(&self) -> &Arc<S> {
        &self.system
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &TxKvConfig {
        &self.cfg
    }

    /// Heap address of the key table (key `k` lives at `table() + k`).
    /// Exposed so harnesses can bulk-initialise the keyspace with
    /// [`TmHeap::store_direct`](rococo_stm::TmHeap::store_direct) before
    /// opening traffic; direct stores are only safe while no transactions
    /// run.
    pub fn table(&self) -> Addr {
        self.table
    }

    /// The shard a key routes to (Fibonacci hash of the primary key).
    pub fn shard_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.cfg.shards
    }

    /// Submits a request without waiting for the reply (open-loop
    /// clients submit many, then drain the [`PendingReply`]s).
    ///
    /// # Errors
    ///
    /// * [`TxKvError::TooManyKeys`] / [`TxKvError::KeyOutOfRange`] —
    ///   invalid request, rejected before touching a queue.
    /// * [`TxKvError::Overloaded`] — the target shard's queue is full;
    ///   the request was shed.
    /// * [`TxKvError::ShuttingDown`] — the service stopped.
    pub fn submit(&self, req: Request) -> Result<PendingReply, TxKvError> {
        if let Request::MultiGet { keys } = &req {
            if keys.len() > Request::MAX_MULTI_GET {
                return Err(TxKvError::TooManyKeys {
                    requested: keys.len(),
                });
            }
        }
        let mut bad_key = None;
        req.for_each_key(|k| {
            if k >= self.cfg.keys && bad_key.is_none() {
                bad_key = Some(k);
            }
        });
        if let Some(key) = bad_key {
            return Err(TxKvError::KeyOutOfRange {
                key,
                keys: self.cfg.keys,
            });
        }

        let shard = self.shard_of(req.primary_key());
        // Mint the request's causal trace id at ingress and open its
        // chain with an `Ingress` event on the *client* thread; the
        // shard worker continues the chain from the id carried on the
        // job. Disabled recorder ⇒ trace 0 ⇒ tracing fully off.
        let trace = if rococo_telemetry::enabled() {
            let trace = rococo_telemetry::mint_trace();
            rococo_telemetry::set_current_trace(trace);
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Ingress {
                shard: shard as u32,
                class: req.class(),
            });
            trace
        } else {
            0
        };
        let enqueued_at = Instant::now();
        let (reply, pending) = reply_pair();
        let job = Job {
            req,
            enqueued_at,
            trace,
            reply,
        };
        let out = match self.queues[shard].post(job) {
            Ok(()) => Ok(pending),
            Err(Refused::Full) => {
                self.stats[shard].note_shed();
                if trace != 0 {
                    // Close the shed request's chain here — no worker
                    // will ever see it — and force-keep it in the tail
                    // sampler: shed requests are always worth keeping.
                    rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Reply {
                        outcome: "shed"
                    });
                    rococo_telemetry::observe_request(
                        trace,
                        enqueued_at.elapsed().as_nanos() as u64,
                        true,
                    );
                }
                Err(TxKvError::Overloaded { shard })
            }
            Err(Refused::Closed) => Err(TxKvError::ShuttingDown),
        };
        if trace != 0 {
            rococo_telemetry::clear_current_trace();
        }
        out
    }

    /// Submits a request and blocks for the response (closed-loop
    /// clients).
    ///
    /// # Errors
    ///
    /// Everything [`TxKv::submit`] returns, plus the worker-side errors
    /// ([`TxKvError::RetriesExhausted`]).
    pub fn call(&self, req: Request) -> Result<Response, TxKvError> {
        self.submit(req)?.wait()
    }

    /// Submits a request and blocks for the response plus its commit
    /// sequence number (see [`PendingReply::wait_with_seq`]) — the
    /// building block for replication watermarks.
    ///
    /// # Errors
    ///
    /// As [`TxKv::call`].
    pub fn call_with_seq(&self, req: Request) -> Result<(Response, Option<u64>), TxKvError> {
        self.submit(req)?.wait_with_seq()
    }

    /// A live report (counters keep moving while it is taken). A shard's
    /// `enqueued` is what its queue admitted: the queue's `tail`, not a
    /// counter.
    pub fn report(&self) -> TxKvReport {
        let per_shard: Vec<ShardSnapshot> = self
            .stats
            .iter()
            .zip(&self.queues)
            .map(|(s, q)| s.snapshot(q.admitted()))
            .collect();
        let mut aggregate = ShardSnapshot::default();
        for s in &per_shard {
            aggregate.merge(s);
        }
        TxKvReport {
            backend: self.system.name(),
            per_shard,
            aggregate,
            wal: self
                .wal
                .as_ref()
                .map(Wal::stats)
                .or_else(|| self.final_wal.clone()),
            elapsed: self.started.elapsed(),
        }
    }

    /// Stops the service: closes every queue, joins the workers (they
    /// finish queued requests first), and returns the final report.
    pub fn shutdown(mut self) -> TxKvReport {
        self.stop_and_join();
        self.report()
    }

    /// Stops the workers, closes the WAL and writes the metric files;
    /// a second call (`Drop` after [`TxKv::shutdown`]) does nothing.
    fn stop_and_join(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        for queue in &self.queues {
            queue.close(); // workers leave once their queue is drained
        }
        // Every worker holds a WAL client, and a post after the WAL was
        // closed loses durability: join them (and any checkpoint one is
        // taking) before shutting the opener handle down.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.wal.take() {
            self.final_wal = Some(w.shutdown());
        }
        // After the workers: the one scrape covers every request.
        if let Some(dir) = &self.cfg.telemetry {
            scrape_metrics(&*self.system, &self.report(), dir);
        }
    }
}

impl<S: TmSystem + 'static> Drop for TxKv<S> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop::tests::spin_until;
    use rococo_stm::{RococoConfig, RococoTm, TinyStm, TmConfig, TsxHtm};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    fn tiny(cfg: &TxKvConfig) -> Arc<TinyStm> {
        Arc::new(TinyStm::with_config(TmConfig {
            heap_words: cfg.heap_words(),
            max_threads: cfg.worker_threads(),
        }))
    }

    #[test]
    fn basic_requests_roundtrip() {
        let cfg = TxKvConfig {
            shards: 2,
            workers_per_shard: 1,
            keys: 128,
            ..TxKvConfig::default()
        };
        let kv = TxKv::start(tiny(&cfg), cfg).unwrap();
        assert_eq!(
            kv.call(Request::Put { key: 1, value: 11 }).unwrap(),
            Response::Done
        );
        assert_eq!(
            kv.call(Request::Add { key: 1, delta: 4 }).unwrap(),
            Response::Value(15)
        );
        assert_eq!(
            kv.call(Request::MultiGet { keys: vec![0, 1] }).unwrap(),
            Response::Values(vec![0, 15])
        );
        let report = kv.shutdown();
        assert_eq!(report.aggregate.committed, 3);
        assert_eq!(report.aggregate.failed, 0);
        assert_eq!(report.aggregate.latency.count, 3);
    }

    #[test]
    fn works_on_every_backend() {
        let cfg = TxKvConfig {
            shards: 2,
            workers_per_shard: 1,
            keys: 64,
            ..TxKvConfig::default()
        };
        let tm_cfg = TmConfig {
            heap_words: cfg.heap_words(),
            max_threads: cfg.worker_threads(),
        };
        fn smoke<S: TmSystem + 'static>(system: Arc<S>, cfg: TxKvConfig) {
            let kv = TxKv::start(system, cfg).unwrap();
            kv.call(Request::Put { key: 9, value: 2 }).unwrap();
            assert_eq!(
                kv.call(Request::Get { key: 9 }).unwrap(),
                Response::Value(2)
            );
            assert_eq!(kv.shutdown().aggregate.committed, 2);
        }
        smoke(Arc::new(TinyStm::with_config(tm_cfg)), cfg.clone());
        smoke(Arc::new(TsxHtm::with_config(tm_cfg)), cfg.clone());
        smoke(Arc::new(RococoTm::with_config(tm_cfg)), cfg);
    }

    const KEYS: u64 = 8;
    const SEED_BAL: u64 = 100;

    /// The bank-conservation + write-skew oracle: concurrent conditional
    /// transfers may never create or destroy money and may never overdraw
    /// a balance (a skewed pair of transfers would wrap a `u64` balance
    /// to an enormous value, failing the bound check). Returns the final
    /// report for backend-specific assertions.
    fn bank<S: TmSystem + 'static>(system: Arc<S>, cfg: TxKvConfig) -> TxKvReport {
        let kv = Arc::new(TxKv::start(system, cfg).unwrap());
        for k in 0..KEYS {
            kv.call(Request::Put {
                key: k,
                value: SEED_BAL,
            })
            .unwrap();
        }
        // Pipelined clients: each keeps a window of transfers in
        // flight so shard workers actually form multi-job batches.
        let mut clients = Vec::new();
        for c in 0..3u64 {
            let kv = Arc::clone(&kv);
            clients.push(std::thread::spawn(move || {
                let mut window = std::collections::VecDeque::new();
                for i in 0..300u64 {
                    let from = (c * 3 + i) % KEYS;
                    let to = (c + i * 7 + 1) % KEYS;
                    if from == to {
                        continue;
                    }
                    let req = Request::Transfer {
                        from,
                        to,
                        amount: 1 + i % 5,
                    };
                    loop {
                        match kv.submit(req.clone()) {
                            Ok(pending) => {
                                window.push_back(pending);
                                break;
                            }
                            Err(TxKvError::Overloaded { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("transfer rejected: {e}"),
                        }
                    }
                    if window.len() >= 16 {
                        window.pop_front().unwrap().wait().unwrap();
                    }
                }
                for pending in window {
                    pending.wait().unwrap();
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        let balances = match kv
            .call(Request::MultiGet {
                keys: (0..KEYS).collect(),
            })
            .unwrap()
        {
            Response::Values(v) => v,
            other => panic!("unexpected reply {other:?}"),
        };
        let total: u64 = balances.iter().sum();
        assert_eq!(
            total,
            KEYS * SEED_BAL,
            "bank conservation violated: {balances:?}"
        );
        assert!(
            balances.iter().all(|&b| b <= KEYS * SEED_BAL),
            "write skew overdrew a balance (u64 wrap): {balances:?}"
        );
        let report = Arc::try_unwrap(kv).ok().unwrap().shutdown();
        assert_eq!(report.aggregate.failed, 0);
        assert!(report.aggregate.batches > 0);
        // Every job runs inside some batch, so the job counter can
        // never lag the batch counter.
        assert!(report.aggregate.batch_jobs >= report.aggregate.batches);
        report
    }

    /// Batches of pipelined client submissions, two workers a shard,
    /// must stay serializable on every static backend.
    #[test]
    fn batched_commits_preserve_invariants_on_every_backend() {
        let cfg = TxKvConfig {
            shards: 2,
            workers_per_shard: 2,
            keys: 32,
            ..TxKvConfig::default()
        };
        let tm_cfg = TmConfig {
            heap_words: cfg.heap_words(),
            max_threads: cfg.worker_threads(),
        };
        bank(Arc::new(TinyStm::with_config(tm_cfg)), cfg.clone());
        bank(Arc::new(TsxHtm::with_config(tm_cfg)), cfg.clone());
        bank(Arc::new(RococoTm::with_config(tm_cfg)), cfg);
    }

    /// One shard × one worker on a ROCoCoTM built from `rococo` (its `tm`
    /// sized here), fed by one client that keeps 64 requests outstanding so
    /// the worker's batches fill. Every request must commit. Returns the
    /// final table sum, the report and the backend.
    fn one_worker_rococo(
        rococo: RococoConfig,
        keys: u64,
        requests: impl Iterator<Item = Request>,
    ) -> (u64, TxKvReport, Arc<RococoTm>) {
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 1,
            keys,
            ..TxKvConfig::default()
        };
        let tm = Arc::new(RococoTm::with_configs(RococoConfig {
            tm: TmConfig {
                heap_words: cfg.heap_words(),
                max_threads: cfg.worker_threads(),
            },
            ..rococo
        }));
        let kv = TxKv::start(Arc::clone(&tm), cfg).unwrap();
        let mut window = std::collections::VecDeque::new();
        for req in requests {
            if window.len() == 64 {
                let oldest: PendingReply = window.pop_front().unwrap();
                oldest.wait().unwrap();
            }
            window.push_back(kv.submit(req).unwrap());
        }
        for pending in window {
            pending.wait().unwrap();
        }
        let sum = match kv.call(Request::MultiGet {
            keys: (0..keys).collect(),
        }) {
            Ok(Response::Values(v)) => v.iter().fold(0u64, |a, &b| a.wrapping_add(b)),
            other => panic!("unexpected reply {other:?}"),
        };
        let report = kv.shutdown();
        assert_eq!(report.aggregate.failed, 0);
        (sum, report, tm)
    }

    /// With `irrevocable_after: 0` every ROCoCoTM transaction begins
    /// irrevocable: each write commits under the exclusive commit gate,
    /// taken in `begin` by a worker that holds no other guard. None may
    /// wedge, fail or lose its update.
    #[test]
    fn every_commit_irrevocable_still_conserves() {
        const KEYS: u64 = 64;
        const N: u64 = 2_000;
        let adds = (0..N).map(|i| Request::Add {
            key: i % KEYS,
            delta: i + 1,
        });
        let irrevocable = RococoConfig {
            irrevocable_after: 0,
            ..RococoConfig::default()
        };
        let (sum, report, tm) = one_worker_rococo(irrevocable, KEYS, adds);
        assert_eq!(sum, N * (N + 1) / 2, "ledger not conserved");
        assert_eq!(report.aggregate.failed, 0);
        assert_eq!(tm.stats().snapshot().fallback_commits, N);
    }

    /// On a hot-key write stream a one-worker shard runs job k+1 only after
    /// job k has published, so a job always reads what the one before it
    /// wrote: the engine never sees a cycle or a window overflow, every
    /// request commits and the sum is conserved.
    #[test]
    fn a_lone_worker_on_hot_keys_aborts_nothing() {
        const KEYS: u64 = 4;
        const N: u64 = 4_000;
        let stream = (0..N).map(|i| {
            if i % 2 == 0 {
                Request::Add {
                    key: i % KEYS,
                    delta: 1,
                }
            } else {
                // Out of a key the `Add`s feed, so it moves something.
                Request::Transfer {
                    from: (i + 1) % KEYS,
                    to: i % KEYS,
                    amount: 1,
                }
            }
        });
        let (sum, report, tm) = one_worker_rococo(RococoConfig::default(), KEYS, stream);
        assert_eq!(sum, N / 2, "sum not conserved");
        let engine = tm.fpga_stats();
        assert_eq!((engine.aborts_window, engine.aborts_cycle), (0, 0));
        let a = &report.aggregate;
        assert_eq!(a.committed, N + 1);
        assert!(a.batch_jobs > a.batches, "the batches never filled: {a:?}");
    }

    /// A [`TinyStm`] whose `begin` the test can hold: the first `begin`
    /// waits for `queued`, the third for `replied`. Each wait gives up after
    /// [`Gated::PATIENCE`] and counts in `timeouts`.
    struct Gated {
        inner: TinyStm,
        begins: AtomicUsize,
        queued: AtomicBool,
        replied: AtomicBool,
        timeouts: AtomicUsize,
    }

    impl Gated {
        const PATIENCE: Duration = Duration::from_secs(5);

        fn wait_for(&self, flag: &AtomicBool) {
            let deadline = Instant::now() + Self::PATIENCE;
            while !flag.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    self.timeouts.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                std::thread::yield_now();
            }
        }
    }

    impl TmSystem for Gated {
        type Tx<'a> = <TinyStm as TmSystem>::Tx<'a>;

        fn name(&self) -> &'static str {
            "gated"
        }

        fn heap(&self) -> &rococo_stm::TmHeap {
            self.inner.heap()
        }

        fn begin(&self, thread_id: usize) -> Self::Tx<'_> {
            match self.begins.fetch_add(1, Ordering::SeqCst) {
                0 => self.wait_for(&self.queued),
                2 => self.wait_for(&self.replied),
                _ => {}
            }
            self.inner.begin(thread_id)
        }

        fn stats(&self) -> &rococo_stm::TmStats {
            self.inner.stats()
        }
    }

    /// Jobs 1 and 2 land in one batch (job 0's `begin` holds the worker
    /// until both are queued), and job 2 cannot begin until the client
    /// holds job 1's reply: the reply must leave when job 1 commits, not
    /// when its batch ends.
    #[test]
    fn a_reply_leaves_before_its_batch_ends() {
        use Ordering::SeqCst;
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 1,
            keys: 16,
            ..TxKvConfig::default()
        };
        let gated = Arc::new(Gated {
            inner: TinyStm::with_config(TmConfig {
                heap_words: cfg.heap_words(),
                max_threads: cfg.worker_threads(),
            }),
            begins: Default::default(),
            queued: Default::default(),
            replied: Default::default(),
            timeouts: Default::default(),
        });
        let kv = TxKv::start(Arc::clone(&gated), cfg).unwrap();
        let job0 = kv.submit(Request::Put { key: 0, value: 1 }).unwrap();
        spin_until("job 0 begins", || gated.begins.load(SeqCst) == 1);
        let job1 = kv.submit(Request::Put { key: 1, value: 1 }).unwrap();
        let job2 = kv.submit(Request::Put { key: 2, value: 1 }).unwrap();
        gated.queued.store(true, SeqCst);
        job0.wait().unwrap();
        job1.wait().unwrap();
        gated.replied.store(true, SeqCst);
        job2.wait().unwrap();
        assert_eq!(
            gated.timeouts.load(SeqCst),
            0,
            "job 1's reply waited for job 2 to begin"
        );
        let report = kv.shutdown();
        assert_eq!(report.aggregate.committed, 3);
        assert_eq!(
            (report.aggregate.batches, report.aggregate.batch_jobs),
            (2, 3),
            "jobs 1 and 2 shared a batch"
        );
    }

    /// A [`HybridTm`](rococo_sched::HybridTm) whose HTM fast path is too
    /// small for any multi-word write set: one direct-mapped write-set
    /// entry at word granularity, so every `Transfer` (four writes)
    /// capacity-aborts its first HTM attempt and must migrate mid-retry
    /// to the software path.
    fn migratory_hybrid(cfg: &TxKvConfig) -> Arc<rococo_sched::HybridTm> {
        use rococo_stm::HtmConfig;
        Arc::new(rococo_sched::HybridTm::with_configs(
            rococo_sched::HybridConfig {
                tm: TmConfig {
                    heap_words: cfg.heap_words(),
                    max_threads: cfg.worker_threads(),
                },
                htm: HtmConfig {
                    line_shift: 0,
                    write_sets: 1,
                    write_ways: 1,
                    read_capacity: 4096,
                    max_attempts: 5,
                },
                classes: crate::request::Request::CLASSES,
                ..rococo_sched::HybridConfig::default()
            },
        ))
    }

    /// The serializability oracle must hold on the hybrid router even
    /// when attempts migrate backends mid-retry: transfers overflow the
    /// deliberately tiny HTM write set, capacity-abort, and re-route to
    /// the software path with their balance invariants intact.
    #[test]
    fn hybrid_bank_survives_forced_mid_retry_migration() {
        let cfg = TxKvConfig {
            shards: 2,
            workers_per_shard: 2,
            keys: 32,
            ..TxKvConfig::default()
        };
        let tm = migratory_hybrid(&cfg);
        bank(Arc::clone(&tm), cfg);
        let sched = tm.sched_snapshot();
        assert!(
            sched.migrations > 0,
            "transfers never migrated HTM -> software: {sched:?}"
        );
        assert!(
            sched.commits_sw > 0,
            "no commit ever retired on the slow path: {sched:?}"
        );
    }

    /// Satellite check for the stats plumbing: the shard report, the
    /// outer [`TmSystem`] stats snapshot, and the scheduler's per-path
    /// commit counters must all agree on the number of commits — and the
    /// rendered registry must carry `rococo_tm_commits_total` exactly
    /// once (no double-counting from the wrapped engines).
    #[test]
    fn hybrid_commit_counts_agree_across_all_three_surfaces() {
        let cfg = TxKvConfig {
            shards: 2,
            workers_per_shard: 2,
            keys: 32,
            ..TxKvConfig::default()
        };
        let tm = migratory_hybrid(&cfg);
        let report = bank(Arc::clone(&tm), cfg);
        // Surface 1 vs 2: every committed request is exactly one TM
        // commit (bank asserts failed == 0, and nothing else ran
        // transactions on this TM instance).
        let snap = tm.stats_snapshot();
        assert_eq!(report.aggregate.committed, snap.commits);
        // Surface 3: the scheduler's per-path split partitions the total.
        let sched = tm.sched_snapshot();
        assert_eq!(snap.commits, sched.commits_htm + sched.commits_sw);
        // The exported registry shows one commit counter, with the same
        // value — the wrapped engines' own counters must not leak in.
        let mut reg = rococo_telemetry::MetricsRegistry::new();
        snap.export_metrics(&mut reg);
        tm.export_extra_metrics(&mut reg);
        let rendered = reg.render_prometheus();
        let commit_lines: Vec<&str> = rendered
            .lines()
            .filter(|l| l.starts_with("rococo_tm_commits_total"))
            .collect();
        assert_eq!(
            commit_lines,
            vec![format!("rococo_tm_commits_total {}", snap.commits).as_str()],
            "commit counter must render exactly once"
        );
        // The hybrid-only counters rode along under their own prefix.
        assert!(rendered.contains("rococo_sched_routes_total"));
    }

    /// Open-loop smoke: a tiny queue flooded faster than one worker can
    /// drain it must shed with [`TxKvError::Overloaded`] (counted per
    /// shard) rather than queueing without bound, while every accepted
    /// request still gets an answer.
    #[test]
    fn overload_sheds_instead_of_queueing() {
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 4,
            keys: 16,
            ..TxKvConfig::default()
        };
        let kv = TxKv::start(tiny(&cfg), cfg).unwrap();
        let mut accepted = Vec::new();
        let mut shed = 0u64;
        for i in 0..2_000u64 {
            match kv.submit(Request::Put {
                key: i % 16,
                value: i,
            }) {
                Ok(pending) => accepted.push(pending),
                Err(TxKvError::Overloaded { shard }) => {
                    assert_eq!(shard, 0);
                    shed += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(shed > 0, "2000 blind submits never filled a 4-deep queue");
        for pending in accepted {
            pending.wait().unwrap();
        }
        let report = kv.shutdown();
        assert_eq!(report.aggregate.shed, shed);
        assert_eq!(report.aggregate.committed + shed, 2_000);
    }

    /// `enqueued` is the queue's `tail`, so it counts the submits that
    /// returned `Ok` and none that were refused, full or closed: per shard
    /// and in total, in the report and in the exported counter.
    #[test]
    fn enqueued_counts_exactly_the_admitted_submits() {
        let dir = std::env::temp_dir().join(format!("rococo-enqueued-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TxKvConfig {
            shards: 2,
            workers_per_shard: 1,
            queue_capacity: 4,
            keys: 16,
            telemetry: Some(dir.clone()),
            ..TxKvConfig::default()
        };
        let kv = TxKv::start(tiny(&cfg), cfg).unwrap();
        let mut admitted = [0u64; 2];
        let (mut overloaded, mut shutting_down) = (0u64, 0u64);
        let mut pending = Vec::new();
        for i in 0..100_000u64 {
            if i == 2_000 {
                // From here on shard 0 refuses everything as closed.
                kv.queues[0].close();
            }
            if i >= 2_000 && overloaded > 0 && shutting_down > 0 {
                break;
            }
            let key = i % 16;
            match kv.submit(Request::Put { key, value: i }) {
                Ok(reply) => {
                    admitted[kv.shard_of(key)] += 1;
                    pending.push(reply);
                }
                Err(TxKvError::Overloaded { .. }) => overloaded += 1,
                Err(TxKvError::ShuttingDown) => shutting_down += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(overloaded > 0, "blind submits never filled a 4-deep queue");
        assert!(shutting_down > 0, "a closed shard admitted everything");
        for reply in pending {
            reply.wait().unwrap();
        }
        let report = kv.report();
        for (shard, snap) in report.per_shard.iter().enumerate() {
            assert_eq!(snap.enqueued, admitted[shard], "shard {shard}");
        }
        assert_eq!(report.aggregate.enqueued, admitted.iter().sum::<u64>());
        assert_eq!(report.aggregate.shed, overloaded);
        kv.shutdown();
        // The final scrape runs after the workers left.
        let prom = std::fs::read_to_string(dir.join(rococo_telemetry::rundir::METRICS_PROM))
            .expect("scraper wrote prom");
        let exported = |series: &str| -> u64 {
            let line = prom
                .lines()
                .find(|l| l.strip_prefix(series).is_some_and(|v| v.starts_with(' ')))
                .unwrap_or_else(|| panic!("no {series} in:\n{prom}"));
            line.split_whitespace().nth(1).unwrap().parse().unwrap()
        };
        assert_eq!(
            exported("rococo_txkv_enqueued_total"),
            admitted.iter().sum::<u64>()
        );
        for (shard, &n) in admitted.iter().enumerate() {
            let series = format!("rococo_txkv_enqueued_total{{shard=\"{shard}\"}}");
            assert_eq!(exported(&series), n, "shard {shard}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A lone request finds every worker parked (the poll budget is a few
    /// microseconds): `submit` must wake one, and the worker must answer
    /// before it parks again — the invariant a worker that deferred its
    /// commits or replies to the end of a batch once broke on ROCoCoTM.
    /// The reply is polled to a deadline, so that bug fails the test
    /// instead of hanging it.
    #[test]
    fn a_lone_request_wakes_a_parked_worker() {
        fn lone_requests<S: TmSystem + 'static>(system: Arc<S>, cfg: TxKvConfig) {
            let kv = TxKv::start(system, cfg).unwrap();
            for round in 0..3u64 {
                spin_until("both workers park", || {
                    kv.queues[0].worker_sleeps(0) && kv.queues[0].worker_sleeps(1)
                });
                let pending = kv.submit(Request::Add { key: 1, delta: 1 }).unwrap();
                let deadline = Instant::now() + Duration::from_secs(10);
                let reply = loop {
                    if let Some(reply) = pending.try_wait() {
                        break reply;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "round {round}: a parked worker never answered the lone request"
                    );
                    std::thread::yield_now();
                };
                assert_eq!(reply.unwrap(), Response::Value(round + 1));
            }
            assert_eq!(kv.shutdown().aggregate.committed, 3);
        }
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 2,
            keys: 16,
            ..TxKvConfig::default()
        };
        lone_requests(tiny(&cfg), cfg.clone());
        let rococo = RococoTm::with_config(TmConfig {
            heap_words: cfg.heap_words(),
            max_threads: cfg.worker_threads(),
        });
        lone_requests(Arc::new(rococo), cfg);
    }

    /// A client that drops its `PendingReply` abandons the reply, not the
    /// request: the worker runs it, answers into the void and moves on.
    #[test]
    fn a_dropped_pending_reply_does_not_stall_the_worker() {
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 1,
            keys: 16,
            ..TxKvConfig::default()
        };
        let kv = TxKv::start(tiny(&cfg), cfg).unwrap();
        for _ in 0..100 {
            drop(kv.submit(Request::Add { key: 2, delta: 1 }).unwrap());
        }
        // Same shard, same queue, behind the hundred: it sees them all.
        assert_eq!(
            kv.call(Request::Get { key: 2 }).unwrap(),
            Response::Value(100)
        );
        assert_eq!(kv.shutdown().aggregate.committed, 101);
    }

    /// A backend that panics mid-transaction (here: an address off the end
    /// of the heap, which `submit` would have refused) costs that request an
    /// `Internal` and nothing else — the worker keeps its seat.
    #[test]
    fn a_panicking_backend_still_answers_internal() {
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 1,
            keys: 16,
            ..TxKvConfig::default()
        };
        let kv = TxKv::start(tiny(&cfg), cfg).unwrap();
        let (reply, pending) = reply_pair();
        kv.queues[0]
            .post(Job {
                req: Request::Get { key: 1 << 40 },
                enqueued_at: Instant::now(),
                trace: 0,
                reply,
            })
            .unwrap();
        assert_eq!(pending.wait(), Err(TxKvError::Internal));
        assert_eq!(
            kv.call(Request::Get { key: 0 }).unwrap(),
            Response::Value(0)
        );
        let report = kv.shutdown();
        assert_eq!(report.aggregate.panics, 1);
        assert_eq!(report.aggregate.committed, 1);
    }

    /// The worker that posts a commit runs the validation engine itself,
    /// so a panic in the engine unwinds through the worker's commit. (The
    /// engine is built by its first validation, and `RococoValidator`
    /// rejects a zero window.) The worker answers that request `Internal`
    /// and keeps its seat; the service is dead from then on, so a write fails
    /// with `ServiceStopped` while a read, which never validates, succeeds.
    #[test]
    fn a_panic_while_serving_the_validator_answers_internal() {
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 1,
            keys: 16,
            ..TxKvConfig::default()
        };
        let tm = RococoTm::with_configs(RococoConfig {
            tm: TmConfig {
                heap_words: cfg.heap_words(),
                max_threads: cfg.worker_threads(),
            },
            window: 0,
            ..RococoConfig::default()
        });
        let kv = TxKv::start(Arc::new(tm), cfg).unwrap();
        let add = Request::Add { key: 1, delta: 1 };
        assert_eq!(kv.call(add.clone()), Err(TxKvError::Internal));
        assert!(matches!(
            kv.call(add),
            Err(TxKvError::RetriesExhausted {
                last: rococo_stm::AbortKind::ServiceStopped,
                ..
            })
        ));
        assert_eq!(
            kv.call(Request::Get { key: 1 }).unwrap(),
            Response::Value(0)
        );
        let report = kv.shutdown();
        assert_eq!(report.aggregate.panics, 1);
    }

    fn durable_cfg(dir: std::path::PathBuf, checkpoint_every: u64) -> TxKvConfig {
        TxKvConfig {
            shards: 2,
            workers_per_shard: 2,
            keys: 64,
            durability: Some(DurabilityConfig {
                dir,
                fsync: FsyncPolicy::Always,
                checkpoint_every,
                kill: None,
            }),
            ..TxKvConfig::default()
        }
    }

    #[test]
    fn durable_writes_survive_restart() {
        let dir = rococo_wal::scratch_dir("svc-restart");
        let cfg = durable_cfg(dir.clone(), 0);
        {
            let kv = TxKv::start(tiny(&cfg), cfg.clone()).unwrap();
            for k in 0..20 {
                kv.call(Request::Put {
                    key: k,
                    value: k + 100,
                })
                .unwrap();
            }
            kv.call(Request::Transfer {
                from: 3,
                to: 4,
                amount: 50,
            })
            .unwrap();
            let report = kv.shutdown();
            let wal = report.wal.expect("durable service reports WAL stats");
            // 20 puts + 1 transfer, all update transactions.
            assert_eq!(wal.acked_records, 21);
        }
        let (kv, report) = TxKv::recover(tiny(&cfg), cfg).unwrap();
        assert_eq!(report.replayed, 21);
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(
            kv.call(Request::Get { key: 3 }).unwrap(),
            Response::Value(53)
        );
        assert_eq!(
            kv.call(Request::Get { key: 4 }).unwrap(),
            Response::Value(154)
        );
        assert_eq!(
            kv.call(Request::Get { key: 19 }).unwrap(),
            Response::Value(119)
        );
        drop(kv);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One worker, fsync per batch: the worker posts its whole batch and
    /// waits once, and that wait writes the batch, so one fsync covers it.
    /// (It was exactly one record while every append blocked, and 4–6
    /// while a writer thread took a batch's first record alone.)
    #[test]
    fn group_commit_groups_under_fsync_always() {
        const WRITES: u64 = 1_024;
        const WINDOW: usize = 64;
        let dir = rococo_wal::scratch_dir("svc-group");
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 256,
            ..durable_cfg(dir.clone(), 0)
        };
        let kv = TxKv::start(tiny(&cfg), cfg).unwrap();
        let mut window = std::collections::VecDeque::with_capacity(WINDOW);
        for i in 0..WRITES {
            if window.len() == WINDOW {
                let oldest: PendingReply = window.pop_front().unwrap();
                oldest.wait().unwrap();
            }
            window.push_back(
                kv.submit(Request::Add {
                    key: i % 64,
                    delta: 1,
                })
                .unwrap(),
            );
        }
        for reply in window {
            reply.wait().unwrap();
        }
        let report = kv.shutdown();
        let wal = report.wal.expect("durable service reports WAL stats");
        assert_eq!(wal.acked_records, WRITES);
        assert!(wal.mean_batch() >= 8.0, "mean batch {}", wal.mean_batch());
        assert!(
            wal.fsyncs < wal.acked_records / 4,
            "{} fsyncs for {} records",
            wal.fsyncs,
            wal.acked_records
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Four workers on one WAL, fsync per batch: a worker whose records
    /// another's fsync covered returns without one, and what was posted
    /// during an fsync is the next one's batch, so an fsync covers many
    /// records. (18–37 records a batch, with or without a writer thread;
    /// a waiter that wrote a batch of its own would make it 1–2.)
    #[test]
    fn group_commit_groups_across_workers_under_fsync_always() {
        const CLIENTS: u64 = 4;
        const WRITES: u64 = 256;
        const WINDOW: usize = 32;
        let dir = rococo_wal::scratch_dir("svc-group-2x2");
        let cfg = TxKvConfig {
            queue_capacity: 256,
            ..durable_cfg(dir.clone(), 0)
        };
        let kv = TxKv::start(tiny(&cfg), cfg).unwrap();
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let kv = &kv;
                scope.spawn(move || {
                    let mut window = std::collections::VecDeque::with_capacity(WINDOW);
                    for i in 0..WRITES {
                        if window.len() == WINDOW {
                            let oldest: PendingReply = window.pop_front().unwrap();
                            oldest.wait().unwrap();
                        }
                        let key = (c * WRITES + i) % 64;
                        window.push_back(kv.submit(Request::Add { key, delta: 1 }).unwrap());
                    }
                    for reply in window {
                        reply.wait().unwrap();
                    }
                });
            }
        });
        let report = kv.shutdown();
        let wal = report.wal.expect("durable service reports WAL stats");
        assert_eq!(wal.acked_records, CLIENTS * WRITES);
        assert!(wal.mean_batch() >= 8.0, "mean batch {}", wal.mean_batch());
        assert!(
            wal.fsyncs * 8 <= wal.acked_records,
            "{} fsyncs for {} records",
            wal.fsyncs,
            wal.acked_records
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// 32 sequential puts, a checkpoint due every 8: the worker whose ack
    /// reaches each due mark takes that checkpoint, so shutdown finds
    /// exactly four and recovery replays nothing. Each reply is polled to
    /// a deadline, so a worker that checkpoints under its own `pause` read
    /// guard (and wedges every worker behind its write lock) fails the
    /// test instead of hanging it.
    #[test]
    fn automatic_checkpoint_truncates_and_recovers() {
        const PUTS: u64 = 32;
        let dir = rococo_wal::scratch_dir("svc-ckpt");
        let cfg = durable_cfg(dir.clone(), 8);
        let kv = TxKv::start(tiny(&cfg), cfg.clone()).unwrap();
        for k in 0..PUTS {
            let pending = kv
                .submit(Request::Put {
                    key: k,
                    value: k * 2,
                })
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            let reply = loop {
                if let Some(reply) = pending.try_wait() {
                    break reply;
                }
                if Instant::now() > deadline {
                    // Its workers are wedged: joining them would hang.
                    std::mem::forget(kv);
                    panic!("put {k} got no reply: a checkpoint wedged the workers");
                }
                std::thread::yield_now();
            };
            assert_eq!(reply.unwrap(), Response::Done);
        }
        let checkpoints = kv.shutdown().wal.unwrap().checkpoints;
        assert_eq!(checkpoints, PUTS / 8);

        let (kv, report) = TxKv::recover(tiny(&cfg), cfg).unwrap();
        // Sequences 0..PUTS: the last checkpoint covers up to the
        // watermark the last put left.
        assert_eq!(report.checkpoint_seq, Some(PUTS), "{report:?}");
        assert_eq!(report.replayed, 0, "{report:?}");
        for k in 0..PUTS {
            assert_eq!(
                kv.call(Request::Get { key: k }).unwrap(),
                Response::Value(k * 2)
            );
        }
        drop(kv);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manual_checkpoint_requires_durability() {
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 1,
            keys: 16,
            ..TxKvConfig::default()
        };
        let kv = TxKv::start(tiny(&cfg), cfg).unwrap();
        assert!(matches!(
            kv.checkpoint(),
            Err(TxKvError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn durable_start_rejects_used_backend() {
        let dir = rococo_wal::scratch_dir("svc-used");
        let cfg = durable_cfg(dir.clone(), 0);
        let tm = tiny(&cfg);
        // Burn a sequence number outside the service.
        use rococo_stm::Transaction;
        let addr = tm.heap().alloc(1);
        rococo_stm::atomically(&*tm, 0, |tx| tx.write(addr, 1));
        assert!(matches!(
            TxKv::start(tm, cfg),
            Err(TxKvError::InvalidConfig { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_invalid_requests_up_front() {
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 1,
            keys: 16,
            ..TxKvConfig::default()
        };
        let kv = TxKv::start(tiny(&cfg), cfg).unwrap();
        assert_eq!(
            kv.call(Request::Get { key: 16 }),
            Err(TxKvError::KeyOutOfRange { key: 16, keys: 16 })
        );
        assert_eq!(
            kv.call(Request::Transfer {
                from: 3,
                to: 99,
                amount: 1
            }),
            Err(TxKvError::KeyOutOfRange { key: 99, keys: 16 })
        );
        let big = vec![0u64; Request::MAX_MULTI_GET + 1];
        assert_eq!(
            kv.call(Request::MultiGet { keys: big }),
            Err(TxKvError::TooManyKeys {
                requested: Request::MAX_MULTI_GET + 1
            })
        );
        // Service still healthy afterwards.
        assert_eq!(
            kv.call(Request::Get { key: 0 }).unwrap(),
            Response::Value(0)
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = TxKvConfig {
            shards: 0,
            ..TxKvConfig::default()
        };
        let tm = Arc::new(TinyStm::with_config(TmConfig {
            heap_words: 1024,
            max_threads: 1,
        }));
        assert!(matches!(
            TxKv::start(Arc::clone(&tm), cfg),
            Err(TxKvError::InvalidConfig { .. })
        ));
        // Heap too small for the table.
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 1,
            keys: 1 << 20,
            ..TxKvConfig::default()
        };
        assert!(matches!(
            TxKv::start(tm, cfg),
            Err(TxKvError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn drop_without_shutdown_joins_workers() {
        let cfg = TxKvConfig {
            shards: 2,
            workers_per_shard: 2,
            keys: 32,
            ..TxKvConfig::default()
        };
        let kv = TxKv::start(tiny(&cfg), cfg).unwrap();
        kv.call(Request::Put { key: 0, value: 1 }).unwrap();
        drop(kv); // must not hang or leak threads
    }
}
