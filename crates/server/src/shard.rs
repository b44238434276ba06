//! Shard workers: the threads that drain a shard's queue and run each
//! request as one transaction.
//!
//! A worker allocates nothing per job or per batch: its batch list, and
//! the in-flight, retry and staged lists and write-set vectors of its
//! [`Scratch`], keep their capacity for the worker's life. With the queue
//! slot filled in place (`crate::hop`), the reply cell the client allocates
//! in `submit` is the only allocation the service adds to a `Get`; what is
//! left is the backend's own (each in-tree transaction allocates its read
//! set). `tests/alloc_per_request.rs` holds the service to that.

use crate::hop::{Replier, Reply, ShardQueue};
use crate::request::{Request, Response, TxKvError};
use crate::retry::execute_seq;
use crate::stats::ShardStats;
use parking_lot::RwLock;
use rococo_stm::{
    commit_deferred, finish_submitted, try_submit, Abort, Addr, PendingCommit, Submitted, TmSystem,
    Transaction,
};
use rococo_wal::{Wal, WalDead};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Ceiling on the jobs a worker pulls off its shard queue per
/// run-to-completion batch: the batch the pinned workloads were measured
/// with (EXPERIMENTS.md "Hazard-aware batching"). A batch's commits stay
/// in flight until it settles, so a deeper one also delays every reply.
const MAX_BATCH: usize = 16;

/// One queued request plus everything needed to answer it. The reply
/// carries the commit sequence number alongside the response (`None` for
/// read-only commits) so replication-aware clients can derive
/// read-your-writes watermarks; [`crate::PendingReply::wait`] drops it
/// for callers that do not care. A job dropped unanswered orphans its
/// reply cell: the client reads [`TxKvError::ShuttingDown`].
pub(crate) struct Job {
    pub(crate) req: Request,
    pub(crate) enqueued_at: Instant,
    /// Causal trace id minted at ingress (0 when the flight recorder was
    /// disabled at submit time). Workers re-stamp their thread's trace
    /// context from this id around every phase of the job's execution.
    pub(crate) trace: u64,
    pub(crate) reply: Replier,
}

/// The durable half of a worker's context: the WAL client it posts
/// committed write sets to, plus the rebasing offset (on-disk sequence =
/// `base_seq` + the backend's in-memory sequence, which restarts at 0
/// after recovery).
pub(crate) struct WorkerWal {
    pub(crate) wal: Wal,
    pub(crate) base_seq: u64,
}

/// Runs one request body inside an open transaction, recording the
/// key-space write set into `writes` (cleared first — each retry attempt
/// starts fresh). Shared by every retry attempt; all writes are buffered
/// until commit, so re-execution after an abort is safe.
fn apply<T: Transaction>(
    tx: &mut T,
    table: Addr,
    req: &Request,
    writes: &mut Vec<(u64, u64)>,
) -> Result<Response, Abort> {
    writes.clear();
    let addr = |key: u64| table + key as Addr;
    match req {
        Request::Get { key } => Ok(Response::Value(tx.read(addr(*key))?)),
        Request::Put { key, value } => {
            tx.write(addr(*key), *value)?;
            writes.push((*key, *value));
            Ok(Response::Done)
        }
        Request::Add { key, delta } => {
            let new = tx.read(addr(*key))?.wrapping_add(*delta);
            tx.write(addr(*key), new)?;
            writes.push((*key, new));
            Ok(Response::Value(new))
        }
        Request::Transfer { from, to, amount } => {
            let src = tx.read(addr(*from))?;
            if src < *amount {
                return Ok(Response::Transferred(false));
            }
            // A self-transfer succeeds but must not touch the balance:
            // writing `src - amount` then `dst + amount` to the same key
            // would mint money.
            if from != to {
                let dst = tx.read(addr(*to))?;
                tx.write(addr(*from), src - amount)?;
                tx.write(addr(*to), dst.wrapping_add(*amount))?;
                writes.push((*from, src - amount));
                writes.push((*to, dst.wrapping_add(*amount)));
            }
            Ok(Response::Transferred(true))
        }
        Request::MultiGet { keys } => {
            let mut out = Vec::with_capacity(keys.len());
            for key in keys {
                out.push(tx.read(addr(*key))?);
            }
            Ok(Response::Values(out))
        }
    }
}

/// Everything one worker thread needs: the backend, the key table, its
/// statistics, the shard queue and its seat at it, the checkpoint pause
/// gate, and (in durable mode) its WAL client.
pub(crate) struct WorkerCtx<S: TmSystem + ?Sized> {
    pub(crate) system: Arc<S>,
    pub(crate) table: Addr,
    pub(crate) thread_id: usize,
    pub(crate) stats: Arc<ShardStats>,
    pub(crate) queue: Arc<ShardQueue>,
    /// Which of the queue's parking spots is this worker's.
    pub(crate) seat: usize,
    pub(crate) pause: Arc<RwLock<()>>,
    pub(crate) wal: Option<WorkerWal>,
}

/// One submitted-but-unfinished job: the pending commit plus everything
/// needed to complete the reply once the verdict lands.
struct InFlight<'a, S: TmSystem + ?Sized + 'a> {
    job: Job,
    pending: <S::Tx<'a> as Transaction>::Pending,
    resp: Response,
    writes: Vec<(u64, u64)>,
}

/// Whether `req` would race the batch's own pipeline: it writes, and one
/// of its keys is in the write set of an in-flight commit whose writes
/// are still unpublished. It would read what that commit is about to
/// overwrite and overwrite it too — a cycle the validator must reject. A
/// read-only request is never a hazard: it serializes before them.
fn hazard<S: TmSystem + ?Sized>(req: &Request, inflight: &[InFlight<'_, S>]) -> bool {
    let mut hit = false;
    if !req.is_read_only() {
        req.for_each_key(|key| {
            hit |= inflight
                .iter()
                .any(|f| f.pending.in_flight() && f.writes.iter().any(|w| w.0 == key));
        });
    }
    hit
}

/// A commit [`WorkerEnv::post_commit`] has handed to the WAL, or one with
/// nothing to make durable (in-memory mode, a read-only commit).
#[derive(Clone, Copy)]
struct Posted {
    /// The sequence handed back to the client: the *on-disk* (rebased)
    /// one in durable mode — the number replication watermarks are
    /// expressed in, and the one the reply waits for.
    seq: Option<u64>,
    /// Writes in the record the WAL holds; `None` when it holds none.
    logged: Option<u32>,
}

/// A committed job of the batch being drained: its commit is posted, its
/// reply waits for the durable watermark.
struct Staged {
    job: Job,
    resp: Response,
    posted: Result<Posted, WalDead>,
}

/// The lists a worker reuses from job to job and batch to batch; all are
/// empty between batches and keep their capacity.
struct Scratch<'a, S: TmSystem + ?Sized + 'a> {
    inflight: Vec<InFlight<'a, S>>,
    retry: Vec<Job>,
    staged: Vec<Staged>,
    /// Write-set vectors not in use. A job takes one; an [`InFlight`]
    /// keeps it until its verdict lands and [`WorkerEnv::drain`] puts it
    /// back, so there are never more than `MAX_BATCH + 1` of them.
    spare: Vec<Vec<(u64, u64)>>,
}

impl<'a, S: TmSystem + ?Sized + 'a> Scratch<'a, S> {
    fn new() -> Self {
        Self {
            inflight: Vec::with_capacity(MAX_BATCH),
            retry: Vec::with_capacity(MAX_BATCH),
            staged: Vec::with_capacity(MAX_BATCH),
            spare: Vec::with_capacity(MAX_BATCH + 1),
        }
    }
}

/// The per-worker execution environment shared by the batched fast path
/// and the synchronous fallback.
struct WorkerEnv<'a, S: TmSystem + ?Sized> {
    system: &'a S,
    table: Addr,
    thread_id: usize,
    stats: &'a ShardStats,
    wal: &'a Option<WorkerWal>,
}

impl<'a, S: TmSystem + ?Sized> WorkerEnv<'a, S> {
    /// Posts the committed write set to the WAL (durable mode) without
    /// waiting for it. Read-only commits (seq `None`) have nothing to make
    /// durable.
    fn post_commit(&self, seq: Option<u64>, writes: &[(u64, u64)]) -> Result<Posted, WalDead> {
        let (Some(w), Some(tm_seq)) = (self.wal, seq) else {
            return Ok(Posted { seq, logged: None });
        };
        let seq = w.base_seq + tm_seq;
        w.wal.post(seq, writes)?;
        Ok(Posted {
            seq: Some(seq),
            logged: Some(writes.len() as u32),
        })
    }

    /// Builds the client reply of a commit [`WorkerEnv::post_commit`]
    /// posted, once the durable watermark has passed it — an `Ok` never
    /// leaves before.
    fn durable_reply(&self, resp: Response, posted: Result<Posted, WalDead>) -> Reply {
        let durable = posted.and_then(|posted| {
            if let (Some(w), Some(seq), Some(writes)) = (self.wal, posted.seq, posted.logged) {
                w.wal.wait_durable(seq)?;
                rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::WalAppend { seq, writes });
            }
            Ok(posted.seq)
        });
        match durable {
            Ok(client_seq) => {
                self.stats.committed.fetch_add(1, Ordering::Relaxed);
                Ok((resp, client_seq))
            }
            Err(WalDead) => {
                self.stats.durability_lost.fetch_add(1, Ordering::Relaxed);
                if rococo_telemetry::enabled() {
                    rococo_telemetry::emit(rococo_telemetry::TxEvent::DurabilityLost);
                    rococo_telemetry::dump_anomaly("durability-lost");
                }
                Err(TxKvError::DurabilityLost)
            }
        }
    }

    /// The synchronous paths' commit: post, wait, reply.
    fn committed_reply(&self, resp: Response, seq: Option<u64>, writes: &[(u64, u64)]) -> Reply {
        self.durable_reply(resp, self.post_commit(seq, writes))
    }

    /// Releases the batch's staged replies in commit order once the
    /// durable watermark has passed them: one wait, for the last record
    /// posted, covers every one before it.
    fn release(&self, staged: &mut Vec<Staged>) {
        let logged = |s: &Staged| s.posted.ok().filter(|p| p.logged.is_some())?.seq;
        if let (Some(w), Some(last)) = (self.wal, staged.iter().rev().find_map(logged)) {
            // The outcome is read per reply below.
            let _ = w.wal.wait_durable(last);
        }
        for s in staged.drain(..) {
            // The durable ack belongs to *this* request's chain.
            rococo_telemetry::set_current_trace(s.job.trace);
            let reply = self.durable_reply(s.resp, s.posted);
            self.send_reply(s.job, reply, false);
        }
    }

    /// Answers `job`, recording end-to-end latency, emitting the
    /// trace-closing `Reply` event, and offering the finished request to
    /// the tail sampler. `force_sample` marks requests the sampler must
    /// keep regardless of latency (retried, deferred, panicked) —
    /// errored replies are always force-kept. The client may have
    /// dropped its PendingReply; that is not the worker's problem.
    fn send_reply(&self, job: Job, reply: Reply, force_sample: bool) {
        let latency_ns = job.enqueued_at.elapsed().as_nanos() as u64;
        self.stats.latency.record(latency_ns);
        if job.trace != 0 {
            rococo_telemetry::set_current_trace(job.trace);
            let outcome = match &reply {
                Ok(_) => "ok",
                Err(e) => e.label(),
            };
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Reply { outcome });
            rococo_telemetry::observe_request(
                job.trace,
                latency_ns,
                force_sample || reply.is_err(),
            );
            rococo_telemetry::clear_current_trace();
        }
        job.reply.answer(reply);
    }

    /// Counts a caught backend panic and dumps the flight recorder.
    fn note_panic(&self) {
        self.stats.panics.fetch_add(1, Ordering::Relaxed);
        self.stats.failed.fetch_add(1, Ordering::Relaxed);
        if rococo_telemetry::enabled() {
            rococo_telemetry::emit(rococo_telemetry::TxEvent::WorkerPanic);
            rococo_telemetry::dump_anomaly("worker-panic");
        }
    }

    /// Runs `job` fully synchronously, retrying with backoff — the
    /// fallback for jobs whose asynchronous attempt aborted (counted via
    /// `prior_attempts`) or whose backend demanded a synchronous commit.
    ///
    /// Must only be called with **no pending commits outstanding**: the
    /// backend's `begin` may escalate to the exclusive commit gate, which
    /// would deadlock against this worker's own read guards.
    ///
    /// `writes` is a spare write-set vector to collect into.
    fn run_sync(&self, rng: &mut u64, job: Job, prior_attempts: u32, writes: &mut Vec<(u64, u64)>) {
        // Re-attribute this thread's events to the job (another job's
        // transaction may have run on this thread since the
        // asynchronous attempt) and re-tag its scheduling class.
        rococo_telemetry::set_current_trace(job.trace);
        self.system.set_tx_class(self.thread_id, job.req.class());
        let result = catch_unwind(AssertUnwindSafe(|| {
            execute_seq(
                self.system,
                self.thread_id,
                |tx| apply(tx, self.table, &job.req, writes),
                |kind| self.stats.record_abort(kind),
                rng,
            )
        }));
        match result {
            Ok(Ok((resp, seq, attempts))) => {
                self.stats.retries.fetch_add(
                    u64::from(attempts - 1) + u64::from(prior_attempts),
                    Ordering::Relaxed,
                );
                let reply = self.committed_reply(resp, seq, writes);
                // A request that needed more than one attempt is tail
                // material even if it eventually committed fast.
                let retried = prior_attempts > 0 || attempts > 1;
                self.send_reply(job, reply, retried);
            }
            Ok(Err((abort, attempts))) => {
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
                self.stats.retries.fetch_add(
                    u64::from(attempts - 1) + u64::from(prior_attempts),
                    Ordering::Relaxed,
                );
                self.send_reply(
                    job,
                    Err(TxKvError::RetriesExhausted {
                        attempts: attempts + prior_attempts,
                        last: abort.kind,
                    }),
                    true,
                );
            }
            Err(_panic) => {
                self.note_panic();
                self.send_reply(job, Err(TxKvError::Internal), true);
            }
        }
    }

    /// Finishes every in-flight commit in submission (= verdict) order,
    /// posting each committed write set to the WAL as its verdict lands and
    /// staging its reply (and every later one of the batch); releases the
    /// staged replies once the batch's last record is durable; then
    /// synchronously retries the jobs whose verdict was an abort.
    ///
    /// The retries run strictly *after* the drain: an abort bumps the
    /// backend's escalation counter, and a subsequent `begin` may then
    /// block on the exclusive commit gate — safe only once none of our
    /// own pendings still hold gate read guards.
    fn drain(&self, rng: &mut u64, scratch: &mut Scratch<'a, S>) {
        let Scratch {
            inflight,
            retry,
            staged,
            spare,
        } = scratch;
        for f in inflight.drain(..) {
            let InFlight {
                job,
                pending,
                resp,
                writes,
            } = f;
            // The verdict/commit events for this pending must be
            // attributed to *its* request, not whichever job this
            // thread processed last.
            rococo_telemetry::set_current_trace(job.trace);
            match catch_unwind(AssertUnwindSafe(|| finish_submitted(self.system, pending))) {
                Ok(Ok(seq)) => {
                    let posted = self.post_commit(seq, &writes);
                    // A reply waits behind the batch's first logged
                    // record, as it did when every append blocked; with
                    // none ahead of it (in-memory mode, leading reads)
                    // there is nothing to wait for.
                    let logged = posted.is_ok_and(|p| p.logged.is_some());
                    if logged || !staged.is_empty() {
                        staged.push(Staged { job, resp, posted });
                    } else {
                        let reply = self.durable_reply(resp, posted);
                        self.send_reply(job, reply, false);
                    }
                }
                Ok(Err(abort)) => {
                    self.stats.record_abort(abort.kind);
                    retry.push(job);
                }
                Err(_panic) => {
                    self.note_panic();
                    self.send_reply(job, Err(TxKvError::Internal), true);
                }
            }
            spare.push(writes);
        }
        self.release(staged);
        if !retry.is_empty() {
            let mut writes = spare.pop().unwrap_or_default();
            for job in retry.drain(..) {
                self.run_sync(rng, job, 1, &mut writes);
            }
            spare.push(writes);
        }
    }
}

/// The worker loop: drain the shard queue until it is closed and empty
/// (service shutdown), executing jobs in run-to-completion batches and
/// recording per-shard statistics.
///
/// Each batch pulls up to [`MAX_BATCH`] queued jobs (one blocking
/// `next_job`, then non-blocking `try_next_job`s — an empty queue never
/// delays a lone request), executes each to its validation point, submits
/// the commits asynchronously, and completes them in verdict order. The
/// validator round-trip is thereby amortised across each hazard-free run
/// of jobs (the paper's Figure 6 pipelining, applied at the worker level)
/// instead of being paid once per job: a job that would race an
/// unpublished commit of its own batch ([`hazard`]) drains the batch
/// first. Jobs the backend cannot commit asynchronously (synchronous
/// backends use a pre-settled pending; ROCoCoTM defers irrevocable or
/// gate-contended commits) fall back to the synchronous retry path after
/// the outstanding batch is drained.
///
/// A batch runs under a read lock on `pause`, held across the
/// transactions, the WAL posts and the wait for the durable watermark —
/// the checkpoint coordinator takes the write lock to quiesce commits, so
/// while it holds it there is no fetched-but-unposted sequence number
/// anywhere and the WAL's ring is drained.
///
/// A panicking backend does not kill the worker: the panic is caught,
/// reported as [`TxKvError::Internal`], and counted, so the shard queue
/// keeps draining (a wedged queue would hang every client of the shard).
pub(crate) fn run_worker<S: TmSystem + ?Sized>(ctx: WorkerCtx<S>) {
    let WorkerCtx {
        system,
        table,
        thread_id,
        stats,
        queue,
        seat,
        pause,
        wal,
    } = ctx;
    let env = WorkerEnv {
        system: &*system,
        table,
        thread_id,
        stats: &stats,
        wal: &wal,
    };
    // Per-worker jitter state; any distinct nonzero seed works.
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((thread_id as u64 + 1) << 17);
    let mut batch: Vec<Job> = Vec::with_capacity(MAX_BATCH);
    let mut scratch: Scratch<'_, S> = Scratch::new();
    while let Some(first) = queue.next_job(seat) {
        batch.push(first);
        while batch.len() < MAX_BATCH {
            match queue.try_next_job() {
                Some(job) => batch.push(job),
                None => break,
            }
        }
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats
            .batch_jobs
            .fetch_add(batch.len() as u64, Ordering::Relaxed);

        let pause_guard = pause.read();
        for job in batch.drain(..) {
            if hazard(&job.req, &scratch.inflight) {
                stats.hazard_drains.fetch_add(1, Ordering::Relaxed);
                env.drain(&mut rng, &mut scratch);
            }
            // Stamp this thread's trace context from the job so every
            // downstream event (route, begin, validate, verdict,
            // commit, WAL ack) is attributed to the request's chain.
            rococo_telemetry::set_current_trace(job.trace);
            if job.trace != 0 {
                rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Dequeue {
                    wait_ns: job.enqueued_at.elapsed().as_nanos() as u64,
                });
            }
            // Tag the transaction with the op-type scheduling class
            // before it begins — a no-op on non-routing backends, the
            // router's footprint-prediction key on the hybrid.
            env.system.set_tx_class(thread_id, job.req.class());
            let mut writes = scratch.spare.pop().unwrap_or_default();
            let submitted = catch_unwind(AssertUnwindSafe(|| {
                try_submit(env.system, thread_id, &mut |tx| {
                    apply(tx, table, &job.req, &mut writes)
                })
            }));
            match submitted {
                Ok(Submitted::Pending(pending, resp)) => {
                    scratch.inflight.push(InFlight {
                        job,
                        pending,
                        resp,
                        writes,
                    });
                    continue;
                }
                Ok(Submitted::Deferred(tx, resp)) => {
                    // The backend demands a synchronous commit (e.g. an
                    // irrevocable transaction, or a waiting escalation
                    // writer on the commit gate). Settle the outstanding
                    // pendings first so the blocking commit cannot
                    // deadlock against our own read guards.
                    stats.deferred.fetch_add(1, Ordering::Relaxed);
                    env.drain(&mut rng, &mut scratch);
                    // The drain re-stamped the trace context for its own
                    // jobs; restore this job's before its commit.
                    rococo_telemetry::set_current_trace(job.trace);
                    match catch_unwind(AssertUnwindSafe(|| commit_deferred(env.system, tx))) {
                        Ok(Ok(seq)) => {
                            let reply = env.committed_reply(resp, seq, &writes);
                            // Deferred commits mark escalation or gate
                            // contention: always tail-sample them.
                            env.send_reply(job, reply, true);
                        }
                        Ok(Err(abort)) => {
                            stats.record_abort(abort.kind);
                            env.run_sync(&mut rng, job, 1, &mut writes);
                        }
                        Err(_panic) => {
                            env.note_panic();
                            env.send_reply(job, Err(TxKvError::Internal), true);
                        }
                    }
                }
                Ok(Submitted::Aborted(abort)) => {
                    stats.record_abort(abort.kind);
                    env.drain(&mut rng, &mut scratch);
                    env.run_sync(&mut rng, job, 1, &mut writes);
                }
                Err(_panic) => {
                    env.note_panic();
                    env.send_reply(job, Err(TxKvError::Internal), true);
                }
            }
            // Every path but the in-flight one is done with its write set.
            scratch.spare.push(writes);
        }
        // Run to completion before blocking in `next_job` again: an
        // unfinished pending holds a commit-gate guard and (under ROCoCoTM)
        // an unpublished sequence number the whole system waits on.
        env.drain(&mut rng, &mut scratch);
        drop(pause_guard);
    }
    rococo_telemetry::flush_thread();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rococo_stm::{try_atomically, RococoTm, TinyStm, TmConfig};

    const CONFIG: TmConfig = TmConfig {
        heap_words: 256,
        max_threads: 2,
    };

    fn tm() -> (TinyStm, Addr) {
        let tm = TinyStm::with_config(CONFIG);
        let table = tm.heap().alloc(64);
        (tm, table)
    }

    /// Runs `req` to its submit point on thread 0, as the worker does,
    /// and keeps the commit in flight.
    fn submitted<S: TmSystem>(system: &S, table: Addr, req: Request) -> InFlight<'_, S> {
        let mut writes = Vec::new();
        let outcome = try_submit(system, 0, &mut |tx| apply(tx, table, &req, &mut writes));
        let Submitted::Pending(pending, resp) = outcome else {
            panic!("{req:?} did not reach its submit point");
        };
        let job = Job {
            req,
            enqueued_at: Instant::now(),
            trace: 0,
            reply: crate::hop::reply_pair().0,
        };
        InFlight {
            job,
            pending,
            resp,
            writes,
        }
    }

    /// The requests that touch key 3, by whether they write.
    fn on_key_3() -> ([Request; 3], [Request; 2]) {
        let writers = [
            Request::Add { key: 3, delta: 1 },
            Request::Put { key: 3, value: 9 },
            Request::Transfer {
                from: 5,
                to: 3,
                amount: 1,
            },
        ];
        let readers = [
            Request::Get { key: 3 },
            Request::MultiGet { keys: vec![2, 3] },
        ];
        (writers, readers)
    }

    #[test]
    fn a_write_to_a_key_the_batch_has_in_flight_is_a_hazard_until_finished() {
        let tm = RococoTm::with_config(CONFIG);
        let t = tm.heap().alloc(64);
        let mut inflight = vec![submitted(&tm, t, Request::Add { key: 3, delta: 1 })];
        assert!(inflight[0].pending.in_flight());
        let (writers, readers) = on_key_3();
        for req in &writers {
            assert!(hazard(req, &inflight), "{req:?}");
        }
        for req in &readers {
            assert!(!hazard(req, &inflight), "a read is never a hazard: {req:?}");
        }
        assert!(!hazard(&Request::Add { key: 4, delta: 1 }, &inflight));
        let f = inflight.pop().unwrap();
        assert_eq!(finish_submitted(&tm, f.pending), Ok(Some(0)));
        assert!(!hazard(&writers[0], &inflight));
    }

    #[test]
    fn a_commit_with_nothing_in_flight_is_never_a_hazard() {
        let (writers, _) = on_key_3();
        // A declined transfer writes nothing.
        let rococo = RococoTm::with_config(CONFIG);
        let t = rococo.heap().alloc(64);
        let declined = Request::Transfer {
            from: 3,
            to: 4,
            amount: 1,
        };
        let inflight = vec![submitted(&rococo, t, declined)];
        assert!(inflight[0].writes.is_empty());
        for req in &writers {
            assert!(!hazard(req, &inflight), "{req:?}");
        }
        // TinySTM settles at submission: its writes are already published.
        let (tiny, t) = tm();
        let inflight = vec![submitted(&tiny, t, Request::Add { key: 3, delta: 1 })];
        assert_eq!(inflight[0].writes, vec![(3, 1)]);
        assert!(!inflight[0].pending.in_flight());
        for req in &writers {
            assert!(!hazard(req, &inflight), "{req:?}");
        }
    }

    fn run_with_writes(tm: &TinyStm, table: Addr, req: Request) -> (Response, Vec<(u64, u64)>) {
        let mut writes = Vec::new();
        let resp = try_atomically(tm, 0, &mut |tx| apply(tx, table, &req, &mut writes))
            .expect("request transaction aborted");
        (resp, writes)
    }

    fn run(tm: &TinyStm, table: Addr, req: Request) -> Response {
        run_with_writes(tm, table, req).0
    }

    #[test]
    fn apply_request_semantics() {
        let (tm, t) = tm();
        assert_eq!(
            run(&tm, t, Request::Put { key: 3, value: 10 }),
            Response::Done
        );
        assert_eq!(run(&tm, t, Request::Get { key: 3 }), Response::Value(10));
        assert_eq!(
            run(&tm, t, Request::Add { key: 3, delta: 5 }),
            Response::Value(15)
        );
        assert_eq!(
            run(
                &tm,
                t,
                Request::Transfer {
                    from: 3,
                    to: 4,
                    amount: 6
                }
            ),
            Response::Transferred(true)
        );
        assert_eq!(
            run(&tm, t, Request::MultiGet { keys: vec![3, 4] }),
            Response::Values(vec![9, 6])
        );
    }

    #[test]
    fn apply_collects_the_write_set() {
        let (tm, t) = tm();
        let (_, w) = run_with_writes(&tm, t, Request::Put { key: 7, value: 3 });
        assert_eq!(w, vec![(7, 3)]);
        let (_, w) = run_with_writes(&tm, t, Request::Add { key: 7, delta: 2 });
        assert_eq!(w, vec![(7, 5)]);
        let (_, w) = run_with_writes(
            &tm,
            t,
            Request::Transfer {
                from: 7,
                to: 8,
                amount: 4,
            },
        );
        assert_eq!(w, vec![(7, 1), (8, 4)]);
        // Reads and declined transfers write nothing.
        let (_, w) = run_with_writes(&tm, t, Request::Get { key: 7 });
        assert!(w.is_empty());
        let (resp, w) = run_with_writes(
            &tm,
            t,
            Request::Transfer {
                from: 7,
                to: 8,
                amount: 999,
            },
        );
        assert_eq!(resp, Response::Transferred(false));
        assert!(w.is_empty());
        // Self-transfer commits but moves nothing.
        let (_, w) = run_with_writes(
            &tm,
            t,
            Request::Transfer {
                from: 8,
                to: 8,
                amount: 1,
            },
        );
        assert!(w.is_empty());
    }

    #[test]
    fn transfer_declines_on_insufficient_balance() {
        let (tm, t) = tm();
        run(&tm, t, Request::Put { key: 0, value: 5 });
        assert_eq!(
            run(
                &tm,
                t,
                Request::Transfer {
                    from: 0,
                    to: 1,
                    amount: 6
                }
            ),
            Response::Transferred(false)
        );
        // Nothing moved.
        assert_eq!(run(&tm, t, Request::Get { key: 0 }), Response::Value(5));
        assert_eq!(run(&tm, t, Request::Get { key: 1 }), Response::Value(0));
    }

    #[test]
    fn self_transfer_conserves_balance() {
        let (tm, t) = tm();
        run(&tm, t, Request::Put { key: 2, value: 50 });
        assert_eq!(
            run(
                &tm,
                t,
                Request::Transfer {
                    from: 2,
                    to: 2,
                    amount: 10
                }
            ),
            Response::Transferred(true)
        );
        assert_eq!(run(&tm, t, Request::Get { key: 2 }), Response::Value(50));
    }

    #[test]
    fn add_wraps() {
        let (tm, t) = tm();
        run(
            &tm,
            t,
            Request::Put {
                key: 1,
                value: u64::MAX,
            },
        );
        assert_eq!(
            run(&tm, t, Request::Add { key: 1, delta: 2 }),
            Response::Value(1)
        );
    }
}
