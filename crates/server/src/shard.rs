//! Shard workers: the threads that drain a shard's queue and run each
//! request as one transaction.
//!
//! A worker allocates nothing per job or per batch: its batch list, its
//! staged replies and its write-set vector keep their capacity for the
//! worker's life. With the queue slot filled in place (`crate::hop`), the
//! reply cell the client allocates in `submit` is the only allocation the
//! service adds to a `Get`; what is left is the backend's own (each in-tree
//! transaction allocates its read set). `tests/alloc_per_request.rs` holds
//! the service to that.

use crate::hop::{Replier, Reply, ShardQueue};
use crate::request::{Request, Response, TxKvError};
use crate::retry::execute_seq;
use crate::stats::ShardStats;
use parking_lot::RwLock;
use rococo_stm::{Abort, Addr, TmSystem, Transaction};
use rococo_wal::{Wal, WalDead};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Ceiling on the jobs a worker pulls off its shard queue per batch: the
/// batch the pinned workloads were measured with. Every job commits and
/// publishes before the next one begins, so a deeper batch only delays
/// the replies staged behind its one durable wait.
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

/// A committed job of the current batch: its commit is posted, its reply
/// waits for the durable watermark.
struct Staged {
    job: Job,
    resp: Response,
    posted: Result<Posted, WalDead>,
    /// It took more than one attempt: the tail sampler keeps it.
    retried: bool,
}

/// The per-worker execution environment.
struct WorkerEnv<'a, S: TmSystem + ?Sized> {
    system: &'a S,
    table: Addr,
    thread_id: usize,
    stats: &'a ShardStats,
    wal: &'a Option<WorkerWal>,
}

impl<S: TmSystem + ?Sized> WorkerEnv<'_, S> {
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
            self.send_reply(s.job, reply, s.retried);
        }
    }

    /// Answers `job`, recording end-to-end latency, emitting the
    /// trace-closing `Reply` event, and offering the finished request to
    /// the tail sampler. `force_sample` marks requests the sampler must
    /// keep regardless of latency (retried, panicked) — errored replies
    /// are always force-kept. The client may have dropped its
    /// PendingReply; that is not the worker's problem.
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

    /// Runs `job` to its reply. [`execute_seq`] commits it (the first
    /// attempt without backoff) — the backend validates and publishes
    /// inside the commit — and the write set is posted to the WAL at
    /// once. The reply leaves at once too, unless a commit ahead of it in
    /// the batch is still waiting to become durable: then it is staged
    /// for [`WorkerEnv::release`]. An error reply promises nothing durable
    /// and never waits.
    ///
    /// `writes` is the worker's write-set vector to collect into.
    fn run(&self, rng: &mut u64, job: Job, writes: &mut Vec<(u64, u64)>, staged: &mut Vec<Staged>) {
        // Stamp this thread's trace context from the job so every
        // downstream event (route, begin, validate, verdict, commit, WAL
        // ack) is attributed to the request's chain.
        rococo_telemetry::set_current_trace(job.trace);
        if job.trace != 0 {
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Dequeue {
                wait_ns: job.enqueued_at.elapsed().as_nanos() as u64,
            });
        }
        // Tag the transaction with the op-type scheduling class before it
        // begins — a no-op on non-routing backends, the router's
        // footprint-prediction key on the hybrid.
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
                self.stats
                    .retries
                    .fetch_add(u64::from(attempts - 1), Ordering::Relaxed);
                let posted = self.post_commit(seq, writes);
                // A request that needed more than one attempt is tail
                // material even if it eventually committed fast.
                let retried = attempts > 1;
                // A reply waits behind the batch's first logged record, as
                // it did when every append blocked; with none ahead of it
                // (in-memory mode, leading reads) there is nothing to wait
                // for.
                let logged = posted.is_ok_and(|p| p.logged.is_some());
                if logged || !staged.is_empty() {
                    staged.push(Staged {
                        job,
                        resp,
                        posted,
                        retried,
                    });
                } else {
                    let reply = self.durable_reply(resp, posted);
                    self.send_reply(job, reply, retried);
                }
            }
            Ok(Err((abort, attempts))) => {
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .retries
                    .fetch_add(u64::from(attempts - 1), Ordering::Relaxed);
                let reply = Err(TxKvError::RetriesExhausted {
                    attempts,
                    last: abort.kind,
                });
                self.send_reply(job, reply, true);
            }
            Err(_panic) => {
                self.note_panic();
                self.send_reply(job, Err(TxKvError::Internal), true);
            }
        }
    }
}

/// The worker loop: drain the shard queue until it is closed and empty
/// (service shutdown), running each job to its reply and recording
/// per-shard statistics.
///
/// Each batch pulls up to [`MAX_BATCH`] queued jobs (one blocking
/// `next_job`, then non-blocking `try_next_job`s — an empty queue never
/// delays a lone request) and runs them one after the other
/// ([`WorkerEnv::run`]). A job's commit is validated and published before
/// the next job begins, so no job of a batch can race another; what the
/// batch shares is durability: one wait for its last logged record
/// releases every reply staged behind it.
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
    let mut staged: Vec<Staged> = Vec::with_capacity(MAX_BATCH);
    let mut writes = Vec::new();
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
            env.run(&mut rng, job, &mut writes, &mut staged);
        }
        // Answer the staged replies before blocking in `next_job` again:
        // their clients are waiting.
        env.release(&mut staged);
        drop(pause_guard);
    }
    rococo_telemetry::flush_thread();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rococo_stm::{try_atomically, TinyStm, TmConfig};

    const CONFIG: TmConfig = TmConfig {
        heap_words: 256,
        max_threads: 2,
    };

    fn tm() -> (TinyStm, Addr) {
        let tm = TinyStm::with_config(CONFIG);
        let table = tm.heap().alloc(64);
        (tm, table)
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
