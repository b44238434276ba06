//! The request hop: how a request gets from the client that submits it to
//! a worker of its shard, and how the reply gets back.
//!
//! Two pieces, both safe Rust. The [`ShardQueue`] is one bounded
//! multi-producer multi-consumer ring per shard: clients claim positions
//! with a CAS on `tail`, the shard's workers with a CAS on `head`, and a
//! per-slot ticket says whose turn the slot is (Vyukov's bounded queue).
//! The reply does not travel through the ring. Each request has a one-shot
//! [reply cell](ReplyCell) of its own — one small `Arc`, shared by the
//! [`Replier`] inside the [`Job`] and the [`PendingReply`] the client holds.
//! A slot is therefore free again the moment a worker has taken the job out
//! of it: `queue_capacity` bounds the jobs *queued*, not the replies
//! outstanding, and a client that sits on a `PendingReply` holds up nobody's
//! admission.
//!
//! # Queue slot lifecycle
//!
//! Ring position `pos` lives in slot `pos % depth`, `depth` the capacity
//! rounded up to a power of two (at least 2: a published slot must not look
//! like the next lap's free one). The slot's `seq` word says which position
//! it is ready for:
//!
//! | state | `seq` | `job` | entered by |
//! |---|---|---|---|
//! | free | `pos` | `None` | [`ShardQueue::new`] (first lap), or the worker that took `pos − depth` |
//! | claimed | `pos` | `None` | a client winning the CAS on `tail` ([`ShardQueue::post`]) |
//! | published | `pos + 1` | `Some` | that client's `SeqCst` store of `seq`, after it put the job in under the slot's lock |
//! | taken | `pos + 1` | `Some` | a worker winning the CAS on `head` ([`ShardQueue::try_next_job`]) |
//! | free | `pos + depth` | `None` | that worker's store of `seq`, after it moved the job out |
//!
//! Only the client that claimed `pos` fills its slot and only the worker
//! that took `pos` empties it, so a slot's lock is never contended; it is
//! there because this crate forbids `unsafe`.
//!
//! # Admission
//!
//! A request is shed when `queue_capacity` jobs are queued — claimed,
//! published or taken-but-not-yet-moved-out — and only then, at the
//! configured capacity exactly, power of two or not. The count is
//! `tail − head`, but a client does not read the workers' `head` to admit a
//! job: it reads `head_seen`, a cache of `head` that clients refresh with
//! `fetch_max`, so `head_seen ≤ head` always and a stale cache can only
//! overestimate the count. Only when `tail − head_seen` says full does
//! `post` read `head` itself, raise `head_seen` to it, and refuse if a
//! fresh `tail − head` is still full with `tail` standing still across
//! that read of `head`. So a refusal is decided on a fresh count, and on
//! the fast path no client touches the line the workers' CAS writes. A slot
//! whose previous occupant is taken but not yet moved out makes the client
//! retry, not shed: fewer than `queue_capacity` jobs are queued, the slot is
//! free in a moment. Every position a client claims is published, so `tail`
//! is also the number of jobs the queue ever admitted
//! ([`ShardQueue::admitted`], the shard's `enqueued` counter).
//!
//! # What crosses the hop
//!
//! Per request, the lines both sides write are the slot and the reply cell,
//! plus a [`Parker`]'s flag around a park; every other word below has one
//! writing side. A change that adds a shared write adds a row.
//!
//! | word or line | written by | read by |
//! |---|---|---|
//! | the slot (`seq` and the job) | the client that claimed it, then the worker that takes it | both |
//! | the reply cell (state, reply, the client's [`Parker`]) | the worker, then the client | both |
//! | a worker's [`Parker`] | that worker before it parks, the client that wakes it | clients, to find a sleeper |
//! | `tail` | clients (CAS) | clients, and the report ([`ShardQueue::admitted`]) |
//! | `head_seen` | a client whose cached count says full (`fetch_max`) | clients |
//! | `head` | workers (CAS) | workers, and a client before it refuses |
//! | `closed` | [`ShardQueue::close`], once | both |
//! | the shard's `ShardStats` | workers, and a client that sheds | the report |
//!
//! # Reply cell lifecycle
//!
//! | state | entered by | what the other side sees |
//! |---|---|---|
//! | empty | [`reply_pair`] | the client polls, then parks |
//! | answered | the worker ([`Replier::answer`]), after it stored the reply under the cell's lock | the client's wait ends |
//! | taken | the client moving the reply out ([`PendingReply::wait`], [`PendingReply::try_wait`]) | — the worker's half is gone |
//! | abandoned | the client dropping its `PendingReply` while the cell is empty | the worker answers into the void: the reply is dropped with the cell, nobody is woken |
//! | orphaned | a [`Job`] dropped unanswered — refused by [`ShardQueue::post`], or still queued when its queue is dropped | the client's wait ends with [`TxKvError::ShuttingDown`] |
//!
//! Every transition is a compare-exchange from the one state it may leave,
//! so answered/abandoned and orphaned/abandoned races have one winner.
//!
//! # Waiting
//!
//! A worker out of jobs and a client out of replies both wait with
//! [`Parker::wait`] (`park.rs`): look, yield, look again for [`HOP_POLL`],
//! then publish `sleeping`, re-check and park. A client wakes a worker — the
//! first it finds asleep, each worker has a [`Parker`] of its own — after it
//! published a job, a worker wakes the client after it answered, both
//! through [`Parker::wake`], which makes the `unpark` call only when the
//! other side published `sleeping`. A busy hop makes no system call in
//! either direction.
//!
//! # Stop and panics
//!
//! [`ShardQueue::close`] refuses every later `post` with
//! [`Refused::Closed`] and wakes every worker; a worker leaves once the
//! queue is closed *and* drained, so whatever was queued is answered first.
//! A `post` that passed the closed check while `close` ran may publish after
//! the last worker left: that job stays in its slot until the queue is
//! dropped, and dropping it orphans its cell — no client waits for ever. A
//! worker catches a panicking backend and answers
//! [`TxKvError::Internal`](crate::TxKvError::Internal); should the worker
//! itself die, the jobs it holds are dropped by the unwinding, and orphaned.

use crate::park::Parker;
use crate::request::{Response, TxKvError};
use crate::shard::Job;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a worker out of jobs, or a client out of replies, polls before
/// it parks. The partner is a thread that needs a CPU to make progress at
/// all, and with clients and workers on two vCPUs a waiter that polls for
/// long polls on the CPU the other side needs (the old WAL writer thread's
/// 150 µs budget cost the service 3× here). Long enough to ride out the
/// gap between two batches, no longer; sized by sweep on the 2-vCPU
/// reference box (EXPERIMENTS.md, "Request hop"), not a knob. A waiter
/// offers its CPU between any two looks (same sweep).
pub(crate) const HOP_POLL: Duration = Duration::from_micros(5);

/// `T` on a cache line of its own, so a word one side hammers does not
/// share a line with a word the other side polls.
#[repr(align(64))]
#[derive(Default)]
struct Padded<T>(T);

/// Every critical section here is one whole assignment of an `Option`, so
/// a poisoned lock is taken over as it stands.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---- the reply cell --------------------------------------------------------

/// What a worker answers: the response plus the commit sequence number
/// (`None` for read-only commits), or why there is no response.
pub(crate) type Reply = Result<(Response, Option<u64>), TxKvError>;

const EMPTY: u8 = 0;
const ANSWERED: u8 = 1;
const TAKEN: u8 = 2;
const ABANDONED: u8 = 3;
const ORPHANED: u8 = 4;

#[derive(Debug)]
struct ReplyCell {
    /// [`EMPTY`] → [`ANSWERED`] → [`TAKEN`], or [`EMPTY`] → [`ABANDONED`],
    /// or [`EMPTY`] → [`ORPHANED`].
    state: AtomicU8,
    /// Locked by the worker before it publishes [`ANSWERED`] and by the
    /// client after it has seen it, never at once.
    reply: Mutex<Option<Reply>>,
    /// Where the one client holding the [`PendingReply`] sleeps.
    waiter: Parker,
}

impl ReplyCell {
    /// Leaves `from` for `to`, or reports the state found instead.
    fn step(&self, from: u8, to: u8) -> Result<(), u8> {
        self.state
            .compare_exchange(from, to, Ordering::SeqCst, Ordering::SeqCst)
            .map(drop)
    }

    /// empty → `to` ([`ANSWERED`] or [`ORPHANED`]), waking the client if it
    /// sleeps. The client may have abandoned the cell; that is not the
    /// worker's problem.
    fn settle(&self, to: u8) {
        match self.step(EMPTY, to) {
            Ok(()) => {
                self.waiter.wake();
            }
            Err(found) => debug_assert_eq!(found, ABANDONED, "cell in state {found} settled {to}"),
        }
    }
}

/// A fresh reply cell: the worker's half, to travel in the [`Job`], and the
/// client's.
pub(crate) fn reply_pair() -> (Replier, PendingReply) {
    let cell = Arc::new(ReplyCell {
        state: AtomicU8::new(EMPTY),
        reply: Mutex::new(None),
        waiter: Parker::default(),
    });
    (Replier(Some(Arc::clone(&cell))), PendingReply { cell })
}

/// The worker's half of a reply cell. Dropped unanswered, it orphans the
/// cell.
pub(crate) struct Replier(Option<Arc<ReplyCell>>);

impl Replier {
    /// empty → answered: stores the reply, then says so.
    pub(crate) fn answer(mut self, reply: Reply) {
        let cell = self.0.take().expect("a Replier answers once");
        let previous = locked(&cell.reply).replace(reply);
        debug_assert!(previous.is_none(), "reply cell answered twice");
        cell.settle(ANSWERED);
    }
}

impl Drop for Replier {
    fn drop(&mut self) {
        // empty → orphaned: nobody will answer.
        if let Some(cell) = self.0.take() {
            cell.settle(ORPHANED);
        }
    }
}

/// A submitted request's future reply. Obtain via
/// [`TxKv::submit`](crate::TxKv::submit); wait with [`PendingReply::wait`].
/// Dropping it abandons the request's reply, not the request: the worker
/// still runs it.
#[derive(Debug)]
pub struct PendingReply {
    cell: Arc<ReplyCell>,
}

impl PendingReply {
    /// Blocks until the shard worker answers.
    ///
    /// # Errors
    ///
    /// Propagates the worker's [`TxKvError`]; returns
    /// [`TxKvError::ShuttingDown`] if the service stopped before
    /// answering (or [`PendingReply::try_wait`] already took the reply).
    pub fn wait(self) -> Result<Response, TxKvError> {
        self.wait_with_seq().map(|(resp, _)| resp)
    }

    /// Blocks until the shard worker answers, returning the commit
    /// sequence number alongside the response. `None` for read-only
    /// requests (they commit without consuming a sequence number). In
    /// durable mode the sequence is the on-disk (rebased) one — the
    /// number the WAL logged and the replication stream ships, so it can
    /// be used directly as a read-your-writes watermark against a
    /// follower.
    ///
    /// # Errors
    ///
    /// As [`PendingReply::wait`].
    pub fn wait_with_seq(self) -> Result<(Response, Option<u64>), TxKvError> {
        let cell = &self.cell;
        cell.waiter
            .wait(|| cell.state.load(Ordering::SeqCst) != EMPTY);
        self.take_reply().unwrap_or(Err(TxKvError::ShuttingDown))
    }

    /// Non-blocking poll: `None` while the request is still in flight (and
    /// once the reply has been taken).
    pub fn try_wait(&self) -> Option<Result<Response, TxKvError>> {
        self.take_reply().map(|r| r.map(|(resp, _)| resp))
    }

    /// answered → taken, moving the reply out; an orphaned cell reads as
    /// [`TxKvError::ShuttingDown`].
    fn take_reply(&self) -> Option<Reply> {
        match self.cell.step(ANSWERED, TAKEN) {
            Ok(()) => Some(
                locked(&self.cell.reply)
                    .take()
                    .expect("an answered cell holds its reply"),
            ),
            Err(ORPHANED) => Some(Err(TxKvError::ShuttingDown)),
            Err(found) => {
                debug_assert!(
                    found == EMPTY || found == TAKEN,
                    "a live PendingReply found its cell in state {found}"
                );
                None
            }
        }
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        // empty → abandoned; any other state is already final for us.
        let _ = self.cell.step(EMPTY, ABANDONED);
    }
}

// ---- the shard queue -------------------------------------------------------

/// Why [`ShardQueue::post`] did not take a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// `queue_capacity` jobs are queued.
    Full,
    /// [`ShardQueue::close`] was called.
    Closed,
}

#[repr(align(64))]
struct Slot {
    seq: AtomicU64,
    job: Mutex<Option<Job>>,
}

/// One shard's bounded queue of jobs, and where its workers sleep.
pub(crate) struct ShardQueue {
    slots: Box<[Slot]>,
    mask: u64,
    /// Jobs the queue admits; at most `slots.len()`.
    capacity: u64,
    /// Next position to claim (clients, CAS); every position below it was
    /// admitted.
    tail: Padded<AtomicU64>,
    /// Next position to take (workers, CAS).
    head: Padded<AtomicU64>,
    /// A value `head` had, raised by a client whose count from it says
    /// full: what admission reads instead of `head`.
    head_seen: Padded<AtomicU64>,
    closed: AtomicBool,
    /// One parking spot per worker of the shard, indexed by its seat.
    workers: Box<[Parker]>,
}

impl fmt::Debug for ShardQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardQueue")
            .field("capacity", &self.capacity)
            .field("queued", &self.queued())
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl ShardQueue {
    /// A queue that admits `capacity` jobs (at least 1) and seats `workers`
    /// workers.
    pub(crate) fn new(capacity: usize, workers: usize) -> Self {
        assert!(capacity >= 1, "a shard queue admits at least one job");
        let depth = capacity.max(2).next_power_of_two();
        Self {
            slots: (0..depth as u64)
                .map(|i| Slot {
                    seq: AtomicU64::new(i),
                    job: Mutex::new(None),
                })
                .collect(),
            mask: depth as u64 - 1,
            capacity: capacity as u64,
            tail: Padded::default(),
            head: Padded::default(),
            head_seen: Padded::default(),
            closed: AtomicBool::new(false),
            workers: (0..workers).map(|_| Parker::default()).collect(),
        }
    }

    fn depth(&self) -> u64 {
        self.slots.len() as u64
    }

    fn slot(&self, pos: u64) -> &Slot {
        &self.slots[(pos & self.mask) as usize]
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Jobs queued now (racy: for `Debug` and tests).
    fn queued(&self) -> u64 {
        let head = self.head.0.load(Ordering::SeqCst);
        self.tail.0.load(Ordering::SeqCst) - head
    }

    // ---- client side -----------------------------------------------------

    /// Queues `job` and wakes a sleeping worker, or refuses it (dropping
    /// it, which orphans its reply cell).
    pub(crate) fn post(&self, job: Job) -> Result<(), Refused> {
        loop {
            if self.is_closed() {
                return Err(Refused::Closed);
            }
            // `head_seen` first: it never passes `head`, which never
            // passes `tail`, so neither does this read of it pass the read
            // of `tail` after it.
            let seen = self.head_seen.0.load(Ordering::SeqCst);
            let pos = self.tail.0.load(Ordering::SeqCst);
            if pos - seen >= self.capacity {
                // The cached `head` may be stale. A fresh one is a count if
                // `tail` stood still across reading it.
                let head = self.head.0.load(Ordering::SeqCst);
                self.head_seen.0.fetch_max(head, Ordering::SeqCst);
                if self.tail.0.load(Ordering::SeqCst) == pos && pos - head >= self.capacity {
                    return Err(Refused::Full);
                }
                continue;
            }
            let slot = self.slot(pos);
            // Acquire pairs with the release of the worker that freed the
            // slot: its move-out happens before our fill.
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // free → claimed. Winning proves `tail` was still `pos`, so
                // fewer than `capacity` jobs were queued at this instant too
                // (`head` was at least `seen`).
                if self
                    .tail
                    .0
                    .compare_exchange_weak(pos, pos + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                let previous = locked(&slot.job).replace(job);
                debug_assert!(previous.is_none(), "claimed slot {pos} held a job");
                debug_assert_eq!(slot.seq.load(Ordering::Relaxed), pos, "slot {pos} not ours");
                // claimed → published.
                slot.seq.store(pos + 1, Ordering::SeqCst);
                // One job, one worker: the first found asleep.
                let _ = self.workers.iter().any(Parker::wake);
                return Ok(());
            }
            if seq < pos {
                // The worker that took `pos − depth` has not moved it out
                // yet. Not full — it frees the slot in a moment.
                debug_assert_eq!(seq + self.depth(), pos + 1, "slot {pos} is a lap behind");
                std::thread::yield_now();
            }
            // Otherwise `tail` has moved on since we read it: look again.
        }
    }

    /// Jobs this queue has admitted since it was made: `tail`, since every
    /// claimed position is published.
    pub(crate) fn admitted(&self) -> u64 {
        self.tail.0.load(Ordering::SeqCst)
    }

    /// Refuses every later [`ShardQueue::post`] and wakes every worker, so
    /// each drains what is queued and leaves.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        for worker in self.workers.iter() {
            worker.wake();
        }
    }

    // ---- worker side -----------------------------------------------------

    fn is_published(&self, pos: u64) -> bool {
        self.slot(pos).seq.load(Ordering::SeqCst) == pos + 1
    }

    /// Takes the job at `head` if one is published there.
    pub(crate) fn try_next_job(&self) -> Option<Job> {
        let mut pos = self.head.0.load(Ordering::SeqCst);
        loop {
            if !self.is_published(pos) {
                let head = self.head.0.load(Ordering::SeqCst);
                if head == pos {
                    // Free or claimed: nothing to take yet.
                    return None;
                }
                // Another worker took `pos`.
                pos = head;
                continue;
            }
            // published → taken.
            match self.head.0.compare_exchange_weak(
                pos,
                pos + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    let slot = self.slot(pos);
                    let job = locked(&slot.job).take();
                    debug_assert_eq!(slot.seq.load(Ordering::Relaxed), pos + 1);
                    // taken → free. Release: the next lap's client acquires
                    // `seq` before it fills the slot.
                    slot.seq.store(pos + self.depth(), Ordering::Release);
                    return Some(job.expect("a published slot holds its job"));
                }
                Err(head) => pos = head,
            }
        }
    }

    /// Blocks the worker in seat `seat` until a job is published at `head`;
    /// `None` once the queue is closed and drained.
    pub(crate) fn next_job(&self, seat: usize) -> Option<Job> {
        loop {
            if let Some(job) = self.try_next_job() {
                return Some(job);
            }
            if self.is_closed() {
                // Whatever was posted before the close is published by now.
                return self.try_next_job();
            }
            self.workers[seat]
                .wait(|| self.is_published(self.head.0.load(Ordering::SeqCst)) || self.is_closed());
        }
    }

    /// Whether the worker in seat `seat` has given up polling.
    #[cfg(test)]
    pub(crate) fn worker_sleeps(&self, seat: usize) -> bool {
        self.workers[seat].is_sleeping()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::request::Request;
    use std::time::Instant;

    pub(crate) fn spin_until(what: &str, cond: impl Fn() -> bool) {
        let started = Instant::now();
        while !cond() {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "timed out: {what}"
            );
            std::thread::yield_now();
        }
    }

    /// A job that says who posted it (`key`) and which of theirs it is
    /// (`value`).
    fn job(producer: u64, index: u64) -> (Job, PendingReply) {
        let (reply, pending) = reply_pair();
        let job = Job {
            req: Request::Put {
                key: producer,
                value: index,
            },
            enqueued_at: Instant::now(),
            trace: 0,
            reply,
        };
        (job, pending)
    }

    fn identity(job: &Job) -> (u64, u64) {
        match job.req {
            Request::Put { key, value } => (key, value),
            ref other => panic!("not a test job: {other:?}"),
        }
    }

    /// A worker that answers every job with its index until the queue is
    /// closed and drained; returns what it took, in the order it took it.
    fn echo_worker(queue: &ShardQueue, seat: usize) -> Vec<(u64, u64)> {
        let mut taken = Vec::new();
        while let Some(job) = queue.next_job(seat) {
            let (producer, index) = identity(&job);
            taken.push((producer, index));
            job.reply.answer(Ok((Response::Value(index), None)));
        }
        taken
    }

    #[test]
    fn every_job_is_delivered_once_and_in_its_producers_order() {
        const PRODUCERS: u64 = 4;
        const WORKERS: usize = 3;
        const JOBS: u64 = 3_000;
        // Four slots under four producers: the ring laps hundreds of times
        // and is full most of the time.
        let queue = ShardQueue::new(4, WORKERS);
        let taken = std::thread::scope(|s| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|seat| {
                    let queue = &queue;
                    s.spawn(move || echo_worker(queue, seat))
                })
                .collect();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let queue = &queue;
                    s.spawn(move || {
                        let mut pending = Vec::new();
                        for i in 0..JOBS {
                            loop {
                                let (job, reply) = job(p, i);
                                match queue.post(job) {
                                    Ok(()) => break pending.push(reply),
                                    Err(Refused::Full) => std::thread::yield_now(),
                                    Err(Refused::Closed) => panic!("closed under load"),
                                }
                            }
                        }
                        for (i, reply) in pending.into_iter().enumerate() {
                            assert_eq!(reply.wait(), Ok(Response::Value(i as u64)));
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().expect("producer panicked");
            }
            queue.close();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .collect::<Vec<_>>()
        });
        let mut seen = std::collections::HashSet::new();
        for per_worker in &taken {
            // A worker takes positions in ascending order and a producer
            // posts in ascending order, so what one worker saw of one
            // producer ascends.
            let mut last = [None::<u64>; PRODUCERS as usize];
            for &(p, i) in per_worker {
                assert!(last[p as usize] < Some(i), "producer {p} reordered at {i}");
                last[p as usize] = Some(i);
                assert!(seen.insert((p, i)), "job {p}/{i} delivered twice");
            }
        }
        assert_eq!(seen.len() as u64, PRODUCERS * JOBS, "a job was lost");
    }

    #[test]
    fn admission_sheds_at_exactly_the_configured_capacity() {
        for capacity in [1usize, 3, 4, 256] {
            let queue = ShardQueue::new(capacity, 1);
            // Nobody takes anything: however four producers interleave,
            // exactly `capacity` jobs get in.
            let admitted: usize = std::thread::scope(|s| {
                let racers: Vec<_> = (0..4u64)
                    .map(|p| {
                        let queue = &queue;
                        s.spawn(move || {
                            let mut admitted = Vec::new();
                            for i in 0.. {
                                let (job, reply) = job(p, i);
                                match queue.post(job) {
                                    Ok(()) => admitted.push(reply),
                                    Err(refused) => {
                                        assert_eq!(refused, Refused::Full);
                                        break;
                                    }
                                }
                            }
                            admitted.len()
                        })
                    })
                    .collect();
                racers
                    .into_iter()
                    .map(|r| r.join().expect("producer panicked"))
                    .sum()
            });
            assert_eq!(admitted, capacity, "capacity {capacity}");
            assert_eq!(queue.queued(), capacity as u64);
            // One out, exactly one in — for more than a lap of the ring.
            for i in 0..2 * capacity as u64 + 3 {
                assert!(queue.try_next_job().is_some(), "capacity {capacity}");
                assert_eq!(queue.post(job(9, i).0), Ok(()), "capacity {capacity}");
                assert_eq!(queue.post(job(9, i).0), Err(Refused::Full));
            }
        }
    }

    #[test]
    fn a_stale_cached_head_never_sheds_below_capacity() {
        // Capacity 3 on four slots and no worker: the test takes by hand.
        let queue = Arc::new(ShardQueue::new(3, 1));
        for i in 0..3 {
            assert_eq!(queue.post(job(0, i).0), Ok(()));
        }
        // Two out: `head` is 2, the cached head still 0.
        for _ in 0..2 {
            assert!(queue.try_next_job().is_some());
        }
        // The cached count says full; the refresh must raise the cache, or
        // the post looks again for ever (or refuses with one job queued).
        let poster = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || (3..5).map(|i| queue.post(job(0, i).0)).collect::<Vec<_>>())
        };
        spin_until("two posts behind a stale head return", || {
            poster.is_finished()
        });
        assert_eq!(poster.join().expect("poster panicked"), [Ok(()), Ok(())]);
        assert_eq!(queue.post(job(0, 5).0), Err(Refused::Full));
        assert_eq!(queue.queued(), 3);
        assert_eq!(queue.admitted(), 5);
    }

    #[test]
    fn admission_never_sheds_below_capacity_under_contention() {
        for capacity in [1usize, 3, 4, 256] {
            // Closed-loop clients, one job outstanding each and no more of
            // them than the queue admits: it can never be full.
            let clients = capacity.min(8) as u64;
            let queue = ShardQueue::new(capacity, 2);
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|seat| {
                        let queue = &queue;
                        s.spawn(move || echo_worker(queue, seat))
                    })
                    .collect();
                let joins: Vec<_> = (0..clients)
                    .map(|c| {
                        let queue = &queue;
                        s.spawn(move || {
                            for i in 0..4_000u64 {
                                let (job, reply) = job(c, i);
                                assert_eq!(
                                    queue.post(job),
                                    Ok(()),
                                    "capacity {capacity}: shed with at most {clients} queued"
                                );
                                assert_eq!(reply.wait(), Ok(Response::Value(i)));
                            }
                        })
                    })
                    .collect();
                for j in joins {
                    j.join().expect("client panicked");
                }
                queue.close();
                for w in workers {
                    w.join().expect("worker panicked");
                }
            });
        }
    }

    #[test]
    fn a_sleeping_worker_is_woken_by_a_post_and_a_sleeping_client_by_the_answer() {
        let queue = ShardQueue::new(4, 1);
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let mut served = 0;
                while let Some(job) = queue.next_job(0) {
                    // Outlast the client's poll so that it parks too.
                    spin_until("client parks", || {
                        job.reply.0.as_ref().is_some_and(|c| c.waiter.is_sleeping())
                    });
                    job.reply.answer(Ok((Response::Done, Some(served))));
                    served += 1;
                }
                served
            });
            for round in 0..3 {
                spin_until("worker parks", || queue.worker_sleeps(0));
                let (job, reply) = job(0, round);
                queue.post(job).expect("an empty queue");
                assert_eq!(reply.wait_with_seq(), Ok((Response::Done, Some(round))));
            }
            queue.close();
            assert_eq!(worker.join().expect("worker panicked"), 3);
        });
    }

    #[test]
    fn padded_is_a_cache_line() {
        assert_eq!(std::mem::align_of::<Padded<AtomicU64>>(), 64);
        assert_eq!(std::mem::size_of::<Padded<AtomicU64>>(), 64);
    }

    #[test]
    fn try_wait_sees_the_reply_once() {
        let (reply, pending) = reply_pair();
        assert_eq!(pending.try_wait(), None, "nothing answered yet");
        reply.answer(Ok((Response::Value(7), Some(3))));
        assert_eq!(pending.try_wait(), Some(Ok(Response::Value(7))));
        assert_eq!(pending.try_wait(), None, "the reply was taken");
        assert_eq!(pending.wait(), Err(TxKvError::ShuttingDown));
        // An error travels the same way.
        let (reply, pending) = reply_pair();
        reply.answer(Err(TxKvError::Internal));
        assert_eq!(pending.try_wait(), Some(Err(TxKvError::Internal)));
    }

    #[test]
    fn a_dropped_half_neither_leaks_the_cell_nor_blocks_the_other() {
        // The client walks away first: the answer goes into the void.
        let (reply, pending) = reply_pair();
        let cell = Arc::downgrade(&pending.cell);
        drop(pending);
        assert_eq!(
            cell.upgrade()
                .expect("the job holds it")
                .state
                .load(Ordering::SeqCst),
            ABANDONED
        );
        reply.answer(Ok((Response::Done, None)));
        assert!(cell.upgrade().is_none(), "cell leaked");
        // It walks away after the answer: the reply is dropped unread.
        let (reply, pending) = reply_pair();
        let cell = Arc::downgrade(&pending.cell);
        reply.answer(Ok((Response::Values(vec![1, 2, 3]), None)));
        drop(pending);
        assert!(cell.upgrade().is_none(), "cell leaked");
        // The job is dropped unanswered: the client is told, parked or not.
        let (reply, pending) = reply_pair();
        drop(reply);
        assert_eq!(pending.try_wait(), Some(Err(TxKvError::ShuttingDown)));
        assert_eq!(pending.wait(), Err(TxKvError::ShuttingDown));
        let (reply, pending) = reply_pair();
        let cell = Arc::clone(&pending.cell);
        std::thread::scope(|s| {
            let waiter = s.spawn(move || pending.wait());
            spin_until("client parks", || cell.waiter.is_sleeping());
            drop(reply);
            assert_eq!(
                waiter.join().expect("waiter panicked"),
                Err(TxKvError::ShuttingDown)
            );
        });
    }

    #[test]
    fn close_drains_what_is_queued_and_orphans_what_nobody_takes() {
        // With a worker: everything queued before the close is answered.
        let queue = ShardQueue::new(8, 1);
        let pending: Vec<_> = (0..8)
            .map(|i| {
                let (job, reply) = job(0, i);
                queue.post(job).expect("room for eight");
                reply
            })
            .collect();
        queue.close();
        assert_eq!(queue.post(job(0, 8).0), Err(Refused::Closed));
        assert_eq!(echo_worker(&queue, 0).len(), 8);
        for (i, reply) in pending.into_iter().enumerate() {
            assert_eq!(reply.wait(), Ok(Response::Value(i as u64)));
        }
        // Without one: the jobs go down with the queue, and say so.
        let queue = ShardQueue::new(8, 1);
        let pending: Vec<_> = (0..5)
            .map(|i| {
                let (job, reply) = job(0, i);
                queue.post(job).expect("room for five");
                reply
            })
            .collect();
        queue.close();
        drop(queue);
        for reply in pending {
            assert_eq!(reply.wait(), Err(TxKvError::ShuttingDown));
        }
    }

    #[test]
    fn a_post_racing_the_close_is_refused_or_resolved_never_left_hanging() {
        for _ in 0..50 {
            let queue = Arc::new(ShardQueue::new(4, 1));
            let poster = {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut admitted = Vec::new();
                    for i in 0.. {
                        let (job, reply) = job(0, i);
                        match queue.post(job) {
                            Ok(()) => admitted.push(reply),
                            Err(Refused::Full) => std::thread::yield_now(),
                            Err(Refused::Closed) => break,
                        }
                    }
                    // Once refused, always refused.
                    assert_eq!(queue.post(job(0, 0).0), Err(Refused::Closed));
                    admitted
                })
            };
            let worker = {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || echo_worker(&queue, 0).len())
            };
            spin_until("the worker served something", || {
                queue.head.0.load(Ordering::SeqCst) > 8
            });
            queue.close();
            let admitted = poster.join().expect("poster panicked");
            let served = worker.join().expect("worker panicked");
            // The last reference: a job published after the worker left
            // is orphaned here.
            drop(queue);
            let answered = admitted
                .into_iter()
                .map(PendingReply::wait)
                .filter(|r| *r != Err(TxKvError::ShuttingDown))
                .count();
            assert_eq!(answered, served);
        }
    }
}
