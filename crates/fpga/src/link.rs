//! The CPU↔validator link: one bounded lock-free ring whose slots carry a
//! request to the validation engine *and* its verdict back, and the engine
//! itself, behind one lock, executed by whichever thread waits on the link.
//!
//! This is the stand-in for the CCI pull/push queues of Figure 6. A slot
//! is claimed by a submitter, filled in place, served by the engine and
//! freed by the submitter when it reads the verdict — nothing is
//! allocated per request, and a slot goes back to the ring on the thread
//! that took it (one exception below). Every cell of a slot is an atomic,
//! so the whole link is safe Rust.
//!
//! # Slot lifecycle
//!
//! Ring position `pos` lives in slot `pos % depth`; the slot's `seq` word
//! says which position it is ready for (Vyukov's bounded-queue ticket):
//!
//! | state | `seq` | `verdict` | entered by |
//! |---|---|---|---|
//! | free | `pos` | `PENDING` | the previous occupant's [`Link::free`] |
//! | claimed | `pos` | `PENDING` | a submitter winning the CAS on `tail` ([`Link::try_claim`]) |
//! | published | `pos + 1` | `PENDING` | that submitter's `SeqCst` store of `seq` ([`Link::publish`]) — releases the payload words written before it |
//! | answered | `pos + 1` | a verdict | the serving thread's CAS on `verdict` ([`Link::answer`]) |
//! | free | `pos + depth` | `PENDING` | the submitter consuming the verdict ([`Link::wait_verdict`]) |
//!
//! Slots are served in ring order, so a slot that is still held by a slow
//! consumer blocks the submitter whose ticket wraps onto it (`try_claim`
//! reports the ring full) and nobody else. That submitter may be the slow
//! consumer itself: a thread that holds unconsumed verdicts must not
//! *wait* for a slot ([`Link::claim`]), it consumes its oldest verdict
//! instead. A submitter that walks away from an unanswered slot
//! ([`Link::abandon`]) marks it `ABANDONED`; whoever serves it then frees
//! it in the submitter's stead, the only cross-thread free there is.
//!
//! # Serving: flat combining
//!
//! There is no validator thread. The engine, the fault injector and the
//! reorder hold ([`Validator`]) sit behind the link's one lock, a leaf: its
//! holder takes no other lock. Every wait on the link — for a verdict
//! ([`Link::wait_verdict`]), for a slot of a full ring ([`Link::claim`]),
//! for statistics ([`Link::stats`]) and for the drain at shutdown
//! ([`Link::shutdown`]) — takes that lock and serves the published slots in
//! ring order, advancing `head`, until its own condition holds. The engine
//! thus gets the same requests in the same order a thread of its own would,
//! and a verdict costs its waiter the engine's time, not a hand-off to
//! another CPU. A waiter that finds the lock taken, or the slot at `head`
//! claimed but not yet published, yields and looks again: nobody parks, so
//! nobody is ever woken.
//!
//! # Stop and death
//!
//! `stopped` closes the door: a submitter that sees it gets
//! [`FpgaVerdict::ServiceStopped`] without touching the ring, and
//! [`Link::shutdown`] serves what was published before. A panic while
//! serving — in the engine or the injector — would leave a half-updated
//! engine behind a lock that does not poison, so every serve is armed with
//! a guard ([`DeathGuard`]) that, run on unwind, sets `stopped` and `dead`
//! and answers every published, unanswered slot `ServiceStopped`; the panic
//! goes on to the waiter that was serving, and nobody serves again. A
//! submitter that published after that sweep sees `dead` in its own
//! re-check and answers itself: the sweep reads `seq` after storing `dead`,
//! the submitter reads `dead` after storing `seq`, all four `SeqCst`, so one
//! side always sees the other.

use crate::engine::{EngineStats, FpgaVerdict, ValidateRequest};
use crate::fault::FaultStats;
use crate::service::Validator;
use parking_lot::Mutex;
use rococo_park::Padded;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// How many validations one thread may have outstanding: the ring the STM
/// runtime asks for has `max_threads × LANE_DEPTH` slots, and a thread
/// that already holds this many unconsumed slots must consume one before
/// it submits another. A TxKV shard worker sizes its batch by this
/// constant, so a whole batch pipelines without deferring.
pub const LANE_DEPTH: usize = 16;

/// Lanes of the ring behind [`ValidationService::spawn`](crate::ValidationService::spawn):
/// 64 slots, enough for the 32 verdicts `async_submission_overlaps` and the
/// 16 the benchmark's pipelined probe keep outstanding from one thread.
pub(crate) const DEFAULT_LANES: usize = 4;

/// Addresses (reads then writes) a slot carries in place; a larger
/// footprint goes through the slot's spill vector. Sized against the
/// service's transactions (`Transfer`: 2 + 2) and EigenBench's N = 16.
const INLINE_ADDRS: usize = 16;

const PENDING: u64 = 0;
const ABANDONED: u64 = 1;
const ABORT_CYCLE: u64 = 2;
const ABORT_WINDOW: u64 = 3;
const STOPPED: u64 = 4;
const COMMIT: u64 = 1 << 63;

fn encode(verdict: FpgaVerdict) -> u64 {
    match verdict {
        FpgaVerdict::Commit { seq } => COMMIT | seq,
        FpgaVerdict::AbortCycle => ABORT_CYCLE,
        FpgaVerdict::AbortWindowOverflow => ABORT_WINDOW,
        FpgaVerdict::ServiceStopped => STOPPED,
    }
}

/// `None` while the slot is unanswered.
fn decode(word: u64) -> Option<FpgaVerdict> {
    match word {
        PENDING | ABANDONED => None,
        ABORT_CYCLE => Some(FpgaVerdict::AbortCycle),
        ABORT_WINDOW => Some(FpgaVerdict::AbortWindowOverflow),
        STOPPED => Some(FpgaVerdict::ServiceStopped),
        commit => Some(FpgaVerdict::Commit {
            seq: commit & !COMMIT,
        }),
    }
}

#[repr(align(64))]
struct Slot {
    seq: AtomicU64,
    verdict: AtomicU64,
    tx_id: AtomicU64,
    valid_ts: AtomicU64,
    /// Reads in the low half, writes in the high half.
    lens: AtomicU64,
    addrs: [AtomicU64; INLINE_ADDRS],
    /// Footprints over `INLINE_ADDRS`, reads then writes. Locked by the
    /// submitter before `publish` and by the serving thread after it,
    /// never at once; keeps its capacity from lap to lap.
    spill: Mutex<Vec<u64>>,
}

/// The shared state of one validation service.
pub(crate) struct Link {
    slots: Box<[Slot]>,
    mask: u64,
    /// Next position to claim (submitters, CAS).
    tail: Padded<AtomicU64>,
    /// Next position to serve. Written only under `validator`; others
    /// read it for [`Link::queue_depth`].
    head: Padded<AtomicU64>,
    in_flight: Padded<AtomicU64>,
    /// Stop requested: no new submissions.
    stopped: AtomicBool,
    /// A serve panicked: nobody will answer but the submitter.
    dead: AtomicBool,
    /// The engine and what surrounds it; whoever holds the lock serves.
    validator: Mutex<Validator>,
    pub(crate) faults: FaultStats,
}

impl Link {
    /// A link of `depth` slots, rounded up to a power of two (at least 2:
    /// a published slot must not look like the next lap's free one).
    pub(crate) fn new(depth: usize, validator: Validator) -> Self {
        let depth = depth.max(2).next_power_of_two();
        Self {
            slots: (0..depth as u64)
                .map(|i| Slot {
                    seq: AtomicU64::new(i),
                    verdict: AtomicU64::new(PENDING),
                    tx_id: AtomicU64::new(0),
                    valid_ts: AtomicU64::new(0),
                    lens: AtomicU64::new(0),
                    addrs: std::array::from_fn(|_| AtomicU64::new(0)),
                    spill: Mutex::new(Vec::new()),
                })
                .collect(),
            mask: depth as u64 - 1,
            tail: Padded::default(),
            head: Padded::default(),
            in_flight: Padded::default(),
            stopped: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            validator: Mutex::new(validator),
            faults: FaultStats::default(),
        }
    }

    fn slot(&self, pos: u64) -> &Slot {
        &self.slots[(pos & self.mask) as usize]
    }

    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.0.load(Ordering::Relaxed)
    }

    pub(crate) fn queue_depth(&self) -> usize {
        let head = self.head.0.load(Ordering::Relaxed);
        self.tail.0.load(Ordering::Relaxed).saturating_sub(head) as usize
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    // ---- submitter side ------------------------------------------------

    /// Claims the next ring position, or `None` when the slot it maps to
    /// is still held from the previous lap (ring full).
    pub(crate) fn try_claim(&self) -> Option<u64> {
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        loop {
            // Acquire pairs with the release in `free`: the previous
            // occupant's reads of the slot happen before our writes.
            let seq = self.slot(pos).seq.load(Ordering::Acquire);
            if seq == pos {
                match self.tail.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.in_flight.0.fetch_add(1, Ordering::Relaxed);
                        return Some(pos);
                    }
                    Err(current) => pos = current,
                }
            } else if seq < pos {
                return None;
            } else {
                pos = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// [`Link::try_claim`], serving the ring while it is full: the slot in
    /// the way frees once its verdict is served and consumed. `None` once
    /// the link has stopped.
    pub(crate) fn claim(&self) -> Option<u64> {
        loop {
            if self.is_stopped() {
                return None;
            }
            if let Some(pos) = self.try_claim() {
                return Some(pos);
            }
            self.serve(|| false);
            std::thread::yield_now();
        }
    }

    /// Fills the claimed slot and publishes it.
    pub(crate) fn publish(
        &self,
        pos: u64,
        tx_id: u64,
        valid_ts: u64,
        reads: &[u64],
        writes: &[u64],
    ) {
        let slot = self.slot(pos);
        // Relaxed payload stores: the `seq` store below releases them and
        // the serving thread's acquire load of `seq` makes them visible.
        slot.tx_id.store(tx_id, Ordering::Relaxed);
        slot.valid_ts.store(valid_ts, Ordering::Relaxed);
        slot.lens.store(
            reads.len() as u64 | (writes.len() as u64) << 32,
            Ordering::Relaxed,
        );
        if reads.len() + writes.len() <= INLINE_ADDRS {
            for (cell, &addr) in slot.addrs.iter().zip(reads.iter().chain(writes)) {
                cell.store(addr, Ordering::Relaxed);
            }
        } else {
            let mut spill = slot.spill.lock();
            spill.clear();
            spill.extend_from_slice(reads);
            spill.extend_from_slice(writes);
        }
        slot.seq.store(pos + 1, Ordering::SeqCst);
        if self.dead.load(Ordering::SeqCst) {
            // The death sweep may already have passed this slot.
            self.answer(pos, FpgaVerdict::ServiceStopped);
        }
    }

    /// Serves the ring until the slot is answered, then frees it.
    pub(crate) fn wait_verdict(&self, pos: u64) -> FpgaVerdict {
        let verdict = || decode(self.slot(pos).verdict.load(Ordering::SeqCst));
        while !self.serve(|| verdict().is_some()) {
            std::thread::yield_now();
        }
        let verdict = verdict().expect("served");
        self.free(pos);
        self.in_flight.0.fetch_sub(1, Ordering::Relaxed);
        verdict
    }

    /// Walks away from a slot: frees it if it is answered, otherwise
    /// leaves that to whoever serves it. Either way the request stops
    /// counting as in flight: nobody is waiting for it.
    pub(crate) fn abandon(&self, pos: u64) {
        self.in_flight.0.fetch_sub(1, Ordering::Relaxed);
        let unanswered = self.slot(pos).verdict.compare_exchange(
            PENDING,
            ABANDONED,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        if unanswered.is_err() {
            self.free(pos);
        }
    }

    /// answered → free. Called by whoever consumes the verdict.
    fn free(&self, pos: u64) {
        let slot = self.slot(pos);
        slot.verdict.store(PENDING, Ordering::Relaxed);
        // Release: the next lap's claimer acquires `seq` before it writes.
        slot.seq
            .store(pos + self.slots.len() as u64, Ordering::Release);
    }

    /// The engine's counters once everything published is served; `None`
    /// once the link has stopped.
    pub(crate) fn stats(&self) -> Option<EngineStats> {
        let mut v = self.validator.lock();
        self.serve_locked(&mut v, || false);
        (!self.is_stopped()).then(|| v.stats())
    }

    /// The engine's counters as they stand, stopped or not.
    pub(crate) fn last_stats(&self) -> EngineStats {
        self.validator.lock().stats()
    }

    /// Closes the door and serves until every claimed position is served;
    /// returns the engine's final counters.
    pub(crate) fn shutdown(&self) -> EngineStats {
        self.stopped.store(true, Ordering::SeqCst);
        loop {
            let mut v = self.validator.lock();
            // Stopped, a serve also lets go of a held position at once.
            self.serve_locked(&mut v, || false);
            let served = self.head.0.load(Ordering::Relaxed) == self.tail.0.load(Ordering::Relaxed);
            if served || self.dead.load(Ordering::SeqCst) {
                return v.stats();
            }
            // A submitter between its claim and its publish.
            drop(v);
            std::thread::yield_now();
        }
    }

    // ---- serving side --------------------------------------------------

    /// One look: whether `done()` holds, after serving toward it if nobody
    /// else holds the lock.
    fn serve(&self, done: impl Fn() -> bool) -> bool {
        if !done() {
            if let Some(mut v) = self.validator.try_lock() {
                self.serve_locked(&mut v, &done);
            }
        }
        done()
    }

    /// Serves from `head` in ring order until `done()` holds or the
    /// position at `head` is not published yet (and no held one is due).
    /// Called with the lock held.
    fn serve_locked(&self, v: &mut Validator, done: impl Fn() -> bool) {
        if self.dead.load(Ordering::SeqCst) {
            return;
        }
        let armed = DeathGuard(self);
        while !done() {
            let pos = self.head.0.load(Ordering::Relaxed);
            if self.slot(pos).seq.load(Ordering::SeqCst) == pos + 1 {
                self.head.0.store(pos + 1, Ordering::Relaxed);
                v.dequeued(self, pos);
            } else if !v.flush_held(self, self.is_stopped()) {
                break;
            }
        }
        std::mem::forget(armed);
    }

    /// Copies the request of a dequeued slot into `req`, reusing its
    /// vectors.
    pub(crate) fn read_request(&self, pos: u64, req: &mut ValidateRequest) {
        let slot = self.slot(pos);
        req.tx_id = slot.tx_id.load(Ordering::Relaxed);
        req.valid_ts = slot.valid_ts.load(Ordering::Relaxed);
        let lens = slot.lens.load(Ordering::Relaxed);
        let (reads, writes) = (lens as u32 as usize, (lens >> 32) as usize);
        req.read_addrs.clear();
        req.write_addrs.clear();
        if reads + writes <= INLINE_ADDRS {
            let word = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
            req.read_addrs.extend(slot.addrs[..reads].iter().map(word));
            req.write_addrs
                .extend(slot.addrs[reads..reads + writes].iter().map(word));
        } else {
            let spill = slot.spill.lock();
            req.read_addrs.extend_from_slice(&spill[..reads]);
            req.write_addrs.extend_from_slice(&spill[reads..]);
        }
    }

    /// published → answered; frees the slot if the submitter abandoned
    /// it. A slot that is already answered (the death sweep and a
    /// self-answer can both reach it) is left alone.
    pub(crate) fn answer(&self, pos: u64, verdict: FpgaVerdict) {
        let slot = self.slot(pos);
        let answered = slot.verdict.compare_exchange(
            PENDING,
            encode(verdict),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        if answered == Err(ABANDONED) {
            self.free(pos);
        }
    }
}

/// Armed around every serve, which `forget`s it on the way out: it is
/// dropped only when a panic unwinds through the serve, and then no
/// submitter is left waiting and nobody serves again.
struct DeathGuard<'a>(&'a Link);

impl Drop for DeathGuard<'_> {
    fn drop(&mut self) {
        let link = self.0;
        link.stopped.store(true, Ordering::SeqCst);
        link.dead.store(true, Ordering::SeqCst);
        for (i, slot) in link.slots.iter().enumerate() {
            // A free or claimed slot has `seq ≡ i (mod depth)`, a
            // published or answered one `seq ≡ i + 1`.
            let seq = slot.seq.load(Ordering::SeqCst);
            if seq.wrapping_sub(1) & link.mask == i as u64 {
                link.answer(seq - 1, FpgaVerdict::ServiceStopped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::fault::FaultConfig;
    use crate::service::{PendingVerdict, ValidationService};
    use std::collections::{HashSet, VecDeque};
    use std::time::{Duration, Instant};

    fn link(depth: usize) -> Link {
        Link::new(
            depth,
            Validator::new(EngineConfig::default(), FaultConfig::disabled()),
        )
    }

    #[test]
    fn every_ticket_gets_its_own_verdict_under_aggressive_faults() {
        const PRODUCERS: u64 = 8;
        const REQUESTS: u64 = 2_000;
        // 8 × 8 in flight: exactly the 64 slots of the default ring.
        const IN_FLIGHT: usize = 8;
        let svc = ValidationService::spawn_with_faults(
            EngineConfig::default(),
            FaultConfig::aggressive(11),
        );
        let global_ts = AtomicU64::new(0);
        let mut all_seqs = HashSet::new();
        std::thread::scope(|s| {
            let joins: Vec<_> = (0..PRODUCERS)
                .map(|t| {
                    let h = svc.handle();
                    let global_ts = &global_ts;
                    s.spawn(move || {
                        let mut seqs = Vec::new();
                        let mut verdicts = 0u64;
                        let mut settle = |p: PendingVerdict| {
                            verdicts += 1;
                            match p.wait() {
                                FpgaVerdict::Commit { seq } => {
                                    global_ts.fetch_max(seq + 1, Ordering::SeqCst);
                                    seqs.push(seq);
                                }
                                FpgaVerdict::ServiceStopped => panic!("live service stopped"),
                                _ => {}
                            }
                        };
                        let mut pending = VecDeque::with_capacity(IN_FLIGHT);
                        for i in 0..REQUESTS {
                            if pending.len() == IN_FLIGHT {
                                settle(pending.pop_front().expect("full window"));
                            }
                            let base = 1_000_000 + t * 100_000 + i * 4;
                            let valid_ts = global_ts.load(Ordering::SeqCst);
                            // A thread that holds verdicts must not wait for a
                            // slot — the one in its way may be its own — so it
                            // consumes its oldest instead.
                            let posted = loop {
                                match h.try_post(t, valid_ts, &[base], &[base + 1]) {
                                    Some(posted) => break posted,
                                    None => match pending.pop_front() {
                                        Some(oldest) => settle(oldest),
                                        None => std::thread::yield_now(),
                                    },
                                }
                            };
                            pending.push_back(posted);
                        }
                        pending.into_iter().for_each(&mut settle);
                        (verdicts, seqs)
                    })
                })
                .collect();
            for j in joins {
                let (verdicts, seqs) = j.join().expect("producer panicked");
                assert_eq!(verdicts, REQUESTS, "one verdict per ticket");
                for seq in seqs {
                    assert!(
                        all_seqs.insert(seq),
                        "commit {seq} delivered to two submitters"
                    );
                }
            }
        });
        let h = svc.handle();
        let injected = h.fault_stats();
        assert!(injected.total() > 0, "aggressive preset injected nothing");
        assert_eq!(h.in_flight(), 0);
        let stats = svc.shutdown();
        assert_eq!(
            stats.requests + injected.spurious_aborts(),
            PRODUCERS * REQUESTS
        );
        // Every commit the engine granted reached exactly one submitter.
        assert_eq!(stats.commits, all_seqs.len() as u64);
    }

    #[test]
    fn a_waiter_behind_a_stalled_serve_gets_its_verdict() {
        // Every request stalls whoever serves it, before or after the
        // engine, and a second waiter queues behind the first: the stall
        // runs on a serving thread, the other waiter finds the lock taken
        // and looks again until one of the two has served its slot.
        const STALL_US: u64 = 2_000;
        for faults in [
            FaultConfig {
                seed: 5,
                pause_prob: 1.0,
                pause_us: STALL_US,
                ..FaultConfig::disabled()
            },
            FaultConfig {
                seed: 5,
                delay_prob: 1.0,
                delay_us: STALL_US,
                ..FaultConfig::disabled()
            },
        ] {
            let svc = ValidationService::spawn_with_faults(EngineConfig::default(), faults);
            let h = svc.handle();
            for i in (0..8u64).step_by(2) {
                let started = Instant::now();
                let first = h.post(i, 0, &[100 + i], &[200 + i]);
                let second = h.post(i + 1, 0, &[101 + i], &[201 + i]);
                std::thread::scope(|s| {
                    let behind = s.spawn(move || second.wait());
                    assert!(first.wait().is_commit());
                    assert!(behind.join().expect("waiter panicked").is_commit());
                });
                assert!(
                    started.elapsed() >= Duration::from_micros(2 * STALL_US),
                    "both stalls ran on a waiting thread"
                );
            }
        }
    }

    #[test]
    fn the_ring_wraps() {
        // Two slots, 40 requests: 20 laps, one and two in flight.
        let svc =
            ValidationService::spawn_ring(EngineConfig::default(), FaultConfig::disabled(), 2);
        let h = svc.handle();
        let mut valid_ts = 0;
        for i in 0..20u64 {
            match h.post(i, valid_ts, &[1_000 + i], &[2_000 + i]).wait() {
                FpgaVerdict::Commit { seq } => valid_ts = seq + 1,
                other => panic!("request {i}: {other:?}"),
            }
        }
        for i in (20..40u64).step_by(2) {
            let a = h.post(i, valid_ts, &[1_000 + i], &[2_000 + i]);
            let b = h.post(i + 1, valid_ts, &[1_001 + i], &[2_001 + i]);
            assert!(
                h.try_post(0, valid_ts, &[1], &[2]).is_none(),
                "two slots, two held"
            );
            for p in [a, b] {
                match p.wait() {
                    FpgaVerdict::Commit { seq } => valid_ts = seq + 1,
                    other => panic!("request {i}: {other:?}"),
                }
            }
        }
        assert_eq!(svc.shutdown().commits, 40);
    }

    #[test]
    fn a_footprint_over_the_inline_size_arrives_intact() {
        let svc = ValidationService::spawn(EngineConfig::default());
        let h = svc.handle();
        let n = INLINE_ADDRS as u64 + 8;
        let reads: Vec<u64> = (0..n).map(|i| 10_000 + i).collect();
        let writes: Vec<u64> = (0..n).map(|i| 20_000 + i).collect();
        assert!(h.post(1, 0, &reads, &writes).wait().is_commit());
        // The write-skew partner over the *last* spilled read and write:
        // it commits only if one of them was lost on the way.
        let (r, w) = (reads[n as usize - 1], writes[n as usize - 1]);
        assert_eq!(h.post(2, 0, &[w], &[r]).wait(), FpgaVerdict::AbortCycle);
    }

    #[test]
    fn an_engine_that_panics_while_serving_stops_the_link() {
        // `RococoValidator::new` asserts a positive window, and the engine
        // is built by the first serve: the waiter below panics serving the
        // slot published ahead of its own.
        let svc = ValidationService::spawn(EngineConfig {
            window: 0,
            ..EngineConfig::default()
        });
        let h = svc.handle();
        let ahead = h.post(1, 0, &[1], &[2]);
        let mine = h.post(2, 0, &[3], &[4]);
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mine.wait()));
        assert!(served.is_err(), "the serving waiter's panic propagates");
        assert_eq!(ahead.wait(), FpgaVerdict::ServiceStopped);
        assert_eq!(h.post(3, 0, &[5], &[6]).wait(), FpgaVerdict::ServiceStopped);
        assert_eq!(h.stats(), None);
        assert_eq!(h.in_flight(), 0);
        drop(svc); // the drain returns at once on a dead link
    }

    #[test]
    fn the_death_guard_answers_every_published_slot() {
        let link = link(4);
        let ahead = link.try_claim().expect("empty ring");
        link.publish(ahead, 1, 0, &[1], &[2]);
        let pos = link.try_claim().expect("a free slot");
        link.publish(pos, 2, 0, &[3], &[4]);
        // A waiter whose serve is taken by another thread that is about
        // to panic inside it.
        std::thread::scope(|s| {
            let serving = link.validator.lock();
            let waiter = s.spawn(|| link.wait_verdict(pos));
            drop(DeathGuard(&link));
            drop(serving);
            assert_eq!(
                waiter.join().expect("waiter panicked"),
                FpgaVerdict::ServiceStopped
            );
        });
        assert_eq!(link.wait_verdict(ahead), FpgaVerdict::ServiceStopped);
        // A submitter that publishes afterwards answers itself.
        let late = link.try_claim().expect("a free slot");
        link.publish(late, 3, 0, &[5], &[6]);
        assert_eq!(link.wait_verdict(late), FpgaVerdict::ServiceStopped);
        assert_eq!(link.stats(), None);
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn an_abandoned_slot_is_freed_by_the_answer_not_the_drop() {
        let link = link(2);
        let first = link.try_claim().expect("empty ring");
        link.publish(first, 1, 0, &[1], &[2]);
        link.abandon(first);
        assert_eq!(link.in_flight(), 0, "nobody waits for it any more");
        let second = link.try_claim().expect("the other slot");
        assert!(
            link.try_claim().is_none(),
            "the abandoned slot must stay taken until it is answered"
        );
        // A serve gets to it (and stops at the unpublished second): its
        // answer frees the slot.
        link.serve(|| false);
        assert_eq!(link.try_claim(), Some(second + 1));
        // Abandoning an answered slot frees it on the spot.
        link.publish(second, 2, 0, &[3], &[4]);
        link.serve(|| false);
        link.abandon(second);
        assert_eq!(link.try_claim(), Some(second + 2));
    }
}
