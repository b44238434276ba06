//! `rococo-park`: how a thread waits for another across a ring.
//!
//! Two hops in this workspace hand work to another thread through a
//! bounded ring and wait for its answer — shard workers and the WAL writer
//! (`rococo-wal`), a lone consumer thread, and clients and a shard's
//! workers (`rococo-server`'s request hop), whose ring has as many
//! consumers as the shard has workers, each with a [`Parker`] of its own.
//! Both directions of both wait with [`Parker::wait`]: poll for a budget —
//! spinning, with a yield every so often — then publish a `sleeping` flag,
//! re-check and `thread::park`. The other side calls [`Parker::wake`] after
//! every store the sleeper may be waiting for and issues the `unpark` only
//! when it sees the flag, so a busy pipeline never makes a futex call and a
//! parked side costs nothing. (The validator has no other side to wait
//! for: whoever posts to it runs the engine itself.)
//!
//! The budgets are constants sized by sweep on the 2-vCPU reference box,
//! not knobs, and they are per hop: the WAL writer and its producers poll
//! for [`PARK_AFTER`] and spin [`CONSUMER_SPIN`] / [`PRODUCER_SPIN`] between
//! yields (no spinning at all on a one-CPU host, see [`spin_on_this_host`];
//! EXPERIMENTS.md, "Validator link", where they were first swept); the
//! request hop, whose waiter would spin on the CPU its only partner needs,
//! passes budgets of its own (EXPERIMENTS.md, "Request hop").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long a waiter of the WAL ring polls before it parks, both
/// directions. Sized against what a park costs on the 2-vCPU reference
/// box: a halted vCPU takes 60–100 µs to come back from a futex wake, and a
/// shard worker's batch leaves the consumer without work for 30–50 µs
/// while it drains.
/// A side that parks in such a gap makes the other outwait any shorter
/// budget and park too, and the pipeline settles into a ping-pong of
/// futex wakes (measured on `kv-hot-write`: 60–90 k req/s against 220 k).
/// Twice the wake latency keeps both sides out of it.
pub const PARK_AFTER: Duration = Duration::from_micros(150);

/// How long the WAL writer, the ring's consumer thread, spins between two
/// yields. Its yields are what lets a producer sharing its CPU run, but on
/// the reference kernel (6.18, EEVDF) a consumer that yields every few
/// microseconds is scheduled erratically (measured: a third of the
/// segments at 90 k req/s); one yield per half budget is not.
pub const CONSUMER_SPIN: Duration = Duration::from_micros(75);

/// How long a producer spins between two yields: a few microseconds, on
/// the scale of the consumer's per-item work. If the answer takes longer
/// the consumer is not running, and on an oversubscribed host it may be
/// waiting for this very CPU.
pub const PRODUCER_SPIN: Duration = Duration::from_micros(3);

/// `spin` — or zero when this process may run on one CPU only, where the
/// other side cannot be running while this one spins.
pub fn spin_on_this_host(spin: Duration) -> Duration {
    match std::thread::available_parallelism().map(usize::from) {
        Ok(1) => Duration::ZERO,
        _ => spin,
    }
}

/// One thread's parking spot. At most one thread may be inside
/// [`Parker::wait`] at a time.
#[derive(Debug, Default)]
pub struct Parker {
    sleeping: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl Parker {
    /// Waits until `ready()` holds or `deadline` passes; returns whether it
    /// holds. Polls for `poll` — spinning `spin` at a time with a yield in
    /// between, so a zero `spin` yields between any two looks — then parks.
    /// `ready` must read with `SeqCst` what the waker wrote with `SeqCst`
    /// before calling [`Parker::wake`]: then either this side's re-check
    /// sees the write or the waker sees `sleeping`.
    pub fn wait(
        &self,
        spin: Duration,
        poll: Duration,
        deadline: Option<Instant>,
        ready: impl Fn() -> bool,
    ) -> bool {
        // The common case on a busy pipeline: no clock read at all.
        if ready() {
            return true;
        }
        let started = Instant::now();
        let mut yielded_at = started;
        loop {
            if ready() {
                return true;
            }
            let now = Instant::now();
            if now - started >= poll || deadline.is_some_and(|d| now >= d) {
                break;
            }
            if now - yielded_at >= spin {
                std::thread::yield_now();
                yielded_at = Instant::now();
            } else {
                std::hint::spin_loop();
            }
        }
        // A poisoned lock only means a thread panicked between two whole
        // assignments of the `Option`.
        *self.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        loop {
            self.sleeping.store(true, Ordering::SeqCst);
            let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
            if timed_out || ready() {
                self.sleeping.store(false, Ordering::SeqCst);
                return ready();
            }
            match deadline {
                Some(d) => std::thread::park_timeout(d.saturating_duration_since(Instant::now())),
                None => std::thread::park(),
            }
        }
    }

    /// Unparks the waiter if it published `sleeping`; returns whether this
    /// call did (of two racing wakers one does), so a waker with several
    /// sleepers to choose from can stop at the first it woke.
    #[inline]
    pub fn wake(&self) -> bool {
        let woke =
            self.sleeping.load(Ordering::SeqCst) && self.sleeping.swap(false, Ordering::SeqCst);
        if woke {
            if let Some(thread) = self
                .thread
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ref()
            {
                thread.unpark();
            }
        }
        woke
    }

    /// Whether the waiter has given up polling and is (about to be) parked.
    /// For tests that must catch a side asleep before they wake it.
    pub fn is_sleeping(&self) -> bool {
        self.sleeping.load(Ordering::SeqCst)
    }
}

/// `T` on a cache line of its own, so a word one side hammers does not
/// share a line with a word the other side polls.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct Padded<T>(pub T);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn a_ready_condition_returns_without_parking() {
        let p = Parker::default();
        assert!(p.wait(PRODUCER_SPIN, PARK_AFTER, None, || true));
        assert!(!p.is_sleeping());
    }

    #[test]
    fn a_deadline_ends_the_wait_and_reports_the_condition() {
        let p = Parker::default();
        let started = Instant::now();
        let deadline = started + Duration::from_millis(5);
        assert!(!p.wait(PRODUCER_SPIN, PARK_AFTER, Some(deadline), || false));
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert!(!p.is_sleeping(), "the flag is lowered on the way out");
    }

    #[test]
    fn a_parked_waiter_is_woken_by_the_store_then_wake_protocol() {
        let p = Arc::new(Parker::default());
        let word = Arc::new(AtomicU64::new(0));
        let waiter = {
            let (p, word) = (Arc::clone(&p), Arc::clone(&word));
            std::thread::spawn(move || {
                p.wait(PRODUCER_SPIN, PARK_AFTER, None, || {
                    word.load(Ordering::SeqCst) == 1
                })
            })
        };
        let started = Instant::now();
        while !p.is_sleeping() {
            assert!(started.elapsed() < Duration::from_secs(10), "never parked");
            std::thread::yield_now();
        }
        // A wake without the store is a spurious one: the waiter re-checks
        // and goes back to sleep.
        assert!(p.wake());
        while !p.is_sleeping() {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "never re-parked"
            );
            std::thread::yield_now();
        }
        word.store(1, Ordering::SeqCst);
        assert!(p.wake());
        assert!(waiter.join().expect("waiter panicked"));
        assert!(!p.wake(), "nobody sleeps there any more");
    }

    #[test]
    fn padded_is_a_cache_line() {
        assert_eq!(std::mem::align_of::<Padded<AtomicU64>>(), 64);
        assert_eq!(std::mem::size_of::<Padded<AtomicU64>>(), 64);
    }
}
