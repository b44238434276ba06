//! How one side of the request hop waits for the other.
//!
//! The hop (`hop.rs`) hands a job from a client to a shard's workers and
//! the reply back, and both directions wait with [`Parker::wait`]: poll for
//! the hop's budget, yielding between two looks, then publish a `sleeping`
//! flag, re-check and `thread::park`. The other side calls
//! [`Parker::wake`] after every store the sleeper may be waiting for and
//! issues the `unpark` only when it sees the flag, so a busy pipeline never
//! makes a futex call and a parked side costs nothing. (The validator and
//! the WAL have no other side to wait for: whoever posts to the validator
//! runs the engine, and whoever waits for the WAL's watermark writes the
//! batch.)
//!
//! The budget belongs to the hop: [`HOP_POLL`], a constant sized by sweep
//! on the 2-vCPU reference box (EXPERIMENTS.md, "Request hop"), not a knob.

use crate::hop::HOP_POLL;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::Thread;
use std::time::Instant;

/// One thread's parking spot. At most one thread may be inside
/// [`Parker::wait`] at a time.
#[derive(Debug, Default)]
pub(crate) struct Parker {
    sleeping: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl Parker {
    /// Waits until `ready()` holds. Polls for [`HOP_POLL`], yielding
    /// between two looks, then parks. `ready` must read with `SeqCst` what
    /// the waker wrote with `SeqCst` before calling [`Parker::wake`]: then
    /// either this side's re-check sees the write or the waker sees
    /// `sleeping`.
    pub(crate) fn wait(&self, ready: impl Fn() -> bool) {
        // The common case on a busy pipeline: no clock read at all.
        if ready() {
            return;
        }
        let started = Instant::now();
        loop {
            if ready() {
                return;
            }
            if started.elapsed() >= HOP_POLL {
                break;
            }
            std::thread::yield_now();
        }
        // A poisoned lock only means a thread panicked between two whole
        // assignments of the `Option`.
        *self.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        loop {
            self.sleeping.store(true, Ordering::SeqCst);
            if ready() {
                self.sleeping.store(false, Ordering::SeqCst);
                return;
            }
            std::thread::park();
        }
    }

    /// Unparks the waiter if it published `sleeping`; returns whether this
    /// call did (of two racing wakers one does), so a waker with several
    /// sleepers to choose from can stop at the first it woke.
    #[inline]
    pub(crate) fn wake(&self) -> bool {
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
    #[cfg(test)]
    pub(crate) fn is_sleeping(&self) -> bool {
        self.sleeping.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn a_ready_condition_returns_without_parking() {
        let p = Parker::default();
        p.wait(|| true);
        assert!(!p.is_sleeping());
    }

    #[test]
    fn a_parked_waiter_is_woken_by_the_store_then_wake_protocol() {
        let p = Arc::new(Parker::default());
        let word = Arc::new(AtomicU64::new(0));
        let waiter = {
            let (p, word) = (Arc::clone(&p), Arc::clone(&word));
            std::thread::spawn(move || p.wait(|| word.load(Ordering::SeqCst) == 1))
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
        waiter.join().expect("waiter panicked");
        assert!(!p.wake(), "nobody sleeps there any more");
    }
}
