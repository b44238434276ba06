//! Bounded exponential backoff with jitter around the single-attempt
//! transaction primitive.
//!
//! The STM's own [`atomically`](rococo_stm::atomically) spins forever;
//! a service cannot, because a request holds a queue slot and a reply
//! channel. [`execute_seq`] bounds the attempts at [`MAX_ATTEMPTS`] and
//! sleeps between them with decorrelated jitter so colliding workers
//! spread out instead of re-colliding in lockstep. The retry loop
//! deliberately reuses the backend's escalation machinery: under
//! ROCoCoTM, consecutive aborts on the same worker thread trip the
//! irrevocable path, so a bounded retry still converges on hot keys.

use rococo_stm::{try_atomically_seq, Abort, AbortKind, TmSystem};
use std::time::Duration;

/// Transaction attempts per request before it fails with
/// [`TxKvError::RetriesExhausted`](crate::TxKvError::RetriesExhausted).
const MAX_ATTEMPTS: u32 = 64;
/// Backoff before the second attempt, in nanoseconds; it doubles with
/// every further failure.
const BASE_DELAY_NS: u64 = 250;
/// Cap on any single backoff, in nanoseconds.
const MAX_DELAY_NS: u64 = 100_000;
/// Fraction of each delay randomised away: the actual sleep is uniform
/// in `[delay * (1 - JITTER), delay]`.
const JITTER: f64 = 0.5;

/// xorshift64* step — cheap per-worker jitter source.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The backoff (ns) to sleep after the `attempt`-th failure (1-based),
/// jittered using `rng` (xorshift state, must be nonzero).
fn backoff_ns(attempt: u32, rng: &mut u64) -> u64 {
    let exp = attempt.saturating_sub(1).min(63);
    let raw = BASE_DELAY_NS.saturating_mul(1 << exp).min(MAX_DELAY_NS);
    let r = (next_rand(rng) >> 11) as f64 / (1u64 << 53) as f64;
    let lo = raw as f64 * (1.0 - JITTER);
    (lo + r * (raw as f64 - lo)) as u64
}

/// Runs `body` as repeated transaction attempts on `system` until it
/// commits or [`MAX_ATTEMPTS`] have aborted. Calls `on_abort` for every
/// failed attempt (for per-cause accounting). On success returns the
/// result, the committed attempt's durable sequence number (`None` for
/// read-only commits, see [`rococo_stm::Transaction::commit_seq`]) and
/// the number of attempts made.
///
/// # Errors
///
/// Returns the last [`Abort`] and the attempt count once the attempts
/// are exhausted.
pub(crate) fn execute_seq<S, R, F>(
    system: &S,
    thread_id: usize,
    mut body: F,
    mut on_abort: impl FnMut(AbortKind),
    rng: &mut u64,
) -> Result<(R, Option<u64>, u32), (Abort, u32)>
where
    S: TmSystem + ?Sized,
    F: FnMut(&mut S::Tx<'_>) -> Result<R, Abort>,
{
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match try_atomically_seq(system, thread_id, &mut body) {
            Ok((r, seq)) => return Ok((r, seq, attempts)),
            Err(abort) => {
                on_abort(abort.kind);
                if attempts >= MAX_ATTEMPTS {
                    return Err((abort, attempts));
                }
                let ns = backoff_ns(attempts, rng);
                rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Backoff {
                    attempt: attempts,
                    delay_ns: ns,
                });
                sleep_ns(ns);
            }
        }
    }
}

/// Sleeps roughly `ns` nanoseconds: spin for sub-microsecond waits (a
/// syscall would dominate), otherwise park the thread.
///
/// The spin is driven by an `Instant` deadline, not an iteration count:
/// one `spin_loop` hint retires in well under a nanosecond, so spinning
/// `ns` iterations used to sleep an order of magnitude shorter than the
/// computed backoff and colliding workers re-collided almost immediately.
fn sleep_ns(ns: u64) {
    if ns < 1_000 {
        let deadline = std::time::Instant::now() + Duration::from_nanos(ns);
        while std::time::Instant::now() < deadline {
            std::hint::spin_loop();
        }
    } else {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rococo_stm::{TinyStm, TmConfig, Transaction};

    fn tiny() -> TinyStm {
        TinyStm::with_config(TmConfig {
            heap_words: 64,
            max_threads: 1,
        })
    }

    #[test]
    fn backoff_is_bounded_by_max_delay() {
        let mut rng = 42;
        // Jitter keeps every delay in [raw / 2, raw].
        for (attempt, raw) in [(1, 250), (2, 500), (6, 8_000), (9, 64_000)] {
            let d = backoff_ns(attempt, &mut rng);
            assert!((raw / 2..=raw).contains(&d), "attempt {attempt}: {d}");
        }
        // Caps instead of growing without bound, or overflowing the shift.
        for attempt in [10, 63, 64, u32::MAX] {
            let d = backoff_ns(attempt, &mut rng);
            assert!((MAX_DELAY_NS / 2..=MAX_DELAY_NS).contains(&d), "{d}");
        }
    }

    #[test]
    fn backoff_is_jittered_within_band() {
        let mut rng = 0x1234_5678_9abc_def0;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let d = backoff_ns(6, &mut rng); // raw = 8_000
            assert!((4_000..=8_000).contains(&d), "delay {d} out of band");
            seen.insert(d);
        }
        // Actually jittered: many distinct values, not a constant.
        assert!(seen.len() > 16, "only {} distinct delays", seen.len());
    }

    #[test]
    fn jitter_is_reproducible_under_a_fixed_seed() {
        let seq = |seed: u64| -> Vec<u64> {
            let mut rng = seed;
            (1..=20).map(|a| backoff_ns(a, &mut rng)).collect()
        };
        // Same seed, same delays; a different seed diverges somewhere.
        assert_eq!(seq(0xDEAD_BEEF), seq(0xDEAD_BEEF));
        assert_ne!(seq(0xDEAD_BEEF), seq(0xFEED_FACE));
    }

    #[test]
    fn gives_up_after_64_attempts() {
        let tm = tiny();
        let mut causes = Vec::new();
        let mut rng = 7;
        let res: Result<((), _, _), _> = execute_seq(
            &tm,
            0,
            |_tx| Err(Abort::new(AbortKind::Explicit)),
            |k| causes.push(k),
            &mut rng,
        );
        let (abort, attempts) = res.unwrap_err();
        assert_eq!(attempts, 64);
        assert_eq!(abort.kind, AbortKind::Explicit);
        assert_eq!(causes, vec![AbortKind::Explicit; 64]);
    }

    #[test]
    fn execute_counts_attempts_on_success() {
        let tm = tiny();
        let addr = tm.heap().alloc(1);
        let mut rng = 7;
        let mut fail_first = true;
        let (val, seq, attempts) = execute_seq(
            &tm,
            0,
            |tx| {
                if fail_first {
                    fail_first = false;
                    return Err(Abort::new(AbortKind::Explicit));
                }
                tx.write(addr, 5)?;
                tx.read(addr)
            },
            |_| {},
            &mut rng,
        )
        .unwrap();
        assert_eq!(val, 5);
        assert_eq!(seq, Some(0));
        assert_eq!(attempts, 2);
    }
}
