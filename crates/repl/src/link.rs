//! The simulated primary→follower link: a bounded queue plus a latency
//! model, the same idiom the `rococo-fpga` crate uses for the CCI
//! round-trip — messages carry a deliver-at timestamp, the receiver
//! sleeps out the remaining latency, and faults are injected at the
//! *sender* so the receiver's protocol handling is what gets exercised.
//!
//! Faults are seeded and deterministic per link: dropped frames force
//! the follower's gap detection, and held-back frames arrive out of order
//! and force the duplicate/overlap handling. A link can also be
//! *partitioned* — every frame silently dropped until healed — which is
//! how the chaos driver models a network partition.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded queue depth of every link; a full queue sheds the frame like a
/// switch dropping under backpressure (the gap protocol recovers it).
const CAPACITY: usize = 64;
/// Modelled one-way delivery latency of every link.
const LATENCY: Duration = Duration::from_micros(50);

/// Seeded fault model for one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFaults {
    /// RNG seed (per-link streams are decorrelated by the cluster).
    pub seed: u64,
    /// Percent of frames dropped outright (gap + resend path).
    pub drop_pct: u32,
    /// Percent of frames held back and sent *after* their successor
    /// (reorder path: the follower sees a future batch first).
    pub reorder_pct: u32,
}

impl LinkFaults {
    /// No faults (production-shaped link).
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_pct: 0,
            reorder_pct: 0,
        }
    }
}

/// A frame in flight: the encoded batch plus when the model says it may
/// be delivered.
struct Frame {
    deliver_at: Instant,
    bytes: Vec<u8>,
}

/// Sender-side counters for one link.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Frames handed to the queue.
    pub sent: AtomicU64,
    /// Frames dropped by fault injection or partition.
    pub dropped: AtomicU64,
    /// Frames shed because the bounded queue was full.
    pub shed: AtomicU64,
    /// Frames delivered out of order by the reorder fault.
    pub reordered: AtomicU64,
}

/// The sending half, owned by the shipper.
pub struct LinkTx {
    tx: SyncSender<Frame>,
    faults: LinkFaults,
    rng: u64,
    /// A frame held back by the reorder fault, sent after its successor.
    held: Option<Frame>,
    partitioned: Arc<AtomicBool>,
    stats: Arc<LinkStats>,
}

/// The receiving half, owned by the follower's apply thread.
pub struct LinkRx {
    rx: Receiver<Frame>,
}

/// Creates a link with the given faults; returns the two halves plus the
/// shared partition flag and stats the cluster keeps for control and
/// observability.
pub fn link(faults: LinkFaults) -> (LinkTx, LinkRx, Arc<AtomicBool>, Arc<LinkStats>) {
    let (tx, rx) = sync_channel(CAPACITY);
    let partitioned = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(LinkStats::default());
    (
        LinkTx {
            tx,
            rng: faults.seed | 1,
            faults,
            held: None,
            partitioned: Arc::clone(&partitioned),
            stats: Arc::clone(&stats),
        },
        LinkRx { rx },
        partitioned,
        stats,
    )
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl LinkTx {
    fn roll(&mut self, pct: u32) -> bool {
        pct > 0 && xorshift(&mut self.rng) % 100 < u64::from(pct)
    }

    fn push(&mut self, frame: Frame) {
        match self.tx.try_send(frame) {
            Ok(()) => {
                self.stats.sent.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Disconnected(_)) => {} // follower gone
        }
    }

    /// Offers a frame to the link. Partition and fault rolls happen
    /// here; the frame may be dropped, held back behind its successor, or
    /// shed by the bounded queue — every loss is recoverable through the
    /// follower's gap protocol.
    pub fn send(&mut self, bytes: Vec<u8>) {
        if self.partitioned.load(Ordering::Relaxed) {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.roll(self.faults.drop_pct) {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let frame = Frame {
            deliver_at: Instant::now() + LATENCY,
            bytes,
        };
        if self.held.is_none() && self.roll(self.faults.reorder_pct) {
            // Hold this frame back; it goes out right after the next one
            // (or at flush), arriving out of order at the follower.
            self.held = Some(frame);
            return;
        }
        self.push(frame);
        if let Some(held) = self.held.take() {
            self.stats.reordered.fetch_add(1, Ordering::Relaxed);
            self.push(held);
        }
    }

    /// Sends any frame the reorder fault is still holding (called when
    /// the shipper goes idle, bounding the reordering delay like the
    /// FPGA service's reorder flush).
    pub fn flush(&mut self) {
        if let Some(held) = self.held.take() {
            self.stats.reordered.fetch_add(1, Ordering::Relaxed);
            self.push(held);
        }
    }
}

impl LinkRx {
    /// Receives the next frame, honouring its modelled latency; `None`
    /// on timeout or when the sender is gone and the queue is drained.
    pub fn recv(&self, timeout: Duration) -> Option<Vec<u8>> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => {
                let now = Instant::now();
                if frame.deliver_at > now {
                    std::thread::sleep(frame.deliver_at - now);
                }
                Some(frame.bytes)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_link_delivers_in_order() {
        let (mut tx, rx, _, stats) = link(LinkFaults::none());
        for i in 0u8..10 {
            tx.send(vec![i]);
        }
        for i in 0u8..10 {
            assert_eq!(rx.recv(Duration::from_secs(1)), Some(vec![i]));
        }
        assert_eq!(stats.sent.load(Ordering::Relaxed), 10);
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn partition_drops_everything_until_healed() {
        let (mut tx, rx, partitioned, stats) = link(LinkFaults::none());
        partitioned.store(true, Ordering::Relaxed);
        tx.send(vec![1]);
        tx.send(vec![2]);
        assert_eq!(rx.recv(Duration::from_millis(10)), None);
        partitioned.store(false, Ordering::Relaxed);
        tx.send(vec![3]);
        assert_eq!(rx.recv(Duration::from_secs(1)), Some(vec![3]));
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn reorder_fault_swaps_adjacent_frames() {
        let (mut tx, rx, _, stats) = link(LinkFaults {
            seed: 7,
            reorder_pct: 100,
            ..LinkFaults::none()
        });
        tx.send(vec![1]); // held
        tx.send(vec![2]); // sent, then releases the held frame
        assert_eq!(rx.recv(Duration::from_secs(1)), Some(vec![2]));
        assert_eq!(rx.recv(Duration::from_secs(1)), Some(vec![1]));
        tx.send(vec![3]); // held again
        tx.flush();
        assert_eq!(rx.recv(Duration::from_secs(1)), Some(vec![3]));
        assert_eq!(stats.reordered.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn full_queue_sheds() {
        let (mut tx, _rx, _, stats) = link(LinkFaults::none());
        for i in 0..CAPACITY + 3 {
            tx.send(vec![i as u8]);
        }
        assert_eq!(stats.sent.load(Ordering::Relaxed), CAPACITY as u64);
        assert_eq!(stats.shed.load(Ordering::Relaxed), 3);
    }
}
