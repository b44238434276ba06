//! The simulated primary→follower link: seeded sender-side faults. The
//! shipper offers each frame to [`LinkTx::send`], which rolls the faults
//! and returns the frames to deliver now; the shipper hands those to the
//! follower itself, so the faults are what exercise its protocol.
//!
//! Faults are seeded and deterministic per link: dropped frames force
//! the follower's gap detection, and held-back frames arrive out of order
//! and force the duplicate/overlap handling. A link can also be
//! *partitioned* — every frame silently dropped until healed — which is
//! how the chaos driver models a network partition.

use std::sync::atomic::{AtomicU64, Ordering};

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

/// Sender-side counters for one link.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Frames delivered to the follower.
    pub sent: AtomicU64,
    /// Frames dropped by fault injection or partition.
    pub dropped: AtomicU64,
    /// Frames delivered out of order by the reorder fault.
    pub reordered: AtomicU64,
}

/// The shipper's end of one link: the fault stream and the frame the
/// reorder fault holds back.
pub struct LinkTx {
    faults: LinkFaults,
    rng: u64,
    held: Option<Vec<u8>>,
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
    /// A link with the given faults.
    pub fn new(faults: LinkFaults) -> Self {
        Self {
            rng: faults.seed | 1,
            faults,
            held: None,
        }
    }

    fn roll(&mut self, pct: u32) -> bool {
        pct > 0 && xorshift(&mut self.rng) % 100 < u64::from(pct)
    }

    /// Offers a frame to the link and returns the frames to deliver now,
    /// in order. Partition and fault rolls happen here: the frame may be
    /// dropped, or held back and delivered after its successor (or at
    /// [`LinkTx::flush`]) — every loss is recoverable through the
    /// follower's gap protocol.
    pub fn send(
        &mut self,
        bytes: Vec<u8>,
        partitioned: bool,
        stats: &LinkStats,
    ) -> impl Iterator<Item = Vec<u8>> {
        let mut now = None;
        let mut after = None;
        if partitioned || self.roll(self.faults.drop_pct) {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
        } else if self.held.is_none() && self.roll(self.faults.reorder_pct) {
            self.held = Some(bytes);
        } else {
            stats.sent.fetch_add(1, Ordering::Relaxed);
            now = Some(bytes);
            after = self.flush(stats);
        }
        now.into_iter().chain(after)
    }

    /// Releases the frame the reorder fault is still holding (called
    /// after every burst, bounding the reordering delay).
    pub fn flush(&mut self, stats: &LinkStats) -> Option<Vec<u8>> {
        let held = self.held.take()?;
        stats.sent.fetch_add(1, Ordering::Relaxed);
        stats.reordered.fetch_add(1, Ordering::Relaxed);
        Some(held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(tx: &mut LinkTx, byte: u8, partitioned: bool, stats: &LinkStats) -> Vec<Vec<u8>> {
        tx.send(vec![byte], partitioned, stats).collect()
    }

    #[test]
    fn faultless_link_delivers_in_order() {
        let (mut tx, stats) = (LinkTx::new(LinkFaults::none()), LinkStats::default());
        for i in 0u8..10 {
            assert_eq!(sent(&mut tx, i, false, &stats), vec![vec![i]]);
        }
        assert_eq!(tx.flush(&stats), None);
        assert_eq!(stats.sent.load(Ordering::Relaxed), 10);
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn partition_drops_everything_until_healed() {
        let (mut tx, stats) = (LinkTx::new(LinkFaults::none()), LinkStats::default());
        assert!(sent(&mut tx, 1, true, &stats).is_empty());
        assert!(sent(&mut tx, 2, true, &stats).is_empty());
        assert_eq!(tx.flush(&stats), None);
        assert_eq!(sent(&mut tx, 3, false, &stats), vec![vec![3]]);
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 2);
        assert_eq!(stats.sent.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reorder_fault_swaps_adjacent_frames() {
        let stats = LinkStats::default();
        let mut tx = LinkTx::new(LinkFaults {
            seed: 7,
            reorder_pct: 100,
            ..LinkFaults::none()
        });
        assert!(sent(&mut tx, 1, false, &stats).is_empty(), "held");
        // Sent, then the held frame right behind it.
        assert_eq!(sent(&mut tx, 2, false, &stats), vec![vec![2], vec![1]]);
        assert!(sent(&mut tx, 3, false, &stats).is_empty(), "held again");
        assert_eq!(tx.flush(&stats), Some(vec![3]));
        assert_eq!(tx.flush(&stats), None);
        assert_eq!(stats.reordered.load(Ordering::Relaxed), 2);
        assert_eq!(stats.sent.load(Ordering::Relaxed), 3);
    }
}
