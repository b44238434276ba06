//! Crash-point injection for the durable stack: the log, the checkpoint,
//! the replica stream's shipping and the fail-over election.
//!
//! A [`KillSwitch`] is armed with one [`KillPoint`] and a 1-based
//! occurrence count. Whoever reaches a point polls the switch there —
//! the WAL under its writer lock, a replication cluster in its shipper
//! round and in its election — and, when it fires, the component dies on
//! the spot, leaving the directory (or the cluster) in exactly the state
//! a process crash there would. The harness then recovers and checks the
//! prefix-consistency and convergence invariants. One switch covers both
//! layers, so a cluster run arms the same switch its primary's WAL polls.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Where in a batch's or a checkpoint's write, or in the replica stream,
/// the simulated crash strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KillPoint {
    /// A batch was formed but nothing reached the file: every write in
    /// it (and after it) is lost, and none were acked.
    PreAppend,
    /// The batch is half-written: the log gains a torn tail that
    /// recovery must truncate at the first bad checksum.
    MidAppend,
    /// The batch is written and fsynced but the acks never go out:
    /// clients see failures for writes that actually survive.
    PostAppendPreAck,
    /// The checkpoint temp file is half-written and never renamed: the
    /// previous checkpoint must still win.
    MidCheckpoint,
    /// The new checkpoint is durable but the log was not truncated:
    /// recovery must skip the stale records below the checkpoint.
    MidTruncate,
    /// The primary dies midway through broadcasting a stream batch: a
    /// strict prefix of the followers receives it, the rest must
    /// gap-detect against whatever the fail-over recovers.
    MidShip,
    /// The elected follower crashes after winning the election but
    /// before catch-up completes: the coordinator must fall back to the
    /// next-most-caught-up follower (or recover with none left).
    DuringElection,
}

impl KillPoint {
    /// Every kill point, in lifecycle order.
    pub const ALL: [KillPoint; 7] = [
        KillPoint::PreAppend,
        KillPoint::MidAppend,
        KillPoint::PostAppendPreAck,
        KillPoint::MidCheckpoint,
        KillPoint::MidTruncate,
        KillPoint::MidShip,
        KillPoint::DuringElection,
    ];

    /// The points of the log and its checkpoint (the crash-recovery
    /// matrix iterates these).
    pub const WAL: [KillPoint; 5] = [
        KillPoint::PreAppend,
        KillPoint::MidAppend,
        KillPoint::PostAppendPreAck,
        KillPoint::MidCheckpoint,
        KillPoint::MidTruncate,
    ];

    /// The points a replicated cluster reaches: the broadcast, the
    /// primary's acked-vs-logged window, and the election. A cluster's
    /// primary never checkpoints, so the checkpoint points are not here.
    pub const CLUSTER: [KillPoint; 3] = [
        KillPoint::MidShip,
        KillPoint::PostAppendPreAck,
        KillPoint::DuringElection,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            KillPoint::PreAppend => "pre-append",
            KillPoint::MidAppend => "mid-append",
            KillPoint::PostAppendPreAck => "post-append-pre-ack",
            KillPoint::MidCheckpoint => "mid-checkpoint",
            KillPoint::MidTruncate => "mid-truncate",
            KillPoint::MidShip => "mid-batch-ship",
            KillPoint::DuringElection => "during-election",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// A one-shot crash trigger shared between the harness and whatever
/// polls it.
#[derive(Debug)]
pub struct KillSwitch {
    point: KillPoint,
    /// Opportunities left before firing; fires when this hits zero.
    remaining: AtomicU64,
    fired: AtomicBool,
}

impl KillSwitch {
    /// Arms a switch that fires at the `after`-th occurrence (1-based)
    /// of `point`. `after == 1` fires at the first opportunity.
    pub fn arm(point: KillPoint, after: u64) -> Arc<Self> {
        Arc::new(Self {
            point,
            remaining: AtomicU64::new(after.max(1)),
            fired: AtomicBool::new(false),
        })
    }

    /// Called at each kill point; `true` means "die now". A poll of any
    /// other point than the armed one costs no occurrence.
    pub fn should_fire(&self, point: KillPoint) -> bool {
        if point != self.point || self.fired.load(Ordering::SeqCst) {
            return false;
        }
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.fired.store(true, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Whether the simulated crash actually happened. The harness checks
    /// this to tell a crashed run (bounded-loss invariants) from a run
    /// whose kill point was never reached (exact-state invariants).
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// The armed kill point.
    pub fn point(&self) -> KillPoint {
        self.point
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_at_the_nth_opportunity() {
        let k = KillSwitch::arm(KillPoint::PreAppend, 3);
        assert!(!k.should_fire(KillPoint::MidAppend));
        assert!(!k.should_fire(KillPoint::PreAppend));
        assert!(!k.should_fire(KillPoint::PreAppend));
        assert!(!k.fired());
        assert!(k.should_fire(KillPoint::PreAppend));
        assert!(k.fired());
        // One-shot: never fires again.
        assert!(!k.should_fire(KillPoint::PreAppend));
    }

    #[test]
    fn names_roundtrip() {
        for p in KillPoint::ALL {
            assert_eq!(KillPoint::parse(p.name()), Some(p));
        }
        assert_eq!(KillPoint::parse("nope"), None);
    }

    #[test]
    fn the_two_harness_sets_share_only_the_pre_ack_point() {
        for p in KillPoint::ALL {
            let (wal, cluster) = (KillPoint::WAL.contains(&p), KillPoint::CLUSTER.contains(&p));
            assert!(wal || cluster, "{} belongs to no harness", p.name());
            assert_eq!(
                wal && cluster,
                p == KillPoint::PostAppendPreAck,
                "{}",
                p.name()
            );
        }
    }
}
