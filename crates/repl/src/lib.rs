//! `rococo-repl`: WAL-shipped replication for TxKV.
//!
//! Turns the durable TxKV service into a replicated primary/follower
//! cluster of in-process "nodes" joined by simulated links. It starts no
//! thread: a shipper round is a call ([`Cluster::ship`]) that runs on the
//! thread that needs it — a watermark-gated read, [`Cluster::catch_up`],
//! or a load generator's tick:
//!
//! * [`stream`] — the wire format: group-committed WAL records shipped
//!   as CRC-checked [`StreamBatch`]es, dense in commit-sequence order,
//!   rejected as a unit on any framing, checksum, or density defect.
//! * [`link`] — the simulated primary→follower link: seeded
//!   sender-side faults (drop, reorder, partition) that exercise the
//!   receiver's gap/resend protocol.
//! * [`cluster`] — the nodes themselves: a shipper tailing the
//!   primary's log and writing each delivered batch into its follower's
//!   table, watermark-gated read-your-writes snapshot reads, and a
//!   deterministic fail-over coordinator with election, WAL-recovery
//!   catch-up, and fencing. Its crash points (`mid-batch-ship`,
//!   `during-election`) are [`rococo_wal::KillPoint`]s, polled on the
//!   switch the primary's WAL polls.
//! * [`stats`] — counters, per-follower lag, and apply-latency
//!   histograms exported under the unified `rococo_repl_*` metric
//!   namespace.
//!
//! The guarantee chain, end to end: an acked write is on the primary's
//! disk before its ack ([`rococo_wal::FsyncPolicy::Always`]); the log
//! is dense in serialization order; followers apply only validated
//! dense prefixes; fail-over recovers the new primary from that same
//! disk — so no acknowledged write is ever lost, and a follower read
//! gated on the write's commit sequence always observes it.

#![warn(missing_docs)]

pub mod cluster;
pub mod link;
pub mod stats;
pub mod stream;

pub use cluster::{Cluster, ClusterConfig, FailoverReport, ReplError, ReplReport};
pub use link::{LinkFaults, LinkStats};
pub use stats::{ReplSnapshot, ReplStats};
pub use stream::{BatchError, StreamBatch, ENVELOPE_LEN, MAX_BATCH_PAYLOAD, STREAM_MAGIC};
