//! `rococo-wal`: durability for TxKV.
//!
//! A write-ahead **redo** log of committed transactions. The TM backends
//! hand every update transaction a *dense* commit sequence number fetched
//! inside the commit critical section (see
//! `rococo_stm::Transaction::commit_seq`), so log order equals
//! serialization order for every dependent pair of transactions — the
//! property that makes prefix-truncation at a torn tail safe.
//!
//! The moving parts:
//!
//! * **Records** ([`record`]): length-prefixed, CRC32-checksummed frames
//!   `[len][crc][seq, n, (key, value) × n]`. The sequence number doubles
//!   as the commit timestamp; replay in file order is replay in commit
//!   order.
//! * **Group commit** ([`writer::Wal`]): shard workers *post*
//!   `(seq, write-set)` into a bounded ring indexed by the commit sequence
//!   itself (record `seq` lives in slot `seq % depth`) and carry on. There
//!   is no writer thread: a worker that waits for the **durable
//!   watermark** ([`writer::Wal::wait_durable`]) takes the one writer
//!   lock, batches the dense run of posted slots from `next` into one
//!   `write(2)`, fsyncs per [`writer::FsyncPolicy`], and only then
//!   advances the watermark — unless a thread that held the lock while
//!   it napped already did. Out-of-order arrivals simply sit in their
//!   slots until the gap fills, so the file is dense by construction.
//! * **Checkpoints** ([`record::Checkpoint`]): a full snapshot of the
//!   key table written to `ckpt.tmp`, fsynced, atomically renamed to
//!   `ckpt-<next_seq>.snap`, and only *then* the log is truncated —
//!   a crash between rename and truncation leaves stale records that
//!   recovery skips by sequence number.
//! * **Recovery** ([`recover::recover`]): picks the newest checkpoint
//!   that passes its checksum, replays log records with
//!   `seq >= checkpoint.next_seq` in order, truncates the log at the
//!   first invalid frame (bad length, bad CRC, or a sequence gap), and
//!   completes any interrupted truncation.
//! * **Crash injection** ([`kill::KillSwitch`]): the chaos harness arms
//!   a kill point (the WAL's own are [`KillPoint::WAL`]: `PreAppend`,
//!   `MidAppend`, `PostAppendPreAck`, `MidCheckpoint`, `MidTruncate`);
//!   when it fires the WAL dies on the spot — leaving exactly the
//!   on-disk state a crash there would, the watermark where it was — and
//!   every in-flight and future append fails with [`writer::WalDead`].
//!   The replication cluster polls the same switch at its own points
//!   ([`KillPoint::CLUSTER`]).
//!
//! What an ack means: with [`writer::FsyncPolicy::Always`] an acked
//! write is on stable storage. `EveryN`/`Never` trade that guarantee for
//! throughput (data sits in the OS page cache); the simulated crashes
//! here keep page-cache contents, so the chaos oracle holds for all
//! modes, but only `Always` survives a real power loss.

#![warn(missing_docs)]

pub mod crc;
pub mod kill;
pub mod record;
pub mod recover;
pub mod stats;
pub mod writer;

pub use crc::crc32;
pub use kill::{KillPoint, KillSwitch};
pub use record::{Checkpoint, DecodeEnd, WalRecord};
pub use recover::{recover, RecoveredState, RecoveryReport};
pub use stats::{WalSnapshot, WalStats};
pub use writer::{FsyncPolicy, Wal, WalConfig, WalDead};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Creates a fresh, empty scratch directory under the system temp dir —
/// unique per process and call — for tests and chaos harnesses that need
/// a throwaway WAL directory. The caller owns cleanup
/// (`std::fs::remove_dir_all`).
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rococo-wal-{}-{}-{n}", tag, std::process::id()));
    if dir.exists() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
