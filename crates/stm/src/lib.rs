//! Transactional-memory runtimes for the ROCoCoTM reproduction.
//!
//! All systems implement one word-granular TM interface ([`TmSystem`] /
//! [`Transaction`] / [`atomically`]) over a shared [`TmHeap`], so the STAMP
//! port in `rococo-stamp` runs unchanged on every runtime:
//!
//! * [`RococoTm`] — the paper's hybrid TM (section 5): bloom-signature
//!   read/write sets, redo logging, the `GlobalTS`/`LocalTS`/`ValidTS`
//!   snapshot-extension algorithm of Algorithm 1 and Figure 8 on the CPU
//!   side, and validation offloaded to the simulated FPGA pipeline of
//!   `rococo-fpga`, which decides each commit on the committing thread.
//! * [`TinyStm`] — the baseline STM: a word-based Lazy Snapshot Algorithm
//!   with commit-time locking and write-back (the TinySTM configuration the
//!   paper benchmarks against).
//! * [`TsxHtm`] — an emulation of a best-effort HTM in the style of Intel
//!   TSX: eager cache-line-granular conflict detection, capacity aborts
//!   modelled on an L1-like 8-way cache, and a 4-retry policy backed by a
//!   global fallback lock.
//! * [`SeqTm`] and [`GlobalLockTm`] — the sequential reference (STAMP's
//!   speedup baseline) and a single-global-lock runtime.
//!
//! # Example
//!
//! ```
//! use rococo_stm::{atomically, RococoTm, TmConfig, TmSystem, Transaction};
//!
//! let tm = RococoTm::with_config(TmConfig { heap_words: 1024, max_threads: 2 });
//! let acct = 0usize;
//! tm.heap().store_direct(acct, 100);
//! atomically(&tm, 0, |tx| {
//!     let v = tx.read(acct)?;
//!     tx.write(acct, v + 23)
//! });
//! assert_eq!(tm.heap().load_direct(acct), 123);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod heap;
mod htm;
mod record;
mod rococotm;
mod seq;
mod tinystm;

pub use api::{
    atomically, try_atomically, try_atomically_seq, Abort, AbortKind, StatsSnapshot, TmConfig,
    TmStats, TmSystem, Transaction,
};
pub use heap::{Addr, TmHeap, Word, NULL};
pub use htm::{HtmConfig, TsxHtm};
pub use record::{recording_seq, RecordTx, Recorder, TxnRecord};
pub use rococotm::{RococoConfig, RococoTm};
pub use seq::{GlobalLockTm, SeqTm};
pub use tinystm::TinyStm;
