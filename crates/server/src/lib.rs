//! TxKV — a sharded transactional key-value service on top of the
//! ROCoCoTM reproduction stack.
//!
//! Every request is executed as **one transaction** against the shared
//! [`TmHeap`](rococo_stm::TmHeap) through the generic
//! [`TmSystem`](rococo_stm::TmSystem) interface, so the same service runs
//! unchanged on every runtime in the tree: the TinySTM-style baseline, the
//! TSX-style HTM emulation, and ROCoCoTM with its shared FPGA validation
//! engine. The service is the repo's first subsystem on the "serve
//! traffic" axis of the roadmap: an instrumented front-end for studying
//! hybrid-TM concurrency costs under open-loop load rather than closed
//! STAMP phases.
//!
//! Architecture:
//!
//! * [`Request`] — the typed request model: point `Get`/`Put`,
//!   read-modify-write `Add`, multi-key `Transfer`, and snapshot
//!   `MultiGet`. Each maps keys into a contiguous key table on the TM
//!   heap and runs as a single transaction.
//! * [`TxKv`] — the service: requests are hash-routed to one of `shards`
//!   bounded queues, each drained by a pool of worker threads. When a
//!   queue backs up, admission control sheds the request with a typed
//!   [`TxKvError::Overloaded`] instead of queueing without bound.
//! * Retries — up to 64 attempts per request with bounded exponential
//!   backoff plus jitter. Repeated aborts feed the backend's own
//!   escalation (on ROCoCoTM, the consecutive-abort counter eventually
//!   runs the attempt irrevocably, so starved requests still finish).
//! * [`ShardStats`] / [`TxKvReport`] — per-shard observability:
//!   commit/retry/shed counters, abort-cause breakdown (CPU stale read vs
//!   FPGA cycle vs window overflow vs HTM capacity/fallback), and
//!   log-bucketed latency histograms with p50/p99/p999.
//! * [`DurabilityConfig`] — optional write-ahead logging (the
//!   `rococo-wal` crate): committed write sets are appended to a
//!   group-commit redo log in serialization order and acknowledged after
//!   fsync; a checkpoint coordinator periodically quiesces commits,
//!   snapshots the key table, and truncates the log.
//!   [`TxKv::recover`] rebuilds the table from the newest checkpoint plus
//!   the log tail after a crash.
//!
//! # Example
//!
//! ```
//! use rococo_server::{Request, Response, TxKv, TxKvConfig};
//! use rococo_stm::{TinyStm, TmConfig};
//! use std::sync::Arc;
//!
//! let cfg = TxKvConfig { shards: 2, workers_per_shard: 1, ..TxKvConfig::default() };
//! let tm = TinyStm::with_config(TmConfig {
//!     heap_words: cfg.heap_words(),
//!     max_threads: cfg.worker_threads(),
//! });
//! let kv = TxKv::start(Arc::new(tm), cfg).unwrap();
//! kv.call(Request::Put { key: 7, value: 40 }).unwrap();
//! kv.call(Request::Add { key: 7, delta: 2 }).unwrap();
//! assert_eq!(kv.call(Request::Get { key: 7 }).unwrap(), Response::Value(42));
//! let report = kv.shutdown();
//! assert_eq!(report.aggregate.committed, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod hop;
mod request;
mod retry;
mod service;
mod shard;
mod stats;

pub use backend::BackendChoice;
pub use hop::PendingReply;
pub use request::{Key, Request, Response, TxKvError};
pub use service::{DurabilityConfig, TxKv, TxKvConfig};
pub use stats::{ShardSnapshot, ShardStats, TxKvReport};
