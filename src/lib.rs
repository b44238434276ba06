//! # rococo — a reproduction of ROCoCoTM (MICRO-52, 2019)
//!
//! *FPGA-Accelerated Optimistic Concurrency Control for Transactional
//! Memory* (Li, Liu, Deng, Wang, Liu, Yin, Wei) proposes **ROCoCo** — a
//! concurrency-control algorithm that validates serializability by
//! maintaining the *reachability* (transitive closure) of committed
//! transactions in a bit matrix instead of relying on timestamps — and
//! **ROCoCoTM**, a hybrid TM whose validation phase is offloaded to a
//! pipelined FPGA engine on Intel HARP2.
//!
//! This umbrella crate re-exports the whole reproduction stack:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `rococo-core` | the ROCoCo algorithm: reachability matrix, sliding window, validator, order-theory oracles |
//! | [`sigs`] | `rococo-sigs` | partitioned bloom-filter signatures + false-positivity models (Fig. 7) |
//! | [`trace`] | `rococo-trace` | the EigenBench-like micro-benchmark generator (§6.1) |
//! | [`cc`] | `rococo-cc` | trace-driven CC simulators: 2PL, TOCC, BOCC/FOCC, ROCoCo (Fig. 9) |
//! | [`fpga`] | `rococo-fpga` | the simulated validation pipeline: detector, manager, timing + resource models (§4.2, §6.5) |
//! | [`stm`] | `rococo-stm` | live TM runtimes: ROCoCoTM, TinySTM-style LSA, TSX-style HTM, references (§5) |
//! | [`stamp`] | `rococo-stamp` | the STAMP port and run harness (Fig. 10) |
//! | [`sim`] | `rococo-sim` | virtual-time multicore simulator for speedup studies on small hosts |
//! | [`server`] | `rococo-server` | TxKV: sharded transactional KV service with admission control, bounded retry, and latency/abort observability |
//! | [`wal`] | `rococo-wal` | write-ahead log: group commit, checkpoints, torn-tail recovery, crash-point injection |
//! | [`repl`] | `rococo-repl` | WAL-shipped replication: primary/follower clusters, watermark-gated follower reads, deterministic fail-over |
//! | [`telemetry`] | `rococo-telemetry` | observability: metrics registry (Prometheus/JSON), transaction flight recorder, Perfetto trace export |
//! | [`sched`] | `rococo-sched` | adaptive hybrid router: HTM fast path under a limited-set bound, ROCoCoTM slow path, contention-aware conflict serialization |
//!
//! # Quickstart
//!
//! ```
//! use rococo::stm::{atomically, RococoTm, TmConfig, TmSystem, Transaction};
//!
//! let tm = RococoTm::with_config(TmConfig { heap_words: 1024, max_threads: 4 });
//! let account = 0;
//! tm.heap().store_direct(account, 100);
//! atomically(&tm, 0, |tx| {
//!     let balance = tx.read(account)?;
//!     tx.write(account, balance + 1)
//! });
//! assert_eq!(tm.heap().load_direct(account), 101);
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment index.

pub use rococo_cc as cc;
pub use rococo_core as core;
pub use rococo_fpga as fpga;
pub use rococo_repl as repl;
pub use rococo_sched as sched;
pub use rococo_server as server;
pub use rococo_sigs as sigs;
pub use rococo_sim as sim;
pub use rococo_stamp as stamp;
pub use rococo_stm as stm;
pub use rococo_telemetry as telemetry;
pub use rococo_trace as trace;
pub use rococo_wal as wal;
