//! A discrete-event, virtual-time multicore simulator for TM systems.
//!
//! The paper's Figure 10 measures STAMP on a 14-core / 28-hyperthread
//! Haswell Xeon. The reproduction host has two vCPUs, so wall-clock
//! multi-thread speedups cannot be measured; this crate substitutes a
//! deterministic simulator that reads no clock:
//!
//! 1. A STAMP application is executed once, single-threaded, under
//!    `rococo_stm::Recorder` (the one recording wrapper, which the chaos
//!    oracle's histories also come from);
//!    `rococo_stamp::harness::record_workload` turns its committed
//!    attempts into [`rococo_stm::TxnRecord`] footprints (addresses and
//!    phase epoch, no time), and [`Workload::from_records`] groups them
//!    into a [`Workload`]: the committed transactions' read/write
//!    footprints, each priced once by a [`SeqCost`] from its access count,
//!    and the phase (barrier) structure.
//! 2. [`simulate`] replays the workload on `T` virtual workers. Per-system
//!    [`CostModel`]s charge the bookkeeping overheads (per-access costs,
//!    commit/validation latency, the hyper-threading penalty above the
//!    physical core count), while the **conflict decisions come from the
//!    same algorithms the live runtimes use**:
//!    * TinySTM — the LSA rule: abort iff a transaction that committed
//!      during my execution wrote something I read;
//!    * TSX-HTM — eager cache-line conflicts (a commit dooms every running
//!      transaction whose footprint overlaps its write set), capacity
//!      aborts on an L1-like model, 5 attempts then a global fallback lock
//!      that dooms all running hardware transactions;
//!    * ROCoCoTM — the real [`rococo_fpga::ValidationEngine`] (signature
//!      detector + reachability matrix + sliding window) validates each
//!      commit; stale reads abort on the CPU fast path, cycles and window
//!      overflows abort at the FPGA; the validator is pipelined with the
//!      CCI latency of [`rococo_fpga::TimingModel`].
//!
//! The simulated clock is nanoseconds of *model time*; speedups are
//! reported against the workload's priced sequential total, so a
//! simulation is a pure function of the footprints and the two cost
//! tables.
//!
//! # Example
//!
//! ```
//! use rococo_sim::{simulate, CostModel, SeqCost, SimSystem, Workload};
//! use rococo_stm::TxnRecord;
//!
//! let txns = (0..64u64)
//!     .map(|i| TxnRecord {
//!         reads: vec![i],
//!         writes: vec![1000 + i],
//!         epoch: 1,
//!     })
//!     .collect::<Vec<_>>();
//! let cost = SeqCost {
//!     base_ns: 400.0,
//!     access_ns: 50.0,
//! };
//! let w = Workload::from_records(txns, cost);
//! assert_eq!(w.sequential_ns(), 64.0 * 500.0);
//! let r = simulate(&w, SimSystem::Rococo, 4, &CostModel::default());
//! assert_eq!(r.commits, 64);
//! assert!(r.makespan_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod machine;
mod workload;

pub use cost::{CostModel, SeqCost};
pub use machine::{simulate, SimOutcome, SimSystem};
pub use workload::{PricedTxn, Workload};
