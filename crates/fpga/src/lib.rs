//! Cycle-level simulator of the ROCoCoTM FPGA validation pipeline.
//!
//! The paper offloads the centralized validation phase of ROCoCo to an
//! Arria 10 FPGA on Intel HARP2 (sections 4.2 and 5). This crate substitutes
//! a software model that is **bit-exact in its decisions** and
//! **stage-accurate in its timing**:
//!
//! * [`ValidationEngine`] — the functional model: the *Detector* queries a
//!   transaction's read/write addresses against the bloom signatures of
//!   the last `W` commits — all `W` at once, through column tables
//!   bit-sliced by signature bit, in two banks that a commit only sets bits
//!   in and each new generation of `W` commits zeroes one of — to build the
//!   `f`/`b` dependency vectors, and the *Manager* takes the vectors as they
//!   are, validates them against the reachability matrix
//!   ([`rococo_core::RococoValidator`]) and slides the window (Figure 5). No
//!   allocation per verdict.
//! * [`PipelinedValidator`] — wraps the engine with a timing model
//!   ([`TimingModel`]): a fully pipelined datapath with an initiation
//!   interval of one clock cycle at 200 MHz, plus the CCI round-trip latency
//!   of the HARP2 interconnect (< 600 ns, footnote 8). Used by the
//!   Figure 11 overhead study.
//! * [`ValidationService`] — the engine behind one lock, run by the thread
//!   that posts a request to it, playing the role of the physical FPGA
//!   inside the live `rococo-stm` runtime (in place of the pull/push queues
//!   of Figure 6, whose overlap [`TimingModel`] models).
//! * [`resources`] — the analytical resource model reproducing the
//!   section 6.5 utilisation table.
//!
//! # Example
//!
//! ```
//! use rococo_fpga::{EngineConfig, ValidateRequest, ValidationEngine};
//!
//! let mut engine = ValidationEngine::new(EngineConfig::default());
//! let verdict = engine.process(&ValidateRequest {
//!     tx_id: 1,
//!     valid_ts: 0,
//!     read_addrs: vec![0x10],
//!     write_addrs: vec![0x20],
//! });
//! assert!(verdict.is_commit());
//! ```

#![warn(missing_docs)]

mod engine;
mod fault;
mod pipeline;
pub mod resources;
mod service;

pub use engine::{EngineConfig, EngineStats, FpgaVerdict, ValidateRequest, ValidationEngine};
pub use fault::FaultConfig;
pub use pipeline::{PipelineStats, PipelinedValidator, TimingModel};
pub use service::{PendingVerdict, ServiceHandle, ValidationService};
