//! `rococo-chaos`: a deterministic concurrency-fault harness for the TM
//! runtimes.
//!
//! The ROCoCoTM commit path is a lock-free protocol spread over three
//! shared structures (update set, commit queue, `GlobalTS`) plus an
//! asynchronous validator. Its races do not show up under friendly
//! scheduling; they need *hostile* schedules and a checker that can tell a
//! wrong answer from a slow one. This crate provides both:
//!
//! * **Fault injection** ([`rococo_fpga::FaultConfig`], driven from
//!   [`driver::ChaosParams`]): seeded late verdicts (delivered after a
//!   successor's), validator pauses and (optionally) spurious abort
//!   verdicts inside the validation service, stretching the windows in
//!   which commit-path races can fire.
//! * **History recording** ([`rococo_stm::Recorder`], the one recording
//!   wrapper, which the simulator's STAMP footprints also come from): a
//!   [`TmSystem`] wrapper that logs every transaction attempt —
//!   externally-read `(addr, value)` pairs, the final write set, and
//!   globally-stamped invocation/response times — with per-thread logs
//!   so recording does not serialize the schedule under test.
//! * **A serializability oracle** ([`oracle::check_history`]): for RMW
//!   workloads whose "version" words carry unique values, the per-address
//!   version order is uniquely recoverable from the history, so the
//!   serialization graph is an ordinary digraph and acyclicity is a sound
//!   *and complete* serializability check. A topological replay then
//!   revalidates every read (including non-unique payload words) and the
//!   final heap state.
//! * **A trace-completeness oracle** ([`trace_oracle::check_trace`]):
//!   every request chain the flight recorder captures must be
//!   stage-monotone and exactly attributable — the causal traces that
//!   aim optimization work are checked as adversarially as the answers.
//! * **A stress driver** ([`driver::run_chaos`]): seeded workloads over
//!   every backend, sweep and shrink helpers, and one-line reproducer
//!   commands for failing seeds.
//! * **Two service harnesses over one workload** ([`service`]): a durable
//!   TxKV whose WAL is killed at an armed point, then recovered
//!   ([`recovery::run_recovery`]), and a replicated cluster driven
//!   through kills, partitions and lossy links
//!   ([`cluster::run_cluster`]). Both run the same ledger-and-transfer
//!   clients on the same backend factory and judge what survives with
//!   the same ledger and bank oracle.
//!
//! One command runs all three: `chaos [stm|recovery|cluster]`.
//!
//! [`TmSystem`]: rococo_stm::TmSystem

#![warn(missing_docs)]

pub mod cluster;
pub mod driver;
pub mod oracle;
pub mod recovery;
pub mod service;
pub mod trace_oracle;
pub mod workload;

pub use cluster::{
    cluster_reproducer, cluster_sweep, run_cluster, ClusterParams, ClusterRunReport,
};
pub use driver::{
    reproducer_command, run_chaos, shrink, sweep, BackendKind, ChaosParams, ChaosReport,
    FaultPreset,
};
pub use oracle::{check_history, OracleInput};
pub use recovery::{
    recovery_reproducer, recovery_sweep, run_recovery, RecoveryParams, RecoveryRunReport,
};
pub use service::{BANK_BALANCE, SERVICE_BACKENDS};
pub use trace_oracle::{check_trace, TraceOracleReport};
pub use workload::{gen_ops, Layout, Op, INITIAL_BALANCE};
