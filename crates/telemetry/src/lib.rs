//! `rococo-telemetry`: the observability layer for the ROCoCoTM stack.
//!
//! Three pillars, all dependency-free (std only) so every other crate in
//! the workspace can depend on this one without cycles:
//!
//! 1. [`registry`] — a metrics registry of named counters, gauges and
//!    histograms with label support, rendered as Prometheus text
//!    exposition or as a JSON snapshot. What goes into it is declared
//!    once per layer with [`stats_block!`] (see [`stats`]): the live
//!    relaxed-atomic struct, its snapshot, `snapshot()`, `merge()` and
//!    `export_metrics()` all come from one list of members, and every
//!    distribution is the one [`Histogram`] of [`histogram`].
//!
//! 2. [`recorder`] — a transaction *flight recorder*: per-thread ring
//!    buffers of lifecycle events (begin, read/write-set growth,
//!    validate submit, FPGA verdict with pipeline occupancy, abort with
//!    its [`TxEvent::Abort`] kind label, commit sequence number,
//!    irrevocability escalation, WAL append/fsync acknowledgement, retry
//!    backoff, injected faults). Emission is buffered and re-execution
//!    safe — an aborted transaction attempt simply leaves its events in
//!    the ring, attributed to that attempt — which is why emission is
//!    legal inside atomic closures (and allowlisted by `rococo-lint`'s
//!    `atomic-side-effect` rule). When the recorder is disabled the cost
//!    at every instrumentation point is a branch on one relaxed atomic
//!    load: no allocation, no locking, no clock read.
//!
//! 3. [`trace`] — a Chrome trace-event (Perfetto-loadable) exporter that
//!    renders per-transaction spans and FPGA Detector→Manager stage
//!    occupancy on a shared timeline, either live from drained recorder
//!    events or from the cycle-level pipeline simulator (`trace_dump`).
//!
//! What a recorded run leaves on disk — the *run directory* — has one
//! writer, one reader and one checker, all in [`rundir`]. The [`json`]
//! module is the minimal JSON escape/parse helper under them and under
//! the renderers.
//!
//! On top of the recorder sit the causal-tracing pieces: every
//! [`EventRecord`] carries the emitting thread's current *trace id*
//! (minted per request at TxKV ingress, stamped via
//! [`set_current_trace`]), the [`sampler`] keeps full event chains only
//! for tail-latency and failed requests, and [`attr`] decomposes a
//! sampled chain's end-to-end latency into critical-path stages. The
//! [`quantile`] module is the one shared implementation of
//! nearest-rank percentile selection, under the histogram and under
//! `trace_report`'s sorted samples.

#![warn(missing_docs)]

pub mod attr;
pub mod histogram;
pub mod json;
pub mod quantile;
pub mod recorder;
pub mod registry;
pub mod rundir;
pub mod sampler;
pub mod stats;
pub mod trace;

pub use attr::{attribute, check_chain, group_chains, Attribution, STAGES};
pub use histogram::{Histogram, HistogramSnapshot};
pub use recorder::{
    clear_current_trace, current_trace, disable, drain_events, dump_anomaly, emit, enable, enabled,
    flush_thread, lane_names, mint_trace, set_current_trace, take_dumps, AnomalyDump, EventRecord,
    TxEvent, DEFAULT_RING_EVENTS,
};
pub use registry::{validate_prometheus, MetricsRegistry};
pub use sampler::{
    filter_sampled, observe_request, sampled_traces, sampler_observed, sampler_reset,
    DEFAULT_TAIL_K,
};
pub use trace::{build_tx_trace, Arg, TraceBuilder, DETECTOR_TID, FPGA_PID, MANAGER_TID, TX_PID};

/// Emits a flight-recorder event if the recorder is enabled.
///
/// The event expression is evaluated *only after* the enabled check, so
/// a disabled recorder costs one relaxed atomic load and a branch — the
/// argument may therefore read cheap state (set sizes, sequence
/// numbers) without taxing the disabled hot path.
///
/// Emission is buffered into the calling thread's ring and never blocks,
/// allocates on the hot path (the ring is pre-sized), or performs I/O,
/// which makes it legal inside re-executable atomic closures.
#[macro_export]
macro_rules! tlm_event {
    ($ev:expr) => {
        if $crate::enabled() {
            $crate::emit($ev);
        }
    };
}
