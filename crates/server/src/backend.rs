//! Config-driven backend selection.
//!
//! [`TxKv`] is generic over the TM backend, which is the right shape for
//! tests and libraries — but harnesses (the chaos runner, the load
//! generator, operators reading a config file) want to pick the backend
//! by *name* at runtime. [`BackendChoice`] is that name, carried on
//! [`TxKvConfig::backend`], and [`AnyTxKv`] is the enum-dispatched
//! service handle [`AnyTxKv::start`] builds from the configuration
//! alone: it sizes the TM from [`TxKvConfig::heap_words`] /
//! [`TxKvConfig::worker_threads`], constructs the chosen backend
//! (including the hybrid router), and forwards the service surface.

use crate::hop::PendingReply;
use crate::request::{Request, Response, TxKvError};
use crate::service::{TxKv, TxKvConfig};
use crate::stats::TxKvReport;
use rococo_sched::HybridTm;
use rococo_stm::{RococoTm, TinyStm, TmConfig, TsxHtm};
use std::sync::Arc;

/// Which TM runtime the service executes transactions on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// TinySTM-style LSA word-based STM (the software baseline).
    TinyStm,
    /// Best-effort TSX-style HTM emulation with a global-lock fallback.
    Htm,
    /// ROCoCoTM with the shared FPGA validation engine (the default).
    #[default]
    Rococo,
    /// The adaptive hybrid router: HTM fast path under a limited-set
    /// bound, ROCoCoTM slow path, contention-aware conflict
    /// serialization (`rococo-sched`).
    Hybrid,
}

impl BackendChoice {
    /// Every choice, in display order.
    pub const ALL: [BackendChoice; 4] = [
        BackendChoice::TinyStm,
        BackendChoice::Htm,
        BackendChoice::Rococo,
        BackendChoice::Hybrid,
    ];

    /// The backend's canonical CLI name (what [`BackendChoice::parse`]
    /// accepts). Note the constructed system's
    /// [`TmSystem::name`](rococo_stm::TmSystem::name) is a *display*
    /// name ("TinySTM", "ROCoCoTM", ...), not this.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::TinyStm => "tinystm",
            BackendChoice::Htm => "htm",
            BackendChoice::Rococo => "rococo",
            BackendChoice::Hybrid => "hybrid",
        }
    }

    /// Parses a backend name (the inverse of [`BackendChoice::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.name() == s)
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A [`TxKv`] over the backend [`TxKvConfig::backend`] named — the
/// non-generic handle for config-driven harnesses. One enum variant per
/// backend; every method forwards to the inner service.
#[derive(Debug)]
pub enum AnyTxKv {
    /// Service on the TinySTM baseline.
    TinyStm(TxKv<TinyStm>),
    /// Service on the HTM emulation.
    Htm(TxKv<TsxHtm>),
    /// Service on ROCoCoTM.
    Rococo(TxKv<RococoTm>),
    /// Service on the hybrid router.
    Hybrid(TxKv<HybridTm>),
}

/// Forwards one `&self` method through the four variants.
macro_rules! forward {
    ($self:ident, $kv:ident => $body:expr) => {
        match $self {
            AnyTxKv::TinyStm($kv) => $body,
            AnyTxKv::Htm($kv) => $body,
            AnyTxKv::Rococo($kv) => $body,
            AnyTxKv::Hybrid($kv) => $body,
        }
    };
}

impl AnyTxKv {
    /// Builds the backend `cfg.backend` names (sized for the keyspace and
    /// worker pool) and starts the service on it.
    ///
    /// # Errors
    ///
    /// As [`TxKv::start`].
    pub fn start(cfg: TxKvConfig) -> Result<Self, TxKvError> {
        let tm_cfg = TmConfig {
            heap_words: cfg.heap_words(),
            max_threads: cfg.worker_threads(),
        };
        match cfg.backend {
            BackendChoice::TinyStm => {
                TxKv::start(Arc::new(TinyStm::with_config(tm_cfg)), cfg).map(AnyTxKv::TinyStm)
            }
            BackendChoice::Htm => {
                TxKv::start(Arc::new(TsxHtm::with_config(tm_cfg)), cfg).map(AnyTxKv::Htm)
            }
            BackendChoice::Rococo => {
                TxKv::start(Arc::new(RococoTm::with_config(tm_cfg)), cfg).map(AnyTxKv::Rococo)
            }
            BackendChoice::Hybrid => {
                TxKv::start(Arc::new(HybridTm::with_config(tm_cfg)), cfg).map(AnyTxKv::Hybrid)
            }
        }
    }

    /// Submits a request without waiting (see [`TxKv::submit`]).
    ///
    /// # Errors
    ///
    /// As [`TxKv::submit`].
    pub fn submit(&self, req: Request) -> Result<PendingReply, TxKvError> {
        forward!(self, kv => kv.submit(req))
    }

    /// Submits a request and blocks for the response (see
    /// [`TxKv::call`]).
    ///
    /// # Errors
    ///
    /// As [`TxKv::call`].
    pub fn call(&self, req: Request) -> Result<Response, TxKvError> {
        forward!(self, kv => kv.call(req))
    }

    /// Submits a request and blocks for the response plus its commit
    /// sequence number (see [`TxKv::call_with_seq`]).
    ///
    /// # Errors
    ///
    /// As [`TxKv::call_with_seq`].
    pub fn call_with_seq(&self, req: Request) -> Result<(Response, Option<u64>), TxKvError> {
        forward!(self, kv => kv.call_with_seq(req))
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &TxKvConfig {
        forward!(self, kv => kv.config())
    }

    /// A live report (see [`TxKv::report`]).
    pub fn report(&self) -> TxKvReport {
        forward!(self, kv => kv.report())
    }

    /// Stops the service and returns the final report (see
    /// [`TxKv::shutdown`]).
    pub fn shutdown(self) -> TxKvReport {
        forward!(self, kv => kv.shutdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for b in BackendChoice::ALL {
            assert_eq!(BackendChoice::parse(b.name()), Some(b));
        }
        assert_eq!(BackendChoice::parse("nope"), None);
        assert_eq!(BackendChoice::default(), BackendChoice::Rococo);
    }

    #[test]
    fn every_choice_starts_and_serves() {
        for b in BackendChoice::ALL {
            let cfg = TxKvConfig {
                shards: 1,
                workers_per_shard: 2,
                keys: 64,
                backend: b,
                ..TxKvConfig::default()
            };
            let kv = AnyTxKv::start(cfg).unwrap();
            kv.call(Request::Put { key: 5, value: 40 }).unwrap();
            assert_eq!(
                kv.call(Request::Add { key: 5, delta: 2 }).unwrap(),
                Response::Value(42)
            );
            let report = kv.shutdown();
            let display = match b {
                BackendChoice::TinyStm => "TinySTM",
                BackendChoice::Htm => "TSX-HTM",
                BackendChoice::Rococo => "ROCoCoTM",
                BackendChoice::Hybrid => "hybrid",
            };
            assert_eq!(report.backend, display, "report carries the system name");
            assert_eq!(report.aggregate.committed, 2);
        }
    }
}
