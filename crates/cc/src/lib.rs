//! Trace-driven concurrency-control simulators.
//!
//! Reproduces the methodology of the paper's section 6.1: transactions from
//! a synthetic trace are replayed in arrival order under a fixed concurrency
//! level `T`, where "the tentative updates of the last `T` transactions, no
//! matter they commit or not, are not visible to current transactions".
//! Each [`CcPolicy`] decides commit or abort for every transaction; the
//! engine reports abort rates and keeps the committed footprints so tests
//! can check the serializability oracle of
//! [`rococo_core::order::rw_graph`].
//!
//! Policies provided:
//!
//! * [`TwoPhaseLocking`] — pessimistic CC: a transaction aborts if its
//!   footprint conflicts with any concurrently executing committed
//!   transaction (the paper's 2PL baseline, with blocking modelled as
//!   abort, cf. section 2.2 "blocked or aborted").
//! * [`Tocc`] — timestamp-ordered OCC with commit-time (LSA-style)
//!   timestamps, the paper's TOCC baseline: abort iff the transaction read
//!   a version that a concurrently *committed* transaction overwrote (a
//!   forward `→rw` edge; strict serializability forbids reordering past
//!   it). In this replay model the classic BOCC/FOCC broadcast algorithms
//!   make identical decisions ([`Bocc`] documents the equivalence).
//! * [`Rococo`] — the paper's contribution: forward edges are allowed as
//!   long as the reachability matrix proves no dependency cycle, using
//!   [`rococo_core::RococoValidator`] with a sliding window.
//!
//! # Example
//!
//! ```
//! use rococo_cc::{run_policy, Rococo, Tocc, TwoPhaseLocking};
//! use rococo_trace::{eigen_trace, EigenConfig};
//!
//! let trace = eigen_trace(&EigenConfig::default(), 1);
//! let rococo = run_policy(&mut Rococo::with_window(64), &trace, 16);
//! let tocc = run_policy(&mut Tocc::new(), &trace, 16);
//! let twopl = run_policy(&mut TwoPhaseLocking::new(), &trace, 16);
//! assert!(rococo.stats.abort_rate() <= tocc.stats.abort_rate());
//! assert!(tocc.stats.abort_rate() <= twopl.stats.abort_rate());
//! ```

#![warn(missing_docs)]

mod engine;
mod policies;
pub mod sweep;

pub use engine::{run_policy, AbortReason, CcRunResult, CcStats, CommittedView, Decision, TxnView};
pub use policies::{Bocc, CcPolicy, Focc, Rococo, Tocc, TwoPhaseLocking};
