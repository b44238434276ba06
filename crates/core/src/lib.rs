//! The ROCoCo algorithm — Reachability-based Optimistic Concurrency Control.
//!
//! This crate implements the paper's core contribution (section 4):
//! validating the *acyclicity* of the transactional happens-before relation
//! `→rw` directly — without timestamps — by incrementally maintaining the
//! transitive closure (reachability) of committed transactions as a bit
//! matrix.
//!
//! For each candidate transaction `t` the caller supplies two bit vectors
//! over the window of previously committed transactions:
//!
//! * `f` (*forward*): `f[i]` ⇔ `t →rw tᵢ` — `t` must be ordered before `tᵢ`
//!   (e.g. `t` read a version that `tᵢ` later overwrote);
//! * `b` (*backward*): `b[i]` ⇔ `tᵢ →rw t` — `t` must be ordered after `tᵢ`
//!   (e.g. `t` read `tᵢ`'s update, or overwrites what `tᵢ` wrote/read).
//!
//! Using Warshall's fact and its dual, the *proceeding* vector
//! `p = f ∨ Rᵀf` (everything `t` reaches) and the *succeeding* vector
//! `s = b ∨ Rb` (everything that reaches `t`) are computed with `O(W)` word
//! operations; a cycle exists iff `p ∧ s ≠ 0` ([`ReachMatrix::validate`]).
//! On commit the matrix is extended with `p` and `s` as the new row and
//! column, and existing entries are closed over the new element
//! ([`ReachMatrix::commit`]).
//!
//! Because hardware resources are bounded, ROCoCo maintains a **sliding
//! window** of the last `W` committed transactions ([`SlidingWindow`],
//! paper's Figure 5, `W = 64`); transactions whose snapshot predates the
//! window must abort ([`RejectReason::WindowOverflow`]). [`RococoValidator`]
//! keeps matrix and window in lockstep; it takes a candidate's `f`/`b` as
//! slot-indexed vectors
//! ([`RococoValidator::validate_and_commit_vectors`], allocation-free — the
//! FPGA model's Detector→Manager hand-off) or, through an adapter, as lists
//! of commit sequence numbers ([`TxnDeps`]).
//!
//! The [`order`] module provides the order-theoretic vocabulary of section 3
//! (conflict graphs, acyclicity ⟺ serializability, interval orders and the
//! phantom ordering) used by tests and by the trace-driven simulators in
//! `rococo-cc`.
//!
//! # Example
//!
//! ```
//! use rococo_core::{DepVec, ReachMatrix};
//!
//! let mut m = ReachMatrix::new(64);
//! // First transaction commits unconditionally.
//! let empty = DepVec::new(64);
//! let c = m.validate(&empty, &empty).expect("no deps, no cycle");
//! m.commit(&c);
//!
//! // A transaction that must precede AND succeed transaction 0 is cyclic.
//! let mut f = DepVec::new(64);
//! let mut b = DepVec::new(64);
//! f.set(0);
//! b.set(0);
//! assert!(m.validate(&f, &b).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod depvec;
mod matrix;
pub mod order;
mod validator;
mod window;

pub use depvec::DepVec;
pub use matrix::{Closure, CycleDetected, ReachMatrix};
pub use validator::{RejectReason, RococoValidator, TxnDeps, Verdict};
pub use window::{Seq, SlidingWindow};
