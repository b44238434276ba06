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
//! On commit, one pass over the matrix writes `p` as the new entry's row
//! and closes every row that reaches it over it ([`ReachMatrix::commit`]).
//!
//! Because hardware resources are bounded, ROCoCo maintains a **sliding
//! window** of the last `W` committed transactions ([`SlidingWindow`],
//! paper's Figure 5, `W = 64`); transactions whose snapshot predates the
//! window must abort ([`RejectReason::WindowOverflow`]). The matrix and
//! every vector are indexed by **ring position**: commit `seq` owns row,
//! column and bit `seq % W` until commit `seq + W` takes them over, so the
//! window slides by clearing one row and one column and nothing is ever
//! moved. [`RococoValidator`] keeps matrix and window in lockstep; it takes
//! a candidate's `f`/`b` as ring-position vectors
//! ([`RococoValidator::validate_and_commit_vectors`] — the FPGA model's
//! Detector→Manager hand-off) or, through an adapter, as lists of commit
//! sequence numbers ([`TxnDeps`]). Neither allocates.
//!
//! The [`order`] module provides the order-theoretic vocabulary of section 3
//! (conflict graphs, acyclicity ⟺ serializability, interval orders and the
//! phantom ordering) used by tests and by the trace-driven simulators in
//! `rococo-cc`.
//!
//! # Example
//!
//! ```
//! use rococo_core::{RejectReason, RococoValidator, TxnDeps};
//!
//! let mut v: RococoValidator<()> = RococoValidator::new(64);
//! // The first transaction commits unconditionally, as sequence number 0.
//! assert_eq!(v.validate_and_commit(&TxnDeps::default(), ()), Ok(0));
//!
//! // A transaction that must precede AND succeed transaction 0 is cyclic.
//! let both = TxnDeps { snapshot: 0, forward: vec![0], backward: vec![0] };
//! assert_eq!(v.validate_and_commit(&both, ()), Err(RejectReason::Cycle));
//!
//! // One that only read what transaction 0 later overwrote is ordered
//! // before it — the reordering a timestamp order cannot express.
//! let stale = TxnDeps { snapshot: 0, forward: vec![0], backward: vec![] };
//! assert_eq!(v.validate_and_commit(&stale, ()), Ok(1));
//! assert!(v.matrix().reaches(1, 0) && !v.matrix().reaches(0, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod depvec;
mod matrix;
pub mod order;
mod validator;
mod window;

pub use depvec::DepVec;
pub use matrix::{CycleDetected, ReachMatrix};
pub use validator::{RejectReason, RococoValidator, TxnDeps, Verdict};
pub use window::{Seq, SlidingWindow};
