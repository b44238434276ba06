//! Parallel (partitioned) bloom-filter signatures for ROCoCoTM.
//!
//! This crate implements the signature machinery of the paper's section 5.2:
//!
//! * [`SigScheme`] — a parallel (partitioned) bloom-filter scheme [Sanchez et
//!   al., MICRO'07]: `m` total bits split into the paper's
//!   [`K`](SigScheme::K) = 8 partitions, each insert sets exactly one bit per
//!   partition, chosen by an approximately universal *multiply-shift* hash
//!   [Dietzfelbinger et al. 1997]. `m` is the scheme's one parameter; `k` is
//!   fixed, so a prehashed address is eight `u16` bit indices.
//! * [`Sig`] — a signature value supporting insertion, membership query, set
//!   union and set intersection with plain bitwise operators, exactly the
//!   operation set the paper lists (citing Bulk [Ceze et al., ISCA'06]).
//! * [`fp_model`] — the probabilistic false-positivity model used to pick the
//!   paper's `m = 512`, eight-elements-per-intersection design point
//!   (Figure 7), following Jeffrey & Steffan [SPAA'11]; being a model, it
//!   still takes `k` as an argument.
//! * [`ChunkedSig`] — the read-set summarisation of Algorithm 1: one
//!   signature per sub-set of [`CHUNK`](ChunkedSig::CHUNK) addresses plus a
//!   whole-set signature, so that a coarse overlap can be refined chunk by
//!   chunk and finally by per-address queries.
//!
//! # Example
//!
//! ```
//! use rococo_sigs::SigScheme;
//!
//! let scheme = SigScheme::paper_default(); // m = 512, K = 8
//! let mut ws = scheme.new_sig();
//! scheme.insert(&mut ws, 0xdead_beef);
//! assert!(scheme.query(&ws, 0xdead_beef));
//!
//! let mut rs = scheme.new_sig();
//! scheme.insert(&mut rs, 0x1234_5678);
//! // Two signatures of (probably) disjoint sets rarely overlap at n = 1.
//! let _ = rs.overlaps(&ws);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bloom;
mod chunked;
pub mod fp_model;
mod hash;

pub use bloom::{PrehashedAddr, Sig, SigScheme};
pub use chunked::ChunkedSig;
pub use hash::{splitmix64, MultiplyShift};
