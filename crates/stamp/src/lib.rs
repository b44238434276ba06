//! A Rust port of the STAMP benchmark suite over the TM-generic interface
//! of `rococo-stm`.
//!
//! The paper evaluates ROCoCoTM with STAMP (Stanford Transactional
//! Applications for Multi-Processing) [Minh et al., IISWC'08], excluding
//! `bayes` "due to its high variability" — this port does the same. Every
//! application is written against [`rococo_stm::TmSystem`], so one code
//! base runs on ROCoCoTM, the TinySTM baseline, the TSX-style HTM
//! emulation, and the sequential reference used as the speedup baseline.
//!
//! Two layers:
//!
//! * [`ds`] — transactional data structures laid out on the word-addressed
//!   [`TmHeap`](rococo_stm::TmHeap): sorted list, hash map, deterministic
//!   skip list (standing in for STAMP's red-black tree — same `O(log n)`
//!   transactional footprint), queue and binary heap.
//! * [`apps`] — the eight benchmark configurations of Figure 10: `genome`,
//!   `intruder`, `kmeans` (low/high contention), `labyrinth`, `ssca2`,
//!   `vacation` (low/high contention) and `yada`, each with scaled input
//!   presets and a self-validation check.
//!
//! The [`harness`] module runs an application on a named TM system and
//! thread count, producing the statistics Figure 10 plots.
//!
//! # Example
//!
//! ```
//! use rococo_stamp::harness::{run, Preset, SystemKind};
//! use rococo_stamp::apps::AppId;
//!
//! let outcome = run(AppId::Ssca2, SystemKind::Rococo, 2, Preset::Tiny);
//! assert!(outcome.validated);
//! ```

#![warn(missing_docs)]

pub mod apps;
pub mod ds;
pub mod harness;
