//! The rule registry.
//!
//! Each rule is a stateless object implementing [`Rule`]; the engine
//! runs every registered rule over every file model and applies
//! suppressions afterwards. Adding rule *n+1* means: one new module
//! with an `impl Rule` (~50 lines including its message strings), one
//! line in [`registry`], fixtures, and nothing else — the walker,
//! suppression machinery, CLI, timing and JSON output all pick it up
//! through this list.

mod atomic_side_effect;
mod commit_seq;
mod hygiene;
mod uncounted_abort;

pub use atomic_side_effect::AtomicSideEffect;
pub use commit_seq::CommitSeqDiscipline;
pub use hygiene::ForbidUnsafe;
pub use uncounted_abort::UncountedAbort;

use crate::diag::Diagnostic;
use crate::model::FileModel;

/// A lint rule: scans one file model and appends diagnostics.
pub trait Rule: Sync {
    /// Stable kebab-case identifier (used in `error[...]` output and in
    /// the suppression grammar).
    fn id(&self) -> &'static str;

    /// Runs the rule over `file`, pushing findings onto `out`.
    fn check(&self, file: &FileModel, out: &mut Vec<Diagnostic>);
}

/// All registered rules, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(AtomicSideEffect),
        Box::new(UncountedAbort),
        Box::new(CommitSeqDiscipline),
        Box::new(ForbidUnsafe),
    ]
}

/// The ids of all registered rules (the vocabulary the suppression
/// grammar accepts).
pub fn rule_ids() -> Vec<&'static str> {
    registry().iter().map(|r| r.id()).collect()
}
