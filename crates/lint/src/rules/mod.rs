//! The rule registry.
//!
//! Each rule is a stateless object implementing [`Rule`]; the engine
//! runs every registered rule over every file model. Adding a rule means:
//! one new module with an `impl Rule`, one line in [`registry`], fixtures,
//! and nothing else — the walker, CLI, timing and JSON output all pick it
//! up through this list.

mod atomic_side_effect;

pub use atomic_side_effect::AtomicSideEffect;

use crate::diag::Diagnostic;
use crate::model::FileModel;

/// A lint rule: scans one file model and appends diagnostics.
pub trait Rule: Sync {
    /// Stable kebab-case identifier (used in `error[...]` output).
    fn id(&self) -> &'static str;

    /// Runs the rule over `file`, pushing findings onto `out`.
    fn check(&self, file: &FileModel, out: &mut Vec<Diagnostic>);
}

/// All registered rules, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![Box::new(AtomicSideEffect)]
}
