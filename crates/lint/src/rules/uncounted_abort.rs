//! Rule `uncounted-abort`: in the ROCoCoTM runtime, every abort must be
//! minted through `count_abort`.
//!
//! `RococoTx::count_abort` bumps the per-thread consecutive-abort
//! counter that drives the §4.2 irrevocability escalation. An abort path
//! that constructs `Abort` directly skips the bump, and a thread hitting
//! only such paths can sit below the escalation threshold forever — the
//! exact starvation bug PR 2 fixed by hand (the update-set
//! spin-exhaustion abort used to bypass the counter). This rule turns
//! that postmortem into a machine-checked invariant: inside
//! `crates/stm/src/rococotm.rs`, `Abort::new(..)` and `Abort { .. }`
//! literals may appear only in the body of `count_abort` itself.

use super::Rule;
use crate::diag::Diagnostic;
use crate::model::FileModel;

/// The file the invariant lives in.
const TARGET_FILE: &str = "crates/stm/src/rococotm.rs";

/// The one function allowed to construct aborts.
const MINTER: &str = "count_abort";

/// See module docs.
pub struct UncountedAbort;

impl Rule for UncountedAbort {
    fn id(&self) -> &'static str {
        "uncounted-abort"
    }

    fn check(&self, file: &FileModel, out: &mut Vec<Diagnostic>) {
        if !file.path.ends_with(TARGET_FILE) {
            return;
        }
        for i in 0..file.toks.len() {
            let constructed = file.is_path(i, &["Abort", "new"])
                // Struct literal `Abort { kind: .. }` (distinguished from
                // `-> Abort {` return types by the `kind:` field).
                || (file.is_ident(i, "Abort")
                    && file.is_punct(i + 1, b'{')
                    && file.is_ident(i + 2, "kind")
                    && file.is_punct(i + 3, b':'));
            if !constructed {
                continue;
            }
            let enclosing = file.enclosing_fn(i);
            if enclosing.is_some_and(|f| f.name == MINTER) {
                continue;
            }
            let t = &file.toks[i];
            let place =
                enclosing.map_or_else(|| "module scope".to_string(), |f| format!("`{}`", f.name));
            out.push(Diagnostic {
                file: file.path.clone(),
                line: t.line,
                col: t.col,
                rule: self.id(),
                message: format!(
                    "`Abort` constructed in {place} instead of flowing through \
                     `{MINTER}` — an abort path that skips the consecutive-abort \
                     bump can starve irrevocability escalation (the PR-2 bug class)"
                ),
            });
        }
    }
}
