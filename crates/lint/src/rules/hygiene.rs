//! Rule `missing-forbid-unsafe`: every non-vendored crate root must
//! carry `#![forbid(unsafe_code)]`.
//!
//! The TM runtimes' correctness argument is built on the type system
//! (buffered writes, `Send + Sync` bounds, no aliasing of heap words
//! outside the `TmHeap` API). One `unsafe` block anywhere voids that
//! argument silently; `forbid` (unlike `deny`) cannot be overridden
//! further down the tree, so requiring it at the crate root makes the
//! guarantee structural.

use super::Rule;
use crate::diag::Diagnostic;
use crate::model::FileModel;

/// See module docs.
pub struct ForbidUnsafe;

impl Rule for ForbidUnsafe {
    fn id(&self) -> &'static str {
        "missing-forbid-unsafe"
    }

    fn check(&self, file: &FileModel, out: &mut Vec<Diagnostic>) {
        if !file.is_crate_root {
            return;
        }
        // `#` `!` `[` `forbid` `(` `unsafe_code` `)` `]`
        let found = (0..file.toks.len()).any(|i| {
            file.is_punct(i, b'#')
                && file.is_punct(i + 1, b'!')
                && file.is_punct(i + 2, b'[')
                && file.is_ident(i + 3, "forbid")
                && file.is_punct(i + 4, b'(')
                && file.is_ident(i + 5, "unsafe_code")
                && file.is_punct(i + 6, b')')
                && file.is_punct(i + 7, b']')
        });
        if !found {
            out.push(Diagnostic {
                file: file.path.clone(),
                line: 1,
                col: 1,
                rule: self.id(),
                message: "crate root is missing `#![forbid(unsafe_code)]` — the TM \
                          safety argument requires the whole workspace to stay in \
                          safe Rust"
                    .to_string(),
            });
        }
    }
}
