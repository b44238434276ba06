//! Rule `commit-seq-outside-critical`: the dense durable sequence
//! counters may be minted or mutated only inside the commit critical
//! section.
//!
//! WAL replay (PR 3) depends on commit sequence numbers being *dense*
//! and *consistent with serialization order*; both properties hold only
//! because every backend fetches its counter inside the commit critical
//! section (`Transaction::commit_seq`, after validation, with write
//! locks / claims / the commit gate still held). A `fetch_add` anywhere
//! else — in `begin`, in a helper, in recovery — silently reintroduces
//! the holes-and-reordering bug class. The rule flags any mutation of
//! the watched counters (`durable_seq`, and ROCoCoTM's `global_ts`,
//! whose publication doubles as the FPGA commit sequence) outside a
//! function named `commit_seq`. Loads are allowed everywhere — reading
//! the clock is how snapshots begin.

use super::Rule;
use crate::diag::Diagnostic;
use crate::model::FileModel;

/// The counters whose mutation is disciplined.
const COUNTERS: &[&str] = &["durable_seq", "global_ts"];

/// Atomic operations that mint or rewrite sequence state.
const MUTATORS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Functions that constitute the commit critical section.
const ALLOWED_FNS: &[&str] = &["commit_seq", "publish_commit"];

/// See module docs.
pub struct CommitSeqDiscipline;

impl Rule for CommitSeqDiscipline {
    fn id(&self) -> &'static str {
        "commit-seq-outside-critical"
    }

    fn check(&self, file: &FileModel, out: &mut Vec<Diagnostic>) {
        for i in 0..file.toks.len() {
            if !COUNTERS.iter().any(|c| file.is_ident(i, c)) {
                continue;
            }
            // `counter . mutator (` — field initialisers (`counter:`) and
            // loads fall through.
            if !file.is_punct(i + 1, b'.') {
                continue;
            }
            let Some(op) = MUTATORS.iter().find(|m| file.is_ident(i + 2, m)) else {
                continue;
            };
            if !file.is_punct(i + 3, b'(') {
                continue;
            }
            let enclosing = file.enclosing_fn(i);
            if enclosing.is_some_and(|f| ALLOWED_FNS.contains(&f.name.as_str())) {
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
                    "`{}.{op}` in {place}: sequence counters may only be mutated \
                     inside the commit critical section (`commit_seq`) — anywhere \
                     else breaks the dense, serialization-consistent numbering WAL \
                     replay relies on",
                    file.text(i)
                ),
            });
        }
    }
}
