//! Rule `atomic-side-effect`: no observable side effects inside a
//! re-executable atomic closure.
//!
//! The closures passed to `atomically` / `try_atomically` /
//! `try_atomically_seq` / `execute_seq` are re-executed
//! from the top on every abort, and an aborted attempt's transactional
//! writes are discarded — but anything *else* the closure did (printed a
//! line, read a clock, advanced an RNG, took a lock, sent on a channel)
//! happened once per attempt and is not undone. The rule flags the
//! side-effecting calls that have actually bitten TM code bases: I/O
//! macros, filesystem and socket use, clock reads, sleeps, RNG
//! advancement, lock acquisition and channel operations.
//!
//! Known limits (by design, it is a token-level analysis): effects
//! hidden behind a helper function called from the closure are not seen,
//! and `RwLock::read`/`write` cannot be flagged because they collide
//! with `Transaction::read`/`write`. `.lock()` is flagged; so is every
//! direct use in the body.
//!
//! **Telemetry allowlist.** Flight-recorder emission is the one side
//! effect that is *designed* to run inside atomic closures: it is
//! re-execution-safe (each attempt's events go to a bounded per-thread
//! ring; an aborted attempt's events simply document that attempt). Two
//! shapes are therefore exempt: the argument list of a `tlm_event!(..)`
//! macro invocation, and the argument list of any call whose path starts
//! with `rococo_telemetry::` (e.g. `rococo_telemetry::emit(..)`,
//! `rococo_telemetry::enabled()`). The exemption covers *only* those
//! token ranges — a `println!` next to a `tlm_event!` in the same
//! closure is still flagged.

use super::Rule;
use crate::diag::Diagnostic;
use crate::model::FileModel;

/// Macros that perform I/O when expanded.
const IO_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// `A::b` paths that read clocks or sleep.
const PATHS: &[(&[&str], &str)] = &[
    (&["Instant", "now"], "clock read (`Instant::now`)"),
    (&["SystemTime", "now"], "clock read (`SystemTime::now`)"),
    (&["thread", "sleep"], "sleep (`thread::sleep`)"),
    (&["rand", "random"], "RNG advancement (`rand::random`)"),
];

/// Types whose associated functions mean file/socket I/O.
const IO_TYPES: &[&str] = &[
    "File",
    "OpenOptions",
    "TcpStream",
    "TcpListener",
    "UdpSocket",
];

/// Method calls (`.name(`) with non-idempotent effects.
const METHODS: &[(&str, &str)] = &[
    ("lock", "lock acquisition (`.lock()`)"),
    ("try_lock", "lock acquisition (`.try_lock()`)"),
    ("send", "channel send (`.send()`)"),
    ("try_send", "channel send (`.try_send()`)"),
    ("recv", "channel receive (`.recv()`)"),
    ("try_recv", "channel receive (`.try_recv()`)"),
    ("recv_timeout", "channel receive (`.recv_timeout()`)"),
    ("gen", "RNG advancement (`.gen()`)"),
    ("gen_range", "RNG advancement (`.gen_range()`)"),
    ("gen_bool", "RNG advancement (`.gen_bool()`)"),
    ("gen_ratio", "RNG advancement (`.gen_ratio()`)"),
    ("sample", "RNG advancement (`.sample()`)"),
    ("fill_bytes", "RNG advancement (`.fill_bytes()`)"),
];

/// Free-function calls with non-idempotent effects.
const FREE_FNS: &[(&str, &str)] = &[
    ("thread_rng", "RNG construction (`thread_rng()`)"),
    ("from_entropy", "RNG construction (`from_entropy()`)"),
    ("next_rand", "RNG advancement (`next_rand()`)"),
];

/// See module docs.
pub struct AtomicSideEffect;

impl Rule for AtomicSideEffect {
    fn id(&self) -> &'static str {
        "atomic-side-effect"
    }

    fn check(&self, file: &FileModel, out: &mut Vec<Diagnostic>) {
        let allowed = telemetry_ranges(file);
        for closure in &file.closures {
            for i in closure.start..=closure.end.min(file.toks.len().saturating_sub(1)) {
                if allowed.iter().any(|&(lo, hi)| lo <= i && i <= hi) {
                    continue;
                }
                if let Some(what) = match_effect(file, i) {
                    let t = &file.toks[i];
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: t.line,
                        col: t.col,
                        rule: self.id(),
                        message: format!(
                            "{what} inside the `{}` closure starting on line {} — \
                             atomic closures are re-executed on abort and must be free \
                             of side effects",
                            closure.callee, closure.call_line
                        ),
                    });
                }
            }
        }
    }
}

/// Token ranges (inclusive) exempt as telemetry emission: `tlm_event!`
/// macro invocations and `rococo_telemetry::`-pathed calls, each from
/// its first path/macro token through the matching closing delimiter of
/// its argument list.
fn telemetry_ranges(file: &FileModel) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let n = file.toks.len();
    let mut i = 0;
    while i < n {
        // `tlm_event!( .. )` / `rococo_telemetry::tlm_event![ .. ]` —
        // the macro name may itself be reached through a path; handling
        // the bare name covers both.
        if file.is_ident(i, "tlm_event") && file.is_punct(i + 1, b'!') {
            if let Some(close) = match_delims(file, i + 2) {
                out.push((i, close));
                i = close + 1;
                continue;
            }
        }
        // `rococo_telemetry::seg::..::name( .. )`.
        if file.is_ident(i, "rococo_telemetry") && file.is_punct(i + 1, b':') {
            let mut j = i + 1;
            while file.is_punct(j, b':') && file.is_punct(j + 1, b':') {
                j += 2;
                if !file
                    .toks
                    .get(j)
                    .is_some_and(|t| t.kind == crate::lexer::TokKind::Ident)
                {
                    break;
                }
                j += 1;
            }
            // Macro form through the path: `rococo_telemetry::tlm_event!(..)`.
            if file.is_punct(j, b'!') {
                j += 1;
            }
            if let Some(close) = match_delims(file, j) {
                out.push((i, close));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// If token `open` is an opening delimiter, returns the index of its
/// matching closing delimiter (nesting-aware across all bracket kinds).
fn match_delims(file: &FileModel, open: usize) -> Option<usize> {
    if !(file.is_punct(open, b'(') || file.is_punct(open, b'[') || file.is_punct(open, b'{')) {
        return None;
    }
    let mut depth = 0usize;
    for i in open..file.toks.len() {
        if file.is_punct(i, b'(') || file.is_punct(i, b'[') || file.is_punct(i, b'{') {
            depth += 1;
        } else if file.is_punct(i, b')') || file.is_punct(i, b']') || file.is_punct(i, b'}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Classifies token `i` as a forbidden effect, if it is one.
fn match_effect(file: &FileModel, i: usize) -> Option<String> {
    // `name!(..)` I/O macros.
    for m in IO_MACROS {
        if file.is_ident(i, m) && file.is_punct(i + 1, b'!') {
            return Some(format!("I/O macro (`{m}!`)"));
        }
    }
    // `A::b` paths.
    for (segs, label) in PATHS {
        if file.is_path(i, segs) {
            return Some((*label).to_string());
        }
    }
    // `File::`, `TcpStream::`, ... and any `fs::` use.
    for ty in IO_TYPES {
        if file.is_ident(i, ty) && file.is_punct(i + 1, b':') && file.is_punct(i + 2, b':') {
            return Some(format!("file/socket I/O (`{ty}::`)"));
        }
    }
    if file.is_ident(i, "fs") && file.is_punct(i + 1, b':') && file.is_punct(i + 2, b':') {
        return Some("filesystem access (`fs::`)".to_string());
    }
    // `.name(` method calls (turbofish `.gen::<u8>()` included).
    if i > 0 && file.is_punct(i - 1, b'.') {
        for (name, label) in METHODS {
            if file.is_ident(i, name)
                && (file.is_punct(i + 1, b'(')
                    || (file.is_punct(i + 1, b':') && file.is_punct(i + 2, b':')))
            {
                return Some((*label).to_string());
            }
        }
    }
    // Free-function calls.
    if !(i > 0 && (file.is_punct(i - 1, b'.'))) {
        for (name, label) in FREE_FNS {
            if file.is_ident(i, name) && file.is_punct(i + 1, b'(') {
                return Some((*label).to_string());
            }
        }
    }
    None
}
