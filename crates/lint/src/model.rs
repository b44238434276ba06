//! Per-file analysis model: token stream plus the two structural facts
//! every rule needs — which function encloses a token, and which token
//! ranges are the bodies of *re-executable atomic closures* (closures
//! passed to the transaction primitives, which the runtime re-runs on
//! every abort).

use crate::lexer::{lex, Comment, Tok, TokKind};

/// Functions whose closure argument is re-executed on abort. A closure
/// body passed to any of these is a "re-executable region" for the
/// side-effect rule. `execute_seq` is the service's bounded retry loop;
/// its *first* closure argument is the transaction body (the `on_abort`
/// callback that follows is not re-executed as a transaction and is
/// exempt).
pub const ATOMIC_CALLEES: &[&str] = &[
    "atomically",
    "try_atomically",
    "try_atomically_seq",
    "execute_seq",
    // `rococo-sched` hybrid-router entry points: the routed closure is
    // re-executed across *backends* (an attempt may start on the HTM
    // fast path and retry on the software path), so side-effect hygiene
    // matters doubly.
    "run_classed",
    "try_classed",
];

/// One function item span (token index range of `name` + body braces).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Token index of the body's opening `{`.
    pub start: usize,
    /// Token index of the body's closing `}`.
    pub end: usize,
}

/// One atomic-closure body (token index range, inclusive).
#[derive(Debug, Clone)]
pub struct ClosureSpan {
    /// The callee the closure was passed to (resolved through `use ..
    /// as ..` aliases back to the canonical name).
    pub callee: &'static str,
    /// Token index of the first body token.
    pub start: usize,
    /// Token index of the last body token (inclusive).
    pub end: usize,
    /// Line of the call, for diagnostics context.
    pub call_line: u32,
}

/// A lexed file plus resolved structure, ready for rules.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative display path (always `/`-separated).
    pub path: String,
    /// Full source text.
    pub src: String,
    /// Whether this file is a non-vendored crate root (`src/lib.rs`).
    pub is_crate_root: bool,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Line comments (suppression carriers).
    pub comments: Vec<Comment>,
    /// Function bodies, in order of closing brace.
    pub fns: Vec<FnSpan>,
    /// Atomic-closure bodies.
    pub closures: Vec<ClosureSpan>,
}

impl FileModel {
    /// Lexes and resolves `src`. `path` is only used for display and for
    /// path-scoped rules.
    pub fn build(path: String, src: String, is_crate_root: bool) -> Self {
        let (toks, comments) = lex(&src);
        let fns = resolve_fns(&src, &toks);
        let closures = resolve_closures(&src, &toks);
        Self {
            path,
            src,
            is_crate_root,
            toks,
            comments,
            fns,
            closures,
        }
    }

    /// The text of token `i`.
    pub fn text(&self, i: usize) -> &str {
        let t = &self.toks[i];
        &self.src[t.start..t.end]
    }

    /// True when token `i` is the identifier `name`.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && self.text(i) == name)
    }

    /// True when token `i` is the punctuation byte `p`.
    pub fn is_punct(&self, i: usize, p: u8) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct(p))
    }

    /// True when tokens at `i` spell the path `segs[0]::segs[1]::...`.
    pub fn is_path(&self, i: usize, segs: &[&str]) -> bool {
        let mut j = i;
        for (n, seg) in segs.iter().enumerate() {
            if n > 0 {
                if !(self.is_punct(j, b':') && self.is_punct(j + 1, b':')) {
                    return false;
                }
                j += 2;
            }
            if !self.is_ident(j, seg) {
                return false;
            }
            j += 1;
        }
        true
    }

    /// The innermost function whose body contains token `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.start <= i && i <= f.end)
            .max_by_key(|f| f.start)
    }
}

/// Resolves function body spans with a single brace-tracking pass.
fn resolve_fns(src: &str, toks: &[Tok]) -> Vec<FnSpan> {
    let text = |i: usize| -> &str { &src[toks[i].start..toks[i].end] };
    let mut fns = Vec::new();
    // A `fn name` whose body `{` has not appeared yet.
    let mut pending: Option<String> = None;
    // (name, depth at which the body opened, opening token index).
    let mut stack: Vec<(String, usize, usize)> = Vec::new();
    let mut depth = 0usize;
    for i in 0..toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'{') => {
                if let Some(name) = pending.take() {
                    stack.push((name, depth, i));
                }
                depth += 1;
            }
            TokKind::Punct(b'}') => {
                depth = depth.saturating_sub(1);
                if stack.last().is_some_and(|top| top.1 == depth) {
                    let (name, _, start) = stack.pop().unwrap();
                    fns.push(FnSpan {
                        name,
                        start,
                        end: i,
                    });
                }
            }
            // Bodyless trait-method declarations end in `;` before any
            // `{`; drop the pending name so the next block isn't claimed.
            TokKind::Punct(b';') => pending = None,
            // `fn name(...)` — but not fn-pointer types `fn(usize)`.
            TokKind::Ident
                if text(i) == "fn" && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) =>
            {
                pending = Some(text(i + 1).to_string());
            }
            _ => {}
        }
    }
    fns
}

/// Resolves the bodies of closures passed to the atomic primitives,
/// following per-file `use ... as alias` renames of those primitives.
fn resolve_closures(src: &str, toks: &[Tok]) -> Vec<ClosureSpan> {
    let text = |i: usize| -> &str { &src[toks[i].start..toks[i].end] };
    let is_punct =
        |i: usize, p: u8| -> bool { toks.get(i).is_some_and(|t| t.kind == TokKind::Punct(p)) };
    let is_ident = |i: usize| -> bool { toks.get(i).is_some_and(|t| t.kind == TokKind::Ident) };

    // Pass 1: aliases. `use rococo_stm::atomically as setup;` makes
    // `setup(..)` an atomic call site too — otherwise a rename would be
    // a one-line lint evasion.
    let mut aliases: Vec<(String, &'static str)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_ident(i) && text(i) == "use" {
            let mut j = i + 1;
            while j < toks.len() && !is_punct(j, b';') {
                if is_ident(j) {
                    if let Some(canon) = ATOMIC_CALLEES.iter().find(|c| **c == text(j)) {
                        if is_ident(j + 1) && text(j + 1) == "as" && is_ident(j + 2) {
                            aliases.push((text(j + 2).to_string(), canon));
                            j += 2;
                        }
                    }
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }

    let callee_of = |i: usize| -> Option<&'static str> {
        if !is_ident(i) {
            return None;
        }
        let t = text(i);
        ATOMIC_CALLEES
            .iter()
            .find(|c| **c == t)
            .copied()
            .or_else(|| {
                aliases
                    .iter()
                    .find(|(a, _)| a == t)
                    .map(|&(_, canon)| canon)
            })
    };

    // Pass 2: call sites.
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Some(callee) = callee_of(i) else { continue };
        // Skip definitions (`fn atomically...`) — only call sites count.
        if i > 0 && toks[i - 1].kind == TokKind::Ident && text(i - 1) == "fn" {
            continue;
        }
        // Optional turbofish between callee and `(`.
        let mut j = i + 1;
        if is_punct(j, b':') && is_punct(j + 1, b':') && is_punct(j + 2, b'<') {
            let mut angle = 1usize;
            j += 3;
            while j < toks.len() && angle > 0 {
                if is_punct(j, b'<') {
                    angle += 1;
                } else if is_punct(j, b'>') {
                    angle -= 1;
                }
                j += 1;
            }
        }
        if !is_punct(j, b'(') {
            continue;
        }
        if let Some(span) = first_closure_body(toks, src, j, callee) {
            out.push(span);
        }
    }
    out
}

/// Finds the first closure argument of the call whose `(` is at token
/// `open`, and returns its body span.
fn first_closure_body(
    toks: &[Tok],
    src: &str,
    open: usize,
    callee: &'static str,
) -> Option<ClosureSpan> {
    let is_punct =
        |i: usize, p: u8| -> bool { toks.get(i).is_some_and(|t| t.kind == TokKind::Punct(p)) };
    let text = |i: usize| -> &str { &src[toks[i].start..toks[i].end] };
    let mut depth = 1usize;
    let mut i = open + 1;
    let mut at_arg_start = true;
    while i < toks.len() && depth > 0 {
        if at_arg_start && depth == 1 {
            // Skip `&`, `mut`, `move` before the `|` of a closure.
            let mut k = i;
            while is_punct(k, b'&')
                || (toks.get(k).is_some_and(|t| t.kind == TokKind::Ident)
                    && matches!(text(k), "mut" | "move"))
            {
                k += 1;
            }
            if is_punct(k, b'|') {
                return closure_body_from(toks, k, callee);
            }
        }
        at_arg_start = false;
        match toks[i].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => depth -= 1,
            TokKind::Punct(b',') if depth == 1 => at_arg_start = true,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Given the opening `|` of a closure's parameter list, returns the
/// token span of its body.
fn closure_body_from(toks: &[Tok], pipe: usize, callee: &'static str) -> Option<ClosureSpan> {
    let is_punct =
        |i: usize, p: u8| -> bool { toks.get(i).is_some_and(|t| t.kind == TokKind::Punct(p)) };
    // Parameter lists cannot contain `|`, so the next `|` closes them
    // (`||` closes immediately: an empty parameter list).
    let mut i = pipe + 1;
    while i < toks.len() && !is_punct(i, b'|') {
        i += 1;
    }
    let mut body = i + 1;
    if body >= toks.len() {
        return None;
    }
    // `-> Type {` return annotation: the body must then be a block.
    if is_punct(body, b'-') && is_punct(body + 1, b'>') {
        while body < toks.len() && !is_punct(body, b'{') {
            body += 1;
        }
    }
    let call_line = toks[pipe].line;
    if is_punct(body, b'{') {
        // Block body: span to the matching brace.
        let mut depth = 1usize;
        let mut j = body + 1;
        while j < toks.len() && depth > 0 {
            match toks[j].kind {
                TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b'}') => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        Some(ClosureSpan {
            callee,
            start: body,
            end: j.saturating_sub(1),
            call_line,
        })
    } else {
        // Expression body: up to the `,` or `)` that ends the argument.
        let mut depth = 0usize;
        let mut j = body;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokKind::Punct(b',') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        (j > body).then(|| ClosureSpan {
            callee,
            start: body,
            end: j - 1,
            call_line,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build("test.rs".into(), src.into(), false)
    }

    #[test]
    fn fn_spans_nest_and_name_correctly() {
        let m = model("fn outer() { fn inner() { x } y }");
        assert_eq!(m.fns.len(), 2);
        let x = m.toks.iter().position(|t| m.src[t.start..t.end] == *"x");
        let y = m.toks.iter().position(|t| m.src[t.start..t.end] == *"y");
        assert_eq!(m.enclosing_fn(x.unwrap()).unwrap().name, "inner");
        assert_eq!(m.enclosing_fn(y.unwrap()).unwrap().name, "outer");
    }

    #[test]
    fn trait_decl_does_not_steal_next_block() {
        let m = model("trait T { fn decl(&self); } fn real() { z }");
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "real");
    }

    #[test]
    fn block_closure_body_is_resolved() {
        let m = model("fn f() { atomically(sys, 0, |tx| { tx.read(0) }); }");
        assert_eq!(m.closures.len(), 1);
        let c = &m.closures[0];
        assert_eq!(m.text(c.start), "{");
        assert_eq!(m.text(c.end), "}");
        assert_eq!(c.callee, "atomically");
    }

    #[test]
    fn expression_closure_body_ends_at_call_paren() {
        let m = model("fn f() { let v = atomically(sys, 0, |tx| tx.read(i % 512)); done(v) }");
        assert_eq!(m.closures.len(), 1);
        let c = &m.closures[0];
        assert_eq!(m.text(c.start), "tx");
        assert_eq!(m.text(c.end), ")");
        // `done` is outside the span.
        assert!(m.toks[c.end].end < m.src.find("done").unwrap());
    }

    #[test]
    fn ref_mut_closures_and_seq_variants_are_found() {
        let m = model("fn f() { try_atomically(rec, t, &mut |tx| apply(tx, op)); }");
        assert_eq!(m.closures.len(), 1);
        assert_eq!(m.closures[0].callee, "try_atomically");
    }

    #[test]
    fn only_first_closure_of_execute_counts() {
        let m = model(
            "fn f() { execute_seq(&*sys, tid, |tx| apply(tx), |kind| stats.lock().push(kind), &mut rng); }",
        );
        assert_eq!(m.closures.len(), 1);
        let c = &m.closures[0];
        // Body is `apply(tx)`, not the on_abort callback.
        assert_eq!(m.text(c.start), "apply");
        assert_eq!(c.callee, "execute_seq");
    }

    #[test]
    fn aliased_import_is_tracked() {
        let m = model(
            "use rococo_stm::atomically as setup;\nfn f() { setup(sys, 0, |tx| table.insert(tx, id)); }",
        );
        assert_eq!(m.closures.len(), 1);
        assert_eq!(m.closures[0].callee, "atomically");
    }

    #[test]
    fn fn_definitions_are_not_call_sites() {
        let m = model("pub fn atomically(a: A) { body() }");
        assert!(m.closures.is_empty());
    }

    #[test]
    fn typed_closure_params_are_handled() {
        let m = model(
            "fn f() { try_atomically_seq(&*tm, t, &mut |tx: &mut TinyTx<'_>| { tx.write(3, 1) }); after.lock(); }",
        );
        assert_eq!(m.closures.len(), 1);
        let c = &m.closures[0];
        // `after.lock()` is outside the body span.
        let lock_tok = m
            .toks
            .iter()
            .position(|t| m.src[t.start..t.end] == *"after")
            .unwrap();
        assert!(lock_tok > c.end);
    }
}
