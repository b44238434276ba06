//! Per-function blocking summaries and the guard-flow walker.
//!
//! This is the annotation layer the interprocedural rules run on. Two
//! in-tree registries — [`guard_sources`] for guard-like acquisitions
//! and [`BLOCK_OPS`]/[`BARE_BLOCK_OPS`] for blocking operations — seed
//! a per-function fact pass (which primitives does this function
//! acquire, which blocking operations does it reach), and a name-based
//! fixpoint over the [call graph](crate::callgraph) propagates both
//! facts interprocedurally: a function that calls a may-block function
//! may block.
//!
//! The walker ([`guard_events`]) then replays each function body with a
//! live-guard set: `let`-bound guards activate at their statement end,
//! die at the end of their enclosing block, and are retired early by
//! `drop(g)`, by reassignment, or by escaping by value (moved into a
//! struct, returned, passed to a call). While a guard is live, reaching
//! a blocking operation yields a [`Event::Blocked`] (the
//! `guard-across-wait` rule) and acquiring another *ranked* primitive
//! yields an [`Event::Edge`] (the `lock-order-cycle` rule).
//!
//! Known limits (all conservative, see DESIGN.md §7.6): calls resolve
//! by name, so same-named functions are conflated; guards that escape
//! into struct fields are no longer tracked in the functions that later
//! block while the struct holds them (the reconstructed PR-8 fixture
//! pins the single-function shape instead); `read`/`write` are only
//! treated as guard acquisitions on the `commit_gate` receiver, because
//! `Transaction::read`/`write` share the method names.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, DelimMap};
use crate::lexer::TokKind;
use crate::model::{FileModel, FnSpan};

/// The four named blocking primitives of the runtime, in canonical
/// acquisition order, plus the unranked catch-all for ordinary mutexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Primitive {
    /// `rococo-sched` mode gate (`gate.enter(..)`).
    ModeGate,
    /// The gate/adapt state mutexes (`state.lock()`,
    /// `adapt_state.lock()`).
    StateMutex,
    /// ROCoCoTM's commit gate (`commit_gate.read()/write()`).
    CommitGate,
    /// Shard-queue park (`rx.recv()`): never *held*, but it terminates
    /// the canonical order — everything above may be held when a worker
    /// parks, which is exactly what `guard-across-wait` forbids.
    ShardQueue,
    /// Any other mutex (`.lock()`/`.try_lock()` on an unregistered
    /// receiver). Tracked for `guard-across-wait` only; unranked.
    LocalMutex,
}

impl Primitive {
    /// Position in the canonical acquisition order, `None` when the
    /// primitive does not participate (LocalMutex).
    pub fn rank(self) -> Option<u8> {
        match self {
            Primitive::ModeGate => Some(0),
            Primitive::StateMutex => Some(1),
            Primitive::CommitGate => Some(2),
            Primitive::ShardQueue => Some(3),
            Primitive::LocalMutex => None,
        }
    }

    /// Display name (matches the DESIGN.md §7 order table).
    pub fn name(self) -> &'static str {
        match self {
            Primitive::ModeGate => "mode-gate",
            Primitive::StateMutex => "state-mutex",
            Primitive::CommitGate => "commit-gate",
            Primitive::ShardQueue => "shard-queue",
            Primitive::LocalMutex => "mutex",
        }
    }
}

/// One guard-acquisition pattern: method call `recv.method(..)`. A
/// `None` receiver matches any receiver not claimed by a specific
/// entry.
#[derive(Debug, Clone, Copy)]
pub struct GuardSource {
    /// Method name.
    pub method: &'static str,
    /// Required receiver identifier, or `None` for the catch-all.
    pub recv: Option<&'static str>,
    /// The primitive acquired.
    pub primitive: Primitive,
    /// `try_*` forms never block, so they acquire without creating an
    /// ordering edge.
    pub blocking: bool,
}

/// The in-tree annotation registry (à la `rules::registry`): which
/// method calls acquire which primitive. Specific receivers first; the
/// generic mutex entries are the fallback.
pub fn guard_sources() -> &'static [GuardSource] {
    const S: &[GuardSource] = &[
        GuardSource {
            method: "enter",
            recv: Some("gate"),
            primitive: Primitive::ModeGate,
            blocking: true,
        },
        GuardSource {
            method: "lock",
            recv: Some("state"),
            primitive: Primitive::StateMutex,
            blocking: true,
        },
        GuardSource {
            method: "lock",
            recv: Some("adapt_state"),
            primitive: Primitive::StateMutex,
            blocking: true,
        },
        GuardSource {
            method: "try_lock",
            recv: Some("adapt_state"),
            primitive: Primitive::StateMutex,
            blocking: false,
        },
        GuardSource {
            method: "read",
            recv: Some("commit_gate"),
            primitive: Primitive::CommitGate,
            blocking: true,
        },
        GuardSource {
            method: "try_read",
            recv: Some("commit_gate"),
            primitive: Primitive::CommitGate,
            blocking: false,
        },
        GuardSource {
            method: "write",
            recv: Some("commit_gate"),
            primitive: Primitive::CommitGate,
            blocking: true,
        },
        GuardSource {
            method: "try_write",
            recv: Some("commit_gate"),
            primitive: Primitive::CommitGate,
            blocking: false,
        },
        GuardSource {
            method: "lock",
            recv: None,
            primitive: Primitive::LocalMutex,
            blocking: true,
        },
        GuardSource {
            method: "try_lock",
            recv: None,
            primitive: Primitive::LocalMutex,
            blocking: false,
        },
    ];
    S
}

/// Blocking method calls (`x.op(..)`): `(method, description)`.
pub const BLOCK_OPS: &[(&str, &str)] = &[
    ("recv", "a queue park (`.recv()`)"),
    ("recv_timeout", "a queue park (`.recv_timeout()`)"),
    ("wait", "a verdict/condvar wait (`.wait()`)"),
    ("wait_timeout", "a condvar wait (`.wait_timeout()`)"),
];

/// Blocking bare calls: `(name, description)`.
pub const BARE_BLOCK_OPS: &[(&str, &str)] = &[
    ("park", "a thread park"),
    ("sleep", "a sleep"),
    ("yield_now", "a turn-wait yield loop"),
    ("spin_loop", "a turn-wait spin loop"),
];

/// Method names that *are* acquisitions: calls to same-named functions
/// carry acquisition facts, never blocking facts (their internal
/// spin/yield is the acquisition itself, e.g. `ModeGate::enter`).
pub const ACQUIRE_METHOD_NAMES: &[&str] = &[
    "lock",
    "try_lock",
    "enter",
    "read",
    "try_read",
    "write",
    "try_write",
];

/// How a function may block: the root operation plus (for propagated
/// facts) the first callee on the path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockReason {
    /// Description of the root blocking operation.
    pub root: String,
    /// The callee the fact was inherited from, if indirect.
    pub via: Option<String>,
}

impl BlockReason {
    /// Renders the reason for a diagnostic message.
    pub fn describe(&self) -> String {
        match &self.via {
            None => self.root.clone(),
            Some(v) => format!("{} via `{v}`", self.root),
        }
    }
}

/// Direct (intra-procedural) facts of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnFacts {
    /// Primitives acquired lexically in the body.
    pub acquires: Vec<Primitive>,
    /// First direct blocking operation, if any.
    pub block: Option<String>,
}

/// The solved interprocedural summary layer.
#[derive(Debug, Default)]
pub struct Solution {
    /// `facts[file][fn]`, parallel to the models.
    pub facts: Vec<Vec<FnFacts>>,
    /// Function name → how it may block (direct or inherited).
    pub blocking: BTreeMap<String, BlockReason>,
    /// Function name → ranked-or-not primitives it may acquire.
    pub acquiring: BTreeMap<String, Vec<Primitive>>,
    /// Total function summaries computed.
    pub fn_count: usize,
    /// Fixpoint iterations until convergence.
    pub rounds: usize,
}

/// Looks up the guard source matching a `recv.method(..)` call.
pub fn source_for(method: &str, recv: Option<&str>) -> Option<&'static GuardSource> {
    let sources = guard_sources();
    sources
        .iter()
        .find(|s| s.method == method && s.recv.is_some() && s.recv == recv)
        .or_else(|| {
            sources
                .iter()
                .find(|s| s.method == method && s.recv.is_none())
        })
}

fn insert_prim(set: &mut Vec<Primitive>, p: Primitive) -> bool {
    if set.contains(&p) {
        false
    } else {
        set.push(p);
        set.sort();
        true
    }
}

/// Computes direct facts for every function, then runs the name-based
/// fixpoint. Deterministic: maps are ordered and propagation only adds
/// facts, so the result is independent of iteration order.
pub fn solve(models: &[FileModel], graph: &CallGraph) -> Solution {
    let mut sol = Solution::default();
    // Pass 1: direct facts from the registries.
    for (fi, m) in models.iter().enumerate() {
        let mut per_fn = Vec::with_capacity(m.fns.len());
        for (ni, f) in m.fns.iter().enumerate() {
            let mut facts = FnFacts::default();
            for site in &graph.calls[fi][ni] {
                let is_method = site.tok > 0 && m.toks[site.tok - 1].kind == TokKind::Punct(b'.');
                if is_method {
                    if let Some(src) = source_for(&site.name, site.recv.as_deref()) {
                        insert_prim(&mut facts.acquires, src.primitive);
                        continue;
                    }
                    if facts.block.is_none() {
                        if let Some((_, what)) = BLOCK_OPS.iter().find(|(op, _)| *op == site.name) {
                            facts.block = Some((*what).to_string());
                        }
                    }
                } else if facts.block.is_none() {
                    if let Some((_, what)) = BARE_BLOCK_OPS.iter().find(|(op, _)| *op == site.name)
                    {
                        facts.block = Some((*what).to_string());
                    }
                }
            }
            if let Some(root) = &facts.block {
                sol.blocking.entry(f.name.clone()).or_insert(BlockReason {
                    root: root.clone(),
                    via: None,
                });
            }
            for &p in &facts.acquires {
                insert_prim(sol.acquiring.entry(f.name.clone()).or_default(), p);
            }
            per_fn.push(facts);
        }
        sol.fn_count += per_fn.len();
        sol.facts.push(per_fn);
    }

    // Pass 2: fixpoint over call-by-name edges. Blocking facts do not
    // propagate through acquisition-named callees (their waiting *is*
    // the acquisition — that is lock-order's domain, not a wait);
    // acquisition facts propagate through everything known.
    loop {
        sol.rounds += 1;
        let mut changed = false;
        for (fi, m) in models.iter().enumerate() {
            for (ni, f) in m.fns.iter().enumerate() {
                for site in &graph.calls[fi][ni] {
                    if site.name == f.name || site.name == "drop" {
                        continue;
                    }
                    if !ACQUIRE_METHOD_NAMES.contains(&site.name.as_str())
                        && !sol.blocking.contains_key(&f.name)
                    {
                        if let Some(reason) = sol.blocking.get(&site.name) {
                            let inherited = BlockReason {
                                root: reason.root.clone(),
                                via: Some(site.name.clone()),
                            };
                            sol.blocking.insert(f.name.clone(), inherited);
                            changed = true;
                        }
                    }
                    if let Some(prims) = sol.acquiring.get(&site.name).cloned() {
                        let mine = sol.acquiring.entry(f.name.clone()).or_default();
                        for p in prims {
                            changed |= insert_prim(mine, p);
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    sol
}

/// One guard-flow event inside a function body.
#[derive(Debug, Clone)]
pub enum Event {
    /// A live guard reached a blocking operation.
    Blocked {
        /// Binding name of the guard.
        guard: String,
        /// What kind of guard it is.
        primitive: Primitive,
        /// Line the guard was acquired on.
        acq_line: u32,
        /// Position of the blocking operation.
        line: u32,
        /// Column of the blocking operation.
        col: u32,
        /// Description of the blocking operation.
        what: String,
    },
    /// A ranked primitive was acquired while another ranked guard was
    /// live.
    Edge {
        /// The primitive already held.
        held: Primitive,
        /// Line its guard was acquired on.
        held_line: u32,
        /// The primitive being acquired.
        acquired: Primitive,
        /// Position of the new acquisition.
        line: u32,
        /// Column of the new acquisition.
        col: u32,
    },
}

#[derive(Debug)]
struct LiveGuard {
    name: String,
    primitive: Primitive,
    acq_line: u32,
    scope_end: usize,
    reported: bool,
}

#[derive(Debug)]
struct PendingGuard {
    activate_at: usize,
    guard: LiveGuard,
}

/// Replays one function body, tracking live `let`-bound guards, and
/// returns the blocking/ordering events. `blocking` and `acquiring`
/// come from [`Solution`].
pub fn guard_events(
    file: &FileModel,
    delims: &DelimMap,
    f: &FnSpan,
    blocking: &BTreeMap<String, BlockReason>,
    acquiring: &BTreeMap<String, Vec<Primitive>>,
) -> Vec<Event> {
    let mut events = Vec::new();
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut pending: Vec<PendingGuard> = Vec::new();
    let mut braces: Vec<usize> = Vec::new();

    let mut t = f.start + 1;
    while t < f.end {
        // Activate bindings whose initializer has completed.
        let mut i = 0;
        while i < pending.len() {
            if pending[i].activate_at <= t {
                live.push(pending.remove(i).guard);
            } else {
                i += 1;
            }
        }
        // Expire guards whose scope closed.
        live.retain(|g| g.scope_end > t);

        match file.toks[t].kind {
            TokKind::Punct(b'{') => braces.push(t),
            TokKind::Punct(b'}') => {
                braces.pop();
            }
            TokKind::Ident => {
                let name = file.text(t);
                if name == "let" {
                    if let Some(b) = parse_let_binding(file, delims, f, &braces, t) {
                        for n in b.names {
                            pending.push(PendingGuard {
                                activate_at: b.init_end,
                                guard: LiveGuard {
                                    name: n,
                                    primitive: b.primitive,
                                    acq_line: file.toks[t].line,
                                    scope_end: b.scope_end,
                                    reported: false,
                                },
                            });
                        }
                    }
                } else if name == "drop" && file.is_punct(t + 1, b'(') {
                    // `drop(g)` / `mem::drop(g)`: early release.
                    if file
                        .toks
                        .get(t + 2)
                        .is_some_and(|k| k.kind == TokKind::Ident)
                        && file.is_punct(t + 3, b')')
                    {
                        let arg = file.text(t + 2);
                        live.retain(|g| g.name != arg);
                        t += 4;
                        continue;
                    }
                } else if let Some(ev) = classify_call(file, t, &f.name, blocking, acquiring) {
                    match ev {
                        CallKind::Acquire {
                            prims,
                            blocking: blocks,
                        } => {
                            if blocks {
                                for g in &live {
                                    let Some(_held_rank) = g.primitive.rank() else {
                                        continue;
                                    };
                                    for &p in &prims {
                                        if p.rank().is_none() {
                                            continue;
                                        }
                                        events.push(Event::Edge {
                                            held: g.primitive,
                                            held_line: g.acq_line,
                                            acquired: p,
                                            line: file.toks[t].line,
                                            col: file.toks[t].col,
                                        });
                                    }
                                }
                            }
                        }
                        CallKind::Block { what, cond_release } => {
                            if let Some(end) = cond_release {
                                // Condvar-style `cv.wait(&mut g)`: the
                                // guard named in the argument list is
                                // *released* for the wait, not held.
                                let mut k = t + 2;
                                while k < end {
                                    if file.toks[k].kind == TokKind::Ident {
                                        let arg = file.text(k).to_string();
                                        live.retain(|g| g.name != arg);
                                    }
                                    k += 1;
                                }
                            }
                            for g in live.iter_mut().filter(|g| !g.reported) {
                                g.reported = true;
                                events.push(Event::Blocked {
                                    guard: g.name.clone(),
                                    primitive: g.primitive,
                                    acq_line: g.acq_line,
                                    line: file.toks[t].line,
                                    col: file.toks[t].col,
                                    what: what.clone(),
                                });
                            }
                        }
                        CallKind::Plain => {}
                    }
                } else if let Some(idx) = live.iter().position(|g| g.name == name) {
                    // A bare use of a live guard's name.
                    let prev_dot = t > 0 && file.is_punct(t - 1, b'.');
                    let prev_let = t > 0
                        && (file.is_ident(t - 1, "let")
                            || (file.is_ident(t - 1, "mut") && file.is_ident(t - 2, "let")));
                    let borrowed = t > 0
                        && (file.is_punct(t - 1, b'&')
                            || (file.is_ident(t - 1, "mut") && file.is_punct(t - 2, b'&')));
                    let next_dot = file.is_punct(t + 1, b'.');
                    let reassign = file.is_punct(t + 1, b'=') && !file.is_punct(t + 2, b'=');
                    if reassign && !prev_dot {
                        // `g = ...`: the old guard is dropped.
                        live.remove(idx);
                    } else if !prev_dot && !prev_let && !borrowed && !next_dot {
                        // Moved by value (returned, passed on, stored):
                        // no longer this function's responsibility.
                        live.remove(idx);
                    }
                }
            }
            _ => {}
        }
        t += 1;
    }
    events
}

enum CallKind {
    /// A guard-source acquisition (direct or via an acquiring callee).
    Acquire {
        prims: Vec<Primitive>,
        blocking: bool,
    },
    /// A blocking operation; `cond_release` is the token index of the
    /// call's closing `)` when the op releases guards named in its
    /// arguments (condvar semantics).
    Block {
        what: String,
        cond_release: Option<usize>,
    },
    /// A call with no tracked effect (still consumed as a call).
    Plain,
}

/// Classifies the identifier at `t` if it is a call site. `self_name`
/// is the enclosing function's name: a call sharing it gets no
/// interprocedural facts (they would include the caller's own — the
/// name map conflates same-named functions, and a recursive-looking
/// edge from that conflation is noise, mirroring the solver's
/// self-skip).
fn classify_call(
    file: &FileModel,
    t: usize,
    self_name: &str,
    blocking: &BTreeMap<String, BlockReason>,
    acquiring: &BTreeMap<String, Vec<Primitive>>,
) -> Option<CallKind> {
    let name = file.text(t);
    if file.is_punct(t + 1, b'!') {
        return None; // macro
    }
    // Allow a turbofish between name and `(`.
    let mut j = t + 1;
    if file.is_punct(j, b':') && file.is_punct(j + 1, b':') && file.is_punct(j + 2, b'<') {
        let mut angle = 1usize;
        j += 3;
        while j < file.toks.len() && angle > 0 {
            if file.is_punct(j, b'<') {
                angle += 1;
            } else if file.is_punct(j, b'>') {
                angle -= 1;
            }
            j += 1;
        }
    }
    if !file.is_punct(j, b'(') {
        return None;
    }
    let is_method = t > 0 && file.is_punct(t - 1, b'.');
    if is_method {
        let recv = method_receiver(file, t);
        if let Some(src) = source_for(name, recv.as_deref()) {
            let mut prims = vec![src.primitive];
            if let Some(extra) = acquiring.get(name) {
                for &p in extra {
                    if !prims.contains(&p) {
                        prims.push(p);
                    }
                }
            }
            return Some(CallKind::Acquire {
                prims,
                blocking: src.blocking,
            });
        }
        if let Some((_, what)) = BLOCK_OPS.iter().find(|(op, _)| *op == name) {
            let releases = matches!(name, "wait" | "wait_timeout");
            let close = releases.then(|| {
                let mut depth = 1usize;
                let mut k = j + 1;
                while k < file.toks.len() && depth > 0 {
                    match file.toks[k].kind {
                        TokKind::Punct(b'(') => depth += 1,
                        TokKind::Punct(b')') => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                k
            });
            return Some(CallKind::Block {
                what: (*what).to_string(),
                cond_release: close,
            });
        }
    } else if let Some((_, what)) = BARE_BLOCK_OPS.iter().find(|(op, _)| *op == name) {
        return Some(CallKind::Block {
            what: (*what).to_string(),
            cond_release: None,
        });
    }
    // Interprocedural: acquisition-named callees carry acquisition
    // facts only; everything else may carry a blocking fact. Calls that
    // share the enclosing function's name carry nothing (see above).
    if ACQUIRE_METHOD_NAMES.contains(&name) || name == self_name {
        return Some(CallKind::Plain);
    }
    let prims = acquiring.get(name).cloned().unwrap_or_default();
    if let Some(reason) = blocking.get(name) {
        return Some(CallKind::Block {
            what: format!("a call to `{name}`, which may reach {}", reason.describe()),
            cond_release: None,
        });
    }
    if !prims.is_empty() {
        return Some(CallKind::Acquire {
            prims,
            blocking: true,
        });
    }
    Some(CallKind::Plain)
}

/// The receiver identifier of the method call whose name is at `t`.
fn method_receiver(file: &FileModel, t: usize) -> Option<String> {
    let mut i = t.checked_sub(2)?;
    if file.is_punct(i, b']') || file.is_punct(i, b')') {
        // Walk back over one `[..]`/`(..)` suffix.
        let mut depth = 1usize;
        while i > 0 && depth > 0 {
            i -= 1;
            match file.toks[i].kind {
                TokKind::Punct(b']') | TokKind::Punct(b')') => depth += 1,
                TokKind::Punct(b'[') | TokKind::Punct(b'(') => depth -= 1,
                _ => {}
            }
        }
        i = i.checked_sub(1)?;
    }
    (file.toks.get(i).is_some_and(|k| k.kind == TokKind::Ident)).then(|| file.text(i).to_string())
}

struct LetBinding {
    names: Vec<String>,
    primitive: Primitive,
    init_end: usize,
    scope_end: usize,
}

const PATTERN_KEYWORDS: &[&str] = &["mut", "ref", "box", "move", "_"];

/// Parses the `let` at token `t`: bound names, whether the initializer
/// lexically acquires a guard, and the binding's scope.
fn parse_let_binding(
    file: &FileModel,
    delims: &DelimMap,
    f: &FnSpan,
    braces: &[usize],
    t: usize,
) -> Option<LetBinding> {
    let cond_let = t > 0 && (file.is_ident(t - 1, "if") || file.is_ident(t - 1, "while"));
    // Bound names: lowercase identifiers in the pattern, up to the
    // assignment `=` (or a top-level `:` type annotation).
    let mut names = Vec::new();
    let mut depth = 0usize;
    let mut j = t + 1;
    let eq = loop {
        if j >= f.end {
            return None;
        }
        match file.toks[j].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                depth = depth.saturating_sub(1)
            }
            TokKind::Punct(b';') if depth == 0 => return None, // `let x;`
            TokKind::Punct(b':')
                if depth == 0
                    && !file.is_punct(j + 1, b':')
                    && !file.is_punct(j.wrapping_sub(1), b':') =>
            {
                // Type annotation: skip to the `=`.
                let mut k = j + 1;
                let mut d = 0usize;
                let mut angle = 0usize;
                loop {
                    if k >= f.end {
                        return None;
                    }
                    match file.toks[k].kind {
                        TokKind::Punct(b'(') | TokKind::Punct(b'[') => d += 1,
                        TokKind::Punct(b')') | TokKind::Punct(b']') => d = d.saturating_sub(1),
                        TokKind::Punct(b'<') => angle += 1,
                        TokKind::Punct(b'>') => angle = angle.saturating_sub(1),
                        TokKind::Punct(b'=') if d == 0 && angle == 0 => break,
                        TokKind::Punct(b';') | TokKind::Punct(b'{') if d == 0 && angle == 0 => {
                            return None
                        }
                        _ => {}
                    }
                    k += 1;
                }
                break k;
            }
            TokKind::Punct(b'=')
                if depth == 0
                    && !file.is_punct(j + 1, b'=')
                    && !matches!(
                        file.toks[j - 1].kind,
                        TokKind::Punct(b'=')
                            | TokKind::Punct(b'!')
                            | TokKind::Punct(b'<')
                            | TokKind::Punct(b'>')
                    ) =>
            {
                break j;
            }
            TokKind::Ident => {
                let n = file.text(j);
                if !PATTERN_KEYWORDS.contains(&n)
                    && n.chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_')
                {
                    names.push(n.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    };
    if names.is_empty() {
        return None;
    }
    // Initializer: to the statement `;` (plain let, delimiters nest) or
    // to the block `{` (if/while-let).
    let mut k = eq + 1;
    let mut d = 0usize;
    let init_end = loop {
        if k >= f.end {
            break f.end;
        }
        match file.toks[k].kind {
            TokKind::Punct(b'{') if cond_let && d == 0 => break k,
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => d += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                d = d.saturating_sub(1)
            }
            TokKind::Punct(b';') if d == 0 => break k,
            _ => {}
        }
        k += 1;
    };
    // Does the initializer lexically acquire a guard?
    let mut primitive = None;
    let mut k = eq + 1;
    while k < init_end {
        if file.toks[k].kind == TokKind::Ident
            && file.is_punct(k.wrapping_sub(1), b'.')
            && file.is_punct(k + 1, b'(')
        {
            if let Some(src) = source_for(file.text(k), method_receiver(file, k).as_deref()) {
                primitive = Some(src.primitive);
                break;
            }
        }
        k += 1;
    }
    let primitive = primitive?;
    let scope_end = braces
        .last()
        .map(|&b| delims.open[b])
        .filter(|&e| e != usize::MAX)
        .unwrap_or(f.end);
    Some(LetBinding {
        names,
        primitive,
        init_end,
        scope_end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{match_delims, CallGraph};

    fn setup(src: &str) -> (FileModel, DelimMap, Solution) {
        let m = FileModel::build("test.rs".into(), src.into(), false);
        let d = match_delims(&m);
        let g = CallGraph::build(std::slice::from_ref(&m), std::slice::from_ref(&d));
        let sol = solve(std::slice::from_ref(&m), &g);
        (m, d, sol)
    }

    fn events(src: &str, fn_name: &str) -> Vec<Event> {
        let (m, d, sol) = setup(src);
        let f = m.fns.iter().find(|f| f.name == fn_name).unwrap();
        guard_events(&m, &d, f, &sol.blocking, &sol.acquiring)
    }

    #[test]
    fn guard_held_across_direct_recv_is_blocked() {
        let evs = events(
            "fn w(rx: &Receiver<u64>, state: &Mutex<u64>) {\n\
             let held = state.lock();\n\
             let job = rx.recv();\n\
             consume(held, job);\n}",
            "w",
        );
        assert!(matches!(
            &evs[..],
            [Event::Blocked { guard, primitive: Primitive::StateMutex, line: 3, .. }]
                if guard == "held"
        ));
    }

    #[test]
    fn dropped_guard_does_not_block() {
        let evs = events(
            "fn w(rx: &Receiver<u64>, state: &Mutex<u64>) {\n\
             let held = state.lock();\n\
             drop(held);\n\
             let job = rx.recv();\n\
             consume(job);\n}",
            "w",
        );
        assert!(evs.is_empty(), "{evs:?}");
    }

    #[test]
    fn escaped_guard_is_no_longer_tracked() {
        let evs = events(
            "fn w(rx: &Receiver<u64>, m: &Mutex<u64>) -> Guard {\n\
             let held = m.lock();\n\
             let out = wrap(held);\n\
             let job = rx.recv();\n\
             consume(job);\n\
             out\n}",
            "w",
        );
        assert!(evs.is_empty(), "{evs:?}");
    }

    #[test]
    fn condvar_wait_releases_the_named_guard() {
        let evs = events(
            "fn w(cv: &Condvar, m: &Mutex<u64>) {\n\
             let mut g = m.lock();\n\
             cv.wait(&mut g);\n}",
            "w",
        );
        assert!(evs.is_empty(), "{evs:?}");
    }

    #[test]
    fn blocking_propagates_through_the_call_graph() {
        let evs = events(
            "fn turn_wait(seq: u64) { while busy(seq) { std::thread::yield_now(); } }\n\
             fn commit(state: &Mutex<()>, seq: u64) {\n\
             let held = state.lock();\n\
             turn_wait(seq);\n\
             publish(held);\n}",
            "commit",
        );
        assert!(
            matches!(
                &evs[..],
                [Event::Blocked {
                    primitive: Primitive::StateMutex,
                    line: 4,
                    ..
                }]
            ),
            "{evs:?}"
        );
    }

    #[test]
    fn back_edge_acquisition_is_reported() {
        let evs = events(
            "fn backward(gate: &ModeGate, commit_gate: &RwLock<()>) {\n\
             let c = commit_gate.read();\n\
             let (g, on, w) = gate.enter(false);\n\
             consume(c, g, on, w);\n}",
            "backward",
        );
        assert!(
            evs.iter().any(|e| matches!(
                e,
                Event::Edge {
                    held: Primitive::CommitGate,
                    acquired: Primitive::ModeGate,
                    ..
                }
            )),
            "{evs:?}"
        );
    }

    #[test]
    fn try_acquisitions_make_no_ordering_edges() {
        let evs = events(
            "fn f(state: &Mutex<u64>, commit_gate: &RwLock<()>) {\n\
             let s = state.lock();\n\
             let c = commit_gate.try_read();\n\
             consume(s, c);\n}",
            "f",
        );
        assert!(
            !evs.iter().any(|e| matches!(e, Event::Edge { .. })),
            "{evs:?}"
        );
    }

    #[test]
    fn solve_counts_functions_and_converges() {
        let (_, _, sol) =
            setup("fn a() { b(); }\nfn b() { c(); }\nfn c(rx: &Receiver<u64>) { rx.recv(); }");
        assert_eq!(sol.fn_count, 3);
        assert!(sol.blocking.contains_key("a"), "{:?}", sol.blocking);
        assert_eq!(sol.blocking["a"].via.as_deref(), Some("b"));
    }
}
