//! # rococo-lint — TM-safety static analysis for the ROCoCoTM workspace
//!
//! rustc and clippy check memory safety and style; they cannot check the
//! *transactional* discipline the runtime's correctness argument leans
//! on. This crate is a dependency-free, offline analyzer with a
//! comment/string-aware lexer, a brace-tracking closure resolver, and a
//! name-based call graph with interprocedural blocking summaries that
//! walks the workspace (excluding `vendor/` and `target/`) and enforces
//! seven rule families:
//!
//! | rule | invariant |
//! |---|---|
//! | `atomic-side-effect` | closures passed to `atomically`/`try_atomically*`/`RetryPolicy::execute*` are re-executed on abort → no I/O, clocks, RNG, sleeps, locks, channel ops inside them |
//! | `uncounted-abort` | every ROCoCoTM abort path feeds the §4.2 escalation counter via `count_abort` (the PR-2 bug class) |
//! | `commit-seq-outside-critical` | dense durable sequence counters are mutated only inside `commit_seq` (the PR-3 WAL-replay invariant) |
//! | `missing-forbid-unsafe` | every non-vendored crate root carries `#![forbid(unsafe_code)]` |
//! | `guard-across-wait` | no held guard flows into a blocking call, directly or through the call graph (the PR-8 deadlock class) |
//! | `lock-order-cycle` | blocking primitive acquisitions follow the canonical order mode-gate < state-mutex < commit-gate < shard-queue |
//! | `pending-commit-leak` | every submitted commit reaches `finish`/drop-publish before the worker parks (the PR-7 drain invariant) |
//!
//! Findings can be acknowledged in place with a *justified* suppression:
//!
//! ```text
//! // rococo-lint: allow(commit-seq-outside-critical) -- test forges GlobalTS
//! ```
//!
//! The justification is mandatory and unused suppressions are themselves
//! errors, so allows cannot rot. See `DESIGN.md` §7 for the full rule
//! rationale and [`rules::registry`] for how to add rule *n+1*.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod diag;
pub mod jsonw;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod summary;
pub mod suppress;

pub use diag::Diagnostic;
pub use model::FileModel;
pub use rules::{registry, rule_ids, workspace_registry, Rule, WorkspaceRule};

use std::path::{Path, PathBuf};
use std::time::Instant;

use callgraph::{match_delims, CallGraph, DelimMap};
use summary::{Event, Solution};

/// One source file queued for analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative display path (`/`-separated).
    pub path: String,
    /// File contents.
    pub src: String,
    /// Whether this is a non-vendored crate root (`src/lib.rs`).
    pub is_crate_root: bool,
}

/// The whole workspace under analysis: per-file models plus the
/// interprocedural layer the workspace rules run on.
#[derive(Debug)]
pub struct Workspace {
    /// Per-file models, sorted by path.
    pub models: Vec<FileModel>,
    /// Matching-delimiter maps, parallel to `models`.
    pub delims: Vec<DelimMap>,
    /// The name-based call graph.
    pub graph: CallGraph,
    /// Solved per-function summaries (may-acquire / may-block).
    pub solution: Solution,
    /// Guard-flow events per `models[file].fns[fn]`.
    pub events: Vec<Vec<Vec<Event>>>,
}

impl Workspace {
    /// Builds the call graph, solves the summaries, and replays every
    /// function body for guard-flow events.
    pub fn build(models: Vec<FileModel>) -> Self {
        let delims: Vec<DelimMap> = models.iter().map(match_delims).collect();
        let graph = CallGraph::build(&models, &delims);
        let solution = summary::solve(&models, &graph);
        let events = models
            .iter()
            .enumerate()
            .map(|(fi, m)| {
                m.fns
                    .iter()
                    .map(|f| {
                        summary::guard_events(
                            m,
                            &delims[fi],
                            f,
                            &solution.blocking,
                            &solution.acquiring,
                        )
                    })
                    .collect()
            })
            .collect();
        Self {
            models,
            delims,
            graph,
            solution,
            events,
        }
    }
}

/// Per-rule execution statistics.
#[derive(Debug, Clone)]
pub struct RuleStat {
    /// Rule id.
    pub id: &'static str,
    /// Diagnostics emitted before suppression.
    pub raw: usize,
    /// Wall time spent in the rule, microseconds.
    pub micros: u128,
}

/// The result of one lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Files analyzed.
    pub files: usize,
    /// Total source lines analyzed.
    pub lines: usize,
    /// Surviving diagnostics (after suppressions), in file order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-rule statistics.
    pub rule_stats: Vec<RuleStat>,
    /// Suppressions that matched a diagnostic.
    pub suppressions_used: usize,
    /// Microseconds spent lexing + resolving models.
    pub parse_micros: u128,
    /// Microseconds spent building the interprocedural layer (call
    /// graph + summary fixpoint + guard-flow replay).
    pub summary_micros: u128,
    /// Function summaries computed by the interprocedural pass.
    pub fn_summaries: usize,
    /// Call edges resolved to a known definition name.
    pub call_edges: usize,
    /// `Some(false)` when `--verify-fixpoint` found the summary pass
    /// nondeterministic; `None` when verification was not requested.
    pub fixpoint_ok: Option<bool>,
}

impl LintReport {
    /// True when the tree is lint-clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.fixpoint_ok != Some(false)
    }

    /// Serialises the whole report as one JSON object (the CI
    /// artifact).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"tool\":\"rococo-lint\",\"files\":{},\"lines\":{},\"suppressions_used\":{},\
             \"fn_summaries\":{},\"call_edges\":{},\"clean\":{},\"rules\":[",
            self.files,
            self.lines,
            self.suppressions_used,
            self.fn_summaries,
            self.call_edges,
            self.is_clean(),
        );
        for (i, r) in self.rule_stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            jsonw::push_json_str(&mut out, r.id);
            let _ = write!(out, ",\"diagnostics\":{},\"micros\":{}}}", r.raw, r.micros);
        }
        out.push_str("],\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            d.to_json(&mut out);
        }
        out.push_str("]}\n");
        out
    }

    /// Serialises the surviving diagnostics as a minimal SARIF 2.1.0
    /// log — the format CI services ingest for inline annotations.
    /// Shares the string writer with [`LintReport::to_json`], so the
    /// two emitters cannot diverge on escaping.
    pub fn to_sarif(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(
            "{\"version\":\"2.1.0\",\
             \"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
             \"runs\":[{\"tool\":{\"driver\":{\"name\":\"rococo-lint\",\
             \"informationUri\":\"https://example.invalid/rococo-lint\",\"rules\":[",
        );
        let mut first = true;
        let mut rule_ids_in_order: Vec<&'static str> = Vec::new();
        for (id, desc) in rule_catalog() {
            if !first {
                out.push(',');
            }
            first = false;
            rule_ids_in_order.push(id);
            out.push_str("{\"id\":");
            jsonw::push_json_str(&mut out, id);
            out.push_str(",\"shortDescription\":{\"text\":");
            jsonw::push_json_str(&mut out, desc);
            out.push_str("}}");
        }
        out.push_str("]}},\"results\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"ruleId\":");
            jsonw::push_json_str(&mut out, d.rule);
            if let Some(ix) = rule_ids_in_order.iter().position(|r| *r == d.rule) {
                let _ = write!(out, ",\"ruleIndex\":{ix}");
            }
            out.push_str(",\"level\":\"error\",\"message\":{\"text\":");
            jsonw::push_json_str(&mut out, &d.message);
            out.push_str("},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":");
            jsonw::push_json_str(&mut out, &d.file);
            let _ = write!(
                out,
                "}},\"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]}}",
                d.line, d.col
            );
        }
        out.push_str("]}]}\n");
        out
    }
}

/// Every reportable rule id with its description — the registered
/// per-file and workspace rules plus the suppression meta-rules.
pub fn rule_catalog() -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<(&'static str, &'static str)> = Vec::new();
    for r in registry() {
        out.push((r.id(), r.description()));
    }
    for r in workspace_registry() {
        out.push((r.id(), r.description()));
    }
    out.push((
        "unused-suppression",
        "every rococo-lint allow must still match a diagnostic",
    ));
    out.push((
        "bad-suppression",
        "rococo-lint allows must name a known rule and carry a justification",
    ));
    out
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["vendor", "target"];

/// Path suffixes excluded from the walk (fixture corpora deliberately
/// contain violations).
const SKIP_SUFFIXES: &[&str] = &["crates/lint/tests/fixtures"];

/// Collects every analyzable `.rs` file under `root`.
///
/// # Errors
///
/// Returns any I/O error from walking or reading the tree.
pub fn collect_workspace_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name.starts_with('.') || SKIP_DIRS.contains(&name) {
                    continue;
                }
                let rel = rel_path(root, &path);
                if SKIP_SUFFIXES.iter().any(|s| rel.ends_with(s)) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                let is_crate_root = name == "lib.rs"
                    && path.parent().is_some_and(|p| p.ends_with("src"))
                    && path
                        .parent()
                        .and_then(Path::parent)
                        .is_some_and(|p| p.join("Cargo.toml").exists());
                files.push(SourceFile {
                    path: rel,
                    src: std::fs::read_to_string(&path)?,
                    is_crate_root,
                });
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Engine options.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Re-run the summary fixpoint from scratch and require the two
    /// solutions to agree (the nightly nondeterminism check).
    pub verify_fixpoint: bool,
}

/// Runs every registered rule over `sources` and applies suppressions.
pub fn lint_sources(sources: Vec<SourceFile>) -> LintReport {
    lint_sources_with(sources, &Options::default())
}

/// [`lint_sources`] with explicit [`Options`].
pub fn lint_sources_with(sources: Vec<SourceFile>, opts: &Options) -> LintReport {
    let rules = registry();
    let ws_rules = workspace_registry();
    let known = rule_ids();

    let t0 = Instant::now();
    let models: Vec<FileModel> = sources
        .into_iter()
        .map(|s| FileModel::build(s.path, s.src, s.is_crate_root))
        .collect();
    let parse_micros = t0.elapsed().as_micros();
    let lines: usize = models.iter().map(|m| m.src.lines().count()).sum();

    let t1 = Instant::now();
    let ws = Workspace::build(models);
    let summary_micros = t1.elapsed().as_micros();

    let fixpoint_ok = opts.verify_fixpoint.then(|| {
        let again = summary::solve(&ws.models, &ws.graph);
        again.blocking == ws.solution.blocking && again.acquiring == ws.solution.acquiring
    });

    // Run per-file rules (rule-major, so per-rule timing is
    // meaningful), then the workspace rules, then fold suppressions in
    // per file.
    let mut per_file: Vec<Vec<Diagnostic>> = ws.models.iter().map(|_| Vec::new()).collect();
    let mut rule_stats = Vec::new();
    for rule in &rules {
        let t = Instant::now();
        let mut raw = 0usize;
        for (m, out) in ws.models.iter().zip(per_file.iter_mut()) {
            let before = out.len();
            rule.check(m, out);
            raw += out.len() - before;
        }
        rule_stats.push(RuleStat {
            id: rule.id(),
            raw,
            micros: t.elapsed().as_micros(),
        });
    }
    for rule in &ws_rules {
        let t = Instant::now();
        let mut found = Vec::new();
        rule.check(&ws, &mut found);
        rule_stats.push(RuleStat {
            id: rule.id(),
            raw: found.len(),
            micros: t.elapsed().as_micros(),
        });
        // Re-bucket workspace diagnostics by path so per-file
        // suppressions see them.
        for d in found {
            if let Some(ix) = ws.models.iter().position(|m| m.path == d.file) {
                per_file[ix].push(d);
            }
        }
    }

    let mut diagnostics = Vec::new();
    let mut suppressions_used = 0usize;
    for (m, raw) in ws.models.iter().zip(per_file) {
        let (sups, bad) = suppress::collect(m, &known);
        let (mut kept, used) = suppress::apply(m, sups, raw);
        kept.extend(bad);
        kept.sort_by_key(|d| (d.line, d.col));
        suppressions_used += used;
        diagnostics.extend(kept);
    }

    LintReport {
        files: ws.models.len(),
        lines,
        diagnostics,
        rule_stats,
        suppressions_used,
        parse_micros,
        summary_micros,
        fn_summaries: ws.solution.fn_count,
        call_edges: ws.graph.edges,
        fixpoint_ok,
    }
}

/// Walks the workspace at `root` and lints every source file.
///
/// # Errors
///
/// Returns any I/O error from reading the tree.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    Ok(lint_sources(collect_workspace_sources(root)?))
}

/// [`lint_workspace`] with explicit [`Options`].
///
/// # Errors
///
/// Returns any I/O error from reading the tree.
pub fn lint_workspace_with(root: &Path, opts: &Options) -> std::io::Result<LintReport> {
    Ok(lint_sources_with(collect_workspace_sources(root)?, opts))
}
