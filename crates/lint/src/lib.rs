//! # rococo-lint — TM-safety static analysis for the ROCoCoTM workspace
//!
//! rustc and clippy check memory safety and style; they cannot check the
//! *transactional* discipline the runtime's correctness argument leans
//! on. This crate is a dependency-free, offline analyzer with a
//! comment/string-aware lexer and a brace-tracking closure resolver that
//! walks the workspace (excluding `vendor/` and `target/`) and enforces
//! four per-file rule families:
//!
//! | rule | invariant |
//! |---|---|
//! | `atomic-side-effect` | closures passed to `atomically`/`try_atomically*`/`execute_seq` are re-executed on abort → no I/O, clocks, RNG, sleeps, locks, channel ops inside them |
//! | `uncounted-abort` | every ROCoCoTM abort path feeds the §4.2 escalation counter via `count_abort` (the PR-2 bug class) |
//! | `commit-seq-outside-critical` | dense durable sequence counters are mutated only inside `commit_seq` (the PR-3 WAL-replay invariant) |
//! | `missing-forbid-unsafe` | every non-vendored crate root carries `#![forbid(unsafe_code)]` |
//!
//! Blocking bugs (a guard held across a wait, a worker parking before it
//! answers) are not checked here; runtime tests guard them (`DESIGN.md`
//! §7.5).
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

pub mod diag;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod suppress;

pub use diag::Diagnostic;
pub use model::FileModel;
pub use rules::{registry, rule_ids, Rule};

use std::path::{Path, PathBuf};
use std::time::Instant;

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
}

impl LintReport {
    /// True when the tree is lint-clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Serialises the whole report as one JSON object (the CI
    /// artifact).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"tool\":\"rococo-lint\",\"files\":{},\"lines\":{},\"suppressions_used\":{},\
             \"clean\":{},\"rules\":[",
            self.files,
            self.lines,
            self.suppressions_used,
            self.is_clean(),
        );
        for (i, r) in self.rule_stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            diag::push_json_str(&mut out, r.id);
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

/// Runs every registered rule over `sources` and applies suppressions.
pub fn lint_sources(sources: Vec<SourceFile>) -> LintReport {
    let rules = registry();
    let known = rule_ids();

    let t0 = Instant::now();
    let models: Vec<FileModel> = sources
        .into_iter()
        .map(|s| FileModel::build(s.path, s.src, s.is_crate_root))
        .collect();
    let parse_micros = t0.elapsed().as_micros();
    let lines: usize = models.iter().map(|m| m.src.lines().count()).sum();

    // Run the rules rule-major, so per-rule timing is meaningful, then
    // fold suppressions in per file.
    let mut per_file: Vec<Vec<Diagnostic>> = models.iter().map(|_| Vec::new()).collect();
    let mut rule_stats = Vec::new();
    for rule in &rules {
        let t = Instant::now();
        let mut raw = 0usize;
        for (m, out) in models.iter().zip(per_file.iter_mut()) {
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

    let mut diagnostics = Vec::new();
    let mut suppressions_used = 0usize;
    for (m, raw) in models.iter().zip(per_file) {
        let (sups, bad) = suppress::collect(m, &known);
        let (mut kept, used) = suppress::apply(m, sups, raw);
        kept.extend(bad);
        kept.sort_by_key(|d| (d.line, d.col));
        suppressions_used += used;
        diagnostics.extend(kept);
    }

    LintReport {
        files: models.len(),
        lines,
        diagnostics,
        rule_stats,
        suppressions_used,
        parse_micros,
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
