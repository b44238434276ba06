//! # rococo-lint — TM-safety static analysis for the ROCoCoTM workspace
//!
//! rustc, clippy and the types of `rococo-stm` hold most of the
//! runtime's discipline: the workspace forbids `unsafe_code`, a commit
//! sequence advances only with the token a commit holds, and ROCoCoTM's
//! inner read path returns a bare `AbortKind` that only the counting
//! `Transaction` methods turn into an `Abort`. What no type can say is
//! that a closure re-executed on abort has no side effects. This crate is
//! a dependency-free, offline analyzer with a comment/string-aware lexer
//! and a brace-tracking closure resolver that walks the workspace
//! (excluding `vendor/` and `target/`) and enforces that one rule,
//! `atomic-side-effect`: closures passed to `atomically` /
//! `try_atomically*` / `execute_seq` / the hybrid router's entry points
//! hold no I/O, clocks, RNG, sleeps, locks or channel ops.
//!
//! Blocking bugs (a guard held across a wait, a worker parking before it
//! answers) are not checked here; runtime tests guard them (`DESIGN.md`
//! §7). See [`rules::registry`] for how to add a rule.

pub mod diag;
pub mod lexer;
pub mod model;
pub mod rules;

pub use diag::Diagnostic;
pub use model::FileModel;
pub use rules::{registry, Rule};

use std::path::{Path, PathBuf};
use std::time::Instant;

/// One source file queued for analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative display path (`/`-separated).
    pub path: String,
    /// File contents.
    pub src: String,
}

/// Per-rule execution statistics.
#[derive(Debug, Clone)]
pub struct RuleStat {
    /// Rule id.
    pub id: &'static str,
    /// Diagnostics emitted.
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
    /// Diagnostics, in file order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-rule statistics.
    pub rule_stats: Vec<RuleStat>,
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
            "{{\"tool\":\"rococo-lint\",\"files\":{},\"lines\":{},\"clean\":{},\"rules\":[",
            self.files,
            self.lines,
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
                files.push(SourceFile {
                    path: rel_path(root, &path),
                    src: std::fs::read_to_string(&path)?,
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

/// Runs every registered rule over `sources`.
pub fn lint_sources(sources: Vec<SourceFile>) -> LintReport {
    let rules = registry();

    let t0 = Instant::now();
    let models: Vec<FileModel> = sources
        .into_iter()
        .map(|s| FileModel::build(s.path, s.src))
        .collect();
    let parse_micros = t0.elapsed().as_micros();
    let lines: usize = models.iter().map(|m| m.src.lines().count()).sum();

    // Run the rules rule-major, so per-rule timing is meaningful, then
    // put each file's findings in source order.
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
    for mut found in per_file {
        found.sort_by_key(|d| (d.line, d.col));
        diagnostics.extend(found);
    }

    LintReport {
        files: models.len(),
        lines,
        diagnostics,
        rule_stats,
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
