//! The workspace self-check: the repository this linter ships in must
//! itself be lint-clean, the analysis must actually be looking at
//! something (tripwires against the walker or resolver silently going
//! blind), and every crate must take the workspace's `unsafe_code =
//! "forbid"`.

use std::path::PathBuf;

use rococo_lint::model::FileModel;
use rococo_lint::{collect_workspace_sources, lint_workspace};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint_workspace(&repo_root()).unwrap();
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.is_clean(),
        "workspace has lint errors:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn walker_and_resolver_are_not_blind() {
    let root = repo_root();
    let sources = collect_workspace_sources(&root).unwrap();
    assert!(
        sources.len() >= 80,
        "walker found only {} files",
        sources.len()
    );
    assert!(
        sources
            .iter()
            .any(|s| s.path == "crates/stm/src/rococotm.rs"),
        "rococotm.rs missing from the walk"
    );
    assert!(
        !sources.iter().any(|s| s.path.contains("vendor/")),
        "vendored sources must not be linted"
    );
    assert!(
        !sources.iter().any(|s| s.path.contains("tests/fixtures/")),
        "fixture corpora must not be linted"
    );
    // The closure resolver must see the workspace's atomic closures —
    // if this count collapses, rule 1 is scanning nothing.
    let closures: usize = sources
        .into_iter()
        .map(|s| FileModel::build(s.path, s.src).closures.len())
        .sum();
    assert!(closures >= 40, "only {closures} atomic closures resolved");
}

/// Whether `manifest` has a `[lints]` table whose first entry is
/// `workspace = true`.
fn takes_workspace_lints(manifest: &str) -> bool {
    let mut lines = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[lints]")
        .skip(1)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    lines.next() == Some("workspace = true")
}

#[test]
fn every_crate_takes_the_workspace_forbid_of_unsafe_code() {
    let root = repo_root();
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let workspace = read(&root.join("Cargo.toml"));
    assert!(
        workspace.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\"\n"),
        "the root Cargo.toml must forbid unsafe_code for the workspace"
    );
    let mut missing = Vec::new();
    if !takes_workspace_lints(&workspace) {
        missing.push("Cargo.toml".to_string());
    }
    let mut members = 0;
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        if !manifest.exists() {
            continue;
        }
        members += 1;
        let rel = manifest.strip_prefix(&root).unwrap().display().to_string();
        // The counting allocator implements the unsafe `GlobalAlloc`; it
        // is a dev-dependency of the allocation tests only.
        if rel == "crates/testalloc/Cargo.toml" {
            continue;
        }
        if !takes_workspace_lints(&read(&manifest)) {
            missing.push(rel);
        }
    }
    assert!(members >= 16, "only {members} crates found under crates/");
    assert!(
        missing.is_empty(),
        "without `[lints] workspace = true`, unsafe code compiles in: {missing:?}"
    );
}
