//! The workspace self-check: the repository this linter ships in must
//! itself be lint-clean, and the analysis must actually be looking at
//! something (tripwires against the walker or resolver silently going
//! blind).

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
    // The in-tree allow — the GlobalTS-forging rococotm test — must be
    // honoured, not dead.
    assert!(
        report.suppressions_used >= 1,
        "only {} suppressions honoured",
        report.suppressions_used
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
    let crate_roots = sources.iter().filter(|s| s.is_crate_root).count();
    assert!(crate_roots >= 10, "only {crate_roots} crate roots detected");

    // The closure resolver must see the workspace's atomic closures —
    // if this count collapses, rule 1 is scanning nothing.
    let closures: usize = sources
        .into_iter()
        .map(|s| {
            FileModel::build(s.path, s.src, s.is_crate_root)
                .closures
                .len()
        })
        .sum();
    assert!(closures >= 40, "only {closures} atomic closures resolved");
}
