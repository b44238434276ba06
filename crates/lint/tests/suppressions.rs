//! Suppression-grammar tests: justified allows silence diagnostics,
//! everything else about them is an error.

use rococo_lint::{lint_sources, LintReport, SourceFile};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn lint_src(path: &str, src: String) -> LintReport {
    lint_sources(vec![SourceFile {
        path: path.to_string(),
        src,
        is_crate_root: false,
    }])
}

fn findings(report: &LintReport) -> Vec<(&str, u32)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn justified_suppressions_silence_diagnostics() {
    let report = lint_src("crates/demo/src/ok.rs", fixture("suppressed.rs"));
    assert_eq!(findings(&report), vec![], "{:?}", report.diagnostics);
    // own-line, trailing, and the one-covers-the-whole-line form.
    assert_eq!(report.suppressions_used, 3);
}

#[test]
fn every_malformed_suppression_is_an_error() {
    let report = lint_src("crates/demo/src/bad.rs", fixture("suppress_bad.rs"));
    assert_eq!(
        findings(&report),
        vec![
            ("unused-suppression", 4), // well-formed but matches nothing
            ("bad-suppression", 9),    // missing ` -- justification`
            ("bad-suppression", 14),   // empty justification
            ("bad-suppression", 19),   // unknown rule
            ("bad-suppression", 24),   // typo'd verb
        ]
    );
    assert_eq!(report.suppressions_used, 0);
}

#[test]
fn meta_rules_cannot_be_suppressed() {
    // `unused-suppression`/`bad-suppression` are not in the rule
    // vocabulary, so allowing them is itself a bad suppression.
    let src = "\
fn f(x: u64) -> u64 {
    // rococo-lint: allow(unused-suppression) -- trying to silence the silencer
    x
}
";
    let report = lint_src("crates/demo/src/meta.rs", src.to_string());
    assert_eq!(findings(&report), vec![("bad-suppression", 2)]);
}

#[test]
fn allows_of_deleted_rules_are_errors() {
    // The three blocking-graph rules were deleted in PR 25; an allow
    // that still names one must not survive. Spelled in pieces so the
    // tree holds no live mention of the old ids.
    for (stem, tail) in [
        ("guard-across", "wait"),
        ("lock-order", "cycle"),
        ("pending-commit", "leak"),
    ] {
        let src = format!(
            "fn f(x: u64) -> u64 {{\n    // rococo-lint: allow({stem}-{tail}) -- a stale reason\n    x\n}}\n"
        );
        let report = lint_src("crates/demo/src/stale.rs", src);
        assert_eq!(findings(&report), vec![("bad-suppression", 2)]);
    }
}

#[test]
fn suppression_only_covers_its_own_rule() {
    let src = "\
use rococo_stm::atomically;
fn f(tm: &Tm) {
    atomically(tm, 0, |tx| {
        // rococo-lint: allow(commit-seq-outside-critical) -- wrong rule for this line
        println!(\"attempt\");
        tx.write(0, 1)
    });
}
";
    let report = lint_src("crates/demo/src/wrong.rs", src.to_string());
    // The violation survives AND the mismatched allow is flagged unused.
    assert_eq!(
        findings(&report),
        vec![("unused-suppression", 4), ("atomic-side-effect", 5),]
    );
}

#[test]
fn suppression_on_a_different_line_does_not_leak() {
    let src = "\
use rococo_stm::atomically;
fn f(tm: &Tm) {
    // rococo-lint: allow(atomic-side-effect) -- covers only line 4
    atomically(tm, 0, |tx| {
        println!(\"attempt\");
        tx.write(0, 1)
    });
}
";
    let report = lint_src("crates/demo/src/leak.rs", src.to_string());
    // The allow lands on the `atomically(` line, which has no
    // diagnostic; the println! on line 5 is untouched.
    assert_eq!(
        findings(&report),
        vec![("unused-suppression", 3), ("atomic-side-effect", 5),]
    );
}
