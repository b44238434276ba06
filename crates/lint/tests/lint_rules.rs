//! Per-rule fixture tests: each rule family has a fixture that fails
//! and a fixture that passes, with golden line numbers.

use rococo_lint::{lint_sources, LintReport, SourceFile};
use rococo_telemetry::json::Json;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn lint_one(name: &str, pretend_path: &str, is_crate_root: bool) -> LintReport {
    lint_sources(vec![SourceFile {
        path: pretend_path.to_string(),
        src: fixture(name),
        is_crate_root,
    }])
}

/// (rule, line) pairs of the surviving diagnostics, in file order.
fn findings(report: &LintReport) -> Vec<(&str, u32)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn atomic_side_effect_flags_every_effect_kind() {
    let report = lint_one("atomic_side_effect_bad.rs", "crates/demo/src/bad.rs", false);
    assert_eq!(
        findings(&report),
        vec![
            ("atomic-side-effect", 9),  // println! in atomically
            ("atomic-side-effect", 16), // Instant::now
            ("atomic-side-effect", 17), // thread::sleep
            ("atomic-side-effect", 24), // .lock() via the try_atomically alias
            ("atomic-side-effect", 35), // next_rand in execute_seq
            ("atomic-side-effect", 36), // channel .send
            ("atomic-side-effect", 45), // fs::
            ("atomic-side-effect", 51), // .gen_range in an expression-body closure
        ]
    );
}

#[test]
fn atomic_side_effect_allows_clean_and_surrounding_code() {
    let report = lint_one(
        "atomic_side_effect_good.rs",
        "crates/demo/src/good.rs",
        false,
    );
    assert_eq!(findings(&report), vec![], "{:?}", report.diagnostics);
}

#[test]
fn atomic_side_effect_covers_hybrid_router_entry_points() {
    // rococo-sched's run_classed/try_classed closures are re-executable
    // across backends (HTM attempt, software retry) — the side-effect
    // rule must treat them exactly like the core atomic primitives,
    // aliases included.
    let report = lint_one(
        "atomic_side_effect_hybrid.rs",
        "crates/demo/src/hybrid_user.rs",
        false,
    );
    assert_eq!(
        findings(&report),
        vec![
            ("atomic-side-effect", 13), // println! in run_classed
            ("atomic-side-effect", 20), // Instant::now via the try_classed alias
        ],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn atomic_side_effect_allowlists_telemetry_emission() {
    // tlm_event! args and rococo_telemetry::-pathed calls are exempt
    // (re-execution-safe by design); effects beside them are not.
    let report = lint_one(
        "atomic_side_effect_telemetry.rs",
        "crates/demo/src/telemetry_user.rs",
        false,
    );
    assert_eq!(
        findings(&report),
        vec![
            ("atomic-side-effect", 35), // println! next to tlm_event!
            ("atomic-side-effect", 36), // Instant::now outside macro args
        ],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn uncounted_abort_flags_direct_construction() {
    let report = lint_one(
        "uncounted_abort_bad.rs",
        "crates/stm/src/rococotm.rs",
        false,
    );
    assert_eq!(
        findings(&report),
        vec![
            ("uncounted-abort", 12), // Abort::new outside count_abort
            ("uncounted-abort", 18), // Abort { kind: .. } literal
        ]
    );
}

#[test]
fn uncounted_abort_is_scoped_to_rococotm() {
    // The same source under any other path is out of scope: other
    // backends have their own abort plumbing.
    let report = lint_one("uncounted_abort_bad.rs", "crates/stm/src/tinystm.rs", false);
    assert_eq!(findings(&report), vec![]);
}

#[test]
fn uncounted_abort_allows_count_abort_and_return_types() {
    let report = lint_one(
        "uncounted_abort_good.rs",
        "crates/stm/src/rococotm.rs",
        false,
    );
    assert_eq!(findings(&report), vec![], "{:?}", report.diagnostics);
}

#[test]
fn commit_seq_flags_mutations_outside_the_critical_section() {
    let report = lint_one("commit_seq_bad.rs", "crates/stm/src/tinystm.rs", false);
    assert_eq!(
        findings(&report),
        vec![
            ("commit-seq-outside-critical", 7),  // fetch_add in begin
            ("commit-seq-outside-critical", 16), // store in recover
            ("commit-seq-outside-critical", 21), // swap in a free function
        ]
    );
}

#[test]
fn commit_seq_allows_critical_section_loads_and_initialisers() {
    let report = lint_one("commit_seq_good.rs", "crates/stm/src/tinystm.rs", false);
    assert_eq!(findings(&report), vec![], "{:?}", report.diagnostics);
}

#[test]
fn hygiene_flags_crate_root_without_forbid() {
    let report = lint_one("hygiene_bad.rs", "crates/demo/src/lib.rs", true);
    assert_eq!(findings(&report), vec![("missing-forbid-unsafe", 1)]);
}

#[test]
fn hygiene_ignores_non_roots() {
    let report = lint_one("hygiene_bad.rs", "crates/demo/src/util.rs", false);
    assert_eq!(findings(&report), vec![]);
}

#[test]
fn hygiene_accepts_the_attribute() {
    let report = lint_one("hygiene_good.rs", "crates/demo/src/lib.rs", true);
    assert_eq!(findings(&report), vec![], "{:?}", report.diagnostics);
}

#[test]
fn diagnostics_render_rustc_style() {
    let report = lint_one("hygiene_bad.rs", "crates/demo/src/lib.rs", true);
    let line = report.diagnostics[0].render();
    assert!(
        line.starts_with("crates/demo/src/lib.rs:1:1: error[missing-forbid-unsafe]:"),
        "{line}"
    );
}

#[test]
fn json_report_is_machine_readable() {
    let report = lint_one("hygiene_bad.rs", "crates/demo/src/lib.rs", true);
    let json = report.to_json();
    assert!(json.contains("\"tool\":\"rococo-lint\""), "{json}");
    assert!(json.contains("\"clean\":false"), "{json}");
    assert!(
        json.contains("\"rule\":\"missing-forbid-unsafe\""),
        "{json}"
    );
    // Every registered rule appears in the stats block.
    for id in rococo_lint::rule_ids() {
        assert!(json.contains(&format!("\"id\":\"{id}\"")), "{json}");
    }
}

// ---------------------------------------------------------------- //
// The JSON report against an independent decoder: the linter's
// escaping is hand-rolled and deserves a real parser on the other end.
// ---------------------------------------------------------------- //

#[test]
fn json_report_round_trips_through_the_telemetry_parser() {
    let report = lint_one("atomic_side_effect_bad.rs", "crates/demo/src/bad.rs", false);
    let doc = Json::parse(&report.to_json()).expect("report JSON must parse");
    assert_eq!(doc.get("tool").and_then(Json::as_str), Some("rococo-lint"));
    assert_eq!(
        doc.get("lines").and_then(Json::as_f64),
        Some(report.lines as f64)
    );
    let diags = doc
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("diagnostics");
    assert_eq!(diags.len(), report.diagnostics.len());
    // Every message survives escaping intact — they carry backticks,
    // parentheses and quoted snippets of the offending code.
    for (got, want) in diags.iter().zip(&report.diagnostics) {
        assert_eq!(
            got.get("message").and_then(Json::as_str),
            Some(want.message.as_str())
        );
        assert_eq!(got.get("rule").and_then(Json::as_str), Some(want.rule));
    }
}

#[test]
fn escaped_writer_agrees_with_the_telemetry_escaper() {
    for s in [
        "plain",
        "quote \" backslash \\",
        "newline\ntab\tcr\r",
        "control \u{1} \u{1f} high \u{7f}",
        "`validate` (§4) — non-ascii",
    ] {
        let mut json = String::from("{\"k\":");
        rococo_lint::diag::push_json_str(&mut json, s);
        json.push('}');
        let doc = Json::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert_eq!(doc.get("k").and_then(Json::as_str), Some(s), "{json}");
    }
}
