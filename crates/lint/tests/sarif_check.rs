//! SARIF and JSON emitter checks: the SARIF log
//! for a pinned fixture must match the golden file byte-for-byte
//! (regenerate with `LINT_BLESS=1 cargo test -p rococo-lint --test
//! sarif_check`), and both emitters must round-trip through the
//! in-tree JSON parser from `rococo-telemetry` — the linter's escaping
//! rules are hand-rolled and deserve a real decoder on the other end.

use rococo_lint::{lint_sources, LintReport, SourceFile};
use rococo_telemetry::json::Json;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn pr8_report() -> LintReport {
    lint_sources(vec![SourceFile {
        path: "crates/demo/src/pr8.rs".to_string(),
        src: fixture("pr8_regression.rs"),
        is_crate_root: false,
    }])
}

/// Zeroes the wall-clock fields so the golden is byte-stable.
fn depico(mut r: LintReport) -> LintReport {
    r.parse_micros = 0;
    r.summary_micros = 0;
    for s in &mut r.rule_stats {
        s.micros = 0;
    }
    r
}

#[test]
fn sarif_matches_the_golden_log() {
    let sarif = depico(pr8_report()).to_sarif();
    let golden_path = format!(
        "{}/tests/fixtures/golden_sarif.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("LINT_BLESS").as_deref() == Ok("1") {
        std::fs::write(&golden_path, &sarif).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {golden_path}: {e} (bless with LINT_BLESS=1)"));
    assert_eq!(sarif, golden, "SARIF drifted from the golden log");
}

#[test]
fn sarif_schema_shape_holds() {
    let sarif = pr8_report().to_sarif();
    let doc = Json::parse(&sarif).expect("SARIF must be valid JSON");
    assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
    assert!(doc
        .get("$schema")
        .and_then(Json::as_str)
        .is_some_and(|s| s.contains("sarif-2.1.0")));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert_eq!(runs.len(), 1);
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(
        driver.get("name").and_then(Json::as_str),
        Some("rococo-lint")
    );
    let rules = driver.get("rules").and_then(Json::as_arr).expect("rules");
    let rule_ids: Vec<&str> = rules
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    for id in rococo_lint::rule_ids() {
        assert!(rule_ids.contains(&id), "rule `{id}` missing from SARIF");
    }
    let results = runs[0]
        .get("results")
        .and_then(Json::as_arr)
        .expect("results");
    assert_eq!(results.len(), 1, "pr8 fixture has exactly one finding");
    let res = &results[0];
    assert_eq!(
        res.get("ruleId").and_then(Json::as_str),
        Some("guard-across-wait")
    );
    assert_eq!(res.get("level").and_then(Json::as_str), Some("error"));
    // ruleIndex must point back into the rules array.
    let idx = res.get("ruleIndex").and_then(Json::as_f64).unwrap() as usize;
    assert_eq!(
        rules[idx].get("id").and_then(Json::as_str),
        Some("guard-across-wait")
    );
    let loc = res.get("locations").and_then(Json::as_arr).unwrap()[0]
        .get("physicalLocation")
        .expect("physicalLocation");
    assert_eq!(
        loc.get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(Json::as_str),
        Some("crates/demo/src/pr8.rs")
    );
    assert_eq!(
        loc.get("region")
            .and_then(|r| r.get("startLine"))
            .and_then(Json::as_f64),
        Some(31.0)
    );
}

#[test]
fn json_report_round_trips_through_the_telemetry_parser() {
    let report = pr8_report();
    let doc = Json::parse(&report.to_json()).expect("report JSON must parse");
    assert_eq!(doc.get("tool").and_then(Json::as_str), Some("rococo-lint"));
    assert_eq!(
        doc.get("fn_summaries").and_then(Json::as_f64),
        Some(report.fn_summaries as f64)
    );
    assert_eq!(
        doc.get("call_edges").and_then(Json::as_f64),
        Some(report.call_edges as f64)
    );
    let diags = doc
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("diagnostics");
    assert_eq!(diags.len(), report.diagnostics.len());
    // The message survives escaping intact — it carries backticks and
    // parentheses, and the walker can emit quotes in `what` strings.
    assert_eq!(
        diags[0].get("message").and_then(Json::as_str),
        Some(report.diagnostics[0].message.as_str())
    );
}

#[test]
fn escaped_writer_agrees_with_the_telemetry_escaper() {
    // Both sides of the shared writer (`jsonw`) against the
    // independent telemetry implementation, over the nasty cases.
    for s in [
        "plain",
        "quote \" backslash \\",
        "newline\ntab\tcr\r",
        "control \u{1} \u{1f} high \u{7f}",
        "`validate` (§4) — non-ascii",
    ] {
        let json = format!("{{\"k\":{}}}", {
            let mut out = String::new();
            rococo_lint::jsonw::push_json_str(&mut out, s);
            out
        });
        let doc = Json::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert_eq!(doc.get("k").and_then(Json::as_str), Some(s), "{json}");
    }
}
