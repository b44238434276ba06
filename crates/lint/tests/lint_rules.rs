//! Per-rule fixture tests: each rule family has a fixture that fails
//! and a fixture that passes, with golden line numbers.

use rococo_lint::{lint_sources, LintReport, SourceFile};

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
            ("atomic-side-effect", 35), // next_rand in RetryPolicy::execute
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
// Interprocedural rules (guard-across-wait, lock-order-cycle,
// pending-commit-leak) and their PR-8 / PR-7 regression fixtures.
// ---------------------------------------------------------------- //

#[test]
fn guard_across_wait_flags_every_hold_shape() {
    let report = lint_one("guard_across_wait_bad.rs", "crates/demo/src/gw.rs", false);
    assert_eq!(
        findings(&report),
        vec![
            ("guard-across-wait", 15), // state mutex across recv
            ("guard-across-wait", 23), // commit-gate read across sleep
            ("guard-across-wait", 30), // local mutex across park
        ],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn guard_across_wait_justified_holds_lint_clean() {
    let report = lint_one(
        "guard_across_wait_allowed.rs",
        "crates/demo/src/gw.rs",
        false,
    );
    assert_eq!(findings(&report), vec![], "{:?}", report.diagnostics);
    // Both suppressions must be consumed, not dead.
    assert_eq!(report.suppressions_used, 2);
}

#[test]
fn lock_order_cycle_flags_back_edges_and_reentry() {
    let report = lint_one("lock_order_cycle_bad.rs", "crates/demo/src/lo.rs", false);
    assert_eq!(
        findings(&report),
        vec![
            ("lock-order-cycle", 17), // commit-gate -> mode-gate
            ("lock-order-cycle", 25), // commit-gate -> state-mutex
            ("lock-order-cycle", 33), // state-mutex re-entry (equal rank)
        ],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn lock_order_cycle_justified_back_edge_lints_clean() {
    let report = lint_one(
        "lock_order_cycle_allowed.rs",
        "crates/demo/src/lo.rs",
        false,
    );
    assert_eq!(findings(&report), vec![], "{:?}", report.diagnostics);
    assert_eq!(report.suppressions_used, 1);
}

#[test]
fn pending_commit_leak_flags_park_scope_end_and_tainted_match() {
    let report = lint_one("pending_commit_leak_bad.rs", "crates/demo/src/pc.rs", false);
    assert_eq!(
        findings(&report),
        vec![
            ("pending-commit-leak", 13), // parks in recv with pending live
            ("pending-commit-leak", 19), // scope ends unresolved
            ("pending-commit-leak", 29), // tainted match arm parks
        ],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn pending_commit_leak_justified_hold_lints_clean() {
    let report = lint_one(
        "pending_commit_leak_allowed.rs",
        "crates/demo/src/pc.rs",
        false,
    );
    assert_eq!(findings(&report), vec![], "{:?}", report.diagnostics);
    assert_eq!(report.suppressions_used, 1);
}

#[test]
fn pr8_guard_across_turn_wait_regression_fires_interprocedurally() {
    // The blocking fact (turn-wait yield loop) sits one call away from
    // the guard acquisition: only the call-graph propagation sees it.
    let report = lint_one("pr8_regression.rs", "crates/demo/src/pr8.rs", false);
    assert_eq!(
        findings(&report),
        vec![("guard-across-wait", 31)],
        "{:?}",
        report.diagnostics
    );
    let msg = &report.diagnostics[0].message;
    assert!(msg.contains("state-mutex"), "{msg}");
    assert!(msg.contains("await_commit_turn"), "{msg}");
}

#[test]
fn pr7_worker_drain_invariant_regression_fires() {
    let report = lint_one("pr7_regression.rs", "crates/demo/src/pr7.rs", false);
    assert_eq!(
        findings(&report),
        vec![("pending-commit-leak", 23)],
        "{:?}",
        report.diagnostics
    );
    assert!(report.diagnostics[0].message.contains("PR-7"));
}
