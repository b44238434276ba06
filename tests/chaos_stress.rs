//! Tier-1 chaos harness runs: pinned seeds, every backend, bounded
//! runtime. The full matrices live behind `chaos --pinned` and
//! `chaos --extended` (in `ci.sh --full`); this file keeps a small
//! always-on slice in `cargo test` so a commit-path regression cannot
//! land without tripping the serializability oracle.

use rococo_chaos::{run_chaos, BackendKind, ChaosParams, FaultPreset};

fn base() -> ChaosParams {
    ChaosParams {
        threads: 4,
        ops_per_thread: 150,
        accounts: 12,
        queue_len: 8,
        window: 8,
        update_spin: 512,
        irrevocable_after: 8,
        ..ChaosParams::default()
    }
}

fn assert_clean(params: ChaosParams) {
    let report = run_chaos(&params);
    assert!(
        report.ok(),
        "chaos violations for {:?} seed {}:\n{}\n{:#?}",
        params.backend,
        params.seed,
        report.summary(),
        report.violations,
    );
    assert!(report.commits > 0, "workload made no progress");
}

#[test]
fn rococo_serializable_under_timing_faults() {
    for seed in [1, 7] {
        assert_clean(ChaosParams {
            seed,
            backend: BackendKind::Rococo,
            faults: FaultPreset::Timing,
            ..base()
        });
    }
}

#[test]
fn rococo_serializable_with_tight_commit_queue() {
    // The hostile geometry for the drain_temp_set window: the smallest
    // ring the config accepts, long scans likely to lag a full lap.
    assert_clean(ChaosParams {
        seed: 42,
        backend: BackendKind::Rococo,
        faults: FaultPreset::Timing,
        queue_len: 4,
        window: 4,
        update_spin: 128,
        irrevocable_after: 4,
        ..base()
    });
}

#[test]
fn rococo_survives_aggressive_fault_preset() {
    // Spurious verdicts and stalls may cost throughput but must never
    // cost serializability.
    assert_clean(ChaosParams {
        seed: 3,
        backend: BackendKind::Rococo,
        faults: FaultPreset::Aggressive,
        ..base()
    });
}

#[test]
fn reference_backends_stay_serializable() {
    for backend in [
        BackendKind::Tiny,
        BackendKind::Htm,
        BackendKind::Lock,
        BackendKind::Seq,
    ] {
        assert_clean(ChaosParams {
            seed: 1,
            backend,
            faults: FaultPreset::None,
            ..base()
        });
    }
}
