//! Integration: recorded STAMP workloads drive the virtual-time simulator
//! coherently.

use proptest::prelude::*;
use rococo::sim::{simulate, CostModel, SimSystem, Workload};
use rococo::stamp::apps::AppId;
use rococo::stamp::harness::{record_workload, Preset};
use rococo::stm::TxnRecord;

#[test]
fn recorded_stamp_workloads_simulate_completely() {
    for app in [AppId::Ssca2, AppId::KmeansHigh, AppId::Genome] {
        let (records, _wall) = record_workload(app, Preset::Tiny);
        let w = Workload::from_records(records);
        assert!(!w.is_empty(), "{}: nothing recorded", app.name());
        for sys in [SimSystem::TinyStm, SimSystem::Tsx, SimSystem::Rococo] {
            for threads in [1usize, 4, 14, 28] {
                let o = simulate(&w, sys, threads, &CostModel::default());
                assert_eq!(
                    o.commits as usize,
                    w.len(),
                    "{} on {:?} x{threads}: transactions lost",
                    app.name(),
                    sys
                );
                assert!(o.makespan_ns > 0.0);
            }
        }
    }
}

#[test]
fn one_thread_never_aborts() {
    let (records, _) = record_workload(AppId::Ssca2, Preset::Tiny);
    let w = Workload::from_records(records);
    for sys in [SimSystem::TinyStm, SimSystem::Tsx, SimSystem::Rococo] {
        let o = simulate(&w, sys, 1, &CostModel::default());
        assert_eq!(o.total_aborts(), 0, "{sys:?}: solo run cannot conflict");
    }
}

#[test]
fn rococo_one_thread_penalty_matches_paper_direction() {
    // Section 6.3: with one thread TinySTM outperforms ROCoCoTM (the
    // out-of-core validation latency dominates), by roughly 1.32x.
    let (records, _) = record_workload(AppId::Ssca2, Preset::Tiny);
    let w = Workload::from_records(records);
    let cost = CostModel::default();
    let tiny = simulate(&w, SimSystem::TinyStm, 1, &cost).makespan_ns;
    let roc = simulate(&w, SimSystem::Rococo, 1, &cost).makespan_ns;
    assert!(
        roc > tiny,
        "1-thread ROCoCoTM must be slower than TinySTM (validation latency)"
    );
}

/// FNV-1a over each committed footprint's read list, write list and
/// epoch, lengths included so a moved address cannot alias. `exec_ns` is
/// wall time and stays out.
fn footprint_digest(records: &[TxnRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.reads.len() as u64);
        r.reads.iter().for_each(|&a| eat(a));
        eat(r.writes.len() as u64);
        r.writes.iter().for_each(|&a| eat(a));
        eat(r.epoch);
    }
    h
}

/// Every STAMP app at `Preset::Tiny` records the footprints pinned here,
/// which were taken from the footprint-only recorder that the per-attempt
/// recorder replaced. Each app records the same footprints run after run,
/// so all nine are pinned.
#[test]
fn recorded_footprints_match_the_pinned_digests() {
    const PINNED: [(AppId, u64); 9] = [
        (AppId::Genome, 0x7ba8_f9dc_6332_3339),
        (AppId::Intruder, 0xfcf6_3f90_4f28_35a2),
        (AppId::KmeansHigh, 0x656e_59f6_470c_5b25),
        (AppId::KmeansLow, 0xca80_3e12_49be_38a5),
        (AppId::Labyrinth, 0x46e1_ac02_591a_0b84),
        (AppId::Ssca2, 0xc352_b486_f889_89c4),
        (AppId::VacationHigh, 0x57c2_fcb8_a740_0467),
        (AppId::VacationLow, 0x6192_5081_672a_7baf),
        (AppId::Yada, 0xf6c7_4611_118f_a667),
    ];
    for (app, pinned) in PINNED {
        let first = footprint_digest(&record_workload(app, Preset::Tiny).0);
        let second = footprint_digest(&record_workload(app, Preset::Tiny).0);
        assert_eq!(first, second, "{}: two recordings differ", app.name());
        assert_eq!(
            first,
            pinned,
            "{}: footprints differ from the pinned recording",
            app.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random synthetic workloads: nothing is lost or duplicated, and
    /// makespan never beats the critical path.
    #[test]
    fn simulation_conservation(
        n in 1usize..120,
        span in 1u64..64,
        threads in 1usize..32,
        exec in 100.0f64..5000.0,
    ) {
        let w: Workload = (0..n as u64)
            .map(|i| TxnRecord {
                reads: vec![i % span],
                writes: vec![(i + 1) % span],
                exec_ns: exec,
                epoch: 1,
            })
            .collect();
        for sys in [SimSystem::TinyStm, SimSystem::Tsx, SimSystem::Rococo] {
            let o = simulate(&w, sys, threads, &CostModel::default());
            prop_assert_eq!(o.commits as usize, n);
            // No run can finish faster than one transaction's execution.
            prop_assert!(o.makespan_ns >= exec);
        }
    }
}
