//! Figure 11 — amortised per-transaction validation overhead.
//!
//! The recording Figure 10 replays, priced by the cost table it replays
//! with: each STAMP application is recorded once on one thread
//! (`record_workload`), and every committed update transaction of a
//! parallel phase is charged two validation costs from
//! `CostModel::default()`:
//!
//! * TinySTM — the commit-time walk of the read set,
//!   `tiny_commit_per_read_ns` per read, as the simulator charges it inside
//!   every TinySTM commit;
//! * ROCoCoTM — the round trip to the FPGA, `timing.latency_ns(reads +
//!   writes)`: the 200 MHz pipeline plus the CCI link, as `RococoTm`
//!   charges it per verdict.
//!
//! No thread runs and no clock is read, so two runs print the same table.
//!
//! Reproduction targets: ROCoCoTM's overhead stays below one microsecond
//! and is insensitive to read-set size, while TinySTM's grows with the
//! read set — most visibly on labyrinth.
//!
//! Usage: fig11 [--quick]

use rococo_bench::{banner, Table};
use rococo_sim::CostModel;
use rococo_stamp::apps::AppId;
use rococo_stamp::harness::{record_workload, Preset};

const APPS: [AppId; 7] = [
    AppId::Genome,
    AppId::Intruder,
    AppId::KmeansHigh,
    AppId::Labyrinth,
    AppId::Ssca2,
    AppId::VacationHigh,
    AppId::Yada,
];

/// One application's row: the mean footprint of its committed update
/// transactions and the mean validation cost of each system, in µs.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    app: AppId,
    updates: usize,
    reads: f64,
    writes: f64,
    tiny_us: f64,
    rococo_us: f64,
}

fn row(app: AppId, preset: Preset, cost: &CostModel) -> Row {
    let records = record_workload(app, preset);
    let updates: Vec<_> = records
        .iter()
        .filter(|r| r.epoch % 2 == 1 && !r.is_read_only())
        .collect();
    let n = updates.len().max(1) as f64;
    let mean = |charge: &dyn Fn(usize, usize) -> f64| {
        updates
            .iter()
            .map(|r| charge(r.reads.len(), r.writes.len()))
            .sum::<f64>()
            / n
    };
    Row {
        app,
        updates: updates.len(),
        reads: mean(&|r, _| r as f64),
        writes: mean(&|_, w| w as f64),
        tiny_us: mean(&|r, _| r as f64 * cost.tiny_commit_per_read_ns) / 1e3,
        rococo_us: mean(&|r, w| cost.timing.latency_ns(r + w)) / 1e3,
    }
}

fn table(preset: Preset) -> Vec<Row> {
    let cost = CostModel::default();
    APPS.iter().map(|&app| row(app, preset, &cost)).collect()
}

fn main() {
    let mut preset = Preset::Small;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => preset = Preset::Tiny,
            other => panic!("unknown argument '{other}'"),
        }
    }

    banner("Figure 11: per-transaction validation overhead (microseconds)");
    println!(
        "recorded committed update transactions of the parallel phases, priced by the \
         simulator's cost table (TinySTM: read-set walk; ROCoCoTM: 200 MHz pipeline + CCI link)"
    );
    println!();

    let mut out = Table::new([
        "app",
        "update txns",
        "mean reads",
        "mean writes",
        "TinySTM us",
        "ROCoCoTM us",
    ]);
    for r in table(preset) {
        out.row([
            r.app.name().to_string(),
            r.updates.to_string(),
            format!("{:.1}", r.reads),
            format!("{:.1}", r.writes),
            format!("{:.3}", r.tiny_us),
            format!("{:.3}", r.rococo_us),
        ]);
    }
    out.print();
    println!();
    println!(
        "paper reference: ROCoCoTM stays below 1 us for all applications; \
         TinySTM's overhead scales with read-set size (labyrinth worst)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tiny_table_is_a_pure_function_of_the_recording() {
        let rows = table(Preset::Tiny);
        assert_eq!(rows, table(Preset::Tiny));

        // TinySTM's paper shape: its column orders the apps like their mean
        // read sets, and labyrinth's is the largest.
        let mut by_reads = rows.clone();
        by_reads.sort_by(|a, b| a.reads.total_cmp(&b.reads));
        let mut by_tiny = rows.clone();
        by_tiny.sort_by(|a, b| a.tiny_us.total_cmp(&b.tiny_us));
        assert_eq!(by_reads, by_tiny);
        assert_eq!(by_tiny.last().map(|r| r.app), Some(AppId::Labyrinth));

        let pinned = |app: AppId| {
            let r = rows.iter().find(|r| r.app == app).expect("app in table");
            (
                r.updates,
                format!("{:.3}", r.tiny_us),
                format!("{:.3}", r.rococo_us),
            )
        };
        assert_eq!(pinned(AppId::Genome), (699, "0.036".into(), "0.640".into()));
        assert_eq!(
            pinned(AppId::Labyrinth),
            (25, "0.639".into(), "0.717".into())
        );
    }
}
