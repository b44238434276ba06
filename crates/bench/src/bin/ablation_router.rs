//! Ablation — which of the hybrid router's mechanisms move its speedup.
//!
//! The paper's case against TSX (section 6.3, footnote 10) rests on
//! capacity aborts, and `rococo_sched::HybridTm` routes around them: it
//! sends each attempt to the HTM fast path or the ROCoCoTM slow path by
//! the router's policy. No live workload makes the HTM emulation
//! overflow, so the router is judged here, on the two STAMP apps whose
//! paper-sized transactions overflow TSX (labyrinth and vacation-low), on
//! the virtual-time simulator: `SimSystem::Hybrid` routes with the live
//! `rococo_sched::Router` and runs the static TSX and ROCoCoTM attempt
//! code behind a model of the mode gate. The table prints the three
//! static systems, the hybrid, and the hybrid without each of its
//! mechanisms; a mechanism earns its place if switching it off moves
//! the hybrid's speedup by at least 2 % at some thread count of either
//! app. STAMP tags no transaction class, so every transaction is class
//! 0. Each recorded transaction is priced by its app's row of the
//! committed calibration table, as in Figure 10, so two runs print the
//! same table.
//!
//! Usage: ablation_router [--quick]

use rococo_bench::{banner, pct, seq_cost, Table};
use rococo_sim::{simulate, CostModel, Mechanism, SimSystem, Workload};
use rococo_stamp::apps::AppId;
use rococo_stamp::harness::{record_workload, Preset};

const APPS: [AppId; 2] = [AppId::Labyrinth, AppId::VacationLow];
const THREADS: [usize; 3] = [1, 14, 28];
const MECHANISMS: [(Mechanism, &str); 2] = [
    (Mechanism::Admission, "admission"),
    (Mechanism::Migration, "migration"),
];

/// One app's table: a row per system at `THREADS` workers; each
/// ablated row also gives its largest change against the hybrid.
fn table(app: AppId, preset: Preset) -> Table {
    let w = Workload::from_records(record_workload(app, preset), seq_cost(app, preset));
    let seq_ns = w.sequential_ns();
    let cost = CostModel::default();
    let mut table = Table::new(["system", "1", "14", "28", "max change", "sw routes"]);
    let speedups = |run: &dyn Fn(usize) -> rococo_sim::SimOutcome| {
        THREADS.map(|threads| {
            let o = run(threads);
            assert_eq!(o.commits as usize, w.len(), "lost transactions");
            (
                o.speedup_vs(seq_ns),
                o.routes_sw,
                o.routes_sw + o.routes_htm,
            )
        })
    };
    let cells = |name: String, s: [(f64, u64, u64); 3], change: String, sw: String| {
        [name]
            .into_iter()
            .chain(s.iter().map(|(x, _, _)| format!("{x:.3}x")))
            .chain([change, sw])
            .collect::<Vec<_>>()
    };
    for sys in [SimSystem::TinyStm, SimSystem::Tsx, SimSystem::Rococo] {
        let s = speedups(&|t| simulate(&w, sys, t, &cost));
        table.row(cells(sys.name().into(), s, "-".into(), "-".into()));
    }
    let sw_share = |s: &[(f64, u64, u64); 3]| {
        let (sw, all) = s.iter().fold((0, 0), |(a, b), x| (a + x.1, b + x.2));
        pct(sw as f64 / all.max(1) as f64)
    };
    let base = speedups(&|t| simulate(&w, SimSystem::Hybrid(None), t, &cost));
    table.row(cells("Hybrid".into(), base, "-".into(), sw_share(&base)));
    for (m, name) in MECHANISMS {
        let s = speedups(&|t| simulate(&w, SimSystem::Hybrid(Some(m)), t, &cost));
        let change = s
            .iter()
            .zip(&base)
            .map(|(x, b)| x.0 / b.0 - 1.0)
            .fold(0.0f64, |m, d| if d.abs() > m.abs() { d } else { m });
        table.row(cells(
            format!("without {name}"),
            s,
            format!("{:+.2}%", change * 100.0),
            sw_share(&s),
        ));
    }
    table
}

fn main() {
    let mut preset = Preset::Paper;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => preset = Preset::Tiny,
            other => panic!("unknown argument '{other}'"),
        }
    }

    banner("Ablation: the hybrid router's mechanisms (speedup at 1 / 14 / 28 threads)");
    let inputs = if preset == Preset::Paper {
        "paper-sized"
    } else {
        "tiny"
    };
    println!(
        "virtual-time simulation, {inputs} inputs; every transaction is class 0 \
         (STAMP tags none)"
    );
    for app in APPS {
        println!();
        println!("--- {} ---", app.name());
        table(app, preset).print();
    }
    println!();
    println!(
        "max change: the largest relative change of the speedup against the \
         Hybrid row over the three thread counts; sw routes: the share of \
         attempts the router admitted to the software path."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tiny_table_is_a_pure_function_of_the_recording() {
        for app in APPS {
            assert_eq!(table(app, Preset::Tiny), table(app, Preset::Tiny));
        }
    }
}
