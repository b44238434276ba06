//! Figure 10 — STAMP speedups and abort rates for TinySTM / TSX / ROCoCoTM.
//!
//! For every STAMP application (bayes excluded, as in the paper) and every
//! thread count in {1, 4, 8, 14, 28}, evaluates the three TM systems and
//! prints the speedup relative to the sequential baseline plus the abort
//! rate; for ROCoCoTM the FPGA-attributed abort rate (the paper's dotted
//! series) is printed separately.
//!
//! Each application's committed transactions are recorded from a real
//! single-threaded run, priced from their access counts by the app's row
//! of the committed calibration table (`rococo_bench::seq_cost`), then
//! replayed on a virtual-time multicore simulator (`rococo-sim`)
//! modelling the paper's 14-core/28-thread Haswell — the build host has
//! two vCPUs, so wall-clock multi-thread speedups are unmeasurable. Abort
//! decisions in the simulator come from the same CC implementations as
//! the live runtimes (including the real ROCoCo validation engine).
//! Figure 11 prices the same recording. No clock is read, so two runs
//! print the same figure.
//!
//! Reproduction targets (shape): the TSX emulation is competitive at low
//! thread counts but its abort rate avalanches as threads grow; ROCoCoTM
//! pays a 1-thread penalty against TinySTM (out-of-core validation
//! latency) and overtakes it at high thread counts, most clearly on the
//! transaction-friendly workloads (labyrinth, yada); ssca2's tiny
//! transactions are the adverse case for out-of-core validation; most
//! ROCoCoTM aborts fail fast on the CPU so the FPGA-side rate stays low.
//!
//! Usage: fig10 [--app NAME] [--threads a,b,c] [--preset small|paper]
//!              [--quick]

use rococo_bench::{banner, geomean, pct, seq_cost, Table};
use rococo_sim::{simulate, CostModel, SimSystem, Workload};
use rococo_stamp::apps::AppId;
use rococo_stamp::harness::{record_workload, Preset};

/// The paper's thread counts, and the default series.
const THREADS: [usize; 5] = [1, 4, 8, 14, 28];

struct Args {
    apps: Vec<AppId>,
    threads: Vec<usize>,
    preset: Preset,
}

fn parse_args() -> Args {
    let mut args = Args {
        apps: AppId::ALL.to_vec(),
        threads: THREADS.to_vec(),
        preset: Preset::Small,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--app" => {
                i += 1;
                args.apps = vec![argv[i].parse().expect("unknown app name")];
            }
            "--threads" => {
                i += 1;
                args.threads = argv[i]
                    .split(',')
                    .map(|s| s.parse().expect("bad thread count"))
                    .collect();
            }
            "--preset" => {
                i += 1;
                args.preset = match argv[i].as_str() {
                    "small" => Preset::Small,
                    "paper" => Preset::Paper,
                    other => panic!("unknown preset '{other}' (--quick runs the tiny inputs)"),
                };
            }
            "--quick" => {
                args.preset = Preset::Tiny;
            }
            other => panic!("unknown argument '{other}'"),
        }
        i += 1;
    }
    args
}

const SYSTEMS: [SimSystem; 3] = [SimSystem::TinyStm, SimSystem::Tsx, SimSystem::Rococo];

/// One application's workload line and series table, and its speedups
/// in `SYSTEMS` × `threads` order.
fn sim_app(app: AppId, preset: Preset, threads: &[usize]) -> (String, Table, Vec<f64>) {
    let workload = Workload::from_records(record_workload(app, preset), seq_cost(app, preset));
    let seq_ns = workload.sequential_ns();
    let (mr, mw) = workload.mean_footprint();
    let summary = format!(
        "workload: {} txns in {} phases; mean footprint {:.1}r/{:.1}w; {:.0}% read-only; sequential {:.2} ms",
        workload.len(),
        workload.phases.len(),
        mr,
        mw,
        workload.read_only_fraction() * 100.0,
        seq_ns / 1e6,
    );

    let cost = CostModel::default();
    let mut table = Table::new(["system", "threads", "speedup", "abort", "fpga-abort"]);
    let mut speedups = Vec::new();
    for sys in SYSTEMS {
        for &threads in threads {
            let o = simulate(&workload, sys, threads, &cost);
            assert_eq!(
                o.commits as usize,
                workload.len(),
                "{} lost transactions",
                sys.name()
            );
            let speedup = o.speedup_vs(seq_ns);
            speedups.push(speedup);
            table.row([
                sys.name().to_string(),
                threads.to_string(),
                format!("{speedup:.2}x"),
                pct(o.abort_rate()),
                if sys == SimSystem::Rococo {
                    pct(o.fpga_abort_rate())
                } else {
                    "-".into()
                },
            ]);
        }
    }
    (summary, table, speedups)
}

fn main() {
    let args = parse_args();
    banner("Figure 10: STAMP speedup and abort rate vs thread count");
    println!(
        "mode: virtual-time simulation of a 14-core / 28-thread machine \
         (recorded single-threaded footprints priced by the calibration table; \
         real CC algorithms decide aborts)"
    );

    // speedups[system][thread index] across apps, for the geomean block.
    let n = args.threads.len();
    let mut speedups: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); n]; SYSTEMS.len()];

    for &app in &args.apps {
        let (summary, table, app_speedups) = sim_app(app, args.preset, &args.threads);
        println!();
        println!("--- {} ---", app.name());
        println!("{summary}");
        table.print();
        for (i, s) in app_speedups.into_iter().enumerate() {
            speedups[i / n][i % n].push(s);
        }
    }

    banner("Geomean speedups across applications");
    let mut table = Table::new([
        "threads",
        "TinySTM",
        "TSX-HTM",
        "ROCoCoTM",
        "RoCo/Tiny",
        "RoCo/TSX",
    ]);
    for (ti, &threads) in args.threads.iter().enumerate() {
        let g: Vec<f64> = (0..SYSTEMS.len())
            .map(|si| geomean(&speedups[si][ti]))
            .collect();
        table.row([
            threads.to_string(),
            format!("{:.2}x", g[0]),
            format!("{:.2}x", g[1]),
            format!("{:.2}x", g[2]),
            format!("{:.2}x", g[2] / g[0]),
            format!("{:.2}x", g[2] / g[1]),
        ]);
    }
    table.print();
    println!();
    println!(
        "paper reference: ROCoCoTM geomean 1.41x / 4.04x over TinySTM / TSX at 14 \
         threads and 1.55x / 8.05x at 28 threads; TinySTM 1.32x faster at 1 thread."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tiny_figure_is_a_pure_function_of_the_recording() {
        let figure = || -> Vec<_> {
            AppId::ALL
                .iter()
                .map(|&app| sim_app(app, Preset::Tiny, &THREADS))
                .collect()
        };
        assert_eq!(figure(), figure());
    }
}
