//! Figure 11 — amortised per-transaction validation overhead.
//!
//! Instruments the commit-time validation phase of TinySTM (the CPU walks
//! every entry of the read set) and of ROCoCoTM (round trip to the
//! simulated FPGA), per STAMP application. ROCoCoTM's overhead is reported
//! in *model time* (what the 200 MHz pipeline + CCI link would cost — the
//! quantity comparable to the paper). Its wall time is not: with more
//! threads than CPUs it measures how the posting thread is preempted, not
//! validation. TinySTM's column is still wall time, sampled (one
//! validation in 61), and moves from run to run.
//!
//! Reproduction targets: ROCoCoTM's model-time overhead stays below one
//! microsecond everywhere and is insensitive to read-set size, while
//! TinySTM's grows with the read set — most visibly on labyrinth.

use rococo_bench::{banner, Table};
use rococo_stamp::apps::AppId;
use rococo_stamp::harness::{run, Preset, SystemKind};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let preset = if quick { Preset::Tiny } else { Preset::Small };
    let threads = if quick { 4 } else { 8 };

    banner("Figure 11: per-transaction validation overhead (microseconds)");
    println!("threads = {threads}; ROCoCoTM model time charges the 200 MHz pipeline + CCI link");
    println!();

    let apps = [
        AppId::Genome,
        AppId::Intruder,
        AppId::KmeansHigh,
        AppId::Labyrinth,
        AppId::Ssca2,
        AppId::VacationHigh,
        AppId::Yada,
    ];
    let mut table = Table::new(["app", "TinySTM us (wall)", "ROCoCoTM us (model)"]);
    for app in apps {
        let tiny = run(app, SystemKind::TinyStm, threads, preset);
        let roc = run(app, SystemKind::Rococo, threads, preset);
        assert!(tiny.validated && roc.validated, "{} failed", app.name());
        table.row([
            app.name().to_string(),
            format!("{:.3}", tiny.stats.mean_validation_us()),
            format!("{:.3}", roc.stats.mean_validation_model_us()),
        ]);
    }
    table.print();
    println!();
    println!(
        "paper reference: ROCoCoTM stays below 1 us for all applications; \
         TinySTM's overhead scales with read-set size (labyrinth worst)."
    );
}
