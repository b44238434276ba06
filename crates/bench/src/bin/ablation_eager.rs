//! Ablation — where ROCoCoTM aborts die: CPU fast path vs FPGA.
//!
//! Section 6.3: "most aborts of ROCoCoTM fail fast on CPU, without going
//! through the validation process on FPGA", and read-only transactions
//! "commit directly on CPU-side". This ablation quantifies both effects
//! per STAMP application on the virtual-time simulator, which models read
//! times explicitly: the CPU path triggers only when a conflicting commit
//! lands mid-transaction, which takes true concurrency.

use rococo_bench::{banner, pct, Table};
use rococo_sim::{simulate, CostModel, SimSystem, Workload};
use rococo_stamp::apps::AppId;
use rococo_stamp::harness::{record_workload, Preset};
use rococo_stm::AbortKind;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let preset = if quick { Preset::Tiny } else { Preset::Small };
    let threads = 14;

    banner("Ablation: CPU fast-abort path and read-only fast commits (ROCoCoTM)");
    println!("virtual-time simulation, {threads} workers");
    println!();

    let mut table = Table::new([
        "app",
        "aborts",
        "CPU-side",
        "FPGA-side",
        "commits",
        "read-only (no FPGA)",
    ]);
    for app in AppId::ALL {
        let (records, _) = record_workload(app, preset);
        let w = Workload::from_records(records);
        let o = simulate(&w, SimSystem::Rococo, threads, &CostModel::default());
        let aborts = o.total_aborts();
        let cpu = o.aborts.get(&AbortKind::Conflict).copied().unwrap_or(0);
        let fpga = o.aborts.get(&AbortKind::FpgaCycle).copied().unwrap_or(0)
            + o.aborts.get(&AbortKind::FpgaWindow).copied().unwrap_or(0);
        table.row([
            app.name().to_string(),
            aborts.to_string(),
            if aborts > 0 {
                pct(cpu as f64 / aborts as f64)
            } else {
                "-".into()
            },
            if aborts > 0 {
                pct(fpga as f64 / aborts as f64)
            } else {
                "-".into()
            },
            o.commits.to_string(),
            pct(w.read_only_fraction()),
        ]);
    }
    table.print();
    println!();
    println!(
        "expected shape: the CPU-side share dominates wherever contention is \
         high (aborting before paying the out-of-core hop), and genome-like \
         workloads commit large read-only fractions without any FPGA traffic."
    );
}
