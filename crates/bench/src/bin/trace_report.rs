//! trace_report: critical-path attribution report for a
//! `txkv_load --telemetry DIR --attribution` run.
//!
//! Usage: `trace_report <DIR> [--top N]`
//!
//! Reads the run directory's attribution rows (one per tail-sampled
//! request chain, each decomposed into the critical-path stages of
//! [`rococo_telemetry::STAGES`]) and prints a stage-attribution table:
//! for the overall latency-weighted mean and for the requests at p50,
//! p99 and p999 end-to-end latency, the share of each stage —
//! queue-wait, route, exec, validation, commit-publish, fsync, backoff,
//! repl-lag, other. The tail columns answer "what is the p999 made of?"
//! directly, instead of leaving the reader to eyeball Perfetto spans.
//!
//! `--top N` additionally lists the N slowest sampled requests with
//! their dominant stage. Report only: `run_check` validates the
//! directory.

use rococo_telemetry::quantile::rank_of;
use rococo_telemetry::rundir::{read_attribution, AttributionRow as Row};
use rococo_telemetry::STAGES;
use std::path::PathBuf;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace_report: FAIL: {msg}");
    ExitCode::FAILURE
}

/// Latency-weighted mean stage shares over `rows`.
fn weighted_shares(rows: &[&Row]) -> Vec<f64> {
    let total: u128 = rows.iter().map(|r| r.total_ns as u128).sum();
    if total == 0 {
        return vec![0.0; STAGES.len()];
    }
    let mut out = vec![0.0; STAGES.len()];
    for (i, o) in out.iter_mut().enumerate() {
        let stage: u128 = rows.iter().map(|r| r.stage_ns[i] as u128).sum();
        *o = stage as f64 / total as f64;
    }
    out
}

/// The rows in a small window around the nearest-rank index for quantile
/// `q` of end-to-end latency — "the requests at p99", averaged over a
/// few neighbours so one outlier chain doesn't dominate the column.
fn cohort<'a>(sorted: &'a [&'a Row], q: f64) -> &'a [&'a Row] {
    if sorted.is_empty() {
        return sorted;
    }
    let idx = rank_of(sorted.len() as u64, q) as usize - 1;
    let w = (sorted.len() / 50).max(1);
    let lo = idx.saturating_sub(w / 2);
    let hi = (lo + w).min(sorted.len());
    &sorted[lo..hi]
}

fn print_table(rows: &[Row]) {
    let mut by_total: Vec<&Row> = rows.iter().collect();
    by_total.sort_by_key(|r| r.total_ns);
    let quantile = |q: f64| by_total[rank_of(by_total.len() as u64, q) as usize - 1].total_ns;
    let cohorts = [
        ("mean", weighted_shares(&by_total)),
        ("p50", weighted_shares(cohort(&by_total, 0.5))),
        ("p99", weighted_shares(cohort(&by_total, 0.99))),
        ("p999", weighted_shares(cohort(&by_total, 0.999))),
    ];
    println!(
        "{} sampled chains; end-to-end p50 {} us, p99 {} us, p999 {} us",
        rows.len(),
        quantile(0.5) / 1000,
        quantile(0.99) / 1000,
        quantile(0.999) / 1000,
    );
    print!("{:<16}", "stage");
    for (name, _) in &cohorts {
        print!("{name:>9}");
    }
    println!();
    for (i, stage) in STAGES.iter().enumerate() {
        print!("{stage:<16}");
        for (_, shares) in &cohorts {
            print!("{:>8.1}%", shares[i] * 100.0);
        }
        println!();
    }
}

fn print_top(rows: &[Row], n: usize) {
    let mut by_total: Vec<&Row> = rows.iter().collect();
    by_total.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    println!("slowest {} sampled requests:", n.min(by_total.len()));
    for r in by_total.iter().take(n) {
        let (stage, ns) = STAGES
            .iter()
            .zip(r.stage_ns.iter())
            .max_by_key(|(_, ns)| **ns)
            .expect("STAGES is non-empty");
        println!(
            "  trace {:>8}  {:>9} us  {:<18} attempts {:>3}  dominant: {} ({:.0}%)",
            r.trace,
            r.total_ns / 1000,
            r.outcome,
            r.attempts,
            stage,
            if r.total_ns == 0 {
                0.0
            } else {
                *ns as f64 * 100.0 / r.total_ns as f64
            },
        );
    }
}

fn main() -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    let mut top = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                top = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--top needs a count");
            }
            "--help" | "-h" => {
                println!("usage: trace_report <DIR> [--top N]");
                return ExitCode::SUCCESS;
            }
            other if dir.is_none() => dir = Some(PathBuf::from(other)),
            other => return fail(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(dir) = dir else {
        return fail("missing run directory argument");
    };
    let (rows, incomplete) = match read_attribution(&dir) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    if rows.is_empty() {
        return fail("no attribution rows");
    }
    print_table(&rows);
    if top > 0 {
        print_top(&rows, top);
    }
    println!("({incomplete} incomplete chains dropped upstream)");
    ExitCode::SUCCESS
}
