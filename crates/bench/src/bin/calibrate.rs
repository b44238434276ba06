//! Fits the sequential cost table that `fig10` and `ablation_eager` price
//! recorded transactions with, and prints it as the Rust source of
//! `crates/bench/src/calibration.rs`.
//!
//! Each app is recorded K times per preset. Footprints repeat, so
//! transaction *i* is the same in every recording; its `exec_ns` does not.
//! The medians are fitted against the access counts (deduplicated reads +
//! writes) by non-negative least squares, and the median phase gap per
//! transaction (parallel-phase wall time outside transactions) is added
//! to the base. A row's comment gives the fit's R² and the range of the
//! constants fitted to one recording alone.
//!
//! Usage: calibrate > crates/bench/src/calibration.rs (no arguments)

use rococo_stamp::apps::AppId;
use rococo_stamp::harness::{record, Preset};
use rococo_stm::TxnRecord;

/// Recordings per (app, preset).
const K: usize = 5;

/// `(base, slope)` of `y ≈ base + slope × x`.
type Line = (f64, f64);

fn sse(x: &[f64], y: &[f64], (b, a): Line) -> f64 {
    x.iter().zip(y).map(|(x, y)| (y - b - a * x).powi(2)).sum()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Non-negative least squares. A free fit that breaks one sign
/// constraint has its optimum on that constraint's axis: a flat line
/// (also when every `x` is equal) or a line through the origin.
fn fit(x: &[f64], y: &[f64]) -> Line {
    let (mx, my) = (mean(x), mean(y));
    let sxx: f64 = x.iter().map(|x| (x - mx).powi(2)).sum();
    let sxy: f64 = x.iter().zip(y).map(|(x, y)| (x - mx) * (y - my)).sum();
    let a = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    if a <= 0.0 {
        (my, 0.0)
    } else if my >= a * mx {
        (my - a * mx, a)
    } else {
        let xy: f64 = x.iter().zip(y).map(|(x, y)| x * y).sum();
        (0.0, xy / x.iter().map(|x| x * x).sum::<f64>())
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn range(xs: impl Iterator<Item = f64>) -> String {
    let (lo, hi) = xs.fold((f64::MAX, f64::MIN), |(l, h), x| (l.min(x), h.max(x)));
    format!("{lo:.1}–{hi:.1}")
}

/// One row of the table and its comment.
fn row(app: AppId, preset: Preset) -> String {
    let (mut counts, mut times, mut gaps) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..K {
        let (histories, result) = record(app, preset);
        let parallel: Vec<_> = histories.iter().filter(|h| h.epoch % 2 == 1).collect();
        let c: Vec<f64> = parallel
            .iter()
            .map(|&h| TxnRecord::from(h))
            .map(|f| (f.reads.len() + f.writes.len()) as f64)
            .collect();
        assert!(
            counts.is_empty() || counts == c,
            "{app:?}: footprints moved"
        );
        counts = c;
        let t: Vec<f64> = parallel.iter().map(|h| h.exec_ns).collect();
        let outside = result.parallel.as_nanos() as f64 - t.iter().sum::<f64>();
        gaps.push(outside.max(0.0) / t.len().max(1) as f64);
        times.push(t);
    }
    let medians: Vec<f64> = (0..counts.len())
        .map(|i| median(times.iter().map(|t| t[i]).collect()))
        .collect();
    let (b, a) = fit(&counts, &medians);
    let my = mean(&medians);
    let sst: f64 = medians.iter().map(|y| (y - my).powi(2)).sum();
    let r2 = 1.0 - sse(&counts, &medians, (b, a)) / sst;
    let one: Vec<Line> = times.iter().map(|t| fit(&counts, t)).collect();
    format!(
        "    (AppId::{app:?}, Preset::{preset:?}, SeqCost {{ base_ns: {:.1}, access_ns: {a:.2} }}), \
         // R² {r2:.2}; one recording: base {}, access {}",
        b + median(gaps.clone()),
        range(one.iter().zip(&gaps).map(|(l, g)| l.0 + g)),
        range(one.iter().map(|l| l.1)),
    )
}

/// What a shell command prints, trimmed.
fn sh(cmd: &str) -> String {
    let out = std::process::Command::new("sh").args(["-c", cmd]).output();
    out.map_or_else(
        |_| "unknown".into(),
        |o| String::from_utf8_lossy(&o.stdout).trim().into(),
    )
}

fn main() {
    assert_eq!(std::env::args().len(), 1, "calibrate takes no arguments");
    let rows: Vec<String> = Preset::ALL
        .iter()
        .flat_map(|&p| AppId::ALL.iter().map(move |&a| row(a, p)))
        .collect();
    println!(
        "//! One [`SeqCost`] per STAMP app and preset: the price of a recorded
//! transaction in `fig10` and `ablation_eager`. Verbatim output of
//! `cargo run --release -q -p rococo-bench --bin calibrate`; not edited.
//!
//! Provenance: {}, nproc {}, K = {K}, {}, commit {}.
//! Every `base_ns` includes the recorder's own bookkeeping, which each
//! recorded `exec_ns` spans (its clock reads and its log push).

use rococo_sim::SeqCost;
use rococo_stamp::apps::AppId;
use rococo_stamp::harness::Preset;

#[rustfmt::skip]
pub(crate) const TABLE: [(AppId, Preset, SeqCost); {}] = [
{}
];",
        sh("sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1"),
        sh("nproc"),
        sh("date -u +%F"),
        sh("git describe --always --dirty"),
        rows.len(),
        rows.join("\n")
    );
}
