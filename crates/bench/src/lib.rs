//! Shared reporting helpers for the experiment harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md for the index); this library provides the common
//! formatting and summary utilities so their output reads like the paper's
//! rows and series, and the committed sequential cost table the replays
//! price recorded transactions with ([`seq_cost`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;

use rococo_sim::SeqCost;
use rococo_stamp::apps::AppId;
use rococo_stamp::harness::Preset;

/// The sequential price of `app`'s transactions at `preset`: the row of
/// the committed table that the `calibrate` bin fitted.
pub fn seq_cost(app: AppId, preset: Preset) -> SeqCost {
    calibration::TABLE
        .iter()
        .find(|&&(a, p, _)| a == app && p == preset)
        .map(|&(_, _, cost)| cost)
        .expect("every (app, preset) has a calibration row")
}

/// Geometric mean of a slice (ignores non-positive entries, which cannot
/// appear in speedup data).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Prints a banner for an experiment section.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

/// A minimal fixed-width table printer.
#[derive(Debug, Default, PartialEq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.header);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_mixed() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), " 50.0%");
    }

    #[test]
    fn every_app_and_preset_has_one_priced_row() {
        assert_eq!(
            calibration::TABLE.len(),
            AppId::ALL.len() * Preset::ALL.len()
        );
        for app in AppId::ALL {
            for preset in Preset::ALL {
                let c = seq_cost(app, preset);
                assert!(
                    c.base_ns.is_finite() && c.base_ns >= 0.0,
                    "{app:?} {preset:?}: {c:?}"
                );
                assert!(
                    c.access_ns.is_finite() && c.access_ns >= 0.0,
                    "{app:?} {preset:?}: {c:?}"
                );
            }
        }
    }

    #[test]
    fn table_does_not_panic() {
        let mut t = Table::new(["a", "bb"]);
        t.row(["1", "2"]);
        t.row(["333"]);
        t.print();
    }
}
