//! The STAMP applications (Figure 10's x-axis, `bayes` excluded as in the
//! paper).

pub mod genome;
pub mod intruder;
pub mod kmeans;
pub mod labyrinth;
pub mod ssca2;
pub mod vacation;
pub mod yada;

use crate::harness::Preset;
use rococo_stm::TmSystem;

/// A STAMP benchmark configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// Gene sequencing: segment deduplication + overlap matching.
    Genome,
    /// Network intrusion detection: packet reassembly + signature scan.
    Intruder,
    /// K-means clustering, low contention (many clusters).
    KmeansLow,
    /// K-means clustering, high contention (few clusters).
    KmeansHigh,
    /// Maze routing with transactional path claiming.
    Labyrinth,
    /// SSCA2 graph kernel: concurrent adjacency construction.
    Ssca2,
    /// Travel reservations, low contention.
    VacationLow,
    /// Travel reservations, high contention.
    VacationHigh,
    /// Delaunay-style mesh refinement.
    Yada,
}

impl AppId {
    /// All applications in the paper's Figure 10 order.
    pub const ALL: [AppId; 9] = [
        AppId::Genome,
        AppId::Intruder,
        AppId::KmeansHigh,
        AppId::KmeansLow,
        AppId::Labyrinth,
        AppId::Ssca2,
        AppId::VacationHigh,
        AppId::VacationLow,
        AppId::Yada,
    ];

    /// Display name matching the paper's labels.
    pub fn name(&self) -> &'static str {
        match self {
            AppId::Genome => "genome",
            AppId::Intruder => "intruder",
            AppId::KmeansLow => "kmeans-low",
            AppId::KmeansHigh => "kmeans-high",
            AppId::Labyrinth => "labyrinth",
            AppId::Ssca2 => "ssca2",
            AppId::VacationLow => "vacation-low",
            AppId::VacationHigh => "vacation-high",
            AppId::Yada => "yada",
        }
    }
}

impl std::str::FromStr for AppId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AppId::ALL
            .iter()
            .find(|a| a.name() == s)
            .copied()
            .ok_or_else(|| format!("unknown app '{s}'"))
    }
}

/// The self-reported result of one application run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppResult {
    /// Whether the app-specific correctness check passed.
    pub validated: bool,
    /// A digest of the computed result (stable across systems for
    /// deterministic apps).
    pub checksum: u64,
    /// Wall time of the timed parallel phases (setup and validation
    /// excluded) — the quantity STAMP reports.
    pub parallel: std::time::Duration,
}

/// Heap words the app needs at the given preset (used by the harness to
/// size the TM system).
pub fn heap_words(app: AppId, preset: Preset) -> usize {
    match app {
        AppId::Genome => genome::Config::preset(preset).heap_words(),
        AppId::Intruder => intruder::Config::preset(preset).heap_words(),
        AppId::KmeansLow => kmeans::Config::preset(preset, false).heap_words(),
        AppId::KmeansHigh => kmeans::Config::preset(preset, true).heap_words(),
        AppId::Labyrinth => labyrinth::Config::preset(preset).heap_words(),
        AppId::Ssca2 => ssca2::Config::preset(preset).heap_words(),
        AppId::VacationLow => vacation::Config::preset(preset, false).heap_words(),
        AppId::VacationHigh => vacation::Config::preset(preset, true).heap_words(),
        AppId::Yada => yada::Config::preset(preset).heap_words(),
    }
}

/// Runs `app` on `sys` with `threads` workers.
pub fn dispatch<S: TmSystem>(app: AppId, sys: &S, threads: usize, preset: Preset) -> AppResult {
    match app {
        AppId::Genome => genome::run(sys, threads, &genome::Config::preset(preset)),
        AppId::Intruder => intruder::run(sys, threads, &intruder::Config::preset(preset)),
        AppId::KmeansLow => kmeans::run(sys, threads, &kmeans::Config::preset(preset, false)),
        AppId::KmeansHigh => kmeans::run(sys, threads, &kmeans::Config::preset(preset, true)),
        AppId::Labyrinth => labyrinth::run(sys, threads, &labyrinth::Config::preset(preset)),
        AppId::Ssca2 => ssca2::run(sys, threads, &ssca2::Config::preset(preset)),
        AppId::VacationLow => vacation::run(sys, threads, &vacation::Config::preset(preset, false)),
        AppId::VacationHigh => vacation::run(sys, threads, &vacation::Config::preset(preset, true)),
        AppId::Yada => yada::run(sys, threads, &yada::Config::preset(preset)),
    }
}
