//! End-to-end run-directory validation: run TxKv on ROCoCoTM with the
//! flight recorder and metrics scraper on, export the run directory, and
//! hold it to `rococo_telemetry::rundir::check_run_dir` — the checker CI
//! runs (`run_check`), including the requirement that a Detector slice
//! overlaps a transaction span on the shared timeline.
//!
//! Own integration-test binary: the flight recorder is process-global.
//! (The exposition-shape test below may run beside it: it reads only its
//! own scrape, and its events land in its own threads' rings.)

use rococo_server::{DurabilityConfig, Request, TxKv, TxKvConfig};
use rococo_stm::{RococoTm, TmConfig, TmSystem};
use rococo_telemetry::rundir::{self, check_run_dir, Expect};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

#[test]
fn a_real_run_directory_passes_the_checker() {
    let dir = std::env::temp_dir().join(format!("rococo-tlm-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    rundir::start(false);

    let cfg = TxKvConfig {
        shards: 2,
        workers_per_shard: 2,
        keys: 64,
        telemetry: Some(dir.clone()),
        ..TxKvConfig::default()
    };
    let tm = RococoTm::with_config(TmConfig {
        heap_words: cfg.heap_words(),
        max_threads: cfg.worker_threads(),
    });
    let kv = TxKv::start(Arc::new(tm), cfg).expect("service start");
    for k in 0..64u64 {
        kv.call(Request::Put { key: k, value: 100 }).unwrap();
    }
    // Contended transfers: retries and validation traffic.
    for i in 0..400u64 {
        let _ = kv.call(Request::Transfer {
            from: i % 4,
            to: (i + 1) % 4,
            amount: 1,
        });
    }
    let report = kv.shutdown();
    assert!(report.aggregate.committed >= 400);
    rundir::export(&dir, false).expect("run directory written");

    let expect = Expect {
        fpga: true,
        ..Expect::default()
    };
    let checked = check_run_dir(&dir, expect).unwrap_or_else(|e| panic!("{e}"));
    assert!(checked.prom_samples > 0 && checked.trace_events > 0);

    // The final scrape runs after worker shutdown, so it covers the
    // whole run: committed counts must agree with the report.
    let prom = std::fs::read_to_string(dir.join(rundir::METRICS_PROM)).expect("scraper wrote prom");
    let committed_line = prom
        .lines()
        .find(|l| l.starts_with("rococo_txkv_committed_total "))
        .expect("aggregate committed counter");
    let committed: f64 = committed_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(committed as u64, report.aggregate.committed);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs a short contended mix on `tm` with the scraper on and returns
/// the final `metrics.prom`.
fn scraped_exposition<S: TmSystem + 'static>(tm: S, cfg: TxKvConfig, dir: &Path) -> String {
    let cfg = TxKvConfig {
        telemetry: Some(dir.join("tlm")),
        ..cfg
    };
    let kv = TxKv::start(Arc::new(tm), cfg).expect("service start");
    for k in 0..16u64 {
        kv.call(Request::Put { key: k, value: 100 }).unwrap();
    }
    for i in 0..200u64 {
        let _ = kv.call(Request::Transfer {
            from: i % 4,
            to: (i + 1) % 4,
            amount: 1,
        });
    }
    kv.shutdown();
    std::fs::read_to_string(dir.join("tlm").join(rundir::METRICS_PROM)).expect("scraper wrote prom")
}

/// Folds one exposition into `shape`: per metric family its TYPE, HELP
/// and the distinct label-key lists of its series — values excluded.
/// Returns the `le` series of every histogram, in emission order.
fn fold_shape(
    prom: &str,
    shape: &mut BTreeMap<String, (String, String, BTreeSet<String>)>,
) -> BTreeMap<String, Vec<String>> {
    let mut le_series: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has text");
            shape.entry(name.to_string()).or_default().1 = help.to_string();
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has a kind");
            shape.entry(name.to_string()).or_default().0 = kind.to_string();
        } else {
            let (series, labels) = match line.split_once('{') {
                Some((series, rest)) => (series, rest.split_once('}').expect("closed labels").0),
                None => (line.split_once(' ').expect("sample has a value").0, ""),
            };
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| series.strip_suffix(suffix))
                .filter(|base| shape.contains_key(*base))
                .unwrap_or(series);
            let pairs: Vec<(&str, &str)> = labels
                .split(',')
                .filter(|kv| !kv.is_empty())
                .map(|kv| kv.split_once('=').expect("label has a value"))
                .collect();
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| *k).collect();
            shape
                .get_mut(family)
                .unwrap_or_else(|| panic!("sample before HELP/TYPE: {line}"))
                .2
                .insert(keys.join(","));
            if let Some((_, le)) = pairs.iter().find(|(k, _)| *k == "le") {
                // One list per labelled histogram instance.
                let instance: Vec<String> = pairs
                    .iter()
                    .filter(|(k, _)| *k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                le_series
                    .entry(format!("{family}{{{}}}", instance.join(",")))
                    .or_default()
                    .push(le.trim_matches('"').to_string());
            }
        }
    }
    le_series
}

/// Same-behaviour proof for the exposition: metric names, HELP, TYPE and
/// label keys of the txkv/tm/fpga/faults/wal/sched families — and the
/// fixed `le` bounds of the request-latency histogram — must equal the
/// fixture captured before the stats blocks were declared once. Values
/// are excluded. The WAL histograms choose their bounds from the data
/// (empty octaves are skipped), so for them the rule is checked instead:
/// every finite `le` is 0 or a power of two, ascending, `+Inf` last.
#[test]
fn exposition_shape_matches_the_golden_fixture() {
    let dir = std::env::temp_dir().join(format!("rococo-tlm-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = TxKvConfig {
        shards: 2,
        workers_per_shard: 2,
        keys: 16,
        ..TxKvConfig::default()
    };
    let tm_cfg = TmConfig {
        heap_words: cfg.heap_words(),
        max_threads: cfg.worker_threads(),
    };
    let durable = scraped_exposition(
        RococoTm::with_config(tm_cfg),
        TxKvConfig {
            durability: Some(DurabilityConfig::new(dir.join("durable/wal"))),
            ..cfg.clone()
        },
        &dir.join("durable"),
    );
    let hybrid = scraped_exposition(
        rococo_sched::HybridTm::with_config(tm_cfg),
        cfg,
        &dir.join("hybrid"),
    );

    let mut shape = BTreeMap::new();
    let mut le_series = fold_shape(&durable, &mut shape);
    le_series.extend(fold_shape(&hybrid, &mut shape));

    let mut actual = String::new();
    for (name, (kind, help, keys)) in &shape {
        let keys: Vec<String> = keys.iter().map(|k| format!("{{{k}}}")).collect();
        actual.push_str(&format!("{name}\t{kind}\t{help}\t{}\n", keys.join(" ")));
    }
    for (instance, les) in &le_series {
        if instance.starts_with("rococo_txkv_latency_ns") {
            actual.push_str(&format!("le\t{instance}\t{}\n", les.join(",")));
        } else {
            let (inf, finite) = les.split_last().expect("histogram has +Inf");
            assert_eq!(inf, "+Inf", "{instance}: {les:?}");
            let finite: Vec<u64> = finite.iter().map(|le| le.parse().unwrap()).collect();
            assert!(
                finite.iter().all(|&le| le == 0 || le.is_power_of_two())
                    && finite.windows(2).all(|w| w[0] < w[1]),
                "{instance}: finite le bounds must be 0 or powers of two, ascending: {les:?}"
            );
        }
    }
    let golden = include_str!("fixtures/exposition_shape.golden");
    assert!(
        actual == golden,
        "exposition shape drifted from tests/fixtures/exposition_shape.golden\n\
         --- actual ---\n{actual}--- golden ---\n{golden}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
