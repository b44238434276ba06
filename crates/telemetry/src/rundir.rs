//! The run directory: the one machine-readable thing the service
//! tooling emits, and the one module that knows its format.
//!
//! A telemetry-enabled run leaves, in one directory:
//!
//! * `metrics.prom` / `metrics.json` — the final scrape of every
//!   `rococo_*` family ([`write_metrics`], called by the service's
//!   scraper);
//! * `trace.json` — the Chrome trace of the recorded transactions
//!   ([`build_tx_trace`]);
//! * `anomaly-<i>-<reason>.txt` — one file per anomaly dump;
//! * `attribution.json` — one row per tail-sampled request chain, its
//!   latency decomposed into [`STAGES`] (tail-sampled runs only).
//!
//! [`start`] and [`export`] bracket a recorded run and write the last
//! three; [`read_attribution`] parses the rows back for `trace_report`;
//! [`check_run_dir`] holds every invariant CI enforces on a directory.

use crate::attr::{attribute, group_chains, Attribution, STAGES, STAGE_COUNT};
use crate::json::{escape, Json};
use crate::registry::{validate_prometheus, MetricsRegistry};
use crate::trace::{build_tx_trace, FPGA_PID, TX_PID};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// File name of the Prometheus text exposition.
pub const METRICS_PROM: &str = "metrics.prom";
/// File name of the JSON metrics snapshot.
pub const METRICS_JSON: &str = "metrics.json";
const TRACE_JSON: &str = "trace.json";
const ATTRIBUTION_JSON: &str = "attribution.json";

fn write_atomic(dir: &Path, name: &str, contents: &str) -> io::Result<()> {
    let tmp = dir.join(format!(".{name}.tmp"));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, dir.join(name))
}

/// Rewrites `metrics.prom` and `metrics.json` in `dir` from one scrape.
/// Write-then-rename, so a reader polling the directory never sees a
/// truncated exposition.
///
/// # Errors
///
/// Any I/O error creating the directory or writing either file.
pub fn write_metrics(dir: &Path, reg: &MetricsRegistry) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_atomic(dir, METRICS_PROM, &reg.render_prometheus())?;
    write_atomic(dir, METRICS_JSON, &reg.render_json())
}

/// Turns the flight recorder on for a run [`export`] will write out.
/// With `tail_sampled` the tail sampler is reset too, and the rings are
/// 16× deeper: attribution needs whole chains at export time (sampling
/// decides what to *keep*, the ring decides what still *exists*).
pub fn start(tail_sampled: bool) {
    let ring = crate::DEFAULT_RING_EVENTS * if tail_sampled { 16 } else { 1 };
    crate::enable(ring);
    if tail_sampled {
        crate::sampler_reset(crate::DEFAULT_TAIL_K);
    }
}

/// What [`export`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exported {
    /// Events rendered into `trace.json`.
    pub events: usize,
    /// Events drained from the recorder before the tail-sample filter.
    pub drained: usize,
    /// `(chains kept, requests observed)` by the tail sampler.
    pub sampled: Option<(usize, u64)>,
    /// Anomaly dumps written.
    pub anomalies: usize,
    /// `(rows, incomplete chains dropped)` of `attribution.json`.
    pub attribution: Option<(usize, usize)>,
}

impl fmt::Display for Exported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{TRACE_JSON}: {} events", self.events)?;
        if let Some((kept, observed)) = self.sampled {
            write!(
                f,
                " (tail sampler kept {kept} of {observed} request chains, {} of {} events)",
                self.events, self.drained
            )?;
        }
        write!(f, "; {} anomaly dumps", self.anomalies)?;
        if let Some((rows, incomplete)) = self.attribution {
            write!(
                f,
                "; {ATTRIBUTION_JSON}: {rows} chains, {incomplete} incomplete dropped"
            )?;
        }
        Ok(())
    }
}

/// Drains the flight recorder into `dir` and turns it off: the events
/// (tail-sample filtered when `tail_sampled`: only kept chains and
/// trace-0 infrastructure events survive) become `trace.json`, every
/// anomaly dump its own file, and — when `tail_sampled` — every
/// complete kept chain a row of `attribution.json`.
///
/// # Errors
///
/// Any I/O error creating the directory or writing an artifact. The
/// recorder is off afterwards either way.
pub fn export(dir: &Path, tail_sampled: bool) -> io::Result<Exported> {
    let mut events = crate::drain_events();
    let drained = events.len();
    let sampled = tail_sampled.then(|| {
        let kept = crate::sampled_traces();
        crate::filter_sampled(&mut events, &kept);
        (kept.len(), crate::sampler_observed())
    });
    let lanes = crate::lane_names();
    let dumps = crate::take_dumps();
    crate::disable();

    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(TRACE_JSON), build_tx_trace(&events, &lanes))?;
    for (i, dump) in dumps.iter().enumerate() {
        let name = format!("anomaly-{i}-{}.txt", dump.reason);
        std::fs::write(dir.join(name), dump.to_text())?;
    }
    let mut attribution = None;
    if tail_sampled {
        let chains = group_chains(&events);
        // A chain whose ingress or reply the ring evicted has no sound
        // total: it is counted, not attributed.
        let attrs: Vec<Attribution> = chains.iter().filter_map(|(_, c)| attribute(c)).collect();
        let incomplete = chains.len() - attrs.len();
        std::fs::write(
            dir.join(ATTRIBUTION_JSON),
            render_attribution(&attrs, incomplete),
        )?;
        attribution = Some((attrs.len(), incomplete));
    }
    Ok(Exported {
        events: events.len(),
        drained,
        sampled,
        anomalies: dumps.len(),
        attribution,
    })
}

fn render_attribution(attrs: &[Attribution], incomplete: usize) -> String {
    let stage_list: Vec<String> = STAGES
        .iter()
        .map(|s| format!("\"{}\"", escape(s)))
        .collect();
    let mut out = format!(
        "{{\"bench\":\"txkv_attribution\",\"stages\":[{}],\"incomplete\":{incomplete},\"rows\":[",
        stage_list.join(",")
    );
    for (i, a) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"trace\":{},\"start_us\":{:.3},\"total_ns\":{},\"outcome\":\"{}\",\
             \"attempts\":{},\"ingress_lane\":{},\"worker_lane\":{},\"stage_ns\":{{",
            a.trace,
            a.start_ns as f64 / 1000.0,
            a.total_ns,
            escape(a.outcome),
            a.attempts,
            a.ingress_lane,
            a.worker_lane,
        );
        for (j, (name, ns)) in STAGES.iter().zip(a.stage_ns).enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{ns}", escape(name));
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// One parsed `attribution.json` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionRow {
    /// The request's trace id.
    pub trace: u64,
    /// End-to-end latency, ns.
    pub total_ns: u64,
    /// The `Reply` outcome label.
    pub outcome: String,
    /// Transaction attempts observed.
    pub attempts: u32,
    /// Per-stage durations in [`STAGES`] order.
    pub stage_ns: [u64; STAGE_COUNT],
}

fn read(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: cannot read: {e}"))
}

/// Reads `dir/attribution.json` back: its rows, and the number of
/// incomplete chains the writer dropped.
///
/// # Errors
///
/// A message naming the artifact when it is missing, is not JSON, was
/// written for another stage list, or a row lacks a field.
pub fn read_attribution(dir: &Path) -> Result<(Vec<AttributionRow>, u64), String> {
    parse_attribution(&read(dir, ATTRIBUTION_JSON)?).map_err(|e| format!("{ATTRIBUTION_JSON}: {e}"))
}

fn parse_attribution(src: &str) -> Result<(Vec<AttributionRow>, u64), String> {
    let doc = Json::parse(src)?;
    let stages = doc
        .get("stages")
        .and_then(Json::as_arr)
        .ok_or("missing \"stages\" array")?;
    let names: Vec<&str> = stages.iter().filter_map(Json::as_str).collect();
    if names != STAGES {
        return Err(format!(
            "stage list {names:?} does not match this binary's {STAGES:?}"
        ));
    }
    let incomplete = doc.get("incomplete").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing \"rows\" array")?;
    let mut out = Vec::with_capacity(rows.len());
    for (i, r) in rows.iter().enumerate() {
        let num = |key: &str| -> Result<f64, String> {
            r.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("row {i}: missing or non-numeric field {key:?}"))
        };
        let stage_obj = match r.get("stage_ns") {
            Some(Json::Obj(m)) => m,
            _ => return Err(format!("row {i}: missing \"stage_ns\" object")),
        };
        if stage_obj.len() != STAGE_COUNT {
            return Err(format!(
                "row {i}: stage_ns has {} entries, expected {STAGE_COUNT}",
                stage_obj.len()
            ));
        }
        let mut stage_ns = [0u64; STAGE_COUNT];
        for (ns, s) in stage_ns.iter_mut().zip(STAGES) {
            *ns = stage_obj
                .get(s)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("row {i}: stage_ns missing stage {s:?}"))?
                as u64;
        }
        out.push(AttributionRow {
            trace: num("trace")? as u64,
            total_ns: num("total_ns")? as u64,
            outcome: r
                .get("outcome")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("row {i}: missing \"outcome\""))?
                .to_string(),
            attempts: num("attempts")? as u32,
            stage_ns,
        });
    }
    Ok((out, incomplete))
}

/// What a run is expected to have left in its directory, beyond the
/// `rococo_txkv_` / `rococo_tm_` metrics and the transaction spans every
/// run has.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expect {
    /// The backend validates on the FPGA model: `rococo_fpga_` and
    /// `rococo_faults_` metrics, and a Detector slice overlapping a
    /// transaction span in the trace.
    pub fpga: bool,
    /// The run was durable: `rococo_wal_` metrics.
    pub wal: bool,
    /// The backend is the hybrid router: `rococo_sched_` metrics with
    /// both route paths labelled out and the adapted bounds as gauges.
    pub sched: bool,
    /// The run was tail-sampled: `attribution.json` is present.
    pub attribution: bool,
}

/// Why a run directory failed [`check_run_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// An artifact is missing, malformed, or breaks an invariant; the
    /// message starts with the artifact's file name.
    Invalid(String),
    /// `trace.json` is well-formed but holds no transaction span — the
    /// recorder was enabled too late, the ring was fully evicted, or the
    /// sampler kept nothing. Vacuous, not malformed: CI tells them apart.
    NoTxSpans,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Invalid(msg) => f.write_str(msg),
            CheckError::NoTxSpans => write!(
                f,
                "{TRACE_JSON}: no transaction spans (name=\"tx\", pid={TX_PID})"
            ),
        }
    }
}

/// What [`check_run_dir`] counted in a directory that passed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked {
    /// Samples in `metrics.prom`.
    pub prom_samples: usize,
    /// Entries of `metrics.json`.
    pub json_metrics: usize,
    /// Events in `trace.json`.
    pub trace_events: usize,
    /// Anomaly dumps validated.
    pub anomalies: usize,
    /// Rows of `attribution.json`, when it is there.
    pub attribution_rows: Option<usize>,
}

impl fmt::Display for Checked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} prom samples, {} JSON metrics, {} trace events, {} anomaly dumps",
            self.prom_samples, self.json_metrics, self.trace_events, self.anomalies
        )?;
        if let Some(rows) = self.attribution_rows {
            write!(f, ", {rows} attribution rows (sums exact, flows linked)")?;
        }
        Ok(())
    }
}

/// Checks every artifact of the run directory `dir`:
///
/// * `metrics.prom` passes the strict text-format validator and has a
///   sample in each namespace `expect` implies;
/// * `metrics.json` is `{"metrics":[...]}`, non-empty, every entry with
///   `name` and `kind`;
/// * `trace.json` has at least one transaction span
///   ([`CheckError::NoTxSpans`] otherwise) and, for `expect.fpga`, a
///   Detector slice overlapping one in time;
/// * every `anomaly-*.txt` has a parseable header claiming N ≥ 1 events
///   and exactly N body lines;
/// * `attribution.json` (required by `expect.attribution`, checked
///   whenever present): every row's `stage_ns` sums exactly to its
///   `total_ns`, every share is finite and in `[0, 1]`, and every trace
///   id has its `s`/`t`/`f` flow events in `trace.json` (`s`/`f` for a
///   shed request, which never reaches a worker).
///
/// # Errors
///
/// The first failure, as a [`CheckError`].
pub fn check_run_dir(dir: &Path, expect: Expect) -> Result<Checked, CheckError> {
    let invalid = |name: &str, e: String| CheckError::Invalid(format!("{name}: {e}"));
    let load = |name: &str| read(dir, name).map_err(CheckError::Invalid);

    let prom_samples =
        check_prom(&load(METRICS_PROM)?, expect).map_err(|e| invalid(METRICS_PROM, e))?;
    let json_metrics =
        check_metrics_json(&load(METRICS_JSON)?).map_err(|e| invalid(METRICS_JSON, e))?;

    let trace = Json::parse(&load(TRACE_JSON)?).map_err(|e| invalid(TRACE_JSON, e))?;
    let events = match trace.get("traceEvents").and_then(Json::as_arr) {
        Some(ev) if !ev.is_empty() => ev,
        _ => {
            return Err(invalid(
                TRACE_JSON,
                "missing or empty \"traceEvents\"".into(),
            ))
        }
    };
    check_spans(events, expect.fpga)?;

    let mut anomalies = 0usize;
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CheckError::Invalid(format!("{}: cannot list: {e}", dir.display())))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("anomaly-") && name.ends_with(".txt") {
            check_anomaly(&load(&name)?).map_err(|e| invalid(&name, e))?;
            anomalies += 1;
        }
    }

    let attribution_rows = if expect.attribution || dir.join(ATTRIBUTION_JSON).exists() {
        let (rows, _) = read_attribution(dir).map_err(CheckError::Invalid)?;
        check_attribution(&rows).map_err(|e| invalid(ATTRIBUTION_JSON, e))?;
        check_flows(&rows, events).map_err(|e| invalid(TRACE_JSON, e))?;
        Some(rows.len())
    } else {
        None
    };

    Ok(Checked {
        prom_samples,
        json_metrics,
        trace_events: events.len(),
        anomalies,
        attribution_rows,
    })
}

fn check_prom(prom: &str, expect: Expect) -> Result<usize, String> {
    let samples = validate_prometheus(prom)?;
    if samples == 0 {
        return Err("no samples".into());
    }
    let has = |prefix: &str| {
        prom.lines()
            .any(|l| !l.starts_with('#') && l.starts_with(prefix))
    };
    let mut prefixes = vec!["rococo_txkv_", "rococo_tm_"];
    if expect.fpga {
        prefixes.extend(["rococo_fpga_", "rococo_faults_"]);
    }
    if expect.wal {
        prefixes.push("rococo_wal_");
    }
    if expect.sched {
        // The router's schema, not just its namespace.
        prefixes.extend([
            "rococo_sched_routes_total{path=\"htm\"}",
            "rococo_sched_routes_total{path=\"sw\"}",
            "rococo_sched_commits_total{path=\"htm\"}",
            "rococo_sched_commits_total{path=\"sw\"}",
            "rococo_sched_migrations_total",
            "rococo_sched_read_bound_words",
            "rococo_sched_write_bound_words",
        ]);
    }
    match prefixes.iter().find(|p| !has(p)) {
        Some(p) => Err(format!("no sample with prefix {p}")),
        None => Ok(samples),
    }
}

fn check_metrics_json(src: &str) -> Result<usize, String> {
    let doc = Json::parse(src)?;
    let metrics = match doc.get("metrics").and_then(Json::as_arr) {
        Some(m) if !m.is_empty() => m,
        _ => return Err("missing or empty \"metrics\" array".into()),
    };
    let complete = |m: &Json| {
        m.get("name").and_then(Json::as_str).is_some()
            && m.get("kind").and_then(Json::as_str).is_some()
    };
    if !metrics.iter().all(complete) {
        return Err("metric entry missing name/kind".into());
    }
    Ok(metrics.len())
}

fn check_spans(events: &[Json], expect_fpga: bool) -> Result<(), CheckError> {
    let spans = |name: &str, pid: u32| -> Vec<(f64, f64)> {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Json::as_str) == Some(name)
                    && e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("pid").and_then(Json::as_f64) == Some(f64::from(pid))
            })
            .filter_map(|e| Some((e.get("ts")?.as_f64()?, e.get("dur")?.as_f64()?)))
            .collect()
    };
    let tx = spans("tx", TX_PID);
    if tx.is_empty() {
        return Err(CheckError::NoTxSpans);
    }
    if expect_fpga {
        let detector = spans("detector", FPGA_PID);
        let overlaps = tx.iter().any(|(tts, tdur)| {
            detector
                .iter()
                .any(|(dts, ddur)| *dts < tts + tdur && *tts < dts + ddur)
        });
        if !overlaps {
            return Err(CheckError::Invalid(format!(
                "{TRACE_JSON}: no Detector slice (pid={FPGA_PID}) overlaps a transaction span"
            )));
        }
    }
    Ok(())
}

/// One anomaly dump: `` anomaly `reason` on lane L at T ns (N events, D
/// dropped) `` then exactly N event lines, N ≥ 1.
fn check_anomaly(text: &str) -> Result<(), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty anomaly dump")?;
    if !header.starts_with("anomaly `") {
        return Err(format!("unparseable header {header:?}"));
    }
    let count: usize = header
        .split('(')
        .nth(1)
        .and_then(|tail| tail.split(" events").next())
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| format!("header missing event count: {header:?}"))?;
    if count == 0 {
        return Err("anomaly dump claims zero events".into());
    }
    let body = lines.filter(|l| !l.trim().is_empty()).count();
    if body != count {
        return Err(format!(
            "header claims {count} events but body has {body} lines"
        ));
    }
    Ok(())
}

fn check_attribution(rows: &[AttributionRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("zero rows".into());
    }
    for r in rows {
        let sum: u64 = r.stage_ns.iter().sum();
        if sum != r.total_ns {
            return Err(format!(
                "trace {}: stage_ns sums to {sum} but total_ns is {}",
                r.trace, r.total_ns
            ));
        }
        for (stage, ns) in STAGES.iter().zip(r.stage_ns) {
            let share = ns as f64 / r.total_ns as f64;
            if !(share.is_finite() && (0.0..=1.0).contains(&share)) {
                return Err(format!(
                    "trace {}: share of {stage} is {share} ({ns} of {} ns)",
                    r.trace, r.total_ns
                ));
            }
        }
        if r.attempts == 0 && r.outcome != "shed" {
            return Err(format!(
                "trace {}: zero attempts on outcome {:?}",
                r.trace, r.outcome
            ));
        }
    }
    Ok(())
}

/// Every attributed chain must be linked across lanes in the trace by
/// its flow events.
fn check_flows(rows: &[AttributionRow], events: &[Json]) -> Result<(), String> {
    let mut flows: BTreeMap<u64, BTreeSet<&str>> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        if matches!(ph, "s" | "t" | "f") && e.get("name").and_then(Json::as_str) == Some("req") {
            if let Some(id) = e.get("id").and_then(Json::as_f64) {
                flows.entry(id as u64).or_default().insert(ph);
            }
        }
    }
    for r in rows {
        let phases = flows
            .get(&r.trace)
            .ok_or_else(|| format!("trace {}: no flow events", r.trace))?;
        let want: &[&str] = if r.outcome == "shed" {
            &["s", "f"]
        } else {
            &["s", "t", "f"]
        };
        if let Some(ph) = want.iter().find(|ph| !phases.contains(*ph)) {
            return Err(format!(
                "trace {}: flow phase {ph:?} missing (have {phases:?})",
                r.trace
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{AnomalyDump, EventRecord, TxEvent};
    use crate::trace::{TraceBuilder, DETECTOR_TID};
    use std::path::PathBuf;

    const ALL: Expect = Expect {
        fpga: true,
        wal: true,
        sched: true,
        attribution: true,
    };

    fn good_attribution() -> Attribution {
        let mut stage_ns = [0u64; STAGE_COUNT];
        stage_ns[0] = 4_000;
        stage_ns[2] = 5_000;
        stage_ns[STAGE_COUNT - 1] = 1_000;
        Attribution {
            trace: 7,
            start_ns: 1_000,
            total_ns: 10_000,
            outcome: "ok",
            ingress_lane: 0,
            worker_lane: 1,
            attempts: 1,
            stage_ns,
        }
    }

    /// A trace with one tx span, one Detector slice inside it, and trace
    /// 7's flow triplet.
    fn good_trace() -> TraceBuilder {
        let mut tb = TraceBuilder::new();
        tb.complete("tx", "tx", TX_PID, 1, 5.0, 6.0, &[]);
        tb.complete("detector", "fpga", FPGA_PID, DETECTOR_TID, 7.0, 1.0, &[]);
        tb.flow('s', "req", 7, TX_PID, 0, 1.0);
        tb.flow('t', "req", 7, TX_PID, 1, 5.0);
        tb.flow('f', "req", 7, TX_PID, 1, 11.0);
        tb
    }

    fn good_dump() -> String {
        let event = |ns| EventRecord {
            ns,
            lane: 1,
            attempt: 1,
            trace: 7,
            event: TxEvent::Begin,
        };
        AnomalyDump {
            reason: "escalated",
            ns: 9_000,
            lane: 1,
            dropped: 0,
            events: vec![event(5_000), event(6_000), event(7_000)],
        }
        .to_text()
    }

    /// Writes a directory that passes under [`ALL`], built with the same
    /// renderers the service and [`export`] use.
    fn good_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rococo-rundir-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut reg = MetricsRegistry::new();
        for name in [
            "rococo_txkv_committed_total",
            "rococo_tm_commits_total",
            "rococo_fpga_requests_total",
            "rococo_faults_injected_total",
            "rococo_wal_fsyncs_total",
            "rococo_sched_migrations_total",
        ] {
            reg.counter(name, "fixture", &[], 1);
        }
        for path in ["htm", "sw"] {
            reg.counter("rococo_sched_routes_total", "fixture", &[("path", path)], 1);
            reg.counter(
                "rococo_sched_commits_total",
                "fixture",
                &[("path", path)],
                1,
            );
        }
        reg.gauge("rococo_sched_read_bound_words", "fixture", &[], 8.0);
        reg.gauge("rococo_sched_write_bound_words", "fixture", &[], 4.0);
        write_metrics(&dir, &reg).unwrap();
        put(&dir, TRACE_JSON, &good_trace().render());
        put(&dir, "anomaly-0-escalated.txt", &good_dump());
        put(
            &dir,
            ATTRIBUTION_JSON,
            &render_attribution(&[good_attribution()], 0),
        );
        dir
    }

    fn put(dir: &Path, name: &str, contents: &str) {
        std::fs::write(dir.join(name), contents).unwrap();
    }

    /// The message of the `Invalid` error `dir` fails with.
    fn failure(dir: &Path, expect: Expect) -> String {
        match check_run_dir(dir, expect) {
            Err(CheckError::Invalid(msg)) => msg,
            other => panic!("expected an Invalid error, got {other:?}"),
        }
    }

    #[test]
    fn a_good_directory_passes() {
        let dir = good_dir("good");
        let checked = check_run_dir(&dir, ALL).unwrap();
        assert_eq!(checked.anomalies, 1);
        assert_eq!(checked.attribution_rows, Some(1));
        assert_eq!(checked.json_metrics, checked.prom_samples);
        let (rows, incomplete) = read_attribution(&dir).unwrap();
        assert_eq!(incomplete, 0);
        assert_eq!(rows[0].stage_ns, good_attribution().stage_ns);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_expected_namespace_fails() {
        let dir = good_dir("namespace");
        let prom = std::fs::read_to_string(dir.join(METRICS_PROM)).unwrap();
        let without_wal: Vec<&str> = prom
            .lines()
            .filter(|l| !l.contains("rococo_wal_"))
            .collect();
        put(&dir, METRICS_PROM, &without_wal.join("\n"));
        let msg = failure(&dir, ALL);
        assert!(
            msg.starts_with("metrics.prom:") && msg.contains("rococo_wal_"),
            "{msg}"
        );
        // Not expected, not required.
        check_run_dir(&dir, Expect { wal: false, ..ALL }).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_malformed_exposition_line_fails() {
        let dir = good_dir("prom-line");
        let mut prom = std::fs::read_to_string(dir.join(METRICS_PROM)).unwrap();
        prom.push_str("rococo_txkv_broken{shard=0} 1\n");
        put(&dir, METRICS_PROM, &prom);
        let msg = failure(&dir, ALL);
        assert!(msg.starts_with("metrics.prom: line "), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_json_without_metrics_fails() {
        let dir = good_dir("metrics-json");
        put(&dir, METRICS_JSON, "{\"samples\":[]}");
        let msg = failure(&dir, ALL);
        assert!(
            msg.starts_with("metrics.json:") && msg.contains("\"metrics\""),
            "{msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_trace_with_zero_transaction_spans_is_its_own_outcome() {
        let dir = good_dir("no-spans");
        let mut tb = TraceBuilder::new();
        tb.complete("detector", "fpga", FPGA_PID, DETECTOR_TID, 7.0, 1.0, &[]);
        put(&dir, TRACE_JSON, &tb.render());
        assert_eq!(check_run_dir(&dir, ALL), Err(CheckError::NoTxSpans));
        assert!(CheckError::NoTxSpans.to_string().starts_with("trace.json:"));
        // Malformed is the other outcome.
        put(&dir, TRACE_JSON, "{\"traceEvents\":[");
        assert!(failure(&dir, ALL).starts_with("trace.json:"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_fpga_trace_with_no_overlapping_detector_slice_fails() {
        let dir = good_dir("no-overlap");
        let mut tb = TraceBuilder::new();
        tb.complete("tx", "tx", TX_PID, 1, 5.0, 6.0, &[]);
        // Starts exactly where the span ends: touching is not overlapping.
        tb.complete("detector", "fpga", FPGA_PID, DETECTOR_TID, 11.0, 1.0, &[]);
        for (ph, ts) in [('s', 1.0), ('t', 5.0), ('f', 11.0)] {
            tb.flow(ph, "req", 7, TX_PID, 1, ts);
        }
        put(&dir, TRACE_JSON, &tb.render());
        let msg = failure(&dir, ALL);
        assert!(
            msg.starts_with("trace.json:") && msg.contains("Detector"),
            "{msg}"
        );
        check_run_dir(&dir, Expect { fpga: false, ..ALL }).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_anomaly_dump_one_line_short_fails() {
        let dir = good_dir("anomaly");
        let dump = good_dump();
        let short: Vec<&str> = dump.lines().take(3).collect(); // header + 2 of 3
        put(&dir, "anomaly-0-escalated.txt", &short.join("\n"));
        let msg = failure(&dir, ALL);
        assert!(
            msg.starts_with("anomaly-0-escalated.txt:")
                && msg.contains("claims 3 events but body has 2"),
            "{msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_attribution_row_off_by_one_nanosecond_fails() {
        let dir = good_dir("attr-sum");
        let mut a = good_attribution();
        a.stage_ns[2] += 1;
        put(&dir, ATTRIBUTION_JSON, &render_attribution(&[a], 0));
        let msg = failure(&dir, ALL);
        assert!(
            msg.starts_with("attribution.json:") && msg.contains("sums to 10001"),
            "{msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_share_of_nan_fails() {
        let dir = good_dir("attr-nan");
        let a = Attribution {
            total_ns: 0,
            stage_ns: [0; STAGE_COUNT],
            ..good_attribution()
        };
        put(&dir, ATTRIBUTION_JSON, &render_attribution(&[a], 0));
        let msg = failure(&dir, ALL);
        assert!(
            msg.starts_with("attribution.json:") && msg.contains("is NaN"),
            "{msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sampled_trace_id_missing_its_t_flow_event_fails() {
        let dir = good_dir("flow");
        let mut tb = TraceBuilder::new();
        tb.complete("tx", "tx", TX_PID, 1, 5.0, 6.0, &[]);
        tb.complete("detector", "fpga", FPGA_PID, DETECTOR_TID, 7.0, 1.0, &[]);
        tb.flow('s', "req", 7, TX_PID, 0, 1.0);
        tb.flow('f', "req", 7, TX_PID, 1, 11.0);
        put(&dir, TRACE_JSON, &tb.render());
        let msg = failure(&dir, ALL);
        assert!(
            msg.starts_with("trace.json: trace 7:") && msg.contains("\"t\""),
            "{msg}"
        );
        // A shed request never reaches a worker: `s` and `f` suffice.
        let shed = Attribution {
            outcome: "shed",
            attempts: 0,
            ..good_attribution()
        };
        put(&dir, ATTRIBUTION_JSON, &render_attribution(&[shed], 0));
        check_run_dir(&dir, ALL).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attribution_is_required_only_when_expected() {
        let dir = good_dir("attr-missing");
        std::fs::remove_file(dir.join(ATTRIBUTION_JSON)).unwrap();
        assert!(failure(&dir, ALL).starts_with("attribution.json: cannot read"));
        let unsampled = Expect {
            attribution: false,
            ..ALL
        };
        assert_eq!(
            check_run_dir(&dir, unsampled).unwrap().attribution_rows,
            None
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
