//! Chrome trace-event (Perfetto-loadable) export.
//!
//! Renders JSON in the Trace Event Format's "JSON Object Format":
//! `{"traceEvents":[...],"displayTimeUnit":"ns"}` with complete (`"X"`)
//! duration events, instant (`"i"`) events and metadata (`"M"`) records.
//! Load the output at `ui.perfetto.dev` or `chrome://tracing`.
//!
//! Two producers use the builder:
//!
//! - [`build_tx_trace`] turns drained flight-recorder events into
//!   per-transaction spans (one track per lane, pid
//!   [`TX_PID`]) with validation sub-spans, and projects each verdict's
//!   modelled Detector/Manager stage occupancy onto the FPGA process
//!   (pid [`FPGA_PID`]) *within the wall-clock validation window*, so
//!   transaction spans and pipeline stage slices share one timeline and
//!   genuinely overlap. The stage slices carry their model-time lengths
//!   in `args` — wall-window projection changes their scale, never their
//!   proportions.
//! - The `trace_dump` bench bin drives the cycle-level
//!   `PipelinedValidator` directly and emits exact model-time slices
//!   through the same builder.

use crate::json::escape;
use crate::recorder::{EventRecord, TxEvent};
use std::fmt::Write as _;

/// Trace pid under which per-transaction (per-lane) tracks are emitted.
pub const TX_PID: u32 = 1;
/// Trace pid under which FPGA pipeline stage tracks are emitted.
pub const FPGA_PID: u32 = 2;
/// Detector-stage track tid within [`FPGA_PID`].
pub const DETECTOR_TID: u32 = 1;
/// Manager-stage track tid within [`FPGA_PID`].
pub const MANAGER_TID: u32 = 2;

/// One typed argument value for an event's `args` block.
#[derive(Debug, Clone)]
pub enum Arg {
    /// Rendered as a JSON number.
    Num(f64),
    /// Rendered as a JSON string.
    Str(String),
}

impl From<u64> for Arg {
    fn from(v: u64) -> Self {
        Arg::Num(v as f64)
    }
}
impl From<u32> for Arg {
    fn from(v: u32) -> Self {
        Arg::Num(v as f64)
    }
}
impl From<f64> for Arg {
    fn from(v: f64) -> Self {
        Arg::Num(v)
    }
}
impl From<&str> for Arg {
    fn from(v: &str) -> Self {
        Arg::Str(v.to_string())
    }
}
impl From<String> for Arg {
    fn from(v: String) -> Self {
        Arg::Str(v)
    }
}

/// Incremental builder for a trace-event JSON document.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<String>,
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event has been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a complete (`"X"`) duration event. Timestamps and durations
    /// are microseconds (the trace-event unit); durations below 1 ns are
    /// clamped up so viewers render the slice.
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event field list
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, Arg)],
    ) {
        let mut e = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{ts},\"dur\":{dur}",
            escape(name),
            escape(cat),
            ts = fmt_us(ts_us),
            dur = fmt_us(dur_us.max(0.001)),
        );
        push_args(&mut e, args);
        e.push('}');
        self.events.push(e);
    }

    /// Adds a thread-scoped instant (`"i"`) event.
    pub fn instant(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        ts_us: f64,
        args: &[(&str, Arg)],
    ) {
        let mut e = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\
             \"tid\":{tid},\"ts\":{ts}",
            escape(name),
            escape(cat),
            ts = fmt_us(ts_us),
        );
        push_args(&mut e, args);
        e.push('}');
        self.events.push(e);
    }

    /// Adds a flow event (`"s"` start / `"t"` step / `"f"` finish).
    /// Events sharing an `id` are linked by an arrow in the viewer,
    /// which is how one request's spans are connected across worker
    /// threads: the flow id is the request's trace id.
    pub fn flow(&mut self, ph: char, name: &str, id: u64, pid: u32, tid: u32, ts_us: f64) {
        debug_assert!(matches!(ph, 's' | 't' | 'f'));
        let bp = if ph == 'f' { ",\"bp\":\"e\"" } else { "" };
        self.events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"{ph}\",\"id\":{id},\"pid\":{pid},\
             \"tid\":{tid},\"ts\":{ts}{bp}}}",
            escape(name),
            ts = fmt_us(ts_us),
        ));
    }

    /// Names a process track.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// Names a thread track.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// Renders the full JSON document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(e);
        }
        out.push_str("]}");
        out
    }
}

fn push_args(e: &mut String, args: &[(&str, Arg)]) {
    if args.is_empty() {
        return;
    }
    e.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            e.push(',');
        }
        match v {
            Arg::Num(n) => {
                let n = if n.is_finite() { *n } else { 0.0 };
                let _ = write!(e, "\"{}\":{n}", escape(k));
            }
            Arg::Str(s) => {
                let _ = write!(e, "\"{}\":\"{}\"", escape(k), escape(s));
            }
        }
    }
    e.push('}');
}

/// Formats a microsecond quantity with fixed sub-ns precision so output
/// is deterministic and never uses exponent notation.
fn fmt_us(v: f64) -> String {
    let s = format!("{v:.4}");
    // Trim trailing zeros but keep at least one digit after the point
    // trimmed entirely when the value is integral.
    let t = s.trim_end_matches('0').trim_end_matches('.');
    if t.is_empty() {
        "0".to_string()
    } else {
        t.to_string()
    }
}

/// Builds a trace document from drained flight-recorder events (plus
/// `(lane, thread name)` pairs from
/// [`lane_names`](crate::recorder::lane_names) for track labels).
///
/// Per lane: each attempt becomes a `tx` span from its `Begin` to its
/// `Commit`/`Abort` (attempts still open when the recorder drained are
/// skipped); `ValidateSubmit`→`Verdict` becomes a nested `validate`
/// span, and the verdict's modelled Detector/Manager occupancy is
/// projected into that wall-clock window on the FPGA process tracks.
/// WAL, backoff, fault and anomaly events render as instants.
pub fn build_tx_trace(events: &[EventRecord], lanes: &[(u32, String)]) -> String {
    let mut tb = TraceBuilder::new();
    tb.process_name(TX_PID, "transactions");
    tb.process_name(FPGA_PID, "fpga-pipeline (model, wall-projected)");
    tb.thread_name(FPGA_PID, DETECTOR_TID, "Detector");
    tb.thread_name(FPGA_PID, MANAGER_TID, "Manager");

    let mut seen_lanes: Vec<u32> = events.iter().map(|e| e.lane).collect();
    seen_lanes.sort_unstable();
    seen_lanes.dedup();
    for lane in &seen_lanes {
        let label = lanes
            .iter()
            .find(|(id, _)| id == lane)
            .map(|(_, n)| n.as_str())
            .unwrap_or("worker");
        tb.thread_name(TX_PID, *lane, &format!("{label} (lane {lane})"));
    }

    for lane in seen_lanes {
        let mut begin_ns: Option<u64> = None;
        let mut submit_ns: Option<u64> = None;
        let mut attempt = 0u64;
        for e in events.iter().filter(|e| e.lane == lane) {
            let ts = e.ns as f64 / 1000.0;
            match e.event {
                TxEvent::Ingress { shard, class } => {
                    tb.instant(
                        "ingress",
                        "trace",
                        TX_PID,
                        lane,
                        ts,
                        &[
                            ("trace", e.trace.into()),
                            ("shard", shard.into()),
                            ("class", class.into()),
                        ],
                    );
                    if e.trace != 0 {
                        tb.flow('s', "req", e.trace, TX_PID, lane, ts);
                    }
                }
                TxEvent::Dequeue { wait_ns } => {
                    tb.instant(
                        "dequeue",
                        "trace",
                        TX_PID,
                        lane,
                        ts,
                        &[("trace", e.trace.into()), ("wait_ns", wait_ns.into())],
                    );
                    if e.trace != 0 {
                        tb.flow('t', "req", e.trace, TX_PID, lane, ts);
                    }
                }
                TxEvent::Reply { outcome } => {
                    tb.instant(
                        "reply",
                        "trace",
                        TX_PID,
                        lane,
                        ts,
                        &[("trace", e.trace.into()), ("outcome", outcome.into())],
                    );
                    if e.trace != 0 {
                        tb.flow('f', "req", e.trace, TX_PID, lane, ts);
                    }
                }
                TxEvent::Begin => {
                    begin_ns = Some(e.ns);
                    submit_ns = None;
                    attempt = e.attempt;
                }
                TxEvent::ValidateSubmit { .. } => submit_ns = Some(e.ns),
                TxEvent::Verdict {
                    verdict,
                    model_ns,
                    detector_ns,
                    manager_ns,
                } => {
                    if let Some(sub) = submit_ns.take() {
                        let wall = (e.ns.saturating_sub(sub)).max(1) as f64;
                        tb.complete(
                            "validate",
                            "validate",
                            TX_PID,
                            lane,
                            sub as f64 / 1000.0,
                            wall / 1000.0,
                            &[("verdict", verdict.into()), ("model_ns", model_ns.into())],
                        );
                        // Project model-time stage occupancy onto the
                        // wall-clock validation window: CCI transfer
                        // halves bracket the Detector and Manager
                        // stages, scaled by wall/model.
                        let model = model_ns.max(1) as f64;
                        let scale = wall / model;
                        let cci = (model - (detector_ns + manager_ns) as f64).max(0.0);
                        let det_start = sub as f64 + (cci / 2.0) * scale;
                        let det_dur = detector_ns as f64 * scale;
                        let mgr_start = det_start + det_dur;
                        let mgr_dur = manager_ns as f64 * scale;
                        let margs: &[(&str, Arg)] = &[
                            ("lane", lane.into()),
                            ("attempt", e.attempt.into()),
                            ("model_ns", model_ns.into()),
                        ];
                        tb.complete(
                            "detector",
                            "fpga",
                            FPGA_PID,
                            DETECTOR_TID,
                            det_start / 1000.0,
                            det_dur / 1000.0,
                            margs,
                        );
                        tb.complete(
                            "manager",
                            "fpga",
                            FPGA_PID,
                            MANAGER_TID,
                            mgr_start / 1000.0,
                            mgr_dur / 1000.0,
                            margs,
                        );
                    }
                }
                TxEvent::Commit { seq } => {
                    if let Some(b) = begin_ns.take() {
                        tb.complete(
                            "tx",
                            "tx",
                            TX_PID,
                            lane,
                            b as f64 / 1000.0,
                            (e.ns.saturating_sub(b)) as f64 / 1000.0,
                            &[
                                ("outcome", "commit".into()),
                                ("seq", seq.into()),
                                ("attempt", attempt.into()),
                            ],
                        );
                    }
                }
                TxEvent::Abort { kind } => {
                    if let Some(b) = begin_ns.take() {
                        tb.complete(
                            "tx",
                            "tx",
                            TX_PID,
                            lane,
                            b as f64 / 1000.0,
                            (e.ns.saturating_sub(b)) as f64 / 1000.0,
                            &[
                                ("outcome", "abort".into()),
                                ("kind", kind.into()),
                                ("attempt", attempt.into()),
                            ],
                        );
                    }
                }
                TxEvent::Escalated { consecutive_aborts } => tb.instant(
                    "escalated",
                    "anomaly",
                    TX_PID,
                    lane,
                    ts,
                    &[("consecutive_aborts", consecutive_aborts.into())],
                ),
                TxEvent::WalAppend { seq, writes } => tb.instant(
                    "wal-append",
                    "wal",
                    TX_PID,
                    lane,
                    ts,
                    &[("seq", seq.into()), ("writes", writes.into())],
                ),
                TxEvent::WalFsync { records, ns } => tb.complete(
                    "wal-fsync",
                    "wal",
                    TX_PID,
                    lane,
                    (e.ns.saturating_sub(ns)) as f64 / 1000.0,
                    ns as f64 / 1000.0,
                    &[("records", records.into())],
                ),
                TxEvent::Backoff { attempt, delay_ns } => tb.instant(
                    "backoff",
                    "retry",
                    TX_PID,
                    lane,
                    ts,
                    &[("attempt", attempt.into()), ("delay_ns", delay_ns.into())],
                ),
                TxEvent::Fault { kind } => {
                    tb.instant("fault", "fault", TX_PID, lane, ts, &[("kind", kind.into())])
                }
                TxEvent::DurabilityLost => {
                    tb.instant("durability-lost", "anomaly", TX_PID, lane, ts, &[])
                }
                TxEvent::WorkerPanic => {
                    tb.instant("worker-panic", "anomaly", TX_PID, lane, ts, &[])
                }
                TxEvent::ReplShip {
                    first_seq,
                    records,
                    follower,
                } => tb.instant(
                    "repl-ship",
                    "repl",
                    TX_PID,
                    lane,
                    ts,
                    &[
                        ("first_seq", first_seq.into()),
                        ("records", records.into()),
                        ("follower", follower.into()),
                    ],
                ),
                TxEvent::ReplApply {
                    follower,
                    next_seq,
                    records,
                } => tb.instant(
                    "repl-apply",
                    "repl",
                    TX_PID,
                    lane,
                    ts,
                    &[
                        ("follower", follower.into()),
                        ("next_seq", next_seq.into()),
                        ("records", records.into()),
                    ],
                ),
                TxEvent::Failover { epoch, elected } => tb.instant(
                    "failover",
                    "anomaly",
                    TX_PID,
                    lane,
                    ts,
                    &[("epoch", epoch.into()), ("elected", elected.into())],
                ),
                TxEvent::Route { class, path } => tb.instant(
                    "route",
                    "sched",
                    TX_PID,
                    lane,
                    ts,
                    &[("class", class.into()), ("path", path.into())],
                ),
                TxEvent::RouteDefer { class, reason } => tb.instant(
                    "route-defer",
                    "sched",
                    TX_PID,
                    lane,
                    ts,
                    &[("class", class.into()), ("reason", reason.into())],
                ),
                TxEvent::ReadSet { .. } | TxEvent::WriteSet { .. } => {
                    tb.instant(
                        e.event.name(),
                        "tx",
                        TX_PID,
                        lane,
                        ts,
                        &[(
                            "len",
                            match e.event {
                                TxEvent::ReadSet { len } | TxEvent::WriteSet { len } => len.into(),
                                _ => unreachable!(),
                            },
                        )],
                    );
                }
            }
        }
    }
    tb.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn rec(ns: u64, lane: u32, attempt: u64, event: TxEvent) -> EventRecord {
        EventRecord {
            ns,
            lane,
            attempt,
            trace: 0,
            event,
        }
    }

    /// Trace events of a given name as (ts, dur) pairs.
    fn spans(doc: &Json, name: &str) -> Vec<(f64, f64)> {
        doc.get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .map(|e| {
                (
                    e.get("ts").unwrap().as_f64().unwrap(),
                    e.get("dur").map(|d| d.as_f64().unwrap()).unwrap_or(0.0),
                )
            })
            .collect()
    }

    #[test]
    fn builder_renders_valid_json() {
        let mut tb = TraceBuilder::new();
        tb.process_name(1, "p");
        tb.thread_name(1, 2, "t \"quoted\"");
        tb.complete("span", "cat", 1, 2, 10.5, 3.25, &[("k", 7u64.into())]);
        tb.instant("mark", "cat", 1, 2, 11.0, &[("s", "v".into())]);
        let doc = Json::parse(&tb.render()).expect("valid JSON");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn tx_span_overlaps_fpga_stage_slices() {
        let events = vec![
            rec(1_000, 0, 1, TxEvent::Begin),
            rec(
                2_000,
                0,
                1,
                TxEvent::ValidateSubmit {
                    reads: 4,
                    writes: 2,
                },
            ),
            rec(
                8_000,
                0,
                1,
                TxEvent::Verdict {
                    verdict: "commit",
                    model_ns: 3_000,
                    detector_ns: 1_000,
                    manager_ns: 1_000,
                },
            ),
            rec(9_000, 0, 1, TxEvent::Commit { seq: 5 }),
        ];
        let doc = Json::parse(&build_tx_trace(&events, &[(0, "w0".into())])).unwrap();
        let tx = spans(&doc, "tx");
        let det = spans(&doc, "detector");
        let mgr = spans(&doc, "manager");
        assert_eq!(tx.len(), 1);
        assert_eq!(det.len(), 1);
        assert_eq!(mgr.len(), 1);
        // Stage slices land inside the wall-clock validate window, which
        // is inside the tx span: genuine overlap on the shared timeline.
        let (tx_ts, tx_dur) = tx[0];
        for (ts, dur) in det.iter().chain(&mgr) {
            assert!(*ts >= tx_ts && ts + dur <= tx_ts + tx_dur + 1e-6);
        }
        // Manager follows detector contiguously.
        assert!((det[0].0 + det[0].1 - mgr[0].0).abs() < 1e-6);
        // Projection preserves det:mgr proportions (1:1 here).
        assert!((det[0].1 - mgr[0].1).abs() < 1e-6);
    }

    #[test]
    fn aborted_attempts_and_instants_render() {
        let events = vec![
            rec(0, 3, 1, TxEvent::Begin),
            rec(500, 3, 1, TxEvent::Abort { kind: "fpga-cycle" }),
            rec(
                600,
                3,
                1,
                TxEvent::Backoff {
                    attempt: 1,
                    delay_ns: 250,
                },
            ),
            rec(700, 3, 2, TxEvent::Begin),
            rec(900, 3, 2, TxEvent::WalAppend { seq: 1, writes: 2 }),
            rec(950, 3, 2, TxEvent::Commit { seq: 1 }),
        ];
        let doc = Json::parse(&build_tx_trace(&events, &[])).unwrap();
        assert_eq!(spans(&doc, "tx").len(), 2);
        assert_eq!(spans(&doc, "backoff").len(), 1);
        assert_eq!(spans(&doc, "wal-append").len(), 1);
    }

    #[test]
    fn flow_events_link_request_across_lanes() {
        let mut events = vec![
            rec(100, 0, 0, TxEvent::Ingress { shard: 1, class: 0 }),
            rec(500, 3, 0, TxEvent::Dequeue { wait_ns: 400 }),
            rec(900, 3, 0, TxEvent::Reply { outcome: "ok" }),
        ];
        for e in &mut events {
            e.trace = 9;
        }
        let doc = Json::parse(&build_tx_trace(&events, &[])).unwrap();
        let flows: Vec<(String, f64)> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("flow"))
            .map(|e| {
                (
                    e.get("ph").unwrap().as_str().unwrap().to_string(),
                    e.get("id").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let phases: Vec<&str> = flows.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(phases, ["s", "t", "f"]);
        assert!(flows.iter().all(|&(_, id)| id == 9.0));
        // The ingress/dequeue/reply instants render too.
        assert_eq!(spans(&doc, "ingress").len(), 1);
        assert_eq!(spans(&doc, "dequeue").len(), 1);
        assert_eq!(spans(&doc, "reply").len(), 1);
    }

    #[test]
    fn sub_nanosecond_durations_are_clamped_visible() {
        let mut tb = TraceBuilder::new();
        tb.complete("tiny", "t", 1, 1, 0.0, 0.0, &[]);
        let doc = Json::parse(&tb.render()).unwrap();
        let (_, dur) = spans(&doc, "tiny")[0];
        assert!(dur > 0.0);
    }
}
