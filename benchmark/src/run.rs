//! One workload, start to finish: the untraced run behind the end-to-end
//! metrics and the traced run behind the per-layer ledger.

use crate::kv::{self, KvSegment};
use crate::probes;
use crate::replay::{self, ReplaySegment};
use crate::results::{MetricValue, Run, PROBES};
use crate::spans::{Spans, PROBE_TRACK, REQUEST_TRACKS};
use crate::spec::{KvSpec, Metric, Workload, END_TO_END, PER_LAYER, SEGMENTS, WINDOW};
use crate::stats::median;
use rococo_sched::{HybridTm, SchedSnapshot};
use rococo_server::BackendChoice;
use rococo_stm::{RococoTm, TinyStm, TsxHtm};
use rococo_wal::FsyncPolicy;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

pub struct Settings<'a> {
    pub seed: u64,
    /// Timed seconds of the whole run.
    pub seconds: f64,
    /// Directory the WAL segments and probes write under.
    pub scratch: &'a Path,
}

impl Settings<'_> {
    /// Length of one of the untraced run's segments.
    fn segment_secs(&self) -> f64 {
        self.seconds / SEGMENTS as f64
    }

    /// Length of one of the traced run's segments: `LEDGER_ROUNDS` rounds of
    /// up to six of them, the direct run and the probes (18 % of
    /// `seconds`) together measure for about `seconds`.
    fn ledger_secs(&self) -> f64 {
        self.seconds / 24.0
    }
}

/// Rounds of the traced run; each runs the workload every way once.
const LEDGER_ROUNDS: usize = 3;

/// One service segment on the backend `backend` names.
fn kv_segment<const TRACED: bool>(
    backend: BackendChoice,
    workload: Workload,
    spec: &KvSpec,
    segment: usize,
    secs: f64,
    s: &Settings,
) -> (KvSegment, Option<SchedSnapshot>) {
    // One monomorphised segment runner per backend type.
    macro_rules! on {
        ($make:expr) => {
            kv::run_segment::<_, TRACED>($make, workload, spec, s.seed, segment, secs, s.scratch)
        };
    }
    match backend {
        BackendChoice::TinyStm => (on!(TinyStm::with_config).0, None),
        BackendChoice::Htm => (on!(TsxHtm::with_config).0, None),
        BackendChoice::Rococo => (on!(RococoTm::with_config).0, None),
        BackendChoice::Hybrid => {
            let (seg, tm) = on!(HybridTm::with_config);
            (seg, Some(tm.sched_snapshot()))
        }
    }
}

/// Per-segment samples of the timing metrics, and what the checks found.
#[derive(Default)]
struct Tally {
    throughput: Vec<f64>,
    p50_us: Vec<f64>,
    setup_s: Vec<f64>,
    hwm_mib: Vec<f64>,
    latency_samples: u64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    errors: usize,
}

impl Tally {
    fn kv(&mut self, seg: &KvSegment) {
        self.throughput.push(seg.timed.throughput());
        self.p50_us.push(seg.timed.latency.quantile(0.50) / 1e3);
        self.setup_s.push(seg.setup_s);
        self.hwm_mib.push(seg.hwm_mib);
        self.latency_samples += seg.timed.latency.count();
        self.attempted += seg.total.issued;
        self.failed += seg.total.not_ok();
        self.check(&seg.errors);
    }

    fn replay(&mut self, seg: &ReplaySegment) {
        self.throughput.push(seg.throughput());
        self.p50_us.push(seg.block.quantile(0.50) / 1e3);
        self.setup_s.push(seg.setup_s);
        self.hwm_mib.push(seg.hwm_mib);
        self.latency_samples += seg.block.count();
        self.attempted += seg.verdicts;
        self.check(&seg.errors);
    }

    fn check(&mut self, errors: &[String]) {
        self.errors += errors.len();
        self.notes
            .extend(errors.iter().map(|e| format!("CHECK FAILED: {e}")));
    }

    /// A run is correct when every check passed *and* every request was
    /// served: a request that failed, was shed or went unanswered leaves
    /// the sums the checks compare intact, so it is counted here.
    fn into_run(mut self, workload: Workload, traced: bool, metrics: Vec<MetricValue>) -> Run {
        if self.failed > 0 {
            let unserved = format!(
                "{} of {} requests failed, were shed or went unanswered",
                self.failed, self.attempted
            );
            self.check(&[unserved]);
        }
        Run {
            workload: workload.name().to_string(),
            traced,
            correct: self.errors == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            notes: self.notes,
        }
    }
}

/// The untraced run: `SEGMENTS` segments, each timing metric the median of
/// the segment values.
pub fn untraced(workload: Workload, s: &Settings) -> Run {
    let mut tally = Tally::default();
    for segment in 0..SEGMENTS {
        match workload.kv() {
            Some(spec) => {
                let secs = s.segment_secs();
                let (seg, _) = kv_segment::<false>(spec.backend, workload, &spec, segment, secs, s);
                tally.kv(&seg);
            }
            None => tally.replay(&replay::run_segment::<false>(
                s.seed,
                segment,
                s.segment_secs(),
            )),
        }
    }
    if workload == Workload::EngineReplay && !replay::commits_are_serializable(s.seed) {
        tally.check(&["the engine committed a dependency cycle".to_string()]);
    }
    tally.notes.push(format!(
        "p50_us: median of {SEGMENTS} segment medians over {} latency samples",
        tally.latency_samples
    ));
    if let Some(policy) = workload.kv().and_then(|spec| spec.wal) {
        tally.notes.push(format!(
            "WAL directories under {}, FsyncPolicy::{policy:?}",
            s.scratch.display()
        ));
    }
    // The process's high-water mark only ever rises, and from the second
    // segment on it holds the first segment's output checks (recovery loads
    // a whole log): the first reading is the workload's own peak.
    let rss = tally.hwm_mib[0];
    let samples = |name: &str| match name {
        "throughput_rps" => tally.throughput.clone(),
        "p50_us" => tally.p50_us.clone(),
        "setup_s" => tally.setup_s.clone(),
        "peak_rss_mib" => vec![rss],
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let segments = samples(m.name);
            MetricValue {
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                value: median(&segments),
                segments,
            }
        })
        .collect();
    tally.into_run(workload, false, metrics)
}

/// Traced minus untraced, as a percentage of untraced throughput.
fn overhead_pct(untraced_rps: f64, other_rps: f64) -> f64 {
    (untraced_rps - other_rps) / untraced_rps * 100.0
}

/// The measured part of the ledger, in `PER_LAYER`'s order.
fn ledger_metrics(measured: &BTreeMap<&'static str, f64>) -> Vec<MetricValue> {
    PER_LAYER
        .iter()
        .filter_map(|m: &Metric| {
            measured.get(m.name).map(|&value| MetricValue {
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                value,
                segments: Vec::new(),
            })
        })
        .collect()
}

fn declared(name: &str) -> bool {
    PER_LAYER.iter().any(|m| m.name == name)
}

/// The workload-independent probes, once per invocation, as a run of their
/// own: no workload changes what they measure.
pub fn probes(s: &Settings, spans: &mut Spans) -> Run {
    let measured: BTreeMap<&'static str, f64> =
        probes::run_all(spans, s.seed, s.seconds, s.scratch)
            .into_iter()
            .inspect(|(name, _)| assert!(declared(name), "{name} is not a per-layer metric"))
            .collect();
    Run {
        workload: PROBES.to_string(),
        traced: true,
        correct: true,
        attempted: measured.len() as u64,
        failed: 0,
        metrics: ledger_metrics(&measured),
        notes: Vec::new(),
    }
}

/// The traced run: segment 0 of the workload again, three rounds of:
/// untraced, traced, on the reference backend, on the hybrid router, with
/// the flight recorder on, with a WAL fsynced per batch where the workload
/// has a WAL — and once without the service at all. It reports what the
/// workload measures; a layer it does not enter has no row.
pub fn traced(workload: Workload, s: &Settings, spans: &mut Spans) -> Run {
    let mut tally = Tally::default();
    let mut measured: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut set = |name: &'static str, value: f64| {
        assert!(declared(name), "{name} is not a per-layer metric");
        measured.insert(name, value);
    };

    match workload.kv() {
        Some(spec) => {
            let reference_backend = match spec.backend {
                BackendChoice::TinyStm => BackendChoice::Rococo,
                _ => BackendChoice::TinyStm,
            };
            // Per round one segment of segment 0's stream each way, side by
            // side in time; every throughput below is the median of the
            // rounds, so a noisy second does not pose as an overhead.
            let secs = s.ledger_secs();
            let mut rps: [Vec<f64>; 6] = Default::default();
            let mut kept = None;
            // The workload's stream with every batch of the log fsynced
            // before its ack: what `durability=always` costs on the
            // checkout's device, beside `wal.device_fsync_us`.
            let fsynced_spec = spec.wal.map(|_| KvSpec {
                wal: Some(FsyncPolicy::Always),
                ..spec
            });
            for _ in 0..LEDGER_ROUNDS {
                let (plain, _) = kv_segment::<false>(spec.backend, workload, &spec, 0, secs, s);
                let (traced, _) = kv_segment::<true>(spec.backend, workload, &spec, 0, secs, s);
                let (reference, _) =
                    kv_segment::<false>(reference_backend, workload, &spec, 0, secs, s);
                let (hybrid, sched) =
                    kv_segment::<false>(BackendChoice::Hybrid, workload, &spec, 0, secs, s);
                rococo_telemetry::enable(rococo_telemetry::DEFAULT_RING_EVENTS);
                let (recorded, _) = kv_segment::<false>(spec.backend, workload, &spec, 0, secs, s);
                rococo_telemetry::disable();
                drop(rococo_telemetry::drain_events());
                let fsynced = fsynced_spec
                    .as_ref()
                    .map(|spec| kv_segment::<false>(spec.backend, workload, spec, 0, secs, s).0);
                let ways = [
                    Some(&plain),
                    Some(&traced),
                    Some(&reference),
                    Some(&hybrid),
                    Some(&recorded),
                    fsynced.as_ref(),
                ];
                for (seg, rps) in ways.into_iter().zip(&mut rps) {
                    let Some(seg) = seg else { continue };
                    rps.push(seg.timed.throughput());
                    tally.attempted += seg.total.issued;
                    tally.failed += seg.total.not_ok();
                    tally.check(&seg.errors);
                }
                kept.get_or_insert((plain, traced, sched, fsynced));
            }
            let [rps, traced_rps, reference_rps, hybrid_rps, recorded_rps, always_rps] =
                rps.map(|way| median(&way));
            // Counters and spans come from the first round.
            let (plain, traced, sched, fsynced) = kept.expect("at least one round");

            let direct = match spec.backend {
                BackendChoice::TinyStm => {
                    kv::run_direct(TinyStm::with_config, workload, &spec, s.seed, 0, secs)
                }
                _ => kv::run_direct(RococoTm::with_config, workload, &spec, s.seed, 0, secs),
            };
            let direct_ns = direct.unwrap_or_else(|e| {
                tally.check(&[format!("direct run: {e}")]);
                0.0
            });

            let served = &plain.report.aggregate;
            set("stm.direct_ns", direct_ns);
            set(
                "stm.abort_rate",
                served.total_aborts() as f64 / (served.committed + served.retries).max(1) as f64,
            );
            set("stm.retries", served.retries as f64);
            set("stm.validation_us", plain.tm.mean_validation_us());
            set("stm.ref_rps", reference_rps);
            set("stm.ref_ratio", rps / reference_rps);
            if let Some(engine) = plain.engine {
                set("fpga.verdicts", engine.requests as f64);
                set("fpga.abort_cycle", engine.aborts_cycle as f64);
                set("fpga.abort_window", engine.aborts_window as f64);
            }
            let sched = sched.expect("the hybrid segment reports its router");
            let routes = (sched.routes_htm + sched.routes_sw).max(1);
            set("sched.hybrid_rps", hybrid_rps);
            set(
                "sched.routes_sw_share",
                sched.routes_sw as f64 / routes as f64,
            );
            set(
                "server.submit_ns",
                traced.timed.submit_ns as f64 / traced.timed.counts.issued.max(1) as f64,
            );
            set(
                "server.wait_share",
                traced.timed.wait_ns as f64 / traced.timed.elapsed.as_nanos() as f64,
            );
            set("server.hop_ns", 1e9 / rps - direct_ns);
            set(
                "server.batch_mean",
                served.batch_jobs as f64 / served.batches.max(1) as f64,
            );
            set("server.shed", served.shed as f64);
            set("server.p99_us", plain.timed.latency.quantile(0.99) / 1e3);
            set("server.p999_us", plain.timed.latency.quantile(0.999) / 1e3);
            if let Some(wal) = &plain.report.wal {
                set(
                    "wal.bytes_per_record",
                    wal.appended_bytes as f64 / wal.acked_records.max(1) as f64,
                );
                set("wal.recover_ms", plain.recover_ms);
            }
            if let Some(wal) = fsynced.and_then(|seg| seg.report.wal) {
                set("wal.always_rps", always_rps);
                set("wal.mean_batch", wal.mean_batch());
                set("wal.fsyncs", wal.fsyncs as f64);
                set(
                    "wal.fsync_p50_us",
                    wal.fsync_ns.quantile_upper(0.5) as f64 / 1e3,
                );
            }
            set(
                "telemetry.recorder_overhead_pct",
                overhead_pct(rps, recorded_rps),
            );
            set("bench.trace_overhead_pct", overhead_pct(rps, traced_rps));
            request_spans(spans, &traced);
        }
        None => {
            let secs = s.ledger_secs();
            let mut rps: [Vec<f64>; 2] = Default::default();
            let mut kept = None;
            for _ in 0..LEDGER_ROUNDS {
                let plain = replay::run_segment::<false>(s.seed, 0, secs);
                let traced = replay::run_segment::<true>(s.seed, 0, secs);
                for (seg, rps) in [&plain, &traced].into_iter().zip(&mut rps) {
                    rps.push(seg.throughput());
                    tally.attempted += seg.verdicts;
                    tally.check(&seg.errors);
                }
                kept.get_or_insert((plain, traced));
            }
            let [rps, traced_rps] = rps.map(|way| median(&way));
            let (plain, traced) = kept.expect("at least one round");
            set("server.p99_us", plain.block.quantile(0.99) / 1e3);
            set("fpga.verdicts", plain.pass_stats.requests as f64);
            set("fpga.abort_cycle", plain.pass_stats.aborts_cycle as f64);
            set("fpga.abort_window", plain.pass_stats.aborts_window as f64);
            let guards = replay::guards(s.seed);
            set("fpga.exact_inflation", guards.exact_inflation);
            set("cc.rococo_abort_rate", guards.rococo_abort_rate);
            set("cc.tocc_abort_rate", guards.tocc_abort_rate);
            set("bench.trace_overhead_pct", overhead_pct(rps, traced_rps));
            for (i, [from, to]) in traced.spans.iter().enumerate() {
                let at = |ns: u64| traced.started + Duration::from_nanos(ns);
                spans.span(
                    PROBE_TRACK,
                    "fpga.process_block",
                    "",
                    i as u64,
                    at(*from),
                    at(*to),
                );
            }
        }
    }

    let metrics = ledger_metrics(&measured);
    tally.into_run(workload, true, metrics)
}

/// Per kept request a `request` span with children `server.submit` and
/// `server.wait`; what is left of `request` is time the request was in
/// flight while the generator did other work.
fn request_spans(spans: &mut Spans, seg: &KvSegment) {
    let at = |ns: u64| seg.timed.started + Duration::from_nanos(ns);
    for (i, [submit, submitted, wait, replied]) in seg.timed.spans.iter().enumerate() {
        let track = REQUEST_TRACKS + (i % WINDOW) as u32;
        let id = i as u64;
        spans.span(track, "request", "", id, at(*submit), at(*replied));
        spans.span(
            track,
            "server.submit",
            "request",
            id,
            at(*submit),
            at(*submitted),
        );
        spans.span(track, "server.wait", "request", id, at(*wait), at(*replied));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(attempted: u64, failed: u64) -> Tally {
        Tally {
            attempted,
            failed,
            ..Tally::default()
        }
    }

    #[test]
    fn a_run_is_correct_only_if_every_request_was_served() {
        let served = tally(1_000, 0).into_run(Workload::KvRead, false, Vec::new());
        assert!(served.correct);
        assert!(served.notes.is_empty());

        // Shed requests break no sum the segment checks compare.
        let shed = tally(1_000, 5).into_run(Workload::KvRead, false, Vec::new());
        assert!(!shed.correct);
        assert_eq!(shed.failed, 5);
        assert!(
            shed.notes[0].contains("5 of 1000 requests"),
            "{:?}",
            shed.notes
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut t = tally(1_000, 0);
        t.check(&["conservation broken".to_string()]);
        assert!(!t.into_run(Workload::KvDurable, true, Vec::new()).correct);
    }
}
