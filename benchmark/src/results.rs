//! What one run reports, and its JSON forms: the driver's one-line object
//! and the `results.json` that `compare` reads back.

use crate::spec::{Metric, END_TO_END, PER_LAYER};
use rococo_telemetry::json::{escape, Json};
use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// The per-segment values `value` is the median of; empty for a metric
    /// measured once.
    pub segments: Vec<f64>,
}

/// One workload, traced or untraced, or the traced run's probes (under
/// the workload name [`PROBES`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub traced: bool,
    /// Every output check passed and no request failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricValue>,
    /// Failed checks and remarks (sample counts, where the WAL lived).
    pub notes: Vec<String>,
}

/// What the workload-independent probes are listed under.
pub const PROBES: &str = "probes";

/// A number as JSON: every digit, and 0 for what JSON cannot hold.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Run {
    /// The `workload metric value unit` rows.
    pub fn rows(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{} {} {} {}",
                self.workload,
                m.name,
                num(m.value),
                m.unit
            );
        }
        out
    }

    /// The driver's object: `correct`, `attempted`, `failed`, `metrics`.
    /// The driver wants every declared metric of the run's kind on every
    /// workload: one this run did not measure is taken from `probes`, and
    /// reads 0 if it is not there either.
    pub fn driver_line(&self, probes: Option<&Run>) -> String {
        let declared: &[Metric] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let measured = |name: &str| {
            let own = self.metrics.iter();
            let shared = probes.into_iter().flat_map(|p| &p.metrics);
            own.chain(shared).find(|m| m.name == name)
        };
        let metrics: Vec<String> = declared
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(m.name),
                    num(measured(m.name).map_or(0.0, |v| v.value)),
                    escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let segments: Vec<String> = m.segments.iter().map(|v| num(*v)).collect();
                format!(
                    "      \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"segments\": [{}]}}",
                    escape(&m.name),
                    num(m.value),
                    escape(&m.unit),
                    segments.join(", ")
                )
            })
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", escape(n)))
            .collect();
        format!(
            "    {{\"workload\": \"{}\", \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"notes\": [{}], \"metrics\": {{\n{}\n    }}}}",
            escape(&self.workload),
            u8::from(self.traced),
            self.correct,
            self.attempted,
            self.failed,
            notes.join(", "),
            metrics.join(",\n")
        )
    }

    fn from_json(j: &Json) -> Result<Run, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("run without \"{k}\""));
        let count = |k: &str| Ok::<u64, String>(field(k)?.as_f64().ok_or("not a number")? as u64);
        let Json::Obj(metrics) = field("metrics")? else {
            return Err("\"metrics\" is not an object".to_string());
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                let segments = m.get("segments").and_then(Json::as_arr).unwrap_or(&[]);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok(MetricValue {
                        name: name.clone(),
                        unit: unit.to_string(),
                        value,
                        segments: segments.iter().filter_map(Json::as_f64).collect(),
                    }),
                    _ => Err(format!("metric \"{name}\" lacks a value or a unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Run {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            traced: count("trace")? != 0,
            correct: matches!(field("correct")?, Json::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
            notes: Vec::new(),
        })
    }
}

/// Renders `results.json`.
pub fn render(seed: u64, seconds: f64, runs: &[Run]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let runs: Vec<String> = runs.iter().map(Run::to_json).collect();
    format!(
        "{{\n  \"benchmark\": \"rococo-benchmark\",\n  \"seed\": {seed},\n  \"seconds\": {},\n  \
         \"nproc\": {nproc},\n  \"window\": {},\n  \"segments\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        num(seconds),
        crate::spec::WINDOW,
        crate::spec::SEGMENTS,
        runs.join(",\n")
    )
}

/// Reads the runs back out of a `results.json`.
pub fn parse(src: &str) -> Result<Vec<Run>, String> {
    let doc = Json::parse(src)?;
    doc.get("runs")
        .and_then(Json::as_arr)
        .ok_or("no \"runs\" array")?
        .iter()
        .map(Run::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Run {
        Run {
            workload: "kv-read".to_string(),
            traced: false,
            correct: true,
            attempted: 1_000,
            failed: 0,
            metrics: vec![
                MetricValue {
                    name: "p50_us".to_string(),
                    unit: "us".to_string(),
                    value: 250.123456789,
                    segments: vec![249.5, 250.123456789, 251.0],
                },
                MetricValue {
                    name: "throughput_rps".to_string(),
                    unit: "1/s".to_string(),
                    value: 245_000.75,
                    segments: vec![],
                },
            ],
            notes: vec!["a \"quoted\" note".to_string()],
        }
    }

    #[test]
    fn results_round_trip_through_the_parser() {
        let mut run = sample();
        let parsed = parse(&render(7, 20.0, std::slice::from_ref(&run))).expect("valid JSON");
        run.notes.clear(); // notes are for people; compare does not read them
        assert_eq!(parsed, vec![run]);
    }

    fn object(line: &str) -> std::collections::BTreeMap<String, Json> {
        match Json::parse(line).expect("one JSON object") {
            Json::Obj(obj) => obj,
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_every_declared_metric() {
        let line = sample().driver_line(None);
        let obj = object(&line);
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Json::Obj(metrics) = &obj["metrics"] else {
            panic!("metrics is not an object");
        };
        let mut names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.sort_unstable();
        declared.sort_unstable();
        assert_eq!(names, declared);
        let p50 = &metrics["p50_us"];
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(250.123456789));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("us"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn traced_driver_line_takes_unmeasured_metrics_from_the_probes() {
        let metric = |name: &str, value: f64| MetricValue {
            name: name.to_string(),
            unit: "ns".to_string(),
            value,
            segments: vec![],
        };
        let mut run = sample();
        run.traced = true;
        run.metrics = vec![metric("stm.direct_ns", 218.5)];
        let mut probes = sample();
        probes.metrics = vec![metric("sigs.insert_ns", 28.25)];
        let obj = object(&run.driver_line(Some(&probes)));
        let Json::Obj(metrics) = &obj["metrics"] else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name: &str| metrics[name].get("value").and_then(Json::as_f64);
        assert_eq!(value("stm.direct_ns"), Some(218.5));
        assert_eq!(value("sigs.insert_ns"), Some(28.25));
        assert_eq!(value("cc.tocc_abort_rate"), Some(0.0), "not measured");
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        let mut run = sample();
        run.metrics[0].value = f64::NAN;
        Json::parse(&run.driver_line(None)).expect("still JSON");
    }
}
