//! The metrics registry: named counters, gauges and histograms with
//! label support, rendered as Prometheus text exposition (version 0.0.4)
//! or as a JSON snapshot.
//!
//! The registry is a *snapshot sink*, not a live aggregation tree: the
//! existing lock-free stats structs stay the source of truth on the hot
//! path, and an exporter walks them into a fresh registry whenever an
//! exposition is wanted (the TxKV scraper does this periodically). That
//! keeps the registry simple — plain `String`s and `Vec`s behind a
//! `&mut self` API — and keeps the hot path untouched.
//!
//! Naming scheme: every metric is `rococo_<subsystem>_<what>[_total]`
//! with snake_case names, `_total` on monotonic counters, and units in
//! the name (`_ns`, `_bytes`). Labels carry dimensions (shard, abort
//! kind, fsync policy), never units.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;
use crate::json::escape;

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    /// `(le, cumulative count)` at ascending inclusive bounds; `count`
    /// covers the implicit `+Inf` bucket.
    Histogram {
        buckets: Vec<(u64, u64)>,
        count: u64,
        sum: u64,
    },
}

#[derive(Debug, Clone)]
struct Sample {
    labels: Vec<(String, String)>,
    value: Value,
}

#[derive(Debug, Clone)]
struct Metric {
    help: String,
    samples: Vec<Sample>,
}

/// A snapshot registry of metrics, keyed by name. See the module docs
/// for the naming scheme and intended use.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a monotonic counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.push(name, help, labels, Value::Counter(value));
    }

    /// Records a gauge sample (a value that can go up or down).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(name, help, labels, Value::Gauge(value));
    }

    /// Records a histogram sample: `snapshot`'s cumulative counts at the
    /// ascending inclusive `le` bounds, plus its count and sum.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snapshot: &HistogramSnapshot,
        bounds: &[u64],
    ) {
        let value = Value::Histogram {
            buckets: (bounds.iter().copied())
                .zip(snapshot.cumulative(bounds))
                .collect(),
            count: snapshot.count,
            sum: snapshot.sum,
        };
        self.push(name, help, labels, value);
    }

    /// Number of distinct metric names registered.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    fn push(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: Value) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        for (k, _) in labels {
            assert!(valid_name(k), "invalid label name `{k}` on `{name}`");
        }
        let metric = self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric {
                help: help.to_string(),
                samples: Vec::new(),
            });
        metric.samples.push(Sample {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
    }

    /// Renders the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            let kind = match metric.samples.first().map(|s| &s.value) {
                Some(Value::Counter(_)) => "counter",
                Some(Value::Gauge(_)) => "gauge",
                Some(Value::Histogram { .. }) => "histogram",
                None => continue,
            };
            let _ = writeln!(out, "# HELP {name} {}", metric.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for sample in &metric.samples {
                let plain = label_block(&sample.labels, &[]);
                let _ = match &sample.value {
                    Value::Counter(v) => writeln!(out, "{name}{plain} {v}"),
                    Value::Gauge(v) => writeln!(out, "{name}{plain} {}", fmt_f64(*v)),
                    Value::Histogram {
                        buckets,
                        count,
                        sum,
                    } => {
                        for (bound, cum) in buckets {
                            let le = label_block(&sample.labels, &[("le", &bound.to_string())]);
                            let _ = writeln!(out, "{name}_bucket{le} {cum}");
                        }
                        let inf = label_block(&sample.labels, &[("le", "+Inf")]);
                        writeln!(
                            out,
                            "{name}_bucket{inf} {count}\n\
                             {name}_sum{plain} {sum}\n\
                             {name}_count{plain} {count}"
                        )
                    }
                };
            }
        }
        out
    }

    /// Renders the JSON snapshot: `{"metrics":[{name,kind,labels,...}]}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        let mut first = true;
        for (name, metric) in &self.metrics {
            for sample in &metric.samples {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{{\"name\":\"{}\",", escape(name));
                out.push_str("\"labels\":{");
                for (n, (k, v)) in sample.labels.iter().enumerate() {
                    if n > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
                }
                out.push_str("},");
                match &sample.value {
                    Value::Counter(v) => {
                        let _ = write!(out, "\"kind\":\"counter\",\"value\":{v}}}");
                    }
                    Value::Gauge(v) => {
                        let _ = write!(out, "\"kind\":\"gauge\",\"value\":{}}}", fmt_f64(*v));
                    }
                    Value::Histogram {
                        buckets,
                        count,
                        sum,
                    } => {
                        out.push_str("\"kind\":\"histogram\",\"buckets\":[");
                        for (n, (bound, cum)) in buckets.iter().enumerate() {
                            if n > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "{{\"le\":{bound},\"count\":{cum}}}");
                        }
                        let _ = write!(out, "],\"count\":{count},\"sum\":{sum}}}");
                    }
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Formats an `f64` so it parses back as JSON (no `inf`/`NaN` tokens).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push('}');
    out
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Validates a Prometheus text exposition: every non-empty line is a
/// comment (`# HELP` / `# TYPE`) or a `name{labels} value` sample with a
/// parseable value. Returns the number of sample lines.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (n, line) in text.lines().enumerate() {
        let lineno = n + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ")) {
                return Err(format!("line {lineno}: unknown comment form"));
            }
            continue;
        }
        // `name{labels} value` or `name value`.
        let (name_part, value_part) = match line.find('{') {
            Some(open) => {
                let close = line[open..]
                    .find('}')
                    .map(|c| open + c)
                    .ok_or_else(|| format!("line {lineno}: unterminated label block"))?;
                validate_labels(&line[open + 1..close])
                    .map_err(|e| format!("line {lineno}: {e}"))?;
                (&line[..open], line[close + 1..].trim())
            }
            None => {
                let sp = line
                    .find(' ')
                    .ok_or_else(|| format!("line {lineno}: no value"))?;
                (&line[..sp], line[sp + 1..].trim())
            }
        };
        if !valid_name(name_part) {
            return Err(format!("line {lineno}: bad metric name `{name_part}`"));
        }
        if value_part.parse::<f64>().is_err() && value_part != "+Inf" && value_part != "-Inf" {
            return Err(format!("line {lineno}: bad value `{value_part}`"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".to_string());
    }
    Ok(samples)
}

fn validate_labels(block: &str) -> Result<(), String> {
    if block.is_empty() {
        return Ok(());
    }
    // Split on commas outside quotes.
    let mut in_quotes = false;
    let mut escaped = false;
    let mut start = 0usize;
    let mut parts = Vec::new();
    for (i, c) in block.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                parts.push(&block[start..i]);
                start = i + 1;
                escaped = false;
            }
            _ => escaped = false,
        }
    }
    parts.push(&block[start..]);
    for p in parts {
        let eq = p
            .find('=')
            .ok_or_else(|| format!("label `{p}` has no `=`"))?;
        let (k, v) = (&p[..eq], &p[eq + 1..]);
        if !valid_name(k) {
            return Err(format!("bad label name `{k}`"));
        }
        if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
            return Err(format!("label value `{v}` not quoted"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_registry() -> MetricsRegistry {
        // 3 observations under 1us, 9 under 1ms, 10 in all.
        let latency = crate::Histogram::default();
        for v in [
            100, 200, 300, 2_000, 3_000, 4_000, 5_000, 6_000, 7_000, 2_000_000,
        ] {
            latency.record(v);
        }
        let mut reg = MetricsRegistry::new();
        reg.counter(
            "rococo_tm_commits_total",
            "committed transactions",
            &[("backend", "rococo")],
            42,
        );
        reg.counter(
            "rococo_tm_aborts_total",
            "aborted attempts by kind",
            &[("kind", "fpga-cycle")],
            7,
        );
        reg.gauge("rococo_fpga_in_flight", "validations in flight", &[], 2.5);
        reg.histogram(
            "rococo_txkv_latency_ns",
            "request latency",
            &[("shard", "0")],
            &latency.snapshot(),
            &[1_000, 1_000_000],
        );
        reg
    }

    #[test]
    fn prometheus_exposition_parses_and_counts_samples() {
        let text = sample_registry().render_prometheus();
        // 2 counters + 1 gauge + histogram (2 bounds + Inf + sum + count).
        assert_eq!(validate_prometheus(&text), Ok(8), "{text}");
        assert!(text.contains("# TYPE rococo_tm_commits_total counter"));
        assert!(text.contains("rococo_tm_aborts_total{kind=\"fpga-cycle\"} 7"));
        assert!(text.contains("rococo_txkv_latency_ns_bucket{shard=\"0\",le=\"+Inf\"} 10"));
    }

    #[test]
    fn json_snapshot_is_well_formed_and_structured() {
        let doc = sample_registry().render_json();
        let v = Json::parse(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        let metrics = v.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(metrics.len(), 4);
        let hist = metrics
            .iter()
            .find(|m| m.get("kind").and_then(Json::as_str) == Some("histogram"))
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(10.0));
        assert_eq!(hist.get("buckets").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn empty_and_bad_expositions_are_rejected() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("name_only_no_value\n").is_err());
        assert!(validate_prometheus("x{unclosed=\"1\" 3\n").is_err());
        assert!(validate_prometheus("# BOGUS comment\nm 1\n").is_err());
        assert!(validate_prometheus("m{l=\"a\"} 1\n").is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected_at_registration() {
        MetricsRegistry::new().counter("bad-name", "", &[], 1);
    }

    #[test]
    fn label_values_with_quotes_render_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.counter("m_total", "h", &[("k", "va\"lue")], 1);
        let text = reg.render_prometheus();
        assert!(text.contains("m_total{k=\"va\\\"lue\"} 1"), "{text}");
        assert!(validate_prometheus(&text).is_ok());
        assert!(Json::parse(&reg.render_json()).is_ok());
    }
}
