//! `compare A/results.json B/results.json`: one row per workload ×
//! end-to-end metric, judged against the bound the benchmark fixed, and one
//! `failed` row per workload, whose bound is "any increase".

use crate::results::Run;
use crate::spec::{Better, Metric, END_TO_END};
use crate::stats::spread;
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
    /// The segment values of one side spread wider than the bound, so the
    /// run cannot tell a change of that size from noise.
    Unresolved,
    /// A measured it, B did not: B cannot pass on what it left out.
    Missing,
}

impl Verdict {
    /// Whether `compare` may exit 0 with this row in its table.
    pub fn passes(self) -> bool {
        !matches!(self, Verdict::Regressed | Verdict::Missing)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        })
    }
}

/// How far `b` is worse than `a`, as a share of `a` (negative = better).
fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges `b` against the reference `a`. `spread` is the wider of the two
/// sides' interquartile spreads over their segment values. A change of
/// exactly the bound is still inside it.
pub fn judge(metric: &Metric, a: f64, b: f64, spread: f64) -> Verdict {
    let worse = worsening(metric, a, b);
    if spread > metric.bound {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regressed
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// The `failed` row: requests that failed, were shed or went unanswered.
/// No timing of a run that served less, or failed an output check, counts.
static FAILED: Metric = Metric {
    name: "failed",
    unit: "count",
    better: Better::Lower,
    bound: 0.0,
};

/// Judges B's served work against A's: any request more that was not
/// served, or any failed output check, is a regression.
pub fn judge_failed(a: &Run, b: &Run) -> Verdict {
    if !b.correct || b.failed > a.failed {
        Verdict::Regressed
    } else if b.failed < a.failed {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static Metric,
    pub a: f64,
    /// NaN on a `missing` row.
    pub b: f64,
    pub verdict: Verdict,
}

/// Rows for every workload A ran untraced. What B lacks of them is
/// `missing`, so a B that ran less than A does not pass.
pub fn compare(a: &[Run], b: &[Run]) -> Vec<Row> {
    let mut rows = Vec::new();
    for ra in a.iter().filter(|r| !r.traced) {
        let rb = b.iter().find(|r| !r.traced && r.workload == ra.workload);
        let mut row = |metric, a, b, verdict| {
            rows.push(Row {
                workload: ra.workload.clone(),
                metric,
                a,
                b,
                verdict,
            })
        };
        match rb {
            Some(rb) => row(
                &FAILED,
                ra.failed as f64,
                rb.failed as f64,
                judge_failed(ra, rb),
            ),
            None => row(&FAILED, ra.failed as f64, f64::NAN, Verdict::Missing),
        }
        for metric in &END_TO_END {
            let find = |r: &Run| r.metrics.iter().find(|m| m.name == metric.name).cloned();
            let Some(ma) = find(ra) else {
                continue;
            };
            match rb.and_then(find) {
                Some(mb) => {
                    let noise = spread(&ma.segments).max(spread(&mb.segments));
                    let verdict = judge(metric, ma.value, mb.value, noise);
                    row(metric, ma.value, mb.value, verdict);
                }
                None => row(metric, ma.value, f64::NAN, Verdict::Missing),
            }
        }
    }
    rows
}

/// The table `compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<15} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for r in rows {
        // 0 → 0 failed requests is no change, not 0/0.
        let change = if r.a == r.b { 0.0 } else { (r.b - r.a) / r.a };
        out.push_str(&format!(
            "{:<14} {:<15} {:>14.3} {:>14.3} {:>+7.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric.name,
            r.a,
            r.b,
            change * 100.0,
            r.metric.bound * 100.0,
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::MetricValue;

    #[test]
    fn verdicts_at_inside_and_outside_each_bound() {
        for metric in &END_TO_END {
            let a = 1_000.0;
            // `b` that is worse than `a` by the share `w`.
            let worse_by = |w: f64| match metric.better {
                Better::Lower => a * (1.0 + w),
                Better::Higher => a * (1.0 - w),
            };
            let eps = 1e-6;
            let name = metric.name;
            assert_eq!(judge(metric, a, a, 0.0), Verdict::Ok, "{name}: same");
            assert_eq!(
                judge(metric, a, worse_by(metric.bound - eps), 0.0),
                Verdict::Ok,
                "{name}: just inside"
            );
            assert_eq!(
                judge(metric, a, worse_by(metric.bound + eps), 0.0),
                Verdict::Regressed,
                "{name}: just outside"
            );
            assert_eq!(
                judge(metric, a, worse_by(-(metric.bound - eps)), 0.0),
                Verdict::Ok,
                "{name}: better, just inside"
            );
            assert_eq!(
                judge(metric, a, worse_by(-(metric.bound + eps)), 0.0),
                Verdict::Improved,
                "{name}: better, just outside"
            );
            assert_eq!(
                judge(metric, a, worse_by(0.5), metric.bound + eps),
                Verdict::Unresolved,
                "{name}: noise wider than the bound"
            );
            assert_eq!(
                judge(metric, a, worse_by(0.5), metric.bound - eps),
                Verdict::Regressed,
                "{name}: noise just under the bound"
            );
        }
    }

    #[test]
    fn a_change_of_exactly_the_bound_is_inside_it() {
        // 0.25 and 1000 are exact in binary, so this is "at" the bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.bound, 0.25);
        assert_eq!(judge(setup, 1_000.0, 1_250.0, 0.0), Verdict::Ok);
        assert_eq!(judge(setup, 1_000.0, 750.0, 0.0), Verdict::Ok);
    }

    fn run(workload: &str, traced: bool, throughput: [f64; 5]) -> Run {
        Run {
            workload: workload.to_string(),
            traced,
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![MetricValue {
                name: "throughput_rps".to_string(),
                unit: "1/s".to_string(),
                value: crate::stats::median(&throughput),
                segments: throughput.to_vec(),
            }],
            notes: vec![],
        }
    }

    fn verdicts(rows: &[Row]) -> Vec<(&str, &str, Verdict)> {
        rows.iter()
            .map(|r| (r.workload.as_str(), r.metric.name, r.verdict))
            .collect()
    }

    #[test]
    fn compares_the_untraced_runs_and_calls_what_b_left_out_missing() {
        let steady = [100.0, 101.0, 100.5, 99.5, 100.2];
        let slow = steady.map(|v| v * 0.7);
        let noisy = [100.0, 140.0, 100.5, 60.0, 100.2];
        let a = vec![
            run("kv-read", false, steady),
            run("kv-read", true, slow),
            run("kv-durable", false, steady),
            run("engine-replay", false, steady),
        ];
        let b = vec![run("kv-read", false, slow), run("kv-durable", false, noisy)];
        let rows = compare(&a, &b);
        assert_eq!(
            verdicts(&rows),
            [
                ("kv-read", "failed", Verdict::Ok),
                ("kv-read", "throughput_rps", Verdict::Regressed),
                ("kv-durable", "failed", Verdict::Ok),
                ("kv-durable", "throughput_rps", Verdict::Unresolved),
                ("engine-replay", "failed", Verdict::Missing),
                ("engine-replay", "throughput_rps", Verdict::Missing),
            ]
        );
        assert!(render(&rows).contains("regressed"));
        assert!(!Verdict::Missing.passes() && !Verdict::Regressed.passes());
        assert!(Verdict::Unresolved.passes() && Verdict::Improved.passes());
        let back = compare(&b, &a);
        assert_eq!(
            verdicts(&back),
            [
                ("kv-read", "failed", Verdict::Ok),
                ("kv-read", "throughput_rps", Verdict::Improved),
                ("kv-durable", "failed", Verdict::Ok),
                ("kv-durable", "throughput_rps", Verdict::Unresolved),
            ]
        );
    }

    #[test]
    fn a_run_that_serves_less_or_fails_a_check_regresses_whatever_its_speed() {
        let steady = [100.0, 101.0, 100.5, 99.5, 100.2];
        let fast = steady.map(|v| v * 2.0);
        let a = vec![run("kv-hot-write", false, steady)];
        let failed_row = |b: &Run| compare(&a, std::slice::from_ref(b))[0].verdict;

        let mut shedding = run("kv-hot-write", false, fast);
        shedding.failed = 5_000;
        shedding.correct = false;
        assert_eq!(failed_row(&shedding), Verdict::Regressed);
        // Each of the two alone is enough.
        shedding.correct = true;
        assert_eq!(failed_row(&shedding), Verdict::Regressed);
        shedding.failed = 0;
        shedding.correct = false;
        assert_eq!(failed_row(&shedding), Verdict::Regressed);
        shedding.correct = true;
        assert_eq!(failed_row(&shedding), Verdict::Ok);

        let mut was_failing = run("kv-hot-write", false, steady);
        was_failing.failed = 3;
        assert_eq!(
            compare(&[was_failing], &a)[0].verdict,
            Verdict::Improved,
            "fewer failures than the reference"
        );
        assert!(
            render(&compare(&a, &a)).contains("+0.0%"),
            "0 → 0 is no change"
        );
    }
}
