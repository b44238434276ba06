//! Trace-completeness oracle: every request chain the flight recorder
//! captured must be *stage-monotone*.
//!
//! The serializability oracle ([`crate::oracle`]) judges what the
//! service **answered**; this one judges what it **recorded about
//! itself**. A causal trace that lies — a verdict with no submission, a
//! commit before its begin, a reply that predates ingress — would aim
//! every attribution-driven optimization at a phantom, so the trace
//! pipeline gets the same adversarial treatment as the commit protocol.
//!
//! For every non-zero trace id in a drained event stream the oracle
//! reconstructs the chain ([`group_chains`]) and distinguishes three
//! cases:
//!
//! * **Complete** (starts at `Ingress`, ends at `Reply`): must pass
//!   [`check_chain`]'s causal-order rules, and its critical-path
//!   attribution must decompose exactly — stage nanoseconds summing to
//!   the chain's end-to-end total.
//! * **Incomplete** (head or tail evicted by ring wrap-around): legal,
//!   counted but not a violation — the recorder trades completeness for
//!   bounded memory by design.
//! * **Malformed** (complete but causally illegal): a violation.

use rococo_telemetry::{attribute, check_chain, group_chains, EventRecord, TxEvent};

/// Cap on reported violations, mirroring the serializability oracle: the
/// first few say what broke, thousands more just bury them.
const MAX_VIOLATIONS: usize = 20;

/// What [`check_trace`] found in one drained event stream.
#[derive(Debug, Default)]
pub struct TraceOracleReport {
    /// Distinct non-zero trace ids seen.
    pub chains: usize,
    /// Chains with both their `Ingress` and `Reply` present.
    pub complete: usize,
    /// Chains truncated by ring wrap-around (legal, not violations).
    pub incomplete: usize,
    /// Complete chains whose `Reply` outcome was `"ok"`.
    pub committed: usize,
    /// Causal-order or attribution violations (capped at 20).
    pub violations: Vec<String>,
}

impl TraceOracleReport {
    /// Whether every complete chain was stage-monotone and exactly
    /// attributable.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the trace-completeness oracle over a drained event stream.
pub fn check_trace(events: &[EventRecord]) -> TraceOracleReport {
    let mut report = TraceOracleReport::default();
    let push = |violations: &mut Vec<String>, msg: String| {
        if violations.len() < MAX_VIOLATIONS {
            violations.push(msg);
        }
    };
    for (trace, chain) in group_chains(events) {
        report.chains += 1;
        let starts_at_ingress = matches!(
            chain.first().map(|e| &e.event),
            Some(TxEvent::Ingress { .. })
        );
        let outcome = match chain.last().map(|e| &e.event) {
            Some(TxEvent::Reply { outcome }) => Some(*outcome),
            _ => None,
        };
        if !starts_at_ingress || outcome.is_none() {
            report.incomplete += 1;
            continue;
        }
        report.complete += 1;
        if outcome == Some("ok") {
            report.committed += 1;
        }
        if let Err(e) = check_chain(&chain) {
            push(&mut report.violations, e);
            continue;
        }
        match attribute(&chain) {
            Some(a) => {
                let sum: u64 = a.stage_ns.iter().sum();
                if sum != a.total_ns {
                    push(
                        &mut report.violations,
                        format!(
                            "trace {trace}: stages sum to {sum} ns but the chain spans {} ns",
                            a.total_ns
                        ),
                    );
                }
            }
            None => push(
                &mut report.violations,
                format!("trace {trace}: complete chain failed attribution"),
            ),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rococo_server::{Request, TxKv, TxKvConfig};
    use rococo_stm::{RococoTm, TmConfig};
    use std::sync::Arc;

    /// Drives a live TxKV service under the flight recorder and holds
    /// every recorded chain to the oracle. The recorder is global, so
    /// chains minted by concurrently running tests may appear in the
    /// drain; they are held to the same rules (and truncated ones only
    /// raise the incomplete count).
    #[test]
    fn live_service_chains_are_stage_monotone() {
        let cfg = TxKvConfig {
            shards: 2,
            workers_per_shard: 2,
            keys: 1 << 10,
            ..TxKvConfig::default()
        };
        let tm = Arc::new(RococoTm::with_config(TmConfig {
            heap_words: cfg.heap_words(),
            max_threads: cfg.worker_threads(),
        }));
        // A deep ring so this test's own chains survive wrap-around even
        // if a concurrent test floods trace-0 events.
        rococo_telemetry::enable(1 << 16);
        let kv = TxKv::start(tm, cfg).expect("service start");
        for i in 0..400u64 {
            let req = match i % 4 {
                0 => Request::Put {
                    key: i % 64,
                    value: i,
                },
                1 => Request::Get { key: i % 64 },
                2 => Request::Add {
                    key: i % 64,
                    delta: 1,
                },
                _ => Request::Transfer {
                    from: i % 64,
                    to: (i + 1) % 64,
                    amount: 1,
                },
            };
            kv.call(req).expect("request failed");
        }
        kv.shutdown();
        rococo_telemetry::flush_thread();
        let events = rococo_telemetry::drain_events();
        rococo_telemetry::disable();

        let report = check_trace(&events);
        assert!(
            report.ok(),
            "trace oracle violations: {:?}",
            report.violations
        );
        assert!(
            report.committed >= 300,
            "expected most of the 400 requests' chains complete and ok, got {} \
             ({} chains, {} incomplete)",
            report.committed,
            report.chains,
            report.incomplete
        );
    }

    #[test]
    fn malformed_chain_is_reported() {
        use rococo_telemetry::TxEvent;
        let rec = |ns: u64, event: TxEvent| EventRecord {
            ns,
            lane: 0,
            attempt: 1,
            trace: 7,
            event,
        };
        // Verdict with no outstanding submission: causally illegal.
        let events = vec![
            rec(10, TxEvent::Ingress { shard: 0, class: 0 }),
            rec(
                20,
                TxEvent::Verdict {
                    verdict: "commit",
                    model_ns: 5,
                    detector_ns: 2,
                    manager_ns: 3,
                },
            ),
            rec(30, TxEvent::Reply { outcome: "ok" }),
        ];
        let report = check_trace(&events);
        assert_eq!(report.complete, 1);
        assert!(!report.ok());
        assert!(report.violations[0].contains("trace 7"));
    }

    #[test]
    fn truncated_chain_counts_incomplete_not_violation() {
        use rococo_telemetry::TxEvent;
        // Ring wrap-around ate the Ingress: legal, not a violation.
        let events = vec![EventRecord {
            ns: 30,
            lane: 1,
            attempt: 1,
            trace: 9,
            event: TxEvent::Reply { outcome: "ok" },
        }];
        let report = check_trace(&events);
        assert_eq!(report.incomplete, 1);
        assert_eq!(report.complete, 0);
        assert!(report.ok());
    }
}
