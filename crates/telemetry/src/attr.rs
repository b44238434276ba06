//! Critical-path attribution for sampled request chains.
//!
//! Given one request's causal event chain — `Ingress` on the client
//! thread, `Dequeue`/`Begin`/…/`Reply` on a shard worker, correlated by
//! trace id — this module decomposes the end-to-end latency into
//! named stages and guarantees the stage durations sum exactly to the
//! request total (a residual `other` stage absorbs whatever the
//! instrumented windows don't explain, and overlapping windows are
//! scaled down proportionally rather than double-counted).
//!
//! Stage definitions:
//!
//! * `queue_wait` — shard-queue residency, from the worker's own
//!   `Dequeue { wait_ns }` measurement;
//! * `route` — gap between dequeue and the first `Begin`: the sched
//!   route decision plus any admission deferral (mode drain);
//! * `exec` — time inside transaction attempts not otherwise
//!   attributed;
//! * `validation` — sum of `ValidateSubmit → Verdict` windows
//!   (FPGA-model turnaround including queueing at the Detector/Manager);
//! * `commit_publish` — gap between the committing verdict and the
//!   `Commit` event (write-set publication and sequencing);
//! * `fsync` — gap between `Commit` and the durable `WalAppend`
//!   acknowledgement (group-commit fsync wait);
//! * `backoff` — sum of retry-policy `Backoff` delays;
//! * `repl_lag` — gap between `Commit` and a trace-carrying
//!   `ReplApply` (only non-zero for chains that wait on replication);
//! * `other` — everything else (reply plumbing, scheduling jitter,
//!   clock-sampling slack).

use crate::recorder::{EventRecord, TxEvent};

/// Stage names, in canonical order. `other` is always last.
pub const STAGES: [&str; 9] = [
    "queue_wait",
    "route",
    "exec",
    "validation",
    "commit_publish",
    "fsync",
    "backoff",
    "repl_lag",
    "other",
];

/// Number of stages (including the residual `other`).
pub const STAGE_COUNT: usize = STAGES.len();

/// One request's critical-path decomposition. `stage_ns` sums exactly
/// to `total_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// The request's trace id.
    pub trace: u64,
    /// `Ingress` timestamp, ns since recorder enable.
    pub start_ns: u64,
    /// End-to-end latency (`Reply` − `Ingress`), ns.
    pub total_ns: u64,
    /// The `Reply` outcome label (`"ok"`, `"shed"`, ...).
    pub outcome: &'static str,
    /// Lane that emitted `Ingress` (client thread).
    pub ingress_lane: u32,
    /// Lane that emitted `Reply` (shard worker; equals `ingress_lane`
    /// for shed requests that never reached a worker).
    pub worker_lane: u32,
    /// Transaction attempts observed (`Begin` count).
    pub attempts: u32,
    /// Per-stage durations in [`STAGES`] order, summing to `total_ns`.
    pub stage_ns: [u64; STAGE_COUNT],
}

impl Attribution {
    /// Per-stage shares of `total_ns`, summing to exactly 1.0 (the
    /// residual `other` share is computed as `1 − Σ others` in floating
    /// point). A zero-latency request is attributed entirely to
    /// `other`.
    pub fn shares(&self) -> [f64; STAGE_COUNT] {
        let mut out = [0.0; STAGE_COUNT];
        if self.total_ns == 0 {
            out[STAGE_COUNT - 1] = 1.0;
            return out;
        }
        let total = self.total_ns as f64;
        let mut partial = 0.0;
        for (o, ns) in out.iter_mut().zip(self.stage_ns).take(STAGE_COUNT - 1) {
            *o = ns as f64 / total;
            partial += *o;
        }
        out[STAGE_COUNT - 1] = (1.0 - partial).max(0.0);
        out
    }
}

/// Groups trace-carrying events into per-request chains, each sorted by
/// timestamp. Trace-0 (infrastructure) events are excluded. Chains are
/// returned in ascending trace-id order.
pub fn group_chains(events: &[EventRecord]) -> Vec<(u64, Vec<EventRecord>)> {
    let mut by_trace: std::collections::BTreeMap<u64, Vec<EventRecord>> =
        std::collections::BTreeMap::new();
    for e in events {
        if e.trace != 0 {
            by_trace.entry(e.trace).or_default().push(*e);
        }
    }
    let mut out: Vec<(u64, Vec<EventRecord>)> = by_trace.into_iter().collect();
    for (_, chain) in &mut out {
        chain.sort_by_key(|e| (e.ns, e.lane));
    }
    out
}

/// Validates that one request's chain is *stage-monotone*: the
/// lifecycle events appear in causally legal order. Used by the chaos
/// trace-completeness oracle.
///
/// Rules: the chain starts with exactly one `Ingress` and ends with
/// exactly one `Reply`; timestamps never go backwards; at most one
/// `Dequeue`, after `Ingress` and before any `Begin`; every `Verdict`
/// answers an outstanding `ValidateSubmit`; at most one `Commit`, with
/// no `Begin` after it; `WalAppend` only after `Commit`.
pub fn check_chain(chain: &[EventRecord]) -> Result<(), String> {
    let trace = chain.first().map(|e| e.trace).unwrap_or(0);
    let fail = |msg: String| Err(format!("trace {trace}: {msg}"));
    if chain.is_empty() {
        return fail("empty chain".to_string());
    }
    if !matches!(chain[0].event, TxEvent::Ingress { .. }) {
        return fail(format!(
            "chain starts with {}, not ingress",
            chain[0].event.name()
        ));
    }
    if !matches!(chain[chain.len() - 1].event, TxEvent::Reply { .. }) {
        return fail(format!(
            "chain ends with {}, not reply",
            chain[chain.len() - 1].event.name()
        ));
    }
    let mut prev_ns = 0u64;
    let mut ingress = 0u32;
    let mut dequeue = 0u32;
    let mut reply = 0u32;
    let mut begins = 0u32;
    let mut commits = 0u32;
    let mut outstanding_submits = 0i64;
    for e in chain {
        if e.ns < prev_ns {
            return fail(format!("timestamp regression at {}", e.event.name()));
        }
        prev_ns = e.ns;
        match e.event {
            TxEvent::Ingress { .. } => ingress += 1,
            TxEvent::Dequeue { .. } => {
                dequeue += 1;
                if begins > 0 {
                    return fail("dequeue after begin".to_string());
                }
            }
            TxEvent::Reply { .. } => reply += 1,
            TxEvent::Begin => {
                if commits > 0 {
                    return fail("begin after commit".to_string());
                }
                begins += 1;
            }
            TxEvent::ValidateSubmit { .. } => outstanding_submits += 1,
            TxEvent::Verdict { .. } => {
                outstanding_submits -= 1;
                if outstanding_submits < 0 {
                    return fail("verdict without outstanding submit".to_string());
                }
            }
            TxEvent::Commit { .. } => commits += 1,
            TxEvent::WalAppend { .. } if commits == 0 => {
                return fail("wal-append before commit".to_string());
            }
            _ => {}
        }
    }
    if ingress != 1 {
        return fail(format!("{ingress} ingress events"));
    }
    if reply != 1 {
        return fail(format!("{reply} reply events"));
    }
    if dequeue > 1 {
        return fail(format!("{dequeue} dequeue events"));
    }
    if commits > 1 {
        return fail(format!("{commits} commit events"));
    }
    Ok(())
}

/// Decomposes one chain (sorted by timestamp, as produced by
/// [`group_chains`]) into stage durations. Returns `None` for
/// incomplete chains — ones whose `Ingress` or `Reply` was evicted by
/// ring wrap-around before export.
pub fn attribute(chain: &[EventRecord]) -> Option<Attribution> {
    let first = chain.first()?;
    let last = chain.last()?;
    let TxEvent::Ingress { .. } = first.event else {
        return None;
    };
    let TxEvent::Reply { outcome } = last.event else {
        return None;
    };
    let t0 = first.ns;
    let total = last.ns.saturating_sub(t0);

    let mut dequeue_ns = None;
    let mut queue_wait = 0u64;
    let mut first_begin_ns = None;
    let mut attempts = 0u32;
    let mut validation = 0u64;
    let mut submit_ns = None;
    let mut last_commit_verdict_ns = None;
    let mut commit_ns = None;
    let mut backoff = 0u64;
    let mut wal_append_ns = None;
    let mut repl_apply_ns = None;
    let mut worker_lane = last.lane;
    let mut last_active_ns = t0;
    for e in chain {
        match e.event {
            TxEvent::Dequeue { wait_ns } => {
                dequeue_ns = Some(e.ns);
                queue_wait = wait_ns;
                worker_lane = e.lane;
            }
            TxEvent::Begin => {
                attempts += 1;
                first_begin_ns.get_or_insert(e.ns);
                last_active_ns = last_active_ns.max(e.ns);
            }
            TxEvent::ValidateSubmit { .. } => submit_ns = Some(e.ns),
            TxEvent::Verdict { verdict, .. } => {
                if let Some(s) = submit_ns.take() {
                    validation += e.ns.saturating_sub(s);
                }
                if verdict == "commit" {
                    last_commit_verdict_ns = Some(e.ns);
                }
                last_active_ns = last_active_ns.max(e.ns);
            }
            TxEvent::Commit { .. } => {
                commit_ns = Some(e.ns);
                last_active_ns = last_active_ns.max(e.ns);
            }
            TxEvent::Abort { .. } => last_active_ns = last_active_ns.max(e.ns),
            TxEvent::Backoff { delay_ns, .. } => backoff += delay_ns,
            TxEvent::WalAppend { .. } => wal_append_ns = Some(e.ns),
            TxEvent::ReplApply { .. } => repl_apply_ns = Some(e.ns),
            _ => {}
        }
    }

    let mut stage_ns = [0u64; STAGE_COUNT];
    stage_ns[0] = queue_wait.min(total);
    if let (Some(dq), Some(fb)) = (dequeue_ns, first_begin_ns) {
        stage_ns[1] = fb.saturating_sub(dq);
    }
    stage_ns[3] = validation;
    let commit_publish = match (last_commit_verdict_ns, commit_ns) {
        (Some(v), Some(c)) => c.saturating_sub(v),
        _ => 0,
    };
    stage_ns[4] = commit_publish;
    if let (Some(c), Some(w)) = (commit_ns, wal_append_ns) {
        stage_ns[5] = w.saturating_sub(c);
    }
    stage_ns[6] = backoff;
    if let (Some(c), Some(r)) = (commit_ns, repl_apply_ns) {
        stage_ns[7] = r.saturating_sub(c);
    }
    // exec: time inside the attempt window not already attributed to
    // validation, commit publication, or backoff.
    if let Some(fb) = first_begin_ns {
        let window = last_active_ns.saturating_sub(fb);
        stage_ns[2] = window.saturating_sub(validation + commit_publish + backoff);
    }

    // Overlapping windows (clock sampling, the worker-measured
    // `wait_ns`) can over-explain the total: scale down proportionally,
    // then let `other` absorb the exact remainder.
    let known: u64 = stage_ns[..STAGE_COUNT - 1].iter().sum();
    if known > total && known > 0 {
        let mut scaled_sum = 0u64;
        for s in stage_ns[..STAGE_COUNT - 1].iter_mut() {
            *s = ((*s as u128 * total as u128) / known as u128) as u64;
            scaled_sum += *s;
        }
        stage_ns[STAGE_COUNT - 1] = total - scaled_sum;
    } else {
        stage_ns[STAGE_COUNT - 1] = total - known;
    }

    Some(Attribution {
        trace: first.trace,
        start_ns: t0,
        total_ns: total,
        outcome,
        ingress_lane: first.lane,
        worker_lane,
        attempts,
        stage_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ns: u64, lane: u32, trace: u64, event: TxEvent) -> EventRecord {
        EventRecord {
            ns,
            lane,
            attempt: 1,
            trace,
            event,
        }
    }

    fn committed_chain() -> Vec<EventRecord> {
        vec![
            rec(1_000, 0, 7, TxEvent::Ingress { shard: 2, class: 0 }),
            rec(3_000, 5, 7, TxEvent::Dequeue { wait_ns: 2_000 }),
            rec(3_400, 5, 7, TxEvent::Begin),
            rec(
                4_000,
                5,
                7,
                TxEvent::ValidateSubmit {
                    reads: 2,
                    writes: 1,
                },
            ),
            rec(
                5_200,
                5,
                7,
                TxEvent::Verdict {
                    verdict: "commit",
                    model_ns: 1_000,
                    detector_ns: 600,
                    manager_ns: 400,
                },
            ),
            rec(5_500, 5, 7, TxEvent::Commit { seq: 42 }),
            rec(8_000, 5, 7, TxEvent::WalAppend { seq: 42, writes: 1 }),
            rec(8_200, 5, 7, TxEvent::Reply { outcome: "ok" }),
        ]
    }

    #[test]
    fn attributes_committed_chain() {
        let chain = committed_chain();
        check_chain(&chain).unwrap();
        let a = attribute(&chain).unwrap();
        assert_eq!(a.trace, 7);
        assert_eq!(a.total_ns, 7_200);
        assert_eq!(a.outcome, "ok");
        assert_eq!(a.ingress_lane, 0);
        assert_eq!(a.worker_lane, 5);
        assert_eq!(a.attempts, 1);
        let by_name: std::collections::HashMap<&str, u64> =
            STAGES.iter().copied().zip(a.stage_ns).collect();
        assert_eq!(by_name["queue_wait"], 2_000);
        assert_eq!(by_name["route"], 400);
        assert_eq!(by_name["validation"], 1_200);
        assert_eq!(by_name["commit_publish"], 300);
        assert_eq!(by_name["fsync"], 2_500);
        // exec: begin(3400)..commit(5500) = 2100, minus validation 1200
        // and publish 300.
        assert_eq!(by_name["exec"], 600);
        assert_eq!(a.stage_ns.iter().sum::<u64>(), a.total_ns);
        let shares = a.shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn retry_chain_counts_backoff_and_attempts() {
        let chain = vec![
            rec(0, 0, 9, TxEvent::Ingress { shard: 0, class: 1 }),
            rec(100, 3, 9, TxEvent::Dequeue { wait_ns: 100 }),
            rec(200, 3, 9, TxEvent::Begin),
            rec(
                500,
                3,
                9,
                TxEvent::Abort {
                    kind: "cpu-stale-read",
                },
            ),
            rec(
                510,
                3,
                9,
                TxEvent::Backoff {
                    attempt: 1,
                    delay_ns: 400,
                },
            ),
            rec(1_000, 3, 9, TxEvent::Begin),
            rec(1_500, 3, 9, TxEvent::Commit { seq: 5 }),
            rec(1_600, 3, 9, TxEvent::Reply { outcome: "ok" }),
        ];
        check_chain(&chain).unwrap();
        let a = attribute(&chain).unwrap();
        assert_eq!(a.attempts, 2);
        let by_name: std::collections::HashMap<&str, u64> =
            STAGES.iter().copied().zip(a.stage_ns).collect();
        assert_eq!(by_name["backoff"], 400);
        // window 200..1500 = 1300 minus backoff 400.
        assert_eq!(by_name["exec"], 900);
        assert_eq!(a.stage_ns.iter().sum::<u64>(), a.total_ns);
    }

    #[test]
    fn shed_chain_attributes_to_other() {
        let chain = vec![
            rec(10, 0, 3, TxEvent::Ingress { shard: 1, class: 0 }),
            rec(40, 0, 3, TxEvent::Reply { outcome: "shed" }),
        ];
        check_chain(&chain).unwrap();
        let a = attribute(&chain).unwrap();
        assert_eq!(a.total_ns, 30);
        assert_eq!(a.stage_ns[STAGE_COUNT - 1], 30);
        assert_eq!(a.outcome, "shed");
        assert_eq!(a.worker_lane, 0);
    }

    #[test]
    fn incomplete_chain_returns_none() {
        let mut chain = committed_chain();
        chain.remove(0); // ingress evicted by ring wrap
        assert!(attribute(&chain).is_none());
        let mut chain = committed_chain();
        chain.pop(); // reply missing
        assert!(attribute(&chain).is_none());
    }

    #[test]
    fn over_explained_chain_is_scaled_not_negative() {
        // Worker-measured wait_ns exceeds the whole request window
        // (possible when clocks are sampled at different points).
        let chain = vec![
            rec(0, 0, 4, TxEvent::Ingress { shard: 0, class: 0 }),
            rec(100, 1, 4, TxEvent::Dequeue { wait_ns: 10_000 }),
            rec(150, 1, 4, TxEvent::Reply { outcome: "ok" }),
        ];
        let a = attribute(&chain).unwrap();
        assert_eq!(a.stage_ns.iter().sum::<u64>(), a.total_ns);
        let shares = a.shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn check_chain_rejects_stage_violations() {
        let mut chain = committed_chain();
        chain.swap(1, 2); // begin before dequeue
        assert!(check_chain(&chain).is_err());

        let mut chain = committed_chain();
        chain[6] = rec(5_400, 5, 7, TxEvent::WalAppend { seq: 42, writes: 1 });
        chain.sort_by_key(|e| e.ns); // wal-append now precedes commit
        assert!(check_chain(&chain).is_err());

        let chain = committed_chain();
        assert!(check_chain(&chain[1..]).is_err()); // no ingress
    }

    #[test]
    fn group_chains_splits_and_sorts() {
        let events = vec![
            rec(5, 1, 2, TxEvent::Begin),
            rec(1, 0, 1, TxEvent::Begin),
            rec(3, 1, 1, TxEvent::Commit { seq: 1 }),
            rec(2, 2, 0, TxEvent::WalFsync { records: 1, ns: 5 }),
        ];
        let chains = group_chains(&events);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].0, 1);
        assert_eq!(chains[0].1.len(), 2);
        assert!(chains[0].1[0].ns <= chains[0].1[1].ns);
        assert_eq!(chains[1].0, 2);
    }
}
