//! The discrete-event simulation engine.

use crate::cost::CostModel;
use crate::workload::{PricedTxn, Workload};
use rococo_fpga::{EngineConfig, EngineStats, FpgaVerdict, ValidateRequest, ValidationEngine};
use rococo_sigs::splitmix64;
use rococo_stm::AbortKind;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// The TM systems the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimSystem {
    /// TinySTM-style LSA (lazy word-based STM).
    TinyStm,
    /// TSX-style best-effort HTM with global-lock fallback.
    Tsx,
    /// ROCoCoTM with the simulated FPGA validator.
    Rococo,
}

impl SimSystem {
    /// Index into [`CostModel::ht_penalty`].
    fn idx(self) -> usize {
        match self {
            SimSystem::TinyStm => 0,
            SimSystem::Tsx => 1,
            SimSystem::Rococo => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SimSystem::TinyStm => "TinySTM",
            SimSystem::Tsx => "TSX-HTM",
            SimSystem::Rococo => "ROCoCoTM",
        }
    }
}

/// Result of one simulation.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// System simulated.
    pub system: SimSystem,
    /// Virtual workers.
    pub threads: usize,
    /// Virtual makespan in nanoseconds (sum over phases).
    pub makespan_ns: f64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborts by kind.
    pub aborts: HashMap<AbortKind, u64>,
    /// Commits taken on the HTM fallback lock.
    pub fallback_commits: u64,
    /// FPGA engine statistics (ROCoCoTM only).
    pub fpga: Option<EngineStats>,
}

impl SimOutcome {
    /// Total aborts.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.values().sum()
    }

    /// Aborted attempts / all attempts (the Figure 10 metric).
    pub fn abort_rate(&self) -> f64 {
        let total = self.commits + self.total_aborts();
        if total == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / total as f64
        }
    }

    /// FPGA-attributed abort rate (Figure 10's dotted series).
    pub fn fpga_abort_rate(&self) -> f64 {
        let total = self.commits + self.total_aborts();
        let f = self.aborts.get(&AbortKind::FpgaCycle).copied().unwrap_or(0)
            + self
                .aborts
                .get(&AbortKind::FpgaWindow)
                .copied()
                .unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            f as f64 / total as f64
        }
    }

    /// Speedup against a sequential execution time (the workload's
    /// [`Workload::sequential_ns`]).
    pub fn speedup_vs(&self, sequential_ns: f64) -> f64 {
        sequential_ns / self.makespan_ns.max(1e-9)
    }
}

/// Precomputed per-transaction data.
struct Txn {
    reads: Vec<u64>,
    writes: Vec<u64>,
    read_set: HashSet<u64>,
    write_set: HashSet<u64>,
    seq_ns: f64,
    write_lines: usize,
    read_lines: usize,
}

impl Txn {
    fn from_priced(r: &PricedTxn) -> Self {
        let lines = |addrs: &[u64]| addrs.iter().map(|a| a >> 3).collect::<HashSet<_>>().len();
        Self {
            read_set: r.reads.iter().copied().collect(),
            write_set: r.writes.iter().copied().collect(),
            write_lines: lines(&r.writes),
            read_lines: lines(&r.reads),
            reads: r.reads.clone(),
            writes: r.writes.clone(),
            seq_ns: r.seq_ns,
        }
    }

    fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

fn intersects(a: &HashSet<u64>, b: &[u64]) -> bool {
    b.iter().any(|x| a.contains(x))
}

/// Inserts a commit keeping the list sorted by time (fallback commits can
/// land later than subsequently decided hardware commits).
fn push_commit(commits: &mut Vec<Commit>, c: Commit) {
    let pos = commits.partition_point(|x| x.time <= c.time);
    commits.insert(pos, c);
}

/// A published commit visible to later conflict checks.
struct Commit {
    time: f64,
    writes: Vec<u64>,
    /// Engine sequence (read-write ROCoCoTM commits only; `u64::MAX`
    /// otherwise).
    seq: u64,
}

#[derive(PartialEq)]
struct Event {
    time: f64,
    worker: usize,
    generation: u64,
}

impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Min-heap on time (BinaryHeap is a max-heap).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(CmpOrdering::Equal)
            .then_with(|| other.worker.cmp(&self.worker))
    }
}

struct WorkerState {
    /// Index into the phase's transaction list.
    txn: usize,
    start: f64,
    finish: f64,
    attempt: u32,
    /// Earliest time an eager conflict doomed this attempt, if any.
    doomed_at: Option<f64>,
    generation: u64,
    busy: bool,
}

/// Simulates `workload` on `threads` virtual workers under `system`'s cost
/// and conflict model. Deterministic.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn simulate(
    workload: &Workload,
    system: SimSystem,
    threads: usize,
    cost: &CostModel,
) -> SimOutcome {
    assert!(threads > 0, "need at least one worker");
    let tf = cost.thread_factor(system.idx(), threads);

    let mut commits_n = 0u64;
    let mut aborts: HashMap<AbortKind, u64> = HashMap::new();
    let mut fallback_commits = 0u64;
    let mut engine = ValidationEngine::new(EngineConfig {
        window: cost.rococo_window,
        ..EngineConfig::default()
    });
    let mut ingress_free = 0.0f64;
    let mut last_pub = 0.0f64;
    let mut clock = 0.0f64; // end of the previous phase
    let mut global_idx = 0u64;
    // Engine publications so far (persists across phases — the engine's
    // sequence numbers are global).
    let mut pub_count = 0u64;

    for phase in &workload.phases {
        let txns: Vec<Txn> = phase.iter().map(Txn::from_priced).collect();
        if txns.is_empty() {
            continue;
        }
        let mut next_txn = 0usize;
        let mut commits: Vec<Commit> = Vec::new();
        let mut fallback_free = clock;
        // Commit decisions are serialised (lock acquisition order): each
        // gets a strictly later instant so simultaneous finishers validate
        // against each other correctly.
        let mut last_commit_instant = clock;
        let mut workers: Vec<WorkerState> = (0..threads)
            .map(|_| WorkerState {
                txn: usize::MAX,
                start: 0.0,
                finish: 0.0,
                attempt: 0,
                doomed_at: None,
                generation: 0,
                busy: false,
            })
            .collect();
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut phase_end = clock;

        // Execution duration of one attempt of `txn` under this system.
        let duration = |t: &Txn| -> f64 {
            let (r, w) = (t.reads.len() as f64, t.writes.len() as f64);
            let overhead = match system {
                SimSystem::TinyStm => r * cost.tiny_read_ns + w * cost.tiny_write_ns,
                SimSystem::Tsx => (r + w) * cost.tsx_access_ns,
                SimSystem::Rococo => r * cost.rococo_read_ns + w * cost.rococo_write_ns,
            };
            (t.seq_ns + overhead) * tf
        };

        // Start worker `w` on the next pooled transaction, if any.
        macro_rules! start_next {
            ($w:expr, $at:expr) => {{
                let w = $w;
                let at: f64 = $at;
                phase_end = phase_end.max(at);
                if next_txn < txns.len() {
                    let i = next_txn;
                    next_txn += 1;
                    workers[w].txn = i;
                    workers[w].start = at;
                    workers[w].finish = at + duration(&txns[i]);
                    workers[w].attempt = 0;
                    workers[w].doomed_at = None;
                    workers[w].generation += 1;
                    workers[w].busy = true;
                    heap.push(Event {
                        time: workers[w].finish,
                        worker: w,
                        generation: workers[w].generation,
                    });
                } else {
                    workers[w].busy = false;
                }
            }};
        }

        // Fixed per-abort penalty: TSX pays a pipeline flush on top of the
        // generic back-off.
        let abort_penalty = match system {
            SimSystem::Tsx => cost.tsx_abort_penalty_ns,
            _ => 0.0,
        };
        macro_rules! retry {
            ($w:expr, $at:expr, $kind:expr) => {{
                let w = $w;
                let at: f64 = $at;
                *aborts.entry($kind).or_insert(0) += 1;
                workers[w].attempt += 1;
                let backoff =
                    abort_penalty + cost.backoff_ns * f64::from(workers[w].attempt.min(8));
                let start = at + backoff;
                workers[w].start = start;
                workers[w].finish = start + duration(&txns[workers[w].txn]);
                workers[w].doomed_at = None;
                workers[w].generation += 1;
                heap.push(Event {
                    time: workers[w].finish,
                    worker: w,
                    generation: workers[w].generation,
                });
            }};
        }

        for w in 0..threads {
            start_next!(w, clock);
        }

        while let Some(ev) = heap.pop() {
            let w = ev.worker;
            if !workers[w].busy || ev.generation != workers[w].generation {
                continue; // stale event
            }
            let t = ev.time;
            let ti = workers[w].txn;
            let start = workers[w].start;
            let txn = &txns[ti];
            global_idx += 1;

            // An eager doom (TSX) recorded during execution aborts first.
            if let Some(d) = workers[w].doomed_at {
                retry!(w, d.max(start), AbortKind::Conflict);
                continue;
            }

            match system {
                SimSystem::TinyStm => {
                    // Commit-time validation happens at a serialised
                    // instant (commit locks): LSA aborts iff any commit
                    // decided before that instant — and after our start —
                    // overwrote something we read.
                    let my_instant = (t).max(last_commit_instant + 1.0);
                    let lo = commits.partition_point(|c| c.time <= start);
                    let conflict = commits[lo..]
                        .iter()
                        .take_while(|c| c.time < my_instant)
                        .any(|c| intersects(&txn.read_set, &c.writes));
                    if conflict {
                        retry!(w, t, AbortKind::Conflict);
                        continue;
                    }
                    last_commit_instant = my_instant;
                    let commit_cost = cost.tiny_commit_fixed_ns
                        + txn.reads.len() as f64 * cost.tiny_commit_per_read_ns
                        + txn.writes.len() as f64 * cost.tiny_commit_per_write_ns;
                    let done = my_instant + commit_cost * tf;
                    if !txn.writes.is_empty() {
                        push_commit(
                            &mut commits,
                            Commit {
                                time: my_instant,
                                writes: txn.writes.clone(),
                                seq: u64::MAX,
                            },
                        );
                    }
                    commits_n += 1;
                    start_next!(w, done);
                }
                SimSystem::Tsx => {
                    // Retries exhausted (whatever the abort reasons were):
                    // take the global fallback lock, dooming every running
                    // hardware transaction (lock subscription), and run
                    // serially.
                    if workers[w].attempt >= cost.tsx_max_attempts {
                        let fb_start = t.max(fallback_free);
                        for (v, wk) in workers.iter_mut().enumerate() {
                            if v != w && wk.busy {
                                let d = wk.doomed_at.unwrap_or(f64::MAX);
                                wk.doomed_at = Some(d.min(fb_start));
                            }
                        }
                        let done = fb_start + duration(txn) + cost.tsx_commit_fixed_ns * tf;
                        fallback_free = done;
                        if !txn.writes.is_empty() {
                            push_commit(
                                &mut commits,
                                Commit {
                                    time: done,
                                    writes: txn.writes.clone(),
                                    seq: u64::MAX,
                                },
                            );
                        }
                        commits_n += 1;
                        fallback_commits += 1;
                        start_next!(w, done);
                        continue;
                    }
                    // Hyperthread pairs share the L1 that holds
                    // transactional state: above the core count the
                    // effective capacity halves and sibling-induced
                    // conflict misses abort transactions spuriously.
                    let ht = threads > cost.cores;
                    let wcap = cost.tsx_write_capacity_lines >> usize::from(ht);
                    let rcap = cost.tsx_read_capacity_lines >> usize::from(ht);
                    if txn.write_lines > wcap || txn.read_lines > rcap {
                        retry!(w, t, AbortKind::Capacity);
                        continue;
                    }
                    if ht {
                        let over = ((threads - cost.cores) as f64 / cost.cores as f64).min(1.0);
                        let q = cost.tsx_spurious_ht * over;
                        let mut h = global_idx ^ 0x7e5c_a1ab;
                        let frac = (splitmix64(&mut h) >> 11) as f64 / (1u64 << 53) as f64;
                        if frac < q {
                            retry!(w, t, AbortKind::Capacity);
                            continue;
                        }
                    }
                    let done = t + cost.tsx_commit_fixed_ns * tf;
                    // Eagerly doom every running transaction whose
                    // footprint overlaps our write set (their lines get
                    // invalidated).
                    for v in 0..threads {
                        if v == w || !workers[v].busy {
                            continue;
                        }
                        let other = &txns[workers[v].txn];
                        if intersects(&other.read_set, &txn.writes)
                            || intersects(&other.write_set, &txn.writes)
                        {
                            let d = workers[v].doomed_at.unwrap_or(f64::MAX);
                            workers[v].doomed_at = Some(d.min(done));
                        }
                    }
                    if !txn.writes.is_empty() {
                        push_commit(
                            &mut commits,
                            Commit {
                                time: done,
                                writes: txn.writes.clone(),
                                seq: u64::MAX,
                            },
                        );
                    }
                    commits_n += 1;
                    workers[w].attempt = 0;
                    start_next!(w, done);
                }
                SimSystem::Rococo => {
                    if txn.is_read_only() {
                        commits_n += 1;
                        start_next!(w, t + cost.rococo_ro_commit_ns * tf);
                        continue;
                    }
                    // CPU fast path: a read issued after a conflicting
                    // publication sees the miss set and aborts without the
                    // out-of-core hop. Read times are a deterministic hash
                    // over the execution interval.
                    let lo = commits.partition_point(|c| c.time <= start);
                    let mut cpu_abort_at: Option<f64> = None;
                    let mut first_conflict_pub: Option<u64> = None;
                    for c in commits[lo..].iter().take_while(|c| c.time <= t) {
                        if c.seq == u64::MAX || !intersects(&txn.read_set, &c.writes) {
                            continue;
                        }
                        if first_conflict_pub.is_none() {
                            first_conflict_pub = Some(c.seq);
                        }
                        let mut h = global_idx ^ (c.seq << 17) ^ 0x5eed;
                        let frac = (splitmix64(&mut h) >> 11) as f64 / (1u64 << 53) as f64;
                        let read_time = start + frac * (t - start);
                        if read_time > c.time {
                            cpu_abort_at =
                                Some(cpu_abort_at.map_or(read_time, |x: f64| x.min(read_time)));
                        }
                    }
                    if let Some(at) = cpu_abort_at {
                        retry!(w, at.max(start), AbortKind::Conflict);
                        continue;
                    }
                    // ValidTS: full extension when nothing conflicted,
                    // otherwise frozen just before the first conflicting
                    // publication.
                    let valid_ts = match first_conflict_pub {
                        None => pub_count,
                        Some(seq) => seq,
                    };
                    // Ship to the pipelined validator.
                    let n_addrs = txn.reads.len() + txn.writes.len();
                    let at_fpga = t + cost.timing.cci_read_ns;
                    let svc_start = at_fpga.max(ingress_free);
                    ingress_free = svc_start + cost.timing.initiation_interval_ns(n_addrs);
                    let pipeline_only = cost.timing.latency_ns(n_addrs)
                        - cost.timing.cci_read_ns
                        - cost.timing.cci_write_ns;
                    let verdict_time = svc_start + pipeline_only + cost.timing.cci_write_ns;

                    let verdict = engine.process(&ValidateRequest {
                        tx_id: global_idx,
                        valid_ts,
                        read_addrs: txn.reads.clone(),
                        write_addrs: txn.writes.clone(),
                    });
                    match verdict {
                        FpgaVerdict::Commit { seq } => {
                            let pub_time = verdict_time.max(last_pub)
                                + txn.writes.len() as f64 * cost.rococo_commit_per_write_ns * tf;
                            last_pub = pub_time;
                            pub_count = seq + 1;
                            push_commit(
                                &mut commits,
                                Commit {
                                    time: pub_time,
                                    writes: txn.writes.clone(),
                                    seq,
                                },
                            );
                            commits_n += 1;
                            start_next!(w, pub_time);
                        }
                        FpgaVerdict::AbortCycle => {
                            retry!(w, verdict_time, AbortKind::FpgaCycle);
                        }
                        FpgaVerdict::AbortWindowOverflow => {
                            retry!(w, verdict_time, AbortKind::FpgaWindow);
                        }
                        FpgaVerdict::ServiceStopped => {
                            // Only the service layer synthesizes this; a
                            // direct `engine.process` call cannot return it.
                            unreachable!("engine never emits ServiceStopped")
                        }
                    }
                }
            }
        }

        clock = phase_end;
    }

    SimOutcome {
        system,
        threads,
        makespan_ns: clock,
        commits: commits_n,
        aborts,
        fallback_commits,
        fpga: (system == SimSystem::Rococo).then(|| engine.stats()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw_txn(r: u64, w: u64, seq_ns: f64) -> PricedTxn {
        PricedTxn {
            reads: vec![r],
            writes: vec![w],
            seq_ns,
        }
    }

    fn disjoint_workload(n: u64) -> Workload {
        (0..n).map(|i| rw_txn(i, 100_000 + i, 1000.0)).collect()
    }

    #[test]
    fn all_commit_on_disjoint_work() {
        let w = disjoint_workload(100);
        for sys in [SimSystem::TinyStm, SimSystem::Tsx, SimSystem::Rococo] {
            let r = simulate(&w, sys, 8, &CostModel::default());
            assert_eq!(r.commits, 100, "{sys:?}");
            assert_eq!(r.total_aborts(), 0, "{sys:?}");
        }
    }

    #[test]
    fn parallelism_shrinks_makespan() {
        let w = disjoint_workload(280);
        for sys in [SimSystem::TinyStm, SimSystem::Tsx, SimSystem::Rococo] {
            let t1 = simulate(&w, sys, 1, &CostModel::default()).makespan_ns;
            let t14 = simulate(&w, sys, 14, &CostModel::default()).makespan_ns;
            assert!(
                t14 < t1 / 6.0,
                "{sys:?}: expected near-linear scaling, got {t1} -> {t14}"
            );
        }
    }

    #[test]
    fn contended_counter_serialises_and_aborts() {
        // Everyone increments the same word.
        let w: Workload = (0..200u64).map(|_| rw_txn(7, 7, 800.0)).collect();
        for sys in [SimSystem::TinyStm, SimSystem::Tsx, SimSystem::Rococo] {
            let r = simulate(&w, sys, 14, &CostModel::default());
            assert_eq!(r.commits, 200, "{sys:?} must finish the pool");
            assert!(r.total_aborts() > 0, "{sys:?} must see conflicts");
        }
    }

    #[test]
    fn tsx_capacity_forces_fallback() {
        let big = PricedTxn {
            reads: (0..8u64).collect(),
            writes: (0..40_000u64).step_by(8).collect(), // 5000 lines
            seq_ns: 5000.0,
        };
        let w: Workload = std::iter::repeat_with(|| big.clone()).take(10).collect();
        let r = simulate(&w, SimSystem::Tsx, 4, &CostModel::default());
        assert_eq!(r.commits, 10);
        assert_eq!(r.fallback_commits, 10, "all must take the fallback lock");
        assert!(r.aborts[&AbortKind::Capacity] > 0);
    }

    #[test]
    fn rococo_read_only_txns_never_touch_engine() {
        let w: Workload = (0..50u64)
            .map(|i| PricedTxn {
                reads: vec![i],
                writes: vec![],
                seq_ns: 300.0,
            })
            .collect();
        let r = simulate(&w, SimSystem::Rococo, 4, &CostModel::default());
        assert_eq!(r.commits, 50);
        assert_eq!(r.fpga.unwrap().requests, 0);
    }

    #[test]
    fn determinism() {
        let w: Workload = (0..100u64)
            .map(|i| rw_txn(i % 13, (i + 1) % 13, 500.0))
            .collect();
        let a = simulate(&w, SimSystem::Rococo, 8, &CostModel::default());
        let b = simulate(&w, SimSystem::Rococo, 8, &CostModel::default());
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.total_aborts(), b.total_aborts());
        assert!((a.makespan_ns - b.makespan_ns).abs() < 1e-6);
    }

    #[test]
    fn phases_are_barriers() {
        // Two phases of disjoint work: makespan roughly doubles compared
        // to one phase at high thread counts (each phase drains fully).
        let one: Workload = disjoint_workload(56);
        let mut two = Workload::default();
        let recs: Vec<PricedTxn> = (0..56u64).map(|i| rw_txn(i, 100_000 + i, 1000.0)).collect();
        two.phases = vec![recs[..28].to_vec(), recs[28..].to_vec()];
        let m1 = simulate(&one, SimSystem::TinyStm, 56, &CostModel::default()).makespan_ns;
        let m2 = simulate(&two, SimSystem::TinyStm, 56, &CostModel::default()).makespan_ns;
        assert!(m2 > m1 * 1.5, "barrier must serialise phases: {m1} vs {m2}");
    }
}
