//! The discrete-event simulation engine.

use crate::cost::CostModel;
use crate::workload::{PricedTxn, Workload};
use rococo_fpga::{
    EngineConfig, EngineStats, FpgaVerdict, PipelinedValidator, ValidateRequest, ValidationEngine,
};
use rococo_sched::{Bounds, Router};
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
    /// `rococo_sched::HybridTm`: the router sends each attempt down the
    /// Tsx or the Rococo path, behind the mode gate. `Some(m)` switches
    /// the router's mechanism `m` off (a row of the router ablation).
    Hybrid(Option<Mechanism>),
}

impl SimSystem {
    /// Index into [`CostModel::ht_penalty`] of a static system.
    fn idx(self) -> usize {
        match self {
            SimSystem::TinyStm => 0,
            SimSystem::Tsx => 1,
            SimSystem::Rococo => 2,
            SimSystem::Hybrid(_) => unreachable!("a hybrid attempt is priced as its path"),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SimSystem::TinyStm => "TinySTM",
            SimSystem::Tsx => "TSX-HTM",
            SimSystem::Rococo => "ROCoCoTM",
            SimSystem::Hybrid(_) => "Hybrid",
        }
    }
}

/// A router mechanism [`SimSystem::Hybrid`] can switch off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// The EWMA admission bound: every class fits.
    Admission,
    /// Mid-retry migration: a capacity-aborted attempt retries as routed.
    Migration,
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
    /// Attempts the hybrid admitted to its software path (0 for the
    /// static systems).
    pub routes_sw: u64,
    /// Attempts the hybrid admitted to its HTM path (0 for the static
    /// systems).
    pub routes_htm: u64,
    /// FPGA engine statistics (ROCoCoTM and the hybrid).
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

/// What happens at an event. At one instant a guard is released before
/// an attempt enters the gate, and both before an attempt ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// A hybrid attempt releases its mode guard.
    Leave,
    /// A hybrid attempt is routed and asks the gate for admission.
    Enter,
    /// An attempt ends its execution and decides.
    Finish,
}

#[derive(PartialEq)]
struct Event {
    time: f64,
    kind: Kind,
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
            .then_with(|| other.kind.cmp(&self.kind))
            .then_with(|| other.worker.cmp(&self.worker))
    }
}

struct WorkerState {
    /// Index into the phase's transaction list.
    txn: usize,
    start: f64,
    attempt: u32,
    /// Hardware attempts failed since the thread's last HTM commit
    /// (`TsxHtm`'s per-thread `attempts`): at the limit the next HTM
    /// attempt takes the fallback lock.
    htm_fails: u32,
    /// The static system whose code runs the current attempt.
    path: SimSystem,
    /// Earliest time an eager conflict doomed this attempt, if any.
    doomed_at: Option<f64>,
    generation: u64,
    busy: bool,
}

/// What one attempt came to.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// Committed; the worker is free at this instant.
    Commit(f64),
    /// Aborted at this instant.
    Abort(f64, AbortKind),
}

impl Outcome {
    fn at(self) -> f64 {
        match self {
            Outcome::Commit(at) | Outcome::Abort(at, _) => at,
        }
    }
}

/// Which engine owns the current epoch (`rococo_sched`'s `gate::Mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Idle,
    Htm,
    Sw,
}

/// `HybridTm`'s routing state: its [`Router`], the per-thread
/// migration flags and the mode gate. STAMP tags no class, so every
/// transaction is class 0.
struct Hybrid {
    router: Router,
    migration: bool,
    migrate_next: Vec<bool>,
    mode: Mode,
    active: usize,
    /// Attempts waiting for an HTM epoch to drain: worker, arrival time,
    /// HTM-eligible.
    waiting: Vec<(usize, f64, bool)>,
    routes: [u64; 2],
}

impl Hybrid {
    fn new(cost: &CostModel, threads: usize, without: Option<Mechanism>) -> Self {
        let bounds = if without == Some(Mechanism::Admission) {
            Bounds::of_lines(usize::MAX, usize::MAX)
        } else {
            // `Bounds::of_htm`'s rule on the simulated TSX's capacities.
            Bounds::of_lines(cost.tsx_read_capacity_lines, cost.tsx_write_capacity_lines)
        };
        Self {
            router: Router::new(1, bounds),
            migration: without != Some(Mechanism::Migration),
            migrate_next: vec![false; threads],
            mode: Mode::Idle,
            active: 0,
            waiting: Vec::new(),
            routes: [0; 2],
        }
    }

    /// `HybridTm::begin` up to the gate: a thread whose last attempt died
    /// of a capacity abort asks for software, any other asks the router.
    /// Returns whether the attempt is HTM-eligible.
    fn route(&self, w: usize) -> bool {
        !self.migrate_next[w] && self.router.admits(0)
    }

    /// `ModeGate::enter` (gate.rs): an idle gate opens the epoch the
    /// attempt asks for; a software epoch admits everyone, redirecting an
    /// HTM-eligible attempt; an HTM epoch admits an HTM-eligible attempt
    /// while nobody waits. `None`: the attempt waits for the HTM epoch to
    /// drain.
    fn enter(&mut self, eligible: bool) -> Option<bool> {
        let htm = match self.mode {
            Mode::Idle => eligible,
            Mode::Sw => false,
            Mode::Htm if eligible && self.waiting.is_empty() => true,
            Mode::Htm => return None,
        };
        self.admit(htm);
        Some(htm)
    }

    fn admit(&mut self, htm: bool) {
        self.active += 1;
        self.mode = if htm { Mode::Htm } else { Mode::Sw };
        self.routes[usize::from(htm)] += 1;
    }

    /// `ModeGuard::drop` (gate.rs): the last one out idles the gate, and
    /// the waiters re-enter — the first opens an HTM epoch only if it is
    /// HTM-eligible and alone, else all of them run software. Returns
    /// the admitted waiters and their path.
    fn leave(&mut self) -> Vec<(usize, f64, bool)> {
        self.active -= 1;
        if self.active > 0 {
            return Vec::new();
        }
        self.mode = Mode::Idle;
        let htm = matches!(self.waiting[..], [(_, _, true)]);
        let waiters = std::mem::take(&mut self.waiting);
        for _ in &waiters {
            self.admit(htm);
        }
        waiters.into_iter().map(|(w, at, _)| (w, at, htm)).collect()
    }

    /// `Route::note_abort` and `Route::retire`: an HTM capacity abort
    /// migrates the thread's next attempt; a commit folds its footprint
    /// into the prediction.
    fn retire(&mut self, w: usize, on_htm: bool, txn: &Txn, outcome: Outcome) {
        match outcome {
            Outcome::Abort(_, AbortKind::Capacity) if on_htm => {
                self.migrate_next[w] = self.migration;
            }
            Outcome::Abort(..) => {}
            Outcome::Commit(_) => {
                let count = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
                self.router
                    .commit(0, count(txn.reads.len()), count(txn.writes.len()));
            }
        }
    }
}

/// Execution duration of one attempt of `t` on the static system `path`.
fn duration(cost: &CostModel, tf: &[f64; 3], path: SimSystem, t: &Txn) -> f64 {
    let (r, w) = (t.reads.len() as f64, t.writes.len() as f64);
    let overhead = match path {
        SimSystem::TinyStm => r * cost.tiny_read_ns + w * cost.tiny_write_ns,
        SimSystem::Tsx => (r + w) * cost.tsx_access_ns,
        SimSystem::Rococo => r * cost.rococo_read_ns + w * cost.rococo_write_ns,
        SimSystem::Hybrid(_) => unreachable!("a hybrid attempt is priced as its path"),
    };
    (t.seq_ns + overhead) * tf[path.idx()]
}

/// The simulated machine: the run's counters, the validator and the
/// current phase's workers and event queue.
struct Machine<'a> {
    system: SimSystem,
    threads: usize,
    cost: &'a CostModel,
    /// Per-thread slowdown of each static system at `threads` workers.
    tf: [f64; 3],
    hybrid: Option<Hybrid>,
    commits_n: u64,
    aborts: HashMap<AbortKind, u64>,
    fallback_commits: u64,
    validator: PipelinedValidator,
    last_pub: f64,
    global_idx: u64,
    /// Engine publications so far (persists across phases — the engine's
    /// sequence numbers are global).
    pub_count: u64,
    txns: Vec<Txn>,
    next_txn: usize,
    commits: Vec<Commit>,
    fallback_free: f64,
    /// Commit decisions are serialised (lock acquisition order): each
    /// gets a strictly later instant so simultaneous finishers validate
    /// against each other correctly.
    last_commit_instant: f64,
    workers: Vec<WorkerState>,
    heap: BinaryHeap<Event>,
    phase_end: f64,
}

impl<'a> Machine<'a> {
    fn new(system: SimSystem, threads: usize, cost: &'a CostModel, hybrid: Option<Hybrid>) -> Self {
        Self {
            system,
            threads,
            cost,
            tf: [0, 1, 2].map(|i| cost.thread_factor(i, threads)),
            hybrid,
            commits_n: 0,
            aborts: HashMap::new(),
            fallback_commits: 0,
            validator: PipelinedValidator::new(
                ValidationEngine::new(EngineConfig {
                    window: cost.rococo_window,
                    ..EngineConfig::default()
                }),
                cost.timing,
            ),
            last_pub: 0.0,
            global_idx: 0,
            pub_count: 0,
            txns: Vec::new(),
            next_txn: 0,
            commits: Vec::new(),
            fallback_free: 0.0,
            last_commit_instant: 0.0,
            workers: (0..threads)
                .map(|_| WorkerState {
                    txn: usize::MAX,
                    start: 0.0,
                    attempt: 0,
                    htm_fails: 0,
                    path: system,
                    doomed_at: None,
                    generation: 0,
                    busy: false,
                })
                .collect(),
            heap: BinaryHeap::new(),
            phase_end: 0.0,
        }
    }

    fn run(mut self, workload: &Workload) -> SimOutcome {
        let mut clock = 0.0f64; // end of the previous phase
        for phase in &workload.phases {
            self.txns = phase.iter().map(Txn::from_priced).collect();
            if self.txns.is_empty() {
                continue;
            }
            self.next_txn = 0;
            self.commits.clear();
            self.fallback_free = clock;
            self.last_commit_instant = clock;
            self.phase_end = clock;
            for w in 0..self.threads {
                self.start_next(w, clock);
            }
            while let Some(ev) = self.heap.pop() {
                let w = ev.worker;
                match ev.kind {
                    Kind::Leave => self.leave(ev.time),
                    Kind::Enter if ev.generation == self.workers[w].generation => {
                        self.enter(w, ev.time)
                    }
                    Kind::Finish
                        if self.workers[w].busy && ev.generation == self.workers[w].generation =>
                    {
                        self.finish(w, ev.time)
                    }
                    _ => {} // stale event
                }
            }
            clock = self.phase_end;
        }
        let [routes_sw, routes_htm] = self.hybrid.as_ref().map_or([0; 2], |h| h.routes);
        SimOutcome {
            system: self.system,
            threads: self.threads,
            makespan_ns: clock,
            commits: self.commits_n,
            aborts: self.aborts,
            fallback_commits: self.fallback_commits,
            routes_sw,
            routes_htm,
            fpga: matches!(self.system, SimSystem::Rococo | SimSystem::Hybrid(_))
                .then(|| self.validator.engine().stats()),
        }
    }

    fn push(&mut self, time: f64, kind: Kind, worker: usize) {
        let generation = self.workers[worker].generation;
        self.heap.push(Event {
            time,
            kind,
            worker,
            generation,
        });
    }

    /// Starts worker `w` on the next pooled transaction, if any.
    fn start_next(&mut self, w: usize, at: f64) {
        self.phase_end = self.phase_end.max(at);
        if self.next_txn < self.txns.len() {
            self.workers[w].txn = self.next_txn;
            self.next_txn += 1;
            self.workers[w].attempt = 0;
            self.begin(w, at);
        } else {
            self.workers[w].busy = false;
        }
    }

    /// Counts an abort and starts the retry after a back-off; a TSX
    /// attempt also pays the pipeline flush.
    fn retry(&mut self, w: usize, at: f64, kind: AbortKind) {
        *self.aborts.entry(kind).or_insert(0) += 1;
        let wk = &mut self.workers[w];
        wk.attempt += 1;
        let penalty = if wk.path == SimSystem::Tsx {
            wk.htm_fails += 1;
            self.cost.tsx_abort_penalty_ns
        } else {
            0.0
        };
        let backoff = penalty + self.cost.backoff_ns * f64::from(wk.attempt.min(8));
        self.begin(w, at + backoff);
    }

    /// A static system runs the attempt at `at`; the hybrid first routes
    /// it through the gate.
    fn begin(&mut self, w: usize, at: f64) {
        self.workers[w].generation += 1;
        if self.hybrid.is_some() {
            self.workers[w].busy = false;
            self.push(at, Kind::Enter, w);
        } else {
            self.run_attempt(w, at, self.system);
        }
    }

    fn run_attempt(&mut self, w: usize, at: f64, path: SimSystem) {
        let finish = at + duration(self.cost, &self.tf, path, &self.txns[self.workers[w].txn]);
        let wk = &mut self.workers[w];
        wk.path = path;
        wk.start = at;
        wk.doomed_at = None;
        wk.busy = true;
        self.push(finish, Kind::Finish, w);
    }

    fn enter(&mut self, w: usize, at: f64) {
        let h = self.hybrid.as_mut().expect("only the hybrid enters");
        let eligible = h.route(w);
        match h.enter(eligible) {
            Some(htm) => self.admitted(w, at, htm),
            // `ModeGate::enter`'s drain-wait: the attempt holds nothing.
            None => h.waiting.push((w, at, eligible)),
        }
    }

    /// The gate admitted `w` at `at`: its migration flag is spent, as
    /// `HybridTm::begin` clears it after `ModeGate::enter`, and the
    /// attempt runs on the path the gate chose.
    fn admitted(&mut self, w: usize, at: f64, htm: bool) {
        if let Some(h) = self.hybrid.as_mut() {
            h.migrate_next[w] = false;
        }
        let path = if htm {
            SimSystem::Tsx
        } else {
            SimSystem::Rococo
        };
        self.run_attempt(w, at, path);
    }

    fn leave(&mut self, at: f64) {
        let h = self.hybrid.as_mut().expect("only the hybrid leaves");
        for (w, arrived, htm) in h.leave() {
            self.admitted(w, at.max(arrived), htm);
        }
    }

    fn finish(&mut self, w: usize, t: f64) {
        self.global_idx += 1;
        let (path, start) = (self.workers[w].path, self.workers[w].start);
        // An eager doom (TSX) recorded during execution aborts first.
        let outcome = match self.workers[w].doomed_at {
            Some(d) => Outcome::Abort(d.max(start), AbortKind::Conflict),
            None => match path {
                SimSystem::TinyStm => self.tiny_attempt(w, t),
                SimSystem::Tsx => self.tsx_attempt(w, t),
                SimSystem::Rococo => self.rococo_attempt(w, t),
                SimSystem::Hybrid(_) => unreachable!("a hybrid attempt runs on a path"),
            },
        };
        if let Some(h) = self.hybrid.as_mut() {
            h.retire(
                w,
                path == SimSystem::Tsx,
                &self.txns[self.workers[w].txn],
                outcome,
            );
            // The guard drops when `commit_seq` returns or the attempt
            // aborts; the gate learns of it at that instant.
            self.push(outcome.at(), Kind::Leave, w);
        }
        match outcome {
            Outcome::Commit(done) => {
                self.commits_n += 1;
                self.start_next(w, done);
            }
            Outcome::Abort(at, kind) => self.retry(w, at, kind),
        }
    }

    fn tiny_attempt(&mut self, w: usize, t: f64) -> Outcome {
        let txn = &self.txns[self.workers[w].txn];
        let start = self.workers[w].start;
        // Commit-time validation happens at a serialised instant (commit
        // locks): LSA aborts iff any commit decided before that instant —
        // and after our start — overwrote something we read.
        let my_instant = (t).max(self.last_commit_instant + 1.0);
        let lo = self.commits.partition_point(|c| c.time <= start);
        let conflict = self.commits[lo..]
            .iter()
            .take_while(|c| c.time < my_instant)
            .any(|c| intersects(&txn.read_set, &c.writes));
        if conflict {
            return Outcome::Abort(t, AbortKind::Conflict);
        }
        self.last_commit_instant = my_instant;
        let commit_cost = self.cost.tiny_commit_fixed_ns
            + txn.reads.len() as f64 * self.cost.tiny_commit_per_read_ns
            + txn.writes.len() as f64 * self.cost.tiny_commit_per_write_ns;
        let done = my_instant + commit_cost * self.tf[0];
        if !txn.writes.is_empty() {
            push_commit(
                &mut self.commits,
                Commit {
                    time: my_instant,
                    writes: txn.writes.clone(),
                    seq: u64::MAX,
                },
            );
        }
        Outcome::Commit(done)
    }

    /// One TSX attempt ending at `t`, or the fallback-lock run that
    /// replaces it once the thread's hardware attempts are spent.
    fn tsx_attempt(&mut self, w: usize, t: f64) -> Outcome {
        let cost = self.cost;
        let threads = self.threads;
        let tf = self.tf[1];
        let txn = &self.txns[self.workers[w].txn];
        // Retries exhausted (whatever the abort reasons were; `TsxHtm::begin`
        // picks its fallback mode the same way): take the global fallback
        // lock, dooming every running hardware transaction (lock
        // subscription), and run serially.
        if self.workers[w].htm_fails >= cost.tsx_max_attempts {
            let fb_start = t.max(self.fallback_free);
            for (v, wk) in self.workers.iter_mut().enumerate() {
                if v != w && wk.busy {
                    let d = wk.doomed_at.unwrap_or(f64::MAX);
                    wk.doomed_at = Some(d.min(fb_start));
                }
            }
            let done = fb_start
                + duration(cost, &self.tf, SimSystem::Tsx, txn)
                + cost.tsx_commit_fixed_ns * tf;
            self.fallback_free = done;
            if !txn.writes.is_empty() {
                push_commit(
                    &mut self.commits,
                    Commit {
                        time: done,
                        writes: txn.writes.clone(),
                        seq: u64::MAX,
                    },
                );
            }
            self.fallback_commits += 1;
            self.workers[w].htm_fails = 0;
            return Outcome::Commit(done);
        }
        // Hyperthread pairs share the L1 that holds transactional state:
        // above the core count the effective capacity halves and
        // sibling-induced conflict misses abort transactions spuriously.
        let ht = threads > cost.cores;
        let wcap = cost.tsx_write_capacity_lines >> usize::from(ht);
        let rcap = cost.tsx_read_capacity_lines >> usize::from(ht);
        if txn.write_lines > wcap || txn.read_lines > rcap {
            return Outcome::Abort(t, AbortKind::Capacity);
        }
        if ht {
            let over = ((threads - cost.cores) as f64 / cost.cores as f64).min(1.0);
            let q = cost.tsx_spurious_ht * over;
            let mut h = self.global_idx ^ 0x7e5c_a1ab;
            let frac = (splitmix64(&mut h) >> 11) as f64 / (1u64 << 53) as f64;
            if frac < q {
                return Outcome::Abort(t, AbortKind::Capacity);
            }
        }
        let done = t + cost.tsx_commit_fixed_ns * tf;
        // Eagerly doom every running transaction whose footprint overlaps
        // our write set (their lines get invalidated).
        for v in 0..threads {
            if v == w || !self.workers[v].busy {
                continue;
            }
            let other = &self.txns[self.workers[v].txn];
            if intersects(&other.read_set, &txn.writes) || intersects(&other.write_set, &txn.writes)
            {
                let d = self.workers[v].doomed_at.unwrap_or(f64::MAX);
                self.workers[v].doomed_at = Some(d.min(done));
            }
        }
        if !txn.writes.is_empty() {
            push_commit(
                &mut self.commits,
                Commit {
                    time: done,
                    writes: txn.writes.clone(),
                    seq: u64::MAX,
                },
            );
        }
        self.workers[w].htm_fails = 0;
        Outcome::Commit(done)
    }

    /// One ROCoCoTM attempt ending its execution at `t`: the CPU fast
    /// path, then the pipelined validator.
    fn rococo_attempt(&mut self, w: usize, t: f64) -> Outcome {
        let cost = self.cost;
        let tf = self.tf[2];
        let txn = &self.txns[self.workers[w].txn];
        let start = self.workers[w].start;
        if txn.is_read_only() {
            return Outcome::Commit(t + cost.rococo_ro_commit_ns * tf);
        }
        // CPU fast path: a read issued after a conflicting publication
        // sees the miss set and aborts without the out-of-core hop. Read
        // times are a deterministic hash over the execution interval.
        let lo = self.commits.partition_point(|c| c.time <= start);
        let mut cpu_abort_at: Option<f64> = None;
        let mut first_conflict_pub: Option<u64> = None;
        for c in self.commits[lo..].iter().take_while(|c| c.time <= t) {
            if c.seq == u64::MAX || !intersects(&txn.read_set, &c.writes) {
                continue;
            }
            if first_conflict_pub.is_none() {
                first_conflict_pub = Some(c.seq);
            }
            let mut h = self.global_idx ^ (c.seq << 17) ^ 0x5eed;
            let frac = (splitmix64(&mut h) >> 11) as f64 / (1u64 << 53) as f64;
            let read_time = start + frac * (t - start);
            if read_time > c.time {
                cpu_abort_at = Some(cpu_abort_at.map_or(read_time, |x: f64| x.min(read_time)));
            }
        }
        if let Some(at) = cpu_abort_at {
            return Outcome::Abort(at.max(start), AbortKind::Conflict);
        }
        // ValidTS: full extension when nothing conflicted, otherwise
        // frozen just before the first conflicting publication.
        let valid_ts = first_conflict_pub.unwrap_or(self.pub_count);
        let (verdict, verdict_time) = self.validator.process_at(
            &ValidateRequest {
                tx_id: self.global_idx,
                valid_ts,
                read_addrs: txn.reads.clone(),
                write_addrs: txn.writes.clone(),
            },
            t,
        );
        match verdict {
            FpgaVerdict::Commit { seq } => {
                let pub_time = verdict_time.max(self.last_pub)
                    + txn.writes.len() as f64 * cost.rococo_commit_per_write_ns * tf;
                self.last_pub = pub_time;
                self.pub_count = seq + 1;
                push_commit(
                    &mut self.commits,
                    Commit {
                        time: pub_time,
                        writes: txn.writes.clone(),
                        seq,
                    },
                );
                Outcome::Commit(pub_time)
            }
            FpgaVerdict::AbortCycle => Outcome::Abort(verdict_time, AbortKind::FpgaCycle),
            FpgaVerdict::AbortWindowOverflow => Outcome::Abort(verdict_time, AbortKind::FpgaWindow),
            FpgaVerdict::ServiceStopped => {
                // Only the service layer synthesizes this; a direct
                // engine call cannot return it.
                unreachable!("engine never emits ServiceStopped")
            }
        }
    }
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
    let hybrid = match system {
        SimSystem::Hybrid(without) => Some(Hybrid::new(cost, threads, without)),
        _ => None,
    };
    Machine::new(system, threads, cost, hybrid).run(workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [SimSystem; 4] = [
        SimSystem::TinyStm,
        SimSystem::Tsx,
        SimSystem::Rococo,
        SimSystem::Hybrid(None),
    ];

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
        for sys in ALL {
            let r = simulate(&w, sys, 8, &CostModel::default());
            assert_eq!(r.commits, 100, "{sys:?}");
            assert_eq!(r.total_aborts(), 0, "{sys:?}");
        }
    }

    #[test]
    fn parallelism_shrinks_makespan() {
        let w = disjoint_workload(280);
        for sys in ALL {
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
        for sys in ALL {
            let r = simulate(&w, sys, 14, &CostModel::default());
            assert_eq!(r.commits, 200, "{sys:?} must finish the pool");
            assert!(r.total_aborts() > 0, "{sys:?} must see conflicts");
        }
    }

    /// Ten transactions of 5 000 written lines each: more than TSX holds.
    fn overflowing_workload() -> Workload {
        let big = PricedTxn {
            reads: (0..8u64).collect(),
            writes: (0..40_000u64).step_by(8).collect(), // 5000 lines
            seq_ns: 5000.0,
        };
        std::iter::repeat_with(|| big.clone()).take(10).collect()
    }

    #[test]
    fn tsx_capacity_forces_fallback() {
        let r = simulate(
            &overflowing_workload(),
            SimSystem::Tsx,
            4,
            &CostModel::default(),
        );
        assert_eq!(r.commits, 10);
        assert_eq!(r.fallback_commits, 10, "all must take the fallback lock");
        assert!(r.aborts[&AbortKind::Capacity] > 0);
    }

    /// Where TSX overflows, the hybrid migrates each overflowing attempt
    /// to software and then predicts the overflow: no fallback lock.
    #[test]
    fn hybrid_routes_around_tsx_capacity() {
        let r = simulate(
            &overflowing_workload(),
            SimSystem::Hybrid(None),
            4,
            &CostModel::default(),
        );
        assert_eq!(r.commits, 10);
        assert_eq!(r.fallback_commits, 0, "no attempt takes the fallback lock");
        // The four first attempts, unseeded, try the HTM and overflow it.
        assert_eq!(r.aborts[&AbortKind::Capacity], 4);
        assert_eq!(r.routes_htm, 4);
        assert_eq!(r.routes_htm + r.routes_sw, r.commits + r.total_aborts());
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
        for sys in [SimSystem::Rococo, SimSystem::Hybrid(None)] {
            let a = simulate(&w, sys, 8, &CostModel::default());
            let b = simulate(&w, sys, 8, &CostModel::default());
            assert_eq!(a.commits, b.commits);
            assert_eq!(a.total_aborts(), b.total_aborts());
            assert!((a.makespan_ns - b.makespan_ns).abs() < 1e-6);
        }
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
