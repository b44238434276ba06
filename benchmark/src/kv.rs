//! The three service workloads: one generator thread driving an in-process
//! `TxKv` (1 shard × 1 worker) through a windowed closed loop, and the
//! output checks every segment must pass.

use crate::gen;
use crate::spec::{KvSpec, Workload, INITIAL_VALUE, POOL, WARMUP_REQUESTS, WINDOW};
use crate::stats::{vm_hwm_mib, Hist};
use rococo_fpga::EngineStats;
use rococo_server::{
    DurabilityConfig, PendingReply, Request, TxKv, TxKvConfig, TxKvError, TxKvReport,
};
use rococo_stm::{
    atomically, Abort, Addr, StatsSnapshot, TinyStm, TmConfig, TmHeap, TmSystem, Transaction, Word,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests whose spans a traced segment keeps for `trace.json`; the
/// counters cover every request of the segment.
pub const SPAN_CAP: usize = 20_000;

/// What the generator saw, request by request.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub issued: u64,
    pub ok: u64,
    pub failed: u64,
    pub shed: u64,
    pub unanswered: u64,
}

impl Counts {
    /// Requests that did not end in a reply the client can use.
    pub fn not_ok(&self) -> u64 {
        self.failed + self.shed + self.unanswered
    }

    fn add(&mut self, other: &Counts) {
        self.issued += other.issued;
        self.ok += other.ok;
        self.failed += other.failed;
        self.shed += other.shed;
        self.unanswered += other.unanswered;
    }
}

/// The commutative invariant behind the output check: `Transfer` conserves
/// the table's wrapping sum and every acknowledged `Add` moves it by its
/// `delta`, whatever the order, batching or retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    expected_sum: Word,
}

impl Ledger {
    pub fn seeded(keys: u64, value: Word) -> Self {
        Self {
            expected_sum: keys.wrapping_mul(value),
        }
    }

    /// Notes a request the service acknowledged as committed.
    pub fn ack(&mut self, req: &Request) {
        if let Request::Add { delta, .. } = req {
            self.expected_sum = self.expected_sum.wrapping_add(*delta);
        }
    }

    /// Compares the final table against the acknowledged history.
    pub fn check(&self, table: impl Iterator<Item = Word>) -> Result<(), String> {
        let sum = table.fold(0u64, Word::wrapping_add);
        if sum == self.expected_sum {
            Ok(())
        } else {
            Err(format!(
                "conservation broken: table sums to {sum}, acknowledged history to {} (off by {})",
                self.expected_sum,
                sum.wrapping_sub(self.expected_sum) as i64
            ))
        }
    }
}

/// One run of the windowed closed loop.
pub struct LoopOut {
    pub counts: Counts,
    pub elapsed: Duration,
    /// Submit→reply latency of every answered request.
    pub latency: Hist,
    /// Traced runs only: time inside `TxKv::submit` and blocked in
    /// `PendingReply::wait`, and per request (first [`SPAN_CAP`]) the
    /// nanosecond offsets from the loop's start of submit start, submit
    /// end, wait start and wait end.
    pub submit_ns: u64,
    pub wait_ns: u64,
    pub spans: Vec<[u64; 4]>,
    pub started: Instant,
}

impl LoopOut {
    pub fn throughput(&self) -> f64 {
        self.counts.ok as f64 / self.elapsed.as_secs_f64()
    }
}

struct Outstanding {
    reply: PendingReply,
    pool_index: usize,
    submitted: Instant,
    submit_end: Instant,
}

/// When a loop stops issuing requests.
#[derive(Clone, Copy)]
enum Stop {
    /// The warm-up: a fixed count, so set-up time shows set-up work.
    AfterRequests(u64),
    /// A timed segment.
    AfterSecs(f64),
}

/// Keeps `WINDOW` requests outstanding through `TxKv::submit` until `stop`,
/// waiting on the oldest reply when the window is full, then drains the
/// window. Requests cycle over `pool`.
fn drive<S: TmSystem + 'static, const TRACED: bool>(
    kv: &TxKv<S>,
    pool: &[Request],
    stop: Stop,
    ledger: &mut Ledger,
) -> LoopOut {
    let started = Instant::now();
    let (budget, deadline) = match stop {
        Stop::AfterRequests(n) => (n, None),
        Stop::AfterSecs(secs) => (u64::MAX, Some(started + Duration::from_secs_f64(secs))),
    };
    let mut out = LoopOut {
        counts: Counts::default(),
        elapsed: Duration::ZERO,
        latency: Hist::new(),
        submit_ns: 0,
        wait_ns: 0,
        spans: Vec::with_capacity(if TRACED { SPAN_CAP } else { 0 }),
        started,
    };
    let mut window: VecDeque<Outstanding> = VecDeque::with_capacity(WINDOW);
    let mut settle = |o: Outstanding, out: &mut LoopOut| {
        let wait_start = if TRACED { Instant::now() } else { o.submitted };
        let reply = o.reply.wait();
        let now = Instant::now();
        out.latency.record((now - o.submitted).as_nanos() as u64);
        if TRACED {
            out.wait_ns += (now - wait_start).as_nanos() as u64;
            if out.spans.len() < SPAN_CAP {
                let at = |t: Instant| (t - started).as_nanos() as u64;
                out.spans
                    .push([at(o.submitted), at(o.submit_end), at(wait_start), at(now)]);
            }
        }
        match reply {
            Ok(_) => {
                out.counts.ok += 1;
                ledger.ack(&pool[o.pool_index]);
            }
            Err(TxKvError::ShuttingDown) => out.counts.unanswered += 1,
            Err(_) => out.counts.failed += 1,
        }
    };
    let mut next = 0usize;
    loop {
        if window.len() == WINDOW {
            let oldest = window.pop_front().expect("window is full");
            settle(oldest, &mut out);
        }
        let submitted = Instant::now();
        if out.counts.issued == budget || deadline.is_some_and(|d| submitted >= d) {
            break;
        }
        let pool_index = next % POOL;
        next += 1;
        out.counts.issued += 1;
        match kv.submit(pool[pool_index].clone()) {
            Ok(reply) => {
                let submit_end = if TRACED { Instant::now() } else { submitted };
                if TRACED {
                    out.submit_ns += (submit_end - submitted).as_nanos() as u64;
                }
                window.push_back(Outstanding {
                    reply,
                    pool_index,
                    submitted,
                    submit_end,
                });
            }
            Err(TxKvError::Overloaded { .. }) => out.counts.shed += 1,
            Err(_) => out.counts.failed += 1,
        }
    }
    for o in window.drain(..) {
        settle(o, &mut out);
    }
    out.elapsed = started.elapsed();
    out
}

/// One segment: a fresh service, its set-up, an untimed warm-up, the timed
/// loop, shutdown and the output checks.
pub struct KvSegment {
    /// Service start, table seeding, request generation and warm-up.
    pub setup_s: f64,
    pub timed: LoopOut,
    /// `VmHWM` when the timed loop ended, before any check allocated.
    pub hwm_mib: f64,
    /// Warm-up and timed loop together (the checks cover both).
    pub total: Counts,
    pub report: TxKvReport,
    pub tm: StatsSnapshot,
    pub engine: Option<EngineStats>,
    /// Durable workloads: time `TxKv::recover` took in the check.
    pub recover_ms: f64,
    /// Output checks that failed; empty on a correct segment.
    pub errors: Vec<String>,
}

/// The pinned service shape: 1 shard × 1 worker, queue of 256, every other
/// field the default.
pub fn service_config(spec: &KvSpec, wal_dir: Option<&Path>) -> TxKvConfig {
    TxKvConfig {
        backend: spec.backend,
        shards: 1,
        workers_per_shard: 1,
        queue_capacity: 256,
        keys: spec.keys,
        durability: spec.wal.zip(wal_dir).map(|(fsync, dir)| DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync,
            checkpoint_every: 0,
            kill: None,
        }),
        ..TxKvConfig::default()
    }
}

fn tm_config(cfg: &TxKvConfig) -> TmConfig {
    TmConfig {
        heap_words: cfg.heap_words(),
        max_threads: cfg.worker_threads(),
    }
}

/// A fresh, empty directory for one segment's log under `scratch`.
fn fresh_wal_dir(scratch: &Path, workload: Workload, segment: usize) -> PathBuf {
    let dir = scratch.join(format!(
        "wal-{}-{}-{segment}",
        std::process::id(),
        workload.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the WAL directory under --out");
    dir
}

fn table_words(heap: &TmHeap, table: Addr, keys: u64) -> Vec<Word> {
    (0..keys as Addr)
        .map(|k| heap.load_direct(table + k))
        .collect()
}

/// Runs one segment of `workload`'s stream on the backend `make` builds.
/// `spec` is passed apart from `workload` so the reference runs can swap
/// the backend under the same stream.
pub fn run_segment<S: TmSystem + 'static, const TRACED: bool>(
    make: fn(TmConfig) -> S,
    workload: Workload,
    spec: &KvSpec,
    seed: u64,
    segment: usize,
    secs: f64,
    scratch: &Path,
) -> (KvSegment, Arc<S>) {
    let setup_started = Instant::now();
    let wal_dir = spec.wal.map(|_| fresh_wal_dir(scratch, workload, segment));
    let cfg = service_config(spec, wal_dir.as_deref());
    let tm = Arc::new(make(tm_config(&cfg)));
    let kv = TxKv::start(Arc::clone(&tm), cfg.clone()).expect("start the service");
    let table = kv.table();
    for k in 0..spec.keys as Addr {
        tm.heap().store_direct(table + k, INITIAL_VALUE);
    }
    if spec.wal.is_some() {
        // `store_direct` bypasses the log; the checkpoint puts the seeded
        // image where recovery will look for it.
        kv.checkpoint().expect("checkpoint the seeded table");
    }
    let mut ledger = Ledger::seeded(spec.keys, INITIAL_VALUE);
    let pool = gen::requests(workload, spec, seed, segment);
    let warm = drive::<S, false>(
        &kv,
        &pool,
        Stop::AfterRequests(WARMUP_REQUESTS),
        &mut ledger,
    );
    let setup_s = setup_started.elapsed().as_secs_f64();

    let timed = drive::<S, TRACED>(&kv, &pool, Stop::AfterSecs(secs), &mut ledger);
    let hwm_mib = vm_hwm_mib();

    let report = kv.shutdown();
    let mut total = warm.counts;
    total.add(&timed.counts);
    let mut errors = Vec::new();
    if total.ok + total.not_ok() != total.issued {
        errors.push(format!("requests not answered exactly once: {total:?}"));
    }
    if report.aggregate.committed != total.ok {
        errors.push(format!(
            "service committed {} requests, clients saw {} acknowledged",
            report.aggregate.committed, total.ok
        ));
    }
    let live = table_words(tm.heap(), table, spec.keys);
    if let Err(e) = ledger.check(live.iter().copied()) {
        errors.push(e);
    }
    let mut recover_ms = 0.0;
    if let Some(dir) = &wal_dir {
        let fresh = Arc::new(TinyStm::with_config(tm_config(&cfg)));
        let recover_started = Instant::now();
        match TxKv::recover(Arc::clone(&fresh), cfg.clone()) {
            Ok((recovered, _)) => {
                recover_ms = recover_started.elapsed().as_secs_f64() * 1e3;
                let rtable = recovered.table();
                recovered.shutdown();
                let replayed = table_words(fresh.heap(), rtable, spec.keys);
                if let Some(k) = (0..live.len()).find(|&k| live[k] != replayed[k]) {
                    errors.push(format!(
                        "recovered table differs from the live one at key {k}: {} vs {}",
                        replayed[k], live[k]
                    ));
                }
            }
            Err(e) => errors.push(format!("recovery failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    let segment = KvSegment {
        setup_s,
        timed,
        hwm_mib,
        total,
        report,
        tm: tm.stats_snapshot(),
        engine: tm.engine_stats(),
        recover_ms,
        errors,
    };
    (segment, tm)
}

/// Executes one request as one transaction on `tm`, no service in between:
/// the five request bodies of `rococo-server`'s shard worker, re-stated.
pub fn apply_direct<S: TmSystem>(tm: &S, table: Addr, req: &Request) -> Word {
    let addr = |key: u64| table + key as Addr;
    atomically(tm, 0, |tx| -> Result<Word, Abort> {
        match req {
            Request::Get { key } => tx.read(addr(*key)),
            Request::Put { key, value } => tx.write(addr(*key), *value).map(|()| *value),
            Request::Add { key, delta } => {
                let new = tx.read(addr(*key))?.wrapping_add(*delta);
                tx.write(addr(*key), new)?;
                Ok(new)
            }
            Request::Transfer { from, to, amount } => {
                let src = tx.read(addr(*from))?;
                if src >= *amount && from != to {
                    let dst = tx.read(addr(*to))?;
                    tx.write(addr(*from), src - amount)?;
                    tx.write(addr(*to), dst.wrapping_add(*amount))?;
                }
                Ok(src)
            }
            Request::MultiGet { keys } => keys
                .iter()
                .try_fold(0u64, |acc, key| Ok(acc.wrapping_add(tx.read(addr(*key))?))),
        }
    })
}

/// `stm.direct_ns`: the segment's own stream executed by this thread
/// calling `atomically` on the backend, for `secs` seconds. Returns
/// nanoseconds per request, after checking conservation.
pub fn run_direct<S: TmSystem>(
    make: fn(TmConfig) -> S,
    workload: Workload,
    spec: &KvSpec,
    seed: u64,
    segment: usize,
    secs: f64,
) -> Result<f64, String> {
    let cfg = service_config(spec, None);
    let tm = make(tm_config(&cfg));
    let table = tm.heap().alloc(spec.keys as usize);
    for k in 0..spec.keys as Addr {
        tm.heap().store_direct(table + k, INITIAL_VALUE);
    }
    let mut ledger = Ledger::seeded(spec.keys, INITIAL_VALUE);
    let pool = gen::requests(workload, spec, seed, segment);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let mut done = 0u64;
    let mut sink = 0u64;
    // The clock is read once per 256 requests, not per request: a direct
    // transaction costs about as much as `Instant::now`.
    while !done.is_multiple_of(256) || Instant::now() < deadline {
        let req = &pool[done as usize % POOL];
        sink = sink.wrapping_add(apply_direct(&tm, table, req));
        ledger.ack(req);
        done += 1;
    }
    let elapsed = started.elapsed();
    std::hint::black_box(sink);
    ledger.check(table_words(tm.heap(), table, spec.keys).into_iter())?;
    Ok(elapsed.as_nanos() as f64 / done as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies `reqs` to a fresh TinySTM table, acknowledging each in the
    /// ledger; returns the system, the table and the ledger.
    fn replay(reqs: &[Request], keys: u64) -> (TinyStm, Addr, Ledger) {
        let tm = TinyStm::with_config(TmConfig {
            heap_words: keys as usize + 64,
            max_threads: 1,
        });
        let table = tm.heap().alloc(keys as usize);
        for k in 0..keys as Addr {
            tm.heap().store_direct(table + k, INITIAL_VALUE);
        }
        let mut ledger = Ledger::seeded(keys, INITIAL_VALUE);
        for r in reqs {
            apply_direct(&tm, table, r);
            ledger.ack(r);
        }
        (tm, table, ledger)
    }

    fn table_of(tm: &TinyStm, table: Addr, keys: u64) -> Vec<Word> {
        table_words(tm.heap(), table, keys)
    }

    fn stream() -> (Vec<Request>, u64) {
        let spec = Workload::KvHotWrite.kv().unwrap();
        let reqs = gen::requests(Workload::KvHotWrite, &spec, 3, 0);
        (reqs[..2_000].to_vec(), spec.keys)
    }

    #[test]
    fn oracle_accepts_a_faithful_run() {
        let (reqs, keys) = stream();
        let (tm, table, ledger) = replay(&reqs, keys);
        ledger
            .check(table_of(&tm, table, keys).into_iter())
            .expect("a faithful run conserves");
    }

    #[test]
    fn oracle_catches_a_lost_update() {
        let (reqs, keys) = stream();
        let (tm, table, mut ledger) = replay(&reqs, keys);
        // An Add the service acknowledged but never applied.
        ledger.ack(&Request::Add { key: 5, delta: 17 });
        let err = ledger
            .check(table_of(&tm, table, keys).into_iter())
            .expect_err("the lost update must show");
        assert!(err.contains("off by -17"), "{err}");
    }

    #[test]
    fn oracle_catches_a_double_applied_add() {
        let (reqs, keys) = stream();
        let (tm, table, ledger) = replay(&reqs, keys);
        // A retry that committed twice but was acknowledged once.
        apply_direct(&tm, table, &Request::Add { key: 9, delta: 40 });
        let err = ledger
            .check(table_of(&tm, table, keys).into_iter())
            .expect_err("the double apply must show");
        assert!(err.contains("off by 40"), "{err}");
    }

    #[test]
    fn transfers_and_failed_transfers_conserve() {
        let reqs = vec![
            Request::Transfer {
                from: 1,
                to: 2,
                amount: 50,
            },
            Request::Transfer {
                from: 3,
                to: 3,
                amount: 7,
            },
            Request::Transfer {
                from: 4,
                to: 5,
                amount: INITIAL_VALUE + 1, // source short: moves nothing
            },
        ];
        let (tm, table, ledger) = replay(&reqs, 8);
        let words = table_of(&tm, table, 8);
        assert_eq!(words[1], INITIAL_VALUE - 50);
        assert_eq!(words[2], INITIAL_VALUE + 50);
        assert_eq!(words[4], INITIAL_VALUE);
        ledger.check(words.into_iter()).expect("conserved");
    }

    #[test]
    fn a_short_segment_passes_every_check_on_each_backend_shape() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-segments");
        for w in [Workload::KvRead, Workload::KvDurable] {
            let spec = w.kv().unwrap();
            let (seg, _) = match spec.wal {
                None => {
                    let (s, tm) = run_segment::<rococo_stm::RococoTm, true>(
                        rococo_stm::RococoTm::with_config,
                        w,
                        &spec,
                        1,
                        0,
                        0.05,
                        &scratch,
                    );
                    (s, tm.name())
                }
                Some(_) => {
                    let (s, tm) = run_segment::<TinyStm, false>(
                        TinyStm::with_config,
                        w,
                        &spec,
                        1,
                        0,
                        0.05,
                        &scratch,
                    );
                    (s, tm.name())
                }
            };
            assert_eq!(seg.errors, Vec::<String>::new(), "{}", w.name());
            assert!(seg.total.ok > 0 && seg.total.not_ok() == 0);
            assert_eq!(seg.timed.latency.count(), seg.timed.counts.ok);
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
