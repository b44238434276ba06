//! TxKV load generator: drives the sharded KV service with a skewed
//! key-value workload and prints a throughput / latency / abort report
//! per backend.
//!
//! Closed-loop mode (default) runs `--clients` threads that each issue
//! their share of `--ops` requests back-to-back, retrying shed requests;
//! open-loop mode (`--open-loop RATE`, or `--mode open --rate R`) paces
//! submissions at the given requests/s per client and counts shed
//! requests as lost, so queue-wait shows up in the latency tail instead
//! of slowing the arrival process.
//!
//! Each run also lands in a machine-readable JSON report
//! (`BENCH_txkv.json` by default): `{"bench":"txkv_load","rows":[...]}`
//! with one self-contained row per backend × durability mode × batch
//! ceiling, each row carrying its full configuration (shards, workers,
//! batch, mode, ...) plus throughput, tail latency and abort figures, so
//! CI and notebooks can track performance without scraping the text
//! output. `--append` splices this invocation's rows into an existing
//! report instead of overwriting it — that is how before/after rows from
//! different configurations accumulate in one artifact — and `--label`
//! tags the rows so a reader can tell which optimisation or experiment
//! each row belongs to. `--durability` takes a comma-separated list of
//! modes: `none` (in-memory, the default) and/or WAL fsync policies
//! (`always`, `everyN`, `never`); `--batch` takes a comma-separated list
//! of worker batch ceilings (`TxKvConfig::max_batch` values) — `--batch
//! 1,16` yields a before/after pair for the run-to-completion batching
//! optimisation.
//!
//! ```text
//! cargo run -p rococo-bench --bin txkv_load            # tinystm + rococo, 1M ops each
//! cargo run -p rococo-bench --bin txkv_load -- --quick # 100k ops for smoke runs
//! cargo run -p rococo-bench --bin txkv_load -- --backend rococo --open-loop 50000
//! cargo run -p rococo-bench --bin txkv_load -- --backend rococo --batch 1,16
//! cargo run -p rococo-bench --bin txkv_load -- --durability none,always --read-pct 20
//! ```

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rococo_bench::banner;
use rococo_repl::{Cluster, ClusterConfig, ReplError};
use rococo_sched::{HybridTm, SchedSnapshot};
use rococo_server::{
    DurabilityConfig, PendingReply, Request, Response, TelemetryConfig, TxKv, TxKvConfig, TxKvError,
};
use rococo_stm::{RococoTm, TinyStm, TmConfig, TmSystem, TsxHtm};
use rococo_telemetry::Histogram;
use rococo_trace::ZipfSampler;
use rococo_wal::FsyncPolicy;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Closed,
    Open,
}

/// One durability mode under test: in-memory, or WAL with a given fsync
/// policy.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Durability {
    None,
    Wal(FsyncPolicy),
}

impl Durability {
    fn name(self) -> String {
        match self {
            Durability::None => "none".into(),
            Durability::Wal(f) => f.name(),
        }
    }

    fn parse(s: &str) -> Option<Self> {
        if s == "none" {
            return Some(Durability::None);
        }
        FsyncPolicy::parse(s).map(Durability::Wal)
    }
}

#[derive(Debug, Clone)]
struct LoadCfg {
    backend: String,
    ops: u64,
    shards: usize,
    workers_per_shard: usize,
    clients: usize,
    keys: u64,
    theta: f64,
    read_pct: u32,
    mode: Mode,
    rate: u64,
    queue_capacity: usize,
    /// Worker batch ceilings to sweep (`TxKvConfig::max_batch`), one run
    /// per value — `--batch 1,16` produces a before/after pair for the
    /// run-to-completion batching optimisation.
    batch: Vec<usize>,
    durability: Vec<Durability>,
    json_path: String,
    /// Free-text tag stamped on every JSON row of this invocation, e.g.
    /// the optimisation a before/after pair measures.
    label: String,
    /// Splice this invocation's rows into an existing report instead of
    /// overwriting it.
    append: bool,
    /// Telemetry artifact directory: enables the flight recorder, the
    /// service's metric scraper, and the Perfetto trace export.
    telemetry: Option<String>,
    /// Run each configuration twice — flight recorder off, then on — so
    /// the JSON report carries a before/after throughput pair.
    compare_telemetry: bool,
    /// Tail-sampled causal tracing: keep full event chains for the
    /// slowest-k requests per latency bucket (plus all failed ones),
    /// decompose each into critical-path stages, write the
    /// `attribution.json` artifact next to the trace, and stamp an
    /// `attribution` summary object on the recorder-on JSON rows.
    attribution: bool,
    /// Follower replica count; non-zero switches to replicated cluster
    /// mode (closed loop, WAL-shipped replication, one mid-run
    /// fail-over), emitting `repl` rows with lag and downtime.
    replicas: usize,
}

impl Default for LoadCfg {
    fn default() -> Self {
        Self {
            backend: "both".into(),
            ops: 1_000_000,
            shards: 4,
            workers_per_shard: 2,
            clients: 8,
            keys: 1 << 16,
            theta: 0.9,
            read_pct: 80,
            mode: Mode::Closed,
            rate: 25_000,
            queue_capacity: 256,
            batch: vec![TxKvConfig::default().max_batch],
            durability: vec![Durability::None],
            json_path: "BENCH_txkv.json".into(),
            label: String::new(),
            append: false,
            telemetry: None,
            compare_telemetry: false,
            attribution: false,
            replicas: 0,
        }
    }
}

fn parse_args() -> LoadCfg {
    let mut cfg = LoadCfg::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--backend" => cfg.backend = value("--backend"),
            "--ops" => cfg.ops = value("--ops").parse().expect("--ops"),
            "--shards" => cfg.shards = value("--shards").parse().expect("--shards"),
            "--workers" => cfg.workers_per_shard = value("--workers").parse().expect("--workers"),
            "--clients" => cfg.clients = value("--clients").parse().expect("--clients"),
            "--keys" => cfg.keys = value("--keys").parse().expect("--keys"),
            "--theta" => cfg.theta = value("--theta").parse().expect("--theta"),
            "--read-pct" => cfg.read_pct = value("--read-pct").parse().expect("--read-pct"),
            "--rate" => cfg.rate = value("--rate").parse().expect("--rate"),
            "--queue" => cfg.queue_capacity = value("--queue").parse().expect("--queue"),
            "--mode" => {
                cfg.mode = match value("--mode").as_str() {
                    "open" => Mode::Open,
                    "closed" => Mode::Closed,
                    other => panic!("unknown mode {other} (open|closed)"),
                }
            }
            // Shorthand for `--mode open --rate R`.
            "--open-loop" => {
                cfg.mode = Mode::Open;
                cfg.rate = value("--open-loop").parse().expect("--open-loop");
            }
            "--batch" => {
                cfg.batch = value("--batch")
                    .split(',')
                    .map(|s| s.parse().expect("--batch"))
                    .collect();
                assert!(!cfg.batch.is_empty(), "--batch needs at least one value");
            }
            "--durability" => {
                cfg.durability = value("--durability")
                    .split(',')
                    .map(|s| {
                        Durability::parse(s)
                            .unwrap_or_else(|| panic!("unknown durability mode {s:?}"))
                    })
                    .collect();
            }
            "--json" => cfg.json_path = value("--json"),
            "--label" => {
                cfg.label = value("--label");
                assert!(
                    !cfg.label.contains(['"', '\\']),
                    "--label must not contain quotes or backslashes (hand-rolled JSON)"
                );
            }
            "--append" => cfg.append = true,
            "--telemetry" => cfg.telemetry = Some(value("--telemetry")),
            "--compare-telemetry" => cfg.compare_telemetry = true,
            "--attribution" => cfg.attribution = true,
            "--replicas" => cfg.replicas = value("--replicas").parse().expect("--replicas"),
            "--quick" => cfg.ops = 100_000,
            "--help" | "-h" => {
                println!(
                    "txkv_load [--backend tinystm|htm|rococo|hybrid|both|all] [--ops N] \
                     [--shards N] [--workers N] [--clients N] [--keys N] [--theta F] \
                     [--read-pct P] [--mode closed|open] [--rate R] [--open-loop R] \
                     [--queue N] [--batch N,M,...] \
                     [--durability none,always,everyN,never] [--json PATH|none] \
                     [--label TEXT] [--append] \
                     [--telemetry DIR] [--compare-telemetry] [--attribution] \
                     [--replicas N] [--quick]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other} (try --help)"),
        }
    }
    assert!(
        !cfg.attribution || cfg.telemetry.is_some(),
        "--attribution requires --telemetry DIR (it is derived from recorded traces)"
    );
    cfg
}

/// One random request drawn from the configured mix: `read_pct` % reads
/// (mostly point gets, some snapshot multi-gets), the rest split across
/// blind puts, read-modify-writes and two-key transfers. Keys are
/// Zipf-distributed so hot keys collide like a real cache-line-hot
/// workload.
fn gen_request(rng: &mut StdRng, zipf: &ZipfSampler, cfg: &LoadCfg) -> Request {
    let roll = rng.gen_range(0u32..100);
    let key = zipf.sample(rng);
    if roll < cfg.read_pct {
        if roll % 8 == 0 {
            let n = rng.gen_range(2usize..=8);
            let keys = (0..n).map(|_| zipf.sample(rng)).collect();
            Request::MultiGet { keys }
        } else {
            Request::Get { key }
        }
    } else {
        match roll % 3 {
            0 => Request::Put {
                key,
                value: rng.gen_range(0u64..1_000),
            },
            1 => Request::Add {
                key,
                delta: rng.gen_range(1u64..=16),
            },
            _ => {
                let to = zipf.sample(rng);
                Request::Transfer {
                    from: key,
                    to,
                    amount: rng.gen_range(1u64..=8),
                }
            }
        }
    }
}

struct ClientTotals {
    ok: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
}

fn closed_loop<S: TmSystem + 'static>(
    kv: &TxKv<S>,
    cfg: &LoadCfg,
    client: usize,
    quota: u64,
    totals: &ClientTotals,
) {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ (client as u64) << 8);
    let zipf = ZipfSampler::new(cfg.keys, cfg.theta);
    let mut done = 0u64;
    while done < quota {
        let req = gen_request(&mut rng, &zipf, cfg);
        loop {
            match kv.call(req.clone()) {
                Ok(_) => {
                    totals.ok.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(TxKvError::Overloaded { .. }) => {
                    // Closed-loop clients retry shed requests after a
                    // short pause; the shed is still counted server-side.
                    totals.shed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(_) => {
                    totals.failed.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        done += 1;
    }
    // Client threads emit the trace-opening `Ingress` events; hand them
    // to the collector before the thread exits (no-op, recorder off).
    rococo_telemetry::flush_thread();
}

fn drain_ready(pending: &mut VecDeque<PendingReply>, totals: &ClientTotals) {
    while let Some(front) = pending.front() {
        match front.try_wait() {
            Some(result) => {
                record(result, totals);
                pending.pop_front();
            }
            None => break,
        }
    }
}

fn record(result: Result<Response, TxKvError>, totals: &ClientTotals) {
    match result {
        Ok(_) => totals.ok.fetch_add(1, Ordering::Relaxed),
        Err(_) => totals.failed.fetch_add(1, Ordering::Relaxed),
    };
}

fn open_loop<S: TmSystem + 'static>(
    kv: &TxKv<S>,
    cfg: &LoadCfg,
    client: usize,
    quota: u64,
    totals: &ClientTotals,
) {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ (client as u64) << 8);
    let zipf = ZipfSampler::new(cfg.keys, cfg.theta);
    let interval = Duration::from_nanos(1_000_000_000 / cfg.rate.max(1));
    let start = Instant::now();
    let mut pending: VecDeque<PendingReply> = VecDeque::new();
    for i in 0..quota {
        // Pace to the arrival schedule; if we're behind, fire immediately
        // (open loop never slows the arrival process to match service).
        let due = start + interval * (i as u32);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let req = gen_request(&mut rng, &zipf, cfg);
        match kv.submit(req) {
            Ok(reply) => pending.push_back(reply),
            Err(TxKvError::Overloaded { .. }) => {
                // Open loop drops shed requests: that is the load shedding
                // working as intended under overload. Only admission-control
                // rejections land here — requests the backend *defers* to
                // the synchronous commit path are still answered and are
                // counted separately, server-side, in the report's
                // `deferred` column.
                totals.shed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                totals.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        drain_ready(&mut pending, totals);
    }
    for reply in pending {
        record(reply.wait(), totals);
    }
    rococo_telemetry::flush_thread();
}

/// One run's machine-readable summary (a JSON object in the report
/// file).
struct RunResult {
    backend: &'static str,
    durability: String,
    /// The worker batch ceiling (`TxKvConfig::max_batch`) this run used.
    batch: usize,
    elapsed_s: f64,
    committed: u64,
    throughput_rps: f64,
    /// Requests rejected at admission (queue overload) — the client-side
    /// count, distinct from `deferred`.
    shed: u64,
    /// Requests whose commit the backend deferred to the synchronous
    /// path (server-side router/batching deferral, still answered).
    deferred: u64,
    failed: u64,
    abort_rate: f64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    /// Whether the transaction flight recorder was enabled for this run
    /// (the before/after pair `--compare-telemetry` produces).
    flight_recorder: bool,
    /// Critical-path attribution summary over the tail-sampled chains;
    /// present only on recorder-on `--attribution` rows.
    attribution: Option<AttrRow>,
    wal: Option<rococo_wal::WalSnapshot>,
    /// Replication figures; present only on `--replicas` rows so the
    /// single-node schema is untouched.
    repl: Option<ReplRun>,
    /// Router/scheduler counters; present only on single-node hybrid
    /// rows so every other schema is untouched.
    sched: Option<SchedSnapshot>,
}

/// The `attribution` object of a recorder-on `--attribution` row:
/// latency-weighted stage shares over the tail-sampled request chains.
struct AttrRow {
    /// Complete sampled chains the summary aggregates.
    sampled: usize,
    /// Requests offered to the tail sampler during the run.
    observed: u64,
    /// Nearest-rank percentiles of the sampled chains' end-to-end
    /// latency (tail-biased by construction: the sampler keeps the
    /// slowest-k per bucket plus every failure).
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    /// Stage shares in `rococo_telemetry::STAGES` order, summing to 1.0.
    shares: [f64; rococo_telemetry::attr::STAGE_COUNT],
}

impl AttrRow {
    fn to_json(&self, out: &mut String) {
        let _ = write!(
            out,
            ",\"attribution\":{{\"sampled\":{},\"observed\":{},\"p50_ns\":{},\"p99_ns\":{},\
             \"p999_ns\":{},\"shares\":{{",
            self.sampled, self.observed, self.p50_ns, self.p99_ns, self.p999_ns,
        );
        for (i, (name, share)) in rococo_telemetry::STAGES
            .iter()
            .zip(self.shares.iter())
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{share:.6}");
        }
        out.push_str("}}");
    }
}

/// The replication columns of a `--replicas` row.
struct ReplRun {
    replicas: usize,
    /// Replication lag percentiles in commit sequence numbers, sampled
    /// across all live followers every 500us.
    lag_p50_seq: u64,
    lag_p99_seq: u64,
    /// Demotion-to-serving wall time of the mid-run fail-over.
    failover_ms: f64,
    /// Gets served by follower replicas instead of the primary.
    follower_reads: u64,
}

impl RunResult {
    /// Hand-rolled JSON (the workspace deliberately has no JSON crate).
    /// Every value is numeric or a short ASCII name (`--label` rejects
    /// quotes and backslashes), so no escaping is needed.
    ///
    /// Each row is self-contained — it carries the full workload
    /// configuration alongside the results — so rows measured under
    /// different shard/worker/batch configurations can live side by side
    /// in one appended report.
    fn to_json(&self, cfg: &LoadCfg, out: &mut String) {
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"ops\":{},\"shards\":{},\"workers_per_shard\":{},\
             \"clients\":{},\"keys\":{},\"theta\":{},\"read_pct\":{},\"mode\":\"{}\"",
            cfg.label,
            cfg.ops,
            cfg.shards,
            cfg.workers_per_shard,
            cfg.clients,
            cfg.keys,
            cfg.theta,
            cfg.read_pct,
            match cfg.mode {
                Mode::Closed => "closed",
                Mode::Open => "open",
            },
        );
        if cfg.mode == Mode::Open {
            let _ = write!(out, ",\"rate_per_client\":{}", cfg.rate);
        }
        let _ = write!(
            out,
            ",\"backend\":\"{}\",\"durability\":\"{}\",\"batch\":{},\"elapsed_s\":{:.3},\
             \"committed\":{},\"throughput_rps\":{:.1},\"shed\":{},\"deferred\":{},\
             \"failed\":{},\
             \"abort_rate\":{:.5},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\
             \"flight_recorder\":{}",
            self.backend,
            self.durability,
            self.batch,
            self.elapsed_s,
            self.committed,
            self.throughput_rps,
            self.shed,
            self.deferred,
            self.failed,
            self.abort_rate,
            self.p50_ns,
            self.p99_ns,
            self.p999_ns,
            self.flight_recorder,
        );
        if let Some(a) = &self.attribution {
            a.to_json(out);
        }
        if let Some(r) = &self.repl {
            let _ = write!(
                out,
                ",\"repl\":{{\"replicas\":{},\"lag_p50_seq\":{},\"lag_p99_seq\":{},\
                 \"failover_ms\":{:.2},\"follower_reads\":{}}}",
                r.replicas, r.lag_p50_seq, r.lag_p99_seq, r.failover_ms, r.follower_reads,
            );
        }
        if let Some(s) = &self.sched {
            let _ = write!(
                out,
                ",\"sched\":{{\"routes_htm\":{},\"routes_sw\":{},\"commits_htm\":{},\
                 \"commits_sw\":{},\"migrations\":{},\"capacity_bans\":{},\"deferrals\":{},\
                 \"adapts\":{},\"serialized_classes\":{},\"read_bound\":{},\"write_bound\":{}}}",
                s.routes_htm,
                s.routes_sw,
                s.commits_htm,
                s.commits_sw,
                s.migrations,
                s.capacity_bans,
                s.deferrals(),
                s.adapts,
                s.serialized_classes,
                s.read_bound,
                s.write_bound,
            );
        }
        match &self.wal {
            Some(w) => {
                let _ = write!(
                    out,
                    ",\"wal\":{{\"acked_records\":{},\"batches\":{},\"mean_batch\":{:.2},\
                     \"batch_p99\":{},\"fsyncs\":{},\"fsync_p99_ns\":{},\"checkpoints\":{}}}}}",
                    w.acked_records,
                    w.batches,
                    w.mean_batch(),
                    w.batch_sizes.quantile_upper(0.99),
                    w.fsyncs,
                    w.fsync_ns.quantile_upper(0.99),
                    w.checkpoints,
                );
            }
            None => out.push_str(",\"wal\":null}"),
        }
    }
}

fn run_backend<S: TmSystem + 'static>(
    system: Arc<S>,
    cfg: &LoadCfg,
    durability: Durability,
    batch: usize,
    recorder_on: bool,
) -> RunResult {
    let wal_dir = match durability {
        Durability::None => None,
        Durability::Wal(_) => Some(rococo_wal::scratch_dir("txkv-load")),
    };
    let telemetry_dir = cfg.telemetry.as_ref().map(std::path::PathBuf::from);
    if recorder_on {
        // Attribution needs whole chains at export time: a deeper ring
        // keeps slow sampled requests from being overwritten before the
        // run drains (sampling decides what to *keep*, the ring decides
        // what still *exists*).
        let ring = if cfg.attribution {
            rococo_telemetry::DEFAULT_RING_EVENTS * 16
        } else {
            rococo_telemetry::DEFAULT_RING_EVENTS
        };
        rococo_telemetry::enable(ring);
        if cfg.attribution {
            rococo_telemetry::sampler_reset(rococo_telemetry::DEFAULT_TAIL_K);
        }
    }
    let kv_cfg = TxKvConfig {
        shards: cfg.shards,
        workers_per_shard: cfg.workers_per_shard,
        queue_capacity: cfg.queue_capacity,
        keys: cfg.keys,
        max_batch: batch,
        durability: match (durability, &wal_dir) {
            (Durability::Wal(fsync), Some(dir)) => Some(DurabilityConfig {
                dir: dir.clone(),
                fsync,
                checkpoint_every: 0, // measure raw group commit, no truncation pauses
                kill: None,
            }),
            _ => None,
        },
        telemetry: telemetry_dir
            .as_ref()
            .filter(|_| recorder_on)
            .map(|d| TelemetryConfig::new(d.clone())),
        ..TxKvConfig::default()
    };
    let kv = TxKv::start(system, kv_cfg).expect("service start");
    banner(&format!(
        "txkv_load on {} ({} shards x {} workers, batch {}, {} {} clients, durability={}, \
         recorder={})",
        kv.backend().name(),
        cfg.shards,
        cfg.workers_per_shard,
        batch,
        cfg.clients,
        match cfg.mode {
            Mode::Closed => "closed-loop",
            Mode::Open => "open-loop",
        },
        durability.name(),
        if recorder_on { "on" } else { "off" },
    ));

    // Seed every account with a balance so transfers mostly succeed.
    // Direct stores bypass the WAL, which is fine here: the bench
    // measures logging throughput, it never recovers the directory.
    let heap = kv.backend().heap();
    let table = kv.table();
    for k in 0..cfg.keys {
        heap.store_direct(table + k as usize, 1_000);
    }

    let totals = ClientTotals {
        ok: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        failed: AtomicU64::new(0),
    };
    let started = Instant::now();
    std::thread::scope(|s| {
        let base = cfg.ops / cfg.clients as u64;
        let rem = cfg.ops % cfg.clients as u64;
        for client in 0..cfg.clients {
            let quota = base + u64::from((client as u64) < rem);
            let kv = &kv;
            let totals = &totals;
            s.spawn(move || match cfg.mode {
                Mode::Closed => closed_loop(kv, cfg, client, quota, totals),
                Mode::Open => open_loop(kv, cfg, client, quota, totals),
            });
        }
    });
    let wall = started.elapsed();

    let report = kv.shutdown();
    let ok = totals.ok.load(Ordering::Relaxed);
    let shed = totals.shed.load(Ordering::Relaxed);
    let failed = totals.failed.load(Ordering::Relaxed);
    println!(
        "client view: {} offered, {} answered, {} shed, {} failed, {:.0} req/s over {:.2}s",
        cfg.ops,
        ok,
        shed,
        failed,
        ok as f64 / wall.as_secs_f64(),
        wall.as_secs_f64(),
    );
    print!("{report}");
    let stats = &report.aggregate;
    let attempts = stats.committed + stats.retries;
    let abort_rate = if attempts > 0 {
        stats.total_aborts() as f64 / attempts as f64
    } else {
        0.0
    };
    if attempts > 0 {
        println!(
            "  attempt-level abort rate: {:.2}% ({} aborts / {} attempts)",
            100.0 * abort_rate,
            stats.total_aborts(),
            attempts,
        );
    }

    // Export the flight-recorder artifacts: the Perfetto trace of every
    // recorded transaction plus any anomaly dumps taken during the run.
    // Under --attribution the trace is tail-sampled first (only kept
    // chains and trace-0 infrastructure events survive) and each kept
    // chain is decomposed into critical-path stages.
    let mut attribution = None;
    if recorder_on {
        if let Some(dir) = &telemetry_dir {
            let _ = std::fs::create_dir_all(dir);
            let mut events = rococo_telemetry::drain_events();
            if cfg.attribution {
                let kept = rococo_telemetry::sampled_traces();
                let before = events.len();
                rococo_telemetry::filter_sampled(&mut events, &kept);
                println!(
                    "tail sampler kept {} of {} request chains ({} of {} events)",
                    kept.len(),
                    rococo_telemetry::sampler_observed(),
                    events.len(),
                    before,
                );
            }
            let lanes = rococo_telemetry::lane_names();
            let trace = rococo_telemetry::build_tx_trace(&events, &lanes);
            match std::fs::write(dir.join("trace.json"), trace) {
                Ok(()) => println!(
                    "wrote {} ({} events)",
                    dir.join("trace.json").display(),
                    events.len()
                ),
                Err(e) => eprintln!("could not write trace.json: {e}"),
            }
            for (i, dump) in rococo_telemetry::take_dumps().iter().enumerate() {
                let name = format!("anomaly-{i}-{}.txt", dump.reason);
                let _ = std::fs::write(dir.join(name), dump.to_text());
            }
            if cfg.attribution {
                attribution = write_attribution(dir, &events);
            }
        }
        rococo_telemetry::disable();
    }

    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    RunResult {
        backend: report.backend,
        durability: durability.name(),
        batch,
        elapsed_s: wall.as_secs_f64(),
        committed: stats.committed,
        throughput_rps: stats.committed as f64 / wall.as_secs_f64().max(1e-9),
        shed,
        deferred: stats.deferred,
        failed,
        abort_rate,
        p50_ns: stats.latency.quantile(0.5),
        p99_ns: stats.latency.quantile(0.99),
        p999_ns: stats.latency.quantile(0.999),
        flight_recorder: recorder_on,
        attribution,
        wal: report.wal.clone(),
        repl: None,
        sched: None,
    }
}

/// Attributes every complete sampled chain, writes the per-request
/// `attribution.json` artifact (the input `trace_report` analyses), and
/// returns the row-level summary.
fn write_attribution(
    dir: &std::path::Path,
    events: &[rococo_telemetry::EventRecord],
) -> Option<AttrRow> {
    let chains = rococo_telemetry::group_chains(events);
    let mut attrs = Vec::new();
    let mut incomplete = 0usize;
    for (_, chain) in &chains {
        match rococo_telemetry::attribute(chain) {
            Some(a) => attrs.push(a),
            // Ring wrap-around evicted the chain's ingress or reply;
            // nothing sound can be said about its total.
            None => incomplete += 1,
        }
    }
    if attrs.is_empty() {
        eprintln!("attribution: no complete sampled chains ({incomplete} incomplete dropped)");
        return None;
    }
    let mut out = String::from("{\"bench\":\"txkv_attribution\",\"stages\":[");
    for (i, s) in rococo_telemetry::STAGES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{s}\"");
    }
    let _ = write!(out, "],\"incomplete\":{incomplete},\"rows\":[");
    for (i, a) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"trace\":{},\"start_us\":{:.3},\"total_ns\":{},\"outcome\":\"{}\",\
             \"attempts\":{},\"ingress_lane\":{},\"worker_lane\":{},\"stage_ns\":{{",
            a.trace,
            a.start_ns as f64 / 1000.0,
            a.total_ns,
            a.outcome,
            a.attempts,
            a.ingress_lane,
            a.worker_lane,
        );
        for (j, (name, ns)) in rococo_telemetry::STAGES
            .iter()
            .zip(a.stage_ns.iter())
            .enumerate()
        {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{ns}");
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    let path = dir.join("attribution.json");
    match std::fs::write(&path, out) {
        Ok(()) => println!(
            "wrote {} ({} chains, {} incomplete dropped)",
            path.display(),
            attrs.len(),
            incomplete
        ),
        Err(e) => eprintln!("could not write attribution.json: {e}"),
    }
    let mut totals: Vec<u64> = attrs.iter().map(|a| a.total_ns).collect();
    totals.sort_unstable();
    Some(AttrRow {
        sampled: attrs.len(),
        observed: rococo_telemetry::sampler_observed(),
        p50_ns: rococo_telemetry::quantile::sorted_quantile(&totals, 0.5),
        p99_ns: rococo_telemetry::quantile::sorted_quantile(&totals, 0.99),
        p999_ns: rococo_telemetry::quantile::sorted_quantile(&totals, 0.999),
        shares: rococo_telemetry::aggregate_shares(&attrs),
    })
}

/// Replicated-mode request mix: as [`gen_request`], except transfers
/// become blind adds — cluster preloads would have to replicate through
/// the WAL key by key, and the chaos harness already owns transfer
/// correctness; the bench measures shipping, lag, and fail-over cost.
fn gen_repl_request(rng: &mut StdRng, zipf: &ZipfSampler, cfg: &LoadCfg) -> Request {
    match gen_request(rng, zipf, cfg) {
        Request::Transfer { from, amount, .. } => Request::Add {
            key: from,
            delta: amount,
        },
        req => req,
    }
}

/// Closed-loop client against the cluster: writes go to the primary
/// (riding out fail-over by attempting recovery like a real client-side
/// coordinator), point gets are served by follower replicas.
fn repl_closed_loop<S: TmSystem + 'static>(
    cluster: &Cluster<S>,
    cfg: &LoadCfg,
    client: usize,
    quota: u64,
    totals: &ClientTotals,
    latency: &Histogram,
    follower_reads: &AtomicU64,
) {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ (client as u64) << 8);
    let zipf = ZipfSampler::new(cfg.keys, cfg.theta);
    let followers = cluster.follower_count();
    let mut next_follower = client % followers.max(1);
    let mut done = 0u64;
    while done < quota {
        let req = gen_repl_request(&mut rng, &zipf, cfg);
        let start = Instant::now();
        // Route point gets to a follower (an eventually-consistent read
        // with no watermark); a crashed or promoted follower falls back
        // to the primary.
        if let Request::Get { key } = req {
            if followers > 0 {
                next_follower = (next_follower + 1) % followers;
                if cluster
                    .follower_read(next_follower, key, None, Duration::ZERO)
                    .is_ok()
                {
                    follower_reads.fetch_add(1, Ordering::Relaxed);
                    totals.ok.fetch_add(1, Ordering::Relaxed);
                    latency.record(start.elapsed().as_nanos() as u64);
                    done += 1;
                    continue;
                }
            }
        }
        loop {
            match cluster.call(req.clone()) {
                Ok(_) => {
                    totals.ok.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(ReplError::Kv(TxKvError::Overloaded { .. })) => {
                    totals.shed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(ReplError::PrimaryDown) => {
                    // The primary is fenced mid-fail-over: help it along
                    // (the epoch check makes racing helpers harmless) and
                    // retry — the stall is real client latency.
                    let _ = cluster.recover_primary(cluster.epoch());
                }
                Err(_) => {
                    totals.failed.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        latency.record(start.elapsed().as_nanos() as u64);
        done += 1;
    }
}

/// One replicated cluster run: closed-loop load, a lag sampler, and one
/// mid-run fail-over so the row carries a measured downtime.
fn run_replicated<S: TmSystem + 'static>(
    make: impl Fn() -> Arc<S> + Send + Sync + 'static,
    cfg: &LoadCfg,
) -> RunResult {
    let rcfg = ClusterConfig {
        followers: cfg.replicas,
        keys: cfg.keys,
        shards: cfg.shards,
        workers_per_shard: cfg.workers_per_shard,
        queue_capacity: cfg.queue_capacity,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(make, rcfg).expect("cluster start");
    banner(&format!(
        "txkv_load replicated ({} shards x {} workers, {} followers, {} closed-loop clients)",
        cfg.shards, cfg.workers_per_shard, cfg.replicas, cfg.clients,
    ));

    let totals = ClientTotals {
        ok: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        failed: AtomicU64::new(0),
    };
    let latency = Histogram::default();
    let lag_hist = Histogram::default();
    let follower_reads = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let fail_at = cfg.ops / 2;
    let mut failover_ms = 0.0f64;

    let started = Instant::now();
    std::thread::scope(|s| {
        let base = cfg.ops / cfg.clients as u64;
        let rem = cfg.ops % cfg.clients as u64;
        for client in 0..cfg.clients {
            let quota = base + u64::from((client as u64) < rem);
            let cluster = &cluster;
            let totals = &totals;
            let latency = &latency;
            let follower_reads = &follower_reads;
            s.spawn(move || {
                repl_closed_loop(cluster, cfg, client, quota, totals, latency, follower_reads);
            });
        }

        // Coordinator: sample replication lag, and demote the primary
        // once half the offered load has been answered so the row
        // carries a fail-over downtime measured under live traffic.
        let cluster = &cluster;
        let sampler_totals = &totals;
        let lag_hist = &lag_hist;
        let sampler_stop = &stop;
        let failover_ms = &mut failover_ms;
        s.spawn(move || {
            let mut triggered = false;
            while !sampler_stop.load(Ordering::Relaxed) {
                if let Some(max_lag) = (0..cluster.follower_count())
                    .filter_map(|f| cluster.lag(f).ok())
                    .max()
                {
                    lag_hist.record(max_lag);
                }
                if !triggered && sampler_totals.ok.load(Ordering::Relaxed) >= fail_at {
                    triggered = true;
                    if let Ok(report) = cluster.fail_over() {
                        *failover_ms = report.downtime.as_secs_f64() * 1e3;
                    }
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        });

        // The clients' scope handles finish first conceptually, but the
        // sampler only exits once told to — tell it when every client
        // quota can be complete. A dedicated watcher keeps the scope
        // simple: poll the answered count.
        let watcher_totals = &totals;
        let watcher_stop = &stop;
        s.spawn(move || {
            while watcher_totals.ok.load(Ordering::Relaxed)
                + watcher_totals.failed.load(Ordering::Relaxed)
                < cfg.ops
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            watcher_stop.store(true, Ordering::Relaxed);
        });
    });
    let wall = started.elapsed();

    let ok = totals.ok.load(Ordering::Relaxed);
    let shed = totals.shed.load(Ordering::Relaxed);
    let failed = totals.failed.load(Ordering::Relaxed);
    let snapshot = cluster.snapshot();
    let report = cluster.shutdown();
    let (committed, aborts, attempts, deferred) = report
        .primary
        .iter()
        .chain(report.demoted.iter())
        .fold((0u64, 0u64, 0u64, 0u64), |(c, a, t, d), r| {
            (
                c + r.aggregate.committed,
                a + r.aggregate.total_aborts(),
                t + r.aggregate.committed + r.aggregate.retries,
                d + r.aggregate.deferred,
            )
        });
    let lat = latency.snapshot();
    let lag = lag_hist.snapshot();
    println!(
        "client view: {} offered, {} answered ({} by followers), {} shed, {} failed, \
         {:.0} req/s over {:.2}s",
        cfg.ops,
        ok,
        follower_reads.load(Ordering::Relaxed),
        shed,
        failed,
        ok as f64 / wall.as_secs_f64(),
        wall.as_secs_f64(),
    );
    println!(
        "replication: {} batches shipped, {} applied, lag p50/p99 {}/{} seq, \
         {} gaps, {} resends, fail-over {:.2}ms, epoch {}",
        snapshot.batches_shipped,
        snapshot.batches_applied,
        lag.quantile(0.5),
        lag.quantile(0.99),
        snapshot.gaps_detected,
        snapshot.resends,
        failover_ms,
        snapshot.epoch,
    );

    let backend = report
        .primary
        .as_ref()
        .or_else(|| report.demoted.first())
        .map_or("unknown", |r| r.backend);
    RunResult {
        backend,
        durability: FsyncPolicy::Always.name(),
        batch: TxKvConfig::default().max_batch,
        elapsed_s: wall.as_secs_f64(),
        committed,
        throughput_rps: ok as f64 / wall.as_secs_f64().max(1e-9),
        shed,
        deferred,
        failed,
        abort_rate: if attempts > 0 {
            aborts as f64 / attempts as f64
        } else {
            0.0
        },
        p50_ns: lat.quantile(0.5),
        p99_ns: lat.quantile(0.99),
        p999_ns: lat.quantile(0.999),
        flight_recorder: false,
        attribution: None,
        wal: report.primary.as_ref().and_then(|r| r.wal.clone()),
        sched: None,
        repl: Some(ReplRun {
            replicas: cfg.replicas,
            lag_p50_seq: lag.quantile(0.5),
            lag_p99_seq: lag.quantile(0.99),
            failover_ms,
            follower_reads: follower_reads.load(Ordering::Relaxed),
        }),
    }
}

fn write_json(cfg: &LoadCfg, results: &[RunResult]) {
    if cfg.json_path == "none" {
        return;
    }
    let mut rows = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        r.to_json(cfg, &mut rows);
    }
    // `--append` splices the new rows into an existing report so
    // before/after rows from different configurations accumulate in one
    // artifact. The report format is our own (written a few lines below),
    // so string surgery on the trailing `]}` is safe; anything that does
    // not look like a row-format report is rewritten from scratch.
    let existing = if cfg.append {
        std::fs::read_to_string(&cfg.json_path).ok()
    } else {
        None
    };
    let out = match existing.as_deref().map(str::trim_end) {
        Some(prev) if prev.contains("\"rows\":[") && prev.ends_with("]}") => {
            let head = &prev[..prev.len() - 2];
            let sep = if head.ends_with('[') { "" } else { "," };
            format!("{head}{sep}{rows}]}}\n")
        }
        Some(_) => {
            eprintln!(
                "{}: not a row-format report; rewriting instead of appending",
                cfg.json_path
            );
            format!("{{\"bench\":\"txkv_load\",\"rows\":[{rows}]}}\n")
        }
        None => format!("{{\"bench\":\"txkv_load\",\"rows\":[{rows}]}}\n"),
    };
    // Write-then-rename so a crash (or a concurrent reader polling the
    // artifact) never observes a truncated report.
    let tmp = format!("{}.tmp", cfg.json_path);
    let res = std::fs::write(&tmp, &out).and_then(|()| std::fs::rename(&tmp, &cfg.json_path));
    match res {
        Ok(()) => println!("wrote {} ({} rows)", cfg.json_path, results.len()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("could not write {}: {e}", cfg.json_path);
        }
    }
}

fn main() {
    let cfg = parse_args();
    let tm_cfg = TmConfig {
        heap_words: TxKvConfig {
            keys: cfg.keys,
            ..TxKvConfig::default()
        }
        .heap_words(),
        max_threads: cfg.shards * cfg.workers_per_shard,
    };
    let run_tiny = matches!(cfg.backend.as_str(), "tinystm" | "both" | "all");
    let run_htm = matches!(cfg.backend.as_str(), "htm" | "all");
    let run_rococo = matches!(cfg.backend.as_str(), "rococo" | "both" | "all");
    let run_hybrid = matches!(cfg.backend.as_str(), "hybrid" | "all");
    if !(run_tiny || run_htm || run_rococo || run_hybrid) {
        panic!(
            "unknown backend {} (tinystm|htm|rococo|hybrid|both|all)",
            cfg.backend
        );
    }
    // Replicated mode: one row per backend, always-durable, closed
    // loop; the single-node durability/telemetry matrix does not apply.
    if cfg.replicas > 0 {
        assert!(
            cfg.mode == Mode::Closed,
            "replicated mode is closed-loop only"
        );
        let mut results = Vec::new();
        if run_tiny {
            results.push(run_replicated(
                move || Arc::new(TinyStm::with_config(tm_cfg)),
                &cfg,
            ));
        }
        if run_htm {
            results.push(run_replicated(
                move || Arc::new(TsxHtm::with_config(tm_cfg)),
                &cfg,
            ));
        }
        if run_rococo {
            results.push(run_replicated(
                move || Arc::new(RococoTm::with_config(tm_cfg)),
                &cfg,
            ));
        }
        if run_hybrid {
            results.push(run_replicated(
                move || Arc::new(HybridTm::with_config(tm_cfg)),
                &cfg,
            ));
        }
        write_json(&cfg, &results);
        return;
    }
    // --compare-telemetry runs each configuration twice (flight
    // recorder off, then on) so the JSON report carries a before/after
    // throughput pair; otherwise one pass, recorder on iff --telemetry.
    let recorder_passes: &[bool] = if cfg.compare_telemetry {
        &[false, true]
    } else if cfg.telemetry.is_some() {
        &[true]
    } else {
        &[false]
    };
    let mut results = Vec::new();
    for &batch in &cfg.batch {
        for &durability in &cfg.durability {
            for &recorder_on in recorder_passes {
                // A fresh backend per run: durable mode requires one, and
                // it keeps in-memory runs comparable (no warmed-up
                // metadata).
                if run_tiny {
                    results.push(run_backend(
                        Arc::new(TinyStm::with_config(tm_cfg)),
                        &cfg,
                        durability,
                        batch,
                        recorder_on,
                    ));
                }
                if run_htm {
                    results.push(run_backend(
                        Arc::new(TsxHtm::with_config(tm_cfg)),
                        &cfg,
                        durability,
                        batch,
                        recorder_on,
                    ));
                }
                if run_rococo {
                    results.push(run_backend(
                        Arc::new(RococoTm::with_config(tm_cfg)),
                        &cfg,
                        durability,
                        batch,
                        recorder_on,
                    ));
                }
                if run_hybrid {
                    // Keep a handle on the router so the row can carry
                    // its sched counters after the service shuts down.
                    let tm = Arc::new(HybridTm::with_config(tm_cfg));
                    let mut row =
                        run_backend(Arc::clone(&tm), &cfg, durability, batch, recorder_on);
                    row.sched = Some(tm.sched_snapshot());
                    results.push(row);
                }
            }
        }
    }
    write_json(&cfg, &results);
}
