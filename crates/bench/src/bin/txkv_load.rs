//! TxKV load driver: drives the sharded KV service with a skewed
//! key-value workload — one configuration per invocation — and prints
//! the service's own throughput / latency / abort report.
//!
//! Closed-loop mode (default) runs `--clients` threads that each issue
//! their share of `--ops` requests back-to-back, retrying shed requests;
//! open-loop mode (`--open-loop RATE`) paces submissions at the given
//! requests/s per client and counts shed requests as lost, so queue-wait
//! shows up in the latency tail instead of slowing the arrival process.
//!
//! The driver measures nothing that is meant to be compared across
//! commits — that is `benchmark/`'s job. What it leaves behind, with
//! `--telemetry DIR`, is a *run directory* (`rococo_telemetry::rundir`):
//! the service's scraped metrics, the Perfetto trace, anomaly dumps and,
//! with `--attribution`, the tail-sampled critical-path rows
//! `trace_report` reads. `run_check DIR` validates it.
//!
//! ```text
//! cargo run -p rococo-bench --bin txkv_load            # rococo, 1M ops
//! cargo run -p rococo-bench --bin txkv_load -- --quick # 100k ops for smoke runs
//! cargo run -p rococo-bench --bin txkv_load -- --backend tinystm --open-loop 50000
//! cargo run -p rococo-bench --bin txkv_load -- --durability always --read-pct 20
//! cargo run -p rococo-bench --bin txkv_load -- --replicas 2 --quick
//! ```

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rococo_bench::banner;
use rococo_repl::{Cluster, ClusterConfig, ReplError};
use rococo_sched::HybridTm;
use rococo_server::{
    BackendChoice, DurabilityConfig, PendingReply, Request, Response, TxKv, TxKvConfig, TxKvError,
};
use rococo_stm::{RococoTm, TinyStm, TmConfig, TmSystem, TsxHtm};
use rococo_telemetry::{rundir, Histogram};
use rococo_trace::ZipfSampler;
use rococo_wal::FsyncPolicy;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct LoadCfg {
    backend: BackendChoice,
    ops: u64,
    shards: usize,
    workers_per_shard: usize,
    clients: usize,
    keys: u64,
    theta: f64,
    read_pct: u32,
    /// Open loop at this many requests/s per client; closed loop if unset.
    open_loop: Option<u64>,
    queue_capacity: usize,
    /// WAL fsync policy; in-memory if unset.
    durability: Option<FsyncPolicy>,
    /// Run directory: enables the flight recorder, the metric files the
    /// service writes when it stops, and the Perfetto trace export.
    telemetry: Option<PathBuf>,
    /// Tail-sampled causal tracing: keep full event chains for the
    /// slowest-k requests per latency bucket (plus all failed ones) and
    /// write their critical-path decomposition into the run directory.
    attribution: bool,
    /// Follower replica count; non-zero switches to replicated cluster
    /// mode (closed loop, WAL-shipped replication, one mid-run
    /// fail-over).
    replicas: usize,
}

impl Default for LoadCfg {
    fn default() -> Self {
        Self {
            backend: BackendChoice::default(),
            ops: 1_000_000,
            shards: 4,
            workers_per_shard: 2,
            clients: 8,
            keys: 1 << 16,
            theta: 0.9,
            read_pct: 80,
            open_loop: None,
            queue_capacity: 256,
            durability: None,
            telemetry: None,
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
            "--backend" => {
                let name = value("--backend");
                cfg.backend = BackendChoice::parse(&name).unwrap_or_else(|| {
                    panic!("unknown backend {name} (tinystm|htm|rococo|hybrid)")
                });
            }
            "--ops" => cfg.ops = value("--ops").parse().expect("--ops"),
            "--shards" => cfg.shards = value("--shards").parse().expect("--shards"),
            "--workers" => cfg.workers_per_shard = value("--workers").parse().expect("--workers"),
            "--clients" => cfg.clients = value("--clients").parse().expect("--clients"),
            "--keys" => cfg.keys = value("--keys").parse().expect("--keys"),
            "--theta" => cfg.theta = value("--theta").parse().expect("--theta"),
            "--read-pct" => cfg.read_pct = value("--read-pct").parse().expect("--read-pct"),
            "--queue" => cfg.queue_capacity = value("--queue").parse().expect("--queue"),
            "--open-loop" => {
                cfg.open_loop = Some(value("--open-loop").parse().expect("--open-loop"));
            }
            "--durability" => {
                let mode = value("--durability");
                cfg.durability = match mode.as_str() {
                    "none" => None,
                    policy => Some(
                        FsyncPolicy::parse(policy)
                            .unwrap_or_else(|| panic!("unknown durability mode {policy:?}")),
                    ),
                };
            }
            "--telemetry" => cfg.telemetry = Some(value("--telemetry").into()),
            "--attribution" => cfg.attribution = true,
            "--replicas" => cfg.replicas = value("--replicas").parse().expect("--replicas"),
            "--quick" => cfg.ops = 100_000,
            "--help" | "-h" => {
                println!(
                    "txkv_load [--backend tinystm|htm|rococo|hybrid] [--ops N] [--shards N] \
                     [--workers N] [--clients N] [--keys N] [--theta F] [--read-pct P] \
                     [--open-loop R] [--queue N] \
                     [--durability none|always|everyN|never] [--telemetry DIR] \
                     [--attribution] [--replicas N] [--quick]"
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
    assert!(
        cfg.replicas == 0 || cfg.open_loop.is_none(),
        "replicated mode is closed-loop only"
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

#[derive(Default)]
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
    rate: u64,
    client: usize,
    quota: u64,
    totals: &ClientTotals,
) {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ (client as u64) << 8);
    let zipf = ZipfSampler::new(cfg.keys, cfg.theta);
    let interval = Duration::from_nanos(1_000_000_000 / rate.max(1));
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
                // rejections land here.
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

/// Spawns `cfg.clients` scoped client threads, `cfg.ops` split evenly
/// between them, and returns once all have finished.
fn run_clients(cfg: &LoadCfg, client: impl Fn(usize, u64) + Sync) {
    std::thread::scope(|s| {
        let base = cfg.ops / cfg.clients as u64;
        let rem = cfg.ops % cfg.clients as u64;
        for i in 0..cfg.clients {
            let quota = base + u64::from((i as u64) < rem);
            let client = &client;
            s.spawn(move || client(i, quota));
        }
    });
}

/// One single-node run: the service on `system`, driven to completion,
/// its report printed and — with `--telemetry` — its run directory
/// written.
fn run_single<S: TmSystem + 'static>(system: Arc<S>, cfg: &LoadCfg) {
    let wal_dir = cfg.durability.map(|_| rococo_wal::scratch_dir("txkv-load"));
    if cfg.telemetry.is_some() {
        rundir::start(cfg.attribution);
    }
    let kv_cfg = TxKvConfig {
        shards: cfg.shards,
        workers_per_shard: cfg.workers_per_shard,
        queue_capacity: cfg.queue_capacity,
        keys: cfg.keys,
        durability: cfg.durability.zip(wal_dir.clone()).map(|(fsync, dir)| {
            DurabilityConfig {
                dir,
                fsync,
                checkpoint_every: 0, // raw group commit, no truncation pauses
                kill: None,
            }
        }),
        telemetry: cfg.telemetry.clone(),
        ..TxKvConfig::default()
    };
    let kv = TxKv::start(system, kv_cfg).expect("service start");
    banner(&format!(
        "txkv_load on {} ({} shards x {} workers, {} {} clients, durability={})",
        kv.backend().name(),
        cfg.shards,
        cfg.workers_per_shard,
        cfg.clients,
        if cfg.open_loop.is_some() {
            "open-loop"
        } else {
            "closed-loop"
        },
        cfg.durability.map_or("none".into(), FsyncPolicy::name),
    ));

    // Seed every account with a balance so transfers mostly succeed.
    // Direct stores bypass the WAL, which is fine here: the driver never
    // recovers the directory.
    let heap = kv.backend().heap();
    let table = kv.table();
    for k in 0..cfg.keys {
        heap.store_direct(table + k as usize, 1_000);
    }

    let totals = ClientTotals::default();
    let started = Instant::now();
    run_clients(cfg, |client, quota| match cfg.open_loop {
        None => closed_loop(&kv, cfg, client, quota, &totals),
        Some(rate) => open_loop(&kv, cfg, rate, client, quota, &totals),
    });
    let wall = started.elapsed();

    let report = kv.shutdown();
    let ok = totals.ok.load(Ordering::Relaxed);
    println!(
        "client view: {} offered, {} answered, {} shed, {} failed, {:.0} req/s over {:.2}s",
        cfg.ops,
        ok,
        totals.shed.load(Ordering::Relaxed),
        totals.failed.load(Ordering::Relaxed),
        ok as f64 / wall.as_secs_f64(),
        wall.as_secs_f64(),
    );
    print!("{report}");
    let stats = &report.aggregate;
    let attempts = stats.committed + stats.retries;
    if attempts > 0 {
        println!(
            "  attempt-level abort rate: {:.2}% ({} aborts / {} attempts)",
            100.0 * stats.total_aborts() as f64 / attempts as f64,
            stats.total_aborts(),
            attempts,
        );
    }

    if let Some(dir) = &cfg.telemetry {
        match rundir::export(dir, cfg.attribution) {
            Ok(exported) => println!("wrote {}: {exported}", dir.display()),
            Err(e) => eprintln!("could not write {}: {e}", dir.display()),
        }
    }
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Replicated-mode request mix: as [`gen_request`], except transfers
/// become blind adds — cluster preloads would have to replicate through
/// the WAL key by key, and the chaos harness already owns transfer
/// correctness; the bench measures shipping and fail-over cost.
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
                if cluster.follower_read(next_follower, key, None).is_ok() {
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
/// One replicated cluster run: closed-loop load, a coordinator that
/// ships rounds, and one mid-run fail-over so the report carries a
/// measured downtime.
fn run_replicated<S: TmSystem + 'static>(
    make: impl Fn() -> Arc<S> + Send + Sync + 'static,
    cfg: &LoadCfg,
) {
    let kv = TxKvConfig {
        shards: cfg.shards,
        workers_per_shard: cfg.workers_per_shard,
        queue_capacity: cfg.queue_capacity,
        keys: cfg.keys,
        ..TxKvConfig::default()
    };
    let rcfg = ClusterConfig {
        followers: cfg.replicas,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(make, kv, rcfg).expect("cluster start");
    banner(&format!(
        "txkv_load replicated ({} shards x {} workers, {} followers, {} closed-loop clients)",
        cfg.shards, cfg.workers_per_shard, cfg.replicas, cfg.clients,
    ));

    let totals = ClientTotals::default();
    let latency = Histogram::default();
    let follower_reads = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let fail_at = cfg.ops / 2;

    let started = Instant::now();
    let failover_ms = std::thread::scope(|s| {
        // Coordinator: every 500 µs ship a round (the replication
        // cadence of this run), and demote the primary once half the
        // offered load has been answered so the fail-over downtime is
        // measured under live traffic.
        let coordinator = s.spawn(|| {
            let mut failover_ms = None;
            while !stop.load(Ordering::Relaxed) {
                cluster.ship();
                if failover_ms.is_none() && totals.ok.load(Ordering::Relaxed) >= fail_at {
                    failover_ms = Some(
                        cluster
                            .fail_over()
                            .map_or(0.0, |r| r.downtime.as_secs_f64() * 1e3),
                    );
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            failover_ms.unwrap_or(0.0)
        });
        run_clients(cfg, |client, quota| {
            repl_closed_loop(
                &cluster,
                cfg,
                client,
                quota,
                &totals,
                &latency,
                &follower_reads,
            );
        });
        stop.store(true, Ordering::Relaxed);
        coordinator.join().expect("coordinator thread")
    });
    let wall = started.elapsed();

    let report = cluster.shutdown();
    let ok = totals.ok.load(Ordering::Relaxed);
    let lat = latency.snapshot();
    println!(
        "client view: {} offered, {} answered ({} by followers), {} shed, {} failed, \
         {:.0} req/s over {:.2}s, latency p50/p99/p999 {}/{}/{} ns",
        cfg.ops,
        ok,
        follower_reads.load(Ordering::Relaxed),
        totals.shed.load(Ordering::Relaxed),
        totals.failed.load(Ordering::Relaxed),
        ok as f64 / wall.as_secs_f64(),
        wall.as_secs_f64(),
        lat.quantile(0.5),
        lat.quantile(0.99),
        lat.quantile(0.999),
    );
    println!(
        "replication: {} batches shipped, {} applied, {} gaps, {} resends, \
         fail-over {:.2}ms, epoch {}",
        report.snapshot.batches_shipped,
        report.snapshot.batches_applied,
        report.snapshot.gaps_detected,
        report.snapshot.resends,
        failover_ms,
        report.snapshot.epoch,
    );
    for served in report.demoted.iter().chain(&report.primary) {
        print!("{served}");
    }
}

/// Builds the backend sized for the keyspace and worker pool, and runs
/// the one configuration `cfg` describes on it.
fn run<S: TmSystem + 'static>(make: fn(TmConfig) -> S, cfg: &LoadCfg) {
    let tm_cfg = TmConfig {
        heap_words: TxKvConfig {
            keys: cfg.keys,
            ..TxKvConfig::default()
        }
        .heap_words(),
        max_threads: cfg.shards * cfg.workers_per_shard,
    };
    if cfg.replicas > 0 {
        run_replicated(move || Arc::new(make(tm_cfg)), cfg);
    } else {
        run_single(Arc::new(make(tm_cfg)), cfg);
    }
}

fn main() {
    let cfg = parse_args();
    match cfg.backend {
        BackendChoice::TinyStm => run(TinyStm::with_config, &cfg),
        BackendChoice::Htm => run(TsxHtm::with_config, &cfg),
        BackendChoice::Rococo => run(RococoTm::with_config, &cfg),
        BackendChoice::Hybrid => run(HybridTm::with_config, &cfg),
    }
}
