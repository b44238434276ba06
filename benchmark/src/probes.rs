//! Layer probes: single-threaded loops on this thread, each timing one
//! public function of one layer. A probe runs five batches and reports the
//! median batch's time per call; every batch is a span named after the
//! metric.

use crate::spans::{Spans, PROBE_TRACK};
use crate::stats::median;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rococo_core::{RococoValidator, TxnDeps};
use rococo_fpga::{
    EngineConfig, FpgaVerdict, PendingVerdict, ValidateRequest, ValidationEngine, ValidationService,
};
use rococo_sched::HybridTm;
use rococo_sigs::SigScheme;
use rococo_stm::{atomically, RococoTm, TinyStm, TmConfig, TmSystem, Transaction, TsxHtm};
use rococo_wal::{FsyncPolicy, Wal, WalConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
/// Calls between two looks at the clock.
const CHUNK: u64 = 64;
const NS: f64 = 1.0;
const US: f64 = 1e3;

/// The probes' recorder: where the spans go, how long a batch is, and the
/// ledger entries so far.
struct Probes<'a> {
    spans: &'a mut Spans,
    batch: Duration,
    out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    /// Times `op` for five batches and records the median time per call
    /// under `name`, in units of `unit_ns` nanoseconds. `op` gets the
    /// number of calls made before it. Returns what it recorded.
    fn time(&mut self, name: &'static str, unit_ns: f64, mut op: impl FnMut(u64)) -> f64 {
        let mut calls = 0u64;
        let per_call: Vec<f64> = (0..BATCHES)
            .map(|b| {
                let start = Instant::now();
                let first = calls;
                loop {
                    for _ in 0..CHUNK {
                        op(calls);
                        calls += 1;
                    }
                    if start.elapsed() >= self.batch {
                        break;
                    }
                }
                let end = Instant::now();
                self.spans.span(PROBE_TRACK, name, "", b as u64, start, end);
                (end - start).as_nanos() as f64 / (calls - first) as f64
            })
            .collect();
        self.record(name, median(&per_call) / unit_ns)
    }

    fn record(&mut self, name: &'static str, value: f64) -> f64 {
        self.out.push((name, value));
        value
    }

    /// A Get-shaped transaction on `tm`.
    fn ro_txn<S: TmSystem>(&mut self, name: &'static str, tm: &S) -> f64 {
        self.time(name, NS, |i| {
            black_box(atomically(tm, 0, |tx| tx.read(i as usize % 512)));
        })
    }

    /// An Add-shaped transaction on `tm`.
    fn rw_txn<S: TmSystem>(&mut self, name: &'static str, tm: &S) -> f64 {
        self.time(name, NS, |i| {
            let addr = i as usize % 512;
            atomically(tm, 0, |tx| {
                let v = tx.read(addr)?;
                tx.write(addr, v.wrapping_add(1))
            });
        })
    }

    /// `ValidationEngine::process` on requests of `half` reads and `half`
    /// writes, each validated against the engine's newest commit.
    fn engine(&mut self, name: &'static str, half: u64) {
        let mut engine = ValidationEngine::new(EngineConfig::default());
        let mut ring = request_ring(half, half);
        self.time(name, NS, |i| {
            let req = &mut ring[i as usize % RING];
            req.valid_ts = engine.next_seq();
            black_box(engine.process(req));
        });
    }
}

/// Share of 10 000 seeded pairs of *disjoint* 8-address sets whose
/// signatures `sets_may_intersect` — an exact count for a seed.
fn false_overlap_rate(scheme: &SigScheme, seed: u64) -> f64 {
    const PAIRS: u32 = 10_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let hits = (0..PAIRS)
        .filter(|_| {
            let mut addrs: Vec<u64> = Vec::with_capacity(16);
            while addrs.len() < 16 {
                let a = rng.gen_range(0..1u64 << 40);
                if !addrs.contains(&a) {
                    addrs.push(a);
                }
            }
            let a = scheme.sig_of(addrs[..8].iter().copied());
            let b = scheme.sig_of(addrs[8..].iter().copied());
            scheme.sets_may_intersect(&a, &b)
        })
        .count();
    hits as f64 / f64::from(PAIRS)
}

const RING: usize = 1024;

/// `reads` + `writes` fresh addresses per request, distinct across the
/// ring, so no request conflicts with one still in the window.
fn request_ring(reads: u64, writes: u64) -> Vec<ValidateRequest> {
    (0..RING as u64)
        .map(|i| ValidateRequest {
            tx_id: i,
            valid_ts: 0,
            read_addrs: (0..reads).map(|j| 1_000_000 + i * 64 + j).collect(),
            write_addrs: (0..writes).map(|j| 9_000_000 + i * 64 + j).collect(),
        })
        .collect()
}

/// The CPU↔validator link through `ValidationService`: one caller with one
/// Transfer-shaped request in flight (`fpga.roundtrip_us`), then with 16
/// (`fpga.pipelined_ns`). Each request's snapshot is the newest commit its
/// caller has a verdict for, as a worker's is.
fn link(p: &mut Probes) {
    let ring = request_ring(2, 2);
    let request = |i: u64, valid_ts: u64| ValidateRequest {
        valid_ts,
        ..ring[i as usize % RING].clone()
    };
    let snapshot_after = |verdict: FpgaVerdict, before: u64| match verdict {
        FpgaVerdict::Commit { seq } => seq + 1,
        _ => before,
    };

    let service = ValidationService::spawn(EngineConfig::default());
    let handle = service.handle();
    let mut valid_ts = 0;
    p.time("fpga.roundtrip_us", US, |i| {
        valid_ts = snapshot_after(handle.validate(request(i, valid_ts)), valid_ts);
    });
    drop(handle);
    service.shutdown();

    let service = ValidationService::spawn(EngineConfig::default());
    let handle = service.handle();
    let mut valid_ts = 0;
    let mut in_flight: VecDeque<PendingVerdict> = VecDeque::with_capacity(16);
    p.time("fpga.pipelined_ns", NS, |i| {
        if in_flight.len() == 16 {
            let oldest = in_flight.pop_front().expect("16 in flight");
            valid_ts = snapshot_after(oldest.wait(), valid_ts);
        }
        in_flight.push_back(handle.validate_async(request(i, valid_ts)));
    });
    for pending in in_flight {
        pending.wait();
    }
    drop(handle);
    service.shutdown();
}

fn open_wal(dir: &Path, fsync: FsyncPolicy) -> Wal {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the probe's WAL directory under --out");
    let (wal, _) = Wal::open(WalConfig {
        dir: dir.to_path_buf(),
        fsync,
        kill: None,
    })
    .expect("open the probe's WAL");
    wal
}

/// `wal.append_us`: sequential single-record appends without fsync — the
/// hand-off to the writer thread, framing, `write` and the ack.
/// `wal.device_fsync_us`: the median fsync the same directory gives
/// `appends` `FsyncPolicy::Always` appends; reported so device drift is
/// visible.
fn wal(p: &mut Probes, appends: u64, scratch: &Path) {
    let dir = scratch.join(format!("wal-probe-{}", std::process::id()));
    let wal = open_wal(&dir, FsyncPolicy::Never);
    p.time("wal.append_us", US, |i| {
        wal.append(i, vec![(i % 4096, i), (i % 4096 + 1, i)])
            .expect("the probe's WAL stays alive");
    });
    wal.shutdown();

    let wal = open_wal(&dir, FsyncPolicy::Always);
    let start = Instant::now();
    for i in 0..appends {
        wal.append(i, vec![(i % 4096, i)])
            .expect("the probe's WAL stays alive");
    }
    let name = "wal.device_fsync_us";
    p.spans
        .span(PROBE_TRACK, name, "", 0, start, Instant::now());
    let fsync_ns = wal.shutdown().fsync_ns.quantile_upper(0.5);
    p.record(name, fsync_ns as f64 / US);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs every workload-independent probe. `seconds` scales the work (a
/// batch is 40 ms, a probe 200 ms, at the default 20 s); `scratch` holds
/// the WAL probes' logs.
pub fn run_all(
    spans: &mut Spans,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> Vec<(&'static str, f64)> {
    let mut p = Probes {
        spans,
        batch: Duration::from_secs_f64(seconds * 0.002),
        out: Vec::new(),
    };

    let scheme = SigScheme::paper_default();
    let mut sig = scheme.new_sig();
    p.time("sigs.insert_ns", NS, |i| {
        if i % 8 == 0 {
            sig.clear();
        }
        scheme.insert(&mut sig, black_box(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    });
    let held = scheme.sig_of(0..8u64);
    let prehashed: Vec<_> = (0..RING as u64).map(|a| scheme.prehash(a * 7)).collect();
    p.time("sigs.query_ns", NS, |i| {
        black_box(scheme.query_prehashed(&held, &prehashed[i as usize % RING]));
    });
    let other = scheme.sig_of(100..108u64);
    p.time("sigs.intersect_ns", NS, |_| {
        black_box(scheme.sets_may_intersect(black_box(&held), black_box(&other)));
    });
    p.record("sigs.false_overlap_rate", false_overlap_rate(&scheme, seed));

    let mut validator: RococoValidator<()> = RococoValidator::new(64);
    let mut next = 0u64;
    p.time("core.validate_ns", NS, |_| {
        let deps = TxnDeps {
            snapshot: next,
            forward: vec![],
            backward: if next > 0 { vec![next - 1] } else { vec![] },
        };
        next = validator
            .validate_and_commit(black_box(&deps), ())
            .expect("a chain of backward edges has no cycle")
            + 1;
    });

    p.engine("fpga.process4_ns", 2);
    p.engine("fpga.process16_ns", 8);
    link(&mut p);

    let tm_cfg = TmConfig {
        heap_words: 4096,
        max_threads: 1,
    };
    let rococo = RococoTm::with_config(tm_cfg);
    p.ro_txn("stm.rococo.ro_txn_ns", &rococo);
    p.rw_txn("stm.rococo.rw_txn_ns", &rococo);
    let tiny = TinyStm::with_config(tm_cfg);
    p.ro_txn("stm.tinystm.ro_txn_ns", &tiny);
    p.rw_txn("stm.tinystm.rw_txn_ns", &tiny);
    let htm = p.rw_txn("stm.htm.rw_txn_ns", &TsxHtm::with_config(tm_cfg));
    let hybrid = p.rw_txn("stm.hybrid.rw_txn_ns", &HybridTm::with_config(tm_cfg));
    p.record("sched.route_overhead_ns", hybrid - htm);

    wal(&mut p, (seconds * 25.0).ceil() as u64, scratch);
    p.out
}
