//! The frozen shape of the benchmark: load shape, workloads and metric
//! tables. `BENCHMARK.json` at the repository root mirrors the tables here
//! (a unit test keeps the two in step); later issues cite these names.

use rococo_server::BackendChoice;
use rococo_wal::FsyncPolicy;
use Better::{Higher, Lower};

/// Requests the generator keeps outstanding (windowed closed loop).
pub const WINDOW: usize = 64;
/// Equal segments a run is split into; every end-to-end timing metric is
/// the median of the segment values.
pub const SEGMENTS: usize = 20;
/// Requests generated per segment before its clock starts; the timed loop
/// cycles over them until the segment's time is up.
pub const POOL: usize = 1 << 16;
/// Requests of the untimed warm-up that ends a segment's set-up.
pub const WARMUP_REQUESTS: u64 = 4_096;
pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Value every key is seeded with: large enough that no `Transfer` of the
/// run finds its source short.
pub const INITIAL_VALUE: u64 = 1 << 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen before
    /// `compare` calls it a regression. 0 for per-layer metrics (no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees. All four are reported on all four
/// workloads, from the untraced run only. The timing bounds are as wide as
/// the contract allows because the shared 2-vCPU reference box drifts by
/// 15–20 % between quiet and noisy quarter-hours (README, "Steadiness").
pub const END_TO_END: [Metric; 4] = [
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
];

/// The per-layer ledger, from the traced run. The probes (README) are
/// workload-independent and run once per invocation; of the rest a run
/// reports those its workload measures. Only the driver's JSON line, which
/// must carry every name, reads 0 for a metric that was not measured.
pub const PER_LAYER: [Metric; 47] = [
    layer("sigs.insert_ns", "ns", Lower),
    layer("sigs.query_ns", "ns", Lower),
    layer("sigs.intersect_ns", "ns", Lower),
    layer("sigs.false_overlap_rate", "ratio", Lower),
    layer("core.validate_ns", "ns", Lower),
    layer("fpga.process4_ns", "ns", Lower),
    layer("fpga.process16_ns", "ns", Lower),
    layer("fpga.roundtrip_us", "us", Lower),
    layer("fpga.pipelined_ns", "ns", Lower),
    layer("fpga.verdicts", "count", Lower),
    layer("fpga.abort_cycle", "count", Lower),
    layer("fpga.abort_window", "count", Lower),
    layer("fpga.exact_inflation", "ratio", Lower),
    layer("stm.rococo.ro_txn_ns", "ns", Lower),
    layer("stm.rococo.rw_txn_ns", "ns", Lower),
    layer("stm.tinystm.ro_txn_ns", "ns", Lower),
    layer("stm.tinystm.rw_txn_ns", "ns", Lower),
    layer("stm.htm.rw_txn_ns", "ns", Lower),
    layer("stm.hybrid.rw_txn_ns", "ns", Lower),
    layer("stm.direct_ns", "ns", Lower),
    layer("stm.abort_rate", "ratio", Lower),
    layer("stm.retries", "count", Lower),
    layer("stm.validation_us", "us", Lower),
    layer("stm.ref_rps", "1/s", Higher),
    layer("stm.ref_ratio", "ratio", Higher),
    layer("sched.route_overhead_ns", "ns", Lower),
    layer("sched.hybrid_rps", "1/s", Higher),
    layer("sched.routes_sw_share", "ratio", Higher),
    layer("server.submit_ns", "ns", Lower),
    layer("server.wait_share", "ratio", Lower),
    layer("server.hop_ns", "ns", Lower),
    layer("server.batch_mean", "count", Higher),
    layer("server.shed", "count", Lower),
    layer("server.p99_us", "us", Lower),
    layer("server.p999_us", "us", Lower),
    layer("wal.append_us", "us", Lower),
    layer("wal.always_rps", "1/s", Higher),
    layer("wal.mean_batch", "count", Higher),
    layer("wal.fsyncs", "count", Lower),
    layer("wal.fsync_p50_us", "us", Lower),
    layer("wal.bytes_per_record", "B", Lower),
    layer("wal.recover_ms", "ms", Lower),
    layer("wal.device_fsync_us", "us", Lower),
    layer("telemetry.recorder_overhead_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("cc.rococo_abort_rate", "ratio", Lower),
    layer("cc.tocc_abort_rate", "ratio", Lower),
];

/// One TxKV traffic mix. Writes are `Add` and `Transfer` 1:1; there is no
/// `Put`, because the output check needs a commutative invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvSpec {
    pub backend: BackendChoice,
    pub keys: u64,
    pub theta: f64,
    /// Share of requests that read, in percent.
    pub read_pct: u32,
    /// One read in eight is a `MultiGet` of 2–8 keys.
    pub multi_get: bool,
    /// `Some`: a WAL in a directory under `--out`, no automatic
    /// checkpoints, acked under this policy.
    pub wal: Option<FsyncPolicy>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvRead,
    KvHotWrite,
    KvDurable,
    EngineReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KvRead,
        Workload::KvHotWrite,
        Workload::KvDurable,
        Workload::EngineReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvRead => "kv-read",
            Workload::KvHotWrite => "kv-hot-write",
            Workload::KvDurable => "kv-durable",
            Workload::EngineReplay => "engine-replay",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Stable small integer mixed into the request seed.
    pub fn id(self) -> u64 {
        self as u64
    }

    /// The traffic mix, for the three service workloads.
    pub fn kv(self) -> Option<KvSpec> {
        match self {
            Workload::KvRead => Some(KvSpec {
                backend: BackendChoice::Rococo,
                keys: 65_536,
                theta: 0.6,
                read_pct: 95,
                multi_get: true,
                wal: None,
            }),
            Workload::KvHotWrite => Some(KvSpec {
                backend: BackendChoice::Rococo,
                keys: 4_096,
                theta: 1.2,
                read_pct: 20,
                multi_get: false,
                wal: None,
            }),
            Workload::KvDurable => Some(KvSpec {
                backend: BackendChoice::TinyStm,
                keys: 16_384,
                theta: 0.9,
                read_pct: 50,
                multi_get: false,
                // Acked without fsync: the device is not the program, and
                // the benchmark may write nowhere steadier than its
                // checkout (README, "`kv-durable` choices"). The traced
                // run measures `Always` beside it.
                wal: Some(FsyncPolicy::Never),
            }),
            Workload::EngineReplay => None,
        }
    }
}

/// `engine-replay`: transactions per generated trace (one pass replays all
/// of them through a fresh engine) and accesses per transaction.
pub const REPLAY_TRANSACTIONS: usize = 20_000;
pub const REPLAY_ACCESSES: usize = 16;
/// §6.1 visibility model, as `tests/fpga_engine.rs::replay_engine`.
pub const REPLAY_CONCURRENCY: usize = 16;
pub const REPLAY_WINDOW: usize = 64;
/// `process` calls timed as one latency sample.
pub const REPLAY_BLOCK: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use rococo_telemetry::json::Json;

    /// `BENCHMARK.json` is the contract later PRs are judged by; the tables
    /// above are what the binary reports and `compare` enforces. They must
    /// say the same thing.
    #[test]
    fn benchmark_json_mirrors_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json is JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("an array")
                .to_vec()
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
        let direction = |j: &Json| match text(j, "better").as_deref() {
            Some("higher") => Better::Higher,
            Some("lower") => Better::Lower,
            other => panic!("better = {other:?}"),
        };

        let workloads: Vec<_> = list("workloads").iter().map(|w| text(w, "name")).collect();
        let ours: Vec<_> = Workload::ALL
            .iter()
            .map(|w| Some(w.name().to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let declared: Vec<Metric> = END_TO_END.to_vec();
        let listed = list("end_to_end");
        assert_eq!(listed.len(), declared.len());
        for (j, m) in listed.iter().zip(&declared) {
            assert_eq!(text(j, "name").as_deref(), Some(m.name));
            assert_eq!(text(j, "unit").as_deref(), Some(m.unit), "{}", m.name);
            assert_eq!(direction(j), m.better, "{}", m.name);
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let listed = list("per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (j, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(text(j, "name").as_deref(), Some(m.name));
            assert_eq!(text(j, "unit").as_deref(), Some(m.unit), "{}", m.name);
            assert_eq!(direction(j), m.better, "{}", m.name);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("kv"), None);
    }
}
