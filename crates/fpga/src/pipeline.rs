//! Stage-accurate timing model of the validation pipeline.

use crate::engine::{FpgaVerdict, ValidateRequest, ValidationEngine};

/// Timing parameters of the simulated CPU–FPGA platform.
///
/// Defaults model Intel HARP2 as characterised in section 6.2 and
/// footnote 8: the FPGA component clocked at 200 MHz (the 512-bit bloom
/// filter being the critical path), around 200 ns for an FPGA read hit in
/// the shared LLC and under 400 ns for a write-back, i.e. a sub-600 ns
/// round trip over the QPI-based low-latency channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// FPGA clock frequency in hertz.
    pub clock_hz: f64,
    /// CPU→FPGA transfer latency in nanoseconds (FPGA reading the request
    /// cache line from the LLC).
    pub cci_read_ns: f64,
    /// FPGA→CPU transfer latency in nanoseconds (writing the verdict back).
    pub cci_write_ns: f64,
    /// Pipeline depth of the Detector in clock cycles (hash + `W`-parallel
    /// signature queries + reduce).
    pub detector_stages: u32,
    /// Pipeline depth of the Manager in clock cycles (`p`/`s` computation +
    /// cycle test + matrix shift/update, all bit-parallel).
    pub manager_stages: u32,
    /// Extra cycles per cache line of request payload beyond the first
    /// (eight 64-bit addresses per line).
    pub cycles_per_extra_line: u32,
}

impl Default for TimingModel {
    fn default() -> Self {
        Self {
            clock_hz: 200e6,
            cci_read_ns: 200.0,
            cci_write_ns: 400.0,
            detector_stages: 4,
            manager_stages: 3,
            cycles_per_extra_line: 1,
        }
    }
}

impl TimingModel {
    /// Nanoseconds per FPGA clock cycle.
    pub fn cycle_ns(&self) -> f64 {
        1e9 / self.clock_hz
    }

    /// Unloaded validation latency for a request carrying `addrs` addresses:
    /// CCI round trip plus pipeline depth plus payload streaming.
    pub fn latency_ns(&self, addrs: usize) -> f64 {
        let lines = addrs.div_ceil(8).max(1) as u32;
        let cycles =
            self.detector_stages + self.manager_stages + (lines - 1) * self.cycles_per_extra_line;
        self.cci_read_ns + self.cci_write_ns + cycles as f64 * self.cycle_ns()
    }

    /// Model time the Detector occupies for a request carrying `addrs`
    /// addresses: payload streaming (one extra cycle per cache line past the
    /// first) plus the Detector pipeline depth. Together with
    /// [`manager_ns`](Self::manager_ns) this partitions the on-FPGA portion
    /// of [`latency_ns`](Self::latency_ns):
    /// `cci_read_ns + detector_ns + manager_ns + cci_write_ns == latency_ns`.
    pub fn detector_ns(&self, addrs: usize) -> f64 {
        let lines = addrs.div_ceil(8).max(1) as u32;
        let cycles = self.detector_stages + (lines - 1) * self.cycles_per_extra_line;
        cycles as f64 * self.cycle_ns()
    }

    /// Model time the Manager stage occupies (independent of request size:
    /// `p`/`s` computation and the matrix update are bit-parallel).
    pub fn manager_ns(&self) -> f64 {
        self.manager_stages as f64 * self.cycle_ns()
    }

    /// Minimum initiation interval between back-to-back validations, in
    /// nanoseconds. The pipeline is fully pipelined (II = 1 cycle) except
    /// that multi-line payloads occupy the ingress for extra cycles.
    pub fn initiation_interval_ns(&self, addrs: usize) -> f64 {
        let lines = addrs.div_ceil(8).max(1) as u32;
        (1 + (lines - 1) * self.cycles_per_extra_line) as f64 * self.cycle_ns()
    }
}

/// Timing statistics accumulated by a [`PipelinedValidator`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Requests timed.
    pub requests: u64,
    /// Sum of per-request latency (ns of model time).
    pub total_latency_ns: f64,
    /// Sum of per-request *occupancy* (ns the pipeline ingress was held) —
    /// the amortised per-transaction validation cost under full overlap.
    pub total_occupancy_ns: f64,
    /// Model time at which the last verdict left the pipeline.
    pub last_departure_ns: f64,
}

impl PipelineStats {
    /// Mean per-transaction validation latency in microseconds — the
    /// Figure 11 metric for ROCoCoTM.
    pub fn mean_latency_us(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency_ns / self.requests as f64 / 1000.0
        }
    }

    /// Mean amortised pipeline occupancy per transaction in microseconds
    /// (what centralized validation costs once pipelining overlaps the
    /// latency, Figure 6(d)).
    pub fn mean_occupancy_us(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_occupancy_ns / self.requests as f64 / 1000.0
        }
    }
}

/// A [`ValidationEngine`] wrapped with queueing-aware model timing.
///
/// The caller stamps each request with its arrival time in model
/// nanoseconds; the validator returns the verdict together with the model
/// time at which the CPU would observe it, accounting for the CCI hop, the
/// pipeline depth, and head-of-line blocking at the single ingress port
/// (initiation interval of one clock per cache line).
#[derive(Debug, Clone)]
pub struct PipelinedValidator {
    engine: ValidationEngine,
    timing: TimingModel,
    /// Model time at which the ingress becomes free.
    ingress_free_at_ns: f64,
    stats: PipelineStats,
}

impl PipelinedValidator {
    /// Creates a timed validator around `engine`.
    pub fn new(engine: ValidationEngine, timing: TimingModel) -> Self {
        Self {
            engine,
            timing,
            ingress_free_at_ns: 0.0,
            stats: PipelineStats::default(),
        }
    }

    /// The wrapped functional engine.
    pub fn engine(&self) -> &ValidationEngine {
        &self.engine
    }

    /// The timing model in use.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Accumulated timing statistics.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Model time at which the ingress port next becomes free — the
    /// queueing state a trace exporter needs to place stage slices.
    pub fn ingress_free_at_ns(&self) -> f64 {
        self.ingress_free_at_ns
    }

    /// Processes `req` arriving at model time `arrival_ns`; returns the
    /// verdict and the model time at which the CPU observes it.
    pub fn process_at(&mut self, req: &ValidateRequest, arrival_ns: f64) -> (FpgaVerdict, f64) {
        let addrs = req.read_addrs.len() + req.write_addrs.len();

        // The request reaches the FPGA after the CCI read; it then waits
        // for the ingress port if an earlier request still occupies it.
        let at_fpga = arrival_ns + self.timing.cci_read_ns;
        let start = at_fpga.max(self.ingress_free_at_ns);
        let occupancy = self.timing.initiation_interval_ns(addrs);
        self.ingress_free_at_ns = start + occupancy;

        let pipeline_ns =
            self.timing.latency_ns(addrs) - self.timing.cci_read_ns - self.timing.cci_write_ns;
        let done = start + pipeline_ns + self.timing.cci_write_ns;

        let verdict = self.engine.process(req);

        self.stats.requests += 1;
        self.stats.total_latency_ns += done - arrival_ns;
        self.stats.total_occupancy_ns += occupancy;
        self.stats.last_departure_ns = self.stats.last_departure_ns.max(done);
        (verdict, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn small_req(i: u64) -> ValidateRequest {
        ValidateRequest {
            tx_id: i,
            valid_ts: 0,
            read_addrs: vec![i * 2 + 1_000_000],
            write_addrs: vec![i * 2 + 1_000_001],
        }
    }

    #[test]
    fn unloaded_latency_is_submicrosecond() {
        // The paper: per-transaction validation overhead stays below 1 µs.
        let t = TimingModel::default();
        assert!(t.latency_ns(16) < 1000.0, "{}", t.latency_ns(16));
        assert!(t.latency_ns(16) > 600.0, "must include the CCI round trip");
    }

    #[test]
    fn latency_insensitive_to_read_set_size() {
        // Signature-based validation: latency grows only by payload
        // streaming, about one cycle per extra 8 addresses.
        let t = TimingModel::default();
        let small = t.latency_ns(8);
        let large = t.latency_ns(512);
        assert!(
            large - small < 400.0,
            "512-address validation only {} ns slower",
            large - small
        );
    }

    #[test]
    fn stage_breakdown_partitions_latency() {
        let t = TimingModel::default();
        for addrs in [1, 2, 8, 9, 64, 512] {
            let parts = t.cci_read_ns + t.detector_ns(addrs) + t.manager_ns() + t.cci_write_ns;
            assert!(
                (parts - t.latency_ns(addrs)).abs() < 1e-9,
                "addrs={addrs}: {parts} vs {}",
                t.latency_ns(addrs)
            );
        }
    }

    #[test]
    fn pipelining_amortises_latency() {
        let mut v = PipelinedValidator::new(
            ValidationEngine::new(EngineConfig::default()),
            TimingModel::default(),
        );
        // 100 requests arriving back-to-back (all at t = 0), each with a
        // fresh snapshot so the sliding window never overflows.
        for i in 0..100 {
            let mut r = small_req(i);
            r.valid_ts = v.engine().next_seq();
            let (verdict, _) = v.process_at(&r, 0.0);
            assert!(verdict.is_commit());
        }
        let s = v.stats();
        // Occupancy per txn is ~one clock cycle = 5 ns, far below the
        // ~600 ns single-shot latency: the Figure 6(d) claim.
        assert!(s.mean_occupancy_us() < 0.01, "{}", s.mean_occupancy_us());
        assert!(s.mean_latency_us() < 1.0, "{}", s.mean_latency_us());
    }

    #[test]
    fn queueing_delays_later_requests() {
        let mut v = PipelinedValidator::new(
            ValidationEngine::new(EngineConfig::default()),
            TimingModel::default(),
        );
        let (_, t1) = v.process_at(&small_req(0), 0.0);
        let (_, t2) = v.process_at(&small_req(1), 0.0);
        assert!(t2 > t1, "second simultaneous request must finish later");
        // ... but only by the initiation interval, not the full latency.
        assert!(t2 - t1 < 100.0, "{}", t2 - t1);
    }

    #[test]
    fn spaced_requests_see_unloaded_latency() {
        let mut v = PipelinedValidator::new(
            ValidationEngine::new(EngineConfig::default()),
            TimingModel::default(),
        );
        let (_, d1) = v.process_at(&small_req(0), 0.0);
        let expected = v.timing().latency_ns(2);
        assert!((d1 - expected).abs() < 1e-6);
        let (_, d2) = v.process_at(&small_req(1), 10_000.0);
        assert!((d2 - 10_000.0 - expected).abs() < 1e-6);
    }
}
