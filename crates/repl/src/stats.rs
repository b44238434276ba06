//! Replication observability: stream counters, per-follower lag, apply
//! latency, and fail-over accounting, exported under the unified
//! `rococo_repl_*` metric namespace.

use rococo_stm::AbortKind;
use rococo_telemetry::HistogramSnapshot;
use std::sync::atomic::Ordering;

rococo_telemetry::stats_block! {
    /// Live replication counters, shared between the shipper, the
    /// follower apply threads, and the fail-over coordinator.
    pub struct ReplStats;
    /// A point-in-time copy of [`ReplStats`] plus the cluster-level
    /// gauges, which the cluster measures at snapshot time.
    pub struct ReplSnapshot;

    counters {
        pub batches_shipped: "rococo_repl_stream_batches_total", "Stream batches shipped (first transmissions and resends)";
        pub records_shipped: "rococo_repl_stream_records_total", "Records shipped across all stream batches";
        pub batches_applied: "rococo_repl_applied_batches_total", "Stream batches followers applied";
        pub records_applied: "rococo_repl_applied_records_total", "Records followers applied (duplicates excluded)";
        /// Out-of-order or missing batches.
        pub gaps_detected: "rococo_repl_gaps_total", "Stream gaps followers detected";
        pub resends: "rococo_repl_resends_total", "Resend requests the shipper honoured";
        pub batches_rejected: "rococo_repl_rejected_batches_total", "Stream batches rejected (CRC, framing, density)";
        pub duplicates_skipped: "rococo_repl_duplicates_skipped_total", "Duplicate records followers skipped (overlapping resends)";
        pub failovers: "rococo_repl_failovers_total", "Completed primary fail-overs";
        /// By chaos injection or election-time kills.
        pub follower_crashes: "rococo_repl_follower_crashes_total", "Followers crashed";
    }
    families {
        /// Indexed by [`AbortKind::index`].
        pub primary_retry_exhausted: [AbortKind::COUNT] "rococo_repl_primary_retries_exhausted_total",
            "Primary requests that exhausted their retries, by abort cause", "kind" => AbortKind::label_at;
    }
    histograms {
        /// Decode through store update.
        pub apply_ns: "rococo_repl_apply_ns", "Per-batch follower apply latency in nanoseconds",
            le = HistogramSnapshot::pow2_bounds;
    }
    gauges {
        /// One reading per follower; crashed followers excluded.
        lag_seq: Vec<u64> = "rococo_repl_lag_seq", "Replication lag in sequence numbers (shipped but unapplied)", by "follower";
        epoch: u64 = "rococo_repl_epoch", "Cluster epoch (bumped by each fail-over)";
    }
}

impl ReplStats {
    /// Counts one primary-side retries-exhausted failure under its
    /// abort cause.
    pub fn note_retries_exhausted(&self, kind: AbortKind) {
        self.primary_retry_exhausted[kind.index()].fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_export_are_consistent() {
        let stats = ReplStats::default();
        stats.batches_shipped.store(3, Ordering::Relaxed);
        stats.records_shipped.store(12, Ordering::Relaxed);
        stats.apply_ns.record(1_000);
        stats.note_retries_exhausted(AbortKind::Conflict);
        let snap = stats.snapshot(vec![2, 0], 1);
        assert_eq!(snap.batches_shipped, 3);
        assert_eq!(snap.lag_seq, vec![2, 0]);
        assert_eq!(snap.primary_retry_exhausted[AbortKind::Conflict.index()], 1);
        let mut reg = rococo_telemetry::MetricsRegistry::new();
        snap.export_metrics(&mut reg);
        let prom = reg.render_prometheus();
        assert!(prom.contains("rococo_repl_stream_batches_total 3"));
        assert!(prom.contains("rococo_repl_lag_seq{follower=\"0\"} 2"));
        assert!(prom.contains("kind=\"cpu-stale-read\""));
        rococo_telemetry::validate_prometheus(&prom).expect("exposition must validate");
    }
}
