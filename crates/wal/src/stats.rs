//! WAL observability: record/byte/batch counters, group-commit batch
//! sizes and fsync latency — enough to see whether group commit is
//! actually batching and what each fsync costs.

use rococo_telemetry::HistogramSnapshot;

rococo_telemetry::stats_block! {
    /// Live WAL counters, updated by the append path and whichever thread
    /// writes a batch.
    pub struct WalStats;
    /// A point-in-time copy of [`WalStats`], surfaced in TxKV reports.
    pub struct WalSnapshot;

    counters {
        pub(crate) appended_records: "rococo_wal_appended_records_total", "Records written to the log";
        pub(crate) appended_bytes: "rococo_wal_appended_bytes_total", "Bytes written to the log";
        pub(crate) batches: "rococo_wal_batches_total", "Group-commit batches flushed";
        pub(crate) fsyncs: "rococo_wal_fsyncs_total", "fsync calls issued";
        pub(crate) acked_records: "rococo_wal_acked_records_total", "Records acked back to submitters";
        pub(crate) failed_appends: "rococo_wal_failed_appends_total", "Appends rejected because the writer was dead";
        pub(crate) checkpoints: "rococo_wal_checkpoints_total", "Checkpoints completed";
        pub(crate) truncations: "rococo_wal_truncations_total", "Log truncations completed";
    }
    histograms {
        pub(crate) batch_sizes: "rococo_wal_batch_records", "Group-commit batch-size distribution (records per flush)",
            le = HistogramSnapshot::pow2_bounds;
        pub(crate) fsync_ns: "rococo_wal_fsync_ns", "Per-fsync latency distribution in nanoseconds",
            le = HistogramSnapshot::pow2_bounds;
    }
}

impl WalSnapshot {
    /// Mean records per group-commit batch.
    pub fn mean_batch(&self) -> f64 {
        self.batch_sizes.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stall of 2^31 ns or more must not read back as shorter, and in
    /// the exposition only `+Inf` may claim to hold it.
    #[test]
    fn a_five_second_fsync_is_not_under_reported() {
        let stats = WalStats::default();
        stats.fsync_ns.record(5_000_000_000);
        let snap = stats.snapshot();
        assert!(snap.fsync_ns.quantile_upper(1.0) >= 5_000_000_000);

        let mut reg = rococo_telemetry::MetricsRegistry::new();
        snap.export_metrics(&mut reg);
        let prom = reg.render_prometheus();
        let buckets: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("rococo_wal_fsync_ns_bucket"))
            .collect();
        let (inf, finite) = buckets.split_last().expect("histogram has buckets");
        assert_eq!(*inf, "rococo_wal_fsync_ns_bucket{le=\"+Inf\"} 1");
        assert!(
            !finite.is_empty() && finite.iter().all(|l| l.ends_with(" 0")),
            "a finite le absorbed the 5 s sample:\n{prom}"
        );
    }
}
