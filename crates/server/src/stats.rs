//! Per-shard observability: commit/retry/shed counters, abort-cause
//! breakdowns, and latency histograms.

use rococo_stm::AbortKind;
use std::fmt;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// `le` bounds of the request-latency exposition, in decades:
/// 1us, 10us, 100us, 1ms, 10ms, 100ms.
const LATENCY_BOUNDS_NS: [u64; 6] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

rococo_telemetry::stats_block! {
    /// Live counters for one shard. All counters are relaxed atomics
    /// updated by that shard's workers and the submitting clients.
    pub struct ShardStats;
    /// A point-in-time copy of one shard's counters (or, for
    /// [`TxKvReport::aggregate`], their sum across shards).
    pub struct ShardSnapshot;
    export_metrics(reg, labels);

    counters {
        pub(crate) enqueued: "rococo_txkv_enqueued_total", "Requests admitted to the shard queue";
        /// The queue was full.
        pub(crate) shed: "rococo_txkv_shed_total", "Requests shed by admission control";
        pub(crate) committed: "rococo_txkv_committed_total", "Requests whose transaction committed";
        pub(crate) failed: "rococo_txkv_failed_total", "Requests that failed (retries exhausted)";
        /// Across all requests.
        pub(crate) retries: "rococo_txkv_retries_total", "Extra attempts beyond the first";
        /// The transaction committed in memory but the writer died
        /// before acknowledging its append.
        pub(crate) durability_lost: "rococo_txkv_durability_lost_total", "Commits never acknowledged by the WAL";
        /// The worker caught it and kept serving.
        pub(crate) panics: "rococo_txkv_panics_total", "Requests whose transaction panicked inside the backend";
        pub(crate) batches: "rococo_txkv_batches_total", "Run-to-completion batches pulled off the shard queue";
        /// `batch_jobs / batches` = mean batch size actually achieved,
        /// as opposed to the configured ceiling.
        pub(crate) batch_jobs: "rococo_txkv_batch_jobs_total", "Jobs executed across all batches";
    }
    families {
        /// Indexed by [`AbortKind::index`].
        pub(crate) aborts: [AbortKind::COUNT] "rococo_txkv_aborts_total",
            "Request-level transaction aborts by cause", "kind" => AbortKind::label_at;
    }
    histograms {
        /// Includes queue wait.
        pub(crate) latency: "rococo_txkv_latency_ns", "Request latency from enqueue to reply, nanoseconds",
            le = |_| LATENCY_BOUNDS_NS;
    }
}

impl ShardStats {
    /// Records one abort of the given cause.
    pub fn record_abort(&self, kind: AbortKind) {
        self.aborts[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a request admitted to the shard queue.
    pub fn note_enqueued(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a request shed by admission control.
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }
}

impl ShardSnapshot {
    /// Total aborts across every cause.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// `(label, count)` pairs for every abort cause with a nonzero count.
    pub fn abort_breakdown(&self) -> Vec<(&'static str, u64)> {
        AbortKind::ALL
            .iter()
            .map(|k| (k.as_label(), self.aborts[k.index()]))
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

/// The service-wide report returned by [`TxKv::report`] and
/// [`TxKv::shutdown`].
///
/// [`TxKv::report`]: crate::TxKv::report
/// [`TxKv::shutdown`]: crate::TxKv::shutdown
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxKvReport {
    /// The backend's [`TmSystem::name`](rococo_stm::TmSystem::name).
    pub backend: &'static str,
    /// One snapshot per shard, in shard order.
    pub per_shard: Vec<ShardSnapshot>,
    /// The sum of all shard snapshots.
    pub aggregate: ShardSnapshot,
    /// Counters from the backend's fault-injection layer, when the
    /// backend runs one (see
    /// [`TmSystem::injected_faults`](rococo_stm::TmSystem::injected_faults)).
    /// `None` for backends without an injection layer.
    pub injected_faults: Option<rococo_fpga::FaultSnapshot>,
    /// Write-ahead-log counters, when the service runs in durable mode
    /// (fsync latency and group-commit batch-size distributions live
    /// here). `None` for in-memory services.
    pub wal: Option<rococo_wal::WalSnapshot>,
    /// Wall-clock time the service has been (or was) running.
    pub elapsed: Duration,
}

impl TxKvReport {
    /// Publishes the whole report into a metrics registry: the aggregate
    /// under `rococo_txkv_*`, each shard under a `shard` label, and the
    /// fault-injection and WAL snapshots when present. The scraper adds
    /// backend (`rococo_tm_*`) and FPGA (`rococo_fpga_*`) metrics itself,
    /// since the report does not carry them.
    pub fn export_metrics(&self, reg: &mut rococo_telemetry::MetricsRegistry) {
        self.aggregate.export_metrics(reg, &[]);
        for (i, shard) in self.per_shard.iter().enumerate() {
            let label = i.to_string();
            shard.export_metrics(reg, &[("shard", &label)]);
        }
        if let Some(faults) = &self.injected_faults {
            faults.export_metrics(reg);
        }
        if let Some(wal) = &self.wal {
            wal.export_metrics(reg);
        }
        reg.gauge(
            "rococo_txkv_uptime_seconds",
            "Wall-clock time the service has been running",
            &[],
            self.elapsed.as_secs_f64(),
        );
    }

    /// Committed requests per second over [`TxKvReport::elapsed`].
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.aggregate.committed as f64 / secs
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for TxKvReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = &self.aggregate;
        writeln!(
            f,
            "txkv[{}] {} shards, {:.2}s: {} committed ({:.0} req/s), {} shed, \
             {} failed, {} retries",
            self.backend,
            self.per_shard.len(),
            self.elapsed.as_secs_f64(),
            a.committed,
            self.throughput(),
            a.shed,
            a.failed,
            a.retries,
        )?;
        writeln!(
            f,
            "  latency p50={} p99={} p999={} max={} (n={})",
            fmt_ns(a.latency.quantile(0.5)),
            fmt_ns(a.latency.quantile(0.99)),
            fmt_ns(a.latency.quantile(0.999)),
            fmt_ns(a.latency.max),
            a.latency.count,
        )?;
        if a.total_aborts() > 0 {
            write!(f, "  aborts:")?;
            for (label, n) in a.abort_breakdown() {
                write!(f, " {label}={n}")?;
            }
            writeln!(f)?;
        }
        if let Some(fs) = &self.injected_faults {
            if fs.total() > 0 {
                writeln!(
                    f,
                    "  injected faults: delayed={} reordered={} spurious-cycle={} \
                     spurious-window={} pauses={}",
                    fs.delayed, fs.reordered, fs.spurious_cycle, fs.spurious_window, fs.pauses,
                )?;
            }
        }
        if let Some(w) = &self.wal {
            writeln!(
                f,
                "  wal: {} records in {} batches (mean batch {:.1}, p99<={}), \
                 {} fsyncs (p99<={}), {} checkpoints, {} lost",
                w.acked_records,
                w.batches,
                w.mean_batch(),
                w.batch_sizes.quantile_upper(0.99),
                w.fsyncs,
                fmt_ns(w.fsync_ns.quantile_upper(0.99)),
                w.checkpoints,
                a.durability_lost,
            )?;
        }
        for (i, s) in self.per_shard.iter().enumerate() {
            writeln!(
                f,
                "  shard {i}: committed={} shed={} failed={} retries={} aborts={} p99={}",
                s.committed,
                s.shed,
                s.failed,
                s.retries,
                s.total_aborts(),
                fmt_ns(s.latency.quantile(0.99)),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_abort_causes() {
        let s = ShardStats::default();
        s.record_abort(AbortKind::Conflict);
        s.record_abort(AbortKind::Conflict);
        s.record_abort(AbortKind::FpgaWindow);
        let snap = s.snapshot();
        assert_eq!(snap.total_aborts(), 3);
        assert_eq!(
            snap.abort_breakdown(),
            vec![("cpu-stale-read", 2), ("fpga-window", 1)]
        );
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = ShardSnapshot {
            committed: 10,
            shed: 1,
            aborts: [1, 0, 0, 0, 0, 0, 0],
            ..Default::default()
        };
        let b = ShardSnapshot {
            committed: 5,
            failed: 2,
            aborts: [0, 3, 0, 0, 0, 0, 0],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.committed, 15);
        assert_eq!(a.shed, 1);
        assert_eq!(a.failed, 2);
        assert_eq!(a.total_aborts(), 4);
    }

    #[test]
    fn report_renders() {
        let mut report = TxKvReport {
            backend: "tinystm",
            per_shard: vec![ShardSnapshot::default()],
            aggregate: ShardSnapshot {
                committed: 1000,
                retries: 3,
                aborts: [5, 0, 0, 0, 0, 0, 0],
                ..Default::default()
            },
            injected_faults: None,
            wal: None,
            elapsed: Duration::from_secs(2),
        };
        let latency = rococo_telemetry::Histogram::default();
        latency.record(1_500);
        report.aggregate.latency = latency.snapshot();
        let text = report.to_string();
        assert!(text.contains("500 req/s"), "{text}");
        assert!(text.contains("3 retries"), "{text}");
        assert!(text.contains("cpu-stale-read=5"), "{text}");
        assert!(text.contains("1.5us"), "{text}");
        assert!(!text.contains("injected faults"), "{text}");
    }

    #[test]
    fn report_renders_injected_faults_when_present() {
        let report = TxKvReport {
            backend: "rococotm",
            injected_faults: Some(rococo_fpga::FaultSnapshot {
                delayed: 3,
                spurious_cycle: 2,
                ..Default::default()
            }),
            ..Default::default()
        };
        let text = report.to_string();
        assert!(text.contains("injected faults"), "{text}");
        assert!(text.contains("delayed=3"), "{text}");
        assert!(text.contains("spurious-cycle=2"), "{text}");
    }
}
