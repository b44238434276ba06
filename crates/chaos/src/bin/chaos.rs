//! `chaos` — one command over the three chaos harnesses.
//!
//! ```text
//! chaos [stm]     [--backend rococo|tiny|htm|lock|hybrid|seq] [--threads N]
//!                 [--ops N] [--accounts N] [--faults none|timing|aggressive]
//!                 [--queue-len N] [--window N] [--update-spin N]
//!                 [--irrevocable-after N] [--no-strict] [--all-backends] [--shrink]
//! chaos recovery  [--backend rococo|tiny|htm|lock|hybrid] [--clients N] [--ops N]
//!                 [--bank-keys N] [--kill none|pre-append|mid-append|
//!                 post-append-pre-ack|mid-checkpoint|mid-truncate]
//!                 [--fsync always|everyN|never] [--checkpoint-every N]
//! chaos cluster   [--backend rococo|tiny|htm|lock|hybrid] [--clients N] [--ops N]
//!                 [--bank-keys N] [--kill none|mid-batch-ship|post-append-pre-ack|
//!                 during-election] [--followers N] [--partition] [--drop-pct N]
//!                 [--reorder-pct N]
//!
//! every harness:  [--seed N | --seeds a,b,c] [--pinned] [--extended] [--quiet]
//! ```
//!
//! * `stm` (the default): seeded workloads straight on a TM backend,
//!   judged by the serializability and liveness oracles;
//! * `recovery`: a durable TxKV under the service workload with its WAL
//!   writer killed at an armed point, judged after recovery;
//! * `cluster`: a replicated TxKV under the same workload through kills,
//!   partitions and lossy links, judged on the primary and every
//!   surviving follower.
//!
//! Both service harnesses arm one `rococo_wal::KillSwitch`, and a crash
//! point has one name in both: `--kill` takes the points of
//! `KillPoint::WAL` for `recovery` and those of `KillPoint::CLUSTER` for
//! `cluster` (`post-append-pre-ack` is in both).
//!
//! Without a tier flag each seed runs the given configuration once.
//! `--pinned` runs the harness's CI tier (`ci.sh --full` runs all three);
//! `--extended` its nightly tier: more seeds and commit-queue geometries
//! for `stm`, every service backend and longer runs for `cluster`
//! (`recovery` has one tier). `--shrink` searches a failing `stm` run for
//! a smaller configuration that still fails.
//!
//! Exits non-zero on any violation and prints a ready-to-paste reproducer
//! command for every failing configuration.

use rococo_chaos::{
    cluster_reproducer, cluster_sweep, recovery_reproducer, recovery_sweep, reproducer_command,
    run_chaos, run_cluster, run_recovery, shrink, sweep, BackendKind, ChaosParams, ChaosReport,
    ClusterParams, FaultPreset, RecoveryParams, SERVICE_BACKENDS,
};
use rococo_wal::{FsyncPolicy, KillPoint};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Harness {
    Stm,
    Recovery,
    Cluster,
}

struct Args {
    harness: Harness,
    stm: ChaosParams,
    recovery: RecoveryParams,
    cluster: ClusterParams,
    seeds: Vec<u64>,
    all_backends: bool,
    do_shrink: bool,
    pinned: bool,
    extended: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos [stm|recovery|cluster] [--backend NAME] [--seed N | --seeds a,b,c] \
         [--ops N] [--pinned] [--extended] [--quiet] [HARNESS FLAGS]\n  \
         stm:      [--threads N] [--accounts N] [--faults none|timing|aggressive] \
         [--queue-len N] [--window N] [--update-spin N] [--irrevocable-after N] \
         [--no-strict] [--all-backends] [--shrink]\n  \
         recovery: [--clients N] [--bank-keys N] [--kill none|{}] \
         [--fsync always|everyN|never] [--checkpoint-every N]\n  \
         cluster:  [--clients N] [--bank-keys N] [--kill none|{}] [--followers N] \
         [--partition] [--drop-pct N] [--reorder-pct N]",
        names(&KillPoint::WAL),
        names(&KillPoint::CLUSTER),
    );
    std::process::exit(2);
}

fn parse_num(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("not a number: {s:?}");
        usage()
    })
}

/// `v` parsed by `parse`, or a usage error naming `what`.
fn parsed<T>(v: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> T {
    parse(v).unwrap_or_else(|| {
        eprintln!("unknown {what} {v:?}");
        usage()
    })
}

/// `points`' names, `|`-separated.
fn names(points: &[KillPoint]) -> String {
    let names: Vec<&str> = points.iter().map(|p| p.name()).collect();
    names.join("|")
}

/// `none`, or one of the harness's kill `points`; an error that lists
/// them otherwise.
fn kill_point(v: &str, points: &[KillPoint]) -> Result<Option<KillPoint>, String> {
    if v == "none" {
        return Ok(None);
    }
    match KillPoint::parse(v).filter(|p| points.contains(p)) {
        Some(p) => Ok(Some(p)),
        None => Err(format!(
            "unknown kill point {v:?} for this harness (none|{})",
            names(points)
        )),
    }
}

/// [`kill_point`], or a usage error.
fn kill(v: &str, points: &[KillPoint]) -> Option<KillPoint> {
    kill_point(v, points).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1).peekable();
    let harness = match it.next_if(|a| !a.starts_with('-')).as_deref() {
        None | Some("stm") => Harness::Stm,
        Some("recovery") => Harness::Recovery,
        Some("cluster") => Harness::Cluster,
        Some(other) => {
            eprintln!("unknown harness {other:?}");
            usage()
        }
    };
    let mut args = Args {
        harness,
        stm: ChaosParams::default(),
        recovery: RecoveryParams::default(),
        cluster: ClusterParams::default(),
        seeds: Vec::new(),
        all_backends: false,
        do_shrink: false,
        pinned: false,
        extended: false,
        quiet: false,
    };
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {arg}");
                usage()
            })
        };
        let (stm, rec, clu) = (&mut args.stm, &mut args.recovery, &mut args.cluster);
        match (harness, arg.as_str()) {
            (_, "--backend") => {
                let b = parsed(&value(), "backend", BackendKind::parse);
                (stm.backend, rec.backend, clu.backend) = (b, b, b);
            }
            (_, "--seed") => args.seeds = vec![parse_num(&value())],
            (_, "--seeds") => args.seeds = value().split(',').map(parse_num).collect(),
            (_, "--ops") => {
                let n = parse_num(&value()) as usize;
                (stm.ops_per_thread, rec.ops_per_client, clu.ops_per_client) = (n, n, n);
            }
            (_, "--pinned") => args.pinned = true,
            (_, "--extended") => args.extended = true,
            (_, "--quiet") => args.quiet = true,
            (_, "--help" | "-h") => usage(),
            (Harness::Stm, "--threads") => stm.threads = parse_num(&value()) as usize,
            (Harness::Stm, "--accounts") => stm.accounts = parse_num(&value()) as usize,
            (Harness::Stm, "--faults") => {
                stm.faults = parsed(&value(), "fault preset", FaultPreset::parse);
            }
            (Harness::Stm, "--queue-len") => stm.queue_len = parse_num(&value()) as usize,
            (Harness::Stm, "--window") => stm.window = parse_num(&value()) as usize,
            (Harness::Stm, "--update-spin") => stm.update_spin = parse_num(&value()) as usize,
            (Harness::Stm, "--irrevocable-after") => {
                stm.irrevocable_after = parse_num(&value()) as u32;
            }
            (Harness::Stm, "--no-strict") => stm.strict = false,
            (Harness::Stm, "--all-backends") => args.all_backends = true,
            (Harness::Stm, "--shrink") => args.do_shrink = true,
            (Harness::Recovery | Harness::Cluster, "--clients") => {
                let n = parse_num(&value()) as usize;
                (rec.clients, clu.clients) = (n, n);
            }
            (Harness::Recovery | Harness::Cluster, "--bank-keys") => {
                let n = parse_num(&value());
                (rec.bank_keys, clu.bank_keys) = (n, n);
            }
            (Harness::Recovery, "--kill") => rec.kill_point = kill(&value(), &KillPoint::WAL),
            (Harness::Recovery, "--fsync") => {
                rec.fsync = parsed(&value(), "fsync policy", FsyncPolicy::parse);
            }
            (Harness::Recovery, "--checkpoint-every") => {
                rec.checkpoint_every = parse_num(&value());
            }
            (Harness::Cluster, "--kill") => clu.kill = kill(&value(), &KillPoint::CLUSTER),
            (Harness::Cluster, "--followers") => clu.followers = parse_num(&value()) as usize,
            (Harness::Cluster, "--partition") => clu.partition = true,
            (Harness::Cluster, "--drop-pct") => clu.drop_pct = parse_num(&value()) as u32,
            (Harness::Cluster, "--reorder-pct") => clu.reorder_pct = parse_num(&value()) as u32,
            (_, other) => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    if args.seeds.is_empty() {
        // The seed every params default carries.
        args.seeds = vec![1];
    }
    args
}

/// Runs, failures and their reproducers across one invocation.
struct Tally {
    quiet: bool,
    runs: usize,
    reproducers: Vec<String>,
}

impl Tally {
    /// Books one run: prints its summary (always when it failed) and its
    /// violations, and keeps the command that replays a failure.
    fn book(
        &mut self,
        summary: String,
        violations: &[String],
        reproducer: impl FnOnce() -> String,
    ) {
        self.runs += 1;
        if !self.quiet || !violations.is_empty() {
            println!("{summary}");
        }
        if !violations.is_empty() {
            for v in violations {
                println!("  violation: {v}");
            }
            self.reproducers.push(reproducer());
        }
    }

    fn finish(self) -> ExitCode {
        if self.reproducers.is_empty() {
            println!("chaos: {} runs, all passed", self.runs);
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "chaos: {} of {} runs FAILED",
            self.reproducers.len(),
            self.runs
        );
        for r in &self.reproducers {
            eprintln!("  reproduce with: {r}");
        }
        ExitCode::FAILURE
    }
}

/// The `stm` CI matrices. Pinned: fast and deterministic in shape; the
/// extended tier layers on more seeds and hostile geometries.
fn stm_tier(extended: bool) -> Vec<ChaosReport> {
    let seeds: Vec<u64> = if extended {
        (0..16).collect()
    } else {
        vec![1, 7, 42]
    };
    let base = ChaosParams {
        threads: 4,
        ops_per_thread: if extended { 500 } else { 200 },
        accounts: 12,
        queue_len: 8,
        window: 8,
        update_spin: 512,
        irrevocable_after: 8,
        ..ChaosParams::default()
    };
    let mut reports = sweep(&base, &seeds, &BackendKind::ALL);
    if extended {
        // Hostile geometry: minimum ring, long scans likely to lag.
        let tight = ChaosParams {
            threads: 8,
            ops_per_thread: 300,
            accounts: 24,
            queue_len: 4,
            window: 4,
            update_spin: 128,
            irrevocable_after: 4,
            ..ChaosParams::default()
        };
        // A commit queue twice the window, escalating early.
        let roomy = ChaosParams {
            queue_len: 16,
            irrevocable_after: 4,
            ..base
        };
        for params in [tight, roomy] {
            reports.extend(sweep(&params, &seeds, &[BackendKind::Rococo]));
        }
    }
    reports
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut tally = Tally {
        quiet: args.quiet,
        runs: 0,
        reproducers: Vec::new(),
    };
    let tier = args.pinned || args.extended;
    match args.harness {
        Harness::Stm => {
            let reports = if tier {
                stm_tier(args.extended)
            } else {
                let backends = if args.all_backends {
                    BackendKind::ALL.to_vec()
                } else {
                    vec![args.stm.backend]
                };
                let runs = backends.into_iter().flat_map(|backend| {
                    args.seeds.iter().map(move |&seed| ChaosParams {
                        seed,
                        backend,
                        ..args.stm
                    })
                });
                runs.map(|params| run_chaos(&params)).collect()
            };
            for r in reports {
                let params = r.params;
                tally.book(r.summary(), &r.violations, || {
                    let minimal = if args.do_shrink {
                        shrink(&params)
                    } else {
                        params
                    };
                    reproducer_command(&minimal)
                });
            }
        }
        Harness::Recovery => {
            let reports = if tier {
                let base = RecoveryParams {
                    clients: 4,
                    ops_per_client: 150,
                    bank_keys: 8,
                    checkpoint_every: 48,
                    ..RecoveryParams::default()
                };
                recovery_sweep(&base, &[1, 9, 23], &SERVICE_BACKENDS)
            } else {
                let runs = args.seeds.iter().map(|&seed| RecoveryParams {
                    seed,
                    ..args.recovery.clone()
                });
                runs.map(|params| run_recovery(&params)).collect()
            };
            for r in reports {
                tally.book(r.summary(), &r.violations, || {
                    recovery_reproducer(&r.params)
                });
            }
        }
        Harness::Cluster => {
            let reports = if tier {
                let base = ClusterParams {
                    followers: 2,
                    clients: 3,
                    ops_per_client: if args.extended { 250 } else { 80 },
                    bank_keys: 8,
                    ..ClusterParams::default()
                };
                let backends: &[BackendKind] = if args.extended {
                    &SERVICE_BACKENDS
                } else {
                    &[BackendKind::Tiny]
                };
                cluster_sweep(&base, &[1, 9, 23], backends)
            } else {
                let runs = args.seeds.iter().map(|&seed| ClusterParams {
                    seed,
                    ..args.cluster.clone()
                });
                runs.map(|params| run_cluster(&params)).collect()
            };
            for r in reports {
                tally.book(r.summary(), &r.violations, || cluster_reproducer(&r.params));
            }
        }
    }
    tally.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_takes_only_the_harness_points_and_lists_them_otherwise() {
        let harnesses: [&[KillPoint]; 2] = [&KillPoint::WAL, &KillPoint::CLUSTER];
        for points in harnesses {
            assert_eq!(kill_point("none", points), Ok(None));
            for p in KillPoint::ALL {
                match kill_point(p.name(), points) {
                    Ok(got) => assert!(points.contains(&p) && got == Some(p), "{}", p.name()),
                    Err(err) => {
                        assert!(!points.contains(&p), "{err}");
                        for q in points {
                            assert!(err.contains(q.name()), "{err} does not list {}", q.name());
                        }
                    }
                }
            }
            assert!(
                kill_point("pre-ack", points).is_err(),
                "the old name is gone"
            );
        }
    }
}
