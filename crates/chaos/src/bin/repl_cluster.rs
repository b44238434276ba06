//! `repl_cluster` — CLI front-end for the replicated-cluster chaos
//! harness.
//!
//! ```text
//! repl_cluster [--backend rococo|tiny|htm|lock] [--seed N | --seeds a,b,c]
//!              [--kill none|mid-batch-ship|pre-ack|during-election]
//!              [--followers N] [--clients N] [--ops N] [--bank-keys N]
//!              [--partition] [--drop-pct N] [--reorder-pct N]
//!              [--matrix] [--extended] [--quiet]
//! ```
//!
//! * default: run the given configuration once per seed;
//! * `--matrix`: the CI tier — fault-free, every kill point, partition,
//!   and lossy-link scenarios over a fixed seed set (`ci.sh --full` runs
//!   this); `--extended` (the nightly tier) widens the matrix to every
//!   service-capable backend with longer runs.
//!
//! Exits non-zero on any oracle violation — lost acked writes, broken
//! read-your-writes, diverged replicas, bank totals drifting — and
//! prints a ready-to-paste reproducer command for every failing
//! configuration.

use rococo_chaos::driver::BackendKind;
use rococo_chaos::{
    cluster_reproducer, cluster_sweep, run_cluster, ClusterKill, ClusterParams, ClusterRunReport,
    RECOVERY_BACKENDS,
};
use std::process::ExitCode;

struct Args {
    params: ClusterParams,
    seeds: Vec<u64>,
    matrix: bool,
    extended: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: repl_cluster [--backend NAME] [--seed N | --seeds a,b,c] \
         [--kill none|mid-batch-ship|pre-ack|during-election] [--followers N] [--clients N] \
         [--ops N] [--bank-keys N] [--partition] [--drop-pct N] [--reorder-pct N] \
         [--matrix] [--extended] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_num(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("not a number: {s:?}");
        usage()
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        params: ClusterParams::default(),
        seeds: Vec::new(),
        matrix: false,
        extended: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--backend" => {
                let v = value(&mut it, "--backend");
                args.params.backend = BackendKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown backend {v:?}");
                    usage()
                });
            }
            "--seed" => args.seeds = vec![parse_num(&value(&mut it, "--seed"))],
            "--seeds" => {
                args.seeds = value(&mut it, "--seeds")
                    .split(',')
                    .map(parse_num)
                    .collect();
            }
            "--kill" => {
                let v = value(&mut it, "--kill");
                args.params.kill = if v == "none" {
                    None
                } else {
                    Some(ClusterKill::parse(&v).unwrap_or_else(|| {
                        eprintln!("unknown kill scenario {v:?}");
                        usage()
                    }))
                };
            }
            "--followers" => {
                args.params.followers = parse_num(&value(&mut it, "--followers")) as usize;
            }
            "--clients" => args.params.clients = parse_num(&value(&mut it, "--clients")) as usize,
            "--ops" => {
                args.params.ops_per_client = parse_num(&value(&mut it, "--ops")) as usize;
            }
            "--bank-keys" => args.params.bank_keys = parse_num(&value(&mut it, "--bank-keys")),
            "--partition" => args.params.partition = true,
            "--drop-pct" => {
                args.params.drop_pct = parse_num(&value(&mut it, "--drop-pct")) as u32;
            }
            "--reorder-pct" => {
                args.params.reorder_pct = parse_num(&value(&mut it, "--reorder-pct")) as u32;
            }
            "--matrix" => args.matrix = true,
            "--extended" => args.extended = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    if args.seeds.is_empty() {
        args.seeds = vec![args.params.seed];
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut failures: Vec<ClusterParams> = Vec::new();
    let mut runs = 0usize;
    let mut crashes = 0usize;
    let mut failovers = 0usize;

    let mut handle = |report: ClusterRunReport| {
        runs += 1;
        crashes += usize::from(report.crashed);
        failovers += report.failovers.len();
        if !args.quiet || !report.ok() {
            println!("{}", report.summary());
        }
        if !report.ok() {
            for v in &report.violations {
                println!("  violation: {v}");
            }
            failures.push(report.params);
        }
    };

    if args.matrix {
        let base = ClusterParams {
            followers: 2,
            clients: 3,
            ops_per_client: if args.extended { 250 } else { 80 },
            bank_keys: 8,
            ..ClusterParams::default()
        };
        let backends: &[BackendKind] = if args.extended {
            &RECOVERY_BACKENDS
        } else {
            &[BackendKind::Tiny]
        };
        for r in cluster_sweep(&base, &[1, 9, 23], backends) {
            handle(r);
        }
    } else {
        for &seed in &args.seeds {
            handle(run_cluster(&ClusterParams {
                seed,
                ..args.params.clone()
            }));
        }
    }

    if failures.is_empty() {
        println!(
            "repl_cluster: {runs} runs ({crashes} simulated crashes, {failovers} fail-overs), \
             all replicas consistent"
        );
        return ExitCode::SUCCESS;
    }
    eprintln!("repl_cluster: {} of {runs} runs FAILED", failures.len());
    for params in &failures {
        eprintln!("  reproduce with: {}", cluster_reproducer(params));
    }
    ExitCode::FAILURE
}
