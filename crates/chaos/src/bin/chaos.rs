//! `chaos` — CLI front-end for the concurrency-fault harness.
//!
//! ```text
//! chaos [--backend rococo|tiny|htm|lock|hybrid|seq] [--seed N | --seeds a,b,c]
//!       [--threads N] [--ops N] [--accounts N]
//!       [--faults none|timing|aggressive] [--queue-len N] [--window N]
//!       [--update-spin N] [--irrevocable-after N] [--no-strict]
//!       [--all-backends] [--shrink] [--pinned] [--extended] [--quiet]
//! ```
//!
//! * default: run the given configuration once per seed and print a
//!   summary line per run;
//! * `--pinned`: the fast deterministic CI tier — a fixed seed matrix
//!   over every backend, including fault-injected ROCoCoTM runs with a
//!   tiny commit queue;
//! * `--extended`: the nightly sweep — many seeds, more thread counts and
//!   queue geometries;
//! * `--shrink`: when a run fails, search for a smaller configuration
//!   that still fails before printing the reproducer.
//!
//! Exits non-zero on any violation and prints a ready-to-paste
//! reproducer command for every failing configuration.

use rococo_chaos::{
    reproducer_command, run_chaos, shrink, sweep, BackendKind, ChaosParams, FaultPreset,
};
use std::process::ExitCode;

struct Args {
    params: ChaosParams,
    seeds: Vec<u64>,
    all_backends: bool,
    do_shrink: bool,
    pinned: bool,
    extended: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--backend NAME] [--seed N | --seeds a,b,c] [--threads N] \
         [--ops N] [--accounts N] [--faults none|timing|aggressive] [--queue-len N] \
         [--window N] [--update-spin N] [--irrevocable-after N] [--no-strict] \
         [--all-backends] [--shrink] [--pinned] [--extended] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        params: ChaosParams::default(),
        seeds: Vec::new(),
        all_backends: false,
        do_shrink: false,
        pinned: false,
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
            "--threads" => args.params.threads = parse_num(&value(&mut it, "--threads")) as usize,
            "--ops" => args.params.ops_per_thread = parse_num(&value(&mut it, "--ops")) as usize,
            "--accounts" => {
                args.params.accounts = parse_num(&value(&mut it, "--accounts")) as usize
            }
            "--faults" => {
                let v = value(&mut it, "--faults");
                args.params.faults = FaultPreset::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown fault preset {v:?}");
                    usage()
                });
            }
            "--queue-len" => {
                args.params.queue_len = parse_num(&value(&mut it, "--queue-len")) as usize;
            }
            "--window" => args.params.window = parse_num(&value(&mut it, "--window")) as usize,
            "--update-spin" => {
                args.params.update_spin = parse_num(&value(&mut it, "--update-spin")) as usize;
            }
            "--irrevocable-after" => {
                args.params.irrevocable_after =
                    parse_num(&value(&mut it, "--irrevocable-after")) as u32;
            }
            "--no-strict" => args.params.strict = false,
            "--all-backends" => args.all_backends = true,
            "--shrink" => args.do_shrink = true,
            "--pinned" => args.pinned = true,
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

fn parse_num(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("not a number: {s:?}");
        usage()
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut failures: Vec<ChaosParams> = Vec::new();
    let mut runs = 0usize;

    let mut handle = |report: rococo_chaos::ChaosReport, quiet: bool| {
        runs += 1;
        if !quiet || !report.ok() {
            println!("{}", report.summary());
        }
        if !report.ok() {
            for v in &report.violations {
                println!("  violation: {v}");
            }
            failures.push(report.params);
        }
    };

    if args.pinned || args.extended {
        // The CI matrices. Pinned: fast and deterministic in shape; the
        // extended tier layers on more seeds and hostile geometries.
        let seeds: Vec<u64> = if args.extended {
            (0..16).collect()
        } else {
            vec![1, 7, 42]
        };
        let base = ChaosParams {
            threads: 4,
            ops_per_thread: if args.extended { 500 } else { 200 },
            accounts: 12,
            queue_len: 8,
            window: 8,
            update_spin: 512,
            irrevocable_after: 8,
            ..ChaosParams::default()
        };
        for r in sweep(&base, &seeds, &BackendKind::ALL) {
            handle(r, args.quiet);
        }
        if args.extended {
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
                for r in sweep(&params, &seeds, &[BackendKind::Rococo]) {
                    handle(r, args.quiet);
                }
            }
        }
    } else {
        let backends: Vec<BackendKind> = if args.all_backends {
            BackendKind::ALL.to_vec()
        } else {
            vec![args.params.backend]
        };
        for backend in backends {
            for &seed in &args.seeds {
                let params = ChaosParams {
                    seed,
                    backend,
                    ..args.params
                };
                handle(run_chaos(&params), args.quiet);
            }
        }
    }

    if failures.is_empty() {
        println!("chaos: {runs} runs, all passed");
        return ExitCode::SUCCESS;
    }
    eprintln!("chaos: {} of {runs} runs FAILED", failures.len());
    for params in &failures {
        let minimal = if args.do_shrink {
            shrink(params)
        } else {
            *params
        };
        eprintln!("  reproduce with: {}", reproducer_command(&minimal));
    }
    ExitCode::FAILURE
}
