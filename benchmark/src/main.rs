//! The repository's benchmark: four pinned workloads, four end-to-end
//! metrics, a per-layer ledger, and the output checks that gate them.
//! `README.md` beside this package says what every name means.

#![forbid(unsafe_code)]

mod compare;
mod gen;
mod kv;
mod probes;
mod replay;
mod results;
mod run;
mod spans;
mod spec;
mod stats;

use results::Run;
use run::Settings;
use spans::Spans;
use spec::{Workload, DEFAULT_SECONDS, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--quick]
       benchmark compare A/results.json B/results.json

  --workload  kv-read | kv-hot-write | kv-durable | engine-replay (default: all four)
  --seed      seed of the generated inputs (default 1)
  --seconds   timed seconds per workload, split into 20 segments (default 20)
  --trace     0 = untraced run, end-to-end metrics; 1 = traced run, per-layer
              metrics (default: both, untraced first)
  --out       directory for results.json, trace.json and the WAL (default benchmark/out)
  --quick     --seconds 1: every check, numbers too short to compare";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traces: Vec<bool>,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traces: vec![false, true],
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.seconds = 1.0;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use \"{value}\"");
        match flag.as_str() {
            "--workload" => parsed.workloads = vec![Workload::parse(value).ok_or_else(bad)?],
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn write(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn benchmark(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        scratch: &args.out,
    };
    let mut spans = Spans::new();
    let mut runs: Vec<Run> = Vec::new();
    for &traced in &args.traces {
        let probes = traced.then(|| run::probes(&settings, &mut spans));
        if let Some(probes) = &probes {
            print!("{}", probes.rows());
        }
        for &workload in &args.workloads {
            let run = match traced {
                false => run::untraced(workload, &settings),
                true => run::traced(workload, &settings, &mut spans),
            };
            for note in &run.notes {
                println!("# {} {note}", run.workload);
            }
            print!("{}", run.rows());
            println!("{}", run.driver_line(probes.as_ref()));
            runs.push(run);
        }
        runs.extend(probes);
    }
    write(
        &args.out,
        "results.json",
        &results::render(args.seed, args.seconds, &runs),
    )?;
    if spans.len() > 0 {
        write(&args.out, "trace.json", &spans.render())?;
    }
    Ok(runs.iter().all(|r| r.correct))
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        results::parse(&src).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err(format!("{a} holds no untraced run"));
    }
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.verdict.passes()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare_files(a, b),
        [cmd, ..] if cmd == "compare" || cmd == "--help" || cmd == "-h" => Err(USAGE.to_string()),
        _ => parse_args(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| benchmark(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
