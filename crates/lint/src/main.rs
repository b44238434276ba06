//! `rococo-lint` CLI: lints the workspace and prints rustc-style
//! diagnostics (or a JSON report with `--json`).
//!
//! Exit codes: 0 clean, 1 diagnostics found, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: rococo-lint [--root <path>] [--json]

  --root <path>  workspace root to lint (default: current directory)
  --json         emit a machine-readable JSON report on stdout
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("rococo-lint: --root needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("rococo-lint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match rococo_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rococo-lint: failed to read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            eprintln!("{}", d.render());
        }
        eprintln!(
            "rococo-lint: {} files, {} lines, parse {}us",
            report.files, report.lines, report.parse_micros
        );
        for r in &report.rule_stats {
            eprintln!(
                "rococo-lint:   {:<28} {:>3} diagnostic(s) {:>6}us",
                r.id, r.raw, r.micros
            );
        }
        eprintln!("rococo-lint: {} error(s)", report.diagnostics.len());
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
