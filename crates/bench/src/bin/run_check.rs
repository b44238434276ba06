//! run_check: validates the run directory a `txkv_load --telemetry DIR`
//! run leaves behind.
//!
//! Usage: `run_check <DIR> [--fpga] [--wal] [--sched] [--attribution]`
//!
//! A thin front over [`rococo_telemetry::rundir::check_run_dir`], which
//! holds every invariant; the flags say what the run is expected to have
//! produced ([`Expect`]). Exits 0 on success, 1 with a diagnostic naming
//! the artifact on the first failure, and 2 when `trace.json` is
//! well-formed but holds no transaction span — vacuous, not malformed.

use rococo_telemetry::rundir::{check_run_dir, CheckError, Expect};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    let mut expect = Expect::default();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--fpga" => expect.fpga = true,
            "--wal" => expect.wal = true,
            "--sched" => expect.sched = true,
            "--attribution" => expect.attribution = true,
            "--help" | "-h" => {
                println!("usage: run_check <DIR> [--fpga] [--wal] [--sched] [--attribution]");
                return ExitCode::SUCCESS;
            }
            other if dir.is_none() && !other.starts_with('-') => dir = Some(PathBuf::from(other)),
            other => {
                eprintln!("run_check: unexpected argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("run_check: missing run directory argument");
        return ExitCode::FAILURE;
    };
    match check_run_dir(&dir, expect) {
        Ok(checked) => {
            println!("run_check: OK ({checked})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run_check: FAIL: {e}");
            match e {
                CheckError::Invalid(_) => ExitCode::FAILURE,
                CheckError::NoTxSpans => ExitCode::from(2),
            }
        }
    }
}
