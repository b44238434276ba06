//! Quickstart: concurrent bank transfers on ROCoCoTM.
//!
//! Demonstrates the public TM API end to end: build a runtime, run
//! transactions from several threads with `atomically`, and inspect both
//! CPU-side and FPGA-side statistics. The invariant — money is neither
//! created nor destroyed — holds because ROCoCoTM only admits serializable
//! executions.
//!
//! Run with: `cargo run --release --example quickstart`

use rococo::stm::{atomically, RococoTm, TmConfig, TmSystem, Transaction};
use std::sync::Arc;

const ACCOUNTS: usize = 32;
const THREADS: usize = 4;
const TRANSFERS_PER_THREAD: usize = 2_000;
const INITIAL_BALANCE: u64 = 1_000;

fn main() {
    let tm = Arc::new(RococoTm::with_config(TmConfig {
        heap_words: 1 << 12,
        max_threads: THREADS,
    }));

    // Non-transactional setup.
    for a in 0..ACCOUNTS {
        tm.heap().store_direct(a, INITIAL_BALANCE);
    }

    let mut workers = Vec::new();
    for t in 0..THREADS {
        let tm = Arc::clone(&tm);
        workers.push(std::thread::spawn(move || {
            let mut x = (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for _ in 0..TRANSFERS_PER_THREAD {
                // xorshift for reproducible "random" account pairs
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let from = (x >> 7) as usize % ACCOUNTS;
                let to = (x >> 23) as usize % ACCOUNTS;
                if from == to {
                    continue;
                }
                atomically(&*tm, t, |tx| {
                    let f = tx.read(from)?;
                    let g = tx.read(to)?;
                    if f >= 10 {
                        tx.write(from, f - 10)?;
                        tx.write(to, g + 10)?;
                    }
                    Ok(())
                });
            }
        }));
    }
    for w in workers {
        w.join().expect("worker panicked");
    }

    let total: u64 = (0..ACCOUNTS).map(|a| tm.heap().load_direct(a)).sum();
    let stats = tm.stats().snapshot();
    let fpga = tm.fpga_stats();

    println!("accounts: {ACCOUNTS}, threads: {THREADS}");
    println!(
        "total balance: {total} (expected {})",
        ACCOUNTS as u64 * INITIAL_BALANCE
    );
    println!(
        "commits: {} ({} read-only, committed without touching the FPGA)",
        stats.commits, stats.read_only_commits
    );
    println!(
        "aborts: {} total ({:.1}% abort rate), of which {} decided by the FPGA",
        stats.total_aborts(),
        stats.abort_rate() * 100.0,
        stats.fpga_aborts(),
    );
    println!(
        "FPGA engine: {} requests, {} commits, {} cycle aborts, {} window aborts",
        fpga.requests, fpga.commits, fpga.aborts_cycle, fpga.aborts_window
    );
    println!(
        "mean validation: {:.3} us wall (one validation in 61 timed)",
        stats.mean_validation_us()
    );

    assert_eq!(total, ACCOUNTS as u64 * INITIAL_BALANCE, "money conserved");
    println!("OK: serializability held under concurrency.");
}
