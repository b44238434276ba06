//! Figure 7 — false positivity of bloom-filter query and set intersection.
//!
//! Prints the analytic model (Jeffrey–Steffan) alongside a Monte-Carlo
//! measurement on real signatures, for the geometries the paper examines.
//! Reproduction target: query FP stays negligible while intersection false
//! set-overlap "can be frequent even with a small number of elements",
//! justifying `m = 512` with at most 8 elements per intersected signature.

use rococo_bench::{banner, Table};
use rococo_sigs::{fp_model, SigScheme};

fn empirical(scheme: &SigScheme, n: usize, trials: u64) -> (f64, f64) {
    let mut q_fp = 0u64;
    let mut i_fp = 0u64;
    let mut state = 0x5eed_1234_u64 ^ (n as u64) << 40;
    let mut next = move || rococo_sigs::splitmix64(&mut state);
    for _ in 0..trials {
        // Two disjoint random sets of n addresses plus a non-member probe.
        let a = scheme.sig_of((0..n).map(|_| next() | 1));
        let b = scheme.sig_of((0..n).map(|_| next() & !1));
        let probe = next() | 1;
        if scheme.query(&b, probe) {
            q_fp += 1; // b only holds even addresses; odd probe is FP
        }
        if scheme.sets_may_intersect(&a, &b) {
            i_fp += 1;
        }
    }
    (q_fp as f64 / trials as f64, i_fp as f64 / trials as f64)
}

fn main() {
    banner("Figure 7: false positivity of bloom-filter signatures");

    let trials = 3000;
    let k = SigScheme::K;
    for m in [256usize, 512, 1024] {
        let scheme = SigScheme::new(m);
        println!("m = {m} bits, k = {k} partitions   ({trials} Monte-Carlo trials per row)");
        let mut t = Table::new([
            "n",
            "query FP (model)",
            "query FP (meas.)",
            "intersect FP (model)",
            "intersect FP (meas.)",
        ]);
        for n in [1usize, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64] {
            let (eq, ei) = empirical(&scheme, n, trials);
            t.row([
                n.to_string(),
                format!("{:.2e}", fp_model::query_fp(m, k, n)),
                format!("{eq:.2e}"),
                format!("{:.4}", fp_model::intersection_fp(m, k, n, n)),
                format!("{ei:.4}"),
            ]);
        }
        t.print();
        println!();
    }

    banner("Design point check (paper section 5.2)");
    let at8 = fp_model::intersection_fp(512, 8, 8, 8);
    let at16 = fp_model::intersection_fp(512, 8, 16, 16);
    println!(
        "m=512, k=8: intersection false set-overlap at n=8: {:.2}%, at n=16: {:.1}%",
        at8 * 100.0,
        at16 * 100.0
    );
    println!(
        "=> intersections are limited to signatures of at most 8 elements; \
         each 512-bit cache line holds exactly eight 64-bit addresses."
    );
}
