//! Figures 10, 11 and 12 from one run of the SPEC grid (7 SPEC-like
//! mixes × {baseline, RPG2, Triangel, Prophet}):
//!
//! * Figure 10: IPC speedup of RPG2 / Triangel / Prophet over the baseline
//!   without a temporal prefetcher;
//! * Figure 11: DRAM traffic (reads + writes) normalized to the baseline;
//! * Figure 12: prefetching coverage (a) and accuracy (b) per scheme.
//!
//! ```text
//! fig10_12_spec [--insts N] [--warmup N] [--jobs N]
//! ```
//!
//! Every cell warms up from cold with its own scheme active, as the paper
//! measures. CI diffs the default window against
//! `crates/bench/tests/golden/fig10_12_spec_default.txt`.

use prophet_bench::{print_scheme_table, print_speedup_table, Flag, Harness, RunArgs, SchemeRow};
use prophet_workloads::SPEC_WORKLOADS;

fn main() {
    let args = RunArgs::parse_or_exit("fig10_12_spec", &Flag::GRID);
    let h = args.harness(Harness::default());
    let rows = args.run_grid(&h, &SPEC_WORKLOADS);
    print_speedup_table(
        "Figure 10: IPC speedup (paper geomeans: RPG2 1.001, Triangel 1.204, Prophet 1.346)",
        &rows,
    );
    print_scheme_table(
        "Figure 11: normalized DRAM traffic (paper: RPG2 ~1.00, Triangel ~1.10, Prophet ~1.19)",
        &rows,
        SchemeRow::traffic,
    );
    print_coverage_accuracy_table(&rows);
}

fn print_coverage_accuracy_table(rows: &[SchemeRow]) {
    println!("Figure 12: coverage / accuracy");
    println!(
        "{:<18} {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "workload", "rpg2 cov", "acc", "tri cov", "acc", "pro cov", "acc"
    );
    let mut acc = [0.0f64; 6];
    let mut n = 0.0;
    for r in rows {
        let vals = [
            r.rpg2.report.coverage(),
            r.rpg2.report.accuracy(),
            r.triangel.coverage(),
            r.triangel.accuracy(),
            r.prophet.coverage(),
            r.prophet.accuracy(),
        ];
        println!(
            "{:<18} {:>9.3} {:>9.3} | {:>9.3} {:>9.3} | {:>9.3} {:>9.3}",
            r.workload, vals[0], vals[1], vals[2], vals[3], vals[4], vals[5]
        );
        for (a, v) in acc.iter_mut().zip(vals) {
            *a += v;
        }
        n += 1.0;
    }
    println!(
        "{:<18} {:>9.3} {:>9.3} | {:>9.3} {:>9.3} | {:>9.3} {:>9.3}   (paper: Prophet coverage ≈0.43 vs Triangel ≈0.28, comparable accuracy)",
        "mean",
        acc[0] / n, acc[1] / n, acc[2] / n, acc[3] / n, acc[4] / n, acc[5] / n
    );
}
