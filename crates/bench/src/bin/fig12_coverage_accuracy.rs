//! Figure 12: prefetching coverage (a) and accuracy (b) per scheme.
//!
//! ```text
//! fig12_coverage_accuracy [--insts N] [--warmup N] [--jobs N] [--store DIR]
//! ```

use prophet_bench::{report_store_activity, Harness, RunArgs};
use prophet_sim_core::TraceSource;
use prophet_workloads::{workload_sized, SPEC_WORKLOADS};

fn main() {
    let args = RunArgs::parse_or_exit(
        std::env::args().skip(1),
        "usage: fig12_coverage_accuracy [--insts N] [--warmup N] [--jobs N] [--store DIR]",
        false,
    );
    let h = args.harness(Harness::default());
    println!("Figure 12: coverage / accuracy");
    println!(
        "{:<18} {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "workload", "rpg2 cov", "acc", "tri cov", "acc", "pro cov", "acc"
    );
    let workloads: Vec<Box<dyn TraceSource + Send + Sync>> = SPEC_WORKLOADS
        .iter()
        .map(|name| workload_sized(name, h.warmup + h.measure))
        .collect();
    let store = args.open_store();
    let rows = h.run_matrix_stored(&workloads, args.jobs, store.as_ref());
    let mut acc = [0.0f64; 6];
    let mut n = 0.0;
    for r in &rows {
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
    if let Some(store) = &store {
        report_store_activity(store);
    }
}
