//! Figure 11: DRAM traffic (reads + writes) normalized to the baseline.
//!
//! ```text
//! fig11_traffic [--insts N] [--warmup N] [--jobs N] [--store DIR]
//! ```

use prophet_bench::{report_store_activity, Harness, RunArgs};
use prophet_sim_core::{geomean, TraceSource};
use prophet_workloads::{workload_sized, SPEC_WORKLOADS};

fn main() {
    let args = RunArgs::parse_or_exit(
        std::env::args().skip(1),
        "usage: fig11_traffic [--insts N] [--warmup N] [--jobs N] [--store DIR]",
        false,
    );
    let h = args.harness(Harness::default());
    let workloads: Vec<Box<dyn TraceSource + Send + Sync>> = SPEC_WORKLOADS
        .iter()
        .map(|name| workload_sized(name, h.warmup + h.measure))
        .collect();
    let store = args.open_store();
    let rows = h.run_matrix_stored(&workloads, args.jobs, store.as_ref());
    println!(
        "Figure 11: normalized DRAM traffic (paper: RPG2 ~1.00, Triangel ~1.10, Prophet ~1.19)"
    );
    println!(
        "{:<18} {:>8} {:>10} {:>9}",
        "workload", "RPG2", "Triangel", "Prophet"
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for row in &rows {
        let (a, b, c) = row.traffic();
        cols[0].push(a);
        cols[1].push(b);
        cols[2].push(c);
        println!("{:<18} {:>8.3} {:>10.3} {:>9.3}", row.workload, a, b, c);
    }
    println!(
        "{:<18} {:>8.3} {:>10.3} {:>9.3}",
        "geomean",
        geomean(&cols[0]),
        geomean(&cols[1]),
        geomean(&cols[2])
    );
    if let Some(store) = &store {
        report_store_activity(store);
    }
}
