//! Figure 10: IPC speedup of RPG2 / Triangel / Prophet over the baseline
//! without a temporal prefetcher, on the SPEC-like workloads.
//!
//! ```text
//! fig10_speedup [--insts N] [--warmup N] [--jobs N] [--store DIR]
//! ```

use prophet_bench::{print_speedup_table, report_store_activity, Harness, RunArgs, SchemeRow};
use prophet_sim_core::TraceSource;
use prophet_workloads::{workload_sized, SPEC_WORKLOADS};

fn main() {
    let args = RunArgs::parse_or_exit(
        std::env::args().skip(1),
        "usage: fig10_speedup [--insts N] [--warmup N] [--jobs N] [--store DIR]",
        false,
    );
    let h = args.harness(Harness::default());
    let workloads: Vec<Box<dyn TraceSource + Send + Sync>> = SPEC_WORKLOADS
        .iter()
        .map(|name| workload_sized(name, h.warmup + h.measure))
        .collect();
    let store = args.open_store();
    let rows: Vec<SchemeRow> = h.run_matrix_stored(&workloads, args.jobs, store.as_ref());
    print_speedup_table(
        "Figure 10: IPC speedup (paper geomeans: RPG2 1.001, Triangel 1.204, Prophet 1.346)",
        &rows,
    );
    if let Some(store) = &store {
        report_store_activity(store);
    }
}
