//! Figure 18: speedups with additional DRAM channels.
//!
//! ```text
//! fig18_bandwidth [--insts N] [--warmup N] [--jobs N] [--store DIR]
//! ```
//!
//! Checkpoints are keyed by the `SystemConfig` digest, so the 2-channel
//! warm-ups never collide with the 1-channel figures in a shared store.

use prophet_bench::{print_speedup_table, report_store_activity, Harness, RunArgs, SchemeRow};
use prophet_sim_core::TraceSource;
use prophet_sim_mem::SystemConfig;
use prophet_workloads::{workload_sized, SPEC_WORKLOADS};

fn main() {
    let args = RunArgs::parse_or_exit(
        std::env::args().skip(1),
        "usage: fig18_bandwidth [--insts N] [--warmup N] [--jobs N] [--store DIR]",
        false,
    );
    let h = args.harness(Harness {
        sys: SystemConfig::isca25().with_dram_channels(2),
        ..Harness::default()
    });
    let workloads: Vec<Box<dyn TraceSource + Send + Sync>> = SPEC_WORKLOADS
        .iter()
        .map(|name| workload_sized(name, h.warmup + h.measure))
        .collect();
    let store = args.open_store();
    let rows: Vec<SchemeRow> = h.run_matrix_stored(&workloads, args.jobs, store.as_ref());
    print_speedup_table(
        "Figure 18: 2 DRAM channels (paper: RPG2 +0.1%, Triangel +18.2%, Prophet +32.3%)",
        &rows,
    );
    if let Some(store) = &store {
        report_store_activity(store);
    }
}
