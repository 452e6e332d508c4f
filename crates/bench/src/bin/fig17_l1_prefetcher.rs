//! Figure 17: speedups with IPCP as the L1 prefetcher (Neoverse-V2-like).
//!
//! ```text
//! fig17_l1_prefetcher [--insts N] [--warmup N] [--jobs N] [--store DIR]
//! ```
//!
//! Checkpoints are keyed by the L1 scheme (the warm-up stream differs under
//! IPCP), so a store shared with the stride-L1 figures never mixes them.

use prophet_bench::{print_speedup_table, Harness, L1Scheme, RunArgs};
use prophet_sim_core::TraceSource;
use prophet_workloads::{workload_sized, SPEC_WORKLOADS};

fn main() {
    let args = RunArgs::parse_or_exit(
        std::env::args().skip(1),
        "usage: fig17_l1_prefetcher [--insts N] [--warmup N] [--jobs N] [--store DIR]",
        false,
    );
    let h = args.harness(Harness {
        l1: L1Scheme::Ipcp,
        ..Harness::default()
    });
    let workloads: Vec<Box<dyn TraceSource + Send + Sync>> = SPEC_WORKLOADS
        .iter()
        .map(|name| workload_sized(name, h.warmup + h.measure))
        .collect();
    let rows = args.run_grid(&h, &workloads);
    print_speedup_table(
        "Figure 17: IPCP L1 prefetcher (paper: RPG2 +0.4%, Triangel +17.5%, Prophet +30.0%)",
        &rows,
    );
}
