//! Section 2.1 motivation, measured: DRAM-resident metadata (STMS/Domino
//! lineage) vs the on-chip Triage table. The off-chip scheme has unbounded
//! capacity but pays a DRAM access per metadata row touched — traffic the
//! on-chip schemes exist to eliminate.

use prophet_bench::{Harness, Scheme, Start};
use prophet_sim_core::simulate;
use prophet_temporal::OffChipTemporal;
use prophet_workloads::{workload, SPEC_WORKLOADS};

fn main() {
    prophet_bench::expect_no_args("motivation_offchip");
    let h = Harness::default();
    println!("Section 2.1 motivation: off-chip vs on-chip metadata");
    println!(
        "{:<18} {:>10} {:>12} | {:>10} {:>12} | {:>10} {:>12}",
        "workload", "base ipc", "dram r+w", "offchip", "dram r+w", "triage4", "dram r+w"
    );
    for name in SPEC_WORKLOADS {
        let w = workload(name);
        let base = h
            .run(Scheme::Baseline, w.as_ref(), Start::Cold)
            .into_report();
        let off = simulate(
            &h.sys,
            w.as_ref(),
            Box::new(prophet_prefetch::StridePrefetcher::default()),
            Box::new(OffChipTemporal::default()),
            h.warmup,
            h.measure,
        );
        let tri = h
            .run(Scheme::Triage4, w.as_ref(), Start::Cold)
            .into_report();
        println!(
            "{:<18} {:>10.4} {:>12} | {:>10.4} {:>12} | {:>10.4} {:>12}",
            name,
            base.ipc,
            base.dram_traffic(),
            off.ipc,
            off.dram_traffic(),
            tri.ipc,
            tri.dram_traffic(),
        );
    }
    println!("\nexpected: the off-chip scheme multiplies DRAM traffic (a metadata row per miss), eroding its coverage gains — the paper's motivation for on-chip tables");
}
