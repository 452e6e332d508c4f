//! Section 5.11: memory-hierarchy energy overhead of Prophet vs Triangel.

use prophet_bench::{Harness, Scheme, Start};
use prophet_energy::{energy_of, EnergyModel};
use prophet_workloads::{workload, SPEC_WORKLOADS};

fn main() {
    prophet_bench::expect_no_args("tab_energy");
    let h = Harness::default();
    let model = EnergyModel::isca25();
    println!("Section 5.11: memory-hierarchy energy (CACTI-like, DRAM = 25x LLC)");
    println!(
        "{:<18} {:>14} {:>14} {:>10}",
        "workload", "triangel (mJ)", "prophet (mJ)", "overhead"
    );
    let mut tri_total = 0.0;
    let mut pro_total = 0.0;
    for name in SPEC_WORKLOADS {
        let w = workload(name);
        let tri = h
            .run(Scheme::Triangel, w.as_ref(), Start::Cold)
            .into_report();
        let pro = h
            .run(Scheme::Prophet, w.as_ref(), Start::Cold)
            .into_report();
        // Side-structure accesses: hint-buffer lookup per L2 event + MVB
        // lookup per prefetcher access.
        let side = pro.l2.demand_accesses() + pro.issued_prefetches;
        let e_tri = energy_of(&tri, &model, 0);
        let e_pro = energy_of(&pro, &model, side);
        tri_total += e_tri.total_nj();
        pro_total += e_pro.total_nj();
        println!(
            "{:<18} {:>14.3} {:>14.3} {:>9.2}%",
            name,
            e_tri.total_nj() / 1e6,
            e_pro.total_nj() / 1e6,
            100.0 * (e_pro.total_nj() / e_tri.total_nj() - 1.0)
        );
    }
    println!(
        "{:<18} {:>14.3} {:>14.3} {:>9.2}%   (paper: ~1.6% overhead vs Triangel)",
        "total",
        tri_total / 1e6,
        pro_total / 1e6,
        100.0 * (pro_total / tri_total - 1.0)
    );
}
