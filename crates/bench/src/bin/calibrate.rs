//! Quick calibration sweep: the Figure 10 shape on all SPEC-like workloads.

use prophet_bench::{print_speedup_table, Harness};
use prophet_workloads::{workload, SPEC_WORKLOADS};

fn main() {
    let h = Harness::default();
    let names: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if names.is_empty() {
        SPEC_WORKLOADS.to_vec()
    } else {
        names.iter().map(|s| s.as_str()).collect()
    };
    let workloads: Vec<_> = names.iter().map(|name| workload(name)).collect();
    let rows = h.run_matrix(&workloads, 0);
    for (name, row) in names.iter().zip(&rows) {
        eprintln!(
            "{name}: base ipc {:.4} | rpg2 {:.4} | triangel {:.4} (cov {:.2} acc {:.2} ways {}) | prophet {:.4} (cov {:.2} acc {:.2} ways {})",
            row.base.ipc,
            row.rpg2.report.ipc,
            row.triangel.ipc,
            row.triangel.coverage(),
            row.triangel.accuracy(),
            row.triangel.meta_ways,
            row.prophet.ipc,
            row.prophet.coverage(),
            row.prophet.accuracy(),
            row.prophet.meta_ways,
        );
    }
    print_speedup_table("Calibration (Figure 10 shape)", &rows);
}
