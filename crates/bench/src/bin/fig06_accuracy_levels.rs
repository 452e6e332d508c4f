//! Figure 6: per-memory-instruction temporal-prefetching accuracy in
//! omnetpp clusters into distinct levels (high / medium / low).

use prophet_bench::Harness;
use prophet_workloads::workload;

fn main() {
    prophet_bench::RunArgs::parse_or_exit("fig06_accuracy_levels", &[]);
    let h = Harness::default();
    let report = h.profile(workload("omnetpp").as_ref());
    println!("Figure 6: per-PC prefetching accuracy under the simplified TP (omnetpp)");
    println!(
        "{:<10} {:>10} {:>10} {:>9}  level",
        "pc", "issued", "useful", "accuracy"
    );
    let mut rows: Vec<_> = report
        .per_pc
        .iter()
        .filter(|(_, s)| s.issued_prefetches > 50)
        .collect();
    rows.sort_by(|a, b| {
        b.1.accuracy()
            .unwrap_or(0.0)
            .partial_cmp(&a.1.accuracy().unwrap_or(0.0))
            .unwrap()
    });
    for (pc, s) in rows {
        let acc = s.accuracy().unwrap_or(0.0);
        let level = if acc >= 0.75 {
            "HIGH"
        } else if acc >= 0.25 {
            "MEDIUM"
        } else {
            "LOW"
        };
        println!(
            "{:#08x} {:>10} {:>10} {:>9.3}  {level}",
            pc, s.issued_prefetches, s.useful_prefetches, acc
        );
    }
}
