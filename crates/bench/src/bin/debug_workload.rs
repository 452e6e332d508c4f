//! Deep-dive instrumentation for one workload: per-PC profile, hints, and
//! per-PC prefetch outcomes under each scheme.

use prophet_bench::{Harness, Scheme, Start};
use prophet_workloads::workload;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mcf".into());
    let h = Harness::default();
    let w = workload(&name);

    let mut pl = h.prophet_pipeline();
    let profile_report = pl.learn_input(w.as_ref());
    println!("--- profiling run ({name}) ---");
    println!("{profile_report}");
    println!("meta: {:?}", profile_report.meta);
    println!("per-PC profile (issued, useful, acc, l2miss):");
    for (pc, s) in &profile_report.per_pc {
        println!(
            "  pc {:#06x}: issued {:>8} useful {:>8} acc {:>5.2} l2miss {:>8} l2acc {:>8}",
            pc,
            s.issued_prefetches,
            s.useful_prefetches,
            s.accuracy().unwrap_or(0.0),
            s.l2_misses,
            s.l2_accesses,
        );
    }
    let hints = pl.hints();
    println!("hints: csr={:?}", hints.csr);
    for (pc, hint) in &hints.pc_hints {
        println!(
            "  pc {pc:#06x}: insert={} prio={}",
            hint.insert, hint.priority
        );
    }

    let opt = pl.run_optimized(w.as_ref());
    println!("--- optimized run ---");
    println!("{opt}");
    println!("meta: {:?}", opt.meta);
    for (pc, s) in &opt.per_pc {
        println!(
            "  pc {:#06x}: issued {:>8} useful {:>8} acc {:>5.2} l2miss {:>8}",
            pc,
            s.issued_prefetches,
            s.useful_prefetches,
            s.accuracy().unwrap_or(0.0),
            s.l2_misses,
        );
    }

    let tri = h
        .run(Scheme::Triangel, w.as_ref(), Start::Cold)
        .into_report();
    println!("--- triangel ---\n{tri}");
    println!("meta: {:?}", tri.meta);
}
