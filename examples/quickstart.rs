//! Quickstart: profile a workload, build hints, run Prophet, compare with
//! the no-temporal-prefetcher baseline and Triangel.
//!
//! Run with: `cargo run --release --example quickstart`

use prophet::{AnalysisConfig, LearnedProfile, ProfileCounters, ProphetConfig};
use prophet_bench::{Harness, Scheme, Start};
use prophet_workloads::workload;

fn main() {
    // The paper's machine, 200 K warm-up + 650 K measured instructions.
    let h = Harness::default();
    println!("{}", h.sys.table1());

    let w = workload("omnetpp");

    // Baseline: L1 stride prefetcher only.
    let base = h
        .run(Scheme::Baseline, w.as_ref(), Start::Cold)
        .into_report();
    println!("baseline:\n{base}");

    // The hardware state of the art.
    let tri = h
        .run(Scheme::Triangel, w.as_ref(), Start::Cold)
        .into_report();
    println!("triangel: speedup {:.3}\n{tri}", tri.speedup_over(&base));

    // Prophet: Step 1 (profile) -> Step 2 (analyze) -> optimized run.
    let mut learned = LearnedProfile::new();
    learned.learn(ProfileCounters::from_report(&h.profile(w.as_ref())));
    let hints = learned.build_hints(&AnalysisConfig::default());
    println!(
        "prophet hints: {} PC hints, CSR = {:?}",
        hints.pc_hints.len(),
        hints.csr
    );
    let pro = h.optimized(w.as_ref(), &hints, &ProphetConfig::default());
    println!("prophet: speedup {:.3}\n{pro}", pro.speedup_over(&base));
}
