//! Input-adaptive learning (the Figure 13 mechanism in miniature):
//! one optimized binary converges across gcc's input families.
//!
//! Run with: `cargo run --release --example learning_inputs`

use prophet::{AnalysisConfig, LearnedProfile, ProfileCounters, ProphetConfig};
use prophet_bench::{Harness, Scheme, Start};
use prophet_workloads::workload;

fn main() {
    let h = Harness::default();
    let inputs = ["gcc_166", "gcc_expr", "gcc_typeck"];

    let baselines: Vec<_> = inputs
        .iter()
        .map(|n| {
            h.run(Scheme::Baseline, workload(n).as_ref(), Start::Cold)
                .into_report()
        })
        .collect();

    // One optimized binary's learned state, carried across inputs.
    let mut learned = LearnedProfile::new();
    for learn in inputs {
        learned.learn(ProfileCounters::from_report(
            &h.profile(workload(learn).as_ref()),
        ));
        let hints = learned.build_hints(&AnalysisConfig::default());
        print!("after learning {learn:<12}:");
        for (name, base) in inputs.iter().zip(&baselines) {
            let r = h.optimized(workload(name).as_ref(), &hints, &ProphetConfig::default());
            print!("  {name} {:.3}", r.speedup_over(base));
        }
        println!();
    }
    println!("\nEach newly learned input lifts its own family without hurting the others (Eq. 4 merging).");
}
