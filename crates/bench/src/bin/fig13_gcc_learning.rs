//! Figure 13: Prophet iteratively learns counters from gcc's inputs.
//!
//! Bars: "Disable" (Triage4 + Triangel metadata — no profile at all), then
//! cumulative learning of gcc_166 → gcc_expr → gcc_typeck → gcc_expr2, and
//! "Direct" (each input profiled individually — the learning goal).

use prophet_bench::{Harness, Scheme, Start};
use prophet_sim_core::geomean;
use prophet_workloads::{workload, GCC_INPUTS};

fn main() {
    prophet_bench::expect_no_args("fig13_gcc_learning");
    let h = Harness::default();
    let stages = ["gcc_166", "gcc_expr", "gcc_typeck", "gcc_expr2"];

    // Baselines and the "Disable" column (runtime prefetcher, no hints).
    let mut base = Vec::new();
    let mut disable = Vec::new();
    for name in GCC_INPUTS {
        let w = workload(name);
        base.push(
            h.run(Scheme::Baseline, w.as_ref(), Start::Cold)
                .into_report(),
        );
        disable.push(
            h.run(Scheme::Triage4, w.as_ref(), Start::Cold)
                .into_report(),
        );
    }

    // Cumulative learning.
    let mut pl = h.prophet_pipeline();
    let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
    columns.push((
        "Disable".into(),
        disable
            .iter()
            .zip(&base)
            .map(|(d, b)| d.speedup_over(b))
            .collect(),
    ));
    for stage in stages {
        pl.learn_input(workload(stage).as_ref());
        let col: Vec<f64> = GCC_INPUTS
            .iter()
            .zip(&base)
            .map(|(name, b)| pl.run_optimized(workload(name).as_ref()).speedup_over(b))
            .collect();
        columns.push((format!("+{}", stage.trim_start_matches("gcc_")), col));
    }
    // Direct: per-input individual profiling.
    let direct: Vec<f64> = GCC_INPUTS
        .iter()
        .zip(&base)
        .map(|(name, b)| {
            let w = workload(name);
            let mut p = h.prophet_pipeline();
            p.learn_input(w.as_ref());
            p.run_optimized(w.as_ref()).speedup_over(b)
        })
        .collect();
    columns.push(("Direct".into(), direct));

    println!("Figure 13: Prophet learning across gcc inputs (speedup over no-TP baseline)");
    print!("{:<14}", "input");
    for (label, _) in &columns {
        print!(" {label:>9}");
    }
    println!();
    for (i, name) in GCC_INPUTS.iter().enumerate() {
        print!("{:<14}", name.trim_start_matches("gcc_"));
        for (_, col) in &columns {
            print!(" {:>9.3}", col[i]);
        }
        println!();
    }
    print!("{:<14}", "geomean");
    for (_, col) in &columns {
        print!(" {:>9.3}", geomean(col));
    }
    println!();
    println!("\nexpected shape: each +input column approaches Direct; 4 rounds ≈ optimal for all 9 inputs");
}
