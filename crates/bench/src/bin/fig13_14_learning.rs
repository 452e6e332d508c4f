//! Figures 13 and 14: Prophet iteratively learns counters across a
//! program's inputs, on gcc (Figure 13) and, generalized, on astar and
//! soplex (Figure 14).
//!
//! Bars per input family: "Disable" (Triage4 + Triangel metadata — no
//! profile at all), then cumulative learning over the family's learning
//! stages (gcc_166 → gcc_expr → gcc_typeck → gcc_expr2 for gcc), and
//! "Direct" (each input profiled individually — the learning goal). Each
//! input is profiled once; the stage columns and "Direct" reuse its
//! counters.

use prophet::{AnalysisConfig, HintSet, LearnedProfile, ProfileCounters, ProphetConfig};
use prophet_bench::{Harness, Scheme, Start};
use prophet_sim_core::geomean;
use prophet_workloads::{workload, GCC_INPUTS};

/// Runs the learning experiment over `inputs` and prints its table: one
/// row per input (its name without `trim`, in a `width`-wide column), one
/// column per bar. `stages` are the inputs learned in order, each with its
/// column label.
fn learning(h: &Harness, inputs: &[&str], stages: &[(&str, &str)], width: usize, trim: &str) {
    let run = |name: &str, scheme| {
        h.run(scheme, workload(name).as_ref(), Start::Cold)
            .into_report()
    };
    let base: Vec<_> = inputs.iter().map(|n| run(n, Scheme::Baseline)).collect();
    let mut profiled: Vec<(&str, ProfileCounters)> = Vec::new();
    for &name in inputs.iter().chain(stages.iter().map(|(n, _)| n)) {
        if profiled.iter().all(|(p, _)| *p != name) {
            let report = h.profile(workload(name).as_ref());
            profiled.push((name, ProfileCounters::from_report(&report)));
        }
    }
    let counters = |name: &str| {
        let (_, c) = profiled.iter().find(|(p, _)| *p == name).expect("profiled");
        c.clone()
    };
    let speedups = |hints: &dyn Fn(&str) -> HintSet| -> Vec<f64> {
        inputs
            .iter()
            .zip(&base)
            .map(|(n, b)| {
                h.optimized(workload(n).as_ref(), &hints(n), &ProphetConfig::default())
                    .speedup_over(b)
            })
            .collect()
    };

    let mut columns: Vec<(String, Vec<f64>)> = vec![(
        "Disable".into(),
        inputs
            .iter()
            .zip(&base)
            .map(|(n, b)| run(n, Scheme::Triage4).speedup_over(b))
            .collect(),
    )];
    let mut learned = LearnedProfile::new();
    for (input, label) in stages {
        learned.learn(counters(input));
        let hints = learned.build_hints(&AnalysisConfig::default());
        columns.push((format!("+{label}"), speedups(&|_| hints.clone())));
    }
    let direct = |n: &str| {
        let mut alone = LearnedProfile::new();
        alone.learn(counters(n));
        alone.build_hints(&AnalysisConfig::default())
    };
    columns.push(("Direct".into(), speedups(&direct)));

    print!("{:<width$}", "input");
    for (label, _) in &columns {
        print!(" {label:>9}");
    }
    println!();
    for (i, name) in inputs.iter().enumerate() {
        print!("{:<width$}", name.trim_start_matches(trim));
        for (_, col) in &columns {
            print!(" {:>9.3}", col[i]);
        }
        println!();
    }
    print!("{:<width$}", "geomean");
    for (_, col) in &columns {
        print!(" {:>9.3}", geomean(col));
    }
    println!();
}

fn main() {
    prophet_bench::expect_no_args("fig13_14_learning");
    let h = Harness::default();

    println!("Figure 13: Prophet learning across gcc inputs (speedup over no-TP baseline)");
    let gcc_stages = [
        ("gcc_166", "166"),
        ("gcc_expr", "expr"),
        ("gcc_typeck", "typeck"),
        ("gcc_expr2", "expr2"),
    ];
    learning(&h, &GCC_INPUTS, &gcc_stages, 14, "gcc_");
    println!("\nexpected shape: each +input column approaches Direct; 4 rounds ≈ optimal for all 9 inputs");

    println!("\nFigure 14a: astar");
    let astar = [("astar_biglakes", "lake"), ("astar_rivers", "river")];
    learning(&h, &astar.map(|(n, _)| n), &astar, 16, "");
    println!("\nFigure 14b: soplex");
    let soplex = [("soplex_pds-50", "pds"), ("soplex_ref", "ref")];
    learning(&h, &soplex.map(|(n, _)| n), &soplex, 16, "");
}
