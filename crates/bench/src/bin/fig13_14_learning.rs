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
use prophet_bench::{parallel_tasks, Harness, Scheme};
use prophet_sim_core::geomean;
use prophet_workloads::{workload, GCC_INPUTS};

/// Runs the learning experiment over `inputs` and prints its table: one
/// row per input (its name without `trim`, in a `width`-wide column), one
/// column per bar. `stages` are the inputs learned in order, each with its
/// column label.
fn learning(h: &Harness, inputs: &[&str], stages: &[(&str, &str)], width: usize, trim: &str) {
    let n = inputs.len();
    let mut profiled: Vec<&str> = inputs.to_vec();
    for (name, _) in stages {
        if !profiled.contains(name) {
            profiled.push(name);
        }
    }
    // Every pass fans across all cores in two rounds: first each input's
    // baseline and each profiling pass, then each column's passes.
    let reports = parallel_tasks(n + profiled.len(), 0, |i| match inputs.get(i) {
        Some(name) => h
            .run(Scheme::Baseline, workload(name).as_ref())
            .into_report(),
        None => h.profile(workload(profiled[i - n]).as_ref()),
    });
    let (base, profiles) = reports.split_at(n);
    let counters = |name: &str| {
        let i = profiled.iter().position(|p| *p == name).expect("profiled");
        ProfileCounters::from_report(&profiles[i])
    };

    // Per column, the hints each input runs under; `None` runs Triage4.
    let mut passes: Vec<(String, Vec<Option<HintSet>>)> = vec![("Disable".into(), vec![None; n])];
    let mut learned = LearnedProfile::new();
    for (input, label) in stages {
        learned.learn(counters(input));
        let hints = learned.build_hints(&AnalysisConfig::default());
        passes.push((format!("+{label}"), vec![Some(hints); n]));
    }
    let direct = inputs.iter().map(|name| {
        let mut alone = LearnedProfile::new();
        alone.learn(counters(name));
        Some(alone.build_hints(&AnalysisConfig::default()))
    });
    passes.push(("Direct".into(), direct.collect()));
    let speedups = parallel_tasks(passes.len() * n, 0, |i| {
        let (k, w) = (i % n, workload(inputs[i % n]));
        let report = match &passes[i / n].1[k] {
            None => h.run(Scheme::Triage4, w.as_ref()).into_report(),
            Some(hints) => h.optimized(w.as_ref(), hints, &ProphetConfig::default()),
        };
        report.speedup_over(&base[k])
    });
    let columns: Vec<(String, &[f64])> = passes
        .into_iter()
        .map(|(label, _)| label)
        .zip(speedups.chunks(n))
        .collect();

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
    prophet_bench::RunArgs::parse_or_exit("fig13_14_learning", &[]);
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
