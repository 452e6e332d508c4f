//! Figure 14: the learning feature generalizes to astar and soplex.

use prophet::{AnalysisConfig, HintSet, LearnedProfile, ProfileCounters, ProphetConfig};
use prophet_bench::{Harness, Scheme, Start};
use prophet_sim_core::geomean;
use prophet_workloads::workload;

fn family(h: &Harness, title: &str, inputs: &[&str], labels: &[&str]) {
    let base: Vec<_> = inputs
        .iter()
        .map(|n| {
            h.run(Scheme::Baseline, workload(n).as_ref(), Start::Cold)
                .into_report()
        })
        .collect();
    let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
    columns.push((
        "Disable".into(),
        inputs
            .iter()
            .zip(&base)
            .map(|(n, b)| {
                h.run(Scheme::Triage4, workload(n).as_ref(), Start::Cold)
                    .into_report()
                    .speedup_over(b)
            })
            .collect(),
    ));
    let learn = |learned: &mut LearnedProfile, name: &str| {
        learned.learn(ProfileCounters::from_report(
            &h.profile(workload(name).as_ref()),
        ));
        learned.build_hints(&AnalysisConfig::default())
    };
    let run = |name: &str, hints: &HintSet| {
        h.optimized(workload(name).as_ref(), hints, &ProphetConfig::default())
    };
    let mut learned = LearnedProfile::new();
    for (input, label) in inputs.iter().zip(labels) {
        let hints = learn(&mut learned, input);
        columns.push((
            format!("+{label}"),
            inputs
                .iter()
                .zip(&base)
                .map(|(n, b)| run(n, &hints).speedup_over(b))
                .collect(),
        ));
    }
    columns.push((
        "Direct".into(),
        inputs
            .iter()
            .zip(&base)
            .map(|(n, b)| run(n, &learn(&mut LearnedProfile::new(), n)).speedup_over(b))
            .collect(),
    ));
    println!("\n{title}");
    print!("{:<16}", "input");
    for (l, _) in &columns {
        print!(" {l:>9}");
    }
    println!();
    for (i, name) in inputs.iter().enumerate() {
        print!("{:<16}", name);
        for (_, col) in &columns {
            print!(" {:>9.3}", col[i]);
        }
        println!();
    }
    print!("{:<16}", "geomean");
    for (_, col) in &columns {
        print!(" {:>9.3}", geomean(col));
    }
    println!();
}

fn main() {
    prophet_bench::expect_no_args("fig14_generalize_learning");
    let h = Harness::default();
    family(
        &h,
        "Figure 14a: astar",
        &["astar_biglakes", "astar_rivers"],
        &["lake", "river"],
    );
    family(
        &h,
        "Figure 14b: soplex",
        &["soplex_pds-50", "soplex_ref"],
        &["pds", "ref"],
    );
}
