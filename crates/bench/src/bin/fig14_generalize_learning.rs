//! Figure 14: the learning feature generalizes to astar and soplex.

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
    let mut pl = h.prophet_pipeline();
    for (input, label) in inputs.iter().zip(labels) {
        pl.learn_input(workload(input).as_ref());
        columns.push((
            format!("+{label}"),
            inputs
                .iter()
                .zip(&base)
                .map(|(n, b)| pl.run_optimized(workload(n).as_ref()).speedup_over(b))
                .collect(),
        ));
    }
    columns.push((
        "Direct".into(),
        inputs
            .iter()
            .zip(&base)
            .map(|(n, b)| {
                let mut p = h.prophet_pipeline();
                p.learn_input(workload(n).as_ref());
                p.run_optimized(workload(n).as_ref()).speedup_over(b)
            })
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
