//! Figure 16: sensitivity to EL_ACC (a), n (b), and MVB candidates (c).

use prophet::{AnalysisConfig, MvbConfig, ProphetConfig};
use prophet_bench::{Harness, Scheme, Start};
use prophet_sim_core::geomean;
use prophet_workloads::{workload, SPEC_WORKLOADS};

fn sweep(h: &Harness, title: &str, variants: &[(String, AnalysisConfig, ProphetConfig)]) {
    println!("\n{title}");
    print!("{:<18}", "workload");
    for (label, _, _) in variants {
        print!(" {label:>12}");
    }
    println!();
    let mut cols = vec![Vec::new(); variants.len()];
    for name in SPEC_WORKLOADS {
        let w = workload(name);
        let base = h
            .run(Scheme::Baseline, w.as_ref(), Start::Cold)
            .into_report();
        print!("{:<18}", name);
        for (i, (_, a, p)) in variants.iter().enumerate() {
            let r = h.prophet_with(w.as_ref(), *a, p.clone());
            let s = r.speedup_over(&base);
            cols[i].push(s);
            print!(" {s:>12.3}");
        }
        println!();
    }
    print!("{:<18}", "geomean");
    for col in &cols {
        print!(" {:>12.3}", geomean(col));
    }
    println!();
}

fn main() {
    prophet_bench::expect_no_args("fig16_sensitivity");
    let h = Harness::default();

    let v: Vec<_> = [0.05, 0.15, 0.25]
        .iter()
        .map(|&el| {
            (
                format!("EL_ACC={el}"),
                AnalysisConfig {
                    el_acc: el,
                    ..AnalysisConfig::default()
                },
                ProphetConfig::default(),
            )
        })
        .collect();
    sweep(
        &h,
        "Figure 16a: EL_ACC in the Prophet insertion policy (paper picks 0.15)",
        &v,
    );

    let v: Vec<_> = [1u8, 2, 3]
        .iter()
        .map(|&n| {
            (
                format!("n={n}"),
                AnalysisConfig {
                    priority_bits: n,
                    ..AnalysisConfig::default()
                },
                ProphetConfig::default(),
            )
        })
        .collect();
    sweep(
        &h,
        "Figure 16b: n in the Prophet replacement policy (paper picks n=2)",
        &v,
    );

    let v: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&c| {
            (
                format!("cand={c}"),
                AnalysisConfig::default(),
                ProphetConfig {
                    mvb: MvbConfig {
                        candidates: c,
                        ..MvbConfig::default()
                    },
                    ..ProphetConfig::default()
                },
            )
        })
        .collect();
    sweep(
        &h,
        "Figure 16c: candidates per MVB entry (paper picks 1)",
        &v,
    );
}
