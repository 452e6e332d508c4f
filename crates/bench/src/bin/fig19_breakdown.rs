//! Figure 19: Prophet feature breakdown — cumulative ablation from
//! "Triage4 + Triangel metadata" through +Repla, +Insert, +MVB, +Resize
//! (speedup and normalized DRAM traffic).

use prophet::{AnalysisConfig, ProphetConfig, ProphetFeatures};
use prophet_bench::{Harness, Scheme, Start};
use prophet_sim_core::geomean;
use prophet_workloads::{workload, SPEC_WORKLOADS};

fn main() {
    prophet_bench::expect_no_args("fig19_breakdown");
    let h = Harness::default();
    let stages: Vec<(&str, Option<ProphetFeatures>)> = vec![
        ("Triage4+Meta", None), // runtime only
        (
            "+Repla",
            Some(ProphetFeatures {
                replacement: true,
                insertion: false,
                mvb: false,
                resizing: false,
            }),
        ),
        (
            "+Insert",
            Some(ProphetFeatures {
                replacement: true,
                insertion: true,
                mvb: false,
                resizing: false,
            }),
        ),
        (
            "+MVB",
            Some(ProphetFeatures {
                replacement: true,
                insertion: true,
                mvb: true,
                resizing: false,
            }),
        ),
        (
            "+Resize",
            Some(ProphetFeatures {
                replacement: true,
                insertion: true,
                mvb: true,
                resizing: true,
            }),
        ),
    ];

    let mut speed_cols = vec![Vec::new(); stages.len()];
    let mut traffic_cols = vec![Vec::new(); stages.len()];
    println!("Figure 19a: speedup breakdown (cumulative features)");
    print!("{:<18}", "workload");
    for (label, _) in &stages {
        print!(" {label:>13}");
    }
    println!();
    for name in SPEC_WORKLOADS {
        let w = workload(name);
        let base = h
            .run(Scheme::Baseline, w.as_ref(), Start::Cold)
            .into_report();
        print!("{:<18}", name);
        for (i, (_, features)) in stages.iter().enumerate() {
            let r = match features {
                None => h
                    .run(Scheme::Triage4, w.as_ref(), Start::Cold)
                    .into_report(),
                Some(f) => h.prophet_with(
                    w.as_ref(),
                    AnalysisConfig::default(),
                    ProphetConfig {
                        features: *f,
                        ..ProphetConfig::default()
                    },
                ),
            };
            let s = r.speedup_over(&base);
            let t = r.traffic_ratio_over(&base);
            speed_cols[i].push(s);
            traffic_cols[i].push(t);
            print!(" {s:>13.3}");
        }
        println!();
    }
    print!("{:<18}", "geomean");
    for col in &speed_cols {
        print!(" {:>13.3}", geomean(col));
    }
    println!();

    println!("\nFigure 19b: normalized DRAM traffic (same stages)");
    print!("{:<18}", "workload");
    for (label, _) in &stages {
        print!(" {label:>13}");
    }
    println!();
    for (i, name) in SPEC_WORKLOADS.iter().enumerate() {
        print!("{:<18}", name);
        for col in &traffic_cols {
            print!(" {:>13.3}", col[i]);
        }
        println!();
    }
    print!("{:<18}", "geomean");
    for col in &traffic_cols {
        print!(" {:>13.3}", geomean(col));
    }
    println!();
}
