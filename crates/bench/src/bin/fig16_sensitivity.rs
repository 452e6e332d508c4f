//! Figure 16: sensitivity to EL_ACC (a), n (b), and MVB candidates (c).

use prophet::{analyze, AnalysisConfig, MvbConfig, ProfileCounters, ProphetConfig};
use prophet_bench::{Harness, Scheme, Start};
use prophet_sim_core::{geomean, SimReport, TraceSource};
use prophet_workloads::{workload, SPEC_WORKLOADS};

/// One SPEC workload with its baseline report and profiled counters. Neither
/// pass depends on the swept configs, so every sweep reuses them.
struct Profiled {
    name: &'static str,
    w: Box<dyn TraceSource + Send + Sync>,
    base: SimReport,
    counters: ProfileCounters,
}

fn sweep(
    h: &Harness,
    profiled: &[Profiled],
    title: &str,
    variants: &[(String, AnalysisConfig, ProphetConfig)],
) {
    println!("\n{title}");
    print!("{:<18}", "workload");
    for (label, _, _) in variants {
        print!(" {label:>12}");
    }
    println!();
    let mut cols = vec![Vec::new(); variants.len()];
    for p in profiled {
        print!("{:<18}", p.name);
        for (i, (_, a, c)) in variants.iter().enumerate() {
            let r = h.optimized(p.w.as_ref(), &analyze(&p.counters, a), c);
            let s = r.speedup_over(&p.base);
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
    let profiled: Vec<Profiled> = SPEC_WORKLOADS
        .iter()
        .map(|&name| {
            let w = workload(name);
            let base = h
                .run(Scheme::Baseline, w.as_ref(), Start::Cold)
                .into_report();
            let counters = ProfileCounters::from_report(&h.profile(w.as_ref()));
            Profiled {
                name,
                w,
                base,
                counters,
            }
        })
        .collect();

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
        &profiled,
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
        &profiled,
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
        &profiled,
        "Figure 16c: candidates per MVB entry (paper picks 1)",
        &v,
    );
}
