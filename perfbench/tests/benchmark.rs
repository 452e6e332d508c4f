//! The benchmark's own checks: its statistics, its seeding, its metric
//! catalogue against `BENCHMARK.json`, and a tiny-window run of every
//! workload in both modes.

use perfbench::grid::Grid;
use perfbench::output::{END_TO_END, PER_LAYER};
use perfbench::run::{run, Config};
use perfbench::seed::{crono_sources, spec_sources};
use perfbench::stats::{median, percentile, quartiles, MIN_SAMPLES_BEYOND};
use prophet_sim_core::{TraceInst, TraceSource};
use prophet_workloads::{workload_sized, CRONO_WORKLOADS, SPEC_WORKLOADS};
use std::path::PathBuf;

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 2.5, 3.75));
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
    assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 7.0, 10.0));
    // statistics.quantiles([3.1, 0.5, 7.25, 2.0, 9.5, 4.0, 1.5], n=4)
    // == [1.5, 3.1, 7.25]
    assert_eq!(
        quartiles(&[3.1, 0.5, 7.25, 2.0, 9.5, 4.0, 1.5]),
        (1.5, 3.1, 7.25)
    );
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let sorted = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    // p99 of 1000 samples is the 990th; exactly ten lie beyond it.
    assert_eq!(percentile(&sorted(1000), 0.99), Some(990.0));
    assert_eq!(percentile(&sorted(999), 0.99), None);
    assert_eq!(percentile(&sorted(20), 0.5), Some(10.0));
    assert_eq!(percentile(&sorted(10), 0.5), None);
    assert_eq!(percentile(&[], 0.5), None);
    for n in [11, 100, 1000, 5000] {
        let xs = sorted(n);
        for p in [0.5, 0.9, 0.99] {
            if let Some(v) = percentile(&xs, p) {
                let beyond = xs.iter().filter(|&&x| x > v).count();
                assert!(beyond >= MIN_SAMPLES_BEYOND, "n={n} p={p}");
            }
        }
    }
}

fn head(w: &dyn TraceSource, n: usize) -> Vec<TraceInst> {
    w.stream().take(n).collect()
}

#[test]
fn seed_zero_keeps_the_registry_and_other_seeds_change_the_traces() {
    let len = 850_000;
    let zero = spec_sources(0, len);
    let one = spec_sources(1, len);
    let two = spec_sources(2, len);
    for (i, name) in SPEC_WORKLOADS.iter().enumerate() {
        let registry = head(&workload_sized(name, len), 5_000);
        assert_eq!(
            head(&zero[i], 5_000),
            registry,
            "{name}: seed 0 is the registry"
        );
        assert_ne!(
            head(&one[i], 5_000),
            registry,
            "{name}: seed 1 changes the trace"
        );
        assert_ne!(
            head(&one[i], 5_000),
            head(&two[i], 5_000),
            "{name}: seeds differ"
        );
    }
    let len = 2_100_000;
    let (zero, one) = (crono_sources(0, len), crono_sources(1, len));
    for (i, name) in CRONO_WORKLOADS.iter().enumerate() {
        let registry = head(&workload_sized(name, len), 20_000);
        assert_eq!(
            head(&zero[i], 20_000),
            registry,
            "{name}: seed 0 is the registry"
        );
        assert_ne!(
            head(&one[i], 20_000),
            registry,
            "{name}: seed 1 changes the trace"
        );
    }
}

#[test]
fn metric_catalogue_matches_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let entries = text.matches("\"better\"").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len(),
        "one entry per metric"
    );
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let unit = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        let better = format!("\"better\": \"{}\"", d.better);
        let line = text
            .lines()
            .find(|l| l.contains(&unit))
            .unwrap_or_else(|| panic!("{} ({}) missing from BENCHMARK.json", d.name, d.unit));
        assert!(line.contains(&better), "{}: direction differs", d.name);
    }
}

fn smoke(grid: Grid, trace: bool) {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        grid.name(),
        trace as u8
    ));
    let cfg = Config {
        grid,
        seed: 3,
        seconds: 0.0,
        trace,
        work: work.clone(),
        jobs: 2,
        window: Some((3_000, 6_000)),
    };
    let mut out = run(&cfg);
    let defs = if trace { PER_LAYER } else { END_TO_END };
    out.finish(defs);
    assert!(out.correct(), "{}: {:?}", grid.name(), out.failures);
    assert!(out.attempted > 0);
    assert!(!work.exists(), "the run removes its work directory");
    for name in ["setup_s", "wall_s", "prophet_speedup"] {
        if !trace {
            assert!(out.values[name] > 0.0, "{}: {name} is zero", grid.name());
        }
    }
    let line = out.json(defs);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    for d in defs {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", d.name)));
    }
}

#[test]
fn smoke_spec_fig10() {
    smoke(Grid::Spec, false);
    smoke(Grid::Spec, true);
}

#[test]
fn smoke_crono_fig15_store() {
    smoke(Grid::Crono, false);
    smoke(Grid::Crono, true);
}
