//! The studies that vary one setting around the default Prophet run on the
//! 7 SPEC-like mixes, from one set of simulations per mix:
//!
//! * Figure 16: sensitivity to EL_ACC (a), n (b) and MVB candidates (c);
//! * Figure 19: Prophet feature breakdown — cumulative ablation from
//!   "Triage4 + Triangel metadata" through +Repla, +Insert, +MVB, +Resize
//!   (speedup and normalized DRAM traffic);
//! * Section 5.11: memory-hierarchy energy overhead of Prophet vs Triangel;
//! * Section 2.1 motivation, measured: DRAM-resident metadata (STMS/Domino
//!   lineage) vs the on-chip Triage table. The off-chip scheme has
//!   unbounded capacity but pays a DRAM access per metadata row touched —
//!   traffic the on-chip schemes exist to eliminate.
//!
//! Per mix it simulates the baseline, the profiling pass, Triage4, Triangel
//! and the off-chip scheme once, then one optimized pass per distinct
//! configuration the tables name, all from the one profile: the default,
//! EL_ACC 0.05 and 0.25, n = 1 and 3, cand = 2 and 4, and +Repla, +Insert
//! and +MVB — 15 simulations per mix. The default optimized pass is Figure
//! 16's three default columns, Figure 19's +Resize and the energy table's
//! Prophet.

use prophet::{analyze, AnalysisConfig, ProfileCounters, ProphetConfig, ProphetFeatures};
use prophet_bench::{parallel_tasks, Harness, Scheme};
use prophet_energy::{energy_of, EnergyModel};
use prophet_prefetch::StridePrefetcher;
use prophet_sim_core::{geomean, simulate, SimReport};
use prophet_temporal::OffChipTemporal;
use prophet_workloads::{workload, SPEC_WORKLOADS};

/// The configuration of one optimized pass.
type Config = (AnalysisConfig, ProphetConfig);

/// The pass a table column reads: the optimized pass under a config, or
/// `None` for the runtime-only Triage4 pass.
type Pass = Option<Config>;

/// Every report the tables read for one SPEC mix.
struct Mix {
    name: &'static str,
    base: SimReport,
    triage4: SimReport,
    triangel: SimReport,
    offchip: SimReport,
    /// One optimized pass per distinct [`Config`].
    optimized: Vec<(Config, SimReport)>,
}

/// The passes of a mix that need no profile, in task order: the profiling
/// pass itself, the baseline, Triage4, Triangel and the off-chip scheme.
const RUNTIME_PASSES: usize = 5;

impl Mix {
    /// Simulates every mix. Every pass fans across all cores in two rounds:
    /// first each mix's [`RUNTIME_PASSES`], then its optimized passes, one
    /// per config, from that mix's profile.
    fn simulate_all(h: &Harness, configs: &[Config]) -> Vec<Mix> {
        let names = SPEC_WORKLOADS;
        let runtime = parallel_tasks(names.len() * RUNTIME_PASSES, 0, |i| {
            let w = workload(names[i / RUNTIME_PASSES]);
            let run = |scheme| h.run(scheme, w.as_ref()).into_report();
            match i % RUNTIME_PASSES {
                0 => h.profile(w.as_ref()),
                1 => run(Scheme::Baseline),
                2 => run(Scheme::Triage4),
                3 => run(Scheme::Triangel),
                _ => simulate(
                    &h.sys,
                    w.as_ref(),
                    Box::new(StridePrefetcher::default()),
                    Box::new(OffChipTemporal::default()),
                    h.warmup,
                    h.measure,
                ),
            }
        });
        let counters: Vec<ProfileCounters> = runtime
            .chunks(RUNTIME_PASSES)
            .map(|passes| ProfileCounters::from_report(&passes[0]))
            .collect();
        let optimized = parallel_tasks(names.len() * configs.len(), 0, |i| {
            let (m, (a, c)) = (i / configs.len(), &configs[i % configs.len()]);
            h.optimized(workload(names[m]).as_ref(), &analyze(&counters[m], a), c)
        });
        let mut optimized = optimized.into_iter();
        let mut runtime = runtime.into_iter();
        names
            .iter()
            .map(|&name| {
                let mut next = || runtime.next().expect("every runtime pass ran");
                next(); // the profiling pass, read into `counters`
                Mix {
                    name,
                    base: next(),
                    triage4: next(),
                    triangel: next(),
                    offchip: next(),
                    optimized: configs.iter().cloned().zip(optimized.by_ref()).collect(),
                }
            })
            .collect()
    }

    fn report(&self, pass: &Pass) -> &SimReport {
        let Some(config) = pass else {
            return &self.triage4;
        };
        let (_, r) = self
            .optimized
            .iter()
            .find(|(c, _)| c == config)
            .expect("every table's config is simulated");
        r
    }
}

/// A labelled table column.
type Column = (String, Pass);

/// Figure 16's three panels, each a title and its columns.
fn fig16_panels() -> [(&'static str, Vec<Column>); 3] {
    let column = |label: String, a: AnalysisConfig, p: ProphetConfig| (label, Some((a, p)));
    let (a, p) = Config::default();
    [
        (
            "Figure 16a: EL_ACC in the Prophet insertion policy (paper picks 0.15)",
            [0.05, 0.15, 0.25]
                .map(|el_acc| {
                    column(
                        format!("EL_ACC={el_acc}"),
                        AnalysisConfig { el_acc, ..a },
                        p.clone(),
                    )
                })
                .into(),
        ),
        (
            "Figure 16b: n in the Prophet replacement policy (paper picks n=2)",
            [1, 2, 3]
                .map(|priority_bits| {
                    column(
                        format!("n={priority_bits}"),
                        AnalysisConfig { priority_bits, ..a },
                        p.clone(),
                    )
                })
                .into(),
        ),
        (
            "Figure 16c: candidates per MVB entry (paper picks 1)",
            [1, 2, 4]
                .map(|mvb_candidates| {
                    let p = ProphetConfig {
                        mvb_candidates,
                        ..p.clone()
                    };
                    column(format!("cand={mvb_candidates}"), a, p)
                })
                .into(),
        ),
    ]
}

/// Figure 19's cumulative stages, from the runtime-only Triage4 column to
/// the default analyzed profile with more and more features switched on.
fn fig19_stages() -> Vec<Column> {
    let stage = |label: &str, replacement, insertion, mvb, resizing| {
        let features = ProphetFeatures {
            replacement,
            insertion,
            mvb,
            resizing,
        };
        let p = ProphetConfig {
            features,
            ..ProphetConfig::default()
        };
        (label.to_string(), Some((AnalysisConfig::default(), p)))
    };
    vec![
        ("Triage4+Meta".to_string(), None),
        stage("+Repla", true, false, false, false),
        stage("+Insert", true, true, false, false),
        stage("+MVB", true, true, true, false),
        stage("+Resize", true, true, true, true),
    ]
}

fn main() {
    prophet_bench::RunArgs::parse_or_exit("spec_studies", &[]);
    let h = Harness::default();
    let panels = fig16_panels();
    let stages = fig19_stages();
    let default: Pass = Some(Config::default());

    let columns = panels.iter().flat_map(|(_, cols)| cols).chain(&stages);
    let mut configs: Vec<Config> = Vec::new();
    for config in columns
        .filter_map(|(_, pass)| pass.as_ref())
        .chain(&default)
    {
        if !configs.contains(config) {
            configs.push(config.clone());
        }
    }
    let mixes = Mix::simulate_all(&h, &configs);

    let speedup = SimReport::speedup_over;
    for (title, cols) in &panels {
        print_table(&format!("\n{title}"), &mixes, cols, 12, speedup);
    }
    let title = "Figure 19a: speedup breakdown (cumulative features)";
    print_table(title, &mixes, &stages, 13, speedup);
    let title = "\nFigure 19b: normalized DRAM traffic (same stages)";
    print_table(title, &mixes, &stages, 13, SimReport::traffic_ratio_over);
    print_energy(&mixes, &default);
    print_offchip(&mixes);
}

/// Prints `title`, then one row per mix and a geomean row of `metric`
/// (a pass's report against the mix's baseline) in `width`-wide columns.
fn print_table(
    title: &str,
    mixes: &[Mix],
    cols: &[Column],
    width: usize,
    metric: fn(&SimReport, &SimReport) -> f64,
) {
    let values: Vec<Vec<f64>> = cols
        .iter()
        .map(|(_, pass)| {
            mixes
                .iter()
                .map(|m| metric(m.report(pass), &m.base))
                .collect()
        })
        .collect();
    println!("{title}");
    print!("{:<18}", "workload");
    for (label, _) in cols {
        print!(" {label:>width$}");
    }
    println!();
    for (i, m) in mixes.iter().enumerate() {
        print!("{:<18}", m.name);
        for col in &values {
            print!(" {:>width$.3}", col[i]);
        }
        println!();
    }
    print!("{:<18}", "geomean");
    for col in &values {
        print!(" {:>width$.3}", geomean(col));
    }
    println!();
}

fn print_energy(mixes: &[Mix], default: &Pass) {
    let model = EnergyModel::isca25();
    println!("Section 5.11: memory-hierarchy energy (CACTI-like, DRAM = 25x LLC)");
    println!(
        "{:<18} {:>14} {:>14} {:>10}",
        "workload", "triangel (mJ)", "prophet (mJ)", "overhead"
    );
    let mut tri_total = 0.0;
    let mut pro_total = 0.0;
    for m in mixes {
        let pro = m.report(default);
        // Side-structure accesses: hint-buffer lookup per L2 event + MVB
        // lookup per prefetcher access.
        let side = pro.l2.demand_accesses() + pro.issued_prefetches;
        let e_tri = energy_of(&m.triangel, &model, 0);
        let e_pro = energy_of(pro, &model, side);
        tri_total += e_tri.total_nj();
        pro_total += e_pro.total_nj();
        println!(
            "{:<18} {:>14.3} {:>14.3} {:>9.2}%",
            m.name,
            e_tri.total_nj() / 1e6,
            e_pro.total_nj() / 1e6,
            100.0 * (e_pro.total_nj() / e_tri.total_nj() - 1.0)
        );
    }
    println!(
        "{:<18} {:>14.3} {:>14.3} {:>9.2}%   (paper: ~1.6% overhead vs Triangel)",
        "total",
        tri_total / 1e6,
        pro_total / 1e6,
        100.0 * (pro_total / tri_total - 1.0)
    );
}

fn print_offchip(mixes: &[Mix]) {
    println!("Section 2.1 motivation: off-chip vs on-chip metadata");
    println!(
        "{:<18} {:>10} {:>12} | {:>10} {:>12} | {:>10} {:>12}",
        "workload", "base ipc", "dram r+w", "offchip", "dram r+w", "triage4", "dram r+w"
    );
    for m in mixes {
        let (base, off, tri) = (&m.base, &m.offchip, &m.triage4);
        println!(
            "{:<18} {:>10.4} {:>12} | {:>10.4} {:>12} | {:>10.4} {:>12}",
            m.name,
            base.ipc,
            base.dram_traffic(),
            off.ipc,
            off.dram_traffic(),
            tri.ipc,
            tri.dram_traffic(),
        );
    }
    println!("\nexpected: the off-chip scheme multiplies DRAM traffic (a metadata row per miss), eroding its coverage gains — the paper's motivation for on-chip tables");
}
