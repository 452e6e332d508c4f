//! Simulator-throughput benchmark: the `BENCH_<pr>.json` trajectory.
//!
//! ```text
//! bench_runner [--insts N] [--warmup N] [--window NAME] [--out FILE]
//!              [--check FILE] [--tolerance PCT] [--repeat N]
//!   --insts       measured instructions per cell (default 1 000 000 —
//!                 the fig15 window)
//!   --warmup      warm-up instructions (default 1 100 000)
//!   --window      window label recorded in the report (default: "default";
//!                 the CI smoke job uses "smoke")
//!   --out         merge this window into FILE (created if absent; an
//!                 existing same-named window is replaced, others kept)
//!   --check       compare this run's geomean insts/sec against the
//!                 same-named window in FILE; exit 1 on regression
//!   --tolerance   allowed slowdown for --check, percent (default 20)
//!   --repeat      run the window N times, record the median-geomean run
//!                 (default 1; container clocks are ±20–30% noisy)
//! ```
//!
//! Cells run *sequentially on one core* (unlike the figure binaries) so
//! the insts/sec numbers are comparable across PRs. Each workload's
//! warm-up checkpoint and measurement window are built once, outside the
//! cell wall clocks, and all four schemes run from them. Throughput is
//! host-dependent: --check is only meaningful against a baseline from
//! the same runner class.

use prophet_bench::metrics::{check_regression, BenchReport};
use prophet_bench::runner::{format_window_table, run_bench_window_median};
use prophet_bench::Harness;
use prophet_sim_core::TraceSource;
use prophet_workloads::{workload_sized, CRONO_WORKLOADS};

const USAGE: &str = "usage: bench_runner [--insts N] [--warmup N] [--window NAME] \
                     [--out FILE] [--check FILE] [--tolerance PCT] [--repeat N]";

struct Args {
    insts: Option<u64>,
    warmup: Option<u64>,
    window: String,
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        insts: None,
        warmup: None,
        window: "default".into(),
        out: None,
        check: None,
        tolerance: 20.0,
        repeat: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--insts" => {
                let v = value("--insts")?;
                out.insts = Some(
                    v.parse()
                        .map_err(|_| format!("--insts: not a number: {v}"))?,
                );
            }
            "--warmup" => {
                let v = value("--warmup")?;
                out.warmup = Some(
                    v.parse()
                        .map_err(|_| format!("--warmup: not a number: {v}"))?,
                );
            }
            "--window" => out.window = value("--window")?,
            "--out" => out.out = Some(value("--out")?),
            "--check" => out.check = Some(value("--check")?),
            "--tolerance" => {
                let v = value("--tolerance")?;
                out.tolerance = v
                    .parse()
                    .map_err(|_| format!("--tolerance: not a number: {v}"))?;
            }
            "--repeat" => {
                let v = value("--repeat")?;
                out.repeat = v
                    .parse()
                    .map_err(|_| format!("--repeat: not a number: {v}"))?;
                if out.repeat == 0 {
                    return Err("--repeat: must be at least 1".into());
                }
            }
            f => return Err(format!("unknown argument: {f}")),
        }
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let h = Harness {
        warmup: args.warmup.unwrap_or(1_100_000),
        measure: args.insts.unwrap_or(1_000_000),
        ..Harness::default()
    };
    let workloads: Vec<Box<dyn TraceSource + Send + Sync>> = CRONO_WORKLOADS
        .iter()
        .map(|name| workload_sized(name, h.warmup + h.measure))
        .collect();

    let window = run_bench_window_median(&h, &args.window, &workloads, args.repeat);
    print!("{}", format_window_table(&window));

    if let Some(path) = &args.out {
        let mut report = match std::fs::read_to_string(path) {
            Ok(text) => BenchReport::from_json(&text).unwrap_or_else(|e| {
                eprintln!("bench: {path} is not a bench report ({e}); rewriting");
                BenchReport::new(9)
            }),
            Err(_) => BenchReport::new(9),
        };
        report.upsert_window(window.clone());
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("bench: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("bench: wrote window '{}' to {path}", window.name);
    }

    if let Some(path) = &args.check {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let baseline = BenchReport::from_json(&text).unwrap_or_else(|e| {
            eprintln!("bench: cannot parse baseline {path}: {e}");
            std::process::exit(2);
        });
        match check_regression(&baseline, &window, args.tolerance) {
            Ok(c) => {
                for s in &c.schemes {
                    println!(
                        "check   scheme {:<10} baseline {:.0} insts/s, current {:.0} insts/s, \
                         ratio {:.3} -> {}",
                        s.scheme,
                        s.baseline_geomean,
                        s.current_geomean,
                        s.ratio,
                        if s.pass { "OK" } else { "REGRESSION" }
                    );
                }
                println!(
                    "check vs {path} window '{}': baseline {:.0} insts/s, \
                     current {:.0} insts/s, ratio {:.3} (tolerance -{}%, per scheme) -> {}",
                    window.name,
                    c.baseline_geomean,
                    c.current_geomean,
                    c.ratio,
                    args.tolerance,
                    if c.pass { "OK" } else { "REGRESSION" }
                );
                if !c.pass {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("bench: check failed: {e}");
                std::process::exit(2);
            }
        }
    }
}
