//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! Prints a metric table to stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when any correctness check failed, 2 on a usage error.

use perfbench::grid::Grid;
use perfbench::output::{END_TO_END, PER_LAYER};
use perfbench::run::{run, work_dir, Config};
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload spec-fig10|crono-fig15-store \
                     --seed N --seconds S --trace 0|1 [--work-dir DIR]";

fn parse() -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work = PathBuf::from(".bench_build/perfbench-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Grid::parse(&value).ok_or(format!("unknown workload: {value}"))?)
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                })
            }
            "--work-dir" => work = PathBuf::from(value),
            _ => return Err(format!("unknown flag: {flag}")),
        }
    }
    Ok(Config {
        grid: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace: trace.ok_or("--trace is required")?,
        work: work_dir(&work),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        window: None,
    })
}

fn main() {
    let cfg = parse().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut out = run(&cfg);
    out.finish(defs);
    eprint!("{}", out.table(defs));
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", out.json(defs));
    std::process::exit(if out.correct() { 0 } else { 1 });
}
