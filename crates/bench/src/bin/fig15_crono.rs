//! Figure 15: IPC speedup on the CRONO graph workloads.
//!
//! ```text
//! fig15_crono [--insts N] [--warmup N] [--jobs N] [--store DIR] [--vertices N]
//!   --insts     measured instructions per kernel (default 1 000 000;
//!               the re-anchored EXPERIMENTS.md numbers use 5 000 000)
//!   --warmup    warm-up instructions (default 1 100 000 — one traversal)
//!   --jobs      parallel harness workers (default: all cores)
//!   --store     artifact store: the grid shares one warm-up checkpoint per
//!               kernel, and a second run against the same store skips the
//!               warm-up simulations entirely (stdout stays bit-identical —
//!               pinned by crates/bench/tests/warm_start.rs)
//!   --vertices  floor every graph at N vertices (paper-scale runs use
//!               1 000 000; do NOT share a --store directory between runs
//!               with different --vertices — checkpoints key on the
//!               workload name, which the override leaves unchanged)
//! ```
//!
//! Workloads are sized to the window via streaming generation (repeats
//! scale up, memory stays O(graph)), and the scheme×workload grid fans
//! across `Harness::run_matrix_stored` workers.

use prophet_bench::{
    print_speedup_table, report_store_activity, take_flag, Harness, RunArgs, SchemeRow,
};
use prophet_sim_core::TraceSource;
use prophet_workloads::{crono_workload, workload_sized, CRONO_WORKLOADS};

const USAGE: &str =
    "usage: fig15_crono [--insts N] [--warmup N] [--jobs N] [--store DIR] [--vertices N]";

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let vertices = take_flag(&mut raw, "--vertices", USAGE).map(|v| {
        v.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("--vertices: not a number: {v}\n{USAGE}");
            std::process::exit(2);
        })
    });
    let args = RunArgs::parse_or_exit(raw.into_iter(), USAGE, false);
    // CRONO traces are one-traversal-per-pass; warm up through the first
    // traversal so measurement covers trained passes.
    let h = args.harness(Harness {
        warmup: 1_100_000,
        measure: 1_000_000,
        ..Harness::default()
    });
    let workloads: Vec<Box<dyn TraceSource + Send + Sync>> = CRONO_WORKLOADS
        .iter()
        .map(|name| match vertices {
            // Paper-scale graphs: floor the vertex count before sizing.
            // The override must land before the first graph access so the
            // spec's memoized CSR is built (once) at the scaled size.
            Some(v) => {
                let mut spec = crono_workload(name);
                spec.vertices = spec.vertices.max(v);
                Box::new(spec.with_min_insts(h.warmup + h.measure))
                    as Box<dyn TraceSource + Send + Sync>
            }
            None => workload_sized(name, h.warmup + h.measure),
        })
        .collect();
    let store = args.open_store();
    let rows: Vec<SchemeRow> = h.run_matrix_stored(&workloads, args.jobs, store.as_ref());
    print_speedup_table(
        "Figure 15: CRONO speedups (paper: RPG2 +9.1%, Triangel +8.4%, Prophet +14.9%)",
        &rows,
    );
    if let Some(store) = &store {
        report_store_activity(store);
    }
}
