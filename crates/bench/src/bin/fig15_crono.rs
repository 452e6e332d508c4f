//! Figure 15: IPC speedup on the CRONO graph workloads.
//!
//! ```text
//! fig15_crono [--insts N] [--warmup N] [--jobs N]
//!   --insts     measured instructions per kernel (default 1 000 000;
//!               the re-anchored EXPERIMENTS.md numbers use 5 000 000)
//!   --warmup    warm-up instructions (default 1 100 000 — one traversal)
//!   --jobs      parallel harness workers (default: all cores)
//! ```
//!
//! Workloads are sized to the window via streaming generation (repeats
//! scale up, memory stays O(graph)), and the scheme×workload grid fans
//! across `Harness::run_matrix_stored` workers, every cell warming up from
//! cold with its own scheme active.

use prophet_bench::{print_speedup_table, Flag, Harness, RunArgs};
use prophet_workloads::CRONO_WORKLOADS;

fn main() {
    let args = RunArgs::parse_or_exit("fig15_crono", &Flag::GRID);
    // CRONO traces are one-traversal-per-pass; warm up through the first
    // traversal so measurement covers trained passes.
    let h = args.harness(Harness {
        warmup: 1_100_000,
        measure: 1_000_000,
        ..Harness::default()
    });
    let rows = args.run_grid(&h, &CRONO_WORKLOADS);
    print_speedup_table(
        "Figure 15: CRONO speedups (paper: RPG2 +9.1%, Triangel +8.4%, Prophet +14.9%)",
        &rows,
    );
}
