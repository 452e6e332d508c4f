//! Graph analytics (CRONO-style): where software prefetching works too.
//!
//! PageRank over a clustered graph has a strided prefetch kernel (the edge
//! array), so RPG2's distance-tuned software prefetching helps. At this
//! trace scale the traversal becomes cache-resident after its first pass,
//! so the temporal prefetcher has little left to cover (see EXPERIMENTS.md
//! on Figure 15) — a useful illustration of when Prophet's Eq.-3 resizing
//! and feature rollback (Section 5.9) matter.
//!
//! Run with: `cargo run --release --example graph_analytics`

use prophet_bench::{Harness, Scheme};
use prophet_workloads::workload;

fn main() {
    let h = Harness::default();
    let w = workload("pagerank_100000_100");

    let base = h.run(Scheme::Baseline, w.as_ref()).into_report();
    println!("pagerank baseline IPC {:.4}", base.ipc);

    let rpg2 = h.rpg2(w.as_ref());
    println!(
        "rpg2: {} instrumented PCs at distance {:?}, speedup {:.3}",
        rpg2.qualified_pcs.len(),
        rpg2.distance,
        rpg2.report.speedup_over(&base)
    );

    let pro = h.run(Scheme::Prophet, w.as_ref()).into_report();
    println!(
        "prophet: speedup {:.3} (coverage {:.2}, accuracy {:.2})",
        pro.speedup_over(&base),
        pro.coverage(),
        pro.accuracy()
    );
    println!(
        "note: at this trace scale the graph turns cache-resident after one pass,
         so software prefetching (timeliness) wins and temporal prefetching is
         near-neutral — the Section 5.9 rollback scenario."
    );
}
