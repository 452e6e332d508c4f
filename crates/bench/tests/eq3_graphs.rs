//! Regression pin for Eq. 3 sizing on the scaled (400 K-vertex) CRONO
//! graph profiles — the ROADMAP "Eq. 3 undersizing" gap.
//!
//! Measured ground truth behind the assertions (release, fig15 window
//! `--warmup 1100000 --insts 5000000`, recorded 2026-07):
//!
//! * every `bfs_*` profile on the 400 K-vertex graphs allocates ~50–57 K
//!   metadata entries with **zero replacements** and a ~96% table hit
//!   rate — the sliced traversal's live source set genuinely fits, so
//!   the thrash clamp ([`AnalysisConfig::footprint_estimate`]) must stay
//!   dormant and the un-clamped estimate stands;
//! * Eq. 3 then sizes 3 LLC ways, at or above the 2 ways Triangel's
//!   runtime resizing converges to on these graphs (bfs_100000_16 → 2,
//!   bfs_90000_10 → 2; bfs_80000_8 → 4, an over-provisioning that costs
//!   it: Triangel's speedup there is 0.75 vs Prophet's 1.08);
//! * forcing more ways is strictly worse at our scale (bfs at 3/4/6/8
//!   ways: 1.09/0.96/0.75/0.59 speedup) — the graph working set is 2–4×
//!   the LLC, so every metadata way taken from data costs more misses
//!   than the extra correlations save.
//!
//! The regression this guards: Eq. 3 drifting *below* the way count the
//! runtime scheme sustains (the undersizing failure), or the clamp
//! mis-firing on a healthy profile (the oversizing failure).

use prophet::{analyze, AnalysisConfig, ProfileCounters};
use prophet_bench::Harness;
use prophet_workloads::workload_sized;

/// Window for the profiling pass: long enough that `workload_sized`
/// scales the traversal graphs to the 400 K-vertex cap (≥ 2 passes), but
/// profiled over a 1 M-instruction slice to stay test-affordable.
const SIZED_TO: u64 = 6_100_000;
const WARMUP: u64 = 300_000;
const MEASURE: u64 = 700_000;

/// The way count Triangel's runtime resizing converges to on the
/// majority of the 400 K-vertex bfs graphs (see module docs).
const TRIANGEL_CONVERGED_WAYS: usize = 2;

#[test]
fn bfs_400000_profiles_size_at_least_the_triangel_way_count() {
    let h = Harness {
        warmup: WARMUP,
        measure: MEASURE,
        ..Harness::default()
    };
    for name in ["bfs_100000_16", "bfs_80000_8", "bfs_90000_10"] {
        let spec = workload_sized(name, SIZED_TO);
        let counters = ProfileCounters::from_report(&h.profile(spec.as_ref()));
        let cfg = AnalysisConfig::default();
        assert!(
            !cfg.profile_thrashed(&counters),
            "{name}: profiling table must not thrash (got {} replacements \
             of {} insertions) — if this starts failing the sliced CRONO \
             traversal no longer fits the 1 MB table and the module-doc \
             measurements need re-anchoring",
            counters.replacements,
            counters.insertions,
        );
        let hints = analyze(&counters, &cfg);
        assert!(
            hints.csr.enabled,
            "{name}: a 400 K-vertex graph profile must keep temporal \
             prefetching enabled"
        );
        assert!(
            hints.csr.meta_ways >= TRIANGEL_CONVERGED_WAYS,
            "{name}: Eq. 3 sized {} LLC ways, below the {} ways Triangel's \
             runtime resizing sustains on this pattern — the undersizing \
             regression the thrash clamp exists to prevent",
            hints.csr.meta_ways,
            TRIANGEL_CONVERGED_WAYS,
        );
    }
}
