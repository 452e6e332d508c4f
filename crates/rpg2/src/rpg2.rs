//! RPG2's policy: qualify → instrument → tune the distance. The caller runs
//! every pass on its own machine.

use crate::kernel::KernelAnalysis;
use crate::swpf::Rpg2Prefetcher;
use prophet_prefetch::L2Prefetcher;
use prophet_sim_core::SimReport;
use std::collections::HashMap;

/// Candidate distances explored by the tuner (RPG2 doubles the distance
/// until performance drops, then refines — a geometric sweep visits the
/// same points).
pub const DISTANCE_CANDIDATES: [i64; 5] = [2, 4, 8, 16, 32];

/// Outcome of RPG2 on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Rpg2Result {
    /// PCs that qualified for software prefetching.
    pub qualified_pcs: Vec<u64>,
    /// The tuned distance (lines); `None` when nothing qualified.
    pub distance: Option<i64>,
    /// The report with the optimal distance (the paper reports performance
    /// at the tuned optimum).
    pub report: SimReport,
}

/// Per-PC L2 misses of a baseline report (the miss half of
/// identification).
fn l2_misses(base: &SimReport) -> HashMap<u64, u64> {
    base.per_pc
        .iter()
        .map(|(&pc, s)| (pc, s.l2_misses))
        .collect()
}

/// Qualification on the `base` miss profile (the run with no L2
/// prefetcher), then the distance sweep: every candidate, strict
/// improvement wins, the first candidate takes ties. `pass` runs one
/// measured simulation on the machine and window that measured `base`,
/// under the given L2 prefetcher. When nothing qualifies the baseline *is*
/// the result (RPG2 inserts nothing — footnote 6's case), relabelled
/// `"rpg2"`.
pub fn tune(
    analysis: &KernelAnalysis,
    mut base: SimReport,
    pass: impl Fn(Box<dyn L2Prefetcher>) -> SimReport,
) -> Rpg2Result {
    let qualified = analysis.qualify(&l2_misses(&base));
    if qualified.is_empty() {
        base.scheme = "rpg2".into();
        return Rpg2Result {
            qualified_pcs: qualified,
            distance: None,
            report: base,
        };
    }
    let mut best: Option<(i64, SimReport)> = None;
    for &d in &DISTANCE_CANDIDATES {
        let r = pass(Box::new(Rpg2Prefetcher::with_uniform_distance(
            &qualified, d,
        )));
        let better = match &best {
            None => true,
            Some((_, b)) => r.ipc > b.ipc,
        };
        if better {
            best = Some((d, r));
        }
    }
    let (distance, report) = best.expect("at least one candidate evaluated");
    Rpg2Result {
        qualified_pcs: qualified,
        distance: Some(distance),
        report,
    }
}
