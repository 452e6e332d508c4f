//! The RPG2 pipeline: identify → instrument → tune distance.

use crate::kernel::{KernelAnalysis, KernelScan};
use crate::swpf::Rpg2Prefetcher;
use prophet_prefetch::{L2Prefetcher, NoL2Prefetch, StridePrefetcher};
use prophet_sim_core::{simulate, SimReport, TraceSource, WarmStart};
use prophet_sim_mem::SystemConfig;
use std::collections::HashMap;

/// Candidate distances explored by the tuner (RPG2 doubles the distance
/// until performance drops, then refines — a geometric sweep visits the
/// same points).
pub const DISTANCE_CANDIDATES: [i64; 5] = [2, 4, 8, 16, 32];

/// The RPG2 profile-guided pipeline for one workload.
#[derive(Debug, Clone)]
pub struct Rpg2Pipeline {
    sys: SystemConfig,
    warmup: u64,
    measure: u64,
}

/// Outcome of running the pipeline.
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

impl Rpg2Pipeline {
    /// Creates the pipeline.
    pub fn new(sys: SystemConfig, warmup: u64, measure: u64) -> Self {
        Rpg2Pipeline {
            sys,
            warmup,
            measure,
        }
    }

    /// Identification: miss profile (baseline run) + trace scan.
    pub fn identify(&self, workload: &dyn TraceSource) -> Vec<u64> {
        let base = simulate(
            &self.sys,
            workload,
            Box::new(StridePrefetcher::default()),
            Box::new(NoL2Prefetch),
            self.warmup,
            self.measure,
        );
        KernelAnalysis::scan(workload).qualify(&l2_misses(&base))
    }

    /// The full pipeline: identify, tune the distance by sweeping the
    /// candidates, return the best run. With no qualified PCs the result is
    /// the plain baseline (RPG2 inserts nothing — footnote 6's case).
    pub fn run(&self, workload: &dyn TraceSource) -> Rpg2Result {
        tune(&KernelAnalysis::scan(workload), |l2| {
            simulate(
                &self.sys,
                workload,
                Box::new(StridePrefetcher::default()),
                l2,
                self.warmup,
                self.measure,
            )
        })
    }

    /// The full pipeline launched from a shared warm-up checkpoint: the
    /// identification baseline and every distance candidate reuse the
    /// checkpointed machine state instead of re-simulating the warm-up
    /// (RPG2 is the worst offender of the cold path — up to six warm-ups
    /// per workload).
    ///
    /// One streaming pass over the trace replaces the cold path's
    /// per-pass cursor regeneration *and* the separate `scan` stream: the
    /// warm-up prefix feeds the kernel scanner while being skipped, the
    /// measurement window is materialized once, and every pass replays it
    /// (bit-identical to the cursor path — see
    /// `WarmStart::simulate_window`).
    pub fn run_warm(&self, workload: &dyn TraceSource, warm: &WarmStart) -> Rpg2Result {
        let mut scan = KernelScan::new();
        let mut cursor = workload.cursor();
        let mut skipped = 0u64;
        while skipped < warm.warmup {
            match cursor.next_inst() {
                Some(inst) => scan.observe(&inst),
                None => break,
            }
            skipped += 1;
        }
        let mut window = Vec::with_capacity(self.measure.min(1 << 24) as usize);
        while (window.len() as u64) < self.measure {
            match cursor.next_inst() {
                Some(inst) => {
                    scan.observe(&inst);
                    window.push(inst);
                }
                None => break,
            }
        }
        let name = workload.name();
        tune(&scan.finish(), |l2| {
            warm.simulate_window(
                &self.sys,
                &name,
                &window,
                Box::new(StridePrefetcher::default()),
                l2,
            )
        })
    }
}

/// Per-PC L2 misses of a baseline report (the miss half of
/// identification).
fn l2_misses(base: &SimReport) -> HashMap<u64, u64> {
    base.per_pc
        .iter()
        .map(|(&pc, s)| (pc, s.l2_misses))
        .collect()
}

/// Baseline pass, qualification, then the distance sweep (every candidate,
/// strict improvement wins, the first candidate takes ties). `pass` runs
/// one measured simulation under the stride L1 and the given L2
/// prefetcher. One baseline simulation serves identification and, when
/// nothing qualifies, *is* the result.
fn tune(
    analysis: &KernelAnalysis,
    pass: impl Fn(Box<dyn L2Prefetcher>) -> SimReport,
) -> Rpg2Result {
    let mut base = pass(Box::new(NoL2Prefetch));
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

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_sim_core::trace::{TraceInst, VecTrace};
    use prophet_sim_mem::{Addr, Pc};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A CRONO-flavoured indirect workload: strided kernel + locally
    /// clustered indirect targets, repeated.
    fn crono_like() -> VecTrace {
        let mut rng = StdRng::seed_from_u64(5);
        let idx: Vec<u64> = (0..30_000u64)
            .map(|i| (i / 4) * 2 + rng.gen_range(0..64u64))
            .collect();
        let mut insts = Vec::new();
        for _ in 0..3 {
            for (i, &v) in idx.iter().enumerate() {
                insts.push(TraceInst::load(Pc(1), Addr(0x10_0000 * 64 + i as u64 * 8)));
                insts.push(TraceInst::load_dep(Pc(2), Addr(0x20_0000 * 64 + v * 64), 1));
                insts.push(TraceInst::op(Pc(2)));
            }
        }
        VecTrace::new("crono-like", insts)
    }

    #[test]
    fn identifies_indirect_pc_on_crono_like_workload() {
        let pl = Rpg2Pipeline::new(SystemConfig::isca25(), 20_000, 120_000);
        let q = pl.identify(&crono_like());
        assert!(q.contains(&2), "the indirect PC must qualify, got {q:?}");
    }

    #[test]
    fn tuned_run_improves_over_baseline() {
        let pl = Rpg2Pipeline::new(SystemConfig::isca25(), 20_000, 120_000);
        let w = crono_like();
        let res = pl.run(&w);
        assert!(res.distance.is_some());
        let base = simulate(
            &SystemConfig::isca25(),
            &w,
            Box::new(StridePrefetcher::default()),
            Box::new(NoL2Prefetch),
            20_000,
            120_000,
        );
        assert!(
            res.report.ipc >= base.ipc,
            "tuned RPG2 must not lose to baseline: {} vs {}",
            res.report.ipc,
            base.ipc
        );
    }

    #[test]
    fn pointer_chase_yields_no_instrumentation() {
        let mut insts = Vec::new();
        let mut l = 3u64;
        for i in 0..200_000u64 {
            l = (l * 2_654_435_761 + 7) % 200_000;
            let inst = if i == 0 {
                TraceInst::load(Pc(9), Addr(l * 64))
            } else {
                TraceInst::load_dep(Pc(9), Addr(l * 64), 1)
            };
            insts.push(inst);
        }
        let w = VecTrace::new("chase", insts);
        let pl = Rpg2Pipeline::new(SystemConfig::isca25(), 20_000, 100_000);
        let res = pl.run(&w);
        assert!(res.qualified_pcs.is_empty());
        assert!(res.distance.is_none());
        assert_eq!(res.report.scheme, "rpg2");
        assert_eq!(
            res.report.issued_prefetches, 0,
            "no kernels → no software prefetches (footnote 6)"
        );
    }
}
