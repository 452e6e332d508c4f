//! The RPG2 pipeline: identify → instrument → tune distance.

use crate::kernel::{KernelAnalysis, KernelScan};
use crate::swpf::Rpg2Prefetcher;
use prophet_prefetch::{L2Prefetcher, NoL2Prefetch, StridePrefetcher};
use prophet_sim_core::{
    simulate, SimReport, Simulator, TraceCursor, TraceInst, TraceSource, WarmStart,
};
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

    /// Identification's two inputs from one trace stream: the baseline
    /// miss profile (stride L1, no L2 prefetcher, this window) and the
    /// kernel scan. The scan rides the baseline pass's cursor and, after
    /// the pass, reads on to the end of the trace, so it sees every
    /// instruction [`KernelAnalysis::scan`] sees. The report is the plain
    /// stride-L1 baseline run, bit for bit, so a harness that already
    /// needs that baseline gets RPG2's identification with it.
    pub fn baseline(&self, workload: &dyn TraceSource) -> (SimReport, KernelAnalysis) {
        let mut cursor = Scanning {
            inner: workload.cursor(),
            scan: KernelScan::new(),
        };
        let report = Simulator::new(
            self.sys.clone(),
            Box::new(StridePrefetcher::default()),
            Box::new(NoL2Prefetch),
        )
        .run_cursor(&mut cursor, workload.name(), self.warmup, self.measure);
        while cursor.next_inst().is_some() {}
        (report, cursor.scan.finish())
    }

    /// Identification: the PCs that qualify on the baseline miss profile.
    pub fn identify(&self, workload: &dyn TraceSource) -> Vec<u64> {
        let (base, analysis) = self.baseline(workload);
        analysis.qualify(&l2_misses(&base))
    }

    /// The rest of the pipeline after [`Rpg2Pipeline::baseline`]: qualify,
    /// tune the distance by sweeping the candidates, return the best run.
    /// With no qualified PCs the result is the baseline itself (RPG2
    /// inserts nothing — footnote 6's case).
    pub fn sweep(
        &self,
        workload: &dyn TraceSource,
        base: SimReport,
        analysis: &KernelAnalysis,
    ) -> Rpg2Result {
        tune(analysis, base, |l2| {
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

    /// The full pipeline: [`Rpg2Pipeline::baseline`], then
    /// [`Rpg2Pipeline::sweep`].
    pub fn run(&self, workload: &dyn TraceSource) -> Rpg2Result {
        let (base, analysis) = self.baseline(workload);
        self.sweep(workload, base, &analysis)
    }

    /// The full pipeline launched from a shared warm-up checkpoint: the
    /// identification baseline and every distance candidate reuse the
    /// checkpointed machine state instead of re-simulating the warm-up
    /// (the cold path simulates it once more per distance candidate).
    ///
    /// One streaming pass over the trace replaces the cold path's
    /// per-pass cursor regeneration: the warm-up prefix feeds the kernel
    /// scanner while being skipped, the measurement window is
    /// materialized once, and every pass replays it (bit-identical to the
    /// cursor path — see `WarmStart::simulate_window`). Unlike
    /// [`Rpg2Pipeline::baseline`], the scan stops at the window's end.
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
        let pass = |l2: Box<dyn L2Prefetcher>| {
            warm.simulate_window(
                &self.sys,
                &name,
                &window,
                Box::new(StridePrefetcher::default()),
                l2,
            )
        };
        tune(&scan.finish(), pass(Box::new(NoL2Prefetch)), pass)
    }
}

/// A trace cursor that feeds every instruction it yields to a kernel scan.
struct Scanning<'a> {
    inner: Box<dyn TraceCursor + 'a>,
    scan: KernelScan,
}

impl TraceCursor for Scanning<'_> {
    fn next_inst(&mut self) -> Option<TraceInst> {
        let inst = self.inner.next_inst()?;
        self.scan.observe(&inst);
        Some(inst)
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

/// Qualification on the `base` miss profile, then the distance sweep
/// (every candidate, strict improvement wins, the first candidate takes
/// ties). `pass` runs one measured simulation under the stride L1 and the
/// given L2 prefetcher. The baseline serves identification and, when
/// nothing qualifies, *is* the result.
fn tune(
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

    /// `baseline` is a plain stride-L1, no-L2 run plus a whole-trace
    /// [`KernelAnalysis::scan`], from one stream: on a trace longer than
    /// warm-up + measure (the scan must read on past the window) and on one
    /// shorter than the warm-up.
    #[test]
    fn baseline_is_the_plain_run_and_the_whole_trace_scan() {
        let (warmup, measure) = (20_000, 120_000);
        let pl = Rpg2Pipeline::new(SystemConfig::isca25(), warmup, measure);
        let long = crono_like();
        let short = VecTrace::new("short", long.insts[..15_000].to_vec());
        assert!(long.insts.len() as u64 > warmup + measure);
        for w in [long, short] {
            let (report, analysis) = pl.baseline(&w);
            let plain = simulate(
                &SystemConfig::isca25(),
                &w,
                Box::new(StridePrefetcher::default()),
                Box::new(NoL2Prefetch),
                warmup,
                measure,
            );
            assert_eq!(report, plain, "{}", w.label);
            assert_eq!(analysis, KernelAnalysis::scan(&w), "{}", w.label);
        }
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
