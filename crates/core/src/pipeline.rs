//! The end-to-end Prophet process (Figure 5): Profile → Analyze → Learn.
//!
//! [`ProphetPipeline`] owns the learned profile state of one "binary" and
//! drives the whole loop against the simulator:
//!
//! 1. [`ProphetPipeline::learn_input`] — run the workload under the
//!    simplified temporal prefetcher, collect counters, merge them
//!    (Steps 1 & 3);
//! 2. [`ProphetPipeline::hints`] — run Analysis on the merged counters
//!    (Step 2), yielding the optimized binary's hint set;
//! 3. [`ProphetPipeline::run_optimized`] — execute a (possibly different)
//!    input of the optimized binary under full Prophet.

use crate::analysis::AnalysisConfig;
use crate::hints::HintSet;
use crate::learning::LearnedProfile;
use crate::profile::profile_workload;
use crate::prophet::{Prophet, ProphetConfig};
use prophet_prefetch::StridePrefetcher;
use prophet_sim_core::{simulate, SimReport, TraceSource};
use prophet_sim_mem::SystemConfig;

/// Simulation lengths used by the pipeline's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLengths {
    pub warmup: u64,
    pub measure: u64,
}

impl Default for RunLengths {
    fn default() -> Self {
        RunLengths {
            warmup: 50_000,
            measure: 400_000,
        }
    }
}

/// The Prophet profile-guided optimization pipeline for one binary.
#[derive(Debug, Clone)]
pub struct ProphetPipeline {
    sys: SystemConfig,
    analysis: AnalysisConfig,
    prophet: ProphetConfig,
    lengths: RunLengths,
    profile: LearnedProfile,
}

impl ProphetPipeline {
    /// Creates a pipeline with the given configurations.
    pub fn new(
        sys: SystemConfig,
        analysis: AnalysisConfig,
        prophet: ProphetConfig,
        lengths: RunLengths,
    ) -> Self {
        ProphetPipeline {
            sys,
            analysis,
            prophet,
            lengths,
            profile: LearnedProfile::new(),
        }
    }

    /// Paper-default pipeline.
    pub fn isca25() -> Self {
        Self::new(
            SystemConfig::isca25(),
            AnalysisConfig::default(),
            ProphetConfig::default(),
            RunLengths::default(),
        )
    }

    /// Profiles `input` with the simplified temporal prefetcher and merges
    /// the counters into the learned profile (Step 1 on the first call,
    /// Step 3 afterwards). Returns the profiling run's report.
    pub fn learn_input(&mut self, input: &dyn TraceSource) -> SimReport {
        let (counters, report) =
            profile_workload(&self.sys, input, self.lengths.warmup, self.lengths.measure);
        self.profile.learn(counters);
        report
    }

    /// Whether any input has been learned.
    pub fn is_trained(&self) -> bool {
        self.profile.is_trained()
    }

    /// Completed Prophet loops.
    pub fn loops(&self) -> u32 {
        self.profile.loops()
    }

    /// Step 2: the current optimized binary's hints.
    ///
    /// # Panics
    /// Panics if no input has been learned.
    pub fn hints(&self) -> HintSet {
        self.profile.build_hints(&self.analysis)
    }

    /// Builds the Prophet prefetcher of the current optimized binary.
    pub fn build_prophet(&self) -> Prophet {
        Prophet::new(self.prophet.clone(), &self.hints())
    }

    /// Runs `input` under the current optimized binary (full Prophet) and
    /// returns the report.
    pub fn run_optimized(&self, input: &dyn TraceSource) -> SimReport {
        simulate(
            &self.sys,
            input,
            Box::new(StridePrefetcher::default()),
            Box::new(self.build_prophet()),
            self.lengths.warmup,
            self.lengths.measure,
        )
    }

    /// The run lengths (mutable).
    pub fn lengths_mut(&mut self) -> &mut RunLengths {
        &mut self.lengths
    }

    /// The run lengths.
    pub fn lengths(&self) -> &RunLengths {
        &self.lengths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_sim_core::{TraceInst, VecTrace};
    use prophet_sim_mem::{Addr, Pc};

    /// A pointer-chase-like temporal workload: a fixed pseudo-random cycle
    /// of lines visited repeatedly, each load dependent on the previous.
    fn temporal_workload(cycle_len: usize, rounds: usize, seed: u64) -> VecTrace {
        let mut lines: Vec<u64> = (0..cycle_len as u64)
            .map(|i| (seed + i * 2654435761) % (1 << 24))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        let mut insts = Vec::new();
        let mut first = true;
        for _ in 0..rounds {
            for &l in &lines {
                if first {
                    insts.push(TraceInst::load(Pc(0x40), Addr(l * 64)));
                    first = false;
                } else {
                    insts.push(TraceInst::load_dep(Pc(0x40), Addr(l * 64), 1));
                }
            }
        }
        VecTrace::new("chase", insts)
    }

    #[test]
    fn pipeline_learns_and_optimizes() {
        let mut pl = ProphetPipeline::isca25();
        pl.lengths_mut().warmup = 60_000;
        pl.lengths_mut().measure = 200_000;
        // Footprint must exceed the on-chip hierarchy to exercise temporal
        // prefetching (~60k lines ≈ 3.8 MB > 2 MB LLC).
        let w = temporal_workload(60_000, 5, 7);
        assert!(!pl.is_trained());
        pl.learn_input(&w);
        assert!(pl.is_trained());
        assert_eq!(pl.loops(), 1);
        let hints = pl.hints();
        // The single hot PC must be hinted for insertion.
        let h = hints
            .pc_hints
            .iter()
            .find(|(pc, _)| *pc == 0x40)
            .expect("hot PC hinted")
            .1;
        assert!(h.insert);
        assert!(hints.csr.enabled);
        assert!(hints.csr.meta_ways >= 2, "60k entries need several ways");
    }

    #[test]
    fn small_footprints_disable_prefetching() {
        // A cycle fitting comfortably on-chip allocates few entries; Eq. 3
        // turns temporal prefetching off (the sphinx3-style win).
        let mut pl = ProphetPipeline::isca25();
        pl.lengths_mut().warmup = 10_000;
        pl.lengths_mut().measure = 50_000;
        let w = temporal_workload(2_000, 30, 7);
        pl.learn_input(&w);
        let hints = pl.hints();
        assert!(
            !hints.csr.enabled,
            "an on-chip-resident footprint must disable the table, got {:?}",
            hints.csr
        );
    }

    #[test]
    fn optimized_run_beats_baseline() {
        use prophet_prefetch::{NoL2Prefetch, StridePrefetcher};
        let mut pl = ProphetPipeline::isca25();
        pl.lengths_mut().warmup = 60_000;
        pl.lengths_mut().measure = 200_000;
        let w = temporal_workload(60_000, 5, 7);
        pl.learn_input(&w);
        let prophet_run = pl.run_optimized(&w);
        let base = simulate(
            &SystemConfig::isca25(),
            &w,
            Box::new(StridePrefetcher::default()),
            Box::new(NoL2Prefetch),
            60_000,
            200_000,
        );
        assert!(
            prophet_run.ipc > base.ipc * 1.3,
            "Prophet must speed up a pointer chase: {} vs {}",
            prophet_run.ipc,
            base.ipc
        );
    }
}
