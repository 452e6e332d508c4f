//! Step 1: Profiling (Section 4.1).
//!
//! Prophet profiles a binary by running it under the **simplified temporal
//! prefetcher** — insertion policy disabled, fixed 1 MB metadata table,
//! prefetch degree 1 — "an unbiased evaluation of memory instructions under
//! temporal prefetching, without any additional optimizations"
//! (Section 3.2). The PMU/PEBS counters read out afterwards are the entire
//! profile artifact.

use prophet_prefetch::traits::{L2Decision, L2Prefetcher, MetaTableStats};
use prophet_sim_mem::hierarchy::L2Event;
use prophet_temporal::{TemporalConfig, TemporalEngine};

/// The simplified temporal prefetcher (profiling configuration).
pub struct SimplifiedTp {
    engine: TemporalEngine,
}

impl SimplifiedTp {
    /// Builds the paper's profiling configuration: no insertion filter,
    /// fixed 8 ways (1 MB), degree 1, LRU metadata replacement.
    pub fn new() -> Self {
        SimplifiedTp {
            engine: TemporalEngine::new(TemporalConfig::simplified_profiling()),
        }
    }

    /// Seeds the profiling table + trainer from a warm-up checkpoint (the
    /// profiling configuration is exactly the checkpoint's training
    /// configuration, so this restore is lossless).
    pub fn seed_warmup(&mut self, snap: &prophet_temporal::TemporalSnapshot) {
        self.engine.load_warmup(snap);
    }
}

impl Default for SimplifiedTp {
    fn default() -> Self {
        Self::new()
    }
}

impl L2Prefetcher for SimplifiedTp {
    fn name(&self) -> &'static str {
        "simplified-tp"
    }

    fn on_l2_access(&mut self, ev: &L2Event) -> L2Decision {
        self.engine.decide(ev, 1)
    }

    fn meta_ways(&self) -> usize {
        self.engine.ways()
    }

    fn meta_stats(&self) -> MetaTableStats {
        self.engine.meta_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::ProfileCounters;
    use prophet_prefetch::StridePrefetcher;
    use prophet_sim_core::{simulate, SimReport, TraceInst, VecTrace};
    use prophet_sim_mem::{Addr, Pc, SystemConfig};

    /// A trace with one clean temporal PC and one noise PC. The pattern's
    /// footprint (40k lines ≈ 2.5 MB) exceeds the on-chip hierarchy so its
    /// accesses actually miss in the L2 and exercise the prefetcher.
    fn mixed_trace() -> VecTrace {
        let mut insts = Vec::new();
        let pattern: Vec<u64> = (0..40_000u64).map(|i| (1000 + i * 7) * 64).collect();
        let mut noise_state = 12345u64;
        for round in 0..6 {
            for &a in &pattern {
                insts.push(TraceInst::load(Pc(0x100), Addr(a)));
                // Interleave noise from a second PC.
                noise_state = noise_state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(round);
                insts.push(TraceInst::load(
                    Pc(0x200),
                    Addr((noise_state % (1 << 28)) & !63),
                ));
            }
        }
        VecTrace::new("mixed", insts)
    }

    /// One profiling pass: the stride L1 stays on, as in the paper's setup.
    fn profile(trace: &VecTrace) -> (ProfileCounters, SimReport) {
        let report = simulate(
            &SystemConfig::isca25(),
            trace,
            Box::new(StridePrefetcher::default()),
            Box::new(SimplifiedTp::new()),
            100_000,
            300_000,
        );
        (ProfileCounters::from_report(&report), report)
    }

    #[test]
    fn profiling_separates_pattern_from_noise() {
        let (profile, report) = profile(&mixed_trace());
        assert_eq!(report.scheme, "simplified-tp");
        let good = profile.per_pc.get(&0x100).expect("pattern PC profiled");
        let bad = profile.per_pc.get(&0x200).expect("noise PC profiled");
        assert!(
            good.accuracy > 0.5,
            "clean temporal PC must profile accurately, got {}",
            good.accuracy
        );
        assert!(
            bad.accuracy < 0.15,
            "noise PC must profile near zero, got {}",
            bad.accuracy
        );
    }

    #[test]
    fn profiling_uses_fixed_1mb_table() {
        let tp = SimplifiedTp::new();
        assert_eq!(tp.meta_ways(), 8);
    }

    #[test]
    fn allocated_entries_reflect_footprint() {
        let (profile, _) = profile(&mixed_trace());
        assert!(
            profile.allocated_entries() > 0.0,
            "training must allocate metadata entries"
        );
    }
}
