//! Triangel (Ainsworth & Mukhanov, ISCA'24): the state-of-the-art hardware
//! temporal prefetcher the paper compares against.
//!
//! Relative to Triage it adds (Section 2.1):
//!
//! * **PatternConf / ReuseConf insertion filtering** — 4-bit per-PC
//!   confidence counters trained on short-term prediction outcomes; below
//!   threshold the PC neither trains nor prefetches (the Figure 1 pathology:
//!   interleaved useful/useless accesses collapse the counter and useful
//!   metadata is rejected);
//! * **SRRIP metadata replacement** — replacing Triage's Hawkeye to save
//!   storage (the 13 KB vs 0.25% trade the paper quotes);
//! * **Set-Dueller resizing** — cheap sampled sizing (≈2 KB instead of
//!   Triage's >200 KB Bloom filter), with the conservative bias the paper
//!   observes on omnetpp/mcf;
//! * **aggressive prefetching** — degree-4 chained lookups, which the
//!   paper's analysis credits with most of Triangel's gains.

use crate::engine::{InsertionPolicy, ResizePolicy, TemporalConfig, TemporalEngine};
use crate::metadata::MetaTableConfig;
use prophet_prefetch::traits::{L2Decision, L2Prefetcher, MetaTableStats};
use prophet_sim_mem::hierarchy::L2Event;
use prophet_sim_mem::{Pc, MAX_META_WAYS};

/// Chained prefetch degree (4: the aggressive setting).
const DEGREE: usize = 4;

/// PatternConf insertion threshold (of a 4-bit counter starting at 8).
const PATTERN_THRESHOLD: u8 = 4;

/// ReuseConf insertion threshold.
const REUSE_THRESHOLD: u8 = 1;

/// Events between Set-Dueller decisions.
const DUELLER_WINDOW: u64 = 50_000;

/// Triangel has no settings: every parameter above is fixed, as in the
/// original design. The type remains so existing
/// `Triangel::new(TriangelConfig::default())` calls keep building.
#[derive(Debug, Clone, Copy, Default)]
pub struct TriangelConfig {}

/// The Triangel temporal prefetcher.
pub struct Triangel {
    engine: TemporalEngine,
}

impl Triangel {
    /// Builds Triangel; it starts with the full [`MAX_META_WAYS`]-way table.
    pub fn new(_: TriangelConfig) -> Self {
        Triangel {
            engine: TemporalEngine::new(TemporalConfig {
                degree: DEGREE,
                insertion: InsertionPolicy::PatternConf {
                    pattern_threshold: PATTERN_THRESHOLD,
                    reuse_threshold: REUSE_THRESHOLD,
                },
                resize: ResizePolicy::Dueller {
                    window: DUELLER_WINDOW,
                },
                table: MetaTableConfig::default(),
                initial_ways: MAX_META_WAYS,
            }),
        }
    }

    /// Current PatternConf of a PC (Figure 1 instrumentation).
    pub fn pattern_conf(&self, pc: Pc) -> Option<u8> {
        self.engine.pattern_conf(pc)
    }

    /// Seeds the engine from a warm-up checkpoint (table contents +
    /// training history; see [`TemporalEngine::load_warmup`]).
    pub fn seed_warmup(&mut self, snap: &crate::engine::TemporalSnapshot) {
        self.engine.load_warmup(snap);
    }
}

impl Default for Triangel {
    fn default() -> Self {
        Triangel::new(TriangelConfig::default())
    }
}

impl L2Prefetcher for Triangel {
    fn name(&self) -> &'static str {
        "triangel"
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
    use prophet_sim_mem::Line;

    fn event(pc: u64, line: u64) -> L2Event {
        L2Event {
            pc: Pc(pc),
            line: Line(line),
            l2_hit: false,
            from_l1_prefetch: false,
            now: 0,
        }
    }

    #[test]
    fn clean_pattern_is_prefetched_with_degree_4() {
        let mut t = Triangel::default();
        let seq: Vec<u64> = (0..32).map(|i| 100 + i).collect();
        for _ in 0..4 {
            for &l in &seq {
                t.on_l2_access(&event(1, l));
            }
        }
        let d = t.on_l2_access(&event(1, 100));
        assert!(
            d.prefetches.len() >= 2,
            "confident PC should chain multiple prefetches, got {}",
            d.prefetches.len()
        );
    }

    #[test]
    fn interleaved_noise_rejects_later_insertions() {
        // The Figure 1 pathology in miniature: pattern, then a noise burst,
        // then a *new* pattern. Triangel rejects training while the counter
        // is low, so the new pattern is learned late or not at all.
        let mut t = Triangel::default();
        let pat_a: Vec<u64> = (0..16).map(|i| 1_000 + i).collect();
        for _ in 0..4 {
            for &l in &pat_a {
                t.on_l2_access(&event(1, l));
            }
        }
        // Noise burst: revisit a small pool with a different stride
        // permutation every round so the stored targets are reliably wrong
        // (red dots).
        let pool: Vec<u64> = (0..8).map(|i| 50_000 + i).collect();
        for round in 0..12usize {
            let step = [1usize, 3, 5, 7][round % 4];
            for j in 0..pool.len() {
                t.on_l2_access(&event(1, pool[(j * step) % pool.len()]));
            }
        }
        assert!(t.pattern_conf(Pc(1)).unwrap() < 6);
        let rejected_before = t.meta_stats().rejected_insertions;
        let pat_b: Vec<u64> = (0..16).map(|i| 2_000 + i).collect();
        for &l in &pat_b {
            t.on_l2_access(&event(1, l));
        }
        assert!(
            t.meta_stats().rejected_insertions > rejected_before,
            "blue stars after the red burst must be rejected (Figure 1)"
        );
    }

    #[test]
    fn reports_ways_and_stats() {
        let t = Triangel::default();
        assert_eq!(t.meta_ways(), 8);
        assert_eq!(t.meta_stats().insertions, 0);
    }
}
