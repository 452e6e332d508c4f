//! Triage (Wu et al., MICRO'19 / TC'21): the first on-chip temporal
//! prefetcher. No insertion filter, SRRIP metadata replacement (standing in
//! for the original's Hawkeye), Bloom-filter-driven resizing. The paper's
//! ablation baseline is "Triage at a prefetch degree of 4 combined with
//! Triangel's metadata format" (Section 5.9), available here as
//! [`Triage::degree4`].

use crate::engine::{InsertionPolicy, ResizePolicy, TemporalConfig, TemporalEngine};
use crate::metadata::MetaTableConfig;
use prophet_prefetch::traits::{L2Decision, L2Prefetcher, MetaTableStats};
use prophet_sim_mem::hierarchy::L2Event;

/// Chained prefetch degree of the ablation baseline (Section 5.9).
const DEGREE: usize = 4;

/// Events between Bloom-filter resizing decisions.
const RESIZE_WINDOW: u64 = 100_000;

/// LLC ways the metadata table occupies before the first resize.
const INITIAL_WAYS: usize = 4;

/// The Triage temporal prefetcher.
pub struct Triage {
    engine: TemporalEngine,
}

impl Triage {
    /// The Section 5.9 ablation baseline: degree 4 with Triangel's
    /// metadata format (SRRIP replacement, as every Triage here uses).
    pub fn degree4() -> Self {
        Triage {
            engine: TemporalEngine::new(TemporalConfig {
                degree: DEGREE,
                insertion: InsertionPolicy::Always,
                resize: ResizePolicy::Bloom {
                    window: RESIZE_WINDOW,
                },
                table: MetaTableConfig::default(),
                initial_ways: INITIAL_WAYS,
            }),
        }
    }
}

impl L2Prefetcher for Triage {
    fn name(&self) -> &'static str {
        "triage4"
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
    use prophet_sim_mem::{Line, Pc};

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
    fn prefetches_learned_successors() {
        let mut t = Triage::degree4();
        for _ in 0..2 {
            for l in [10u64, 20, 30] {
                t.on_l2_access(&event(1, l));
            }
        }
        let d = t.on_l2_access(&event(1, 10));
        assert!(d
            .prefetches
            .iter()
            .any(|r| r.line == Line(20) && r.trigger_pc == Pc(1)));
    }

    #[test]
    fn no_insertion_filter_trains_noise() {
        let mut t = Triage::degree4();
        for i in 0..100u64 {
            t.on_l2_access(&event(1, (i * 7919) % 100_000));
        }
        let s = t.meta_stats();
        assert!(s.insertions > 90, "Triage inserts everything: {s:?}");
        assert_eq!(s.rejected_insertions, 0);
    }
}
