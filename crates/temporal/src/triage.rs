//! Triage (Wu et al., MICRO'19 / TC'21): the first on-chip temporal
//! prefetcher. No insertion filter, SRRIP metadata replacement (standing in
//! for the original's Hawkeye), Bloom-filter-driven resizing. The paper's
//! ablation baseline is "Triage at a prefetch degree of 4 combined with
//! Triangel's metadata format" (Section 5.9), available here as
//! [`Triage::degree4`].

use crate::engine::{InsertionPolicy, ResizePolicy, TemporalConfig, TemporalEngine};
use crate::metadata::{MetaRepl, MetaTableConfig};
use prophet_prefetch::traits::{L2Decision, L2Prefetcher, MetaTableStats, PrefetchRequest};
use prophet_sim_mem::hierarchy::L2Event;

/// Triage configuration.
#[derive(Debug, Clone)]
pub struct TriageConfig {
    /// Prefetch degree (1 in the original; 4 for the ablation baseline).
    pub degree: usize,
    /// Events between Bloom-filter resizing decisions.
    pub resize_window: u64,
    /// Initial LLC ways for metadata.
    pub initial_ways: usize,
    /// LLC sets (table geometry must match the LLC).
    pub llc_sets: usize,
}

impl Default for TriageConfig {
    fn default() -> Self {
        TriageConfig {
            degree: 1,
            resize_window: 100_000,
            initial_ways: 4,
            llc_sets: 2048,
        }
    }
}

/// The Triage temporal prefetcher.
pub struct Triage {
    engine: TemporalEngine,
    name: &'static str,
}

impl Triage {
    /// Builds Triage from a configuration.
    pub fn new(cfg: TriageConfig) -> Self {
        let name = if cfg.degree >= 4 { "triage4" } else { "triage" };
        Triage {
            engine: TemporalEngine::new(TemporalConfig {
                degree: cfg.degree,
                insertion: InsertionPolicy::Always,
                resize: ResizePolicy::Bloom {
                    window: cfg.resize_window,
                },
                table: MetaTableConfig {
                    sets: cfg.llc_sets,
                    max_ways: 8,
                    repl: MetaRepl::Srrip,
                    priority_replacement: false,
                },
                initial_ways: cfg.initial_ways,
            }),
            name,
        }
    }

    /// The Section 5.9 ablation baseline: degree 4 with Triangel's
    /// metadata format (SRRIP replacement, as every Triage here uses).
    pub fn degree4() -> Self {
        Triage::new(TriageConfig {
            degree: 4,
            ..TriageConfig::default()
        })
    }

    /// Access to the engine (instrumentation in tests/figures).
    pub fn engine(&self) -> &TemporalEngine {
        &self.engine
    }

    /// Seeds the engine from a warm-up checkpoint (table contents +
    /// training history; see [`TemporalEngine::load_warmup`]).
    pub fn seed_warmup(&mut self, snap: &crate::engine::TemporalSnapshot) {
        self.engine.load_warmup(snap);
    }
}

impl Default for Triage {
    fn default() -> Self {
        Triage::new(TriageConfig::default())
    }
}

impl L2Prefetcher for Triage {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_l2_access(&mut self, ev: &L2Event) -> L2Decision {
        let d = self.engine.on_access(ev, None);
        // Triage has no MVB; evicted metadata is simply lost.
        self.engine.drain_evictions();
        L2Decision {
            prefetches: d
                .targets
                .into_iter()
                .map(|line| PrefetchRequest {
                    line,
                    trigger_pc: ev.pc,
                })
                .collect(),
            resize_meta_ways: d.resize,
            metadata_dram_accesses: 0,
        }
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
    fn names_reflect_degree() {
        assert_eq!(Triage::default().name(), "triage");
        assert_eq!(Triage::degree4().name(), "triage4");
    }

    #[test]
    fn prefetches_learned_successors() {
        let mut t = Triage::default();
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
        let mut t = Triage::default();
        for i in 0..100u64 {
            t.on_l2_access(&event(1, (i * 7919) % 100_000));
        }
        let s = t.meta_stats();
        assert!(s.insertions > 90, "Triage inserts everything: {s:?}");
        assert_eq!(s.rejected_insertions, 0);
    }
}
