//! The Prophet prefetcher: the runtime temporal-prefetching machinery under
//! profile-guided management (Figure 4).
//!
//! Prophet shares the metadata table with the hardware temporal prefetcher
//! but swaps the management policies:
//!
//! * **Prophet insertion policy** — the hint's 1-bit filter (Eq. 1) replaces
//!   the runtime gate; a filtered PC's demand requests are discarded by the
//!   prefetcher entirely.
//! * **Prophet replacement policy** — inserts carry the hint's priority
//!   level (Eq. 2); victims are drawn from the lowest priority class, then
//!   the runtime policy (LRU) picks among the candidates.
//! * **Prophet resizing** — the CSR's way count is installed at program
//!   start and never changes (Eq. 3); a disabled CSR turns the prefetcher
//!   off.
//! * **Multi-path Victim Buffer** — evicted metadata targets with priority
//!   above 0 are buffered and prefetched alongside table predictions.
//!
//! Every feature can be toggled independently — the Figure 19 ablation walks
//! `Triage4+TriangelMeta → +Repla → +Insert → +MVB → +Resize`. With a
//! feature off, the corresponding *runtime* behaviour (no filter, uniform
//! priority, Bloom resizing, no MVB) applies.

use crate::hints::{CsrHint, HintBuffer, HintSet};
use crate::mvb::{MultiPathVictimBuffer, MAX_CANDIDATES};
use prophet_prefetch::traits::{
    L2Decision, L2Prefetcher, MetaTableStats, PrefetchRequest, L2_INLINE_PREFETCHES,
};
use prophet_sim_mem::hierarchy::L2Event;
use prophet_temporal::{
    InsertionPolicy, MetaRepl, MetaTableConfig, ResizePolicy, TemporalConfig, TemporalEngine,
};

/// Which Prophet features are active (Figure 19 ablation axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProphetFeatures {
    /// Profile-guided insertion filtering (Eq. 1).
    pub insertion: bool,
    /// Profile-guided replacement priorities (Eq. 2).
    pub replacement: bool,
    /// The Multi-path Victim Buffer (Section 4.5).
    pub mvb: bool,
    /// Profile-guided resizing via CSR (Eq. 3).
    pub resizing: bool,
}

impl ProphetFeatures {
    /// Everything on — full Prophet.
    pub fn all() -> Self {
        ProphetFeatures {
            insertion: true,
            replacement: true,
            mvb: true,
            resizing: true,
        }
    }

    /// Everything off — the runtime baseline of the ablation
    /// (Triage degree 4 with Triangel's metadata format).
    pub fn none() -> Self {
        ProphetFeatures {
            insertion: false,
            replacement: false,
            mvb: false,
            resizing: false,
        }
    }
}

impl Default for ProphetFeatures {
    fn default() -> Self {
        Self::all()
    }
}

/// Chained prefetch degree of the runtime machinery (the ablation baseline
/// is Triage at degree 4, Section 5.9).
const DEGREE: usize = 4;
// One decision is the chain plus one MVB path per candidate.
const _: () = assert!(
    DEGREE + MAX_CANDIDATES <= L2_INLINE_PREFETCHES,
    "a chain plus its MVB paths must fit an L2Decision"
);

/// LLC ways the table starts with when profile-guided resizing is off.
const RUNTIME_WAYS: usize = 4;

/// Events between runtime (Bloom) resizing decisions when profile-guided
/// resizing is off.
const RUNTIME_RESIZE_WINDOW: u64 = 100_000;

/// Prophet configuration: the two knobs the paper's studies vary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProphetConfig {
    /// Figure 19's ablation axes.
    pub features: ProphetFeatures,
    /// Markov-target candidates per MVB entry, 1 to 4 (Figure 16c
    /// evaluates 1 / 2 / 4; **1** is the paper's choice).
    pub mvb_candidates: usize,
}

impl Default for ProphetConfig {
    fn default() -> Self {
        ProphetConfig {
            features: ProphetFeatures::all(),
            mvb_candidates: 1,
        }
    }
}

/// The Prophet prefetcher.
pub struct Prophet {
    features: ProphetFeatures,
    engine: TemporalEngine,
    hints: HintBuffer,
    csr: CsrHint,
    mvb: MultiPathVictimBuffer,
}

impl Prophet {
    /// Builds Prophet from an optimized binary's hint set.
    pub fn new(cfg: ProphetConfig, hint_set: &HintSet) -> Self {
        let mut hints = HintBuffer::default();
        hints.load(hint_set);
        let csr = if cfg.features.resizing {
            hint_set.csr
        } else {
            CsrHint {
                enabled: true,
                meta_ways: RUNTIME_WAYS,
            }
        };
        let resize = if cfg.features.resizing {
            ResizePolicy::Fixed
        } else {
            ResizePolicy::Bloom {
                window: RUNTIME_RESIZE_WINDOW,
            }
        };
        let engine = TemporalEngine::new(TemporalConfig {
            degree: DEGREE,
            // The hint's filter runs before the engine (`on_l2_access`).
            insertion: InsertionPolicy::Always,
            resize,
            table: MetaTableConfig {
                // Runtime replacement among Prophet's candidates is LRU
                // (Section 4.2); the priority pre-filter is the Prophet
                // stage and is toggled by the feature flag.
                repl: MetaRepl::Lru,
                priority_replacement: cfg.features.replacement,
                ..MetaTableConfig::default()
            },
            initial_ways: if csr.enabled { csr.meta_ways } else { 0 },
        });
        Prophet {
            mvb: MultiPathVictimBuffer::new(cfg.mvb_candidates),
            engine,
            hints,
            csr,
            features: cfg.features,
        }
    }

    /// Seeds the metadata table + trainer from a warm-up checkpoint. The
    /// checkpointed table was trained under the simplified configuration;
    /// its contents adapt to this Prophet's CSR way count exactly as a
    /// resize would (entries beyond the partition drop).
    pub fn seed_warmup(&mut self, snap: &prophet_temporal::TemporalSnapshot) {
        self.engine.load_warmup(snap);
    }
}

impl L2Prefetcher for Prophet {
    fn name(&self) -> &'static str {
        "prophet"
    }

    fn on_l2_access(&mut self, ev: &L2Event) -> L2Decision {
        if !self.csr.enabled {
            return L2Decision::none();
        }
        let hint = self.hints.get_or_default(ev.pc.0);
        // Prophet insertion policy: discard the PC's demand requests
        // entirely (no training, no lookup — the hint says the PC has no
        // solvable temporal pattern).
        if self.features.insertion && !hint.insert {
            self.engine.note_rejected_event();
            return L2Decision::none();
        }
        let priority = if self.features.replacement {
            hint.priority
        } else {
            1
        };
        let mut d = self.engine.decide(ev, priority);

        // Feed evicted/displaced Markov targets to the MVB, then search it
        // with the same lookup address: stored targets that differ from
        // the table's prediction and are not already on the chain are
        // prefetched as additional paths.
        if self.features.mvb {
            for e in self.engine.drain_evictions() {
                self.mvb.insert(e.key, e.target, e.priority);
            }
            let key = self.engine.key_of(ev.line);
            let table_target = d.prefetches.first().map(|r| r.line);
            for line in self.mvb.lookup(key, table_target) {
                let req = PrefetchRequest {
                    line,
                    trigger_pc: ev.pc,
                };
                if !d.prefetches.contains(&req) {
                    d.prefetches.push(req);
                }
            }
        }
        d
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
    use crate::hints::PcHint;
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

    fn hintset(pc_hints: Vec<(u64, PcHint)>, ways: usize) -> HintSet {
        HintSet {
            pc_hints,
            csr: CsrHint {
                enabled: ways > 0,
                meta_ways: ways,
            },
        }
    }

    #[test]
    fn filtered_pc_is_fully_discarded() {
        let hints = hintset(
            vec![(
                1,
                PcHint {
                    insert: false,
                    priority: 0,
                },
            )],
            4,
        );
        let mut p = Prophet::new(ProphetConfig::default(), &hints);
        for l in [10u64, 20, 30, 10, 20, 30] {
            let d = p.on_l2_access(&event(1, l));
            assert!(d.prefetches.is_empty(), "filtered PC must never prefetch");
        }
        assert_eq!(p.meta_stats().insertions, 0);
        assert_eq!(p.meta_stats().rejected_insertions, 6);
    }

    #[test]
    fn unfiltered_pc_trains_and_prefetches() {
        let hints = hintset(
            vec![(
                1,
                PcHint {
                    insert: true,
                    priority: 3,
                },
            )],
            4,
        );
        let mut p = Prophet::new(ProphetConfig::default(), &hints);
        for _ in 0..2 {
            for l in [10u64, 20, 30] {
                p.on_l2_access(&event(1, l));
            }
        }
        let d = p.on_l2_access(&event(1, 10));
        assert!(d.prefetches.iter().any(|r| r.line == Line(20)));
    }

    #[test]
    fn disabled_csr_turns_prefetching_off() {
        let hints = hintset(vec![], 0);
        let mut p = Prophet::new(ProphetConfig::default(), &hints);
        assert_eq!(p.meta_ways(), 0);
        for l in [10u64, 20, 30, 10, 20] {
            assert!(p.on_l2_access(&event(1, l)).prefetches.is_empty());
        }
    }

    #[test]
    fn resizing_feature_off_uses_runtime_ways() {
        let hints = hintset(vec![], 8);
        let cfg = ProphetConfig {
            features: ProphetFeatures {
                resizing: false,
                ..ProphetFeatures::all()
            },
            ..ProphetConfig::default()
        };
        let p = Prophet::new(cfg, &hints);
        assert_eq!(p.meta_ways(), 4, "runtime default, not the CSR's 8");
    }

    #[test]
    fn mvb_supplies_second_path() {
        // Teach two interleaved sequences (A,B,C) and (A,B,D) so B gets two
        // targets; the MVB must recover the evicted one.
        let hints = hintset(
            vec![(
                1,
                PcHint {
                    insert: true,
                    priority: 3,
                },
            )],
            4,
        );
        let mut p = Prophet::new(ProphetConfig::default(), &hints);
        let a = 100u64;
        let b = 101u64;
        let c = 102u64;
        let d = 103u64;
        // Alternate the two sequences several times.
        for _ in 0..3 {
            for l in [a, b, c] {
                p.on_l2_access(&event(1, l));
            }
            for l in [a, b, d] {
                p.on_l2_access(&event(1, l));
            }
        }
        // Now access B: the table holds one target, the MVB the other.
        let dec = p.on_l2_access(&event(1, b));
        let lines: Vec<u64> = dec.prefetches.iter().map(|r| r.line.0).collect();
        assert!(
            lines.contains(&c) && lines.contains(&d),
            "both Markov paths of B must be prefetched, got {lines:?}"
        );
    }

    #[test]
    fn mvb_feature_off_loses_second_path() {
        let hints = hintset(
            vec![(
                1,
                PcHint {
                    insert: true,
                    priority: 3,
                },
            )],
            4,
        );
        let cfg = ProphetConfig {
            features: ProphetFeatures {
                mvb: false,
                ..ProphetFeatures::all()
            },
            ..ProphetConfig::default()
        };
        let mut p = Prophet::new(cfg, &hints);
        for _ in 0..3 {
            for l in [100u64, 101, 102] {
                p.on_l2_access(&event(1, l));
            }
            for l in [100u64, 101, 103] {
                p.on_l2_access(&event(1, l));
            }
        }
        let dec = p.on_l2_access(&event(1, 101));
        assert!(
            dec.prefetches.len() <= 1 + 3, /* chain may follow */
            "without the MVB only the table's single path is followed"
        );
    }

    /// At four MVB candidates one decision is full: the degree-4 chain, then
    /// every buffered path of the source the table no longer predicts.
    #[test]
    fn four_candidates_fill_one_decision() {
        let hints = hintset(
            vec![(
                1,
                PcHint {
                    insert: true,
                    priority: 3,
                },
            )],
            4,
        );
        let cfg = ProphetConfig {
            mvb_candidates: 4,
            ..ProphetConfig::default()
        };
        let mut p = Prophet::new(cfg, &hints);
        // B is followed by Y1..Y4 in turn, each target displacing the last
        // into the MVB, and finally by the chain X1..X5.
        let b = 0x1000u64;
        let ys = [0x2100u64, 0x2200, 0x2300, 0x2400];
        let xs = [0x3100u64, 0x3200, 0x3300, 0x3400, 0x3500];
        for y in ys {
            p.on_l2_access(&event(1, b));
            p.on_l2_access(&event(1, y));
        }
        for l in std::iter::once(b).chain(xs) {
            p.on_l2_access(&event(1, l));
        }
        let dec = p.on_l2_access(&event(1, b));
        let want: Vec<PrefetchRequest> = xs[..4]
            .iter()
            .chain(&ys)
            .map(|&l| PrefetchRequest {
                line: Line(l),
                trigger_pc: Pc(1),
            })
            .collect();
        assert_eq!(dec.prefetches, want);
    }

    /// Only Triangel's gate reads per-PC confidence, so only its engine
    /// keeps any: the profiling engine and Prophet's (whose Eq. 1 filter
    /// runs before the engine) build no per-PC state.
    #[test]
    fn only_triangels_gate_keeps_per_pc_confidence() {
        use prophet_temporal::Triangel;
        let hints = hintset(
            vec![(
                1,
                PcHint {
                    insert: true,
                    priority: 3,
                },
            )],
            4,
        );
        let mut prophet = Prophet::new(ProphetConfig::default(), &hints);
        let mut always = TemporalEngine::new(TemporalConfig::simplified_profiling());
        let mut triangel = Triangel::default();
        for i in 0..64u64 {
            let ev = event(1 + i % 4, 100 + i);
            prophet.on_l2_access(&ev);
            always.decide(&ev, 1);
            triangel.on_l2_access(&ev);
        }
        for pc in (1..=4).map(Pc) {
            assert_eq!(always.pattern_conf(pc), None, "profiling engine, {pc:?}");
            assert_eq!(prophet.engine.pattern_conf(pc), None, "Prophet, {pc:?}");
            assert!(triangel.pattern_conf(pc).is_some(), "Triangel, {pc:?}");
        }
    }
}
