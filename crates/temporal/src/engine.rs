//! The shared temporal-prefetching engine.
//!
//! Triage, Triangel and Prophet differ in *policies* (insertion filtering,
//! metadata replacement, resizing) but share the same machinery (Figure 3):
//! a PC-localized training unit, the compressed Markov metadata table in
//! LLC ways, and chained lookups for degree-k prefetching. This engine
//! implements the machinery with pluggable policies, each owning the state
//! it reads:
//!
//! * [`InsertionPolicy::Always`] — Triage, Prophet and the *simplified*
//!   profiling prefetcher of Prophet's Step 1 (Prophet's Eq. 1 filter
//!   discards a PC's events before they reach the engine, Section 4.2);
//! * [`InsertionPolicy::PatternConf`] — Triangel's PatternConf + ReuseConf
//!   gate (Section 2.1.1), including the Figure 1 pathology: a burst of
//!   useless metadata accesses drives the 4-bit counter to zero and
//!   subsequent insertions (and prefetches) are rejected. Only this gate
//!   keeps per-PC confidence state.
//!
//! Resizing is likewise pluggable: fixed (profiling and Prophet's CSR),
//! Bloom-filter driven (Triage) or a Set-Dueller-style hit-rate controller
//! (Triangel). Insertion priority (Prophet's Eq. 2) is an argument of
//! [`TemporalEngine::decide`], not a policy.

use crate::metadata::{
    EvictedMeta, InsertOutcome, MetaTableConfig, MetaTableSnapshot, MetadataTable, ENTRIES_PER_LINE,
};
use crate::training::{TrainingSnapshot, TrainingUnit};
use crate::SatCounter;
use prophet_prefetch::{L2Decision, MetaTableStats, PrefetchRequest, L2_INLINE_PREFETCHES};
use prophet_sim_mem::bloom::CountingBloom;
use prophet_sim_mem::hierarchy::L2Event;
use prophet_sim_mem::{FlatMap, Line, Pc};

/// Insertion (training-data filtering) policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertionPolicy {
    /// Train on everything (Triage; Prophet; simplified profiling).
    Always,
    /// Triangel's gate: insert (and prefetch) only while the per-PC
    /// PatternConf / ReuseConf counters are at or above the thresholds.
    PatternConf {
        pattern_threshold: u8,
        reuse_threshold: u8,
    },
}

/// Metadata-table resizing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizePolicy {
    /// Never resize (profiling's fixed 1 MB; Prophet's CSR-programmed size).
    Fixed,
    /// Triage: size to the Bloom-estimated distinct-entry count, evaluated
    /// every `window` events.
    Bloom { window: u64 },
    /// Triangel's Set-Dueller-style controller: grow on high metadata hit
    /// rate, shrink on low, evaluated every `window` events.
    Dueller { window: u64 },
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct TemporalConfig {
    /// Chained-lookup prefetch degree, at most [`L2_INLINE_PREFETCHES`].
    pub degree: usize,
    pub insertion: InsertionPolicy,
    pub resize: ResizePolicy,
    /// Table geometry and runtime replacement.
    pub table: MetaTableConfig,
    /// LLC ways the table occupies initially.
    pub initial_ways: usize,
}

impl TemporalConfig {
    /// The *simplified temporal prefetcher* of Prophet's profiling Step 1:
    /// no insertion policy, fixed 1 MB (8-way) table, degree 1, LRU
    /// replacement (Section 3.2).
    pub fn simplified_profiling() -> Self {
        TemporalConfig {
            degree: 1,
            insertion: InsertionPolicy::Always,
            resize: ResizePolicy::Fixed,
            table: MetaTableConfig {
                repl: crate::metadata::MetaRepl::Lru,
                ..MetaTableConfig::default()
            },
            initial_ways: prophet_sim_mem::MAX_META_WAYS,
        }
    }
}

/// The scheme-independent warm state of a temporal engine: the Markov
/// metadata table plus the PC-localized training unit. This is what a
/// warm-up checkpoint carries (DESIGN.md §6) — per-policy confidence state
/// (PatternConf/ReuseConf, Bloom filters, dueller windows) is deliberately
/// excluded because it is scheme-specific and relearns in the measurement
/// window.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalSnapshot {
    pub table: MetaTableSnapshot,
    pub trainer: TrainingSnapshot,
}

#[derive(Debug, Clone)]
struct PcState {
    pattern: SatCounter,
    reuse: SatCounter,
    /// An address sampled for reuse-distance measurement: (line, seq).
    sample: Option<(Line, u64)>,
}

impl Default for PcState {
    fn default() -> Self {
        PcState {
            pattern: SatCounter::new(4, 8),
            reuse: SatCounter::new(4, 8),
            sample: None,
        }
    }
}

/// Triangel's PatternConf/ReuseConf gate and the per-PC state it reads.
#[derive(Debug, Clone)]
struct ConfGate {
    pattern_threshold: u8,
    reuse_threshold: u8,
    /// Reuse distance (in events) a pattern must fit to be solvable: the
    /// entries of a maximum-size table. Triangel sizes this against the
    /// maximum the LLC could host, not the transient dueller size —
    /// otherwise a small current size would reject the very insertions
    /// that would justify growing.
    capacity: u64,
    pcs: FlatMap<PcState>,
    /// Events seen, the clock of the reuse samples.
    seq: u64,
}

impl ConfGate {
    /// Trains `ev.pc`'s counters on this event and returns whether the PC
    /// may insert and whether it may prefetch.
    ///
    /// PatternConf is trained on metadata outcomes (Figure 1): if the
    /// table already holds a correlation for the training pair's `prev`,
    /// that stored target matching the actual successor is a useful
    /// metadata access (blue dot, increment), a mismatch is a useless one
    /// (red dot, decrement), and a missing entry is a first metadata
    /// access (star: no confidence update).
    fn judge(
        &mut self,
        table: &MetadataTable,
        ev: &L2Event,
        pair: Option<(Line, Line)>,
    ) -> (bool, bool) {
        self.seq += 1;
        let st = self.pcs.get_or_insert_with(ev.pc.0, PcState::default);
        if let Some((prev, cur)) = pair {
            match table.peek(prev) {
                Some(t) if t == cur => st.pattern.inc(),
                Some(_) => st.pattern.dec(),
                None => {}
            }
        }

        // Reuse-distance sampling for ReuseConf.
        match st.sample {
            Some((s, t0)) if s == ev.line => {
                if self.seq - t0 <= self.capacity {
                    st.reuse.inc();
                } else {
                    st.reuse.dec();
                }
                st.sample = None;
            }
            Some((_, t0)) if self.seq - t0 > 4 * self.capacity => {
                // Sampled address never re-seen within reach: not solvable.
                st.reuse.dec();
                st.sample = None;
            }
            None => st.sample = Some((ev.line, self.seq)),
            _ => {}
        }

        // Figure 1: below threshold Triangel neither inserts nor
        // prefetches for the PC.
        let pattern_ok = st.pattern.at_least(self.pattern_threshold);
        (
            pattern_ok && st.reuse.at_least(self.reuse_threshold),
            pattern_ok,
        )
    }
}

/// The Set Dueller's state: a sampled full-size (8-way) miniature table
/// covering 1/32 of the sets, estimating the hit rate a maximum-size
/// table would achieve regardless of the current size.
#[derive(Debug, Clone)]
struct Dueller {
    window: u64,
    events: u64,
    shadow: MetadataTable,
    lookups: u64,
    hits: u64,
}

/// One in `SHADOW_SAMPLE` sets is mirrored in the dueller's shadow table.
const SHADOW_SAMPLE: usize = 32;

impl Dueller {
    /// Whether `line` falls in a set mirrored by the shadow.
    fn sampled(line: Line) -> bool {
        (line.0 as usize) & (SHADOW_SAMPLE - 1) == 0
    }

    /// Shadow-table index of a sampled line: the sampling bits are dropped
    /// so sampled lines spread over all shadow sets.
    fn shadow_line(line: Line) -> Line {
        Line(line.0 >> SHADOW_SAMPLE.trailing_zeros())
    }
}

/// The resizing policy with the state it reads.
#[derive(Debug, Clone)]
enum Resizer {
    Fixed,
    Bloom {
        window: u64,
        events: u64,
        bloom: CountingBloom,
    },
    Dueller(Box<Dueller>),
}

/// The temporal-prefetching engine.
#[derive(Debug, Clone)]
pub struct TemporalEngine {
    degree: usize,
    table: MetadataTable,
    trainer: TrainingUnit,
    /// Triangel's gate; `None` under [`InsertionPolicy::Always`].
    conf: Option<ConfGate>,
    resizer: Resizer,
    evictions: Vec<EvictedMeta>,
}

impl TemporalEngine {
    /// Builds the engine.
    ///
    /// # Panics
    /// Panics if `cfg.degree` exceeds [`L2_INLINE_PREFETCHES`], the most
    /// requests one [`L2Decision`] holds.
    pub fn new(cfg: TemporalConfig) -> Self {
        assert!(
            cfg.degree <= L2_INLINE_PREFETCHES,
            "a temporal engine chains at most {L2_INLINE_PREFETCHES} lookups per event, not {}",
            cfg.degree
        );
        let conf = match cfg.insertion {
            InsertionPolicy::Always => None,
            InsertionPolicy::PatternConf {
                pattern_threshold,
                reuse_threshold,
            } => Some(ConfGate {
                pattern_threshold,
                reuse_threshold,
                capacity: ((cfg.table.sets * cfg.table.max_ways * ENTRIES_PER_LINE) as u64).max(1),
                pcs: FlatMap::new(),
                seq: 0,
            }),
        };
        let resizer = match cfg.resize {
            ResizePolicy::Fixed => Resizer::Fixed,
            ResizePolicy::Bloom { window } => Resizer::Bloom {
                window,
                events: 0,
                bloom: CountingBloom::new(1 << 16, 3),
            },
            ResizePolicy::Dueller { window } => Resizer::Dueller(Box::new(Dueller {
                window,
                events: 0,
                shadow: MetadataTable::new(
                    MetaTableConfig {
                        sets: (cfg.table.sets / SHADOW_SAMPLE).max(1),
                        ..cfg.table
                    },
                    cfg.table.max_ways,
                ),
                lookups: 0,
                hits: 0,
            })),
        };
        TemporalEngine {
            degree: cfg.degree,
            table: MetadataTable::new(cfg.table, cfg.initial_ways),
            trainer: TrainingUnit::default(),
            conf,
            resizer,
            evictions: Vec::new(),
        }
    }

    /// Current metadata way count.
    pub fn ways(&self) -> usize {
        self.table.ways()
    }

    /// Metadata-table counters.
    pub fn meta_stats(&self) -> MetaTableStats {
        self.table.stats()
    }

    /// Counts an event an external insertion hint discarded before it
    /// reached the engine (Prophet's Eq. 1 filter), in the table's
    /// `rejected_insertions`.
    pub fn note_rejected_event(&mut self) {
        self.table.note_rejected_insertion();
    }

    /// Current PatternConf value of `pc` (Figure 1 instrumentation);
    /// `None` for a PC the gate has not seen, and always `None` for an
    /// engine without the PatternConf gate.
    pub fn pattern_conf(&self, pc: Pc) -> Option<u8> {
        self.conf.as_ref()?.pcs.get(pc.0).map(|s| s.pattern.value())
    }

    /// Drains metadata evictions accumulated since the last call (consumed
    /// by Prophet's Multi-path Victim Buffer). Returning a `Drain` keeps
    /// the queue's capacity, so the steady-state loop never re-allocates.
    pub fn drain_evictions(&mut self) -> std::vec::Drain<'_, EvictedMeta> {
        self.evictions.drain(..)
    }

    /// Stable MVB key of a line (delegates to the table's tag/set split).
    pub fn key_of(&self, line: Line) -> u64 {
        self.table.key_of(line)
    }

    /// Captures the scheme-independent warm state (table + trainer) for a
    /// warm-up checkpoint.
    pub fn warmup_snapshot(&self) -> TemporalSnapshot {
        TemporalSnapshot {
            table: self.table.snapshot(),
            trainer: self.trainer.snapshot(),
        }
    }

    /// Seeds this engine from a warm-up checkpoint: the metadata table's
    /// contents are adopted (clamped to this engine's current way count,
    /// like a resize) and the training unit resumes the checkpointed
    /// per-PC history. Policy state (confidence counters, Bloom/dueller
    /// windows) and all counters start fresh.
    pub fn load_warmup(&mut self, snap: &TemporalSnapshot) {
        self.table.restore_contents(&snap.table);
        self.trainer.restore(&snap.trainer);
    }

    /// Processes one L2 event and returns its decision: the chained Markov
    /// targets, requested on behalf of `ev.pc`, and a resize when the
    /// policy fired. A correlation the event trains is recorded at
    /// replacement priority level `priority` (Prophet's Eq. 2; every other
    /// scheme trains at a uniform 1). The metadata this event evicts stays
    /// queued for [`drain_evictions`](Self::drain_evictions) until the next
    /// call, which drops it.
    pub fn decide(&mut self, ev: &L2Event, priority: u8) -> L2Decision {
        self.evictions.clear();
        // Form the training pair first. Only the miss stream trains,
        // L1-prefetch requests included (Section 5.1: the L2 access stream
        // carries them). Classic temporal prefetchers correlate misses;
        // training on L2 hits would let high-locality traffic shred the
        // miss-correlation context. Lookups still happen on every event so
        // chains keep running.
        let pair = if ev.l2_hit {
            None
        } else {
            self.trainer.observe(ev.pc, ev.line)
        };
        let (allow_insert, allow_prefetch) = match &mut self.conf {
            None => (true, true),
            Some(g) => g.judge(&self.table, ev, pair),
        };

        if let Some((prev, cur)) = pair {
            if allow_insert {
                self.train(prev, cur, priority);
            } else {
                self.table.note_rejected_insertion();
            }
        }

        // Shadow lookup for the dueller's full-size hit-rate estimate.
        if let Resizer::Dueller(d) = &mut self.resizer {
            if Dueller::sampled(ev.line) {
                d.lookups += 1;
                if d.shadow.lookup(Dueller::shadow_line(ev.line)).is_some() {
                    d.hits += 1;
                }
            }
        }

        // Predict: chained lookups up to the degree.
        let mut d = L2Decision::default();
        if allow_prefetch && self.table.ways() > 0 {
            let mut cur = ev.line;
            for _ in 0..self.degree {
                match self.table.lookup(cur) {
                    Some(line) => {
                        d.prefetches.push(PrefetchRequest {
                            line,
                            trigger_pc: ev.pc,
                        });
                        cur = line;
                    }
                    None => break,
                }
            }
        }
        d.resize_meta_ways = self.maybe_resize();
        d
    }

    /// Inserts the correlation `prev → cur` and keeps the resizer's view of
    /// the written sources current.
    fn train(&mut self, prev: Line, cur: Line, priority: u8) {
        let outcome = self.table.insert(prev, cur, priority);
        match outcome {
            InsertOutcome::Replaced(e) | InsertOutcome::UpdatedTarget(e) => self.evictions.push(e),
            InsertOutcome::Allocated | InsertOutcome::Unchanged => {}
        }
        match &mut self.resizer {
            // Triage's Bloom filter tracks distinct *sources* written to
            // the table (allocations and replacements alike): its
            // distinct-entry estimate is the footprint the table would
            // need, not the table's current occupancy.
            Resizer::Bloom { bloom, .. } => {
                if outcome != InsertOutcome::Unchanged {
                    bloom.insert(self.table.key_of(prev));
                }
            }
            // Mirror sampled sets into the dueller's full-size shadow.
            Resizer::Dueller(d) => {
                if Dueller::sampled(prev) {
                    d.shadow.insert(Dueller::shadow_line(prev), cur, priority);
                }
            }
            Resizer::Fixed => {}
        }
    }

    fn maybe_resize(&mut self) -> Option<usize> {
        let max_ways = self.table.config().max_ways;
        let cur = self.table.ways();
        let ways = match &mut self.resizer {
            Resizer::Fixed => return None,
            Resizer::Bloom {
                window,
                events,
                bloom,
            } => {
                *events += 1;
                if *events < *window {
                    return None;
                }
                *events = 0;
                let per_way = (self.table.config().sets * ENTRIES_PER_LINE) as u64;
                let distinct = bloom.distinct_estimate();
                bloom.clear();
                distinct.div_ceil(per_way).clamp(1, max_ways as u64) as usize
            }
            Resizer::Dueller(d) => {
                d.events += 1;
                if d.events < d.window {
                    return None;
                }
                d.events = 0;
                let rate_full = d.hits as f64 / d.lookups.max(1) as f64;
                let sampled = d.lookups;
                d.lookups = 0;
                d.hits = 0;
                // Set-Dueller controller: the sampled full-size shadow says
                // what an 8-way table would achieve; grow while it clearly
                // beats the current size, shrink when even the full table
                // finds no reuse. The thresholds bias conservative (the
                // paper observes Triangel "often chooses overly
                // conservative metadata table sizes", Section 2.1.3).
                // Proportional target, one doubling/halving step per
                // window for hysteresis. The floor of 2 ways matches
                // Triangel's smallest duelled configuration.
                let target = ((max_ways as f64) * rate_full).round() as usize;
                let target = target.clamp(2, max_ways);
                if sampled < 64 {
                    cur // too few samples to act on
                } else if rate_full < 0.15 {
                    // Even a full-size table finds no reuse (the ~10% floor
                    // is 10-bit tag aliasing, not real hits).
                    (cur / 2).max(2)
                } else if target > cur {
                    (cur * 2).min(max_ways)
                } else if target < cur / 2 && rate_full < 0.30 {
                    (cur / 2).max(2)
                } else {
                    cur
                }
            }
        };
        if ways == cur {
            return None;
        }
        self.table.resize_into(ways, &mut self.evictions);
        Some(ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::MetaRepl;

    fn event(pc: u64, line: u64) -> L2Event {
        L2Event {
            pc: Pc(pc),
            line: Line(line),
            l2_hit: false,
            from_l1_prefetch: false,
            now: 0,
        }
    }

    /// The lines a decision prefetches, in order.
    fn lines(d: &L2Decision) -> Vec<Line> {
        d.prefetches.iter().map(|r| r.line).collect()
    }

    fn engine(insertion: InsertionPolicy, degree: usize) -> TemporalEngine {
        TemporalEngine::new(TemporalConfig {
            degree,
            insertion,
            resize: ResizePolicy::Fixed,
            table: MetaTableConfig {
                sets: 64,
                max_ways: 8,
                repl: MetaRepl::Lru,
                priority_replacement: false,
            },
            initial_ways: 8,
        })
    }

    #[test]
    fn learns_a_repeating_sequence() {
        let mut e = engine(InsertionPolicy::Always, 1);
        let seq = [10u64, 20, 30, 40];
        // First pass trains.
        for &l in &seq {
            e.decide(&event(1, l), 1);
        }
        // Second pass predicts the successor of each access.
        let mut predicted = Vec::new();
        for &l in &seq {
            let d = e.decide(&event(1, l), 1);
            predicted.extend(lines(&d));
        }
        assert!(predicted.contains(&Line(20)));
        assert!(predicted.contains(&Line(30)));
        assert!(predicted.contains(&Line(40)));
    }

    #[test]
    fn degree_chains_lookups() {
        let mut e = engine(InsertionPolicy::Always, 3);
        let seq = [10u64, 20, 30, 40, 50];
        for _ in 0..2 {
            for &l in &seq {
                e.decide(&event(1, l), 1);
            }
        }
        let d = e.decide(&event(1, 10), 1);
        assert_eq!(lines(&d), vec![Line(20), Line(30), Line(40)]);
    }

    #[test]
    #[should_panic(expected = "at most 8 lookups per event, not 9")]
    fn degree_beyond_a_decision_is_rejected() {
        engine(InsertionPolicy::Always, 9);
    }

    #[test]
    fn pattern_conf_drops_on_noise_and_blocks_insertion() {
        let mut e = engine(
            InsertionPolicy::PatternConf {
                pattern_threshold: 6,
                reuse_threshold: 0,
            },
            1,
        );
        // Train a clean sequence first.
        let seq: Vec<u64> = (0..16).map(|i| 100 + i).collect();
        for _ in 0..3 {
            for &l in &seq {
                e.decide(&event(1, l), 1);
            }
        }
        assert!(e.pattern_conf(Pc(1)).unwrap() >= 6);
        // Burst of *revisited* addresses whose visit order changes every
        // round (stride permutations): stored correlations exist but their
        // targets mismatch → red dots.
        let pool: Vec<u64> = (0..8).map(|i| 10_000 + i).collect();
        for round in 0..12usize {
            let step = [1usize, 3, 5, 7][round % 4];
            for j in 0..pool.len() {
                e.decide(&event(1, pool[(j * step) % pool.len()]), 1);
            }
        }
        assert!(
            e.pattern_conf(Pc(1)).unwrap() < 6,
            "a red-dot burst must collapse PatternConf (Figure 1), got {:?}",
            e.pattern_conf(Pc(1))
        );
        let rejected_before = e.meta_stats().rejected_insertions;
        for i in 0..10u64 {
            e.decide(&event(1, 20_000 + i * 991), 1);
        }
        assert!(
            e.meta_stats().rejected_insertions > rejected_before,
            "below threshold Triangel rejects insertions"
        );
    }

    #[test]
    fn insert_priority_comes_back_on_eviction() {
        // One set of one way: 12 entries, so the 13th source replaces.
        let mut e = TemporalEngine::new(TemporalConfig {
            degree: 1,
            insertion: InsertionPolicy::Always,
            resize: ResizePolicy::Fixed,
            table: MetaTableConfig {
                sets: 1,
                max_ways: 1,
                repl: MetaRepl::Lru,
                priority_replacement: false,
            },
            initial_ways: 1,
        });
        // Lines 0..=12 train the twelve pairs 0→1 … 11→12 at priority 2.
        for l in 0..=12u64 {
            e.decide(&event(1, l), 2);
        }
        assert_eq!(e.drain_evictions().len(), 0, "twelve entries fit");
        // The pair 12→13, trained at priority 3, replaces the LRU 0→1.
        e.decide(&event(1, 13), 3);
        let ev: Vec<_> = e.drain_evictions().collect();
        assert_eq!(
            ev,
            vec![EvictedMeta {
                key: e.key_of(Line(0)),
                target: Line(1),
                priority: 2,
            }],
            "the victim carries the priority it was inserted at"
        );
    }

    #[test]
    fn bloom_resize_grows_with_footprint() {
        let mut e = TemporalEngine::new(TemporalConfig {
            degree: 1,
            insertion: InsertionPolicy::Always,
            resize: ResizePolicy::Bloom { window: 2_000 },
            table: MetaTableConfig {
                sets: 64,
                max_ways: 8,
                repl: MetaRepl::Lru,
                priority_replacement: false,
            },
            initial_ways: 1,
        });
        // A long cyclic sequence with far more entries than one way holds
        // (64 sets × 12 = 768/way): footprint 4000 pairs.
        let mut resized_to = None;
        for round in 0..3 {
            for i in 0..4_000u64 {
                let d = e.decide(&event(1, i), 1);
                if let Some(w) = d.resize_meta_ways {
                    resized_to = Some(w);
                }
            }
            let _ = round;
        }
        assert!(
            resized_to.map(|w| w > 1).unwrap_or(false),
            "Bloom resizing must grow the table, got {resized_to:?}"
        );
    }

    #[test]
    fn dueller_shrinks_on_useless_metadata() {
        let mut e = TemporalEngine::new(TemporalConfig {
            degree: 1,
            insertion: InsertionPolicy::Always,
            resize: ResizePolicy::Dueller { window: 4_000 },
            table: MetaTableConfig {
                sets: 64,
                max_ways: 8,
                repl: MetaRepl::Lru,
                priority_replacement: false,
            },
            initial_ways: 4,
        });
        // Pure random traffic: even the full-size shadow finds no reuse.
        // (splitmix64: anything weaker leaves arithmetic structure in the
        // truncated set+tag bits and fabricates phantom reuse.)
        fn splitmix64(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
        let mut w = e.ways();
        for i in 0..40_000u64 {
            let line = splitmix64(i) & ((1 << 30) - 1);
            let d = e.decide(&event(1, line), 1);
            if let Some(nw) = d.resize_meta_ways {
                w = nw;
            }
        }
        assert!(w < 4, "random traffic must shrink the dueller, got {w}");
    }

    #[test]
    fn warmup_snapshot_seeds_a_fresh_engine() {
        let mut warm = engine(InsertionPolicy::Always, 1);
        let seq = [10u64, 20, 30, 40];
        for &l in &seq {
            warm.decide(&event(1, l), 1);
        }
        let snap = warm.warmup_snapshot();

        let mut fresh = engine(InsertionPolicy::Always, 1);
        fresh.load_warmup(&snap);
        // The seeded engine predicts immediately (table) and continues the
        // training chain (trainer remembers 40 as PC 1's last line).
        let d = fresh.decide(&event(1, 10), 1);
        assert_eq!(lines(&d), vec![Line(20)]);
        assert_eq!(
            fresh.table.peek(Line(40)),
            Some(Line(10)),
            "the 40→10 pair came from the restored trainer history"
        );
        assert_eq!(fresh.meta_stats().lookups, 1, "counters started fresh");
    }

    #[test]
    fn warmup_seed_respects_smaller_tables() {
        let mut warm = engine(InsertionPolicy::Always, 1);
        for i in 0..4_000u64 {
            warm.decide(&event(1, i), 1);
        }
        let snap = warm.warmup_snapshot();
        let mut small = TemporalEngine::new(TemporalConfig {
            degree: 1,
            insertion: InsertionPolicy::Always,
            resize: ResizePolicy::Fixed,
            table: MetaTableConfig {
                sets: 64,
                max_ways: 8,
                repl: MetaRepl::Lru,
                priority_replacement: false,
            },
            initial_ways: 2,
        });
        small.load_warmup(&snap);
        assert!(
            small.table.occupancy() <= small.table.capacity(),
            "seeding clamps to the configured ways"
        );
        assert_eq!(small.ways(), 2);
    }

    #[test]
    fn evictions_are_drained_for_the_mvb() {
        let mut e = engine(InsertionPolicy::Always, 1);
        // Multi-target pattern: A→B then A→C repeatedly.
        e.decide(&event(1, 1), 1);
        e.decide(&event(1, 2), 1); // trains 1→2
        e.decide(&event(1, 1), 1); // trains 2→1
        e.decide(&event(1, 3), 1); // trains 1→3, displacing 1→2
        let ev: Vec<_> = e.drain_evictions().collect();
        assert!(
            ev.iter().any(|m| m.target == Line(2)),
            "displaced target B must surface for the MVB: {ev:?}"
        );
        assert_eq!(e.drain_evictions().len(), 0, "drain empties the queue");
    }

    #[test]
    fn simplified_profiling_config_matches_paper() {
        let cfg = TemporalConfig::simplified_profiling();
        assert_eq!(cfg.degree, 1);
        assert_eq!(cfg.initial_ways, 8, "fixed 1 MB table");
        assert_eq!(cfg.insertion, InsertionPolicy::Always);
        assert_eq!(cfg.resize, ResizePolicy::Fixed);
    }
}
