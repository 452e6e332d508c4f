//! The shared temporal-prefetching engine.
//!
//! Triage, Triangel and Prophet differ in *policies* (insertion filtering,
//! metadata replacement, resizing) but share the same machinery (Figure 3):
//! a PC-localized training unit, the compressed Markov metadata table in
//! LLC ways, and chained lookups for degree-k prefetching. This engine
//! implements the machinery with pluggable policies:
//!
//! * [`InsertionPolicy::Always`] — Triage (no filter) and the *simplified*
//!   profiling prefetcher of Prophet's Step 1;
//! * [`InsertionPolicy::PatternConf`] — Triangel's PatternConf + ReuseConf
//!   gate (Section 2.1.1), including the Figure 1 pathology: a burst of
//!   useless metadata accesses drives the 4-bit counter to zero and
//!   subsequent insertions (and prefetches) are rejected;
//! * [`InsertionPolicy::External`] — the gate is decided per event by the
//!   caller (Prophet's profile-guided hints, Section 4.2).
//!
//! Resizing is likewise pluggable: fixed (profiling and Prophet's CSR),
//! Bloom-filter driven (Triage) or a Set-Dueller-style hit-rate controller
//! (Triangel).

use crate::metadata::{
    EvictedMeta, InsertOutcome, MetaTableConfig, MetaTableSnapshot, MetadataTable,
};
use crate::training::{TrainingSnapshot, TrainingUnit};
use crate::SatCounter;
use prophet_prefetch::{MetaTableStats, SmallList};
use prophet_sim_mem::bloom::CountingBloom;
use prophet_sim_mem::hierarchy::L2Event;
use prophet_sim_mem::{FlatMap, Line, Pc};

/// Insertion (training-data filtering) policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertionPolicy {
    /// Train on everything (Triage; simplified profiling configuration).
    Always,
    /// Triangel's gate: insert (and prefetch) only while the per-PC
    /// PatternConf / ReuseConf counters are at or above the thresholds.
    PatternConf {
        pattern_threshold: u8,
        reuse_threshold: u8,
    },
    /// The caller decides per event (Prophet hints).
    External,
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

/// Per-event external gate (Prophet's hint for the triggering PC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExternalGate {
    /// Train/insert metadata for this event?
    pub allow_insert: bool,
    /// Replacement priority level recorded on insertion (Eq. 2).
    pub priority: u8,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct TemporalConfig {
    /// Chained-lookup prefetch degree.
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

/// What the engine wants after one event.
#[derive(Debug, Clone, Default)]
pub struct TemporalDecision {
    /// Chained Markov targets to prefetch, in lookup order. Inline up to 8
    /// targets so the steady-state engine loop performs no heap allocation.
    pub targets: SmallList<Line, 8>,
    /// New metadata way count, when the resize policy fired.
    pub resize: Option<usize>,
}

#[derive(Debug, Clone)]
struct PcState {
    pattern: SatCounter,
    reuse: SatCounter,
    /// An address sampled for reuse-distance measurement: (line, seq).
    sample: Option<(Line, u64)>,
}

impl PcState {
    fn new() -> Self {
        PcState {
            pattern: SatCounter::new(4, 8),
            reuse: SatCounter::new(4, 8),
            sample: None,
        }
    }
}

impl Default for PcState {
    fn default() -> Self {
        PcState::new()
    }
}

/// The temporal-prefetching engine.
#[derive(Debug, Clone)]
pub struct TemporalEngine {
    cfg: TemporalConfig,
    table: MetadataTable,
    trainer: TrainingUnit,
    pcs: FlatMap<PcState>,
    seq: u64,
    bloom: CountingBloom,
    window_events: u64,
    /// The Set Dueller's sampled shadow: a full-size (8-way) miniature
    /// table covering 1/32 of the sets, estimating the hit rate a
    /// maximum-size table would achieve regardless of the current size.
    shadow: Option<MetadataTable>,
    shadow_lookups: u64,
    shadow_hits: u64,
    evictions: Vec<EvictedMeta>,
}

/// One in `SHADOW_SAMPLE` sets is mirrored in the dueller's shadow table.
const SHADOW_SAMPLE: usize = 32;

impl TemporalEngine {
    /// Builds the engine.
    pub fn new(cfg: TemporalConfig) -> Self {
        let shadow = if matches!(cfg.resize, ResizePolicy::Dueller { .. }) {
            Some(MetadataTable::new(
                MetaTableConfig {
                    sets: (cfg.table.sets / SHADOW_SAMPLE).max(1),
                    ..cfg.table
                },
                cfg.table.max_ways,
            ))
        } else {
            None
        };
        TemporalEngine {
            table: MetadataTable::new(cfg.table, cfg.initial_ways),
            trainer: TrainingUnit::default(),
            pcs: FlatMap::new(),
            seq: 0,
            bloom: CountingBloom::new(1 << 16, 3),
            window_events: 0,
            shadow,
            shadow_lookups: 0,
            shadow_hits: 0,
            evictions: Vec::new(),
            cfg,
        }
    }

    /// Whether `line` falls in a set mirrored by the dueller's shadow.
    fn shadow_sampled(&self, line: Line) -> bool {
        (line.0 as usize) & (SHADOW_SAMPLE - 1) == 0
    }

    /// Shadow-table index of a sampled line: the sampling bits are dropped
    /// so sampled lines spread over all shadow sets.
    fn shadow_line(line: Line) -> Line {
        Line(line.0 >> SHADOW_SAMPLE.trailing_zeros())
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

    /// Current PatternConf value of `pc` (Figure 1 instrumentation).
    pub fn pattern_conf(&self, pc: Pc) -> Option<u8> {
        self.pcs.get(pc.0).map(|s| s.pattern.value())
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

    /// The metadata table (diagnostics).
    pub fn table(&self) -> &MetadataTable {
        &self.table
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

    /// Processes one L2 event. `gate` must be `Some` iff the insertion
    /// policy is [`InsertionPolicy::External`].
    pub fn on_access(&mut self, ev: &L2Event, gate: Option<ExternalGate>) -> TemporalDecision {
        self.seq += 1;
        self.window_events += 1;
        // ReuseConf judges whether a pattern fits the *table* (Triangel
        // sizes this against the maximum the LLC could host, not the
        // transient dueller size — otherwise a small current size would
        // reject the very insertions that would justify growing).
        let capacity = (self.cfg.table.sets
            * self.cfg.table.max_ways
            * crate::metadata::ENTRIES_PER_LINE) as u64;
        let pc = ev.pc;
        let line = ev.line;

        // Form the training pair first: PatternConf is trained on metadata
        // outcomes (Figure 1) — if the table already holds a correlation for
        // `prev`, that stored target matching the actual successor is a
        // useful metadata access (blue dot, increment), a mismatch is a
        // useless one (red dot, decrement), and a missing entry is a first
        // metadata access (star: no confidence update). Only the miss
        // stream trains, L1-prefetch requests included (Section 5.1: the L2
        // access stream carries them). Classic temporal prefetchers
        // correlate misses; training on L2 hits would let high-locality
        // traffic shred the miss-correlation context. Lookups still happen
        // on every event so chains keep running.
        let pair = if ev.l2_hit {
            None
        } else {
            self.trainer.observe(pc, line)
        };
        let verification = pair.map(|(prev, cur)| (self.table.peek(prev), cur));

        let st = self.pcs.get_or_insert_with(pc.0, PcState::new);
        if let Some((stored, cur)) = verification {
            match stored {
                Some(t) if t == cur => st.pattern.inc(),
                Some(_) => st.pattern.dec(),
                None => {}
            }
        }

        // Reuse-distance sampling for ReuseConf.
        match st.sample {
            Some((s, t0)) if s == line => {
                if self.seq - t0 <= capacity.max(1) {
                    st.reuse.inc();
                } else {
                    st.reuse.dec();
                }
                st.sample = None;
            }
            Some((_, t0)) if self.seq - t0 > 4 * capacity.max(1) => {
                // Sampled address never re-seen within reach: not solvable.
                st.reuse.dec();
                st.sample = None;
            }
            None => st.sample = Some((line, self.seq)),
            _ => {}
        }

        // Insertion gate.
        let (allow_insert, allow_prefetch, priority) = match self.cfg.insertion {
            InsertionPolicy::Always => (true, true, 1),
            InsertionPolicy::PatternConf {
                pattern_threshold,
                reuse_threshold,
            } => {
                let ok =
                    st.pattern.at_least(pattern_threshold) && st.reuse.at_least(reuse_threshold);
                // Figure 1: below threshold Triangel neither inserts nor
                // prefetches for the PC.
                (ok, st.pattern.at_least(pattern_threshold), 1)
            }
            InsertionPolicy::External => {
                let g = gate.expect("External insertion policy requires a gate");
                (g.allow_insert, true, g.priority)
            }
        };

        // Train.
        if let Some((prev, cur)) = pair {
            if allow_insert {
                // Mirror sampled sets into the dueller's full-size shadow.
                if self.shadow_sampled(prev) {
                    if let Some(shadow) = &mut self.shadow {
                        shadow.insert(Self::shadow_line(prev), cur, pc, priority);
                    }
                }
                let outcome = self.table.insert(prev, cur, pc, priority);
                match outcome {
                    InsertOutcome::Replaced(e) | InsertOutcome::UpdatedTarget(e) => {
                        self.evictions.push(e)
                    }
                    InsertOutcome::Allocated | InsertOutcome::Unchanged => {}
                }
                // Triage's Bloom filter tracks distinct *sources* written to
                // the table (allocations and replacements alike): its
                // distinct-entry estimate is the footprint the table would
                // need, not the table's current occupancy.
                if matches!(self.cfg.resize, ResizePolicy::Bloom { .. })
                    && !matches!(outcome, InsertOutcome::Unchanged)
                {
                    self.bloom.insert(self.table.key_of(prev));
                }
            } else {
                self.table.note_rejected_insertion();
            }
        }

        // Shadow lookup for the dueller's full-size hit-rate estimate.
        if self.shadow_sampled(line) {
            if let Some(shadow) = &mut self.shadow {
                self.shadow_lookups += 1;
                if shadow.lookup(Self::shadow_line(line)).is_some() {
                    self.shadow_hits += 1;
                }
            }
        }

        // Predict: chained lookups up to the degree.
        let mut targets = SmallList::default();
        if allow_prefetch && self.table.ways() > 0 {
            let mut cur = line;
            for _ in 0..self.cfg.degree {
                match self.table.lookup(cur) {
                    Some(t) => {
                        targets.push(t);
                        cur = t;
                    }
                    None => break,
                }
            }
        }
        // Resize policy.
        let resize = self.maybe_resize();
        TemporalDecision { targets, resize }
    }

    fn maybe_resize(&mut self) -> Option<usize> {
        let per_way = (self.cfg.table.sets * crate::metadata::ENTRIES_PER_LINE) as u64;
        match self.cfg.resize {
            ResizePolicy::Fixed => None,
            ResizePolicy::Bloom { window } => {
                if self.window_events < window {
                    return None;
                }
                self.window_events = 0;
                let distinct = self.bloom.distinct_estimate();
                self.bloom.clear();
                let needed = distinct.div_ceil(per_way) as usize;
                let ways = needed.clamp(1, self.cfg.table.max_ways);
                if ways != self.table.ways() {
                    self.table.resize_into(ways, &mut self.evictions);
                    Some(ways)
                } else {
                    None
                }
            }
            ResizePolicy::Dueller { window } => {
                if self.window_events < window {
                    return None;
                }
                self.window_events = 0;
                let rate_full = self.shadow_hits as f64 / self.shadow_lookups.max(1) as f64;
                let sampled = self.shadow_lookups;
                self.shadow_lookups = 0;
                self.shadow_hits = 0;
                let cur = self.table.ways();
                // Set-Dueller controller: the sampled full-size shadow says
                // what an 8-way table would achieve; grow while it clearly
                // beats the current size, shrink when even the full table
                // finds no reuse. The thresholds bias conservative (the
                // paper observes Triangel "often chooses overly
                // conservative metadata table sizes", Section 2.1.3).
                // Proportional target, one doubling/halving step per
                // window for hysteresis. The floor of 2 ways matches
                // Triangel's smallest duelled configuration.
                let target = ((self.cfg.table.max_ways as f64) * rate_full).round() as usize;
                let target = target.clamp(2, self.cfg.table.max_ways);
                let ways = if sampled < 64 {
                    cur // too few samples to act on
                } else if rate_full < 0.15 {
                    // Even a full-size table finds no reuse (the ~10% floor
                    // is 10-bit tag aliasing, not real hits).
                    (cur / 2).max(2)
                } else if target > cur {
                    (cur * 2).min(self.cfg.table.max_ways)
                } else if target < cur / 2 && rate_full < 0.30 {
                    (cur / 2).max(2)
                } else {
                    cur
                };
                if ways != cur {
                    self.table.resize_into(ways, &mut self.evictions);
                    Some(ways)
                } else {
                    None
                }
            }
        }
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
            e.on_access(&event(1, l), None);
        }
        // Second pass predicts the successor of each access.
        let mut predicted = Vec::new();
        for &l in &seq {
            let d = e.on_access(&event(1, l), None);
            predicted.extend(d.targets);
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
                e.on_access(&event(1, l), None);
            }
        }
        let d = e.on_access(&event(1, 10), None);
        assert_eq!(d.targets, vec![Line(20), Line(30), Line(40)]);
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
                e.on_access(&event(1, l), None);
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
                e.on_access(&event(1, pool[(j * step) % pool.len()]), None);
            }
        }
        assert!(
            e.pattern_conf(Pc(1)).unwrap() < 6,
            "a red-dot burst must collapse PatternConf (Figure 1), got {:?}",
            e.pattern_conf(Pc(1))
        );
        let rejected_before = e.meta_stats().rejected_insertions;
        for i in 0..10u64 {
            e.on_access(&event(1, 20_000 + i * 991), None);
        }
        assert!(
            e.meta_stats().rejected_insertions > rejected_before,
            "below threshold Triangel rejects insertions"
        );
    }

    #[test]
    fn external_gate_blocks_insert_but_not_prefetch() {
        let mut e = engine(InsertionPolicy::External, 1);
        let allow = ExternalGate {
            allow_insert: true,
            priority: 2,
        };
        let deny = ExternalGate {
            allow_insert: false,
            priority: 0,
        };
        let seq = [10u64, 20, 30];
        for &l in &seq {
            e.on_access(&event(1, l), Some(allow));
        }
        // Denied PC trains nothing...
        for &l in &[500u64, 600, 700] {
            e.on_access(&event(2, l), Some(deny));
        }
        assert!(e.meta_stats().rejected_insertions >= 2);
        // ...but the allowed PC's metadata still predicts.
        let d = e.on_access(&event(1, 10), Some(allow));
        assert_eq!(d.targets, vec![Line(20)]);
    }

    #[test]
    #[should_panic(expected = "requires a gate")]
    fn external_without_gate_panics() {
        let mut e = engine(InsertionPolicy::External, 1);
        e.on_access(&event(1, 10), None);
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
                let d = e.on_access(&event(1, i), None);
                if let Some(w) = d.resize {
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
            let d = e.on_access(&event(1, line), None);
            if let Some(nw) = d.resize {
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
            warm.on_access(&event(1, l), None);
        }
        let snap = warm.warmup_snapshot();

        let mut fresh = engine(InsertionPolicy::Always, 1);
        fresh.load_warmup(&snap);
        // The seeded engine predicts immediately (table) and continues the
        // training chain (trainer remembers 40 as PC 1's last line).
        let d = fresh.on_access(&event(1, 10), None);
        assert_eq!(d.targets, vec![Line(20)]);
        assert_eq!(
            fresh.table().peek(Line(40)),
            Some(Line(10)),
            "the 40→10 pair came from the restored trainer history"
        );
        assert_eq!(fresh.meta_stats().lookups, 1, "counters started fresh");
    }

    #[test]
    fn warmup_seed_respects_smaller_tables() {
        let mut warm = engine(InsertionPolicy::Always, 1);
        for i in 0..4_000u64 {
            warm.on_access(&event(1, i), None);
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
            small.table().occupancy() <= small.table().capacity(),
            "seeding clamps to the configured ways"
        );
        assert_eq!(small.ways(), 2);
    }

    #[test]
    fn evictions_are_drained_for_the_mvb() {
        let mut e = engine(InsertionPolicy::Always, 1);
        // Multi-target pattern: A→B then A→C repeatedly.
        e.on_access(&event(1, 1), None);
        e.on_access(&event(1, 2), None); // trains 1→2
        e.on_access(&event(1, 1), None); // trains 2→1
        e.on_access(&event(1, 3), None); // trains 1→3, displacing 1→2
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
