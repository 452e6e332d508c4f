//! Equivalence suite for the flattened and packed temporal-metadata
//! structures.
//!
//! The hot-path rewrites split [`MetadataTable`]'s entries into a tag
//! array and 16-byte slots, and moved the census/training bookkeeping
//! onto `FlatMap`. This suite replays
//! randomized streams against reference models and asserts the observable
//! behavior — every hit, miss, insert outcome, eviction, counter, snapshot
//! and histogram — is identical. Two references check the table: a shadow
//! map of the content the `InsertOutcome`/eviction protocol implies, and
//! the table as it was before the split, one record per slot.

use std::collections::HashMap;

use prophet_prefetch::MetaTableStats;
use prophet_sim_mem::addr::{Line, Pc};
use prophet_temporal::metadata::{
    EvictedMeta, InsertOutcome, MetaRepl, MetaSlotSnapshot, MetaTableConfig, MetaTableSnapshot,
    MetadataTable, ENTRIES_PER_LINE, TAG_BITS,
};
use prophet_temporal::{MarkovCensus, TrainingUnit};

/// Deterministic splitmix64 stream (no dev-dependency needed).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// MetadataTable vs outcome-driven shadow map
// ---------------------------------------------------------------------------

/// Shadow of the table's content, keyed by [`MetadataTable::key_of`]:
/// `key → (target, priority)`. Every [`InsertOutcome`] and resize eviction
/// is applied to it, with the outcome's evicted image checked against what
/// the shadow believes — then lookups must agree everywhere.
struct Shadow(HashMap<u64, (u64, u8)>);

impl Shadow {
    fn apply(&mut self, key: u64, target: Line, priority: u8, outcome: InsertOutcome, step: u64) {
        match outcome {
            InsertOutcome::Allocated => {
                let prev = self.0.insert(key, (target.0, priority));
                assert_eq!(prev, None, "Allocated over live key at step {step}");
            }
            InsertOutcome::Replaced(e) => {
                assert_eq!(
                    self.0.remove(&e.key),
                    Some((e.target.0, e.priority)),
                    "Replaced evicted an entry the shadow disagrees with at step {step}"
                );
                let prev = self.0.insert(key, (target.0, priority));
                assert_eq!(prev, None, "Replaced while same-source live at step {step}");
            }
            InsertOutcome::UpdatedTarget(e) => {
                assert_eq!(
                    self.0.get(&key),
                    Some(&(e.target.0, e.priority)),
                    "UpdatedTarget's old image diverged at step {step}"
                );
                self.0.insert(key, (target.0, priority));
            }
            InsertOutcome::Unchanged => {
                assert_eq!(
                    self.0.get(&key).map(|&(t, _)| t),
                    Some(target.0),
                    "Unchanged for a target the shadow doesn't hold at step {step}"
                );
                // Same-target insert refreshes replacement state only; the
                // stored priority is deliberately not updated.
            }
        }
    }
}

/// Replays inserts/lookups/resizes and checks the table against the shadow.
fn check_metadata_table(repl: MetaRepl, priority_replacement: bool, seed: u64) {
    let cfg = MetaTableConfig {
        sets: 16,
        max_ways: 2,
        repl,
        priority_replacement,
    };
    let mut table = MetadataTable::new(cfg, 1);
    let mut shadow = Shadow(HashMap::new());
    let mut rng = Rng(0x7E47 ^ seed);
    // 16 sets (4 set bits) and 10 tag bits: lines below 2^14 map to
    // distinct keys, so `key_of` is bijective on this universe and the
    // shadow never sees tag aliasing the table itself wouldn't.
    const UNIVERSE: u64 = 1 << 14;
    let mut evicted = Vec::new();
    for step in 0..60_000u64 {
        match rng.below(100) {
            0..=59 => {
                // Heavy insert pressure over a smaller source pool forces
                // all four outcomes, including same-source target updates.
                let src = Line(rng.below(2_048));
                let target = Line(rng.below(1 << 20));
                let priority = rng.below(3) as u8;
                let key = table.key_of(src);
                let outcome = table.insert(src, target, priority);
                shadow.apply(key, target, priority, outcome, step);
            }
            60..=84 => {
                let line = Line(rng.below(UNIVERSE));
                let want = shadow.0.get(&table.key_of(line)).map(|&(t, _)| Line(t));
                assert_eq!(table.peek(line), want, "peek diverged at step {step}");
                assert_eq!(table.lookup(line), want, "lookup diverged at step {step}");
            }
            85..=97 => {
                let line = Line(rng.below(UNIVERSE));
                let want = shadow.0.get(&table.key_of(line)).map(|&(t, _)| Line(t));
                assert_eq!(table.peek(line), want, "peek diverged at step {step}");
            }
            _ => {
                let ways = 1 + rng.below(cfg.max_ways as u64) as usize;
                evicted.clear();
                table.resize_into(ways, &mut evicted);
                for e in &evicted {
                    assert_eq!(
                        shadow.0.remove(&e.key),
                        Some((e.target.0, e.priority)),
                        "resize evicted an entry the shadow disagrees with at step {step}"
                    );
                }
            }
        }
        assert_eq!(
            table.occupancy(),
            shadow.0.len(),
            "occupancy diverged at step {step}"
        );
    }
}

#[test]
fn metadata_table_matches_shadow_lru() {
    for seed in 0..3 {
        check_metadata_table(MetaRepl::Lru, false, seed);
    }
}

#[test]
fn metadata_table_matches_shadow_srrip() {
    for seed in 0..3 {
        check_metadata_table(MetaRepl::Srrip, false, seed);
    }
}

#[test]
fn metadata_table_matches_shadow_srrip_priority() {
    // SRRIP repl + Prophet's priority-class-restricted victim selection.
    for seed in 0..3 {
        check_metadata_table(MetaRepl::Srrip, true, seed);
    }
}

#[test]
fn metadata_table_matches_shadow_lru_priority() {
    for seed in 0..3 {
        check_metadata_table(MetaRepl::Lru, true, seed);
    }
}

// ---------------------------------------------------------------------------
// MetadataTable vs the one-record-per-slot table it replaced
// ---------------------------------------------------------------------------

/// One entry as the table kept it before the split: tag and validity
/// beside the replacement fields.
#[derive(Debug, Clone, Copy)]
struct RefSlot {
    tag: u16,
    target: u32,
    priority: u8,
    rrpv: u8,
    stamp: u64,
    valid: bool,
}

const REF_EMPTY: RefSlot = RefSlot {
    tag: 0,
    target: 0,
    priority: 0,
    rrpv: 3,
    stamp: 0,
    valid: false,
};

/// The table before the split, with a linear scan of its records in place
/// of the tag array and the textbook SRRIP aging loop.
struct RefTable {
    cfg: MetaTableConfig,
    ways: usize,
    slots: Vec<RefSlot>,
    clock: u64,
    stats: MetaTableStats,
    set_bits: u32,
}

impl RefTable {
    fn new(cfg: MetaTableConfig, ways: usize) -> Self {
        RefTable {
            slots: vec![REF_EMPTY; cfg.sets * cfg.max_ways * ENTRIES_PER_LINE],
            ways,
            clock: 0,
            stats: MetaTableStats::default(),
            set_bits: cfg.sets.trailing_zeros(),
            cfg,
        }
    }

    fn set_of(&self, line: Line) -> usize {
        line.0 as usize & (self.cfg.sets - 1)
    }

    fn tag_of(&self, line: Line) -> u16 {
        ((line.0 >> self.set_bits) & ((1 << TAG_BITS) - 1)) as u16
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.cfg.max_ways * ENTRIES_PER_LINE;
        base..base + self.ways * ENTRIES_PER_LINE
    }

    fn find(&self, line: Line) -> Option<usize> {
        let tag = self.tag_of(line);
        self.set_range(self.set_of(line))
            .find(|&i| self.slots[i].valid && self.slots[i].tag == tag)
    }

    fn peek(&self, line: Line) -> Option<Line> {
        if self.ways == 0 {
            return None;
        }
        self.find(line).map(|i| Line(self.slots[i].target as u64))
    }

    fn lookup(&mut self, line: Line) -> Option<Line> {
        if self.ways == 0 {
            return None;
        }
        self.stats.lookups += 1;
        self.clock += 1;
        let idx = self.find(line)?;
        let slot = &mut self.slots[idx];
        slot.rrpv = 0;
        slot.stamp = self.clock;
        self.stats.hits += 1;
        Some(Line(slot.target as u64))
    }

    fn insert(&mut self, src: Line, target: Line, priority: u8) -> InsertOutcome {
        if self.ways == 0 {
            return InsertOutcome::Unchanged;
        }
        let (tag, set) = (self.tag_of(src), self.set_of(src));
        let key = ((tag as u64) << self.set_bits) | set as u64;
        self.clock += 1;
        let clock = self.clock;
        if let Some(idx) = self.find(src) {
            let slot = &mut self.slots[idx];
            if slot.target as u64 == target.0 {
                slot.stamp = clock;
                slot.rrpv = 0;
                return InsertOutcome::Unchanged;
            }
            let old = EvictedMeta {
                key,
                target: Line(slot.target as u64),
                priority: slot.priority,
            };
            *slot = RefSlot {
                target: target.0 as u32,
                priority,
                stamp: clock,
                rrpv: 0,
                ..*slot
            };
            return InsertOutcome::UpdatedTarget(old);
        }
        self.stats.insertions += 1;
        let fresh = RefSlot {
            tag,
            target: target.0 as u32,
            priority,
            rrpv: 2,
            stamp: clock,
            valid: true,
        };
        let range = self.set_range(set);
        if let Some(i) = range.clone().find(|&i| !self.slots[i].valid) {
            self.slots[i] = fresh;
            return InsertOutcome::Allocated;
        }
        self.stats.replacements += 1;
        let v = self.pick_victim(range);
        let old = self.slots[v];
        self.slots[v] = fresh;
        InsertOutcome::Replaced(EvictedMeta {
            key: ((old.tag as u64) << self.set_bits) | set as u64,
            target: Line(old.target as u64),
            priority: old.priority,
        })
    }

    fn pick_victim(&mut self, range: std::ops::Range<usize>) -> usize {
        let prio = self.cfg.priority_replacement;
        let min_priority = if prio {
            range.clone().map(|i| self.slots[i].priority).min().unwrap()
        } else {
            0
        };
        let candidate = |s: &RefSlot| !prio || s.priority == min_priority;
        match self.cfg.repl {
            MetaRepl::Lru => range
                .filter(|&i| candidate(&self.slots[i]))
                .min_by_key(|&i| self.slots[i].stamp)
                .unwrap(),
            MetaRepl::Srrip => loop {
                if let Some(i) = range
                    .clone()
                    .find(|&i| candidate(&self.slots[i]) && self.slots[i].rrpv >= 3)
                {
                    return i;
                }
                for i in range.clone() {
                    if self.slots[i].valid {
                        self.slots[i].rrpv = (self.slots[i].rrpv + 1).min(3);
                    }
                }
            },
        }
    }

    fn resize_into(&mut self, ways: usize, evicted: &mut Vec<EvictedMeta>) {
        if ways < self.ways {
            for set in 0..self.cfg.sets {
                let range = self.set_range(set);
                for idx in range.start + ways * ENTRIES_PER_LINE..range.end {
                    let s = self.slots[idx];
                    if s.valid {
                        evicted.push(EvictedMeta {
                            key: ((s.tag as u64) << self.set_bits) | set as u64,
                            target: Line(s.target as u64),
                            priority: s.priority,
                        });
                        self.slots[idx] = REF_EMPTY;
                    }
                }
            }
        }
        self.ways = ways;
    }

    fn snapshot(&self) -> MetaTableSnapshot {
        MetaTableSnapshot {
            sets: self.cfg.sets as u64,
            max_ways: self.cfg.max_ways as u64,
            ways: self.ways as u64,
            clock: self.clock,
            entries: self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.valid)
                .map(|(i, s)| MetaSlotSnapshot {
                    index: i as u64,
                    tag: s.tag,
                    target: s.target,
                    priority: s.priority,
                    rrpv: s.rrpv,
                    stamp: s.stamp,
                })
                .collect(),
        }
    }
}

/// Replays lookups, peeks, inserts and resizes on the table and the
/// one-record reference, comparing every result, eviction, counter and
/// the full snapshot after each op; then restores the final snapshot into
/// a fresh table and checks it continues like the reference.
fn check_against_record_table(repl: MetaRepl, priority_replacement: bool, seed: u64) {
    let cfg = MetaTableConfig {
        sets: 8,
        max_ways: 2,
        repl,
        priority_replacement,
    };
    let mut table = MetadataTable::new(cfg, 2);
    let mut reference = RefTable::new(cfg, 2);
    let mut rng = Rng(0x5107 ^ seed);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for step in 0..8_000u64 {
        // Sources alias on the 10-bit tag beyond 2^13, as in the paper's
        // compressed format.
        let src = Line(rng.below(1 << 14));
        let ctx = format!("step {step} ({repl:?}, priority {priority_replacement}, seed {seed})");
        match rng.below(100) {
            0..=49 => {
                let target = Line(rng.below(1 << 31));
                // Few distinct targets per source make `Unchanged` common.
                let target = if rng.below(3) == 0 {
                    Line(src.0 + 1)
                } else {
                    target
                };
                let priority = rng.below(4) as u8;
                assert_eq!(
                    table.insert(src, target, priority),
                    reference.insert(src, target, priority),
                    "insert, {ctx}"
                );
            }
            50..=79 => assert_eq!(table.lookup(src), reference.lookup(src), "lookup, {ctx}"),
            80..=97 => assert_eq!(table.peek(src), reference.peek(src), "peek, {ctx}"),
            _ => {
                let ways = rng.below(cfg.max_ways as u64 + 1) as usize;
                got.clear();
                want.clear();
                table.resize_into(ways, &mut got);
                reference.resize_into(ways, &mut want);
                assert_eq!(got, want, "resize_into({ways}), {ctx}");
            }
        }
        assert_eq!(table.stats(), reference.stats, "stats, {ctx}");
        assert_eq!(table.snapshot(), reference.snapshot(), "snapshot, {ctx}");
    }
    let mut restored = MetadataTable::new(cfg, reference.ways);
    restored.restore_contents(&reference.snapshot());
    assert_eq!(restored.snapshot(), reference.snapshot(), "restore");
    for step in 0..2_000u64 {
        let src = Line(rng.below(1 << 14));
        let target = Line(rng.below(1 << 31));
        let priority = rng.below(4) as u8;
        assert_eq!(
            restored.insert(src, target, priority),
            reference.insert(src, target, priority),
            "restored insert, step {step}"
        );
        assert_eq!(restored.lookup(target), reference.lookup(target));
    }
    assert_eq!(
        restored.snapshot(),
        reference.snapshot(),
        "restored snapshot"
    );
}

#[test]
fn metadata_table_matches_record_table() {
    for (repl, priority) in [
        (MetaRepl::Lru, false),
        (MetaRepl::Srrip, false),
        (MetaRepl::Lru, true),
        (MetaRepl::Srrip, true),
    ] {
        for seed in 0..2 {
            check_against_record_table(repl, priority, seed);
        }
    }
}

// ---------------------------------------------------------------------------
// MarkovCensus vs HashMap recount
// ---------------------------------------------------------------------------

#[test]
fn census_matches_hashmap_recount() {
    for seed in 0..4u64 {
        let mut rng = Rng(0xCE25 ^ seed);
        let cap = 1 + (seed as usize % 5); // covers Figure 8's T = 1..=5
        let mut census = MarkovCensus::new(cap);
        let mut reference: HashMap<u64, Vec<u64>> = HashMap::new();
        for _ in 0..50_000 {
            let src = Line(rng.below(1_000));
            let target = Line(rng.below(40));
            census.record(src, target);
            let v = reference.entry(src.0).or_default();
            if !v.contains(&target.0) && v.len() < cap {
                v.push(target.0);
            }
        }
        assert_eq!(census.sources(), reference.len());
        let mut counts = vec![0u64; cap];
        for v in reference.values() {
            counts[v.len().clamp(1, cap) - 1] += 1;
        }
        let total: u64 = counts.iter().sum();
        let want: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
        assert_eq!(census.histogram(), want, "histogram diverged (seed {seed})");
    }
}

// ---------------------------------------------------------------------------
// TrainingUnit vs map-based direct-mapped reference
// ---------------------------------------------------------------------------

#[test]
fn training_unit_matches_map_reference() {
    for seed in 0..4u64 {
        let mut rng = Rng(0x7124 ^ seed);
        let slots = 64u64;
        let mut unit = TrainingUnit::new(slots as usize);
        // Reference: slot index → (pc tag, last line), with direct-mapped
        // conflict eviction modeled through the map key.
        let mut reference: HashMap<u64, (u64, u64)> = HashMap::new();
        for step in 0..40_000u64 {
            // More PCs than slots, so tag conflicts actually occur.
            let pc = Pc(rng.below(slots * 3));
            let line = Line(rng.below(128));
            let idx = pc.0 & (slots - 1);
            let want = match reference.get(&idx) {
                Some(&(tag, last)) if tag == pc.0 && last != line.0 => Some((Line(last), line)),
                Some(&(tag, _)) if tag == pc.0 => None, // same line again
                _ => None,                              // cold or conflict-evicted slot
            };
            reference.insert(idx, (pc.0, line.0));
            assert_eq!(
                unit.observe(pc, line),
                want,
                "training pair diverged at step {step} (seed {seed})"
            );
        }
        // Snapshot/restore round-trip must preserve behavior.
        let snap = unit.snapshot();
        let mut unit2 = TrainingUnit::new(slots as usize);
        unit2.restore(&snap);
        for _ in 0..1_000 {
            let pc = Pc(rng.below(slots * 3));
            let line = Line(rng.below(128));
            assert_eq!(unit.observe(pc, line), unit2.observe(pc, line));
        }
    }
}
