//! Equivalence suite for the flattened temporal-metadata structures
//! (Issue 7).
//!
//! The hot-path rewrite gave [`MetadataTable`] a packed tag mirror for its
//! set scans and moved the census/training bookkeeping onto `FlatMap`. This
//! suite replays randomized streams against map-based reference models and
//! asserts the observable behavior — every hit, miss, insert outcome,
//! eviction, and histogram — is identical. The key property for the table:
//! the content implied by the `InsertOutcome`/eviction protocol must match
//! a shadow map exactly at all times, which fails if the tag mirror ever
//! falls out of sync with the slot records.

use std::collections::HashMap;

use prophet_sim_mem::addr::{Line, Pc};
use prophet_temporal::metadata::{InsertOutcome, MetaRepl, MetaTableConfig, MetadataTable};
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
                let pc = Pc(rng.below(64) * 4);
                let priority = rng.below(3) as u8;
                let key = table.key_of(src);
                let outcome = table.insert(src, target, pc, priority);
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
