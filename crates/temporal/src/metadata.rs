//! The compressed on-chip Markov metadata table.
//!
//! Format per the paper (Section 3.1): the table lives in reserved LLC ways;
//! each 64-byte cache line packs **12 compressed entries**, each a **10-bit
//! tag** plus a **31-bit target address**. With the Table 1 LLC
//! ([`LLC_SETS`] sets), one reserved way holds 24,576 entries and the 1 MB
//! maximum ([`MAX_META_WAYS`] ways) holds [`MAX_META_ENTRIES`]
//! (Section 5.10).
//!
//! Replacement is pluggable:
//!
//! * the *runtime* policies (LRU for the simplified profiling prefetcher
//!   and Prophet, SRRIP for Triangel and Triage), and
//! * Prophet's two-stage scheme — victim candidates are the entries at the
//!   **lowest priority level** (from the per-PC hints, Eq. 2) and the runtime
//!   policy (LRU) picks among the candidates (Section 4.2).

use prophet_prefetch::MetaTableStats;
use prophet_sim_mem::addr::Line;
use prophet_sim_mem::{LineAligned, LLC_SETS, MAX_META_WAYS};

/// Entries packed into one 64-byte metadata line (paper: 12).
pub const ENTRIES_PER_LINE: usize = 12;

/// Entries of the largest (1 MB) table: every set of the LLC, at most
/// [`MAX_META_WAYS`] ways, [`ENTRIES_PER_LINE`] entries per line.
pub const MAX_META_ENTRIES: usize = LLC_SETS * MAX_META_WAYS * ENTRIES_PER_LINE;

/// Tag width in bits (paper: 10).
pub const TAG_BITS: u32 = 10;

/// Target-address width in bits (paper: 31). Workload generators keep line
/// addresses below 2³¹ so the compressed form is exact.
pub const TARGET_BITS: u32 = 31;

/// Sentinel in the tag array for an invalid slot. Real tags are 10-bit
/// ([`TAG_BITS`]), so `u16::MAX` can never collide.
const NO_META_TAG: u16 = u16::MAX;

/// Distant re-reference value of the table's 2-bit SRRIP.
const META_RRPV_MAX: u8 = 3;

/// Runtime replacement policy of the metadata table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaRepl {
    /// True LRU (the simplified profiling configuration).
    Lru,
    /// SRRIP (Triangel, Section 2.1.2; also Triage here).
    Srrip,
}

/// The replacement and payload fields of one entry. Its tag and validity
/// live in the table's tag array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// LRU recency: the table clock at the last insert or hit.
    stamp: u64,
    target: u32,
    /// Prophet priority level (Eq. 2); uniform when Prophet is disabled.
    priority: u8,
    rrpv: u8,
}

// Four slots per host cache line; a new field must not quietly widen it.
const _: () = assert!(std::mem::size_of::<Slot>() == 16);

impl Slot {
    const EMPTY: Slot = Slot {
        stamp: 0,
        target: 0,
        priority: 0,
        rrpv: META_RRPV_MAX,
    };
}

/// One valid entry in a [`MetaTableSnapshot`]: its absolute slot index plus
/// every field of the live slot, so restoring is bit-faithful (including
/// replacement recency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaSlotSnapshot {
    /// Absolute index into the `sets × max_ways × ENTRIES_PER_LINE` array.
    pub index: u64,
    pub tag: u16,
    pub target: u32,
    pub priority: u8,
    pub rrpv: u8,
    pub stamp: u64,
}

/// Plain-data image of the metadata table's contents, for warm-up
/// checkpointing. Only valid slots are recorded (the table is sparse after
/// a warm-up), with geometry echoed for validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaTableSnapshot {
    /// Set count of the source table (restores must match).
    pub sets: u64,
    /// Max-ways stride of the source table's slot array.
    pub max_ways: u64,
    /// Ways the table occupied at snapshot time.
    pub ways: u64,
    /// Replacement clock at snapshot time (restored so recency stamps stay
    /// meaningful).
    pub clock: u64,
    /// Valid entries, in slot-index order.
    pub entries: Vec<MetaSlotSnapshot>,
}

/// An entry pushed out of the table (by replacement, a target overwrite, or
/// a resize). The Multi-path Victim Buffer consumes these (Section 4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedMeta {
    /// Stable identifier of the *source* address: `(tag << set_bits) | set`.
    /// The same key is computed from any lookup line via
    /// [`MetadataTable::key_of`], so the MVB can be indexed consistently.
    pub key: u64,
    /// The Markov target the evicted entry predicted.
    pub target: Line,
    /// The entry's Prophet priority level at eviction time.
    pub priority: u8,
}

/// Result of an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A fresh entry was allocated into an empty slot.
    Allocated,
    /// A fresh entry displaced a valid entry (returned).
    Replaced(EvictedMeta),
    /// An entry for the same source existed; its target was overwritten.
    /// The *old* target is returned — this is the multi-target case the MVB
    /// captures (sequence (A,B,C) vs (A,B,D), Section 4.5).
    UpdatedTarget(EvictedMeta),
    /// An entry for the same source already mapped to the same target.
    Unchanged,
}

/// Geometry of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaTableConfig {
    /// Sets (must equal the LLC's set count for the way-sharing story).
    pub sets: usize,
    /// Maximum ways the table may occupy (8 = 1 MB).
    pub max_ways: usize,
    /// Runtime replacement policy.
    pub repl: MetaRepl,
    /// When true, victim selection first restricts candidates to the lowest
    /// priority level present (Prophet's replacement policy).
    pub priority_replacement: bool,
}

impl Default for MetaTableConfig {
    fn default() -> Self {
        MetaTableConfig {
            sets: LLC_SETS,
            max_ways: MAX_META_WAYS,
            repl: MetaRepl::Srrip,
            priority_replacement: false,
        }
    }
}

/// The Markov metadata table.
///
/// Two parallel arrays of `sets × max_ways × ENTRIES_PER_LINE` slots:
/// `tags` is the primary record of which slots are valid and what they
/// hold (a set's scan reads 2 bytes per entry, 192 B for 8 ways), and
/// `slots` the 16-byte replacement and payload fields read after a tag
/// match or during victim selection.
#[derive(Debug, Clone)]
pub struct MetadataTable {
    cfg: MetaTableConfig,
    ways: usize,
    slots: LineAligned<Slot>,
    /// Each slot's tag, or `NO_META_TAG` when the slot is invalid.
    tags: LineAligned<u16>,
    clock: u64,
    stats: MetaTableStats,
    set_bits: u32,
}

impl MetadataTable {
    /// Creates the table occupying `ways` LLC ways initially.
    ///
    /// # Panics
    /// Panics if geometry is invalid (`sets` not a power of two, `ways`
    /// exceeding `max_ways`).
    pub fn new(cfg: MetaTableConfig, ways: usize) -> Self {
        assert!(
            cfg.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(ways <= cfg.max_ways, "initial ways exceed the maximum");
        let len = cfg.sets * cfg.max_ways * ENTRIES_PER_LINE;
        MetadataTable {
            slots: LineAligned::new(len, Slot::EMPTY),
            tags: LineAligned::new(len, NO_META_TAG),
            ways,
            clock: 0,
            stats: MetaTableStats::default(),
            set_bits: cfg.sets.trailing_zeros(),
            cfg,
        }
    }

    /// Current ways occupied.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The table's geometry and replacement configuration.
    pub(crate) fn config(&self) -> MetaTableConfig {
        self.cfg
    }

    /// Entry capacity at the current size.
    pub fn capacity(&self) -> usize {
        self.cfg.sets * self.ways * ENTRIES_PER_LINE
    }

    /// Activity counters.
    pub fn stats(&self) -> MetaTableStats {
        self.stats
    }

    /// Counts a training pair rejected by an insertion policy (kept here so
    /// all metadata accounting lives in one place).
    pub fn note_rejected_insertion(&mut self) {
        self.stats.rejected_insertions += 1;
    }

    /// Number of valid entries (O(capacity); reports/tests only).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != NO_META_TAG).count()
    }

    #[inline]
    fn set_of(&self, line: Line) -> usize {
        (line.0 as usize) & (self.cfg.sets - 1)
    }

    #[inline]
    fn tag_of(&self, line: Line) -> u16 {
        ((line.0 >> self.set_bits) & ((1 << TAG_BITS) - 1)) as u16
    }

    /// The stable MVB key of a source line: `(tag << set_bits) | set`.
    pub fn key_of(&self, line: Line) -> u64 {
        ((self.tag_of(line) as u64) << self.set_bits) | (self.set_of(line) as u64)
    }

    fn entries_per_set(&self) -> usize {
        self.ways * ENTRIES_PER_LINE
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let stride = self.cfg.max_ways * ENTRIES_PER_LINE;
        let base = set * stride;
        base..base + self.entries_per_set()
    }

    /// Pure lookup: the recorded target for `line` without touching
    /// replacement state or counters (used by PatternConf verification —
    /// checking whether a stored correlation *would have been* useful must
    /// not refresh it).
    pub fn peek(&self, line: Line) -> Option<Line> {
        if self.ways == 0 {
            return None;
        }
        let tag = self.tag_of(line);
        let range = self.set_range(self.set_of(line));
        let idx = self.find_slot(range, tag)?;
        Some(Line(self.slots[idx].target as u64))
    }

    /// Finds the absolute index of the valid slot tagged `tag` within
    /// `range` by scanning the tag array.
    #[inline]
    fn find_slot(&self, range: std::ops::Range<usize>, tag: u16) -> Option<usize> {
        let base = range.start;
        prophet_sim_mem::find_first(&self.tags[range], tag).map(|i| base + i)
    }

    /// Looks up the Markov target recorded for `line`, refreshing the
    /// entry's replacement state on a hit.
    pub fn lookup(&mut self, line: Line) -> Option<Line> {
        if self.ways == 0 {
            return None;
        }
        self.stats.lookups += 1;
        let tag = self.tag_of(line);
        let range = self.set_range(self.set_of(line));
        self.clock += 1;
        let clock = self.clock;
        if let Some(idx) = self.find_slot(range, tag) {
            let slot = &mut self.slots[idx];
            slot.rrpv = 0;
            slot.stamp = clock;
            self.stats.hits += 1;
            return Some(Line(slot.target as u64));
        }
        None
    }

    /// Records the correlation `src → target` at priority level
    /// `priority`.
    ///
    /// # Panics
    /// Panics if `target` does not fit the 31-bit compressed form.
    pub fn insert(&mut self, src: Line, target: Line, priority: u8) -> InsertOutcome {
        assert!(
            target.0 < (1 << TARGET_BITS),
            "target line {target} exceeds the 31-bit compressed format"
        );
        if self.ways == 0 {
            return InsertOutcome::Unchanged;
        }
        let tag = self.tag_of(src);
        let key = self.key_of(src);
        let set = self.set_of(src);
        let range = self.set_range(set);
        self.clock += 1;
        let clock = self.clock;

        // Same-source entry present → update its target in place.
        if let Some(idx) = self.find_slot(range.clone(), tag) {
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
            slot.target = target.0 as u32;
            slot.priority = priority;
            slot.stamp = clock;
            slot.rrpv = 0;
            return InsertOutcome::UpdatedTarget(old);
        }

        self.stats.insertions += 1;
        let fresh = Slot {
            stamp: clock,
            target: target.0 as u32,
            priority,
            rrpv: 2,
        };

        // Empty slot?
        let base = range.start;
        if let Some(i) = prophet_sim_mem::find_first(&self.tags[range.clone()], NO_META_TAG) {
            self.put(base + i, tag, fresh);
            return InsertOutcome::Allocated;
        }

        // Replacement.
        self.stats.replacements += 1;
        let victim_idx = self.pick_victim(range);
        let victim = &self.slots[victim_idx];
        let evicted = EvictedMeta {
            key: ((self.tags[victim_idx] as u64) << self.set_bits) | set as u64,
            target: Line(victim.target as u64),
            priority: victim.priority,
        };
        self.put(victim_idx, tag, fresh);
        InsertOutcome::Replaced(evicted)
    }

    /// Writes a valid entry into slot `idx`.
    #[inline]
    fn put(&mut self, idx: usize, tag: u16, slot: Slot) {
        self.tags[idx] = tag;
        self.slots[idx] = slot;
    }

    /// Invalidates slot `idx`.
    fn clear(&mut self, idx: usize) {
        self.tags[idx] = NO_META_TAG;
        self.slots[idx] = Slot::EMPTY;
    }

    fn pick_victim(&mut self, range: std::ops::Range<usize>) -> usize {
        // Prophet stage: restrict candidates to the lowest priority level.
        let min_priority = if self.cfg.priority_replacement {
            self.slots[range.clone()]
                .iter()
                .map(|s| s.priority)
                .min()
                .expect("non-empty set")
        } else {
            0
        };
        let candidate = |s: &Slot| !self.cfg.priority_replacement || s.priority == min_priority;

        match self.cfg.repl {
            MetaRepl::Lru => {
                let base = range.start;
                self.slots[range]
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| candidate(s))
                    .min_by_key(|(_, s)| s.stamp)
                    .map(|(i, _)| base + i)
                    .expect("at least one candidate")
            }
            MetaRepl::Srrip => {
                // The textbook loop ages every entry (saturating at the
                // distant value) until a candidate reaches it. Only full
                // sets get here, so every slot in `range` is valid. When no
                // candidate is distant yet, the first to get there is the
                // first holding the candidates' maximum `m`, after
                // `3 - m` rounds, which leave each entry at
                // `min(rrpv + rounds, 3)`: one sweep for the maximum and
                // one for the bump give the same victim and state.
                let base = range.start;
                let mut best: Option<(usize, u8)> = None;
                for (i, s) in self.slots[range.clone()].iter().enumerate() {
                    if !candidate(s) {
                        continue;
                    }
                    if s.rrpv >= META_RRPV_MAX {
                        return base + i;
                    }
                    if best.map_or(true, |(_, m)| s.rrpv > m) {
                        best = Some((i, s.rrpv));
                    }
                }
                let (i, m) = best.expect("at least one candidate");
                let rounds = META_RRPV_MAX - m;
                for s in &mut self.slots[range] {
                    s.rrpv = s.rrpv.saturating_add(rounds).min(META_RRPV_MAX);
                }
                base + i
            }
        }
    }

    /// Resizes the table to `ways`, appending the entries evicted from
    /// deactivated regions to `evicted` (steady-state callers reuse one
    /// buffer).
    ///
    /// # Panics
    /// Panics if `ways > max_ways`.
    pub fn resize_into(&mut self, ways: usize, evicted: &mut Vec<EvictedMeta>) {
        assert!(ways <= self.cfg.max_ways, "resize beyond max ways");
        if ways < self.ways {
            let new_per_set = ways * ENTRIES_PER_LINE;
            for set in 0..self.cfg.sets {
                let range = self.set_range(set);
                let (keep, drop) = (range.start + new_per_set, range.end);
                for idx in keep..drop {
                    let tag = self.tags[idx];
                    if tag != NO_META_TAG {
                        let s = self.slots[idx];
                        evicted.push(EvictedMeta {
                            key: ((tag as u64) << self.set_bits) | set as u64,
                            target: Line(s.target as u64),
                            priority: s.priority,
                        });
                        self.clear(idx);
                    }
                }
            }
        }
        self.ways = ways;
    }

    /// Captures the table's contents for warm-up checkpointing. Counters
    /// are excluded (they reset at the warm-up boundary).
    pub fn snapshot(&self) -> MetaTableSnapshot {
        let entries = self
            .tags
            .iter()
            .enumerate()
            .filter(|&(_, &tag)| tag != NO_META_TAG)
            .map(|(i, &tag)| {
                let s = &self.slots[i];
                MetaSlotSnapshot {
                    index: i as u64,
                    tag,
                    target: s.target,
                    priority: s.priority,
                    rrpv: s.rrpv,
                    stamp: s.stamp,
                }
            })
            .collect();
        MetaTableSnapshot {
            sets: self.cfg.sets as u64,
            max_ways: self.cfg.max_ways as u64,
            ways: self.ways as u64,
            clock: self.clock,
            entries,
        }
    }

    /// Restores the table *contents* from a snapshot taken on a table with
    /// the same geometry, keeping this table's configuration (replacement
    /// policy, priority flag) and its **current way count**: entries beyond
    /// the active region are dropped, exactly as a resize would. This is
    /// how a scheme-independent warm-up seeds differently-configured
    /// runtime tables (see DESIGN.md §6).
    ///
    /// Counters restart **at the live-entry baseline**: `insertions` is
    /// re-based to the number of restored entries (everything else zero),
    /// so the paper's `insertions − replacements` metric keeps meaning
    /// "currently allocated entries" whether a run warmed up in-process
    /// (where the counters span warm-up + measurement) or restored from a
    /// checkpoint. Without the re-base, a warm-started profiling pass
    /// reports only the measurement phase's handful of fresh insertions
    /// and Eq. 3 disables temporal prefetching outright.
    ///
    /// # Panics
    /// Panics if the snapshot's set count or slot stride differ.
    pub fn restore_contents(&mut self, snap: &MetaTableSnapshot) {
        assert_eq!(
            snap.sets, self.cfg.sets as u64,
            "metadata snapshot geometry mismatch"
        );
        assert_eq!(
            snap.max_ways, self.cfg.max_ways as u64,
            "metadata snapshot geometry mismatch"
        );
        self.slots.fill(Slot::EMPTY);
        self.tags.fill(NO_META_TAG);
        let per_set_active = self.entries_per_set() as u64;
        let stride = (self.cfg.max_ways * ENTRIES_PER_LINE) as u64;
        let mut live = 0u64;
        for e in &snap.entries {
            assert!(
                e.index < self.slots.len() as u64,
                "metadata snapshot geometry mismatch"
            );
            if e.index % stride >= per_set_active {
                continue; // beyond this table's current ways — dropped
            }
            let slot = Slot {
                stamp: e.stamp,
                target: e.target,
                priority: e.priority,
                rrpv: e.rrpv,
            };
            self.put(e.index as usize, e.tag, slot);
            live += 1;
        }
        self.clock = self.clock.max(snap.clock);
        self.stats = MetaTableStats {
            insertions: live,
            ..MetaTableStats::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(ways: usize) -> MetadataTable {
        MetadataTable::new(
            MetaTableConfig {
                sets: 16,
                max_ways: 8,
                repl: MetaRepl::Lru,
                priority_replacement: false,
            },
            ways,
        )
    }

    #[test]
    fn geometry_capacity() {
        let t = table(8);
        assert_eq!(t.capacity(), 16 * 8 * 12);
        assert_eq!(table(1).capacity(), 16 * 12);
    }

    #[test]
    fn insert_then_lookup() {
        let mut t = table(2);
        assert_eq!(t.insert(Line(100), Line(200), 1), InsertOutcome::Allocated);
        assert_eq!(t.lookup(Line(100)), Some(Line(200)));
        assert_eq!(t.lookup(Line(101)), None);
        let s = t.stats();
        assert_eq!(s.insertions, 1);
        assert_eq!((s.lookups, s.hits), (2, 1));
    }

    #[test]
    fn update_target_returns_old_target() {
        let mut t = table(2);
        t.insert(Line(100), Line(200), 1);
        match t.insert(Line(100), Line(300), 2) {
            InsertOutcome::UpdatedTarget(old) => {
                assert_eq!(old.target, Line(200));
                assert_eq!(old.priority, 1);
            }
            other => panic!("expected UpdatedTarget, got {other:?}"),
        }
        assert_eq!(t.lookup(Line(100)), Some(Line(300)));
        assert_eq!(
            t.stats().insertions,
            1,
            "in-place update is not an allocation"
        );
    }

    #[test]
    fn same_pair_is_unchanged() {
        let mut t = table(2);
        t.insert(Line(100), Line(200), 1);
        assert_eq!(t.insert(Line(100), Line(200), 1), InsertOutcome::Unchanged);
    }

    #[test]
    fn replacement_when_set_full() {
        let mut t = table(1); // 12 entries per set
                              // Fill set 0 with 12 distinct sources (stride = sets).
        for i in 0..12u64 {
            let out = t.insert(Line(i * 16), Line(1000 + i), 1);
            assert_eq!(out, InsertOutcome::Allocated);
        }
        match t.insert(Line(12 * 16), Line(2000), 1) {
            InsertOutcome::Replaced(ev) => {
                // LRU victim is the first inserted source (line 0).
                assert_eq!(ev.target, Line(1000));
            }
            other => panic!("expected Replaced, got {other:?}"),
        }
        assert_eq!(t.stats().replacements, 1);
        assert_eq!(t.stats().allocated_entries(), 12);
    }

    #[test]
    fn priority_replacement_prefers_low_levels() {
        let mut t = MetadataTable::new(
            MetaTableConfig {
                sets: 16,
                max_ways: 8,
                repl: MetaRepl::Lru,
                priority_replacement: true,
            },
            1,
        );
        // 11 high-priority entries, then one low-priority entry (most
        // recently inserted!), then overflow.
        for i in 0..11u64 {
            t.insert(Line(i * 16), Line(100 + i), 3);
        }
        t.insert(Line(11 * 16), Line(500), 0);
        match t.insert(Line(12 * 16), Line(600), 3) {
            InsertOutcome::Replaced(ev) => {
                assert_eq!(
                    ev.target,
                    Line(500),
                    "lowest-priority entry must be the victim even though it is the newest"
                );
                assert_eq!(ev.priority, 0);
            }
            other => panic!("expected Replaced, got {other:?}"),
        }
    }

    #[test]
    fn lru_within_priority_class() {
        let mut t = MetadataTable::new(
            MetaTableConfig {
                sets: 16,
                max_ways: 8,
                repl: MetaRepl::Lru,
                priority_replacement: true,
            },
            1,
        );
        for i in 0..12u64 {
            t.insert(Line(i * 16), Line(100 + i), 2);
        }
        // Touch all but source 3 so source 3 becomes LRU.
        for i in 0..12u64 {
            if i != 3 {
                t.lookup(Line(i * 16));
            }
        }
        match t.insert(Line(12 * 16), Line(999), 2) {
            InsertOutcome::Replaced(ev) => assert_eq!(ev.target, Line(103)),
            other => panic!("expected Replaced, got {other:?}"),
        }
    }

    #[test]
    fn resize_evicts_and_shrinks_capacity() {
        let mut t = table(2);
        for i in 0..24u64 {
            t.insert(Line(i * 16), Line(100 + i), 1);
        }
        assert_eq!(t.occupancy(), 24);
        let mut evicted = Vec::new();
        t.resize_into(1, &mut evicted);
        assert_eq!(t.ways(), 1);
        assert_eq!(evicted.len(), 12, "half the entries were deactivated");
        assert_eq!(t.occupancy(), 12);
    }

    #[test]
    fn zero_ways_disables_table() {
        let mut t = table(0);
        assert_eq!(t.insert(Line(1), Line(2), 1), InsertOutcome::Unchanged);
        assert_eq!(t.lookup(Line(1)), None);
        assert_eq!(t.stats().lookups, 0, "disabled table performs no lookups");
    }

    #[test]
    fn key_is_stable_between_insert_and_lookup_paths() {
        let t = table(2);
        let line = Line(0x3_1234);
        let k1 = t.key_of(line);
        let k2 = t.key_of(line);
        assert_eq!(k1, k2);
        // Different lines with the same set+tag alias to the same key (the
        // compressed format is lossy by design).
        let aliased = Line(line.0 + (1 << (TAG_BITS + 4/*set bits for 16 sets*/)));
        assert_eq!(t.key_of(aliased), k1);
    }

    #[test]
    fn snapshot_restore_is_lossless_at_same_ways() {
        let mut t = table(2);
        for i in 0..30u64 {
            t.insert(Line(i * 16), Line(1000 + i), (i % 4) as u8);
        }
        t.lookup(Line(16)); // refresh one entry's recency
        let snap = t.snapshot();
        let mut fresh = table(2);
        fresh.restore_contents(&snap);
        assert_eq!(fresh.snapshot().entries, snap.entries);
        assert_eq!(fresh.occupancy(), t.occupancy());
        assert_eq!(fresh.lookup(Line(20 * 16)), Some(Line(1020)));
        // Counters restart at the live-entry baseline: insertions −
        // replacements still reads as "currently allocated entries".
        assert_eq!(fresh.stats().insertions, fresh.occupancy() as u64);
        assert_eq!(fresh.stats().replacements, 0);
        assert_eq!(fresh.stats().lookups, 1, "only the lookup above");
    }

    #[test]
    fn restore_into_smaller_table_drops_overflow_like_resize() {
        let mut t = table(2);
        for i in 0..24u64 {
            t.insert(Line(i * 16), Line(100 + i), 1);
        }
        let snap = t.snapshot();
        let mut small = table(1);
        small.restore_contents(&snap);
        assert_eq!(
            small.occupancy(),
            12,
            "entries beyond the active ways are dropped"
        );
    }

    #[test]
    #[should_panic(expected = "snapshot geometry mismatch")]
    fn restore_rejects_other_set_count() {
        let t = table(1);
        let mut other = MetadataTable::new(
            MetaTableConfig {
                sets: 32,
                max_ways: 8,
                repl: MetaRepl::Lru,
                priority_replacement: false,
            },
            1,
        );
        other.restore_contents(&t.snapshot());
    }

    #[test]
    #[should_panic(expected = "31-bit")]
    fn oversized_target_rejected() {
        let mut t = table(1);
        t.insert(Line(0), Line(1 << 31), 0);
    }

    #[test]
    fn srrip_mode_replaces_unreused_entries() {
        let mut t = MetadataTable::new(
            MetaTableConfig {
                sets: 16,
                max_ways: 8,
                repl: MetaRepl::Srrip,
                priority_replacement: false,
            },
            1,
        );
        for i in 0..12u64 {
            t.insert(Line(i * 16), Line(100 + i), 1);
        }
        // Reuse everything except source 5.
        for i in 0..12u64 {
            if i != 5 {
                t.lookup(Line(i * 16));
            }
        }
        match t.insert(Line(12 * 16), Line(999), 1) {
            InsertOutcome::Replaced(ev) => assert_eq!(ev.target, Line(105)),
            other => panic!("expected Replaced, got {other:?}"),
        }
    }
}
