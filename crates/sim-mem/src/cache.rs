//! Set-associative cache model with way partitioning.
//!
//! The LLC in the paper shares physical ways between demand data and the
//! temporal prefetcher's metadata table (Triage/Triangel lineage). The cache
//! here models the *data* side: a partition reserves the first `k` ways of
//! every set for metadata (whose contents are modeled separately by
//! `prophet-temporal`), leaving ways `[k, ways)` for demand lines. Resizing
//! the metadata table (Triage's Bloom filter, Triangel's Set Dueller,
//! Prophet's profile-guided CSR) moves this boundary at runtime.

use crate::addr::{Line, Pc};
use crate::flat::{LineAligned, HOST_LINE_BYTES};
use crate::replacement::{ReplKind, ReplSnapshot, SetRepl};

/// Static geometry and policy of one cache level.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Human-readable level name (used in reports): "L1D", "L2", "LLC".
    pub name: &'static str,
    /// Total capacity in bytes (data ways × sets × 64 B when unpartitioned).
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Cycles for a hit at this level, not counting lookups above it.
    pub hit_latency: u64,
    /// Replacement policy family.
    pub repl: ReplKind,
    /// Miss-status-holding registers (bounds outstanding misses).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into whole sets.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / crate::addr::LINE_BYTES;
        let sets = lines as usize / self.ways;
        assert_eq!(
            sets * self.ways * crate::addr::LINE_BYTES as usize,
            self.size_bytes as usize,
            "cache geometry must divide evenly"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Metadata kept for each resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// The resident line address.
    pub line: Line,
    /// Whether the line has been written since the last write-back.
    pub dirty: bool,
    /// Whether the line was brought in by a prefetch and has not yet been
    /// touched by a demand access (the "useful prefetch" accounting bit).
    pub prefetched: bool,
    /// The PC whose access triggered the prefetch, for per-PC accuracy
    /// accounting (the PEBS `L2_Prefetch_*` events of Section 4.1).
    pub trigger_pc: Option<Pc>,
}

/// A line pushed out of the cache by a fill or partition change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    pub state: LineState,
}

/// Result of a state-updating lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was resident.
    pub hit: bool,
    /// If this was the *first demand touch* of a prefetched line, the PC that
    /// triggered the prefetch (the prefetch just became "useful").
    pub first_use_of_prefetch: Option<Pc>,
}

/// Aggregate counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub demand_hits: u64,
    pub demand_misses: u64,
    pub prefetch_fills: u64,
    pub demand_fills: u64,
    pub evictions: u64,
    pub dirty_evictions: u64,
    /// Prefetched lines evicted without ever being demanded (useless).
    pub unused_prefetch_evictions: u64,
}

impl CacheStats {
    /// Demand accesses observed (hits + misses).
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses
    }

    /// Demand hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.demand_hits as f64 / total as f64
        }
    }
}

/// Tag of an empty way.
const NO_TAG: u32 = u32::MAX;
/// Tag of a way whose line is too far up the address space for a 32-bit
/// tag; its full address is kept out of line (`Cache::wide`).
const WIDE_TAG: u32 = u32::MAX - 1;

/// Per-set state words after the tags: the dirty, prefetched and
/// has-trigger masks, bit `way` each.
const DIRTY: usize = 0;
const PREFETCHED: usize = 1;
const TRIGGER: usize = 2;
const STATE_WORDS: usize = 3;

/// `u32` words per host cache line.
const HOST_LINE_WORDS: usize = HOST_LINE_BYTES / 4;

/// Words in one set's block: tags, state masks and replacement state,
/// padded so no block straddles a host line it does not need (a power of
/// two up to one line, whole lines beyond).
const fn block_words(ways: usize, repl: ReplKind) -> usize {
    let words = ways + STATE_WORDS + SetRepl::words(repl, ways);
    if words <= HOST_LINE_WORDS {
        words.next_power_of_two()
    } else {
        words.next_multiple_of(HOST_LINE_WORDS)
    }
}

// A Table 1 set takes half a host line in the L1D, one in the L2 and two
// in the LLC; a new per-set field must not quietly push them over.
const _: () = assert!(block_words(4, ReplKind::Plru) * 4 == 32);
const _: () = assert!(block_words(8, ReplKind::Plru) * 4 == 64);
const _: () = assert!(block_words(16, ReplKind::Srrip) * 4 == 128);

/// A set-associative, write-back, write-allocate cache with an optional way
/// partition reserving the low ways of every set.
///
/// Each set is one block of `u32` words, aligned to host cache lines:
///
/// ```text
/// [ tag × ways | dirty mask | prefetched mask | trigger mask | replacement | pad ]
/// ```
///
/// The tags are the primary residency record: a resident line's address
/// with the set-index bits dropped (they are implied by the set), or
/// `NO_TAG` for an empty way. Bit `way` of each mask carries that way's
/// [`LineState`] flags, and the replacement words are [`SetRepl`]'s
/// encoding. A probe, the hit or fill that follows it and the victim read
/// all stay inside the set's block — half a host line, one and two for the
/// Table 1 L1D, L2 and LLC. Two per-line fields live out of line, read only
/// when flagged: the trigger PC of a prefetched line (`triggers`, flagged
/// by its mask bit) and the full address of a line whose tag does not fit
/// in 32 bits (`wide`, flagged by `WIDE_TAG`; no workload address reaches
/// that far, but the cache stays exact for every `u64` line).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    ways: usize,
    repl: SetRepl,
    /// `log2(sets)`: the address bits a tag leaves out.
    set_bits: u32,
    /// Set blocks back to back, `stride` words each.
    words: LineAligned<u32>,
    stride: usize,
    /// Trigger PC per slot (`set * ways + way`); meaningful only while the
    /// slot's trigger bit is set.
    triggers: Vec<u64>,
    /// Full line address per slot; meaningful only where the tag is
    /// `WIDE_TAG`.
    wide: Vec<u64>,
    /// Data occupies ways `[way_lo, ways)`; `[0, way_lo)` is reserved for the
    /// (externally modeled) metadata table.
    way_lo: usize,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache from its configuration.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into power-of-two sets, or
    /// if a set has more than 32 ways (one mask word per flag).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways;
        assert!(ways <= 32, "a set holds at most 32 ways");
        let repl = SetRepl::new(cfg.repl, ways);
        let stride = block_words(ways, cfg.repl);
        let mut words = LineAligned::new(sets * stride, 0);
        for set in 0..sets {
            let base = set * stride;
            words[base..base + ways].fill(NO_TAG);
            repl.init(&mut words[base + ways + STATE_WORDS..base + stride]);
        }
        Cache {
            repl,
            words,
            stride,
            triggers: vec![0; sets * ways],
            wide: vec![0; sets * ways],
            set_bits: sets.trailing_zeros(),
            sets,
            ways,
            way_lo: 0,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Total associativity (including any partitioned-away ways).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Ways currently available to demand data.
    pub fn data_ways(&self) -> usize {
        self.ways - self.way_lo
    }

    /// Cycles for a hit at this level.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets all counters (used between warm-up and measurement).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_index(&self, line: Line) -> usize {
        (line.0 as usize) & (self.sets - 1)
    }

    /// Word index of `set`'s block.
    #[inline]
    fn block(&self, set: usize) -> usize {
        set * self.stride
    }

    /// The state word `which` (`DIRTY`, `PREFETCHED` or `TRIGGER`) of the
    /// set whose block starts at `base`.
    #[inline]
    fn mask(&mut self, base: usize, which: usize) -> &mut u32 {
        &mut self.words[base + self.ways + which]
    }

    /// Records a hit or fill on `way` in the replacement state.
    #[inline]
    fn repl_touch(&mut self, base: usize, way: usize, fill: bool) {
        let st = &mut self.words[base + self.ways + STATE_WORDS..base + self.stride];
        if fill {
            self.repl.on_fill(st, way);
        } else {
            self.repl.on_hit(st, way);
        }
    }

    /// The tag `line` is stored under in its set.
    #[inline]
    fn tag_of(&self, line: Line) -> u32 {
        let tag = line.0 >> self.set_bits;
        if tag < WIDE_TAG as u64 {
            tag as u32
        } else {
            WIDE_TAG
        }
    }

    /// The line held in valid `way` of `set`.
    fn resident(&self, set: usize, way: usize) -> Line {
        match self.words[self.block(set) + way] {
            WIDE_TAG => Line(self.wide[set * self.ways + way]),
            tag => Line((tag as u64) << self.set_bits | set as u64),
        }
    }

    /// The full state of the valid line in `way` of `set`.
    fn line_state(&self, set: usize, way: usize) -> LineState {
        let base = self.block(set);
        let flag = |which: usize| self.words[base + self.ways + which] >> way & 1 == 1;
        LineState {
            line: self.resident(set, way),
            dirty: flag(DIRTY),
            prefetched: flag(PREFETCHED),
            trigger_pc: flag(TRIGGER).then(|| Pc(self.triggers[set * self.ways + way])),
        }
    }

    /// Writes `state` into `way` of `set` (tag, flags and trigger PC).
    fn put(&mut self, set: usize, way: usize, state: LineState) {
        let base = self.block(set);
        let bit = 1u32 << way;
        let tag = self.tag_of(state.line);
        self.words[base + way] = tag;
        if tag == WIDE_TAG {
            self.wide[set * self.ways + way] = state.line.0;
        }
        for (which, on) in [
            (DIRTY, state.dirty),
            (PREFETCHED, state.prefetched),
            (TRIGGER, state.trigger_pc.is_some()),
        ] {
            let m = self.mask(base, which);
            *m = if on { *m | bit } else { *m & !bit };
        }
        if let Some(pc) = state.trigger_pc {
            self.triggers[set * self.ways + way] = pc.0;
        }
    }

    /// Clears the prefetched bit of `way` in the set at `base`; if it was
    /// set, also takes the trigger PC (the prefetch has just been used).
    #[inline]
    fn take_prefetch(&mut self, set: usize, base: usize, way: usize) -> Option<Pc> {
        let bit = 1u32 << way;
        let prefetched = self.mask(base, PREFETCHED);
        if *prefetched & bit == 0 {
            return None;
        }
        *prefetched &= !bit;
        let trigger = self.mask(base, TRIGGER);
        if *trigger & bit == 0 {
            return None;
        }
        *trigger &= !bit;
        Some(Pc(self.triggers[set * self.ways + way]))
    }

    /// Reserves the first `k` ways of every set (for the metadata table),
    /// evicting any data lines currently held there. Returns the evicted
    /// lines so the caller can write back dirty ones.
    ///
    /// # Panics
    /// Panics if `k > ways`.
    pub fn set_reserved_ways(&mut self, k: usize) -> Vec<Evicted> {
        assert!(k <= self.ways, "cannot reserve more ways than exist");
        let mut evicted = Vec::new();
        if k > self.way_lo {
            for set in 0..self.sets {
                for way in self.way_lo..k {
                    let slot = self.block(set) + way;
                    if self.words[slot] != NO_TAG {
                        let state = self.line_state(set, way);
                        self.words[slot] = NO_TAG;
                        self.note_eviction(&state);
                        evicted.push(Evicted { state });
                    }
                }
            }
        }
        self.way_lo = k;
        evicted
    }

    /// Number of ways currently reserved for metadata.
    pub fn reserved_ways(&self) -> usize {
        self.way_lo
    }

    /// Pure lookup: is `line` resident? No replacement-state update.
    pub fn contains(&self, line: Line) -> bool {
        self.find_way(line).is_some()
    }

    /// The set, its block and the data way holding `line`, if resident.
    #[inline]
    fn find(&self, line: Line) -> (usize, usize, Option<usize>) {
        let set = self.set_index(line);
        let base = self.block(set);
        let tag = self.tag_of(line);
        let way = if tag == WIDE_TAG {
            (self.way_lo..self.ways).find(|&w| {
                self.words[base + w] == WIDE_TAG && self.wide[set * self.ways + w] == line.0
            })
        } else {
            let tags = &self.words[base + self.way_lo..base + self.ways];
            crate::flat::find_first(tags, tag).map(|i| self.way_lo + i)
        };
        (set, base, way)
    }

    #[inline]
    fn find_way(&self, line: Line) -> Option<usize> {
        self.find(line).2
    }

    /// Prefetch-side lookup: updates replacement state on a hit but does not
    /// touch demand counters or the prefetch-usefulness bit (only demand
    /// accesses make a prefetch "useful"). Returns whether the line hit.
    pub fn touch(&mut self, line: Line) -> bool {
        match self.find(line) {
            (_, base, Some(way)) => {
                self.repl_touch(base, way, false);
                true
            }
            _ => false,
        }
    }

    /// Clears the prefetched bit of a resident line, returning the trigger
    /// PC if the bit was set (the caller is crediting the prefetch as used
    /// through a non-demand path, e.g. an L1-prefetch hit).
    pub fn consume_prefetch_bit(&mut self, line: Line) -> Option<Pc> {
        let (set, base, way) = self.find(line);
        self.take_prefetch(set, base, way?)
    }

    /// Demand access (load or store). Updates replacement state and the
    /// prefetch-usefulness bit; sets the dirty bit when `is_store`.
    pub fn access(&mut self, line: Line, is_store: bool) -> AccessResult {
        match self.find(line) {
            (set, base, Some(way)) => {
                self.stats.demand_hits += 1;
                self.repl_touch(base, way, false);
                let first_use = self.take_prefetch(set, base, way);
                if is_store {
                    *self.mask(base, DIRTY) |= 1 << way;
                }
                AccessResult {
                    hit: true,
                    first_use_of_prefetch: first_use,
                }
            }
            _ => {
                self.stats.demand_misses += 1;
                AccessResult {
                    hit: false,
                    first_use_of_prefetch: None,
                }
            }
        }
    }

    /// Inserts `state` (which must not already be resident), evicting a
    /// victim if the data ways of the set are full. Returns the victim.
    ///
    /// # Panics
    /// Panics in debug builds if the line is already resident, or if the data
    /// partition is empty (no ways to fill into).
    pub fn fill(&mut self, state: LineState) -> Option<Evicted> {
        assert!(
            self.way_lo < self.ways,
            "cannot fill a cache whose data partition is empty"
        );
        debug_assert!(
            self.find_way(state.line).is_none(),
            "fill of already-resident line {:?}",
            state.line
        );
        if state.prefetched {
            self.stats.prefetch_fills += 1;
        } else {
            self.stats.demand_fills += 1;
        }
        let set = self.set_index(state.line);
        let base = self.block(set);
        // Prefer an invalid way. Every caller has just probed this set, so
        // the scan reads host lines the probe already brought in.
        let data_tags = &self.words[base + self.way_lo..base + self.ways];
        let (way, victim) = match crate::flat::find_first(data_tags, NO_TAG) {
            Some(i) => (self.way_lo + i, None),
            None => {
                let st = &mut self.words[base + self.ways + STATE_WORDS..base + self.stride];
                let way = self.repl.victim(st, self.way_lo, self.ways);
                let old = self.line_state(set, way);
                self.note_eviction(&old);
                (way, Some(Evicted { state: old }))
            }
        };
        self.put(set, way, state);
        self.repl_touch(base, way, true);
        victim
    }

    /// Removes `line` if resident (e.g. promotion out of a mostly-exclusive
    /// LLC) and returns its state.
    pub fn invalidate(&mut self, line: Line) -> Option<LineState> {
        let (set, base, way) = self.find(line);
        let way = way?;
        let state = self.line_state(set, way);
        self.words[base + way] = NO_TAG;
        Some(state)
    }

    /// Marks a resident line dirty (write-back arriving from an upper level).
    /// Returns `false` if the line is not resident.
    pub fn mark_dirty(&mut self, line: Line) -> bool {
        match self.find(line) {
            (_, base, Some(way)) => {
                *self.mask(base, DIRTY) |= 1 << way;
                true
            }
            _ => false,
        }
    }

    /// Number of currently valid data lines (O(capacity); for tests/reports).
    pub fn occupancy(&self) -> usize {
        (0..self.sets)
            .map(|set| {
                let base = self.block(set);
                self.words[base..base + self.ways]
                    .iter()
                    .filter(|&&t| t != NO_TAG)
                    .count()
            })
            .sum()
    }

    fn note_eviction(&mut self, state: &LineState) {
        self.stats.evictions += 1;
        if state.dirty {
            self.stats.dirty_evictions += 1;
        }
        if state.prefetched {
            self.stats.unused_prefetch_evictions += 1;
        }
    }
}

/// Plain-data image of a cache's mutable state (contents + replacement +
/// partition), for warm-up checkpointing. Statistics are deliberately
/// excluded: checkpoints capture the machine at the warm-up boundary, where
/// every counter is reset anyway.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSnapshot {
    /// `sets × ways` entries, way-major within a set.
    pub lines: Vec<Option<LineState>>,
    /// One replacement-state image per set.
    pub repl: Vec<ReplSnapshot>,
    /// Ways reserved for the metadata partition at snapshot time.
    pub way_lo: usize,
}

impl Cache {
    /// Captures contents, replacement state and the partition boundary.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut lines = Vec::with_capacity(self.sets * self.ways);
        let mut repl = Vec::with_capacity(self.sets);
        for set in 0..self.sets {
            let base = self.block(set);
            for way in 0..self.ways {
                lines.push((self.words[base + way] != NO_TAG).then(|| self.line_state(set, way)));
            }
            repl.push(
                self.repl
                    .snapshot(&self.words[base + self.ways + STATE_WORDS..base + self.stride]),
            );
        }
        CacheSnapshot {
            lines,
            repl,
            way_lo: self.way_lo,
        }
    }

    /// Restores a snapshot taken from a cache with the same geometry.
    /// Statistics are reset (snapshots mark the warm-up boundary).
    ///
    /// # Panics
    /// Panics on a geometry mismatch (the store keys checkpoints by
    /// configuration digest, so this indicates caller error, not bad data).
    pub fn restore(&mut self, snap: &CacheSnapshot) {
        assert_eq!(
            snap.lines.len(),
            self.sets * self.ways,
            "cache snapshot geometry mismatch"
        );
        assert_eq!(
            snap.repl.len(),
            self.sets,
            "cache snapshot geometry mismatch"
        );
        assert!(snap.way_lo <= self.ways, "cache snapshot geometry mismatch");
        for set in 0..self.sets {
            let base = self.block(set);
            for way in 0..self.ways {
                match snap.lines[set * self.ways + way] {
                    Some(state) => self.put(set, way, state),
                    None => self.words[base + way] = NO_TAG,
                }
            }
            self.repl.restore(
                &mut self.words[base + self.ways + STATE_WORDS..base + self.stride],
                &snap.repl[set],
            );
        }
        self.way_lo = snap.way_lo;
        self.stats = CacheStats::default();
    }
}

/// Convenience constructor for a [`LineState`] brought in by a demand miss.
pub fn demand_line(line: Line, dirty: bool) -> LineState {
    LineState {
        line,
        dirty,
        prefetched: false,
        trigger_pc: None,
    }
}

/// Convenience constructor for a [`LineState`] brought in by a prefetch.
pub fn prefetched_line(line: Line, trigger_pc: Pc) -> LineState {
    LineState {
        line,
        dirty: false,
        prefetched: true,
        trigger_pc: Some(trigger_pc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ways: usize, sets: usize) -> Cache {
        Cache::new(CacheConfig {
            name: "T",
            size_bytes: (sets * ways) as u64 * 64,
            ways,
            hit_latency: 2,
            repl: ReplKind::Plru,
            mshrs: 8,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache(2, 4);
        let l = Line(0x40);
        assert!(!c.access(l, false).hit);
        assert!(c.fill(demand_line(l, false)).is_none());
        assert!(c.access(l, false).hit);
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn eviction_on_conflict() {
        let mut c = small_cache(2, 4);
        // Three lines mapping to set 0 (sets=4 → stride 4).
        let a = Line(0);
        let b = Line(4);
        let d = Line(8);
        c.fill(demand_line(a, false));
        c.fill(demand_line(b, false));
        let ev = c.fill(demand_line(d, false)).expect("must evict");
        // Two-way PLRU is exact LRU: its one tree bit points away from
        // the last-touched way.
        assert_eq!(ev.state.line, a, "PLRU victim is the oldest fill");
        assert!(!c.contains(a));
        assert!(c.contains(b) && c.contains(d));
    }

    #[test]
    fn store_sets_dirty_and_eviction_reports_it() {
        let mut c = small_cache(1, 4);
        let l = Line(0);
        c.fill(demand_line(l, false));
        assert!(c.access(l, true).hit);
        let ev = c.fill(demand_line(Line(4), false)).unwrap();
        assert!(ev.state.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn prefetch_usefulness_bit_reported_once() {
        let mut c = small_cache(2, 4);
        let l = Line(0);
        c.fill(prefetched_line(l, Pc(7)));
        let first = c.access(l, false);
        assert_eq!(first.first_use_of_prefetch, Some(Pc(7)));
        let second = c.access(l, false);
        assert_eq!(second.first_use_of_prefetch, None);
    }

    #[test]
    fn unused_prefetch_eviction_counted() {
        let mut c = small_cache(1, 4);
        c.fill(prefetched_line(Line(0), Pc(1)));
        c.fill(demand_line(Line(4), false));
        assert_eq!(c.stats().unused_prefetch_evictions, 1);
    }

    #[test]
    fn partition_reserves_low_ways() {
        let mut c = small_cache(4, 2);
        for i in 0..4u64 {
            c.fill(demand_line(Line(i * 2), false)); // all map to set 0
        }
        assert_eq!(c.occupancy(), 4);
        let evicted = c.set_reserved_ways(2);
        assert_eq!(evicted.len(), 2, "two ways per set were reserved");
        assert_eq!(c.data_ways(), 2);
        // Capacity is now two ways; filling two more lines must evict.
        c.fill(demand_line(Line(100), false));
        assert!(c.occupancy() <= 4);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache(2, 4);
        c.fill(demand_line(Line(1), true));
        let st = c.invalidate(Line(1)).expect("line present");
        assert!(st.dirty);
        assert!(!c.contains(Line(1)));
        assert!(c.invalidate(Line(1)).is_none());
    }

    #[test]
    fn mark_dirty_on_resident_line() {
        let mut c = small_cache(2, 4);
        c.fill(demand_line(Line(3), false));
        assert!(c.mark_dirty(Line(3)));
        assert!(!c.mark_dirty(Line(99)));
    }

    #[test]
    fn snapshot_restores_contents_and_partition() {
        let mut c = small_cache(4, 2);
        c.set_reserved_ways(1);
        c.fill(demand_line(Line(0), true));
        c.fill(prefetched_line(Line(2), Pc(7)));
        let snap = c.snapshot();
        let mut fresh = small_cache(4, 2);
        fresh.restore(&snap);
        assert!(fresh.contains(Line(0)) && fresh.contains(Line(2)));
        assert_eq!(fresh.reserved_ways(), 1);
        assert_eq!(fresh.snapshot(), snap, "restore is lossless");
        assert_eq!(fresh.stats().demand_fills, 0, "stats restart at zero");
    }

    #[test]
    #[should_panic(expected = "snapshot geometry mismatch")]
    fn snapshot_restore_rejects_other_geometry() {
        let c = small_cache(2, 4);
        let mut other = small_cache(2, 8);
        other.restore(&c.snapshot());
    }

    #[test]
    #[should_panic(expected = "cannot reserve more ways")]
    fn over_reserve_panics() {
        let mut c = small_cache(2, 4);
        c.set_reserved_ways(3);
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = small_cache(2, 4);
        c.fill(demand_line(Line(0), false));
        c.access(Line(0), false);
        c.access(Line(64), false); // miss
        let s = c.stats();
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }
}
