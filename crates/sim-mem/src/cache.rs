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
use crate::replacement::{FlatRepl, ReplKind, ReplSnapshot};

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

/// Tag value marking an empty slot in the flat tag array. Line addresses
/// are byte addresses shifted right by 6, so `u64::MAX` can never be a
/// real resident line.
const NO_TAG: u64 = u64::MAX;

/// A set-associative, write-back, write-allocate cache with an optional way
/// partition reserving the low ways of every set.
///
/// Residency is tracked twice: `lines` holds the full per-line state, and
/// `tags` mirrors just the line addresses in a dense `u64` array (with
/// `NO_TAG` for empty slots) so the per-access way scan reads 8
/// contiguous words instead of walking `Option<LineState>` entries. Every
/// mutation that changes *which* line a slot holds updates both
/// (`debug_assert`ed in `find_way`).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    ways: usize,
    /// `sets × ways` entries, way-major within a set.
    lines: Vec<Option<LineState>>,
    /// Flat residency mirror of `lines`: the line address per slot, or
    /// `NO_TAG`.
    tags: Vec<u64>,
    /// Replacement state for every set, flattened into contiguous per-kind
    /// arrays (one cache runs one policy).
    repl: FlatRepl,
    /// Data occupies ways `[way_lo, ways)`; `[0, way_lo)` is reserved for the
    /// (externally modeled) metadata table.
    way_lo: usize,
    /// Per-set count of valid data-partition lines, so `fill` can skip the
    /// invalid-way scan once a set is full (the steady state). Derived
    /// state: recomputed on restore and partition changes.
    filled: Vec<u32>,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache from its configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways;
        Cache {
            repl: FlatRepl::new(cfg.repl, sets, ways),
            lines: vec![None; sets * ways],
            tags: vec![NO_TAG; sets * ways],
            sets,
            ways,
            way_lo: 0,
            filled: vec![0; sets],
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

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
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
                    let slot = self.slot(set, way);
                    if let Some(state) = self.lines[slot].take() {
                        self.tags[slot] = NO_TAG;
                        self.note_eviction(&state);
                        evicted.push(Evicted { state });
                    }
                }
            }
        }
        self.way_lo = k;
        self.recount_filled();
        evicted
    }

    /// Recomputes the per-set fill counts from `lines` (after a restore or
    /// a partition change, where slots change wholesale).
    fn recount_filled(&mut self) {
        for set in 0..self.sets {
            let base = set * self.ways;
            self.filled[set] = self.lines[base + self.way_lo..base + self.ways]
                .iter()
                .filter(|l| l.is_some())
                .count() as u32;
        }
    }

    /// Number of ways currently reserved for metadata.
    pub fn reserved_ways(&self) -> usize {
        self.way_lo
    }

    /// Pure lookup: is `line` resident? No replacement-state update.
    pub fn contains(&self, line: Line) -> bool {
        self.find_way(line).is_some()
    }

    #[inline]
    fn find_way(&self, line: Line) -> Option<usize> {
        let set = self.set_index(line);
        let base = set * self.ways;
        let tags = &self.tags[base + self.way_lo..base + self.ways];
        let i = crate::flat::find_first_u64(tags, line.0)?;
        let way = self.way_lo + i;
        debug_assert!(
            matches!(self.lines[base + way], Some(s) if s.line == line),
            "tag mirror out of sync at set {set} way {way}"
        );
        Some(way)
    }

    /// Prefetch-side lookup: updates replacement state on a hit but does not
    /// touch demand counters or the prefetch-usefulness bit (only demand
    /// accesses make a prefetch "useful"). Returns whether the line hit.
    pub fn touch(&mut self, line: Line) -> bool {
        match self.find_way(line) {
            Some(way) => {
                let set = self.set_index(line);
                self.repl.on_hit(set, way);
                true
            }
            None => false,
        }
    }

    /// Clears the prefetched bit of a resident line, returning the trigger
    /// PC if the bit was set (the caller is crediting the prefetch as used
    /// through a non-demand path, e.g. an L1-prefetch hit).
    pub fn consume_prefetch_bit(&mut self, line: Line) -> Option<Pc> {
        let way = self.find_way(line)?;
        let set = self.set_index(line);
        let slot = self.slot(set, way);
        let state = self.lines[slot].as_mut().expect("way is valid");
        if state.prefetched {
            state.prefetched = false;
            state.trigger_pc.take()
        } else {
            None
        }
    }

    /// Demand access (load or store). Updates replacement state and the
    /// prefetch-usefulness bit; sets the dirty bit when `is_store`.
    pub fn access(&mut self, line: Line, is_store: bool) -> AccessResult {
        let set = self.set_index(line);
        if let Some(way) = self.find_way(line) {
            self.stats.demand_hits += 1;
            self.repl.on_hit(set, way);
            let slot = self.slot(set, way);
            let state = self.lines[slot].as_mut().expect("hit way must be valid");
            let first_use = if state.prefetched {
                state.prefetched = false;
                state.trigger_pc.take()
            } else {
                None
            };
            if is_store {
                state.dirty = true;
            }
            AccessResult {
                hit: true,
                first_use_of_prefetch: first_use,
            }
        } else {
            self.stats.demand_misses += 1;
            AccessResult {
                hit: false,
                first_use_of_prefetch: None,
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
        let base = set * self.ways;
        // Prefer an invalid way; the per-set fill count skips the scan
        // entirely once the set is full (the steady state).
        let data_ways = (self.ways - self.way_lo) as u32;
        let way = if self.filled[set] < data_ways {
            let data_tags = &self.tags[base + self.way_lo..base + self.ways];
            match crate::flat::find_first_u64(data_tags, NO_TAG) {
                Some(i) => self.way_lo + i,
                None => self.repl.victim(set, self.way_lo, self.ways),
            }
        } else {
            self.repl.victim(set, self.way_lo, self.ways)
        };
        let slot = base + way;
        let victim = self.lines[slot].take().map(|old| {
            self.note_eviction(&old);
            Evicted { state: old }
        });
        if victim.is_none() {
            self.filled[set] += 1;
        }
        self.lines[slot] = Some(state);
        self.tags[slot] = state.line.0;
        self.repl.on_fill(set, way);
        victim
    }

    /// Removes `line` if resident (e.g. promotion out of a mostly-exclusive
    /// LLC) and returns its state.
    pub fn invalidate(&mut self, line: Line) -> Option<LineState> {
        let way = self.find_way(line)?;
        let set = self.set_index(line);
        let slot = self.slot(set, way);
        self.tags[slot] = NO_TAG;
        self.filled[set] -= 1;
        self.lines[slot].take()
    }

    /// Marks a resident line dirty (write-back arriving from an upper level).
    /// Returns `false` if the line is not resident.
    pub fn mark_dirty(&mut self, line: Line) -> bool {
        match self.find_way(line) {
            Some(way) => {
                let set = self.set_index(line);
                let slot = self.slot(set, way);
                self.lines[slot].as_mut().expect("way is valid").dirty = true;
                true
            }
            None => false,
        }
    }

    /// Number of currently valid data lines (O(capacity); for tests/reports).
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
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
    /// `sets × ways` entries, way-major within a set (same layout as the
    /// live cache).
    pub lines: Vec<Option<LineState>>,
    /// One replacement-state image per set.
    pub repl: Vec<ReplSnapshot>,
    /// Ways reserved for the metadata partition at snapshot time.
    pub way_lo: usize,
}

impl Cache {
    /// Captures contents, replacement state and the partition boundary.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            lines: self.lines.clone(),
            repl: (0..self.sets).map(|s| self.repl.snapshot_set(s)).collect(),
            way_lo: self.way_lo,
        }
    }

    /// Restores a snapshot taken from a cache with the same geometry.
    /// Statistics are reset (snapshots mark the warm-up boundary).
    ///
    /// # Panics
    /// Panics on a geometry mismatch (the store keys checkpoints by system
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
        self.lines.clone_from(&snap.lines);
        for (slot, l) in self.lines.iter().enumerate() {
            self.tags[slot] = l.map_or(NO_TAG, |s| s.line.0);
        }
        for (set, r) in snap.repl.iter().enumerate() {
            self.repl.restore_set(set, r);
        }
        self.way_lo = snap.way_lo;
        self.recount_filled();
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
