//! Equivalence suite for the flattened and packed hot-path structures.
//!
//! The per-instruction rewrites replaced `HashMap`-backed and per-line
//! record state with index-addressed, packed structures: [`FlatMap`],
//! [`InflightTable`] (with its sorted ready cycles), [`SetRepl`] over
//! in-block state words, and [`Cache`]'s per-set blocks. Figures are
//! pinned bit-identical by the golden tests; this suite pins the
//! *structural* claim directly by replaying randomized operation streams
//! against reference models kept here — including the `Option<LineState>`
//! cache the packed one replaced — and asserting identical observable
//! decisions: every lookup, victim, counter and snapshot image.

use std::collections::HashMap;

use prophet_sim_mem::addr::{Line, Pc};
use prophet_sim_mem::cache::{AccessResult, CacheConfig, Evicted};
use prophet_sim_mem::replacement::{SRRIP_LONG, SRRIP_MAX};
use prophet_sim_mem::{
    Cache, CacheSnapshot, CacheStats, FlatMap, InflightTable, LineState, ReplKind, ReplSnapshot,
    SetRepl,
};

/// Deterministic splitmix64 stream — the tests need reproducible
/// randomness without a dev-dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// FlatMap vs HashMap
// ---------------------------------------------------------------------------

#[test]
fn flatmap_matches_hashmap_on_random_streams() {
    for seed in 0..8u64 {
        let mut rng = Rng(0xF1A7 ^ seed);
        let mut flat: FlatMap<u64> = FlatMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for step in 0..20_000u64 {
            // A small key universe forces overwrites and probe-chain reuse;
            // shifting keys into high bits stresses the hash fold.
            let key = rng.below(512) << (8 * (seed % 5));
            match rng.below(100) {
                0..=39 => {
                    let val = rng.next();
                    assert_eq!(
                        flat.insert(key, val),
                        reference.insert(key, val),
                        "insert return diverged at step {step} (seed {seed})"
                    );
                }
                40..=69 => {
                    assert_eq!(
                        flat.get(key),
                        reference.get(&key),
                        "get diverged at step {step} (seed {seed})"
                    );
                }
                70..=84 => {
                    let fresh = rng.next();
                    let f = flat.get_or_insert_with(key, || fresh);
                    let r = reference.entry(key).or_insert(fresh);
                    assert_eq!(*f, *r, "get_or_insert diverged at step {step}");
                    // Mutate through both handles identically.
                    *f = f.wrapping_add(1);
                    *r = r.wrapping_add(1);
                }
                85..=98 => {
                    assert_eq!(flat.contains_key(key), reference.contains_key(&key));
                    if let Some(v) = flat.get_mut(key) {
                        *v ^= 0xFF;
                        *reference.get_mut(&key).unwrap() ^= 0xFF;
                    }
                }
                _ => {
                    // Rare full reset — FlatMap's only removal primitive.
                    flat.clear();
                    reference.clear();
                }
            }
            assert_eq!(flat.len(), reference.len(), "len diverged at step {step}");
        }
        // Final content sweep: same entries regardless of iteration order.
        let mut got: Vec<(u64, u64)> = flat.iter().map(|(k, &v)| (k, v)).collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        want.sort_unstable();
        assert_eq!(got, want, "content diverged (seed {seed})");
    }
}

#[test]
fn flatmap_survives_adversarial_collisions() {
    // Keys that collapse to few distinct hash slots exercise long probe
    // chains and growth-time rehashing together.
    let mut flat: FlatMap<u64> = FlatMap::new();
    let mut reference: HashMap<u64, u64> = HashMap::new();
    for k in 0..4_096u64 {
        let key = k << 33; // dies in the `key >> 33` fold's low half
        flat.insert(key, k);
        reference.insert(key, k);
    }
    for (&k, &v) in &reference {
        assert_eq!(flat.get(k), Some(&v));
    }
    assert_eq!(flat.len(), reference.len());
}

#[test]
fn flatmap_epoch_clear_matches_hashmap_across_generations() {
    // `clear()` is now an epoch bump (no memset): a slot written in an
    // earlier generation must be invisible afterwards even though its
    // key/value bytes are still physically present. A clear-heavy stream
    // with a reused key universe is exactly the workload that would
    // surface a stale-stamp bug.
    for seed in 0..4u64 {
        let mut rng = Rng(0xEC0C ^ seed);
        let mut flat: FlatMap<u64> = FlatMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for step in 0..50_000u64 {
            if rng.below(200) == 0 {
                flat.clear();
                reference.clear();
            }
            let key = rng.below(256);
            if rng.below(2) == 0 {
                let val = rng.next();
                assert_eq!(
                    flat.insert(key, val),
                    reference.insert(key, val),
                    "insert diverged at step {step} (seed {seed})"
                );
            } else {
                assert_eq!(
                    flat.get(key),
                    reference.get(&key),
                    "get saw a stale generation at step {step} (seed {seed})"
                );
            }
            assert_eq!(flat.len(), reference.len());
        }
    }
}

// ---------------------------------------------------------------------------
// InflightTable vs insertion-ordered reference
// ---------------------------------------------------------------------------

/// The pre-flattening semantics: a map for lookups plus insertion order
/// for the MSHR scan (the original used a `HashMap` and derived scan
/// results order-independently; the dense table additionally *fixes* the
/// order to insertion order, which this model mirrors).
#[derive(Default)]
struct InflightRef {
    entries: Vec<(Line, u64)>,
}

impl InflightRef {
    fn get(&self, line: Line) -> Option<u64> {
        self.entries
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, r)| r)
    }

    fn insert(&mut self, line: Line, ready: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == line) {
            e.1 = ready;
        } else {
            self.entries.push((line, ready));
        }
    }

    fn retain_ready_after(&mut self, now: u64) {
        self.entries.retain(|&(_, ready)| ready > now);
    }
}

#[test]
fn inflight_table_matches_reference_model() {
    for seed in 0..4u64 {
        let mut rng = Rng(0x1F11 ^ seed);
        let mut table = InflightTable::new();
        let mut reference = InflightRef::default();
        let mut now = 0u64;
        for step in 0..30_000u64 {
            now += rng.below(4);
            match rng.below(100) {
                0..=59 => {
                    let line = Line(rng.below(800));
                    let ready = now + rng.below(400);
                    table.insert(line, ready);
                    reference.insert(line, ready);
                }
                60..=89 => {
                    let line = Line(rng.below(800));
                    assert_eq!(
                        table.get(line),
                        reference.get(line),
                        "get diverged at step {step} (seed {seed})"
                    );
                }
                _ => {
                    table.retain_ready_after(now);
                    reference.retain_ready_after(now);
                }
            }
            assert_eq!(table.len(), reference.entries.len());
        }
        // The dense scan order the MSHR sweep sees must be the reference's
        // insertion order exactly.
        assert_eq!(
            table.entries(),
            reference.entries.as_slice(),
            "entry order diverged (seed {seed})"
        );
    }
}

/// The hierarchy's MSHR-delay computation, replayed both ways: the full
/// sweep over the in-flight entries the simulator once ran, and today's
/// answer read off the table's sorted ready cycles
/// ([`InflightTable::mshr_wait`]). The two must agree — and the sorted
/// cycles must give the sweep's outstanding count and earliest ready
/// cycle — on every query of a random insert/overwrite/purge stream, at
/// query times that step backwards as well as forwards (`now` is not
/// monotone in the simulator) and for register counts from zero up.
#[test]
fn mshr_delay_fast_path_matches_full_sweep() {
    /// Outstanding count and earliest ready cycle after `now`, by sweep.
    fn sweep(entries: &[(Line, u64)], now: u64) -> (usize, Option<u64>) {
        let mut outstanding = 0usize;
        let mut min_ready: Option<u64> = None;
        for &(_, ready) in entries {
            if ready > now {
                outstanding += 1;
                min_ready = Some(min_ready.map_or(ready, |m| m.min(ready)));
            }
        }
        (outstanding, min_ready)
    }
    fn full_sweep(entries: &[(Line, u64)], now: u64, mshrs: usize) -> u64 {
        match sweep(entries, now) {
            (outstanding, _) if outstanding < mshrs => 0,
            (_, min_ready) => min_ready.map(|r| r.saturating_sub(now)).unwrap_or(0),
        }
    }

    for seed in 0..4u64 {
        let mut rng = Rng(0x0517 ^ seed);
        let mut table = InflightTable::new();
        let mut now = 0u64;
        for step in 0..30_000u64 {
            now += rng.below(3);
            match rng.below(100) {
                // A small line universe makes overwrites common.
                0..=69 => table.insert(Line(rng.below(600)), now + rng.below(300)),
                70..=79 => table.retain_ready_after(now),
                _ => {
                    let at = (now + rng.below(200)).saturating_sub(rng.below(200));
                    let ready = table.ready_cycles();
                    let done = ready.partition_point(|&r| r <= at);
                    assert_eq!(
                        (ready.len() - done, ready.get(done).copied()),
                        sweep(table.entries(), at),
                        "sorted cycles diverged at step {step} (seed {seed}, len {})",
                        table.len()
                    );
                    for mshrs in [0, 1, 16, 64] {
                        assert_eq!(
                            table.mshr_wait(at, mshrs),
                            full_sweep(table.entries(), at, mshrs),
                            "MSHR wait diverged at step {step} (seed {seed}, len {}, {mshrs} MSHRs)",
                            table.len()
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SetRepl vs per-set ReplState
// ---------------------------------------------------------------------------

/// Per-set reference model: one policy object per set, each holding its
/// own small vectors — the layout `SetRepl` packs into state words.
#[derive(Debug, Clone)]
enum ReplState {
    Plru(PlruState),
    Srrip(SrripState),
}

impl ReplState {
    fn new(kind: ReplKind, ways: usize) -> Self {
        match kind {
            ReplKind::Plru => ReplState::Plru(PlruState::new(ways)),
            ReplKind::Srrip => ReplState::Srrip(SrripState::new(ways)),
        }
    }

    fn on_hit(&mut self, way: usize) {
        match self {
            ReplState::Plru(s) => s.touch(way),
            ReplState::Srrip(s) => s.rrpv[way] = 0,
        }
    }

    fn on_fill(&mut self, way: usize) {
        match self {
            ReplState::Plru(s) => s.touch(way),
            ReplState::Srrip(s) => s.rrpv[way] = SRRIP_LONG,
        }
    }

    fn snapshot(&self) -> ReplSnapshot {
        match self {
            ReplState::Plru(s) => ReplSnapshot::Plru {
                bits: s.bits.clone(),
            },
            ReplState::Srrip(s) => ReplSnapshot::Srrip {
                rrpv: s.rrpv.clone(),
            },
        }
    }

    fn victim(&mut self, lo: usize, hi: usize) -> usize {
        match self {
            ReplState::Plru(s) => s.victim(lo, hi),
            ReplState::Srrip(s) => s.victim(lo, hi),
        }
    }
}

/// Tree pseudo-LRU over the next power of two of `ways` leaves.
#[derive(Debug, Clone)]
struct PlruState {
    /// One bit per internal node; `true` points to the right child as the
    /// colder half.
    bits: Vec<bool>,
    leaves: usize,
}

impl PlruState {
    fn new(ways: usize) -> Self {
        let leaves = ways.next_power_of_two().max(2);
        PlruState {
            bits: vec![false; leaves - 1],
            leaves,
        }
    }

    fn touch(&mut self, way: usize) {
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                self.bits[node] = true;
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.bits[node] = false;
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    fn victim(&self, lo_way: usize, hi_way: usize) -> usize {
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits[node] {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        if (lo_way..hi_way).contains(&lo) {
            lo
        } else {
            lo_way + lo % (hi_way - lo_way)
        }
    }
}

/// Textbook SRRIP: scan for a distant RRPV, age every way, repeat.
#[derive(Debug, Clone)]
struct SrripState {
    rrpv: Vec<u8>,
}

impl SrripState {
    fn new(ways: usize) -> Self {
        SrripState {
            rrpv: vec![SRRIP_MAX; ways],
        }
    }

    fn victim(&mut self, lo: usize, hi: usize) -> usize {
        loop {
            if let Some(w) = (lo..hi).find(|&w| self.rrpv[w] == SRRIP_MAX) {
                return w;
            }
            for w in lo..hi {
                self.rrpv[w] = (self.rrpv[w] + 1).min(SRRIP_MAX);
            }
        }
    }
}

const REPL_KINDS: [ReplKind; 2] = [ReplKind::Plru, ReplKind::Srrip];

/// `sets` fresh sets of `repl`'s state words.
fn fresh_words(repl: &SetRepl, sets: usize) -> Vec<Vec<u32>> {
    (0..sets)
        .map(|_| {
            let mut st = vec![0; repl.set_words()];
            repl.init(&mut st);
            st
        })
        .collect()
}

/// Replays one random stream of hit/fill/victim/snapshot operations
/// against both implementations and asserts identical behavior.
fn check_flat_repl(kind: ReplKind, sets: usize, ways: usize, seed: u64) {
    let repl = SetRepl::new(kind, ways);
    let mut flat = fresh_words(&repl, sets);
    let mut reference: Vec<ReplState> = (0..sets).map(|_| ReplState::new(kind, ways)).collect();
    let mut rng = Rng(0xBEEF ^ seed ^ ((ways as u64) << 32));
    for step in 0..20_000u64 {
        let set = rng.below(sets as u64) as usize;
        let way = rng.below(ways as u64) as usize;
        match rng.below(10) {
            0..=3 => {
                repl.on_hit(&mut flat[set], way);
                reference[set].on_hit(way);
            }
            4..=6 => {
                repl.on_fill(&mut flat[set], way);
                reference[set].on_fill(way);
            }
            7..=8 => {
                // Victim over a random non-empty way range, including the
                // partitioned `[way_lo, ways)` ranges the cache uses for
                // reserved-way exclusion.
                let lo = rng.below(ways as u64) as usize;
                let hi = lo + 1 + rng.below((ways - lo) as u64) as usize;
                assert_eq!(
                    repl.victim(&mut flat[set], lo, hi),
                    reference[set].victim(lo, hi),
                    "victim diverged at step {step} ({kind:?}, set {set}, [{lo},{hi}))"
                );
            }
            _ => {
                assert_eq!(
                    repl.snapshot(&flat[set]),
                    reference[set].snapshot(),
                    "snapshot diverged at step {step} ({kind:?}, set {set})"
                );
            }
        }
    }
    // Full-state sweep, then a restore round-trip into fresh instances.
    let mut flat2 = fresh_words(&repl, sets);
    for ((st, st2), r) in flat.iter().zip(&mut flat2).zip(&reference) {
        let snap = r.snapshot();
        assert_eq!(repl.snapshot(st), snap, "final snapshot");
        repl.restore(st2, &snap);
    }
    // Restored state must continue identically (victim permutes SRRIP
    // aging state, so run a post-restore stream too).
    for _ in 0..2_000u64 {
        let set = rng.below(sets as u64) as usize;
        let lo = rng.below(ways as u64) as usize;
        let hi = lo + 1 + rng.below((ways - lo) as u64) as usize;
        assert_eq!(
            repl.victim(&mut flat2[set], lo, hi),
            reference[set].victim(lo, hi)
        );
        let way = rng.below(ways as u64) as usize;
        repl.on_fill(&mut flat2[set], way);
        reference[set].on_fill(way);
    }
}

#[test]
fn flat_repl_matches_per_set_states() {
    for kind in REPL_KINDS {
        for seed in 0..3u64 {
            check_flat_repl(kind, 16, 8, seed);
        }
    }
}

#[test]
fn flat_repl_matches_on_non_power_of_two_ways() {
    // PLRU pads its tree to the next power of two; 6 and 12 ways exercise
    // the padded-leaf exclusion logic in both implementations.
    for kind in REPL_KINDS {
        check_flat_repl(kind, 8, 6, 7);
        check_flat_repl(kind, 4, 12, 11);
    }
}

// ---------------------------------------------------------------------------
// Cache vs the Option<LineState> cache it replaced
// ---------------------------------------------------------------------------

/// The cache before its sets were packed into blocks: one
/// `Option<LineState>` record per slot, a per-set policy object, and
/// residency found by walking the records.
struct RefCache {
    sets: usize,
    ways: usize,
    lines: Vec<Option<LineState>>,
    repl: Vec<ReplState>,
    way_lo: usize,
    stats: CacheStats,
}

impl RefCache {
    fn new(sets: usize, ways: usize, kind: ReplKind) -> Self {
        RefCache {
            sets,
            ways,
            lines: vec![None; sets * ways],
            repl: (0..sets).map(|_| ReplState::new(kind, ways)).collect(),
            way_lo: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: Line) -> usize {
        line.0 as usize & (self.sets - 1)
    }

    fn find_way(&self, line: Line) -> Option<usize> {
        let base = self.set_of(line) * self.ways;
        (self.way_lo..self.ways)
            .find(|&w| matches!(self.lines[base + w], Some(s) if s.line == line))
    }

    fn state_mut(&mut self, line: Line) -> Option<&mut LineState> {
        let slot = self.set_of(line) * self.ways + self.find_way(line)?;
        self.lines[slot].as_mut()
    }

    fn contains(&self, line: Line) -> bool {
        self.find_way(line).is_some()
    }

    fn touch(&mut self, line: Line) -> bool {
        let set = self.set_of(line);
        match self.find_way(line) {
            Some(way) => {
                self.repl[set].on_hit(way);
                true
            }
            None => false,
        }
    }

    fn consume_prefetch_bit(&mut self, line: Line) -> Option<Pc> {
        let state = self.state_mut(line)?;
        if state.prefetched {
            state.prefetched = false;
            state.trigger_pc.take()
        } else {
            None
        }
    }

    fn access(&mut self, line: Line, is_store: bool) -> AccessResult {
        let set = self.set_of(line);
        let Some(way) = self.find_way(line) else {
            self.stats.demand_misses += 1;
            return AccessResult {
                hit: false,
                first_use_of_prefetch: None,
            };
        };
        self.stats.demand_hits += 1;
        self.repl[set].on_hit(way);
        let state = self.lines[set * self.ways + way].as_mut().unwrap();
        let first_use = if state.prefetched {
            state.prefetched = false;
            state.trigger_pc.take()
        } else {
            None
        };
        state.dirty |= is_store;
        AccessResult {
            hit: true,
            first_use_of_prefetch: first_use,
        }
    }

    fn fill(&mut self, state: LineState) -> Option<Evicted> {
        if state.prefetched {
            self.stats.prefetch_fills += 1;
        } else {
            self.stats.demand_fills += 1;
        }
        let set = self.set_of(state.line);
        let base = set * self.ways;
        let way = (self.way_lo..self.ways)
            .find(|&w| self.lines[base + w].is_none())
            .unwrap_or_else(|| self.repl[set].victim(self.way_lo, self.ways));
        let victim = self.lines[base + way].take().map(|old| {
            self.note_eviction(&old);
            Evicted { state: old }
        });
        self.lines[base + way] = Some(state);
        self.repl[set].on_fill(way);
        victim
    }

    fn invalidate(&mut self, line: Line) -> Option<LineState> {
        let slot = self.set_of(line) * self.ways + self.find_way(line)?;
        self.lines[slot].take()
    }

    fn mark_dirty(&mut self, line: Line) -> bool {
        match self.state_mut(line) {
            Some(state) => {
                state.dirty = true;
                true
            }
            None => false,
        }
    }

    fn set_reserved_ways(&mut self, k: usize) -> Vec<Evicted> {
        let mut evicted = Vec::new();
        if k > self.way_lo {
            for set in 0..self.sets {
                for way in self.way_lo..k {
                    if let Some(state) = self.lines[set * self.ways + way].take() {
                        self.note_eviction(&state);
                        evicted.push(Evicted { state });
                    }
                }
            }
        }
        self.way_lo = k;
        evicted
    }

    fn note_eviction(&mut self, state: &LineState) {
        self.stats.evictions += 1;
        self.stats.dirty_evictions += state.dirty as u64;
        self.stats.unused_prefetch_evictions += state.prefetched as u64;
    }

    fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            lines: self.lines.clone(),
            repl: self.repl.iter().map(ReplState::snapshot).collect(),
            way_lo: self.way_lo,
        }
    }
}

/// Replays a random op stream on the packed cache and the reference,
/// comparing every result, victim, counter and the full snapshot after
/// each op; then restores the final snapshot into a fresh packed cache and
/// continues the stream on it.
fn check_cache(sets: usize, ways: usize, kind: ReplKind, seed: u64) {
    let cfg = CacheConfig {
        name: "T",
        size_bytes: (sets * ways * 64) as u64,
        ways,
        hit_latency: 1,
        repl: kind,
        mshrs: 4,
    };
    let mut cache = Cache::new(cfg.clone());
    let mut reference = RefCache::new(sets, ways, kind);
    let mut rng = Rng(0xCAC4E ^ seed ^ ((ways as u64) << 40));
    // About five lines per way slot, so sets overflow and lines recur;
    // some lines carry high address bits (up to the very top, where a
    // 32-bit tag cannot hold them).
    let universe = (sets * ways * 5) as u64;
    let line = |rng: &mut Rng| {
        let l = rng.below(universe);
        Line(match rng.below(16) {
            0 | 1 => l | 1 << 50,
            2 => u64::MAX - l,
            _ => l,
        })
    };
    for step in 0..6_000u64 {
        let l = line(&mut rng);
        let ctx = format!("step {step} ({sets}x{ways} {kind:?}, seed {seed}, {l:?})");
        match rng.below(100) {
            0..=29 => {
                let store = rng.below(4) == 0;
                assert_eq!(
                    cache.access(l, store),
                    reference.access(l, store),
                    "access, {ctx}"
                );
            }
            30..=39 => assert_eq!(cache.touch(l), reference.touch(l), "touch, {ctx}"),
            40..=64 => {
                // Fills carry every flag combination, including a trigger
                // PC without the prefetched bit (the codec admits it).
                if reference.contains(l) || reference.way_lo == ways {
                    continue;
                }
                let state = LineState {
                    line: l,
                    dirty: rng.below(3) == 0,
                    prefetched: rng.below(2) == 0,
                    trigger_pc: (rng.below(3) != 0).then(|| Pc(rng.below(1 << 40))),
                };
                assert_eq!(cache.fill(state), reference.fill(state), "fill, {ctx}");
            }
            65..=74 => assert_eq!(
                cache.invalidate(l),
                reference.invalidate(l),
                "invalidate, {ctx}"
            ),
            75..=84 => assert_eq!(
                cache.mark_dirty(l),
                reference.mark_dirty(l),
                "mark_dirty, {ctx}"
            ),
            85..=96 => assert_eq!(
                cache.consume_prefetch_bit(l),
                reference.consume_prefetch_bit(l),
                "consume_prefetch_bit, {ctx}"
            ),
            _ => {
                // Mostly small partitions, occasionally all ways.
                let k = rng.below(ways as u64 / 2 + 1) as usize
                    + if rng.below(10) == 0 { ways / 2 } else { 0 };
                assert_eq!(
                    cache.set_reserved_ways(k.min(ways)),
                    reference.set_reserved_ways(k.min(ways)),
                    "set_reserved_ways, {ctx}"
                );
            }
        }
        assert_eq!(cache.contains(l), reference.contains(l), "contains, {ctx}");
        assert_eq!(cache.stats(), &reference.stats, "stats, {ctx}");
        assert_eq!(cache.snapshot(), reference.snapshot(), "snapshot, {ctx}");
    }
    assert_eq!(
        cache.occupancy(),
        reference.lines.iter().flatten().count(),
        "occupancy"
    );
    // A restored copy continues exactly like the reference.
    let mut restored = Cache::new(cfg);
    restored.restore(&reference.snapshot());
    reference.stats = CacheStats::default();
    for step in 0..1_000u64 {
        let l = line(&mut rng);
        let hit = restored.access(l, false);
        assert_eq!(
            hit,
            reference.access(l, false),
            "restored access, step {step}"
        );
        if !hit.hit && reference.way_lo < ways {
            let state = LineState {
                line: l,
                dirty: false,
                prefetched: true,
                trigger_pc: Some(Pc(step)),
            };
            assert_eq!(restored.fill(state), reference.fill(state), "restored fill");
        }
    }
    assert_eq!(
        restored.snapshot(),
        reference.snapshot(),
        "restored snapshot"
    );
    assert_eq!(restored.clone().snapshot(), reference.snapshot(), "clone");
}

#[test]
fn cache_matches_option_record_reference() {
    for seed in 0..2u64 {
        // The Table 1 shapes (L1D, L2, LLC) at small set counts.
        check_cache(16, 4, ReplKind::Plru, seed);
        check_cache(16, 8, ReplKind::Plru, seed);
        check_cache(8, 16, ReplKind::Srrip, seed);
    }
}

#[test]
fn cache_matches_reference_on_odd_shapes() {
    // Direct-mapped, non-power-of-two associativity under both policies.
    check_cache(8, 1, ReplKind::Plru, 3);
    check_cache(4, 6, ReplKind::Plru, 4);
    check_cache(4, 12, ReplKind::Srrip, 5);
    check_cache(2, 3, ReplKind::Srrip, 6);
}
