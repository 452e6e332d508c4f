//! Equivalence suite for the flattened hot-path structures.
//!
//! The per-instruction rewrite replaced `HashMap`-backed state with
//! index-addressed structures: [`FlatMap`], [`InflightTable`] and
//! [`FlatRepl`]. Figures are pinned bit-identical by the golden tests;
//! this suite pins the *structural* claim directly by replaying randomized
//! operation streams against reference models kept here and asserting
//! identical observable decisions — every lookup, victim choice, and
//! snapshot image.

use std::collections::HashMap;

use prophet_sim_mem::addr::Line;
use prophet_sim_mem::replacement::{SRRIP_LONG, SRRIP_MAX};
use prophet_sim_mem::{FlatMap, FlatRepl, InflightTable, ReplKind, ReplSnapshot};

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
/// sweep over the in-flight entries, and the batched fast path that skips
/// the sweep whenever `len() < mshrs` (outstanding fills are a subset of
/// the table, so the length alone proves the delay is zero). The two must
/// agree on every query of a random insert/purge/query stream.
#[test]
fn mshr_delay_fast_path_matches_full_sweep() {
    fn full_sweep(entries: &[(Line, u64)], now: u64, mshrs: usize) -> u64 {
        let mut outstanding = 0usize;
        let mut min_ready: Option<u64> = None;
        for &(_, ready) in entries {
            if ready > now {
                outstanding += 1;
                min_ready = Some(min_ready.map_or(ready, |m| m.min(ready)));
            }
        }
        if outstanding < mshrs {
            0
        } else {
            min_ready.map(|r| r.saturating_sub(now)).unwrap_or(0)
        }
    }

    const MSHRS: usize = 16;
    for seed in 0..4u64 {
        let mut rng = Rng(0x0517 ^ seed);
        let mut table = InflightTable::new();
        let mut now = 0u64;
        for step in 0..30_000u64 {
            now += rng.below(3);
            match rng.below(100) {
                0..=69 => table.insert(Line(rng.below(600)), now + rng.below(300)),
                70..=79 => table.retain_ready_after(now),
                _ => {
                    let fast = if table.len() < MSHRS {
                        0
                    } else {
                        full_sweep(table.entries(), now, MSHRS)
                    };
                    assert_eq!(
                        fast,
                        full_sweep(table.entries(), now, MSHRS),
                        "fast path diverged at step {step} (seed {seed}, len {})",
                        table.len()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FlatRepl vs per-set ReplState
// ---------------------------------------------------------------------------

/// Per-set reference model: one policy object per set, each holding its
/// own small vectors — the layout `FlatRepl` flattened.
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

/// Replays one random stream of hit/fill/victim/snapshot operations
/// against both implementations and asserts identical behavior.
fn check_flat_repl(kind: ReplKind, sets: usize, ways: usize, seed: u64) {
    let mut flat = FlatRepl::new(kind, sets, ways);
    let mut reference: Vec<ReplState> = (0..sets).map(|_| ReplState::new(kind, ways)).collect();
    let mut rng = Rng(0xBEEF ^ seed ^ ((ways as u64) << 32));
    for step in 0..20_000u64 {
        let set = rng.below(sets as u64) as usize;
        let way = rng.below(ways as u64) as usize;
        match rng.below(10) {
            0..=3 => {
                flat.on_hit(set, way);
                reference[set].on_hit(way);
            }
            4..=6 => {
                flat.on_fill(set, way);
                reference[set].on_fill(way);
            }
            7..=8 => {
                // Victim over a random non-empty way range, including the
                // partitioned `[way_lo, ways)` ranges the cache uses for
                // reserved-way exclusion.
                let lo = rng.below(ways as u64) as usize;
                let hi = lo + 1 + rng.below((ways - lo) as u64) as usize;
                assert_eq!(
                    flat.victim(set, lo, hi),
                    reference[set].victim(lo, hi),
                    "victim diverged at step {step} ({kind:?}, set {set}, [{lo},{hi}))"
                );
            }
            _ => {
                assert_eq!(
                    flat.snapshot_set(set),
                    reference[set].snapshot(),
                    "snapshot diverged at step {step} ({kind:?}, set {set})"
                );
            }
        }
    }
    // Full-state sweep, then a restore round-trip into fresh instances.
    let mut flat2 = FlatRepl::new(kind, sets, ways);
    for set in 0..sets {
        let snap = reference[set].snapshot();
        assert_eq!(flat.snapshot_set(set), snap, "final snapshot, set {set}");
        flat2.restore_set(set, &snap);
    }
    // Restored state must continue identically (victim permutes SRRIP
    // aging state, so run a post-restore stream too).
    for _ in 0..2_000u64 {
        let set = rng.below(sets as u64) as usize;
        let lo = rng.below(ways as u64) as usize;
        let hi = lo + 1 + rng.below((ways - lo) as u64) as usize;
        assert_eq!(flat2.victim(set, lo, hi), reference[set].victim(lo, hi));
        let way = rng.below(ways as u64) as usize;
        flat2.on_fill(set, way);
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
