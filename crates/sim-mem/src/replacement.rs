//! Cache replacement policies.
//!
//! The paper's system (Table 1) uses tree-PLRU in the L1/L2 and a
//! hierarchy-aware policy in the LLC (CHAR, which we approximate with SRRIP —
//! the re-reference predictor CHAR builds on). Those two are the policies
//! modelled here; the temporal-prefetcher metadata table carries its own
//! replacement in `prophet-temporal`.
//!
//! Policies operate on way indices within a set. The cache prefers an
//! invalid way before consulting policy state.

/// Plain-data image of one set's replacement state, for warm-up
/// checkpointing (`prophet-store` serializes these; the fields mirror the
/// policy state exactly so a restore is bit-faithful).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplSnapshot {
    Plru { bits: Vec<bool> },
    Srrip { rrpv: Vec<u8> },
}

/// Identifies a replacement policy family; used in cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplKind {
    /// Tree pseudo-LRU (used by the paper's L1/L2, Table 1). For
    /// non-power-of-two way counts the tree is built over the next power of
    /// two and out-of-range leaves are never chosen.
    Plru,
    /// Static re-reference interval prediction with 2-bit RRPVs
    /// (Jaleel et al.; our LLC).
    Srrip,
}

/// SRRIP re-reference prediction value for a brand-new line.
pub const SRRIP_LONG: u8 = 2;
/// Maximum (distant) RRPV with 2-bit counters.
pub const SRRIP_MAX: u8 = 3;

/// Replacement state for *every* set of one cache, flattened into
/// contiguous arrays.
///
/// A cache runs one policy across all sets, so the per-set state
/// concatenates into single arrays indexed by `set * ways + way` (PLRU:
/// `set * (leaves - 1) + node`) — one predictable stride instead of a
/// pointer chase into a per-set allocation. Each set's state evolves
/// independently; `tests/flat_equivalence.rs` checks every victim choice
/// and [`ReplSnapshot`] image against a per-set reference model.
#[derive(Debug, Clone)]
pub struct FlatRepl {
    kind: ReplKind,
    ways: usize,
    /// PLRU tree leaves (`ways.next_power_of_two().max(2)`).
    leaves: usize,
    /// PLRU: `sets × (leaves − 1)` tree bits; `true` points to the right
    /// child as the colder half.
    bits: Vec<bool>,
    /// SRRIP: `sets × ways` re-reference prediction values.
    rrpv: Vec<u8>,
}

impl FlatRepl {
    /// Fresh state for `sets` sets of `ways` ways each.
    pub fn new(kind: ReplKind, sets: usize, ways: usize) -> Self {
        let leaves = ways.next_power_of_two().max(2);
        let mut r = FlatRepl {
            kind,
            ways,
            leaves,
            bits: Vec::new(),
            rrpv: Vec::new(),
        };
        match kind {
            ReplKind::Plru => r.bits = vec![false; sets * (leaves - 1)],
            ReplKind::Srrip => r.rrpv = vec![SRRIP_MAX; sets * ways],
        }
        r
    }

    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.ways
    }

    /// Records a demand hit on `way` of `set`.
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize) {
        match self.kind {
            ReplKind::Plru => self.plru_touch(set, way),
            ReplKind::Srrip => self.rrpv[set * self.ways + way] = 0,
        }
    }

    /// Records a fill into `way` of `set` (after victim selection).
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize) {
        match self.kind {
            ReplKind::Plru => self.plru_touch(set, way),
            ReplKind::Srrip => self.rrpv[set * self.ways + way] = SRRIP_LONG,
        }
    }

    /// Selects a victim among ways `[lo, hi)` of `set`. The caller
    /// guarantees the range is non-empty and that every way in it holds a
    /// valid line (invalid ways are preferred by the cache before asking
    /// the policy).
    #[inline]
    pub fn victim(&mut self, set: usize, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        match self.kind {
            ReplKind::Plru => self.plru_victim(set, lo, hi),
            ReplKind::Srrip => self.srrip_aged_victim(set, lo, hi),
        }
    }

    /// SRRIP aging collapsed to two sweeps. The textbook loop repeats
    /// (scan for `SRRIP_MAX`, increment every way) until a way reaches the
    /// maximum; after `SRRIP_MAX - max_rrpv` rounds the first way holding
    /// the maximum RRPV is the victim and every counter has gained exactly
    /// that many rounds (none saturate, since all values are ≤ the max).
    /// Computing the max in one sweep and applying the bump in a second
    /// produces bit-identical state and the identical victim index.
    fn srrip_aged_victim(&mut self, set: usize, lo: usize, hi: usize) -> usize {
        let base = self.base(set);
        let mut max_w = lo;
        let mut max_v = self.rrpv[base + lo];
        for w in (lo + 1)..hi {
            let v = self.rrpv[base + w];
            if v > max_v {
                max_v = v;
                max_w = w;
            }
        }
        let bump = SRRIP_MAX - max_v;
        if bump > 0 {
            for w in lo..hi {
                self.rrpv[base + w] += bump;
            }
        }
        max_w
    }

    fn plru_touch(&mut self, set: usize, way: usize) {
        debug_assert!(way < self.ways);
        // Walk from the root to the leaf, flipping each node away from the
        // path taken so the tree points at the colder sibling.
        let tree = set * (self.leaves - 1);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                self.bits[tree + node] = true; // cold side is the right half
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.bits[tree + node] = false;
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    fn plru_victim(&self, set: usize, lo_way: usize, hi_way: usize) -> usize {
        // Follow the cold pointers; if the tree leads outside the allowed
        // way range (possible with partitioned or non-power-of-two sets),
        // fall back to a deterministic rotation through the range.
        let tree = set * (self.leaves - 1);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits[tree + node] {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        let candidate = lo;
        if candidate >= lo_way && candidate < hi_way {
            candidate
        } else {
            let span = hi_way - lo_way;
            lo_way + candidate % span
        }
    }

    /// Captures one set's state as the [`ReplSnapshot`] image the store
    /// serializes.
    pub fn snapshot_set(&self, set: usize) -> ReplSnapshot {
        let base = self.base(set);
        match self.kind {
            ReplKind::Plru => {
                let tree = set * (self.leaves - 1);
                ReplSnapshot::Plru {
                    bits: self.bits[tree..tree + self.leaves - 1].to_vec(),
                }
            }
            ReplKind::Srrip => ReplSnapshot::Srrip {
                rrpv: self.rrpv[base..base + self.ways].to_vec(),
            },
        }
    }

    /// Restores one set from a snapshot taken under the same policy and
    /// geometry.
    ///
    /// # Panics
    /// Panics if the snapshot's policy family or per-way vectors do not
    /// match this cache's configuration (the store keys checkpoints by
    /// configuration digest, so this indicates caller error).
    pub fn restore_set(&mut self, set: usize, snap: &ReplSnapshot) {
        let base = self.base(set);
        match (self.kind, snap) {
            (ReplKind::Plru, ReplSnapshot::Plru { bits }) => {
                let tree = set * (self.leaves - 1);
                assert_eq!(
                    bits.len(),
                    self.leaves - 1,
                    "PLRU snapshot geometry mismatch"
                );
                self.bits[tree..tree + self.leaves - 1].copy_from_slice(bits);
            }
            (ReplKind::Srrip, ReplSnapshot::Srrip { rrpv }) => {
                assert_eq!(rrpv.len(), self.ways, "SRRIP snapshot geometry mismatch");
                self.rrpv[base..base + self.ways].copy_from_slice(rrpv);
            }
            (kind, snap) => panic!("replacement snapshot policy mismatch: {kind:?} vs {snap:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plru_victim_is_not_most_recent() {
        let mut s = FlatRepl::new(ReplKind::Plru, 1, 4);
        for w in 0..4 {
            s.on_fill(0, w);
        }
        s.on_hit(0, 2);
        let v = s.victim(0, 0, 4);
        assert_ne!(v, 2, "PLRU must never evict the most recently used way");
    }

    #[test]
    fn plru_tracks_single_hot_way() {
        let mut s = FlatRepl::new(ReplKind::Plru, 1, 8);
        for _ in 0..100 {
            s.on_hit(0, 3);
        }
        assert_ne!(s.victim(0, 0, 8), 3);
    }

    #[test]
    fn plru_non_power_of_two() {
        let mut s = FlatRepl::new(ReplKind::Plru, 1, 6);
        for w in 0..6 {
            s.on_fill(0, w);
        }
        let v = s.victim(0, 0, 6);
        assert!(v < 6);
    }

    #[test]
    fn srrip_new_lines_evicted_before_reused_lines() {
        let mut s = FlatRepl::new(ReplKind::Srrip, 1, 4);
        for w in 0..4 {
            s.on_fill(0, w);
        }
        s.on_hit(0, 0);
        s.on_hit(0, 1);
        // Ways 2,3 still at long RRPV; aging promotes them to MAX first.
        let v = s.victim(0, 0, 4);
        assert!(v == 2 || v == 3);
    }

    #[test]
    fn srrip_aging_terminates() {
        let mut s = FlatRepl::new(ReplKind::Srrip, 1, 2);
        s.on_hit(0, 0);
        s.on_hit(0, 1);
        let v = s.victim(0, 0, 2);
        assert!(v < 2);
    }

    #[test]
    fn snapshot_round_trips_every_policy() {
        for kind in [ReplKind::Plru, ReplKind::Srrip] {
            let mut s = FlatRepl::new(kind, 2, 6);
            for w in 0..6 {
                s.on_fill(1, w);
            }
            s.on_hit(1, 2);
            s.on_hit(1, 4);
            let snap = s.snapshot_set(1);
            let mut restored = FlatRepl::new(kind, 2, 6);
            restored.restore_set(1, &snap);
            assert_eq!(
                restored.snapshot_set(1),
                snap,
                "{kind:?} snapshot is lossless"
            );
            // Identical state ⇒ identical victim choice.
            assert_eq!(restored.victim(1, 0, 6), s.victim(1, 0, 6), "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn restore_rejects_wrong_geometry() {
        let s = FlatRepl::new(ReplKind::Plru, 1, 4);
        FlatRepl::new(ReplKind::Plru, 1, 8).restore_set(0, &s.snapshot_set(0));
    }

    #[test]
    fn repl_state_dispatch_smoke() {
        for kind in [ReplKind::Plru, ReplKind::Srrip] {
            let mut s = FlatRepl::new(kind, 2, 8);
            s.on_fill(1, 0);
            s.on_hit(1, 0);
            let v = s.victim(1, 0, 8);
            assert!(v < 8, "{kind:?} victim out of range");
        }
    }
}
