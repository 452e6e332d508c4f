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

/// One cache's replacement policy, applied to one set's state words at a
/// time.
///
/// The state itself lives in the cache, inside each set's block beside its
/// tags (see [`crate::cache::Cache`]), so a probe and the replacement
/// update after it touch the same host cache lines. This type holds only
/// the geometry and knows the encoding:
///
/// * PLRU: one `u32` word; bit `node` is tree node `node` (`leaves - 1`
///   nodes, so at most 32 leaves), set when the colder half is the right
///   child.
/// * SRRIP: `ceil(ways / 4)` words; byte `way % 4` of word `way / 4` is
///   that way's re-reference prediction value.
///
/// Each set's state evolves independently; `tests/flat_equivalence.rs`
/// checks every victim choice and [`ReplSnapshot`] image against a per-set
/// reference model.
#[derive(Debug, Clone, Copy)]
pub struct SetRepl {
    kind: ReplKind,
    ways: usize,
    /// PLRU tree leaves (`ways.next_power_of_two().max(2)`).
    leaves: usize,
    /// PLRU tree depth, `log2(leaves)`.
    depth: u32,
}

impl SetRepl {
    /// The policy `kind` over sets of `ways` ways.
    ///
    /// # Panics
    /// Panics if PLRU's tree would need more than one word (over 32 ways).
    pub fn new(kind: ReplKind, ways: usize) -> Self {
        let leaves = ways.next_power_of_two().max(2);
        assert!(
            kind != ReplKind::Plru || leaves <= 32,
            "PLRU state is one word per set: at most 32 ways"
        );
        SetRepl {
            kind,
            ways,
            leaves,
            depth: leaves.trailing_zeros(),
        }
    }

    /// State words per set.
    pub const fn words(kind: ReplKind, ways: usize) -> usize {
        match kind {
            ReplKind::Plru => 1,
            ReplKind::Srrip => ways.div_ceil(4),
        }
    }

    /// State words per set of this policy.
    pub fn set_words(&self) -> usize {
        Self::words(self.kind, self.ways)
    }

    /// Writes a fresh set's state into `st`.
    pub fn init(&self, st: &mut [u32]) {
        match self.kind {
            ReplKind::Plru => st[0] = 0,
            ReplKind::Srrip => {
                for w in 0..self.ways {
                    set_byte(st, w, SRRIP_MAX);
                }
            }
        }
    }

    /// Records a demand hit on `way`.
    #[inline]
    pub fn on_hit(&self, st: &mut [u32], way: usize) {
        match self.kind {
            ReplKind::Plru => self.plru_touch(st, way),
            ReplKind::Srrip => set_byte(st, way, 0),
        }
    }

    /// Records a fill into `way` (after victim selection).
    #[inline]
    pub fn on_fill(&self, st: &mut [u32], way: usize) {
        match self.kind {
            ReplKind::Plru => self.plru_touch(st, way),
            ReplKind::Srrip => set_byte(st, way, SRRIP_LONG),
        }
    }

    /// Selects a victim among ways `[lo, hi)`. The caller guarantees the
    /// range is non-empty and that every way in it holds a valid line
    /// (invalid ways are preferred by the cache before asking the policy).
    #[inline]
    pub fn victim(&self, st: &mut [u32], lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        match self.kind {
            ReplKind::Plru => self.plru_victim(st, lo, hi),
            ReplKind::Srrip => srrip_aged_victim(st, lo, hi),
        }
    }

    fn plru_touch(&self, st: &mut [u32], way: usize) {
        debug_assert!(way < self.ways);
        // Walk from the root to the leaf, flipping each node away from the
        // path taken so the tree points at the colder sibling. The path is
        // the way's bits from the top: 0 goes left (and marks the right
        // half cold), 1 goes right.
        let mut bits = st[0];
        let mut node = 0usize;
        for level in (0..self.depth).rev() {
            let right = (way >> level) & 1;
            bits = (bits & !(1 << node)) | ((right as u32 ^ 1) << node);
            node = 2 * node + 1 + right;
        }
        st[0] = bits;
    }

    fn plru_victim(&self, st: &[u32], lo_way: usize, hi_way: usize) -> usize {
        // Follow the cold pointers; if the tree leads outside the allowed
        // way range (possible with partitioned or non-power-of-two sets),
        // fall back to a deterministic rotation through the range.
        let bits = st[0];
        let mut node = 0usize;
        let mut candidate = 0usize;
        for _ in 0..self.depth {
            let right = (bits >> node & 1) as usize;
            candidate = 2 * candidate + right;
            node = 2 * node + 1 + right;
        }
        if candidate >= lo_way && candidate < hi_way {
            candidate
        } else {
            let span = hi_way - lo_way;
            lo_way + candidate % span
        }
    }

    /// Captures one set's state as the [`ReplSnapshot`] image the store
    /// serializes.
    pub fn snapshot(&self, st: &[u32]) -> ReplSnapshot {
        match self.kind {
            ReplKind::Plru => ReplSnapshot::Plru {
                bits: (0..self.leaves - 1).map(|n| st[0] >> n & 1 == 1).collect(),
            },
            ReplKind::Srrip => ReplSnapshot::Srrip {
                rrpv: (0..self.ways).map(|w| byte(st, w)).collect(),
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
    pub fn restore(&self, st: &mut [u32], snap: &ReplSnapshot) {
        match (self.kind, snap) {
            (ReplKind::Plru, ReplSnapshot::Plru { bits }) => {
                assert_eq!(
                    bits.len(),
                    self.leaves - 1,
                    "PLRU snapshot geometry mismatch"
                );
                st[0] = bits
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (n, &b)| acc | (b as u32) << n);
            }
            (ReplKind::Srrip, ReplSnapshot::Srrip { rrpv }) => {
                assert_eq!(rrpv.len(), self.ways, "SRRIP snapshot geometry mismatch");
                for (w, &v) in rrpv.iter().enumerate() {
                    set_byte(st, w, v);
                }
            }
            (kind, snap) => panic!("replacement snapshot policy mismatch: {kind:?} vs {snap:?}"),
        }
    }
}

/// Byte `i` of a little-endian byte array packed into words.
#[inline]
fn byte(st: &[u32], i: usize) -> u8 {
    (st[i / 4] >> (8 * (i % 4))) as u8
}

#[inline]
fn set_byte(st: &mut [u32], i: usize, v: u8) {
    let shift = 8 * (i % 4);
    let w = &mut st[i / 4];
    *w = (*w & !(0xFF << shift)) | (v as u32) << shift;
}

/// One `0x01` in every byte of a word.
const BYTE_ONES: u32 = 0x0101_0101;

/// The bytes of word `j` that fall in ways `[lo, hi)`, as `0xFF` lanes.
#[inline]
fn byte_range(j: usize, lo: usize, hi: usize) -> u32 {
    let below = |n: usize| match n.saturating_sub(4 * j) {
        0 => 0,
        n @ 1..=3 => (1u32 << (8 * n)) - 1,
        _ => u32::MAX,
    };
    below(hi) & !below(lo)
}

/// SRRIP aging collapsed to two sweeps. The textbook loop repeats (scan
/// for `SRRIP_MAX`, increment every way) until a way reaches the maximum;
/// after `SRRIP_MAX - max_rrpv` rounds the first way holding the maximum
/// RRPV is the victim and every counter has gained exactly that many
/// rounds (none saturate, since all values are ≤ the max). Computing the
/// max in one sweep and applying the bump in a second produces
/// bit-identical state and the identical victim index.
///
/// Both sweeps work a word (four ways) at a time. RRPVs are 2-bit
/// values, so "byte ≥ v" is a bit test per lane: both bits for 3, the
/// high bit for 2, either bit for 1. Testing levels from the top, the
/// first level with a lane in range is the maximum and its lowest lane
/// the victim; the bump adds to every in-range lane at once, carry-free
/// because no lane passes 3.
fn srrip_aged_victim(st: &mut [u32], lo: usize, hi: usize) -> usize {
    let words = lo / 4..hi.div_ceil(4);
    let mut victim = (0, lo);
    'levels: for v in (1..=SRRIP_MAX).rev() {
        for j in words.clone() {
            let x = st[j];
            let at_least = match v {
                3 => x & (x >> 1),
                2 => x >> 1,
                _ => x | (x >> 1),
            } & BYTE_ONES
                & byte_range(j, lo, hi);
            if at_least != 0 {
                victim = (v, 4 * j + at_least.trailing_zeros() as usize / 8);
                break 'levels;
            }
        }
    }
    let (max_v, max_w) = victim;
    let bump = (SRRIP_MAX - max_v) as u32;
    if bump > 0 {
        for j in words {
            st[j] += bump * (BYTE_ONES & byte_range(j, lo, hi));
        }
    }
    max_w
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A policy over `ways` ways with one fresh set's state.
    fn fresh(kind: ReplKind, ways: usize) -> (SetRepl, Vec<u32>) {
        let r = SetRepl::new(kind, ways);
        let mut st = vec![0; r.set_words()];
        r.init(&mut st);
        (r, st)
    }

    #[test]
    fn plru_victim_is_not_most_recent() {
        let (r, mut s) = fresh(ReplKind::Plru, 4);
        for w in 0..4 {
            r.on_fill(&mut s, w);
        }
        r.on_hit(&mut s, 2);
        let v = r.victim(&mut s, 0, 4);
        assert_ne!(v, 2, "PLRU must never evict the most recently used way");
    }

    #[test]
    fn plru_tracks_single_hot_way() {
        let (r, mut s) = fresh(ReplKind::Plru, 8);
        for _ in 0..100 {
            r.on_hit(&mut s, 3);
        }
        assert_ne!(r.victim(&mut s, 0, 8), 3);
    }

    #[test]
    fn plru_non_power_of_two() {
        let (r, mut s) = fresh(ReplKind::Plru, 6);
        for w in 0..6 {
            r.on_fill(&mut s, w);
        }
        let v = r.victim(&mut s, 0, 6);
        assert!(v < 6);
    }

    #[test]
    fn srrip_new_lines_evicted_before_reused_lines() {
        let (r, mut s) = fresh(ReplKind::Srrip, 4);
        for w in 0..4 {
            r.on_fill(&mut s, w);
        }
        r.on_hit(&mut s, 0);
        r.on_hit(&mut s, 1);
        // Ways 2,3 still at long RRPV; aging promotes them to MAX first.
        let v = r.victim(&mut s, 0, 4);
        assert!(v == 2 || v == 3);
    }

    #[test]
    fn srrip_aging_terminates() {
        let (r, mut s) = fresh(ReplKind::Srrip, 2);
        r.on_hit(&mut s, 0);
        r.on_hit(&mut s, 1);
        let v = r.victim(&mut s, 0, 2);
        assert!(v < 2);
    }

    #[test]
    fn snapshot_round_trips_every_policy() {
        for kind in [ReplKind::Plru, ReplKind::Srrip] {
            let (r, mut s) = fresh(kind, 6);
            for w in 0..6 {
                r.on_fill(&mut s, w);
            }
            r.on_hit(&mut s, 2);
            r.on_hit(&mut s, 4);
            let snap = r.snapshot(&s);
            let (_, mut restored) = fresh(kind, 6);
            r.restore(&mut restored, &snap);
            assert_eq!(r.snapshot(&restored), snap, "{kind:?} snapshot is lossless");
            // Identical state ⇒ identical victim choice.
            assert_eq!(
                r.victim(&mut restored, 0, 6),
                r.victim(&mut s, 0, 6),
                "{kind:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn restore_rejects_wrong_geometry() {
        let (r, s) = fresh(ReplKind::Plru, 4);
        let (wide, mut t) = fresh(ReplKind::Plru, 8);
        wide.restore(&mut t, &r.snapshot(&s));
    }

    #[test]
    fn repl_state_dispatch_smoke() {
        for kind in [ReplKind::Plru, ReplKind::Srrip] {
            let (r, mut s) = fresh(kind, 8);
            r.on_fill(&mut s, 0);
            r.on_hit(&mut s, 0);
            let v = r.victim(&mut s, 0, 8);
            assert!(v < 8, "{kind:?} victim out of range");
        }
    }
}
