//! Flat, allocation-free hot-path containers.
//!
//! The per-instruction loop used to lean on `std::collections::HashMap` for
//! two kinds of state: sparse per-PC tables and the in-flight miss set.
//! SipHash plus per-entry boxing dominated the simulator's profile, so this
//! module provides the shapes those users actually need:
//!
//! * [`FlatMap`] — an open-addressed, linear-probed table keyed by `u64`
//!   with a fixed multiply-shift hash. It never deletes (none of the hot
//!   users delete), grows at ¾ load, and keeps its capacity across
//!   [`FlatMap::clear`], so steady-state use performs no heap allocation.
//! * [`LineAligned`] — a fixed-length array starting on a host cache
//!   line, for fixed-stride per-set records.
//! * [`InflightTable`] — the hierarchy's pending-miss set: a dense
//!   insertion-ordered vector of `(line, ready)` pairs plus a `FlatMap`
//!   index, replacing per-access map churn with O(1) probes, and a sorted
//!   copy of the ready cycles that answers the MSHR query by binary
//!   search.
//!
//! The map and the table are drop-in *behavioral* equivalents of the maps
//! they replaced:
//! lookups, overwrites, and retain-style purges produce the same results
//! for any operation sequence (pinned by `tests/flat_equivalence.rs`).
//! Iteration order differs from `HashMap` (it is deterministic here), so
//! every iterating consumer must stay order-independent or sort.

use crate::addr::{Cycle, Line};

/// Fibonacci multiplier (2^64 / φ) for the multiply-shift hash.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixes a key into a slot index for a power-of-two table of `mask + 1`
/// slots. The xor fold spreads high-entropy bits (PCs and line addresses
/// differ mostly in their low-middle bits) before the multiply.
#[inline]
fn slot_of(key: u64, mask: usize) -> usize {
    let h = (key ^ (key >> 33)).wrapping_mul(FIB);
    ((h >> 32) as usize) & mask
}

/// Lanes per batch-probe pass. 16 keeps a `u16` chunk inside one 32-byte
/// vector register and a `u64` chunk inside two cache lines — wide enough
/// for the autovectorizer, small enough that the remainder tail is cheap.
const PROBE_LANES: usize = 16;

macro_rules! batched_find_first {
    ($name:ident, $ty:ty, $doc:literal) => {
        #[doc = $doc]
        #[inline]
        pub fn $name(hay: &[$ty], needle: $ty) -> Option<usize> {
            let mut chunks = hay.chunks_exact(PROBE_LANES);
            let mut base = 0;
            for chunk in &mut chunks {
                let mut mask = 0u32;
                for (lane, &t) in chunk.iter().enumerate() {
                    mask |= ((t == needle) as u32) << lane;
                }
                if mask != 0 {
                    return Some(base + mask.trailing_zeros() as usize);
                }
                base += PROBE_LANES;
            }
            // Short-associativity tail: 4- and 8-way set scans never see a
            // full 16-lane chunk, so run the same branch-free compare over
            // 8-lane chunks and then a masked sweep of whatever is left.
            let mut rem = chunks.remainder().chunks_exact(PROBE_LANES / 2);
            for chunk in &mut rem {
                let mut mask = 0u32;
                for (lane, &t) in chunk.iter().enumerate() {
                    mask |= ((t == needle) as u32) << lane;
                }
                if mask != 0 {
                    return Some(base + mask.trailing_zeros() as usize);
                }
                base += PROBE_LANES / 2;
            }
            let mut mask = 0u32;
            for (lane, &t) in rem.remainder().iter().enumerate() {
                mask |= ((t == needle) as u32) << lane;
            }
            if mask != 0 {
                return Some(base + mask.trailing_zeros() as usize);
            }
            None
        }
    };
}

batched_find_first!(
    find_first_u16,
    u16,
    "First index in `hay` holding `needle`, over 16-bit lanes.\n\nExact \
     replacement for `hay.iter().position(|&t| t == needle)`: same result \
     for every input, but each chunk is compared branch-free into a bitmask \
     (a vector compare + movemask under autovectorization) instead of one \
     dependent branch per element. Tag scans — cache ways, metadata set \
     ways, MVB candidates — probe short contiguous arrays with a high miss \
     rate, which is exactly where the per-element early exit costs more \
     than it saves."
);
batched_find_first!(
    find_first_u32,
    u32,
    "First index in `hay` holding `needle`, over 32-bit lanes.\n\nSee \
     [`find_first_u16`] — identical comparison structure over `u32` \
     elements."
);
batched_find_first!(
    find_first_u64,
    u64,
    "First index in `hay` holding `needle`, over 64-bit lanes.\n\nSee \
     [`find_first_u16`] — identical comparison structure over `u64` \
     elements."
);

/// An open-addressed `u64 → V` map for the simulator's sparse hot keys
/// (PCs, line addresses, set indices).
///
/// Invariants:
/// * capacity is a power of two and load never exceeds ¾, so linear
///   probing always terminates;
/// * entries are never removed individually — [`FlatMap::clear`] is the
///   only way to forget keys — so a probe chain never crosses a tombstone
///   and `get` can stop at the first free slot;
/// * `clear` keeps the allocation and is O(1): occupancy is an epoch
///   stamp per slot (`stamp == epoch` means live), so clearing bumps
///   the epoch instead of sweeping the table. Clear-heavy users — the
///   inflight purge re-index runs once every few dozen DRAM fills —
///   stop paying a capacity-sized memset per purge.
///
/// A slot keeps its key, stamp and value together, so a probe reads one
/// host line where three parallel arrays cost three.
#[derive(Debug, Clone)]
pub struct FlatMap<V> {
    slots: Vec<MapSlot<V>>,
    epoch: u32,
    len: usize,
}

/// One [`FlatMap`] slot. It is live iff `stamp == epoch`; stamps start at
/// 0 and the epoch at 1, so a fresh table is empty.
#[derive(Debug, Clone, Default)]
struct MapSlot<V> {
    key: u64,
    stamp: u32,
    val: V,
}

impl<V: Default + Clone> FlatMap<V> {
    /// An empty map that allocates on first insertion.
    pub fn new() -> Self {
        FlatMap {
            slots: Vec::new(),
            epoch: 1,
            len: 0,
        }
    }

    /// A map pre-sized to hold `n` entries without growing.
    pub fn with_capacity(n: usize) -> Self {
        let mut m = Self::new();
        if n > 0 {
            m.rebuild((n * 4 / 3 + 1).next_power_of_two().max(16));
        }
        m
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forgets all entries but keeps the allocation. O(1): bumps the
    /// liveness epoch (with a sweep only at the u32 wrap, once per ~4
    /// billion clears).
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.iter_mut().for_each(|s| s.stamp = 0);
            self.epoch = 1;
        }
        self.len = 0;
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len().wrapping_sub(1)
    }

    /// Probes for `key`: `(slot, true)` on a match, `(slot, false)` with
    /// the insertion slot otherwise. Requires a non-empty table.
    #[inline]
    fn probe(&self, key: u64) -> (usize, bool) {
        let mask = self.mask();
        let mut i = slot_of(key, mask);
        loop {
            let slot = &self.slots[i];
            if slot.stamp != self.epoch {
                return (i, false);
            }
            if slot.key == key {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Re-hashes into a table of `cap` slots (a power of two).
    fn rebuild(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap * 3 / 4 >= self.len);
        let old_epoch = self.epoch;
        let old = std::mem::replace(&mut self.slots, vec![MapSlot::default(); cap]);
        self.epoch = 1;
        let mask = cap - 1;
        for slot in old {
            if slot.stamp != old_epoch {
                continue;
            }
            let mut i = slot_of(slot.key, mask);
            while self.slots[i].stamp == self.epoch {
                i = (i + 1) & mask;
            }
            self.slots[i] = MapSlot {
                stamp: self.epoch,
                ..slot
            };
        }
    }

    /// Grows if inserting one more entry would exceed ¾ load.
    #[inline]
    fn reserve_one(&mut self) {
        let cap = self.slots.len();
        if (self.len + 1) * 4 > cap * 3 {
            self.rebuild((cap * 2).max(16));
        }
    }

    /// The value for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        if self.len == 0 {
            return None;
        }
        match self.probe(key) {
            (i, true) => Some(&self.slots[i].val),
            _ => None,
        }
    }

    /// Mutable access to the value for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if self.len == 0 {
            return None;
        }
        match self.probe(key) {
            (i, true) => Some(&mut self.slots[i].val),
            _ => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or overwrites, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        self.reserve_one();
        let (i, found) = self.probe(key);
        if found {
            Some(std::mem::replace(&mut self.slots[i].val, val))
        } else {
            self.slots[i] = MapSlot {
                key,
                stamp: self.epoch,
                val,
            };
            self.len += 1;
            None
        }
    }

    /// The value for `key`, inserting `make()` first if absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        self.reserve_one();
        let (i, found) = self.probe(key);
        if !found {
            self.slots[i] = MapSlot {
                key,
                stamp: self.epoch,
                val: make(),
            };
            self.len += 1;
        }
        &mut self.slots[i].val
    }

    /// Iterates live `(key, &value)` pairs in slot order (deterministic
    /// for a given insertion history, but *not* insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        let epoch = self.epoch;
        self.slots
            .iter()
            .filter(move |s| s.stamp == epoch)
            .map(|s| (s.key, &s.val))
    }
}

impl<V: Default + Clone> Default for FlatMap<V> {
    fn default() -> Self {
        FlatMap::new()
    }
}

/// Bytes per host cache line.
pub const HOST_LINE_BYTES: usize = 64;

/// A fixed-length array whose first element starts on a host cache line,
/// so fixed-stride records laid out in it (a cache set's block, a metadata
/// set's tags) occupy the fewest host lines. Dereferences to a slice. The
/// element size must divide the line.
#[derive(Debug)]
pub struct LineAligned<T> {
    /// Holds the array at `origin..origin + len`, with up to one host line
    /// of slack in front.
    buf: Vec<T>,
    origin: usize,
    len: usize,
}

impl<T: Copy> LineAligned<T> {
    /// `len` copies of `fill`.
    pub fn new(len: usize, fill: T) -> Self {
        let size = std::mem::size_of::<T>().max(1);
        assert_eq!(
            HOST_LINE_BYTES % size,
            0,
            "element size must divide a host line"
        );
        let buf = vec![fill; len + HOST_LINE_BYTES / size];
        let misalign = buf.as_ptr() as usize % HOST_LINE_BYTES;
        let origin = (HOST_LINE_BYTES - misalign) % HOST_LINE_BYTES / size;
        LineAligned { buf, origin, len }
    }
}

impl<T: Copy> Clone for LineAligned<T> {
    /// A copy aligned within its own allocation.
    fn clone(&self) -> Self {
        let mut copy = LineAligned::new(self.len, self.buf[0]);
        copy.copy_from_slice(self);
        copy
    }
}

impl<T> std::ops::Deref for LineAligned<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.buf[self.origin..self.origin + self.len]
    }
}

impl<T> std::ops::DerefMut for LineAligned<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.origin..self.origin + self.len]
    }
}

/// The hierarchy's pending-miss set (`line → ready cycle`), flattened.
///
/// Entries live densely in insertion order (the snapshot and purge order),
/// with a [`FlatMap`] index for O(1) lookup and overwrite. Beside them,
/// `ready` holds the same ready cycles as a sorted multiset, so the MSHR
/// question — how many fills complete after `now`, and the earliest of
/// those — is answered by position for any `now`, earlier or later than
/// the last ([`InflightTable::mshr_wait`]). The periodic purge
/// (`retain_ready_after`) compacts in place and re-indexes without
/// allocating.
#[derive(Debug, Clone, Default)]
pub struct InflightTable {
    entries: Vec<(Line, Cycle)>,
    index: FlatMap<u32>,
    /// Every entry's ready cycle, ascending.
    ready: Vec<Cycle>,
}

impl InflightTable {
    /// An empty table pre-sized so steady-state traffic never grows it.
    pub fn new() -> Self {
        InflightTable {
            entries: Vec::with_capacity(1024),
            index: FlatMap::with_capacity(1024),
            ready: Vec::with_capacity(1024),
        }
    }

    /// Outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ready cycle recorded for `line`, if any.
    #[inline]
    pub fn get(&self, line: Line) -> Option<Cycle> {
        self.index.get(line.0).map(|&i| self.entries[i as usize].1)
    }

    /// Records (or overwrites) `line`'s ready cycle.
    #[inline]
    pub fn insert(&mut self, line: Line, ready: Cycle) {
        if let Some(&i) = self.index.get(line.0) {
            let old = std::mem::replace(&mut self.entries[i as usize].1, ready);
            let at = self.ready.partition_point(|&r| r < old);
            self.ready.remove(at);
        } else {
            self.index.insert(line.0, self.entries.len() as u32);
            self.entries.push((line, ready));
        }
        // Fills complete roughly in issue order, so the new cycle's place
        // is found walking back from the end.
        self.ready.push(ready);
        let mut at = self.ready.len() - 1;
        while at > 0 && self.ready[at - 1] > ready {
            self.ready[at] = self.ready[at - 1];
            at -= 1;
        }
        self.ready[at] = ready;
    }

    /// Every entry's ready cycle, ascending.
    pub fn ready_cycles(&self) -> &[Cycle] {
        &self.ready
    }

    /// Cycles a new request issued at `now` waits when `mshrs` registers
    /// bound the outstanding fills (`ready > now`): none while fewer than
    /// `mshrs` are outstanding, otherwise until the earliest of them
    /// completes. In the sorted cycles, at least `mshrs` are outstanding
    /// exactly when the `mshrs`-th latest is, and the earliest outstanding
    /// one follows the last completed.
    #[inline]
    pub fn mshr_wait(&self, now: Cycle, mshrs: usize) -> Cycle {
        let ready = &self.ready;
        if ready.len() < mshrs || (mshrs > 0 && ready[ready.len() - mshrs] <= now) {
            return 0;
        }
        match ready.get(ready.partition_point(|&r| r <= now)) {
            Some(&first) => first - now,
            None => 0,
        }
    }

    /// The dense entry slice, in insertion order (snapshots, tests).
    pub fn entries(&self) -> &[(Line, Cycle)] {
        &self.entries
    }

    /// Drops every entry whose ready cycle is at or before `now`,
    /// preserving the relative order of survivors. Allocation-free: the
    /// index is cleared (capacity kept) and rebuilt from the compacted
    /// vector.
    pub fn retain_ready_after(&mut self, now: Cycle) {
        self.entries.retain(|&(_, ready)| ready > now);
        let done = self.ready.partition_point(|&r| r <= now);
        self.ready.drain(..done);
        self.index.clear();
        for (i, &(line, _)) in self.entries.iter().enumerate() {
            self.index.insert(line.0, i as u32);
        }
    }

    /// Forgets everything (capacity kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.ready.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_find_first_matches_position() {
        // Every length around the lane width, every match position, plus
        // no-match: the chunked scan must agree with `position` exactly.
        for len in 0..(3 * PROBE_LANES + 2) {
            let hay16: Vec<u16> = (0..len as u16).map(|i| i.wrapping_add(100)).collect();
            let hay64: Vec<u64> = (0..len as u64).map(|i| i.wrapping_add(100)).collect();
            for probe in 0..(len as u16 + 2) {
                let needle16 = probe.wrapping_add(100);
                let needle64 = (probe as u64).wrapping_add(100);
                assert_eq!(
                    find_first_u16(&hay16, needle16),
                    hay16.iter().position(|&t| t == needle16),
                    "u16 len {len} probe {probe}"
                );
                assert_eq!(
                    find_first_u64(&hay64, needle64),
                    hay64.iter().position(|&t| t == needle64),
                    "u64 len {len} probe {probe}"
                );
            }
        }
    }

    #[test]
    fn batched_find_first_returns_first_of_duplicates() {
        let mut hay = vec![7u16; 40];
        hay[3] = 9;
        hay[21] = 9;
        assert_eq!(find_first_u16(&hay, 9), Some(3));
        assert_eq!(find_first_u64(&[5u64, 5, 5], 5), Some(0));
    }

    #[test]
    fn line_aligned_starts_on_a_host_line() {
        for len in [1usize, 7, 100, 4096] {
            let mut a = LineAligned::new(len, 3u16);
            assert_eq!(a.len(), len);
            assert_eq!(a.as_ptr() as usize % HOST_LINE_BYTES, 0);
            a[len - 1] = 9;
            let b = a.clone();
            assert_eq!(b.as_ptr() as usize % HOST_LINE_BYTES, 0);
            assert_eq!(&b[..], &a[..]);
        }
    }

    #[test]
    fn insert_get_overwrite() {
        let mut m = FlatMap::new();
        assert_eq!(m.get(7), None);
        assert_eq!(m.insert(7, 70u64), None);
        assert_eq!(m.insert(8, 80), None);
        assert_eq!(m.get(7), Some(&70));
        assert_eq!(m.insert(7, 71), Some(70));
        assert_eq!(m.get(7), Some(&71));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = FlatMap::with_capacity(4);
        for k in 0..10_000u64 {
            m.insert(k.wrapping_mul(0x1234_5679), k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k.wrapping_mul(0x1234_5679)), Some(&k));
        }
    }

    #[test]
    fn colliding_keys_all_found() {
        // Keys crafted to share low bits stress the probe chain.
        let mut m = FlatMap::new();
        for k in 0..256u64 {
            m.insert(k << 40, k);
        }
        for k in 0..256u64 {
            assert_eq!(m.get(k << 40), Some(&k), "key {k}");
        }
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m = FlatMap::new();
        *m.get_or_insert_with(5, || 10u64) += 1;
        *m.get_or_insert_with(5, || 999) += 1;
        assert_eq!(m.get(5), Some(&12));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m = FlatMap::with_capacity(64);
        for k in 0..48u64 {
            m.insert(k, k);
        }
        let cap = m.slots.len();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.slots.len(), cap);
        assert_eq!(m.get(3), None);
    }

    #[test]
    fn epoch_clear_isolates_generations() {
        // Repeated clear/insert cycles (the inflight purge pattern): keys
        // from one generation must never leak into the next, including
        // re-inserting the same slots and iterating.
        let mut m = FlatMap::with_capacity(32);
        for gen in 0..10_000u64 {
            m.clear();
            assert!(m.is_empty());
            assert_eq!(m.get(gen.wrapping_mul(31)), None);
            for k in 0..8u64 {
                m.insert(gen * 8 + k, gen);
            }
            assert_eq!(m.len(), 8);
            assert_eq!(m.get(gen * 8 + 3), Some(&gen));
            assert_eq!(
                m.get(gen.wrapping_sub(1).wrapping_mul(8) + 3),
                None,
                "stale key"
            );
            assert_eq!(m.iter().count(), 8);
        }
    }

    #[test]
    fn iter_yields_every_live_entry() {
        let mut m = FlatMap::new();
        for k in 0..100u64 {
            m.insert(k * 3, k);
        }
        let mut got: Vec<(u64, u64)> = m.iter().map(|(k, &v)| (k, v)).collect();
        got.sort_unstable();
        let want: Vec<(u64, u64)> = (0..100).map(|k| (k * 3, k)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn inflight_insert_overwrite_get() {
        let mut t = InflightTable::new();
        t.insert(Line(10), 100);
        t.insert(Line(20), 200);
        assert_eq!(t.get(Line(10)), Some(100));
        t.insert(Line(10), 150);
        assert_eq!(t.get(Line(10)), Some(150));
        assert_eq!(t.len(), 2, "overwrite must not duplicate");
    }

    #[test]
    fn inflight_retain_drops_expired_and_reindexes() {
        let mut t = InflightTable::new();
        for i in 0..100u64 {
            t.insert(Line(i), i * 10);
        }
        t.retain_ready_after(500);
        assert_eq!(t.len(), 49, "ready > 500 means lines 51..100");
        assert_eq!(t.get(Line(50)), None);
        assert_eq!(t.get(Line(51)), Some(510));
        assert_eq!(t.get(Line(99)), Some(990));
        // Survivors stay scannable and re-insertable.
        t.insert(Line(50), 9_999);
        assert_eq!(t.get(Line(50)), Some(9_999));
        assert_eq!(t.len(), 50);
    }
}
