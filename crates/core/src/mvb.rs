//! The Multi-path Victim Buffer (Section 4.5, Figure 9).
//!
//! The metadata table stores one Markov target per source. When an address
//! participates in several temporal sequences — (A,B,C) and (A,B,D) give B
//! the targets C *and* D, which Figure 8 shows happens for ~45% of
//! addresses — the second target's insertion *evicts* the first, and the
//! evicted path becomes unprefetchable. The MVB catches those evicted
//! targets:
//!
//! * **Insertion**: only targets whose priority level is above 0
//!   (`acc > EL_ACC`) are buffered.
//! * **Replacement**: entries carry a 2-bit counter per target, incremented
//!   on use; the entry priority is its maximal target counter, and the
//!   lowest-priority entry (LRU-tiebroken) is the victim — Prophet's own
//!   replacement policy re-used.
//! * **Prefetch**: every prefetcher lookup also consults the MVB with the
//!   same key; stored targets that differ from the table's prediction are
//!   prefetched additionally.

use prophet_prefetch::SmallList;
use prophet_sim_mem::{find_first_u64, Line};

/// Key-array sentinel for an empty MVB slot. Real keys are
/// `(tag << set_bits) | set` with a 16-bit tag, far below `u64::MAX`.
const NO_KEY: u64 = u64::MAX;

/// Inline capacity of a lookup's target list. Figure 16c evaluates 1/2/4
/// candidates, so the hot path never spills to the heap; larger
/// experimental configs degrade gracefully through `SmallList`'s spill.
pub const MVB_INLINE_CANDIDATES: usize = 4;

/// Total MVB entries (paper: 65,536 → 344 KB at 43 bits each).
pub(crate) const MVB_ENTRIES: usize = 65_536;

/// Associativity of the buffer.
pub(crate) const MVB_WAYS: usize = 4;

const MVB_SETS: usize = MVB_ENTRIES / MVB_WAYS;
const _: () = assert!(
    MVB_SETS.is_power_of_two(),
    "MVB sets must be a power of two"
);

/// Words of one entry before its targets: the LRU stamp, then the target
/// count (low byte) with a 2-bit use counter per target above it.
const HEAD_WORDS: usize = 2;
const STAMP: usize = 0;
const COUNTS: usize = 1;

/// Most candidates per entry: 2-bit counters above the count byte.
const MAX_CANDIDATES: usize = (64 - 8) / 2;

/// The Multi-path Victim Buffer.
///
/// Each entry is one packed record of `HEAD_WORDS + candidates` words in
/// `entries` — stamp, count and counters, then the targets in insertion
/// order — beside a key array that is the primary record of which slots
/// are live (`NO_KEY` when empty). A default one-candidate entry is 24
/// bytes, where a boxed-list entry took 120.
#[derive(Debug, Clone)]
pub struct MultiPathVictimBuffer {
    /// Markov-target candidates stored per entry (Figure 16c).
    candidates: usize,
    /// Each slot's key, or `NO_KEY` for an empty slot; the per-lookup set
    /// probe is one batched scan over contiguous words.
    keys: Vec<u64>,
    /// `HEAD_WORDS + candidates` words per slot.
    entries: Vec<u64>,
    clock: u64,
    inserted: u64,
    hits: u64,
}

impl MultiPathVictimBuffer {
    /// Builds the buffer with `candidates` Markov targets per entry.
    ///
    /// # Panics
    /// Panics if `candidates` is zero or above 28 (the use counters of an
    /// entry share one word).
    pub fn new(candidates: usize) -> Self {
        assert!(candidates > 0, "an MVB entry needs a candidate");
        assert!(
            candidates <= MAX_CANDIDATES,
            "an MVB entry holds at most {MAX_CANDIDATES} candidates"
        );
        MultiPathVictimBuffer {
            candidates,
            keys: vec![NO_KEY; MVB_ENTRIES],
            entries: vec![0; MVB_ENTRIES * (HEAD_WORDS + candidates)],
            clock: 0,
            inserted: 0,
            hits: 0,
        }
    }

    /// Storage cost in bytes of the buffer with `candidates` targets per
    /// entry: a 10-bit tag plus, per candidate, a 31-bit target and a 2-bit
    /// counter (Section 5.10: 43 bits per entry at one candidate).
    pub fn storage_bytes(candidates: usize) -> f64 {
        MVB_ENTRIES as f64 * (10.0 + candidates as f64 * 33.0) / 8.0
    }

    /// Entries inserted so far.
    pub fn insertions(&self) -> u64 {
        self.inserted
    }

    /// Lookups that returned at least one target.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    fn set_range(&self, key: u64) -> std::ops::Range<usize> {
        let set = (key as usize) & (MVB_SETS - 1);
        set * MVB_WAYS..(set + 1) * MVB_WAYS
    }

    /// The packed record of slot `i`.
    fn entry(&self, i: usize) -> &[u64] {
        let stride = HEAD_WORDS + self.candidates;
        &self.entries[i * stride..(i + 1) * stride]
    }

    fn entry_mut(&mut self, i: usize) -> &mut [u64] {
        let stride = HEAD_WORDS + self.candidates;
        &mut self.entries[i * stride..(i + 1) * stride]
    }

    /// Entry priority for replacement: the maximal target counter.
    fn priority(&self, i: usize) -> u8 {
        let counts = self.entry(i)[COUNTS];
        (0..len(counts))
            .map(|t| counter(counts, t))
            .max()
            .unwrap_or(0)
    }

    /// Buffers an evicted Markov target. Per the insertion rule, callers
    /// must only pass victims with priority level > 0; this method enforces
    /// it by ignoring level-0 victims.
    pub fn insert(&mut self, key: u64, target: Line, victim_priority: u8) {
        if victim_priority == 0 {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        let candidates = self.candidates;
        let range = self.set_range(key);
        let base = range.start;

        // Existing entry for the key: add/refresh the target.
        if let Some(i) = find_first_u64(&self.keys[range.clone()], key) {
            let e = self.entry_mut(base + i);
            e[STAMP] = clock;
            let n = len(e[COUNTS]);
            let targets = &e[HEAD_WORDS..HEAD_WORDS + n];
            if let Some(t) = targets.iter().position(|&l| l == target.0) {
                let c = counter(e[COUNTS], t);
                e[COUNTS] = with_counter(e[COUNTS], t, (c + 1).min(3));
            } else if n < candidates {
                e[HEAD_WORDS + n] = target.0;
                e[COUNTS] = with_counter(e[COUNTS] + 1, n, 0);
            } else {
                // Replace the least-used candidate (the first of equals).
                let weakest = (0..n)
                    .min_by_key(|&t| counter(e[COUNTS], t))
                    .expect("candidates is positive");
                e[HEAD_WORDS + weakest] = target.0;
                e[COUNTS] = with_counter(e[COUNTS], weakest, 0);
            }
            return;
        }

        self.inserted += 1;
        // Empty slot, or Prophet replacement: lowest priority (max
        // counter), LRU tiebreak.
        let slot = match find_first_u64(&self.keys[range.clone()], NO_KEY) {
            Some(i) => base + i,
            None => range
                .min_by_key(|&i| (self.priority(i), self.entry(i)[STAMP]))
                .expect("ways > 0"),
        };
        self.keys[slot] = key;
        let e = self.entry_mut(slot);
        e[STAMP] = clock;
        e[COUNTS] = 1;
        e[HEAD_WORDS] = target.0;
    }

    /// Looks up extra Markov targets for `key`, excluding `table_target`
    /// (the prediction the metadata table already made). Hitting targets
    /// have their use counters incremented.
    pub fn lookup(
        &mut self,
        key: u64,
        table_target: Option<Line>,
    ) -> SmallList<Line, MVB_INLINE_CANDIDATES> {
        let range = self.set_range(key);
        let base = range.start;
        let mut out = SmallList::new();
        let Some(i) = find_first_u64(&self.keys[range], key) else {
            return out;
        };
        let e = self.entry_mut(base + i);
        for t in 0..len(e[COUNTS]) {
            let line = Line(e[HEAD_WORDS + t]);
            if Some(line) != table_target {
                let c = counter(e[COUNTS], t);
                e[COUNTS] = with_counter(e[COUNTS], t, (c + 1).min(3));
                out.push(line);
            }
        }
        if !out.is_empty() {
            self.hits += 1;
        }
        out
    }
}

/// Targets held, from an entry's count word.
#[inline]
fn len(counts: u64) -> usize {
    (counts & 0xFF) as usize
}

/// Use counter of target `t`, from an entry's count word.
#[inline]
fn counter(counts: u64, t: usize) -> u8 {
    (counts >> (8 + 2 * t) & 3) as u8
}

/// `counts` with target `t`'s use counter set to `c`.
#[inline]
fn with_counter(counts: u64, t: usize, c: u8) -> u64 {
    let shift = 8 + 2 * t;
    counts & !(3 << shift) | (c as u64) << shift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mvb(candidates: usize) -> MultiPathVictimBuffer {
        MultiPathVictimBuffer::new(candidates)
    }

    #[test]
    fn level0_victims_are_not_buffered() {
        let mut m = mvb(1);
        m.insert(1, Line(100), 0);
        assert!(m.lookup(1, None).is_empty());
        assert_eq!(m.insertions(), 0);
    }

    #[test]
    fn buffered_target_is_returned_once_table_disagrees() {
        let mut m = mvb(1);
        m.insert(7, Line(100), 2);
        // Table predicts something else → MVB supplies the second path.
        assert_eq!(m.lookup(7, Some(Line(200))), vec![Line(100)]);
        // Table predicts the same line → nothing extra.
        assert!(m.lookup(7, Some(Line(100))).is_empty());
    }

    #[test]
    fn multi_candidate_entries_hold_two_paths() {
        let mut m = mvb(2);
        m.insert(7, Line(100), 2);
        m.insert(7, Line(101), 2);
        let mut t = m.lookup(7, None);
        t.sort();
        assert_eq!(t, vec![Line(100), Line(101)]);
    }

    #[test]
    fn single_candidate_replaces_weakest() {
        let mut m = mvb(1);
        m.insert(7, Line(100), 2);
        m.lookup(7, None); // counter(100) → 1
        m.insert(7, Line(101), 2); // replaces the only candidate
        assert_eq!(m.lookup(7, None), vec![Line(101)]);
    }

    #[test]
    fn replacement_evicts_lowest_counter_entry() {
        let mut m = mvb(1);
        // Keys one set count apart all map to set 0; four fill its ways.
        let key = |k: u64| k * MVB_SETS as u64;
        for k in 0..4u64 {
            m.insert(key(k), Line(100 + k), 1);
        }
        // Use keys 1..4 so key 0 stays at counter 0.
        for k in 1..4u64 {
            m.lookup(key(k), None);
        }
        m.insert(key(99), Line(999), 1);
        assert!(
            m.lookup(key(0), None).is_empty(),
            "the unused entry must have been the victim"
        );
        assert_eq!(m.lookup(key(99), None), vec![Line(999)]);
    }

    #[test]
    fn storage_matches_paper() {
        let kb = MultiPathVictimBuffer::storage_bytes(1) / 1024.0;
        assert!(
            (kb - 344.0).abs() < 1.0,
            "65,536 × 43 bits ≈ 344 KB, got {kb}"
        );
    }
}
