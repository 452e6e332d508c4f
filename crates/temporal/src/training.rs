//! The training unit: PC-localized last-address tracking.
//!
//! Temporal prefetchers in the Triage/Triangel lineage are PC-localized: for
//! each memory instruction they remember the last address it touched, and a
//! new access `cur` forms the training pair `(last → cur)` to be inserted
//! into the Markov metadata table (Figure 3).
//!
//! This module also provides [`MarkovCensus`], the offline counter of
//! distinct Markov targets per address used to reproduce Figure 8.

use prophet_prefetch::SmallList;
use prophet_sim_mem::addr::{Line, Pc};
use prophet_sim_mem::FlatMap;

#[derive(Debug, Clone, Copy, Default)]
struct TrainEntry {
    tag: u64,
    last: Line,
    valid: bool,
}

/// Plain-data image of the training unit for warm-up checkpointing: one
/// `(pc tag, last line, valid)` triple per slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainingSnapshot {
    pub entries: Vec<(u64, u64, bool)>,
}

/// Direct-mapped per-PC last-address table.
#[derive(Debug, Clone)]
pub struct TrainingUnit {
    entries: Vec<TrainEntry>,
}

impl TrainingUnit {
    /// Creates a training table with `entries` slots (rounded to a power of
    /// two).
    pub fn new(entries: usize) -> Self {
        TrainingUnit {
            entries: vec![TrainEntry::default(); entries.next_power_of_two().max(1)],
        }
    }

    /// Observes `(pc, line)`; returns the training pair `(prev → line)` when
    /// the PC has history (and `prev != line`).
    pub fn observe(&mut self, pc: Pc, line: Line) -> Option<(Line, Line)> {
        let idx = (pc.0 as usize) & (self.entries.len() - 1);
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != pc.0 {
            *e = TrainEntry {
                tag: pc.0,
                last: line,
                valid: true,
            };
            return None;
        }
        let prev = e.last;
        e.last = line;
        if prev == line {
            None
        } else {
            Some((prev, line))
        }
    }

    /// Forgets all history.
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| e.valid = false);
    }

    /// Captures all per-PC last-address state.
    pub fn snapshot(&self) -> TrainingSnapshot {
        TrainingSnapshot {
            entries: self
                .entries
                .iter()
                .map(|e| (e.tag, e.last.0, e.valid))
                .collect(),
        }
    }

    /// Restores a snapshot taken from a unit with the same slot count.
    ///
    /// # Panics
    /// Panics on a slot-count mismatch.
    pub fn restore(&mut self, snap: &TrainingSnapshot) {
        assert_eq!(
            snap.entries.len(),
            self.entries.len(),
            "training snapshot geometry mismatch"
        );
        for (e, &(tag, last, valid)) in self.entries.iter_mut().zip(&snap.entries) {
            *e = TrainEntry {
                tag,
                last: Line(last),
                valid,
            };
        }
    }
}

impl Default for TrainingUnit {
    fn default() -> Self {
        Self::new(256)
    }
}

/// Offline census of Markov-target multiplicity (Figure 8): for every
/// address, how many *distinct* successors follow it in a PC-localized
/// stream. Feed it the same pairs the training unit produces.
#[derive(Debug, Clone, Default)]
pub struct MarkovCensus {
    /// Distinct successors per source line, at most `cap`.
    successors: FlatMap<SmallList<Line, MAX_CENSUS_CAP>>,
    cap: usize,
}

/// Most distinct targets a census tracks per address (Figure 8 plots
/// T = 1..=5).
const MAX_CENSUS_CAP: usize = 8;

impl MarkovCensus {
    /// Creates a census tracking up to `cap` distinct targets per address
    /// (Figure 8 plots T = 1..=5; anything above is counted in the last bin).
    ///
    /// # Panics
    /// Panics if `cap` exceeds 8.
    pub fn new(cap: usize) -> Self {
        assert!(
            cap <= MAX_CENSUS_CAP,
            "a census tracks at most {MAX_CENSUS_CAP} targets per address, not {cap}"
        );
        MarkovCensus {
            successors: FlatMap::new(),
            cap: cap.max(1),
        }
    }

    /// Records that `target` followed `src`.
    pub fn record(&mut self, src: Line, target: Line) {
        let cap = self.cap;
        let v = self
            .successors
            .get_or_insert_with(src.0, SmallList::default);
        if !v.contains(&target) && v.len() < cap {
            v.push(target);
        }
    }

    /// Histogram over target counts: `hist[t-1]` = fraction of addresses
    /// with exactly `t` distinct targets (t clamped to `cap`). Empty census
    /// returns all zeros.
    pub fn histogram(&self) -> Vec<f64> {
        let mut counts = vec![0u64; self.cap];
        for (_, v) in self.successors.iter() {
            let t = v.len().clamp(1, self.cap);
            counts[t - 1] += 1;
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![0.0; self.cap];
        }
        counts
            .into_iter()
            .map(|c| c as f64 / total as f64)
            .collect()
    }

    /// Number of distinct source addresses seen.
    pub fn sources(&self) -> usize {
        self.successors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at most 8 targets per address, not 9")]
    fn census_cap_beyond_its_list_is_rejected() {
        MarkovCensus::new(9);
    }

    #[test]
    fn first_observation_yields_no_pair() {
        let mut t = TrainingUnit::default();
        assert_eq!(t.observe(Pc(1), Line(10)), None);
        assert_eq!(t.observe(Pc(1), Line(20)), Some((Line(10), Line(20))));
        assert_eq!(t.observe(Pc(1), Line(30)), Some((Line(20), Line(30))));
    }

    #[test]
    fn pcs_are_independent_streams() {
        let mut t = TrainingUnit::default();
        t.observe(Pc(1), Line(10));
        t.observe(Pc(2), Line(100));
        assert_eq!(t.observe(Pc(1), Line(11)), Some((Line(10), Line(11))));
        assert_eq!(t.observe(Pc(2), Line(101)), Some((Line(100), Line(101))));
    }

    #[test]
    fn repeated_line_is_filtered() {
        let mut t = TrainingUnit::default();
        t.observe(Pc(1), Line(10));
        assert_eq!(t.observe(Pc(1), Line(10)), None);
    }

    #[test]
    fn conflict_eviction_resets_history() {
        let mut t = TrainingUnit::new(1);
        t.observe(Pc(0), Line(10));
        t.observe(Pc(1), Line(99)); // evicts PC 0's entry
        assert_eq!(t.observe(Pc(0), Line(11)), None, "history was lost");
    }

    #[test]
    fn snapshot_restore_resumes_history() {
        let mut t = TrainingUnit::new(8);
        t.observe(Pc(1), Line(10));
        t.observe(Pc(2), Line(99));
        let snap = t.snapshot();
        let mut fresh = TrainingUnit::new(8);
        fresh.restore(&snap);
        assert_eq!(
            fresh.observe(Pc(1), Line(11)),
            Some((Line(10), Line(11))),
            "restored history continues seamlessly"
        );
        assert_eq!(fresh.snapshot().entries.len(), 8);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn restore_rejects_other_size() {
        let t = TrainingUnit::new(8);
        let mut other = TrainingUnit::new(16);
        other.restore(&t.snapshot());
    }

    #[test]
    fn census_counts_distinct_targets() {
        let mut c = MarkovCensus::new(5);
        // A→B repeatedly, B→{C,D}.
        for _ in 0..3 {
            c.record(Line(1), Line(2));
        }
        c.record(Line(2), Line(3));
        c.record(Line(2), Line(4));
        let h = c.histogram();
        assert!((h[0] - 0.5).abs() < 1e-12, "half the sources have 1 target");
        assert!(
            (h[1] - 0.5).abs() < 1e-12,
            "half the sources have 2 targets"
        );
        assert_eq!(c.sources(), 2);
    }

    #[test]
    fn census_caps_target_count() {
        let mut c = MarkovCensus::new(3);
        for t in 0..10u64 {
            c.record(Line(1), Line(100 + t));
        }
        let h = c.histogram();
        assert!(
            (h[2] - 1.0).abs() < 1e-12,
            "over-cap counts clamp to the last bin"
        );
    }

    #[test]
    fn empty_census_histogram_is_zero() {
        let c = MarkovCensus::new(5);
        assert_eq!(c.histogram(), vec![0.0; 5]);
    }
}
