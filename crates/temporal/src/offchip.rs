//! An off-chip-metadata temporal prefetcher (the STMS/Domino lineage,
//! Section 2.1).
//!
//! Early temporal prefetchers stored their Markov metadata in DRAM:
//! effectively unlimited capacity, but *every metadata lookup is a DRAM
//! access* and insertions must be written back — "fetching metadata from
//! DRAM consumes a substantial amount of memory bandwidth that could
//! otherwise be used for demand memory accesses". Triage moved the table
//! on-chip precisely to eliminate that traffic; this implementation exists
//! so the motivation can be *measured* (the `motivation_offchip` harness).
//!
//! Model: an unbounded in-memory Markov map (capacity is not the
//! constraint for DRAM-resident metadata); each triggering miss costs one
//! metadata-row read, and a small write buffer flushes one metadata-row
//! write per eight insertions. The rows occupy real DRAM
//! bandwidth through [`prophet_prefetch::L2Decision::metadata_dram_accesses`].

use crate::training::TrainingUnit;
use prophet_prefetch::traits::{L2Decision, L2Prefetcher, MetaTableStats, PrefetchRequest};
use prophet_sim_mem::hierarchy::L2Event;
use prophet_sim_mem::Line;
use std::collections::HashMap;

/// Chained prefetch degree (each chain step is another metadata read).
const DEGREE: usize = 1;

/// Insertions amortized per metadata write-back (write combining).
const WRITES_PER_FLUSH: u32 = 8;

/// The DRAM-metadata temporal prefetcher.
#[derive(Default)]
pub struct OffChipTemporal {
    map: HashMap<Line, Line>,
    trainer: TrainingUnit,
    pending_writes: u32,
    stats: MetaTableStats,
}

impl OffChipTemporal {
    /// Distinct metadata entries currently stored (unbounded, DRAM-backed).
    pub fn entries(&self) -> usize {
        self.map.len()
    }
}

impl L2Prefetcher for OffChipTemporal {
    fn name(&self) -> &'static str {
        "offchip-temporal"
    }

    fn on_l2_access(&mut self, ev: &L2Event) -> L2Decision {
        if ev.l2_hit {
            return L2Decision::none();
        }
        let mut metadata_dram = 0u32;

        // Train on the miss stream; insertions go through the write buffer.
        if let Some((prev, cur)) = self.trainer.observe(ev.pc, ev.line) {
            let existed = self.map.insert(prev, cur).is_some();
            if existed {
                self.stats.replacements += 1;
            }
            self.stats.insertions += 1;
            self.pending_writes += 1;
            if self.pending_writes >= WRITES_PER_FLUSH {
                self.pending_writes = 0;
                metadata_dram += 1;
            }
        }

        // Predict: every chain step reads one Markov row from DRAM.
        let mut targets = Vec::new();
        let mut cur = ev.line;
        for _ in 0..DEGREE {
            self.stats.lookups += 1;
            metadata_dram += 1;
            match self.map.get(&cur) {
                Some(&t) => {
                    self.stats.hits += 1;
                    targets.push(t);
                    cur = t;
                }
                None => break,
            }
        }

        L2Decision {
            prefetches: targets
                .into_iter()
                .map(|line| PrefetchRequest {
                    line,
                    trigger_pc: ev.pc,
                })
                .collect(),
            resize_meta_ways: None,
            metadata_dram_accesses: metadata_dram,
        }
    }

    fn meta_stats(&self) -> MetaTableStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_sim_mem::Pc;

    fn ev(line: u64) -> L2Event {
        L2Event {
            pc: Pc(1),
            line: Line(line),
            l2_hit: false,
            from_l1_prefetch: false,
            now: 0,
        }
    }

    #[test]
    fn learns_and_prefetches_with_metadata_traffic() {
        let mut p = OffChipTemporal::default();
        for _ in 0..2 {
            for l in [10u64, 20, 30] {
                p.on_l2_access(&ev(l));
            }
        }
        let d = p.on_l2_access(&ev(10));
        assert_eq!(d.prefetches.len(), 1);
        assert_eq!(d.prefetches[0].line, Line(20));
        assert!(
            d.metadata_dram_accesses >= 1,
            "every lookup costs a DRAM metadata read"
        );
    }

    #[test]
    fn capacity_is_unbounded() {
        let mut p = OffChipTemporal::default();
        for l in 0..300_000u64 {
            p.on_l2_access(&ev(l));
        }
        assert!(
            p.entries() > crate::MAX_META_ENTRIES,
            "DRAM metadata exceeds any on-chip table: {}",
            p.entries()
        );
    }

    #[test]
    fn writes_are_amortized() {
        let mut p = OffChipTemporal::default();
        let mut dram = 0u32;
        for l in 0..100u64 {
            dram += p.on_l2_access(&ev(l * 7)).metadata_dram_accesses;
        }
        // ~1 read per event + 1 write per WRITES_PER_FLUSH (8) insertions.
        assert!(dram > 100, "reads dominate: {dram}");
        assert!(dram < 140, "writes are combined: {dram}");
    }

    #[test]
    fn l2_hits_are_ignored() {
        let mut p = OffChipTemporal::default();
        let mut e = ev(5);
        e.l2_hit = true;
        let d = p.on_l2_access(&e);
        assert_eq!(d.metadata_dram_accesses, 0);
        assert!(d.prefetches.is_empty());
    }
}
