//! Prefetcher interfaces.
//!
//! Two attachment points exist in the simulated system, mirroring the paper:
//!
//! * [`L1Prefetcher`] — observes the L1D demand stream and prefetches byte
//!   addresses into the L1 (the Table 1 degree-8 stride prefetcher, or IPCP
//!   for the Figure 17 sensitivity study).
//! * [`L2Prefetcher`] — observes the L2 access stream (demand misses, demand
//!   hits and L1-prefetch requests, per Section 5.1) and prefetches lines
//!   into the L2. Triage, Triangel, Prophet and the RPG2 software scheme all
//!   implement this trait.

use crate::small::SmallList;
use prophet_sim_mem::addr::{Addr, Pc};
use prophet_sim_mem::hierarchy::L2Event;
use prophet_sim_mem::Line;

/// A single L2 prefetch request: the target line plus the PC whose access
/// triggered it (for per-PC accuracy accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchRequest {
    pub line: Line,
    pub trigger_pc: Pc,
}

/// Capacity of an [`L2Decision`]'s prefetch list: Prophet's degree-4 chain
/// plus at most four MVB paths, and no temporal engine chains further.
pub const L2_INLINE_PREFETCHES: usize = 8;

/// What an [`L2Prefetcher`] wants done after observing one event.
#[derive(Debug, Clone, Default)]
pub struct L2Decision {
    /// Prefetches to issue, in order.
    pub prefetches: SmallList<PrefetchRequest, L2_INLINE_PREFETCHES>,
    /// Request to repartition the LLC: reserve this many ways for metadata
    /// (Triage's Bloom resizing, Triangel's Set Dueller, Prophet's CSR).
    pub resize_meta_ways: Option<usize>,
    /// DRAM accesses performed for *metadata* (off-chip temporal
    /// prefetchers in the Domino/STMS lineage fetch their Markov rows from
    /// memory — the traffic on-chip schemes exist to eliminate,
    /// Section 2.1).
    pub metadata_dram_accesses: u32,
}

impl L2Decision {
    /// A decision that does nothing.
    pub fn none() -> Self {
        L2Decision::default()
    }

    /// A decision issuing a single prefetch.
    pub fn prefetch(line: Line, trigger_pc: Pc) -> Self {
        let mut prefetches = SmallList::default();
        prefetches.push(PrefetchRequest { line, trigger_pc });
        L2Decision {
            prefetches,
            ..L2Decision::default()
        }
    }
}

/// Cumulative metadata-table activity counters, exposed by temporal
/// prefetchers for the PMU (`insertions − replacements` is the paper's
/// "allocated entries" resizing metric, Section 4.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaTableStats {
    /// Entries written into the metadata table.
    pub insertions: u64,
    /// Insertions that displaced a valid entry.
    pub replacements: u64,
    /// Lookups performed on the table.
    pub lookups: u64,
    /// Lookups that found a matching entry.
    pub hits: u64,
    /// Training pairs rejected by the insertion policy.
    pub rejected_insertions: u64,
}

impl MetaTableStats {
    /// The paper's allocated-entries metric: insertions − replacements.
    pub fn allocated_entries(&self) -> u64 {
        self.insertions.saturating_sub(self.replacements)
    }
}

/// An L2-attached prefetcher (temporal hardware prefetchers and the RPG2
/// software baseline).
pub trait L2Prefetcher {
    /// Short name used in reports ("triage", "triangel", "prophet", ...).
    fn name(&self) -> &'static str;

    /// Observes one event in the L2 access stream and decides what to
    /// prefetch and whether to resize the metadata partition.
    fn on_l2_access(&mut self, ev: &L2Event) -> L2Decision;

    /// LLC ways the prefetcher's metadata currently occupies.
    fn meta_ways(&self) -> usize {
        0
    }

    /// Metadata table counters (zero for prefetchers without a table).
    fn meta_stats(&self) -> MetaTableStats {
        MetaTableStats::default()
    }
}

/// The null L2 prefetcher: the paper's "baseline without temporal
/// prefetcher".
#[derive(Debug, Clone, Copy, Default)]
pub struct NoL2Prefetch;

impl L2Prefetcher for NoL2Prefetch {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_l2_access(&mut self, _ev: &L2Event) -> L2Decision {
        L2Decision::none()
    }
}

/// Capacity of an L1 prefetcher's reply: IPCP issues at most 14 prefetches
/// per access and the degree-8 stride prefetcher 8.
pub const L1_INLINE_PREFETCHES: usize = 16;

/// The fixed-capacity reply of an [`L1Prefetcher`].
pub type L1PrefetchList = SmallList<Addr, L1_INLINE_PREFETCHES>;

/// An L1-attached prefetcher observing the demand byte-address stream.
pub trait L1Prefetcher {
    /// Short name used in reports ("stride", "ipcp").
    fn name(&self) -> &'static str;

    /// Observes a demand access and returns byte addresses to prefetch.
    fn on_l1_access(&mut self, pc: Pc, addr: Addr, hit: bool) -> L1PrefetchList;
}

/// The null L1 prefetcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoL1Prefetch;

impl L1Prefetcher for NoL1Prefetch {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_l1_access(&mut self, _pc: Pc, _addr: Addr, _hit: bool) -> L1PrefetchList {
        L1PrefetchList::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_prefetchers_do_nothing() {
        let mut l2 = NoL2Prefetch;
        let ev = L2Event {
            pc: Pc(1),
            line: Line(2),
            l2_hit: false,
            from_l1_prefetch: false,
            now: 0,
        };
        assert!(l2.on_l2_access(&ev).prefetches.is_empty());
        assert_eq!(l2.meta_ways(), 0);

        let mut l1 = NoL1Prefetch;
        assert!(l1.on_l1_access(Pc(1), Addr(64), false).is_empty());
    }

    #[test]
    fn allocated_entries_saturates() {
        let s = MetaTableStats {
            insertions: 5,
            replacements: 9,
            ..Default::default()
        };
        assert_eq!(s.allocated_entries(), 0);
    }

    #[test]
    fn decision_constructors() {
        let d = L2Decision::prefetch(Line(10), Pc(3));
        assert_eq!(d.prefetches.len(), 1);
        assert_eq!(d.prefetches[0].line, Line(10));
        assert!(L2Decision::none().prefetches.is_empty());
    }
}
