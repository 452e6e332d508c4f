//! The three-level memory hierarchy of Table 1, wired to DRAM.
//!
//! Timing model: cache state is updated eagerly in access order, while
//! *readiness* is tracked per line for outstanding DRAM fills. A demand
//! access that arrives before its line's fill completes pays the remaining
//! latency (this is how MSHR merging and late prefetches behave). The L2 is
//! mostly inclusive of L1; the LLC is mostly exclusive (filled by L2
//! victims, invalidated on promotion), matching the paper's CHAR-based LLC.
//!
//! Two prefetch entry points exist:
//!
//! * [`Hierarchy::l1_prefetch`] — L1 stride/IPCP prefetches; they fill the
//!   L1/L2 like demands and appear in the L2 access stream, which is what
//!   the temporal prefetchers train on ("including prefetch requests
//!   generated by L1 stride prefetchers", Section 5.1).
//! * [`Hierarchy::l2_prefetch_issue`] — temporal (or RPG2 software)
//!   prefetches into the L2; these carry a trigger PC so per-PC accuracy
//!   (the PEBS events of Section 4.1) can be accounted.

use crate::addr::{Cycle, Line, Pc};
use crate::cache::{demand_line, prefetched_line, Cache, CacheSnapshot, CacheStats, LineState};
use crate::config::SystemConfig;
use crate::dram::{Dram, DramSnapshot, DramStats};
use crate::flat::{FlatMap, InflightTable};

/// Per-PC memory-event counters; the raw material of Prophet's PMU/PEBS
/// profiling (Section 4.1) and of RPG2's kernel identification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcMemStats {
    /// Demand accesses that reached the L2 (L1 misses) from this PC.
    pub l2_accesses: u64,
    /// Demand accesses that missed in the L2 from this PC
    /// (`MEM_LOAD_RETIRED.L2_MISS`).
    pub l2_misses: u64,
    /// L2 prefetches issued with this PC as the trigger
    /// (`MEM_LOAD_RETIRED.L2_Prefetch_Issue`).
    pub issued_prefetches: u64,
    /// Issued prefetches later hit by a demand access
    /// (`MEM_LOAD_RETIRED.L2_Prefetch_Useful`).
    pub useful_prefetches: u64,
}

impl PcMemStats {
    /// Prefetching accuracy of this PC: useful / issued (Section 4.1).
    /// Returns `None` when no prefetches were issued.
    pub fn accuracy(&self) -> Option<f64> {
        if self.issued_prefetches == 0 {
            None
        } else {
            Some(self.useful_prefetches as f64 / self.issued_prefetches as f64)
        }
    }
}

/// Per-PC counter table: a [`FlatMap`] keyed by the PC so the two or
/// three counter bumps on every L2 access stay off the SipHash path.
/// Iteration order is *not* insertion order; consumers aggregate into
/// sorted maps (see `SimReport`).
#[derive(Debug, Clone, Default)]
pub struct PcStatsMap(FlatMap<PcMemStats>);

impl PcStatsMap {
    /// The counters recorded for `pc`, if any.
    pub fn get(&self, pc: Pc) -> Option<&PcMemStats> {
        self.0.get(pc.0)
    }

    /// Number of PCs with recorded counters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no PC has counters yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates `(pc, counters)` in table order (deterministic, unsorted).
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &PcMemStats)> + '_ {
        self.0.iter().map(|(k, v)| (Pc(k), v))
    }

    fn entry(&mut self, pc: Pc) -> &mut PcMemStats {
        self.0.get_or_insert_with(pc.0, PcMemStats::default)
    }
}

impl std::ops::Index<&Pc> for PcStatsMap {
    type Output = PcMemStats;
    fn index(&self, pc: &Pc) -> &PcMemStats {
        self.get(*pc).expect("no memory stats recorded for this PC")
    }
}

/// Hierarchy-wide counters.
#[derive(Debug, Clone, Default)]
pub struct MemStats {
    pub per_pc: PcStatsMap,
    /// All L2 prefetches issued (temporal or software).
    pub issued_prefetches: u64,
    /// L2 prefetches that were hit by a demand before eviction.
    pub useful_prefetches: u64,
    /// Useful prefetches whose fill had not completed when the demand
    /// arrived (late but still partially covering).
    pub late_useful_prefetches: u64,
    /// L1 prefetches issued by the stride/IPCP prefetcher.
    pub l1_prefetches: u64,
}

impl MemStats {
    fn pc(&mut self, pc: Pc) -> &mut PcMemStats {
        self.per_pc.entry(pc)
    }

    /// Global temporal-prefetch accuracy (Figure 12b).
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.issued_prefetches == 0 {
            0.0
        } else {
            self.useful_prefetches as f64 / self.issued_prefetches as f64
        }
    }
}

/// Outcome of a demand access: its latency and what the L2 saw (the event
/// stream temporal prefetchers train on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandOutcome {
    /// Load-to-use latency in cycles.
    pub latency: Cycle,
    /// Whether the access hit in the L1.
    pub l1_hit: bool,
    /// Set when the access reached the L2 (i.e. missed L1).
    pub l2_event: Option<L2Event>,
}

/// One event in the L2 access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Event {
    pub pc: Pc,
    pub line: Line,
    /// Whether it hit in the L2 (misses are what temporal prefetchers
    /// classically train on; Triage/Triangel also observe prefetch hits).
    pub l2_hit: bool,
    /// True when the event was generated by an L1 prefetcher rather than a
    /// demand access.
    pub from_l1_prefetch: bool,
    /// Time the event was observed.
    pub now: Cycle,
}

/// What happened to an issued L2 prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// Target already resident in L1/L2 — dropped, not counted as issued.
    DroppedResident,
    /// Target already being fetched — dropped, not counted as issued.
    DroppedInflight,
    /// Served from the LLC (no DRAM traffic).
    FilledFromLlc,
    /// Fetched from DRAM.
    FilledFromDram,
}

impl PrefetchOutcome {
    /// Whether the request was actually issued (counted by the PMU).
    pub fn issued(self) -> bool {
        matches!(
            self,
            PrefetchOutcome::FilledFromLlc | PrefetchOutcome::FilledFromDram
        )
    }
}

/// Plain-data image of the hierarchy's warm state, for checkpointing
/// (`prophet-store` serializes it; see DESIGN.md §6).
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchySnapshot {
    pub l1d: CacheSnapshot,
    pub l2: CacheSnapshot,
    pub llc: CacheSnapshot,
    pub dram: DramSnapshot,
    /// Outstanding fills (line → completion time), sorted by line for
    /// deterministic serialization.
    pub inflight: Vec<(Line, Cycle)>,
}

/// The assembled memory system.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    dram: Dram,
    /// Lines whose fill is still in flight: line → fill-completion time.
    /// Cache state is already updated; readiness gates observed latency.
    inflight: InflightTable,
    stats: MemStats,
}

impl Hierarchy {
    /// Builds an empty hierarchy from a system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        Hierarchy {
            l1d: Cache::new(cfg.l1d.clone()),
            l2: Cache::new(cfg.l2.clone()),
            llc: Cache::new(cfg.llc.clone()),
            dram: Dram::new(cfg.dram),
            inflight: InflightTable::new(),
            stats: MemStats::default(),
        }
    }

    /// L1 data cache (read-only view).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// L2 cache (read-only view).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// LLC (read-only view).
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Hierarchy statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Per-level cache statistics: (L1D, L2, LLC).
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (*self.l1d.stats(), *self.l2.stats(), *self.llc.stats())
    }

    /// Clears every counter (cache contents and DRAM channel state are
    /// preserved) — called at the warm-up/measurement boundary.
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.dram.reset_stats();
        self.stats = MemStats::default();
    }

    /// Reserves `k` LLC ways for the metadata table, writing back any dirty
    /// data lines evicted by the repartition.
    pub fn set_llc_meta_ways(&mut self, k: usize, now: Cycle) {
        for ev in self.llc.set_reserved_ways(k) {
            if ev.state.dirty {
                self.dram.write(ev.state.line, now);
            }
        }
    }

    /// Ways currently reserved in the LLC for metadata.
    pub fn llc_meta_ways(&self) -> usize {
        self.llc.reserved_ways()
    }

    /// Captures the full warm state of the memory system — cache contents
    /// with replacement and partition state, DRAM channel timing, and the
    /// outstanding-fill map. Counters are excluded: a snapshot marks the
    /// warm-up boundary where every counter resets.
    pub fn snapshot(&self) -> HierarchySnapshot {
        // The inflight set is sorted so the snapshot (and anything hashed
        // or serialized from it) is independent of insertion order.
        let mut inflight: Vec<(Line, Cycle)> = self.inflight.entries().to_vec();
        inflight.sort_unstable();
        HierarchySnapshot {
            l1d: self.l1d.snapshot(),
            l2: self.l2.snapshot(),
            llc: self.llc.snapshot(),
            dram: self.dram.snapshot(),
            inflight,
        }
    }

    /// Restores a snapshot taken from a hierarchy built with the same
    /// [`SystemConfig`]. All counters restart at zero.
    ///
    /// # Panics
    /// Panics on a geometry mismatch (checkpoints are keyed by
    /// configuration digest, so this indicates caller error).
    pub fn restore(&mut self, snap: &HierarchySnapshot) {
        self.l1d.restore(&snap.l1d);
        self.l2.restore(&snap.l2);
        self.llc.restore(&snap.llc);
        self.dram.restore(&snap.dram);
        self.inflight.clear();
        for &(line, ready) in &snap.inflight {
            self.inflight.insert(line, ready);
        }
        self.stats = MemStats::default();
    }

    fn purge_inflight(&mut self, now: Cycle) {
        if self.inflight.len() > 4 * self.l2.config().mshrs {
            self.inflight.retain_ready_after(now);
        }
    }

    fn inflight_penalty(&self, line: Line, now: Cycle) -> Option<Cycle> {
        self.inflight
            .get(line)
            .and_then(|ready| ready.checked_sub(now))
            .filter(|&d| d > 0)
    }

    /// MSHR pressure: when too many fills are outstanding, a new DRAM
    /// request waits until the earliest of them completes
    /// ([`InflightTable::mshr_wait`], exact for any `now`; DESIGN.md §7).
    fn mshr_delay(&self, now: Cycle) -> Cycle {
        self.inflight.mshr_wait(now, self.l2.config().mshrs)
    }

    /// A demand load/store from the core at time `now`.
    pub fn demand_access(
        &mut self,
        pc: Pc,
        line: Line,
        is_store: bool,
        now: Cycle,
    ) -> DemandOutcome {
        self.purge_inflight(now);
        let l1_lat = self.l1d.hit_latency();
        // L1 lookup.
        let r1 = self.l1d.access(line, is_store);
        if r1.hit {
            let latency = match self.inflight_penalty(line, now) {
                Some(rem) => l1_lat.max(rem),
                None => l1_lat,
            };
            return DemandOutcome {
                latency,
                l1_hit: true,
                l2_event: None,
            };
        }

        // L2 lookup. The PC's counters are created before the trigger's
        // (credited below), keeping the per-PC table's insertion order.
        let l2_lat = l1_lat + self.l2.hit_latency();
        let r2 = self.l2.access(line, false);
        let pcs = self.stats.pc(pc);
        pcs.l2_accesses += 1;
        pcs.l2_misses += u64::from(!r2.hit);
        if let Some(trigger) = r2.first_use_of_prefetch {
            self.credit_useful_prefetch(trigger, line, now);
        }
        if r2.hit {
            let latency = match self.inflight_penalty(line, now) {
                Some(rem) => l2_lat.max(rem),
                None => l2_lat,
            };
            self.fill_l1(line, is_store, now);
            return DemandOutcome {
                latency,
                l1_hit: false,
                l2_event: Some(L2Event {
                    pc,
                    line,
                    l2_hit: true,
                    from_l1_prefetch: false,
                    now,
                }),
            };
        }

        // LLC lookup (mostly exclusive: hit promotes the line to L2/L1).
        let llc_lat = l2_lat + self.llc.hit_latency();
        let r3 = self.llc.access(line, false);
        if r3.hit {
            if let Some(trigger) = r3.first_use_of_prefetch {
                self.credit_useful_prefetch(trigger, line, now);
            }
            let promoted = self.llc.invalidate(line).expect("LLC hit implies resident");
            self.fill_l2(
                LineState {
                    prefetched: false,
                    trigger_pc: None,
                    ..promoted
                },
                now,
            );
            self.fill_l1(line, is_store, now);
            return DemandOutcome {
                latency: llc_lat,
                l1_hit: false,
                l2_event: Some(L2Event {
                    pc,
                    line,
                    l2_hit: false,
                    from_l1_prefetch: false,
                    now,
                }),
            };
        }

        // Miss everywhere: either merge with an outstanding fill or go to
        // DRAM. (An outstanding fill's state is already in the caches, so a
        // true DRAM path here means nobody is fetching this line.)
        let latency = match self.inflight_penalty(line, now) {
            Some(rem) => llc_lat.max(rem),
            None => {
                let issue = now + llc_lat + self.mshr_delay(now);
                let ready = self.dram.read(line, issue);
                self.inflight.insert(line, ready);
                self.fill_l2(demand_line(line, false), now);
                ready - now
            }
        };
        self.fill_l1(line, is_store, now);
        DemandOutcome {
            latency,
            l1_hit: false,
            l2_event: Some(L2Event {
                pc,
                line,
                l2_hit: false,
                from_l1_prefetch: false,
                now,
            }),
        }
    }

    fn credit_useful_prefetch(&mut self, trigger: Pc, line: Line, now: Cycle) {
        self.stats.useful_prefetches += 1;
        if self.inflight_penalty(line, now).is_some() {
            self.stats.late_useful_prefetches += 1;
        }
        self.stats.pc(trigger).useful_prefetches += 1;
    }

    /// An L1 prefetch (stride/IPCP) for `line` triggered by `pc`. Returns the
    /// L2 stream event if the request propagated past the L1.
    pub fn l1_prefetch(&mut self, pc: Pc, line: Line, now: Cycle) -> Option<L2Event> {
        if self.l1d.contains(line) {
            return None;
        }
        self.stats.l1_prefetches += 1;
        // L2 probe. An L1-prefetch landing on a temporally prefetched line
        // still counts as that prefetch's use: the line is being pulled to
        // the L1 for an imminent demand, and without the L2 copy this
        // request would have gone to DRAM.
        if self.l2.touch(line) {
            if let Some(trigger) = self.l2.consume_prefetch_bit(line) {
                self.credit_useful_prefetch(trigger, line, now);
            }
            self.fill_l1(line, false, now);
            return Some(L2Event {
                pc,
                line,
                l2_hit: true,
                from_l1_prefetch: true,
                now,
            });
        }
        if self.llc.touch(line) {
            let promoted = self.llc.invalidate(line).expect("LLC touch hit");
            self.fill_l2(promoted, now);
            self.fill_l1(line, false, now);
        } else if self.inflight_penalty(line, now).is_none() {
            let issue = now + self.mshr_delay(now);
            let ready = self.dram.read(line, issue);
            self.inflight.insert(line, ready);
            self.fill_l2(demand_line(line, false), now);
            self.fill_l1(line, false, now);
        }
        Some(L2Event {
            pc,
            line,
            l2_hit: false,
            from_l1_prefetch: true,
            now,
        })
    }

    /// A DRAM access on behalf of prefetcher *metadata* (off-chip
    /// temporal prefetching, Section 2.1): occupies channel bandwidth and
    /// counts as a read, interleaved with demand traffic by address.
    pub fn metadata_dram_access(&mut self, token: u64, now: Cycle) {
        self.dram.read(Line(token), now);
    }

    /// An L2 prefetch for `line` with trigger PC `trigger` (temporal
    /// prefetcher or RPG2 software prefetch).
    ///
    /// The O(1) in-flight probe runs *before* the L1/L2 residency way
    /// scans, so duplicate-heavy prefetch traffic (Prophet degree chains
    /// re-requesting lines whose fill is still outstanding) drops without
    /// touching the tag arrays. A just-filled line is both resident and in
    /// flight until its ready cycle and is reported as
    /// [`PrefetchOutcome::DroppedInflight`]; both drop paths are side-effect
    /// free. The purge runs first on every call: purge timing is behavior,
    /// since `now` is not monotone across interleaved events.
    pub fn l2_prefetch_issue(&mut self, trigger: Pc, line: Line, now: Cycle) -> PrefetchOutcome {
        self.purge_inflight(now);
        if self.inflight_penalty(line, now).is_some() {
            return PrefetchOutcome::DroppedInflight;
        }
        if self.l2.contains(line) || self.l1d.contains(line) {
            return PrefetchOutcome::DroppedResident;
        }
        self.issue_l2_prefetch(trigger, line, now)
    }

    /// The issue tail of [`Hierarchy::l2_prefetch_issue`]: the line is
    /// known to be non-resident and not inflight.
    fn issue_l2_prefetch(&mut self, trigger: Pc, line: Line, now: Cycle) -> PrefetchOutcome {
        self.stats.issued_prefetches += 1;
        self.stats.pc(trigger).issued_prefetches += 1;
        if self.llc.touch(line) {
            let promoted = self.llc.invalidate(line).expect("LLC touch hit");
            self.fill_l2(
                LineState {
                    prefetched: true,
                    trigger_pc: Some(trigger),
                    ..promoted
                },
                now,
            );
            self.inflight
                .insert(line, now + self.llc.hit_latency() + self.l2.hit_latency());
            PrefetchOutcome::FilledFromLlc
        } else {
            let issue = now + self.mshr_delay(now);
            let ready = self.dram.read(line, issue);
            self.inflight.insert(line, ready);
            self.fill_l2(prefetched_line(line, trigger), now);
            PrefetchOutcome::FilledFromDram
        }
    }

    /// Fills `line` into the L1. Every call site has just observed an L1
    /// miss for `line` at the same `now` (a missed `access`/`contains`/
    /// `touch` probe with no intervening L1 fill), so no residency
    /// pre-check runs here — `Cache::fill` debug-asserts the invariant.
    fn fill_l1(&mut self, line: Line, dirty: bool, now: Cycle) {
        if let Some(ev) = self.l1d.fill(demand_line(line, dirty)) {
            if ev.state.dirty {
                // Mostly-inclusive L2: the line is normally still there.
                if !self.l2.mark_dirty(ev.state.line) {
                    self.fill_l2(ev.state, now);
                }
            }
        }
    }

    /// Fills `state` into the L2. Every call site has just proven the
    /// line non-resident (a missed `access`/`touch`/`contains` probe, an
    /// LLC `invalidate` of a mostly-exclusive line, or an L1-writeback
    /// `mark_dirty` that returned false), so no residency pre-check runs
    /// here — `Cache::fill` debug-asserts the invariant.
    fn fill_l2(&mut self, state: LineState, now: Cycle) {
        if let Some(ev) = self.l2.fill(state) {
            self.fill_llc(ev.state, now);
        }
    }

    fn fill_llc(&mut self, state: LineState, now: Cycle) {
        if self.llc.data_ways() == 0 {
            // Fully partitioned away: victim goes straight to memory.
            if state.dirty {
                self.dram.write(state.line, now);
            }
            return;
        }
        if self.llc.contains(state.line) {
            if state.dirty {
                self.llc.mark_dirty(state.line);
            }
            return;
        }
        if let Some(ev) = self.llc.fill(state) {
            if ev.state.dirty {
                self.dram.write(ev.state.line, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(&SystemConfig::isca25())
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits() {
        let mut h = hierarchy();
        let out = h.demand_access(Pc(1), Line(100), false, 0);
        assert!(!out.l1_hit);
        assert!(out.latency > 100, "cold miss must pay DRAM latency");
        assert_eq!(h.dram_stats().reads, 1);
        // Long after the fill completes the line hits in L1.
        let out2 = h.demand_access(Pc(1), Line(100), false, 10_000);
        assert!(out2.l1_hit);
        assert_eq!(out2.latency, 2);
    }

    #[test]
    fn l2_event_reports_misses() {
        let mut h = hierarchy();
        let out = h.demand_access(Pc(1), Line(5), false, 0);
        let ev = out.l2_event.expect("L1 miss reaches L2");
        assert!(!ev.l2_hit);
        assert_eq!(ev.line, Line(5));
        assert_eq!(ev.pc, Pc(1));
    }

    #[test]
    fn prefetch_then_demand_is_useful_and_cheap() {
        let mut h = hierarchy();
        let outc = h.l2_prefetch_issue(Pc(9), Line(7), 0);
        assert_eq!(outc, PrefetchOutcome::FilledFromDram);
        // Demand long after the prefetch completed: L2 hit latency.
        let out = h.demand_access(Pc(9), Line(7), false, 5_000);
        assert!(!out.l1_hit);
        assert_eq!(out.latency, 11);
        assert_eq!(h.stats().useful_prefetches, 1);
        assert_eq!(h.stats().per_pc[&Pc(9)].useful_prefetches, 1);
        assert_eq!(h.stats().per_pc[&Pc(9)].issued_prefetches, 1);
    }

    #[test]
    fn late_prefetch_pays_partial_latency() {
        let mut h = hierarchy();
        h.l2_prefetch_issue(Pc(9), Line(7), 0);
        // Demand 10 cycles later: prefetch still in flight.
        let out = h.demand_access(Pc(9), Line(7), false, 10);
        assert!(out.latency > 11, "late prefetch only partially covers");
        assert!(out.latency < 200, "but is cheaper than a fresh DRAM trip");
        assert_eq!(h.stats().late_useful_prefetches, 1);
    }

    #[test]
    fn duplicate_prefetch_dropped() {
        let mut h = hierarchy();
        assert!(h.l2_prefetch_issue(Pc(1), Line(3), 0).issued());
        assert_eq!(
            h.l2_prefetch_issue(Pc(1), Line(3), 1),
            PrefetchOutcome::DroppedInflight
        );
        // Once the fill completes the line is simply resident.
        assert_eq!(
            h.l2_prefetch_issue(Pc(1), Line(3), 10_000),
            PrefetchOutcome::DroppedResident
        );
        assert_eq!(h.stats().issued_prefetches, 1);
    }

    #[test]
    fn unused_prefetch_counts_against_accuracy() {
        let mut h = hierarchy();
        h.l2_prefetch_issue(Pc(4), Line(1), 0);
        let s = &h.stats().per_pc[&Pc(4)];
        assert_eq!(s.issued_prefetches, 1);
        assert_eq!(s.useful_prefetches, 0);
        assert_eq!(s.accuracy(), Some(0.0));
    }

    #[test]
    fn llc_holds_l2_victims() {
        let mut h = hierarchy();
        // Fill the same L2 set (1024 sets) until eviction, then re-access an
        // early line: it must be an LLC hit (latency 31), not DRAM.
        for i in 0..9u64 {
            h.demand_access(Pc(1), Line(1 + i * 1024), false, i * 1_000);
        }
        let out = h.demand_access(Pc(1), Line(1), false, 1_000_000);
        assert_eq!(out.latency, 31, "L2 victim must be served by the LLC");
    }

    #[test]
    fn meta_partition_shrinks_llc() {
        let mut h = hierarchy();
        h.set_llc_meta_ways(8, 0);
        assert_eq!(h.llc_meta_ways(), 8);
        assert_eq!(h.llc().data_ways(), 8);
    }

    #[test]
    fn dirty_writeback_reaches_dram() {
        let mut h = hierarchy();
        // Store to a line, then force it down the hierarchy by filling its
        // L2 and LLC sets (same set index stride for both: use LLC sets).
        h.demand_access(Pc(1), Line(0), true, 0);
        for i in 1..60u64 {
            h.demand_access(Pc(1), Line(i * 2048), false, i * 2_000);
        }
        assert!(
            h.dram_stats().writes >= 1,
            "dirty line must be written back"
        );
    }

    #[test]
    fn l1_prefetch_reaches_l2_stream() {
        let mut h = hierarchy();
        let ev = h
            .l1_prefetch(Pc(2), Line(77), 0)
            .expect("L1 miss propagates");
        assert!(!ev.l2_hit);
        assert!(ev.from_l1_prefetch);
        // Resident now; a second prefetch is absorbed by the L1.
        assert!(h.l1_prefetch(Pc(2), Line(77), 1).is_none());
    }

    /// Restored hierarchies must be *behaviourally* identical: replaying
    /// the same access sequence on the original and the restored copy gives
    /// the same latencies, snapshots and counters.
    #[test]
    fn snapshot_restore_replays_identically() {
        let mut h = hierarchy();
        // Warm it with mixed traffic: demand (some stores), L1 prefetches,
        // L2 prefetches, a partition change.
        for i in 0..2_000u64 {
            h.demand_access(Pc(i % 7), Line((i * 97) % 4096), i % 5 == 0, i * 3);
        }
        h.set_llc_meta_ways(4, 6_000);
        h.l2_prefetch_issue(Pc(9), Line(70_000), 6_100);
        h.l1_prefetch(Pc(3), Line(80_000), 6_200);
        let snap = h.snapshot();

        let mut r = hierarchy();
        r.restore(&snap);
        assert_eq!(r.snapshot(), snap, "restore is lossless");
        h.reset_stats(); // the restore path starts with zeroed counters
        for i in 0..2_000u64 {
            let t = 7_000 + i * 2;
            let a = h.demand_access(Pc(i % 5), Line((i * 131) % 8192), false, t);
            let b = r.demand_access(Pc(i % 5), Line((i * 131) % 8192), false, t);
            assert_eq!(a, b, "divergence at access {i}");
        }
        assert_eq!(h.stats().issued_prefetches, r.stats().issued_prefetches);
        assert_eq!(h.dram_stats(), r.dram_stats());
        assert_eq!(h.snapshot(), r.snapshot());
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = hierarchy();
        h.demand_access(Pc(1), Line(9), false, 0);
        h.reset_stats();
        assert_eq!(h.dram_stats().reads, 0);
        let out = h.demand_access(Pc(1), Line(9), false, 10_000);
        assert!(out.l1_hit, "contents survive a stats reset");
    }
}
