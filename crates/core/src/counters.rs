//! Profile counters — the *only* artifact Prophet's profiling produces.
//!
//! The key design point of the paper (Figure 2): unlike trace-based
//! profile-guided schemes (~GB of trace), Prophet records a handful of
//! PMU/PEBS *counters* (~bytes): per-PC issued/useful prefetch counts
//! (`MEM_LOAD_RETIRED.L2_Prefetch_Issue/Useful`), per-PC L2 miss counts
//! (for hint-buffer occupancy ranking), and the application-level
//! insertion/replacement counts whose difference is the peak number of
//! allocated metadata entries (Section 4.1).

use prophet_sim_core::SimReport;
use std::collections::BTreeMap;

/// Per-PC profile record. Values are `f64` because Step 3 merges profiles
/// from multiple inputs with the fractional update of Eq. 4.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PcProfile {
    /// Prefetching accuracy of the PC under the simplified temporal
    /// prefetcher: useful / issued (Section 4.1).
    pub accuracy: f64,
    /// Prefetches issued with this PC as trigger (validity weight for the
    /// accuracy; a PC with zero issues has no temporal evidence).
    pub issued: f64,
    /// L2 misses caused by this PC (`MEM_LOAD_RETIRED.L2_MISS`) — ranks PCs
    /// for the hint buffer (Section 4.4).
    pub l2_misses: f64,
}

/// A complete profile: per-PC records plus application-level counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileCounters {
    /// Per-PC records, keyed by raw PC.
    pub per_pc: BTreeMap<u64, PcProfile>,
    /// Metadata-table insertions observed during profiling.
    pub insertions: f64,
    /// Metadata-table replacements observed during profiling.
    pub replacements: f64,
}

impl ProfileCounters {
    /// Extracts the profile from a simulation report of a profiling run
    /// (the simulated PMU/PEBS readout).
    pub fn from_report(report: &SimReport) -> Self {
        let mut per_pc = BTreeMap::new();
        for (&pc, s) in &report.per_pc {
            let accuracy = s.accuracy().unwrap_or(0.0);
            per_pc.insert(
                pc,
                PcProfile {
                    accuracy,
                    issued: s.issued_prefetches as f64,
                    l2_misses: s.l2_misses as f64,
                },
            );
        }
        ProfileCounters {
            per_pc,
            insertions: report.meta.insertions as f64,
            replacements: report.meta.replacements as f64,
        }
    }

    /// The paper's application-level resizing metric:
    /// `Allocated Entries = Insertions − Replacements` (Section 4.1).
    pub fn allocated_entries(&self) -> f64 {
        (self.insertions - self.replacements).max(0.0)
    }

    /// Merges `new` (a profile from a previously unseen input) into `self`
    /// following Step 3 (Section 4.3):
    ///
    /// * per-PC values use Eq. 4 — `merged = o + (n − o) / min(l+1, L)` when
    ///   the PC was seen before, else `merged = n`;
    /// * allocated entries use Eq. 5 — `merged = max(o, n)`, conservatively
    ///   accommodating every input's table requirement.
    ///
    /// `loop_count` is the number of completed Prophet loops `l` (each
    /// Analysis step counts as one) and `cap` is the designer parameter `L`.
    pub fn merge(&mut self, new: &ProfileCounters, loop_count: u32, cap: u32) {
        let l = (loop_count + 1).min(cap).max(1) as f64;
        for (&pc, n) in &new.per_pc {
            match self.per_pc.get_mut(&pc) {
                Some(o) => {
                    o.accuracy += (n.accuracy - o.accuracy) / l;
                    o.l2_misses += (n.l2_misses - o.l2_misses) / l;
                    o.issued += (n.issued - o.issued) / l;
                }
                None => {
                    self.per_pc.insert(pc, *n);
                }
            }
        }
        // Eq. 5 on the derived metric: keep the max allocated entries by
        // merging the raw counters so that insertions−replacements is the
        // max of the two profiles.
        if new.allocated_entries() > self.allocated_entries() {
            self.insertions = new.insertions;
            self.replacements = new.replacements;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(pcs: &[(u64, f64, f64)], ins: f64, rep: f64) -> ProfileCounters {
        ProfileCounters {
            per_pc: pcs
                .iter()
                .map(|&(pc, acc, miss)| {
                    (
                        pc,
                        PcProfile {
                            accuracy: acc,
                            issued: 100.0,
                            l2_misses: miss,
                        },
                    )
                })
                .collect(),
            insertions: ins,
            replacements: rep,
        }
    }

    #[test]
    fn allocated_entries_is_difference() {
        let p = profile(&[], 1000.0, 300.0);
        assert_eq!(p.allocated_entries(), 700.0);
        let q = profile(&[], 10.0, 30.0);
        assert_eq!(q.allocated_entries(), 0.0, "clamped at zero");
    }

    #[test]
    fn merge_case_load_a_same_hint() {
        // Load A (Fig. 7): same accuracy under both inputs → merged value
        // stays in the same range, same hint next loop.
        let mut p = profile(&[(1, 0.8, 50.0)], 100.0, 0.0);
        let q = profile(&[(1, 0.82, 60.0)], 90.0, 0.0);
        p.merge(&q, 1, 4);
        let a = p.per_pc[&1].accuracy;
        assert!(
            (a - 0.81).abs() < 1e-12,
            "l=1 → denominator min(l+1, L)=2 → halfway: {a}"
        );
    }

    #[test]
    fn merge_case_load_c_new_pc() {
        // Loads B/C (Fig. 7): PC unseen before input Y → merged = n.
        let mut p = profile(&[(1, 0.8, 50.0)], 100.0, 0.0);
        let q = profile(&[(2, 0.3, 70.0)], 90.0, 0.0);
        p.merge(&q, 1, 4);
        assert_eq!(p.per_pc[&2].accuracy, 0.3);
        assert!(p.per_pc.contains_key(&1), "old PCs are kept");
    }

    #[test]
    fn merge_case_load_e_conflicting_hints_converge() {
        // Load E (Fig. 7): different behaviour per input. Repeated exposure
        // to the new value dominates over loops.
        let mut p = profile(&[(1, 0.1, 50.0)], 0.0, 0.0);
        let q = profile(&[(1, 0.9, 50.0)], 0.0, 0.0);
        for l in 1..=10 {
            p.merge(&q, l, 4);
        }
        let a = p.per_pc[&1].accuracy;
        assert!(
            a > 0.7,
            "frequently observed counter values must dominate: {a}"
        );
    }

    #[test]
    fn merge_cap_l_bounds_step_size() {
        // With cap L, late merges still move by 1/L (not 1/(l+1) → 0).
        let mut p = profile(&[(1, 0.0, 0.0)], 0.0, 0.0);
        let q = profile(&[(1, 1.0, 0.0)], 0.0, 0.0);
        p.merge(&q, 100, 4);
        let a = p.per_pc[&1].accuracy;
        assert!((a - 0.25).abs() < 1e-12, "step is 1/L = 1/4, got {a}");
    }

    #[test]
    fn merge_allocated_entries_takes_max() {
        let mut p = profile(&[], 1000.0, 200.0); // 800 allocated
        let q = profile(&[], 2000.0, 500.0); // 1500 allocated
        p.merge(&q, 1, 4);
        assert_eq!(p.allocated_entries(), 1500.0);
        // Merging a smaller profile does not shrink it.
        let r = profile(&[], 100.0, 0.0);
        p.merge(&r, 2, 4);
        assert_eq!(p.allocated_entries(), 1500.0);
    }

    #[test]
    fn from_report_reads_pmu_events() {
        let mut rep = SimReport::default();
        rep.per_pc.insert(
            0x400,
            prophet_sim_mem::PcMemStats {
                l2_accesses: 100,
                l2_misses: 40,
                issued_prefetches: 50,
                useful_prefetches: 25,
            },
        );
        rep.meta.insertions = 1000;
        rep.meta.replacements = 100;
        let p = ProfileCounters::from_report(&rep);
        assert!((p.per_pc[&0x400].accuracy - 0.5).abs() < 1e-12);
        assert_eq!(p.per_pc[&0x400].l2_misses, 40.0);
        assert_eq!(p.allocated_entries(), 900.0);
    }
}
