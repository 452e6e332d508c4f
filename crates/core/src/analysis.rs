//! Step 2: Analysis — counters in, hints out (Section 4.2).
//!
//! * **Insertion hint** (Eq. 1): a PC whose profiled prefetching accuracy is
//!   below the extremely-low threshold `EL_ACC` almost certainly exhibits no
//!   temporal pattern; its demand requests are discarded by the prefetcher.
//! * **Replacement priority** (Eq. 2): surviving PCs get one of 2ⁿ priority
//!   levels by accuracy band.
//! * **Resizing** (Eq. 3): the peak allocated-entry count, rounded to a
//!   power of two and capped at the 1 MB table, converts to LLC ways;
//!   temporal prefetching is disabled outright when under half a way.

use crate::counters::ProfileCounters;
use crate::hints::{CsrHint, HintSet, PcHint, HINT_BUFFER_ENTRIES};
use prophet_sim_mem::{LLC_SETS, MAX_META_WAYS};
use prophet_temporal::{ENTRIES_PER_LINE, MAX_META_ENTRIES};

/// Minimum issued prefetches for a PC's accuracy to be trusted; below this
/// the PC keeps the default hint (a PC that never triggered a prefetch
/// carries no temporal evidence either way).
pub const MIN_ISSUED: f64 = 8.0;

/// Thrash-detection threshold for the Eq. 3 estimate. When the profiling
/// table's replacement count reaches this fraction of its insertions,
/// entries were being evicted while still live, so
/// `insertions − replacements` tracks the table's churn headroom rather
/// than the pattern's footprint — Eq. 3 would then pick 1–3 LLC ways for a
/// pattern that wants the whole table. Detection clamps the estimate up to
/// [`MAX_META_ENTRIES`] (every way the table can hold).
pub const THRASH_REPLACEMENT_FRAC: f64 = 0.5;

/// Analysis parameters (paper defaults in [`AnalysisConfig::default`]).
/// The geometry Eq. 3 sizes against — [`LLC_SETS`] sets, the
/// [`MAX_META_ENTRIES`] cap — and the [`HINT_BUFFER_ENTRIES`] hint budget
/// are fixed by the hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// `EL_ACC`, the extremely-low accuracy threshold of Eq. 1
    /// (Figure 16a evaluates 0.05 / **0.15** / 0.25).
    pub el_acc: f64,
    /// `n`, the priority-level bit width of Eq. 2
    /// (Figure 16b evaluates 1 / **2** / 3).
    pub priority_bits: u8,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            el_acc: 0.15,
            priority_bits: 2,
        }
    }
}

impl AnalysisConfig {
    /// Eq. 1: should a PC with accuracy `acc` train the prefetcher?
    pub fn insertion(&self, acc: f64) -> bool {
        acc >= self.el_acc
    }

    /// Eq. 2: the priority level of accuracy `acc` — `floor(acc · 2ⁿ)`
    /// clamped to `[0, 2ⁿ − 1]`.
    pub fn priority(&self, acc: f64) -> u8 {
        let levels = 1u32 << self.priority_bits;
        let level = (acc * levels as f64).floor() as i64;
        level.clamp(0, levels as i64 - 1) as u8
    }

    /// Eq. 3 with the preceding rounding step: allocated-entry count →
    /// (ways, enabled). Rounds `allocated` to the nearest power of two,
    /// caps at the 1 MB table, divides by per-way entry capacity; a result
    /// under 0.5 ways disables temporal prefetching.
    pub fn resize(&self, allocated: f64) -> CsrHint {
        let per_way = (LLC_SETS * ENTRIES_PER_LINE) as f64;
        let rounded = round_pow2(allocated.max(0.0)).min(MAX_META_ENTRIES as f64);
        let ways_real = rounded / per_way;
        if ways_real < 0.5 {
            return CsrHint {
                enabled: false,
                meta_ways: 0,
            };
        }
        CsrHint {
            enabled: true,
            meta_ways: (ways_real.ceil() as usize).clamp(1, MAX_META_WAYS),
        }
    }

    /// Did the profiling table thrash? True when replacements reach
    /// [`THRASH_REPLACEMENT_FRAC`] of insertions — the table was churning
    /// entries that were still live, so the allocated counter saturated
    /// well below the pattern's footprint.
    pub fn profile_thrashed(&self, profile: &ProfileCounters) -> bool {
        profile.insertions > 0.0
            && profile.replacements >= THRASH_REPLACEMENT_FRAC * profile.insertions
    }

    /// The allocated-entry estimate fed to Eq. 3 ([`AnalysisConfig::resize`]):
    /// the paper's `insertions − replacements` metric, clamped up to the
    /// full table when the profile shows the table thrashed (the counter
    /// difference is then a churn artifact, not a footprint).
    ///
    /// Measured note: the bfs/dfs `*_400000_*` graph profiles do *not*
    /// trip this clamp — their profiling tables never replace an entry
    /// (their sliced traversal keeps ~50 K live sources, a 96% table hit
    /// rate), so the un-clamped estimate is trustworthy there; the
    /// regression test in `crates/bench/tests/eq3_graphs.rs` pins both
    /// facts.
    pub fn footprint_estimate(&self, profile: &ProfileCounters) -> f64 {
        let naive = profile.allocated_entries();
        if self.profile_thrashed(profile) {
            naive.max(MAX_META_ENTRIES as f64)
        } else {
            naive
        }
    }
}

/// Rounds to the nearest power of two (0 stays 0; ties round up).
fn round_pow2(x: f64) -> f64 {
    if x < 1.0 {
        return 0.0;
    }
    let lo = 2f64.powf(x.log2().floor());
    let hi = lo * 2.0;
    if (x - lo) < (hi - x) {
        lo
    } else {
        hi
    }
}

/// Runs the Analysis step: profile counters → hint set.
///
/// PCs are ranked by their L2-miss contribution and only the top
/// [`HINT_BUFFER_ENTRIES`] receive hints (the hint buffer is finite); all
/// hinted PCs get the Eq. 1 insertion bit and the Eq. 2 priority level.
pub fn analyze(profile: &ProfileCounters, cfg: &AnalysisConfig) -> HintSet {
    let mut ranked: Vec<(u64, &crate::counters::PcProfile)> =
        profile.per_pc.iter().map(|(pc, p)| (*pc, p)).collect();
    ranked.sort_by(|a, b| {
        b.1.l2_misses
            .partial_cmp(&a.1.l2_misses)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });

    let pc_hints = ranked
        .into_iter()
        .take(HINT_BUFFER_ENTRIES)
        .map(|(pc, p)| {
            let hint = if p.issued < MIN_ISSUED {
                PcHint::DEFAULT
            } else {
                PcHint {
                    insert: cfg.insertion(p.accuracy),
                    priority: cfg.priority(p.accuracy),
                }
            };
            (pc, hint)
        })
        .collect();

    HintSet {
        pc_hints,
        csr: cfg.resize(cfg.footprint_estimate(profile)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::PcProfile;

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    #[test]
    fn eq1_threshold() {
        let c = cfg();
        assert!(!c.insertion(0.0));
        assert!(!c.insertion(0.1499));
        assert!(c.insertion(0.15));
        assert!(c.insertion(0.9));
    }

    #[test]
    fn eq2_priority_bands_n2() {
        let c = cfg(); // n = 2 → 4 levels at 0.25 boundaries
        assert_eq!(c.priority(0.0), 0);
        assert_eq!(c.priority(0.2), 0);
        assert_eq!(c.priority(0.25), 1);
        assert_eq!(c.priority(0.49), 1);
        assert_eq!(c.priority(0.5), 2);
        assert_eq!(c.priority(0.75), 3);
        assert_eq!(c.priority(1.0), 3, "top band clamps");
    }

    #[test]
    fn eq2_priority_bands_n3() {
        let c = AnalysisConfig {
            priority_bits: 3,
            ..cfg()
        };
        assert_eq!(c.priority(0.13), 1);
        assert_eq!(c.priority(0.99), 7);
    }

    #[test]
    fn eq3_resizing_rounds_and_caps() {
        let c = cfg(); // per way: LLC_SETS × 12 = 24,576 entries
                       // 100k entries → rounds to 131072 → 5.33 ways → ceil 6.
        let h = c.resize(100_000.0);
        assert!(h.enabled);
        assert_eq!(h.meta_ways, 6);
        // Tiny footprint → under half a way → disabled (sphinx3-style).
        let h = c.resize(2_000.0);
        assert!(!h.enabled);
        assert_eq!(h.meta_ways, 0);
        // Enormous footprint → capped at the 1 MB maximum (8 ways).
        let h = c.resize(10_000_000.0);
        assert!(h.enabled);
        assert_eq!(h.meta_ways, 8);
    }

    #[test]
    fn round_pow2_behaviour() {
        assert_eq!(round_pow2(0.0), 0.0);
        assert_eq!(round_pow2(1.0), 1.0);
        assert_eq!(round_pow2(3.0), 4.0);
        assert_eq!(round_pow2(5.0), 4.0);
        assert_eq!(round_pow2(6.1), 8.0);
        assert_eq!(round_pow2(48.0), 64.0);
    }

    fn profile_with(pcs: &[(u64, f64, f64, f64)]) -> ProfileCounters {
        ProfileCounters {
            per_pc: pcs
                .iter()
                .map(|&(pc, acc, issued, miss)| {
                    (
                        pc,
                        PcProfile {
                            accuracy: acc,
                            issued,
                            l2_misses: miss,
                        },
                    )
                })
                .collect(),
            insertions: 50_000.0,
            replacements: 0.0,
        }
    }

    #[test]
    fn analyze_filters_low_accuracy_pcs() {
        let p = profile_with(&[
            (1, 0.9, 100.0, 1000.0), // good temporal PC
            (2, 0.02, 100.0, 900.0), // noise PC → filtered
        ]);
        let hints = analyze(&p, &cfg());
        let h: std::collections::HashMap<u64, PcHint> = hints.pc_hints.into_iter().collect();
        assert!(h[&1].insert);
        assert_eq!(h[&1].priority, 3);
        assert!(!h[&2].insert);
    }

    #[test]
    fn analyze_ranks_by_misses_and_truncates() {
        let pcs: Vec<(u64, f64, f64, f64)> = (0..200u64)
            .map(|pc| (pc, 0.5, 100.0, 1000.0 - pc as f64))
            .collect();
        let hints = analyze(&profile_with(&pcs), &cfg());
        assert_eq!(hints.pc_hints.len(), HINT_BUFFER_ENTRIES);
        // The highest-miss PC (pc 0) must be first.
        assert_eq!(hints.pc_hints[0].0, 0);
    }

    #[test]
    fn analyze_untrusted_pcs_get_default() {
        let p = profile_with(&[(7, 0.0, 2.0, 500.0)]); // only 2 issues
        let hints = analyze(&p, &cfg());
        assert_eq!(hints.pc_hints[0].1, PcHint::DEFAULT);
    }

    #[test]
    fn analyze_sets_csr_from_footprint() {
        let p = profile_with(&[(1, 0.9, 100.0, 10.0)]);
        let hints = analyze(&p, &cfg());
        // 50k allocated → rounds to 65536 → 2.67 ways → 3 ways.
        assert!(hints.csr.enabled);
        assert_eq!(hints.csr.meta_ways, 3);
    }

    #[test]
    fn thrash_detection_threshold() {
        let c = cfg(); // default threshold: replacements ≥ 0.5 × insertions
        let mut p = profile_with(&[]);
        p.insertions = 100_000.0;
        p.replacements = 0.0;
        assert!(!c.profile_thrashed(&p), "no replacements → no thrash");
        p.replacements = 49_999.0;
        assert!(!c.profile_thrashed(&p), "below threshold");
        p.replacements = 50_000.0;
        assert!(c.profile_thrashed(&p), "at threshold");
        p.insertions = 0.0;
        p.replacements = 0.0;
        assert!(!c.profile_thrashed(&p), "empty profile never thrashes");
    }

    #[test]
    fn thrashing_profile_clamps_to_full_table() {
        // The ROADMAP failure mode: a churning table reports a tiny
        // insertions−replacements difference, so naive Eq. 3 picks 2 LLC
        // ways for a pattern that filled all 8. 300 K insertions with
        // 270 K replacements → naive 30 K entries → 2 ways; the thrash
        // clamp must size the full table instead.
        let c = cfg();
        let mut p = profile_with(&[(1, 0.9, 100.0, 1000.0)]);
        p.insertions = 300_000.0;
        p.replacements = 270_000.0;
        assert_eq!(c.resize(p.allocated_entries()).meta_ways, 2, "naive Eq. 3");
        assert_eq!(c.footprint_estimate(&p), MAX_META_ENTRIES as f64);
        let hints = analyze(&p, &c);
        assert!(hints.csr.enabled);
        assert_eq!(hints.csr.meta_ways, 8, "thrash clamp sizes every way");
    }

    #[test]
    fn non_thrashing_profile_keeps_naive_estimate() {
        let c = cfg();
        let mut p = profile_with(&[(1, 0.9, 100.0, 1000.0)]);
        p.insertions = 57_378.0; // a measured bfs_400000 profile: no
        p.replacements = 0.0; // replacements → the estimate stands
        assert_eq!(c.footprint_estimate(&p), 57_378.0);
        assert_eq!(analyze(&p, &c).csr.meta_ways, 3);
    }
}
