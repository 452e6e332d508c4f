//! Step 3: Learning across program inputs (Section 4.3).
//!
//! [`LearnedProfile`] carries the merged counters and the loop count `l`;
//! every Analysis step counts as one loop, and merges use Eq. 4 (fractional
//! pull toward newly observed values, step `1/min(l+1, L)`) and Eq. 5 (max
//! of allocated entries). One optimized binary therefore converges to hints
//! that serve *all* encountered inputs — the property Figures 13 and 14
//! demonstrate.

use crate::analysis::{analyze, AnalysisConfig};
use crate::counters::ProfileCounters;
use crate::hints::HintSet;

/// Designer parameter `L`: the cap on the merge denominator of Eq. 4.
pub const DEFAULT_LOOP_CAP: u32 = 4;

/// The persistent, input-spanning profile state of an optimized binary.
#[derive(Debug, Clone, Default)]
pub struct LearnedProfile {
    counters: Option<ProfileCounters>,
    loops: u32,
}

impl LearnedProfile {
    /// Fresh state: no input learned yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of completed Prophet loops.
    pub fn loops(&self) -> u32 {
        self.loops
    }

    /// Whether any input has been learned yet.
    pub fn is_trained(&self) -> bool {
        self.counters.is_some()
    }

    /// The merged counters (None before the first input).
    pub fn counters(&self) -> Option<&ProfileCounters> {
        self.counters.as_ref()
    }

    /// Absorbs a new input's profile: the first input initializes the state
    /// (Step 1), later inputs merge with Eq. 4/5 (Step 3). Each call counts
    /// as one Prophet loop.
    pub fn learn(&mut self, new: ProfileCounters) {
        match &mut self.counters {
            None => self.counters = Some(new),
            Some(old) => old.merge(&new, self.loops, DEFAULT_LOOP_CAP),
        }
        self.loops += 1;
    }

    /// Runs the Analysis step on the merged counters, producing the hints
    /// for the (re-)optimized binary.
    ///
    /// # Panics
    /// Panics if no input has been learned yet.
    pub fn build_hints(&self, cfg: &AnalysisConfig) -> HintSet {
        let counters = self
            .counters
            .as_ref()
            .expect("cannot analyze before learning any input");
        analyze(counters, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::PcProfile;

    fn profile(pcs: &[(u64, f64)]) -> ProfileCounters {
        ProfileCounters {
            per_pc: pcs
                .iter()
                .map(|&(pc, acc)| {
                    (
                        pc,
                        PcProfile {
                            accuracy: acc,
                            issued: 1000.0,
                            l2_misses: 1000.0,
                        },
                    )
                })
                .collect(),
            insertions: 100_000.0,
            replacements: 0.0,
        }
    }

    #[test]
    fn first_input_initializes() {
        let mut lp = LearnedProfile::new();
        assert!(!lp.is_trained());
        lp.learn(profile(&[(1, 0.9)]));
        assert!(lp.is_trained());
        assert_eq!(lp.loops(), 1);
        assert_eq!(lp.counters().unwrap().per_pc[&1].accuracy, 0.9);
    }

    #[test]
    fn later_inputs_merge_not_replace() {
        let mut lp = LearnedProfile::new();
        lp.learn(profile(&[(1, 0.9)]));
        lp.learn(profile(&[(1, 0.1), (2, 0.7)]));
        let c = lp.counters().unwrap();
        let a = c.per_pc[&1].accuracy;
        assert!(a < 0.9 && a > 0.1, "merged toward, not replaced: {a}");
        assert_eq!(c.per_pc[&2].accuracy, 0.7, "new PC adopted directly");
    }

    #[test]
    fn hints_stabilize_for_agreeing_inputs() {
        // Two inputs that agree on PC 1 → the hint never changes (Load A of
        // Figure 7).
        let cfg = AnalysisConfig::default();
        let mut lp = LearnedProfile::new();
        lp.learn(profile(&[(1, 0.8)]));
        let h1 = lp.build_hints(&cfg);
        lp.learn(profile(&[(1, 0.78)]));
        let h2 = lp.build_hints(&cfg);
        let find =
            |h: &crate::hints::HintSet| h.pc_hints.iter().find(|(pc, _)| *pc == 1).unwrap().1;
        assert_eq!(find(&h1), find(&h2));
    }

    #[test]
    fn repeated_learning_converges_to_dominant_input() {
        let cfg = AnalysisConfig::default();
        let mut lp = LearnedProfile::new();
        lp.learn(profile(&[(1, 0.05)])); // initially filtered
        assert!(!lp.build_hints(&cfg).pc_hints[0].1.insert);
        for _ in 0..6 {
            lp.learn(profile(&[(1, 0.9)]));
        }
        assert!(
            lp.build_hints(&cfg).pc_hints[0].1.insert,
            "frequently observed high accuracy must win"
        );
    }

    #[test]
    fn default_learns_like_new() {
        let inputs = [
            profile(&[(1, 0.9)]),
            profile(&[(1, 0.1), (2, 0.7)]),
            profile(&[(1, 0.5), (2, 0.2)]),
        ];
        let mut a = LearnedProfile::new();
        let mut b = LearnedProfile::default();
        for p in inputs {
            a.learn(p.clone());
            b.learn(p);
        }
        assert_eq!(a.loops(), b.loops());
        assert_eq!(
            a.counters().unwrap(),
            b.counters().unwrap(),
            "default() must merge with the same loop cap L as new()"
        );
    }

    #[test]
    #[should_panic(expected = "before learning")]
    fn hints_require_training() {
        let lp = LearnedProfile::new();
        let _ = lp.build_hints(&AnalysisConfig::default());
    }
}
