//! Memory-access pattern primitives.
//!
//! Each SPEC/CRONO workload the paper evaluates is, from the prefetcher's
//! point of view, a *mixture of per-PC access behaviours*: clean temporal
//! cycles (pointer-chasing data structures revisited in stable order),
//! interleaved useful/useless bursts (the Figure 1 omnetpp pathology),
//! multi-target sequences (Figure 8), streaming scans, LLC-resident hot
//! sets, and plain noise. These primitives generate exactly those
//! behaviours; `spec.rs` composes them into named workload recipes.
//!
//! Every primitive emits [`ProtoInst`]s in small bursts; the mixer
//! (`mix.rs`) interleaves bursts from all components and resolves the
//! address dependencies into trace-level `dep_back` distances.

use prophet_sim_core::trace::MemOp;
use prophet_sim_mem::addr::{Addr, Pc};
use rand::rngs::StdRng;
use rand::Rng;

/// One proto-instruction emitted by a pattern; the mixer turns the
/// `depends_on_prev_load` flag into a concrete `dep_back` distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoInst {
    pub pc: Pc,
    pub op: Option<MemOp>,
    /// When true, this instruction's address was produced by the *previous
    /// load of the same pattern* (pointer chasing / indirect indexing).
    pub depends_on_prev_load: bool,
}

impl ProtoInst {
    fn alu(pc: Pc) -> Self {
        ProtoInst {
            pc,
            op: None,
            depends_on_prev_load: false,
        }
    }

    fn load(pc: Pc, line: u64, dep: bool) -> Self {
        ProtoInst {
            pc,
            op: Some(MemOp::Load(Addr(line * 64))),
            depends_on_prev_load: dep,
        }
    }
}

/// Declarative description of one pattern component. All `base`/footprint
/// values are in cache lines; generators keep every line below 2³¹ so the
/// compressed 31-bit metadata target format stays exact.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternSpec {
    /// A fixed pseudo-random cycle of `lines` distinct lines visited
    /// repeatedly in the same order — the canonical solvable temporal
    /// pattern (linked structure traversed identically every round).
    ///
    /// * `dependent` — pointer-chase (each load's address comes from the
    ///   previous one) vs. index-walked.
    /// * `noise` — probability of a random detour access (lowers the PC's
    ///   prefetching accuracy without destroying the pattern).
    /// * `pad` — ALU instructions between loads.
    TemporalCycle {
        pc: u64,
        lines: usize,
        base: u64,
        dependent: bool,
        noise: f64,
        pad: usize,
    },
    /// Uniform random lines in `[base, base + region)`: no temporal pattern
    /// at all; profiling accuracy ≈ 0 (the PC Prophet's Eq. 1 filters).
    /// With `dependent`, each access is a step of a cold pointer chase
    /// (serialized, unprefetchable — what bounds temporal speedups on mcf).
    RandomAccess {
        pc: u64,
        region: u64,
        base: u64,
        dependent: bool,
        pad: usize,
    },
    /// The Figure 1 pathology: alternating segments from one PC — a
    /// `useful_run`-long stretch of a clean cycle (blue dots), then a
    /// `churn_run`-long stretch revisiting a small pool in ever-changing
    /// stride order (red dots). Overall accuracy is moderate, but any
    /// short-term confidence estimator collapses during the churn.
    InterleavedBursts {
        pc: u64,
        lines: usize,
        base: u64,
        useful_run: usize,
        churn_run: usize,
        churn_pool: usize,
        pad: usize,
    },
    /// A cycle where every `branch_every`-th element alternates between two
    /// successors on successive rounds — addresses with 2 Markov targets
    /// (the (A,B,C)/(A,B,D) case of Section 4.5 the MVB recovers).
    MultiTargetCycle {
        pc: u64,
        lines: usize,
        base: u64,
        branch_every: usize,
        pad: usize,
    },
    /// A sequential streaming scan (covered by the L1 stride prefetcher).
    Stream {
        pc: u64,
        lines: u64,
        base: u64,
        pad: usize,
    },
    /// A hot set sized to live in the LLC: reused heavily, so stealing LLC
    /// ways for metadata hurts this component (the cache-pollution
    /// sensitivity of gcc/sphinx3).
    LlcResident {
        pc: u64,
        lines: usize,
        base: u64,
        pad: usize,
    },
}

impl PatternSpec {
    /// Instantiates runtime state for this component.
    pub fn instantiate(&self, rng: &mut StdRng) -> PatternState {
        PatternState::new(self.clone(), rng)
    }
}

/// Runtime state of one pattern component.
#[derive(Debug, Clone)]
pub struct PatternState {
    spec: PatternSpec,
    /// Shuffled cycle contents, where applicable.
    cycle: Vec<u64>,
    /// Alternate successors for `MultiTargetCycle`.
    alt: Vec<u64>,
    pos: usize,
    round: u64,
    /// Churn-segment bookkeeping for `InterleavedBursts`.
    in_churn: bool,
    seg_left: usize,
}

/// splitmix64 — weaker mixes leave arithmetic structure in the low bits,
/// which skews cache/metadata set indexing badly.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn shuffled_lines(rng: &mut StdRng, base: u64, count: usize, span_mult: u64) -> Vec<u64> {
    // Distinct lines spread over a region `span_mult`× the count, shuffled
    // once: a stable pseudo-random traversal order. The per-line jitter must
    // be well mixed so the lines cover cache sets uniformly.
    let span = (count as u64) * span_mult;
    let mut v: Vec<u64> = (0..count as u64)
        .map(|i| base + (i * span_mult + splitmix64(i) % span_mult.max(1)) % span)
        .collect();
    v.sort_unstable();
    v.dedup();
    // Fisher-Yates.
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

impl PatternState {
    fn new(spec: PatternSpec, rng: &mut StdRng) -> Self {
        let mut st = PatternState {
            cycle: Vec::new(),
            alt: Vec::new(),
            pos: 0,
            round: 0,
            in_churn: false,
            seg_left: 0,
            spec,
        };
        match &st.spec {
            PatternSpec::TemporalCycle { lines, base, .. } => {
                st.cycle = shuffled_lines(rng, *base, *lines, 4);
            }
            PatternSpec::InterleavedBursts {
                lines,
                base,
                useful_run,
                ..
            } => {
                st.cycle = shuffled_lines(rng, *base, *lines, 4);
                st.seg_left = *useful_run;
            }
            PatternSpec::MultiTargetCycle { lines, base, .. } => {
                st.cycle = shuffled_lines(rng, *base, *lines, 4);
                let n = st.cycle.len() as u64;
                st.alt = st
                    .cycle
                    .iter()
                    .map(|&l| base + ((l - base) + n * 5 + 13) % (n * 8))
                    .collect();
            }
            _ => {}
        }
        st
    }

    /// The PCs this component issues memory accesses from.
    pub fn pcs(&self) -> Vec<u64> {
        match &self.spec {
            PatternSpec::TemporalCycle { pc, .. }
            | PatternSpec::RandomAccess { pc, .. }
            | PatternSpec::InterleavedBursts { pc, .. }
            | PatternSpec::MultiTargetCycle { pc, .. }
            | PatternSpec::Stream { pc, .. }
            | PatternSpec::LlcResident { pc, .. } => vec![*pc],
        }
    }

    /// Emits one burst of proto-instructions.
    pub fn burst(&mut self, out: &mut Vec<ProtoInst>, rng: &mut StdRng) {
        match self.spec.clone() {
            PatternSpec::TemporalCycle {
                pc,
                base,
                dependent,
                noise,
                pad,
                lines,
            } => {
                let pc = Pc(pc);
                let n = self.cycle.len();
                if noise > 0.0 && rng.gen_bool(noise) {
                    // Random detour: same PC, unpatterned line.
                    let l = base + rng.gen_range(0..(lines as u64) * 16);
                    out.push(ProtoInst::load(pc, l, false));
                } else {
                    let l = self.cycle[self.pos % n];
                    self.pos += 1;
                    out.push(ProtoInst::load(pc, l, dependent));
                }
                for _ in 0..pad {
                    out.push(ProtoInst::alu(pc));
                }
            }
            PatternSpec::RandomAccess {
                pc,
                region,
                base,
                dependent,
                pad,
            } => {
                let pc = Pc(pc);
                let l = base + rng.gen_range(0..region);
                out.push(ProtoInst::load(pc, l, dependent));
                for _ in 0..pad {
                    out.push(ProtoInst::alu(pc));
                }
            }
            PatternSpec::InterleavedBursts {
                pc,
                base,
                useful_run,
                churn_run,
                churn_pool,
                pad,
                ..
            } => {
                let pc = Pc(pc);
                if self.seg_left == 0 {
                    self.in_churn = !self.in_churn;
                    self.seg_left = if self.in_churn { churn_run } else { useful_run };
                }
                self.seg_left -= 1;
                let l = if self.in_churn {
                    // Revisit a small pool with a stride permutation that
                    // rotates every pool revolution: correlations exist but
                    // their targets keep mismatching (sustained red dots).
                    let steps = [1usize, 3, 7, 9];
                    self.round += 1;
                    let step = steps[(self.round as usize / churn_pool.max(1)) % steps.len()];
                    let k = self.round as usize % churn_pool;
                    base + ((k * step) % churn_pool) as u64
                } else {
                    let n = self.cycle.len();
                    let l = self.cycle[self.pos % n];
                    self.pos += 1;
                    l + churn_pool as u64 // keep churn pool and cycle disjoint
                };
                out.push(ProtoInst::load(pc, l, true));
                for _ in 0..pad {
                    out.push(ProtoInst::alu(pc));
                }
            }
            PatternSpec::MultiTargetCycle {
                pc,
                branch_every,
                pad,
                ..
            } => {
                let pc = Pc(pc);
                let n = self.cycle.len();
                let idx = self.pos % n;
                if idx == 0 {
                    self.round += 1;
                }
                self.pos += 1;
                // On odd rounds, branch positions take the alternate path:
                // the predecessor's successor differs between rounds.
                let l = if idx % branch_every == 0 && self.round % 2 == 1 {
                    self.alt[idx]
                } else {
                    self.cycle[idx]
                };
                out.push(ProtoInst::load(pc, l, true));
                for _ in 0..pad {
                    out.push(ProtoInst::alu(pc));
                }
            }
            PatternSpec::Stream {
                pc,
                lines,
                base,
                pad,
            } => {
                let pc = Pc(pc);
                let l = base + (self.pos as u64) % lines;
                self.pos += 1;
                out.push(ProtoInst::load(pc, l, false));
                for _ in 0..pad {
                    out.push(ProtoInst::alu(pc));
                }
            }
            PatternSpec::LlcResident {
                pc,
                lines,
                base,
                pad,
            } => {
                let pc = Pc(pc);
                // A sequential wrap-around scan of a hot set sized for the
                // LLC: the L1 stride prefetcher keeps it flowing as long as
                // the data actually fits in the cache, so stealing LLC ways
                // for metadata directly costs this component performance.
                let l = base + (self.pos as u64) % (lines as u64);
                self.pos += 1;
                out.push(ProtoInst::load(pc, l, false));
                for _ in 0..pad {
                    out.push(ProtoInst::alu(pc));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn collect_lines(spec: PatternSpec, bursts: usize) -> Vec<u64> {
        let mut r = rng();
        let mut st = spec.instantiate(&mut r);
        let mut out = Vec::new();
        for _ in 0..bursts {
            st.burst(&mut out, &mut r);
        }
        out.iter()
            .filter_map(|p| p.op.map(|op| op.addr().line().0))
            .collect()
    }

    #[test]
    fn temporal_cycle_repeats_exactly() {
        let spec = PatternSpec::TemporalCycle {
            pc: 1,
            lines: 50,
            base: 1000,
            dependent: false,
            noise: 0.0,
            pad: 0,
        };
        let lines = collect_lines(spec, 150);
        assert_eq!(&lines[0..50], &lines[50..100], "cycle must repeat");
        assert_eq!(&lines[50..100], &lines[100..150]);
        let mut uniq = lines[0..50].to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 50, "cycle lines are distinct");
    }

    #[test]
    fn temporal_cycle_dependent_sets_flag() {
        let mut r = rng();
        let mut st = PatternSpec::TemporalCycle {
            pc: 1,
            lines: 10,
            base: 0,
            dependent: true,
            noise: 0.0,
            pad: 1,
        }
        .instantiate(&mut r);
        let mut out = Vec::new();
        st.burst(&mut out, &mut r);
        assert!(out[0].depends_on_prev_load);
        assert!(out[1].op.is_none(), "pad instruction follows");
    }

    #[test]
    fn noise_injects_detours() {
        let spec = PatternSpec::TemporalCycle {
            pc: 1,
            lines: 50,
            base: 0,
            dependent: false,
            noise: 0.5,
            pad: 0,
        };
        let lines = collect_lines(spec, 400);
        // With 50% noise, two consecutive "rounds" differ.
        assert_ne!(&lines[0..50], &lines[50..100]);
    }

    #[test]
    fn random_access_has_no_repeating_round() {
        let spec = PatternSpec::RandomAccess {
            pc: 1,
            region: 1 << 20,
            base: 0,
            dependent: false,
            pad: 0,
        };
        let lines = collect_lines(spec, 100);
        let mut uniq = lines.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 95, "collisions should be rare");
    }

    #[test]
    fn interleaved_bursts_alternate_segments() {
        let spec = PatternSpec::InterleavedBursts {
            pc: 1,
            lines: 100,
            base: 10_000,
            useful_run: 20,
            churn_run: 10,
            churn_pool: 8,
            pad: 0,
        };
        let lines = collect_lines(spec, 120);
        // Churn accesses live in [base, base+pool); useful ones above.
        let churn_count = lines.iter().filter(|&&l| l < 10_000 + 8).count();
        assert!(churn_count >= 30, "churn segments present: {churn_count}");
        assert!(churn_count <= 50, "useful segments dominate: {churn_count}");
    }

    #[test]
    fn multi_target_cycle_branches_by_round() {
        let spec = PatternSpec::MultiTargetCycle {
            pc: 1,
            lines: 30,
            base: 0,
            branch_every: 3,
            pad: 0,
        };
        let lines = collect_lines(spec, 90);
        let r0 = &lines[0..30];
        let r1 = &lines[30..60];
        let r2 = &lines[60..90];
        assert_ne!(r0, r1, "odd round takes alternate branches");
        assert_eq!(r0, r2, "even rounds repeat the base path");
    }

    #[test]
    fn stream_is_sequential() {
        let spec = PatternSpec::Stream {
            pc: 1,
            lines: 1000,
            base: 77,
            pad: 0,
        };
        let lines = collect_lines(spec, 10);
        assert_eq!(lines, (77..87).collect::<Vec<u64>>());
    }

    #[test]
    fn llc_resident_scans_hot_set_sequentially() {
        let spec = PatternSpec::LlcResident {
            pc: 1,
            lines: 256,
            base: 5_000,
            pad: 0,
        };
        let lines = collect_lines(spec, 500);
        assert!(lines.iter().all(|&l| (5_000..5_256).contains(&l)));
        assert_eq!(lines[0], 5_000);
        assert_eq!(lines[1], 5_001);
        assert_eq!(lines[256], 5_000, "scan wraps around");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let spec = PatternSpec::TemporalCycle {
            pc: 1,
            lines: 64,
            base: 0,
            dependent: true,
            noise: 0.1,
            pad: 2,
        };
        assert_eq!(
            collect_lines(spec.clone(), 200),
            collect_lines(spec, 200),
            "same seed must reproduce the same trace"
        );
    }
}
