//! SPEC-CPU-like workload recipes.
//!
//! We do not have SPEC binaries or the authors' SimPoint traces, so each
//! evaluated workload is substituted by a synthetic mixture of pattern
//! primitives reproducing the memory behaviour the paper attributes to it
//! (see DESIGN.md §2 for the substitution argument):
//!
//! * **mcf** — a huge pointer-chase footprint plus heavy noise: the
//!   insertion policy's showcase (Fig. 19: +16.7% from `+Insert`).
//! * **omnetpp** — dominated by the interleaved useful/useless bursts of
//!   Figure 1, where Triangel's PatternConf misfires.
//! * **astar** (biglakes/rivers) — pointer chasing, bandwidth-sensitive
//!   (streaming component) and pollution-sensitive.
//! * **gcc** (nine inputs) — large LLC-resident hot set (pollution
//!   sensitivity) with moderate temporal patterns; inputs cluster into
//!   families sharing PCs, driving the Figure 13 learning study.
//! * **soplex** (pds-50/ref) — multi-target sequences: the MVB's showcase
//!   (Fig. 19: +13.5% for soplex).
//! * **sphinx3** — small metadata footprint (<1 MB): the resizing showcase.
//! * **xalancbmk** — large, clean temporal patterns: everyone wins, Prophet
//!   most.
//!
//! All recipes are deterministic (seeded). Trace lengths are scaled down
//! from the paper's 250 M + 50 M SimPoints to keep laptop-scale runtimes;
//! the *relative* behaviour of the schemes is what matters.

use crate::mix::MixSpec;
use crate::patterns::PatternSpec;

/// Instructions per workload trace (warm-up + measurement are chosen by the
/// harness; see `prophet-bench`).
pub const TRACE_INSTS: u64 = 900_000;

/// The seven primary SPEC-like workloads of Figures 10–12.
pub const SPEC_WORKLOADS: [&str; 7] = [
    "astar_biglakes",
    "gcc_166",
    "mcf",
    "omnetpp",
    "soplex_pds-50",
    "sphinx3",
    "xalancbmk",
];

/// The nine gcc inputs of Figure 13.
pub const GCC_INPUTS: [&str; 9] = [
    "gcc_166",
    "gcc_200",
    "gcc_cpdecl",
    "gcc_expr",
    "gcc_expr2",
    "gcc_g23",
    "gcc_s04",
    "gcc_scilab",
    "gcc_typeck",
];

/// Packs pattern regions into the 21-bit (LLC set + 10-bit tag) space so
/// distinct patterns never alias in the compressed metadata table. Random
/// noise regions deliberately stay outside (they alias everywhere, as real
/// unpatterned traffic does).
struct RegionAlloc {
    next: u64,
}

impl RegionAlloc {
    fn new() -> Self {
        RegionAlloc { next: 0x0100_0000 }
    }

    /// Reserves `span_lines` lines and returns the base line address.
    fn take(&mut self, span_lines: u64) -> u64 {
        let base = self.next;
        self.next += span_lines + 0x1000;
        assert!(
            self.next - 0x0100_0000 <= (1 << 21),
            "patterned regions exceed the alias-free 21-bit space"
        );
        base
    }

    /// Span of a `TemporalCycle`/`InterleavedBursts` with `lines` entries
    /// (shuffled over a 4x region).
    fn cycle_span(lines: usize) -> u64 {
        (lines as u64) * 4 + 64
    }

    /// Span of a `MultiTargetCycle` (alternate targets reach 8x).
    fn multi_span(lines: usize) -> u64 {
        (lines as u64) * 8 + 64
    }
}

/// Builds a workload by name.
///
/// # Panics
/// Panics on an unknown name; use [`SPEC_WORKLOADS`] / [`GCC_INPUTS`] /
/// `astar_rivers` / `soplex_ref`.
pub fn spec_workload(name: &str) -> MixSpec {
    match name {
        "mcf" => mcf(),
        "omnetpp" => omnetpp(),
        "astar_biglakes" => astar("astar_biglakes", 0xA5_7A_01, 24_000, 0.22),
        "astar_rivers" => astar("astar_rivers", 0xA5_7A_02, 17_000, 0.30),
        "soplex_pds-50" => soplex("soplex_pds-50", 0x50_01, 30_000, 2),
        "soplex_ref" => soplex("soplex_ref", 0x50_02, 20_000, 2),
        "sphinx3" => sphinx3(),
        "xalancbmk" => xalancbmk(),
        name if name.starts_with("gcc_") => gcc(name),
        other => panic!("unknown SPEC-like workload: {other}"),
    }
}

fn mcf() -> MixSpec {
    let mut ra = RegionAlloc::new();
    let chase = ra.take(RegionAlloc::cycle_span(25_000));
    let inter = ra.take(RegionAlloc::cycle_span(20_000) + 6_000);
    let multi = ra.take(RegionAlloc::multi_span(15_000));
    let stream = ra.take(30_000);
    MixSpec {
        name: "mcf".into(),
        seed: 0x3CF,
        total_insts: TRACE_INSTS,
        parts: vec![
            (
                0.24,
                PatternSpec::TemporalCycle {
                    pc: 0x1_00,
                    lines: 25_000,
                    base: chase,
                    dependent: true,
                    noise: 0.01,
                    pad: 2,
                },
            ),
            (
                0.22,
                PatternSpec::InterleavedBursts {
                    pc: 0x1_01,
                    lines: 20_000,
                    base: inter,
                    useful_run: 48,
                    churn_run: 16,
                    churn_pool: 6_000,
                    pad: 2,
                },
            ),
            (
                0.28,
                PatternSpec::RandomAccess {
                    pc: 0x1_02,
                    region: 1 << 22,
                    base: 0x0800_0000,
                    dependent: true,
                    pad: 2,
                },
            ),
            (
                0.12,
                PatternSpec::MultiTargetCycle {
                    pc: 0x1_03,
                    lines: 15_000,
                    base: multi,
                    branch_every: 2,
                    pad: 2,
                },
            ),
            (
                0.10,
                PatternSpec::Stream {
                    pc: 0x1_04,
                    lines: 30_000,
                    base: stream,
                    pad: 2,
                },
            ),
        ],
    }
}

fn omnetpp() -> MixSpec {
    let mut ra = RegionAlloc::new();
    let inter = ra.take(RegionAlloc::cycle_span(30_000) + 6_000);
    let chase = ra.take(RegionAlloc::cycle_span(20_000));
    let multi = ra.take(RegionAlloc::multi_span(15_000));
    let resident = ra.take(12_000);
    MixSpec {
        name: "omnetpp".into(),
        seed: 0x03E7,
        total_insts: TRACE_INSTS,
        parts: vec![
            (
                0.34,
                PatternSpec::InterleavedBursts {
                    pc: 0x2_00,
                    lines: 30_000,
                    base: inter,
                    useful_run: 40,
                    churn_run: 24,
                    churn_pool: 6_000,
                    pad: 2,
                },
            ),
            (
                0.20,
                PatternSpec::TemporalCycle {
                    pc: 0x2_01,
                    lines: 20_000,
                    base: chase,
                    dependent: true,
                    noise: 0.05,
                    pad: 2,
                },
            ),
            (
                0.15,
                PatternSpec::MultiTargetCycle {
                    pc: 0x2_02,
                    lines: 15_000,
                    base: multi,
                    branch_every: 2,
                    pad: 2,
                },
            ),
            (
                0.15,
                PatternSpec::LlcResident {
                    pc: 0x2_03,
                    lines: 12_000,
                    base: resident,
                    pad: 2,
                },
            ),
            (
                0.18,
                PatternSpec::RandomAccess {
                    pc: 0x2_04,
                    region: 1 << 23,
                    base: 0x0800_0000,
                    dependent: true,
                    pad: 2,
                },
            ),
        ],
    }
}

fn astar(name: &str, seed: u64, chase_lines: usize, stream_weight: f64) -> MixSpec {
    let mut ra = RegionAlloc::new();
    let chase = ra.take(RegionAlloc::cycle_span(chase_lines));
    let multi = ra.take(RegionAlloc::multi_span(12_000));
    let stream = ra.take(30_000);
    let resident = ra.take(16_000);
    MixSpec {
        name: name.into(),
        seed,
        total_insts: TRACE_INSTS,
        parts: vec![
            (
                0.16,
                PatternSpec::TemporalCycle {
                    pc: 0x3_00,
                    lines: chase_lines,
                    base: chase,
                    dependent: true,
                    noise: 0.02,
                    pad: 2,
                },
            ),
            (
                0.10,
                PatternSpec::MultiTargetCycle {
                    pc: 0x3_01,
                    lines: 12_000,
                    base: multi,
                    branch_every: 2,
                    pad: 2,
                },
            ),
            (
                stream_weight,
                PatternSpec::Stream {
                    pc: 0x3_02,
                    lines: 30_000,
                    base: stream,
                    pad: 2,
                },
            ),
            (
                0.38,
                PatternSpec::LlcResident {
                    pc: 0x3_03,
                    lines: 16_000,
                    base: resident,
                    pad: 2,
                },
            ),
            (
                0.12,
                PatternSpec::RandomAccess {
                    pc: 0x3_04,
                    region: 1 << 23,
                    base: 0x0800_0000,
                    dependent: true,
                    pad: 2,
                },
            ),
        ],
    }
}

/// gcc input families: inputs in the same family share the behaviour of
/// their family-specific PCs (the Load B/C scenario of Figure 7), and the
/// shared "Load E" PC behaves differently across families.
fn gcc_family(input: &str) -> (usize, u64) {
    // (family id, per-input seed)
    match input {
        "gcc_166" => (0, 0x06_CC_01),
        "gcc_200" => (1, 0x06_CC_02),
        "gcc_expr" => (1, 0x06_CC_04),
        "gcc_expr2" => (1, 0x06_CC_05),
        "gcc_cpdecl" => (1, 0x06_CC_03),
        "gcc_typeck" => (2, 0x06_CC_09),
        "gcc_s04" => (2, 0x06_CC_07),
        "gcc_scilab" => (2, 0x06_CC_08),
        "gcc_g23" => (0, 0x06_CC_06),
        other => panic!("unknown gcc input: {other}"),
    }
}

fn gcc(input: &str) -> MixSpec {
    let (family, seed) = gcc_family(input);
    let mut ra = RegionAlloc::new();
    let resident = ra.take(24_000);
    let shared_base = ra.take(RegionAlloc::cycle_span(14_000));
    // Family regions are allocated for all three families so each gets a
    // stable, non-aliasing slot regardless of which input runs.
    let family_bases: Vec<u64> = (0..3)
        .map(|f| ra.take(RegionAlloc::cycle_span(10_000 + 2_000 * f)))
        .collect();
    let load_e_base = ra.take(RegionAlloc::cycle_span(8_000));
    let stream = ra.take(25_000);
    // "Load A": shared across all inputs, identical behaviour. An
    // index-walked (not pointer-chased) structure: the baseline already
    // overlaps its misses, so temporal prefetching gains less here — gcc is
    // the least temporal-bound of the suite.
    let shared_cycle = PatternSpec::TemporalCycle {
        pc: 0x4_00,
        lines: 14_000,
        base: shared_base,
        dependent: false,
        noise: 0.04,
        pad: 2,
    };
    // "Load B/C": family-specific PC and region.
    let family_cycle = PatternSpec::TemporalCycle {
        pc: 0x4_10 + family as u64,
        lines: 10_000 + 2_000 * family,
        base: family_bases[family],
        dependent: true,
        noise: 0.03,
        pad: 2,
    };
    // "Load E": same PC everywhere, but noisy (useless) in family 2 —
    // hints learned elsewhere are wrong here until re-learned.
    let load_e_noise = if family == 2 { 0.85 } else { 0.03 };
    let load_e = PatternSpec::TemporalCycle {
        pc: 0x4_20,
        lines: 8_000,
        base: load_e_base,
        dependent: false,
        noise: load_e_noise,
        pad: 2,
    };
    MixSpec {
        name: input.into(),
        seed,
        total_insts: TRACE_INSTS,
        parts: vec![
            (
                0.40,
                PatternSpec::LlcResident {
                    pc: 0x4_01,
                    lines: 24_000,
                    base: resident,
                    pad: 2,
                },
            ),
            (0.16, shared_cycle),
            (0.12, family_cycle),
            (0.08, load_e),
            (
                0.16,
                PatternSpec::Stream {
                    pc: 0x4_02,
                    lines: 25_000,
                    base: stream,
                    pad: 2,
                },
            ),
            (
                0.08,
                PatternSpec::RandomAccess {
                    pc: 0x4_03,
                    region: 1 << 23,
                    base: 0x0800_0000,
                    dependent: true,
                    pad: 2,
                },
            ),
        ],
    }
}

fn soplex(name: &str, seed: u64, multi_lines: usize, branch_every: usize) -> MixSpec {
    let mut ra = RegionAlloc::new();
    let multi = ra.take(RegionAlloc::multi_span(multi_lines));
    let chase = ra.take(RegionAlloc::cycle_span(20_000));
    let inter = ra.take(RegionAlloc::cycle_span(12_000) + 6_000);
    let stream = ra.take(25_000);
    let resident = ra.take(8_000);
    MixSpec {
        name: name.into(),
        seed,
        total_insts: TRACE_INSTS,
        parts: vec![
            (
                0.22,
                PatternSpec::MultiTargetCycle {
                    pc: 0x5_00,
                    lines: multi_lines,
                    base: multi,
                    branch_every,
                    pad: 2,
                },
            ),
            (
                0.20,
                PatternSpec::TemporalCycle {
                    pc: 0x5_01,
                    lines: 20_000,
                    base: chase,
                    dependent: true,
                    noise: 0.03,
                    pad: 2,
                },
            ),
            (
                0.15,
                PatternSpec::InterleavedBursts {
                    pc: 0x5_02,
                    lines: 12_000,
                    base: inter,
                    useful_run: 36,
                    churn_run: 18,
                    churn_pool: 6_000,
                    pad: 2,
                },
            ),
            (
                0.15,
                PatternSpec::Stream {
                    pc: 0x5_03,
                    lines: 25_000,
                    base: stream,
                    pad: 2,
                },
            ),
            (
                0.10,
                PatternSpec::LlcResident {
                    pc: 0x5_04,
                    lines: 8_000,
                    base: resident,
                    pad: 2,
                },
            ),
            (
                0.18,
                PatternSpec::RandomAccess {
                    pc: 0x5_05,
                    region: 1 << 22,
                    base: 0x0800_0000,
                    dependent: true,
                    pad: 2,
                },
            ),
        ],
    }
}

fn sphinx3() -> MixSpec {
    let mut ra = RegionAlloc::new();
    let chase = ra.take(RegionAlloc::cycle_span(16_000));
    let resident = ra.take(16_000);
    let stream = ra.take(20_000);
    MixSpec {
        name: "sphinx3".into(),
        seed: 0x5F1,
        total_insts: TRACE_INSTS,
        parts: vec![
            (
                0.16,
                PatternSpec::TemporalCycle {
                    pc: 0x6_00,
                    lines: 16_000,
                    base: chase,
                    dependent: true,
                    noise: 0.02,
                    pad: 2,
                },
            ),
            (
                0.42,
                PatternSpec::LlcResident {
                    pc: 0x6_01,
                    lines: 16_000,
                    base: resident,
                    pad: 2,
                },
            ),
            (
                0.32,
                PatternSpec::Stream {
                    pc: 0x6_02,
                    lines: 20_000,
                    base: stream,
                    pad: 2,
                },
            ),
            (
                0.10,
                PatternSpec::RandomAccess {
                    pc: 0x6_03,
                    region: 1 << 20,
                    base: 0x0800_0000,
                    dependent: true,
                    pad: 2,
                },
            ),
        ],
    }
}

fn xalancbmk() -> MixSpec {
    let mut ra = RegionAlloc::new();
    let chase = ra.take(RegionAlloc::cycle_span(32_000));
    let walk = ra.take(RegionAlloc::cycle_span(16_000));
    let multi = ra.take(RegionAlloc::multi_span(12_000));
    let stream = ra.take(25_000);
    let resident = ra.take(8_000);
    MixSpec {
        name: "xalancbmk".into(),
        seed: 0xA1A,
        total_insts: TRACE_INSTS,
        parts: vec![
            (
                0.22,
                PatternSpec::TemporalCycle {
                    pc: 0x7_00,
                    lines: 32_000,
                    base: chase,
                    dependent: true,
                    noise: 0.01,
                    pad: 2,
                },
            ),
            (
                0.15,
                PatternSpec::TemporalCycle {
                    pc: 0x7_01,
                    lines: 16_000,
                    base: walk,
                    dependent: false,
                    noise: 0.02,
                    pad: 2,
                },
            ),
            (
                0.10,
                PatternSpec::MultiTargetCycle {
                    pc: 0x7_02,
                    lines: 12_000,
                    base: multi,
                    branch_every: 2,
                    pad: 2,
                },
            ),
            (
                0.20,
                PatternSpec::Stream {
                    pc: 0x7_03,
                    lines: 25_000,
                    base: stream,
                    pad: 2,
                },
            ),
            (
                0.08,
                PatternSpec::LlcResident {
                    pc: 0x7_04,
                    lines: 8_000,
                    base: resident,
                    pad: 2,
                },
            ),
            (
                0.20,
                PatternSpec::RandomAccess {
                    pc: 0x7_05,
                    region: 1 << 23,
                    base: 0x0800_0000,
                    dependent: true,
                    pad: 2,
                },
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_sim_core::TraceSource;

    #[test]
    fn all_named_workloads_build() {
        for name in SPEC_WORKLOADS {
            let w = spec_workload(name);
            assert_eq!(w.name(), name);
            assert_eq!(w.build().len() as u64, TRACE_INSTS);
        }
        for name in ["astar_rivers", "soplex_ref"] {
            assert_eq!(spec_workload(name).build().len() as u64, TRACE_INSTS);
        }
    }

    #[test]
    fn all_gcc_inputs_build_and_differ() {
        let traces: Vec<Vec<_>> = GCC_INPUTS
            .iter()
            .map(|n| spec_workload(n).build())
            .collect();
        for (i, a) in traces.iter().enumerate() {
            for b in traces.iter().skip(i + 1) {
                assert_ne!(a, b, "gcc inputs must be distinct traces");
            }
        }
    }

    #[test]
    fn gcc_families_share_and_split_pcs() {
        let t166 = spec_workload("gcc_166").build();
        let texpr = spec_workload("gcc_expr").build();
        let pcs = |t: &Vec<prophet_sim_core::TraceInst>| {
            let mut v: Vec<u64> = t.iter().map(|i| i.pc.0).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let p166 = pcs(&t166);
        let pexpr = pcs(&texpr);
        // The shared Load A PC is present in both.
        assert!(p166.contains(&0x4_00) && pexpr.contains(&0x4_00));
        // Family PCs differ (166 is family 0, expr family 1).
        assert!(p166.contains(&0x4_10) && !p166.contains(&0x4_11));
        assert!(pexpr.contains(&0x4_11) && !pexpr.contains(&0x4_10));
        // Load E is shared.
        assert!(p166.contains(&0x4_20) && pexpr.contains(&0x4_20));
    }

    #[test]
    #[should_panic(expected = "unknown SPEC-like workload")]
    fn unknown_workload_panics() {
        let _ = spec_workload("nonexistent");
    }

    #[test]
    fn workloads_use_31_bit_lines() {
        for name in SPEC_WORKLOADS {
            for inst in spec_workload(name).build() {
                if let Some(op) = inst.op {
                    assert!(
                        op.addr().line().0 < (1 << 31),
                        "{name}: line exceeds compressed metadata format"
                    );
                }
            }
        }
    }
}
