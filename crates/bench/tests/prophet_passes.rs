//! Prophet's loop through the harness: `Harness::profile` (Step 1), the
//! analysis of its counters (Step 2) and `Harness::optimized` compose to
//! exactly the `Scheme::Prophet` cell every matrix runs.

use prophet::{analyze, AnalysisConfig, HintSet, LearnedProfile, ProfileCounters, ProphetConfig};
use prophet_bench::{Harness, L1Scheme, Scheme};
use prophet_sim_core::{TraceInst, VecTrace};
use prophet_sim_mem::{Addr, Pc};
use prophet_workloads::workload_sized;

fn harness(warmup: u64, measure: u64) -> Harness {
    Harness {
        warmup,
        measure,
        ..Harness::default()
    }
}

/// A pointer-chase-like temporal workload: a fixed pseudo-random cycle
/// of lines visited repeatedly, each load dependent on the previous.
fn temporal_workload(cycle_len: usize, rounds: usize, seed: u64) -> VecTrace {
    let mut lines: Vec<u64> = (0..cycle_len as u64)
        .map(|i| (seed + i * 2654435761) % (1 << 24))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    let mut insts = Vec::new();
    let mut first = true;
    for _ in 0..rounds {
        for &l in &lines {
            if first {
                insts.push(TraceInst::load(Pc(0x40), Addr(l * 64)));
                first = false;
            } else {
                insts.push(TraceInst::load_dep(Pc(0x40), Addr(l * 64), 1));
            }
        }
    }
    VecTrace::new("chase", insts)
}

/// Steps 1 and 2 on one input.
fn hints(h: &Harness, w: &VecTrace) -> HintSet {
    let mut learned = LearnedProfile::new();
    learned.learn(ProfileCounters::from_report(&h.profile(w)));
    learned.build_hints(&AnalysisConfig::default())
}

#[test]
fn pipeline_learns_and_optimizes() {
    let h = harness(60_000, 200_000);
    // Footprint must exceed the on-chip hierarchy to exercise temporal
    // prefetching (~60k lines ≈ 3.8 MB > 2 MB LLC).
    let w = temporal_workload(60_000, 5, 7);
    let mut learned = LearnedProfile::new();
    assert!(!learned.is_trained());
    learned.learn(ProfileCounters::from_report(&h.profile(&w)));
    assert!(learned.is_trained());
    assert_eq!(learned.loops(), 1);
    let hints = learned.build_hints(&AnalysisConfig::default());
    // The single hot PC must be hinted for insertion.
    let hint = hints
        .pc_hints
        .iter()
        .find(|(pc, _)| *pc == 0x40)
        .expect("hot PC hinted")
        .1;
    assert!(hint.insert);
    assert!(hints.csr.enabled);
    assert!(hints.csr.meta_ways >= 2, "60k entries need several ways");
}

#[test]
fn small_footprints_disable_prefetching() {
    // A cycle fitting comfortably on-chip allocates few entries; Eq. 3
    // turns temporal prefetching off (the sphinx3-style win).
    let h = harness(10_000, 50_000);
    let hints = hints(&h, &temporal_workload(2_000, 30, 7));
    assert!(
        !hints.csr.enabled,
        "an on-chip-resident footprint must disable the table, got {:?}",
        hints.csr
    );
}

#[test]
fn optimized_run_beats_baseline() {
    let h = harness(60_000, 200_000);
    let w = temporal_workload(60_000, 5, 7);
    let prophet_run = h.optimized(&w, &hints(&h, &w), &ProphetConfig::default());
    let base = h.run(Scheme::Baseline, &w).into_report();
    assert!(
        prophet_run.ipc > base.ipc * 1.3,
        "Prophet must speed up a pointer chase: {} vs {}",
        prophet_run.ipc,
        base.ipc
    );
}

#[test]
fn prophet_cell_is_profile_then_optimized_under_both_l1s() {
    for l1 in [L1Scheme::Stride, L1Scheme::Ipcp] {
        let h = Harness {
            l1,
            ..harness(30_000, 120_000)
        };
        let w = workload_sized("mcf", h.warmup + h.measure);
        let w = w.as_ref();
        let profile = h.profile(w);
        // Step 1 always profiles under the stride L1, as the paper does.
        assert_eq!(profile, harness(30_000, 120_000).profile(w), "{l1:?}");
        let hints = analyze(
            &ProfileCounters::from_report(&profile),
            &AnalysisConfig::default(),
        );
        assert_eq!(
            h.run(Scheme::Prophet, w).into_report(),
            h.optimized(w, &hints, &ProphetConfig::default()),
            "{l1:?}"
        );
    }
}
