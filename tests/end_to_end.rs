//! Cross-crate integration tests: the paper's headline claims, end to end.

use prophet::{analyze, AnalysisConfig, HintSet, ProfileCounters};
use prophet_bench::{Harness, Scheme};
use prophet_sim_core::{SimReport, TraceSource};
use prophet_workloads::workload;

/// The paper's machine at a 150 K warm-up + 450 K measured window.
fn harness() -> Harness {
    Harness {
        warmup: 150_000,
        measure: 450_000,
        ..Harness::default()
    }
}

fn run(scheme: Scheme, w: &dyn TraceSource) -> SimReport {
    harness().run(scheme, w).into_report()
}

fn baseline(w: &dyn TraceSource) -> SimReport {
    run(Scheme::Baseline, w)
}

fn prophet_run(w: &dyn TraceSource) -> SimReport {
    run(Scheme::Prophet, w)
}

/// Steps 1 and 2: profile `w` under `h`, then analyze with the defaults.
fn hints(h: &Harness, w: &dyn TraceSource) -> HintSet {
    analyze(
        &ProfileCounters::from_report(&h.profile(w)),
        &AnalysisConfig::default(),
    )
}

#[test]
fn prophet_beats_triangel_on_interleaved_omnetpp() {
    // The paper's central claim on its motivating workload (Figure 1/10).
    let w = workload("omnetpp");
    let base = baseline(w.as_ref());
    let tri = run(Scheme::Triangel, w.as_ref());
    let pro = prophet_run(w.as_ref());
    assert!(
        pro.ipc > tri.ipc,
        "Prophet ({}) must beat Triangel ({}) on omnetpp",
        pro.ipc,
        tri.ipc
    );
    assert!(tri.ipc >= base.ipc * 0.98, "Triangel must not collapse");
}

#[test]
fn rpg2_is_near_baseline_on_temporal_workloads() {
    // Footnote 6 / Section 5.2: no stride kernels in mcf-style chasing.
    let w = workload("mcf");
    let base = baseline(w.as_ref());
    let r = harness().rpg2(w.as_ref());
    let speedup = r.report.speedup_over(&base);
    assert!(
        (speedup - 1.0).abs() < 0.05,
        "RPG2 must be ~neutral on mcf, got {speedup}"
    );
}

#[test]
fn prophet_insertion_policy_rejects_noise_pcs() {
    let w = workload("mcf");
    let hints = hints(&harness(), w.as_ref());
    // The mcf recipe's random-access PC is 0x1_02; its profiled accuracy is
    // ~0, so Eq. 1 must filter it.
    let noise = hints
        .pc_hints
        .iter()
        .find(|(pc, _)| *pc == 0x1_02)
        .expect("noise PC is among the top miss producers");
    assert!(!noise.1.insert, "noise PC must be filtered");
    // The main chase PC must be kept at a high priority level.
    let chase = hints
        .pc_hints
        .iter()
        .find(|(pc, _)| *pc == 0x1_00)
        .expect("chase PC hinted");
    assert!(chase.1.insert);
    assert!(chase.1.priority >= 2, "clean chase deserves a high level");
}

#[test]
fn prophet_resizing_disables_tp_for_cache_resident_workloads() {
    // A workload whose whole footprint fits on-chip must get CSR-disabled
    // prefetching (Eq. 3 < 0.5 ways).
    use prophet_sim_core::{TraceInst, VecTrace};
    use prophet_sim_mem::{Addr, Pc};
    let lines: Vec<u64> = (0..3_000u64).collect();
    let mut insts = Vec::new();
    for _ in 0..120 {
        for &l in &lines {
            insts.push(TraceInst::load(Pc(1), Addr(l * 64)));
        }
    }
    let w = VecTrace::new("resident", insts);
    let h = Harness {
        warmup: 30_000,
        measure: 120_000,
        ..Harness::default()
    };
    assert!(!hints(&h, &w).csr.enabled);
}

#[test]
fn triage_pollutes_where_prophet_filters() {
    // Triage (no insertion policy) must insert noise; Prophet must reject
    // those events entirely.
    let w = workload("mcf");
    let tri = run(Scheme::Triage4, w.as_ref());
    assert_eq!(tri.meta.rejected_insertions, 0, "Triage never filters");
    let pro = prophet_run(w.as_ref());
    assert!(
        pro.meta.rejected_insertions > 10_000,
        "Prophet must discard filtered PCs' events, got {}",
        pro.meta.rejected_insertions
    );
}

#[test]
fn deterministic_runs() {
    let w = workload("sphinx3");
    let a = baseline(w.as_ref());
    let b = baseline(w.as_ref());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.dram.reads, b.dram.reads);
    let pa = prophet_run(w.as_ref());
    let pb = prophet_run(w.as_ref());
    assert_eq!(pa.cycles, pb.cycles);
}

#[test]
fn prophet_wins_geomean_on_spec_subset() {
    // A faster 3-workload version of Figure 10's ordering claim.
    let mut pro_speedups = Vec::new();
    let mut tri_speedups = Vec::new();
    for name in ["omnetpp", "soplex_pds-50", "xalancbmk"] {
        let w = workload(name);
        let base = baseline(w.as_ref());
        let tri = run(Scheme::Triangel, w.as_ref());
        let pro = prophet_run(w.as_ref());
        tri_speedups.push(tri.speedup_over(&base));
        pro_speedups.push(pro.speedup_over(&base));
    }
    let tri = prophet_sim_core::geomean(&tri_speedups);
    let pro = prophet_sim_core::geomean(&pro_speedups);
    assert!(
        pro > tri && pro > 1.1,
        "Prophet ({pro:.3}) must clearly beat Triangel ({tri:.3})"
    );
}
