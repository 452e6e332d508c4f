//! Reference test for the checkpoint-shared RPG2 tune path, the one
//! `Harness::run_matrix_stored` runs with a store: the shared sweep
//! (`Harness::rpg2_warm` — one warm-up, one materialized window, every
//! pass replayed from the snapshot) must be **bit-identical** to a
//! reference that launches every pass through the cursor path of
//! `WarmStart`'s `simulate` (fresh trace re-stream + skip per pass) from
//! the same warm-up. The equivalence is by construction (skipping
//! instructions never simulates them), and this test is what pins the
//! construction — for a workload whose distance sweep actually runs, and
//! for one where nothing qualifies.

use prophet_bench::Harness;
use prophet_prefetch::{NoL2Prefetch, StridePrefetcher};
use prophet_rpg2::{KernelScan, Rpg2Prefetcher, Rpg2Result, DISTANCE_CANDIDATES};
use prophet_sim_core::trace::{TraceInst, VecTrace};
use prophet_sim_core::{Simulator, TraceSource, WarmStart};
use prophet_sim_mem::{Addr, Pc, SystemConfig};
use prophet_store::WarmupCheckpoint;
use prophet_temporal::{TemporalConfig, TemporalEngine};
use prophet_workloads::workload_sized;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The cursor-path reference: identical warm-up (stride L1, no L2
/// prefetcher, kernel scan fused over warm-up + measurement window), then
/// the identification baseline and every distance candidate simulated via
/// `WarmStart`'s `simulate` — the per-pass re-stream formulation the shared
/// sweep's materialized window replaces. Returns the warm-up too, so the
/// subject can start from the same snapshot.
fn reference(
    sys: &SystemConfig,
    warmup: u64,
    measure: u64,
    w: &dyn TraceSource,
) -> (Rpg2Result, WarmStart) {
    let mut sim = Simulator::new(
        sys.clone(),
        Box::new(StridePrefetcher::default()),
        Box::new(NoL2Prefetch),
    );
    let mut scan = KernelScan::new();
    let mut cursor = w.cursor();
    let mut fed = 0u64;
    while fed < warmup {
        match cursor.next_inst() {
            Some(inst) => {
                scan.observe(&inst);
                sim.step(&inst);
            }
            None => break,
        }
        fed += 1;
    }
    let warm = WarmStart {
        engine: sim.engine_snapshot(),
        memory: sim.mem_system().hierarchy().snapshot(),
        warmup: fed,
    };
    let mut got = 0u64;
    while got < measure {
        match cursor.next_inst() {
            Some(inst) => scan.observe(&inst),
            None => break,
        }
        got += 1;
    }
    let analysis = scan.finish();

    let mut base = warm.simulate(
        sys,
        w,
        Box::new(StridePrefetcher::default()),
        Box::new(NoL2Prefetch),
        measure,
    );
    let misses: HashMap<u64, u64> = base
        .per_pc
        .iter()
        .map(|(&pc, s)| (pc, s.l2_misses))
        .collect();
    let qualified = analysis.qualify(&misses);
    if qualified.is_empty() {
        base.scheme = "rpg2".into();
        let result = Rpg2Result {
            qualified_pcs: qualified,
            distance: None,
            report: base,
        };
        return (result, warm);
    }
    let mut best: Option<(i64, prophet_sim_core::SimReport)> = None;
    for &d in &DISTANCE_CANDIDATES {
        let r = warm.simulate(
            sys,
            w,
            Box::new(StridePrefetcher::default()),
            Box::new(Rpg2Prefetcher::with_uniform_distance(&qualified, d)),
            measure,
        );
        let better = match &best {
            None => true,
            Some((_, b)) => r.ipc > b.ipc,
        };
        if better {
            best = Some((d, r));
        }
    }
    let (distance, report) = best.expect("at least one candidate evaluated");
    let result = Rpg2Result {
        qualified_pcs: qualified,
        distance: Some(distance),
        report,
    };
    (result, warm)
}

/// The subject: `Harness::rpg2_warm` from the reference's warm-up, wrapped
/// in a checkpoint whose temporal half (which RPG2 never reads) is an
/// untrained engine's.
fn shared(
    sys: SystemConfig,
    warmup: u64,
    measure: u64,
    w: &dyn TraceSource,
    warm: WarmStart,
) -> Rpg2Result {
    let h = Harness {
        sys,
        warmup,
        measure,
        ..Harness::default()
    };
    let ckpt = WarmupCheckpoint {
        warm,
        temporal: TemporalEngine::new(TemporalConfig::simplified_profiling()).warmup_snapshot(),
    };
    h.rpg2_warm(w, &ckpt)
}

/// A CRONO-flavoured indirect workload (strided kernel feeding locally
/// clustered indirect targets) that is known to qualify and tune.
fn qualifying_workload() -> VecTrace {
    let mut rng = StdRng::seed_from_u64(5);
    let idx: Vec<u64> = (0..30_000u64)
        .map(|i| (i / 4) * 2 + rng.gen_range(0..64u64))
        .collect();
    let mut insts = Vec::new();
    for _ in 0..3 {
        for (i, &v) in idx.iter().enumerate() {
            insts.push(TraceInst::load(Pc(1), Addr(0x10_0000 * 64 + i as u64 * 8)));
            insts.push(TraceInst::load_dep(Pc(2), Addr(0x20_0000 * 64 + v * 64), 1));
            insts.push(TraceInst::op(Pc(2)));
        }
    }
    VecTrace::new("crono-like", insts)
}

#[test]
fn shared_sweep_matches_cursor_path_reference_when_tuning() {
    let sys = SystemConfig::isca25();
    let (warmup, measure) = (20_000u64, 120_000u64);
    let w = qualifying_workload();
    let (reference, warm) = reference(&sys, warmup, measure, &w);
    let shared = shared(sys, warmup, measure, &w, warm);
    assert!(
        shared.distance.is_some(),
        "the workload must exercise the distance sweep for this test to bite"
    );
    assert_eq!(
        shared, reference,
        "shared-checkpoint sweep diverged from the cursor-path reference"
    );
}

#[test]
fn shared_sweep_matches_cursor_path_reference_without_qualifiers() {
    let sys = SystemConfig::isca25();
    let (warmup, measure) = (20_000u64, 60_000u64);
    let w = workload_sized("bfs_80000_8", warmup + measure);
    let (reference, warm) = reference(&sys, warmup, measure, w.as_ref());
    let shared = shared(sys, warmup, measure, w.as_ref(), warm);
    assert_eq!(shared, reference);
    assert_eq!(
        shared.report.scheme, "rpg2",
        "non-qualifying result must still be labelled as the rpg2 cell"
    );
}
