//! RPG2 through the harness: `Harness::rpg2_identify` is the plain baseline
//! run plus a whole-trace kernel scan, and every RPG2 pass runs on the
//! harness's machine — its L1 included — so RPG2 is measured on the same
//! machine as the baseline it is compared with.

use prophet_bench::{Harness, L1Scheme, Scheme};
use prophet_prefetch::NoL2Prefetch;
use prophet_rpg2::{KernelAnalysis, Rpg2Prefetcher};
use prophet_sim_core::trace::{TraceInst, VecTrace};
use prophet_sim_core::{simulate, SimReport, TraceSource};
use prophet_sim_mem::{Addr, Pc};
use prophet_workloads::workload_sized;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn harness(l1: L1Scheme, warmup: u64, measure: u64) -> Harness {
    Harness {
        warmup,
        measure,
        l1,
        ..Harness::default()
    }
}

/// A CRONO-flavoured indirect workload: strided kernel + locally
/// clustered indirect targets, repeated.
fn crono_like() -> VecTrace {
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

/// The plain no-L2-prefetcher run of `w` on `h`'s machine and window.
fn plain(h: &Harness, w: &dyn TraceSource) -> SimReport {
    simulate(
        &h.sys,
        w,
        h.l1.build(),
        Box::new(NoL2Prefetch),
        h.warmup,
        h.measure,
    )
}

#[test]
fn identifies_indirect_pc_on_crono_like_workload() {
    let h = harness(L1Scheme::Stride, 20_000, 120_000);
    let (base, analysis) = h.rpg2_identify(&crono_like());
    let misses: HashMap<u64, u64> = base
        .per_pc
        .iter()
        .map(|(&pc, s)| (pc, s.l2_misses))
        .collect();
    let q = analysis.qualify(&misses);
    assert!(q.contains(&2), "the indirect PC must qualify, got {q:?}");
}

/// `rpg2_identify` is a plain no-L2 run plus a whole-trace
/// [`KernelAnalysis::scan`], from one stream, under either L1: on a trace
/// longer than warm-up + measure (the scan must read on past the window)
/// and on one shorter than the warm-up.
#[test]
fn baseline_is_the_plain_run_and_the_whole_trace_scan() {
    let (warmup, measure) = (20_000, 120_000);
    let long = crono_like();
    let short = VecTrace::new("short", long.insts[..15_000].to_vec());
    assert!(long.insts.len() as u64 > warmup + measure);
    for l1 in [L1Scheme::Stride, L1Scheme::Ipcp] {
        let h = harness(l1, warmup, measure);
        for w in [&long, &short] {
            let (report, analysis) = h.rpg2_identify(w);
            assert_eq!(report, plain(&h, w), "{} under {l1:?}", w.label);
            assert_eq!(analysis, KernelAnalysis::scan(w), "{}", w.label);
        }
    }
}

#[test]
fn tuned_run_improves_over_baseline() {
    let h = harness(L1Scheme::Stride, 20_000, 120_000);
    let w = crono_like();
    let res = h.rpg2(&w);
    assert!(res.distance.is_some());
    let base = plain(&h, &w);
    assert!(
        res.report.ipc >= base.ipc,
        "tuned RPG2 must not lose to baseline: {} vs {}",
        res.report.ipc,
        base.ipc
    );
}

#[test]
fn pointer_chase_yields_no_instrumentation() {
    let mut insts = Vec::new();
    let mut l = 3u64;
    for i in 0..200_000u64 {
        l = (l * 2_654_435_761 + 7) % 200_000;
        let inst = if i == 0 {
            TraceInst::load(Pc(9), Addr(l * 64))
        } else {
            TraceInst::load_dep(Pc(9), Addr(l * 64), 1)
        };
        insts.push(inst);
    }
    let w = VecTrace::new("chase", insts);
    let res = harness(L1Scheme::Stride, 20_000, 100_000).rpg2(&w);
    assert!(res.qualified_pcs.is_empty());
    assert!(res.distance.is_none());
    assert_eq!(res.report.scheme, "rpg2");
    assert_eq!(
        res.report.issued_prefetches, 0,
        "no kernels → no software prefetches (footnote 6)"
    );
}

/// Under either L1, RPG2's result is a run on the harness's own machine:
/// where nothing qualifies (`mcf`) it is the harness's Baseline run
/// relabelled `"rpg2"`, and where the sweep runs it is the plain run of
/// the harness's L1 with the software prefetcher at the tuned distance.
#[test]
fn rpg2_runs_on_the_harness_l1() {
    for l1 in [L1Scheme::Stride, L1Scheme::Ipcp] {
        let h = harness(l1, 60_000, 60_000);
        let mcf = workload_sized("mcf", h.warmup + h.measure);
        let res = h.rpg2(mcf.as_ref());
        assert!(res.qualified_pcs.is_empty(), "nothing qualifies on mcf");
        let mut base = h.run(Scheme::Baseline, mcf.as_ref()).into_report();
        base.scheme = "rpg2".into();
        assert_eq!(res.report, base, "mcf under {l1:?}");

        for name in ["pagerank_100000_100", "sssp_100000_5"] {
            let w = workload_sized(name, h.warmup + h.measure);
            let res = h.rpg2(w.as_ref());
            let d = res
                .distance
                .unwrap_or_else(|| panic!("{name} sweeps under {l1:?}"));
            let tuned = simulate(
                &h.sys,
                w.as_ref(),
                h.l1.build(),
                Box::new(Rpg2Prefetcher::with_uniform_distance(&res.qualified_pcs, d)),
                h.warmup,
                h.measure,
            );
            assert_eq!(res.report, tuned, "{name} under {l1:?}");
        }
    }
}
