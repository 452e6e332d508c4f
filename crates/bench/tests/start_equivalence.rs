//! Pins the equivalences `Harness::run` relies on to serve every caller
//! from one primitive: replaying a materialized measurement window from a
//! checkpoint (Prophet's passes, perfbench's traced cells) is
//! bit-identical to streaming the trace cursor from the same checkpoint
//! (the single-pass `run_matrix_stored` cells); and Prophet's
//! store-backed path — profile on a miss, reuse on a hit — is
//! bit-identical to profiling in place. RPG2's shared sweep has its own
//! cursor-path reference in `tune_shared.rs`.

use prophet::{
    AnalysisConfig, LearnedProfile, ProfileCounters, Prophet, ProphetConfig, SimplifiedTp,
};
use prophet_bench::{Harness, Scheme, Start};
use prophet_prefetch::{L2Prefetcher, NoL2Prefetch, StridePrefetcher};
use prophet_store::{ArtifactStore, WarmupCheckpoint};
use prophet_temporal::{Triage, Triangel};
use prophet_workloads::workload_sized;

fn harness() -> Harness {
    Harness {
        warmup: 100_000,
        measure: 60_000,
        ..Harness::default()
    }
}

fn start<'a>(ckpt: &'a WarmupCheckpoint, store: Option<&'a ArtifactStore>) -> Start<'a> {
    Start::Checkpoint { ckpt, store }
}

/// The L2 prefetcher `Harness::run` gives a single-pass `scheme` from
/// `ckpt`: temporal ones seeded from the checkpoint's passive training.
fn seeded_l2(scheme: Scheme, ckpt: &WarmupCheckpoint) -> Box<dyn L2Prefetcher> {
    match scheme {
        Scheme::Baseline => Box::new(NoL2Prefetch),
        Scheme::Triage4 => {
            let mut tp = Triage::degree4();
            tp.seed_warmup(&ckpt.temporal);
            Box::new(tp)
        }
        Scheme::Triangel => {
            let mut tp = Triangel::default();
            tp.seed_warmup(&ckpt.temporal);
            Box::new(tp)
        }
        _ => unreachable!("{} is not single-pass", scheme.name()),
    }
}

#[test]
fn window_start_matches_cursor_start_for_every_scheme() {
    let h = harness();
    let w = workload_sized("bfs_80000_8", h.warmup + h.measure);
    let name = w.name();
    let ckpt = h.build_checkpoint(w.as_ref());
    let window = h.materialize_window(w.as_ref(), ckpt.warm.warmup);
    assert_eq!(window.len() as u64, h.measure);

    // Single-pass schemes: `Harness::run` streams the cursor, the
    // reference replays the window.
    for scheme in [Scheme::Baseline, Scheme::Triage4, Scheme::Triangel] {
        let cursor = h.run(scheme, w.as_ref(), start(&ckpt, None)).into_report();
        let replayed = ckpt.warm.simulate_window(
            &h.sys,
            &name,
            &window,
            h.l1.build(),
            seeded_l2(scheme, &ckpt),
        );
        assert_eq!(
            replayed,
            cursor,
            "{}: window replay diverged from the cursor start",
            scheme.name()
        );
    }

    // Prophet: `Harness::run` replays the window for both passes, the
    // reference streams the cursor for each.
    let mut profiler = SimplifiedTp::new();
    profiler.seed_warmup(&ckpt.temporal);
    let profile = ckpt.warm.simulate(
        &h.sys,
        w.as_ref(),
        Box::new(StridePrefetcher::default()),
        Box::new(profiler),
        h.measure,
    );
    let mut learned = LearnedProfile::new();
    learned.learn(ProfileCounters::from_report(&profile));
    let mut tp = Prophet::new(
        ProphetConfig::default(),
        &learned.build_hints(&AnalysisConfig::default()),
    );
    tp.seed_warmup(&ckpt.temporal);
    let cursor = ckpt
        .warm
        .simulate(&h.sys, w.as_ref(), h.l1.build(), Box::new(tp), h.measure);
    let replayed = h
        .run(Scheme::Prophet, w.as_ref(), start(&ckpt, None))
        .into_report();
    assert_eq!(
        replayed, cursor,
        "prophet: window replay diverged from the cursor start"
    );
}

#[test]
fn prophet_store_path_matches_in_place_profiling() {
    let h = harness();
    let w = workload_sized("bfs_80000_8", h.warmup + h.measure);
    let ckpt = h.build_checkpoint(w.as_ref());
    let in_place = h
        .run(Scheme::Prophet, w.as_ref(), start(&ckpt, None))
        .into_report();

    let dir = std::env::temp_dir().join(format!("prophet-start-eq-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir).expect("open a fresh store");
    let stored = |expect_created: u64| {
        let r = h
            .run(Scheme::Prophet, w.as_ref(), start(&ckpt, Some(&store)))
            .into_report();
        assert_eq!(store.activity().profiles_created, expect_created);
        r
    };
    let fresh = stored(1);
    let reused = stored(1);
    assert_eq!(store.activity().profiles_reused, 1);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        fresh, in_place,
        "a store miss must profile exactly in place"
    );
    assert_eq!(
        reused, in_place,
        "a store hit must reproduce the profiled run"
    );
}
