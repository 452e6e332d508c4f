//! Pins what `Harness::run_matrix_stored` measures with a store, against
//! references built by hand from `Harness::build_checkpoint` and
//! `WarmStart`'s `simulate`/`simulate_window`: every matrix scheme starts from
//! the workload's shared warm-up checkpoint. The store branch streams the
//! trace cursor for single-pass schemes and replays one materialized
//! window for Prophet's two passes; each reference takes the other route,
//! so the two routes are pinned bit-identical too. Prophet's profile, built
//! on a store miss or loaded on a hit, must equal profiling in place. RPG2's
//! shared sweep has its own cursor-path reference in `tune_shared.rs`.

use prophet::{
    AnalysisConfig, LearnedProfile, ProfileCounters, Prophet, ProphetConfig, SimplifiedTp,
};
use prophet_bench::{Harness, SchemeRow};
use prophet_prefetch::{NoL2Prefetch, StridePrefetcher};
use prophet_sim_core::{SimReport, TraceSource};
use prophet_store::{ArtifactStore, StoreActivity, WarmupCheckpoint};
use prophet_temporal::Triangel;
use prophet_workloads::workload_sized;

fn harness() -> Harness {
    Harness {
        warmup: 100_000,
        measure: 60_000,
        ..Harness::default()
    }
}

/// `run_matrix_stored` over `w` and the store at `tag`, `runs` times in a
/// row: the row and the store's activity after each run.
fn stored_rows(
    h: &Harness,
    w: Box<dyn TraceSource + Send + Sync>,
    tag: &str,
    runs: usize,
) -> Vec<(SchemeRow, StoreActivity)> {
    let dir = std::env::temp_dir().join(format!("prophet-start-eq-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir).expect("open a fresh store");
    let workloads = [w];
    let out = (0..runs)
        .map(|_| {
            let mut rows = h.run_matrix_stored(&workloads, 2, Some(&store));
            (rows.remove(0), store.activity())
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Prophet from `ckpt` along the cursor route: a seeded profiling pass,
/// the paper's analysis, then the seeded optimized pass, each streaming a
/// fresh cursor.
fn prophet_by_cursor(h: &Harness, w: &dyn TraceSource, ckpt: &WarmupCheckpoint) -> SimReport {
    let mut profiler = SimplifiedTp::new();
    profiler.seed_warmup(&ckpt.temporal);
    let profile = ckpt.warm.simulate(
        &h.sys,
        w,
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
    ckpt.warm
        .simulate(&h.sys, w, h.l1.build(), Box::new(tp), h.measure)
}

#[test]
fn window_start_matches_cursor_start_for_every_scheme() {
    let h = harness();
    let w = workload_sized("bfs_80000_8", h.warmup + h.measure);
    let name = w.name();
    let ckpt = h.build_checkpoint(w.as_ref());
    let window = h.materialize_window(w.as_ref(), ckpt.warm.warmup);
    assert_eq!(window.len() as u64, h.measure);

    // Single-pass schemes: the store branch streams the cursor, the
    // references replay the window.
    let base =
        ckpt.warm
            .simulate_window(&h.sys, &name, &window, h.l1.build(), Box::new(NoL2Prefetch));
    let mut tp = Triangel::default();
    tp.seed_warmup(&ckpt.temporal);
    let triangel = ckpt
        .warm
        .simulate_window(&h.sys, &name, &window, h.l1.build(), Box::new(tp));
    let rpg2 = h.rpg2_warm(w.as_ref(), &ckpt);
    // Prophet: the store branch replays the window for both passes, the
    // reference streams the cursor for each.
    let prophet = prophet_by_cursor(&h, w.as_ref(), &ckpt);

    let (row, activity) = stored_rows(&h, w, "route", 1).remove(0);
    assert_eq!(activity.checkpoints_created, 1);
    assert_eq!(row.base, base, "baseline: cursor diverged from the window");
    assert_eq!(
        row.triangel, triangel,
        "triangel: cursor diverged from the window"
    );
    assert_eq!(
        row.rpg2, rpg2,
        "rpg2: the stored row is not the shared sweep"
    );
    assert_eq!(
        row.prophet, prophet,
        "prophet: window diverged from the cursor"
    );
}

#[test]
fn prophet_store_path_matches_in_place_profiling() {
    let h = harness();
    let w = workload_sized("bfs_80000_8", h.warmup + h.measure);
    let ckpt = h.build_checkpoint(w.as_ref());
    let in_place = prophet_by_cursor(&h, w.as_ref(), &ckpt);

    let runs = stored_rows(&h, w, "profile", 2);
    let (fresh, created) = &runs[0];
    let (reused, hit) = &runs[1];
    assert_eq!((created.profiles_created, created.profiles_reused), (1, 0));
    assert_eq!((hit.profiles_created, hit.profiles_reused), (1, 1));
    assert_eq!(
        fresh.prophet, in_place,
        "a store miss must profile exactly in place"
    );
    assert_eq!(
        reused.prophet, in_place,
        "a store hit must reproduce the profiled run"
    );
}
