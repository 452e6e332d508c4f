//! Pins the equivalences `Harness::run` relies on to serve every caller
//! from one primitive: a checkpoint start over a materialized window (the
//! bench runner's cells) is bit-identical to the same start streaming the
//! trace cursor (the `run_matrix_stored` cells), for every scheme; and
//! Prophet's store-backed path — profile on a miss, reuse on a hit — is
//! bit-identical to profiling in place.

use prophet_bench::{Harness, Scheme, Start};
use prophet_sim_core::TraceInst;
use prophet_store::{set_store_warnings, ArtifactStore, WarmupCheckpoint};
use prophet_workloads::workload_sized;

fn harness() -> Harness {
    Harness {
        warmup: 100_000,
        measure: 60_000,
        ..Harness::default()
    }
}

fn start<'a>(
    ckpt: &'a WarmupCheckpoint,
    window: Option<&'a [TraceInst]>,
    store: Option<&'a ArtifactStore>,
) -> Start<'a> {
    Start::Checkpoint {
        ckpt,
        window,
        store,
    }
}

#[test]
fn window_start_matches_cursor_start_for_every_scheme() {
    let h = harness();
    let w = workload_sized("bfs_80000_8", h.warmup + h.measure);
    let ckpt = h.build_checkpoint(w.as_ref());
    let window = h.materialize_window(w.as_ref(), ckpt.warm.warmup);
    assert_eq!(window.len() as u64, h.measure);
    for scheme in Scheme::ALL {
        let cursor = h.run(scheme, w.as_ref(), start(&ckpt, None, None));
        let windowed = h.run(scheme, w.as_ref(), start(&ckpt, Some(&window), None));
        assert_eq!(
            cursor,
            windowed,
            "{}: window start diverged from the cursor start",
            scheme.name()
        );
    }
}

#[test]
fn prophet_store_path_matches_in_place_profiling() {
    set_store_warnings(false);
    let h = harness();
    let w = workload_sized("bfs_80000_8", h.warmup + h.measure);
    let ckpt = h.build_checkpoint(w.as_ref());
    let in_place = h
        .run(Scheme::Prophet, w.as_ref(), start(&ckpt, None, None))
        .into_report();

    let dir = std::env::temp_dir().join(format!("prophet-start-eq-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir).expect("open a fresh store");
    let stored = |expect_created: u64| {
        let r = h
            .run(
                Scheme::Prophet,
                w.as_ref(),
                start(&ckpt, None, Some(&store)),
            )
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
