//! Warm-start golden test: `run_matrix_stored` over one store, run twice
//! on the CRONO grid, must (a) build every checkpoint on the first (cold)
//! run, (b) reuse every checkpoint on the second (warm) run, (c) return
//! **bit-identical rows**, and (d) be measurably faster warm than cold.
//!
//! (c) holds by construction — a cold run with a store round-trips its
//! freshly built checkpoints through the codec before simulating from
//! them, so both runs measure from byte-identical restored state — and
//! this test is what pins the construction. The window is strongly
//! warm-up-heavy (600 K warm-up vs 30 K measured), making the checkpoint
//! simulations the warm run skips most of the cold run's work — a
//! structural margin, so the timing assertion in (d) survives noisy CI
//! runners without becoming a flake.

use std::time::{Duration, Instant};

use prophet_bench::{Harness, SchemeRow};
use prophet_store::{ArtifactStore, StoreActivity};
use prophet_workloads::{workload_sized, CRONO_WORKLOADS};

struct Run {
    rows: Vec<SchemeRow>,
    activity: StoreActivity,
    elapsed: Duration,
}

#[test]
fn warm_start_is_bit_identical_to_cold_start_and_faster() {
    let h = Harness {
        warmup: 600_000,
        measure: 30_000,
        ..Harness::default()
    };
    let workloads: Vec<_> = CRONO_WORKLOADS
        .iter()
        .map(|n| workload_sized(n, h.warmup + h.measure))
        .collect();
    let n = workloads.len() as u64;

    let dir = std::env::temp_dir().join(format!("prophet-warmstart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let run = || {
        // A fresh handle per run, so each run's activity counts only its own.
        let store = ArtifactStore::open(&dir).expect("open temp store");
        let start = Instant::now();
        let rows = h.run_matrix_stored(&workloads, 2, Some(&store));
        Run {
            rows,
            activity: store.activity(),
            elapsed: start.elapsed(),
        }
    };

    let cold = run();
    assert_eq!(
        (
            cold.activity.checkpoints_reused,
            cold.activity.checkpoints_created
        ),
        (0, n),
        "cold run must build all {n} CRONO checkpoints, reported {:?}",
        cold.activity
    );

    let warm = run();
    assert_eq!(
        (
            warm.activity.checkpoints_reused,
            warm.activity.checkpoints_created
        ),
        (n, 0),
        "warm run must reuse all {n} checkpoints, reported {:?}",
        warm.activity
    );
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        cold.rows, warm.rows,
        "warm-start rows diverged from cold-start"
    );
    assert_eq!(
        cold.rows.len() as u64,
        n,
        "one row per workload, or the identity check above is vacuous"
    );

    // The warm run skips the 600 K-instruction warm-up simulations —
    // structurally most of the cold run's simulated work — so even under
    // heavy scheduler noise it must come in under the cold wall clock.
    assert!(
        warm.elapsed < cold.elapsed,
        "warm start ({:?}) not faster than cold start ({:?}) — checkpoints \
         are not actually being reused",
        warm.elapsed,
        cold.elapsed,
    );
}
