//! The determinism contract behind the parallel harness and the streaming
//! trace path:
//!
//! * `Harness::run_matrix_stored` must produce bit-identical `SchemeRow`s
//!   regardless of worker count, with or without a store — cells only
//!   depend on (workload, scheme), never on scheduling — and a second run
//!   over a filled store must reuse every artifact and reproduce the first;
//! * a streaming `TraceSource` replayed through two independent cursors
//!   must drive the simulator to identical `SimReport`s.
//!
//! Windows are kept small so the whole file runs in seconds; determinism
//! does not depend on window length.

use prophet_bench::{Harness, Scheme};
use prophet_sim_core::TraceSource;
use prophet_store::ArtifactStore;
use prophet_workloads::{workload, workload_sized};

fn small_harness() -> Harness {
    Harness {
        warmup: 20_000,
        measure: 60_000,
        ..Harness::default()
    }
}

#[test]
fn run_matrix_is_independent_of_job_count() {
    let h = small_harness();
    // One SPEC-like mix and one CRONO kernel: both generator families go
    // through the grid.
    let workloads: Vec<Box<dyn TraceSource + Send + Sync>> =
        vec![workload("mcf"), workload("bfs_80000_8")];
    let serial = h.run_matrix_stored(&workloads, 1, None);
    let parallel = h.run_matrix_stored(&workloads, 4, None);
    assert_eq!(
        serial, parallel,
        "scheme×workload results must not depend on worker count"
    );
    // Order is input order, not completion order.
    assert_eq!(serial[0].workload, "mcf");
    assert_eq!(serial[1].workload, "bfs_80000_8");
}

#[test]
fn run_matrix_jobs_zero_means_all_cores() {
    let h = small_harness();
    let workloads: Vec<Box<dyn TraceSource + Send + Sync>> = vec![workload("sphinx3")];
    let auto = h.run_matrix_stored(&workloads, 0, None);
    let serial = h.run_matrix_stored(&workloads, 1, None);
    assert_eq!(auto, serial);
}

#[test]
fn stored_run_matrix_is_independent_of_job_count() {
    let h = small_harness();
    let workloads: Vec<Box<dyn TraceSource + Send + Sync>> =
        vec![workload("mcf"), workload("bfs_80000_8")];
    let n = workloads.len() as u64;
    // Two runs over one store: the first fills it, the second reuses it.
    let run = |jobs: usize| {
        let dir = std::env::temp_dir().join(format!(
            "prophet-determinism-j{jobs}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = ArtifactStore::open(&dir).expect("open temp store");
        let first = h.run_matrix_stored(&workloads, jobs, Some(&store));
        let filled = store.activity();
        let again = h.run_matrix_stored(&workloads, jobs, Some(&store));
        let activity = store.activity();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            first, again,
            "a run over a filled store must reproduce the run that filled it"
        );
        (first, filled, activity)
    };
    let (serial, serial_filled, serial_activity) = run(1);
    let (parallel, parallel_filled, parallel_activity) = run(4);
    assert_eq!(
        serial, parallel,
        "stored scheme×workload results must not depend on worker count"
    );
    assert_eq!(serial_filled, parallel_filled);
    assert_eq!(serial_activity, parallel_activity);
    // A fresh store builds one checkpoint and one Prophet profile per
    // workload, whatever the worker count; the second run builds nothing
    // and reuses every one. Counts are (created, reused), cumulative.
    let counts = |a: &prophet_store::StoreActivity| {
        [
            (a.checkpoints_created, a.checkpoints_reused),
            (a.profiles_created, a.profiles_reused),
        ]
    };
    assert_eq!(counts(&serial_filled), [(n, 0); 2]);
    assert_eq!(counts(&serial_activity), [(n, n); 2]);
}

#[test]
fn streaming_sources_replay_to_identical_reports() {
    let h = small_harness();
    for name in ["omnetpp", "pagerank_100000_100"] {
        let w = workload_sized(name, h.warmup + h.measure);
        let first = h.run(Scheme::Baseline, w.as_ref()).into_report();
        let second = h.run(Scheme::Baseline, w.as_ref()).into_report();
        assert_eq!(
            first, second,
            "{name}: two cursors of one source must simulate identically"
        );
    }
}

#[test]
fn streaming_sources_replay_identically_under_prophet() {
    // The Prophet pipeline re-streams the same source for its profile run
    // and its optimized run; a full repeat of that double pass must also
    // agree with itself.
    let h = small_harness();
    let w = workload("bfs_80000_8");
    let first = h.run(Scheme::Prophet, w.as_ref()).into_report();
    let second = h.run(Scheme::Prophet, w.as_ref()).into_report();
    assert_eq!(first, second);
}
