//! The acceptance pin for the service: hint bytes served by the daemon
//! must be identical to what the offline `prophet_cli profile → optimize`
//! pipeline computes for the same submissions — regardless of how many
//! clients submitted or in what order.
//!
//! Uses a real profiled workload (not synthetic counters): the same
//! `Harness::profile` pass the CLI's `profile` subcommand runs, submitted
//! to an in-process daemon by racing clients, then compared byte-for-byte
//! against the offline analysis of the identical counters. The offline
//! `prophet_cli profile` itself must leave a submission a daemon over the
//! same store recovers, and the service and a grid's `--store` profile
//! cache must not read each other's profiles.

use prophet::{AnalysisConfig, LearnedProfile, ProfileCounters};
use prophet_bench::Harness;
use prophet_service::{ServeConfig, Server, ServiceClient, ServiceError, ServiceState};
use prophet_store::{encode_hints, ArtifactStore};
use prophet_workloads::workload_sized;
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("prophet-bench-svc-{tag}-{}", std::process::id()))
}

#[test]
fn daemon_serves_offline_pipeline_bytes() {
    // A small real window: the same profiling pass `prophet_cli profile`
    // runs, just sized for a test.
    let h = Harness {
        warmup: 20_000,
        measure: 40_000,
        ..Harness::default()
    };
    let w = workload_sized("mcf", h.warmup + h.measure);
    let key = h.profile_key(w.as_ref());
    let counters = ProfileCounters::from_report(&h.profile(w.as_ref()));

    // Offline reference: learn once, analyze, encode — what `profile`
    // followed by `optimize --hints-out` produces.
    let mut learned = LearnedProfile::new();
    learned.learn(counters.clone());
    let offline = encode_hints(&key, &learned.build_hints(&AnalysisConfig::default()));

    // Online: four racing clients all submit the same profiling result
    // (a fleet re-running the same binary), then fetch.
    let dir = temp_dir("equiv");
    let state = ServiceState::open(&dir).unwrap();
    let server = Server::bind(
        ServeConfig {
            threads: 6,
            ..ServeConfig::default()
        },
        state,
    )
    .unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();
    let join = std::thread::spawn(move || server.run().unwrap());

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let key = key.clone();
            let counters = counters.clone();
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                client.submit(&key, &counters).unwrap();
            });
        }
    });
    let served = ServiceClient::connect(addr)
        .unwrap()
        .fetch_hints_bytes(&key)
        .unwrap();

    assert_eq!(
        served, offline,
        "daemon-served hint bytes must be identical to the offline \
         profile→optimize pipeline for the same submissions"
    );

    handle.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

/// Two `prophet_cli profile` runs of one key are one submission: a
/// service state opened over their store recovers it at generation 1 and
/// serves exactly the bytes the runs exported.
#[test]
fn daemon_recovers_offline_profile_runs() {
    let dir = temp_dir("offline");
    std::fs::remove_dir_all(&dir).ok();
    let out = dir.join("offline.hints");
    for _ in 0..2 {
        let run = Command::new(env!("CARGO_BIN_EXE_prophet_cli"))
            .args([
                "profile", "mcf", "--insts", "40000", "--warmup", "20000", "--store",
            ])
            .arg(&dir)
            .arg("--hints-out")
            .arg(&out)
            .output()
            .expect("failed to launch prophet_cli");
        assert!(run.status.success(), "{run:?}");
    }
    let h = Harness {
        warmup: 20_000,
        measure: 40_000,
        ..Harness::default()
    };
    let key = h.profile_key(workload_sized("mcf", h.warmup + h.measure).as_ref());
    let state = ServiceState::open(&dir).unwrap();
    let generation = format!(
        "prophet_profile_generation{{key=\"{}|{:016x}|{}|{}\"}} 1\n",
        key.workload, key.config, key.warmup, key.measure
    );
    let metrics = state.render_metrics();
    assert!(metrics.contains(&generation), "{metrics}");
    assert_eq!(state.fetch(&key).unwrap(), std::fs::read(&out).unwrap());
    drop(state);
    std::fs::remove_dir_all(dir).ok();
}

/// One owner per profile key: a submission is not a grid's cached
/// profile, and a grid's cached profile is not a submission. A grid over
/// a store holding a submitted profile profiles afresh and reports what a
/// fresh store reports; a service over a store only a grid profiled knows
/// no hints for the key.
#[test]
fn grid_and_service_do_not_share_profiles() {
    let h = Harness {
        warmup: 20_000,
        measure: 40_000,
        ..Harness::default()
    };
    let w = workload_sized("bfs_100000_16", h.warmup + h.measure);
    let key = h.profile_key(w.as_ref());
    let (submitted, fresh) = (temp_dir("owner-submitted"), temp_dir("owner-fresh"));
    for dir in [&submitted, &fresh] {
        std::fs::remove_dir_all(dir).ok();
    }
    let counters = ProfileCounters::from_report(&h.profile(w.as_ref()));
    ServiceState::open(&submitted)
        .unwrap()
        .submit(&key, counters)
        .unwrap();

    let grid = |dir: &PathBuf| {
        let store = ArtifactStore::open(dir).unwrap();
        let rows = h.run_matrix_stored(std::slice::from_ref(&w), 2, Some(&store));
        (rows, store.activity().profiles_reused)
    };
    let (beside_submission, reused) = grid(&submitted);
    assert_eq!(reused, 0, "the grid must not reuse a submitted profile");
    let (from_fresh, _) = grid(&fresh);
    assert_eq!(beside_submission, from_fresh);

    match ServiceState::open(&fresh).unwrap().fetch(&key) {
        Err(ServiceError::UnknownWorkload(_)) => {}
        other => panic!(
            "a key only the grid profiled must be unknown to the service, got {:?}",
            other.map(|bytes| bytes.len())
        ),
    }
    for dir in [submitted, fresh] {
        std::fs::remove_dir_all(dir).ok();
    }
}
