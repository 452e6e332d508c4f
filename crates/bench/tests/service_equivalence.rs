//! The acceptance pin for the service: hint bytes served by the daemon
//! must be identical to what the offline `prophet_cli profile → optimize`
//! pipeline computes for the same submissions — regardless of how many
//! clients submitted or in what order.
//!
//! Uses a real profiled workload (not synthetic counters): the same
//! `Harness::profile` pass the CLI's `profile` subcommand runs, submitted
//! to an in-process daemon by racing clients, then compared byte-for-byte
//! against the offline analysis of the identical counters.

use prophet::{AnalysisConfig, LearnedProfile, ProfileCounters};
use prophet_bench::Harness;
use prophet_service::{ServeConfig, Server, ServiceClient, ServiceState};
use prophet_store::encode_hints;
use prophet_workloads::workload_sized;
use std::path::PathBuf;

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
