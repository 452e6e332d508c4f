//! The tentpole guarantee under *real* concurrency: N clients racing
//! submissions over TCP, in any interleaving the scheduler produces, must
//! leave the daemon serving hint bytes identical to a serial reference
//! merge of the same submissions — and identical across runs, orders, and
//! client counts.

use prophet::{analyze, AnalysisConfig, PcProfile, ProfileCounters};
use prophet_service::{
    merge_profiles, ServeConfig, Server, ServerHandle, ServiceClient, ServiceState,
};
use prophet_store::{encode_hints, ArtifactKind, ArtifactStore, StoreKey};
use std::net::SocketAddr;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("prophet-service-conc-{tag}-{}", std::process::id()))
}

fn key(workload: &str) -> StoreKey {
    StoreKey {
        workload: format!("{workload}+l1=stride"),
        config: 0xC0FFEE,
        warmup: 2_000,
        measure: 4_000,
    }
}

/// A deterministic synthetic profile; distinct seeds give distinct
/// content, including overlapping PCs so Eq. 4's order sensitivity is
/// actually exercised (disjoint PCs would commute trivially).
fn profile(seed: u64) -> ProfileCounters {
    let mut c = ProfileCounters::default();
    for i in 0..6 {
        c.per_pc.insert(
            0x4000 + (seed + i) % 8, // overlapping across seeds
            PcProfile {
                accuracy: (((seed * 7 + i * 3) % 11) as f64) / 10.0,
                issued: 50.0 + (seed * 13 % 100) as f64,
                l2_misses: 20.0 + (i * 5) as f64,
            },
        );
    }
    c.insertions = 1_000.0 + (seed * 37 % 500) as f64;
    c.replacements = (seed * 17 % 200) as f64;
    c
}

/// The hint bytes a serial canonical merge of `profiles` must produce —
/// exactly what the offline pipeline computes for the same inputs.
fn serial_reference(k: &StoreKey, profiles: &[ProfileCounters]) -> Vec<u8> {
    let merged = merge_profiles(profiles).expect("non-empty");
    encode_hints(k, &analyze(&merged.counters, &AnalysisConfig::default()))
}

fn start_daemon(dir: &PathBuf, threads: usize) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let state = ServiceState::open(dir).unwrap();
    let server = Server::bind(
        ServeConfig {
            threads,
            ..ServeConfig::default()
        },
        state,
    )
    .unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());
    (handle, join)
}

fn stop_daemon(handle: ServerHandle, join: std::thread::JoinHandle<()>) {
    handle.shutdown();
    join.join().unwrap();
}

fn fetch_bytes(addr: SocketAddr, k: &StoreKey) -> Vec<u8> {
    ServiceClient::connect(addr)
        .unwrap()
        .fetch_hints_bytes(k)
        .unwrap()
}

#[test]
fn n_writers_any_interleaving_matches_serial_reference() {
    const WRITERS: u64 = 8;
    let k = key("race");
    let profiles: Vec<_> = (0..WRITERS).map(profile).collect();
    let reference = serial_reference(&k, &profiles);
    // Several rounds with different thread-to-profile assignments: each
    // round is a fresh daemon and a fresh OS-scheduled interleaving.
    for round in 0..3u64 {
        let dir = temp_dir(&format!("race-{round}"));
        let (handle, join) = start_daemon(&dir, WRITERS as usize + 2);
        let addr = handle.addr();
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let k = k.clone();
                // Rotate assignments per round, and have each writer also
                // resubmit a neighbour's profile so duplicates race fresh
                // submissions too.
                let own = profiles[((w + round) % WRITERS) as usize].clone();
                let dup = profiles[((w + round + 1) % WRITERS) as usize].clone();
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    client.submit(&k, &own).unwrap();
                    client.submit(&k, &dup).unwrap();
                });
            }
        });
        let served = fetch_bytes(addr, &k);
        assert_eq!(
            served, reference,
            "round {round}: daemon-served hints diverged from the serial reference"
        );
        stop_daemon(handle, join);
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn interleaved_keys_stay_independent() {
    let dir = temp_dir("multikey");
    let keys: Vec<_> = ["bfs", "mcf", "sssp"].iter().map(|w| key(w)).collect();
    // Distinct profile sets per key, submitted interleaved by racing
    // threads that each touch every key.
    let sets: Vec<Vec<ProfileCounters>> = (0..keys.len())
        .map(|ki| (0..4).map(|s| profile((ki as u64) * 100 + s)).collect())
        .collect();
    let (handle, join) = start_daemon(&dir, 8);
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let keys = &keys;
            let sets = &sets;
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                for (ki, k) in keys.iter().enumerate() {
                    client.submit(k, &sets[ki][t]).unwrap();
                }
            });
        }
    });
    for (ki, k) in keys.iter().enumerate() {
        assert_eq!(
            fetch_bytes(addr, k),
            serial_reference(k, &sets[ki]),
            "key {} polluted by a neighbour's submissions",
            k.workload
        );
    }
    stop_daemon(handle, join);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn duplicate_submissions_deduplicate_racily() {
    let dir = temp_dir("dup");
    let k = key("dup");
    let p = profile(42);
    let (handle, join) = start_daemon(&dir, 6);
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let k = k.clone();
            let p = p.clone();
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                let ack = client.submit(&k, &p).unwrap();
                assert_eq!(ack.generation, 1, "identical content is one generation");
                assert_eq!(ack.submissions, 1);
            });
        }
    });
    // Exactly one submission was fresh, the other three deduplicated.
    let metrics = ServiceClient::connect(addr).unwrap().metrics().unwrap();
    assert!(
        metrics.contains("prophet_service_submissions_total 4"),
        "{metrics}"
    );
    assert!(
        metrics.contains("prophet_service_submissions_fresh 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("prophet_service_submissions_duplicate 3"),
        "{metrics}"
    );
    assert_eq!(fetch_bytes(addr, &k), serial_reference(&k, &[p]));
    stop_daemon(handle, join);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn restart_recovers_submissions_from_the_store() {
    let dir = temp_dir("recover");
    let k = key("recover");
    let profiles: Vec<_> = (0..3).map(profile).collect();
    let reference = serial_reference(&k, &profiles);
    {
        let (handle, join) = start_daemon(&dir, 4);
        let mut client = ServiceClient::connect(handle.addr()).unwrap();
        for p in &profiles {
            client.submit(&k, p).unwrap();
        }
        assert_eq!(fetch_bytes(handle.addr(), &k), reference);
        drop(client);
        stop_daemon(handle, join);
    }
    // A writer killed mid-write leaves debris beside the merged profile: a
    // fresh `.lock` file and a temp file that was never renamed into place.
    let merged = ArtifactStore::open(&dir)
        .unwrap()
        .path_for(ArtifactKind::Profile, &k);
    std::fs::write(merged.with_extension("lock"), b"").unwrap();
    std::fs::write(merged.with_extension("tmp.4242"), b"PRPHSTOR half-writ").unwrap();
    // A fresh daemon over the same store dir resumes at generation 3 and
    // serves identical bytes.
    let restarted = std::time::Instant::now();
    let (handle, join) = start_daemon(&dir, 4);
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    assert_eq!(client.fetch_hints_bytes(&k).unwrap(), reference);
    let ack = client.submit(&k, &profiles[0]).unwrap();
    assert!(
        !ack.fresh,
        "recovered submissions deduplicate resubmissions"
    );
    assert_eq!(ack.generation, 3);
    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("prophet_service_recovered_submissions 3"),
        "{metrics}"
    );
    // The debris neither blocks nor corrupts the next generation.
    let ack = client.submit(&k, &profile(3)).unwrap();
    let took = restarted.elapsed();
    assert!(ack.fresh);
    assert_eq!(ack.generation, 4);
    assert!(
        took < std::time::Duration::from_secs(5),
        "generation 4 came {took:?} after the restart"
    );
    let all: Vec<_> = (0..4).map(profile).collect();
    assert_eq!(
        client.fetch_hints_bytes(&k).unwrap(),
        serial_reference(&k, &all)
    );
    stop_daemon(handle, join);
    std::fs::remove_dir_all(dir).ok();
}
