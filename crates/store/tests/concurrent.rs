//! Concurrent-writer regression suite: saves racing on one key must each
//! publish a whole artifact (last writer wins) and leave no temp file.

use prophet::{PcProfile, ProfileCounters};
use prophet_store::{ArtifactStore, ProfileArtifact, StoreKey};
use std::path::PathBuf;
use std::sync::Barrier;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("prophet-store-conc-{tag}-{}", std::process::id()))
}

fn key(workload: &str) -> StoreKey {
    StoreKey {
        workload: workload.into(),
        config: 0x5EED,
        warmup: 1_000,
        measure: 2_000,
    }
}

/// A distinct artifact per `(writer, round)`: one PC and a loop count
/// that name both.
fn artifact(writer: u64, round: u64) -> ProfileArtifact {
    let mut counters = ProfileCounters::default();
    counters.per_pc.insert(
        writer,
        PcProfile {
            accuracy: round as f64 / 100.0,
            issued: 100.0,
            l2_misses: 10.0,
        },
    );
    ProfileArtifact {
        counters,
        loops: (writer * 1_000 + round) as u32,
    }
}

#[test]
fn same_key_saves_from_many_threads_all_succeed_and_leave_no_temp_file() {
    let dir = temp_dir("same-key");
    let store = ArtifactStore::open(&dir).unwrap();
    let k = key("shared");
    const WRITERS: u64 = 8;
    const ROUNDS: u64 = 50;
    let start = Barrier::new(WRITERS as usize);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (store, k, start) = (&store, &k, &start);
            scope.spawn(move || {
                start.wait();
                for r in 0..ROUNDS {
                    store
                        .save_profile(k, &artifact(w, r))
                        .unwrap_or_else(|e| panic!("writer {w} round {r}: {e}"));
                }
            });
        }
    });
    let stored = store.load_profile(&k).unwrap().expect("a saved profile");
    let (w, r) = (stored.loops as u64 / 1_000, stored.loops as u64 % 1_000);
    assert!(
        w < WRITERS && r < ROUNDS,
        "loops {} names no save",
        stored.loops
    );
    assert_eq!(
        stored,
        artifact(w, r),
        "the file is one whole written artifact"
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|d| d.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.contains(".tmp."))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    assert_eq!(store.activity().profiles_created, WRITERS * ROUNDS);
    std::fs::remove_dir_all(dir).ok();
}
