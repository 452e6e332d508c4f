//! Concurrent-writer regression suite: the per-key advisory lock and the
//! read-merge-write API must make a lost update impossible — the failure
//! mode where two writers both read generation *g* and the second rename
//! silently discards the first merge.

use prophet::{PcProfile, ProfileCounters};
use prophet_store::{set_store_warnings, ArtifactKind, ArtifactStore, ProfileArtifact, StoreKey};
use std::path::PathBuf;
use std::sync::Arc;

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

fn pc_profile(v: f64) -> PcProfile {
    PcProfile {
        accuracy: v,
        issued: 100.0,
        l2_misses: 10.0,
    }
}

#[test]
fn concurrent_rmw_loses_no_update() {
    let dir = temp_dir("rmw");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let k = key("shared");
    const WRITERS: u64 = 8;
    const ROUNDS: u64 = 4;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let store = store.clone();
            let k = k.clone();
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    // Each round contributes one distinct PC; if any
                    // read-merge-write raced, some PC would be missing.
                    let pc = w * ROUNDS + r;
                    store
                        .update_profile(&k, |current| {
                            let mut artifact = current.unwrap_or(ProfileArtifact {
                                counters: ProfileCounters::default(),
                                loops: 0,
                            });
                            artifact
                                .counters
                                .per_pc
                                .insert(pc, pc_profile(pc as f64 / 100.0));
                            artifact.loops += 1;
                            artifact
                        })
                        .unwrap();
                }
            });
        }
    });
    let merged = store.load_profile(&k).unwrap().unwrap();
    assert_eq!(
        merged.loops,
        (WRITERS * ROUNDS) as u32,
        "every RMW must be counted"
    );
    for pc in 0..WRITERS * ROUNDS {
        assert!(
            merged.counters.per_pc.contains_key(&pc),
            "update for PC {pc} was lost"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn lock_is_exclusive_and_released_on_drop() {
    let dir = temp_dir("lock");
    let store = ArtifactStore::open(&dir).unwrap();
    let k = key("lock");
    let lock_path = store
        .path_for(ArtifactKind::Profile, &k)
        .with_extension("lock");
    let guard = store.lock_key(ArtifactKind::Profile, &k).unwrap();
    assert!(lock_path.exists(), "holding the lock leaves a lock file");
    drop(guard);
    assert!(!lock_path.exists(), "dropping the guard removes it");
    // Re-acquisition after release is immediate.
    let _guard = store.lock_key(ArtifactKind::Profile, &k).unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn stale_lock_from_a_dead_holder_is_broken() {
    set_store_warnings(false);
    let dir = temp_dir("stale");
    let store = ArtifactStore::open(&dir).unwrap();
    let k = key("stale");
    let lock_path = store
        .path_for(ArtifactKind::Profile, &k)
        .with_extension("lock");
    // Simulate a crashed holder: a lock file whose mtime is far in the
    // past (no process will ever remove it).
    let file = std::fs::File::create(&lock_path).unwrap();
    file.set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(3600))
        .unwrap();
    drop(file);
    let _guard = store
        .lock_key(ArtifactKind::Profile, &k)
        .expect("stale lock must be broken, not waited on forever");
    set_store_warnings(true);
    std::fs::remove_dir_all(dir).ok();
}
