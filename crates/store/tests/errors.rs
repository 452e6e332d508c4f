//! Error-path coverage: malformed artifact files must surface as typed
//! errors (or misses), never panics — a polluted store directory costs a
//! recompute, not the experiment.

use prophet::{CsrHint, HintSet, PcHint};
use prophet_sim_mem::replacement::ReplSnapshot;
use prophet_store::{
    decode_checkpoint, decode_hints, decode_profile, encode_checkpoint, encode_hints,
    encode_profile, ArtifactKind, ArtifactStore, DecodeError, ProfileArtifact, StoreKey,
    WarmupCheckpoint, FORMAT_VERSION,
};

fn key() -> StoreKey {
    StoreKey {
        workload: "mcf+l1=stride".into(),
        config: 0xDEAD_BEEF_CAFE_F00D,
        warmup: 200_000,
        measure: 650_000,
    }
}

fn sample_profile() -> Vec<u8> {
    encode_profile(
        &key(),
        &ProfileArtifact {
            counters: prophet::ProfileCounters {
                per_pc: [(
                    0x400u64,
                    prophet::PcProfile {
                        accuracy: 0.75,
                        issued: 100.0,
                        l2_misses: 40.0,
                    },
                )]
                .into_iter()
                .collect(),
                insertions: 1000.0,
                replacements: 200.0,
            },
            loops: 3,
        },
    )
}

fn sample_hints() -> Vec<u8> {
    encode_hints(
        &key(),
        &HintSet {
            pc_hints: vec![(
                0x400,
                PcHint {
                    insert: true,
                    priority: 3,
                },
            )],
            csr: CsrHint {
                enabled: true,
                meta_ways: 4,
            },
        },
    )
}

fn sample_checkpoint() -> Vec<u8> {
    checkpoint_with(ReplSnapshot::Srrip { rrpv: vec![2, 3] })
}

/// A tiny but structurally complete checkpoint (geometries far smaller
/// than the real system; the codec does not care) whose caches hold one
/// set with replacement state `repl`.
fn checkpoint_with(repl: ReplSnapshot) -> Vec<u8> {
    use prophet_sim_core::{EngineSnapshot, WarmStart};
    use prophet_sim_mem::cache::CacheSnapshot;
    use prophet_sim_mem::dram::DramSnapshot;
    use prophet_sim_mem::hierarchy::HierarchySnapshot;
    use prophet_sim_mem::{Line, LineState, Pc};
    use prophet_temporal::{
        MetaSlotSnapshot, MetaTableSnapshot, TemporalSnapshot, TrainingSnapshot,
    };
    let cache = CacheSnapshot {
        lines: vec![
            None,
            Some(LineState {
                line: Line(7),
                dirty: true,
                prefetched: true,
                trigger_pc: Some(Pc(0x40)),
            }),
        ],
        repl: vec![repl],
        way_lo: 1,
    };
    encode_checkpoint(
        &key(),
        &WarmupCheckpoint {
            warm: WarmStart {
                engine: EngineSnapshot {
                    complete: vec![1, 2, 3],
                    retired: vec![1, 2, 3],
                    count: 3,
                    fetch_cycle: 4,
                    fetch_slots: 1,
                    retire_cycle: 5,
                    retire_slots: 2,
                    retire_head: 5,
                },
                memory: HierarchySnapshot {
                    l1d: cache.clone(),
                    l2: cache.clone(),
                    llc: cache,
                    dram: DramSnapshot {
                        next_free: vec![99],
                    },
                    inflight: vec![(Line(5), 140)],
                },
                warmup: 1_000,
            },
            temporal: TemporalSnapshot {
                table: MetaTableSnapshot {
                    sets: 16,
                    max_ways: 8,
                    ways: 2,
                    clock: 12,
                    entries: vec![MetaSlotSnapshot {
                        index: 3,
                        tag: 9,
                        target: 1234,
                        priority: 1,
                        rrpv: 2,
                        stamp: 11,
                    }],
                },
                trainer: TrainingSnapshot {
                    entries: vec![(0x400, 77, true), (0, 0, false)],
                },
            },
        },
    )
}

/// An artifact kind's name, a valid encoding and whether its decoder
/// rejects some bytes.
type DecodeCase = (&'static str, Vec<u8>, fn(&[u8]) -> bool);

/// Every possible truncation of every artifact kind decodes to an error —
/// no panic, and never a silent partial success.
#[test]
fn truncated_files_error_for_every_prefix_length() {
    let cases: [DecodeCase; 3] = [
        ("profile", sample_profile(), |b| decode_profile(b).is_err()),
        ("hints", sample_hints(), |b| decode_hints(b).is_err()),
        ("checkpoint", sample_checkpoint(), |b| {
            decode_checkpoint(b).is_err()
        }),
    ];
    for (name, bytes, decode) in cases {
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]),
                "{name}: truncation at {cut}/{} must be an error",
                bytes.len()
            );
        }
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = sample_profile();
    bytes[0] ^= 0xFF;
    assert!(matches!(decode_profile(&bytes), Err(DecodeError::BadMagic)));
}

/// Files from a future format version must error, never panic and never
/// misparse: the version check runs before any payload interpretation.
#[test]
fn future_format_version_is_rejected() {
    for kind in [0u16, FORMAT_VERSION + 1, u16::MAX] {
        let mut bytes = sample_checkpoint();
        bytes[8..10].copy_from_slice(&kind.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&bytes),
            Err(DecodeError::UnsupportedVersion { found: kind }),
            "version {kind} must be unsupported"
        );
    }
}

#[test]
fn kind_confusion_is_rejected() {
    assert!(matches!(
        decode_hints(&sample_profile()),
        Err(DecodeError::WrongKind { .. })
    ));
    assert!(matches!(
        decode_profile(&sample_checkpoint()),
        Err(DecodeError::WrongKind { .. })
    ));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = sample_hints();
    bytes.push(0xAA);
    assert!(matches!(
        decode_hints(&bytes),
        Err(DecodeError::TrailingBytes { .. })
    ));
}

#[test]
fn flipped_payload_bytes_never_panic() {
    let bytes = sample_checkpoint();
    for i in 0..bytes.len() {
        let mut b = bytes.clone();
        b[i] ^= 0x5A;
        let _ = decode_checkpoint(&b); // Ok or Err both fine; panics are not.
    }
}

/// Replacement-policy tags outside the two the codec writes (including
/// those of retired policies) decode to a typed error, never a panic.
#[test]
fn unknown_replacement_tag_is_corrupt() {
    let srrip = sample_checkpoint();
    // The first byte that differs from a PLRU-state checkpoint is the
    // first cache's replacement tag.
    let plru = checkpoint_with(ReplSnapshot::Plru { bits: vec![true] });
    let tag_at = srrip
        .iter()
        .zip(&plru)
        .position(|(a, b)| a != b)
        .expect("the encodings differ");
    assert_eq!((srrip[tag_at], plru[tag_at]), (2, 1), "found the tag byte");
    for tag in [0u8, 3, 4, 255] {
        let mut bytes = srrip.clone();
        bytes[tag_at] = tag;
        assert_eq!(
            decode_checkpoint(&bytes),
            Err(DecodeError::Corrupt("unknown replacement-policy tag")),
            "tag {tag}"
        );
    }
}

fn temp_store(tag: &str) -> ArtifactStore {
    let dir = std::env::temp_dir().join(format!("prophet-store-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ArtifactStore::open(&dir).unwrap()
}

#[test]
fn store_misses_then_hits_and_counts_activity() {
    let store = temp_store("activity");
    let k = key();
    assert!(store.load_profile(&k).unwrap().is_none());
    let (_, artifact) = decode_profile(&sample_profile()).unwrap();
    store.save_profile(&k, &artifact).unwrap();
    assert_eq!(store.load_profile(&k).unwrap(), Some(artifact));
    let (_, ckpt) = decode_checkpoint(&sample_checkpoint()).unwrap();
    assert!(store.load_checkpoint(&k).unwrap().is_none());
    store.save_checkpoint(&k, &ckpt).unwrap();
    assert_eq!(store.load_checkpoint(&k).unwrap(), Some(ckpt));
    let a = store.activity();
    assert_eq!(
        (
            a.profiles_created,
            a.profiles_reused,
            a.checkpoints_created,
            a.checkpoints_reused
        ),
        (1, 1, 1, 1)
    );
    std::fs::remove_dir_all(store.dir()).ok();
}

/// A digest collision (a file whose embedded key differs from the lookup
/// key) reads as a miss, not as somebody else's state.
#[test]
fn key_echo_mismatch_is_a_miss() {
    let store = temp_store("echo");
    let other = StoreKey {
        warmup: 12345,
        ..key()
    };
    // Plant key()'s artifact at `other`'s path by hand.
    std::fs::write(
        store.path_for(ArtifactKind::Profile, &other),
        sample_profile(),
    )
    .unwrap();
    assert!(store.load_profile(&other).unwrap().is_none());
    std::fs::remove_dir_all(store.dir()).ok();
}

/// A corrupt file is a typed error (callers treat it as a miss + warning).
#[test]
fn corrupt_file_is_an_error_not_a_panic() {
    let store = temp_store("corrupt");
    let k = key();
    std::fs::write(store.path_for(ArtifactKind::Checkpoint, &k), b"garbage").unwrap();
    assert!(store.load_checkpoint(&k).is_err());
    std::fs::remove_dir_all(store.dir()).ok();
}
