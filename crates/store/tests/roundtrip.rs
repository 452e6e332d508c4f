//! Codec round-trip properties: for every artifact kind, decode(encode(x))
//! must reproduce `x` *and* the embedded key exactly — bit-for-bit, since
//! the warm-start path relies on decoded checkpoints being behaviourally
//! identical to the in-memory originals.

use prophet::{CsrHint, HintSet, PcHint, PcProfile, ProfileCounters};
use prophet_sim_core::{EngineSnapshot, WarmStart};
use prophet_sim_mem::cache::CacheSnapshot;
use prophet_sim_mem::dram::DramSnapshot;
use prophet_sim_mem::hierarchy::HierarchySnapshot;
use prophet_sim_mem::replacement::ReplSnapshot;
use prophet_sim_mem::{Line, LineState, Pc};
use prophet_store::{
    decode_checkpoint, decode_hints, decode_profile, encode_checkpoint, encode_hints,
    encode_profile, ProfileArtifact, StoreKey, WarmupCheckpoint,
};
use prophet_temporal::{MetaSlotSnapshot, MetaTableSnapshot, TemporalSnapshot, TrainingSnapshot};
use proptest::prelude::*;

fn key_from(seed: u64) -> StoreKey {
    StoreKey {
        workload: format!("wl_{seed}+l1=stride"),
        config: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        warmup: seed % 1_000_000,
        measure: (seed / 3) % 1_000_000,
    }
}

/// Builds a small but fully populated cache snapshot from raw entropy.
fn cache_from(words: &[u64], ways: usize) -> CacheSnapshot {
    let sets = 4usize;
    let lines = (0..sets * ways)
        .map(|i| {
            let w = words[i % words.len().max(1)].wrapping_add(i as u64);
            if w % 3 == 0 {
                None
            } else {
                Some(LineState {
                    line: Line(w % (1 << 31)),
                    dirty: w % 2 == 0,
                    prefetched: w % 5 == 0,
                    trigger_pc: if w % 7 == 0 { Some(Pc(w % 997)) } else { None },
                })
            }
        })
        .collect();
    let repl = (0..sets)
        .map(|s| match (words[s % words.len().max(1)]) % 2 {
            0 => ReplSnapshot::Plru {
                bits: vec![false; ways.next_power_of_two().max(2) - 1],
            },
            _ => ReplSnapshot::Srrip {
                rrpv: vec![2; ways],
            },
        })
        .collect();
    CacheSnapshot {
        lines,
        repl,
        way_lo: words[0] as usize % ways,
    }
}

proptest! {
    #[test]
    fn profile_artifacts_round_trip(
        seed in 0u64..1 << 40,
        pcs in proptest::collection::vec((0u64..1 << 48, 0.0f64..1.0, 0.0f64..1e9), 0..50),
        loops in 0u32..100,
    ) {
        let counters = ProfileCounters {
            per_pc: pcs
                .iter()
                .map(|&(pc, acc, n)| {
                    (pc, PcProfile { accuracy: acc, issued: n, l2_misses: n * 0.5 })
                })
                .collect(),
            insertions: seed as f64 * 0.25,
            replacements: seed as f64 * 0.125,
        };
        let artifact = ProfileArtifact { counters, loops };
        let key = key_from(seed);
        let (k2, a2) = decode_profile(&encode_profile(&key, &artifact)).unwrap();
        prop_assert_eq!(k2, key);
        prop_assert_eq!(a2, artifact);
    }

    #[test]
    fn hint_sets_round_trip(
        seed in 0u64..1 << 40,
        hints in proptest::collection::vec((0u64..1 << 48, any::<bool>(), 0u64..4), 0..128),
        enabled in any::<bool>(),
        ways in 0u64..9,
    ) {
        let set = HintSet {
            pc_hints: hints
                .iter()
                .map(|&(pc, insert, prio)| (pc, PcHint { insert, priority: prio as u8 }))
                .collect(),
            csr: CsrHint { enabled, meta_ways: ways as usize },
        };
        let key = key_from(seed);
        let (k2, s2) = decode_hints(&encode_hints(&key, &set)).unwrap();
        prop_assert_eq!(k2, key);
        prop_assert_eq!(s2, set);
    }

    #[test]
    fn checkpoints_round_trip(
        seed in 0u64..1 << 40,
        words in proptest::collection::vec(1u64..u64::MAX, 8..64),
        rob in 4u64..64,
        meta in proptest::collection::vec((0u64..64 * 8 * 12, 0u64..1 << 31), 0..80),
        trainer in proptest::collection::vec((0u64..1 << 48, 0u64..1 << 31, any::<bool>()), 0..32),
    ) {
        let engine = EngineSnapshot {
            complete: words.iter().map(|&w| w % 1_000_000).take(rob as usize).collect(),
            retired: words.iter().map(|&w| w % 999_983).take(rob as usize).collect(),
            count: words[0],
            fetch_cycle: words[1 % words.len()],
            fetch_slots: words[2 % words.len()] % 10,
            retire_cycle: words[3 % words.len()],
            retire_slots: words[4 % words.len()] % 10,
            retire_head: words[5 % words.len()],
        };
        let memory = HierarchySnapshot {
            l1d: cache_from(&words, 4),
            l2: cache_from(&words, 8),
            llc: cache_from(&words, 16),
            dram: DramSnapshot { next_free: words.iter().map(|&w| w % 1_000_000).take(4).collect() },
            inflight: words.iter().map(|&w| (Line(w % (1 << 31)), w % 500_000)).collect(),
        };
        let temporal = TemporalSnapshot {
            table: MetaTableSnapshot {
                sets: 64,
                max_ways: 8,
                ways: words[0] % 9,
                clock: words[1 % words.len()],
                entries: meta
                    .iter()
                    .map(|&(idx, t)| MetaSlotSnapshot {
                        index: idx,
                        tag: (t % 1024) as u16,
                        target: t as u32 & ((1 << 31) - 1),
                        priority: (t % 4) as u8,
                        rrpv: (t % 4) as u8,
                        stamp: t,
                    })
                    .collect(),
            },
            trainer: TrainingSnapshot { entries: trainer },
        };
        let ckpt = WarmupCheckpoint {
            warm: WarmStart { engine, memory, warmup: seed % 10_000_000 },
            temporal,
        };
        let key = key_from(seed);
        let (k2, c2) = decode_checkpoint(&encode_checkpoint(&key, &ckpt)).unwrap();
        prop_assert_eq!(k2, key);
        prop_assert_eq!(c2, ckpt);
    }

    /// f64 payloads round-trip by bit pattern, including the values plain
    /// text formatting would mangle.
    #[test]
    fn f64_bit_exactness(bits in proptest::collection::vec(0u64..u64::MAX, 1..8)) {
        let counters = ProfileCounters {
            per_pc: bits
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    (i as u64, PcProfile {
                        accuracy: f64::from_bits(b),
                        issued: f64::from_bits(b.rotate_left(7)),
                        l2_misses: f64::from_bits(b.rotate_left(23)),
                    })
                })
                .collect(),
            insertions: f64::INFINITY,
            replacements: f64::MIN_POSITIVE,
        };
        let artifact = ProfileArtifact { counters, loops: 1 };
        let key = key_from(bits[0]);
        let (_, a2) = decode_profile(&encode_profile(&key, &artifact)).unwrap();
        for (pc, p) in &artifact.counters.per_pc {
            let q = &a2.counters.per_pc[pc];
            prop_assert_eq!(p.accuracy.to_bits(), q.accuracy.to_bits());
            prop_assert_eq!(p.issued.to_bits(), q.issued.to_bits());
            prop_assert_eq!(p.l2_misses.to_bits(), q.l2_misses.to_bits());
        }
    }
}
