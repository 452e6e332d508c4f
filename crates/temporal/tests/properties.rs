//! Property-based tests for the temporal-prefetching machinery.

use prophet_sim_mem::hierarchy::L2Event;
use prophet_sim_mem::{Line, Pc};
use prophet_temporal::{
    InsertionPolicy, MetaRepl, MetaTableConfig, ResizePolicy, SatCounter, TemporalConfig,
    TemporalEngine,
};
use proptest::prelude::*;

fn engine(degree: usize) -> TemporalEngine {
    TemporalEngine::new(TemporalConfig {
        degree,
        insertion: InsertionPolicy::Always,
        resize: ResizePolicy::Fixed,
        table: MetaTableConfig {
            sets: 64,
            max_ways: 8,
            repl: MetaRepl::Lru,
            priority_replacement: false,
        },
        initial_ways: 8,
    })
}

fn ev(pc: u64, line: u64) -> L2Event {
    L2Event {
        pc: Pc(pc),
        line: Line(line),
        l2_hit: false,
        from_l1_prefetch: false,
        now: 0,
    }
}

proptest! {
    /// After two identical passes over any sequence of distinct lines, the
    /// engine predicts every successor (and the chain respects the degree).
    /// Lines stay below 2^16 so each maps to a unique (set, tag) pair —
    /// beyond that the compressed format aliases by design.
    #[test]
    fn learned_sequence_predicts_successors(
        seq in proptest::collection::hash_set(0u64..1 << 16, 3..60),
        degree in 1usize..5,
    ) {
        let seq: Vec<u64> = seq.into_iter().collect();
        let mut e = engine(degree);
        for _ in 0..2 {
            for &l in &seq {
                e.decide(&ev(1, l), 1);
            }
        }
        // Third pass: each access must predict at least its direct
        // successor and never more than `degree` targets.
        for (i, &l) in seq.iter().enumerate().take(seq.len() - 1) {
            let d = e.decide(&ev(1, l), 1);
            prop_assert!(d.prefetches.len() <= degree);
            prop_assert_eq!(
                d.prefetches.first().map(|r| r.line),
                Some(Line(seq[i + 1])),
                "successor of element {} mispredicted", i
            );
        }
    }

    /// Saturating counters stay within their width under arbitrary updates.
    #[test]
    fn sat_counter_bounds(
        bits in 1u8..8,
        init in 0u8..255,
        ops in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut c = SatCounter::new(bits, init);
        for up in ops {
            if up { c.inc() } else { c.dec() }
            prop_assert!(c.value() <= c.max());
        }
    }

    /// Training with interleaved PCs keeps the streams independent: each
    /// PC's successors come only from its own sequence.
    #[test]
    fn pc_streams_are_independent(
        a in proptest::collection::hash_set(0u64..1 << 10, 3..30),
        b in proptest::collection::hash_set((1u64 << 10)..(1 << 11), 3..30),
    ) {
        let a: Vec<u64> = a.into_iter().collect();
        let b: Vec<u64> = b.into_iter().collect();
        let mut e = engine(1);
        let rounds = 2;
        for _ in 0..rounds {
            for i in 0..a.len().max(b.len()) {
                if i < a.len() {
                    e.decide(&ev(1, a[i]), 1);
                }
                if i < b.len() {
                    e.decide(&ev(2, b[i]), 1);
                }
            }
        }
        // Predictions for PC 1's lines stay within PC 1's line set.
        for &l in &a[..a.len() - 1] {
            let d = e.decide(&ev(1, l), 1);
            for t in d.prefetches.iter().map(|r| r.line) {
                prop_assert!(
                    a.contains(&t.0),
                    "PC 1 predicted a PC 2 line: {t}"
                );
            }
        }
    }

    /// Resizing down and back up never leaves stale predictions: after a
    /// shrink to zero ways, nothing is predicted.
    #[test]
    fn disabled_table_is_silent(seq in proptest::collection::vec(0u64..1 << 12, 5..50)) {
        let mut t = prophet_temporal::MetadataTable::new(
            MetaTableConfig {
                sets: 16,
                max_ways: 8,
                repl: MetaRepl::Lru,
                priority_replacement: false,
            },
            8,
        );
        for w in seq.windows(2) {
            t.insert(Line(w[0]), Line(w[1]), 1);
        }
        t.resize_into(0, &mut Vec::new());
        for &l in &seq {
            prop_assert_eq!(t.lookup(Line(l)), None);
        }
    }
}
