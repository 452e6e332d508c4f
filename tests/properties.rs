//! Property-based tests on the core data structures and equations.

use prophet::PcProfile;
use prophet::{AnalysisConfig, MultiPathVictimBuffer, ProfileCounters};
use prophet_sim_mem::{CountingBloom, Line};
use prophet_temporal::{InsertOutcome, MetaRepl, MetaTableConfig, MetadataTable};
use proptest::prelude::*;

proptest! {
    /// The metadata table never exceeds its configured capacity and the
    /// allocated-entries identity (insertions − replacements = occupancy)
    /// holds under arbitrary insert streams.
    #[test]
    fn metadata_table_capacity_invariant(
        pairs in proptest::collection::vec((0u64..1 << 20, 0u64..1 << 20), 1..600),
        ways in 1usize..4,
    ) {
        let mut t = MetadataTable::new(
            MetaTableConfig {
                sets: 32,
                max_ways: 8,
                repl: MetaRepl::Lru,
                priority_replacement: false,
            },
            ways,
        );
        for (src, dst) in pairs {
            t.insert(Line(src), Line(dst), 1);
            prop_assert!(t.occupancy() <= t.capacity());
        }
        let s = t.stats();
        prop_assert_eq!(s.allocated_entries() as usize, t.occupancy());
    }

    /// Whatever was inserted last for a source is what lookup returns.
    #[test]
    fn metadata_table_lookup_returns_last_insert(
        srcs in proptest::collection::vec(0u64..128, 1..100),
    ) {
        let mut t = MetadataTable::new(
            MetaTableConfig {
                sets: 16,
                max_ways: 8,
                repl: MetaRepl::Lru,
                priority_replacement: false,
            },
            8,
        );
        let mut last = std::collections::HashMap::new();
        for (i, &s) in srcs.iter().enumerate() {
            let target = Line(1_000 + i as u64);
            match t.insert(Line(s), target, 1) {
                InsertOutcome::Replaced(_) => { last.retain(|&k, _| k != s); last.insert(s, target); }
                _ => { last.insert(s, target); }
            }
        }
        // With 128 sources over 16 sets × 96 entries nothing is evicted, so
        // every source must report its latest target.
        for (&s, &target) in &last {
            prop_assert_eq!(t.lookup(Line(s)), Some(target));
        }
    }

    /// Eq. 4 merging is a contraction: the merged accuracy always lies
    /// between the old and new values (or equals the new for fresh PCs).
    #[test]
    fn counter_merge_is_contraction(
        old_acc in 0.0f64..1.0,
        new_acc in 0.0f64..1.0,
        loops in 0u32..20,
    ) {
        let mk = |acc: f64| {
            let mut p = ProfileCounters::default();
            p.per_pc.insert(1, PcProfile { accuracy: acc, issued: 100.0, l2_misses: 10.0 });
            p
        };
        let mut merged = mk(old_acc);
        merged.merge(&mk(new_acc), loops, 4);
        let got = merged.per_pc[&1].accuracy;
        let lo = old_acc.min(new_acc) - 1e-12;
        let hi = old_acc.max(new_acc) + 1e-12;
        prop_assert!(got >= lo && got <= hi, "merged {got} outside [{lo}, {hi}]");
    }

    /// Eq. 1/2 consistency: a filtered PC is always level 0; levels are
    /// monotone in accuracy.
    #[test]
    fn analysis_levels_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let cfg = AnalysisConfig::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(cfg.priority(lo) <= cfg.priority(hi));
        if !cfg.insertion(lo) {
            prop_assert!(lo < cfg.el_acc);
        }
    }

    /// Bloom filter: no false negatives, ever.
    #[test]
    fn bloom_no_false_negatives(items in proptest::collection::vec(0u64..1 << 30, 1..300)) {
        let mut b = CountingBloom::new(1 << 12, 3);
        for &x in &items {
            b.insert(x);
        }
        for &x in &items {
            prop_assert!(b.contains(x));
        }
    }

    /// MVB: level-0 victims are never stored; stored second paths are
    /// returned whenever the table disagrees.
    #[test]
    fn mvb_respects_insertion_rule(
        key in 0u64..1 << 16,
        target in 0u64..1 << 20,
        priority in 0u8..4,
    ) {
        let mut m = MultiPathVictimBuffer::new(1);
        m.insert(key, Line(target), priority);
        let found = m.lookup(key, Some(Line(target + 1)));
        if priority == 0 {
            prop_assert!(found.is_empty());
        } else {
            prop_assert_eq!(found, vec![Line(target)]);
        }
    }

    /// Eq. 3: resizing is monotone in the allocated-entry count and never
    /// exceeds the 1 MB maximum.
    #[test]
    fn resize_monotone_and_bounded(a in 0.0f64..400_000.0, b in 0.0f64..400_000.0) {
        let cfg = AnalysisConfig::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let rl = cfg.resize(lo);
        let rh = cfg.resize(hi);
        prop_assert!(rl.meta_ways <= rh.meta_ways);
        prop_assert!(rh.meta_ways <= 8);
    }
}
