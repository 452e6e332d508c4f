//! Property-based tests for the memory substrate.

use prophet_sim_mem::cache::{demand_line, Cache, CacheConfig};
use prophet_sim_mem::replacement::{ReplKind, SetRepl};
use prophet_sim_mem::{CountingBloom, Hierarchy, Line, Pc, SystemConfig};
use proptest::prelude::*;

proptest! {
    /// Both replacement policies return victims inside the allowed range.
    #[test]
    fn victims_stay_in_range(
        kind_idx in 0usize..2,
        ops in proptest::collection::vec((0usize..8, any::<bool>()), 1..200),
        lo in 0usize..4,
    ) {
        let kinds = [ReplKind::Plru, ReplKind::Srrip];
        let r = SetRepl::new(kinds[kind_idx], 8);
        let mut s = vec![0; r.set_words()];
        r.init(&mut s);
        for (way, hit) in ops {
            if hit {
                r.on_hit(&mut s, way);
            } else {
                r.on_fill(&mut s, way);
            }
        }
        let hi = 8;
        let v = r.victim(&mut s, lo, hi);
        prop_assert!((lo..hi).contains(&v));
    }

    /// Tree pseudo-LRU never evicts the most recently touched way: every
    /// node on its path points at the other half.
    #[test]
    fn lru_protects_mru(touches in proptest::collection::vec(0usize..8, 2..100)) {
        let r = SetRepl::new(ReplKind::Plru, 8);
        let mut s = vec![0; r.set_words()];
        r.init(&mut s);
        for &w in &touches {
            r.on_hit(&mut s, w);
        }
        let mru = *touches.last().unwrap();
        prop_assert_ne!(r.victim(&mut s, 0, 8), mru);
    }

    /// A cache never holds the same line twice and never exceeds capacity.
    #[test]
    fn cache_no_duplicates(lines in proptest::collection::vec(0u64..512, 1..400)) {
        let mut c = Cache::new(CacheConfig {
            name: "T",
            size_bytes: 64 * 64, // 16 sets x 4 ways... 64 lines
            ways: 4,
            hit_latency: 1,
            repl: ReplKind::Plru,
            mshrs: 4,
        });
        for &l in &lines {
            let line = Line(l);
            if !c.access(line, false).hit {
                c.fill(demand_line(line, false));
            }
            prop_assert!(c.occupancy() <= 64);
        }
        // Re-probing every resident line must hit exactly once per probe.
        for &l in &lines {
            let line = Line(l);
            if c.contains(line) {
                prop_assert!(c.access(line, false).hit);
            }
        }
    }

    /// Demand accesses through the full hierarchy always terminate with a
    /// bounded latency, and immediate re-access is at least as fast.
    #[test]
    fn hierarchy_latency_bounded_and_warming(
        addrs in proptest::collection::vec(0u64..1 << 22, 1..150),
    ) {
        let mut h = Hierarchy::new(&SystemConfig::isca25());
        let mut now = 0u64;
        for &a in &addrs {
            let first = h.demand_access(Pc(1), Line(a), false, now);
            prop_assert!(first.latency < 10_000, "latency blew up: {}", first.latency);
            now += first.latency + 1_000;
            let again = h.demand_access(Pc(1), Line(a), false, now);
            prop_assert!(again.latency <= first.latency);
            prop_assert!(again.l1_hit, "immediate re-access must hit L1");
            now += 10;
        }
    }

    /// Bloom distinct estimates never exceed the number of inserts and
    /// never undercount by more than the false-positive slack.
    #[test]
    fn bloom_estimate_bounds(items in proptest::collection::hash_set(0u64..1 << 24, 1..300)) {
        let mut b = CountingBloom::new(1 << 13, 3);
        for &x in &items {
            b.insert(x);
        }
        let est = b.distinct_estimate();
        prop_assert!(est <= items.len() as u64);
        prop_assert!(est as f64 >= 0.9 * items.len() as f64, "{est} vs {}", items.len());
    }
}
