//! Figure 1: an interleaved metadata access pattern (blue = useful, red =
//! useless metadata accesses; stars = first accesses) and how Triangel's
//! PatternConf collapses on it, rejecting the interleaved blue stars.
//!
//! The pattern is the omnetpp-style interleaved component run through the
//! shared temporal engine with an unlimited-size table and no insertion
//! policy (footnote 1 of the paper).

use prophet_prefetch::L2Prefetcher;
use prophet_sim_mem::hierarchy::L2Event;
use prophet_sim_mem::{Line, Pc};
use prophet_temporal::Triangel;
use prophet_workloads::{PatternSpec, ProtoInst};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    prophet_bench::RunArgs::parse_or_exit("fig01_metadata_pattern", &[]);
    let mut rng = StdRng::seed_from_u64(0x0F16_0001);
    // Dense red bursts, as in the paper's Figure 1 trace.
    let spec = PatternSpec::InterleavedBursts {
        pc: 0x42,
        lines: 400,
        base: 1 << 20,
        useful_run: 28,
        churn_run: 56,
        churn_pool: 10,
        pad: 0,
    };
    let mut state = spec.instantiate(&mut rng);
    let mut tri = Triangel::default();
    // Reference: unlimited table, no policy — classifies each metadata
    // access as useful (blue) or useless (red) or first (star).
    let mut reference: std::collections::HashMap<Line, Line> = std::collections::HashMap::new();
    let mut last: Option<Line> = None;

    println!("idx  kind        PatternConf  triangel-inserts?");
    let mut burst = Vec::<ProtoInst>::new();
    for idx in 0..1_200u64 {
        burst.clear();
        state.burst(&mut burst, &mut rng);
        let line = burst[0].op.expect("pattern emits loads").addr().line();
        let kind = match last {
            None => "star",
            Some(prev) => match reference.get(&prev) {
                None => {
                    reference.insert(prev, line);
                    "star"
                }
                Some(&t) if t == line => "blue(useful)",
                Some(_) => {
                    reference.insert(prev, line);
                    "red(useless)"
                }
            },
        };
        last = Some(line);
        let before = tri.meta_stats().rejected_insertions;
        tri.on_l2_access(&L2Event {
            pc: Pc(0x42),
            line,
            l2_hit: false,
            from_l1_prefetch: false,
            now: idx,
        });
        let rejected = tri.meta_stats().rejected_insertions > before;
        let conf = tri.pattern_conf(Pc(0x42)).unwrap_or(8);
        if idx % 8 == 0 || kind != "blue(useful)" {
            println!(
                "{idx:>4} {kind:<12} {conf:>6}       {}",
                if rejected { "REJECTED" } else { "inserted" }
            );
        }
    }
    let s = tri.meta_stats();
    println!(
        "\nsummary: {} insertions, {} rejected — Triangel rejects interleaved stars once the churn collapses PatternConf (Figure 1)",
        s.insertions, s.rejected_insertions
    );
}
