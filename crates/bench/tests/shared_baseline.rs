//! The cold grid shares one simulation between the Baseline cell and RPG2's
//! identification pass, under either L1. Every row must equal what the two
//! schemes give when run on their own: `Harness::run(Scheme::Baseline, ..)` and
//! `Harness::rpg2`. The workloads cover both RPG2 outcomes: on
//! `pagerank_100000_100` a PC qualifies and the distance sweep runs, on
//! `mcf` nothing qualifies and the result is the baseline itself.

use prophet_bench::{Harness, L1Scheme, Scheme, MATRIX_SCHEMES};
use prophet_sim_core::TraceSource;
use prophet_workloads::workload_sized;

#[test]
fn grid_rows_equal_the_standalone_baseline_and_rpg2() {
    for l1 in [L1Scheme::Stride, L1Scheme::Ipcp] {
        let h = Harness {
            warmup: 60_000,
            measure: 60_000,
            l1,
            ..Harness::default()
        };
        let workloads: Vec<Box<dyn TraceSource + Send + Sync>> = ["pagerank_100000_100", "mcf"]
            .iter()
            .map(|name| workload_sized(name, h.warmup + h.measure))
            .collect();
        let want: Vec<_> = workloads
            .iter()
            .map(|w| {
                let base = h.run(Scheme::Baseline, w.as_ref());
                (base.into_report(), h.rpg2(w.as_ref()))
            })
            .collect();
        assert!(want[0].1.distance.is_some(), "RPG2 sweeps on pagerank");
        assert!(
            want[1].1.qualified_pcs.is_empty(),
            "nothing qualifies on mcf"
        );
        for jobs in [1, 2] {
            let rows = h.run_matrix_stored(&workloads, jobs, None);
            for (row, (base, rpg2)) in rows.iter().zip(&want) {
                let at = format!("{} under {l1:?} at --jobs {jobs}", row.workload);
                assert_eq!(&row.base, base, "baseline of {at}");
                assert_eq!(&row.rpg2, rpg2, "RPG2 of {at}");
            }
        }
    }
}

#[test]
fn rpg2_rides_the_baseline_cell_only_from_a_cold_start() {
    // Every public cell starts cold; the store branch of
    // `run_matrix_stored` keeps RPG2 apart (pinned by `tune_shared.rs` and
    // `start_equivalence.rs`).
    let stride = Harness::default();
    let ipcp = Harness {
        l1: L1Scheme::Ipcp,
        ..Harness::default()
    };
    let shared = [
        vec![Scheme::Baseline, Scheme::Rpg2],
        vec![Scheme::Triangel],
        vec![Scheme::Prophet],
    ];
    assert_eq!(stride.cells(&MATRIX_SCHEMES), shared);
    assert_eq!(ipcp.cells(&MATRIX_SCHEMES), shared);
    assert_eq!(
        stride.cells(&[Scheme::Baseline, Scheme::Triage4]),
        [vec![Scheme::Baseline], vec![Scheme::Triage4]],
        "without RPG2 the baseline cell runs alone"
    );
}
