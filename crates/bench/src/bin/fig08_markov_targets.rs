//! Figure 8: the distribution of Markov target counts (T = 1..5) per
//! address across the SPEC-like workloads.

use prophet_sim_core::trace::MemOp;
use prophet_temporal::{MarkovCensus, TrainingUnit};
use prophet_workloads::{workload, SPEC_WORKLOADS};

fn main() {
    prophet_bench::expect_no_args("fig08_markov_targets");
    println!("Figure 8: Markov target multiplicity (fraction of addresses with T targets)");
    println!(
        "{:<18} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "workload", "T=1", "T=2", "T=3", "T=4", "T=5"
    );
    let mut sums = vec![0.0f64; 5];
    let mut n = 0;
    for name in SPEC_WORKLOADS {
        let w = workload(name);
        let mut census = MarkovCensus::new(5);
        let mut trainer = TrainingUnit::default();
        for inst in w.stream() {
            if let Some(MemOp::Load(addr)) = inst.op {
                if let Some((prev, cur)) = trainer.observe(inst.pc, addr.line()) {
                    census.record(prev, cur);
                }
            }
        }
        let h = census.histogram();
        println!(
            "{:<18} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            name, h[0], h[1], h[2], h[3], h[4]
        );
        for (s, v) in sums.iter_mut().zip(&h) {
            *s += v;
        }
        n += 1;
    }
    println!(
        "{:<18} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}   (paper: 0.549 0.209 0.097 ... )",
        "mean",
        sums[0] / n as f64,
        sums[1] / n as f64,
        sums[2] / n as f64,
        sums[3] / n as f64,
        sums[4] / n as f64
    );
}
