//! CRONO diagnosis at the fig15 measurement window.
use prophet_bench::{Harness, Scheme, Start};
use prophet_workloads::workload_sized;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "pagerank_100000_100".into());
    let h = Harness {
        warmup: 1_100_000,
        measure: 1_000_000,
        ..Harness::default()
    };
    // The same sized spec fig15_crono measures (repeats + graph scale).
    let w = workload_sized(&name, h.warmup + h.measure);
    let base = h
        .run(Scheme::Baseline, w.as_ref(), Start::Cold)
        .into_report();
    println!("base: {base}");
    let tri = h
        .run(Scheme::Triangel, w.as_ref(), Start::Cold)
        .into_report();
    println!("tri:  {tri}");
    println!("tri meta: {:?}", tri.meta);
    let pro = h
        .run(Scheme::Prophet, w.as_ref(), Start::Cold)
        .into_report();
    println!("pro:  {pro}");
    println!("pro meta: {:?}", pro.meta);
}
