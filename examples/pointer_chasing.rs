//! Pointer chasing: the workload class temporal prefetching exists for.
//!
//! Builds a linked-list-like traversal whose footprint exceeds the LLC,
//! shows that it serializes on DRAM misses, and that Prophet converts the
//! chain into L2 hits while RPG2 (software indirect prefetching) finds no
//! stride kernel to instrument (the paper's footnote 6 scenario).
//!
//! Run with: `cargo run --release --example pointer_chasing`

use prophet_bench::{Harness, Scheme, Start};
use prophet_sim_core::{TraceInst, VecTrace};
use prophet_sim_mem::{Addr, Pc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_chase(nodes: usize, rounds: usize) -> VecTrace {
    // A fixed pseudo-random cycle = repeatedly traversed linked list.
    let mut rng = StdRng::seed_from_u64(42);
    let mut lines: Vec<u64> = (0..nodes as u64).map(|i| 0x10_0000 + i * 3).collect();
    for i in (1..lines.len()).rev() {
        let j = rng.gen_range(0..=i);
        lines.swap(i, j);
    }
    let mut insts = Vec::new();
    let mut first = true;
    for _ in 0..rounds {
        for &l in &lines {
            if first {
                insts.push(TraceInst::load(Pc(0x40), Addr(l * 64)));
                first = false;
            } else {
                // Address comes from the previous node: the chain serializes.
                insts.push(TraceInst::load_dep(Pc(0x40), Addr(l * 64), 2));
            }
            insts.push(TraceInst::op(Pc(0x41)));
        }
    }
    VecTrace::new("pointer-chase", insts)
}

fn main() {
    let h = Harness {
        warmup: 120_000,
        measure: 400_000,
        ..Harness::default()
    };
    let w = build_chase(60_000, 5);

    let base = h.run(Scheme::Baseline, &w, Start::Cold).into_report();
    println!("baseline IPC {:.4} (serialized DRAM misses)", base.ipc);

    let rpg2 = h.rpg2(&w);
    println!(
        "rpg2: {} qualified PCs, IPC {:.4} ({:+.1}%) — no stride kernel exists in a pointer chase",
        rpg2.qualified_pcs.len(),
        rpg2.report.ipc,
        100.0 * (rpg2.report.speedup_over(&base) - 1.0),
    );

    let pro = h.run(Scheme::Prophet, &w, Start::Cold).into_report();
    println!(
        "prophet: IPC {:.4} ({:+.1}%), coverage {:.2}, accuracy {:.2}",
        pro.ipc,
        100.0 * (pro.speedup_over(&base) - 1.0),
        pro.coverage(),
        pro.accuracy()
    );
}
