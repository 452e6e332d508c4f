//! # prophet-repro
//!
//! Umbrella crate for the Rust reproduction of *Profile-Guided Temporal
//! Prefetching* (Li et al., ISCA 2025). Re-exports every sub-crate so
//! examples and downstream users need a single dependency:
//!
//! * [`prophet`] — the paper's contribution (profiling, analysis, learning,
//!   hints, MVB, the Prophet prefetcher);
//! * [`prophet_bench`] — the experiment `Harness`: every scheme's run and
//!   Prophet's profiling and optimized passes;
//! * [`prophet_temporal`] — the Triage/Triangel hardware baselines and the
//!   shared Markov-metadata machinery;
//! * [`prophet_rpg2`] — the RPG2 software-prefetching baseline;
//! * [`prophet_sim_core`] / [`prophet_sim_mem`] / [`prophet_prefetch`] —
//!   the trace-driven simulator substrate;
//! * [`prophet_workloads`] — SPEC-like and CRONO workload generators;
//! * [`prophet_energy`] — the CACTI-like energy model.
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology.

pub use prophet;
pub use prophet_bench;
pub use prophet_energy;
pub use prophet_prefetch;
pub use prophet_rpg2;
pub use prophet_sim_core;
pub use prophet_sim_mem;
pub use prophet_temporal;
pub use prophet_workloads;
