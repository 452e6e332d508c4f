//! # prophet-sim-mem
//!
//! Memory-hierarchy substrate for the Rust reproduction of *Profile-Guided
//! Temporal Prefetching* (Prophet, ISCA 2025).
//!
//! The paper evaluates Prophet on a gem5 full-system model (Table 1). This
//! crate rebuilds the pieces of that model the prefetchers interact with:
//!
//! * [`addr`] — byte/line/PC address newtypes.
//! * [`replacement`] — the tree-PLRU (L1D/L2) and SRRIP (LLC) policies.
//! * [`cache`] — set-associative caches with LLC way partitioning (the
//!   mechanism by which the metadata table shares space with the LLC).
//! * [`bloom`] — the counting Bloom filter Triage uses for resizing.
//! * [`dram`] — a bandwidth-queued LPDDR5-class channel model.
//! * [`config`] — the paper's Table 1 system configuration.
//! * [`hierarchy`] — the assembled L1D/L2/LLC/DRAM system with demand and
//!   prefetch entry points and PMU-grade per-PC counters.
//!
//! # Example
//!
//! ```
//! use prophet_sim_mem::{Hierarchy, SystemConfig, Line, Pc};
//!
//! let mut mem = Hierarchy::new(&SystemConfig::isca25());
//! let cold = mem.demand_access(Pc(0x400), Line(42), false, 0);
//! assert!(!cold.l1_hit);
//! let warm = mem.demand_access(Pc(0x400), Line(42), false, 10_000);
//! assert!(warm.l1_hit);
//! ```

pub mod addr;
pub mod bloom;
pub mod cache;
pub mod config;
pub mod dram;
pub mod flat;
pub mod hierarchy;
pub mod replacement;

pub use addr::{Addr, Cycle, Line, Pc, LINE_BYTES, LINE_SHIFT};
pub use bloom::CountingBloom;
pub use cache::{Cache, CacheConfig, CacheSnapshot, CacheStats, LineState};
pub use config::{CoreConfig, SystemConfig, LLC_SETS, MAX_META_WAYS};
pub use dram::{Dram, DramConfig, DramSnapshot, DramStats};
pub use flat::{
    find_first_u16, find_first_u32, find_first_u64, FlatMap, InflightTable, LineAligned,
    HOST_LINE_BYTES,
};
pub use hierarchy::{
    DemandOutcome, Hierarchy, HierarchySnapshot, L2Event, MemStats, PcMemStats, PcStatsMap,
    PrefetchOutcome,
};
pub use replacement::{ReplKind, ReplSnapshot, SetRepl};
