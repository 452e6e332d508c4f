//! # prophet
//!
//! The core contribution of *Profile-Guided Temporal Prefetching*
//! (Li et al., ISCA 2025), reimplemented in Rust on top of the simulation
//! substrate crates:
//!
//! * [`counters`] — the PMU/PEBS counter profile and the Eq. 4/5 merge;
//! * [`profile`] — Step 1: profiling under the simplified temporal
//!   prefetcher;
//! * [`analysis`] — Step 2: Eq. 1 insertion hints, Eq. 2 replacement
//!   priorities, Eq. 3 resizing;
//! * [`learning`] — Step 3: input-adaptive counter merging;
//! * [`hints`] — the 3-bit PC hints, the 128-entry hint buffer and the CSR;
//! * [`mvb`] — the Multi-path Victim Buffer;
//! * [`prophet`] — the Prophet prefetcher with per-feature toggles
//!   (Figure 19's ablation axes);
//! * [`pipeline`] — the end-to-end Profile → Analyze → Learn loop;
//! * [`storage`] / [`pmu`] — the Section 5.10 / 5.4 overhead accounting.
//!
//! # Example: the whole loop on a synthetic workload
//!
//! ```
//! use prophet::ProphetPipeline;
//! use prophet_sim_core::{TraceInst, VecTrace};
//! use prophet_sim_mem::{Addr, Pc};
//!
//! // A small temporal pattern: a repeated cycle of lines.
//! let lines: Vec<u64> = (0..512).map(|i| (i * 37) % 4096).collect();
//! let mut insts = Vec::new();
//! for _ in 0..50 {
//!     for &l in &lines {
//!         insts.push(TraceInst::load(Pc(0x40), Addr(l * 64)));
//!     }
//! }
//! let workload = VecTrace::new("cycle", insts);
//!
//! let mut pipeline = ProphetPipeline::isca25();
//! pipeline.lengths_mut().warmup = 2_000;
//! pipeline.lengths_mut().measure = 20_000;
//! pipeline.learn_input(&workload);          // Step 1 (+3 on later inputs)
//! let hints = pipeline.hints();             // Step 2
//! // This cycle fits on-chip, so Eq. 3 rightly disables the metadata
//! // table (workloads with >LLC footprints get it enabled and sized).
//! assert!(!hints.csr.enabled);
//! let report = pipeline.run_optimized(&workload);
//! assert!(report.ipc > 0.0);
//! ```

pub mod analysis;
pub mod counters;
pub mod hints;
pub mod injection;
pub mod learning;
pub mod mvb;
pub mod pipeline;
pub mod pmu;
pub mod profile;
pub mod prophet;
pub mod storage;

pub use analysis::{analyze, AnalysisConfig};
pub use counters::{PcProfile, ProfileCounters};
pub use hints::{CsrHint, HintBuffer, HintSet, PcHint};
pub use injection::{InjectionCost, InjectionMethod};
pub use learning::{LearnedProfile, DEFAULT_LOOP_CAP};
pub use mvb::{MultiPathVictimBuffer, MvbConfig};
pub use pipeline::{ProphetPipeline, RunLengths};
pub use pmu::{measure_analysis_seconds, InstructionOverhead, ProfilingOverheadModel};
pub use profile::{profile_workload, SimplifiedTp};
pub use prophet::{Prophet, ProphetConfig, ProphetFeatures};
pub use storage::StorageBreakdown;
