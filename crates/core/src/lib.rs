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
//! * [`hints`] — the 3-bit PC hints, the hint buffer and the CSR;
//! * [`mvb`] — the Multi-path Victim Buffer;
//! * [`prophet`] — the Prophet prefetcher with per-feature toggles
//!   (Figure 19's ablation axes);
//! * [`storage`] / [`pmu`] — the Section 5.10 / 5.4 overhead accounting.
//!
//! # Example: the whole loop on a synthetic workload
//!
//! The public pieces chain into the paper's loop: profile under
//! [`SimplifiedTp`], read the [`ProfileCounters`] out of the report, learn
//! them into a [`LearnedProfile`], analyze, then run [`Prophet`] with the
//! hints. (`prophet-bench`'s `Harness::profile` and `Harness::optimized`
//! run the two simulations at the experiments' window.)
//!
//! ```
//! use prophet::{AnalysisConfig, LearnedProfile, ProfileCounters, Prophet, ProphetConfig, SimplifiedTp};
//! use prophet_prefetch::StridePrefetcher;
//! use prophet_sim_core::{simulate, TraceInst, VecTrace};
//! use prophet_sim_mem::{Addr, Pc, SystemConfig};
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
//! let sys = SystemConfig::isca25();
//! let stride = || Box::new(StridePrefetcher::default());
//!
//! // Step 1: profile (Step 3 merges later inputs into the same state).
//! let profile = simulate(&sys, &workload, stride(), Box::new(SimplifiedTp::new()), 2_000, 20_000);
//! let mut learned = LearnedProfile::new();
//! learned.learn(ProfileCounters::from_report(&profile));
//! // Step 2: analyze. This cycle fits on-chip, so Eq. 3 rightly disables
//! // the metadata table (workloads with >LLC footprints get it enabled
//! // and sized).
//! let hints = learned.build_hints(&AnalysisConfig::default());
//! assert!(!hints.csr.enabled);
//! // The optimized binary's run.
//! let prophet = Prophet::new(ProphetConfig::default(), &hints);
//! let report = simulate(&sys, &workload, stride(), Box::new(prophet), 2_000, 20_000);
//! assert!(report.ipc > 0.0);
//! ```

pub mod analysis;
pub mod counters;
pub mod hints;
pub mod injection;
pub mod learning;
pub mod mvb;
pub mod pmu;
pub mod profile;
pub mod prophet;
pub mod storage;

pub use analysis::{analyze, AnalysisConfig};
pub use counters::{PcProfile, ProfileCounters};
pub use hints::{CsrHint, HintBuffer, HintSet, PcHint};
pub use injection::{InjectionCost, InjectionMethod};
pub use learning::{LearnedProfile, DEFAULT_LOOP_CAP};
pub use mvb::MultiPathVictimBuffer;
pub use pmu::{measure_analysis_seconds, InstructionOverhead, ProfilingOverheadModel};
pub use profile::SimplifiedTp;
pub use prophet::{Prophet, ProphetConfig, ProphetFeatures};
pub use storage::StorageBreakdown;
