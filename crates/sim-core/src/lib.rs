//! # prophet-sim-core
//!
//! Trace-driven simulation driver for the Prophet (ISCA'25) reproduction:
//!
//! * [`trace`] — the instruction/trace format with address dependencies;
//! * [`engine`] — the out-of-order core timing model (ROB window, fetch and
//!   commit widths, dependency-serialized loads);
//! * [`sim`] — the assembled simulator: engine + hierarchy + prefetchers;
//! * [`report`] — run reports, speedups and geometric means.
//!
//! # Example
//!
//! ```
//! use prophet_sim_core::{simulate, TraceInst, VecTrace};
//! use prophet_prefetch::{NoL1Prefetch, NoL2Prefetch};
//! use prophet_sim_mem::{Addr, Pc, SystemConfig};
//!
//! let trace = VecTrace::new(
//!     "demo",
//!     (0..10_000).map(|i| TraceInst::load(Pc(1), Addr(i * 64))).collect(),
//! );
//! let report = simulate(
//!     &SystemConfig::isca25(),
//!     &trace,
//!     Box::new(NoL1Prefetch),
//!     Box::new(NoL2Prefetch),
//!     1_000,
//!     5_000,
//! );
//! assert!(report.ipc > 0.0);
//! ```

pub mod engine;
pub mod report;
pub mod sim;
pub mod trace;

pub use engine::{Engine, EngineSnapshot, EngineStats, MemBackend};
pub use report::{geomean, SimReport};
pub use sim::{simulate, MemSystem, Simulator, WarmStart};
pub use trace::{CursorIter, MemOp, TraceCursor, TraceInst, TraceSource, VecTrace};
