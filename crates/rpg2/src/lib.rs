//! # prophet-rpg2
//!
//! The RPG2 (ASPLOS'24) software indirect-access prefetching baseline,
//! simulated per the Prophet paper's own methodology (Section 5.1):
//! qualified PCs (≥10% of cache misses, stride-supported prefetch kernel)
//! get a hint-buffer entry, accesses from them issue a prefetch at
//! `address + distance`, and the distance is tuned by a search over
//! candidate distances, reporting the optimum.
//!
//! * [`kernel`] — miss-share + stride-kernel qualification from a trace
//!   scan and a baseline miss profile;
//! * [`swpf`] — the hint-buffer software prefetcher;
//! * [`rpg2`] — [`tune`]: qualify, instrument, and sweep the distance.
//!
//! The crate is RPG2's policy only: it runs no simulation. The caller owns
//! the machine, the window and the start, and runs every pass on them —
//! the baseline that feeds identification and each distance candidate
//! [`tune`] asks for (`prophet_bench::Harness::rpg2`), so RPG2 measures on
//! the same machine as the baseline it is compared with.

pub mod kernel;
pub mod rpg2;
pub mod swpf;

pub use kernel::{
    KernelAnalysis, KernelScan, PcStream, MISS_SHARE_THRESHOLD, STRIDE_MODE_THRESHOLD,
};
pub use rpg2::{tune, Rpg2Result, DISTANCE_CANDIDATES};
pub use swpf::Rpg2Prefetcher;
