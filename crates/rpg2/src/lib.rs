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
//! * [`rpg2`] — the identify → instrument → tune pipeline.

pub mod kernel;
pub mod rpg2;
pub mod swpf;

pub use kernel::{
    KernelAnalysis, KernelScan, PcStream, MISS_SHARE_THRESHOLD, STRIDE_MODE_THRESHOLD,
};
pub use rpg2::{Rpg2Pipeline, Rpg2Result, DISTANCE_CANDIDATES};
pub use swpf::Rpg2Prefetcher;
