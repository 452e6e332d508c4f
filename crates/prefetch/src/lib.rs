//! # prophet-prefetch
//!
//! Prefetcher framework for the Prophet (ISCA'25) reproduction: the
//! [`traits::L1Prefetcher`]/[`traits::L2Prefetcher`] interfaces the simulator
//! drives, the Table 1 degree-8 [`stride::StridePrefetcher`], the Figure 17
//! [`ipcp::IpcpPrefetcher`], and request filtering.
//!
//! # Example
//!
//! ```
//! use prophet_prefetch::{L1Prefetcher, StridePrefetcher};
//! use prophet_sim_mem::{Addr, Pc};
//!
//! let mut pf = StridePrefetcher::default();
//! for i in 0..4 {
//!     pf.on_l1_access(Pc(0x400), Addr(i * 64), false);
//! }
//! // A confirmed 64-byte stride now produces prefetches.
//! let reqs = pf.on_l1_access(Pc(0x400), Addr(4 * 64), false);
//! assert!(!reqs.is_empty());
//! ```

pub mod ipcp;
pub mod queue;
pub mod small;
pub mod stride;
pub mod traits;

pub use ipcp::IpcpPrefetcher;
pub use queue::RecentFilter;
pub use small::SmallList;
pub use stride::{StridePrefetcher, PAGE_BYTES};
pub use traits::{
    L1PrefetchList, L1Prefetcher, L2Decision, L2Prefetcher, MetaTableStats, NoL1Prefetch,
    NoL2Prefetch, PrefetchRequest, L1_INLINE_PREFETCHES, L2_INLINE_PREFETCHES,
};
