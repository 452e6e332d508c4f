//! # prophet-temporal
//!
//! On-chip hardware temporal prefetchers for the Prophet (ISCA'25)
//! reproduction:
//!
//! * [`metadata`] — the compressed Markov metadata table living in LLC ways
//!   (12 entries per 64 B line, 10-bit tags, 31-bit targets) with runtime
//!   (LRU/SRRIP) and Prophet (priority-class) replacement;
//! * [`training`] — the PC-localized training unit and the Figure 8 Markov
//!   target census;
//! * [`engine`] — the shared temporal-prefetching engine with pluggable
//!   insertion/resizing policies;
//! * [`triage`] / [`triangel`] — the two hardware baselines of the paper;
//! * [`conf`] — saturating confidence counters.
//!
//! # Example
//!
//! ```
//! use prophet_temporal::Triangel;
//! use prophet_prefetch::L2Prefetcher;
//! use prophet_sim_mem::{hierarchy::L2Event, Line, Pc};
//!
//! let mut tp = Triangel::default();
//! let ev = |line| L2Event {
//!     pc: Pc(1), line: Line(line), l2_hit: false,
//!     from_l1_prefetch: false, now: 0,
//! };
//! for _ in 0..4 {
//!     for l in [10, 20, 30, 40] {
//!         tp.on_l2_access(&ev(l));
//!     }
//! }
//! let d = tp.on_l2_access(&ev(10));
//! assert!(!d.prefetches.is_empty());
//! ```

pub mod conf;
pub mod engine;
pub mod metadata;
pub mod offchip;
pub mod training;
pub mod triage;
pub mod triangel;

pub use conf::SatCounter;
pub use engine::{InsertionPolicy, ResizePolicy, TemporalConfig, TemporalEngine, TemporalSnapshot};
pub use metadata::{
    EvictedMeta, InsertOutcome, MetaRepl, MetaSlotSnapshot, MetaTableConfig, MetaTableSnapshot,
    MetadataTable, ENTRIES_PER_LINE, MAX_META_ENTRIES, TAG_BITS, TARGET_BITS,
};
pub use offchip::OffChipTemporal;
pub use training::{MarkovCensus, TrainingSnapshot, TrainingUnit};
pub use triage::Triage;
pub use triangel::{Triangel, TriangelConfig};
