//! # prophet-store
//!
//! The persistent artifact layer of the Prophet (ISCA'25) reproduction.
//!
//! Prophet's premise is that profiling is an **offline, one-time** step
//! whose artifact — per-PC counters, the analyzed hint set, the CSR — is
//! attached to a binary and reused across deployments (PAPER.md §3–4).
//! Until this crate existed the reproduction recomputed everything
//! in-process on every run; this crate makes the artifacts durable:
//!
//! * [`codec`] — a hand-rolled, versioned little-endian binary codec (the
//!   build environment is offline, so no serde); decoding is total — bad
//!   input yields [`codec::DecodeError`], never a panic;
//! * [`key`] — content addressing: `(workload spec string, SystemConfig
//!   digest, warm-up insts, measure insts)` + the format version name each
//!   artifact;
//! * [`artifact`] — the three artifact kinds: merged **profiles**
//!   ([`ProfileArtifact`]), analyzed **hint sets** ([`prophet::HintSet`]),
//!   and **warm-up checkpoints** ([`WarmupCheckpoint`]);
//! * [`store`] — [`ArtifactStore`], the flat on-disk cache with atomic
//!   writes and miss-on-corruption semantics.
//!
//! The artifact format and the checkpoint-validity rule are specified in
//! DESIGN.md §6.
//!
//! # Example
//!
//! ```
//! use prophet_store::{ArtifactStore, ProfileArtifact, StoreKey, config_digest};
//! use prophet_sim_mem::SystemConfig;
//!
//! let dir = std::env::temp_dir().join(format!("prophet-store-doc-{}", std::process::id()));
//! let store = ArtifactStore::open(&dir).unwrap();
//! let key = StoreKey {
//!     workload: "mcf+l1=stride".into(),
//!     config: config_digest(&SystemConfig::isca25()),
//!     warmup: 200_000,
//!     measure: 650_000,
//! };
//! assert!(store.load_profile(&key).unwrap().is_none(), "cold store misses");
//! let artifact = ProfileArtifact { counters: Default::default(), loops: 1 };
//! store.save_profile(&key, &artifact).unwrap();
//! assert_eq!(store.load_profile(&key).unwrap().as_ref(), Some(&artifact));
//! # std::fs::remove_dir_all(dir).ok();
//! ```

pub mod artifact;
pub mod codec;
pub mod key;
pub mod store;
pub mod warn;

/// Version byte of the on-disk format. Bump on any layout change: files
/// from other versions decode to [`codec::DecodeError::UnsupportedVersion`]
/// and therefore read as misses, never as garbage state.
pub const FORMAT_VERSION: u16 = 2;

pub use artifact::{
    decode_checkpoint, decode_counters, decode_hints, decode_profile, encode_checkpoint,
    encode_counters, encode_hints, encode_profile, ArtifactKind, ProfileArtifact, WarmupCheckpoint,
    MAGIC,
};
pub use codec::{DecodeError, Decoder, Encoder};
pub use key::{config_digest, fnv1a, StoreKey};
pub use store::{read_hints_file, write_hints_file, ArtifactStore, StoreActivity, StoreError};
pub use warn::store_warn;
