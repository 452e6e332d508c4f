//! # prophet-service
//!
//! Prophet-as-a-service: a long-running daemon that closes the paper's
//! offline/online loop at fleet scale. Machines running an instrumented
//! binary submit their PMU/PEBS profile counters; the daemon merges them
//! — concurrently, deterministically — into the shared
//! [`ArtifactStore`](prophet_store::ArtifactStore), re-runs the Analysis
//! step whenever a workload's profile generation advances, and serves the
//! analyzed hint-set artifact back to any machine that asks. One shared
//! profile store learning from many clients is exactly the data-center
//! deployment the paper pitches (PAPER.md §3–4).
//!
//! The pieces:
//!
//! * [`proto`] — the length-prefixed wire protocol (a `u32` frame header
//!   + payloads in the `prophet-store` codec; total decoding, typed
//!   [`proto::ErrorCode`]s, never a daemon panic);
//! * [`merge`] — the canonical content-ordered Eq. 4/5 fold that makes
//!   any submission interleaving produce bit-identical merged profiles
//!   (and therefore hint sets byte-identical to the offline
//!   `prophet_cli profile → optimize` pipeline);
//! * [`state`] — [`ServiceState`]: the per-workload registry, two-level
//!   locking (registry lookup lock + per-key entry locks; the store's
//!   atomic renames need none), generation rules, startup recovery;
//! * [`server`] — [`Server`]: `TcpListener` + a fixed worker-thread pool
//!   (std-only; the build environment is offline);
//! * [`client`] — [`ServiceClient`]: the blocking client library under
//!   `prophet_cli submit/fetch/metrics`;
//! * [`metrics`] — [`ServiceMetrics`]: relaxed-atomic counters rendered
//!   as a deterministic plaintext `/metrics`-style snapshot.
//!
//! Architecture, wire layout, and locking/generation rules are specified
//! in DESIGN.md §8.

pub mod client;
pub mod merge;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod state;

/// Workload-spec tag separating a base workload from the content digest
/// of one persisted submission (`<spec>+sub=<digest:016x>`).
pub const PROFILE_SUB_TAG: &str = "+sub=";

pub use client::{ClientError, ServiceClient};
pub use merge::{canonicalize, merge_canonical, merge_profiles, SubmissionSet};
pub use metrics::{Op, ServiceMetrics};
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ErrorCode, FrameError, Request, RequestError, Response, SubmitAck, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server, ServerHandle};
pub use state::{ServiceError, ServiceState};
