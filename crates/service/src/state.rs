//! The daemon's shared state: the per-workload registry over the store.
//!
//! It is the one profile path: the daemon serves it over TCP, and the
//! offline `prophet_cli profile`/`optimize` open it in-process over the
//! same store directory, so offline and served hint bytes are equal by
//! construction.
//!
//! Locking is two-level. The registry lock (a plain mutex over the
//! `BTreeMap`) is held only to look up or create an entry `Arc`; all real
//! work — deduplication, the canonical merge, analysis, and the store
//! writes — happens under the *per-key* entry mutex, so submissions to
//! different workloads never contend. Both locks are poison-tolerant: an
//! entry stays consistent across a panic (see [`ServiceState::submit`]),
//! so a panicking handler costs its own request only. The store itself
//! takes no lock: each submission is its own content-addressed file, so
//! [`ArtifactStore::save_profile`]'s atomic rename is all it needs.
//!
//! Generation rule: a key's generation equals its number of *distinct*
//! submissions (byte-identical resubmissions dedup, see
//! [`crate::merge`]). Only a generation advance writes: it persists the
//! submission, then re-merges and re-analyzes in memory, so a fetch is a
//! cache read. The merged profile is never written: the submissions are
//! the state, and the plain profile key belongs to the grid's `--store`
//! cache. A restarted daemon recovers the submissions and re-merges on
//! its first fetch of a key without writing anything.

use crate::merge::{merge_canonical, SubmissionSet};
use crate::metrics::ServiceMetrics;
use crate::proto::{ErrorCode, SubmitAck};
use crate::PROFILE_SUB_TAG;
use prophet::{analyze, AnalysisConfig, ProfileCounters};
use prophet_store::{
    decode_profile, encode_counters, encode_hints, fnv1a, ArtifactStore, ProfileArtifact,
    StoreError, StoreKey,
};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// Why a request could not be served.
#[derive(Debug)]
pub enum ServiceError {
    /// No submission for the key.
    UnknownWorkload(StoreKey),
    /// The artifact store failed under the request.
    Store(StoreError),
}

impl ServiceError {
    /// The wire error code this failure maps to.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServiceError::UnknownWorkload(_) => ErrorCode::UnknownWorkload,
            ServiceError::Store(StoreError::Io(_)) => ErrorCode::StoreUnavailable,
            ServiceError::Store(StoreError::Decode(_)) => ErrorCode::Internal,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownWorkload(key) => {
                write!(f, "no profile known for workload '{}'", key.workload)
            }
            ServiceError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

/// Hints computed at some generation, cached until the next advance.
#[derive(Debug)]
struct HintsCache {
    generation: u64,
    bytes: Vec<u8>,
}

/// One workload's live state.
#[derive(Debug)]
struct WorkloadEntry {
    key: StoreKey,
    submissions: SubmissionSet,
    generation: u64,
    hints: Option<HintsCache>,
}

impl WorkloadEntry {
    fn new(key: StoreKey) -> Self {
        WorkloadEntry {
            key,
            submissions: SubmissionSet::new(),
            generation: 0,
            hints: None,
        }
    }
}

/// The daemon's shared state. One instance is shared (via `Arc`) by every
/// worker thread; all methods take `&self`.
#[derive(Debug)]
pub struct ServiceState {
    store: ArtifactStore,
    analysis: AnalysisConfig,
    registry: Mutex<BTreeMap<String, Arc<Mutex<WorkloadEntry>>>>,
    metrics: ServiceMetrics,
}

/// Registry index of a key: every field, not just the workload string, so
/// the same workload profiled under different configs/windows stays
/// distinct (mirroring the store's content addressing).
fn registry_key(key: &StoreKey) -> String {
    format!(
        "{}|{:016x}|{}|{}",
        key.workload, key.config, key.warmup, key.measure
    )
}

/// The store key an individual submission artifact is persisted under:
/// the base key with a content-digest suffix on the workload spec.
fn submission_key(base: &StoreKey, canonical_bytes: &[u8]) -> StoreKey {
    StoreKey {
        workload: format!(
            "{}{}{:016x}",
            base.workload,
            PROFILE_SUB_TAG,
            fnv1a(canonical_bytes)
        ),
        ..base.clone()
    }
}

/// Splits a submission artifact's workload spec back into the base spec;
/// `None` if the spec carries no submission tag.
fn split_submission_workload(workload: &str) -> Option<&str> {
    let at = workload.rfind(PROFILE_SUB_TAG)?;
    let digest = &workload[at + PROFILE_SUB_TAG.len()..];
    (digest.len() == 16 && digest.bytes().all(|b| b.is_ascii_hexdigit())).then(|| &workload[..at])
}

impl ServiceState {
    /// Opens the store at `dir` and rebuilds the registry from the
    /// submission artifacts already persisted there, so a restarted
    /// daemon resumes exactly where the previous one stopped.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let state = ServiceState {
            store: ArtifactStore::open(dir)?,
            analysis: AnalysisConfig::default(),
            registry: Mutex::new(BTreeMap::new()),
            metrics: ServiceMetrics::default(),
        };
        let recovered = state.recover()?;
        state.metrics.record_recovered(recovered);
        Ok(state)
    }

    /// The underlying artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The daemon's counters.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Scans the store directory for persisted submission artifacts
    /// (profiles whose workload spec carries the submission tag) and
    /// replays them into the registry. Returns how many were recovered.
    /// Undecodable or foreign files are skipped — same miss-on-corruption
    /// policy as the store itself.
    fn recover(&self) -> Result<u64, StoreError> {
        let mut recovered = 0;
        for dirent in std::fs::read_dir(self.store.dir())? {
            let path = dirent?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("profile-") && name.ends_with(".bin")) {
                continue;
            }
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            let Ok((key, artifact)) = decode_profile(&bytes) else {
                continue;
            };
            let Some(base_workload) = split_submission_workload(&key.workload) else {
                continue; // not a submission
            };
            let base = StoreKey {
                workload: base_workload.to_string(),
                ..key.clone()
            };
            let entry = self.entry(&base);
            let mut e = entry.lock().unwrap_or_else(PoisonError::into_inner);
            if e.submissions
                .insert(encode_counters(&artifact.counters), artifact.counters)
                .is_none()
            {
                e.generation += 1;
                recovered += 1;
            }
        }
        Ok(recovered)
    }

    /// Looks up the entry for `key`, creating it if absent.
    fn entry(&self, key: &StoreKey) -> Arc<Mutex<WorkloadEntry>> {
        let mut registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        registry
            .entry(registry_key(key))
            .or_insert_with(|| Arc::new(Mutex::new(WorkloadEntry::new(key.clone()))))
            .clone()
    }

    /// Looks up the entry for `key` without creating it.
    fn lookup(&self, key: &StoreKey) -> Option<Arc<Mutex<WorkloadEntry>>> {
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&registry_key(key))
            .cloned()
    }

    /// Folds the entry's submissions canonically, re-analyzes, and caches
    /// the hints at the entry's generation. Writes nothing. Requires at
    /// least one submission.
    fn merge(&self, e: &mut WorkloadEntry) {
        let merged = merge_canonical(&e.submissions).expect("merge on empty submission set");
        self.metrics.record_merge();
        let hints = analyze(&merged.counters, &self.analysis);
        e.hints = Some(HintsCache {
            generation: e.generation,
            bytes: encode_hints(&e.key, &hints),
        });
    }

    /// Accepts one profiling run's counters for `key`.
    ///
    /// A byte-identical duplicate of an earlier submission is
    /// acknowledged without advancing anything; fresh content persists a
    /// submission artifact, advances the generation, and eagerly re-merges
    /// and re-analyzes. The persist happens *before* the in-memory insert,
    /// so a store failure surfaces as a typed error with the registry
    /// unchanged. The insert and the advance happen *before* the merge, so
    /// a panic in it leaves a cache behind the generation, which the next
    /// fetch re-merges.
    pub fn submit(
        &self,
        key: &StoreKey,
        counters: ProfileCounters,
    ) -> Result<SubmitAck, ServiceError> {
        let entry = self.entry(key);
        let mut e = entry.lock().unwrap_or_else(PoisonError::into_inner);
        let bytes = encode_counters(&counters);
        if e.submissions.contains_key(&bytes) {
            self.metrics.record_submission(false);
            return Ok(SubmitAck {
                generation: e.generation,
                submissions: e.submissions.len() as u64,
                fresh: false,
            });
        }
        let sub_key = submission_key(key, &bytes);
        self.store.save_profile(
            &sub_key,
            &ProfileArtifact {
                counters: counters.clone(),
                loops: 1,
            },
        )?;
        e.submissions.insert(bytes, counters);
        e.generation += 1;
        self.metrics.record_submission(true);
        self.merge(&mut e);
        Ok(SubmitAck {
            generation: e.generation,
            submissions: e.submissions.len() as u64,
            fresh: true,
        })
    }

    /// Serves the analyzed hint-set artifact bytes for `key` from the
    /// registry, re-merging without a write if the cache is behind the
    /// generation. A key with no submissions is a typed
    /// [`ServiceError::UnknownWorkload`].
    pub fn fetch(&self, key: &StoreKey) -> Result<Vec<u8>, ServiceError> {
        let unknown = || ServiceError::UnknownWorkload(key.clone());
        let entry = self.lookup(key).ok_or_else(unknown)?;
        let mut e = entry.lock().unwrap_or_else(PoisonError::into_inner);
        if e.submissions.is_empty() {
            return Err(unknown());
        }
        if e.hints.as_ref().map(|h| h.generation) != Some(e.generation) {
            self.merge(&mut e);
        }
        self.metrics.record_fetch();
        Ok(e.hints
            .as_ref()
            .expect("merge filled the cache")
            .bytes
            .clone())
    }

    /// Renders the full plaintext metrics snapshot: service counters,
    /// store activity, then one generation/submission-count pair per
    /// known key (sorted — the registry is a `BTreeMap`).
    pub fn render_metrics(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        self.metrics.render_into(&mut out);
        let a = self.store.activity();
        for (name, v) in [
            ("prophet_store_checkpoints_reused", a.checkpoints_reused),
            ("prophet_store_checkpoints_created", a.checkpoints_created),
            ("prophet_store_checkpoints_missed", a.checkpoints_missed),
            ("prophet_store_profiles_reused", a.profiles_reused),
            ("prophet_store_profiles_created", a.profiles_created),
            ("prophet_store_profiles_missed", a.profiles_missed),
        ] {
            let _ = writeln!(out, "{name} {v}");
        }
        let registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        for (rkey, entry) in registry.iter() {
            let e = entry.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = writeln!(
                out,
                "prophet_profile_generation{{key=\"{rkey}\"}} {}",
                e.generation
            );
            let _ = writeln!(
                out,
                "prophet_profile_submissions{{key=\"{rkey}\"}} {}",
                e.submissions.len()
            );
        }
        out
    }

    /// The analysis configuration the daemon optimizes with (the default —
    /// the same one `prophet_cli optimize` uses, which the byte-equality
    /// guarantee depends on).
    pub fn analysis(&self) -> &AnalysisConfig {
        &self.analysis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_profiles;
    use prophet::PcProfile;

    fn profile(seed: u64) -> ProfileCounters {
        let mut c = ProfileCounters::default();
        for i in 0..4 {
            c.per_pc.insert(
                0x4000 + (seed + i) % 6,
                PcProfile {
                    accuracy: ((seed * 3 + i) % 10) as f64 / 10.0,
                    issued: 100.0 + seed as f64,
                    l2_misses: 40.0 + i as f64,
                },
            );
        }
        c.insertions = 1_000.0 + seed as f64;
        c
    }

    /// A handler that panics while holding a key's entry poisons its
    /// mutex; later submits and fetches on that key must still serve the
    /// serial reference bytes.
    #[test]
    fn a_poisoned_entry_still_serves_the_serial_reference() {
        let dir =
            std::env::temp_dir().join(format!("prophet-service-poison-{}", std::process::id()));
        let state = ServiceState::open(&dir).unwrap();
        let k = StoreKey {
            workload: "poison+l1=stride".into(),
            config: 0xC0FFEE,
            warmup: 2_000,
            measure: 4_000,
        };
        state.submit(&k, profile(0)).unwrap();
        let entry = state.lookup(&k).expect("submitted key");
        std::thread::spawn(move || {
            let _held = entry.lock().unwrap();
            panic!("a handler panics while holding the entry");
        })
        .join()
        .expect_err("the holder panicked");
        assert!(state.lookup(&k).unwrap().is_poisoned());

        let ack = state.submit(&k, profile(1)).unwrap();
        assert_eq!((ack.generation, ack.fresh), (2, true));
        let merged = merge_profiles(&[profile(0), profile(1)]).unwrap();
        let reference = encode_hints(&k, &analyze(&merged.counters, &AnalysisConfig::default()));
        assert_eq!(state.fetch(&k).unwrap(), reference);
        assert!(state
            .render_metrics()
            .contains("prophet_profile_generation{key=\""));
        std::fs::remove_dir_all(dir).ok();
    }
}
