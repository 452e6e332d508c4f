//! The on-disk, content-addressed artifact cache.
//!
//! A store is a flat directory of `<kind>-<digest>.bin` files. Saves are
//! atomic (write to a `.tmp` sibling, then rename) so a crashed or
//! concurrent run never leaves a half-written artifact where a later run
//! would trip over it. Loads are forgiving: a missing file, a key echo
//! that does not match (digest collision), or an unreadable/corrupt file
//! all degrade to `Ok(None)` misses or typed errors — never a panic — so a
//! polluted store costs a recompute, not an experiment.

use crate::artifact::{
    decode_checkpoint, decode_hints, decode_profile, encode_checkpoint, encode_hints,
    encode_profile, ArtifactKind, ProfileArtifact, WarmupCheckpoint,
};
use crate::codec::DecodeError;
use crate::key::StoreKey;
use crate::warn::store_warn;
use prophet::HintSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Anything that can go wrong talking to a store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (directory creation, read, write, rename).
    Io(std::io::Error),
    /// The file existed but did not decode.
    Decode(DecodeError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Decode(e) => write!(f, "store decode error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}

/// Hit/miss counters since the store was opened (reads relaxed; they are
/// diagnostics, not synchronization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreActivity {
    pub checkpoints_reused: u64,
    pub checkpoints_created: u64,
    pub profiles_reused: u64,
    pub profiles_created: u64,
    /// Lookups that found no artifact (absent file or key-echo mismatch).
    pub checkpoints_missed: u64,
    pub profiles_missed: u64,
    /// Hint sets written into / served from the store.
    pub hints_created: u64,
    pub hints_reused: u64,
}

/// How long a per-key lock file may sit untouched before waiters treat its
/// holder as dead, break the lock (with a [`store_warn`] advisory), and
/// proceed. Every legitimate critical section is a read-merge-write of one
/// small artifact — microseconds, not seconds.
const LOCK_STALE_AFTER: Duration = Duration::from_secs(10);

/// Back-off between lock acquisition attempts.
const LOCK_RETRY_EVERY: Duration = Duration::from_micros(200);

/// An acquired per-key advisory lock (see [`ArtifactStore::lock_key`]).
/// Released on drop by removing the lock file; a crashed holder's file is
/// reclaimed by waiters once its mtime is more than ten seconds old.
#[derive(Debug)]
pub struct KeyLockGuard {
    path: PathBuf,
}

impl Drop for KeyLockGuard {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_file(&self.path) {
            if e.kind() != std::io::ErrorKind::NotFound {
                store_warn(format_args!(
                    "warning: failed to release store lock {}: {e}",
                    self.path.display()
                ));
            }
        }
    }
}

/// A content-addressed artifact cache rooted at one directory.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    ckpt_hits: AtomicU64,
    ckpt_saves: AtomicU64,
    prof_hits: AtomicU64,
    prof_saves: AtomicU64,
    ckpt_misses: AtomicU64,
    prof_misses: AtomicU64,
    hint_hits: AtomicU64,
    hint_saves: AtomicU64,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactStore {
            dir,
            ckpt_hits: AtomicU64::new(0),
            ckpt_saves: AtomicU64::new(0),
            prof_hits: AtomicU64::new(0),
            prof_saves: AtomicU64::new(0),
            ckpt_misses: AtomicU64::new(0),
            prof_misses: AtomicU64::new(0),
            hint_hits: AtomicU64::new(0),
            hint_saves: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Activity counters since open.
    pub fn activity(&self) -> StoreActivity {
        StoreActivity {
            checkpoints_reused: self.ckpt_hits.load(Ordering::Relaxed),
            checkpoints_created: self.ckpt_saves.load(Ordering::Relaxed),
            profiles_reused: self.prof_hits.load(Ordering::Relaxed),
            profiles_created: self.prof_saves.load(Ordering::Relaxed),
            checkpoints_missed: self.ckpt_misses.load(Ordering::Relaxed),
            profiles_missed: self.prof_misses.load(Ordering::Relaxed),
            hints_created: self.hint_saves.load(Ordering::Relaxed),
            hints_reused: self.hint_hits.load(Ordering::Relaxed),
        }
    }

    /// The on-disk path an artifact of `kind` at `key` lives at.
    pub fn path_for(&self, kind: ArtifactKind, key: &StoreKey) -> PathBuf {
        self.dir
            .join(format!("{}-{:016x}.bin", kind.prefix(), key.digest()))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        // Unique temp sibling: concurrent writers of the *same* artifact
        // (two sweeps sharing a store) must not interleave into one file.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads `path`, returning `Ok(None)` when it does not exist.
    fn read_opt(path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
        match std::fs::read(path) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// Saves a warm-up checkpoint, returning its path.
    pub fn save_checkpoint(
        &self,
        key: &StoreKey,
        ckpt: &WarmupCheckpoint,
    ) -> Result<PathBuf, StoreError> {
        let path = self.path_for(ArtifactKind::Checkpoint, key);
        self.write_atomic(&path, &encode_checkpoint(key, ckpt))?;
        self.ckpt_saves.fetch_add(1, Ordering::Relaxed);
        Ok(path)
    }

    /// Loads the checkpoint at `key`; `Ok(None)` when absent or when the
    /// file's key echo does not match (digest collision → miss).
    pub fn load_checkpoint(&self, key: &StoreKey) -> Result<Option<WarmupCheckpoint>, StoreError> {
        let Some(bytes) = Self::read_opt(&self.path_for(ArtifactKind::Checkpoint, key))? else {
            self.ckpt_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        let (embedded, ckpt) = decode_checkpoint(&bytes)?;
        if embedded != *key {
            self.ckpt_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        self.ckpt_hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(ckpt))
    }

    /// Saves a profile artifact, returning its path.
    pub fn save_profile(
        &self,
        key: &StoreKey,
        artifact: &ProfileArtifact,
    ) -> Result<PathBuf, StoreError> {
        let path = self.path_for(ArtifactKind::Profile, key);
        self.write_atomic(&path, &encode_profile(key, artifact))?;
        self.prof_saves.fetch_add(1, Ordering::Relaxed);
        Ok(path)
    }

    /// Loads the profile artifact at `key`; `Ok(None)` when absent or on a
    /// key-echo mismatch.
    pub fn load_profile(&self, key: &StoreKey) -> Result<Option<ProfileArtifact>, StoreError> {
        let Some(bytes) = Self::read_opt(&self.path_for(ArtifactKind::Profile, key))? else {
            self.prof_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        let (embedded, artifact) = decode_profile(&bytes)?;
        if embedded != *key {
            self.prof_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        self.prof_hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(artifact))
    }

    /// Saves a hint set inside the store, returning its path.
    pub fn save_hints(&self, key: &StoreKey, hints: &HintSet) -> Result<PathBuf, StoreError> {
        let path = self.path_for(ArtifactKind::Hints, key);
        self.write_atomic(&path, &encode_hints(key, hints))?;
        self.hint_saves.fetch_add(1, Ordering::Relaxed);
        Ok(path)
    }

    /// Loads the hint set at `key`; `Ok(None)` when absent or on a key-echo
    /// mismatch.
    pub fn load_hints(&self, key: &StoreKey) -> Result<Option<HintSet>, StoreError> {
        let Some(bytes) = Self::read_opt(&self.path_for(ArtifactKind::Hints, key))? else {
            return Ok(None);
        };
        let (embedded, hints) = decode_hints(&bytes)?;
        if embedded != *key {
            return Ok(None);
        }
        self.hint_hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(hints))
    }

    /// Acquires the per-key advisory lock for `(kind, key)`, spinning (with
    /// back-off) until the lock file can be created exclusively.
    ///
    /// The lock is a `<kind>-<digest>.lock` sibling created with
    /// `create_new` (atomic on every platform the store targets) and
    /// removed when the returned guard drops. It serializes *read-merge-
    /// write* cycles on one artifact across threads and processes — the
    /// existing temp-file + rename dance already keeps individual writes
    /// atomic, but without the lock two concurrent mergers could both read
    /// generation *g* and the second rename would silently drop the first
    /// merge (the classic lost update). A lock file untouched for more
    /// than ten seconds is presumed abandoned by a crashed holder and
    /// is broken with a warning.
    pub fn lock_key(&self, kind: ArtifactKind, key: &StoreKey) -> Result<KeyLockGuard, StoreError> {
        let path = self.path_for(kind, key).with_extension("lock");
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Ok(KeyLockGuard { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|md| md.modified())
                        .ok()
                        .and_then(|at| at.elapsed().ok())
                        .is_some_and(|age| age > LOCK_STALE_AFTER);
                    if stale {
                        store_warn(format_args!(
                            "warning: breaking stale store lock {} (holder presumed dead)",
                            path.display()
                        ));
                        // Best-effort: if the holder woke up and released
                        // in the meantime this is a no-op, and the retry
                        // loop re-arbitrates via create_new either way.
                        std::fs::remove_file(&path).ok();
                    } else {
                        std::thread::sleep(LOCK_RETRY_EVERY);
                    }
                }
                Err(e) => return Err(StoreError::Io(e)),
            }
        }
    }

    /// Atomically read-merge-writes the profile at `key` under the per-key
    /// lock, returning the artifact that was stored.
    ///
    /// `f` receives the current artifact (`None` when absent; a corrupt
    /// artifact degrades to `None` with a warning, matching the store's
    /// miss-on-corruption policy) and returns the replacement. The lock
    /// spans read *and* write, so concurrent updaters serialize and no
    /// merge is lost.
    pub fn update_profile<F>(&self, key: &StoreKey, f: F) -> Result<ProfileArtifact, StoreError>
    where
        F: FnOnce(Option<ProfileArtifact>) -> ProfileArtifact,
    {
        let _lock = self.lock_key(ArtifactKind::Profile, key)?;
        let current = match self.load_profile(key) {
            Ok(cur) => cur,
            Err(StoreError::Decode(e)) => {
                store_warn(format_args!(
                    "warning: profile at {} is corrupt ({e}); rebuilding",
                    self.path_for(ArtifactKind::Profile, key).display()
                ));
                None
            }
            Err(e) => return Err(e),
        };
        let next = f(current);
        self.save_profile(key, &next)?;
        Ok(next)
    }
}

/// Writes a standalone hint-set file (the artifact `prophet_cli optimize`
/// exports and `prophet_cli run --hints` consumes — the paper's "optimized
/// binary" handed from the offline to the online phase).
pub fn write_hints_file(
    path: impl AsRef<Path>,
    key: &StoreKey,
    hints: &HintSet,
) -> Result<(), StoreError> {
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, encode_hints(key, hints))?;
    Ok(())
}

/// Reads a standalone hint-set file, returning the embedded key alongside
/// the hints (callers may warn when the hints were produced for a
/// different workload or configuration).
pub fn read_hints_file(path: impl AsRef<Path>) -> Result<(StoreKey, HintSet), StoreError> {
    let bytes = std::fs::read(path)?;
    Ok(decode_hints(&bytes)?)
}
