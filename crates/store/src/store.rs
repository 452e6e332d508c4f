//! The on-disk, content-addressed artifact cache.
//!
//! A store is a flat directory of `<kind>-<digest>.bin` files. Saves are
//! atomic (write to a temp sibling unique to the write, then rename), so a
//! crashed or concurrent run never leaves a half-written artifact where a
//! later run would trip over it, and concurrent writers of one artifact
//! resolve last-writer-wins. Loads are forgiving: a missing file, a key
//! echo that does not match (digest collision), or an unreadable/corrupt
//! file all degrade to `Ok(None)` misses or typed errors — never a panic —
//! so a polluted store costs a recompute, not an experiment.

use crate::artifact::{
    decode_checkpoint, decode_hints, decode_profile, encode_checkpoint, encode_hints,
    encode_profile, ArtifactKind, ProfileArtifact, WarmupCheckpoint,
};
use crate::codec::DecodeError;
use crate::key::StoreKey;
use prophet::HintSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// One artifact kind's counters.
#[derive(Debug, Default)]
struct KindCounters {
    reused: AtomicU64,
    created: AtomicU64,
    missed: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A content-addressed artifact cache rooted at one directory.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    /// Indexed by `ArtifactKind as usize - 1`.
    counters: [KindCounters; 3],
}

/// Numbers every temp file this process writes, so two threads writing
/// the same artifact never share (or rename away) one temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: to a temp sibling named by the
/// process id and a process-wide sequence number, then renamed over
/// `path`. The name is unique to the write, so concurrent writers of the
/// same file — threads or processes — each publish a whole file and the
/// last rename wins. A failed write removes its temp file; a writer
/// killed mid-write can leave one behind, which no load ever reads.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    Ok(written?)
}

impl ArtifactStore {
    /// Opens (creating if needed) a store at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactStore {
            dir,
            counters: Default::default(),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn counters(&self, kind: ArtifactKind) -> &KindCounters {
        &self.counters[kind as usize - 1]
    }

    /// Activity counters since open.
    pub fn activity(&self) -> StoreActivity {
        let [profile, checkpoint, hints] = &self.counters;
        let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StoreActivity {
            checkpoints_reused: n(&checkpoint.reused),
            checkpoints_created: n(&checkpoint.created),
            profiles_reused: n(&profile.reused),
            profiles_created: n(&profile.created),
            checkpoints_missed: n(&checkpoint.missed),
            profiles_missed: n(&profile.missed),
            hints_created: n(&hints.created),
            hints_reused: n(&hints.reused),
        }
    }

    /// The on-disk path an artifact of `kind` at `key` lives at.
    pub fn path_for(&self, kind: ArtifactKind, key: &StoreKey) -> PathBuf {
        self.dir
            .join(format!("{}-{:016x}.bin", kind.prefix(), key.digest()))
    }

    /// The one write path: publishes `bytes` as the `kind` artifact at
    /// `key` and counts the save.
    fn save(
        &self,
        kind: ArtifactKind,
        key: &StoreKey,
        bytes: &[u8],
    ) -> Result<PathBuf, StoreError> {
        let path = self.path_for(kind, key);
        write_atomic(&path, bytes)?;
        bump(&self.counters(kind).created);
        Ok(path)
    }

    /// The one read path: decodes the `kind` artifact at `key`, counting a
    /// hit, or a miss when the file is absent or its key echo does not
    /// match (digest collision).
    fn load<T, D>(
        &self,
        kind: ArtifactKind,
        key: &StoreKey,
        decode: D,
    ) -> Result<Option<T>, StoreError>
    where
        D: Fn(&[u8]) -> Result<(StoreKey, T), DecodeError>,
    {
        let counters = self.counters(kind);
        let bytes = match std::fs::read(self.path_for(kind, key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                bump(&counters.missed);
                return Ok(None);
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        let (embedded, artifact) = decode(&bytes)?;
        if embedded != *key {
            bump(&counters.missed);
            return Ok(None);
        }
        bump(&counters.reused);
        Ok(Some(artifact))
    }

    /// Saves a warm-up checkpoint, returning its path.
    pub fn save_checkpoint(
        &self,
        key: &StoreKey,
        ckpt: &WarmupCheckpoint,
    ) -> Result<PathBuf, StoreError> {
        self.save(ArtifactKind::Checkpoint, key, &encode_checkpoint(key, ckpt))
    }

    /// Loads the checkpoint at `key`; `Ok(None)` when absent or when the
    /// file's key echo does not match (digest collision → miss).
    pub fn load_checkpoint(&self, key: &StoreKey) -> Result<Option<WarmupCheckpoint>, StoreError> {
        self.load(ArtifactKind::Checkpoint, key, decode_checkpoint)
    }

    /// Saves a profile artifact, returning its path. Concurrent saves to
    /// one key are last-writer-wins: nothing locks a read-modify-write
    /// cycle, so callers that merge into the stored artifact serialize
    /// themselves (the service under its per-key entry mutex).
    pub fn save_profile(
        &self,
        key: &StoreKey,
        artifact: &ProfileArtifact,
    ) -> Result<PathBuf, StoreError> {
        self.save(ArtifactKind::Profile, key, &encode_profile(key, artifact))
    }

    /// Loads the profile artifact at `key`; `Ok(None)` when absent or on a
    /// key-echo mismatch.
    pub fn load_profile(&self, key: &StoreKey) -> Result<Option<ProfileArtifact>, StoreError> {
        self.load(ArtifactKind::Profile, key, decode_profile)
    }

    /// Saves a hint set inside the store, returning its path.
    pub fn save_hints(&self, key: &StoreKey, hints: &HintSet) -> Result<PathBuf, StoreError> {
        self.save(ArtifactKind::Hints, key, &encode_hints(key, hints))
    }

    /// Loads the hint set at `key`; `Ok(None)` when absent or on a key-echo
    /// mismatch.
    pub fn load_hints(&self, key: &StoreKey) -> Result<Option<HintSet>, StoreError> {
        self.load(ArtifactKind::Hints, key, decode_hints)
    }
}

/// Writes a standalone hint-set file (the artifact `prophet_cli optimize`
/// exports and `prophet_cli run --hints` consumes — the paper's "optimized
/// binary" handed from the offline to the online phase), atomically like
/// every store write.
pub fn write_hints_file(
    path: impl AsRef<Path>,
    key: &StoreKey,
    hints: &HintSet,
) -> Result<(), StoreError> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    write_atomic(path, &encode_hints(key, hints))
}

/// Reads a standalone hint-set file, returning the embedded key alongside
/// the hints (callers may warn when the hints were produced for a
/// different workload or configuration).
pub fn read_hints_file(path: impl AsRef<Path>) -> Result<(StoreKey, HintSet), StoreError> {
    let bytes = std::fs::read(path)?;
    Ok(decode_hints(&bytes)?)
}
