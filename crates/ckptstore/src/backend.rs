//! Storage backends: where sealed checkpoint blobs actually live.
//!
//! A backend is a flat keyed store — `(owner rank, epoch) -> sealed blob` —
//! with no knowledge of replication, framing, or the protocol. The two
//! implementations mirror the deployment split ReStore describes: node-local
//! memory ([`MemBackend`]) and a filesystem directory ([`DirBackend`], atomic
//! tmp + fsync + rename writes, then a directory fsync).

use mini_mpi::error::{MpiError, Result};
use mini_mpi::types::RankId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Timing facts about a completed [`CheckpointBackend::put`], reported so
/// the protocol layer can attribute write latency to its durability
/// barrier separately from the bulk copy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PutStats {
    /// Microseconds spent in the durability barriers (the file's `fsync`
    /// and its directory's); 0 for memory-backed stores, which have none.
    pub fsync_us: u64,
}

/// A keyed blob store for sealed checkpoints.
///
/// Implementations must be safe to call from multiple threads (rank threads
/// and the background writer); all methods take `&self`.
pub trait CheckpointBackend: Send + Sync {
    /// Store `blob` as `owner`'s checkpoint at `epoch` (overwrites).
    fn put(&self, owner: RankId, epoch: u64, blob: &[u8]) -> Result<PutStats>;
    /// [`put`](Self::put) for a blob the caller already shares: a backend
    /// that keeps blobs in memory keeps this `Arc` instead of copying the
    /// bytes. The default writes the bytes through `put`.
    fn put_shared(&self, owner: RankId, epoch: u64, blob: &Arc<Vec<u8>>) -> Result<PutStats> {
        self.put(owner, epoch, blob)
    }
    /// Fetch `owner`'s blob at `epoch`; `None` if absent.
    fn get(&self, owner: RankId, epoch: u64) -> Result<Option<Vec<u8>>>;
    /// Epochs stored for `owner`, ascending.
    fn epochs_of(&self, owner: RankId) -> Result<Vec<u64>>;
    /// Remove `owner`'s blob at `epoch` (no-op if absent). Returns whether a
    /// blob was removed.
    fn remove(&self, owner: RankId, epoch: u64) -> Result<bool>;
    /// Whether a content-addressed wave stored here must carry its new
    /// chunk bodies inline. `true` (the default) for a store whose bytes
    /// leave the process, such as a file; `false` for one that keeps a wave
    /// as its manifest over the owning service's chunk store, where each
    /// chunk body already lives once.
    fn self_contained(&self) -> bool {
        true
    }
    /// Drop every blob this backend holds — the storage-loss hook used by
    /// fault injection to model a rank losing its node-local store. The
    /// default is a no-op so narrow test doubles need not implement it.
    fn clear(&self) -> Result<()> {
        Ok(())
    }
}

/// In-memory backend: a mutex-guarded map. Survives in-process cluster
/// restarts (the service outlives rank threads), not the process. A shared
/// blob ([`CheckpointBackend::put_shared`]) is kept by reference, not
/// copied, and a content-addressed wave is kept as its manifest
/// ([`CheckpointBackend::self_contained`] is `false`): its chunk bodies
/// live in the service's chunk store, in the same process.
#[derive(Default)]
pub struct MemBackend {
    blobs: Mutex<BTreeMap<(u32, u64), SharedBlob>>,
}

/// A blob held by reference, shared with whoever handed it over.
type SharedBlob = Arc<Vec<u8>>;

impl MemBackend {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes held (for tests and metrics).
    pub fn stored_bytes(&self) -> u64 {
        self.blobs.lock().values().map(|b| b.len() as u64).sum()
    }
}

impl CheckpointBackend for MemBackend {
    fn put(&self, owner: RankId, epoch: u64, blob: &[u8]) -> Result<PutStats> {
        self.put_shared(owner, epoch, &Arc::new(blob.to_vec()))
    }

    fn put_shared(&self, owner: RankId, epoch: u64, blob: &Arc<Vec<u8>>) -> Result<PutStats> {
        self.blobs.lock().insert((owner.0, epoch), Arc::clone(blob));
        Ok(PutStats::default())
    }

    fn get(&self, owner: RankId, epoch: u64) -> Result<Option<Vec<u8>>> {
        Ok(self.blobs.lock().get(&(owner.0, epoch)).map(|b| b.to_vec()))
    }

    fn epochs_of(&self, owner: RankId) -> Result<Vec<u64>> {
        Ok(self
            .blobs
            .lock()
            .range((owner.0, 0)..=(owner.0, u64::MAX))
            .map(|(&(_, e), _)| e)
            .collect())
    }

    fn remove(&self, owner: RankId, epoch: u64) -> Result<bool> {
        Ok(self.blobs.lock().remove(&(owner.0, epoch)).is_some())
    }

    fn self_contained(&self) -> bool {
        false
    }

    fn clear(&self) -> Result<()> {
        self.blobs.lock().clear();
        Ok(())
    }
}

/// Filesystem backend rooted at a directory; one `rank-<r>.epoch-<e>.ckpt`
/// file per blob, written atomically (tmp + fsync + rename + directory
/// fsync) so a torn write can never be mistaken for a committed checkpoint
/// and a committed one keeps its name.
pub struct DirBackend {
    root: PathBuf,
}

impl DirBackend {
    /// Open (creating if needed) a backend rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| MpiError::app(format!("create {}: {e}", root.display())))?;
        Ok(DirBackend { root })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, owner: RankId, epoch: u64) -> PathBuf {
        self.root.join(format!("rank-{owner}.epoch-{epoch}.ckpt"))
    }
}

impl CheckpointBackend for DirBackend {
    fn put(&self, owner: RankId, epoch: u64, blob: &[u8]) -> Result<PutStats> {
        // Recreate the root if it was lost (fault injection deletes whole
        // directories; the next wave must still be able to commit).
        fs::create_dir_all(&self.root)
            .map_err(|e| MpiError::app(format!("create {}: {e}", self.root.display())))?;
        let final_path = self.path_for(owner, epoch);
        let tmp = final_path.with_extension("tmp");
        let mut f = fs::File::create(&tmp)
            .map_err(|e| MpiError::app(format!("create {} (epoch {epoch}): {e}", tmp.display())))?;
        f.write_all(blob).map_err(|e| {
            MpiError::app(format!("write checkpoint {} (epoch {epoch}): {e}", tmp.display()))
        })?;
        let file_sync = std::time::Instant::now();
        f.sync_all().map_err(|e| {
            MpiError::app(format!("fsync checkpoint {} (epoch {epoch}): {e}", final_path.display()))
        })?;
        let mut fsync_us = file_sync.elapsed().as_micros() as u64;
        fs::rename(&tmp, &final_path).map_err(|e| {
            MpiError::app(format!(
                "commit checkpoint {} (epoch {epoch}): {e}",
                final_path.display()
            ))
        })?;
        // The new name is durable only once the directory is: without this
        // second barrier a committed wave can vanish at power loss.
        let dir_sync = std::time::Instant::now();
        fs::File::open(&self.root).and_then(|d| d.sync_all()).map_err(|e| {
            MpiError::app(format!("fsync dir {} (epoch {epoch}): {e}", self.root.display()))
        })?;
        fsync_us += dir_sync.elapsed().as_micros() as u64;
        Ok(PutStats { fsync_us })
    }

    fn get(&self, owner: RankId, epoch: u64) -> Result<Option<Vec<u8>>> {
        let path = self.path_for(owner, epoch);
        match fs::read(&path) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(MpiError::app(format!("read {}: {e}", path.display()))),
        }
    }

    fn epochs_of(&self, owner: RankId) -> Result<Vec<u64>> {
        let prefix = format!("rank-{owner}.epoch-");
        let mut epochs = Vec::new();
        let entries = match fs::read_dir(&self.root) {
            Ok(it) => it,
            // A destroyed directory reads as "no epochs stored", not an
            // error — restart-time repair depends on this.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(epochs),
            Err(e) => return Err(MpiError::app(format!("read dir {}: {e}", self.root.display()))),
        };
        for entry in entries {
            let name =
                entry.map_err(|e| MpiError::app(format!("read dir entry: {e}")))?.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix(&prefix) {
                if let Some(e) = rest.strip_suffix(".ckpt").and_then(|v| v.parse().ok()) {
                    epochs.push(e);
                }
            }
        }
        epochs.sort_unstable();
        Ok(epochs)
    }

    fn remove(&self, owner: RankId, epoch: u64) -> Result<bool> {
        match fs::remove_file(self.path_for(owner, epoch)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(MpiError::app(format!("remove checkpoint: {e}"))),
        }
    }

    fn clear(&self) -> Result<()> {
        let entries = match fs::read_dir(&self.root) {
            Ok(it) => it,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(MpiError::app(format!("clear {}: {e}", self.root.display()))),
        };
        for entry in entries {
            let entry = entry.map_err(|e| MpiError::app(format!("clear dir entry: {e}")))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("rank-") && (name.ends_with(".ckpt") || name.ends_with(".tmp")) {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("spbc-backend-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn exercise(backend: &dyn CheckpointBackend) {
        let r0 = RankId(0);
        let r1 = RankId(1);
        assert!(backend.get(r0, 1).unwrap().is_none());
        backend.put(r0, 1, b"one").unwrap();
        backend.put(r0, 2, b"two").unwrap();
        backend.put(r1, 2, b"other").unwrap();
        assert_eq!(backend.get(r0, 1).unwrap().unwrap(), b"one");
        assert_eq!(backend.get(r0, 2).unwrap().unwrap(), b"two");
        assert_eq!(backend.epochs_of(r0).unwrap(), vec![1, 2]);
        assert_eq!(backend.epochs_of(r1).unwrap(), vec![2]);
        // Overwrite is allowed (same epoch re-committed after rollback).
        backend.put(r0, 2, b"two'").unwrap();
        assert_eq!(backend.get(r0, 2).unwrap().unwrap(), b"two'");
        assert!(backend.remove(r0, 1).unwrap());
        assert!(!backend.remove(r0, 1).unwrap());
        assert_eq!(backend.epochs_of(r0).unwrap(), vec![2]);
    }

    #[test]
    fn mem_backend_contract() {
        exercise(&MemBackend::new());
    }

    #[test]
    fn dir_backend_contract() {
        exercise(&DirBackend::open(tmpdir("contract")).unwrap());
    }

    #[test]
    fn clear_drops_everything() {
        for backend in [
            Box::new(MemBackend::new()) as Box<dyn CheckpointBackend>,
            Box::new(DirBackend::open(tmpdir("clear")).unwrap()),
        ] {
            backend.put(RankId(0), 1, b"a").unwrap();
            backend.put(RankId(1), 2, b"b").unwrap();
            backend.clear().unwrap();
            assert!(backend.epochs_of(RankId(0)).unwrap().is_empty());
            assert!(backend.epochs_of(RankId(1)).unwrap().is_empty());
            // And the backend is still writable afterwards.
            backend.put(RankId(0), 3, b"c").unwrap();
            assert_eq!(backend.get(RankId(0), 3).unwrap().unwrap(), b"c");
        }
    }

    /// Satellite: a failing write must surface the blob path and epoch in
    /// the error, not a bare io::Error. A read-only root makes the tmp-file
    /// create fail deterministically.
    #[test]
    #[cfg(unix)]
    fn put_failure_names_path_and_epoch() {
        use std::os::unix::fs::PermissionsExt;
        let root = tmpdir("readonly");
        let b = DirBackend::open(&root).unwrap();
        let mut perms = fs::metadata(&root).unwrap().permissions();
        perms.set_mode(0o555);
        fs::set_permissions(&root, perms.clone()).unwrap();
        // Skip (trivially pass) when running as root, where DAC is bypassed
        // and the write succeeds anyway.
        let res = b.put(RankId(3), 7, b"blob");
        perms.set_mode(0o755);
        fs::set_permissions(&root, perms).unwrap();
        if let Err(e) = res {
            let msg = format!("{e}");
            assert!(msg.contains("rank-3.epoch-7"), "path missing from: {msg}");
            assert!(msg.contains("epoch 7"), "epoch missing from: {msg}");
        }
        // Root bypasses directory permissions, so also force a failure that
        // works at any privilege: a directory squatting on the tmp path.
        fs::create_dir_all(root.join("rank-4.epoch-9.tmp")).unwrap();
        let err = b.put(RankId(4), 9, b"blob").unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("rank-4.epoch-9"), "path missing from: {msg}");
        assert!(msg.contains("epoch 9"), "epoch missing from: {msg}");
    }

    #[test]
    fn dir_backend_survives_root_deletion() {
        let b = DirBackend::open(tmpdir("rootless")).unwrap();
        b.put(RankId(0), 1, b"x").unwrap();
        fs::remove_dir_all(b.root()).unwrap();
        assert!(b.epochs_of(RankId(0)).unwrap().is_empty());
        assert!(b.get(RankId(0), 1).unwrap().is_none());
        // And writes recreate the directory.
        b.put(RankId(0), 2, b"y").unwrap();
        assert_eq!(b.epochs_of(RankId(0)).unwrap(), vec![2]);
    }
}
