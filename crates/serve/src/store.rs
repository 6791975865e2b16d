//! Crash-safe on-disk durability: periodic whole-fleet checkpoints and
//! cold-start hydration.
//!
//! The store persists two things beneath the serving runtime: the
//! deployment catalog (content-addressed `EMDEPLOY` artifact files) and
//! the session roster (per-session `EMSESS1` snapshot files, rotated by
//! generation). Both are committed atomically by an `EMSTORE1` manifest
//! (see [`eigenmaps_core::codec`]) written with the classic crash-safe
//! discipline:
//!
//! ```text
//! write data files → fsync each → write manifest.tmp → fsync
//!     → rename(manifest.tmp, manifest.emstore)   ← the commit point
//!     → fsync(dir)
//! ```
//!
//! A crash at *any* boundary leaves the previous manifest (and every
//! file it references) intact, so hydration always recovers either the
//! old checkpoint or the new one — never a torn hybrid. That invariant
//! is enforced by a fault-injection harness over the [`StoreIo`] seam:
//! [`MemIo`] can kill the process model at every syscall boundary
//! ([`CrashStyle::Before`]) or deposit a torn prefix mid-write
//! ([`CrashStyle::Torn`]) on a deterministic schedule.
//!
//! Background cadence is clock-injected: the batcher thread asks
//! [`DurabilityHub::due`] with its own mock-clock `now` and runs the
//! checkpoint through the sharded executor's fire-and-forget job lane,
//! so serving latency never waits on `fsync` and tests run with zero
//! sleeps.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use eigenmaps_core::codec::{
    fnv1a64, StoreCatalogEntry, StoreManifest, StoreSessionEntry, STORE_VERSION,
};
use eigenmaps_core::{SessionSnapshot, TrackingReconstructor};

use crate::error::{Result, ServeError};
use crate::metrics::ServeMetrics;
use crate::registry::DeploymentRegistry;
use crate::session::TrackerSession;

/// Committed manifest file name inside a store directory.
const MANIFEST_FILE: &str = "manifest.emstore";
/// Scratch name the manifest is staged under before the commit rename.
const MANIFEST_TMP: &str = "manifest.tmp";
/// Default snapshot generations retained per session (current plus two
/// fallbacks for external corruption of the newest file).
pub const DEFAULT_KEEP: u64 = 3;

/// The syscall seam the store writes through. Production uses
/// [`DiskIo`]; crash-point tests swap in [`MemIo`] and kill the write at
/// every boundary. Paths are flat file names relative to one store
/// directory — the store never nests.
pub trait StoreIo: Send + Sync + fmt::Debug {
    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// I/O failure; `NotFound` when the file does not exist.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Creates-or-truncates `name` and writes `bytes`. Durability is NOT
    /// implied — call [`StoreIo::sync`] before depending on the
    /// contents surviving a crash.
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn write_all(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Flushes `name`'s contents to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn sync(&self, name: &str) -> io::Result<()>;
    /// Atomically renames `from` to `to` — the commit point of the
    /// manifest protocol.
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Deletes a file (rotation / pruning).
    ///
    /// # Errors
    ///
    /// I/O failure; `NotFound` when the file does not exist.
    fn remove(&self, name: &str) -> io::Result<()>;
    /// Flushes the directory entry table (`fsync` on the directory) so a
    /// committed rename survives a crash.
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn sync_dir(&self) -> io::Result<()>;
    /// Lists every file name in the store directory.
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn list(&self) -> io::Result<Vec<String>>;
    /// Whether `name` exists.
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn exists(&self, name: &str) -> io::Result<bool>;
}

/// Real-filesystem [`StoreIo`] rooted at one directory.
#[derive(Debug)]
pub struct DiskIo {
    root: PathBuf,
}

impl DiskIo {
    /// Opens (creating if needed) a store directory.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory.
    pub fn open(root: impl AsRef<Path>) -> io::Result<DiskIo> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(DiskIo { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl StoreIo for DiskIo {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.path(name))
    }

    fn write_all(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut file = fs::File::create(self.path(name))?;
        file.write_all(bytes)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        fs::File::open(self.path(name))?.sync_all()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        fs::rename(self.path(from), self.path(to))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        fs::remove_file(self.path(name))
    }

    fn sync_dir(&self) -> io::Result<()> {
        #[cfg(unix)]
        {
            fs::File::open(&self.root)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            Ok(())
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(names)
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        Ok(self.path(name).exists())
    }
}

/// How a scheduled [`MemIo`] crash lands relative to its syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashStyle {
    /// The process dies before the syscall takes any effect.
    Before,
    /// A write dies mid-syscall, leaving a deterministic strict-or-full
    /// prefix of the attempted bytes on stable storage (torn write). On
    /// non-write syscalls this degrades to [`CrashStyle::Before`].
    Torn,
}

#[derive(Debug, Default)]
struct MemState {
    /// The live filesystem view: what reads observe while the process is
    /// up (page cache semantics — writes land here immediately).
    volatile: HashMap<String, Vec<u8>>,
    /// What survives a crash: only `sync`ed contents plus journaled
    /// metadata (renames, removes) make it here.
    durable: HashMap<String, Vec<u8>>,
    /// Count of mutating syscalls so far (write/sync/rename/remove/
    /// sync_dir); the crash schedule indexes into this sequence.
    ops: u64,
    schedule: Option<(u64, CrashStyle)>,
    crashed: bool,
}

impl MemState {
    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::other("simulated crash: io offline until revive"));
        }
        Ok(())
    }

    /// Counts one mutating syscall; returns `Some(style)` when the crash
    /// schedule fires on this op (after applying the crash to state).
    fn mutating_op(&mut self) -> Option<CrashStyle> {
        let op = self.ops;
        self.ops += 1;
        match self.schedule {
            Some((at, style)) if at == op => {
                self.schedule = None;
                Some(style)
            }
            _ => None,
        }
    }

    /// Kills the process model: everything not durable is lost, and all
    /// I/O fails until [`MemIo::revive`].
    fn crash(&mut self) {
        self.volatile = self.durable.clone();
        self.crashed = true;
    }
}

/// In-memory [`StoreIo`] with a crash model for fault-injection tests.
///
/// Two maps model the machine: `volatile` is the live filesystem view
/// (what reads see), `durable` is what survives a crash. `write_all`
/// lands in volatile only; `sync` copies a file volatile → durable;
/// `rename`/`remove` journal their metadata to durable immediately (as
/// journaling filesystems do) — which means renaming a never-synced file
/// commits a zero-length file, the classic hazard the write → fsync →
/// rename discipline exists to avoid.
///
/// [`MemIo::schedule_crash`] arms a deterministic kill at the Nth
/// mutating syscall. After a crash every operation fails until
/// [`MemIo::revive`], which models the process restart: the volatile
/// view is rebuilt from durable contents only.
#[derive(Debug, Default)]
pub struct MemIo {
    state: Mutex<MemState>,
}

impl MemIo {
    /// A fresh, empty in-memory store.
    pub fn new() -> Arc<MemIo> {
        Arc::new(MemIo::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.state.lock().expect("MemIo state lock poisoned")
    }

    /// Arms a crash at mutating-syscall index `op` (0-based over the
    /// whole life of this io, counting write/sync/rename/remove/
    /// sync_dir; reads are free). Replaces any earlier schedule.
    pub fn schedule_crash(&self, op: u64, style: CrashStyle) {
        self.lock().schedule = Some((op, style));
    }

    /// Whether the simulated machine is currently down.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Restarts the simulated machine: I/O works again, and only
    /// durable contents are visible — volatile state died with the
    /// crash.
    pub fn revive(&self) {
        self.lock().crashed = false;
    }

    /// Mutating syscalls issued so far — the coordinate space
    /// [`MemIo::schedule_crash`] indexes into.
    pub fn mutating_ops(&self) -> u64 {
        self.lock().ops
    }
}

fn crash_err() -> io::Error {
    io::Error::other("simulated crash")
}

impl StoreIo for MemIo {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let state = self.lock();
        state.check_alive()?;
        state
            .volatile
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}")))
    }

    fn write_all(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        state.check_alive()?;
        let op = state.ops;
        if let Some(style) = state.mutating_op() {
            if style == CrashStyle::Torn {
                // Deterministic torn prefix: a multiplicative hash of the
                // op index picks how many of the attempted bytes made it
                // to stable storage before the power cut.
                let keep = (op.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize) % (bytes.len() + 1);
                state
                    .durable
                    .insert(name.to_string(), bytes[..keep].to_vec());
            }
            state.crash();
            return Err(crash_err());
        }
        state.volatile.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let mut state = self.lock();
        state.check_alive()?;
        if state.mutating_op().is_some() {
            state.crash();
            return Err(crash_err());
        }
        match state.volatile.get(name).cloned() {
            Some(bytes) => {
                state.durable.insert(name.to_string(), bytes);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {name}"),
            )),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut state = self.lock();
        state.check_alive()?;
        if state.mutating_op().is_some() {
            state.crash();
            return Err(crash_err());
        }
        let Some(bytes) = state.volatile.remove(from) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {from}"),
            ));
        };
        state.volatile.insert(to.to_string(), bytes);
        // Rename metadata journals immediately; the *data* only survives
        // if it was synced first. Renaming a never-synced file durably
        // commits an empty file — the hazard fsync-before-rename avoids.
        let durable = state.durable.remove(from).unwrap_or_default();
        state.durable.insert(to.to_string(), durable);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let mut state = self.lock();
        state.check_alive()?;
        if state.mutating_op().is_some() {
            state.crash();
            return Err(crash_err());
        }
        if state.volatile.remove(name).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {name}"),
            ));
        }
        state.durable.remove(name);
        Ok(())
    }

    fn sync_dir(&self) -> io::Result<()> {
        let mut state = self.lock();
        state.check_alive()?;
        if state.mutating_op().is_some() {
            state.crash();
            return Err(crash_err());
        }
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let state = self.lock();
        state.check_alive()?;
        Ok(state.volatile.keys().cloned().collect())
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        let state = self.lock();
        state.check_alive()?;
        Ok(state.volatile.contains_key(name))
    }
}

/// One deployment artifact headed for (or loaded from) the store:
/// `(name, version)` plus its `EMDEPLOY` bytes.
#[derive(Debug, Clone)]
pub struct CatalogArtifact {
    /// Registry name the artifact is published under.
    pub name: String,
    /// Registry version of this artifact.
    pub version: u32,
    /// The serialized `EMDEPLOY` record.
    pub bytes: Arc<Vec<u8>>,
}

/// One session headed for the store: its durable id and the state
/// captured at checkpoint time.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    /// Durable session id, stable across restarts.
    pub id: u64,
    /// The captured session state.
    pub snapshot: SessionSnapshot,
}

/// What one [`SnapshotStore::checkpoint`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Whether a new manifest was committed (`false` when nothing
    /// changed since the previous checkpoint, or when another checkpoint
    /// was already in flight).
    pub committed: bool,
    /// Sessions referenced by the (possibly unchanged) manifest.
    pub sessions: u64,
}

/// Everything a [`SnapshotStore::load`] recovered from disk.
#[derive(Debug, Clone, Default)]
pub struct StoreContents {
    /// Deployment artifacts whose bytes matched their manifest digest.
    pub catalog: Vec<CatalogArtifact>,
    /// `(durable id, EMSESS1 bytes)` for every recoverable session.
    pub sessions: Vec<(u64, Vec<u8>)>,
    /// Entries (manifest, catalog, or session) that were torn or corrupt
    /// and skipped rather than failing the boot.
    pub skipped: u64,
    /// The manifest as read (default-empty when missing or corrupt).
    pub manifest: StoreManifest,
}

#[derive(Debug, Default)]
struct StoreState {
    /// The last manifest known committed (primes unchanged-session reuse
    /// and pruning).
    previous: StoreManifest,
    /// Highest snapshot generation ever used per session id — monotonic
    /// so a retried checkpoint never overwrites a file an older manifest
    /// still references.
    generations: HashMap<u64, u64>,
    loaded: bool,
}

/// The crash-safe checkpoint store: data files, rotation, and the
/// atomically-committed `EMSTORE1` manifest. See the
/// [module docs](self) for the write protocol.
#[derive(Debug)]
pub struct SnapshotStore {
    io: Arc<dyn StoreIo>,
    keep: u64,
    state: Mutex<StoreState>,
}

fn session_file(id: u64, generation: u64) -> String {
    format!("s{id:016x}-g{generation:08}.emsess")
}

fn deployment_file(digest: u64) -> String {
    format!("d-{digest:016x}.emdeploy")
}

/// Parses `s{id:016x}-g{gen:08}.emsess` back into `(id, generation)`.
fn parse_session_file(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix('s')?.strip_suffix(".emsess")?;
    let (id_hex, generation) = rest.split_once("-g")?;
    if id_hex.len() != 16 || generation.len() != 8 {
        return None;
    }
    Some((
        u64::from_str_radix(id_hex, 16).ok()?,
        generation.parse().ok()?,
    ))
}

impl SnapshotStore {
    /// Opens a store over a real directory (created if needed), keeping
    /// `keep` snapshot generations per session.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory.
    pub fn open(dir: impl AsRef<Path>, keep: u64) -> io::Result<SnapshotStore> {
        Ok(SnapshotStore::with_io(Arc::new(DiskIo::open(dir)?), keep))
    }

    /// Wraps an explicit [`StoreIo`] — the fault-injection door.
    pub fn with_io(io: Arc<dyn StoreIo>, keep: u64) -> SnapshotStore {
        SnapshotStore {
            io,
            keep: keep.max(1),
            state: Mutex::new(StoreState::default()),
        }
    }

    /// The io seam (tests use it to crash/revive a [`MemIo`]).
    pub fn io(&self) -> &Arc<dyn StoreIo> {
        &self.io
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, StoreState> {
        self.state
            .lock()
            .expect("snapshot store state lock poisoned")
    }

    /// Scans on-disk session files so generation numbering resumes past
    /// anything already present — including unreferenced leftovers of a
    /// crashed checkpoint.
    fn scan_generations(&self) -> io::Result<HashMap<u64, u64>> {
        let mut generations: HashMap<u64, u64> = HashMap::new();
        for name in self.io.list()? {
            if let Some((id, generation)) = parse_session_file(&name) {
                let slot = generations.entry(id).or_insert(0);
                *slot = (*slot).max(generation);
            }
        }
        Ok(generations)
    }

    /// Primes in-memory state from an existing store directory before
    /// the first checkpoint through this handle.
    fn prime(&self, state: &mut StoreState) -> io::Result<()> {
        state.previous = match self.io.read(MANIFEST_FILE) {
            Ok(bytes) => {
                if let Some(found) = StoreManifest::peek_version(&bytes) {
                    if found > STORE_VERSION {
                        return Err(io::Error::other(format!(
                            "store manifest version {found} is newer than supported \
                             {STORE_VERSION}; refusing to overwrite"
                        )));
                    }
                }
                StoreManifest::from_bytes(&bytes).unwrap_or_default()
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => StoreManifest::default(),
            Err(e) => return Err(e),
        };
        state.generations = self.scan_generations()?;
        for entry in &state.previous.sessions {
            let slot = state.generations.entry(entry.id).or_insert(0);
            *slot = (*slot).max(entry.generation);
        }
        state.loaded = true;
        Ok(())
    }

    /// Writes one checkpoint: data files first (each fsynced), then the
    /// manifest via write-tmp → fsync → rename → fsync(dir). Unchanged
    /// sessions and already-committed artifacts reuse their files; a
    /// byte-identical manifest short-circuits without touching disk.
    ///
    /// # Errors
    ///
    /// I/O failure at any boundary. The previous checkpoint stays fully
    /// recoverable — generation numbering is bumped before each write so
    /// a retry never overwrites a referenced file.
    pub fn checkpoint(
        &self,
        catalog: &[CatalogArtifact],
        sessions: &[SessionCheckpoint],
    ) -> io::Result<CheckpointReport> {
        let mut state = self.lock_state();
        if !state.loaded {
            self.prime(&mut state)?;
        }
        let previous = state.previous.clone();
        let mut manifest = StoreManifest::default();
        for artifact in catalog {
            let digest = fnv1a64(&artifact.bytes);
            let file = deployment_file(digest);
            // Only trust files the committed manifest references (or
            // ones written earlier in this pass): a bare exists() could
            // be a torn leftover of a crashed write under the same name.
            let committed = previous.catalog.iter().any(|e| e.file == file)
                || manifest.catalog.iter().any(|e| e.file == file);
            if !committed {
                self.io.write_all(&file, &artifact.bytes)?;
                self.io.sync(&file)?;
            }
            manifest.catalog.push(StoreCatalogEntry {
                name: artifact.name.clone(),
                version: artifact.version,
                file,
                artifact_digest: digest,
            });
        }
        for checkpoint in sessions {
            let frames = checkpoint.snapshot.frames;
            let artifact_digest = checkpoint.snapshot.artifact_digest;
            if let Some(prev) = previous.sessions.iter().find(|e| e.id == checkpoint.id) {
                if prev.frames == frames && prev.artifact_digest == artifact_digest {
                    manifest.sessions.push(prev.clone());
                    continue;
                }
            }
            let generation = state.generations.get(&checkpoint.id).copied().unwrap_or(0) + 1;
            // Bump before writing: if the write crashes, the next
            // attempt picks a fresh name instead of overwriting bytes a
            // committed manifest may still reference.
            state.generations.insert(checkpoint.id, generation);
            let file = session_file(checkpoint.id, generation);
            self.io.write_all(&file, &checkpoint.snapshot.to_bytes())?;
            self.io.sync(&file)?;
            manifest.sessions.push(StoreSessionEntry {
                id: checkpoint.id,
                file,
                generation,
                frames,
                artifact_digest,
            });
        }
        if manifest == previous {
            return Ok(CheckpointReport {
                committed: false,
                sessions: manifest.sessions.len() as u64,
            });
        }
        self.io.write_all(MANIFEST_TMP, &manifest.to_bytes())?;
        self.io.sync(MANIFEST_TMP)?;
        self.io.rename(MANIFEST_TMP, MANIFEST_FILE)?;
        self.io.sync_dir()?;
        let sessions_committed = manifest.sessions.len() as u64;
        state.previous = manifest;
        self.prune(&state);
        Ok(CheckpointReport {
            committed: true,
            sessions: sessions_committed,
        })
    }

    /// Best-effort rotation after a commit: drop session generations
    /// older than the keep window, snapshots of sessions the manifest no
    /// longer references, and orphaned artifact files. Unknown names are
    /// left alone.
    fn prune(&self, state: &StoreState) {
        let Ok(names) = self.io.list() else { return };
        let manifest = &state.previous;
        for name in names {
            if name == MANIFEST_FILE {
                continue;
            }
            if name == MANIFEST_TMP {
                let _ = self.io.remove(&name);
                continue;
            }
            if let Some((id, generation)) = parse_session_file(&name) {
                let keep = manifest.sessions.iter().any(|e| {
                    e.id == id
                        && generation <= e.generation
                        && generation + self.keep > e.generation
                });
                if !keep {
                    let _ = self.io.remove(&name);
                }
            } else if name.starts_with("d-")
                && name.ends_with(".emdeploy")
                && !manifest.catalog.iter().any(|e| e.file == name)
            {
                let _ = self.io.remove(&name);
            }
        }
    }

    /// Reads the committed checkpoint back: the manifest, every artifact
    /// whose bytes still match their digest, and every session snapshot
    /// that validates — falling back to an older retained generation
    /// when the newest file is corrupt. Torn or corrupt entries are
    /// skipped and counted, never fatal; only a manifest written by a
    /// *newer* format version refuses the load.
    ///
    /// # Errors
    ///
    /// [`ServeError::StoreVersionAhead`] when the manifest's format
    /// version is newer than this build understands — hydrating (and
    /// later checkpointing over) such a store would silently destroy
    /// state a newer binary still wants.
    pub fn load(&self) -> Result<StoreContents> {
        let mut state = self.lock_state();
        let mut skipped: u64 = 0;
        let manifest = match self.io.read(MANIFEST_FILE) {
            Ok(bytes) => {
                if let Some(found) = StoreManifest::peek_version(&bytes) {
                    if found > STORE_VERSION {
                        return Err(ServeError::StoreVersionAhead {
                            found,
                            supported: STORE_VERSION,
                        });
                    }
                }
                match StoreManifest::from_bytes(&bytes) {
                    Ok(manifest) => manifest,
                    Err(_) => {
                        skipped += 1;
                        StoreManifest::default()
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => StoreManifest::default(),
            Err(_) => {
                skipped += 1;
                StoreManifest::default()
            }
        };
        let mut catalog = Vec::with_capacity(manifest.catalog.len());
        for entry in &manifest.catalog {
            match self.io.read(&entry.file) {
                Ok(bytes) if fnv1a64(&bytes) == entry.artifact_digest => {
                    catalog.push(CatalogArtifact {
                        name: entry.name.clone(),
                        version: entry.version,
                        bytes: Arc::new(bytes),
                    });
                }
                _ => skipped += 1,
            }
        }
        let on_disk = self.io.list().unwrap_or_default();
        let mut sessions = Vec::with_capacity(manifest.sessions.len());
        for entry in &manifest.sessions {
            if let Some(bytes) = self.recover_session(entry, &on_disk) {
                sessions.push((entry.id, bytes));
            } else {
                skipped += 1;
            }
        }
        state.previous = manifest.clone();
        state.generations = self.scan_generations().unwrap_or_default();
        for entry in &manifest.sessions {
            let slot = state.generations.entry(entry.id).or_insert(0);
            *slot = (*slot).max(entry.generation);
        }
        state.loaded = true;
        Ok(StoreContents {
            catalog,
            sessions,
            skipped,
            manifest,
        })
    }

    /// The referenced snapshot if it validates, else the newest older
    /// retained generation that does (stale-but-consistent beats lost).
    fn recover_session(&self, entry: &StoreSessionEntry, on_disk: &[String]) -> Option<Vec<u8>> {
        if let Ok(bytes) = self.io.read(&entry.file) {
            if SessionSnapshot::from_bytes(&bytes).is_ok() {
                return Some(bytes);
            }
        }
        let mut fallbacks: Vec<u64> = on_disk
            .iter()
            .filter_map(|name| parse_session_file(name))
            .filter(|&(id, generation)| id == entry.id && generation < entry.generation)
            .map(|(_, generation)| generation)
            .collect();
        fallbacks.sort_unstable_by(|a, b| b.cmp(a));
        for generation in fallbacks {
            let file = session_file(entry.id, generation);
            if let Ok(bytes) = self.io.read(&file) {
                if SessionSnapshot::from_bytes(&bytes).is_ok() {
                    return Some(bytes);
                }
            }
        }
        None
    }
}

/// One durable session as the hub tracks it: a weak handle to the live
/// tracker plus the immutable identity fields a checkpoint needs.
#[derive(Debug)]
struct RosterEntry {
    tracker: Weak<Mutex<TrackingReconstructor>>,
    name: String,
    version: u32,
    gain: f64,
    k: usize,
    m: usize,
    artifact_digest: u64,
}

/// What one hydration pass recovered (mirrored into the metrics
/// counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HydrationReport {
    /// Deployments republished from the persisted catalog.
    pub deployments: u64,
    /// Sessions rehydrated and re-enrolled for checkpointing.
    pub sessions: u64,
    /// Corrupt/torn/mismatched entries skipped (and metered) instead of
    /// failing the boot.
    pub skipped: u64,
}

/// The result of [`Server::hydrate`](crate::Server::hydrate): the
/// recovery accounting plus the rehydrated sessions, keyed by their
/// durable ids so a front door can re-home them (e.g. `NetServer`
/// adoption for the wire `Attach` request).
#[derive(Debug)]
pub struct Hydration {
    /// Recovery accounting.
    pub report: HydrationReport,
    /// `(durable id, session)` for every recovered session.
    pub sessions: Vec<(u64, TrackerSession)>,
}

/// The per-`(name, version)` cache of serialized `EMDEPLOY` bytes.
type ArtifactCache = Mutex<HashMap<(String, u32), Arc<Vec<u8>>>>;

/// The background checkpointing service: a weak roster of every durable
/// session, a clock-injected cadence, and [`DurabilityHub::checkpoint_now`]
/// — the job the batcher throws onto the executor's fire-and-forget
/// spawn lane whenever the cadence elapses.
///
/// All timing flows through caller-passed [`Duration`]s (time since the
/// server's epoch), so tests drive `due`/`arm` with a mock clock and
/// zero sleeps.
#[derive(Debug)]
pub struct DurabilityHub {
    store: SnapshotStore,
    registry: Arc<DeploymentRegistry>,
    metrics: Arc<ServeMetrics>,
    cadence: Duration,
    /// When the next background checkpoint is due; `None` means "never
    /// armed yet" — due immediately.
    next_due: Mutex<Option<Duration>>,
    next_id: AtomicU64,
    /// Single-flight gate: overlapping checkpoint jobs collapse to one.
    running: AtomicBool,
    roster: Mutex<HashMap<u64, RosterEntry>>,
    /// Serialized `EMDEPLOY` bytes per live `(name, version)` so steady-
    /// state checkpoints never re-serialize unchanged artifacts.
    artifacts: ArtifactCache,
}

impl DurabilityHub {
    /// A hub over `store`, checkpointing `registry`'s catalog and every
    /// enrolled session each `cadence`.
    pub(crate) fn new(
        store: SnapshotStore,
        registry: Arc<DeploymentRegistry>,
        metrics: Arc<ServeMetrics>,
        cadence: Duration,
    ) -> DurabilityHub {
        DurabilityHub {
            store,
            registry,
            metrics,
            cadence,
            next_due: Mutex::new(None),
            next_id: AtomicU64::new(1),
            running: AtomicBool::new(false),
            roster: Mutex::new(HashMap::new()),
            artifacts: Mutex::new(HashMap::new()),
        }
    }

    /// The checkpoint cadence this hub was installed with.
    pub fn cadence(&self) -> Duration {
        self.cadence
    }

    /// The store's io seam (tests crash/revive a [`MemIo`] through it).
    pub fn io(&self) -> &Arc<dyn StoreIo> {
        self.store.io()
    }

    /// Enrolls a freshly opened session under a new durable id.
    pub(crate) fn register(&self, session: &TrackerSession) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.enroll(id, session);
        id
    }

    /// Re-enrolls a hydrated session under its preserved durable id.
    pub(crate) fn adopt(&self, id: u64, session: &TrackerSession) {
        let mut current = self.next_id.load(Ordering::Relaxed);
        while current <= id {
            match self.next_id.compare_exchange(
                current,
                id + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
        self.enroll(id, session);
    }

    fn enroll(&self, id: u64, session: &TrackerSession) {
        let entry = RosterEntry {
            tracker: Arc::downgrade(session.tracker()),
            name: session.name().to_string(),
            version: session.version(),
            gain: session.gain(),
            k: session.deployment().k(),
            m: session.deployment().m(),
            artifact_digest: session.artifact_digest(),
        };
        self.roster
            .lock()
            .expect("durability roster lock poisoned")
            .insert(id, entry);
    }

    /// Enrolled sessions whose tracker is still alive.
    pub fn roster_len(&self) -> usize {
        let mut roster = self.roster.lock().expect("durability roster lock poisoned");
        roster.retain(|_, entry| entry.tracker.strong_count() > 0);
        roster.len()
    }

    /// Whether a background checkpoint is due at `now` (time since the
    /// server's epoch). A hub that has never been armed is due
    /// immediately.
    pub fn due(&self, now: Duration) -> bool {
        self.next_due
            .lock()
            .expect("durability deadline lock poisoned")
            .is_none_or(|deadline| now >= deadline)
    }

    /// Schedules the next checkpoint one cadence after `now`.
    pub fn arm(&self, now: Duration) {
        *self
            .next_due
            .lock()
            .expect("durability deadline lock poisoned") = Some(now + self.cadence);
    }

    /// The absolute deadline of the next checkpoint (zero when never
    /// armed — due immediately). The batcher folds this into its
    /// `recv_timeout` so cadence wake-ups need no extra thread.
    pub fn deadline(&self) -> Duration {
        self.next_due
            .lock()
            .expect("durability deadline lock poisoned")
            .unwrap_or(Duration::ZERO)
    }

    /// Runs one checkpoint synchronously: captures every live enrolled
    /// session's state under its tracker lock (one lock per session, no
    /// global pause), serializes any catalog artifacts not already
    /// cached, and commits through the store. Overlapping calls collapse
    /// — a second caller returns immediately with `committed: false`.
    ///
    /// # Errors
    ///
    /// I/O failure from the store; the previous checkpoint stays fully
    /// recoverable.
    pub fn checkpoint_now(&self) -> io::Result<CheckpointReport> {
        if self.running.swap(true, Ordering::AcqRel) {
            return Ok(CheckpointReport::default());
        }
        struct RunningGuard<'a>(&'a AtomicBool);
        impl Drop for RunningGuard<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _guard = RunningGuard(&self.running);

        let live = self.registry.artifacts();
        let mut catalog = Vec::with_capacity(live.len());
        {
            let mut cache = self
                .artifacts
                .lock()
                .expect("durability artifact cache lock poisoned");
            cache.retain(|(name, version), _| {
                live.iter().any(|(n, v, _)| n == name && v == version)
            });
            for (name, version, deployment) in &live {
                let bytes = Arc::clone(
                    cache
                        .entry((name.clone(), *version))
                        .or_insert_with(|| Arc::new(deployment.to_bytes())),
                );
                catalog.push(CatalogArtifact {
                    name: name.clone(),
                    version: *version,
                    bytes,
                });
            }
        }

        let mut sessions = Vec::new();
        {
            let mut roster = self.roster.lock().expect("durability roster lock poisoned");
            roster.retain(|_, entry| entry.tracker.strong_count() > 0);
            for (&id, entry) in roster.iter() {
                let Some(tracker) = entry.tracker.upgrade() else {
                    continue;
                };
                // A poisoned tracker is skipped this round, not fatal.
                let Ok(guard) = tracker.lock() else { continue };
                let (state, frames) = (guard.export_state(), guard.frames());
                drop(guard);
                sessions.push(SessionCheckpoint {
                    id,
                    snapshot: SessionSnapshot {
                        deployment: entry.name.clone(),
                        version: entry.version,
                        gain: entry.gain,
                        frames,
                        k: entry.k,
                        m: entry.m,
                        artifact_digest: entry.artifact_digest,
                        state,
                    },
                });
            }
        }
        sessions.sort_by_key(|checkpoint| checkpoint.id);

        let report = self.store.checkpoint(&catalog, &sessions)?;
        if report.committed {
            self.metrics.record_checkpoint(report.sessions);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::two_mode_deployment;
    use crate::Server;

    fn manifest_names(io: &MemIo) -> Vec<String> {
        let mut names = io.list().expect("list");
        names.sort();
        names
    }

    fn sample_snapshot(frames: u64) -> SessionSnapshot {
        SessionSnapshot {
            deployment: "chip-a".into(),
            version: 1,
            gain: 0.35,
            frames,
            k: 3,
            m: 6,
            artifact_digest: 0xD16E57,
            state: Some(vec![1.0, 2.0, 3.0]),
        }
    }

    fn artifact(name: &str, version: u32) -> CatalogArtifact {
        let (deployment, _) = two_mode_deployment(6, 6, 3, 6);
        CatalogArtifact {
            name: name.into(),
            version,
            bytes: Arc::new(deployment.to_bytes()),
        }
    }

    #[test]
    fn checkpoint_then_load_roundtrips() {
        let io = MemIo::new();
        let store = SnapshotStore::with_io(io.clone(), 2);
        let snapshot = sample_snapshot(7);
        let report = store
            .checkpoint(
                &[artifact("chip-a", 1)],
                &[SessionCheckpoint {
                    id: 42,
                    snapshot: snapshot.clone(),
                }],
            )
            .expect("checkpoint");
        assert!(report.committed);
        assert_eq!(report.sessions, 1);

        let contents = store.load().expect("load");
        assert_eq!(contents.skipped, 0);
        assert_eq!(contents.catalog.len(), 1);
        assert_eq!(contents.catalog[0].name, "chip-a");
        assert_eq!(contents.sessions.len(), 1);
        assert_eq!(contents.sessions[0].0, 42);
        let recovered = SessionSnapshot::from_bytes(&contents.sessions[0].1).expect("parse");
        assert_eq!(recovered, snapshot);
    }

    #[test]
    fn unchanged_checkpoint_short_circuits() {
        let io = MemIo::new();
        let store = SnapshotStore::with_io(io.clone(), 2);
        let sessions = [SessionCheckpoint {
            id: 1,
            snapshot: sample_snapshot(3),
        }];
        assert!(store.checkpoint(&[], &sessions).expect("first").committed);
        let ops = io.mutating_ops();
        let second = store.checkpoint(&[], &sessions).expect("second");
        assert!(!second.committed);
        assert_eq!(io.mutating_ops(), ops, "no-change checkpoint touched disk");
    }

    #[test]
    fn rotation_prunes_old_generations() {
        let io = MemIo::new();
        let store = SnapshotStore::with_io(io.clone(), 2);
        for frames in [1u64, 2, 3] {
            store
                .checkpoint(
                    &[],
                    &[SessionCheckpoint {
                        id: 9,
                        snapshot: sample_snapshot(frames),
                    }],
                )
                .expect("checkpoint");
        }
        let names = manifest_names(&io);
        assert!(
            !names.contains(&session_file(9, 1)),
            "gen 1 not pruned: {names:?}"
        );
        assert!(names.contains(&session_file(9, 2)));
        assert!(names.contains(&session_file(9, 3)));
    }

    #[test]
    fn corrupt_newest_generation_falls_back_to_older() {
        let io = MemIo::new();
        let store = SnapshotStore::with_io(io.clone(), 3);
        for frames in [10u64, 20] {
            store
                .checkpoint(
                    &[],
                    &[SessionCheckpoint {
                        id: 5,
                        snapshot: sample_snapshot(frames),
                    }],
                )
                .expect("checkpoint");
        }
        // Corrupt the newest generation on "disk" (external bit rot).
        io.write_all(&session_file(5, 2), b"garbage")
            .expect("write");
        io.sync(&session_file(5, 2)).expect("sync");

        let contents = store.load().expect("load");
        assert_eq!(contents.skipped, 0);
        assert_eq!(contents.sessions.len(), 1);
        let recovered = SessionSnapshot::from_bytes(&contents.sessions[0].1).expect("parse");
        assert_eq!(recovered.frames, 10, "should fall back to generation 1");
    }

    #[test]
    fn missing_store_loads_empty() {
        let store = SnapshotStore::with_io(MemIo::new(), 2);
        let contents = store.load().expect("load");
        assert_eq!(contents.skipped, 0);
        assert!(contents.catalog.is_empty());
        assert!(contents.sessions.is_empty());
    }

    #[test]
    fn newer_manifest_version_refuses_load() {
        let io = MemIo::new();
        let mut bytes = b"EMSTORE1".to_vec();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        io.write_all(MANIFEST_FILE, &bytes).expect("write");
        io.sync(MANIFEST_FILE).expect("sync");
        let store = SnapshotStore::with_io(io, 2);
        match store.load() {
            Err(ServeError::StoreVersionAhead { found, supported }) => {
                assert_eq!(found, 2);
                assert_eq!(supported, STORE_VERSION);
            }
            other => panic!("expected StoreVersionAhead, got {other:?}"),
        }
    }

    #[test]
    fn torn_manifest_is_skipped_and_metered() {
        let io = MemIo::new();
        let store = SnapshotStore::with_io(io.clone(), 2);
        store
            .checkpoint(
                &[],
                &[SessionCheckpoint {
                    id: 2,
                    snapshot: sample_snapshot(4),
                }],
            )
            .expect("checkpoint");
        let good = io.read(MANIFEST_FILE).expect("read");
        io.write_all(MANIFEST_FILE, &good[..good.len() - 3])
            .expect("write");
        io.sync(MANIFEST_FILE).expect("sync");

        let fresh = SnapshotStore::with_io(io, 2);
        let contents = fresh.load().expect("load");
        assert_eq!(contents.skipped, 1);
        assert!(contents.sessions.is_empty());
    }

    #[test]
    fn rename_of_unsynced_file_commits_empty_bytes() {
        // The hazard the write → fsync → rename discipline exists to
        // dodge: rename metadata journals, unsynced data does not.
        let io = MemIo::new();
        io.write_all("a.tmp", b"payload").expect("write");
        io.rename("a.tmp", "a.dat").expect("rename");
        io.lock().crash();
        io.revive();
        assert_eq!(io.read("a.dat").expect("read"), Vec::<u8>::new());
    }

    #[test]
    fn mem_io_crash_loses_unsynced_writes() {
        let io = MemIo::new();
        io.write_all("synced", b"stay").expect("write");
        io.sync("synced").expect("sync");
        io.write_all("volatile", b"lost").expect("write");
        io.schedule_crash(io.mutating_ops(), CrashStyle::Before);
        assert!(io.sync_dir().is_err(), "scheduled crash should fire");
        assert!(io.crashed());
        assert!(io.read("synced").is_err(), "io stays down until revive");
        io.revive();
        assert_eq!(io.read("synced").expect("read"), b"stay");
        assert!(
            io.read("volatile").is_err(),
            "unsynced write survived crash"
        );
    }

    #[test]
    fn hub_cadence_is_clock_injected() {
        let store = SnapshotStore::with_io(MemIo::new(), 2);
        let hub = DurabilityHub::new(
            store,
            Arc::new(DeploymentRegistry::default()),
            Arc::new(ServeMetrics::new(1)),
            Duration::from_millis(250),
        );
        assert!(hub.due(Duration::ZERO), "unarmed hub is due immediately");
        assert_eq!(hub.deadline(), Duration::ZERO);
        hub.arm(Duration::from_millis(100));
        assert_eq!(hub.deadline(), Duration::from_millis(350));
        assert!(!hub.due(Duration::from_millis(349)));
        assert!(hub.due(Duration::from_millis(350)));
    }

    #[test]
    fn hub_checkpoints_live_sessions_and_drops_dead_ones() {
        let registry = Arc::new(DeploymentRegistry::default());
        let (deployment, _) = two_mode_deployment(6, 6, 3, 6);
        registry.publish("chip-a", deployment);
        let metrics = Arc::new(ServeMetrics::new(1));
        let io = MemIo::new();
        let hub = DurabilityHub::new(
            SnapshotStore::with_io(io.clone(), 2),
            Arc::clone(&registry),
            Arc::clone(&metrics),
            Duration::from_secs(3600),
        );

        // Not hydrated, so nothing enrolls the sessions but this test.
        let server = Server::new(Arc::clone(&registry), 1);
        let mut keep = server.open_session("chip-a", 0.3).expect("open");
        keep.step(&[30.0; 6]).expect("step");
        let keep_id = hub.register(&keep);
        {
            let drop_me = server.open_session("chip-a", 0.3).expect("open");
            let _ = hub.register(&drop_me);
            assert_eq!(hub.roster_len(), 2);
        }
        assert_eq!(hub.roster_len(), 1, "dead session pruned from roster");

        let report = hub.checkpoint_now().expect("checkpoint");
        assert!(report.committed);
        assert_eq!(report.sessions, 1);
        assert_eq!(metrics.snapshot().wire.checkpoints, 1);

        let contents = SnapshotStore::with_io(io, 2).load().expect("load");
        assert_eq!(contents.sessions.len(), 1);
        assert_eq!(contents.sessions[0].0, keep_id);
        let snapshot = SessionSnapshot::from_bytes(&contents.sessions[0].1).expect("parse");
        assert_eq!(snapshot.frames, 1);
        assert_eq!(contents.catalog.len(), 1);
    }

    #[test]
    fn overlapping_checkpoints_collapse() {
        let hub = DurabilityHub::new(
            SnapshotStore::with_io(MemIo::new(), 2),
            Arc::new(DeploymentRegistry::default()),
            Arc::new(ServeMetrics::new(1)),
            Duration::from_secs(1),
        );
        hub.running.store(true, Ordering::Release);
        let report = hub.checkpoint_now().expect("checkpoint");
        assert!(!report.committed);
        hub.running.store(false, Ordering::Release);
    }

    #[test]
    fn adopt_keeps_fresh_ids_past_preserved_ones() {
        let registry = Arc::new(DeploymentRegistry::default());
        let (deployment, _) = two_mode_deployment(6, 6, 3, 6);
        registry.publish("chip-a", deployment);
        let hub = DurabilityHub::new(
            SnapshotStore::with_io(MemIo::new(), 2),
            Arc::clone(&registry),
            Arc::new(ServeMetrics::new(1)),
            Duration::from_secs(1),
        );
        let server = Server::new(Arc::clone(&registry), 1);
        let session = server.open_session("chip-a", 0.3).expect("open");
        hub.adopt(17, &session);
        let fresh = server.open_session("chip-a", 0.3).expect("open");
        assert_eq!(hub.register(&fresh), 18);
    }
}
