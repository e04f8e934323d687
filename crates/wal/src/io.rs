//! The seam between log logic and the bytes underneath.
//!
//! [`LogIo`] is one open segment (append + fsync); [`LogStore`] is the
//! directory around it: create/read/list/remove segments, atomically
//! rewrite one (torn-tail repair), and write/read the snapshot image via
//! temp-file + rename. Two implementations:
//!
//! * [`FileStore`]/[`FileLog`] — real files. Segments are named
//!   `wal-<start-lsn>.log` (zero-padded so lexicographic = numeric
//!   order); every write path ends in an explicit `sync_data`/`sync_all`
//!   before the handle can be dropped, and renames are followed by a
//!   directory fsync so the *name* is as durable as the bytes.
//! * [`SimStore`]/[`SimLog`] — an in-memory double with a crash model.
//!   Each file is `durable` bytes plus a `volatile` tail; `append` lands
//!   in the tail, `sync` moves the tail below the durability line. An
//!   armed [`SimCrashPlan`] kills the store at operation `k`: the op
//!   fails with [`WalError::Crashed`] (as does everything after it), and
//!   each volatile tail collapses to a torn prefix drawn from the seeded
//!   [`FaultInjector`] stream — exactly the state a power cut leaves on a
//!   real disk. [`SimStore::reopen`] is the reboot.
//!
//! Mutating store operations (`create_log`, `remove_log`, `rewrite_log`,
//! `write_snapshot`, every `append` and `sync`) are the crash-schedule
//! points; reads are not (recovery happens after the reboot). Snapshot
//! and rewrite are modeled atomic because the file implementation goes
//! through rename, which either happens or does not.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mst_index::{FaultConfig, FaultInjector};

use crate::{Result, WalError};

/// One open log segment: buffered appends made durable by [`sync`].
///
/// [`sync`]: LogIo::sync
pub trait LogIo {
    /// Appends `bytes` at the end of the segment. The bytes are *not*
    /// durable until the next [`LogIo::sync`] returns.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;

    /// Makes every appended byte durable (one fsync).
    fn sync(&mut self) -> Result<()>;

    /// Bytes appended so far (durable or not).
    fn len(&self) -> u64;

    /// Whether nothing has been appended yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The directory a write-ahead log lives in.
pub trait LogStore {
    /// The segment handle this store hands out.
    type Log: LogIo;

    /// Creates (truncating any previous file of the same name) the
    /// segment whose first record will carry `start_lsn`.
    fn create_log(&self, start_lsn: u64) -> Result<Self::Log>;

    /// The full contents of a segment, durable bytes and unsynced tail
    /// alike (what a reader of the live file would see).
    fn read_log(&self, start_lsn: u64) -> Result<Vec<u8>>;

    /// Start LSNs of every segment, ascending.
    fn list_logs(&self) -> Result<Vec<u64>>;

    /// Removes one segment (post-checkpoint truncation).
    fn remove_log(&self, start_lsn: u64) -> Result<()>;

    /// Atomically replaces one segment's contents (torn-tail repair:
    /// the valid prefix survives, the damage does not).
    fn rewrite_log(&self, start_lsn: u64, bytes: &[u8]) -> Result<()>;

    /// Atomically replaces the snapshot image (temp-file + rename).
    fn write_snapshot(&self, bytes: &[u8]) -> Result<()>;

    /// The snapshot image, if one has ever been written.
    fn read_snapshot(&self) -> Result<Option<Vec<u8>>>;
}

fn io_err(context: &str, e: std::io::Error) -> WalError {
    WalError::Io(format!("{context}: {e}"))
}

// ---------------------------------------------------------------------------
// File-backed store
// ---------------------------------------------------------------------------

const SNAPSHOT_NAME: &str = "snapshot.img";
const TMP_SUFFIX: &str = ".tmp";

/// A directory of `wal-<start-lsn>.log` segments plus `snapshot.img`.
#[derive(Clone)]
pub struct FileStore {
    dir: PathBuf,
}

impl FileStore {
    /// Opens (creating if absent) the log directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create log dir", e))?;
        Ok(FileStore { dir })
    }

    fn segment_path(&self, start_lsn: u64) -> PathBuf {
        self.dir.join(format!("wal-{start_lsn:020}.log"))
    }

    /// Fsyncs the directory itself so renames/creates survive a crash.
    fn sync_dir(&self) -> Result<()> {
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("sync log dir", e))
    }

    /// Writes `bytes` to `<path>.tmp`, fsyncs, renames over `path`,
    /// fsyncs the directory. The visible file is never half-written.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(TMP_SUFFIX);
        let tmp = PathBuf::from(tmp);
        let mut f = File::create(&tmp).map_err(|e| io_err("create temp file", e))?;
        f.write_all(bytes)
            .map_err(|e| io_err("write temp file", e))?;
        f.sync_all().map_err(|e| io_err("sync temp file", e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| io_err("rename over target", e))?;
        self.sync_dir()
    }
}

impl LogStore for FileStore {
    type Log = FileLog;

    fn create_log(&self, start_lsn: u64) -> Result<FileLog> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.segment_path(start_lsn))
            .map_err(|e| io_err("create segment", e))?;
        // The directory entry must be durable before the first commit is
        // acked, and create_log is the only chance to sync it.
        self.sync_dir()?;
        Ok(FileLog {
            file,
            written: 0,
            dirty: false,
        })
    }

    fn read_log(&self, start_lsn: u64) -> Result<Vec<u8>> {
        fs::read(self.segment_path(start_lsn)).map_err(|e| io_err("read segment", e))
    }

    fn list_logs(&self) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("list log dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list log dir", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(lsn) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                out.push(lsn);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn remove_log(&self, start_lsn: u64) -> Result<()> {
        fs::remove_file(self.segment_path(start_lsn)).map_err(|e| io_err("remove segment", e))?;
        self.sync_dir()
    }

    fn rewrite_log(&self, start_lsn: u64, bytes: &[u8]) -> Result<()> {
        self.write_atomic(&self.segment_path(start_lsn), bytes)
    }

    fn write_snapshot(&self, bytes: &[u8]) -> Result<()> {
        self.write_atomic(&self.dir.join(SNAPSHOT_NAME), bytes)
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>> {
        match fs::read(self.dir.join(SNAPSHOT_NAME)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read snapshot", e)),
        }
    }
}

/// One open file segment. Appends buffer in the OS page cache;
/// [`LogIo::sync`] is `fdatasync`. Dropping an unsynced handle loses the
/// tail on a crash, so `Drop` downgrades to a best-effort sync — commit
/// paths must still sync explicitly (a failed sync in `Drop` cannot be
/// reported, only not-lied-about).
pub struct FileLog {
    file: File,
    written: u64,
    dirty: bool,
}

impl LogIo for FileLog {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err("append to segment", e))?;
        self.written += bytes.len() as u64;
        self.dirty = true;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| io_err("sync segment", e))?;
        self.dirty = false;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.written
    }
}

impl Drop for FileLog {
    fn drop(&mut self) {
        if self.dirty {
            // invariant: best-effort flush in Drop — commit() is the real
            // barrier, and Drop has no channel to report an error anyway
            let _ = self.file.sync_data();
        }
    }
}

// ---------------------------------------------------------------------------
// Simulated store with a crash model
// ---------------------------------------------------------------------------

/// Kill the store at durability operation `kill_at_op` (0-based over
/// every mutating store/segment operation); torn-prefix lengths come
/// from the [`FaultInjector`] stream seeded with `seed`.
#[derive(Debug, Clone, Copy)]
pub struct SimCrashPlan {
    /// The operation index at which the crash fires (the op itself never
    /// happens).
    pub kill_at_op: u64,
    /// Seed of the torn-prefix randomness.
    pub seed: u64,
}

struct SimFile {
    durable: Vec<u8>,
    volatile: Vec<u8>,
}

struct ArmedPlan {
    kill_at_op: u64,
    injector: FaultInjector,
}

struct SimState {
    segments: BTreeMap<u64, SimFile>,
    snapshot: Option<Vec<u8>>,
    plan: Option<ArmedPlan>,
    ops: u64,
    crashed: bool,
}

/// In-memory [`LogStore`] double with a durability line and a scheduled
/// crash. Clones share the same state — the crash harness keeps one
/// clone to arm plans and reboot while the database under test owns
/// another.
#[derive(Clone)]
pub struct SimStore {
    state: Arc<Mutex<SimState>>,
}

impl Default for SimStore {
    fn default() -> Self {
        SimStore::new()
    }
}

impl SimStore {
    /// An empty store with no crash scheduled.
    pub fn new() -> Self {
        SimStore {
            state: Arc::new(Mutex::new(SimState {
                segments: BTreeMap::new(),
                snapshot: None,
                plan: None,
                ops: 0,
                crashed: false,
            })),
        }
    }

    /// Poison recovery is sound here: every mutation under the lock is a
    /// whole-value replacement or append on one entry, and the crash
    /// model itself is the only multi-step transition — which is exactly
    /// the state a test wants to observe after a panic.
    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms a crash: operation `plan.kill_at_op` (and everything after
    /// it) fails with [`WalError::Crashed`]. Re-arming replaces any
    /// previous plan; the op counter keeps running.
    pub fn arm(&self, plan: SimCrashPlan) {
        let mut state = self.lock();
        state.plan = Some(ArmedPlan {
            kill_at_op: plan.kill_at_op,
            injector: FaultInjector::new(FaultConfig::quiet(plan.seed)),
        });
    }

    /// Reboots after a crash: volatile tails are gone (the crash already
    /// collapsed them to their torn prefixes), the store works again.
    pub fn reopen(&self) {
        let mut state = self.lock();
        state.crashed = false;
        state.plan = None;
        for file in state.segments.values_mut() {
            file.volatile.clear();
        }
    }

    /// Whether the scheduled crash has fired.
    pub fn has_crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Mutating operations performed so far — run a workload once
    /// without a plan to learn its schedule length, then kill at every
    /// `0..op_count` in turn.
    pub fn op_count(&self) -> u64 {
        self.lock().ops
    }

    /// The crash-schedule gate: every mutating operation passes through
    /// here exactly once. At the kill point the crash fires *instead of*
    /// the operation: each volatile tail collapses to a torn prefix
    /// (deterministic, keyed iteration order), and this plus every later
    /// operation reports [`WalError::Crashed`].
    fn gate(state: &mut SimState) -> Result<()> {
        if state.crashed {
            return Err(WalError::Crashed);
        }
        if let Some(plan) = &mut state.plan {
            if state.ops >= plan.kill_at_op {
                for file in state.segments.values_mut() {
                    let keep = plan.injector.draw_torn_len(file.volatile.len());
                    file.volatile.truncate(keep);
                    let torn = std::mem::take(&mut file.volatile);
                    file.durable.extend_from_slice(&torn);
                }
                state.plan = None;
                state.crashed = true;
                return Err(WalError::Crashed);
            }
        }
        state.ops += 1;
        Ok(())
    }

    fn read_gate(state: &SimState) -> Result<()> {
        if state.crashed {
            return Err(WalError::Crashed);
        }
        Ok(())
    }
}

impl LogStore for SimStore {
    type Log = SimLog;

    fn create_log(&self, start_lsn: u64) -> Result<SimLog> {
        let mut state = self.lock();
        SimStore::gate(&mut state)?;
        state.segments.insert(
            start_lsn,
            SimFile {
                durable: Vec::new(),
                volatile: Vec::new(),
            },
        );
        Ok(SimLog {
            start_lsn,
            state: Arc::clone(&self.state),
        })
    }

    fn read_log(&self, start_lsn: u64) -> Result<Vec<u8>> {
        let state = self.lock();
        SimStore::read_gate(&state)?;
        let file = state
            .segments
            .get(&start_lsn)
            .ok_or_else(|| WalError::Io(format!("no segment starting at lsn {start_lsn}")))?;
        let mut out = file.durable.clone();
        out.extend_from_slice(&file.volatile);
        Ok(out)
    }

    fn list_logs(&self) -> Result<Vec<u64>> {
        let state = self.lock();
        SimStore::read_gate(&state)?;
        Ok(state.segments.keys().copied().collect())
    }

    fn remove_log(&self, start_lsn: u64) -> Result<()> {
        let mut state = self.lock();
        SimStore::gate(&mut state)?;
        state
            .segments
            .remove(&start_lsn)
            .map(|_| ())
            .ok_or_else(|| WalError::Io(format!("no segment starting at lsn {start_lsn}")))
    }

    fn rewrite_log(&self, start_lsn: u64, bytes: &[u8]) -> Result<()> {
        let mut state = self.lock();
        SimStore::gate(&mut state)?;
        state.segments.insert(
            start_lsn,
            SimFile {
                durable: bytes.to_vec(),
                volatile: Vec::new(),
            },
        );
        Ok(())
    }

    fn write_snapshot(&self, bytes: &[u8]) -> Result<()> {
        let mut state = self.lock();
        SimStore::gate(&mut state)?;
        state.snapshot = Some(bytes.to_vec());
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>> {
        let state = self.lock();
        SimStore::read_gate(&state)?;
        Ok(state.snapshot.clone())
    }
}

/// One simulated segment handle; see [`SimStore`].
pub struct SimLog {
    start_lsn: u64,
    state: Arc<Mutex<SimState>>,
}

impl SimLog {
    fn lock(&self) -> MutexGuard<'_, SimState> {
        // Same recovery rationale as SimStore::lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl LogIo for SimLog {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let mut state = self.lock();
        SimStore::gate(&mut state)?;
        let file = state
            .segments
            .get_mut(&self.start_lsn)
            .ok_or_else(|| WalError::Io(format!("segment {} was removed", self.start_lsn)))?;
        file.volatile.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let mut state = self.lock();
        SimStore::gate(&mut state)?;
        let file = state
            .segments
            .get_mut(&self.start_lsn)
            .ok_or_else(|| WalError::Io(format!("segment {} was removed", self.start_lsn)))?;
        let tail = std::mem::take(&mut file.volatile);
        file.durable.extend_from_slice(&tail);
        Ok(())
    }

    fn len(&self) -> u64 {
        let state = self.lock();
        state
            .segments
            .get(&self.start_lsn)
            .map(|f| (f.durable.len() + f.volatile.len()) as u64)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_unsynced_appends_do_not_fully_survive_a_crash() {
        let store = SimStore::new();
        let mut log = store.create_log(1).unwrap();
        log.append(b"durable-part").unwrap();
        log.sync().unwrap();
        log.append(b"volatile-part").unwrap();
        // Ops so far: create(0), append(1), sync(2), append(3). Kill at 4.
        store.arm(SimCrashPlan {
            kill_at_op: 4,
            seed: 7,
        });
        assert!(matches!(log.sync(), Err(WalError::Crashed)));
        assert!(store.has_crashed());
        assert!(matches!(log.append(b"x"), Err(WalError::Crashed)));

        store.reopen();
        let bytes = store.read_log(1).unwrap();
        assert!(bytes.starts_with(b"durable-part"), "synced bytes survive");
        assert!(
            bytes.len() <= b"durable-part".len() + b"volatile-part".len(),
            "the tail can only shrink"
        );
    }

    #[test]
    fn sim_torn_prefix_is_deterministic_per_seed() {
        let run = |seed| {
            let store = SimStore::new();
            let mut log = store.create_log(1).unwrap();
            log.append(&[0xAB; 64]).unwrap();
            store.arm(SimCrashPlan {
                kill_at_op: 2,
                seed,
            });
            let _ = log.sync();
            store.reopen();
            store.read_log(1).unwrap().len()
        };
        assert_eq!(run(42), run(42), "same seed, same tear");
    }

    #[test]
    fn sim_snapshot_writes_are_atomic_under_crash() {
        let store = SimStore::new();
        store.write_snapshot(b"first").unwrap();
        store.arm(SimCrashPlan {
            kill_at_op: 1,
            seed: 1,
        });
        assert!(matches!(
            store.write_snapshot(b"second"),
            Err(WalError::Crashed)
        ));
        store.reopen();
        assert_eq!(
            store.read_snapshot().unwrap().as_deref(),
            Some(&b"first"[..])
        );
    }

    #[test]
    fn file_store_roundtrips_segments_and_snapshots() {
        let dir = std::env::temp_dir().join(format!("mst-wal-io-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.read_snapshot().unwrap(), None);
        assert_eq!(store.list_logs().unwrap(), Vec::<u64>::new());

        let mut log = store.create_log(5).unwrap();
        log.append(b"hello ").unwrap();
        log.append(b"wal").unwrap();
        log.sync().unwrap();
        assert_eq!(log.len(), 9);
        drop(log);
        let _ = store.create_log(900).unwrap();

        assert_eq!(store.list_logs().unwrap(), vec![5, 900]);
        assert_eq!(store.read_log(5).unwrap(), b"hello wal");

        store.rewrite_log(5, b"hello").unwrap();
        assert_eq!(store.read_log(5).unwrap(), b"hello");

        store.write_snapshot(b"image-1").unwrap();
        store.write_snapshot(b"image-2").unwrap();
        assert_eq!(
            store.read_snapshot().unwrap().as_deref(),
            Some(&b"image-2"[..])
        );

        store.remove_log(900).unwrap();
        assert_eq!(store.list_logs().unwrap(), vec![5]);
        let _ = fs::remove_dir_all(&dir);
    }
}
