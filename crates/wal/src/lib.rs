//! Durable, crash-recoverable storage for the MST database.
//!
//! The index crates give us checksummed 4 KiB pages, snapshot images, and
//! deterministic fault injection; the executor gives us a sharded
//! database with an online ingest lane. This crate couples them into a
//! store that survives the process:
//!
//! * [`WalRecord`]/[`record`] — the log record grammar: length-prefixed
//!   frames sealed with the same word-folded FNV checksum the page layer
//!   uses ([`mst_index::checksum::fold_bytes`]), each carrying a log
//!   sequence number (LSN).
//! * [`LogIo`]/[`LogStore`] — the seam between the log logic and the
//!   bytes underneath. [`FileStore`] is the real thing (directory of
//!   segment files, temp-file + rename snapshots); [`SimStore`] is an
//!   in-memory double with a *durability line*: unsynced bytes live in a
//!   volatile tail that a simulated crash discards, except for a torn
//!   prefix drawn from the seeded [`mst_index::FaultInjector`] stream.
//!   Killing the writer at every schedule point and recovering is how the
//!   crash suite proves torn-write safety.
//! * [`WalWriter`] — append + group-commit: any number of records are
//!   appended buffered, then one [`WalWriter::commit`] makes them all
//!   durable with a single fsync. Segments rotate at a size threshold.
//! * [`replay`] — torn-tail-tolerant log reading: replay stops cleanly at
//!   the first incomplete or checksum-failing record of the final
//!   segment (that is what a crash leaves behind), while damage anywhere
//!   else is reported as real corruption.
//! * [`stream`](read_committed_frames) — the live-log reads: a
//!   tail-follow cursor returning sealed frames verbatim for the
//!   replication feed (capped at the committed watermark, so un-fsynced
//!   bytes never ship), and [`verify_store`], the offline integrity
//!   sweep behind `mst-serve --verify-store`.
//! * [`DurableDatabase`] — the coupling: WAL-before-apply ingest over an
//!   [`mst_exec::ShardedDatabase`], LSN-stamped snapshot images
//!   (temp-file + rename of the `persist.rs` format), and recovery =
//!   `snapshot + replay(LSN..)` with idempotent re-application.
//!
//! # Invariants
//!
//! * A record is *acked* only after its commit's fsync returned: an acked
//!   operation survives any later crash.
//! * Replayable records form a gapless LSN chain continuing from the
//!   snapshot's LSN; recovery refuses gaps.
//! * Replaying a log twice is the same as replaying it once: application
//!   is guarded (`insert` if absent, `delete` if present), so a crash
//!   *during* recovery re-runs harmlessly.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod durable;
mod io;
pub mod record;
mod replay;
mod snapshot;
mod stream;
mod writer;

pub use durable::{apply_replayed, DurableDatabase, DurableStats};
pub use io::{FileLog, FileStore, LogIo, LogStore, SimCrashPlan, SimLog, SimStore};
pub use record::WalRecord;
pub use replay::{replay, ReplayReport, TailState};
pub use snapshot::{decode_snapshot, encode_snapshot, DurableSubstrate};
pub use stream::{log_floor, read_committed_frames, verify_store, VerifyReport};
pub use writer::{WalConfig, WalStats, WalWriter};

/// Errors of the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// An underlying I/O failure (file system or simulated device).
    Io(String),
    /// The log or snapshot holds bytes that cannot be what was written:
    /// checksum mismatch off the torn tail, LSN gaps, garbage framing.
    Corrupt(String),
    /// The simulated device reached its scheduled kill point; every
    /// subsequent operation fails until the store is reopened.
    Crashed,
    /// A caller error (invalid configuration or operation).
    Config(&'static str),
    /// An index-layer failure while applying or snapshotting.
    Index(mst_index::IndexError),
    /// An executor-layer failure while applying an ingest operation.
    Exec(mst_exec::ExecError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal io: {msg}"),
            WalError::Corrupt(msg) => write!(f, "wal corrupt: {msg}"),
            WalError::Crashed => write!(f, "wal device crashed (simulated kill point)"),
            WalError::Config(msg) => write!(f, "wal config: {msg}"),
            WalError::Index(e) => write!(f, "wal index: {e}"),
            WalError::Exec(e) => write!(f, "wal exec: {e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Index(e) => Some(e),
            WalError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mst_index::IndexError> for WalError {
    fn from(e: mst_index::IndexError) -> Self {
        WalError::Index(e)
    }
}

impl From<mst_exec::ExecError> for WalError {
    fn from(e: mst_exec::ExecError) -> Self {
        WalError::Exec(e)
    }
}

/// Crate-wide result.
pub type Result<T> = std::result::Result<T, WalError>;
