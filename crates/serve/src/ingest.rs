//! The seam between the serving layer and the durable store.
//!
//! The coalescer flushes each tick's ingest frames as **one** write
//! batch through an [`IngestBackend`]; the backend logs the batch,
//! issues a single group-commit fsync, applies it to the shared shards,
//! and reports per-operation outcomes. [`mst_wal::DurableDatabase`] is
//! the real backend ([`DurableDatabase::apply_independent`] is exactly
//! this contract); the trait erases its `LogStore` type parameter so the
//! mux stays generic over the index substrate only.
//!
//! Visibility is whole-shard atomic, inherited from the exec layer
//! (`mst_exec`'s `shard.rs`): each operation is applied under the write
//! half of its home shard's gate, so a query job on that shard ran either
//! entirely before the operation or entirely after it, and queries
//! admitted after the ingest ack see the new state. The writer waits for
//! the shard's running searches and they for it; no lock spans shards, so
//! the other shards keep answering throughout.

use mst_exec::IngestOp;
use mst_wal::{DurableDatabase, DurableSubstrate, LogStore};

/// Per-operation outcome of a flushed write batch.
pub(crate) type IngestResult = Result<(u64, bool), String>;

/// WAL-side counters a durable backend exposes for the stats report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WalCounters {
    /// Records appended to the log.
    pub(crate) appends: u64,
    /// Group-commit fsyncs issued.
    pub(crate) fsyncs: u64,
    /// Records replayed by the recovery that opened this database.
    pub(crate) replayed_records: u64,
}

/// A durable write lane the coalescer can flush ingest batches through.
/// The replication accessors expose the committed log so the coalescer
/// can also serve `Subscribe`/`ReplicaAck` streams without knowing the
/// store's types.
pub(crate) trait IngestBackend: Send {
    /// Applies one write batch: validates each operation independently,
    /// logs the valid ones, makes them durable with one fsync, applies
    /// them to the shared in-memory shards, and returns one result per
    /// operation — `Ok((lsn, applied))` or a refusal message. The outer
    /// error is a store-level failure (nothing of the batch was acked).
    fn apply_batch(&mut self, ops: &[IngestOp]) -> Result<Vec<IngestResult>, String>;

    /// Current WAL counters, read after each flush for the stats report.
    fn wal_counters(&self) -> WalCounters;

    /// Highest LSN whose group-commit fsync has returned — the cap on
    /// what replication may ship (un-fsynced appends never leave the
    /// primary).
    fn committed_lsn(&self) -> u64;

    /// First LSN still present in the log; checkpoints raise it. A
    /// subscriber below the floor needs a snapshot, not records.
    fn replication_floor(&self) -> Result<u64, String>;

    /// A full store snapshot encoded at [`Self::committed_lsn`], for
    /// replica bootstrap.
    fn encode_snapshot(&self) -> Result<Vec<u8>, String>;

    /// Committed WAL frames from `from_lsn` onward, verbatim, capped by
    /// `max_bytes` (at least one frame ships if any is available).
    fn read_records(&self, from_lsn: u64, max_bytes: usize) -> Result<Vec<Vec<u8>>, String>;
}

impl<I, S> IngestBackend for DurableDatabase<I, S>
where
    I: DurableSubstrate + Send,
    S: LogStore + Send,
    S::Log: Send,
{
    fn apply_batch(&mut self, ops: &[IngestOp]) -> Result<Vec<IngestResult>, String> {
        let results = self.apply_independent(ops).map_err(|e| e.to_string())?;
        Ok(results
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect())
    }

    fn wal_counters(&self) -> WalCounters {
        let stats = self.stats();
        WalCounters {
            appends: stats.wal_appends,
            fsyncs: stats.wal_fsyncs,
            replayed_records: stats.replayed_records,
        }
    }

    fn committed_lsn(&self) -> u64 {
        self.applied_lsn()
    }

    fn replication_floor(&self) -> Result<u64, String> {
        DurableDatabase::replication_floor(self).map_err(|e| e.to_string())
    }

    fn encode_snapshot(&self) -> Result<Vec<u8>, String> {
        self.encode_current_snapshot().map_err(|e| e.to_string())
    }

    fn read_records(&self, from_lsn: u64, max_bytes: usize) -> Result<Vec<Vec<u8>>, String> {
        self.read_committed_frames(from_lsn, max_bytes)
            .map_err(|e| e.to_string())
    }
}
