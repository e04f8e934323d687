//! Sharded, multi-threaded batch query execution for the MST
//! reproduction.
//!
//! The paper evaluates one query at a time against one index. A service
//! built on its algorithms faces a different shape of load: batches of
//! k-MST / trajectory-kNN queries against a dataset too hot for a single
//! index and buffer pool. This crate adds that execution layer without
//! touching the algorithms:
//!
//! * [`ShardedDatabase`] partitions trajectories by object across P
//!   shards, each one engine ([`mst_search::MovingObjectDatabase`]: its
//!   own index and private LRU buffer pool, and its objects' store) behind
//!   one reader–writer gate (searches share the read half; see [`shard`]).
//! * [`BatchExecutor`] runs a fixed `std::thread` worker pool over a
//!   bounded MPMC [`JobQueue`], one job per query; results come back in
//!   submission order.
//! * A query over P shards is **one** search over all P trees, run by
//!   [`mst_search::run`] while the job holds every shard's read gate
//!   ([`ShardedDatabase::read_all`]): for k-MST and kNN one queue seeded
//!   with every root, one k-th threshold pruning every shard, so sharding
//!   does not multiply the descents.
//! * Per-query deadlines degrade gracefully: an expired query stops
//!   early and reports `degraded: true` with its best-so-far answer and
//!   a consistent work profile.
//! * Shard failures degrade the same way: a shard whose tree cannot be
//!   read (I/O fault, checksum mismatch, quarantined page) stops the
//!   search, which `mst_search::run` runs again without it. The shard is
//!   reported in the query's [`ShardFailure`] list, and the other shards'
//!   answer — exactly what they answer alone — comes back flagged
//!   `degraded` instead of failing the whole query.
//!
//! Everything is std-only, in keeping with the workspace's
//! zero-dependency rule.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod bound;
pub mod clock;
pub mod queue;
pub mod shard;
pub mod submit;
pub mod watermark;

pub use batch::{BatchExecutor, BatchOutcome, QueryOutcome};
pub use bound::QueryControl;
pub use clock::Stopwatch;
pub use mst_search::{BatchQuery, QueryAnswer, ShardFailure};
pub use queue::{JobQueue, TryPushError};
pub use shard::{IngestOp, IngestOutcome, Shard, ShardedDatabase};
pub use submit::{ExecHandle, OutcomeSink, SubmitError, Ticket};
pub use watermark::Watermark;

use mst_search::SearchError;

/// Errors of the execution layer.
#[derive(Debug)]
pub enum ExecError {
    /// A search or index operation failed on some shard.
    Search(SearchError),
    /// The executor or database was misconfigured.
    Config(&'static str),
    /// A query's job produced no result — its worker died without
    /// reporting. Indicates a panic somewhere a panic should be
    /// impossible; the rest of the batch is unaffected.
    Lost {
        /// Batch position of the affected query.
        query: usize,
    },
    /// A submitted query's worker vanished before delivering the outcome
    /// (the [`Ticket`]'s channel disconnected). The persistent-pool
    /// counterpart of [`ExecError::Lost`].
    Disconnected,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Search(e) => write!(f, "shard search failed: {e}"),
            ExecError::Config(what) => write!(f, "executor misconfigured: {what}"),
            ExecError::Lost { query } => write!(f, "the job for query {query} reported no result"),
            ExecError::Disconnected => {
                write!(
                    f,
                    "the query's worker vanished before delivering an outcome"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Search(e) => Some(e),
            ExecError::Config(_) | ExecError::Lost { .. } | ExecError::Disconnected => None,
        }
    }
}

impl From<SearchError> for ExecError {
    fn from(e: SearchError) -> Self {
        ExecError::Search(e)
    }
}

/// Result alias for the execution crate.
pub type Result<T> = std::result::Result<T, ExecError>;
