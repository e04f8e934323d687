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
//! * A k-MST or kNN query over P shards is **one** best-first search over
//!   all P trees ([`mst_search::KmstSubstrate::kmst_forest`]): one queue
//!   seeded with every root, one k-th threshold pruning every shard, so
//!   sharding does not multiply the descents. The job holds every shard's
//!   read gate while it runs ([`ShardedDatabase::read_all`]).
//! * Per-query deadlines degrade gracefully: an expired query stops
//!   early and reports `degraded: true` with its best-so-far answer and
//!   a consistent work profile.
//! * Shard failures degrade the same way: a shard whose tree cannot be
//!   read (I/O fault, checksum mismatch, quarantined page) leaves the
//!   search, is reported in the query's [`ShardFailure`] list, and the
//!   other shards' answer comes back flagged `degraded` instead of
//!   failing the whole query.
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

pub use batch::{BatchExecutor, BatchOutcome, QueryAnswer, QueryOutcome};
pub use bound::QueryControl;
pub use clock::Stopwatch;
pub use mst_search::ShardFailure;
pub use queue::{BatchPush, JobQueue, TryPushError};
pub use shard::{IngestOp, IngestOutcome, Shard, ShardedDatabase};
pub use submit::{
    BatchAdmission, ExecHandle, OutcomeSink, RejectedSubmit, RoutedQuery, SubmitError, Ticket,
};
pub use watermark::Watermark;

use mst_search::{
    KmstQuery, KmstSpec, KnnQuery, KnnSegmentsQuery, KnnSpec, QueryOptions, RangeQuery, RangeSpec,
    SearchError, SegmentsSpec,
};

/// A query of a batch: an owned, validated spec produced by the same
/// [`Query`](mst_search::Query) builder the single-threaded API uses.
///
/// ```
/// use mst_exec::BatchQuery;
/// use mst_search::Query;
/// use mst_trajectory::{SamplePoint, Trajectory};
///
/// let q = Trajectory::new(vec![
///     SamplePoint::new(0.0, 0.0, 0.0),
///     SamplePoint::new(10.0, 5.0, 5.0),
/// ])
/// .unwrap();
/// let batch = vec![
///     BatchQuery::kmst(Query::kmst(&q).k(3))?,
///     BatchQuery::knn(Query::knn(&q).k(2))?,
/// ];
/// assert_eq!(batch.len(), 2);
/// # Ok::<(), mst_exec::ExecError>(())
/// ```
#[derive(Debug, Clone)]
pub enum BatchQuery {
    /// A k-MST / range-MST query.
    Kmst(KmstSpec),
    /// A trajectory-kNN query.
    Knn(KnnSpec),
    /// A point-kNN (nearest segments) query.
    Segments(SegmentsSpec),
    /// A 3D range query.
    Range(RangeSpec),
}

impl BatchQuery {
    /// Freezes a k-MST builder into a batch query (validates that the
    /// query trajectory covers the query period).
    pub fn kmst(builder: KmstQuery<'_>) -> Result<Self> {
        Ok(BatchQuery::Kmst(builder.spec()?))
    }

    /// Freezes a kNN builder into a batch query.
    pub fn knn(builder: KnnQuery<'_>) -> Result<Self> {
        Ok(BatchQuery::Knn(builder.spec()?))
    }

    /// Freezes a point-kNN builder into a batch query (validates that a
    /// time window was given).
    pub fn knn_segments(builder: KnnSegmentsQuery) -> Result<Self> {
        Ok(BatchQuery::Segments(builder.spec()?))
    }

    /// Freezes a range builder into a batch query.
    pub fn range(builder: RangeQuery<'_>) -> Self {
        BatchQuery::Range(builder.spec())
    }

    /// The shared options every flavour carries: `k`, window, deadline,
    /// substrate pin. Executors read the deadline here without matching on
    /// the flavour.
    pub fn options(&self) -> &QueryOptions {
        match self {
            BatchQuery::Kmst(spec) => &spec.options,
            BatchQuery::Knn(spec) => &spec.options,
            BatchQuery::Segments(spec) => &spec.options,
            BatchQuery::Range(spec) => &spec.options,
        }
    }
}

impl From<KmstSpec> for BatchQuery {
    fn from(spec: KmstSpec) -> Self {
        BatchQuery::Kmst(spec)
    }
}

impl From<KnnSpec> for BatchQuery {
    fn from(spec: KnnSpec) -> Self {
        BatchQuery::Knn(spec)
    }
}

impl From<SegmentsSpec> for BatchQuery {
    fn from(spec: SegmentsSpec) -> Self {
        BatchQuery::Segments(spec)
    }
}

impl From<RangeSpec> for BatchQuery {
    fn from(spec: RangeSpec) -> Self {
        BatchQuery::Range(spec)
    }
}

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
