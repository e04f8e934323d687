//! The batch executor: a fixed worker pool draining (query, shard) jobs
//! off the bounded queue, with per-query cross-shard bound sharing,
//! deadline enforcement, and shard-level graceful degradation.
//!
//! # Execution model
//!
//! A batch of Q queries over P shards becomes Q x P independent jobs.
//! Workers pull jobs MPMC-style, so a long query on one shard never stalls
//! the rest of the batch; all jobs of one query share that query's
//! [`QueryControl`] — the atomic kth bound, the deadline, and the latency
//! marks. Results land in per-job slots, so the output order is the
//! submission order regardless of scheduling.
//!
//! # Determinism
//!
//! With no deadline, batch answers are bit-identical across worker and
//! shard counts, and identical to the single-threaded
//! [`Query::run`](mst_search::Query) answer on an unsharded database: the
//! shared bound is sound (it only ever prunes candidates strictly above a
//! certified global-kth upper bound, with strict comparisons protecting
//! ties), per-shard values come from exact recomputation, and the merge is
//! a total order (value, then trajectory id). Scheduling changes *work*
//! (how much each shard prunes), never *answers*; the work shows up in
//! the merged [`QueryProfile`] instead.

use mst_index::{KnnMatch, LeafEntry};
use mst_search::{BoundShare, KmstSubstrate, MstMatch, NnMatch, QueryProfile, SearchError};

use crate::bound::QueryControl;
use crate::clock::Stopwatch;
use crate::queue::JobQueue;
use crate::shard::{Shard, ShardedDatabase};
use crate::{BatchQuery, ExecError};

/// The merged answer of one batch query.
#[derive(Debug, Clone)]
pub enum QueryAnswer {
    /// k-MST / range-MST matches, ascending dissimilarity.
    Kmst(Vec<MstMatch>),
    /// Trajectory-kNN matches, ascending closest-approach distance.
    Knn(Vec<NnMatch>),
    /// Point-kNN matches (nearest segments), ascending distance.
    Segments(Vec<KnnMatch>),
    /// Range-query hits, in canonical (trajectory, sequence) order.
    Range(Vec<LeafEntry>),
}

impl QueryAnswer {
    /// The matches as k-MST results, if this was a k-MST query.
    pub fn as_kmst(&self) -> Option<&[MstMatch]> {
        match self {
            QueryAnswer::Kmst(m) => Some(m),
            _ => None,
        }
    }

    /// The matches as kNN results, if this was a kNN query.
    pub fn as_knn(&self) -> Option<&[NnMatch]> {
        match self {
            QueryAnswer::Knn(m) => Some(m),
            _ => None,
        }
    }

    /// The matches as point-kNN results, if this was a segments query.
    pub fn as_segments(&self) -> Option<&[KnnMatch]> {
        match self {
            QueryAnswer::Segments(m) => Some(m),
            _ => None,
        }
    }

    /// The hits as range results, if this was a range query.
    pub fn as_range(&self) -> Option<&[LeafEntry]> {
        match self {
            QueryAnswer::Range(m) => Some(m),
            _ => None,
        }
    }

    /// Number of matches, any flavour.
    pub fn len(&self) -> usize {
        match self {
            QueryAnswer::Kmst(m) => m.len(),
            QueryAnswer::Knn(m) => m.len(),
            QueryAnswer::Segments(m) => m.len(),
            QueryAnswer::Range(m) => m.len(),
        }
    }

    /// True when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One shard whose job died with an error instead of producing a top-k
/// list. The query's merged answer is still returned (degraded) — this
/// record says which slice of the database it is missing and why.
#[derive(Debug)]
pub struct ShardFailure {
    /// The shard whose search failed.
    pub shard: usize,
    /// The error that killed it (typically an I/O or checksum fault
    /// surfaced through [`mst_index::IndexError`]).
    pub error: SearchError,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {}: {}", self.shard, self.error)
    }
}

/// Everything the executor knows about one finished query.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The globally merged top-k answer. When `degraded` is set this is
    /// best-so-far, not certified complete.
    pub answer: QueryAnswer,
    /// Work counters merged across the query's shard jobs (in shard
    /// order), including the jobs that failed — the candidate ledger
    /// stays balanced under the merge even for aborted searches.
    pub profile: QueryProfile,
    /// True when the answer is not certified complete, for either cause:
    /// the deadline expired (`deadline_expired`) or at least one shard
    /// job failed (`failures` is non-empty).
    pub degraded: bool,
    /// True when the deadline cut at least one shard job short.
    pub deadline_expired: bool,
    /// Shards whose jobs died with a search/index error, in shard order.
    /// Their partial contribution is absent from `answer`.
    pub failures: Vec<ShardFailure>,
    /// Wall time from the query's first shard job starting to its last
    /// finishing, in microseconds. Queue wait before the first start is
    /// excluded; deadlines, by contrast, run from batch submission.
    pub latency_us: u64,
}

impl QueryOutcome {
    /// Latency in milliseconds, for reporting.
    pub fn latency_ms(&self) -> f64 {
        self.latency_us as f64 / 1000.0
    }
}

/// The outcome of a whole batch, in submission order.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One entry per submitted query, in submission order.
    pub outcomes: Vec<Result<QueryOutcome, ExecError>>,
}

impl BatchOutcome {
    /// Number of queries whose answer is not certified complete (deadline
    /// expiry or shard failure).
    pub fn degraded_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.as_ref().is_ok_and(|q| q.degraded))
            .count()
    }

    /// Number of shard jobs that failed across the whole batch.
    pub fn failed_shard_count(&self) -> usize {
        self.outcomes
            .iter()
            .flatten()
            .map(|q| q.failures.len())
            .sum()
    }

    /// Work counters merged across every successful query.
    pub fn merged_profile(&self) -> QueryProfile {
        let mut total = QueryProfile::default();
        for outcome in self.outcomes.iter().flatten() {
            total.merge(&outcome.profile);
        }
        total
    }
}

/// A reusable batch-execution configuration: worker count, queue bound,
/// and the per-query deadline.
///
/// ```no_run
/// use mst_exec::{BatchExecutor, BatchQuery, ShardedDatabase};
/// use mst_search::Query;
/// # fn demo(db: &ShardedDatabase<mst_index::Rtree3D>,
/// #         q: &mst_trajectory::Trajectory) -> Result<(), mst_exec::ExecError> {
/// let batch = vec![BatchQuery::kmst(Query::kmst(q).k(5))?];
/// let outcome = BatchExecutor::new().workers(4).run(db, batch);
/// for result in &outcome.outcomes {
///     let query = result.as_ref().expect("query failed");
///     println!("{} matches in {:.2} ms", query.answer.len(), query.latency_ms());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    workers: usize,
    queue_capacity: usize,
    deadline_us: Option<u64>,
}

impl Default for BatchExecutor {
    fn default() -> Self {
        BatchExecutor::new()
    }
}

/// Runs one query against one shard between the query's latency marks —
/// the unit of work both executors share ([`BatchExecutor`] distributes
/// these across workers; the persistent [`crate::ExecHandle`] pool runs a
/// query's shards in sequence on one worker). k-MST and kNN poll the
/// deadline inside the search; segments and range queries have no internal
/// poll points, so an already-expired deadline skips the shard with an
/// empty (degraded) contribution.
pub(crate) fn run_shard_job<I: KmstSubstrate>(
    shard: &Shard<I>,
    query: &BatchQuery,
    control: &QueryControl,
) -> (Result<QueryAnswer, SearchError>, QueryProfile) {
    control.mark_start();
    let mut profile = QueryProfile::default();
    let result = shard.read().map_err(Into::into).and_then(|db| match query {
        BatchQuery::Kmst(spec) => db
            .run_kmst(spec, control, &mut profile)
            .map(|report| QueryAnswer::Kmst(report.matches)),
        BatchQuery::Knn(spec) => db
            .run_knn(spec, control, &mut profile)
            .map(QueryAnswer::Knn),
        BatchQuery::Segments(_) if control.poll_stop() => Ok(QueryAnswer::Segments(Vec::new())),
        BatchQuery::Segments(spec) => db
            .run_knn_segments(spec, &mut profile)
            .map(QueryAnswer::Segments),
        BatchQuery::Range(_) if control.poll_stop() => Ok(QueryAnswer::Range(Vec::new())),
        BatchQuery::Range(spec) => db.run_range(spec, &mut profile).map(QueryAnswer::Range),
    });
    control.mark_end();
    (result, profile)
}

/// Merges one query's shard results, in shard order, into its outcome —
/// shared by both executors, so a batch run and a submitted query merge
/// identically. A shard job that *failed* (I/O fault, checksum mismatch,
/// poisoned lock) does not fail the query: its error is recorded in
/// [`QueryOutcome::failures`], its work profile still merges (keeping the
/// candidate ledger balanced), and the surviving shards' lists merge into
/// a `degraded` answer — the same honest-best-effort contract the deadline
/// path provides.
pub(crate) fn query_outcome(
    query: &BatchQuery,
    control: &QueryControl,
    shards: impl IntoIterator<Item = (Result<QueryAnswer, SearchError>, QueryProfile)>,
) -> QueryOutcome {
    let mut profile = QueryProfile::default();
    let mut failures = Vec::new();
    let (mut kmst, mut knn, mut segments, mut range) = (vec![], vec![], vec![], vec![]);
    for (shard, (result, shard_profile)) in shards.into_iter().enumerate() {
        profile.merge(&shard_profile);
        match result {
            Ok(QueryAnswer::Kmst(m)) => kmst.push(m),
            Ok(QueryAnswer::Knn(m)) => knn.push(m),
            Ok(QueryAnswer::Segments(m)) => segments.push(m),
            Ok(QueryAnswer::Range(m)) => range.push(m),
            Err(error) => failures.push(ShardFailure { shard, error }),
        }
    }
    // Each flavour merges in the deterministic order its merge defines.
    let answer = match query {
        BatchQuery::Kmst(spec) => {
            QueryAnswer::Kmst(mst_search::merge_shard_matches(spec.config.k, &kmst))
        }
        BatchQuery::Knn(spec) => QueryAnswer::Knn(mst_search::merge_shard_nn(spec.k(), &knn)),
        BatchQuery::Segments(spec) => {
            QueryAnswer::Segments(mst_search::merge_shard_segments(spec.options.k, &segments))
        }
        BatchQuery::Range(_) => QueryAnswer::Range(mst_search::merge_shard_range(&range)),
    };
    let deadline_expired = control.is_degraded();
    QueryOutcome {
        answer,
        profile,
        degraded: deadline_expired || !failures.is_empty(),
        deadline_expired,
        failures,
        latency_us: control.latency_us(),
    }
}

/// A job's drop box: its answer plus the work profile it accumulated.
type ResultSlot = std::sync::Mutex<Option<(Result<QueryAnswer, SearchError>, QueryProfile)>>;

/// One unit of work: query `query` of the batch against shard `shard`.
#[derive(Clone, Copy)]
struct Job {
    query: usize,
    shard: usize,
}

impl BatchExecutor {
    /// An executor with one worker, a queue bound matching the worker
    /// count, and no deadline.
    pub fn new() -> Self {
        BatchExecutor {
            workers: 1,
            queue_capacity: 0,
            deadline_us: None,
        }
    }

    /// Sets the number of worker threads (minimum 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the job-queue bound. Defaults to `2 x workers`, enough to keep
    /// every worker fed while still applying backpressure to submission.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets a per-query deadline in microseconds, measured from batch
    /// submission. A query that exceeds it stops early and reports
    /// `degraded: true` with its best-so-far answer.
    pub fn deadline_us(mut self, deadline: u64) -> Self {
        self.deadline_us = Some(deadline);
        self
    }

    /// Removes the deadline (the default).
    pub fn no_deadline(mut self) -> Self {
        self.deadline_us = None;
        self
    }

    /// Turns this configuration into a persistent, admission-controlled
    /// submission handle over `db` (see [`crate::ExecHandle`]): the same
    /// worker count, queue bound, and default deadline, but with workers
    /// that outlive any one query and a non-blocking
    /// [`try_submit`](crate::ExecHandle::try_submit) that rejects with
    /// typed backpressure instead of queueing without bound.
    pub fn submit_handle<I>(
        &self,
        db: std::sync::Arc<ShardedDatabase<I>>,
    ) -> crate::Result<crate::ExecHandle<I>>
    where
        I: KmstSubstrate + Send + 'static,
    {
        crate::ExecHandle::start(db, self.workers, self.capacity(), self.deadline_us)
    }

    /// The job-queue bound: the configured one, or `2 x workers` if unset.
    fn capacity(&self) -> usize {
        match self.queue_capacity {
            0 => self.workers * 2,
            set => set,
        }
    }

    /// Runs a batch against a sharded database and returns per-query
    /// outcomes in submission order.
    ///
    /// Spawns the configured worker pool for the duration of the batch
    /// (scoped threads — no `'static` bounds, no leaked threads), feeds
    /// the Q x P (query, shard) jobs through the bounded queue, and merges
    /// each query's shard answers once all its jobs finish.
    pub fn run<I>(&self, db: &ShardedDatabase<I>, queries: Vec<BatchQuery>) -> BatchOutcome
    where
        I: KmstSubstrate + Send,
    {
        let num_shards = db.num_shards();
        let num_queries = queries.len();
        if num_queries == 0 || num_shards == 0 {
            return BatchOutcome {
                outcomes: Vec::new(),
            };
        }

        let clock = Stopwatch::start();
        // Per-query options override the executor defaults: an explicit
        // deadline on the query wins, and the query's sharing policy is
        // always its own.
        let controls: Vec<QueryControl> = queries
            .iter()
            .map(|query| {
                let opts = query.options();
                QueryControl::with_sharing(
                    clock,
                    opts.deadline_us.or(self.deadline_us),
                    opts.share_bound,
                )
            })
            .collect();
        // One slot per (query, shard) job; each job is executed exactly
        // once, so slot mutexes are uncontended.
        let slots: Vec<ResultSlot> = (0..num_queries * num_shards)
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        let queue: JobQueue<Job> = JobQueue::new(self.capacity());

        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                let queue = &queue;
                let queries = &queries;
                let controls = &controls;
                let slots = &slots;
                scope.spawn(move || {
                    while let Some(job) = queue.pop() {
                        let shard = &db.shards()[job.shard];
                        let done = run_shard_job(shard, &queries[job.query], &controls[job.query]);
                        if let Ok(mut slot) = slots[job.query * num_shards + job.shard].lock() {
                            *slot = Some(done);
                        }
                    }
                });
            }

            // This thread is the producer: enqueue all jobs, then close so
            // workers drain and exit before the scope joins them.
            for query in 0..num_queries {
                for shard in 0..num_shards {
                    if queue.push(Job { query, shard }).is_err() {
                        break;
                    }
                }
            }
            queue.close();
        });

        let mut outcomes = Vec::with_capacity(num_queries);
        for (q, (query, control)) in queries.iter().zip(&controls).enumerate() {
            outcomes.push(Self::collect_query(q, query, control, &slots, num_shards));
        }
        BatchOutcome { outcomes }
    }

    /// One query's outcome from its shard slots ([`query_outcome`]). Only a
    /// *lost* slot (worker died without reporting) is an [`ExecError`].
    fn collect_query(
        q: usize,
        query: &BatchQuery,
        control: &QueryControl,
        slots: &[ResultSlot],
        num_shards: usize,
    ) -> Result<QueryOutcome, ExecError> {
        let taken = (0..num_shards)
            .map(|shard| {
                slots[q * num_shards + shard]
                    .lock()
                    .ok()
                    .and_then(|mut s| s.take())
                    .ok_or(ExecError::Lost { query: q, shard })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(query_outcome(query, control, taken))
    }
}
