//! The batch executor: a fixed worker pool draining one job per query off
//! the bounded queue, with deadline enforcement and shard-level graceful
//! degradation.
//!
//! # Execution model
//!
//! A batch of Q queries becomes Q jobs, whatever the shard count. A job is
//! one query over every shard (`run_query`): it takes the read half of
//! every shard's gate ([`ShardedDatabase::read_all`]) and runs a k-MST or
//! kNN query as one best-first search over all the shards' trees under one
//! pruning threshold — the paper's single search, not one per shard.
//! Point-kNN and range queries, which have no threshold to share, run shard
//! by shard and merge. Workers pull jobs MPMC-style, so a long query never
//! stalls the rest of the batch. Results land in per-query slots, so the
//! output order is the submission order regardless of scheduling.
//!
//! # Determinism
//!
//! With no deadline, batch answers are bit-identical across worker and
//! shard counts, and identical to the single-threaded
//! [`Query::run`](mst_search::Query) answer on an unsharded database: the
//! search over the shards is exact (values from exact recomputation,
//! strict comparisons protecting ties, the one tie-break by trajectory id).
//! Each query's search is one thread's deterministic walk, so its
//! [`QueryProfile`] does not depend on the worker count or the schedule
//! either, up to the buffer hits and misses concurrent queries cause each
//! other.

use mst_index::{KnnMatch, LeafEntry};
use mst_search::{
    nearest_trajectories, BoundShare, KmstSubstrate, MovingObjectDatabase, MstMatch, NnMatch,
    QueryProfile, SearchError, SearchReport, ShardFailure,
};

use crate::bound::QueryControl;
use crate::clock::Stopwatch;
use crate::queue::JobQueue;
use crate::shard::ShardedDatabase;
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

/// Everything the executor knows about one finished query.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The global top-k answer. When `degraded` is set this is
    /// best-so-far, not certified complete.
    pub answer: QueryAnswer,
    /// Work counters of the query, including the work on shards that
    /// failed — the candidate ledger stays balanced even when a shard
    /// leaves the search.
    pub profile: QueryProfile,
    /// True when the answer is not certified complete, for either cause:
    /// the deadline expired (`deadline_expired`) or at least one shard
    /// failed (`failures` is non-empty).
    pub degraded: bool,
    /// True when the deadline cut the query short.
    pub deadline_expired: bool,
    /// Shards that failed with a search/index error, in shard order.
    /// Their trajectories are absent from `answer`.
    pub failures: Vec<ShardFailure>,
    /// Wall time of the query's job, in microseconds. Queue wait before it
    /// starts is excluded; deadlines, by contrast, run from submission.
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

    /// Number of shard failures across the whole batch.
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

/// Runs one query over every shard — the unit of work both executors
/// share ([`BatchExecutor`] spreads queries over its workers; the
/// persistent [`crate::ExecHandle`] pool runs each submitted query on one
/// worker). The query holds every shard's read gate while it runs. k-MST
/// and kNN are one search over all the shards' trees, polling the
/// deadline inside; point-kNN and range queries run shard by shard and
/// merge, and an expired deadline skips the shards not yet run. A shard
/// whose gate is poisoned, that refuses the query's substrate pin, or
/// whose node read fails mid-search does not fail the query: it is named
/// in [`QueryOutcome::failures`] and the others answer, `degraded` — the
/// same honest-best-effort contract the deadline path provides.
pub(crate) fn run_query<I: KmstSubstrate>(
    db: &ShardedDatabase<I>,
    query: &BatchQuery,
    control: &QueryControl,
) -> QueryOutcome {
    let watch = Stopwatch::start();
    let mut profile = QueryProfile::default();
    let mut failures = Vec::new();
    let gates = db.read_all();
    // The shards the query runs on, by shard number.
    let mut live: Vec<(usize, &MovingObjectDatabase<I>)> = Vec::with_capacity(gates.len());
    for (shard, gate) in gates.iter().enumerate() {
        let engine = gate.as_ref().map_err(|e| SearchError::Index(e.clone()));
        match engine.and_then(|engine| {
            query.options().check_substrate(I::KIND)?;
            Ok(&**engine)
        }) {
            Ok(engine) => live.push((shard, engine)),
            Err(error) => failures.push(ShardFailure { shard, error }),
        }
    }
    let answer = match query {
        BatchQuery::Kmst(spec) => {
            let trees: Vec<_> = live.iter().map(|(_, e)| (e.index(), e.store())).collect();
            let report = I::kmst_forest(
                &trees,
                &spec.query,
                &spec.period(),
                &spec.config,
                control,
                &mut profile,
            );
            QueryAnswer::Kmst(settle(report, &live, &mut failures))
        }
        BatchQuery::Knn(spec) => {
            let trees: Vec<&I> = live.iter().map(|(_, e)| e.index()).collect();
            let period = &spec.period();
            let report =
                nearest_trajectories(&trees, &spec.query, period, spec.k(), control, &mut profile);
            QueryAnswer::Knn(settle(report, &live, &mut failures))
        }
        BatchQuery::Segments(spec) => {
            let lists = shard_by_shard(&live, control, &mut failures, |engine| {
                engine.run_knn_segments(spec, &mut profile)
            });
            QueryAnswer::Segments(mst_search::merge_shard_segments(spec.options.k, &lists))
        }
        BatchQuery::Range(spec) => {
            let lists = shard_by_shard(&live, control, &mut failures, |engine| {
                engine.run_range(spec, &mut profile)
            });
            QueryAnswer::Range(mst_search::merge_shard_range(&lists))
        }
    };
    failures.sort_by_key(|f| f.shard);
    let deadline_expired = control.is_degraded();
    QueryOutcome {
        answer,
        profile,
        degraded: deadline_expired || !failures.is_empty(),
        deadline_expired,
        failures,
        latency_us: watch.elapsed_us(),
    }
}

/// A search's answer, its failures renumbered from positions among the
/// `live` shards to shard numbers. An error that no one shard caused (a
/// query the stored trajectories cannot be compared with) is charged to
/// the first shard searched.
fn settle<T, E>(
    report: mst_search::Result<SearchReport<T>>,
    live: &[(usize, E)],
    failures: &mut Vec<ShardFailure>,
) -> Vec<T> {
    let report = report.unwrap_or_else(|error| {
        failures.extend(
            live.first()
                .map(|&(shard, _)| ShardFailure { shard, error }),
        );
        SearchReport::default()
    });
    failures.extend(report.failures.into_iter().map(|f| ShardFailure {
        shard: live[f.shard].0,
        error: f.error,
    }));
    report.matches
}

/// Runs `search` on each live shard in order and collects the answers; a
/// shard's error becomes its failure, and an expired deadline skips the
/// rest (these queries have no poll point of their own).
fn shard_by_shard<I, T>(
    live: &[(usize, &MovingObjectDatabase<I>)],
    control: &QueryControl,
    failures: &mut Vec<ShardFailure>,
    mut search: impl FnMut(&MovingObjectDatabase<I>) -> mst_search::Result<Vec<T>>,
) -> Vec<Vec<T>> {
    let mut lists = Vec::with_capacity(live.len());
    for &(shard, engine) in live {
        if control.poll_stop() {
            break;
        }
        match search(engine) {
            Ok(list) => lists.push(list),
            Err(error) => failures.push(ShardFailure { shard, error }),
        }
    }
    lists
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
    /// (scoped threads — no `'static` bounds, no leaked threads) and feeds
    /// it one job per query through the bounded queue (`run_query`).
    pub fn run<I>(&self, db: &ShardedDatabase<I>, queries: Vec<BatchQuery>) -> BatchOutcome
    where
        I: KmstSubstrate + Send,
    {
        // Deadlines run from submission: every query's clock starts here,
        // and an explicit deadline on the query wins over the executor's.
        let clock = Stopwatch::start();
        // One slot per query; each job runs exactly once, so slot mutexes
        // are uncontended.
        let slots: Vec<std::sync::Mutex<Option<QueryOutcome>>> = queries
            .iter()
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        let queue: JobQueue<usize> = JobQueue::new(self.capacity());

        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                let (queue, queries, slots) = (&queue, &queries, &slots);
                scope.spawn(move || {
                    while let Some(q) = queue.pop() {
                        let deadline = queries[q].options().deadline_us.or(self.deadline_us);
                        let control = QueryControl::new(clock, deadline);
                        let outcome = run_query(db, &queries[q], &control);
                        if let Ok(mut slot) = slots[q].lock() {
                            *slot = Some(outcome);
                        }
                    }
                });
            }

            // This thread is the producer: enqueue all jobs, then close so
            // workers drain and exit before the scope joins them.
            for q in 0..queries.len() {
                if queue.push(q).is_err() {
                    break;
                }
            }
            queue.close();
        });

        // Only a *lost* slot (its worker died without reporting) is an
        // error; every search outcome, degraded or not, is an outcome.
        let outcomes = slots
            .into_iter()
            .enumerate()
            .map(|(query, slot)| {
                let outcome = slot.into_inner().ok().flatten();
                outcome.ok_or(ExecError::Lost { query })
            })
            .collect();
        BatchOutcome { outcomes }
    }
}
