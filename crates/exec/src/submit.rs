//! A persistent, admission-controlled submission handle over a long-lived
//! worker pool — the execution substrate a server sits on.
//!
//! [`BatchExecutor::run`](crate::BatchExecutor::run) is batch-shaped: it
//! spawns scoped workers, drains one batch, and joins. A server needs the
//! opposite lifecycle — workers outlive any one request — plus explicit
//! *admission control*: when queries arrive faster than the pool drains
//! them, the caller must get a typed rejection it can surface as
//! backpressure, never an unbounded queue.
//!
//! [`ExecHandle`] provides both. Submission ([`ExecHandle::try_submit`])
//! is non-blocking: it either admits the query — creating its
//! [`QueryControl`] *at admission*, so queue wait counts against the
//! deadline, matching an SLA-from-submission service model — or returns
//! [`SubmitError::Overloaded`] with the queue's occupancy. An admitted
//! query yields a [`Ticket`] whose [`Ticket::wait`] blocks for the
//! [`QueryOutcome`]; [`ExecHandle::try_submit_to`] hands it to an
//! [`OutcomeSink`] on the worker instead. One worker runs the query over every shard with the
//! exact function the batch path uses (`run_query`: one search over all
//! the shards' trees), so a submitted query's answer is bit-identical to
//! the same query in a batch (and to the single-threaded `Query::run`).
//!
//! Shutdown is graceful by construction: [`ExecHandle::shutdown`] closes
//! the queue (new submissions get [`SubmitError::ShuttingDown`]), already
//! admitted jobs drain, and the workers are joined. Every ticket issued
//! before shutdown resolves.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use mst_search::KmstSubstrate;

use crate::batch::{run_query, QueryOutcome};
use crate::bound::QueryControl;
use crate::clock::Stopwatch;
use crate::queue::{JobQueue, TryPushError};
use crate::shard::ShardedDatabase;
use crate::{BatchQuery, ExecError};

/// Why a submission was refused. Both cases are normal operation, not
/// bugs: `Overloaded` is backpressure doing its job, `ShuttingDown` is
/// the drain window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full. Retry later or shed the query.
    Overloaded {
        /// Jobs queued at the time of rejection.
        queued: usize,
        /// The queue's capacity bound.
        capacity: usize,
    },
    /// The handle is shutting down and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { queued, capacity } => {
                write!(f, "executor overloaded: {queued}/{capacity} jobs queued")
            }
            SubmitError::ShuttingDown => write!(f, "executor is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A claim on the outcome of an admitted query.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<QueryOutcome>,
}

impl Ticket {
    /// Blocks until the query's outcome arrives. [`ExecError::Disconnected`]
    /// means the worker vanished without reporting — the persistent-pool
    /// analogue of a lost batch slot.
    pub fn wait(self) -> Result<QueryOutcome, ExecError> {
        self.rx.recv().map_err(|_| ExecError::Disconnected)
    }

    /// Polls for the outcome without blocking: `Ok(None)` while the query
    /// is still running, `Ok(Some(..))` exactly once when it completes.
    /// After the outcome has been taken, further polls report
    /// [`ExecError::Disconnected`] — a ticket is a single-shot claim.
    pub fn try_wait(&self) -> Result<Option<QueryOutcome>, ExecError> {
        match self.rx.try_recv() {
            Ok(outcome) => Ok(Some(outcome)),
            Err(std::sync::mpsc::TryRecvError::Empty) => Ok(None),
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Err(ExecError::Disconnected),
        }
    }
}

/// Receives the outcome of one admitted query
/// ([`ExecHandle::try_submit_to`]). It runs on the pool worker that ran
/// the query, so it must be cheap and must not block: a sink that stalls
/// stalls the pool.
pub trait OutcomeSink: Send + 'static {
    /// Called exactly once, from the worker that ran the query.
    fn complete(self: Box<Self>, outcome: QueryOutcome);
}

/// A ticket's own channel: [`ExecHandle::try_submit`] is
/// [`ExecHandle::try_submit_to`] with this sink.
impl OutcomeSink for Sender<QueryOutcome> {
    fn complete(self: Box<Self>, outcome: QueryOutcome) {
        // invariant: a receiver that hung up means the client abandoned
        // the query; dropping the outcome is the correct response
        let _ = self.send(outcome);
    }
}

/// One admitted query: the spec, its control (deadline clock already
/// running), and the sink its outcome goes to.
struct SubmitJob {
    query: BatchQuery,
    control: QueryControl,
    sink: Box<dyn OutcomeSink>,
}

/// A long-lived, admission-controlled execution pool over a shared
/// [`ShardedDatabase`]. Created by
/// [`BatchExecutor::submit_handle`](crate::BatchExecutor::submit_handle).
pub struct ExecHandle<I> {
    db: Arc<ShardedDatabase<I>>,
    queue: Arc<JobQueue<SubmitJob>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    default_deadline_us: Option<u64>,
}

impl<I> ExecHandle<I>
where
    I: KmstSubstrate + Send + 'static,
{
    /// Spawns `workers` pool threads over `db` with a `queue_capacity`
    /// admission bound. Called through
    /// [`BatchExecutor::submit_handle`](crate::BatchExecutor::submit_handle).
    pub(crate) fn start(
        db: Arc<ShardedDatabase<I>>,
        workers: usize,
        queue_capacity: usize,
        default_deadline_us: Option<u64>,
    ) -> crate::Result<Self> {
        let queue: Arc<JobQueue<SubmitJob>> = Arc::new(JobQueue::new(queue_capacity));
        let mut handles = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let queue = Arc::clone(&queue);
            let db = Arc::clone(&db);
            let handle = std::thread::Builder::new()
                .name(format!("mst-exec-{i}"))
                .spawn(move || {
                    while let Some(job) = queue.pop() {
                        run_submitted(&db, job);
                    }
                })
                .map_err(|_| ExecError::Config("failed to spawn an executor worker thread"))?;
            handles.push(handle);
        }
        Ok(ExecHandle {
            db,
            queue,
            workers: Mutex::new(handles),
            default_deadline_us,
        })
    }

    /// The database the pool executes against.
    pub fn database(&self) -> &ShardedDatabase<I> {
        &self.db
    }

    /// Jobs currently waiting for a worker (a point-in-time snapshot).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The admission queue's capacity bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Admits a query without blocking, or rejects it with typed
    /// backpressure. The query's deadline clock starts *now* — queue wait
    /// counts against the budget. A query without its own deadline
    /// inherits the handle's default.
    pub fn try_submit(&self, query: BatchQuery) -> Result<Ticket, SubmitError> {
        let (tx, rx) = channel();
        self.try_submit_to(query, Box::new(tx))?;
        Ok(Ticket { rx })
    }

    /// [`ExecHandle::try_submit`] with the outcome handed to `sink` on the
    /// worker that ran the query, instead of to a [`Ticket`]. A refused
    /// query drops its sink unrun.
    pub fn try_submit_to(
        &self,
        query: BatchQuery,
        sink: Box<dyn OutcomeSink>,
    ) -> Result<(), SubmitError> {
        match self.queue.try_push(self.job(query, sink)) {
            Ok(()) => Ok(()),
            Err(TryPushError::Full(_)) => Err(SubmitError::Overloaded {
                queued: self.queue.len(),
                capacity: self.queue.capacity(),
            }),
            Err(TryPushError::Closed(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Admits a query, blocking while the queue is full (backpressure by
    /// waiting instead of rejection — for callers with nowhere to shed
    /// load to). Fails only when the handle is shutting down.
    pub fn submit(&self, query: BatchQuery) -> Result<Ticket, SubmitError> {
        let (tx, rx) = channel();
        match self.queue.push(self.job(query, Box::new(tx))) {
            Ok(()) => Ok(Ticket { rx }),
            Err(_) => Err(SubmitError::ShuttingDown),
        }
    }

    /// The job of an admitted query; its deadline clock starts now.
    fn job(&self, query: BatchQuery, sink: Box<dyn OutcomeSink>) -> SubmitJob {
        let deadline = query.options().deadline_us.or(self.default_deadline_us);
        let control = QueryControl::new(Stopwatch::start(), deadline);
        SubmitJob {
            query,
            control,
            sink,
        }
    }
}

impl<I> ExecHandle<I> {
    /// Graceful shutdown: stops admitting, drains every already-admitted
    /// job, and joins the workers. Every ticket issued before the call
    /// resolves before this returns. Idempotent; dropping the handle
    /// calls it.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles = match self.workers.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(_) => return,
        };
        for handle in handles {
            // invariant: a panicked worker already dropped its jobs'
            // senders (their tickets see Disconnected); re-raising the
            // payload here would tear down the caller for no benefit
            let _ = handle.join();
        }
    }
}

impl<I> Drop for ExecHandle<I> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Runs one admitted query on this worker, with the function the batch
/// path uses.
fn run_submitted<I: KmstSubstrate>(db: &ShardedDatabase<I>, job: SubmitJob) {
    let outcome = run_query(db, &job.query, &job.control);
    job.sink.complete(outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchExecutor;
    use mst_search::Query;
    use mst_trajectory::{SamplePoint, Trajectory, TrajectoryId};

    fn lines(n: u64, len: usize) -> Vec<(TrajectoryId, Trajectory)> {
        (0..n)
            .map(|id| {
                let pts = (0..len)
                    .map(|i| SamplePoint::new(i as f64, i as f64 * 0.5, id as f64))
                    .collect();
                (TrajectoryId(id), Trajectory::new(pts).expect("valid"))
            })
            .collect()
    }

    #[test]
    fn submitted_queries_match_batch_answers() {
        let db = Arc::new(ShardedDatabase::with_rtree(2, lines(8, 20)).unwrap());
        let q = db.trajectory(TrajectoryId(3)).unwrap().clone();
        let window = q.time();
        let queries = vec![
            BatchQuery::kmst(Query::kmst(&q).k(3)).unwrap(),
            BatchQuery::knn(Query::knn(&q).k(2)).unwrap(),
            BatchQuery::knn_segments(
                Query::knn_segments(mst_trajectory::Point::new(1.0, 1.0))
                    .k(4)
                    .during(&window),
            )
            .unwrap(),
            BatchQuery::range(Query::range(&mst_trajectory::Mbb::new(
                0.0, 0.0, 0.0, 10.0, 10.0, 20.0,
            ))),
        ];
        let batch = BatchExecutor::new().workers(2).run(&db, queries.clone());

        let handle = BatchExecutor::new()
            .workers(2)
            .queue_capacity(8)
            .submit_handle(Arc::clone(&db))
            .unwrap();
        let tickets: Vec<Ticket> = queries
            .into_iter()
            .map(|query| handle.try_submit(query).unwrap())
            .collect();
        for (ticket, expected) in tickets.into_iter().zip(&batch.outcomes) {
            let got = ticket.wait().unwrap();
            let expected = expected.as_ref().unwrap();
            assert!(!got.degraded);
            match (&got.answer, &expected.answer) {
                (crate::QueryAnswer::Kmst(a), crate::QueryAnswer::Kmst(b)) => assert_eq!(a, b),
                (crate::QueryAnswer::Knn(a), crate::QueryAnswer::Knn(b)) => assert_eq!(a, b),
                (crate::QueryAnswer::Segments(a), crate::QueryAnswer::Segments(b)) => {
                    assert_eq!(a, b)
                }
                (crate::QueryAnswer::Range(a), crate::QueryAnswer::Range(b)) => assert_eq!(a, b),
                _ => panic!("answer flavours diverged"),
            }
        }
        handle.shutdown();
    }

    #[test]
    fn overload_returns_typed_backpressure() {
        let db = Arc::new(ShardedDatabase::with_rtree(1, lines(40, 40)).unwrap());
        let q = db.trajectory(TrajectoryId(0)).unwrap().clone();
        let handle = BatchExecutor::new()
            .workers(1)
            .queue_capacity(1)
            .submit_handle(Arc::clone(&db))
            .unwrap();
        let mut tickets = Vec::new();
        let mut overloaded = 0;
        for _ in 0..100 {
            match handle.try_submit(BatchQuery::kmst(Query::kmst(&q).k(8)).unwrap()) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::Overloaded { capacity, .. }) => {
                    assert_eq!(capacity, 1);
                    overloaded += 1;
                }
                Err(SubmitError::ShuttingDown) => panic!("not shutting down"),
            }
        }
        // A 1-worker, depth-1 pool cannot absorb 100 back-to-back heavy
        // queries; admission control must have rejected some — and every
        // admitted one must still resolve.
        assert!(overloaded > 0, "expected at least one Overloaded");
        for t in tickets {
            assert!(!t.wait().unwrap().answer.is_empty());
        }
        handle.shutdown();
    }

    #[test]
    fn shutdown_drains_inflight_then_rejects() {
        let db = Arc::new(ShardedDatabase::with_rtree(2, lines(6, 15)).unwrap());
        let q = db.trajectory(TrajectoryId(1)).unwrap().clone();
        let handle = BatchExecutor::new()
            .workers(1)
            .queue_capacity(4)
            .submit_handle(Arc::clone(&db))
            .unwrap();
        let tickets: Vec<Ticket> = (0..4)
            .filter_map(|_| {
                handle
                    .try_submit(BatchQuery::kmst(Query::kmst(&q).k(2)).unwrap())
                    .ok()
            })
            .collect();
        assert!(!tickets.is_empty());
        handle.shutdown();
        // Every pre-shutdown ticket resolves; nothing new is admitted.
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        match handle.try_submit(BatchQuery::kmst(Query::kmst(&q).k(2)).unwrap()) {
            Err(SubmitError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {:?}", other.map(|_| "ticket")),
        }
    }

    #[test]
    fn try_wait_polls_then_claims_exactly_once() {
        let db = Arc::new(ShardedDatabase::with_rtree(1, lines(6, 12)).unwrap());
        let q = db.trajectory(TrajectoryId(2)).unwrap().clone();
        let handle = BatchExecutor::new()
            .workers(1)
            .queue_capacity(2)
            .submit_handle(Arc::clone(&db))
            .unwrap();
        let ticket = handle
            .try_submit(BatchQuery::kmst(Query::kmst(&q).k(2)).unwrap())
            .unwrap();
        let outcome = loop {
            match ticket.try_wait().unwrap() {
                Some(outcome) => break outcome,
                None => std::thread::yield_now(),
            }
        };
        assert!(!outcome.answer.is_empty());
        // The claim is single-shot: the channel is now consumed+closed.
        assert!(ticket.try_wait().is_err());
        handle.shutdown();
    }

    #[test]
    fn per_query_deadline_degrades_not_errors() {
        let db = Arc::new(ShardedDatabase::with_rtree(2, lines(10, 30)).unwrap());
        let q = db.trajectory(TrajectoryId(0)).unwrap().clone();
        let handle = BatchExecutor::new()
            .workers(1)
            .queue_capacity(2)
            .submit_handle(Arc::clone(&db))
            .unwrap();
        // A zero budget is expired before the first shard runs.
        let spec = Query::kmst(&q)
            .k(3)
            .deadline(core::time::Duration::ZERO)
            .spec()
            .unwrap();
        let outcome = handle
            .try_submit(BatchQuery::Kmst(spec))
            .unwrap()
            .wait()
            .unwrap();
        assert!(outcome.degraded);
        assert!(outcome.deadline_expired);
        handle.shutdown();
    }
}
