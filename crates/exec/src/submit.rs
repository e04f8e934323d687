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
//! [`QueryOutcome`]. One worker runs the query over every shard with the
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

/// Receives the outcomes of a routed batch submission
/// ([`ExecHandle::try_submit_batch`]) as they complete. Implementations
/// must be cheap and non-blocking — the call runs on a pool worker, and a
/// sink that stalls stalls the pool.
pub trait OutcomeSink: Send + Sync + 'static {
    /// Called exactly once per admitted query, from the worker that ran
    /// it, with the caller's token for that query.
    fn complete(&self, token: u64, outcome: QueryOutcome);
}

/// Delivering outcomes through a caller-supplied channel lets every
/// completion of a serving tick land in **one** receiver instead of N
/// ticket channels, so a coalescer can block on a single wait point.
impl OutcomeSink for Sender<(u64, QueryOutcome)> {
    fn complete(&self, token: u64, outcome: QueryOutcome) {
        // invariant: a receiver that hung up means the batch's owner
        // abandoned its queries; dropping the outcome is the correct
        // response (mirrors the ticket path)
        let _ = self.send((token, outcome));
    }
}

/// How an admitted query's outcome travels back to its owner.
enum Deliver {
    /// The single-query path: a private ticket channel.
    Channel(Sender<QueryOutcome>),
    /// The routed batch path: a shared sink plus the caller's token.
    Sink {
        token: u64,
        sink: Arc<dyn OutcomeSink>,
    },
}

/// One query of a routed batch submission: a caller-chosen token (echoed
/// into [`OutcomeSink::complete`]) plus the query itself.
pub struct RoutedQuery {
    /// Opaque correlation token, chosen by the caller.
    pub token: u64,
    /// The query to run.
    pub query: BatchQuery,
}

/// One refused query of a routed batch submission, handed back whole so
/// the caller can retry it later without having kept a copy.
pub struct RejectedSubmit {
    /// The caller's correlation token for the refused query.
    pub token: u64,
    /// The query itself, returned unrun.
    pub query: BatchQuery,
    /// Why the queue refused it.
    pub reason: SubmitError,
}

/// The admission report of [`ExecHandle::try_submit_batch`]: how many
/// queries the queue took, and the per-query fate of the ones it refused.
pub struct BatchAdmission {
    /// Queries admitted (their outcomes will reach the sink).
    pub admitted: usize,
    /// Queries the queue refused — token, query, and typed reason — in
    /// the batch's original order.
    pub rejected: Vec<RejectedSubmit>,
}

/// One admitted query: the spec, its control (deadline clock already
/// running), and the path its outcome goes back on.
struct SubmitJob {
    query: BatchQuery,
    control: QueryControl,
    deliver: Deliver,
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
        let (job, rx) = self.make_job(query);
        match self.queue.try_push(job) {
            Ok(()) => Ok(Ticket { rx }),
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
        let (job, rx) = self.make_job(query);
        match self.queue.push(job) {
            Ok(()) => Ok(Ticket { rx }),
            Err(_) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Admits a whole batch of queries under **one** queue-lock
    /// acquisition, routing every outcome to `sink` tagged with its
    /// query's token. Admission is prefix-shaped and in order: when the
    /// queue has room for only M of N queries, the first M are admitted
    /// and the rest come back in [`BatchAdmission::rejected`] with typed
    /// reasons. Deadline clocks start at admission, exactly as in
    /// [`ExecHandle::try_submit`].
    pub fn try_submit_batch(
        &self,
        batch: Vec<RoutedQuery>,
        sink: &Arc<dyn OutcomeSink>,
    ) -> BatchAdmission {
        let jobs: Vec<SubmitJob> = batch
            .into_iter()
            .map(|routed| {
                self.make_control_job(
                    routed.query,
                    Deliver::Sink {
                        token: routed.token,
                        sink: Arc::clone(sink),
                    },
                )
            })
            .collect();
        let push = self.queue.try_push_batch(jobs);
        let reason = if push.closed {
            SubmitError::ShuttingDown
        } else {
            SubmitError::Overloaded {
                queued: self.queue.len(),
                capacity: self.queue.capacity(),
            }
        };
        let rejected = push
            .rejected
            .into_iter()
            .map(|job| {
                let token = match job.deliver {
                    Deliver::Sink { token, .. } => token,
                    // A rejected batch job always carries a sink; a
                    // channel here would be a construction bug, reported
                    // as an impossible token rather than a panic.
                    Deliver::Channel(_) => u64::MAX,
                };
                RejectedSubmit {
                    token,
                    query: job.query,
                    reason,
                }
            })
            .collect();
        BatchAdmission {
            admitted: push.admitted,
            rejected,
        }
    }

    fn make_job(&self, query: BatchQuery) -> (SubmitJob, Receiver<QueryOutcome>) {
        let (tx, rx) = channel();
        (self.make_control_job(query, Deliver::Channel(tx)), rx)
    }

    fn make_control_job(&self, query: BatchQuery, deliver: Deliver) -> SubmitJob {
        let deadline = query.options().deadline_us.or(self.default_deadline_us);
        let control = QueryControl::new(Stopwatch::start(), deadline);
        SubmitJob {
            query,
            control,
            deliver,
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
    match job.deliver {
        // invariant: a receiver that hung up means the client abandoned
        // the query; dropping the outcome is the correct response
        Deliver::Channel(tx) => {
            let _ = tx.send(outcome); // invariant: as above
        }
        Deliver::Sink { token, sink } => sink.complete(token, outcome),
    }
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
    fn routed_batch_fans_outcomes_into_one_sink() {
        let db = Arc::new(ShardedDatabase::with_rtree(2, lines(8, 16)).unwrap());
        let q = db.trajectory(TrajectoryId(1)).unwrap().clone();
        let handle = BatchExecutor::new()
            .workers(2)
            .queue_capacity(8)
            .submit_handle(Arc::clone(&db))
            .unwrap();
        let (tx, rx) = channel::<(u64, QueryOutcome)>();
        let sink: Arc<dyn OutcomeSink> = Arc::new(tx);
        let batch: Vec<RoutedQuery> = (0..4u64)
            .map(|token| RoutedQuery {
                token: token * 10,
                query: BatchQuery::kmst(Query::kmst(&q).k(2)).unwrap(),
            })
            .collect();
        let admission = handle.try_submit_batch(batch, &sink);
        assert_eq!(admission.admitted, 4);
        assert!(admission.rejected.is_empty());
        let mut tokens: Vec<u64> = (0..4)
            .map(|_| {
                let (token, outcome) = rx.recv().unwrap();
                assert!(!outcome.answer.is_empty());
                assert!(!outcome.degraded);
                token
            })
            .collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![0, 10, 20, 30]);
        handle.shutdown();
    }

    #[test]
    fn batch_overflow_rejects_the_tail_in_order_with_typed_reasons() {
        let db = Arc::new(ShardedDatabase::with_rtree(1, lines(10, 20)).unwrap());
        let q = db.trajectory(TrajectoryId(0)).unwrap().clone();
        let handle = BatchExecutor::new()
            .workers(1)
            .queue_capacity(2)
            .submit_handle(Arc::clone(&db))
            .unwrap();
        let (tx, rx) = channel::<(u64, QueryOutcome)>();
        let sink: Arc<dyn OutcomeSink> = Arc::new(tx);
        let batch: Vec<RoutedQuery> = (0..5u64)
            .map(|token| RoutedQuery {
                token,
                query: BatchQuery::kmst(Query::kmst(&q).k(3)).unwrap(),
            })
            .collect();
        // The push holds the queue lock for the whole batch, so exactly
        // `capacity` jobs fit and the tail comes back in order.
        let admission = handle.try_submit_batch(batch, &sink);
        assert_eq!(admission.admitted, 2);
        let tokens: Vec<u64> = admission.rejected.iter().map(|r| r.token).collect();
        assert_eq!(tokens, vec![2, 3, 4]);
        for r in &admission.rejected {
            assert!(matches!(
                r.reason,
                SubmitError::Overloaded { capacity: 2, .. }
            ));
        }
        // Both admitted queries resolve through the sink.
        let mut done: Vec<u64> = (0..2).map(|_| rx.recv().unwrap().0).collect();
        done.sort_unstable();
        assert_eq!(done, vec![0, 1]);
        handle.shutdown();
        // After shutdown the whole batch is refused as ShuttingDown.
        let admission = handle.try_submit_batch(
            vec![RoutedQuery {
                token: 9,
                query: BatchQuery::kmst(Query::kmst(&q).k(1)).unwrap(),
            }],
            &sink,
        );
        assert_eq!(admission.admitted, 0);
        assert_eq!(admission.rejected[0].token, 9);
        assert_eq!(admission.rejected[0].reason, SubmitError::ShuttingDown);
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
