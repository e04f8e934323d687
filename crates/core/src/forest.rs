//! One query over the shards' engines: [`run`].
//!
//! Every query ends in [`run`]: the [`Query`](crate::Query) terminals run
//! one engine, a forest of one ([`MovingObjectDatabase::run`]); the
//! `mst-exec` executors run every shard's engine under its read gate. It
//! makes the substrate-pin check for every shard, dispatches the
//! [`BatchQuery`] to its flavour's search over every engine's tree, and
//! owns the degraded path: a search stops at its first failed node read
//! and names the tree ([`Abort::Shard`]); `run` runs the same query again
//! over the live shards minus that one — at most one attempt per shard,
//! all polling the same `share`, so a deadline bounds the whole query. An
//! aborted attempt leaves its live candidates pending, so the profile's
//! ledger balances, and the answer is exactly the surviving shards'
//! answer. An error no read caused ([`Abort::Query`]) fails any forest
//! alike: it is not retried, and is charged once, to the first live shard.

use mst_index::{KnnMatch, LeafEntry};
use mst_trajectory::TrajectoryError;

use crate::database::MovingObjectDatabase;
use crate::knn::{nearest_segments, segments_within};
use crate::metrics::QueryMetrics;
use crate::nn::{nearest_trajectories, NnMatch};
use crate::options::QueryOptions;
use crate::query::{KmstQuery, KmstSpec, KnnQuery, KnnSegmentsQuery, KnnSpec, RangeQuery};
use crate::query::{RangeSpec, SegmentsSpec};
use crate::share::BoundShare;
use crate::substrate::KmstSubstrate;
use crate::{MstMatch, Result, SearchError};

/// One shard that left a query with an error instead of an answer: which
/// slice of the database the answer is missing, and why.
#[derive(Debug)]
pub struct ShardFailure {
    /// The shard: its number in a query's failures, its position in the
    /// forest in an [`Abort::Shard`].
    pub shard: usize,
    /// The error that dropped it (typically an I/O or checksum fault
    /// surfaced through [`mst_index::IndexError`]).
    pub error: SearchError,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {}: {}", self.shard, self.error)
    }
}

/// Why a search over a forest of trees stopped without an answer.
#[derive(Debug)]
pub enum Abort {
    /// A node read of one tree failed. The search stopped at that read; the
    /// query can run again without the tree.
    Shard(ShardFailure),
    /// The query failed for a reason no tree's read caused (a period the
    /// query does not cover, a candidate missing from its store): it fails
    /// the same way over any forest.
    Query(SearchError),
}

impl Abort {
    /// A failed read of the tree at position `shard`.
    pub(crate) fn read(shard: usize, error: impl Into<SearchError>) -> Self {
        Abort::Shard(ShardFailure {
            shard,
            error: error.into(),
        })
    }
}

impl From<SearchError> for Abort {
    fn from(e: SearchError) -> Self {
        Abort::Query(e)
    }
}

impl From<TrajectoryError> for Abort {
    fn from(e: TrajectoryError) -> Self {
        Abort::Query(e.into())
    }
}

/// The error a search over a forest of one surfaces: its tree's failed
/// read, or the query's own error.
impl From<Abort> for SearchError {
    fn from(abort: Abort) -> Self {
        match abort {
            Abort::Shard(failure) => failure.error,
            Abort::Query(error) => error,
        }
    }
}

/// A query of any flavour: an owned, validated spec produced by the same
/// [`Query`](crate::Query) builder the single-threaded API uses — what the
/// batch executors queue and the server decodes requests into.
///
/// ```
/// use mst_search::{BatchQuery, Query};
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
/// # Ok::<(), mst_search::SearchError>(())
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

    /// The one flavour dispatch: the query as one search over every
    /// engine's tree. An [`Abort::Shard`] names the tree by its position in
    /// `forest`.
    fn search<I: KmstSubstrate, B: BoundShare, M: QueryMetrics>(
        &self,
        forest: &[&MovingObjectDatabase<I>],
        share: &B,
        metrics: &mut M,
    ) -> std::result::Result<QueryAnswer, Abort> {
        let trees: Vec<&I> = forest.iter().map(|engine| engine.index()).collect();
        Ok(match self {
            BatchQuery::Kmst(spec) => {
                let shards: Vec<_> = forest.iter().map(|e| (e.index(), e.store())).collect();
                let (query, config) = (&spec.query, &spec.config);
                let found = I::kmst_forest(&shards, query, &spec.period(), config, share, metrics);
                QueryAnswer::Kmst(found?)
            }
            BatchQuery::Knn(spec) => {
                let (query, period, k) = (&spec.query, &spec.period(), spec.k());
                let found = nearest_trajectories(&trees, query, period, k, share, metrics);
                QueryAnswer::Knn(found?)
            }
            BatchQuery::Segments(spec) => {
                let (location, window, k) = (spec.location, &spec.window, spec.options.k);
                let found = nearest_segments(&trees, location, window, k, share, metrics);
                QueryAnswer::Segments(found?)
            }
            BatchQuery::Range(spec) => {
                QueryAnswer::Range(segments_within(&trees, &spec.window, share, metrics)?)
            }
        })
    }

    /// The answer of this query when no shard answered.
    fn nothing(&self) -> QueryAnswer {
        match self {
            BatchQuery::Kmst(_) => QueryAnswer::Kmst(Vec::new()),
            BatchQuery::Knn(_) => QueryAnswer::Knn(Vec::new()),
            BatchQuery::Segments(_) => QueryAnswer::Segments(Vec::new()),
            BatchQuery::Range(_) => QueryAnswer::Range(Vec::new()),
        }
    }
}

/// The answer of a [`BatchQuery`].
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

/// Runs `query` over `engines` — each shard's engine with its shard number
/// — and returns the answer of the shards that answered with the failures
/// of those that did not, in the order they failed (see the
/// [module documentation](crate::forest) for the degraded path). `share`
/// can stop the query (deadlines); `metrics` receives the work of every
/// attempt.
pub fn run<I: KmstSubstrate, B: BoundShare, M: QueryMetrics>(
    engines: &[(usize, &MovingObjectDatabase<I>)],
    query: &BatchQuery,
    share: &B,
    metrics: &mut M,
) -> (QueryAnswer, Vec<ShardFailure>) {
    let mut live = Vec::with_capacity(engines.len());
    let mut failures = Vec::new();
    for &(shard, engine) in engines {
        match query.options().check_substrate(I::KIND) {
            Ok(()) => live.push((shard, engine)),
            Err(error) => failures.push(ShardFailure { shard, error }),
        }
    }
    while let Some(&(first, _)) = live.first() {
        let forest: Vec<_> = live.iter().map(|&(_, engine)| engine).collect();
        match query.search(&forest, share, metrics) {
            Ok(answer) => return (answer, failures),
            Err(Abort::Shard(failure)) => {
                let (shard, _) = live.remove(failure.shard);
                failures.push(ShardFailure { shard, ..failure });
            }
            Err(Abort::Query(error)) => {
                failures.push(ShardFailure {
                    shard: first,
                    error,
                });
                break;
            }
        }
    }
    (query.nothing(), failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NoopSink;
    use crate::share::NoShare;
    use crate::Query;
    use mst_index::{FaultConfig, MetricTree, Rtree3D, StrTree, TbTree, TrajectoryIndexWrite};
    use mst_trajectory::{TimeInterval, Trajectory, TrajectoryId};

    /// A lane along x = t at height `y`, sampled `steps` times over
    /// [0, 10].
    fn line(y: f64, steps: u32) -> Trajectory {
        let t = |s: u32| f64::from(s) * 10.0 / f64::from(steps);
        let samples: Vec<_> = (0..=steps).map(|s| (t(s), t(s), y)).collect();
        Trajectory::from_txy(&samples).unwrap()
    }

    fn bits(matches: &[MstMatch]) -> Vec<(TrajectoryId, u64)> {
        matches
            .iter()
            .map(|m| (m.traj, m.dissim.to_bits()))
            .collect()
    }

    /// Engine a: 600 lanes within 3.5 of the query, the nearest sampled
    /// finely enough to fill two leaves; engine b: 300 lanes about 100
    /// away. A k = 1 kNN search over the first half of the period caches
    /// what it reads of a, then every other read of a fails — part-way
    /// through each k-MST query, after a's near lanes have set the
    /// threshold. The answer is b's alone, to the bit, and the failure
    /// names shard 0.
    fn survivors<I: KmstSubstrate + TrajectoryIndexWrite>(make: impl Fn() -> I) {
        let near = (0..600u32).map(|i| {
            let steps = if i == 0 { 100 } else { 10 };
            let lane = line(f64::from(i) * 0.005, steps);
            (TrajectoryId(2 * u64::from(i)), lane)
        });
        let far = (0..300u32).map(|i| {
            let lane = line(100.0 + f64::from(i), 10);
            (TrajectoryId(2 * u64::from(i) + 1), lane)
        });
        let mut a = MovingObjectDatabase::build(make(), near).unwrap();
        let b = MovingObjectDatabase::build(make(), far).unwrap();
        let q = line(-0.5, 10);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let first_half = TimeInterval::new(0.0, 5.0).unwrap();
        a.index_mut().set_buffer_capacity(Some(10_000)).unwrap();
        a.index_mut().clear_buffer().unwrap();
        let warm = BatchQuery::knn(Query::knn(&q).k(1).during(&first_half)).unwrap();
        a.run(&warm, &NoShare, &mut NoopSink).unwrap();
        let faults = FaultConfig::quiet(7).with_read_transient(1.0);
        a.index_mut().set_fault_injection(Some(faults)).unwrap();
        let name = I::KIND.name();
        for k in [1, 4, 20, 100, 250] {
            let query = BatchQuery::kmst(Query::kmst(&q).k(k).during(&period)).unwrap();
            let (answer, failures) = run(&[(0, &a), (1, &b)], &query, &NoShare, &mut NoopSink);
            let failed: Vec<usize> = failures.iter().map(|f| f.shard).collect();
            assert_eq!(failed, [0], "{name} k {k}: a fails");
            let alone = b.run(&query, &NoShare, &mut NoopSink).unwrap();
            let (matches, alone) = (answer.as_kmst().unwrap(), alone.as_kmst().unwrap());
            assert_eq!(alone.len(), k, "{name} k {k}");
            assert_eq!(bits(matches), bits(alone), "{name} k {k}");
        }
    }

    #[test]
    fn a_failed_shard_leaves_the_survivors_answer_on_every_substrate() {
        survivors(Rtree3D::new);
        survivors(StrTree::new);
        survivors(TbTree::new);
        survivors(MetricTree::new);
    }
}
