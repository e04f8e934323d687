//! The unified query builder — one front door to every query flavour.
//!
//! A builder describes a query; [`MovingObjectDatabase`] runs it. Each
//! terminal freezes the builder into its owned spec and runs it on the
//! engine alone ([`MovingObjectDatabase::run`]) — through the same
//! [`run`](crate::run) every sharded query goes through:
//!
//! ```
//! use mst_search::{MovingObjectDatabase, Query};
//! use mst_trajectory::{SamplePoint, TimeInterval, TrajectoryId};
//!
//! let mut db = MovingObjectDatabase::with_rtree();
//! for i in 0..30 {
//!     let t = f64::from(i);
//!     db.append(TrajectoryId(0), SamplePoint::new(t, t, 0.0))?;
//!     db.append(TrajectoryId(1), SamplePoint::new(t, t, 3.0))?;
//! }
//! let q = db.trajectory(TrajectoryId(0)).unwrap();
//!
//! // Plain k-MST over the query's own validity period.
//! let top = Query::kmst(&q).k(2).run(&db)?;
//! assert_eq!(top[0].traj, TrajectoryId(0));
//!
//! // The same query, profiled: every heap operation, node access, buffer
//! // hit/miss, DISSIM piece evaluation and pruning decision is counted.
//! let (top, profile) = Query::kmst(&q).k(2).profile(&db)?;
//! assert_eq!(top.len(), 2);
//! assert!(profile.nodes_accessed() > 0);
//! assert!(profile.is_consistent());
//! # Ok::<(), mst_search::SearchError>(())
//! ```
//!
//! Every builder offers three terminal methods: `run` (results only, zero
//! observability overhead — the no-op sink monomorphizes away), `profile`
//! (results plus a fresh [`QueryProfile`]), and `run_traced` (results, with
//! events fed into any caller-supplied [`QueryMetrics`] sink — e.g. a
//! profile shared across a whole workload).
//!
//! The shared knobs — `k`, the time window, the deadline, the substrate —
//! live in one [`QueryOptions`] struct that every builder embeds, the batch
//! executor reads, and the serving layer's wire codec carries verbatim.
//! Deadlines ([`KmstQuery::deadline`] and friends) are honoured by
//! deadline-aware executors (`mst-exec`, `mst-serve`), which degrade the
//! query gracefully when the budget runs out; the single-threaded `run`
//! terminals execute to completion.

use core::time::Duration;

use mst_index::{KnnMatch, LeafEntry};
use mst_trajectory::{Mbb, Point, TimeInterval, Trajectory, TrajectoryError};

use crate::bfmst::MstConfig;
use crate::dissim::Integration;
use crate::forest::{BatchQuery, QueryAnswer};
use crate::metrics::{NoopSink, QueryMetrics, QueryProfile};
use crate::nn::NnMatch;
use crate::options::{QueryOptions, Substrate};
use crate::share::NoShare;
use crate::substrate::KmstSubstrate;
use crate::time_relaxed::{time_relaxed_kmst_traced, TimeRelaxedConfig, TimeRelaxedMatch};
use crate::{MovingObjectDatabase, MstMatch, Result, SearchError};

/// Entry point of the builder API: one constructor per query flavour.
///
/// See the [module documentation](crate::query) for an end-to-end example.
#[derive(Debug, Clone, Copy)]
pub struct Query;

impl Query {
    /// A k-most-similar-trajectories query (the paper's headline query):
    /// the `k` trajectories with smallest DISSIM from `query` over a period.
    ///
    /// The period defaults to the query trajectory's own validity interval;
    /// narrow it with [`KmstQuery::during`].
    pub fn kmst(query: &Trajectory) -> KmstQuery<'_> {
        KmstQuery {
            query,
            options: QueryOptions::new(),
            config: MstConfig::default(),
        }
    }

    /// A trajectory k-nearest-neighbour query: the `k` trajectories whose
    /// closest approach to `query` during the period is smallest.
    ///
    /// The period defaults to the query trajectory's own validity interval;
    /// narrow it with [`KnnQuery::during`].
    pub fn knn(query: &Trajectory) -> KnnQuery<'_> {
        KnnQuery {
            query,
            options: QueryOptions::new(),
        }
    }

    /// A point k-nearest-neighbour query: the `k` indexed segments that came
    /// closest to `location` during a time window.
    ///
    /// The window is mandatory — a stationary point has no validity interval
    /// to default to — so [`KnnSegmentsQuery::during`] must be called before
    /// running.
    pub fn knn_segments(location: Point) -> KnnSegmentsQuery {
        KnnSegmentsQuery {
            location,
            options: QueryOptions::new(),
        }
    }

    /// A classic 3D (x, y, t) range query: every indexed segment
    /// intersecting `window`.
    pub fn range(window: &Mbb) -> RangeQuery<'_> {
        RangeQuery {
            window,
            options: QueryOptions::new(),
        }
    }
}

/// Builder of a k-MST / range-MST query. Created by [`Query::kmst`].
#[derive(Debug, Clone, Copy)]
pub struct KmstQuery<'a> {
    query: &'a Trajectory,
    options: QueryOptions,
    config: MstConfig,
}

impl<'a> KmstQuery<'a> {
    /// Number of results to return (default 1).
    pub fn k(mut self, k: usize) -> Self {
        self.options.k = k;
        self.config.k = k;
        self
    }

    /// Restricts the query period (default: the query trajectory's own
    /// validity interval). The query trajectory must cover the period.
    pub fn during(mut self, period: &TimeInterval) -> Self {
        self.options.period = Some(*period);
        self
    }

    /// Sets a soft deadline, honoured by deadline-aware executors: when it
    /// expires mid-search the query is stopped gracefully and the outcome
    /// marked degraded (see `mst-exec`). The single-threaded `run`
    /// terminals ignore it and execute to completion.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.options = self.options.deadline(deadline);
        self
    }

    /// Pins the index substrate the query must run on (default
    /// [`Substrate::Auto`]: whatever the database is backed by). Running
    /// against a database backed by a different substrate is a
    /// [`SearchError::SubstrateMismatch`] — the knob exists so batch specs
    /// and wire requests can demand reproducible execution on a specific
    /// structure, and so caches never alias answers across substrates.
    pub fn substrate(mut self, substrate: Substrate) -> Self {
        self.options = self.options.substrate(substrate);
        self
    }

    /// Replaces the shared options wholesale (escape hatch for options that
    /// arrived pre-assembled, e.g. decoded from the wire). `options.k`
    /// overrides any earlier [`KmstQuery::k`].
    pub fn options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self.config.k = options.k;
        self
    }

    /// Turns the query into a *range-MST* query: only trajectories with
    /// DISSIM at most `theta` are returned (still at most `k` of them), and
    /// the ceiling feeds the pruning threshold from the first node on.
    pub fn within(mut self, theta: f64) -> Self {
        self.config.max_dissim = Some(theta);
        self
    }

    /// Integration scheme for per-piece DISSIM contributions (default: the
    /// paper's trapezoid rule with tracked error bound).
    pub fn integration(mut self, integration: Integration) -> Self {
        self.config.integration = integration;
        self
    }

    /// Toggles Section 4.4 error management (error-aware comparisons plus
    /// exact post-processing; default on, only meaningful with
    /// [`Integration::Trapezoid`]).
    pub fn error_management(mut self, on: bool) -> Self {
        self.config.error_management = on;
        self
    }

    /// Toggles the two search heuristics (candidate rejection by OPTDISSIM;
    /// termination by MINDISSIMINC). Both default on; disabling is for
    /// ablation studies.
    pub fn heuristics(mut self, use_heuristic1: bool, use_heuristic2: bool) -> Self {
        self.config.use_heuristic1 = use_heuristic1;
        self.config.use_heuristic2 = use_heuristic2;
        self
    }

    /// Replaces the whole search configuration at once (escape hatch for
    /// pre-built [`MstConfig`] values; overrides every earlier setter,
    /// including `k`).
    pub fn config(mut self, config: MstConfig) -> Self {
        self.config = config;
        self.options.k = config.k;
        self
    }

    /// Relaxes the time axis: instead of comparing over a fixed period, the
    /// query is shifted in time to minimize DISSIM per candidate ("same
    /// route and pace, different departure"). Carries `k` over; any period
    /// restriction is dropped — the shift search explores every feasible
    /// alignment.
    pub fn time_relaxed(self) -> TimeRelaxedQuery<'a> {
        TimeRelaxedQuery {
            query: self.query,
            config: TimeRelaxedConfig::k(self.config.k),
        }
    }

    /// Freezes the builder into an owned, thread-shippable [`KmstSpec`]:
    /// the period resolved, the configuration fixed, and the query
    /// trajectory cloned out of the borrow. Batch executors collect specs
    /// and run them on worker threads. Fails eagerly if the query
    /// trajectory does not cover the resolved period or the period is an
    /// instant — the period check the search makes, surfaced before
    /// the batch is submitted.
    pub fn spec(&self) -> Result<KmstSpec> {
        Ok(KmstSpec {
            query: self.query.clone(),
            options: resolve_period(self.query, self.options)?,
            config: self.config,
        })
    }

    /// Runs the query with observability: search events are fed into
    /// `metrics`.
    pub fn run_traced<I: KmstSubstrate, M: QueryMetrics>(
        &self,
        db: &MovingObjectDatabase<I>,
        metrics: &mut M,
    ) -> Result<Vec<MstMatch>> {
        match db.run(&BatchQuery::Kmst(self.spec()?), &NoShare, metrics)? {
            QueryAnswer::Kmst(matches) => Ok(matches),
            _ => Err(OTHER_FLAVOUR),
        }
    }

    /// Runs the query. Observability hooks compile to nothing.
    pub fn run<I: KmstSubstrate>(&self, db: &MovingObjectDatabase<I>) -> Result<Vec<MstMatch>> {
        self.run_traced(db, &mut NoopSink)
    }

    /// Runs the query and returns the results together with a fresh
    /// [`QueryProfile`] of everything the search did.
    pub fn profile<I: KmstSubstrate>(
        &self,
        db: &MovingObjectDatabase<I>,
    ) -> Result<(Vec<MstMatch>, QueryProfile)> {
        let mut profile = QueryProfile::new();
        let matches = self.run_traced(db, &mut profile)?;
        Ok((matches, profile))
    }
}

/// The error of a terminal whose query came back answered in another
/// flavour than its own, which [`crate::run`] never does.
const OTHER_FLAVOUR: SearchError = SearchError::MisconfiguredQuery("answered in another flavour");

/// The one check of a query trajectory against its period, made by the
/// three searches and both `spec()`s: the trajectory covers the period,
/// which lasts longer than an instant (refused as the scan refuses it).
pub(crate) fn check_period(query: &Trajectory, period: &TimeInterval) -> Result<()> {
    if !query.covers(period) {
        return Err(SearchError::QueryOutsidePeriod {
            period: (period.start(), period.end()),
            valid: (query.start_time(), query.end_time()),
        });
    }
    if period.is_instant() {
        return Err(SearchError::Trajectory(TrajectoryError::InvalidInterval {
            start: period.start(),
            end: period.end(),
        }));
    }
    Ok(())
}

/// `options` with the period resolved (default: the query trajectory's
/// own validity interval) and checked.
fn resolve_period(query: &Trajectory, mut options: QueryOptions) -> Result<QueryOptions> {
    let period = options.period.unwrap_or_else(|| query.time());
    check_period(query, &period)?;
    options.period = Some(period);
    Ok(options)
}

/// An owned, fully resolved k-MST query, detached from the builder's
/// borrows so it can be shipped to worker threads. Produced by
/// [`KmstQuery::spec`]; run by [`crate::run`], over one engine for the
/// builder's terminals, over every shard's for the batch executors.
#[derive(Debug, Clone)]
pub struct KmstSpec {
    /// The query trajectory.
    pub query: Trajectory,
    /// The shared options, with the period resolved (`options.period` is
    /// always `Some`, and passed the search's period check at spec construction).
    /// `options.k` mirrors `config.k`.
    pub options: QueryOptions,
    /// The full search configuration.
    pub config: MstConfig,
}

impl KmstSpec {
    /// The resolved query period.
    pub fn period(&self) -> TimeInterval {
        self.options.period.unwrap_or_else(|| self.query.time())
    }
}

/// An owned, fully resolved trajectory-kNN query, detached from the
/// builder's borrows. Produced by [`KnnQuery::spec`].
#[derive(Debug, Clone)]
pub struct KnnSpec {
    /// The query trajectory.
    pub query: Trajectory,
    /// The shared options, with the period resolved (`options.period` is
    /// always `Some`, and passed the search's period check at spec construction).
    pub options: QueryOptions,
}

impl KnnSpec {
    /// The resolved query period.
    pub fn period(&self) -> TimeInterval {
        self.options.period.unwrap_or_else(|| self.query.time())
    }

    /// Number of nearest trajectories to return.
    pub fn k(&self) -> usize {
        self.options.k
    }
}

/// An owned, fully resolved point-kNN query. Produced by
/// [`KnnSegmentsQuery::spec`].
#[derive(Debug, Clone)]
pub struct SegmentsSpec {
    /// The query location.
    pub location: Point,
    /// The mandatory time window (validated present at spec construction;
    /// mirrors `options.period`).
    pub window: TimeInterval,
    /// The shared options.
    pub options: QueryOptions,
}

/// An owned, fully resolved 3D range query. Produced by
/// [`RangeQuery::spec`].
#[derive(Debug, Clone)]
pub struct RangeSpec {
    /// The spatio-temporal window.
    pub window: Mbb,
    /// The shared options (`k` and `period` are unused — the window is the
    /// query — but the deadline still applies).
    pub options: QueryOptions,
}

/// Builder of a time-relaxed k-MST query. Created by
/// [`KmstQuery::time_relaxed`].
#[derive(Debug, Clone, Copy)]
pub struct TimeRelaxedQuery<'a> {
    query: &'a Trajectory,
    config: TimeRelaxedConfig,
}

impl<'a> TimeRelaxedQuery<'a> {
    /// Number of results to return (default: inherited from the k-MST
    /// builder).
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Grid points per candidate's feasible shift range (default 64): the
    /// resolution the optimal shift is located at before refinement.
    pub fn grid_steps(mut self, steps: usize) -> Self {
        self.config.grid_steps = steps;
        self
    }

    /// Golden-section iterations inside the best grid cell (default 32).
    pub fn refine_iters(mut self, iters: usize) -> Self {
        self.config.refine_iters = iters;
        self
    }

    /// Runs the query with observability: search events are fed into
    /// `metrics`.
    pub fn run_traced<I, M: QueryMetrics>(
        &self,
        db: &MovingObjectDatabase<I>,
        metrics: &mut M,
    ) -> Result<Vec<TimeRelaxedMatch>> {
        time_relaxed_kmst_traced(db.store(), self.query, &self.config, metrics)
    }

    /// Runs the query. Observability hooks compile to nothing.
    pub fn run<I>(&self, db: &MovingObjectDatabase<I>) -> Result<Vec<TimeRelaxedMatch>> {
        self.run_traced(db, &mut NoopSink)
    }

    /// Runs the query and returns the results together with a fresh
    /// [`QueryProfile`]. The time-relaxed search scans the store rather than
    /// the index, so only candidate and piece-evaluation counters move.
    pub fn profile<I>(
        &self,
        db: &MovingObjectDatabase<I>,
    ) -> Result<(Vec<TimeRelaxedMatch>, QueryProfile)> {
        let mut profile = QueryProfile::new();
        let matches = self.run_traced(db, &mut profile)?;
        Ok((matches, profile))
    }
}

/// Builder of a trajectory k-nearest-neighbour query. Created by
/// [`Query::knn`].
#[derive(Debug, Clone, Copy)]
pub struct KnnQuery<'a> {
    query: &'a Trajectory,
    options: QueryOptions,
}

impl<'a> KnnQuery<'a> {
    /// Number of results to return (default 1).
    pub fn k(mut self, k: usize) -> Self {
        self.options.k = k;
        self
    }

    /// Restricts the query period (default: the query trajectory's own
    /// validity interval). The query trajectory must cover the period.
    pub fn during(mut self, period: &TimeInterval) -> Self {
        self.options.period = Some(*period);
        self
    }

    /// Sets a soft deadline, honoured by deadline-aware executors (see
    /// [`KmstQuery::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.options = self.options.deadline(deadline);
        self
    }

    /// Replaces the shared options wholesale (e.g. options decoded from
    /// the wire).
    pub fn options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self
    }

    /// Freezes the builder into an owned, thread-shippable [`KnnSpec`]
    /// (see [`KmstQuery::spec`] for the batch-execution story). Fails
    /// eagerly where the search would, as [`KmstQuery::spec`] does.
    pub fn spec(&self) -> Result<KnnSpec> {
        Ok(KnnSpec {
            query: self.query.clone(),
            options: resolve_period(self.query, self.options)?,
        })
    }

    /// Runs the query with observability: search events are fed into
    /// `metrics`.
    pub fn run_traced<I: KmstSubstrate, M: QueryMetrics>(
        &self,
        db: &MovingObjectDatabase<I>,
        metrics: &mut M,
    ) -> Result<Vec<NnMatch>> {
        match db.run(&BatchQuery::Knn(self.spec()?), &NoShare, metrics)? {
            QueryAnswer::Knn(matches) => Ok(matches),
            _ => Err(OTHER_FLAVOUR),
        }
    }

    /// Runs the query. Observability hooks compile to nothing.
    pub fn run<I: KmstSubstrate>(&self, db: &MovingObjectDatabase<I>) -> Result<Vec<NnMatch>> {
        self.run_traced(db, &mut NoopSink)
    }

    /// Runs the query and returns the results together with a fresh
    /// [`QueryProfile`] of everything the search did.
    pub fn profile<I: KmstSubstrate>(
        &self,
        db: &MovingObjectDatabase<I>,
    ) -> Result<(Vec<NnMatch>, QueryProfile)> {
        let mut profile = QueryProfile::new();
        let matches = self.run_traced(db, &mut profile)?;
        Ok((matches, profile))
    }
}

/// Builder of a point k-nearest-neighbour query. Created by
/// [`Query::knn_segments`].
#[derive(Debug, Clone, Copy)]
pub struct KnnSegmentsQuery {
    location: Point,
    options: QueryOptions,
}

impl KnnSegmentsQuery {
    /// Number of results to return (default 1).
    pub fn k(mut self, k: usize) -> Self {
        self.options.k = k;
        self
    }

    /// The time window to search in. Mandatory: running without it is a
    /// [`SearchError::MisconfiguredQuery`].
    pub fn during(mut self, window: &TimeInterval) -> Self {
        self.options.period = Some(*window);
        self
    }

    /// Sets a soft deadline, honoured by deadline-aware executors (see
    /// [`KmstQuery::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.options = self.options.deadline(deadline);
        self
    }

    /// Replaces the shared options wholesale (e.g. options decoded from
    /// the wire).
    pub fn options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self
    }

    /// Freezes the builder into an owned, thread-shippable
    /// [`SegmentsSpec`]. Fails eagerly if no time window was given.
    pub fn spec(&self) -> Result<SegmentsSpec> {
        let window = self.options.period.ok_or(SearchError::MisconfiguredQuery(
            "a point-kNN query needs a time window: call .during(window)",
        ))?;
        Ok(SegmentsSpec {
            location: self.location,
            window,
            options: self.options,
        })
    }

    /// Runs the query with observability: search events are fed into
    /// `metrics`.
    pub fn run_traced<I: KmstSubstrate, M: QueryMetrics>(
        &self,
        db: &MovingObjectDatabase<I>,
        metrics: &mut M,
    ) -> Result<Vec<KnnMatch>> {
        match db.run(&BatchQuery::Segments(self.spec()?), &NoShare, metrics)? {
            QueryAnswer::Segments(matches) => Ok(matches),
            _ => Err(OTHER_FLAVOUR),
        }
    }

    /// Runs the query. Observability hooks compile to nothing.
    pub fn run<I: KmstSubstrate>(&self, db: &MovingObjectDatabase<I>) -> Result<Vec<KnnMatch>> {
        self.run_traced(db, &mut NoopSink)
    }

    /// Runs the query and returns the results together with a fresh
    /// [`QueryProfile`] of everything the search did.
    pub fn profile<I: KmstSubstrate>(
        &self,
        db: &MovingObjectDatabase<I>,
    ) -> Result<(Vec<KnnMatch>, QueryProfile)> {
        let mut profile = QueryProfile::new();
        let matches = self.run_traced(db, &mut profile)?;
        Ok((matches, profile))
    }
}

/// Builder of a 3D range query. Created by [`Query::range`].
#[derive(Debug, Clone, Copy)]
pub struct RangeQuery<'a> {
    window: &'a Mbb,
    options: QueryOptions,
}

impl<'a> RangeQuery<'a> {
    /// Sets a soft deadline, honoured by deadline-aware executors (see
    /// [`KmstQuery::deadline`]). A range query has no pruning threshold to
    /// degrade through, so an expired deadline skips the shards' trees not
    /// yet walked.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.options = self.options.deadline(deadline);
        self
    }

    /// Replaces the shared options wholesale (e.g. options decoded from
    /// the wire). Only the deadline is meaningful for a range query.
    pub fn options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self
    }

    /// Freezes the builder into an owned, thread-shippable [`RangeSpec`].
    pub fn spec(&self) -> RangeSpec {
        RangeSpec {
            window: *self.window,
            options: self.options,
        }
    }

    /// Runs the query with observability: node and buffer accesses are fed
    /// into `metrics`.
    pub fn run_traced<I: KmstSubstrate, M: QueryMetrics>(
        &self,
        db: &MovingObjectDatabase<I>,
        metrics: &mut M,
    ) -> Result<Vec<LeafEntry>> {
        match db.run(&BatchQuery::Range(self.spec()), &NoShare, metrics)? {
            QueryAnswer::Range(hits) => Ok(hits),
            _ => Err(OTHER_FLAVOUR),
        }
    }

    /// Runs the query. Observability hooks compile to nothing.
    pub fn run<I: KmstSubstrate>(&self, db: &MovingObjectDatabase<I>) -> Result<Vec<LeafEntry>> {
        self.run_traced(db, &mut NoopSink)
    }

    /// Runs the query and returns the results together with a fresh
    /// [`QueryProfile`] of the traversal's I/O behaviour.
    pub fn profile<I: KmstSubstrate>(
        &self,
        db: &MovingObjectDatabase<I>,
    ) -> Result<(Vec<LeafEntry>, QueryProfile)> {
        let mut profile = QueryProfile::new();
        let matches = self.run_traced(db, &mut profile)?;
        Ok((matches, profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::{SamplePoint, TrajectoryId};

    fn db_with_lines(n: u64) -> MovingObjectDatabase<mst_index::Rtree3D> {
        let mut db = MovingObjectDatabase::with_rtree();
        for id in 0..n {
            for i in 0..25 {
                let t = i as f64;
                db.append(TrajectoryId(id), SamplePoint::new(t, t, id as f64))
                    .unwrap();
            }
        }
        db
    }

    #[test]
    fn kmst_defaults_to_the_query_trajectorys_period() {
        let db = db_with_lines(4);
        let q = db.trajectory(TrajectoryId(1)).unwrap();
        let explicit = Query::kmst(&q).k(3).during(&q.time()).run(&db).unwrap();
        let defaulted = Query::kmst(&q).k(3).run(&db).unwrap();
        assert_eq!(explicit, defaulted);
        assert_eq!(defaulted[0].traj, TrajectoryId(1));
    }

    #[test]
    fn knn_segments_without_a_window_is_a_configuration_error() {
        let db = db_with_lines(2);
        let err = Query::knn_segments(Point::new(0.0, 0.0))
            .k(1)
            .run(&db)
            .unwrap_err();
        assert!(matches!(err, SearchError::MisconfiguredQuery(_)));
        assert!(matches!(
            Query::knn_segments(Point::new(0.0, 0.0)).spec(),
            Err(SearchError::MisconfiguredQuery(_))
        ));
    }

    #[test]
    fn builders_are_plain_data() {
        // Copy + reuse: one configured query can run against many databases.
        let a = db_with_lines(3);
        let b = db_with_lines(3);
        let q = a.trajectory(TrajectoryId(0)).unwrap();
        let query = Query::kmst(&q).k(2);
        let ra = query.run(&a).unwrap();
        let rb = query.run(&b).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn specs_freeze_the_builder_and_validate_coverage() {
        let db = db_with_lines(3);
        let q = db.trajectory(TrajectoryId(0)).unwrap();
        let spec = Query::kmst(&q).k(2).within(9.0).spec().unwrap();
        assert_eq!(spec.config.k, 2);
        assert_eq!(spec.options.k, 2);
        assert_eq!(spec.config.max_dissim, Some(9.0));
        assert_eq!(spec.period(), q.time());
        assert_eq!(spec.options.period, Some(q.time()));
        // A period the query does not cover fails at spec time, before any
        // batch is submitted.
        let outside = TimeInterval::new(0.0, 100.0).unwrap();
        assert!(matches!(
            Query::kmst(&q).during(&outside).spec(),
            Err(SearchError::QueryOutsidePeriod { .. })
        ));
        assert!(matches!(
            Query::knn(&q).k(3).during(&outside).spec(),
            Err(SearchError::QueryOutsidePeriod { .. })
        ));
        let nn_spec = Query::knn(&q).k(3).spec().unwrap();
        assert_eq!(nn_spec.k(), 3);
        assert_eq!(nn_spec.period(), q.time());
    }

    #[test]
    fn deadlines_ride_in_the_shared_options() {
        let db = db_with_lines(2);
        let q = db.trajectory(TrajectoryId(0)).unwrap();
        let spec = Query::kmst(&q)
            .k(2)
            .deadline(Duration::from_millis(5))
            .spec()
            .unwrap();
        assert_eq!(spec.options.deadline_us, Some(5_000));
        let spec = Query::knn(&q)
            .deadline(Duration::from_micros(9))
            .spec()
            .unwrap();
        assert_eq!(spec.options.deadline_us, Some(9));
        let w = q.time();
        let spec = Query::knn_segments(Point::new(1.0, 2.0))
            .during(&w)
            .k(4)
            .deadline(Duration::from_millis(1))
            .spec()
            .unwrap();
        assert_eq!(spec.window, w);
        assert_eq!(spec.options.k, 4);
        assert_eq!(spec.options.deadline_us, Some(1_000));
        let mbb = Mbb::new(0.0, 0.0, 0.0, 1.0, 1.0, 1.0);
        let spec = Query::range(&mbb).deadline(Duration::from_millis(2)).spec();
        assert_eq!(spec.options.deadline_us, Some(2_000));
        assert_eq!(spec.window, mbb);
    }

    #[test]
    fn options_escape_hatch_overrides_earlier_setters() {
        let db = db_with_lines(2);
        let q = db.trajectory(TrajectoryId(0)).unwrap();
        let opts = QueryOptions::new().k(5).deadline_us(250);
        let spec = Query::kmst(&q).k(1).options(opts).spec().unwrap();
        assert_eq!(spec.config.k, 5);
        assert_eq!(spec.options.k, 5);
        assert_eq!(spec.options.deadline_us, Some(250));
    }

    #[test]
    fn a_foreign_substrate_pin_is_refused_by_every_flavour() {
        let db = db_with_lines(3);
        let q = db.trajectory(TrajectoryId(0)).unwrap();
        let window = q.time();
        let foreign = QueryOptions::new().k(1).substrate(Substrate::Metric);
        let refused = |r: Result<()>| {
            assert!(matches!(
                r,
                Err(SearchError::SubstrateMismatch {
                    requested: Substrate::Metric,
                    actual: Substrate::Rtree,
                })
            ));
        };
        refused(Query::kmst(&q).options(foreign).run(&db).map(drop));
        refused(Query::knn(&q).options(foreign).run(&db).map(drop));
        let segments = Query::knn_segments(Point::new(0.0, 0.0)).options(foreign.during(&window));
        refused(segments.run(&db).map(drop));
        let everything = Mbb::new(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9);
        refused(
            Query::range(&everything)
                .options(foreign)
                .run(&db)
                .map(drop),
        );
        // The matching pin and `Auto` both answer.
        let own = QueryOptions::new().substrate(Substrate::Rtree);
        assert!(!Query::range(&everything)
            .options(own)
            .run(&db)
            .unwrap()
            .is_empty());
        assert!(!Query::range(&everything).run(&db).unwrap().is_empty());
    }

    #[test]
    fn profile_and_run_agree_on_results() {
        let db = db_with_lines(5);
        let q = db.trajectory(TrajectoryId(2)).unwrap();
        let plain = Query::kmst(&q).k(4).run(&db).unwrap();
        let (profiled, profile) = Query::kmst(&q).k(4).profile(&db).unwrap();
        assert_eq!(plain, profiled);
        assert!(profile.is_consistent());
        assert!(profile.candidates.seen >= 4);
    }
}
