//! A small moving-object-database facade tying the pieces together: raw
//! position streams in, every query flavour out of one structure.
//!
//! The paper's point is that a MOD should *not* need a dedicated similarity
//! index — the R-tree-like structure it already keeps for range and
//! nearest-neighbour queries also serves k-MST search. The
//! [`MovingObjectDatabase`] makes that concrete: it ingests timestamped
//! positions (or whole trajectories), maintains the segment index and the
//! trajectory store in lockstep, and answers every query flavour — range,
//! point-kNN, trajectory-kNN, k-MST, range-MST, time-relaxed MST — through
//! the unified [`Query`](crate::query::Query) builder.
//!
//! The trajectory snapshot is materialized lazily behind [`RefCell`]s, so
//! read-only accessors like [`MovingObjectDatabase::trajectory`] take
//! `&self` even though they may refresh stale snapshots under the hood.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use mst_index::{
    knn_segments_traced, KnnMatch, LeafEntry, MetricTree, Rtree3D, TbTree, TrajectoryIndexWrite,
};
use mst_trajectory::{Mbb, Point, SamplePoint, Segment, TimeInterval, Trajectory, TrajectoryId};

use crate::bfmst::MstConfig;
use crate::metrics::QueryMetrics;
use crate::nn::{nearest_trajectories, NnMatch};
use crate::options::Substrate;
use crate::share::NoShare;
use crate::substrate::KmstSubstrate;
use crate::time_relaxed::{time_relaxed_kmst_traced, TimeRelaxedConfig, TimeRelaxedMatch};
use crate::{MstMatch, Result, SearchError, TrajectoryStore};

/// A moving-object database: trajectory storage plus one general-purpose
/// segment index answering every query type.
///
/// ```
/// use mst_search::{MovingObjectDatabase, Query};
/// use mst_trajectory::{SamplePoint, TimeInterval, TrajectoryId};
///
/// let mut db = MovingObjectDatabase::with_rtree();
/// // Stream position reports for two vehicles.
/// for i in 0..20 {
///     let t = f64::from(i);
///     db.append(TrajectoryId(0), SamplePoint::new(t, t, 0.0))?;
///     db.append(TrajectoryId(1), SamplePoint::new(t, t, 5.0))?;
/// }
/// let query = db.trajectory(TrajectoryId(0)).unwrap();
/// let top = Query::kmst(&query).k(2).run(&mut db)?;
/// assert_eq!(top[0].traj, TrajectoryId(0)); // itself, DISSIM 0
/// assert_eq!(top[1].traj, TrajectoryId(1)); // the parallel vehicle
/// # Ok::<(), mst_search::SearchError>(())
/// ```
pub struct MovingObjectDatabase<I: TrajectoryIndexWrite> {
    index: I,
    /// Raw sample streams, per object.
    samples: HashMap<TrajectoryId, Vec<SamplePoint>>,
    /// Materialized trajectory snapshot used by queries; refreshed lazily,
    /// hence the interior mutability.
    store: RefCell<TrajectoryStore>,
    /// Objects whose snapshot is stale.
    dirty: RefCell<HashSet<TrajectoryId>>,
}

impl MovingObjectDatabase<Rtree3D> {
    /// A MOD backed by a 3D R-tree.
    pub fn with_rtree() -> Self {
        MovingObjectDatabase::new(Rtree3D::new())
    }
}

impl MovingObjectDatabase<TbTree> {
    /// A MOD backed by a TB-tree. Positions of each object must arrive in
    /// temporal order (they do in a live feed).
    pub fn with_tbtree() -> Self {
        MovingObjectDatabase::new(TbTree::new())
    }
}

impl MovingObjectDatabase<MetricTree> {
    /// A MOD backed by a metric tree: k-MST queries run the
    /// triangle-inequality ball search with exact DISSIM refinement
    /// instead of BFMST. Positions of each object must arrive in temporal
    /// order, and each object's stream must be gap-free (the streaming
    /// [`MovingObjectDatabase::append`] path guarantees both).
    pub fn with_metric() -> Self {
        MovingObjectDatabase::new(MetricTree::new())
    }
}

impl<I: TrajectoryIndexWrite> MovingObjectDatabase<I> {
    /// Wraps an existing (possibly pre-loaded) index.
    pub fn new(index: I) -> Self {
        MovingObjectDatabase {
            index,
            samples: HashMap::new(),
            store: RefCell::new(TrajectoryStore::new()),
            dirty: RefCell::new(HashSet::new()),
        }
    }

    /// Ingests one position report. The second and every later report of an
    /// object adds a segment to the index immediately.
    pub fn append(&mut self, id: TrajectoryId, sample: SamplePoint) -> Result<()> {
        if !sample.is_finite() {
            return Err(SearchError::Trajectory(
                mst_trajectory::TrajectoryError::NonFinite { index: 0 },
            ));
        }
        let stream = self.samples.entry(id).or_default();
        if let Some(last) = stream.last() {
            if last.t >= sample.t {
                return Err(SearchError::Trajectory(
                    mst_trajectory::TrajectoryError::NonMonotonicTime {
                        index: stream.len(),
                        prev: last.t,
                        next: sample.t,
                    },
                ));
            }
            let segment = Segment::new(*last, sample)?;
            self.index.insert_entry(LeafEntry {
                traj: id,
                seq: (stream.len() - 1) as u32,
                segment,
            })?;
        }
        stream.push(sample);
        self.dirty.get_mut().insert(id);
        Ok(())
    }

    /// Ingests a whole trajectory at once.
    pub fn insert_trajectory(&mut self, id: TrajectoryId, trajectory: &Trajectory) -> Result<()> {
        for p in trajectory.points() {
            self.append(id, *p)?;
        }
        Ok(())
    }

    /// Number of tracked objects.
    pub fn num_objects(&self) -> usize {
        self.samples.len()
    }

    /// Number of indexed segments.
    pub fn num_segments(&self) -> u64 {
        self.index.num_entries()
    }

    /// Read access to the underlying index (statistics, persistence, ...).
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Mutable access to the underlying index.
    pub fn index_mut(&mut self) -> &mut I {
        &mut self.index
    }

    /// Refreshes the trajectory snapshot for every dirty object. Objects
    /// with fewer than two samples are not yet query-visible.
    fn materialize(&self) {
        let mut store = self.store.borrow_mut();
        for id in self.dirty.borrow_mut().drain() {
            let stream = &self.samples[&id];
            if stream.len() >= 2 {
                let t = Trajectory::new(stream.clone())
                    // invariant: append() rejects out-of-order and non-finite
                    // samples, so the stream always forms a valid trajectory.
                    .expect("append() maintains the trajectory invariants");
                store.insert(id, t);
            }
        }
    }

    /// The current trajectory of an object (`None` until it has two
    /// samples). Returns an owned snapshot so the database stays borrowable
    /// for the query that typically follows.
    pub fn trajectory(&self, id: TrajectoryId) -> Option<Trajectory> {
        self.materialize();
        self.store.borrow().get(id).cloned()
    }

    /// Runs a function against the materialized trajectory snapshot without
    /// cloning it.
    pub fn with_store<R>(&self, f: impl FnOnce(&TrajectoryStore) -> R) -> R {
        self.materialize();
        f(&self.store.borrow())
    }

    /// The [`Substrate`] this database is backed by (what queries pinning
    /// a substrate are validated against).
    pub fn substrate(&self) -> Substrate
    where
        I: KmstSubstrate,
    {
        I::KIND
    }

    /// k-MST / range-MST runner behind [`Query::kmst`](crate::query::Query):
    /// dispatches to the substrate's own search (BFMST on the MBB trees,
    /// the ball search on the metric tree).
    pub(crate) fn run_kmst<M: QueryMetrics>(
        &mut self,
        query: &Trajectory,
        period: &TimeInterval,
        config: &MstConfig,
        metrics: &mut M,
    ) -> Result<Vec<MstMatch>>
    where
        I: KmstSubstrate,
    {
        self.materialize();
        let store = self.store.get_mut();
        let report = self
            .index
            .kmst_search(store, query, period, config, &NoShare, metrics)?;
        Ok(report.matches)
    }

    /// Time-relaxed runner behind
    /// [`KmstQuery::time_relaxed`](crate::query::KmstQuery::time_relaxed).
    pub(crate) fn run_time_relaxed<M: QueryMetrics>(
        &mut self,
        query: &Trajectory,
        config: &TimeRelaxedConfig,
        metrics: &mut M,
    ) -> Result<Vec<TimeRelaxedMatch>> {
        self.materialize();
        time_relaxed_kmst_traced(self.store.get_mut(), query, config, metrics)
    }

    /// Trajectory-kNN runner behind [`Query::knn`](crate::query::Query).
    pub(crate) fn run_knn<M: QueryMetrics>(
        &mut self,
        query: &Trajectory,
        period: &TimeInterval,
        k: usize,
        metrics: &mut M,
    ) -> Result<Vec<NnMatch>> {
        self.materialize();
        let outcome = nearest_trajectories(&self.index, query, period, k, &NoShare, metrics)?;
        Ok(outcome.matches)
    }

    /// Point-kNN runner behind
    /// [`Query::knn_segments`](crate::query::Query).
    pub(crate) fn run_knn_segments<M: QueryMetrics>(
        &mut self,
        location: Point,
        window: &TimeInterval,
        k: usize,
        metrics: &mut M,
    ) -> Result<Vec<KnnMatch>> {
        Ok(knn_segments_traced(
            &self.index,
            location,
            window,
            k,
            metrics,
        )?)
    }

    /// Range runner behind [`Query::range`](crate::query::Query).
    pub(crate) fn run_range<M: QueryMetrics>(
        &mut self,
        window: &Mbb,
        metrics: &mut M,
    ) -> Result<Vec<LeafEntry>> {
        Ok(self.index.range_query_traced(window, metrics)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    fn feed<I: TrajectoryIndexWrite>(db: &mut MovingObjectDatabase<I>, id: u64, y: f64, n: usize) {
        for i in 0..n {
            let t = i as f64;
            db.append(TrajectoryId(id), SamplePoint::new(t, t * 0.5, y))
                .unwrap();
        }
    }

    #[test]
    fn streaming_ingest_builds_queryable_state() {
        let mut db = MovingObjectDatabase::with_rtree();
        for id in 0..6u64 {
            feed(&mut db, id, id as f64, 50);
        }
        assert_eq!(db.num_objects(), 6);
        assert_eq!(db.num_segments(), 6 * 49);
        let period = TimeInterval::new(0.0, 49.0).unwrap();
        let q = db.trajectory(TrajectoryId(2)).unwrap();
        let top = Query::kmst(&q).k(3).during(&period).run(&mut db).unwrap();
        assert_eq!(top[0].traj, TrajectoryId(2));
        assert!(top[0].dissim.abs() < 1e-9);
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn all_query_flavours_work_on_one_database() {
        let mut db = MovingObjectDatabase::with_tbtree();
        for id in 0..5u64 {
            feed(&mut db, id, id as f64 * 2.0, 40);
        }
        // Range.
        let hits = Query::range(&Mbb::new(0.0, -0.5, 0.0, 5.0, 0.5, 40.0))
            .run(&mut db)
            .unwrap();
        assert!(hits.iter().all(|e| e.traj == TrajectoryId(0)));
        assert!(!hits.is_empty());
        // Point kNN.
        let window = TimeInterval::new(0.0, 39.0).unwrap();
        let nn = Query::knn_segments(Point::new(5.0, 4.1))
            .k(2)
            .during(&window)
            .run(&mut db)
            .unwrap();
        assert_eq!(nn[0].entry.traj, TrajectoryId(2)); // y = 4
                                                       // Range-MST.
        let q = db.trajectory(TrajectoryId(1)).unwrap();
        let within = Query::kmst(&q)
            .k(10)
            .during(&window)
            .within(39.0 * 2.0 + 1.0)
            .run(&mut db)
            .unwrap();
        // Itself (0), plus the neighbours at distance 2 (dissim 78 <= 79).
        let ids: Vec<_> = within.iter().map(|m| m.traj).collect();
        assert!(ids.contains(&TrajectoryId(1)));
        assert!(ids.contains(&TrajectoryId(0)));
        assert!(ids.contains(&TrajectoryId(2)));
        assert_eq!(within.len(), 3);
        // Time-relaxed.
        let relaxed = Query::kmst(&q).k(1).time_relaxed().run(&mut db).unwrap();
        assert_eq!(relaxed[0].traj, TrajectoryId(1));
    }

    #[test]
    fn rejects_out_of_order_and_non_finite_samples() {
        let mut db = MovingObjectDatabase::with_rtree();
        db.append(TrajectoryId(0), SamplePoint::new(5.0, 0.0, 0.0))
            .unwrap();
        assert!(db
            .append(TrajectoryId(0), SamplePoint::new(5.0, 1.0, 0.0))
            .is_err());
        assert!(db
            .append(TrajectoryId(0), SamplePoint::new(6.0, f64::NAN, 0.0))
            .is_err());
        // A different object is unaffected.
        db.append(TrajectoryId(1), SamplePoint::new(0.0, 0.0, 0.0))
            .unwrap();
    }

    #[test]
    fn single_sample_objects_are_not_query_visible() {
        let mut db = MovingObjectDatabase::with_rtree();
        db.append(TrajectoryId(0), SamplePoint::new(0.0, 0.0, 0.0))
            .unwrap();
        assert!(db.trajectory(TrajectoryId(0)).is_none());
        assert_eq!(db.num_segments(), 0);
        feed(&mut db, 1, 1.0, 30);
        let period = TimeInterval::new(0.0, 29.0).unwrap();
        let q = db.trajectory(TrajectoryId(1)).unwrap();
        let top = Query::kmst(&q).k(5).during(&period).run(&mut db).unwrap();
        // Only object 1 qualifies.
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn incremental_appends_extend_existing_objects() {
        let mut db = MovingObjectDatabase::with_rtree();
        feed(&mut db, 0, 0.0, 10);
        let before = db.trajectory(TrajectoryId(0)).unwrap().num_points();
        db.append(TrajectoryId(0), SamplePoint::new(100.0, 50.0, 0.0))
            .unwrap();
        let after = db.trajectory(TrajectoryId(0)).unwrap().num_points();
        assert_eq!(after, before + 1);
        assert_eq!(db.num_segments(), 10);
    }

    #[test]
    fn trajectory_takes_a_shared_reference() {
        // The satellite fix this test pins down: snapshot reads no longer
        // demand `&mut`, so a query can borrow the database mutably right
        // after fetching its own query trajectory.
        let mut db = MovingObjectDatabase::with_rtree();
        feed(&mut db, 0, 0.0, 12);
        let shared: &MovingObjectDatabase<_> = &db;
        let a = shared.trajectory(TrajectoryId(0)).unwrap();
        let b = shared.trajectory(TrajectoryId(0)).unwrap();
        assert_eq!(a.num_points(), b.num_points());
    }
}
