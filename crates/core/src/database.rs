//! The engine: one general-purpose segment index and the trajectory store
//! it sits on, kept in step, answering every query flavour.
//!
//! The paper's point is that a MOD should *not* need a dedicated similarity
//! index — the R-tree-like structure it already keeps for range and
//! nearest-neighbour queries also serves k-MST search.
//! [`MovingObjectDatabase`] is that pair and nothing else: `{index, store}`.
//! It is built in arrival order ([`MovingObjectDatabase::build`]), fed whole
//! trajectories or single position reports, or reassembled from a loaded
//! index image and its store ([`MovingObjectDatabase::from_parts`]). A
//! query runs over engines through the one [`run`](crate::run); on this
//! engine alone, a forest of one, through [`MovingObjectDatabase::run`].
//! Everything else is a layer over it: the [`Query`](crate::query)
//! builder's terminals call that runner with [`NoShare`](crate::NoShare),
//! `mst-exec` puts one engine behind each shard's lock, `mst-wal` logs
//! before it lets a write through to those shards.

use std::collections::hash_map::{Entry, HashMap};

use mst_index::{LeafEntry, MetricTree, Rtree3D, TbTree, TrajectoryIndexWrite};
use mst_trajectory::{SamplePoint, Trajectory, TrajectoryError, TrajectoryId};

use crate::forest::{BatchQuery, QueryAnswer};
use crate::metrics::QueryMetrics;
use crate::share::BoundShare;
use crate::substrate::KmstSubstrate;
use crate::{Result, SearchError, TrajectoryStore};

/// Every segment of `trajectories` as a leaf entry, in the arrival order of
/// a live position feed ([`LeafEntry::arrival_cmp`]) — the order every
/// index in this repository is built in.
pub fn arrival_order<'a>(
    trajectories: impl IntoIterator<Item = (TrajectoryId, &'a Trajectory)>,
) -> Vec<LeafEntry> {
    let mut entries: Vec<LeafEntry> = trajectories
        .into_iter()
        .flat_map(|(id, t)| LeafEntry::of_trajectory(id, t))
        .collect();
    entries.sort_by(LeafEntry::arrival_cmp);
    entries
}

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
/// let top = Query::kmst(&query).k(2).run(&db)?;
/// assert_eq!(top[0].traj, TrajectoryId(0)); // itself, DISSIM 0
/// assert_eq!(top[1].traj, TrajectoryId(1)); // the parallel vehicle
/// # Ok::<(), mst_search::SearchError>(())
/// ```
pub struct MovingObjectDatabase<I> {
    index: I,
    store: TrajectoryStore,
    /// The first report of each object that has sent only one: a segment
    /// needs two, so until the second arrives the sample waits here.
    first_reports: HashMap<TrajectoryId, SamplePoint>,
}

impl MovingObjectDatabase<Rtree3D> {
    /// An empty MOD backed by a 3D R-tree.
    pub fn with_rtree() -> Self {
        MovingObjectDatabase::new(Rtree3D::new())
    }
}

impl MovingObjectDatabase<TbTree> {
    /// An empty MOD backed by a TB-tree. Positions of each object must
    /// arrive in temporal order (they do in a live feed).
    pub fn with_tbtree() -> Self {
        MovingObjectDatabase::new(TbTree::new())
    }
}

impl MovingObjectDatabase<MetricTree> {
    /// An empty MOD backed by a metric tree: k-MST queries run the
    /// triangle-inequality ball search with exact DISSIM refinement
    /// instead of BFMST. Positions of each object must arrive in temporal
    /// order, and each object's stream must be gap-free (the streaming
    /// [`MovingObjectDatabase::append`] path guarantees both).
    pub fn with_metric() -> Self {
        MovingObjectDatabase::new(MetricTree::new())
    }
}

impl<I> MovingObjectDatabase<I> {
    /// Wraps an **empty** index. An index that already holds entries —
    /// loaded from an image, bulk-built — comes with the store it was built
    /// over: use [`MovingObjectDatabase::from_parts`].
    pub fn new(index: I) -> Self {
        MovingObjectDatabase::from_parts(index, TrajectoryStore::new())
    }

    /// Reassembles a database from an index and the store holding exactly
    /// the trajectories whose segments it indexes (a reloaded image, a
    /// bulk-loaded tree, a recovered shard). The caller vouches for the
    /// match; [`mst_index::check_invariants`] and the answer comparisons of
    /// the recovery suites are the safety net.
    pub fn from_parts(index: I, store: TrajectoryStore) -> Self {
        MovingObjectDatabase {
            index,
            store,
            first_reports: HashMap::new(),
        }
    }

    /// Takes the database apart again (to save the index, say).
    pub fn into_parts(self) -> (I, TrajectoryStore) {
        (self.index, self.store)
    }

    /// Read access to the underlying index (statistics, audits, ...).
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Mutable access to the underlying index (buffer sizing, saving an
    /// image, ...). Inserting or deleting entries through it breaks the
    /// match with the store.
    pub fn index_mut(&mut self) -> &mut I {
        &mut self.index
    }

    /// The trajectories the index is built over — what the store-scanning
    /// queries (linear scan, time-relaxed k-MST, selectivity histograms)
    /// read.
    pub fn store(&self) -> &TrajectoryStore {
        &self.store
    }

    /// The current trajectory of an object (`None` until it has two
    /// samples), cloned out so the database stays free for the appends or
    /// the query that typically follow.
    pub fn trajectory(&self, id: TrajectoryId) -> Option<Trajectory> {
        self.store.get(id).cloned()
    }

    /// Number of tracked objects, those still waiting for their second
    /// position report included.
    pub fn num_objects(&self) -> usize {
        self.store.len() + self.first_reports.len()
    }
}

impl<I: TrajectoryIndexWrite> MovingObjectDatabase<I> {
    /// Builds a database over `trajectories` on the empty `index`: segments
    /// are inserted in [`arrival_order`], so the result does not depend on
    /// the order of the input.
    pub fn build(
        index: I,
        trajectories: impl IntoIterator<Item = (TrajectoryId, Trajectory)>,
    ) -> Result<Self> {
        let mut db = MovingObjectDatabase::from_parts(index, trajectories.into_iter().collect());
        for entry in arrival_order(db.store.iter()) {
            db.index.insert_entry(entry)?;
        }
        Ok(db)
    }

    /// Inserts a *new* trajectory: every segment goes into the index, then
    /// the trajectory into the store. An id that already exists is refused
    /// (delete it first) — silent replacement would leave the old segments
    /// in substrates that cannot delete.
    ///
    /// An index failure part-way leaves the index holding segments the
    /// store does not know (searches skip them, [`MovingObjectDatabase::delete`]
    /// cannot reach them): durable deployments recover by log replay,
    /// in-memory callers should treat the database as degraded.
    pub fn insert_trajectory(&mut self, id: TrajectoryId, trajectory: &Trajectory) -> Result<()> {
        if self.store.get(id).is_some() || self.first_reports.contains_key(&id) {
            return Err(SearchError::DuplicateTrajectory(id));
        }
        for entry in LeafEntry::of_trajectory(id, trajectory) {
            self.index.insert_entry(entry)?;
        }
        self.store.insert(id, trajectory.clone());
        Ok(())
    }

    /// Deletes a trajectory and all its segment entries, each found by its
    /// box ([`TrajectoryIndexWrite::delete_segment`]). An unknown id is
    /// `Ok(false)` and touches nothing; substrates without point deletes
    /// (TB-tree, STR-tree, metric tree) surface the index's typed error and
    /// keep the trajectory.
    pub fn delete(&mut self, id: TrajectoryId) -> Result<bool> {
        let Some(existing) = self.store.get(id) else {
            return Ok(false);
        };
        for entry in LeafEntry::of_trajectory(id, existing) {
            self.index.delete_segment(&entry)?;
        }
        self.store.remove(id);
        Ok(true)
    }

    /// Ingests one position report. The second and every later report of an
    /// object adds a segment to the index and extends the object's stored
    /// trajectory in place. A refused sample (non-finite, or not later than
    /// the object's last; the error carries its position in the object's
    /// stream) changes nothing.
    pub fn append(&mut self, id: TrajectoryId, sample: SamplePoint) -> Result<()> {
        if let Some(trajectory) = self.store.get_mut(id) {
            let entry = LeafEntry {
                traj: id,
                seq: trajectory.num_segments() as u32,
                segment: trajectory.next_segment(sample)?,
            };
            self.index.insert_entry(entry)?;
            trajectory.push(sample)?;
            return Ok(());
        }
        match self.first_reports.entry(id) {
            Entry::Vacant(slot) => {
                if !sample.is_finite() {
                    return Err(TrajectoryError::NonFinite { index: 0 }.into());
                }
                slot.insert(sample);
            }
            Entry::Occupied(slot) => {
                let trajectory = Trajectory::new(vec![*slot.get(), sample])?;
                self.index.insert_entry(LeafEntry {
                    traj: id,
                    seq: 0,
                    segment: trajectory.segment(0),
                })?;
                slot.remove();
                self.store.insert(id, trajectory);
            }
        }
        Ok(())
    }
}

impl<I: KmstSubstrate> MovingObjectDatabase<I> {
    /// Runs `query` on this engine alone — [`run`](crate::run) over a
    /// forest of one, which polls `share` for a stop. The engine's failure
    /// is the query's error: a failed node read, a foreign substrate pin.
    pub fn run<B: BoundShare, M: QueryMetrics>(
        &self,
        query: &BatchQuery,
        share: &B,
        metrics: &mut M,
    ) -> Result<QueryAnswer> {
        let (answer, failures) = crate::run(&[(0, self)], query, share, metrics);
        match failures.into_iter().next() {
            Some(failure) => Err(failure.error),
            None => Ok(answer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use mst_index::TrajectoryIndex;
    use mst_trajectory::{Mbb, Point, TimeInterval};

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
        assert_eq!(db.index().num_entries(), 6 * 49);
        let period = TimeInterval::new(0.0, 49.0).unwrap();
        let q = db.trajectory(TrajectoryId(2)).unwrap();
        let top = Query::kmst(&q).k(3).during(&period).run(&db).unwrap();
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
            .run(&db)
            .unwrap();
        assert!(hits.iter().all(|e| e.traj == TrajectoryId(0)));
        assert!(!hits.is_empty());
        // Point kNN.
        let window = TimeInterval::new(0.0, 39.0).unwrap();
        let nn = Query::knn_segments(Point::new(5.0, 4.1))
            .k(2)
            .during(&window)
            .run(&db)
            .unwrap();
        assert_eq!(nn[0].entry.traj, TrajectoryId(2)); // y = 4
                                                       // Range-MST.
        let q = db.trajectory(TrajectoryId(1)).unwrap();
        let within = Query::kmst(&q)
            .k(10)
            .during(&window)
            .within(39.0 * 2.0 + 1.0)
            .run(&db)
            .unwrap();
        // Itself (0), plus the neighbours at distance 2 (dissim 78 <= 79).
        let ids: Vec<_> = within.iter().map(|m| m.traj).collect();
        assert!(ids.contains(&TrajectoryId(1)));
        assert!(ids.contains(&TrajectoryId(0)));
        assert!(ids.contains(&TrajectoryId(2)));
        assert_eq!(within.len(), 3);
        // Time-relaxed.
        let relaxed = Query::kmst(&q).k(1).time_relaxed().run(&db).unwrap();
        assert_eq!(relaxed[0].traj, TrajectoryId(1));
    }

    #[test]
    fn rejects_out_of_order_and_non_finite_samples() {
        let mut db = MovingObjectDatabase::with_rtree();
        db.append(TrajectoryId(0), SamplePoint::new(5.0, 0.0, 0.0))
            .unwrap();
        let refused =
            |db: &mut MovingObjectDatabase<Rtree3D>, id, sample| match db.append(id, sample) {
                Err(SearchError::Trajectory(e)) => e,
                other => panic!("expected a refusal, got {other:?}"),
            };
        let nan = |t| SamplePoint::new(t, f64::NAN, 0.0);
        // Each error names the sample's position in its object's stream:
        // second report (held first), a fresh object's first, and — once
        // the object has a stored trajectory — its fourth.
        assert!(matches!(
            refused(&mut db, TrajectoryId(0), SamplePoint::new(5.0, 1.0, 0.0)),
            TrajectoryError::NonMonotonicTime { index: 1, .. }
        ));
        assert_eq!(
            refused(&mut db, TrajectoryId(0), nan(6.0)),
            TrajectoryError::NonFinite { index: 1 }
        );
        assert_eq!(
            refused(&mut db, TrajectoryId(7), nan(0.0)),
            TrajectoryError::NonFinite { index: 0 }
        );
        for t in [6.0, 7.0] {
            db.append(TrajectoryId(0), SamplePoint::new(t, t, 0.0))
                .unwrap();
        }
        assert_eq!(
            refused(&mut db, TrajectoryId(0), nan(8.0)),
            TrajectoryError::NonFinite { index: 3 }
        );
        assert!(matches!(
            refused(&mut db, TrajectoryId(0), SamplePoint::new(7.0, 1.0, 0.0)),
            TrajectoryError::NonMonotonicTime { index: 3, .. }
        ));
        // Refusals changed nothing, and a different object is unaffected.
        assert_eq!(db.trajectory(TrajectoryId(0)).unwrap().num_points(), 3);
        assert_eq!(db.index().num_entries(), 2);
        assert_eq!(db.num_objects(), 1);
        db.append(TrajectoryId(1), SamplePoint::new(0.0, 0.0, 0.0))
            .unwrap();
    }

    #[test]
    fn single_sample_objects_are_not_query_visible() {
        let mut db = MovingObjectDatabase::with_rtree();
        db.append(TrajectoryId(0), SamplePoint::new(0.0, 0.0, 0.0))
            .unwrap();
        assert!(db.trajectory(TrajectoryId(0)).is_none());
        assert_eq!(db.index().num_entries(), 0);
        feed(&mut db, 1, 1.0, 30);
        let period = TimeInterval::new(0.0, 29.0).unwrap();
        let q = db.trajectory(TrajectoryId(1)).unwrap();
        let top = Query::kmst(&q).k(5).during(&period).run(&db).unwrap();
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
        assert_eq!(db.index().num_entries(), 10);
    }

    /// Objects of `n` samples; odd ids start one tick late, so start times
    /// tie within each parity.
    fn staggered_fleet(objects: u64, n: usize) -> Vec<(TrajectoryId, Trajectory)> {
        (0..objects)
            .map(|id| {
                let pts = (0..n)
                    .map(|i| {
                        let t = (i as u64 + id % 2) as f64;
                        SamplePoint::new(t, t * 0.5, id as f64)
                    })
                    .collect();
                (TrajectoryId(id), Trajectory::new(pts).unwrap())
            })
            .collect()
    }

    #[test]
    fn arrival_order_is_start_then_object_then_sequence() {
        let fleet = staggered_fleet(5, 8);
        let entries = arrival_order(fleet.iter().rev().map(|(id, t)| (*id, t)));
        assert_eq!(entries.len(), 5 * 7);
        assert!(entries.windows(2).all(|w| w[0].arrival_cmp(&w[1]).is_lt()));
        let head: Vec<_> = entries.iter().take(6).map(|e| (e.traj.0, e.seq)).collect();
        assert_eq!(head, [(0, 0), (2, 0), (4, 0), (0, 1), (1, 0), (2, 1)]);
    }

    #[test]
    fn build_ignores_input_order_and_new_is_for_an_empty_index() {
        let fleet = staggered_fleet(6, 30);
        let image = |fleet: Vec<(TrajectoryId, Trajectory)>| {
            let (mut index, store) = MovingObjectDatabase::build(Rtree3D::new(), fleet)
                .unwrap()
                .into_parts();
            let mut bytes = Vec::new();
            index.save(&mut bytes).unwrap();
            (bytes, index, store)
        };
        let (forward, index, store) = image(fleet.clone());
        let (backward, ..) = image(fleet.into_iter().rev().collect());
        assert_eq!(forward, backward);

        // The pre-loaded trap: `new` over an index that holds entries has
        // none of their trajectories; `from_parts` brings the store along.
        let q = store.get(TrajectoryId(1)).unwrap().clone();
        let trapped = MovingObjectDatabase::new(index);
        assert_eq!(trapped.num_objects(), 0);
        assert!(matches!(
            Query::kmst(&q).k(2).run(&trapped),
            Err(SearchError::MissingTrajectory(_))
        ));
        let db = MovingObjectDatabase::from_parts(trapped.into_parts().0, store);
        assert_eq!(db.num_objects(), 6);
        assert_eq!(
            Query::kmst(&q).k(2).run(&db).unwrap(),
            crate::scan_kmst(db.store(), &q, &q.time(), 2, crate::Integration::Exact).unwrap()
        );
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
