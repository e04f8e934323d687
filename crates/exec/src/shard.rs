//! Horizontal partitioning of a trajectory database into independently
//! indexed shards.
//!
//! # Shard routing
//!
//! Trajectories are assigned by identity hash: object `id` lives on shard
//! `id % P`. Routing is pure and stateless — any thread can compute it —
//! and because the DISSIM candidate set of a query is a set of *whole
//! trajectories*, partitioning by object keeps every candidate's segments
//! on one shard, and every id on exactly one. A k-MST/kNN query is one
//! best-first search over all P shards' trees under one threshold
//! ([`mst_search::KmstSubstrate::kmst_forest`]): its candidates are keyed
//! by id, each remembering its shard.
//!
//! Each shard owns a complete vertical slice: one engine
//! ([`MovingObjectDatabase`] — its own index with its own private LRU
//! buffer pool, and the store of the objects routed to it). Sharding adds
//! the routing and the lock, nothing else: a shard is built by the engine's
//! `build`, searched through [`mst_search::run`], written through its
//! `insert_trajectory` / `delete`. Shards share nothing mutable, so P
//! shards scale page caching and index traversal independently.
//!
//! Per-shard `Vmax`: each shard's index reports the maximum speed of *its*
//! objects, which is at most the global `Vmax`. A candidate's OPTDISSIM
//! uses its own shard's value — a tighter, still sound bound (the paper's
//! Lemma 2 argument needs only "no object in this index moves faster than
//! `Vmax`", a per-shard fact).
//!
//! # Locking: one gate per shard, all of them for a query
//!
//! A shard is one reader–writer gate over its engine. Every search takes
//! the engines by `&self`, so a query holds the *read* half of every
//! shard's gate for its whole run ([`ShardedDatabase::read_all`]) and any
//! number of queries share the shards; the only thing they contend on is
//! each index's internal pager mutex, taken per node fetch (`mst_index`'s
//! `traits.rs`), and — metric tree only — its ball-directory lock, held
//! while that one tree is searched. A writer ([`ShardedDatabase::apply_op`],
//! maintenance through [`ShardIndex::with`], a snapshot through
//! [`Shard::write`]) takes the *write* half of **one** shard and mutates
//! index and store together, lock-free below the gate. Visibility is
//! therefore whole-shard atomic: a query saw each shard either entirely
//! before an operation or entirely after it, never half of one. A writer
//! waits for the queries in flight, and they for it.
//!
//! Lock order, everywhere: shard gates → directory lock → pager mutex. A
//! thread holds more than one gate only through [`ShardedDatabase::read_all`],
//! which takes every read half in shard order; a writer holds one gate and
//! waits for no other, so no cycle can form. Nothing is acquired under the
//! pager mutex. Debug builds check the order ([`mst_index::Rank`]): a gate
//! taken while the all-shards read is held trips it.

use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use mst_index::{IndexError, MetricTree, Rtree3D, TbTree, TrajectoryIndex, TrajectoryIndexWrite};
use mst_index::{Rank, Ranked};
use mst_search::{
    BatchQuery, BoundShare, KmstSpec, KmstSubstrate, MovingObjectDatabase, QueryAnswer,
    QueryMetrics, SearchError, SearchReport, Substrate,
};
use mst_trajectory::{Trajectory, TrajectoryId};

use crate::{ExecError, Result};

/// One shard: the engine ([`MovingObjectDatabase`]: a private index plus the
/// trajectory store of the objects routed here) behind the shard's one gate
/// — see the module docs.
pub struct Shard<I> {
    gate: RwLock<MovingObjectDatabase<I>>,
}

/// Names the gate in the [`IndexError::Poisoned`] a panicked writer leaves
/// behind: index and store may disagree, so the shard refuses searches and
/// further writes with that typed error.
const GATE: &str = "shard gate";

impl<I> Shard<I> {
    /// The read half of the gate: the engine as of one instant, shared with
    /// every other reader. Ingest on this shard waits while the guard is
    /// held.
    /// Several shards at once only through [`ShardedDatabase::read_all`].
    pub fn read(&self) -> mst_index::Result<Ranked<RwLockReadGuard<'_, MovingObjectDatabase<I>>>> {
        Ranked::lock(Rank::ShardGate, || self.gate.read()).map_err(IndexError::poisoned(GATE))
    }

    /// Runs `f` under the write half of the gate: how ingest applies an
    /// operation, and how a snapshot reads a consistent pair (saving an
    /// image flushes the index's buffer). A panic inside `f` poisons the
    /// gate.
    pub fn write<R>(
        &self,
        f: impl FnOnce(&mut MovingObjectDatabase<I>) -> R,
    ) -> mst_index::Result<R> {
        let mut db = Ranked::lock(Rank::ShardGate, || self.gate.write())
            .map_err(IndexError::poisoned(GATE))?;
        Ok(f(&mut db))
    }

    /// The engine for a plain store lookup (object counts, one trajectory
    /// cloned out). A poisoned gate is recovered here and only here: the
    /// store's mutations are single map inserts and removes, each the last
    /// step of its operation, so a torn shard's store is still a valid (if
    /// stale) map — while every search and write on that shard keeps
    /// failing through [`Shard::read`] / the write half.
    fn peek(&self) -> Ranked<RwLockReadGuard<'_, MovingObjectDatabase<I>>> {
        Ranked::lock(Rank::ShardGate, || self.gate.read()).unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access to the shard's index, for maintenance between
    /// batches (buffer sizing, stat resets, audits).
    pub fn index(&self) -> ShardIndex<'_, I> {
        ShardIndex(self)
    }
}

/// The maintenance handle [`Shard::index`] returns.
pub struct ShardIndex<'a, I>(&'a Shard<I>);

impl<I> ShardIndex<'_, I> {
    /// Runs `f` with the index mutable, under the write half of the
    /// shard's gate: searches on this shard wait until it returns.
    pub fn with<R>(&self, f: impl FnOnce(&mut I) -> R) -> mst_index::Result<R> {
        self.0.write(|db| f(db.index_mut()))
    }
}

impl<I: KmstSubstrate> Shard<I> {
    /// Runs one k-MST query against this shard alone: the read half of the
    /// gate, then [`MovingObjectDatabase::run`]. Kept for the benchmark's
    /// per-shard probes; executors run a query over every shard at once.
    pub fn run_kmst<B: BoundShare, M: QueryMetrics>(
        &self,
        spec: &KmstSpec,
        share: &B,
        metrics: &mut M,
    ) -> mst_search::Result<SearchReport> {
        let query = BatchQuery::Kmst(spec.clone());
        match self.read()?.run(&query, share, metrics)? {
            QueryAnswer::Kmst(matches) => Ok(SearchReport { matches }),
            _ => Err(SearchError::MisconfiguredQuery(
                "answered in another flavour",
            )),
        }
    }
}

/// A trajectory database partitioned across P shards, each with its own
/// index and buffer pool, shareable across threads by reference.
///
/// ```
/// use mst_exec::ShardedDatabase;
/// use mst_trajectory::{SamplePoint, Trajectory, TrajectoryId};
///
/// let trajs: Vec<_> = (0..4u64)
///     .map(|id| {
///         let pts = (0..10).map(|i| SamplePoint::new(f64::from(i), id as f64, 0.0));
///         (TrajectoryId(id), Trajectory::new(pts.collect()).unwrap())
///     })
///     .collect();
/// let db = ShardedDatabase::with_rtree(2, trajs)?;
/// assert_eq!(db.num_shards(), 2);
/// assert_eq!(db.num_objects(), 4);
/// assert_eq!(db.shard_of(TrajectoryId(3)), 1);
/// # Ok::<(), mst_exec::ExecError>(())
/// ```
pub struct ShardedDatabase<I> {
    shards: Vec<Shard<I>>,
}

impl ShardedDatabase<Rtree3D> {
    /// Partitions `trajectories` across `num_shards` 3D R-trees.
    pub fn with_rtree(
        num_shards: usize,
        trajectories: impl IntoIterator<Item = (TrajectoryId, Trajectory)>,
    ) -> Result<Self> {
        ShardedDatabase::build(num_shards, Rtree3D::new, trajectories)
    }
}

impl ShardedDatabase<TbTree> {
    /// Partitions `trajectories` across `num_shards` TB-trees.
    pub fn with_tbtree(
        num_shards: usize,
        trajectories: impl IntoIterator<Item = (TrajectoryId, Trajectory)>,
    ) -> Result<Self> {
        ShardedDatabase::build(num_shards, TbTree::new, trajectories)
    }
}

impl ShardedDatabase<MetricTree> {
    /// Partitions `trajectories` across `num_shards` metric trees. k-MST
    /// queries then run the ball search with triangle-inequality pruning
    /// on each shard; kNN, range, and point-kNN queries use the metric
    /// tree's MBB page directory like any other substrate.
    pub fn with_metric(
        num_shards: usize,
        trajectories: impl IntoIterator<Item = (TrajectoryId, Trajectory)>,
    ) -> Result<Self> {
        ShardedDatabase::build(num_shards, MetricTree::new, trajectories)
    }
}

impl<I: TrajectoryIndexWrite> ShardedDatabase<I> {
    /// Partitions `trajectories` across `num_shards` indexes created by
    /// `make_index`, each shard built by [`MovingObjectDatabase::build`] —
    /// in the arrival order of a live position feed, the regime the
    /// TB-tree's page-chaining is designed for, and deterministic for any
    /// input order.
    pub fn build(
        num_shards: usize,
        make_index: impl Fn() -> I,
        trajectories: impl IntoIterator<Item = (TrajectoryId, Trajectory)>,
    ) -> Result<Self> {
        if num_shards == 0 {
            return Err(ExecError::Config(
                "a sharded database needs at least one shard",
            ));
        }
        let mut routed: Vec<Vec<(TrajectoryId, Trajectory)>> = vec![Vec::new(); num_shards];
        for (id, trajectory) in trajectories {
            routed[shard_index(id, num_shards)].push((id, trajectory));
        }
        let engines = routed
            .into_iter()
            .map(|fleet| MovingObjectDatabase::build(make_index(), fleet))
            .collect::<mst_search::Result<_>>()?;
        ShardedDatabase::from_shard_parts(engines)
    }

    /// Applies one online ingest operation to its home shard, under the
    /// write half of that shard's gate (other shards keep answering
    /// untouched): searches on the shard see all of it or none of it.
    ///
    /// Failure mid-apply can leave the shard's index holding part of the
    /// operation while the store does not (the gate is poisoned only on
    /// panic, not on error). Durable deployments recover such states by
    /// log replay; in-memory callers should treat the shard as degraded.
    pub fn apply_op(&self, op: &IngestOp) -> Result<IngestOutcome> {
        let shard = &self.shards[shard_index(op.id(), self.shards.len())];
        let applied = shard
            .write(|db| match op {
                IngestOp::Insert { id, trajectory } => {
                    db.insert_trajectory(*id, trajectory).map(|()| true)
                }
                IngestOp::Delete { id } => db.delete(*id),
            })
            .map_err(mst_search::SearchError::Index)??;
        Ok(IngestOutcome { applied })
    }
}

/// One online mutation, routed to the owning shard by
/// [`ShardedDatabase::apply_op`]. This is also the logical unit the
/// write-ahead log records.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestOp {
    /// Insert a new trajectory under `id`.
    Insert {
        /// The object's identity (must not already exist).
        id: TrajectoryId,
        /// The full trajectory; each segment becomes one index entry.
        trajectory: Trajectory,
    },
    /// Delete the trajectory stored under `id` (all its segments).
    Delete {
        /// The object to remove.
        id: TrajectoryId,
    },
}

impl IngestOp {
    /// The object the operation addresses (= its shard routing key).
    pub fn id(&self) -> TrajectoryId {
        match self {
            IngestOp::Insert { id, .. } | IngestOp::Delete { id } => *id,
        }
    }
}

/// What an applied ingest operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// False only for a delete of an unknown id (a no-op).
    pub applied: bool,
}

impl<I: TrajectoryIndex> ShardedDatabase<I> {
    /// Reassembles a database from its per-shard engines, in routing order
    /// — how [`ShardedDatabase::build`] finishes, and the durable store's
    /// recovery path, where each shard's engine is
    /// [`MovingObjectDatabase::from_parts`] of an index loaded from a
    /// persisted image and the store decoded beside it. The caller is
    /// responsible for the stores actually being routed by `id % P`.
    pub fn from_shard_parts(engines: Vec<MovingObjectDatabase<I>>) -> Result<Self> {
        if engines.is_empty() {
            return Err(ExecError::Config(
                "a sharded database needs at least one shard",
            ));
        }
        let shards = engines
            .into_iter()
            .map(|db| Shard {
                gate: RwLock::new(db),
            })
            .collect();
        Ok(ShardedDatabase { shards })
    }

    /// The read half of every shard's gate, taken in shard order as one
    /// ranked hold — the only way a thread holds more than one gate. A
    /// query holds it for its whole search. A poisoned gate is that
    /// shard's error; the others still read.
    pub fn read_all(
        &self,
    ) -> Ranked<Vec<mst_index::Result<RwLockReadGuard<'_, MovingObjectDatabase<I>>>>> {
        Ranked::hold(Rank::ShardGate, || {
            let gates = self.shards.iter().map(|shard| shard.gate.read());
            gates
                .map(|gate| gate.map_err(IndexError::poisoned(GATE)))
                .collect()
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of stored trajectories across shards. With live
    /// ingest running this is a momentary figure (each shard is read at
    /// its own instant).
    pub fn num_objects(&self) -> usize {
        self.shards.iter().map(|s| s.peek().num_objects()).sum()
    }

    /// The shard an object is routed to.
    pub fn shard_of(&self, id: TrajectoryId) -> usize {
        shard_index(id, self.shards.len())
    }

    /// The substrate every shard of this database runs on — what query
    /// options that pin a [`Substrate`] are validated against.
    pub fn substrate(&self) -> Substrate
    where
        I: KmstSubstrate,
    {
        I::KIND
    }

    /// The shards, in routing order.
    pub fn shards(&self) -> &[Shard<I>] {
        &self.shards
    }

    /// A stored trajectory, cloned out of its home shard (the gate's read
    /// half is held only for the copy, never across caller code).
    pub fn trajectory(&self, id: TrajectoryId) -> Option<Trajectory> {
        self.shards.get(self.shard_of(id))?.peek().trajectory(id)
    }

    /// Sets every shard's buffer-pool capacity (`None` restores the
    /// paper's sizing rule). Maintenance only — call between batches.
    pub fn set_buffer_capacity(&self, capacity: Option<usize>) -> Result<()> {
        for shard in &self.shards {
            shard
                .index()
                .with(|index| index.set_buffer_capacity(capacity))
                .map_err(mst_search::SearchError::Index)?
                .map_err(mst_search::SearchError::Index)?;
        }
        Ok(())
    }

    /// Arms (or with `None`, disarms) deterministic fault injection on one
    /// shard's page store. Maintenance only — call between batches; the
    /// fault schedule then replays deterministically over that shard's
    /// physical page I/O. Out-of-range `shard` is a config error.
    pub fn set_fault_injection(
        &self,
        shard: usize,
        config: Option<mst_index::FaultConfig>,
    ) -> Result<()> {
        let shard = self
            .shards
            .get(shard)
            .ok_or(ExecError::Config("fault injection shard out of range"))?;
        shard
            .index()
            .with(|index| index.set_fault_injection(config))
            .map_err(mst_search::SearchError::Index)?
            .map_err(mst_search::SearchError::Index)?;
        Ok(())
    }

    /// The fault-injection counters of one shard's page store, if that
    /// shard has an injector armed (and its gate is healthy).
    pub fn fault_stats(&self, shard: usize) -> Option<mst_index::FaultStats> {
        let db = self.shards.get(shard)?.read().ok()?;
        db.index().fault_stats()
    }
}

/// Pure routing function: object `id` lives on shard `id % P`.
fn shard_index(id: TrajectoryId, num_shards: usize) -> usize {
    (id.0 % num_shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::SamplePoint;

    fn traj(id: u64, y: f64, n: usize) -> (TrajectoryId, Trajectory) {
        let pts = (0..n)
            .map(|i| SamplePoint::new(i as f64, i as f64 * 0.5, y))
            .collect();
        (TrajectoryId(id), Trajectory::new(pts).expect("valid"))
    }

    #[test]
    fn routing_partitions_every_object_exactly_once() {
        let db =
            ShardedDatabase::with_rtree(3, (0..10u64).map(|id| traj(id, id as f64, 8))).unwrap();
        assert_eq!(db.num_shards(), 3);
        assert_eq!(db.num_objects(), 10);
        for id in 0..10u64 {
            let id = TrajectoryId(id);
            let home = db.shard_of(id);
            for (s, shard) in db.shards().iter().enumerate() {
                assert_eq!(shard.read().unwrap().store().get(id).is_some(), s == home);
            }
            assert!(db.trajectory(id).is_some());
        }
    }

    #[test]
    fn shard_indexes_hold_only_their_objects_segments() {
        let db =
            ShardedDatabase::with_rtree(2, (0..6u64).map(|id| traj(id, id as f64, 5))).unwrap();
        // 6 objects x 4 segments, split 3/3 by parity.
        for shard in db.shards() {
            assert_eq!(shard.read().unwrap().index().num_entries(), 3 * 4);
        }
    }

    #[test]
    fn zero_shards_is_a_config_error() {
        let r = ShardedDatabase::with_rtree(0, std::iter::empty());
        assert!(matches!(r, Err(ExecError::Config(_))));
    }

    #[test]
    fn tbtree_shards_build_leaf_chains() {
        let db =
            ShardedDatabase::with_tbtree(2, (0..4u64).map(|id| traj(id, id as f64, 6))).unwrap();
        for shard in db.shards() {
            assert_eq!(shard.read().unwrap().index().leaf_chain_tips().len(), 2);
        }
    }

    #[test]
    fn ingest_insert_lands_on_the_home_shard() {
        let db =
            ShardedDatabase::with_rtree(2, (0..4u64).map(|id| traj(id, id as f64, 5))).unwrap();
        let (id, t) = traj(10, 99.0, 6);
        let outcome = db
            .apply_op(&IngestOp::Insert { id, trajectory: t })
            .unwrap();
        assert!(outcome.applied);
        assert_eq!(db.num_objects(), 5);
        let home = db.shard_of(id);
        for (s, shard) in db.shards().iter().enumerate() {
            let grew = if s == home { 5 } else { 0 };
            assert_eq!(
                shard.read().unwrap().index().num_entries(),
                2 * 4 + grew,
                "only the home shard changes"
            );
        }
        assert!(db.trajectory(id).is_some());
        // Double insert is refused, not silently replaced.
        let (_, again) = traj(10, 1.0, 3);
        let err = db
            .apply_op(&IngestOp::Insert {
                id,
                trajectory: again,
            })
            .expect_err("duplicate id");
        assert!(matches!(
            err,
            ExecError::Search(mst_search::SearchError::DuplicateTrajectory(TrajectoryId(
                10
            )))
        ));
    }

    #[test]
    fn ingest_delete_removes_store_and_index_entries() {
        let db =
            ShardedDatabase::with_rtree(2, (0..4u64).map(|id| traj(id, id as f64, 5))).unwrap();
        let id = TrajectoryId(2);
        let home = db.shard_of(id);
        let outcome = db.apply_op(&IngestOp::Delete { id }).unwrap();
        assert!(outcome.applied);
        assert!(db.trajectory(id).is_none());
        assert_eq!(db.num_objects(), 3);
        assert_eq!(db.shards()[home].read().unwrap().index().num_entries(), 4);
        // Deleting an unknown id is a no-op, not an error.
        let outcome = db.apply_op(&IngestOp::Delete { id }).unwrap();
        assert!(!outcome.applied);
    }

    #[test]
    fn ingest_delete_on_a_tbtree_is_a_typed_refusal() {
        let db =
            ShardedDatabase::with_tbtree(1, (0..2u64).map(|id| traj(id, id as f64, 4))).unwrap();
        let err = db
            .apply_op(&IngestOp::Delete {
                id: TrajectoryId(0),
            })
            .expect_err("tbtree has no point deletes");
        assert!(matches!(err, ExecError::Search(_)));
        // The refusal left the store untouched.
        assert_eq!(db.num_objects(), 2);
    }

    #[test]
    fn with_gives_exclusive_maintenance_access() {
        let db =
            ShardedDatabase::with_rtree(1, (0..3u64).map(|id| traj(id, id as f64, 5))).unwrap();
        let shard = &db.shards()[0];
        let pages = shard.index().with(|tree| tree.num_pages()).expect("gate");
        assert!(pages > 0);
        shard
            .index()
            .with(|tree| tree.clear_buffer())
            .expect("gate")
            .expect("clear");
    }

    #[test]
    fn lock_rank_allows_the_legal_orders_and_trips_on_an_inversion() {
        // Gate → ball directory → pager: a metric-tree search under the
        // read half of the gate.
        let metric =
            ShardedDatabase::with_metric(1, (0..4u64).map(|id| traj(id, id as f64, 6))).unwrap();
        let (_, q) = traj(9, 1.5, 6);
        let engine = metric.shards()[0].read().unwrap();
        assert_eq!(
            mst_search::Query::kmst(&q).k(2).run(&engine).unwrap().len(),
            2
        );
        drop(engine);
        // Gate → pager: an R-tree insert under the write half.
        let rtree =
            ShardedDatabase::with_rtree(1, (0..3u64).map(|id| traj(id, id as f64, 5))).unwrap();
        let (id, t) = traj(7, 3.0, 5);
        rtree.shards()[0]
            .write(|db| db.insert_trajectory(id, &t))
            .unwrap()
            .unwrap();
        assert_eq!(rtree.num_objects(), 4);
        // The inversion half: `gate_inside_gate_trips_the_lock_rank` here
        // and `pager_then_directory_trips_the_lock_rank` in `mst_index`.
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank")]
    fn gate_inside_gate_trips_the_lock_rank() {
        let db =
            ShardedDatabase::with_rtree(2, (0..4u64).map(|id| traj(id, id as f64, 5))).unwrap();
        let _first = db.shards()[0].read().unwrap();
        let _second = db.shards()[1].read();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank")]
    fn a_gate_retaken_under_the_all_shards_read_trips_the_lock_rank() {
        let db =
            ShardedDatabase::with_rtree(2, (0..4u64).map(|id| traj(id, id as f64, 5))).unwrap();
        let all = db.read_all();
        assert!(all.iter().all(|gate| gate.is_ok()));
        let _again = db.shards()[1].read();
    }

    #[test]
    fn the_all_shards_read_sees_every_shard_and_releases_them() {
        let db =
            ShardedDatabase::with_rtree(3, (0..9u64).map(|id| traj(id, id as f64, 5))).unwrap();
        let objects: usize = db
            .read_all()
            .iter()
            .map(|gate| gate.as_ref().unwrap().num_objects())
            .sum();
        assert_eq!(objects, 9);
        // Released: a writer and a second all-shards read get through.
        let (id, t) = traj(20, 1.0, 5);
        db.apply_op(&IngestOp::Insert { id, trajectory: t })
            .unwrap();
        assert_eq!(db.read_all().len(), 3);
        assert!(db.shards()[2].read().is_ok());
    }

    #[test]
    fn single_shard_holds_everything() {
        let db =
            ShardedDatabase::with_rtree(1, (0..5u64).map(|id| traj(id, id as f64, 4))).unwrap();
        assert_eq!(db.num_shards(), 1);
        assert_eq!(db.shards()[0].read().unwrap().store().len(), 5);
        assert_eq!(db.shards()[0].read().unwrap().index().num_entries(), 5 * 3);
    }
}
