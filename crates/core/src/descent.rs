//! The MBB descent under the best-first search algorithms.
//!
//! BFMST and the historical NN search share one traversal: a priority
//! stream of nodes in non-decreasing MINDIST order, each leaf yielding its
//! segment entries. [`MbbDescent`] is that stream for every
//! [`TrajectoryIndex`] — the classic R-tree / TB-tree MINDIST descent, owning
//! the priority queue, the node reads and the child pushes so the search
//! loops hold none of them. It runs over a forest: a sharded query seeds
//! every shard's root into the one queue, so it is one search, not one per
//! shard. The metric substrate does not come through
//! here: its triangle-inequality bounds apply to complete trajectories, not
//! segment groups, so it overrides the whole search (see
//! [`crate::substrate`]).
//!
//! The protocol is two-phase because heuristic 2 must be able to terminate
//! a search *without* paying for the node read: [`MbbDescent::pop`]
//! surfaces the next item's lower bound (one heap pop); only if the search
//! decides to proceed does [`MbbDescent::expand`] fetch the item —
//! descending one internal node or yielding a leaf's segment entries. The
//! descent keeps no counts of its own: every heap operation and node
//! access goes to the search's [`QueryMetrics`] sink.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mst_index::mindist::QueryMindist;
use mst_index::{LeafEntry, Node, PageId, TrajectoryIndex};
use mst_trajectory::{TimeInterval, Trajectory};

use crate::metrics::QueryMetrics;
use crate::Result;

/// A best-first queue element: an item keyed by a lower bound, ordered by
/// bound (ties by item) so a `Reverse`d max-heap pops the smallest first.
/// The MBB descent queues pages, the metric ball search balls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QueueEntry<T> {
    pub(crate) bound: f64,
    pub(crate) item: T,
}

impl<T: Ord> Eq for QueueEntry<T> {}

impl<T: Ord> Ord for QueueEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then(self.item.cmp(&other.item))
    }
}

impl<T: Ord> PartialOrd for QueueEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The classic MBB descent: a best-first MINDIST traversal (the
/// distance-browsing strategy of Hjaltason & Samet), yielding each leaf's
/// entries together — over a forest of [`TrajectoryIndex`] trees, one per
/// shard, under one queue. Every root is seeded at bound zero and every
/// item is keyed by `(shard, page)`, which also breaks bound ties, so a
/// single tree (a forest of one) pops exactly the sequence it always did.
///
/// Protocol: call [`MbbDescent::pop`] to surface the next item's lower
/// bound, then either abandon the item (termination — its content is never
/// fetched) or call [`MbbDescent::expand`] exactly once to fetch it.
/// `expand` without a preceding un-expanded `pop` yields `Ok(None)`.
#[derive(Debug)]
pub struct MbbDescent<'a, I: TrajectoryIndex> {
    shards: Vec<&'a I>,
    /// `MINDIST(query, ·)` over the period, planned once for the whole
    /// descent: every child entry of every opened node of every tree is
    /// keyed by it.
    plan: QueryMindist<'a>,
    heap: BinaryHeap<Reverse<QueueEntry<(usize, PageId)>>>,
    head: Option<QueueEntry<(usize, PageId)>>,
    /// The shard of the item last popped.
    shard: usize,
}

impl<'a, I: TrajectoryIndex> MbbDescent<'a, I> {
    /// Starts a descent of the `shards`' trees for `query` (already
    /// clipped to `period`), seeding the queue with every root at bound
    /// zero.
    pub fn new<M: QueryMetrics>(
        shards: impl IntoIterator<Item = &'a I>,
        query: &'a Trajectory,
        period: &TimeInterval,
        metrics: &mut M,
    ) -> Self {
        let shards: Vec<&'a I> = shards.into_iter().collect();
        let mut heap = BinaryHeap::new();
        for (shard, index) in shards.iter().enumerate() {
            if let Some(root) = index.root() {
                heap.push(Reverse(QueueEntry {
                    bound: 0.0,
                    item: (shard, root),
                }));
                metrics.heap_push();
            }
        }
        MbbDescent {
            shards,
            plan: QueryMindist::new(query, period),
            heap,
            head: None,
            shard: 0,
        }
    }

    /// Pops the next item off the priority queue and returns its lower
    /// bound, or `None` when the stream is exhausted. Reports one heap pop.
    pub fn pop<M: QueryMetrics>(&mut self, metrics: &mut M) -> Option<f64> {
        let Reverse(head) = self.heap.pop()?;
        metrics.heap_pop();
        self.head = Some(head);
        self.shard = head.item.0;
        Some(head.bound)
    }

    /// The shard (position in the forest) of the item last popped: whose
    /// leaf [`MbbDescent::expand`] yields, or whose read failed.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Fetches the item surfaced by the last [`MbbDescent::pop`]: either
    /// descends one internal step (enqueueing finer-grained items; returns
    /// `Ok(None)`) or yields a leaf's segment entries, in the substrate's
    /// storage order. Every entry is at least the popped bound away from
    /// the query over the period — the property OPTDISSIMINC soundness
    /// rests on.
    pub fn expand<M: QueryMetrics>(&mut self, metrics: &mut M) -> Result<Option<Vec<LeafEntry>>> {
        let Some(head) = self.head.take() else {
            return Ok(None);
        };
        let (shard, page) = head.item;
        match self.shards[shard].read_node_traced(page, metrics)? {
            Node::Leaf { entries, .. } => Ok(Some(entries)),
            Node::Internal { entries, .. } => {
                for e in entries {
                    if let Some(mindist) = self.plan.mindist(&e.mbb) {
                        self.heap.push(Reverse(QueueEntry {
                            bound: mindist,
                            item: (shard, e.child),
                        }));
                        metrics.heap_push();
                    }
                }
                Ok(None)
            }
        }
    }

    /// Discards every queued item of `shard`: a shard whose node could not
    /// be read leaves the search, and the other trees go on.
    pub fn drop_shard(&mut self, shard: usize) {
        self.heap.retain(|Reverse(e)| e.item.0 != shard);
    }

    /// Number of items still enqueued (excluding a popped, un-expanded
    /// head) — the unit count a terminating search discards unvisited.
    pub fn pending(&self) -> u64 {
        self.heap.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QueryProfile;
    use crate::TrajectoryStore;
    use mst_index::mindist::trajectory_mbb_mindist;
    use mst_index::{Rtree3D, StrTree, TbTree};

    fn store() -> TrajectoryStore {
        let trajs: Vec<Trajectory> = (0..6)
            .map(|i| {
                let y = f64::from(i) * 4.0;
                Trajectory::from_txy(
                    &(0..=10)
                        .map(|s| (f64::from(s), f64::from(s), y))
                        .collect::<Vec<_>>(),
                )
                .unwrap()
            })
            .collect();
        TrajectoryStore::from_trajectories(trajs)
    }

    #[test]
    fn mbb_descent_yields_groups_in_nondecreasing_bound_order() {
        let store = store();
        let mut idx = Rtree3D::new();
        for (id, t) in store.iter() {
            idx.insert_trajectory(id, t).unwrap();
        }
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        let mut metrics = QueryProfile::new();
        let mut src = MbbDescent::new([&idx], &q, &period, &mut metrics);
        let mut last = f64::NEG_INFINITY;
        let mut leaves = 0;
        let mut entries = 0;
        while let Some(bound) = src.pop(&mut metrics) {
            assert!(bound >= last, "bounds regressed: {bound} after {last}");
            last = bound;
            if let Some(leaf) = src.expand(&mut metrics).unwrap() {
                leaves += 1;
                entries += leaf.len();
            }
        }
        assert!(leaves > 0);
        assert_eq!(entries, 60); // 6 trajectories x 10 segments
        assert_eq!(metrics.leaf_accesses(), leaves);
        assert_eq!(metrics.nodes_accessed(), metrics.heap_pops);
        assert_eq!(metrics.heap_pushes, metrics.heap_pops);
        assert_eq!(src.pending(), 0);
    }

    #[test]
    fn expand_without_pop_is_a_noop() {
        let store = store();
        let mut idx = Rtree3D::new();
        for (id, t) in store.iter() {
            idx.insert_trajectory(id, t).unwrap();
        }
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        let mut metrics = QueryProfile::new();
        let mut src = MbbDescent::new([&idx], &q, &period, &mut metrics);
        assert!(src.expand(&mut metrics).unwrap().is_none());
        assert_eq!(metrics.nodes_accessed(), 0);
    }

    #[test]
    fn empty_index_yields_nothing() {
        let idx = Rtree3D::new();
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        let mut metrics = QueryProfile::new();
        let mut src = MbbDescent::new([&idx], &q, &period, &mut metrics);
        assert!(src.pop(&mut metrics).is_none());
        assert_eq!(metrics.heap_pushes, 0);
    }

    /// Two trees of the `store` lanes split by parity.
    fn two_trees() -> [Rtree3D; 2] {
        let mut trees = [Rtree3D::new(), Rtree3D::new()];
        for (id, t) in store().iter() {
            trees[(id.0 % 2) as usize].insert_trajectory(id, t).unwrap();
        }
        trees
    }

    #[test]
    fn a_forest_pops_both_trees_in_one_bound_order() {
        let trees = two_trees();
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        let mut metrics = QueryProfile::new();
        let mut src = MbbDescent::new(&trees, &q, &period, &mut metrics);
        let (mut last, mut entries) = (f64::NEG_INFINITY, [0usize; 2]);
        while let Some(bound) = src.pop(&mut metrics) {
            assert!(bound >= last, "bounds regressed: {bound} after {last}");
            last = bound;
            let shard = src.shard();
            if let Some(leaf) = src.expand(&mut metrics).unwrap() {
                assert!(leaf.iter().all(|e| e.traj.0 % 2 == shard as u64));
                entries[shard] += leaf.len();
            }
        }
        // 3 trajectories x 10 segments in each tree, all yielded.
        assert_eq!(entries, [30, 30]);
        assert_eq!(metrics.heap_pushes, metrics.heap_pops);
    }

    #[test]
    fn a_dropped_shard_leaves_the_queue_and_the_other_tree_goes_on() {
        let trees = two_trees();
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        let mut metrics = QueryProfile::new();
        let mut src = MbbDescent::new(&trees, &q, &period, &mut metrics);
        // Both roots are queued at bound 0; ties pop in shard order.
        assert_eq!(src.pending(), 2);
        assert_eq!(src.pop(&mut metrics), Some(0.0));
        assert_eq!(src.shard(), 0);
        // As after a failed read of that root: nothing of shard 0 is left.
        src.drop_shard(0);
        assert_eq!(src.pending(), 1);
        let mut entries = 0;
        while src.pop(&mut metrics).is_some() {
            assert_eq!(src.shard(), 1);
            entries += src
                .expand(&mut metrics)
                .unwrap()
                .map_or(0, |leaf| leaf.len());
        }
        assert_eq!(entries, 30);
    }

    /// The pop sequence of a full descent: `(bound bits, page)` per item.
    fn pops_of_the_descent<I: TrajectoryIndex>(
        idx: &I,
        q: &Trajectory,
        period: &TimeInterval,
    ) -> Vec<(u64, PageId)> {
        let mut metrics = QueryProfile::new();
        let mut src = MbbDescent::new([idx], q, period, &mut metrics);
        let mut pops = Vec::new();
        while let Some(bound) = src.pop(&mut metrics) {
            pops.push((bound.to_bits(), src.head.unwrap().item.1));
            src.expand(&mut metrics).unwrap();
        }
        pops
    }

    /// The same walk keyed by the public stateless MINDIST, which
    /// `mst-index` ties bit for bit to the unpruned reference loop.
    fn pops_keyed_by_the_stateless_mindist<I: TrajectoryIndex>(
        idx: &I,
        q: &Trajectory,
        period: &TimeInterval,
    ) -> Vec<(u64, PageId)> {
        let mut heap = BinaryHeap::new();
        heap.extend(
            idx.root()
                .map(|item| Reverse(QueueEntry { bound: 0.0, item })),
        );
        let mut pops = Vec::new();
        while let Some(Reverse(head)) = heap.pop() {
            pops.push((head.bound.to_bits(), head.item));
            if let Node::Internal { entries, .. } = idx.read_node(head.item).unwrap() {
                heap.extend(entries.iter().filter_map(|e| {
                    Some(Reverse(QueueEntry {
                        bound: trajectory_mbb_mindist(q, &e.mbb, period)?,
                        item: e.child,
                    }))
                }));
            }
        }
        pops
    }

    #[test]
    fn planned_descent_pops_exactly_what_the_stateless_mindist_would() {
        // 30 wandering objects x 300 segments: three-level trees.
        let data: Vec<Trajectory> = (0..30u32)
            .map(|id| {
                let phase = f64::from(id) * 0.7;
                Trajectory::from_txy(
                    &(0..=300)
                        .map(|s| {
                            let t = f64::from(s);
                            (
                                t + f64::from(id % 3) * 0.25,
                                500.0 + 400.0 * (t * 0.011 + phase).sin() + 9.0 * (t * 0.9).cos(),
                                500.0 + 400.0 * (t * 0.007 * f64::from(id + 1)).cos(),
                            )
                        })
                        .collect::<Vec<_>>(),
                )
                .unwrap()
            })
            .collect();
        let (mut rtree, mut strtree, mut tbtree) = (Rtree3D::new(), StrTree::new(), TbTree::new());
        for seq in 0..300 {
            for (id, t) in data.iter().enumerate() {
                let entry = LeafEntry {
                    traj: mst_trajectory::TrajectoryId(id as u64),
                    seq,
                    segment: t.segment(seq as usize),
                };
                rtree.insert(entry).unwrap();
                strtree.insert(entry).unwrap();
                tbtree.insert(entry).unwrap();
            }
        }
        for (object, share) in [(4usize, 0.01), (11, 0.25), (23, 1.0)] {
            let whole = data[object].time();
            let len = whole.duration() * share;
            let start = whole.start() + (whole.duration() - len) * 0.4;
            let period = TimeInterval::new(start, start + len).unwrap();
            let q = data[object].clip(&period).unwrap();
            let planned = [
                pops_of_the_descent(&rtree, &q, &period),
                pops_of_the_descent(&strtree, &q, &period),
                pops_of_the_descent(&tbtree, &q, &period),
            ];
            let stateless = [
                pops_keyed_by_the_stateless_mindist(&rtree, &q, &period),
                pops_keyed_by_the_stateless_mindist(&strtree, &q, &period),
                pops_keyed_by_the_stateless_mindist(&tbtree, &q, &period),
            ];
            for (got, want) in planned.iter().zip(&stateless) {
                assert!(want.len() > 10, "a {share} query popped {}", want.len());
                assert_eq!(got, want, "object {object}, {share} of its lifetime");
            }
        }
    }
}
