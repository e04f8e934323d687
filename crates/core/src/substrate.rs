//! Substrate dispatch: which search algorithm answers a k-MST query on
//! which index structure.
//!
//! The MBB substrates (R-tree, TB-tree, STR-tree) all answer k-MST through
//! the generic BFMST loop over their MINDIST descent
//! ([`crate::descent::MbbDescent`]). The metric tree cannot: its pruning
//! information — pivot trajectories, covering radii, stored pivot
//! distances — lives at whole-trajectory granularity, which the
//! node-at-a-time [`TrajectoryIndex`] surface does not carry. So the
//! substrate itself picks its search: [`KmstSubstrate::kmst_forest`] — the
//! search over every shard's tree, which the single-tree
//! [`KmstSubstrate::kmst_search`] runs as a forest of one — defaults to
//! BFMST, and the metric tree overrides it with [`metric_kmst_search`], a
//! best-first traversal of the ball directory (after the N-tree of Güting
//! et al.) whose candidate pruning rests on the triangle inequality instead
//! of the speed envelopes — against the same one pruning threshold as
//! BFMST, across all shards. Either search stops at the first tree that
//! cannot be read and names it; [`crate::run`] runs the query again
//! without that tree.
//!
//! **Why the triangle bound is sound here.** Build-time distances are exact
//! DISSIM over the two trajectories' validity overlap; the query-time pivot
//! distance `d(Q,P)` is exact DISSIM over `W ∩ V_P` (query window ∩ pivot
//! validity). For any answer-eligible trajectory `T` (it covers `W`), on
//! the common window `I = W ∩ V_P` the pointwise triangle inequality
//! integrates to `DISSIM_I(Q,T) ≥ d(Q,P) − DISSIM_I(P,T)`; DISSIM only
//! grows with the window, so `DISSIM_W(Q,T) ≥ d(Q,P) − dist(P,T) ≥ d(Q,P) −
//! r` for every `T` inside a ball of radius `r`. Only this one-sided bound
//! is used — the reverse side would need the *build* distance restricted to
//! `I`, which the directory does not store.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use mst_index::{MetricTree, Rtree3D, StrTree, TbTree, TrajectoryIndex};
use mst_trajectory::{TimeInterval, Trajectory, TrajectoryId};

use crate::bfmst::{best_k, bfmst_search, MstConfig};
use crate::descent::QueueEntry;
use crate::dissim::{dissim_between, dissim_between_traced, Integration};
use crate::forest::Abort;
use crate::metrics::{PruningBound, QueryMetrics};
use crate::options::Substrate;
use crate::query::check_period;
use crate::share::BoundShare;
use crate::topk::Threshold;
use crate::{MstMatch, Result, SearchError, TrajectoryStore};

/// An index substrate that can answer k-MST queries.
///
/// The default implementation runs the generic BFMST loop, which any
/// [`TrajectoryIndex`] supports through its MBB descent; substrates with a
/// richer pruning structure (the metric tree) override
/// [`KmstSubstrate::kmst_forest`] wholesale. Either way the search takes
/// the trees by `&self` and concurrent queries share them across worker
/// threads — hence `Send + Sync`.
pub trait KmstSubstrate: TrajectoryIndex + Sized + Send + Sync {
    /// Which [`Substrate`] selector this index satisfies — what
    /// [`crate::QueryOptions::substrate`] is validated against, and what
    /// answer caches key on.
    const KIND: Substrate;

    /// Answers one k-MST query over every shard's tree (each with the store
    /// of its trajectories) as one search under one pruning threshold. The
    /// search stops at the first tree that cannot be read and names it
    /// ([`Abort::Shard`]). Contract: identical answers to the linear scan
    /// over the union with exact integration (for exact configurations),
    /// identical answer *sets* across substrates and shard counts.
    fn kmst_forest<M: QueryMetrics, B: BoundShare>(
        shards: &[(&Self, &TrajectoryStore)],
        query: &Trajectory,
        period: &TimeInterval,
        config: &MstConfig,
        share: &B,
        metrics: &mut M,
    ) -> std::result::Result<Vec<MstMatch>, Abort> {
        bfmst_search(shards, query, period, config, share, metrics)
    }

    /// Answers a k-MST query on this one tree: a forest of one, whose
    /// failed node read is the search's error. Kept for the benchmark's
    /// direct calls; queries run through [`crate::run`].
    fn kmst_search<M: QueryMetrics, B: BoundShare>(
        &self,
        store: &TrajectoryStore,
        query: &Trajectory,
        period: &TimeInterval,
        config: &MstConfig,
        share: &B,
        metrics: &mut M,
    ) -> Result<SearchReport> {
        let matches = Self::kmst_forest(&[(self, store)], query, period, config, share, metrics);
        Ok(SearchReport { matches: matches? })
    }
}

/// The answer of [`KmstSubstrate::kmst_search`].
#[derive(Debug)]
pub struct SearchReport {
    /// The k most similar trajectories, ascending DISSIM.
    pub matches: Vec<MstMatch>,
}

impl KmstSubstrate for Rtree3D {
    const KIND: Substrate = Substrate::Rtree;
}

impl KmstSubstrate for TbTree {
    const KIND: Substrate = Substrate::TbTree;
}

impl KmstSubstrate for StrTree {
    const KIND: Substrate = Substrate::StrTree;
}

impl KmstSubstrate for MetricTree {
    const KIND: Substrate = Substrate::Metric;

    fn kmst_forest<M: QueryMetrics, B: BoundShare>(
        shards: &[(&Self, &TrajectoryStore)],
        query: &Trajectory,
        period: &TimeInterval,
        config: &MstConfig,
        share: &B,
        metrics: &mut M,
    ) -> std::result::Result<Vec<MstMatch>, Abort> {
        metric_kmst_search(shards, query, period, config, share, metrics)
    }
}

/// The ball-directory build oracle: exact DISSIM over the two
/// trajectories' validity overlap (zero for a missing or instant overlap —
/// those pairs share no motion to compare).
fn build_distance(a: &Trajectory, b: &Trajectory) -> Result<f64> {
    match a.time().intersect(&b.time()) {
        Some(w) if !w.is_instant() => Ok(dissim_between(a, b, &w, Integration::Exact)?.approx),
        _ => Ok(0.0),
    }
}

/// Exact k-MST over [`MetricTree`] shards: a best-first traversal of each
/// tree's ball directory with triangle-inequality pruning, the trees taken
/// one after another in shard order against one pruning threshold (the
/// k-th found in one tree prunes the next from its root on).
///
/// Each tree's loop mirrors BFMST's shape — pop the smallest lower bound,
/// check heuristic 2 (stop this tree when even its best remaining bound
/// exceeds the k-th upper key), expand, filter members with heuristic 1 —
/// but every bound is `max(0, d(Q,P) − r)` instead of a speed envelope,
/// and refinement is a whole-trajectory exact DISSIM (chain pages read
/// through the buffer pool, so the I/O cost of not pruning is real).
/// Answers are exact regardless of `config.integration`. A tree's
/// ball-directory lock is held while that tree is searched, one tree at a
/// time: metric searches of one tree run one at a time (chain-page reads
/// take the pager mutex under it, per fetch). The search stops at the
/// first tree that cannot be read and names it ([`Abort::Shard`]), as
/// [`crate::bfmst_search`] does.
pub fn metric_kmst_search<M: QueryMetrics, B: BoundShare>(
    shards: &[(&MetricTree, &TrajectoryStore)],
    query: &Trajectory,
    period: &TimeInterval,
    config: &MstConfig,
    share: &B,
    metrics: &mut M,
) -> std::result::Result<Vec<MstMatch>, Abort> {
    if config.k == 0 {
        return Ok(Vec::new());
    }
    check_period(query, period)?;
    let q = query.clip(period)?;
    let ceiling = config.max_dissim.unwrap_or(f64::INFINITY);
    let mut search = BallSearch {
        q: &q,
        period,
        config,
        threshold: Threshold::new(config.k, ceiling),
        completed: HashMap::new(),
        done: HashSet::new(),
        pivot_dist: HashMap::new(),
    };
    for (shard, &(tree, _)) in shards.iter().enumerate() {
        search.tree(shard, tree, share, metrics)?;
    }

    metrics.candidates_pending(0);
    let all = search.completed.into_iter();
    let all = all
        .map(|(traj, dissim)| MstMatch { traj, dissim })
        .collect();
    Ok(best_k(all, config.k, ceiling))
}

/// The state of one ball search across its trees.
struct BallSearch<'a> {
    q: &'a Trajectory,
    period: &'a TimeInterval,
    config: &'a MstConfig,
    threshold: Threshold,
    /// Exact DISSIM of every refined candidate.
    completed: HashMap<TrajectoryId, f64>,
    /// Trajectories already decided (refined, pruned, or ineligible).
    done: HashSet<TrajectoryId>,
    /// Memoized query-to-pivot distances.
    pivot_dist: HashMap<TrajectoryId, f64>,
}

impl BallSearch<'_> {
    /// Searches `tree`, the forest's `shard`-th, under its directory lock.
    fn tree<M: QueryMetrics, B: BoundShare>(
        &mut self,
        shard: usize,
        tree: &MetricTree,
        share: &B,
        metrics: &mut M,
    ) -> std::result::Result<(), Abort> {
        let directory = tree.directory(build_distance);
        let directory = directory.map_err(|error| Abort::read(shard, error))?;
        // Balls keyed by their triangle-inequality lower bound on any
        // answer inside them.
        let mut heap: BinaryHeap<Reverse<QueueEntry<usize>>> = BinaryHeap::new();
        if let Some(root) = directory.root() {
            heap.push(Reverse(QueueEntry {
                bound: 0.0,
                item: root,
            }));
            metrics.heap_push();
        }

        while let Some(Reverse(head)) = heap.pop() {
            let (lb, ball) = (head.bound, head.item);
            metrics.heap_pop();
            if share.poll_stop() {
                break;
            }
            // Heuristic 2, metric flavour: balls pop in non-decreasing
            // lower bound, so once the bound clears the k-th upper key
            // nothing later in this tree can qualify — stop it.
            let tau = self.threshold.value();
            if self.config.use_heuristic2 && tau.is_finite() {
                metrics.bound_evals(PruningBound::TriangleIneq, 1);
                if lb > tau {
                    metrics.early_termination();
                    metrics.pruned_by(PruningBound::TriangleIneq, heap.len() as u64 + 1);
                    break;
                }
            }

            let Some(node) = directory.ball(ball) else {
                continue;
            };
            let d_p = self.pivot_distance(tree, node.pivot, metrics)?;

            match &node.kind {
                mst_index::BallKind::Inner { near, far } => {
                    for child_idx in [*near, *far] {
                        let Some(child) = directory.ball(child_idx) else {
                            continue;
                        };
                        let d_c = self.pivot_distance(tree, child.pivot, metrics)?;
                        // A child ball never admits a bound weaker than its
                        // parent's: keep the max.
                        let clb = (d_c - child.radius).max(lb).max(0.0);
                        heap.push(Reverse(QueueEntry {
                            bound: clb,
                            item: child_idx,
                        }));
                        metrics.heap_push();
                    }
                }
                mst_index::BallKind::Leaf { members } => {
                    for &(id, dp) in members {
                        if self.done.contains(&id) {
                            continue;
                        }
                        let Some(t_meta) = tree.cached_trajectory(id) else {
                            return Err(SearchError::MissingTrajectory(id).into());
                        };
                        // The linear scan only considers trajectories
                        // covering the period; mirror its candidate ledger.
                        if !t_meta.covers(self.period) {
                            self.done.insert(id);
                            continue;
                        }
                        metrics.candidate_seen();
                        // Heuristic 1, metric flavour: the member's own
                        // triangle bound against the current threshold.
                        if self.config.use_heuristic1 {
                            metrics.bound_evals(PruningBound::TriangleIneq, 1);
                            let lb_m = (d_p - dp).max(lb).max(0.0);
                            if lb_m > self.threshold.value() {
                                self.done.insert(id);
                                metrics.candidate_pruned();
                                metrics.pruned_by(PruningBound::TriangleIneq, 1);
                                continue;
                            }
                        }
                        // Refine: read the trajectory's chain pages (honest
                        // buffer/disk traffic) and compute the exact DISSIM.
                        // A failed read leaves the candidate pending.
                        let t = match tree.assemble_trajectory_traced(id, metrics) {
                            Ok(t) => t.ok_or(SearchError::MissingTrajectory(id))?,
                            Err(error) => {
                                metrics.candidates_pending(1);
                                return Err(Abort::read(shard, error));
                            }
                        };
                        let d = dissim_between_traced(
                            self.q,
                            &t,
                            self.period,
                            Integration::Exact,
                            metrics,
                        )?
                        .approx;
                        self.refine(id, d, metrics);
                    }
                }
            }
        }
        Ok(())
    }

    /// Completes candidate `id` with exact DISSIM `d`.
    fn refine<M: QueryMetrics>(&mut self, id: TrajectoryId, d: f64, metrics: &mut M) {
        self.done.insert(id);
        self.completed.insert(id, d);
        metrics.candidate_refined();
        self.threshold.record(id, d);
    }

    /// Memoized exact query-to-pivot distance over `W ∩ V_P`.
    ///
    /// When the pivot covers the window the value *is* its exact DISSIM
    /// and the pivot is refined for free; a non-covering pivot is
    /// navigation-only and, as in the linear scan, never a candidate.
    fn pivot_distance<M: QueryMetrics>(
        &mut self,
        tree: &MetricTree,
        pivot: TrajectoryId,
        metrics: &mut M,
    ) -> Result<f64> {
        if let Some(&d) = self.pivot_dist.get(&pivot) {
            return Ok(d);
        }
        let pt = tree
            .cached_trajectory(pivot)
            .cloned()
            .ok_or(SearchError::MissingTrajectory(pivot))?;
        let d = match self.period.intersect(&pt.time()) {
            Some(w) if !w.is_instant() => {
                dissim_between_traced(self.q, &pt, &w, Integration::Exact, metrics)?.approx
            }
            _ => 0.0,
        };
        self.pivot_dist.insert(pivot, d);
        if self.done.insert(pivot) && pt.covers(self.period) {
            // The distance window was the whole query window: `d` is the
            // pivot's exact DISSIM.
            metrics.candidate_seen();
            self.refine(pivot, d, metrics);
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{NoopSink, QueryProfile};
    use crate::scan::scan_kmst;
    use crate::share::NoShare;

    fn wavy(id: u64, n: usize) -> Trajectory {
        let pts: Vec<(f64, f64, f64)> = (0..n)
            .map(|i| {
                let t = i as f64;
                (
                    t,
                    t * 0.7 + (t * 0.31 + id as f64).sin() * 3.0,
                    id as f64 * 2.5 + (t * 0.17).cos() * (id % 5) as f64,
                )
            })
            .collect();
        Trajectory::from_txy(&pts).unwrap()
    }

    fn dataset(objects: u64, n: usize) -> (TrajectoryStore, MetricTree) {
        let trajs: Vec<Trajectory> = (0..objects).map(|id| wavy(id, n)).collect();
        let store = TrajectoryStore::from_trajectories(trajs);
        let mut tree = MetricTree::new();
        for (id, t) in store.iter() {
            tree.insert_trajectory(id, t).unwrap();
        }
        (store, tree)
    }

    #[test]
    fn metric_knn_matches_the_linear_scan_bit_for_bit() {
        let (store, tree) = dataset(24, 40);
        let period = TimeInterval::new(5.0, 35.0).unwrap();
        for qid in [0u64, 7, 19] {
            let query = store.get(TrajectoryId(qid)).unwrap().clone();
            for k in [1usize, 4, 10] {
                let truth = scan_kmst(&store, &query, &period, k, Integration::Exact).unwrap();
                let mut profile = QueryProfile::new();
                let report = tree
                    .kmst_search(
                        &store,
                        &query,
                        &period,
                        &MstConfig::k(k),
                        &NoShare,
                        &mut profile,
                    )
                    .unwrap();
                assert_eq!(report.matches.len(), truth.len());
                for (got, want) in report.matches.iter().zip(&truth) {
                    assert_eq!(got.traj, want.traj, "qid {qid} k {k}");
                    assert_eq!(
                        got.dissim.to_bits(),
                        want.dissim.to_bits(),
                        "qid {qid} k {k}: {} vs {}",
                        got.dissim,
                        want.dissim
                    );
                }
                assert_eq!(profile.exact_recomputations, 0);
            }
        }
    }

    #[test]
    fn metric_search_prunes_and_profiles_consistently() {
        let (store, tree) = dataset(30, 40);
        let period = TimeInterval::new(0.0, 39.0).unwrap();
        let query = store.get(TrajectoryId(3)).unwrap().clone();
        let mut profile = QueryProfile::new();
        let report = tree
            .kmst_search(
                &store,
                &query,
                &period,
                &MstConfig::k(2),
                &NoShare,
                &mut profile,
            )
            .unwrap();
        assert_eq!(report.matches[0].traj, TrajectoryId(3));
        assert!(profile.is_consistent(), "{profile:?}");
        assert!(profile.pruning.triangle_ineq_evals > 0);
        assert!(
            profile.candidates.pruned > 0 || profile.early_terminations > 0,
            "with k=2 of 30 the triangle bound must cut something: {profile:?}"
        );
        // Every rejected candidate was attributed to a bound (termination
        // additionally counts discarded heap units).
        assert!(
            profile.pruning.triangle_ineq_prunes + profile.pruning.shared_kth_prunes
                >= profile.candidates.pruned
        );
        // Honest refinement I/O: chain pages flowed through the buffer.
        assert!(profile.nodes_accessed() > 0);
        assert!(profile.exact_piece_evals > 0);
    }

    #[test]
    fn heuristics_off_still_exact_and_refines_everything() {
        let (store, tree) = dataset(16, 30);
        let period = TimeInterval::new(0.0, 29.0).unwrap();
        let query = store.get(TrajectoryId(5)).unwrap().clone();
        let mut config = MstConfig::k(3);
        config.use_heuristic1 = false;
        config.use_heuristic2 = false;
        let mut profile = QueryProfile::new();
        let report = tree
            .kmst_search(&store, &query, &period, &config, &NoShare, &mut profile)
            .unwrap();
        let truth = scan_kmst(&store, &query, &period, 3, Integration::Exact).unwrap();
        assert_eq!(profile.candidates.pruned, 0);
        assert_eq!(profile.early_terminations, 0);
        assert_eq!(profile.candidates.refined, 16);
        for (got, want) in report.matches.iter().zip(&truth) {
            assert_eq!(
                (got.traj, got.dissim.to_bits()),
                (want.traj, want.dissim.to_bits())
            );
        }
    }

    #[test]
    fn range_mode_and_edge_cases() {
        let (store, tree) = dataset(12, 25);
        let period = TimeInterval::new(0.0, 24.0).unwrap();
        let query = store.get(TrajectoryId(0)).unwrap().clone();
        // k = 0: empty.
        let r = tree
            .kmst_search(
                &store,
                &query,
                &period,
                &MstConfig::k(0),
                &NoShare,
                &mut NoopSink,
            )
            .unwrap();
        assert!(r.matches.is_empty());
        // Range mode: every answer within the ceiling, same set as scan.
        let theta = 40.0;
        let r = tree
            .kmst_search(
                &store,
                &query,
                &period,
                &MstConfig::within(12, theta),
                &NoShare,
                &mut NoopSink,
            )
            .unwrap();
        let truth: Vec<MstMatch> = scan_kmst(&store, &query, &period, 12, Integration::Exact)
            .unwrap()
            .into_iter()
            .filter(|m| m.dissim <= theta)
            .collect();
        assert_eq!(r.matches.len(), truth.len());
        for (got, want) in r.matches.iter().zip(&truth) {
            assert_eq!(
                (got.traj, got.dissim.to_bits()),
                (want.traj, want.dissim.to_bits())
            );
        }
        // A period outside the query's validity is the same typed error
        // BFMST raises.
        let outside = TimeInterval::new(0.0, 500.0).unwrap();
        assert!(matches!(
            tree.kmst_search(
                &store,
                &query,
                &outside,
                &MstConfig::k(1),
                &NoShare,
                &mut NoopSink
            ),
            Err(SearchError::QueryOutsidePeriod { .. })
        ));
    }

    #[test]
    fn non_covering_trajectories_are_ineligible_like_the_scan() {
        // Half the population only covers a prefix of the period.
        let mut trajs: Vec<Trajectory> = (0..6).map(|id| wavy(id, 40)).collect();
        for id in 6..12u64 {
            let pts: Vec<(f64, f64, f64)> =
                (0..15).map(|i| (i as f64, i as f64, id as f64)).collect();
            trajs.push(Trajectory::from_txy(&pts).unwrap());
        }
        let store = TrajectoryStore::from_trajectories(trajs);
        let mut tree = MetricTree::new();
        for (id, t) in store.iter() {
            tree.insert_trajectory(id, t).unwrap();
        }
        let period = TimeInterval::new(0.0, 39.0).unwrap();
        let query = store.get(TrajectoryId(1)).unwrap().clone();
        let report = tree
            .kmst_search(
                &store,
                &query,
                &period,
                &MstConfig::k(12),
                &NoShare,
                &mut NoopSink,
            )
            .unwrap();
        let truth = scan_kmst(&store, &query, &period, 12, Integration::Exact).unwrap();
        assert_eq!(report.matches.len(), truth.len());
        assert_eq!(truth.len(), 6, "only the covering trajectories qualify");
        for (got, want) in report.matches.iter().zip(&truth) {
            assert_eq!(
                (got.traj, got.dissim.to_bits()),
                (want.traj, want.dissim.to_bits())
            );
        }
    }

    #[test]
    fn mbb_substrates_default_to_bfmst() {
        let (store, _) = dataset(10, 25);
        let mut rtree = Rtree3D::new();
        for (id, t) in store.iter() {
            rtree.insert_trajectory(id, t).unwrap();
        }
        let period = TimeInterval::new(0.0, 24.0).unwrap();
        let query = store.get(TrajectoryId(2)).unwrap().clone();
        let via_trait = rtree
            .kmst_search(
                &store,
                &query,
                &period,
                &MstConfig::k(4),
                &NoShare,
                &mut NoopSink,
            )
            .unwrap();
        let direct = bfmst_search(
            &[(&rtree, &store)],
            &query,
            &period,
            &MstConfig::k(4),
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(via_trait.matches, direct);
        assert_eq!(Rtree3D::KIND, Substrate::Rtree);
        assert_eq!(TbTree::KIND, Substrate::TbTree);
        assert_eq!(StrTree::KIND, Substrate::StrTree);
        assert_eq!(MetricTree::KIND, Substrate::Metric);
    }
}
