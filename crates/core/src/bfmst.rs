//! BFMSTSearch: the best-first k-Most-Similar-Trajectory algorithm
//! (Section 4, Figure 7 of the paper).
//!
//! The algorithm consumes an [`MbbDescent`] — the leaves' segment entries
//! in increasing `MINDIST(Q, N)` order (the distance-browsing strategy of
//! Hjaltason & Samet), over every shard's tree at once — assembling
//! candidate trajectories from them:
//!
//! * each candidate keeps the DISSIM enclosure of its retrieved pieces plus
//!   its OPTDISSIM / PESDISSIM speed-dependent bounds ([`crate::bounds`]);
//! * **heuristic 1** rejects a candidate whose OPTDISSIM exceeds the one
//!   pruning threshold (the k-th best upper key under the range ceiling:
//!   `topk::Threshold`) — it provably cannot enter the answer;
//! * **heuristic 2** terminates the whole search when the popped group's
//!   MINDISSIMINC exceeds that threshold — every unseen segment is at least
//!   the group bound away, so no remaining or future candidate can qualify;
//! * with trapezoid integration, the **error management** of Section 4.4
//!   keeps the answer exact: bound comparisons use the enclosure's safe
//!   side, and a post-processing step recomputes the closed-form DISSIM for
//!   every candidate whose enclosure straddles the decision boundary.
//!
//! There is a single entry point, [`bfmst_search`], generic over the
//! metrics sink and the cancellation hook; pass
//! [`NoopSink`](crate::metrics::NoopSink) / [`NoShare`](crate::share::NoShare)
//! for a plain untraced search — the hooks monomorphize away, so the
//! observed and unobserved paths are the same code and tracing can never
//! change an answer. The sink is the only place the search's work is
//! counted. A sharded query is one call over all shards' trees, so the
//! paper's single k-th threshold prunes across shards from the first
//! completed candidate on. A failed node read ends the search: it names
//! the shard, and [`crate::run`] runs the query again without it.

use std::collections::{HashMap, HashSet};

use mst_index::{LeafEntry, TrajectoryIndex};
use mst_trajectory::{TimeInterval, Trajectory, TrajectoryId};

use crate::bounds::Candidate;
use crate::descent::MbbDescent;
use crate::dissim::{dissim_between_traced, for_each_co_piece, piece, Dissim, Integration};
use crate::forest::Abort;
use crate::merge;
use crate::metrics::{PruningBound, QueryMetrics};
use crate::query::check_period;
use crate::share::BoundShare;
use crate::topk::{rounded_up, Threshold};
use crate::{MstMatch, Result, SearchError, TrajectoryStore};

/// Configuration of a BFMST search.
#[derive(Debug, Clone, Copy)]
pub struct MstConfig {
    /// Number of most similar trajectories to return.
    pub k: usize,
    /// Integration scheme for per-piece DISSIM contributions.
    pub integration: Integration,
    /// Apply Section 4.4: error-aware comparisons plus exact post-processing
    /// (only meaningful with [`Integration::Trapezoid`]).
    pub error_management: bool,
    /// Enable heuristic 1 (candidate rejection by OPTDISSIM). Disabling it
    /// is only useful for ablation studies.
    pub use_heuristic1: bool,
    /// Enable heuristic 2 (termination by MINDISSIMINC). Disabling it is
    /// only useful for ablation studies.
    pub use_heuristic2: bool,
    /// Optional dissimilarity ceiling: trajectories with DISSIM above it are
    /// excluded even when fewer than `k` results remain (a *range-MST*
    /// query: "everything within DISSIM theta, up to k results"). The
    /// ceiling also feeds the pruning threshold, so a tight theta makes
    /// queries cheaper from the first node on.
    pub max_dissim: Option<f64>,
}

impl Default for MstConfig {
    fn default() -> Self {
        MstConfig {
            k: 1,
            integration: Integration::Trapezoid,
            error_management: true,
            use_heuristic1: true,
            use_heuristic2: true,
            max_dissim: None,
        }
    }
}

impl MstConfig {
    /// Convenience constructor for a k-MST query with the paper's defaults.
    pub fn k(k: usize) -> Self {
        MstConfig {
            k,
            ..MstConfig::default()
        }
    }

    /// Convenience constructor for a range-MST query: up to `k` results
    /// with DISSIM at most `theta`.
    pub fn within(k: usize, theta: f64) -> Self {
        MstConfig {
            k,
            max_dissim: Some(theta),
            ..MstConfig::default()
        }
    }
}

/// Runs the best-first k-MST search of `query` over `period` against every
/// shard's tree at once, each shard given as its index and the store of
/// the trajectories it indexes (the store supplies the coverage check and
/// the exact post-processing of that shard's candidates).
///
/// One descent seeds every root and pops the forest's nodes in one MINDIST
/// order; one threshold prunes every candidate, wherever it lives; each
/// candidate's speed-dependent bounds use its own shard's Vmax. A single
/// tree is a forest of one. Returns the k most similar trajectories in
/// ascending DISSIM order. With `error_management` (or exact integration)
/// the result is *exact*: it matches the linear scan with closed-form
/// integration over the union of the shards.
///
/// The search stops at the first node read that fails, leaving its live
/// candidates pending, and names the shard ([`Abort::Shard`]). `share` can
/// stop the traversal (deadlines; pass [`NoShare`](crate::share::NoShare)
/// for none) and `metrics` receives every traversal, buffer, bound, and
/// candidate event (pass [`&mut NoopSink`](crate::metrics::NoopSink) to
/// trace nothing; a [`crate::QueryProfile`] collects everything).
pub fn bfmst_search<I: TrajectoryIndex, M: QueryMetrics, B: BoundShare>(
    shards: &[(&I, &TrajectoryStore)],
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
    let q = &query.clip(period)?;
    // The envelope slope both speed-dependent bounds use, per shard.
    let vmax: Vec<f64> = shards
        .iter()
        .map(|(index, _)| index.max_speed() + q.max_speed())
        .collect();
    let mut source = MbbDescent::new(shards.iter().map(|&(index, _)| index), q, period, metrics);

    let span = period.duration();
    let merge_eps = span.max(1.0) * 1e-9;

    // Candidates by id (ids are unique across shards), the completed ones
    // with their shard, whose store refines them.
    let mut valid: HashMap<TrajectoryId, Candidate> = HashMap::new();
    let mut completed: HashMap<TrajectoryId, (usize, Dissim)> = HashMap::new();
    let mut rejected: HashSet<TrajectoryId> = HashSet::new();
    let ceiling = config.max_dissim.unwrap_or(f64::INFINITY);
    let mut threshold = Threshold::new(config.k, ceiling);
    // The part of the period an entry's segment is alive for, when that is
    // more than an instant.
    let window_of = |e: &LeafEntry| {
        let window = e.segment.time().intersect(period)?;
        (!window.is_instant()).then_some(window)
    };

    while let Some(mindist) = source.pop(metrics) {
        // Cooperative cancellation (per-query deadlines): abandon the
        // traversal and fall through to best-so-far finalization.
        if share.poll_stop() {
            break;
        }
        // Heuristic 2: groups arrive in increasing lower bound, so once the
        // group-level MINDISSIMINC exceeds the k-th best upper key nothing
        // later can qualify either — stop the whole search. Until a
        // candidate completes, only a ceiling arms it.
        let tau = threshold.value();
        if config.use_heuristic2 && (!completed.is_empty() || threshold.capped()) && tau.is_finite()
        {
            // Cheap test first (the paper's optimization): only evaluate
            // the per-candidate OPTDISSIMINC values when the blanket bound
            // MINDIST * span already clears the threshold.
            metrics.bound_evals(PruningBound::MinDissimInc, 1);
            if mindist * span > tau {
                metrics.bound_evals(PruningBound::OptDissimInc, valid.len() as u64);
                let min_inc = valid
                    .values()
                    .map(|c| c.opt_dissim_inc(period, mindist))
                    .fold(f64::INFINITY, f64::min);
                if min_inc > tau {
                    // The popped head plus everything still queued is
                    // discarded unvisited; the pending candidates are each
                    // certified out by their OPTDISSIMINC.
                    metrics.early_termination();
                    metrics.pruned_by(PruningBound::MinDissimInc, source.pending() + 1);
                    metrics.pruned_by(PruningBound::OptDissimInc, valid.len() as u64);
                    break;
                }
            }
        }

        let shard = source.shard();
        let mut entries = match source.expand(metrics) {
            Ok(Some(entries)) => entries,
            Ok(None) => continue,
            Err(abort) => {
                metrics.candidates_pending(valid.len() as u64);
                return Err(abort);
            }
        };
        let store = shards[shard].1;
        // Only entries alive for more than an instant of the period take
        // part; dropping the others first leaves the sort fewer to order
        // and changes nothing else — they were skipped one by one before.
        entries.retain(|e| window_of(e).is_some());
        // Plane sweep over the group in temporal order (the TB-tree stores
        // leaves temporally sorted already; the R-tree needs the sort —
        // Figure 7, line 10). `arrival_cmp` is total on distinct entries,
        // so the unstable sort yields the one order a stable sort would.
        entries.sort_unstable_by(LeafEntry::arrival_cmp);
        // Window starts now only grow, so the query segment an entry starts
        // in is found by walking on from the previous entry's: one search
        // per leaf.
        let Some(first) = entries.first().and_then(window_of) else {
            continue;
        };
        let mut cursor = q
            .segment_index_at(first.start())
            .map_err(SearchError::Trajectory)?;
        for e in entries {
            let Some(window) = window_of(&e) else {
                continue;
            };
            if rejected.contains(&e.traj) {
                continue;
            }
            let cand = match valid.entry(e.traj) {
                std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    metrics.candidate_seen();
                    // An object that does not cover the period can never
                    // complete, yet its PESDISSIM key would tighten the kth
                    // threshold and then vanish from the answer. (An id the
                    // store does not know keeps its MissingTrajectory path.)
                    if store.get(e.traj).is_some_and(|t| !t.covers(period)) {
                        rejected.insert(e.traj);
                        metrics.candidate_pruned();
                        continue;
                    }
                    v.insert(Candidate::new(e.traj, merge_eps))
                }
            };
            cursor = for_each_co_piece(q, cursor, &e.segment, &window, |qs, ds| {
                let p = piece(qs, ds, config.integration)?;
                metrics.piece_eval(config.integration);
                cand.add_piece(&p);
                Ok(())
            })?;

            if cand.is_complete(period) {
                let value = cand.value();
                valid.remove(&e.traj);
                completed.insert(e.traj, (shard, value));
                metrics.candidate_refined();
                threshold.record(e.traj, value.upper());
            } else {
                // One walk over the gaps serves both bounds (and counts the
                // LDD integrals each costs); nothing below touches the
                // candidate before OPTDISSIM is read.
                let bounds = cand.gap_bounds(period, vmax[shard]);
                metrics.bound_evals(PruningBound::Ldd, bounds.gaps as u64);
                metrics.bound_evals(PruningBound::PesDissim, 1);
                if threshold.record(e.traj, bounds.pes) {
                    metrics.pruned_by(PruningBound::PesDissim, 1);
                }
                // Heuristic 1. The enclosure's safe side: OPTDISSIM already
                // folds the approximation error in (Section 4.4's
                // "PESDISSIM - ERR" discipline on the lower side).
                if config.use_heuristic1 {
                    metrics.bound_evals(PruningBound::Ldd, bounds.gaps as u64);
                    metrics.bound_evals(PruningBound::OptDissim, 1);
                    if bounds.opt > threshold.value() {
                        valid.remove(&e.traj);
                        rejected.insert(e.traj);
                        metrics.candidate_pruned();
                        metrics.pruned_by(PruningBound::OptDissim, 1);
                    }
                }
            }
        }
    }

    metrics.candidates_pending(valid.len() as u64);
    Ok(finalize(shards, q, period, config, completed, metrics)?)
}

/// Sorts the completed candidates, applies the exact post-processing of
/// Section 4.4 when requested (each candidate read from its own shard's
/// store), and truncates to k.
fn finalize<I, M: QueryMetrics>(
    shards: &[(&I, &TrajectoryStore)],
    q: &Trajectory,
    period: &TimeInterval,
    config: &MstConfig,
    completed: HashMap<TrajectoryId, (usize, Dissim)>,
    metrics: &mut M,
) -> Result<Vec<MstMatch>> {
    let mut all: Vec<(TrajectoryId, (usize, Dissim))> = completed.into_iter().collect();
    all.sort_by(|a, b| {
        (a.1 .1.approx)
            .total_cmp(&b.1 .1.approx)
            .then(a.0.cmp(&b.0))
    });
    let ceiling = config.max_dissim.unwrap_or(f64::INFINITY);

    let needs_exact =
        config.error_management && config.integration == Integration::Trapezoid && !all.is_empty();
    if !needs_exact {
        let approx = all.into_iter().map(|(traj, (_, d))| MstMatch {
            traj,
            dissim: d.approx,
        });
        return Ok(best_k(approx.collect(), config.k, ceiling));
    }

    // K upper-bounds the k-th smallest exact DISSIM; every candidate whose
    // enclosure dips below K could still belong to the answer and gets the
    // closed-form treatment — K widened by the rounding of its float sum,
    // so a candidate tied with the k-th is refined too.
    let kth_idx = config.k.min(all.len()) - 1;
    let cutoff = rounded_up(all[kth_idx].1 .1.approx.min(ceiling));
    let mut finalists: Vec<MstMatch> = Vec::new();
    for (traj, (shard, d)) in all {
        if d.lower() <= cutoff {
            let t = shards[shard]
                .1
                .get(traj)
                .ok_or(SearchError::MissingTrajectory(traj))?;
            let exact = dissim_between_traced(q, t, period, Integration::Exact, metrics)?.approx;
            metrics.exact_recomputation();
            finalists.push(MstMatch {
                traj,
                dissim: exact,
            });
        }
    }
    Ok(best_k(finalists, config.k, ceiling))
}

/// The `k` best of `matches` within `ceiling`: ascending DISSIM, ties by
/// trajectory id.
pub(crate) fn best_k(mut matches: Vec<MstMatch>, k: usize, ceiling: f64) -> Vec<MstMatch> {
    matches.retain(|m| m.dissim <= ceiling);
    merge::nearest(k, matches, |m| m.dissim, |m| m.traj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{NoopSink, QueryProfile};
    use crate::scan::scan_kmst;
    use crate::share::NoShare;
    use mst_index::{Rtree3D, TbTree, TrajectoryIndexWrite};

    /// The collapsed entry point with the no-op defaults spelled out once.
    fn search<I: TrajectoryIndex>(
        index: &I,
        store: &TrajectoryStore,
        query: &Trajectory,
        period: &TimeInterval,
        config: &MstConfig,
    ) -> Result<Vec<MstMatch>> {
        Ok(bfmst_search(
            &[(index, store)],
            query,
            period,
            config,
            &NoShare,
            &mut NoopSink,
        )?)
    }

    /// [`search`] with its profile.
    fn profiled<I: TrajectoryIndex>(
        index: &I,
        store: &TrajectoryStore,
        query: &Trajectory,
        period: &TimeInterval,
        config: &MstConfig,
    ) -> (Vec<MstMatch>, QueryProfile) {
        let mut profile = QueryProfile::new();
        let report = bfmst_search(
            &[(index, store)],
            query,
            period,
            config,
            &NoShare,
            &mut profile,
        )
        .unwrap();
        (report, profile)
    }

    /// Builds a small deterministic dataset of horizontal movers at distinct
    /// heights plus one weaving trajectory.
    fn dataset() -> TrajectoryStore {
        let mut trajs = Vec::new();
        for i in 0..12 {
            let y = f64::from(i) * 2.0;
            let pts: Vec<(f64, f64, f64)> = (0..=20)
                .map(|s| {
                    let t = f64::from(s);
                    (t, t * 0.8 + f64::from(i % 3) * 0.1, y)
                })
                .collect();
            trajs.push(Trajectory::from_txy(&pts).unwrap());
        }
        // A weaving trajectory crossing several lanes.
        let pts: Vec<(f64, f64, f64)> = (0..=20)
            .map(|s| {
                let t = f64::from(s);
                (t, t * 0.8, (t * 0.9).sin() * 6.0 + 6.0)
            })
            .collect();
        trajs.push(Trajectory::from_txy(&pts).unwrap());
        TrajectoryStore::from_trajectories(trajs)
    }

    /// Interleaved in temporal order, as a MOD would insert.
    fn build<I: TrajectoryIndexWrite>(mut index: I, store: &TrajectoryStore) -> I {
        for e in crate::arrival_order(store.iter()) {
            index.insert_entry(e).unwrap();
        }
        index
    }

    fn query() -> Trajectory {
        // Close to trajectory 2 (y = 4).
        let pts: Vec<(f64, f64, f64)> = (0..=10)
            .map(|s| {
                let t = f64::from(s) * 2.0;
                (t, t * 0.8 + 0.05, 4.3)
            })
            .collect();
        Trajectory::from_txy(&pts).unwrap()
    }

    #[test]
    fn matches_linear_scan_on_rtree() {
        let store = dataset();
        let idx = build(Rtree3D::new(), &store);
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let q = query();
        for k in [1usize, 3, 5] {
            let expected = scan_kmst(&store, &q, &period, k, Integration::Exact).unwrap();
            let got = search(&idx, &store, &q, &period, &MstConfig::k(k)).unwrap();
            let e_ids: Vec<_> = expected.iter().map(|m| m.traj).collect();
            let g_ids: Vec<_> = got.iter().map(|m| m.traj).collect();
            assert_eq!(e_ids, g_ids, "k={k}");
            for (e, g) in expected.iter().zip(&got) {
                assert!((e.dissim - g.dissim).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn matches_linear_scan_on_tbtree() {
        let store = dataset();
        let idx = build(TbTree::new(), &store);
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let q = query();
        let expected = scan_kmst(&store, &q, &period, 4, Integration::Exact).unwrap();
        let got = search(&idx, &store, &q, &period, &MstConfig::k(4)).unwrap();
        let e_ids: Vec<_> = expected.iter().map(|m| m.traj).collect();
        let g_ids: Vec<_> = got.iter().map(|m| m.traj).collect();
        assert_eq!(e_ids, g_ids);
    }

    #[test]
    fn exact_mode_matches_scan_too() {
        let store = dataset();
        let idx = build(Rtree3D::new(), &store);
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let q = query();
        let cfg = MstConfig {
            k: 2,
            integration: Integration::Exact,
            error_management: false,
            ..MstConfig::default()
        };
        let (got, profile) = profiled(&idx, &store, &q, &period, &cfg);
        let expected = scan_kmst(&store, &q, &period, 2, Integration::Exact).unwrap();
        assert_eq!(
            got.iter().map(|m| m.traj).collect::<Vec<_>>(),
            expected.iter().map(|m| m.traj).collect::<Vec<_>>()
        );
        assert_eq!(profile.exact_recomputations, 0);
    }

    #[test]
    fn subperiod_queries_agree_with_scan() {
        let store = dataset();
        let idx = build(Rtree3D::new(), &store);
        let q = query();
        for (a, b) in [(0.0, 5.0), (3.0, 11.0), (14.5, 20.0)] {
            let period = TimeInterval::new(a, b).unwrap();
            let expected = scan_kmst(&store, &q, &period, 3, Integration::Exact).unwrap();
            let got = search(&idx, &store, &q, &period, &MstConfig::k(3)).unwrap();
            assert_eq!(
                got.iter().map(|m| m.traj).collect::<Vec<_>>(),
                expected.iter().map(|m| m.traj).collect::<Vec<_>>(),
                "period [{a}, {b}]"
            );
        }
    }

    #[test]
    fn query_must_cover_period() {
        let store = dataset();
        let idx = build(Rtree3D::new(), &store);
        let q = query();
        let period = TimeInterval::new(0.0, 30.0).unwrap();
        assert!(matches!(
            search(&idx, &store, &q, &period, &MstConfig::default()),
            Err(SearchError::QueryOutsidePeriod { .. })
        ));
    }

    #[test]
    fn k_zero_and_empty_index() {
        let store = dataset();
        let idx = build(Rtree3D::new(), &store);
        let q = query();
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let got = search(&idx, &store, &q, &period, &MstConfig::k(0)).unwrap();
        assert!(got.is_empty());

        let empty = Rtree3D::new();
        let (got, profile) = profiled(&empty, &store, &q, &period, &MstConfig::k(2));
        assert!(got.is_empty());
        assert_eq!(profile.nodes_accessed(), 0);
    }

    #[test]
    fn heuristics_prune_without_changing_the_answer() {
        let store = dataset();
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let q = query();

        let idx_full = build(Rtree3D::new(), &store);
        let no_heuristics = MstConfig {
            use_heuristic1: false,
            use_heuristic2: false,
            ..MstConfig::k(2)
        };
        let (baseline, unpruned) = profiled(&idx_full, &store, &q, &period, &no_heuristics);

        let idx = build(Rtree3D::new(), &store);
        let (pruned, profile) = profiled(&idx, &store, &q, &period, &MstConfig::k(2));

        assert_eq!(
            baseline.iter().map(|m| m.traj).collect::<Vec<_>>(),
            pruned.iter().map(|m| m.traj).collect::<Vec<_>>()
        );
        assert!(profile.nodes_accessed() <= unpruned.nodes_accessed());
    }

    #[test]
    fn self_query_returns_itself_with_zero_dissim() {
        let store = dataset();
        let idx = build(Rtree3D::new(), &store);
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let q = store.get(TrajectoryId(5)).unwrap().clone();
        let got = search(&idx, &store, &q, &period, &MstConfig::k(1)).unwrap();
        assert_eq!(got[0].traj, TrajectoryId(5));
        assert!(got[0].dissim.abs() < 1e-9);
    }
}
