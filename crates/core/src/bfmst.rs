//! BFMSTSearch: the best-first k-Most-Similar-Trajectory algorithm
//! (Section 4, Figure 7 of the paper).
//!
//! The algorithm consumes an [`MbbDescent`] — a priority stream of
//! candidate segment groups in increasing `MINDIST(Q, N)` order (the
//! distance-browsing strategy of Hjaltason & Samet) — incrementally
//! assembling candidate trajectories from the segment entries it encounters:
//!
//! * each candidate keeps the DISSIM enclosure of its retrieved pieces plus
//!   its OPTDISSIM / PESDISSIM speed-dependent bounds ([`crate::bounds`]);
//! * **heuristic 1** rejects a candidate whose OPTDISSIM exceeds the current
//!   k-th best upper key — it provably cannot enter the answer;
//! * **heuristic 2** terminates the whole search when the popped group's
//!   MINDISSIMINC exceeds that threshold — every unseen segment is at least
//!   the group bound away, so no remaining or future candidate can qualify;
//! * with trapezoid integration, the **error management** of Section 4.4
//!   keeps the answer exact: bound comparisons use the enclosure's safe
//!   side, and a post-processing step recomputes the closed-form DISSIM for
//!   every candidate whose enclosure straddles the decision boundary.
//!
//! There is a single entry point, [`bfmst_search`], generic over the
//! metrics sink and the cross-shard bound share; pass [`NoopSink`] /
//! [`NoShare`](crate::share::NoShare) for a plain untraced search — the
//! hooks monomorphize away, so the observed and unobserved paths are the
//! same code and tracing can never change an answer.

use std::collections::{HashMap, HashSet};

use mst_index::{LeafEntry, TrajectoryIndex};
use mst_trajectory::{TimeInterval, Trajectory, TrajectoryId};

use crate::bounds::Candidate;
use crate::descent::MbbDescent;
use crate::dissim::{dissim_between_traced, for_each_co_piece, piece, Dissim, Integration};
use crate::metrics::{PruningBound, QueryMetrics};
use crate::share::BoundShare;
use crate::topk::UpperKeys;
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

/// Outcome of a BFMST search: the matches plus traversal accounting.
#[derive(Debug, Clone, Default)]
pub struct SearchReport {
    /// The k most similar trajectories, ascending dissimilarity.
    pub matches: Vec<MstMatch>,
    /// Nodes popped and processed.
    pub nodes_visited: u64,
    /// Leaf nodes among them.
    pub leaves_visited: u64,
    /// Leaf entries matched against the query.
    pub entries_matched: u64,
    /// Distinct candidate trajectories touched.
    pub candidates_seen: usize,
    /// Candidates rejected by heuristic 1.
    pub candidates_rejected: usize,
    /// Candidates fully assembled.
    pub candidates_completed: usize,
    /// True when heuristic 2 cut the traversal short.
    pub terminated_early: bool,
    /// Exact integrals recomputed by the post-processing step.
    pub exact_recomputations: usize,
    /// True when an external stop signal ([`BoundShare::poll_stop`], e.g. a
    /// per-query deadline) abandoned the traversal: `matches` holds the
    /// best-so-far answer, which may be incomplete.
    pub deadline_hit: bool,
}

/// Runs the best-first k-MST search of `query` over `period` against
/// `index`, with `store` supplying full trajectories for the exact
/// post-processing step.
///
/// Returns the k most similar trajectories in ascending DISSIM order. With
/// `error_management` (or exact integration) the result is *exact*: it
/// matches the linear scan with closed-form integration.
///
/// This is the single generic entry point: `share` injects an external
/// upper bound on the global kth DISSIM into both heuristics (pass
/// [`NoShare`](crate::share::NoShare) for an isolated query) and `metrics`
/// receives every traversal, buffer, bound, and candidate event (pass
/// [`&mut NoopSink`](crate::metrics::NoopSink) to trace nothing; a
/// [`crate::QueryProfile`] collects everything). Prunes that only the
/// shared bound justifies are attributed to [`PruningBound::SharedKth`],
/// keeping cross-shard pruning observable in the profile.
pub fn bfmst_search<I: TrajectoryIndex, M: QueryMetrics, B: BoundShare>(
    index: &I,
    store: &TrajectoryStore,
    query: &Trajectory,
    period: &TimeInterval,
    config: &MstConfig,
    share: &B,
    metrics: &mut M,
) -> Result<SearchReport> {
    if config.k == 0 {
        return Ok(SearchReport::default());
    }
    if !query.covers(period) {
        return Err(SearchError::QueryOutsidePeriod {
            period: (period.start(), period.end()),
            valid: (query.start_time(), query.end_time()),
        });
    }
    if period.is_instant() {
        return Ok(SearchReport::default());
    }
    let q = &query.clip(period)?;
    // The envelope slope both speed-dependent bounds use.
    let vmax = index.max_speed() + q.max_speed();
    let mut source = MbbDescent::new(index, q, period, metrics);

    let mut report = SearchReport::default();
    let span = period.duration();
    let merge_eps = span.max(1.0) * 1e-9;

    let mut valid: HashMap<TrajectoryId, Candidate> = HashMap::new();
    let mut completed: HashMap<TrajectoryId, Dissim> = HashMap::new();
    let mut rejected: HashSet<TrajectoryId> = HashSet::new();
    let mut upper = UpperKeys::new(config.k);
    let ceiling = config.max_dissim.unwrap_or(f64::INFINITY);
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
            report.deadline_hit = true;
            break;
        }
        // Heuristic 2: groups arrive in increasing lower bound, so once the
        // group-level MINDISSIMINC exceeds the k-th best upper key nothing
        // later can qualify either — stop the whole search. The threshold
        // folds in the cross-shard hint: another shard's kth upper key
        // bounds the global kth DISSIM just as well as a local one.
        let hint = share.kth_hint();
        if config.use_heuristic2
            && (!completed.is_empty() || ceiling.is_finite() || hint.is_finite())
        {
            let local_tau = upper.kth().min(ceiling);
            let tau = local_tau.min(hint);
            if hint < local_tau {
                metrics.bound_evals(PruningBound::SharedKth, 1);
            }
            // Cheap test first (the paper's optimization): only evaluate the
            // per-candidate OPTDISSIMINC values when the blanket bound
            // MINDIST * span already clears the threshold.
            if tau.is_finite() {
                metrics.bound_evals(PruningBound::MinDissimInc, 1);
                if mindist * span > tau {
                    metrics.bound_evals(PruningBound::OptDissimInc, valid.len() as u64);
                    let min_inc = valid
                        .values()
                        .map(|c| c.opt_dissim_inc(period, mindist))
                        .fold(f64::INFINITY, f64::min);
                    if min_inc > tau {
                        // The popped head plus everything still queued is
                        // discarded unvisited; the pending candidates are
                        // each certified out by their OPTDISSIMINC.
                        metrics.early_termination();
                        let local_fires = local_tau.is_finite()
                            && mindist * span > local_tau
                            && min_inc > local_tau;
                        if hint < local_tau && !local_fires {
                            // Only the shared bound justified stopping:
                            // all discarded work is another shard's kill.
                            metrics.pruned_by(
                                PruningBound::SharedKth,
                                source.pending() + 1 + valid.len() as u64,
                            );
                        } else {
                            metrics.pruned_by(PruningBound::MinDissimInc, source.pending() + 1);
                            metrics.pruned_by(PruningBound::OptDissimInc, valid.len() as u64);
                        }
                        report.terminated_early = true;
                        break;
                    }
                }
            }
        }

        let Some(group) = source.expand(metrics)? else {
            continue;
        };
        // Only entries alive for more than an instant of the period take
        // part; dropping the others first leaves the sort fewer to order
        // and changes nothing else — they were skipped one by one before.
        let mut entries = group.entries;
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
            report.entries_matched += 1;
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
                        report.candidates_rejected += 1;
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
                completed.insert(e.traj, value);
                report.candidates_completed += 1;
                metrics.candidate_refined();
                if upper.update(e.traj, value.upper()) {
                    let kth = upper.kth();
                    if kth.is_finite() {
                        share.publish_kth(kth);
                    }
                }
            } else {
                // One walk over the gaps serves both bounds (and counts the
                // LDD integrals each costs); nothing below touches the
                // candidate before OPTDISSIM is read.
                let bounds = cand.gap_bounds(period, vmax);
                metrics.bound_evals(PruningBound::Ldd, bounds.gaps as u64);
                metrics.bound_evals(PruningBound::PesDissim, 1);
                if upper.update(e.traj, bounds.pes) {
                    metrics.pruned_by(PruningBound::PesDissim, 1);
                    let kth = upper.kth();
                    if kth.is_finite() {
                        share.publish_kth(kth);
                    }
                }
                if config.use_heuristic1 {
                    let local_tau = upper.kth().min(ceiling);
                    let hint = share.kth_hint();
                    let tau = local_tau.min(hint);
                    if hint < local_tau {
                        metrics.bound_evals(PruningBound::SharedKth, 1);
                    }
                    metrics.bound_evals(PruningBound::Ldd, bounds.gaps as u64);
                    metrics.bound_evals(PruningBound::OptDissim, 1);
                    // The enclosure's safe side: OPTDISSIM already folds the
                    // approximation error in (Section 4.4's "PESDISSIM -
                    // ERR" discipline on the lower side).
                    let opt = bounds.opt;
                    if opt > tau {
                        valid.remove(&e.traj);
                        rejected.insert(e.traj);
                        report.candidates_rejected += 1;
                        metrics.candidate_pruned();
                        if opt > local_tau {
                            metrics.pruned_by(PruningBound::OptDissim, 1);
                        } else {
                            // The local threshold alone would have kept
                            // this candidate alive: the prune is another
                            // shard's discovery at work.
                            metrics.pruned_by(PruningBound::SharedKth, 1);
                        }
                    }
                }
            }
        }
    }

    report.nodes_visited = source.nodes_visited();
    report.leaves_visited = source.leaves_visited();
    report.candidates_seen = completed.len() + valid.len() + rejected.len();
    metrics.candidates_pending(valid.len() as u64);
    report.matches = finalize(
        store,
        q,
        period,
        config,
        completed,
        &mut report.exact_recomputations,
        metrics,
    )?;
    Ok(report)
}

/// Sorts the completed candidates, applies the exact post-processing of
/// Section 4.4 when requested, and truncates to k.
fn finalize<M: QueryMetrics>(
    store: &TrajectoryStore,
    q: &Trajectory,
    period: &TimeInterval,
    config: &MstConfig,
    completed: HashMap<TrajectoryId, Dissim>,
    exact_recomputations: &mut usize,
    metrics: &mut M,
) -> Result<Vec<MstMatch>> {
    let mut all: Vec<(TrajectoryId, Dissim)> = completed.into_iter().collect();
    all.sort_by(|a, b| a.1.approx.total_cmp(&b.1.approx).then(a.0.cmp(&b.0)));
    let ceiling = config.max_dissim.unwrap_or(f64::INFINITY);

    let needs_exact =
        config.error_management && config.integration == Integration::Trapezoid && !all.is_empty();
    if !needs_exact {
        return Ok(all
            .into_iter()
            .filter(|(_, d)| d.approx <= ceiling)
            .take(config.k)
            .map(|(traj, d)| MstMatch {
                traj,
                dissim: d.approx,
            })
            .collect());
    }

    // K upper-bounds the k-th smallest exact DISSIM; every candidate whose
    // enclosure dips below K could still belong to the answer and gets the
    // closed-form treatment.
    let kth_idx = config.k.min(all.len()) - 1;
    let cutoff = all[kth_idx].1.approx.min(ceiling);
    let mut finalists: Vec<MstMatch> = Vec::new();
    for (traj, d) in all {
        if d.lower() <= cutoff {
            let t = store
                .get(traj)
                .ok_or(SearchError::MissingTrajectory(traj))?;
            let exact = dissim_between_traced(q, t, period, Integration::Exact, metrics)?.approx;
            *exact_recomputations += 1;
            metrics.exact_recomputation();
            finalists.push(MstMatch {
                traj,
                dissim: exact,
            });
        }
    }
    finalists.retain(|m| m.dissim <= ceiling);
    finalists.sort_by(|a, b| a.dissim.total_cmp(&b.dissim).then(a.traj.cmp(&b.traj)));
    finalists.truncate(config.k);
    Ok(finalists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NoopSink;
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
    ) -> Result<SearchReport> {
        bfmst_search(index, store, query, period, config, &NoShare, &mut NoopSink)
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
        let mut idx = build(Rtree3D::new(), &store);
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let q = query();
        for k in [1usize, 3, 5] {
            let expected = scan_kmst(&store, &q, &period, k, Integration::Exact).unwrap();
            let got = search(&mut idx, &store, &q, &period, &MstConfig::k(k)).unwrap();
            let e_ids: Vec<_> = expected.iter().map(|m| m.traj).collect();
            let g_ids: Vec<_> = got.matches.iter().map(|m| m.traj).collect();
            assert_eq!(e_ids, g_ids, "k={k}");
            for (e, g) in expected.iter().zip(&got.matches) {
                assert!((e.dissim - g.dissim).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn matches_linear_scan_on_tbtree() {
        let store = dataset();
        let mut idx = build(TbTree::new(), &store);
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let q = query();
        let expected = scan_kmst(&store, &q, &period, 4, Integration::Exact).unwrap();
        let got = search(&mut idx, &store, &q, &period, &MstConfig::k(4)).unwrap();
        let e_ids: Vec<_> = expected.iter().map(|m| m.traj).collect();
        let g_ids: Vec<_> = got.matches.iter().map(|m| m.traj).collect();
        assert_eq!(e_ids, g_ids);
    }

    #[test]
    fn exact_mode_matches_scan_too() {
        let store = dataset();
        let mut idx = build(Rtree3D::new(), &store);
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let q = query();
        let cfg = MstConfig {
            k: 2,
            integration: Integration::Exact,
            error_management: false,
            ..MstConfig::default()
        };
        let got = search(&mut idx, &store, &q, &period, &cfg).unwrap();
        let expected = scan_kmst(&store, &q, &period, 2, Integration::Exact).unwrap();
        assert_eq!(
            got.matches.iter().map(|m| m.traj).collect::<Vec<_>>(),
            expected.iter().map(|m| m.traj).collect::<Vec<_>>()
        );
        assert_eq!(got.exact_recomputations, 0);
    }

    #[test]
    fn subperiod_queries_agree_with_scan() {
        let store = dataset();
        let mut idx = build(Rtree3D::new(), &store);
        let q = query();
        for (a, b) in [(0.0, 5.0), (3.0, 11.0), (14.5, 20.0)] {
            let period = TimeInterval::new(a, b).unwrap();
            let expected = scan_kmst(&store, &q, &period, 3, Integration::Exact).unwrap();
            let got = search(&mut idx, &store, &q, &period, &MstConfig::k(3)).unwrap();
            assert_eq!(
                got.matches.iter().map(|m| m.traj).collect::<Vec<_>>(),
                expected.iter().map(|m| m.traj).collect::<Vec<_>>(),
                "period [{a}, {b}]"
            );
        }
    }

    #[test]
    fn query_must_cover_period() {
        let store = dataset();
        let mut idx = build(Rtree3D::new(), &store);
        let q = query();
        let period = TimeInterval::new(0.0, 30.0).unwrap();
        assert!(matches!(
            search(&mut idx, &store, &q, &period, &MstConfig::default()),
            Err(SearchError::QueryOutsidePeriod { .. })
        ));
    }

    #[test]
    fn k_zero_and_empty_index() {
        let store = dataset();
        let mut idx = build(Rtree3D::new(), &store);
        let q = query();
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let got = search(&mut idx, &store, &q, &period, &MstConfig::k(0)).unwrap();
        assert!(got.matches.is_empty());

        let mut empty = Rtree3D::new();
        let got = search(&mut empty, &store, &q, &period, &MstConfig::k(2)).unwrap();
        assert!(got.matches.is_empty());
        assert_eq!(got.nodes_visited, 0);
    }

    #[test]
    fn heuristics_prune_without_changing_the_answer() {
        let store = dataset();
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let q = query();

        let mut idx_full = build(Rtree3D::new(), &store);
        let no_heuristics = MstConfig {
            use_heuristic1: false,
            use_heuristic2: false,
            ..MstConfig::k(2)
        };
        let baseline = search(&mut idx_full, &store, &q, &period, &no_heuristics).unwrap();

        let mut idx = build(Rtree3D::new(), &store);
        let pruned = search(&mut idx, &store, &q, &period, &MstConfig::k(2)).unwrap();

        assert_eq!(
            baseline.matches.iter().map(|m| m.traj).collect::<Vec<_>>(),
            pruned.matches.iter().map(|m| m.traj).collect::<Vec<_>>()
        );
        assert!(pruned.nodes_visited <= baseline.nodes_visited);
    }

    #[test]
    fn self_query_returns_itself_with_zero_dissim() {
        let store = dataset();
        let mut idx = build(Rtree3D::new(), &store);
        let period = TimeInterval::new(0.0, 20.0).unwrap();
        let q = store.get(TrajectoryId(5)).unwrap().clone();
        let got = search(&mut idx, &store, &q, &period, &MstConfig::k(1)).unwrap();
        assert_eq!(got.matches[0].traj, TrajectoryId(5));
        assert!(got.matches[0].dissim.abs() < 1e-9);
    }
}
