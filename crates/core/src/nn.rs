//! Historical nearest-neighbour search for a *moving* query point — the
//! query type of Frentzos, Gratsias, Pelekis & Theodoridis (the paper's
//! reference \[6\]) whose MINDIST machinery the MST algorithm reuses.
//!
//! Given a query trajectory and a period, find the k trajectories whose
//! *closest approach* to the query during the period is smallest (together
//! with the approach distance and the instant it happens). Unlike DISSIM
//! this is a min-, not an integral-aggregate, so candidates never need to
//! be fully assembled: the best-first traversal terminates as soon as the
//! next group's lower bound exceeds the current k-th best approach
//! distance.
//!
//! Like [`crate::bfmst`], the search consumes an [`MbbDescent`] over every
//! shard's tree, prunes against the same threshold type (keyed by approach
//! distance, no ceiling) and has a single generic entry point; pass
//! [`NoShare`](crate::share::NoShare) / [`NoopSink`](crate::metrics::NoopSink)
//! for a plain uncancellable, untraced query.

use mst_index::TrajectoryIndex;
use mst_trajectory::kinematics::DistanceTrinomial;
use mst_trajectory::{TimeInterval, Trajectory, TrajectoryId};

use std::collections::HashMap;

use crate::bfmst::{SearchReport, ShardFailure};
use crate::descent::MbbDescent;
use crate::dissim::for_each_co_piece;
use crate::metrics::QueryMetrics;
use crate::query::check_period;
use crate::share::BoundShare;
use crate::topk::Threshold;
use crate::{Result, SearchError};

/// One nearest-neighbour answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnMatch {
    /// The matched trajectory.
    pub traj: TrajectoryId,
    /// Its minimum distance from the query during the period.
    pub distance: f64,
    /// The instant of closest approach.
    pub time: f64,
}

/// Finds the k trajectories with the smallest closest-approach distance to
/// `query` during `period`, in ascending distance order, over every
/// shard's tree at once: one descent, one k-th threshold (a single tree is
/// a forest of one).
///
/// `share` can stop the traversal (deadlines); `metrics` receives heap
/// traffic, node and buffer accesses, and candidate discoveries. A shard
/// whose node read fails is dropped as in [`crate::bfmst_search`]: its
/// queued nodes are discarded, its candidates left pending and out of the
/// answer, and a [`ShardFailure`] is reported.
pub fn nearest_trajectories<I: TrajectoryIndex, M: QueryMetrics, B: BoundShare>(
    shards: &[&I],
    query: &Trajectory,
    period: &TimeInterval,
    k: usize,
    share: &B,
    metrics: &mut M,
) -> Result<SearchReport<NnMatch>> {
    if k == 0 {
        return Ok(SearchReport::default());
    }
    check_period(query, period)?;
    let q = &query.clip(period)?;
    let mut source = MbbDescent::new(shards.iter().copied(), q, period, metrics);

    // Best approach found so far, per trajectory: (shard, distance, time).
    let mut best: HashMap<TrajectoryId, (usize, f64, f64)> = HashMap::new();
    // The kth smallest distance of `best` (infinite below k candidates).
    let mut threshold = Threshold::new(k, f64::INFINITY);
    let mut failures = Vec::new();

    while let Some(mindist) = source.pop(metrics) {
        // Cooperative cancellation (per-query deadlines).
        if share.poll_stop() {
            break;
        }
        // Termination: the k-th best candidate distance cannot improve once
        // every remaining node is farther away.
        if mindist > threshold.value() {
            break;
        }
        let shard = source.shard();
        let entries = match source.expand(metrics) {
            Ok(Some(entries)) => entries,
            Ok(None) => continue,
            Err(error) => {
                // The shard leaves the search with its ledger balanced:
                // every candidate it found is left pending.
                source.drop_shard(shard);
                let found = best.len();
                best.retain(|_, slot| slot.0 != shard);
                metrics.candidates_pending((found - best.len()) as u64);
                failures.push(ShardFailure { shard, error });
                continue;
            }
        };
        for e in entries {
            let Some(window) = e.segment.time().intersect(period) else {
                continue;
            };
            let approach = if window.is_instant() {
                let qp = q.position_at(window.start())?;
                let tp = e.segment.position_at(window.start())?;
                (qp.distance(&tp), window.start())
            } else {
                segment_closest_approach(q, &e.segment, &window)?
            };
            let slot = match best.entry(e.traj) {
                std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    metrics.candidate_seen();
                    v.insert((shard, f64::INFINITY, 0.0))
                }
            };
            if approach.0 < slot.1 {
                *slot = (shard, approach.0, approach.1);
                threshold.record(e.traj, approach.0);
            }
        }
    }
    metrics.candidates_pending(best.len() as u64);

    let mut matches: Vec<NnMatch> = best
        .into_iter()
        .map(|(traj, (_, distance, time))| NnMatch {
            traj,
            distance,
            time,
        })
        .collect();
    matches.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.traj.cmp(&b.traj)));
    matches.truncate(k);
    Ok(SearchReport { matches, failures })
}

/// Closest approach between the query and one data segment over `window`:
/// minimum over the co-temporal pieces of the distance trinomial.
fn segment_closest_approach(
    q: &Trajectory,
    segment: &mst_trajectory::Segment,
    window: &TimeInterval,
) -> Result<(f64, f64)> {
    let mut best = (f64::INFINITY, window.start());
    // Leaf entries come in storage order here, so each starts its own walk.
    let first = q
        .segment_index_at(window.start())
        .map_err(SearchError::Trajectory)?;
    for_each_co_piece(q, first, segment, window, |qs, ds| {
        let tri = DistanceTrinomial::between(qs, ds)?;
        let sub = qs.time();
        let m = tri.min_on(sub.start(), sub.end());
        if m.0 < best.0 {
            best = m;
        }
        Ok(())
    })?;
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NoopSink;
    use crate::share::NoShare;
    use crate::TrajectoryStore;
    use mst_index::Rtree3D;

    fn nn(idx: &Rtree3D, q: &Trajectory, period: &TimeInterval, k: usize) -> Result<Vec<NnMatch>> {
        nearest_trajectories(&[idx], q, period, k, &NoShare, &mut NoopSink).map(|r| r.matches)
    }

    fn build(store: &TrajectoryStore) -> Rtree3D {
        let mut idx = Rtree3D::new();
        for (id, t) in store.iter() {
            idx.insert_trajectory(id, t).unwrap();
        }
        idx
    }

    /// Brute-force oracle: dense time sampling of pairwise distances.
    fn oracle(
        store: &TrajectoryStore,
        q: &Trajectory,
        period: &TimeInterval,
        k: usize,
    ) -> Vec<(TrajectoryId, f64)> {
        let mut out: Vec<(TrajectoryId, f64)> = store
            .iter()
            .filter_map(|(id, t)| {
                let window = period.intersect(&t.time())?;
                if window.is_instant() {
                    return None;
                }
                let mut best = f64::INFINITY;
                for i in 0..=20_000 {
                    let tt =
                        window.start() + (window.end() - window.start()) * f64::from(i) / 20_000.0;
                    let d = q.position_at(tt).ok()?.distance(&t.position_at(tt).ok()?);
                    best = best.min(d);
                }
                Some((id, best))
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    fn zoo() -> TrajectoryStore {
        // Crossers, parallels, and a diverging walker.
        let trajs = vec![
            Trajectory::from_txy(&[(0.0, 0.0, 5.0), (10.0, 10.0, 5.0)]).unwrap(),
            Trajectory::from_txy(&[(0.0, 10.0, 0.0), (10.0, 0.0, 0.3)]).unwrap(),
            Trajectory::from_txy(&[(0.0, 3.0, -8.0), (5.0, 5.0, -1.0), (10.0, 9.0, -9.0)]).unwrap(),
            Trajectory::from_txy(&[(0.0, -5.0, 20.0), (10.0, 15.0, 22.0)]).unwrap(),
        ];
        TrajectoryStore::from_trajectories(trajs)
    }

    #[test]
    fn matches_dense_sampling_oracle() {
        let store = zoo();
        let idx = build(&store);
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let got = nn(&idx, &q, &period, 4).unwrap();
        let want = oracle(&store, &q, &period, 4);
        assert_eq!(got.len(), want.len());
        for (g, (wid, wd)) in got.iter().zip(&want) {
            assert_eq!(g.traj, *wid);
            // The analytic result must be <= the sampled one (it is exact).
            assert!(g.distance <= wd + 1e-6, "{} vs {wd}", g.distance);
            assert!((g.distance - wd).abs() < 1e-3);
        }
    }

    #[test]
    fn reports_the_instant_of_closest_approach() {
        let store = zoo();
        let idx = build(&store);
        // Trajectory 1 crosses the diagonal query near t = 5.
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let got = nn(&idx, &q, &period, 1).unwrap();
        assert_eq!(got[0].traj, TrajectoryId(1));
        assert!((got[0].time - 5.0).abs() < 0.2, "time {}", got[0].time);
        // Verify the reported distance is realized at the reported time.
        let t1 = store.get(TrajectoryId(1)).unwrap();
        let realized = q
            .position_at(got[0].time)
            .unwrap()
            .distance(&t1.position_at(got[0].time).unwrap());
        assert!((realized - got[0].distance).abs() < 1e-9);
    }

    #[test]
    fn k_and_period_edge_cases() {
        let store = zoo();
        let idx = build(&store);
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        assert!(nn(&idx, &q, &period, 0).unwrap().is_empty());
        let all = nn(&idx, &q, &period, 100).unwrap();
        assert_eq!(all.len(), 4);
        // Query not covering the period errors.
        let bad = TimeInterval::new(0.0, 20.0).unwrap();
        assert!(nn(&idx, &q, &bad, 1).is_err());
    }

    #[test]
    fn nn_prunes_far_subtrees() {
        // A larger dataset: NN should touch a fraction of the index.
        let trajs: Vec<Trajectory> = (0..60)
            .map(|i| {
                let y = f64::from(i) * 10.0;
                Trajectory::from_txy(
                    &(0..=50)
                        .map(|s| (f64::from(s), f64::from(s), y))
                        .collect::<Vec<_>>(),
                )
                .unwrap()
            })
            .collect();
        let store = TrajectoryStore::from_trajectories(trajs);
        let mut idx = build(&store);
        let q = store.get(TrajectoryId(30)).unwrap().clone();
        let period = TimeInterval::new(0.0, 50.0).unwrap();
        idx.reset_stats();
        let got = nn(&idx, &q, &period, 1).unwrap();
        assert_eq!(got[0].traj, TrajectoryId(30));
        assert_eq!(got[0].distance, 0.0);
        let reads = idx.stats().node_reads as usize;
        assert!(
            reads < idx.num_pages() / 2,
            "NN read {reads} of {} pages",
            idx.num_pages()
        );
    }
}
