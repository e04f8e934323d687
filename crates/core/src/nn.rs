//! Historical nearest-neighbour search for a *moving* query point, the
//! query type of Frentzos, Gratsias, Pelekis & Theodoridis (the paper's
//! reference \[6\]) whose MINDIST machinery the MST algorithm reuses:
//! [`nearest_trajectories`] finds the k trajectories whose *closest
//! approach* to the query during the period is smallest, in one search over
//! every shard's tree (a single tree is a forest of one). Unlike DISSIM
//! this is a min-, not an integral-aggregate, so candidates never need to
//! be fully assembled: the traversal terminates as soon as the next node's
//! lower bound exceeds the current k-th best approach distance.
//!
//! Like [`crate::bfmst`] and the segment queries of [`crate::knn`], the
//! search consumes an [`MbbDescent`] over every shard's tree, prunes
//! against the same threshold type (no ceiling), polls `share` for a stop
//! on every pop, stops at the first failed node read and names the shard
//! (which [`crate::run`] runs the query again without), and has a single
//! generic entry point; pass
//! [`NoShare`](crate::share::NoShare) / [`NoopSink`](crate::metrics::NoopSink)
//! for a plain uncancellable, untraced query. Ties are broken by
//! trajectory id, so a query returns the same answer at any shard count.

use mst_index::TrajectoryIndex;
use mst_trajectory::kinematics::DistanceTrinomial;
use mst_trajectory::{TimeInterval, Trajectory, TrajectoryId};

use std::collections::HashMap;

use crate::descent::MbbDescent;
use crate::dissim::for_each_co_piece;
use crate::forest::Abort;
use crate::merge;
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
/// traffic, node and buffer accesses, and candidate discoveries. The
/// search stops at the first node read that fails, leaving its candidates
/// pending, and names the shard ([`Abort::Shard`]).
pub fn nearest_trajectories<I: TrajectoryIndex, M: QueryMetrics, B: BoundShare>(
    shards: &[&I],
    query: &Trajectory,
    period: &TimeInterval,
    k: usize,
    share: &B,
    metrics: &mut M,
) -> std::result::Result<Vec<NnMatch>, Abort> {
    if k == 0 {
        return Ok(Vec::new());
    }
    check_period(query, period)?;
    let q = &query.clip(period)?;
    let mut source = MbbDescent::new(shards.iter().copied(), q, period, metrics);

    // Best approach found so far, per trajectory: (distance, time).
    let mut best: HashMap<TrajectoryId, (f64, f64)> = HashMap::new();
    // The kth smallest distance of `best` (infinite below k candidates).
    let mut threshold = Threshold::new(k, f64::INFINITY);

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
        let entries = match source.expand(metrics) {
            Ok(Some(entries)) => entries,
            Ok(None) => continue,
            Err(abort) => {
                metrics.candidates_pending(best.len() as u64);
                return Err(abort);
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
                    v.insert((f64::INFINITY, 0.0))
                }
            };
            if approach.0 < slot.0 {
                *slot = approach;
                threshold.record(e.traj, approach.0);
            }
        }
    }
    metrics.candidates_pending(best.len() as u64);

    let found = best
        .into_iter()
        .map(|(traj, (distance, time))| NnMatch {
            traj,
            distance,
            time,
        })
        .collect();
    Ok(merge::nearest(k, found, |m| m.distance, |m| m.traj))
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
        Ok(nearest_trajectories(
            &[idx],
            q,
            period,
            k,
            &NoShare,
            &mut NoopSink,
        )?)
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

    /// A shard that fails part-way through the search, after its near
    /// trajectories have set the threshold, takes their distances out with
    /// them: the answer is what the surviving tree answers alone.
    #[test]
    fn a_shard_failing_mid_search_leaves_the_survivors_answer() {
        use crate::{run, BatchQuery, MovingObjectDatabase, Query};
        use mst_index::{FaultConfig, TrajectoryIndex};
        let line = |y: f64| {
            let samples: Vec<_> = (0..=10).map(|s| (f64::from(s), f64::from(s), y)).collect();
            Trajectory::from_txy(&samples).unwrap()
        };
        // Tree a: 600 trajectories within 3.5 of the query; tree b: 300
        // about 100 away.
        let near: TrajectoryStore = (0..600u32)
            .map(|i| (TrajectoryId(2 * u64::from(i)), line(f64::from(i) * 0.005)))
            .collect();
        let far: TrajectoryStore = (0..300u32)
            .map(|i| {
                (
                    TrajectoryId(2 * u64::from(i) + 1),
                    line(100.0 + f64::from(i)),
                )
            })
            .collect();
        let (mut a, b) = (build(&near), build(&far));
        let q = line(-0.5);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        // Cache what a k = 1 search reads of a, then fail every other read.
        a.set_buffer_capacity(Some(10_000)).unwrap();
        nn(&a, &q, &period, 1).unwrap();
        let faults = FaultConfig::quiet(7).with_read_transient(1.0);
        a.set_fault_injection(Some(faults)).unwrap();
        let a = MovingObjectDatabase::from_parts(a, near);
        let b = MovingObjectDatabase::from_parts(b, far);
        for k in [100, 250] {
            let query = BatchQuery::knn(Query::knn(&q).k(k).during(&period)).unwrap();
            let (answer, failures) = run(&[(0, &a), (1, &b)], &query, &NoShare, &mut NoopSink);
            assert_eq!(failures.len(), 1, "k {k}: a fails mid-search");
            assert_eq!(failures[0].shard, 0);
            let alone = nn(b.index(), &q, &period, k).unwrap();
            assert_eq!(alone.len(), k);
            assert_eq!(answer.as_knn().unwrap(), alone, "k {k}");
        }
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
