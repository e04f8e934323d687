//! Linear-scan k-MST: the ground truth the index-based search is verified
//! against, and the "no pruning" baseline of the pruning-power metric.

use mst_trajectory::{TimeInterval, Trajectory};

use crate::dissim::{dissim_between_traced, Integration};
use crate::merge;
use crate::metrics::{NoopSink, QueryMetrics};
use crate::{MstMatch, Result, TrajectoryStore};

/// Computes the k most similar trajectories to `query` over `period` by
/// evaluating DISSIM against every trajectory in the store that covers the
/// period. Results are sorted by ascending dissimilarity (ties by id for
/// determinism).
pub fn scan_kmst(
    store: &TrajectoryStore,
    query: &Trajectory,
    period: &TimeInterval,
    k: usize,
    integration: Integration,
) -> Result<Vec<MstMatch>> {
    scan_kmst_traced(store, query, period, k, integration, &mut NoopSink)
}

/// [`scan_kmst`] with observability: every candidate and per-piece integral
/// evaluation is reported to `metrics`. The scan never prunes, so its
/// candidate ledger reads "everything seen was refined" — the denominator of
/// the pruning-power metric.
pub fn scan_kmst_traced<M: QueryMetrics>(
    store: &TrajectoryStore,
    query: &Trajectory,
    period: &TimeInterval,
    k: usize,
    integration: Integration,
    metrics: &mut M,
) -> Result<Vec<MstMatch>> {
    let mut all: Vec<MstMatch> = Vec::new();
    for (id, t) in store.covering(period) {
        metrics.candidate_seen();
        let d = dissim_between_traced(query, t, period, integration, metrics)?;
        metrics.candidate_refined();
        all.push(MstMatch {
            traj: id,
            dissim: d.approx,
        });
    }
    Ok(merge::nearest(k, all, |m| m.dissim, |m| m.traj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::TrajectoryId;

    fn horizontal(y: f64) -> Trajectory {
        Trajectory::from_txy(&[(0.0, 0.0, y), (5.0, 5.0, y), (10.0, 10.0, y)]).unwrap()
    }

    fn store() -> TrajectoryStore {
        TrajectoryStore::from_trajectories(vec![
            horizontal(0.0),
            horizontal(1.0),
            horizontal(-2.0),
            horizontal(5.0),
        ])
    }

    #[test]
    fn returns_nearest_first() {
        let s = store();
        let q = horizontal(0.1);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let res = scan_kmst(&s, &q, &period, 2, Integration::Exact).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].traj, TrajectoryId(0));
        assert_eq!(res[1].traj, TrajectoryId(1));
        assert!(res[0].dissim < res[1].dissim);
        // DISSIM of the nearest: |0.1| x 10 = 1.
        assert!((res[0].dissim - 1.0).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let s = store();
        let q = horizontal(0.0);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let res = scan_kmst(&s, &q, &period, 100, Integration::Exact).unwrap();
        assert_eq!(res.len(), 4);
    }

    #[test]
    fn skips_trajectories_not_covering_the_period() {
        let mut s = store();
        s.insert(
            TrajectoryId(99),
            Trajectory::from_txy(&[(3.0, 0.0, 0.0), (6.0, 3.0, 0.0)]).unwrap(),
        );
        let q = horizontal(0.0);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let res = scan_kmst(&s, &q, &period, 100, Integration::Exact).unwrap();
        assert!(res.iter().all(|m| m.traj != TrajectoryId(99)));
    }

    #[test]
    fn trapezoid_scan_ranks_like_exact_on_separated_data() {
        let s = store();
        let q = horizontal(0.6);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let exact = scan_kmst(&s, &q, &period, 4, Integration::Exact).unwrap();
        let approx = scan_kmst(&s, &q, &period, 4, Integration::Trapezoid).unwrap();
        let ids_e: Vec<_> = exact.iter().map(|m| m.traj).collect();
        let ids_a: Vec<_> = approx.iter().map(|m| m.traj).collect();
        assert_eq!(ids_e, ids_a);
    }
}
