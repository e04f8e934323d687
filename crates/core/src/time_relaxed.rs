//! Time-Relaxed MST queries — the extension the paper's conclusion names
//! as future work: "the minimum dissimilarity between trajectories
//! *regardless of the time instance in which the query object starts*."
//!
//! For a query `Q` of duration `L` and a candidate `T`, the time-relaxed
//! dissimilarity is `min over shift d of DISSIM(Q shifted by d, T)`, where
//! the shifted query period must stay inside `T`'s validity. The metro
//! scenario motivates it directly: a bus line that duplicates the new metro
//! *route and pace* but departs 40 minutes earlier is a perfect candidate
//! for retiming rather than retiring — the plain MST query ranks it last,
//! the time-relaxed query ranks it first with the optimal shift attached.
//!
//! `DISSIM(d)` is a piecewise-smooth function of the shift with one
//! breakpoint whenever a query timestamp crosses a candidate timestamp, so
//! a global closed-form minimizer is impractical. The implementation runs
//! a uniform grid over the feasible shift range followed by golden-section
//! refinement inside the best grid cell, and prunes candidates with a
//! shift-independent lower bound (spatial MBR separation × duration).
//! The returned shift is optimal up to the grid resolution — callers
//! control the trade-off via [`TimeRelaxedConfig::grid_steps`].

use mst_trajectory::{Rect, Trajectory, TrajectoryId};

use crate::dissim::{dissim_between_traced, Integration};
use crate::merge;
use crate::metrics::{NoopSink, QueryMetrics};
use crate::{Result, SearchError, TrajectoryStore};

/// Configuration of a time-relaxed k-MST query.
#[derive(Debug, Clone, Copy)]
pub struct TimeRelaxedConfig {
    /// Number of most similar trajectories to return.
    pub k: usize,
    /// Grid points per candidate's feasible shift range.
    pub grid_steps: usize,
    /// Golden-section iterations inside the best grid cell.
    pub refine_iters: usize,
}

impl Default for TimeRelaxedConfig {
    fn default() -> Self {
        TimeRelaxedConfig {
            k: 1,
            grid_steps: 64,
            refine_iters: 32,
        }
    }
}

impl TimeRelaxedConfig {
    /// Convenience constructor for a k-result query with default precision.
    pub fn k(k: usize) -> Self {
        TimeRelaxedConfig {
            k,
            ..TimeRelaxedConfig::default()
        }
    }
}

/// One time-relaxed match: the trajectory, the optimal start shift of the
/// query, and the dissimilarity achieved at that shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeRelaxedMatch {
    /// The matched trajectory.
    pub traj: TrajectoryId,
    /// The query start shift (seconds/time units added to every query
    /// timestamp) minimizing DISSIM.
    pub shift: f64,
    /// The dissimilarity at that shift.
    pub dissim: f64,
}

/// Spatial distance between two rectangles (0 when they intersect).
fn rect_distance(a: &Rect, b: &Rect) -> f64 {
    let dx = (a.x_min - b.x_max).max(0.0).max(b.x_min - a.x_max);
    let dy = (a.y_min - b.y_max).max(0.0).max(b.y_min - a.y_max);
    (dx * dx + dy * dy).sqrt()
}

/// DISSIM of the query shifted by `d` against `t`, over the shifted period.
fn dissim_at_shift<M: QueryMetrics>(
    query: &Trajectory,
    t: &Trajectory,
    d: f64,
    metrics: &mut M,
) -> Result<f64> {
    let shifted = query.shift_time(d)?;
    let period = shifted.time();
    Ok(dissim_between_traced(&shifted, t, &period, Integration::Exact, metrics)?.approx)
}

/// Runs the time-relaxed k-MST query: for every candidate whose validity
/// can host the query's duration, minimizes DISSIM over the query's start
/// shift, and returns the k best `(trajectory, shift, dissim)` triples in
/// ascending dissimilarity.
pub fn time_relaxed_kmst(
    store: &TrajectoryStore,
    query: &Trajectory,
    config: &TimeRelaxedConfig,
) -> Result<Vec<TimeRelaxedMatch>> {
    time_relaxed_kmst_traced(store, query, config, &mut NoopSink)
}

/// [`time_relaxed_kmst`] with observability: candidates entering the shift
/// search, candidates discarded by the spatial-corridor lower bound, and
/// every per-piece DISSIM evaluation are reported to `metrics`. Candidates
/// too short to host the query never enter the ledger.
pub fn time_relaxed_kmst_traced<M: QueryMetrics>(
    store: &TrajectoryStore,
    query: &Trajectory,
    config: &TimeRelaxedConfig,
    metrics: &mut M,
) -> Result<Vec<TimeRelaxedMatch>> {
    if config.k == 0 {
        return Ok(Vec::new());
    }
    if config.grid_steps < 2 {
        return Err(SearchError::Trajectory(
            mst_trajectory::TrajectoryError::InvalidInterval {
                start: 0.0,
                end: config.grid_steps as f64,
            },
        ));
    }
    let duration = query.duration();
    let q_rect = query.mbb().rect();

    let mut results: Vec<TimeRelaxedMatch> = Vec::new();
    // The k-th best dissim so far (pruning threshold).
    let mut kth = f64::INFINITY;

    for (id, t) in store.iter() {
        if t.duration() + 1e-12 < duration {
            continue; // cannot host the query
        }
        metrics.candidate_seen();
        // Shift-independent lower bound: the spatial corridors alone keep
        // the objects at least `rect_distance` apart at every instant.
        if results.len() >= config.k {
            let lower = rect_distance(&q_rect, &t.mbb().rect()) * duration;
            if lower > kth {
                metrics.candidate_pruned();
                continue;
            }
        }

        // Feasible shift range: the shifted query period must fit in t.
        let d_min = t.start_time() - query.start_time();
        let d_max = t.end_time() - query.end_time();
        debug_assert!(d_min <= d_max + 1e-12);
        let span = (d_max - d_min).max(0.0);

        // Grid scan.
        let steps = config.grid_steps;
        let mut best_i = 0usize;
        let mut best_val = f64::INFINITY;
        for i in 0..=steps {
            let d = d_min + span * i as f64 / steps as f64;
            let v = dissim_at_shift(query, t, d, metrics)?;
            if v < best_val {
                best_val = v;
                best_i = i;
            }
        }

        // Golden-section refinement inside the bracketing cells.
        let cell = span / steps as f64;
        let mut lo = d_min + cell * best_i.saturating_sub(1) as f64;
        let mut hi = (d_min + cell * (best_i + 1) as f64).min(d_max);
        let phi = 0.618_033_988_749_894_8;
        let mut best_shift = d_min + cell * best_i as f64;
        if hi > lo {
            let mut x1 = hi - phi * (hi - lo);
            let mut x2 = lo + phi * (hi - lo);
            let mut f1 = dissim_at_shift(query, t, x1, metrics)?;
            let mut f2 = dissim_at_shift(query, t, x2, metrics)?;
            for _ in 0..config.refine_iters {
                if f1 <= f2 {
                    hi = x2;
                    x2 = x1;
                    f2 = f1;
                    x1 = hi - phi * (hi - lo);
                    f1 = dissim_at_shift(query, t, x1, metrics)?;
                } else {
                    lo = x1;
                    x1 = x2;
                    f1 = f2;
                    x2 = lo + phi * (hi - lo);
                    f2 = dissim_at_shift(query, t, x2, metrics)?;
                }
            }
            let candidate = if f1 <= f2 { x1 } else { x2 };
            let refined = dissim_at_shift(query, t, candidate, metrics)?;
            if refined < best_val {
                best_val = refined;
                best_shift = candidate;
            }
        }

        metrics.candidate_refined();
        results.push(TimeRelaxedMatch {
            traj: id,
            shift: best_shift,
            dissim: best_val,
        });
        results = merge::nearest(config.k, results, |m| m.dissim, |m| m.traj);
        if results.len() == config.k {
            kth = results[config.k - 1].dissim;
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::Trajectory;

    /// A straight mover along x at height `y`, departing at `depart`.
    fn runner(y: f64, depart: f64, duration: f64) -> Trajectory {
        let pts: Vec<(f64, f64, f64)> = (0..=20)
            .map(|i| {
                let f = f64::from(i) / 20.0;
                (depart + f * duration, f * 10.0, y)
            })
            .collect();
        Trajectory::from_txy(&pts).unwrap()
    }

    #[test]
    fn finds_the_time_shifted_twin() {
        // Candidate 0: same path, shifted +30. Candidate 1: simultaneous
        // but 2 units away. Plain MST would prefer candidate 1; the
        // time-relaxed query must prefer the shifted twin at shift ~30.
        let mut store = TrajectoryStore::new();
        store.insert(TrajectoryId(0), runner(0.0, 30.0, 20.0));
        store.insert(TrajectoryId(1), runner(2.0, 0.0, 20.0));
        let query = runner(0.0, 0.0, 20.0);

        let got = time_relaxed_kmst(&store, &query, &TimeRelaxedConfig::k(2)).unwrap();
        assert_eq!(got[0].traj, TrajectoryId(0));
        assert!(got[0].dissim < 1e-6, "twin dissim {}", got[0].dissim);
        assert!((got[0].shift - 30.0).abs() < 1e-3, "shift {}", got[0].shift);
        assert_eq!(got[1].traj, TrajectoryId(1));
        // Candidate 1 at its best shift is still ~2 away for 20 units.
        assert!((got[1].dissim - 40.0).abs() < 1.0);
    }

    #[test]
    fn zero_shift_when_already_aligned() {
        let mut store = TrajectoryStore::new();
        store.insert(TrajectoryId(0), runner(1.0, 0.0, 20.0));
        let query = runner(0.0, 0.0, 20.0);
        let got = time_relaxed_kmst(&store, &query, &TimeRelaxedConfig::k(1)).unwrap();
        // Only one feasible shift (equal durations): d = 0.
        assert_eq!(got[0].shift, 0.0);
        assert!((got[0].dissim - 20.0).abs() < 1e-9);
    }

    #[test]
    fn skips_candidates_too_short_to_host_the_query() {
        let mut store = TrajectoryStore::new();
        store.insert(TrajectoryId(0), runner(0.0, 0.0, 5.0)); // too short
        store.insert(TrajectoryId(1), runner(3.0, 10.0, 60.0));
        let query = runner(0.0, 0.0, 20.0);
        let got = time_relaxed_kmst(&store, &query, &TimeRelaxedConfig::k(5)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].traj, TrajectoryId(1));
    }

    #[test]
    fn relaxed_dissim_never_exceeds_aligned_dissim() {
        // For every candidate covering the query's own period, the relaxed
        // minimum is at most the aligned (shift considered includes values
        // near 0 when feasible) — check on a small zoo.
        let mut store = TrajectoryStore::new();
        for i in 0..4u64 {
            store.insert(TrajectoryId(i), runner(i as f64, -10.0, 60.0));
        }
        let query = runner(0.5, 0.0, 20.0);
        let period = query.time();
        let relaxed = time_relaxed_kmst(&store, &query, &TimeRelaxedConfig::k(4)).unwrap();
        for m in &relaxed {
            let t = store.get(m.traj).unwrap();
            let aligned =
                crate::dissim::dissim_exact(&query, &t.clip(&period).unwrap(), &period).unwrap();
            assert!(
                m.dissim <= aligned + 1e-6,
                "relaxed {} > aligned {aligned} for {}",
                m.dissim,
                m.traj
            );
        }
    }

    #[test]
    fn k_zero_returns_empty() {
        let mut store = TrajectoryStore::new();
        store.insert(TrajectoryId(0), runner(0.0, 0.0, 20.0));
        let query = runner(0.0, 0.0, 10.0);
        let got = time_relaxed_kmst(&store, &query, &TimeRelaxedConfig::k(0)).unwrap();
        assert!(got.is_empty());
    }
}
