//! The DISSIM metric (Definition 1) and its trapezoid approximation
//! (Lemma 1).
//!
//! `DISSIM(Q, T) = ∫ D_{Q,T}(t) dt` over a period both trajectories cover,
//! where `D_{Q,T}` is the Euclidean distance between the two moving points.
//! The integration domain is cut at the union of both sample sets (see
//! [`mst_trajectory::cosample`]); inside each piece the distance is a single
//! trinomial `sqrt(a t^2 + b t + c)` integrated either exactly (arcsinh
//! closed form) or with the trapezoid rule plus Lemma 1's error bound.
//!
//! The trapezoid value is a *one-sided* approximation: the distance function
//! is convex on every piece, so `exact ∈ [approx - error, approx]`. The
//! search exploits both sides.

use mst_trajectory::cosample::CoSegments;
use mst_trajectory::kinematics::DistanceTrinomial;
use mst_trajectory::{Segment, TimeInterval, Trajectory};

use crate::Result;

/// How the per-piece integral is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integration {
    /// Closed-form integral (arcsinh); `error == 0`.
    Exact,
    /// Trapezoid rule with the Lemma 1 error bound (the paper's default —
    /// much cheaper, soundness restored via error management).
    #[default]
    Trapezoid,
}

/// A dissimilarity value with its accumulated approximation error bound.
///
/// Invariant: the exact DISSIM lies in `[approx - error, approx]` (the
/// trapezoid rule over-estimates convex integrands).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dissim {
    /// The computed (possibly approximate) value.
    pub approx: f64,
    /// Upper bound on `approx - exact` (zero in exact mode).
    pub error: f64,
}

impl Dissim {
    /// The zero dissimilarity.
    pub fn zero() -> Self {
        Dissim::default()
    }

    /// Lower end of the enclosure: `approx - error`.
    pub fn lower(&self) -> f64 {
        self.approx - self.error
    }

    /// Upper end of the enclosure (the approx value itself).
    pub fn upper(&self) -> f64 {
        self.approx
    }

    /// Accumulates another piece.
    pub fn add(&mut self, other: Dissim) {
        self.approx += other.approx;
        self.error += other.error;
    }
}

/// The contribution of one co-temporal segment pair: the integral enclosure
/// plus the endpoint distances, which the gap bounds (OPTDISSIM/PESDISSIM)
/// need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Piece {
    /// The piece's time interval.
    pub interval: TimeInterval,
    /// Integral value over the interval.
    pub value: Dissim,
    /// Distance between the objects at the interval start.
    pub d_start: f64,
    /// Distance between the objects at the interval end.
    pub d_end: f64,
}

/// Evaluates one co-temporal segment pair (both segments must span the same
/// interval).
#[inline]
pub fn piece(q: &Segment, t: &Segment, integration: Integration) -> Result<Piece> {
    let tri = DistanceTrinomial::between(q, t)?;
    let iv = q.time();
    let (u, v) = (iv.start(), iv.end());
    let value = match integration {
        Integration::Exact => Dissim {
            approx: tri.integral_exact(u, v),
            error: 0.0,
        },
        Integration::Trapezoid => Dissim {
            approx: tri.integral_trapezoid(u, v),
            error: tri.trapezoid_error_bound(u, v),
        },
    };
    Ok(Piece {
        interval: iv,
        value,
        d_start: tri.eval(u),
        d_end: tri.eval(v),
    })
}

/// Visits the co-temporal pieces of the query `q` and one indexed segment
/// over `window` (inside both; positive duration) in temporal order, as
/// `(query piece, data piece)` clipped to the same interval — the one piece
/// walk under BFMST's leaf sweep and the nearest-neighbour search.
///
/// `cursor` is a query segment starting at or before the window does;
/// returns the segment the window starts in, the cursor for the next window
/// of a sweep whose windows start in non-decreasing order.
#[inline]
pub(crate) fn for_each_co_piece(
    q: &Trajectory,
    cursor: usize,
    data_segment: &Segment,
    window: &TimeInterval,
    mut visit: impl FnMut(&Segment, &Segment) -> Result<()>,
) -> Result<usize> {
    let first = q.segment_index_from(cursor, window.start());
    debug_assert_eq!(Ok(first), q.segment_index_at(window.start()), "{window}");
    for i in first..q.num_segments() {
        let q_seg = q.segment(i);
        if q_seg.time().start() >= window.end() {
            break;
        }
        let Some(sub) = q_seg.time().intersect(window) else {
            continue;
        };
        if sub.is_instant() {
            continue;
        }
        // `sub` has positive duration and lies inside both segments'
        // spans, so both clips succeed; a failed clip means the caller
        // handed us an inconsistent window, and skipping the piece keeps
        // the accumulated distance a sound lower bound.
        let (Some(qs), Some(ds)) = (q_seg.clip(&sub), data_segment.clip(&sub)) else {
            debug_assert!(false, "window {sub:?} escaped the overlapping segments");
            continue;
        };
        visit(&qs, &ds)?;
    }
    Ok(first)
}

/// DISSIM between two trajectories over `period`, with the chosen
/// integration scheme. Both trajectories must cover the period.
///
/// ```
/// use mst_search::dissim::{dissim_between, dissim_exact, Integration};
/// use mst_trajectory::{Trajectory, TimeInterval};
///
/// // Two parallel movers 3 apart for 10 time units: DISSIM = 30.
/// let a = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)])?;
/// let b = Trajectory::from_txy(&[(0.0, 0.0, 3.0), (10.0, 10.0, 3.0)])?;
/// let period = TimeInterval::new(0.0, 10.0)?;
/// let exact = dissim_exact(&a, &b, &period)?;
/// assert!((exact - 30.0).abs() < 1e-9);
/// // The trapezoid enclosure always contains the exact value.
/// let approx = dissim_between(&a, &b, &period, Integration::Trapezoid)?;
/// assert!(approx.lower() <= exact && exact <= approx.upper());
/// # Ok::<(), mst_search::SearchError>(())
/// ```
pub fn dissim_between(
    a: &Trajectory,
    b: &Trajectory,
    period: &TimeInterval,
    integration: Integration,
) -> Result<Dissim> {
    dissim_between_traced(a, b, period, integration, &mut crate::metrics::NoopSink)
}

/// [`dissim_between`] with observability: every per-piece integral
/// evaluation is reported to `metrics`. [`dissim_between`] is this function
/// instantiated with the no-op sink.
pub fn dissim_between_traced<M: crate::metrics::QueryMetrics>(
    a: &Trajectory,
    b: &Trajectory,
    period: &TimeInterval,
    integration: Integration,
    metrics: &mut M,
) -> Result<Dissim> {
    let mut total = Dissim::zero();
    for pair in CoSegments::new(a, b, period)? {
        let p = piece(&pair.first, &pair.second, integration)?;
        metrics.piece_eval(integration);
        total.add(p.value);
    }
    Ok(total)
}

/// Exact DISSIM between two trajectories over `period` (closed-form
/// integration; the ground truth every approximation is checked against).
pub fn dissim_exact(a: &Trajectory, b: &Trajectory, period: &TimeInterval) -> Result<f64> {
    Ok(dissim_between(a, b, period, Integration::Exact)?.approx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: f64, b: f64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn straight(x0: f64, y0: f64, x1: f64, y1: f64, n: usize) -> Trajectory {
        // n+1 samples from t=0 to t=10 along a straight line.
        let pts: Vec<(f64, f64, f64)> = (0..=n)
            .map(|i| {
                let f = i as f64 / n as f64;
                (10.0 * f, x0 + f * (x1 - x0), y0 + f * (y1 - y0))
            })
            .collect();
        Trajectory::from_txy(&pts).unwrap()
    }

    #[test]
    fn identical_trajectories_have_zero_dissim() {
        let t = straight(0.0, 0.0, 5.0, 3.0, 7);
        let d = dissim_exact(&t, &t, &iv(0.0, 10.0)).unwrap();
        assert!(d.abs() < 1e-12);
        let approx = dissim_between(&t, &t, &iv(0.0, 10.0), Integration::Trapezoid).unwrap();
        assert!(approx.approx.abs() < 1e-12);
    }

    #[test]
    fn parallel_lines_integrate_to_offset_times_duration() {
        let a = straight(0.0, 0.0, 10.0, 0.0, 4);
        let b = straight(0.0, 2.5, 10.0, 2.5, 4);
        let d = dissim_exact(&a, &b, &iv(0.0, 10.0)).unwrap();
        assert!((d - 25.0).abs() < 1e-10);
    }

    #[test]
    fn sampling_rate_does_not_change_dissim() {
        // The paper's Figure 1 motivation: the same movement sampled 4 vs 32
        // times must be equally (dis)similar under DISSIM.
        let coarse = straight(0.0, 0.0, 8.0, 6.0, 4);
        let fine = straight(0.0, 0.0, 8.0, 6.0, 32);
        let other = straight(1.0, 0.0, 9.0, 6.0, 10);
        let d_coarse = dissim_exact(&coarse, &other, &iv(0.0, 10.0)).unwrap();
        let d_fine = dissim_exact(&fine, &other, &iv(0.0, 10.0)).unwrap();
        assert!((d_coarse - d_fine).abs() < 1e-9);
        // And the coarse/fine pair are mutually identical in DISSIM terms.
        let self_d = dissim_exact(&coarse, &fine, &iv(0.0, 10.0)).unwrap();
        assert!(self_d.abs() < 1e-9);
    }

    #[test]
    fn dissim_is_symmetric() {
        let a = straight(0.0, 0.0, 7.0, -2.0, 5);
        let b = straight(3.0, 1.0, -1.0, 4.0, 9);
        let p = iv(0.0, 10.0);
        let ab = dissim_exact(&a, &b, &p).unwrap();
        let ba = dissim_exact(&b, &a, &p).unwrap();
        assert!((ab - ba).abs() < 1e-10);
    }

    #[test]
    fn dissim_satisfies_triangle_inequality_on_samples() {
        // DISSIM is the L1 norm (in time) of pointwise Euclidean distances,
        // so it inherits the triangle inequality.
        let a = straight(0.0, 0.0, 4.0, 4.0, 3);
        let b = straight(1.0, -1.0, 5.0, 2.0, 6);
        let c = straight(-2.0, 3.0, 0.0, 0.0, 4);
        let p = iv(0.0, 10.0);
        let ab = dissim_exact(&a, &b, &p).unwrap();
        let bc = dissim_exact(&b, &c, &p).unwrap();
        let ac = dissim_exact(&a, &c, &p).unwrap();
        assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn trapezoid_enclosure_contains_exact() {
        let a = straight(0.0, 0.0, 10.0, 5.0, 6);
        let b = straight(5.0, 8.0, -5.0, -3.0, 11);
        let p = iv(0.0, 10.0);
        let exact = dissim_exact(&a, &b, &p).unwrap();
        let approx = dissim_between(&a, &b, &p, Integration::Trapezoid).unwrap();
        assert!(exact <= approx.upper() + 1e-12);
        assert!(exact >= approx.lower() - 1e-12);
    }

    #[test]
    fn finer_sampling_tightens_the_trapezoid() {
        let other = straight(5.0, 8.0, -5.0, -3.0, 3);
        let p = iv(0.0, 10.0);
        let coarse = straight(0.0, 0.0, 10.0, 5.0, 2);
        let fine = straight(0.0, 0.0, 10.0, 5.0, 64);
        let e_coarse = dissim_between(&coarse, &other, &p, Integration::Trapezoid)
            .unwrap()
            .error;
        let e_fine = dissim_between(&fine, &other, &p, Integration::Trapezoid)
            .unwrap()
            .error;
        assert!(e_fine < e_coarse);
    }

    #[test]
    fn subperiod_dissim_is_smaller() {
        let a = straight(0.0, 0.0, 10.0, 0.0, 5);
        let b = straight(0.0, 3.0, 10.0, 3.0, 5);
        let full = dissim_exact(&a, &b, &iv(0.0, 10.0)).unwrap();
        let sub = dissim_exact(&a, &b, &iv(2.0, 5.0)).unwrap();
        assert!(sub < full);
        assert!((sub - 9.0).abs() < 1e-10); // 3 distance x 3 duration
    }

    #[test]
    fn piece_reports_endpoint_distances() {
        let q = Segment::new(
            mst_trajectory::SamplePoint::new(0.0, 0.0, 0.0),
            mst_trajectory::SamplePoint::new(2.0, 2.0, 0.0),
        )
        .unwrap();
        let t = Segment::new(
            mst_trajectory::SamplePoint::new(0.0, 0.0, 3.0),
            mst_trajectory::SamplePoint::new(2.0, 2.0, 4.0),
        )
        .unwrap();
        let p = piece(&q, &t, Integration::Exact).unwrap();
        assert!((p.d_start - 3.0).abs() < 1e-12);
        assert!((p.d_end - 4.0).abs() < 1e-12);
        assert_eq!(p.interval, iv(0.0, 2.0));
        assert_eq!(p.value.error, 0.0);
    }

    #[test]
    fn uncovered_period_errors() {
        let a = straight(0.0, 0.0, 1.0, 1.0, 3);
        let b = straight(0.0, 0.0, 1.0, 1.0, 3);
        assert!(dissim_exact(&a, &b, &iv(0.0, 20.0)).is_err());
    }
}
