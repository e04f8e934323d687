//! Kinematics of two linearly moving points.
//!
//! Over a common time interval where both objects move with constant
//! velocities, their Euclidean distance is `D(t) = sqrt(a t^2 + b t + c)`
//! with `a >= 0` and a non-negative discriminant condition `4ac - b^2 >= 0`
//! (distances are real). The ICDE'07 paper integrates `D(t)` per co-sampled
//! interval to obtain DISSIM (Definition 1), approximates the integral with
//! the trapezoid rule (Lemma 1), and bounds the approximation error via the
//! second derivative of `D`.
//!
//! All evaluations here use a *relative* time variable `tau = t - origin`
//! (with `origin` the interval start) to keep the trinomial coefficients
//! well-conditioned even when absolute timestamps are large.

use crate::{float, Result, Segment, TrajectoryError};

/// Relative tolerance used to decide degenerate cases (`a == 0`,
/// discriminant `== 0`).
const EPS: f64 = 1e-12;

/// The squared-distance trinomial between two linearly moving points:
/// `D(origin + tau) = sqrt(a*tau^2 + b*tau + c)`.
///
/// ```
/// use mst_trajectory::{Segment, SamplePoint};
/// use mst_trajectory::kinematics::DistanceTrinomial;
///
/// // Two objects crossing head-on: distance dips to zero at t = 1.
/// let p = Segment::new(SamplePoint::new(0.0, 0.0, 0.0), SamplePoint::new(2.0, 2.0, 0.0))?;
/// let q = Segment::new(SamplePoint::new(0.0, 2.0, 0.0), SamplePoint::new(2.0, 0.0, 0.0))?;
/// let d = DistanceTrinomial::between(&p, &q)?;
/// assert!((d.eval(0.0) - 2.0).abs() < 1e-12);
/// assert!(d.eval(1.0) < 1e-9);
/// // Exact integral (two unit triangles of height 2) vs the trapezoid rule:
/// assert!((d.integral_exact(0.0, 2.0) - 2.0).abs() < 1e-9);
/// let trap = d.integral_trapezoid(0.0, 2.0);
/// let err = d.trapezoid_error_bound(0.0, 2.0);
/// assert!(trap - err <= 2.0 && 2.0 <= trap);
/// # Ok::<(), mst_trajectory::TrajectoryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceTrinomial {
    /// Quadratic coefficient: squared norm of the relative velocity.
    a: f64,
    /// Linear coefficient: `2 * (relative position . relative velocity)`.
    b: f64,
    /// Constant coefficient: squared distance at `tau = 0`.
    c: f64,
    /// Absolute time corresponding to `tau = 0`.
    origin: f64,
}

impl DistanceTrinomial {
    /// Builds the trinomial for two segments that span the *same* time
    /// interval (co-sampled pieces produced by [`crate::cosample`]).
    #[inline]
    pub fn between(p: &Segment, q: &Segment) -> Result<Self> {
        let pt = p.time();
        let qt = q.time();
        if pt.start() != qt.start() || pt.end() != qt.end() {
            return Err(TrajectoryError::MisalignedSegments {
                first: (pt.start(), pt.end()),
                second: (qt.start(), qt.end()),
            });
        }
        let origin = pt.start();
        let dx = p.start().x - q.start().x;
        let dy = p.start().y - q.start().y;
        let (pvx, pvy) = p.velocity();
        let (qvx, qvy) = q.velocity();
        let dvx = pvx - qvx;
        let dvy = pvy - qvy;
        let a = dvx * dvx + dvy * dvy;
        let b = 2.0 * (dx * dvx + dy * dvy);
        let c = dx * dx + dy * dy;
        Ok(DistanceTrinomial { a, b, c, origin })
    }

    /// Builds a trinomial directly from coefficients (relative to `origin`).
    /// Intended for tests and synthetic scenarios; coefficients must describe
    /// a real distance (`a >= 0`, `a*tau^2 + b*tau + c >= 0` on the domain of
    /// interest).
    pub fn from_coefficients(a: f64, b: f64, c: f64, origin: f64) -> Self {
        DistanceTrinomial { a, b, c, origin }
    }

    /// Quadratic coefficient `a` (squared relative speed).
    #[inline]
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Linear coefficient `b`.
    #[inline]
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Constant coefficient `c` (squared distance at the origin).
    #[inline]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The discriminant-like quantity `4ac - b^2` (non-negative for real
    /// distance functions, clamped at zero against floating-point noise).
    #[inline]
    pub fn disc(&self) -> f64 {
        (4.0 * self.a * self.c - self.b * self.b).max(0.0)
    }

    /// Distance at absolute time `t`.
    #[inline]
    pub fn eval(&self, t: f64) -> f64 {
        let tau = t - self.origin;
        ((self.a * tau + self.b) * tau + self.c).max(0.0).sqrt()
    }

    /// Absolute time at which the distance is minimal (`-b / 2a`), or `None`
    /// when the relative velocity is (numerically) zero and the distance is
    /// constant.
    pub fn vertex_time(&self) -> Option<f64> {
        if self.is_constant() {
            None
        } else {
            Some(self.origin - self.b / (2.0 * self.a))
        }
    }

    /// True when the distance function is (numerically) constant: the paper
    /// notes `a = 0` implies `b = 0` — a zero relative velocity freezes the
    /// distance.
    #[inline]
    pub fn is_constant(&self) -> bool {
        // Purely relative test: all three coefficients scale with the square
        // of the coordinate unit, so the verdict is the same in a unit square
        // and a 1000 x 1000 world. Identical motion at zero distance (all
        // zero) is constant by `<=`.
        self.a <= EPS * (self.a + self.b.abs() + self.c)
    }

    /// Exact definite integral of `D(t)` over `[u, v]` (absolute times),
    /// using the closed form of Meratnia & By quoted in the paper:
    ///
    /// `∫ D = (2at+b)/(4a) * D(t) + (4ac-b^2)/(8a^{3/2}) * asinh((2at+b)/sqrt(4ac-b^2))`
    ///
    /// with the two degenerate branches handled exactly:
    /// * `a = 0` (constant distance `sqrt(c)`);
    /// * `4ac - b^2 = 0` (the objects' paths cross: `D` is a piecewise-linear
    ///   "V", integrated in closed form around the vertex).
    pub fn integral_exact(&self, u: f64, v: f64) -> f64 {
        debug_assert!(u <= v);
        if u == v {
            return 0.0;
        }
        if self.is_constant() {
            return self.c.max(0.0).sqrt() * (v - u);
        }
        let a = self.a;
        let disc = 4.0 * a * self.c - self.b * self.b;
        let tu = u - self.origin;
        let tv = v - self.origin;
        // Relative discriminant threshold: disc has units of a*c, so compare
        // against that scale and nothing absolute. A floor here would call a
        // near-parallel pair in small coordinates "crossing" and integrate a
        // V through zero where the distance never leaves sqrt(c).
        let scale = (4.0 * a * self.c.abs()).max(self.b * self.b);
        if disc <= EPS * scale {
            // D(tau) = sqrt(a) * |tau + b/(2a)|: integrate the absolute
            // linear function analytically.
            let h = self.b / (2.0 * a);
            let sa = a.sqrt();
            let anti = |tau: f64| {
                let s = tau + h;
                0.5 * sa * s * s.abs()
            };
            return anti(tv) - anti(tu);
        }
        let sd = disc.sqrt();
        let anti = |tau: f64| {
            let d = ((a * tau + self.b) * tau + self.c).max(0.0).sqrt();
            let w = 2.0 * a * tau + self.b;
            w / (4.0 * a) * d + disc / (8.0 * a * a.sqrt()) * (w / sd).asinh()
        };
        anti(tv) - anti(tu)
    }

    /// Trapezoid-rule approximation of the integral over `[u, v]`
    /// (Lemma 1): `(D(u) + D(v)) * (v - u) / 2`.
    #[inline]
    pub fn integral_trapezoid(&self, u: f64, v: f64) -> f64 {
        debug_assert!(u <= v);
        0.5 * (self.eval(u) + self.eval(v)) * (v - u)
    }

    /// Second derivative of `D` at absolute time `t`:
    /// `D''(t) = (4ac - b^2) / (4 (a t^2 + b t + c)^{3/2})`.
    ///
    /// `D` is convex (`D'' >= 0`) wherever it is defined, which is why the
    /// trapezoid rule *over*-estimates the integral.
    pub fn second_derivative(&self, t: f64) -> f64 {
        let tau = t - self.origin;
        let q = ((self.a * tau + self.b) * tau + self.c).max(0.0);
        if float::exactly_zero(q) {
            return f64::INFINITY;
        }
        self.disc() / (4.0 * q * q.sqrt())
    }

    /// Lemma 1 bound on the trapezoid error over `[u, v]`:
    /// `E <= (v-u)^3 / 12 * max D''`, where the maximum of `D''` is attained
    /// at the vertex `-b/2a` when it lies inside the interval, and at the
    /// interval endpoint closest to the vertex otherwise (the paper's three
    /// cases).
    ///
    /// When the Lemma 1 bound degenerates (the vertex distance approaches
    /// zero and `D''` blows up), the implementation falls back to the
    /// always-sound convexity bound `trapezoid - midpoint_rule`, which
    /// sandwiches the exact integral of any convex integrand.
    #[inline]
    pub fn trapezoid_error_bound(&self, u: f64, v: f64) -> f64 {
        debug_assert!(u <= v);
        if u == v || self.is_constant() {
            return 0.0;
        }
        let h = v - u;
        let d2 = match self.vertex_time() {
            Some(tv) if tv >= u && tv <= v => self.second_derivative(tv),
            Some(tv) if tv > v => self.second_derivative(v),
            Some(_) => self.second_derivative(u),
            None => 0.0,
        };
        let lemma1 = h * h * h / 12.0 * d2;
        if lemma1.is_finite() {
            // The convexity sandwich is often tighter near the vertex; both
            // bounds are sound, so take the smaller.
            lemma1.min(self.convexity_error_bound(u, v))
        } else {
            self.convexity_error_bound(u, v)
        }
    }

    /// Minimum of `D` over the absolute-time interval `[u, v]`, together
    /// with the time at which it is attained: the trinomial's vertex when it
    /// falls inside the interval, otherwise the nearer endpoint. Used by
    /// nearest-neighbour queries (closest approach of two moving points).
    pub fn min_on(&self, u: f64, v: f64) -> (f64, f64) {
        debug_assert!(u <= v);
        let at = |t: f64| (self.eval(t), t);
        let (du, dv) = (at(u), at(v));
        let mut best = if du.0 <= dv.0 { du } else { dv };
        if let Some(tv) = self.vertex_time() {
            if tv > u && tv < v {
                let dm = at(tv);
                if dm.0 < best.0 {
                    best = dm;
                }
            }
        }
        best
    }

    /// The convexity sandwich bound: for convex `D`,
    /// `midpoint_rule <= exact <= trapezoid`, hence the trapezoid error is at
    /// most `trapezoid - midpoint_rule`. Always finite and sound.
    pub fn convexity_error_bound(&self, u: f64, v: f64) -> f64 {
        let trap = self.integral_trapezoid(u, v);
        let mid = self.eval(0.5 * (u + v)) * (v - u);
        (trap - mid).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplePoint;

    fn seg(t0: f64, x0: f64, y0: f64, t1: f64, x1: f64, y1: f64) -> Segment {
        Segment::new(SamplePoint::new(t0, x0, y0), SamplePoint::new(t1, x1, y1)).unwrap()
    }

    /// Adaptive Simpson quadrature as an independent oracle for integrals.
    fn simpson<F: Fn(f64) -> f64 + Copy>(f: F, u: f64, v: f64, depth: u32) -> f64 {
        let m = 0.5 * (u + v);
        let s = |a: f64, b: f64| (b - a) / 6.0 * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b));
        let whole = s(u, v);
        let halves = s(u, m) + s(m, v);
        if depth == 0 || (whole - halves).abs() < 1e-13 {
            halves
        } else {
            simpson(f, u, m, depth - 1) + simpson(f, m, v, depth - 1)
        }
    }

    #[test]
    fn rejects_misaligned_segments() {
        let p = seg(0.0, 0.0, 0.0, 1.0, 1.0, 0.0);
        let q = seg(0.0, 0.0, 1.0, 2.0, 1.0, 1.0);
        assert!(DistanceTrinomial::between(&p, &q).is_err());
    }

    #[test]
    fn constant_distance_parallel_motion() {
        // Two objects moving identically, offset by 3 vertically.
        let p = seg(5.0, 0.0, 0.0, 7.0, 2.0, 2.0);
        let q = seg(5.0, 0.0, 3.0, 7.0, 2.0, 5.0);
        let d = DistanceTrinomial::between(&p, &q).unwrap();
        assert!(d.is_constant());
        assert!((d.eval(5.0) - 3.0).abs() < 1e-12);
        assert!((d.eval(6.3) - 3.0).abs() < 1e-12);
        assert!((d.integral_exact(5.0, 7.0) - 6.0).abs() < 1e-12);
        assert_eq!(d.trapezoid_error_bound(5.0, 7.0), 0.0);
        assert!(d.vertex_time().is_none());
    }

    #[test]
    fn head_on_crossing_has_v_shaped_distance() {
        // P walks right, Q walks left along the same line; they meet at t=1.
        let p = seg(0.0, 0.0, 0.0, 2.0, 2.0, 0.0);
        let q = seg(0.0, 2.0, 0.0, 2.0, 0.0, 0.0);
        let d = DistanceTrinomial::between(&p, &q).unwrap();
        assert!((d.eval(0.0) - 2.0).abs() < 1e-12);
        assert!(d.eval(1.0).abs() < 1e-9);
        assert!((d.eval(2.0) - 2.0).abs() < 1e-12);
        assert_eq!(d.vertex_time(), Some(1.0));
        // Two triangles of base 1, height 2 -> area 2.
        assert!((d.integral_exact(0.0, 2.0) - 2.0).abs() < 1e-10);
    }

    #[test]
    fn exact_integral_matches_simpson_oracle() {
        let cases = [
            // Generic skew passing motion.
            (
                seg(0.0, 0.0, 0.0, 4.0, 4.0, 1.0),
                seg(0.0, 3.0, -2.0, 4.0, -1.0, 2.0),
            ),
            // Diverging motion.
            (
                seg(10.0, 1.0, 1.0, 12.0, 5.0, 1.0),
                seg(10.0, 1.0, 1.5, 12.0, -3.0, 2.0),
            ),
            // One object parked.
            (
                seg(-2.0, 0.0, 0.0, 3.0, 0.0, 0.0),
                seg(-2.0, 4.0, 4.0, 3.0, -4.0, -4.0),
            ),
        ];
        for (p, q) in cases {
            let d = DistanceTrinomial::between(&p, &q).unwrap();
            let (u, v) = (p.time().start(), p.time().end());
            let oracle = simpson(|t| d.eval(t), u, v, 30);
            let exact = d.integral_exact(u, v);
            assert!(
                (exact - oracle).abs() < 1e-8 * (1.0 + oracle.abs()),
                "exact={exact} oracle={oracle}"
            );
        }
    }

    #[test]
    fn trapezoid_overestimates_convex_distance() {
        let p = seg(0.0, 0.0, 0.0, 4.0, 4.0, 1.0);
        let q = seg(0.0, 3.0, -2.0, 4.0, -1.0, 2.0);
        let d = DistanceTrinomial::between(&p, &q).unwrap();
        let exact = d.integral_exact(0.0, 4.0);
        let trap = d.integral_trapezoid(0.0, 4.0);
        assert!(trap >= exact);
    }

    #[test]
    fn lemma1_bound_dominates_true_error() {
        // Sweep a family of motions; the bound must always cover the true
        // trapezoid error, in all three vertex-position cases of Lemma 1.
        let motions = [
            // Vertex inside the interval.
            (
                seg(0.0, 0.0, 0.0, 2.0, 2.0, 0.0),
                seg(0.0, 1.5, 1.0, 2.0, 0.5, 1.0),
            ),
            // Vertex to the right of the interval (approaching only).
            (
                seg(0.0, 0.0, 0.0, 1.0, 0.4, 0.0),
                seg(0.0, 5.0, 0.0, 1.0, 4.0, 0.0),
            ),
            // Vertex to the left of the interval (diverging only).
            (
                seg(0.0, 0.0, 0.0, 1.0, 1.0, 0.0),
                seg(0.0, -3.0, 0.0, 1.0, -5.0, 0.0),
            ),
        ];
        for (p, q) in motions {
            let d = DistanceTrinomial::between(&p, &q).unwrap();
            let (u, v) = (p.time().start(), p.time().end());
            let exact = d.integral_exact(u, v);
            let trap = d.integral_trapezoid(u, v);
            let bound = d.trapezoid_error_bound(u, v);
            let err = (trap - exact).abs();
            assert!(
                err <= bound + 1e-12,
                "err={err} bound={bound} for {:?}",
                (p, q)
            );
        }
    }

    #[test]
    fn error_bound_finite_even_at_touching_paths() {
        // Paths that touch (distance reaches exactly 0): the Lemma 1 bound
        // diverges, the convexity fallback must keep the bound finite & sound.
        let p = seg(0.0, 0.0, 0.0, 2.0, 2.0, 0.0);
        let q = seg(0.0, 2.0, 0.0, 2.0, 0.0, 0.0);
        let d = DistanceTrinomial::between(&p, &q).unwrap();
        let bound = d.trapezoid_error_bound(0.0, 2.0);
        assert!(bound.is_finite());
        let err = d.integral_trapezoid(0.0, 2.0) - d.integral_exact(0.0, 2.0);
        assert!(err.abs() <= bound + 1e-12);
    }

    #[test]
    fn near_parallel_pair_at_unit_square_scale_is_not_a_crossing() {
        // GSTD's native scale: two objects 0.053 apart whose velocities
        // differ by 7e-6 a step (S0250 x 500, objects 72 and 5 at step 301).
        // `4ac - b^2` is 5.7e-13 — small in absolute terms, five orders of
        // magnitude above zero relative to `4ac`.
        let d = DistanceTrinomial::from_coefficients(5.1e-11, 1.7e-8, 2.8e-3, 0.0);
        assert!(!d.is_constant());
        let exact = d.integral_exact(0.0, 1.0);
        let oracle = simpson(|t| d.eval(t), 0.0, 1.0, 30);
        assert!(
            (exact - oracle).abs() < 1e-9 * oracle,
            "exact={exact} oracle={oracle}"
        );
        assert!((exact - 0.0530).abs() < 1e-3, "exact={exact}");
    }

    #[test]
    fn exact_integral_lies_in_the_lemma1_interval_at_every_coordinate_scale() {
        // The same near-parallel and skew motions in a 1e-3, unit and 1e3
        // wide world: the bounds that prune and the closed form that ranks
        // must agree, whatever unit the coordinates are in.
        let motions = [
            ((0.5, 0.5, 0.5005, 0.5), (0.5, 0.5529, 0.500507, 0.552901)),
            ((0.1, 0.1, 0.4, 0.2), (0.3, 0.0, 0.0, 0.3)),
        ];
        for scale in [1e-3, 1.0, 1e3] {
            for ((px0, py0, px1, py1), (qx0, qy0, qx1, qy1)) in motions {
                let p = seg(0.0, px0 * scale, py0 * scale, 1.0, px1 * scale, py1 * scale);
                let q = seg(0.0, qx0 * scale, qy0 * scale, 1.0, qx1 * scale, qy1 * scale);
                let d = DistanceTrinomial::between(&p, &q).unwrap();
                let exact = d.integral_exact(0.0, 1.0);
                let trap = d.integral_trapezoid(0.0, 1.0);
                let bound = d.trapezoid_error_bound(0.0, 1.0);
                let slack = 1e-12 * trap;
                assert!(
                    trap - bound - slack <= exact && exact <= trap + slack,
                    "scale={scale}: exact={exact} outside [{}, {trap}]",
                    trap - bound
                );
            }
        }
    }

    #[test]
    fn integral_is_additive() {
        let p = seg(0.0, 0.0, 0.0, 4.0, 4.0, 1.0);
        let q = seg(0.0, 3.0, -2.0, 4.0, -1.0, 2.0);
        let d = DistanceTrinomial::between(&p, &q).unwrap();
        let whole = d.integral_exact(0.0, 4.0);
        let parts = d.integral_exact(0.0, 1.3) + d.integral_exact(1.3, 4.0);
        assert!((whole - parts).abs() < 1e-10);
    }

    #[test]
    fn large_absolute_timestamps_stay_well_conditioned() {
        // Same geometry as `exact_integral_matches_simpson_oracle` case 1 but
        // shifted 1e9 seconds into the future: the relative-time origin must
        // keep results identical.
        let shift = 1.0e9;
        let p1 = seg(0.0, 0.0, 0.0, 4.0, 4.0, 1.0);
        let q1 = seg(0.0, 3.0, -2.0, 4.0, -1.0, 2.0);
        let p2 = seg(shift, 0.0, 0.0, shift + 4.0, 4.0, 1.0);
        let q2 = seg(shift, 3.0, -2.0, shift + 4.0, -1.0, 2.0);
        let d1 = DistanceTrinomial::between(&p1, &q1).unwrap();
        let d2 = DistanceTrinomial::between(&p2, &q2).unwrap();
        let i1 = d1.integral_exact(0.0, 4.0);
        let i2 = d2.integral_exact(shift, shift + 4.0);
        assert!((i1 - i2).abs() < 1e-9 * (1.0 + i1.abs()));
    }
}
