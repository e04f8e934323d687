use crate::{Mbb, Point, Result, SamplePoint, TimeInterval, TrajectoryError};

/// A moving point between two consecutive trajectory samples.
///
/// The object is assumed to move linearly (constant velocity) from
/// `start` to `end`; this is the standard linear-interpolation model of
/// moving-object databases and the model the ICDE'07 paper's kinematics
/// (Section 3) are derived under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    start: SamplePoint,
    end: SamplePoint,
}

impl Segment {
    /// Creates a segment, requiring `start.t < end.t` and finite samples.
    #[inline]
    pub fn new(start: SamplePoint, end: SamplePoint) -> Result<Self> {
        if !start.is_finite() {
            return Err(TrajectoryError::NonFinite { index: 0 });
        }
        if !end.is_finite() {
            return Err(TrajectoryError::NonFinite { index: 1 });
        }
        if start.t >= end.t {
            return Err(TrajectoryError::NonMonotonicTime {
                index: 1,
                prev: start.t,
                next: end.t,
            });
        }
        Ok(Segment { start, end })
    }

    /// The sample at which the segment begins.
    #[inline]
    pub const fn start(&self) -> SamplePoint {
        self.start
    }

    /// The sample at which the segment ends.
    #[inline]
    pub const fn end(&self) -> SamplePoint {
        self.end
    }

    /// The temporal extent `[start.t, end.t]`.
    #[inline]
    pub fn time(&self) -> TimeInterval {
        // invariant: Segment::new rejects end.t <= start.t and non-finite
        TimeInterval::new(self.start.t, self.end.t).expect("segment construction validated times")
    }

    /// Duration of the segment.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end.t - self.start.t
    }

    /// The (constant) velocity vector of the moving point.
    #[inline]
    pub fn velocity(&self) -> (f64, f64) {
        let dt = self.duration();
        (
            (self.end.x - self.start.x) / dt,
            (self.end.y - self.start.y) / dt,
        )
    }

    /// The (constant) speed of the moving point.
    #[inline]
    pub fn speed(&self) -> f64 {
        let (vx, vy) = self.velocity();
        (vx * vx + vy * vy).sqrt()
    }

    /// Spatial length travelled over the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.start.position().distance(&self.end.position())
    }

    /// Position of the moving point at time `t` (linear interpolation).
    ///
    /// Returns an error when `t` is outside the segment's temporal extent.
    pub fn position_at(&self, t: f64) -> Result<Point> {
        if t < self.start.t || t > self.end.t {
            return Err(TrajectoryError::OutOfRange {
                t,
                valid: (self.start.t, self.end.t),
            });
        }
        Ok(self.position_at_unchecked(t))
    }

    /// Position at time `t` without the range check; `t` outside the segment
    /// extrapolates linearly. Callers inside this workspace use it only after
    /// clipping.
    #[inline]
    pub fn position_at_unchecked(&self, t: f64) -> Point {
        let f = (t - self.start.t) / (self.end.t - self.start.t);
        Point::new(
            self.start.x + f * (self.end.x - self.start.x),
            self.start.y + f * (self.end.y - self.start.y),
        )
    }

    /// The sample point at time `t` (position + timestamp).
    pub fn sample_at(&self, t: f64) -> Result<SamplePoint> {
        let p = self.position_at(t)?;
        Ok(SamplePoint::new(t, p.x, p.y))
    }

    /// Restricts the segment to `interval`, interpolating new endpoints.
    ///
    /// Returns `None` when the overlap is empty *or* a single instant (a
    /// zero-duration segment is not a valid [`Segment`]).
    #[inline]
    pub fn clip(&self, interval: &TimeInterval) -> Option<Segment> {
        let overlap = self.time().intersect(interval)?;
        if overlap.is_instant() {
            return None;
        }
        let s = if overlap.start() == self.start.t {
            self.start
        } else {
            let p = self.position_at_unchecked(overlap.start());
            SamplePoint::new(overlap.start(), p.x, p.y)
        };
        let e = if overlap.end() == self.end.t {
            self.end
        } else {
            let p = self.position_at_unchecked(overlap.end());
            SamplePoint::new(overlap.end(), p.x, p.y)
        };
        Some(Segment { start: s, end: e })
    }

    /// The 3D minimum bounding box of the segment.
    pub fn mbb(&self) -> Mbb {
        Mbb::new(
            self.start.x.min(self.end.x),
            self.start.y.min(self.end.y),
            self.start.t,
            self.start.x.max(self.end.x),
            self.start.y.max(self.end.y),
            self.end.t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(t0: f64, x0: f64, y0: f64, t1: f64, x1: f64, y1: f64) -> Segment {
        Segment::new(SamplePoint::new(t0, x0, y0), SamplePoint::new(t1, x1, y1)).unwrap()
    }

    #[test]
    fn rejects_zero_or_negative_duration() {
        let p = SamplePoint::new(1.0, 0.0, 0.0);
        let q = SamplePoint::new(1.0, 1.0, 1.0);
        assert!(Segment::new(p, q).is_err());
        let r = SamplePoint::new(0.5, 1.0, 1.0);
        assert!(Segment::new(p, r).is_err());
    }

    #[test]
    fn rejects_non_finite() {
        let p = SamplePoint::new(0.0, f64::NAN, 0.0);
        let q = SamplePoint::new(1.0, 1.0, 1.0);
        assert!(Segment::new(p, q).is_err());
    }

    #[test]
    fn interpolation_midpoint() {
        let s = seg(0.0, 0.0, 0.0, 2.0, 4.0, -2.0);
        let m = s.position_at(1.0).unwrap();
        assert_eq!(m, Point::new(2.0, -1.0));
        assert_eq!(s.position_at(0.0).unwrap(), Point::new(0.0, 0.0));
        assert_eq!(s.position_at(2.0).unwrap(), Point::new(4.0, -2.0));
        assert!(s.position_at(2.5).is_err());
    }

    #[test]
    fn velocity_speed_length() {
        let s = seg(0.0, 0.0, 0.0, 2.0, 6.0, 8.0);
        assert_eq!(s.velocity(), (3.0, 4.0));
        assert_eq!(s.speed(), 5.0);
        assert_eq!(s.length(), 10.0);
        assert_eq!(s.duration(), 2.0);
    }

    #[test]
    fn clip_inside_and_outside() {
        let s = seg(0.0, 0.0, 0.0, 10.0, 10.0, 0.0);
        let c = s
            .clip(&TimeInterval::new(2.0, 4.0).unwrap())
            .expect("overlap exists");
        assert_eq!(c.start(), SamplePoint::new(2.0, 2.0, 0.0));
        assert_eq!(c.end(), SamplePoint::new(4.0, 4.0, 0.0));
        // Disjoint interval.
        assert!(s.clip(&TimeInterval::new(11.0, 12.0).unwrap()).is_none());
        // Instant overlap yields no segment.
        assert!(s.clip(&TimeInterval::new(10.0, 12.0).unwrap()).is_none());
        // Covering interval returns the segment unchanged.
        let full = s.clip(&TimeInterval::new(-5.0, 15.0).unwrap()).unwrap();
        assert_eq!(full, s);
    }

    #[test]
    fn clip_preserves_exact_endpoints() {
        // Clipping at existing endpoints must not perturb them (BFMST's
        // completeness check relies on pieces tiling exactly).
        let s = seg(0.0, 0.3, 0.7, 1.0, 0.9, 0.1);
        let c = s.clip(&TimeInterval::new(0.0, 1.0).unwrap()).unwrap();
        assert_eq!(c.start(), s.start());
        assert_eq!(c.end(), s.end());
    }

    #[test]
    fn mbb_covers_segment() {
        let s = seg(1.0, 5.0, -1.0, 3.0, 2.0, 4.0);
        let b = s.mbb();
        assert_eq!(b, Mbb::new(2.0, -1.0, 1.0, 5.0, 4.0, 3.0));
    }
}
