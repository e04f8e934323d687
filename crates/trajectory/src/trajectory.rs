use crate::{Mbb, Point, Result, SamplePoint, Segment, TimeInterval, TrajectoryError};

/// A validated moving-object trajectory: at least two samples with strictly
/// increasing, finite timestamps and finite coordinates.
///
/// Between consecutive samples the object is assumed to move linearly
/// (see [`Segment`]). A trajectory is *valid* over `[first.t, last.t]`; its
/// position is undefined outside that period.
///
/// ```
/// use mst_trajectory::{Trajectory, TimeInterval, Point};
///
/// let t = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)])?;
/// assert_eq!(t.position_at(2.5)?, Point::new(2.5, 0.0));
/// let clipped = t.clip(&TimeInterval::new(2.0, 6.0)?)?;
/// assert_eq!(clipped.duration(), 4.0);
/// # Ok::<(), mst_trajectory::TrajectoryError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    points: Vec<SamplePoint>,
}

impl Trajectory {
    /// Builds a trajectory from samples, validating ordering and finiteness.
    pub fn new(points: Vec<SamplePoint>) -> Result<Self> {
        if points.len() < 2 {
            return Err(TrajectoryError::TooFewPoints { got: points.len() });
        }
        for (i, p) in points.iter().enumerate() {
            check_next(&points[..i], p)?;
        }
        Ok(Trajectory { points })
    }

    /// Convenience constructor from `(t, x, y)` triples.
    pub fn from_txy(samples: &[(f64, f64, f64)]) -> Result<Self> {
        Trajectory::new(
            samples
                .iter()
                .map(|&(t, x, y)| SamplePoint::new(t, x, y))
                .collect(),
        )
    }

    /// The samples of the trajectory, in temporal order.
    #[inline]
    pub fn points(&self) -> &[SamplePoint] {
        &self.points
    }

    /// The segment a further sample `p` would add, with `p` validated as
    /// [`Trajectory::new`] would (errors carry its position in the stream).
    pub fn next_segment(&self, p: SamplePoint) -> Result<Segment> {
        check_next(&self.points, &p)?;
        Segment::new(self.points[self.points.len() - 1], p)
    }

    /// Extends the trajectory in place by one later sample (a streaming
    /// position report). A refused sample leaves the trajectory as it was.
    pub fn push(&mut self, p: SamplePoint) -> Result<()> {
        check_next(&self.points, &p)?;
        self.points.push(p);
        Ok(())
    }

    /// Number of samples.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Number of line segments (`num_points - 1`).
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.points.len() - 1
    }

    /// First timestamp.
    #[inline]
    pub fn start_time(&self) -> f64 {
        self.points[0].t
    }

    /// Last timestamp.
    #[inline]
    pub fn end_time(&self) -> f64 {
        self.points[self.points.len() - 1].t
    }

    /// The validity period `[first.t, last.t]`.
    pub fn time(&self) -> TimeInterval {
        TimeInterval::new(self.start_time(), self.end_time())
            // invariant: Trajectory::new enforces strictly increasing times
            .expect("construction validated ordering")
    }

    /// True when the trajectory is valid over the whole of `period`.
    #[inline]
    pub fn covers(&self, period: &TimeInterval) -> bool {
        self.time().contains_interval(period)
    }

    /// The `i`-th line segment.
    #[inline]
    pub fn segment(&self, i: usize) -> Segment {
        Segment::new(self.points[i], self.points[i + 1])
            // invariant: Trajectory::new enforces ordered, finite samples
            .expect("construction validated ordering and finiteness")
    }

    /// Iterator over the trajectory's line segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points
            .windows(2)
            // invariant: Trajectory::new enforces ordered, finite samples
            .map(|w| Segment::new(w[0], w[1]).expect("validated at construction"))
    }

    /// Index of the segment whose temporal extent contains `t`
    /// (the last segment for `t == end_time()`).
    ///
    /// Returns an error when `t` is outside the validity period.
    #[inline]
    pub fn segment_index_at(&self, t: f64) -> Result<usize> {
        if t < self.start_time() || t > self.end_time() {
            return Err(TrajectoryError::OutOfRange {
                t,
                valid: (self.start_time(), self.end_time()),
            });
        }
        // partition_point returns the first index whose timestamp is > t,
        // i.e. the end sample of the containing segment (clamped).
        let upper = self.points.partition_point(|p| p.t <= t);
        Ok(if upper >= self.points.len() {
            self.points.len() - 2
        } else {
            upper - 1
        })
    }

    /// [`Trajectory::segment_index_at`] for a `t` at or after the start of
    /// segment `from` (and inside the validity period), by walking forward
    /// instead of searching: the cursor of a sweep whose timestamps only
    /// grow.
    #[inline]
    pub fn segment_index_from(&self, from: usize, t: f64) -> usize {
        let mut i = from;
        while i + 2 < self.points.len() && self.points[i + 1].t <= t {
            i += 1;
        }
        i
    }

    /// Position at time `t` via linear interpolation.
    pub fn position_at(&self, t: f64) -> Result<Point> {
        let i = self.segment_index_at(t)?;
        Ok(self.segment(i).position_at_unchecked(t))
    }

    /// Sample (position + timestamp) at time `t`.
    pub fn sample_at(&self, t: f64) -> Result<SamplePoint> {
        let p = self.position_at(t)?;
        Ok(SamplePoint::new(t, p.x, p.y))
    }

    /// Restricts the trajectory to `period`, interpolating boundary samples.
    ///
    /// The trajectory must cover the period, and the period must have
    /// positive duration (a single instant cannot form a trajectory).
    pub fn clip(&self, period: &TimeInterval) -> Result<Trajectory> {
        if !self.covers(period) {
            return Err(TrajectoryError::PeriodNotCovered {
                period: (period.start(), period.end()),
                valid: (self.start_time(), self.end_time()),
            });
        }
        if period.is_instant() {
            return Err(TrajectoryError::InvalidInterval {
                start: period.start(),
                end: period.end(),
            });
        }
        let mut out = Vec::new();
        out.push(self.sample_at(period.start())?);
        for p in &self.points {
            if p.t > period.start() && p.t < period.end() {
                out.push(*p);
            }
        }
        out.push(self.sample_at(period.end())?);
        Trajectory::new(out)
    }

    /// Re-samples the trajectory at the given strictly increasing timestamps
    /// (all inside the validity period), interpolating positions linearly.
    pub fn resample(&self, timestamps: &[f64]) -> Result<Trajectory> {
        let mut out = Vec::with_capacity(timestamps.len());
        for &t in timestamps {
            out.push(self.sample_at(t)?);
        }
        Trajectory::new(out)
    }

    /// Total spatial length of the polyline.
    pub fn spatial_length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Duration of the validity period.
    pub fn duration(&self) -> f64 {
        self.end_time() - self.start_time()
    }

    /// Maximum instantaneous speed over all segments.
    pub fn max_speed(&self) -> f64 {
        self.segments().map(|s| s.speed()).fold(0.0, f64::max)
    }

    /// The 3D bounding box of the whole trajectory.
    pub fn mbb(&self) -> Mbb {
        self.points
            .iter()
            .fold(Mbb::empty(), |acc, p| acc.union(&Mbb::from_sample(p)))
    }

    /// The same movement started `dt` time units later (negative `dt`
    /// shifts into the past). Used by time-relaxed similarity queries.
    pub fn shift_time(&self, dt: f64) -> Result<Trajectory> {
        Trajectory::new(
            self.points
                .iter()
                .map(|p| SamplePoint::new(p.t + dt, p.x, p.y))
                .collect(),
        )
    }
}

/// Whether `p` may follow `points`: finite, and strictly later than the last
/// of them. Errors carry `p`'s position in the stream.
fn check_next(points: &[SamplePoint], p: &SamplePoint) -> Result<()> {
    if !p.is_finite() {
        return Err(TrajectoryError::NonFinite {
            index: points.len(),
        });
    }
    match points.last() {
        Some(last) if last.t >= p.t => Err(TrajectoryError::NonMonotonicTime {
            index: points.len(),
            prev: last.t,
            next: p.t,
        }),
        _ => Ok(()),
    }
}

/// Incremental constructor for [`Trajectory`], validating as samples arrive.
///
/// Useful for generators and file readers that produce samples one at a time
/// and want early, indexed errors.
#[derive(Debug, Default)]
pub struct TrajectoryBuilder {
    points: Vec<SamplePoint>,
}

impl TrajectoryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TrajectoryBuilder { points: Vec::new() }
    }

    /// Creates a builder with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        TrajectoryBuilder {
            points: Vec::with_capacity(n),
        }
    }

    /// Appends a sample, validating finiteness and temporal ordering.
    pub fn push(&mut self, p: SamplePoint) -> Result<&mut Self> {
        check_next(&self.points, &p)?;
        self.points.push(p);
        Ok(self)
    }

    /// Number of samples accumulated so far.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Finishes the trajectory (needs at least two samples).
    pub fn build(self) -> Result<Trajectory> {
        Trajectory::new(self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zigzag() -> Trajectory {
        Trajectory::from_txy(&[
            (0.0, 0.0, 0.0),
            (1.0, 1.0, 1.0),
            (2.0, 2.0, 0.0),
            (4.0, 0.0, 0.0),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            Trajectory::from_txy(&[(0.0, 0.0, 0.0)]),
            Err(TrajectoryError::TooFewPoints { got: 1 })
        ));
        assert!(matches!(
            Trajectory::from_txy(&[(0.0, 0.0, 0.0), (0.0, 1.0, 1.0)]),
            Err(TrajectoryError::NonMonotonicTime { index: 1, .. })
        ));
        assert!(matches!(
            Trajectory::from_txy(&[(0.0, 0.0, 0.0), (1.0, f64::NAN, 1.0)]),
            Err(TrajectoryError::NonFinite { index: 1 })
        ));
    }

    #[test]
    fn segment_lookup_covers_boundaries() {
        let t = zigzag();
        assert_eq!(t.segment_index_at(0.0).unwrap(), 0);
        assert_eq!(t.segment_index_at(0.5).unwrap(), 0);
        assert_eq!(t.segment_index_at(1.0).unwrap(), 1);
        assert_eq!(t.segment_index_at(3.9).unwrap(), 2);
        assert_eq!(t.segment_index_at(4.0).unwrap(), 2);
        assert!(t.segment_index_at(4.1).is_err());
        assert!(t.segment_index_at(-0.1).is_err());
    }

    #[test]
    fn interpolation_matches_samples_and_midpoints() {
        let t = zigzag();
        assert_eq!(t.position_at(1.0).unwrap(), Point::new(1.0, 1.0));
        assert_eq!(t.position_at(3.0).unwrap(), Point::new(1.0, 0.0));
        assert_eq!(t.position_at(0.5).unwrap(), Point::new(0.5, 0.5));
    }

    #[test]
    fn clip_produces_subtrajectory() {
        let t = zigzag();
        let c = t.clip(&TimeInterval::new(0.5, 3.0).unwrap()).unwrap();
        assert_eq!(c.num_points(), 4);
        assert_eq!(c.start_time(), 0.5);
        assert_eq!(c.end_time(), 3.0);
        assert_eq!(c.points()[1], SamplePoint::new(1.0, 1.0, 1.0));
        // Clipping to the full period is the identity.
        let full = t.clip(&t.time()).unwrap();
        assert_eq!(full, t);
    }

    #[test]
    fn clip_rejects_uncovered_and_instant_periods() {
        let t = zigzag();
        assert!(t.clip(&TimeInterval::new(-1.0, 2.0).unwrap()).is_err());
        assert!(t.clip(&TimeInterval::new(1.0, 1.0).unwrap()).is_err());
    }

    #[test]
    fn resample_interpolates() {
        let t = zigzag();
        let r = t.resample(&[0.0, 2.0, 4.0]).unwrap();
        assert_eq!(r.num_points(), 3);
        assert_eq!(r.points()[1], SamplePoint::new(2.0, 2.0, 0.0));
        assert!(t.resample(&[0.0, 5.0]).is_err());
    }

    #[test]
    fn length_duration_speed() {
        let t = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (1.0, 3.0, 4.0), (3.0, 3.0, 4.0)]).unwrap();
        assert_eq!(t.spatial_length(), 5.0);
        assert_eq!(t.duration(), 3.0);
        assert_eq!(t.max_speed(), 5.0);
    }

    #[test]
    fn mbb_covers_all_samples() {
        let t = zigzag();
        let b = t.mbb();
        assert_eq!(b, Mbb::new(0.0, 0.0, 0.0, 2.0, 1.0, 4.0));
    }

    #[test]
    fn builder_validates_incrementally() {
        let mut b = TrajectoryBuilder::new();
        b.push(SamplePoint::new(0.0, 0.0, 0.0)).unwrap();
        assert!(b.push(SamplePoint::new(0.0, 1.0, 1.0)).is_err());
        b.push(SamplePoint::new(1.0, 1.0, 1.0)).unwrap();
        assert_eq!(b.len(), 2);
        let t = b.build().unwrap();
        assert_eq!(t.num_points(), 2);
    }

    #[test]
    fn builder_needs_two_points() {
        let mut b = TrajectoryBuilder::new();
        b.push(SamplePoint::new(0.0, 0.0, 0.0)).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn covers_checks_containment() {
        let t = zigzag();
        assert!(t.covers(&TimeInterval::new(0.0, 4.0).unwrap()));
        assert!(t.covers(&TimeInterval::new(1.0, 2.0).unwrap()));
        assert!(!t.covers(&TimeInterval::new(0.0, 4.5).unwrap()));
    }
}
