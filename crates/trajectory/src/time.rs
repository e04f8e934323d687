use crate::{Result, TrajectoryError};

/// A closed time interval `[start, end]` with `start <= end`.
///
/// Intervals are the temporal currency of MST search: query periods, node
/// temporal extents, covered/uncovered portions of candidate trajectories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeInterval {
    start: f64,
    end: f64,
}

impl TimeInterval {
    /// Creates an interval, validating `start <= end` and finiteness.
    #[inline]
    pub fn new(start: f64, end: f64) -> Result<Self> {
        if !start.is_finite() || !end.is_finite() || start > end {
            return Err(TrajectoryError::InvalidInterval { start, end });
        }
        Ok(TimeInterval { start, end })
    }

    /// Interval start.
    #[inline]
    pub const fn start(&self) -> f64 {
        self.start
    }

    /// Interval end.
    #[inline]
    pub const fn end(&self) -> f64 {
        self.end
    }

    /// Interval length `end - start`.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// True when the interval has zero duration.
    #[inline]
    pub fn is_instant(&self) -> bool {
        self.start == self.end
    }

    /// True when `t` lies inside the closed interval.
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        self.start <= t && t <= self.end
    }

    /// True when `other` is entirely inside this interval.
    #[inline]
    pub fn contains_interval(&self, other: &TimeInterval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// The overlap of two closed intervals, or `None` when they are disjoint.
    ///
    /// Touching intervals (`a.end == b.start`) overlap in a single instant;
    /// callers that need a positive-duration overlap should additionally
    /// check [`TimeInterval::is_instant`].
    #[inline]
    pub fn intersect(&self, other: &TimeInterval) -> Option<TimeInterval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start <= end {
            Some(TimeInterval { start, end })
        } else {
            None
        }
    }

    /// True when the two closed intervals share at least one instant.
    #[inline]
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Clamps `t` into the interval.
    #[inline]
    pub fn clamp(&self, t: f64) -> f64 {
        t.clamp(self.start, self.end)
    }

    /// Midpoint of the interval.
    #[inline]
    pub fn midpoint(&self) -> f64 {
        self.start + 0.5 * (self.end - self.start)
    }
}

impl std::fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: f64, b: f64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn rejects_reversed_and_non_finite() {
        assert!(TimeInterval::new(2.0, 1.0).is_err());
        assert!(TimeInterval::new(f64::NAN, 1.0).is_err());
        assert!(TimeInterval::new(0.0, f64::INFINITY).is_err());
        assert!(TimeInterval::new(1.0, 1.0).is_ok());
    }

    #[test]
    fn duration_and_contains() {
        let i = iv(2.0, 5.0);
        assert_eq!(i.duration(), 3.0);
        assert!(i.contains(2.0));
        assert!(i.contains(5.0));
        assert!(!i.contains(5.0001));
        assert!(i.contains_interval(&iv(3.0, 4.0)));
        assert!(!i.contains_interval(&iv(3.0, 6.0)));
    }

    #[test]
    fn intersect_cases() {
        assert_eq!(iv(0.0, 2.0).intersect(&iv(1.0, 3.0)), Some(iv(1.0, 2.0)));
        // Touching intervals overlap at exactly one instant.
        let touch = iv(0.0, 2.0).intersect(&iv(2.0, 3.0)).unwrap();
        assert!(touch.is_instant());
        assert_eq!(touch.start(), 2.0);
        assert_eq!(iv(0.0, 1.0).intersect(&iv(2.0, 3.0)), None);
        // Containment.
        assert_eq!(iv(0.0, 10.0).intersect(&iv(2.0, 3.0)), Some(iv(2.0, 3.0)));
    }

    #[test]
    fn overlaps_is_symmetric() {
        assert!(iv(0.0, 2.0).overlaps(&iv(1.0, 3.0)));
        assert!(iv(1.0, 3.0).overlaps(&iv(0.0, 2.0)));
        assert!(iv(0.0, 2.0).overlaps(&iv(2.0, 3.0)));
        assert!(!iv(0.0, 2.0).overlaps(&iv(2.5, 3.0)));
    }

    #[test]
    fn clamp_and_midpoint() {
        let i = iv(1.0, 3.0);
        assert_eq!(i.clamp(0.0), 1.0);
        assert_eq!(i.clamp(10.0), 3.0);
        assert_eq!(i.clamp(2.5), 2.5);
        assert_eq!(i.midpoint(), 2.0);
    }
}
