//! Co-temporal alignment of two trajectories.
//!
//! DISSIM integrates the distance between two trajectories over a period
//! during which both are valid. Because the trajectories may be sampled at
//! *different* timestamps (the motivating example of the paper's Figure 1),
//! the integration domain is first split at the union of both sample sets;
//! inside each resulting piece both objects move linearly, so the distance
//! is a single trinomial `sqrt(a t^2 + b t + c)`.

use crate::{Result, Segment, TimeInterval, Trajectory, TrajectoryError};

/// A pair of co-temporal segments: both span exactly the same time interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoSegment {
    /// Piece of the first trajectory.
    pub first: Segment,
    /// Piece of the second trajectory.
    pub second: Segment,
}

impl CoSegment {
    /// The shared temporal extent of the pair.
    pub fn time(&self) -> TimeInterval {
        self.first.time()
    }
}

/// Splits `period` at the union of the two trajectories' sample timestamps
/// and returns the aligned segment pairs.
///
/// Both trajectories must cover `period`; the period must have positive
/// duration.
pub fn co_segments(
    a: &Trajectory,
    b: &Trajectory,
    period: &TimeInterval,
) -> Result<Vec<CoSegment>> {
    let cuts = merged_timestamps(a, b, period)?;
    let mut out = Vec::with_capacity(cuts.len() - 1);
    // Cuts only move forward, so each side's segment index does too: one
    // binary search for the period start, then a walk.
    let mut ia = a.segment_index_at(period.start())?;
    let mut ib = b.segment_index_at(period.start())?;
    for w in cuts.windows(2) {
        let iv = TimeInterval::new(w[0], w[1])?;
        ia = segment_index_from(a, ia, iv.start());
        ib = segment_index_from(b, ib, iv.start());
        let sa = a
            .segment(ia)
            .clip(&iv)
            // invariant: cuts are the merged sample timestamps, so no cut
            // interval straddles a sample of either trajectory
            .expect("cut interval lies inside one segment");
        let sb = b
            .segment(ib)
            .clip(&iv)
            // invariant: same merged-timestamp argument as for `sa` above
            .expect("cut interval lies inside one segment");
        out.push(CoSegment {
            first: sa,
            second: sb,
        });
    }
    Ok(out)
}

/// [`Trajectory::segment_index_at`] for a `t` at or after the start of
/// segment `from`, by walking forward instead of searching.
fn segment_index_from(trajectory: &Trajectory, from: usize, t: f64) -> usize {
    let points = trajectory.points();
    let mut i = from;
    while i + 2 < points.len() && points[i + 1].t <= t {
        i += 1;
    }
    i
}

/// The sorted, deduplicated union of both trajectories' sample timestamps
/// restricted to `period`, with the period endpoints always included.
///
/// The result has at least two entries and consecutive entries are strictly
/// increasing, so it directly defines the integration pieces.
pub fn merged_timestamps(
    a: &Trajectory,
    b: &Trajectory,
    period: &TimeInterval,
) -> Result<Vec<f64>> {
    for t in [a, b] {
        if !t.covers(period) {
            return Err(TrajectoryError::PeriodNotCovered {
                period: (period.start(), period.end()),
                valid: (t.start_time(), t.end_time()),
            });
        }
    }
    if period.is_instant() {
        return Err(TrajectoryError::InvalidInterval {
            start: period.start(),
            end: period.end(),
        });
    }
    // Only the samples strictly inside the period cut it: one binary search
    // per side and end, so the cost is the window's, not the object's.
    let inside = |t: &Trajectory| {
        let points = t.points();
        let from = points.partition_point(|p| p.t <= period.start());
        from..from + points[from..].partition_point(|p| p.t < period.end())
    };
    let (pa, pb) = (&a.points()[inside(a)], &b.points()[inside(b)]);
    let mut cuts = Vec::with_capacity(pa.len() + pb.len() + 2);
    cuts.push(period.start());
    let mut ia = pa.iter().map(|p| p.t).peekable();
    let mut ib = pb.iter().map(|p| p.t).peekable();
    // Merge the two sorted timestamp streams, a shared timestamp once.
    loop {
        let next = match (ia.peek(), ib.peek()) {
            (Some(&ta), Some(&tb)) => {
                if ta <= tb {
                    ia.next();
                    if ta == tb {
                        ib.next();
                    }
                    ta
                } else {
                    ib.next();
                    tb
                }
            }
            (Some(&ta), None) => {
                ia.next();
                ta
            }
            (None, Some(&tb)) => {
                ib.next();
                tb
            }
            (None, None) => break,
        };
        cuts.push(next);
    }
    cuts.push(period.end());
    Ok(cuts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(samples: &[(f64, f64)]) -> Trajectory {
        // 1D motion along x for readability.
        Trajectory::new(
            samples
                .iter()
                .map(|&(t, x)| crate::SamplePoint::new(t, x, 0.0))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn merges_distinct_sampling_rates() {
        // One trajectory sampled 4 times, the other 7 times (the paper's
        // Figure 1 situation, scaled down).
        let a = line(&[(0.0, 0.0), (3.0, 3.0), (6.0, 6.0), (9.0, 9.0)]);
        let b = line(&[
            (0.0, 1.0),
            (1.5, 2.0),
            (3.0, 3.5),
            (4.5, 5.0),
            (6.0, 6.5),
            (7.5, 8.0),
            (9.0, 9.5),
        ]);
        let period = TimeInterval::new(0.0, 9.0).unwrap();
        let cuts = merged_timestamps(&a, &b, &period).unwrap();
        assert_eq!(cuts, vec![0.0, 1.5, 3.0, 4.5, 6.0, 7.5, 9.0]);
        let pairs = co_segments(&a, &b, &period).unwrap();
        assert_eq!(pairs.len(), 6);
        // Pieces tile the period exactly and pairs are aligned.
        let mut t = period.start();
        for p in &pairs {
            assert_eq!(p.first.time().start(), t);
            assert_eq!(p.first.time(), p.second.time());
            t = p.first.time().end();
        }
        assert_eq!(t, period.end());
    }

    #[test]
    fn restricts_to_subperiod() {
        let a = line(&[(0.0, 0.0), (10.0, 10.0)]);
        let b = line(&[(0.0, 5.0), (2.0, 4.0), (8.0, 1.0), (10.0, 0.0)]);
        let period = TimeInterval::new(1.0, 9.0).unwrap();
        let cuts = merged_timestamps(&a, &b, &period).unwrap();
        assert_eq!(cuts, vec![1.0, 2.0, 8.0, 9.0]);
        let pairs = co_segments(&a, &b, &period).unwrap();
        assert_eq!(pairs.len(), 3);
        // Interpolated positions at the cut points are consistent with the
        // source trajectories.
        let first = pairs[0];
        assert_eq!(first.first.start().x, 1.0);
        assert!((first.second.start().x - 4.5).abs() < 1e-12);
    }

    #[test]
    fn identical_timestamps_do_not_duplicate_cuts() {
        let a = line(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let b = line(&[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        let period = TimeInterval::new(0.0, 2.0).unwrap();
        let cuts = merged_timestamps(&a, &b, &period).unwrap();
        assert_eq!(cuts, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn errors_when_period_not_covered() {
        let a = line(&[(0.0, 0.0), (5.0, 5.0)]);
        let b = line(&[(1.0, 0.0), (5.0, 5.0)]);
        let period = TimeInterval::new(0.0, 5.0).unwrap();
        assert!(matches!(
            co_segments(&a, &b, &period),
            Err(TrajectoryError::PeriodNotCovered { .. })
        ));
    }

    #[test]
    fn errors_on_instant_period() {
        let a = line(&[(0.0, 0.0), (5.0, 5.0)]);
        let b = line(&[(0.0, 1.0), (5.0, 6.0)]);
        let period = TimeInterval::new(2.0, 2.0).unwrap();
        assert!(co_segments(&a, &b, &period).is_err());
    }

    /// Oracle for the cut list: every timestamp of both trajectories,
    /// sorted, kept when strictly inside the period and not a repeat.
    fn merged_timestamps_of_everything(
        a: &Trajectory,
        b: &Trajectory,
        period: &TimeInterval,
    ) -> Vec<f64> {
        let mut all: Vec<f64> = a.points().iter().chain(b.points()).map(|p| p.t).collect();
        all.sort_by(f64::total_cmp);
        let mut cuts = vec![period.start()];
        for t in all {
            if t > period.start() && t < period.end() && *cuts.last().unwrap() != t {
                cuts.push(t);
            }
        }
        cuts.push(period.end());
        cuts
    }

    /// Oracle for the pairing: both segments of every cut by binary search.
    fn co_segments_by_search(a: &Trajectory, b: &Trajectory, cuts: &[f64]) -> Vec<CoSegment> {
        cuts.windows(2)
            .map(|w| {
                let iv = TimeInterval::new(w[0], w[1]).unwrap();
                let at = |t: &Trajectory| {
                    t.segment(t.segment_index_at(iv.start()).unwrap())
                        .clip(&iv)
                        .unwrap()
                };
                CoSegment {
                    first: at(a),
                    second: at(b),
                }
            })
            .collect()
    }

    fn bits(s: &Segment) -> [u64; 6] {
        let (p, q) = (s.start(), s.end());
        [p.t, p.x, p.y, q.t, q.x, q.y].map(f64::to_bits)
    }

    #[test]
    fn windowed_merge_and_forward_walk_are_bit_identical_to_merging_everything() {
        // SplitMix64, inline: this crate has no dependencies, dev or not.
        let mut state = 0x636f_7361_6d70u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        for case in 0..400 {
            // Two walks over [0, 64]: one on a coarse lattice of timestamps
            // (so the sides share some, not all), one free.
            let mut walk = |lattice: bool| {
                let mut pts = vec![crate::SamplePoint::new(0.0, unit(), unit())];
                let mut t = 0.0;
                while t < 64.0 {
                    t += if lattice {
                        (1.0 + (unit() * 3.0).floor()) * 0.5
                    } else {
                        0.05 + unit() * 2.0
                    };
                    pts.push(crate::SamplePoint::new(
                        t.min(64.0),
                        unit() * 9.0,
                        unit() * 9.0,
                    ));
                }
                Trajectory::new(pts).unwrap()
            };
            let a = walk(true);
            let b = walk(case % 2 == 0);
            // Period ends: free, or exactly on a sample of either side.
            let mut end = |of: &Trajectory| {
                if unit() < 0.5 {
                    unit() * 64.0
                } else {
                    of.points()[(unit() * of.num_points() as f64) as usize].t
                }
            };
            let (s, e) = (end(&a), end(&b));
            if s == e {
                continue;
            }
            let period = TimeInterval::new(s.min(e), s.max(e)).unwrap();
            let cuts = merged_timestamps(&a, &b, &period).unwrap();
            let want = merged_timestamps_of_everything(&a, &b, &period);
            assert_eq!(
                cuts.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                "case {case} {period:?}"
            );
            assert!(cuts.capacity() <= 2 * cuts.len(), "sized by the window");
            let pairs = co_segments(&a, &b, &period).unwrap();
            let want = co_segments_by_search(&a, &b, &cuts);
            assert_eq!(pairs.len(), want.len());
            for (got, want) in pairs.iter().zip(&want) {
                assert_eq!(bits(&got.first), bits(&want.first), "case {case}");
                assert_eq!(bits(&got.second), bits(&want.second), "case {case}");
            }
        }
    }
}
