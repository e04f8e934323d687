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

/// The co-temporal segment pairs of two trajectories over a period, in
/// temporal order: `period` split at the union of both sample sets, one
/// [`CoSegment`] per piece.
///
/// A streaming merge: both sides' segment indices only move forward, the
/// next cut is the earlier of the two current segments' ends (a shared
/// timestamp cuts once) or the period's end, and nothing is allocated —
/// DISSIM folds the pairs as they come. [`co_segments`] is its `collect()`.
#[derive(Debug, Clone)]
pub struct CoSegments<'a> {
    a: &'a Trajectory,
    b: &'a Trajectory,
    /// Index of the segment of `a` (of `b`) containing `at`.
    ia: usize,
    ib: usize,
    /// Start of the next piece; the stream is exhausted once it reaches
    /// `end`.
    at: f64,
    end: f64,
}

impl<'a> CoSegments<'a> {
    /// Starts the merge. Both trajectories must cover `period`; the period
    /// must have positive duration.
    pub fn new(a: &'a Trajectory, b: &'a Trajectory, period: &TimeInterval) -> Result<Self> {
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
        // One binary search per side for the period start, then a walk.
        Ok(CoSegments {
            a,
            b,
            ia: a.segment_index_at(period.start())?,
            ib: b.segment_index_at(period.start())?,
            at: period.start(),
            end: period.end(),
        })
    }
}

impl Iterator for CoSegments<'_> {
    type Item = CoSegment;

    #[inline]
    fn next(&mut self) -> Option<CoSegment> {
        if self.at >= self.end {
            return None;
        }
        self.ia = self.a.segment_index_from(self.ia, self.at);
        self.ib = self.b.segment_index_from(self.ib, self.at);
        let (sa, sb) = (self.a.segment(self.ia), self.b.segment(self.ib));
        // Both segments end after `at` (the last one of a side ends at or
        // after the period does), so the piece has positive duration.
        let (ta, tb) = (sa.end().t, sb.end().t);
        let sample = if ta <= tb { ta } else { tb };
        let cut = if sample < self.end { sample } else { self.end };
        // invariant: `at < cut`, both finite — see above
        let iv = TimeInterval::new(self.at, cut).expect("cuts strictly increase");
        self.at = cut;
        Some(CoSegment {
            // invariant: `iv` lies between two consecutive samples of `a`,
            // inside the segment the cursor stands on
            first: sa.clip(&iv).expect("cut interval lies inside one segment"),
            // invariant: same argument for `b`
            second: sb.clip(&iv).expect("cut interval lies inside one segment"),
        })
    }
}

/// Splits `period` at the union of the two trajectories' sample timestamps
/// and returns the aligned segment pairs: [`CoSegments`], collected.
///
/// Both trajectories must cover `period`; the period must have positive
/// duration.
pub fn co_segments(
    a: &Trajectory,
    b: &Trajectory,
    period: &TimeInterval,
) -> Result<Vec<CoSegment>> {
    Ok(CoSegments::new(a, b, period)?.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What [`co_segments`] was before it streamed, kept as the reference the
    /// stream is compared with: the whole cut list first, then one pair per
    /// cut interval.
    fn co_segments_by_cut_list(
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
            ia = a.segment_index_from(ia, iv.start());
            ib = b.segment_index_from(ib, iv.start());
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

    /// The sorted, deduplicated union of both trajectories' sample timestamps
    /// restricted to `period`, with the period endpoints always included.
    ///
    /// The result has at least two entries and consecutive entries are strictly
    /// increasing, so it directly defines the integration pieces.
    fn merged_timestamps(
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

    /// A random walk over `[0, 64]`, its timestamps on a half-unit lattice
    /// or anywhere.
    fn walk(unit: &mut impl FnMut() -> f64, lattice: bool) -> Trajectory {
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
    }

    /// Seeded `(a, b, period)` cases over `[0, 64]`. `a` walks a coarse
    /// lattice of timestamps; `b` by turns walks the same lattice (the sides
    /// share some timestamps, not all), walks freely (they share none but
    /// the ends) or keeps about half of `a`'s own timestamps (nested).
    /// Period ends fall anywhere, or exactly on a sample of either side.
    fn for_each_seeded_case(
        cases: usize,
        mut check: impl FnMut(usize, &Trajectory, &Trajectory, &TimeInterval),
    ) {
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
        for case in 0..cases {
            let a = walk(&mut unit, true);
            let b = match case % 3 {
                0 => walk(&mut unit, true),
                1 => walk(&mut unit, false),
                _ => {
                    let last = a.num_points() - 1;
                    let times: Vec<f64> = (0..=last)
                        .filter(|&i| i == 0 || i == last || unit() < 0.5)
                        .map(|i| a.points()[i].t)
                        .collect();
                    walk(&mut unit, false).resample(&times).unwrap()
                }
            };
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
            check(case, &a, &b, &period);
        }
    }

    #[test]
    fn windowed_merge_and_forward_walk_are_bit_identical_to_merging_everything() {
        for_each_seeded_case(400, |case, a, b, period| {
            let cuts = merged_timestamps(a, b, period).unwrap();
            let want = merged_timestamps_of_everything(a, b, period);
            assert_eq!(
                cuts.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                "case {case} {period:?}"
            );
            assert!(cuts.capacity() <= 2 * cuts.len(), "sized by the window");
            let pairs = co_segments(a, b, period).unwrap();
            let want = co_segments_by_search(a, b, &cuts);
            assert_eq!(pairs.len(), want.len());
            for (got, want) in pairs.iter().zip(&want) {
                assert_eq!(bits(&got.first), bits(&want.first), "case {case}");
                assert_eq!(bits(&got.second), bits(&want.second), "case {case}");
            }
        });
    }

    #[test]
    fn candidate_path_streamed_co_segments_equal_the_cut_list_version_pair_for_pair() {
        // Full count in release (`ci.sh` runs it there), a tenth in debug.
        let cases = if cfg!(debug_assertions) { 600 } else { 6_000 };
        let mut pairs_seen = 0usize;
        for_each_seeded_case(cases, |case, a, b, period| {
            let want = co_segments_by_cut_list(a, b, period).unwrap();
            let mut stream = CoSegments::new(a, b, period).unwrap();
            for (i, want) in want.iter().enumerate() {
                let got = stream
                    .next()
                    .unwrap_or_else(|| panic!("case {case}: ended at {i}"));
                assert_eq!(bits(&got.first), bits(&want.first), "case {case} pair {i}");
                assert_eq!(
                    bits(&got.second),
                    bits(&want.second),
                    "case {case} pair {i}"
                );
            }
            assert!(stream.next().is_none(), "case {case}: a pair too many");
            assert!(stream.next().is_none(), "case {case}: not fused");
            pairs_seen += want.len();
        });
        assert!(
            pairs_seen > 20 * cases,
            "{pairs_seen} pairs over {cases} cases"
        );
    }

    #[test]
    fn candidate_path_stream_rejects_what_the_cut_list_version_rejected() {
        let a = line(&[(0.0, 0.0), (5.0, 5.0)]);
        let b = line(&[(1.0, 0.0), (5.0, 5.0)]);
        for period in [(0.0, 5.0), (2.0, 2.0), (1.0, 9.0)] {
            let period = TimeInterval::new(period.0, period.1).unwrap();
            assert_eq!(
                CoSegments::new(&a, &b, &period).err(),
                co_segments_by_cut_list(&a, &b, &period).err(),
                "{period:?}"
            );
        }
    }
}
