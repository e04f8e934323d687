//! The paper's pruning metrics (Section 3) and the per-candidate
//! bookkeeping that maintains them while the index is traversed.
//!
//! * [`ldd`] — Linearly Depended Dissimilarity (Definition 2): the area
//!   under a distance profile that starts at `D` and changes linearly with
//!   relative speed `V`, clamped at zero (two objects cannot have negative
//!   distance).
//! * [`gap_lower`] / [`gap_upper`] — the per-gap ingredients of OPTDISSIM
//!   (Definition 3) and PESDISSIM (Definition 4). For an interval where the
//!   candidate's movement is unknown but its distance from the query is
//!   pinned at one or both boundaries, the feasible distance functions
//!   (those with `|D'| <= Vmax`) are sandwiched pointwise between a
//!   descend-then-ascend envelope and its mirror image; integrating the
//!   envelopes yields the tightest speed-dependent bounds.
//! * [`Candidate`] — a partially retrieved trajectory: its covered
//!   intervals (with boundary distances), accumulated DISSIM enclosure, and
//!   the derived OPTDISSIM / PESDISSIM / OPTDISSIMINC values (Lemmas 2–4).

use mst_trajectory::float;
use mst_trajectory::{TimeInterval, TrajectoryId};

use crate::dissim::{Dissim, Piece};

/// Linearly Depended Dissimilarity (Definition 2): the integral of
/// `max(0, D + V t)` for `t` in `[0, dt]`, with `D >= 0`.
///
/// * if `D + V dt >= 0` the profile never touches zero:
///   `LDD = dt (D + V dt / 2)`;
/// * otherwise (necessarily `V < 0`) the object reaches the query after
///   `D / |V|` and can stay with it: `LDD = D^2 / (2 |V|)`.
pub fn ldd(d: f64, v: f64, dt: f64) -> f64 {
    debug_assert!(d >= 0.0, "distances are non-negative");
    debug_assert!(dt >= 0.0, "durations are non-negative");
    if d + v * dt >= 0.0 {
        dt * (d + v * dt * 0.5)
    } else {
        d * d / (2.0 * v.abs())
    }
}

/// Lower bound on the dissimilarity accumulated over a gap of duration `dt`
/// whose boundary distances are `left` (at the gap start) and/or `right`
/// (at the gap end); `None` marks an unconstrained boundary (leading or
/// trailing gap).
///
/// The bound integrates the pointwise-minimal feasible envelope: descend
/// from each known boundary towards the query at `vmax` (Definition 3 /
/// Lemma 2, with both legs of a middle gap evaluated from their known
/// endpoint via time reversal — areas are symmetric under it).
pub fn gap_lower(left: Option<f64>, right: Option<f64>, dt: f64, vmax: f64) -> f64 {
    debug_assert!(vmax >= 0.0);
    if dt <= 0.0 {
        return 0.0;
    }
    match (left, right) {
        (None, None) => 0.0,
        (Some(d), None) | (None, Some(d)) => ldd(d, -vmax, dt),
        (Some(dl), Some(dr)) => {
            if float::exactly_zero(vmax) {
                // Distance cannot change; any consistent profile is constant.
                return dl.min(dr) * dt;
            }
            // Trough of the two descending legs (clamped for robustness
            // against inputs that violate |dl - dr| <= vmax * dt).
            let split = (0.5 * (dt + (dl - dr) / vmax)).clamp(0.0, dt);
            ldd(dl, -vmax, split) + ldd(dr, -vmax, dt - split)
        }
    }
}

/// Upper bound counterpart of [`gap_lower`] (Definition 4 / Lemma 3): the
/// object diverges from the query at `vmax` from each known boundary.
///
/// Returns `None` when both boundaries are unknown — with no anchor the
/// distance over the gap is unbounded.
pub fn gap_upper(left: Option<f64>, right: Option<f64>, dt: f64, vmax: f64) -> Option<f64> {
    debug_assert!(vmax >= 0.0);
    if dt <= 0.0 {
        return Some(0.0);
    }
    match (left, right) {
        (None, None) => None,
        (Some(d), None) | (None, Some(d)) => Some(ldd(d, vmax, dt)),
        (Some(dl), Some(dr)) => {
            if float::exactly_zero(vmax) {
                return Some(dl.max(dr) * dt);
            }
            // Peak of the two ascending legs.
            let split = (0.5 * (dt + (dr - dl) / vmax)).clamp(0.0, dt);
            Some(ldd(dl, vmax, split) + ldd(dr, vmax, dt - split))
        }
    }
}

/// One covered interval of a partially retrieved candidate, with the
/// distances at its boundaries (the anchors the gap bounds attach to).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Covered {
    start: f64,
    end: f64,
    d_start: f64,
    d_end: f64,
}

/// The speed-dependent bounds of a partial candidate over a period, as one
/// walk over its uncovered gaps computes them ([`Candidate::gap_bounds`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapBounds {
    /// Uncovered gaps walked.
    pub gaps: usize,
    /// OPTDISSIM (Definition 3, with the approximation error folded in): a
    /// lower bound on the candidate's exact DISSIM over the period.
    pub opt: f64,
    /// PESDISSIM (Definition 4): an upper bound on it (`f64::INFINITY` when
    /// a gap has no anchor).
    pub pes: f64,
}

/// A partially retrieved candidate trajectory (the "list L" of the BFMST
/// pseudocode): covered intervals, their accumulated DISSIM enclosure, and
/// the speed-dependent / speed-independent bounds.
#[derive(Debug, Clone)]
pub struct Candidate {
    traj: TrajectoryId,
    /// Sorted, disjoint, merged-when-touching covered intervals.
    covered: Vec<Covered>,
    value: Dissim,
    covered_duration: f64,
    /// Two timestamps closer than this merge into one boundary.
    merge_eps: f64,
}

impl Candidate {
    /// Creates an empty candidate; `merge_eps` should be a few ULPs of the
    /// query period's magnitude (pieces produced by clipping share exact
    /// boundary values, so the epsilon only guards against future drift).
    pub fn new(traj: TrajectoryId, merge_eps: f64) -> Self {
        Candidate {
            traj,
            covered: Vec::new(),
            value: Dissim::zero(),
            covered_duration: 0.0,
            merge_eps: merge_eps.max(0.0),
        }
    }

    /// The candidate's trajectory id.
    pub fn traj(&self) -> TrajectoryId {
        self.traj
    }

    /// The DISSIM enclosure accumulated over the covered intervals.
    pub fn value(&self) -> Dissim {
        self.value
    }

    /// Total duration currently covered.
    pub fn covered_duration(&self) -> f64 {
        self.covered_duration
    }

    /// Number of maximal covered intervals.
    pub fn num_intervals(&self) -> usize {
        self.covered.len()
    }

    /// Ingests one matched piece. Pieces must not overlap previously added
    /// ones (each index segment is retrieved exactly once); touching pieces
    /// are merged.
    pub fn add_piece(&mut self, p: &Piece) {
        self.value.add(p.value);
        self.covered_duration += p.interval.duration();
        let new = Covered {
            start: p.interval.start(),
            end: p.interval.end(),
            d_start: p.d_start,
            d_end: p.d_end,
        };
        // Insertion position: first interval starting after the new one.
        let idx = self.covered.partition_point(|c| c.start < new.start);
        let merge_left = idx > 0 && (new.start - self.covered[idx - 1].end).abs() <= self.merge_eps;
        let merge_right =
            idx < self.covered.len() && (self.covered[idx].start - new.end).abs() <= self.merge_eps;
        match (merge_left, merge_right) {
            (true, true) => {
                let right = self.covered.remove(idx);
                let left = &mut self.covered[idx - 1];
                left.end = right.end;
                left.d_end = right.d_end;
            }
            (true, false) => {
                let left = &mut self.covered[idx - 1];
                left.end = new.end;
                left.d_end = new.d_end;
            }
            (false, true) => {
                let right = &mut self.covered[idx];
                right.start = new.start;
                right.d_start = new.d_start;
            }
            (false, false) => {
                self.covered.insert(idx, new);
            }
        }
    }

    /// True when the covered intervals tile the whole `period`.
    pub fn is_complete(&self, period: &TimeInterval) -> bool {
        self.covered.len() == 1
            && self.covered[0].start <= period.start() + self.merge_eps
            && self.covered[0].end >= period.end() - self.merge_eps
    }

    /// Iterates over the gaps of `period` not yet covered, as
    /// `(duration, left_anchor, right_anchor)` triples.
    fn gaps<'a>(
        &'a self,
        period: &TimeInterval,
    ) -> impl Iterator<Item = (f64, Option<f64>, Option<f64>)> + 'a {
        let eps = self.merge_eps;
        let start = period.start();
        let end = period.end();
        let n = self.covered.len();
        // Gap i sits before covered[i]; gap n sits after the last interval.
        (0..=n).filter_map(move |i| {
            let (gap_start, left) = if i == 0 {
                (start, None)
            } else {
                let c = &self.covered[i - 1];
                (c.end, Some(c.d_end))
            };
            let (gap_end, right) = if i == n {
                (end, None)
            } else {
                let c = &self.covered[i];
                (c.start, Some(c.d_start))
            };
            let dt = gap_end - gap_start;
            (dt > eps).then_some((dt, left, right))
        })
    }

    /// Both speed-dependent bounds from one walk over the uncovered gaps of
    /// `period`, with the gap count (the observability layer's unit of
    /// bound-evaluation work: one LDD envelope integral per gap and bound).
    /// Each sum runs in gap order from its own end of the enclosure, so the
    /// values are those of two separate walks, to the bit.
    pub fn gap_bounds(&self, period: &TimeInterval, vmax: f64) -> GapBounds {
        let mut gaps = 0;
        let mut opt = self.value.lower();
        let mut pes = self.value.upper();
        let mut anchored = true;
        for (dt, left, right) in self.gaps(period) {
            gaps += 1;
            opt += gap_lower(left, right, dt, vmax);
            match gap_upper(left, right, dt, vmax) {
                Some(u) => pes += u,
                None => anchored = false,
            }
        }
        GapBounds {
            gaps,
            opt,
            pes: if anchored { pes } else { f64::INFINITY },
        }
    }

    /// OPTDISSIM alone: [`GapBounds::opt`] of [`Candidate::gap_bounds`].
    pub fn opt_dissim(&self, period: &TimeInterval, vmax: f64) -> f64 {
        self.gap_bounds(period, vmax).opt
    }

    /// PESDISSIM alone: [`GapBounds::pes`] of [`Candidate::gap_bounds`].
    pub fn pes_dissim(&self, period: &TimeInterval, vmax: f64) -> f64 {
        self.gap_bounds(period, vmax).pes
    }

    /// OPTDISSIMINC (Definition 5): when nodes are reported in increasing
    /// MINDIST order, every unretrieved piece is at least `mindist` away, so
    /// the candidate's DISSIM is at least the covered enclosure's lower end
    /// plus `mindist × uncovered duration`.
    pub fn opt_dissim_inc(&self, period: &TimeInterval, mindist: f64) -> f64 {
        let uncovered = (period.duration() - self.covered_duration).max(0.0);
        self.value.lower() + mindist * uncovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissim::{dissim_exact, piece, Integration};
    use mst_trajectory::cosample::co_segments;
    use mst_trajectory::Trajectory;

    fn iv(a: f64, b: f64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn ldd_matches_hand_computed_areas() {
        // Constant distance.
        assert_eq!(ldd(3.0, 0.0, 4.0), 12.0);
        // Diverging: trapezoid 2..10 over dt=4 -> (2+10)/2*4 = 24.
        assert_eq!(ldd(2.0, 2.0, 4.0), 24.0);
        // Approaching but never reaching: 5 -> 1 over dt=4 -> 12.
        assert_eq!(ldd(5.0, -1.0, 4.0), 12.0);
        // Reaching the query at t=2, then zero: triangle 4*2/2 = 4.
        assert_eq!(ldd(4.0, -2.0, 4.0), 4.0);
        // Exactly reaching zero at dt: triangle.
        assert_eq!(ldd(4.0, -1.0, 4.0), 8.0);
        // Zero duration.
        assert_eq!(ldd(7.0, 3.0, 0.0), 0.0);
    }

    #[test]
    fn middle_gap_envelopes_match_brute_force() {
        // Brute force: minimize / maximize the integral over piecewise
        // constant-slope profiles with |slope| <= vmax and pinned endpoints,
        // via dynamic programming on a grid.
        let (dl, dr, dt, vmax) = (3.0, 2.0, 5.0, 1.5);
        let lower = gap_lower(Some(dl), Some(dr), dt, vmax);
        let upper = gap_upper(Some(dl), Some(dr), dt, vmax).unwrap();
        // Analytic envelope integrals (independent derivation): pointwise
        // min is max(0, dl - v*t, dr - v*(dt-t)); max is min(dl + v*t,
        // dr + v*(dt-t)). Integrate numerically on a fine grid.
        let n = 200_000;
        let (mut lo, mut hi) = (0.0, 0.0);
        for i in 0..n {
            let t = dt * (i as f64 + 0.5) / n as f64;
            lo += (dl - vmax * t).max(dr - vmax * (dt - t)).max(0.0);
            hi += (dl + vmax * t).min(dr + vmax * (dt - t));
        }
        lo *= dt / n as f64;
        hi *= dt / n as f64;
        assert!((lower - lo).abs() < 1e-3, "lower={lower} grid={lo}");
        assert!((upper - hi).abs() < 1e-3, "upper={upper} grid={hi}");
    }

    #[test]
    fn middle_gap_touching_zero() {
        // dl=0, dr=8, dt=10, v=1: object must leave at full speed at the
        // end; minimal area is the final ascent triangle 8^2/2 = 32.
        let lower = gap_lower(Some(0.0), Some(8.0), 10.0, 1.0);
        assert!((lower - 32.0).abs() < 1e-12);
        // Upper: ascend from 0 and meet the line descending (backwards in
        // time) from 8: split at (10 + 8)/2 = 9, peak 9: areas
        // ldd(0,1,9)=40.5 and ldd(8,1,1)=8.5 -> 49.
        let upper = gap_upper(Some(0.0), Some(8.0), 10.0, 1.0).unwrap();
        assert!((upper - 49.0).abs() < 1e-12);
    }

    #[test]
    fn one_sided_gaps() {
        // Trailing gap anchored at 6, vmax 2, dt 5: lower bound descends and
        // reaches zero at t=3: area 9. Upper diverges: ldd(6,2,5)=55.
        assert_eq!(gap_lower(Some(6.0), None, 5.0, 2.0), 9.0);
        assert_eq!(gap_upper(Some(6.0), None, 5.0, 2.0), Some(55.0));
        // Leading gap is symmetric.
        assert_eq!(gap_lower(None, Some(6.0), 5.0, 2.0), 9.0);
        assert_eq!(gap_upper(None, Some(6.0), 5.0, 2.0), Some(55.0));
        // Fully unconstrained.
        assert_eq!(gap_lower(None, None, 5.0, 2.0), 0.0);
        assert_eq!(gap_upper(None, None, 5.0, 2.0), None);
    }

    #[test]
    fn zero_vmax_pins_the_distance() {
        assert_eq!(gap_lower(Some(3.0), Some(3.0), 2.0, 0.0), 6.0);
        assert_eq!(gap_upper(Some(3.0), Some(3.0), 2.0, 0.0), Some(6.0));
    }

    /// Builds two concrete trajectories, feeds a *subset* of their matched
    /// pieces to a [`Candidate`], and checks the Lemma 2/3 sandwich
    /// `OPTDISSIM <= exact DISSIM <= PESDISSIM`.
    #[test]
    fn candidate_bounds_sandwich_exact_dissim() {
        let q = Trajectory::from_txy(&[
            (0.0, 0.0, 0.0),
            (2.0, 2.0, 1.0),
            (5.0, 3.0, -1.0),
            (8.0, 6.0, 0.0),
            (10.0, 7.0, 2.0),
        ])
        .unwrap();
        let t = Trajectory::from_txy(&[
            (0.0, 1.0, 1.0),
            (3.0, 2.0, 3.0),
            (6.0, 5.0, 2.0),
            (10.0, 6.0, -1.0),
        ])
        .unwrap();
        let period = iv(0.0, 10.0);
        let exact = dissim_exact(&q, &t, &period).unwrap();
        let vmax = q.max_speed() + t.max_speed();

        let pairs = co_segments(&q, &t, &period).unwrap();
        // Feed only pieces 0, 2, 3, 5 (leaving gaps), in scrambled order.
        let keep = [3usize, 0, 5, 2];
        let mut cand = Candidate::new(TrajectoryId(0), 1e-9);
        for &i in &keep {
            let p = piece(&pairs[i].first, &pairs[i].second, Integration::Trapezoid).unwrap();
            cand.add_piece(&p);
        }
        assert!(!cand.is_complete(&period));
        let opt = cand.opt_dissim(&period, vmax);
        let pes = cand.pes_dissim(&period, vmax);
        assert!(
            opt <= exact + 1e-9 && exact <= pes + 1e-9,
            "opt={opt} exact={exact} pes={pes}"
        );
        // The incremental bound with mindist = 0 degenerates to the covered
        // lower end, which must also lower-bound the exact value.
        assert!(cand.opt_dissim_inc(&period, 0.0) <= exact + 1e-9);
        // And with any mindist it stays below exact as long as mindist lower
        // bounds the distances on the gaps (0 always does; a huge value
        // would not, which is exactly why MINDIST ordering matters).
    }

    #[test]
    fn candidate_completes_from_shuffled_pieces() {
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        let t = Trajectory::from_txy(&[
            (0.0, 0.0, 2.0),
            (2.5, 2.0, 2.0),
            (5.0, 5.0, 3.0),
            (7.5, 8.0, 2.0),
            (10.0, 10.0, 2.0),
        ])
        .unwrap();
        let period = iv(0.0, 10.0);
        let pairs = co_segments(&q, &t, &period).unwrap();
        let order = [2usize, 0, 3, 1];
        assert_eq!(pairs.len(), 4);
        let mut cand = Candidate::new(TrajectoryId(7), 1e-9);
        for (step, &i) in order.iter().enumerate() {
            assert!(!cand.is_complete(&period));
            let p = piece(&pairs[i].first, &pairs[i].second, Integration::Exact).unwrap();
            cand.add_piece(&p);
            let _ = step;
        }
        assert!(cand.is_complete(&period));
        assert_eq!(cand.num_intervals(), 1);
        assert!((cand.covered_duration() - 10.0).abs() < 1e-12);
        // Once complete, the enclosure pins the exact value (exact mode).
        let exact = dissim_exact(&q, &t, &period).unwrap();
        assert!((cand.value().approx - exact).abs() < 1e-9);
        // Bounds collapse onto the value: no gaps remain.
        let vmax = q.max_speed() + t.max_speed();
        assert!((cand.opt_dissim(&period, vmax) - exact).abs() < 1e-9);
        assert!((cand.pes_dissim(&period, vmax) - exact).abs() < 1e-9);
    }

    #[test]
    fn pes_infinite_until_first_piece_anchors_it() {
        let cand = Candidate::new(TrajectoryId(1), 1e-9);
        let period = iv(0.0, 10.0);
        assert_eq!(cand.pes_dissim(&period, 1.0), f64::INFINITY);
        assert_eq!(cand.opt_dissim(&period, 1.0), 0.0);
    }

    #[test]
    fn opt_dissim_inc_scales_with_uncovered_duration() {
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        let t = Trajectory::from_txy(&[(0.0, 0.0, 1.0), (10.0, 10.0, 1.0)]).unwrap();
        let period = iv(0.0, 10.0);
        let pairs = co_segments(&q, &t, &iv(0.0, 4.0)).unwrap();
        let mut cand = Candidate::new(TrajectoryId(3), 1e-9);
        for pr in &pairs {
            let p = piece(&pr.first, &pr.second, Integration::Exact).unwrap();
            cand.add_piece(&p);
        }
        // Covered [0,4] at distance 1 -> value 4; uncovered 6 at mindist 2
        // -> 12.
        let inc = cand.opt_dissim_inc(&period, 2.0);
        assert!((inc - 16.0).abs() < 1e-9);
    }

    /// The three walks [`Candidate::gap_bounds`] replaced, each as it was:
    /// the reference the one walk is compared with.
    fn num_gaps_by_its_own_walk(c: &Candidate, period: &TimeInterval) -> usize {
        c.gaps(period).count()
    }

    fn opt_dissim_by_its_own_walk(c: &Candidate, period: &TimeInterval, vmax: f64) -> f64 {
        let mut total = c.value.lower();
        for (dt, left, right) in c.gaps(period) {
            total += gap_lower(left, right, dt, vmax);
        }
        total
    }

    fn pes_dissim_by_its_own_walk(c: &Candidate, period: &TimeInterval, vmax: f64) -> f64 {
        let mut total = c.value.upper();
        for (dt, left, right) in c.gaps(period) {
            match gap_upper(left, right, dt, vmax) {
                Some(u) => total += u,
                None => return f64::INFINITY,
            }
        }
        total
    }

    #[test]
    fn candidate_path_one_gap_walk_equals_the_three_it_replaced_bit_for_bit() {
        let mut rng = mst_prng::Rng::seed_from(0x6761_7077_616c);
        // Full count in release (`ci.sh` runs it there), a tenth in debug.
        let cases = if cfg!(debug_assertions) {
            2_000
        } else {
            20_000
        };
        let mut gaps_seen = 0;
        for case in 0..cases {
            // The period cut into up to 40 slots; a seeded subset of them,
            // fed in scrambled order, is what the candidate has retrieved —
            // neighbours merge, the ends may or may not be covered, and
            // every prefix (the empty candidate included) is compared.
            let period = iv(10.0 * rng.f64(), 50.0 + 50.0 * rng.f64());
            let slots = 1 + (rng.f64() * 40.0) as usize;
            let mut cuts: Vec<f64> = (0..=slots)
                .map(|i| period.start() + period.duration() * i as f64 / slots as f64)
                .collect();
            cuts[slots] = period.end();
            let density = rng.f64();
            let mut kept: Vec<usize> = (0..slots).filter(|_| rng.f64() < density).collect();
            rng.shuffle(&mut kept);
            let vmax = if case % 17 == 0 { 0.0 } else { rng.f64() * 3.0 };
            let trapezoid = case % 2 == 0;
            let mut cand = Candidate::new(TrajectoryId(case as u64), 1e-9);
            for slot in std::iter::once(None).chain(kept.into_iter().map(Some)) {
                if let Some(i) = slot {
                    let approx = rng.f64() * 20.0;
                    cand.add_piece(&Piece {
                        interval: iv(cuts[i], cuts[i + 1]),
                        value: Dissim {
                            approx,
                            error: if trapezoid {
                                approx * rng.f64() * 0.1
                            } else {
                                0.0
                            },
                        },
                        d_start: rng.f64() * 9.0,
                        d_end: rng.f64() * 9.0,
                    });
                }
                let got = cand.gap_bounds(&period, vmax);
                assert_eq!(
                    got.gaps,
                    num_gaps_by_its_own_walk(&cand, &period),
                    "case {case}"
                );
                assert_eq!(
                    got.opt.to_bits(),
                    opt_dissim_by_its_own_walk(&cand, &period, vmax).to_bits(),
                    "case {case}"
                );
                assert_eq!(
                    got.pes.to_bits(),
                    pes_dissim_by_its_own_walk(&cand, &period, vmax).to_bits(),
                    "case {case}"
                );
                assert_eq!(got.opt.to_bits(), cand.opt_dissim(&period, vmax).to_bits());
                assert_eq!(got.pes.to_bits(), cand.pes_dissim(&period, vmax).to_bits());
                gaps_seen += got.gaps;
            }
        }
        assert!(
            gaps_seen > 20 * cases,
            "{gaps_seen} gaps over {cases} cases"
        );
    }
}
