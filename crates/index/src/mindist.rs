//! MINDIST between a (moving-point) query trajectory and an index node MBB.
//!
//! Following the nearest-neighbour groundwork of Frentzos et al. that the
//! MST paper builds on, `MINDIST(Q, N)` is the minimum *spatial* Euclidean
//! distance between the query's moving point and the node's spatial
//! rectangle, taken over the temporal overlap of the query period and the
//! node's temporal extent. It is exact for the linear-interpolation
//! movement model:
//!
//! For one query segment, the point's coordinates are linear in `t`, so the
//! clamped axis gaps `dx(t) = max(0, x_min - x(t), x(t) - x_max)` (and
//! `dy(t)` alike) are piecewise linear with breakpoints where the moving
//! point crosses the rectangle's face lines. On each piece,
//! `dx(t)^2 + dy(t)^2` is a convex quadratic whose minimum is at its vertex
//! or at the piece boundary — all closed-form
//! ([`segment_rect_mindist`], the one exact kernel).
//!
//! `MINDIST(Q, N)` is the minimum of that kernel over the query segments
//! inside the window, and a minimum does not depend on the order its terms
//! are taken in — nor on terms that cannot lower it. Every evaluation here
//! therefore skips a segment (or a run of segments) whose bounding
//! rectangle is already farther from the node's rectangle than the running
//! minimum; the returned bits are those of the unpruned loop. Two drivers
//! share the kernel and the skip predicate:
//!
//! * [`QueryMindist`] — built once per search: the query's per-segment
//!   rectangles under a binary hierarchy of chunk rectangles, searched by
//!   branch-and-bound. The best-first descent calls it once per child
//!   entry of every node it opens.
//! * [`trajectory_mbb_mindist`] — stateless: a flat scan of the window's
//!   segments with the per-segment rectangle test (a hierarchy built for
//!   one call would cost more than it saves).
//!
//! **The skip is sound in floating point, not only in the reals.** The
//! kernel interpolates positions (`x0 + vx·u`) and the vertex gap, and
//! `Segment::clip` interpolates boundary samples; each can land an ulp or
//! two outside the segment's true rectangle, so the kernel's value can
//! undercut the rectangle-to-rectangle distance by a few ulps *of the
//! coordinates* (not of the gap: cancellation makes the error absolute).
//! A chunk is skipped only when its bound clears the running minimum by
//! `SKIP_MARGIN × (max |query coordinate| + max |rect coordinate|)`, some
//! 10³ × the rounding it has to cover.

use mst_trajectory::float;
use mst_trajectory::{Mbb, Rect, SamplePoint, Segment, TimeInterval, Trajectory};

/// Minimum spatial distance between a moving point (one trajectory segment)
/// and a static rectangle, over the segment's own time span.
pub fn segment_rect_mindist(seg: &Segment, rect: &Rect) -> f64 {
    let t0 = seg.start().t;
    let t1 = seg.end().t;
    // Work in relative time for conditioning.
    let dur = t1 - t0;
    let (vx, vy) = seg.velocity();
    let (x0, y0) = (seg.start().x, seg.start().y);

    // Breakpoints: crossings of the four face lines within (0, dur).
    let mut cuts = [0.0f64; 6];
    let mut n = 0;
    cuts[n] = 0.0;
    n += 1;
    for (p0, v, lo, hi) in [
        (x0, vx, rect.x_min, rect.x_max),
        (y0, vy, rect.y_min, rect.y_max),
    ] {
        if !float::exactly_zero(v) {
            for bound in [lo, hi] {
                let tc = (bound - p0) / v;
                if tc > 0.0 && tc < dur {
                    cuts[n] = tc;
                    n += 1;
                }
            }
        }
    }
    cuts[n] = dur;
    n += 1;
    let cuts = &mut cuts[..n];
    cuts.sort_by(f64::total_cmp);

    // Axis gap of a clamped coordinate.
    let gap = |p: f64, lo: f64, hi: f64| (lo - p).max(0.0).max(p - hi);

    let mut best = f64::INFINITY;
    for w in cuts.windows(2) {
        let (u, v) = (w[0], w[1]);
        if u == v {
            continue;
        }
        // Linear gap functions on this piece, written as g(s) = g_u + slope*s
        // with s in [0, v-u].
        let dx_u = gap(x0 + vx * u, rect.x_min, rect.x_max);
        let dx_v = gap(x0 + vx * v, rect.x_min, rect.x_max);
        let dy_u = gap(y0 + vy * u, rect.y_min, rect.y_max);
        let dy_v = gap(y0 + vy * v, rect.y_min, rect.y_max);
        let len = v - u;
        let (bx, by) = ((dx_v - dx_u) / len, (dy_v - dy_u) / len);
        // f(s) = (dx_u + bx s)^2 + (dy_u + by s)^2, convex: check endpoints
        // and the interior vertex.
        let mut piece = (dx_u * dx_u + dy_u * dy_u).min(dx_v * dx_v + dy_v * dy_v);
        let denom = bx * bx + by * by;
        if denom > 0.0 {
            let s_star = -(dx_u * bx + dy_u * by) / denom;
            if s_star > 0.0 && s_star < len {
                let gx = dx_u + bx * s_star;
                let gy = dy_u + by * s_star;
                piece = piece.min(gx * gx + gy * gy);
            }
        }
        best = best.min(piece);
        if float::exactly_zero(best) {
            break;
        }
    }
    best.sqrt()
}

/// Relative size of the margin a bound must clear the running minimum by
/// before its chunk is skipped, in units of coordinate magnitude (see the
/// module docs: the exact kernel may undercut a rectangle bound by a few
/// ulps of the coordinates, about `1e-15` relative; this is ~10³ × that).
const SKIP_MARGIN: f64 = 1e-12;

/// The spatial bounding rectangle of the segment between two samples.
#[inline]
fn segment_rect(a: &SamplePoint, b: &SamplePoint) -> Rect {
    Rect {
        x_min: a.x.min(b.x),
        y_min: a.y.min(b.y),
        x_max: a.x.max(b.x),
        y_max: a.y.max(b.y),
    }
}

/// Largest absolute coordinate of a rectangle.
#[inline]
fn magnitude(r: &Rect) -> f64 {
    r.x_min
        .abs()
        .max(r.x_max.abs())
        .max(r.y_min.abs())
        .max(r.y_max.abs())
}

/// Squared distance between two rectangles: a lower bound (in the reals) on
/// the squared distance from `b` to any point inside `a`.
#[inline]
fn rect_gap_sq(a: &Rect, b: &Rect) -> f64 {
    let dx = (a.x_min - b.x_max).max(b.x_min - a.x_max).max(0.0);
    let dy = (a.y_min - b.y_max).max(b.y_min - a.y_max).max(0.0);
    dx * dx + dy * dy
}

/// One MINDIST evaluation past the temporal test: the (positive-duration)
/// window, the node rectangle, the query segments `first..=last` that
/// overlap the window, and the running minimum — lowered only by the exact
/// kernel, read by the skip predicate.
struct Probe<'a> {
    query: &'a Trajectory,
    window: TimeInterval,
    rect: Rect,
    rect_magnitude: f64,
    first: usize,
    last: usize,
    best: f64,
}

impl Probe<'_> {
    /// The one skip predicate: true when a chunk of query segments whose
    /// bounding rectangle is `bound_sq` (squared) away from the node
    /// rectangle cannot lower the running minimum, rounding included.
    /// `query_magnitude` is any upper bound on the chunk's own coordinates.
    #[inline]
    fn clears(&self, bound_sq: f64, query_magnitude: f64) -> bool {
        #[cfg(test)]
        if tests::unsound_skip() {
            return bound_sq * (1.0 + 1e-9) >= self.best * self.best;
        }
        let limit = self.best + SKIP_MARGIN * (query_magnitude + self.rect_magnitude);
        bound_sq >= limit * limit
    }

    /// The one exact evaluation: [`segment_rect_mindist`] on query segment
    /// `i`, clipped when it is one of the two that can stick out of the
    /// window (an interior segment is its own clip, bit for bit).
    #[inline]
    fn evaluate(&mut self, i: usize) {
        let mut seg = self.query.segment(i);
        if i == self.first || i == self.last {
            match seg.clip(&self.window) {
                Some(clipped) => seg = clipped,
                None => return,
            }
        }
        self.best = self.best.min(segment_rect_mindist(&seg, &self.rect));
    }

    /// True once the minimum is exactly zero: nothing can lower it.
    #[inline]
    fn done(&self) -> bool {
        float::exactly_zero(self.best)
    }
}

/// What every MINDIST evaluation does around its search: the temporal test
/// of `base` (the period cut to the query's validity) against the node,
/// the instant-window branch, the binary search for the window's segment
/// range, and the final `Option`. `search` lowers `probe.best` over
/// `probe.first..=probe.last` by whatever order and skipping it likes.
#[inline]
fn mindist_with(
    query: &Trajectory,
    base: &TimeInterval,
    mbb: &Mbb,
    search: impl FnOnce(&mut Probe<'_>),
) -> Option<f64> {
    // `base ∩ mbb.time()`, written out: most calls end here, and a box that
    // is no valid interval (the empty sentinel) is a miss, not a panic.
    let window = TimeInterval::new(base.start().max(mbb.t_min), base.end().min(mbb.t_max)).ok()?;
    let rect = mbb.rect();
    if window.is_instant() {
        // Point-in-time overlap: a single interpolated position.
        let p = query.position_at(window.start()).ok()?;
        return Some(rect.min_distance(&p));
    }
    // The window has positive duration inside the query's validity, so the
    // segment holding its start and the last one starting before its end
    // both exist; the clamps keep the indexing total for any other input.
    let points = query.points();
    let top = points.len() - 2;
    let first = points
        .partition_point(|p| p.t <= window.start())
        .saturating_sub(1)
        .min(top);
    let last = (first + points[first + 1..].partition_point(|p| p.t < window.end())).min(top);
    let mut probe = Probe {
        query,
        window,
        rect_magnitude: magnitude(&rect),
        rect,
        first,
        last,
        best: f64::INFINITY,
    };
    search(&mut probe);
    (probe.best < f64::INFINITY).then_some(probe.best)
}

/// `MINDIST(Q, N)`: minimum spatial distance between the query trajectory
/// and the node MBB over the temporal overlap of `period`, the query's
/// validity, and the node's temporal extent.
///
/// Returns `None` when there is no temporal overlap (the node cannot
/// contribute to the query period at all).
///
/// Stateless: a flat scan of the window's segments, each tested by its own
/// bounding rectangle before the exact kernel runs. A search that asks
/// about many nodes for one query builds a [`QueryMindist`] instead; both
/// return the same bits.
pub fn trajectory_mbb_mindist(query: &Trajectory, mbb: &Mbb, period: &TimeInterval) -> Option<f64> {
    let base = period.intersect(&query.time())?;
    mindist_with(query, &base, mbb, |probe| {
        let points = query.points();
        for i in probe.first..=probe.last {
            let chunk = segment_rect(&points[i], &points[i + 1]);
            if !probe.clears(rect_gap_sq(&chunk, &probe.rect), magnitude(&chunk)) {
                probe.evaluate(i);
                if probe.done() {
                    break;
                }
            }
        }
    })
}

/// The per-query MINDIST plan: everything about `MINDIST(Q, ·)` that does
/// not depend on the node, computed once.
///
/// Level 0 holds the spatial bounding rectangle of every query segment;
/// level `l` holds one rectangle per chunk of `2^l` consecutive segments
/// (the last chunk of a level may be short). That is at most `2n + log n`
/// rectangles for `n` segments, built in `O(n)` and dropped with the
/// search. [`QueryMindist::mindist`] runs branch-and-bound over it: the
/// distance from the node rectangle to a chunk rectangle is a lower bound
/// for every segment under the chunk, the nearer child is searched first,
/// and a chunk is skipped when its bound clears the running minimum (see
/// the module docs for why that changes no returned bit).
#[derive(Debug)]
pub struct QueryMindist<'a> {
    query: &'a Trajectory,
    /// `period ∩ query.time()`; `None` when the period misses the query,
    /// in which case every node does too.
    base: Option<TimeInterval>,
    /// Largest absolute coordinate of the query, for the skip margin.
    magnitude: f64,
    /// Chunk rectangles, level after level.
    chunks: Vec<Rect>,
    /// `chunks[level_start[l]..]` begins level `l`; the last level has one
    /// chunk covering the whole query.
    level_start: Vec<usize>,
}

impl<'a> QueryMindist<'a> {
    /// Plans MINDIST evaluations of `query` over `period`.
    pub fn new(query: &'a Trajectory, period: &TimeInterval) -> Self {
        let points = query.points();
        let mut chunks = Vec::with_capacity(2 * points.len());
        chunks.extend(points.windows(2).map(|w| segment_rect(&w[0], &w[1])));
        let mut level_start = vec![0];
        let mut lo = 0;
        while chunks.len() - lo > 1 {
            let hi = chunks.len();
            level_start.push(hi);
            for j in (lo..hi).step_by(2) {
                let pair = if j + 1 < hi {
                    chunks[j].union(&chunks[j + 1])
                } else {
                    chunks[j]
                };
                chunks.push(pair);
            }
            lo = hi;
        }
        QueryMindist {
            query,
            base: period.intersect(&query.time()),
            magnitude: chunks.last().map_or(0.0, magnitude),
            chunks,
            level_start,
        }
    }

    /// `MINDIST(Q, N)` for the node box `mbb`: the same `Option<f64>`, bit
    /// for bit, as [`trajectory_mbb_mindist`] on the plan's query and
    /// period.
    pub fn mindist(&self, mbb: &Mbb) -> Option<f64> {
        let base = self.base.as_ref()?;
        mindist_with(self.query, base, mbb, |probe| {
            // Start at the lowest chunk covering the whole range (a leaf
            // when the window sits inside one segment).
            let level = (usize::BITS - (probe.first ^ probe.last).leading_zeros()) as usize;
            self.search(probe, level, probe.first >> level);
        })
    }

    /// Branch-and-bound below chunk `j` of `level`, restricted to the
    /// probe's segment range.
    fn search(&self, probe: &mut Probe<'_>, mut level: usize, mut j: usize) {
        while level > 0 {
            level -= 1;
            let row = &self.chunks[self.level_start[level]..];
            // The children that overlap the range: chunk `c` of this level
            // covers segments `c << level ..`, so it overlaps iff `c` lies
            // between the range ends' own chunk numbers (which also keeps
            // `c` inside the row).
            let left = (2 * j).max(probe.first >> level);
            let right = (2 * j + 1).min(probe.last >> level);
            let near = rect_gap_sq(&row[left], &probe.rect);
            if left == right {
                if probe.clears(near, self.magnitude) {
                    return;
                }
                j = left;
                continue;
            }
            // Two children: the nearer one first, then the other against
            // whatever minimum that left behind.
            let far = rect_gap_sq(&row[right], &probe.rect);
            let (near, first, far, second) = if far < near {
                (far, right, near, left)
            } else {
                (near, left, far, right)
            };
            if probe.clears(near, self.magnitude) {
                return;
            }
            self.search(probe, level, first);
            if probe.done() || probe.clears(far, self.magnitude) {
                return;
            }
            j = second;
        }
        probe.evaluate(j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Node, Rtree3D, StrTree, TbTree, TrajectoryIndex};
    use mst_prng::Rng;
    use mst_trajectory::TrajectoryId;
    use std::cell::Cell;

    thread_local! {
        /// Set by the negative test only (each test runs on its own thread).
        static UNSOUND_SKIP: Cell<bool> = const { Cell::new(false) };
    }

    /// True while the negative test has swapped the skip predicate for an
    /// unsound one (no margin, bound inflated by one part in 10^9).
    pub(super) fn unsound_skip() -> bool {
        UNSOUND_SKIP.with(Cell::get)
    }

    /// The unpruned `MINDIST(Q, N)`: every query segment inside the window
    /// is clipped and evaluated, nothing is skipped. The oracle the plan
    /// and the stateless driver must match bit for bit.
    fn reference_mindist(query: &Trajectory, mbb: &Mbb, period: &TimeInterval) -> Option<f64> {
        let window = period.intersect(&query.time())?.intersect(&mbb.time())?;
        let rect = mbb.rect();
        if window.is_instant() {
            let p = query.position_at(window.start()).ok()?;
            return Some(rect.min_distance(&p));
        }
        let mut best = f64::INFINITY;
        let first = query.segment_index_at(window.start()).unwrap();
        for i in first..query.num_segments() {
            let seg = query.segment(i);
            if seg.time().start() >= window.end() {
                break;
            }
            let Some(clipped) = seg.clip(&window) else {
                continue;
            };
            best = best.min(segment_rect_mindist(&clipped, &rect));
            if float::exactly_zero(best) {
                break;
            }
        }
        (best < f64::INFINITY).then_some(best)
    }

    fn seg(t0: f64, x0: f64, y0: f64, t1: f64, x1: f64, y1: f64) -> Segment {
        Segment::new(SamplePoint::new(t0, x0, y0), SamplePoint::new(t1, x1, y1)).unwrap()
    }

    /// Brute-force oracle: sample the segment densely.
    fn oracle(s: &Segment, r: &Rect) -> f64 {
        let (t0, t1) = (s.start().t, s.end().t);
        let mut best = f64::INFINITY;
        for i in 0..=10_000 {
            let t = t0 + (t1 - t0) * f64::from(i) / 10_000.0;
            let p = s.position_at_unchecked(t);
            best = best.min(r.min_distance(&p));
        }
        best
    }

    #[test]
    fn stationary_point_outside_rect() {
        let s = seg(0.0, 5.0, 0.0, 1.0, 5.0, 0.0);
        let r = Rect::new(0.0, -1.0, 2.0, 1.0);
        assert!((segment_rect_mindist(&s, &r) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn passing_through_the_rect_gives_zero() {
        let s = seg(0.0, -5.0, 0.5, 1.0, 5.0, 0.5);
        let r = Rect::new(-1.0, -1.0, 1.0, 1.0);
        assert_eq!(segment_rect_mindist(&s, &r), 0.0);
    }

    #[test]
    fn closest_approach_between_faces() {
        // Moves parallel to the rect's top edge at height 3, rect top at 1.
        let s = seg(0.0, -10.0, 3.0, 1.0, 10.0, 3.0);
        let r = Rect::new(-1.0, -1.0, 1.0, 1.0);
        assert!((segment_rect_mindist(&s, &r) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_flyby_matches_oracle() {
        let cases = [
            (
                seg(0.0, -4.0, 6.0, 3.0, 7.0, -5.0),
                Rect::new(0.0, 0.0, 2.0, 2.0),
            ),
            (
                seg(1.0, 8.0, 8.0, 4.0, 9.0, 9.0),
                Rect::new(-1.0, -1.0, 1.0, 1.0),
            ),
            (
                seg(0.0, -3.0, -3.0, 2.0, -2.9, -3.1),
                Rect::new(0.0, 0.0, 1.0, 1.0),
            ),
            (
                seg(0.0, 0.5, -9.0, 5.0, 0.5, 9.0),
                Rect::new(0.0, 0.0, 1.0, 1.0),
            ),
        ];
        for (s, r) in cases {
            let fast = segment_rect_mindist(&s, &r);
            let slow = oracle(&s, &r);
            assert!(
                (fast - slow).abs() < 1e-3,
                "fast={fast} oracle={slow} for {s:?} {r:?}"
            );
            assert!(fast <= slow + 1e-12, "analytic must lower-bound sampling");
        }
    }

    #[test]
    fn trajectory_mindist_respects_temporal_overlap() {
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        // Node active only in [20, 30]: no overlap with the query's life.
        let far = Mbb::new(0.0, 0.0, 20.0, 1.0, 1.0, 30.0);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        assert_eq!(trajectory_mbb_mindist(&q, &far, &period), None);
        // Node active in [2, 4]; query x in [2, 4] then, and the node's rect
        // is x,y in [100, 101]: distance is approx 96+ in x.
        let node = Mbb::new(100.0, 0.0, 2.0, 101.0, 1.0, 4.0);
        let d = trajectory_mbb_mindist(&q, &node, &period).unwrap();
        assert!((d - 96.0).abs() < 1e-9, "d={d}");
    }

    #[test]
    fn trajectory_mindist_zero_when_query_enters_box() {
        let q = Trajectory::from_txy(&[(0.0, -5.0, 0.5), (10.0, 5.0, 0.5)]).unwrap();
        let node = Mbb::new(-1.0, -1.0, 0.0, 1.0, 1.0, 10.0);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        assert_eq!(trajectory_mbb_mindist(&q, &node, &period), Some(0.0));
    }

    #[test]
    fn instant_overlap_uses_point_distance() {
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        // Node's time extent touches the query period at exactly t=10.
        let node = Mbb::new(13.0, 0.0, 10.0, 14.0, 1.0, 20.0);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let d = trajectory_mbb_mindist(&q, &node, &period).unwrap();
        // Query is at (10, 0) at t=10; rect x starts at 13.
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tighter_window_cannot_decrease_distance() {
        let q =
            Trajectory::from_txy(&[(0.0, -10.0, 2.0), (5.0, 0.0, 2.0), (10.0, 10.0, 2.0)]).unwrap();
        let node = Mbb::new(-1.0, -1.0, 0.0, 1.0, 1.0, 10.0);
        let full = TimeInterval::new(0.0, 10.0).unwrap();
        let tight = TimeInterval::new(0.0, 2.0).unwrap();
        let d_full = trajectory_mbb_mindist(&q, &node, &full).unwrap();
        let d_tight = trajectory_mbb_mindist(&q, &node, &tight).unwrap();
        assert!(d_tight >= d_full);
    }

    // ---- bit-equality: plan == stateless driver == reference ----------

    /// Describes the first way the three evaluations disagree, if any.
    fn disagreement(
        plan: &QueryMindist<'_>,
        query: &Trajectory,
        period: &TimeInterval,
        mbb: &Mbb,
    ) -> Option<String> {
        let want = reference_mindist(query, mbb, period);
        let planned = plan.mindist(mbb);
        let stateless = trajectory_mbb_mindist(query, mbb, period);
        let bits = |d: Option<f64>| d.map(f64::to_bits);
        (bits(planned) != bits(want) || bits(stateless) != bits(want)).then(|| {
            format!(
                "reference {want:?} plan {planned:?} stateless {stateless:?}\n\
                 query {:?}\nperiod {period:?}\nmbb {mbb:?}",
                query.points()
            )
        })
    }

    /// A seeded query of `nseg` segments at coordinate scale `scale`:
    /// random walks, near-stationary jitter far from the origin, integer
    /// lattice walks (stationary and axis-parallel segments, shared
    /// vertices that tie exactly) and axis-parallel sweeps.
    fn random_query(rng: &mut Rng, nseg: usize, scale: f64) -> Trajectory {
        let kind = rng.usize_below(4);
        let lattice = kind == 2;
        let mut t = if lattice {
            rng.i64_range_inclusive(-50, 50) as f64
        } else {
            rng.f64_range(-100.0, 1000.0)
        };
        let (mut x, mut y) = if lattice {
            (
                rng.i64_range_inclusive(-8, 8) as f64,
                rng.i64_range_inclusive(-8, 8) as f64,
            )
        } else {
            (rng.f64_range(-1.0, 1.0), rng.f64_range(-1.0, 1.0))
        };
        let mut pts = Vec::with_capacity(nseg + 1);
        pts.push((t, x * scale, y * scale));
        for _ in 0..nseg {
            match kind {
                0 => {
                    x += rng.normal(0.0, 0.08);
                    y += rng.normal(0.0, 0.08);
                }
                1 => {
                    x += rng.normal(0.0, 1e-7);
                    y += rng.normal(0.0, 1e-7);
                }
                2 => {
                    x += rng.i64_range_inclusive(-1, 1) as f64;
                    y += rng.i64_range_inclusive(-1, 1) as f64;
                }
                _ => match rng.usize_below(3) {
                    0 => x += rng.normal(0.0, 0.2),
                    1 => y += rng.normal(0.0, 0.2),
                    _ => {}
                },
            }
            t += if lattice {
                1.0
            } else {
                rng.f64_range(0.01, 3.0)
            };
            pts.push((t, x * scale, y * scale));
        }
        Trajectory::from_txy(&pts).unwrap()
    }

    /// A time interval related to the query's samples in one of the ways
    /// that matter: everything, a random cut, ends exactly on samples,
    /// inside one segment, an instant, overhanging, touching, missing.
    fn random_interval(rng: &mut Rng, q: &Trajectory) -> TimeInterval {
        let pts = q.points();
        let (t0, t1) = (q.start_time(), q.end_time());
        let sample = |rng: &mut Rng| pts[rng.usize_below(pts.len())].t;
        let (a, b) = match rng.usize_below(9) {
            0 => (t0, t1),
            1 => (rng.f64_range(t0, t1), rng.f64_range(t0, t1)),
            2 => (sample(rng), sample(rng)),
            3 => (sample(rng), rng.f64_range(t0, t1)),
            4 => {
                let i = rng.usize_below(pts.len() - 1);
                let (s, e) = (pts[i].t, pts[i + 1].t);
                (rng.f64_range(s, e), rng.f64_range(s, e))
            }
            5 => {
                let t = if rng.bool() {
                    sample(rng)
                } else {
                    rng.f64_range(t0, t1)
                };
                (t, t)
            }
            6 => (t0 - rng.f64_range(0.0, 5.0), t1 + rng.f64_range(0.0, 5.0)),
            7 => {
                if rng.bool() {
                    (t1, t1 + 3.0)
                } else {
                    (t0 - 3.0, t0)
                }
            }
            _ => (t1 + 1.0, t1 + 2.0),
        };
        TimeInterval::new(a.min(b), a.max(b)).unwrap()
    }

    /// A node box whose rectangle is a point, a line, a box near the
    /// path, the query's whole footprint, a box touching that footprint on
    /// a face, a box with a corner exactly on a query sample, or far away.
    fn random_mbb(rng: &mut Rng, q: &Trajectory) -> Mbb {
        let pts = q.points();
        let foot = q.mbb().rect();
        let spread = foot.width().max(foot.height()).max(magnitude(&foot) * 1e-9);
        let anchor = pts[rng.usize_below(pts.len())];
        let near = |rng: &mut Rng, c: f64| c + rng.normal(0.0, 0.3) * spread;
        let size = |rng: &mut Rng| rng.f64_range(0.0, 0.5) * spread;
        let (x, y) = (near(rng, anchor.x), near(rng, anchor.y));
        let rect = match rng.usize_below(8) {
            0 => Rect::new(x, y, x, y),
            1 => Rect::new(anchor.x, anchor.y, anchor.x, anchor.y),
            2 => {
                if rng.bool() {
                    Rect::new(x, y, x, y + size(rng))
                } else {
                    Rect::new(x, y, x + size(rng), y)
                }
            }
            3 => Rect::new(x, y, x + size(rng), y + size(rng)),
            4 => Rect::new(
                foot.x_min - size(rng),
                foot.y_min - size(rng),
                foot.x_max + size(rng),
                foot.y_max + size(rng),
            ),
            5 => Rect::new(
                foot.x_max,
                foot.y_min,
                foot.x_max + size(rng),
                foot.y_max + size(rng),
            ),
            6 => Rect::new(
                anchor.x,
                anchor.y,
                anchor.x + size(rng),
                anchor.y + size(rng),
            ),
            _ => {
                let far = foot.x_max + 10.0 * spread;
                Rect::new(far, y, far + size(rng), y + size(rng))
            }
        };
        let time = random_interval(rng, q);
        Mbb::new(
            rect.x_min,
            rect.y_min,
            time.start(),
            rect.x_max,
            rect.y_max,
            time.end(),
        )
    }

    const SCALES: [f64; 5] = [1e-3, 1.0, 1e3, 1e6, 1e9];
    const LENGTHS: [usize; 6] = [2, 3, 5, 20, 100, 501];
    const MBBS_PER_PLAN: usize = 8;

    /// Checks `triples` seeded (query, period, MBB) triples, every scale
    /// and query length in turn; returns the first disagreement.
    fn sweep(seed: u64, triples: usize) -> Option<String> {
        let mut rng = Rng::seed_from(seed);
        for case in 0..triples.div_ceil(MBBS_PER_PLAN) {
            let scale = SCALES[case % SCALES.len()];
            let nseg = LENGTHS[(case / SCALES.len()) % LENGTHS.len()];
            let query = random_query(&mut rng, nseg, scale);
            let period = random_interval(&mut rng, &query);
            let plan = QueryMindist::new(&query, &period);
            for _ in 0..MBBS_PER_PLAN {
                let mbb = random_mbb(&mut rng, &query);
                if let Some(found) = disagreement(&plan, &query, &period, &mbb) {
                    return Some(format!(
                        "case {case} (scale {scale}, {nseg} segments): {found}"
                    ));
                }
            }
        }
        None
    }

    /// Full count in release (`ci.sh` runs it there); a smaller one in
    /// debug so the tier-1 suite stays quick.
    fn sweep_size() -> usize {
        if cfg!(debug_assertions) {
            24_000
        } else {
            240_000
        }
    }

    #[test]
    fn mindist_plan_and_stateless_driver_match_the_reference_bit_for_bit() {
        if let Some(found) = sweep(0x4d49_4e44, sweep_size()) {
            panic!("{found}");
        }
    }

    #[test]
    fn mindist_suite_catches_an_unsound_skip() {
        // Proof the sweep can see what it guards against: with no margin
        // and the bound inflated by one part in 10^9, some triple must
        // come out different from the reference.
        UNSOUND_SKIP.with(|u| u.set(true));
        let found = sweep(0x4d49_4e44, sweep_size());
        UNSOUND_SKIP.with(|u| u.set(false));
        assert!(found.is_some(), "an unsound skip went unnoticed");
    }

    /// Every (period, MBB) pair of a small hand-made grid, all three ways.
    fn assert_agree(query: &Trajectory, periods: &[TimeInterval], mbbs: &[Mbb]) {
        for period in periods {
            let plan = QueryMindist::new(query, period);
            for mbb in mbbs {
                if let Some(found) = disagreement(&plan, query, period, mbb) {
                    panic!("{found}");
                }
            }
        }
    }

    fn iv(a: f64, b: f64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn mindist_plan_is_total_for_degenerate_queries_and_periods() {
        // A 2-point query: one segment, a one-chunk hierarchy.
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        let node = Mbb::new(4.0, 3.0, 2.0, 5.0, 4.0, 8.0);
        let periods = [
            iv(0.0, 10.0),
            iv(3.0, 4.0),
            iv(10.0, 20.0), // touches the query at an instant
            iv(-5.0, 0.0),
            iv(20.0, 30.0), // misses it
            iv(5.0, 5.0),
        ];
        assert_agree(&q, &periods, &[node]);
        let plan = QueryMindist::new(&q, &iv(0.0, 10.0));
        assert_eq!(plan.mindist(&node), Some(3.0));
        // A period that misses the query: every node is a miss.
        let missed = QueryMindist::new(&q, &iv(20.0, 30.0));
        assert_eq!(missed.mindist(&node), None);
        assert_eq!(
            missed.mindist(&Mbb::new(0.0, 0.0, 20.0, 1.0, 1.0, 30.0)),
            None
        );
        // Touching at an instant: only the query's last position counts.
        let touching = QueryMindist::new(&q, &iv(10.0, 20.0));
        assert_eq!(
            touching.mindist(&Mbb::new(13.0, 0.0, 5.0, 14.0, 1.0, 15.0)),
            Some(3.0)
        );
        assert_eq!(touching.mindist(&node), None);
        // The empty sentinel is a miss, not a panic.
        assert_eq!(plan.mindist(&Mbb::empty()), None);
        assert_eq!(
            trajectory_mbb_mindist(&q, &Mbb::empty(), &iv(0.0, 10.0)),
            None
        );
    }

    #[test]
    fn mindist_stationary_axis_parallel_and_corner_grazing_queries_agree() {
        // Stationary stretches, axis-parallel legs, then a diagonal that
        // passes exactly through the corner (4, 4) of the first box.
        let q = Trajectory::from_txy(&[
            (0.0, 0.0, 0.0),
            (1.0, 0.0, 0.0),
            (2.0, 3.0, 0.0),
            (3.0, 3.0, 0.0),
            (4.0, 3.0, 5.0),
            (5.0, 5.0, 3.0),
            (6.0, 5.0, 3.0),
            (7.0, 9.0, 3.0),
        ])
        .unwrap();
        let corner = Mbb::new(4.0, 4.0, 0.0, 6.0, 6.0, 7.0);
        let mbbs = [
            corner,
            Mbb::new(4.0, 4.0, 4.5, 6.0, 6.0, 4.5), // the grazing instant itself
            Mbb::new(4.0, 4.0, 0.0, 6.0, 6.0, 4.0), // ends before the graze
            Mbb::new(3.0, -2.0, 0.0, 3.0, -1.0, 7.0), // a line below a stationary stretch
            Mbb::new(0.0, 0.0, 0.0, 0.0, 0.0, 7.0), // a point on the path
            Mbb::new(-1.0, -1.0, 0.0, 10.0, 6.0, 7.0), // contains the whole query
            Mbb::new(9.0, 0.0, 0.0, 12.0, 6.0, 7.0), // touches its footprint on a face
            Mbb::new(20.0, 20.0, 2.0, 21.0, 21.0, 5.0),
        ];
        let periods = [
            iv(0.0, 7.0),
            iv(1.0, 6.0),
            iv(0.5, 6.5),
            iv(2.2, 2.7),
            iv(4.0, 5.0),
            iv(3.0, 3.0),
        ];
        assert_agree(&q, &periods, &mbbs);
        // The zero early exit: the graze is an exact zero on every path.
        let plan = QueryMindist::new(&q, &iv(0.0, 7.0));
        assert_eq!(plan.mindist(&corner), Some(0.0));
        assert_eq!(
            trajectory_mbb_mindist(&q, &corner, &iv(0.0, 7.0)),
            Some(0.0)
        );
    }

    // ---- the same bits on every entry of every internal node ----------

    /// Seeded random walks in a 1000 x 1000 world, one sample per time
    /// unit, lifetimes staggered so node boxes start and end mid-query.
    fn walkers(objects: u64, samples: usize) -> Vec<Trajectory> {
        let mut rng = Rng::seed_from(0x7472_6565);
        (0..objects)
            .map(|id| {
                let (mut x, mut y) = (rng.f64_range(0.0, 1000.0), rng.f64_range(0.0, 1000.0));
                let start = (id % 4) as f64 * 7.0;
                let pts: Vec<(f64, f64, f64)> = (0..samples)
                    .map(|i| {
                        x += rng.normal(0.0, 4.0);
                        y += rng.normal(0.0, 4.0);
                        (start + i as f64, x, y)
                    })
                    .collect();
                Trajectory::from_txy(&pts).unwrap()
            })
            .collect()
    }

    /// Compares plan and reference on every internal entry of `index` for
    /// queries of 1 %, 25 % and 100 % of an object's lifetime.
    fn check_every_internal_entry<I: TrajectoryIndex>(index: &I, data: &[Trajectory]) {
        let mut internal = Vec::new();
        let mut stack: Vec<_> = index.root().into_iter().collect();
        while let Some(page) = stack.pop() {
            if let Node::Internal { entries, .. } = index.read_node(page).unwrap() {
                stack.extend(entries.iter().map(|e| e.child));
                internal.extend(entries.iter().map(|e| e.mbb));
            }
        }
        // Every leaf hangs off an internal entry, so the walk saw them all.
        let leaves = index.num_entries() as usize / crate::LEAF_CAPACITY;
        assert!(internal.len() >= leaves.max(2), "walk missed nodes");
        for (pick, share) in [(3usize, 0.01), (1, 0.25), (7, 1.0), (9, 0.25)] {
            let object = &data[pick];
            let len = (object.duration() * share).max(2.5);
            let start = object.start_time() + (object.duration() - len) * 0.37;
            let period = iv(start, start + len);
            let query = object.clip(&period).unwrap();
            let plan = QueryMindist::new(&query, &period);
            for mbb in &internal {
                let want = reference_mindist(&query, mbb, &period).map(f64::to_bits);
                assert_eq!(
                    plan.mindist(mbb).map(f64::to_bits),
                    want,
                    "{mbb:?} {period:?}"
                );
            }
        }
    }

    #[test]
    fn mindist_plan_matches_the_reference_on_every_internal_entry_of_real_trees() {
        // `paranoid` re-audits the whole tree after every insert (quadratic):
        // that run is about the trees, so it gets a small one.
        let (objects, samples) = if cfg!(feature = "paranoid") {
            (10, 160)
        } else {
            (40, 300)
        };
        let data = walkers(objects, samples);
        let (mut rtree, mut strtree, mut tbtree) = (Rtree3D::new(), StrTree::new(), TbTree::new());
        // Temporal arrival, interleaved across objects (the TB-tree needs
        // per-object temporal order; all three get the same stream).
        let mut entries = Vec::new();
        for seq in 0..samples as u32 - 1 {
            for (id, t) in data.iter().enumerate() {
                entries.push(crate::LeafEntry {
                    traj: TrajectoryId(id as u64),
                    seq,
                    segment: t.segment(seq as usize),
                });
            }
        }
        for e in &entries {
            rtree.insert(*e).unwrap();
            strtree.insert(*e).unwrap();
            tbtree.insert(*e).unwrap();
        }
        let bulk = Rtree3D::bulk_load(entries).unwrap();
        check_every_internal_entry(&rtree, &data);
        check_every_internal_entry(&bulk, &data);
        check_every_internal_entry(&strtree, &data);
        check_every_internal_entry(&tbtree, &data);
    }
}
