//! The segment queries the paper's index serves beside k-MST, each one
//! search over every shard's tree (a single tree is a forest of one):
//!
//! * [`nearest_segments`] — point kNN (Hjaltason & Samet's distance
//!   browsing): the k segments that came closest to a static location
//!   during a time window. The same [`MbbDescent`] as
//!   [`crate::nearest_trajectories`], keyed by the distance from the
//!   location to each node's rectangle, pruned by the k-th distance found.
//! * [`segments_within`] — the 3D range query: every segment whose box
//!   meets a window, each tree walked in turn.
//!
//! Answers come in a canonical order — point kNN ties broken by
//! `(trajectory, sequence)`, range hits in `(trajectory, sequence)` order —
//! so a query returns the same answer at any shard count. Both stop at the
//! first node read that fails and name the shard, which [`crate::run`]
//! runs the query again without.

use mst_index::mindist::segment_rect_mindist;
use mst_index::{KnnMatch, LeafEntry, TrajectoryIndex};
use mst_trajectory::{Mbb, Point, Rect, TimeInterval};

use crate::descent::{MbbDescent, NodeKey};
use crate::forest::Abort;
use crate::merge;
use crate::metrics::QueryMetrics;
use crate::share::BoundShare;
use crate::topk::rounded_up;

/// The point-kNN node key: the distance from the location to the node's
/// rectangle, for a node whose time span meets the window.
struct PointKey {
    location: Point,
    window: TimeInterval,
}

impl NodeKey for PointKey {
    fn key(&self, mbb: &Mbb) -> Option<f64> {
        let meets = mbb.time().overlaps(&self.window);
        meets.then(|| mbb.rect().min_distance(&self.location))
    }
}

/// Finds the k segments that came closest to `location` during `window` —
/// a segment's distance is the minimum distance of its moving point from
/// the location over its overlap with the window — ascending by distance,
/// ties broken by `(trajectory, sequence)`, over every shard's tree at
/// once: one descent, one k-th threshold.
///
/// `share` can stop the traversal (deadlines); `metrics` receives heap
/// traffic and node and buffer accesses. A failed node read ends the
/// search as an [`Abort::Shard`].
pub fn nearest_segments<I: TrajectoryIndex, M: QueryMetrics, B: BoundShare>(
    shards: &[&I],
    location: Point,
    window: &TimeInterval,
    k: usize,
    share: &B,
    metrics: &mut M,
) -> Result<Vec<KnnMatch>, Abort> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let key = PointKey {
        location,
        window: *window,
    };
    let mut source = MbbDescent::keyed(shards.iter().copied(), key, metrics);
    let at = Rect::from_point(location);
    // Every segment no farther than the threshold when found; the final
    // sort and truncation keep the k nearest.
    let mut found = Vec::new();
    let mut nearest = Vec::new();

    while let Some(bound) = source.pop(metrics) {
        if share.poll_stop() || bound > kth(&nearest, k) {
            break;
        }
        let Some(entries) = source.expand(metrics)? else {
            continue;
        };
        for entry in entries {
            let Some(clipped) = entry.segment.clip(window) else {
                continue;
            };
            let distance = segment_rect_mindist(&clipped, &at);
            if distance <= kth(&nearest, k) {
                keep_nearest(&mut nearest, k, distance);
                found.push(KnnMatch { entry, distance });
            }
        }
    }
    Ok(merge::nearest(
        k,
        found,
        |m| m.distance,
        |m| (m.entry.traj, m.entry.seq),
    ))
}

/// Inserts `distance` into `nearest`, the k smallest distances found, in
/// order: a segment's distance is final, so no key is kept per segment.
fn keep_nearest(nearest: &mut Vec<f64>, k: usize, distance: f64) {
    if nearest.len() < k || nearest.last().is_some_and(|&last| distance < last) {
        let slot = nearest.partition_point(|&held| held <= distance);
        nearest.insert(slot, distance);
        nearest.truncate(k);
    }
}

/// The value to prune strictly above: the k-th distance widened by
/// [`rounded_up`] (ties survive to the tie-break), `+inf` below k.
fn kth(nearest: &[f64], k: usize) -> f64 {
    nearest
        .get(k - 1)
        .map_or(f64::INFINITY, |&kth| rounded_up(kth))
}

/// Every segment whose bounding box meets `window`, over every shard's
/// tree, in `(trajectory, sequence)` order. Each tree is walked with
/// [`TrajectoryIndex::range_query_traced`] in shard order; `share` is
/// polled before each, so an expired deadline leaves the trees not yet
/// walked out of the answer. A failed read ends the query as an
/// [`Abort::Shard`].
pub fn segments_within<I: TrajectoryIndex, M: QueryMetrics, B: BoundShare>(
    shards: &[&I],
    window: &Mbb,
    share: &B,
    metrics: &mut M,
) -> Result<Vec<LeafEntry>, Abort> {
    let mut matches = Vec::new();
    for (shard, index) in shards.iter().enumerate() {
        if share.poll_stop() {
            break;
        }
        let hits = index.range_query_traced(window, metrics);
        let hits = hits.map_err(|error| Abort::read(shard, error))?;
        if matches.is_empty() {
            matches = hits;
        } else {
            matches.extend(hits);
        }
    }
    Ok(merge::range(matches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NoopSink;
    use crate::share::NoShare;
    use mst_index::Rtree3D;
    use mst_trajectory::TrajectoryId;

    fn segment(id: u64, seq: u32, t: f64, x: f64, y: f64) -> LeafEntry {
        LeafEntry {
            traj: TrajectoryId(id),
            seq,
            segment: mst_trajectory::Segment::new(
                mst_trajectory::SamplePoint::new(t, x, y),
                mst_trajectory::SamplePoint::new(t + 1.0, x + 0.3, y),
            )
            .unwrap(),
        }
    }

    /// 400 short segments on a 20 x 20 grid, starting at `i % 50`.
    fn grid() -> Vec<LeafEntry> {
        (0..400u32)
            .map(|i| {
                let (x, y) = (f64::from(i % 20) * 5.0, f64::from(i / 20) * 5.0);
                segment(u64::from(i), 0, f64::from(i % 50), x, y)
            })
            .collect()
    }

    fn tree_of(entries: &[LeafEntry]) -> Rtree3D {
        let mut t = Rtree3D::new();
        for e in entries {
            t.insert(*e).unwrap();
        }
        t
    }

    fn knn(trees: &[&Rtree3D], p: Point, w: &TimeInterval, k: usize) -> Vec<KnnMatch> {
        nearest_segments(trees, p, w, k, &NoShare, &mut NoopSink).unwrap()
    }

    /// Brute force over all segments, in `(distance, traj, seq)` order.
    fn segments_oracle(
        entries: &[LeafEntry],
        p: Point,
        w: &TimeInterval,
        k: usize,
    ) -> Vec<(u64, u32, f64)> {
        let mut all: Vec<(u64, u32, f64)> = entries
            .iter()
            .filter_map(|e| {
                let c = e.segment.clip(w)?;
                Some((
                    e.traj.0,
                    e.seq,
                    segment_rect_mindist(&c, &Rect::from_point(p)),
                ))
            })
            .collect();
        all.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    fn keys(matches: &[KnnMatch]) -> Vec<(u64, u32, f64)> {
        matches
            .iter()
            .map(|m| (m.entry.traj.0, m.entry.seq, m.distance))
            .collect()
    }

    #[test]
    fn knn_matches_brute_force() {
        let entries = grid();
        let t = tree_of(&entries);
        let w = TimeInterval::new(0.0, 100.0).unwrap();
        for (px, py) in [(12.0, 33.0), (0.0, 0.0), (97.0, 97.0)] {
            let p = Point::new(px, py);
            let got = knn(&[&t], p, &w, 5);
            assert_eq!(keys(&got), segments_oracle(&entries, p, &w, 5));
        }
    }

    #[test]
    fn window_restricts_candidates() {
        let t = tree_of(&grid());
        // Segments start at t = i % 50, so [200, 300] excludes everything.
        let w = TimeInterval::new(200.0, 300.0).unwrap();
        assert!(knn(&[&t], Point::new(1.0, 1.0), &w, 3).is_empty());
        // A narrow window keeps only matching start times.
        let w = TimeInterval::new(10.0, 10.5).unwrap();
        let got = knn(&[&t], Point::new(1.0, 1.0), &w, 100);
        assert!(!got.is_empty());
        for m in &got {
            assert!(m.entry.segment.time().overlaps(&w));
        }
    }

    #[test]
    fn knn_visits_few_pages() {
        let mut t = tree_of(&grid());
        let w = TimeInterval::new(0.0, 100.0).unwrap();
        t.reset_stats();
        knn(&[&t], Point::new(50.0, 50.0), &w, 1);
        let reads = t.stats().node_reads;
        assert!(
            (reads as usize) < t.num_pages() / 2,
            "kNN read {reads} of {} pages",
            t.num_pages()
        );
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let t = tree_of(&grid());
        let w = TimeInterval::new(0.0, 100.0).unwrap();
        assert!(knn(&[&t], Point::new(0.0, 0.0), &w, 0).is_empty());
        assert!(knn(&[&Rtree3D::new()], Point::new(0.0, 0.0), &w, 3).is_empty());
        assert!(knn(&[], Point::new(0.0, 0.0), &w, 3).is_empty());
    }

    #[test]
    fn segment_ties_break_by_trajectory_then_sequence_at_any_shard_count() {
        // Every segment of a column sits at the same distance from the
        // location: ties everywhere, the k-th cut among them.
        let entries: Vec<LeafEntry> = (0..40u64)
            .flat_map(|id| {
                let x = f64::from(u32::try_from(id % 4).unwrap()) * 2.0;
                (0..6u32).map(move |seq| segment(id, seq, f64::from(seq), x, 1.0))
            })
            .collect();
        let w = TimeInterval::new(0.0, 10.0).unwrap();
        let p = Point::new(0.0, 0.0);
        for k in [1, 7, 30, 61, 500] {
            let want = segments_oracle(&entries, p, &w, k);
            for shards in 1..=3u64 {
                let trees: Vec<Rtree3D> = (0..shards)
                    .map(|s| {
                        let mine: Vec<LeafEntry> = entries
                            .iter()
                            .filter(|e| e.traj.0 % shards == s)
                            .copied()
                            .collect();
                        tree_of(&mine)
                    })
                    .collect();
                let forest: Vec<&Rtree3D> = trees.iter().collect();
                assert_eq!(
                    keys(&knn(&forest, p, &w, k)),
                    want,
                    "k {k}, {shards} shards"
                );
            }
        }
    }

    /// A shard that fails part-way through the search, after its near
    /// segments have set the threshold, takes their distances out with
    /// them: the answer is what the surviving tree answers alone.
    #[test]
    fn a_shard_failing_mid_search_leaves_the_survivors_answer() {
        use crate::{run, BatchQuery, MovingObjectDatabase, Query, TrajectoryStore};
        use mst_index::FaultConfig;
        let window = TimeInterval::new(0.0, 1.0).unwrap();
        let here = Point::new(0.0, 0.0);
        // Tree a: 4 000 segments within 2 of the location, on a spiral.
        // Tree b: 400 diagonals 0.57 to 2 away whose boxes hold the
        // location, so b's leaves are read while a's segments hold the
        // threshold, before a's first uncached node.
        let near: Vec<LeafEntry> = (0..4000u32)
            .map(|i| {
                let (turn, radius) = (f64::from(i) * 2.4, 2.0 * (f64::from(i) / 4000.0).sqrt());
                let (x, y) = (radius * turn.cos(), radius * turn.sin());
                segment(2 * u64::from(i), 0, 0.0, x, y)
            })
            .collect();
        let far: Vec<LeafEntry> = (0..400u32)
            .map(|i| {
                // On the line x + y = -c, from (4 - c, -4) to (-4, 4 - c).
                let c = 0.8 + f64::from(i) * 0.005;
                let diagonal = mst_trajectory::Segment::new(
                    mst_trajectory::SamplePoint::new(0.0, 4.0 - c, -4.0),
                    mst_trajectory::SamplePoint::new(1.0, -4.0, 4.0 - c),
                );
                LeafEntry {
                    traj: TrajectoryId(2 * u64::from(i) + 1),
                    seq: 0,
                    segment: diagonal.unwrap(),
                }
            })
            .collect();
        let (mut a, b) = (tree_of(&near), tree_of(&far));
        // Cache what a k = 1 search reads of a, then fail every other read.
        a.set_buffer_capacity(Some(10_000)).unwrap();
        knn(&[&a], here, &window, 1);
        let faults = FaultConfig::quiet(7).with_read_transient(1.0);
        a.set_fault_injection(Some(faults)).unwrap();
        let a = MovingObjectDatabase::from_parts(a, TrajectoryStore::new());
        let b = MovingObjectDatabase::from_parts(b, TrajectoryStore::new());
        for k in [5, 50] {
            let query = Query::knn_segments(here).k(k).during(&window);
            let query = BatchQuery::knn_segments(query).unwrap();
            let (answer, failures) = run(&[(0, &a), (1, &b)], &query, &NoShare, &mut NoopSink);
            assert_eq!(failures.len(), 1, "k {k}: a fails mid-search");
            assert_eq!(failures[0].shard, 0);
            let alone = knn(&[b.index()], here, &window, k);
            assert_eq!(alone.len(), k);
            assert_eq!(keys(answer.as_segments().unwrap()), keys(&alone), "k {k}");
        }
    }

    #[test]
    fn a_forest_range_is_canonically_ordered() {
        let entries = grid();
        let halves: Vec<Rtree3D> = (0..2u64)
            .map(|s| {
                let mine: Vec<LeafEntry> = entries
                    .iter()
                    .filter(|e| e.traj.0 % 2 == s)
                    .copied()
                    .collect();
                tree_of(&mine)
            })
            .collect();
        let window = Mbb::new(10.0, 10.0, 0.0, 40.0, 40.0, 30.0);
        let mut want: Vec<(u64, u32)> = entries
            .iter()
            .filter(|e| e.mbb().intersects(&window))
            .map(|e| (e.traj.0, e.seq))
            .collect();
        want.sort_unstable();
        assert!(want.len() > 10);
        let whole = tree_of(&entries);
        for forest in [
            vec![&whole],
            vec![&halves[0], &halves[1]],
            vec![&halves[1], &halves[0]],
        ] {
            let hits = segments_within(&forest, &window, &NoShare, &mut NoopSink).unwrap();
            let got: Vec<(u64, u32)> = hits.iter().map(|e| (e.traj.0, e.seq)).collect();
            assert_eq!(got, want);
        }
    }
}
