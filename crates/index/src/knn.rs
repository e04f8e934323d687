//! k-nearest-neighbour search over indexed trajectory segments — the
//! "traditional" distance-browsing query (Hjaltason & Samet) that the same
//! R-tree-like structures serve alongside MST search, per the paper's
//! premise (and its reference [6], Frentzos et al.'s NN algorithms on
//! moving-object trajectories).
//!
//! The query is a static point plus a time window: *which k segments came
//! closest to this location during the window?* Distance of a segment is
//! the minimum spatial distance of its moving point over the temporal
//! overlap with the window ([`crate::mindist::segment_rect_mindist`] with a
//! degenerate rectangle).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mst_trajectory::{Point, Rect, TimeInterval};

use crate::metrics::{MetricsSink, NoopSink};
use crate::mindist::segment_rect_mindist;
use crate::{LeafEntry, Node, PageId, Result, TrajectoryIndex};

/// One kNN answer: the segment and its minimum distance from the query
/// point during the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnMatch {
    /// The matched segment entry.
    pub entry: LeafEntry,
    /// Its minimum distance from the query point over the temporal overlap.
    pub distance: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum QueueItem {
    Node(PageId),
    Entry(LeafEntry),
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Prioritized {
    distance: f64,
    tiebreak: u64,
    item: QueueItem,
}

impl Eq for Prioritized {}

impl Ord for Prioritized {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then(self.tiebreak.cmp(&other.tiebreak))
    }
}

impl PartialOrd for Prioritized {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Finds the `k` segments that came closest to `point` during `window`,
/// in ascending distance order, using best-first distance browsing (each
/// node is visited only if it can still contain a better answer).
pub fn knn_segments<I: TrajectoryIndex>(
    index: &I,
    point: Point,
    window: &TimeInterval,
    k: usize,
) -> Result<Vec<KnnMatch>> {
    knn_segments_traced(index, point, window, k, &mut NoopSink)
}

/// [`knn_segments`] with observability: heap traffic, node accesses, and
/// buffer behaviour are reported to `sink`. The traced and untraced paths
/// are the same code — [`knn_segments`] is this function instantiated with
/// the [`NoopSink`].
pub fn knn_segments_traced<I: TrajectoryIndex, S: MetricsSink>(
    index: &I,
    point: Point,
    window: &TimeInterval,
    k: usize,
    sink: &mut S,
) -> Result<Vec<KnnMatch>> {
    let mut out = Vec::new();
    if k == 0 {
        return Ok(out);
    }
    let Some(root) = index.root() else {
        return Ok(out);
    };
    let point_rect = Rect::from_point(point);
    let mut tiebreak = 0u64;
    let mut heap: BinaryHeap<Reverse<Prioritized>> = BinaryHeap::new();
    heap.push(Reverse(Prioritized {
        distance: 0.0,
        tiebreak,
        item: QueueItem::Node(root),
    }));
    sink.heap_push();

    while let Some(Reverse(head)) = heap.pop() {
        sink.heap_pop();
        match head.item {
            QueueItem::Entry(entry) => {
                // Entries surface in true distance order: this one is final.
                out.push(KnnMatch {
                    entry,
                    distance: head.distance,
                });
                if out.len() == k {
                    break;
                }
            }
            QueueItem::Node(page) => match index.read_node_traced(page, sink)? {
                Node::Leaf { entries, .. } => {
                    for e in entries {
                        let Some(clipped) = e.segment.clip(window) else {
                            continue;
                        };
                        tiebreak += 1;
                        heap.push(Reverse(Prioritized {
                            distance: segment_rect_mindist(&clipped, &point_rect),
                            tiebreak,
                            item: QueueItem::Entry(e),
                        }));
                        sink.heap_push();
                    }
                }
                Node::Internal { entries, .. } => {
                    for e in entries {
                        if !e.mbb.time().overlaps(window) {
                            continue;
                        }
                        tiebreak += 1;
                        heap.push(Reverse(Prioritized {
                            distance: e.mbb.rect().min_distance(&point),
                            tiebreak,
                            item: QueueItem::Node(e.child),
                        }));
                        sink.heap_push();
                    }
                }
            },
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rtree3D;
    use mst_trajectory::{SamplePoint, Segment, TrajectoryId};

    fn entry(id: u64, seq: u32, t: f64, x: f64, y: f64) -> LeafEntry {
        LeafEntry {
            traj: TrajectoryId(id),
            seq,
            segment: Segment::new(
                SamplePoint::new(t, x, y),
                SamplePoint::new(t + 1.0, x + 0.3, y),
            )
            .unwrap(),
        }
    }

    fn grid_tree() -> Rtree3D {
        let mut t = Rtree3D::new();
        for i in 0..400u32 {
            let x = f64::from(i % 20) * 5.0;
            let y = f64::from(i / 20) * 5.0;
            t.insert(entry(u64::from(i), 0, f64::from(i % 50), x, y))
                .unwrap();
        }
        t
    }

    /// Brute-force oracle over all segments.
    fn oracle(t: &Rtree3D, p: Point, w: &TimeInterval, k: usize) -> Vec<(TrajectoryId, f64)> {
        let all = t
            .range_query(&mst_trajectory::Mbb::new(
                -1e12, -1e12, -1e12, 1e12, 1e12, 1e12,
            ))
            .unwrap();
        let mut dists: Vec<(TrajectoryId, f64)> = all
            .iter()
            .filter_map(|e| {
                let c = e.segment.clip(w)?;
                Some((e.traj, segment_rect_mindist(&c, &Rect::from_point(p))))
            })
            .collect();
        dists.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        dists.truncate(k);
        dists
    }

    #[test]
    fn knn_matches_brute_force() {
        let t = grid_tree();
        let w = TimeInterval::new(0.0, 100.0).unwrap();
        for (px, py) in [(12.0, 33.0), (0.0, 0.0), (97.0, 97.0)] {
            let p = Point::new(px, py);
            let got = knn_segments(&t, p, &w, 5).unwrap();
            let want = oracle(&t, p, &w, 5);
            assert_eq!(got.len(), 5);
            for (g, (_, wd)) in got.iter().zip(&want) {
                assert!((g.distance - wd).abs() < 1e-9, "{} vs {wd}", g.distance);
            }
            // Ascending order.
            for pair in got.windows(2) {
                assert!(pair[0].distance <= pair[1].distance);
            }
        }
    }

    #[test]
    fn window_restricts_candidates() {
        let t = grid_tree();
        // Segments start at t = i % 50, so [200, 300] excludes everything.
        let w = TimeInterval::new(200.0, 300.0).unwrap();
        let got = knn_segments(&t, Point::new(1.0, 1.0), &w, 3).unwrap();
        assert!(got.is_empty());
        // A narrow window keeps only matching start times.
        let w = TimeInterval::new(10.0, 10.5).unwrap();
        let got = knn_segments(&t, Point::new(1.0, 1.0), &w, 100).unwrap();
        assert!(!got.is_empty());
        for m in &got {
            assert!(m.entry.segment.time().overlaps(&w));
        }
    }

    #[test]
    fn knn_visits_few_pages() {
        let mut t = grid_tree();
        let w = TimeInterval::new(0.0, 100.0).unwrap();
        t.reset_stats();
        knn_segments(&t, Point::new(50.0, 50.0), &w, 1).unwrap();
        let reads = t.stats().node_reads;
        assert!(
            (reads as usize) < t.num_pages() / 2,
            "kNN read {reads} of {} pages",
            t.num_pages()
        );
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let t = grid_tree();
        let w = TimeInterval::new(0.0, 100.0).unwrap();
        assert!(knn_segments(&t, Point::new(0.0, 0.0), &w, 0)
            .unwrap()
            .is_empty());
        let empty = Rtree3D::new();
        assert!(knn_segments(&empty, Point::new(0.0, 0.0), &w, 3)
            .unwrap()
            .is_empty());
    }
}
