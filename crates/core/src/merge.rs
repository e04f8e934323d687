//! Deterministic merge of per-shard answers for the queries that are not
//! one search over the shards.
//!
//! k-MST and trajectory kNN run as one best-first search over every
//! shard's tree ([`crate::bfmst_search`], [`crate::nearest_trajectories`]),
//! so they need no merge. Point-kNN and range queries have no threshold to
//! share: a sharded executor runs them shard by shard and merges here. The
//! merge is pure data-flow: given identical input lists it produces
//! identical output regardless of how many threads produced those lists or
//! in which order they finished.

use mst_index::{KnnMatch, LeafEntry};

/// Merges per-shard point-kNN answers into the global k nearest segments,
/// ascending distance with a (trajectory, sequence) tie-break. Distinct
/// segments of one trajectory are distinct answers, and shards partition
/// segments, so no segment can appear twice.
pub fn merge_shard_segments(k: usize, shard_lists: &[Vec<KnnMatch>]) -> Vec<KnnMatch> {
    let mut all: Vec<KnnMatch> = shard_lists.iter().flatten().copied().collect();
    all.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then(a.entry.traj.cmp(&b.entry.traj))
            .then(a.entry.seq.cmp(&b.entry.seq))
    });
    all.truncate(k);
    all
}

/// Merges per-shard range-query answers into one canonically ordered
/// list: by trajectory, then segment sequence. A single-index range query
/// emits leaf entries in traversal order, which depends on the tree
/// shape; the canonical order makes sharded and unsharded answers
/// comparable as sets.
pub fn merge_shard_range(shard_lists: &[Vec<LeafEntry>]) -> Vec<LeafEntry> {
    let mut all: Vec<LeafEntry> = shard_lists.iter().flatten().copied().collect();
    all.sort_by(|a, b| a.traj.cmp(&b.traj).then(a.seq.cmp(&b.seq)));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::{SamplePoint, Segment, TrajectoryId};

    fn entry(traj: u64, seq: u32) -> LeafEntry {
        LeafEntry {
            traj: TrajectoryId(traj),
            seq,
            segment: Segment::new(
                SamplePoint::new(0.0, 0.0, 0.0),
                SamplePoint::new(1.0, 1.0, 1.0),
            )
            .unwrap(),
        }
    }

    fn seg(traj: u64, seq: u32, distance: f64) -> KnnMatch {
        KnnMatch {
            entry: entry(traj, seq),
            distance,
        }
    }

    fn keys(merged: &[KnnMatch]) -> Vec<(u64, u32)> {
        merged
            .iter()
            .map(|m| (m.entry.traj.0, m.entry.seq))
            .collect()
    }

    #[test]
    fn merges_across_shards_in_value_order() {
        let shards = vec![
            vec![seg(0, 0, 3.0), seg(2, 0, 7.0)],
            vec![seg(1, 0, 1.0), seg(3, 0, 9.0)],
            vec![seg(4, 0, 5.0)],
        ];
        let merged = merge_shard_segments(3, &shards);
        assert_eq!(keys(&merged), vec![(1, 0), (0, 0), (4, 0)]);
    }

    #[test]
    fn ties_break_by_trajectory_id() {
        let shards = vec![
            vec![seg(7, 0, 2.0)],
            vec![seg(3, 0, 2.0)],
            vec![seg(5, 0, 2.0)],
        ];
        let merged = merge_shard_segments(2, &shards);
        assert_eq!(keys(&merged), vec![(3, 0), (5, 0)]);
    }

    #[test]
    fn shorter_lists_and_small_k() {
        let shards = vec![vec![seg(0, 0, 1.0)], Vec::new()];
        assert_eq!(merge_shard_segments(5, &shards).len(), 1);
        assert!(merge_shard_segments(0, &shards).is_empty());
    }

    #[test]
    fn segments_merge_orders_by_distance_then_identity() {
        let shards = vec![
            vec![seg(0, 1, 2.0), seg(0, 2, 2.0)],
            vec![seg(1, 0, 1.0), seg(0, 0, 2.0)],
        ];
        let merged = merge_shard_segments(3, &shards);
        assert_eq!(keys(&merged), vec![(1, 0), (0, 0), (0, 1)]);
        assert!(merge_shard_segments(0, &shards).is_empty());
    }

    #[test]
    fn range_merge_is_canonically_ordered() {
        let shards = vec![vec![entry(3, 1), entry(3, 0)], vec![entry(1, 2)]];
        let merged = merge_shard_range(&shards);
        let keys: Vec<(u64, u32)> = merged.iter().map(|e| (e.traj.0, e.seq)).collect();
        assert_eq!(keys, vec![(1, 2), (3, 0), (3, 1)]);
    }

    #[test]
    fn merge_is_order_independent() {
        let a = vec![
            vec![seg(0, 0, 3.0)],
            vec![seg(1, 0, 1.0)],
            vec![seg(2, 0, 2.0)],
        ];
        let mut b = a.clone();
        b.reverse();
        // Same multiset of shard answers, different arrival order: the
        // per-shard lists are keyed by content, not position.
        assert_eq!(
            keys(&merge_shard_segments(2, &a)),
            keys(&merge_shard_segments(2, &b))
        );
    }
}
