//! Deterministic top-k merge of per-shard answers.
//!
//! A sharded executor runs the same query independently on every shard and
//! gets back each shard's local top-k. The global answer is the k best
//! across all lists — computed here with the same [`UpperKeys`] threshold
//! machinery the search itself prunes with, and with the search's exact
//! tie-break (value by `total_cmp`, then [`TrajectoryId`]), so a merged
//! result is bit-identical to what a single search over the union would
//! report.
//!
//! The merge is pure data-flow: given identical input lists it produces
//! identical output regardless of how many threads produced those lists or
//! in which order they finished. Shards partition trajectories, so a
//! trajectory can appear in at most one list; the merge still deduplicates
//! defensively (keeping the smallest value) so a misconfigured overlap
//! degrades to a correct answer instead of a duplicated one.

use std::collections::HashSet;

use mst_index::{KnnMatch, LeafEntry};
use mst_trajectory::TrajectoryId;

use crate::nn::NnMatch;
use crate::topk::UpperKeys;
use crate::MstMatch;

/// Merges per-shard k-MST answers into the global top-k, ascending DISSIM
/// with the search's trajectory-id tie-break.
pub fn merge_shard_matches(k: usize, shard_lists: &[Vec<MstMatch>]) -> Vec<MstMatch> {
    merge_by(k, shard_lists, |m| (m.traj, m.dissim))
}

/// Merges per-shard kNN answers into the global top-k, ascending approach
/// distance with the search's trajectory-id tie-break.
pub fn merge_shard_nn(k: usize, shard_lists: &[Vec<NnMatch>]) -> Vec<NnMatch> {
    merge_by(k, shard_lists, |m| (m.traj, m.distance))
}

/// Merges per-shard point-kNN answers into the global k nearest segments,
/// ascending distance with a (trajectory, sequence) tie-break. Unlike the
/// trajectory merges there is no per-object dedup: distinct segments of
/// one trajectory are distinct answers, and shards partition segments so
/// no segment can appear twice.
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

fn merge_by<T: Clone>(
    k: usize,
    shard_lists: &[Vec<T>],
    key: impl Fn(&T) -> (TrajectoryId, f64),
) -> Vec<T> {
    if k == 0 {
        return Vec::new();
    }
    // Pass 1: establish the global kth upper bound with the search's own
    // threshold tracker (every shard value is an exact answer, hence its
    // own upper bound).
    let mut upper = UpperKeys::new(k);
    for list in shard_lists {
        for m in list {
            let (traj, value) = key(m);
            upper.update(traj, value);
        }
    }
    let tau = upper.kth();
    // Pass 2: keep only candidates at or under the threshold (everything
    // strictly above it cannot be in the global top-k; ties survive for
    // the id tie-break to settle), then order exactly like the search.
    let mut survivors: Vec<T> = shard_lists
        .iter()
        .flatten()
        .filter(|m| key(m).1 <= tau)
        .cloned()
        .collect();
    survivors.sort_by(|a, b| {
        let (at, av) = key(a);
        let (bt, bv) = key(b);
        av.total_cmp(&bv).then(at.cmp(&bt))
    });
    // Copies of one trajectory need not be adjacent once sorted by value:
    // keep its first, smallest, occurrence.
    let mut seen = HashSet::new();
    survivors.retain(|m| seen.insert(key(m).0));
    survivors.truncate(k);
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(traj: u64, dissim: f64) -> MstMatch {
        MstMatch {
            traj: TrajectoryId(traj),
            dissim,
        }
    }

    #[test]
    fn merges_across_shards_in_value_order() {
        let shards = vec![
            vec![m(0, 3.0), m(2, 7.0)],
            vec![m(1, 1.0), m(3, 9.0)],
            vec![m(4, 5.0)],
        ];
        let merged = merge_shard_matches(3, &shards);
        let ids: Vec<u64> = merged.iter().map(|x| x.traj.0).collect();
        assert_eq!(ids, vec![1, 0, 4]);
    }

    #[test]
    fn ties_break_by_trajectory_id() {
        let shards = vec![vec![m(7, 2.0)], vec![m(3, 2.0)], vec![m(5, 2.0)]];
        let merged = merge_shard_matches(2, &shards);
        let ids: Vec<u64> = merged.iter().map(|x| x.traj.0).collect();
        assert_eq!(ids, vec![3, 5]);
    }

    #[test]
    fn shorter_lists_and_small_k() {
        let shards = vec![vec![m(0, 1.0)], Vec::new()];
        assert_eq!(merge_shard_matches(5, &shards).len(), 1);
        assert!(merge_shard_matches(0, &shards).is_empty());
    }

    #[test]
    fn duplicate_trajectories_keep_the_smallest_value() {
        // Shards should partition trajectories; if they don't, the merge
        // must not report the same trajectory twice.
        let shards = vec![vec![m(1, 4.0), m(2, 6.0)], vec![m(1, 2.0)]];
        let merged = merge_shard_matches(2, &shards);
        let ids: Vec<u64> = merged.iter().map(|x| x.traj.0).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!((merged[0].dissim - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_duplicate_parted_from_its_first_copy_by_another_match_is_dropped() {
        // Sorted by value the two copies of trajectory 1 have trajectory 2
        // between them.
        let shards = vec![vec![m(1, 1.0), m(2, 2.0)], vec![m(1, 3.0)]];
        let merged = merge_shard_matches(3, &shards);
        assert_eq!(merged, vec![m(1, 1.0), m(2, 2.0)]);
    }

    #[test]
    fn nn_merge_orders_by_distance() {
        let nn = |traj: u64, d: f64| NnMatch {
            traj: TrajectoryId(traj),
            distance: d,
            time: d * 2.0,
        };
        let shards = vec![vec![nn(0, 0.5), nn(1, 3.0)], vec![nn(2, 1.5)]];
        let merged = merge_shard_nn(2, &shards);
        let ids: Vec<u64> = merged.iter().map(|x| x.traj.0).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn segments_merge_orders_by_distance_then_identity() {
        use mst_index::LeafEntry;
        use mst_trajectory::{SamplePoint, Segment};
        let seg = |traj: u64, seq: u32, d: f64| KnnMatch {
            entry: LeafEntry {
                traj: TrajectoryId(traj),
                seq,
                segment: Segment::new(
                    SamplePoint::new(0.0, 0.0, 0.0),
                    SamplePoint::new(1.0, 1.0, 1.0),
                )
                .unwrap(),
            },
            distance: d,
        };
        let shards = vec![
            vec![seg(0, 1, 2.0), seg(0, 2, 2.0)],
            vec![seg(1, 0, 1.0), seg(0, 0, 2.0)],
        ];
        let merged = merge_shard_segments(3, &shards);
        let keys: Vec<(u64, u32)> = merged
            .iter()
            .map(|m| (m.entry.traj.0, m.entry.seq))
            .collect();
        assert_eq!(keys, vec![(1, 0), (0, 0), (0, 1)]);
        assert!(merge_shard_segments(0, &shards).is_empty());
    }

    #[test]
    fn range_merge_is_canonically_ordered() {
        use mst_index::LeafEntry;
        use mst_trajectory::{SamplePoint, Segment};
        let entry = |traj: u64, seq: u32| LeafEntry {
            traj: TrajectoryId(traj),
            seq,
            segment: Segment::new(
                SamplePoint::new(0.0, 0.0, 0.0),
                SamplePoint::new(1.0, 1.0, 1.0),
            )
            .unwrap(),
        };
        let shards = vec![vec![entry(3, 1), entry(3, 0)], vec![entry(1, 2)]];
        let merged = merge_shard_range(&shards);
        let keys: Vec<(u64, u32)> = merged.iter().map(|e| (e.traj.0, e.seq)).collect();
        assert_eq!(keys, vec![(1, 2), (3, 0), (3, 1)]);
    }

    #[test]
    fn merge_is_order_independent() {
        let a = vec![vec![m(0, 3.0)], vec![m(1, 1.0)], vec![m(2, 2.0)]];
        let mut b = a.clone();
        b.reverse();
        // Same multiset of shard answers, different arrival order: the
        // per-shard lists are keyed by content, not position.
        assert_eq!(merge_shard_matches(2, &a), merge_shard_matches(2, &b));
    }
}
