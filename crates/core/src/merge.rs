//! The canonical order every answer leaves a search in.
//!
//! A search over a forest of shard trees finds its answers in whatever
//! order the descent meets them, shard by shard and page by page. Merging
//! them into one list ordered by value (`total_cmp`), ties broken by the
//! answer's identity, makes the answer the same at any shard count, in any
//! shard order and over any tree shape — the property the sharded parity
//! tests pin. k-MST, trajectory kNN, point kNN and the exact scan keep the
//! k best with [`nearest`]; the range query, which has no value to rank
//! by, orders its hits with [`range`].

use mst_index::LeafEntry;

/// The `k` smallest of `answers` by `value`, ascending, ties broken by
/// `identity`.
pub(crate) fn nearest<T, I: Ord>(
    k: usize,
    mut answers: Vec<T>,
    value: impl Fn(&T) -> f64,
    identity: impl Fn(&T) -> I,
) -> Vec<T> {
    answers.sort_unstable_by(|a, b| {
        value(a)
            .total_cmp(&value(b))
            .then_with(|| identity(a).cmp(&identity(b)))
    });
    answers.truncate(k);
    answers
}

/// Range hits in `(trajectory, sequence)` order.
pub(crate) fn range(mut hits: Vec<LeafEntry>) -> Vec<LeafEntry> {
    hits.sort_unstable_by_key(|e| (e.traj, e.seq));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MstMatch;
    use mst_index::KnnMatch;
    use mst_trajectory::{SamplePoint, Segment, TrajectoryId};

    fn m(traj: u64, dissim: f64) -> MstMatch {
        MstMatch {
            traj: TrajectoryId(traj),
            dissim,
        }
    }

    /// The k-MST answer of the matches found in every shard.
    fn kmst(k: usize, shards: &[Vec<MstMatch>]) -> Vec<MstMatch> {
        nearest(k, shards.concat(), |m| m.dissim, |m| m.traj)
    }

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

    #[test]
    fn merges_across_shards_in_value_order() {
        let shards = vec![
            vec![m(0, 3.0), m(2, 7.0)],
            vec![m(1, 1.0), m(3, 9.0)],
            vec![m(4, 5.0)],
        ];
        let ids: Vec<u64> = kmst(3, &shards).iter().map(|x| x.traj.0).collect();
        assert_eq!(ids, vec![1, 0, 4]);
    }

    #[test]
    fn ties_break_by_trajectory_id() {
        let shards = vec![vec![m(7, 2.0)], vec![m(3, 2.0)], vec![m(5, 2.0)]];
        let ids: Vec<u64> = kmst(2, &shards).iter().map(|x| x.traj.0).collect();
        assert_eq!(ids, vec![3, 5]);
    }

    #[test]
    fn shorter_lists_and_small_k() {
        let shards = vec![vec![m(0, 1.0)], Vec::new()];
        assert_eq!(kmst(5, &shards).len(), 1);
        assert!(kmst(0, &shards).is_empty());
    }

    #[test]
    fn segments_merge_orders_by_distance_then_identity() {
        let seg = |traj: u64, seq: u32, distance: f64| KnnMatch {
            entry: entry(traj, seq),
            distance,
        };
        let shards = vec![
            vec![seg(0, 1, 2.0), seg(0, 2, 2.0)],
            vec![seg(1, 0, 1.0), seg(0, 0, 2.0)],
        ];
        let segments = |k| {
            nearest(
                k,
                shards.concat(),
                |m| m.distance,
                |m| (m.entry.traj, m.entry.seq),
            )
        };
        let keys: Vec<(u64, u32)> = segments(3)
            .iter()
            .map(|m| (m.entry.traj.0, m.entry.seq))
            .collect();
        assert_eq!(keys, vec![(1, 0), (0, 0), (0, 1)]);
        assert!(segments(0).is_empty());
    }

    #[test]
    fn range_merge_is_canonically_ordered() {
        let shards = vec![vec![entry(3, 1), entry(3, 0)], vec![entry(1, 2)]];
        let keys: Vec<(u64, u32)> = range(shards.concat())
            .iter()
            .map(|e| (e.traj.0, e.seq))
            .collect();
        assert_eq!(keys, vec![(1, 2), (3, 0), (3, 1)]);
    }

    #[test]
    fn merge_is_order_independent() {
        let a = vec![vec![m(0, 3.0)], vec![m(1, 1.0)], vec![m(2, 2.0)]];
        let mut b = a.clone();
        b.reverse();
        // Same answers found in a different shard order: the merged list
        // is keyed by content, not position.
        assert_eq!(kmst(2, &a), kmst(2, &b));
    }
}
