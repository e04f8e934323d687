//! The STR-tree (Spatio-Temporal R-tree) of Pfoser, Jensen & Theodoridis
//! (VLDB 2000) — the third member of the index trio the paper considers.
//!
//! The STR-tree is an R-tree whose insertion strategy *prefers trajectory
//! preservation*: a new segment is appended to the leaf holding its
//! predecessor segment whenever that leaf has room, and only falls back to
//! the classic least-enlargement descent otherwise. It sits between the
//! 3D R-tree (pure spatial discrimination) and the TB-tree (pure
//! trajectory preservation) in both design and — as the paper's reference
//! [13] showed — performance.

use std::collections::HashMap;

use mst_trajectory::TrajectoryId;

use crate::persist::ImageKind;
use crate::tree::{DescentHooks, InsertionPolicy, PagedTree, TreeCore};
use crate::{LeafEntry, Node, PageId, Result};

/// An R-tree with trajectory-preserving insertion (segments join their
/// predecessor's leaf when possible).
pub type StrTree = PagedTree<StrPolicy>;

/// The STR-tree's policy: a segment joins the leaf holding its
/// predecessor while that leaf has room, otherwise it takes the
/// least-enlargement descent — which then has to keep the tips and the
/// parent map current across splits.
#[derive(Debug, Default)]
pub struct StrPolicy;

impl InsertionPolicy for StrPolicy {
    const KIND: ImageKind = ImageKind::StrTree;
    const NAME: &'static str = "strtree";

    fn insert(&mut self, core: &mut TreeCore, entry: LeafEntry) -> Result<()> {
        if core.append_to_tip(entry, |_| Ok(()))?.is_some() {
            return Ok(());
        }
        core.insert_by_descent::<StrPolicy>(entry)
    }
}

impl DescentHooks for StrPolicy {
    fn landed(core: &mut TreeCore, traj: TrajectoryId, leaf: PageId) {
        core.tips.insert(traj, leaf);
    }

    /// Repoints the tip of every trajectory that tracked the split leaf to
    /// whichever half now holds its latest (max-seq) segment.
    fn leaf_split(
        core: &mut TreeCore,
        page_a: PageId,
        node_a: &Node,
        page_b: PageId,
        node_b: &Node,
    ) {
        let mut latest: HashMap<TrajectoryId, (u32, PageId)> = HashMap::new();
        for (page, node) in [(page_a, node_a), (page_b, node_b)] {
            if let Node::Leaf { entries, .. } = node {
                for e in entries {
                    let slot = latest.entry(e.traj).or_insert((e.seq, page));
                    if e.seq >= slot.0 {
                        *slot = (e.seq, page);
                    }
                }
            }
        }
        for (traj, (_, page)) in latest {
            if core.tips.get(&traj) == Some(&page_a) {
                core.tips.insert(traj, page);
            }
        }
    }

    fn adopted(core: &mut TreeCore, child: PageId, parent: PageId) {
        core.parents.insert(child, parent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TrajectoryIndex, TrajectoryIndexWrite};
    use mst_trajectory::{Mbb, SamplePoint, Segment};

    fn entry(id: u64, seq: u32, t: f64, x: f64, y: f64) -> LeafEntry {
        LeafEntry {
            traj: TrajectoryId(id),
            seq,
            segment: Segment::new(
                SamplePoint::new(t, x, y),
                SamplePoint::new(t + 1.0, x + 0.4, y + 0.1),
            )
            .unwrap(),
        }
    }

    /// Interleaved temporal insertion across `objects` trajectories.
    fn build(objects: u64, steps: u32) -> StrTree {
        let mut t = StrTree::new();
        for s in 0..steps {
            for id in 0..objects {
                let x = f64::from(s) * 0.4 + id as f64 * 50.0;
                t.insert(entry(id, s, f64::from(s), x, id as f64)).unwrap();
            }
        }
        t
    }

    #[test]
    fn holds_everything_and_passes_invariants() {
        let t = build(8, 150);
        assert_eq!(t.num_entries(), 1200);
        crate::check_invariants(&t).unwrap();
        let all = t
            .range_query(&Mbb::new(-1e12, -1e12, -1e12, 1e12, 1e12, 1e12))
            .unwrap();
        assert_eq!(all.len(), 1200);
    }

    #[test]
    fn preserves_trajectories_better_than_plain_rtree() {
        // Count how many leaves each trajectory's segments are spread over:
        // the STR-tree should need no more leaves per trajectory than the
        // 3D R-tree on the same insertion stream.
        use std::collections::{HashMap, HashSet};
        let objects = 10u64;
        let steps = 200u32;
        let mut strtree = StrTree::new();
        let mut rtree = crate::Rtree3D::new();
        for s in 0..steps {
            for id in 0..objects {
                let x = f64::from(s) * 0.4 + id as f64 * 3.0;
                let e = entry(id, s, f64::from(s), x, (id as f64 * 7.3) % 11.0);
                strtree.insert(e).unwrap();
                rtree.insert(e).unwrap();
            }
        }
        fn spread<I: TrajectoryIndex>(idx: &I) -> f64 {
            let mut leaves: HashMap<TrajectoryId, HashSet<PageId>> = HashMap::new();
            let mut stack = vec![idx.root().unwrap()];
            while let Some(page) = stack.pop() {
                match idx.read_node(page).unwrap() {
                    Node::Leaf { entries, .. } => {
                        for e in entries {
                            leaves.entry(e.traj).or_default().insert(page);
                        }
                    }
                    Node::Internal { entries, .. } => {
                        stack.extend(entries.iter().map(|e| e.child));
                    }
                }
            }
            leaves.values().map(|s| s.len() as f64).sum::<f64>() / leaves.len() as f64
        }
        let s_spread = spread(&strtree);
        let r_spread = spread(&rtree);
        assert!(
            s_spread <= r_spread + 1e-9,
            "STR spread {s_spread} vs R-tree {r_spread}"
        );
    }

    #[test]
    fn tips_survive_leaf_splits() {
        // One hot trajectory with enough segments to split leaves many
        // times; appends must keep working (and stay findable).
        let mut t = StrTree::new();
        for s in 0..500u32 {
            t.insert(entry(1, s, f64::from(s), f64::from(s) * 0.3, 0.0))
                .unwrap();
        }
        assert_eq!(t.num_entries(), 500);
        crate::check_invariants(&t).unwrap();
        let all = t
            .range_query(&Mbb::new(-1e12, -1e12, -1e12, 1e12, 1e12, 1e12))
            .unwrap();
        let seqs: std::collections::HashSet<u32> = all.iter().map(|e| e.seq).collect();
        assert_eq!(seqs.len(), 500);
    }

    #[test]
    fn persistence_roundtrip_keeps_appending() {
        let mut t = build(4, 120);
        let mut bytes = Vec::new();
        t.save(&mut bytes).unwrap();
        let mut loaded = StrTree::load(&bytes[..]).unwrap();
        assert_eq!(loaded.num_entries(), 480);
        crate::check_invariants(&loaded).unwrap();
        // Tips survived: appending continues trajectory-preserving.
        loaded
            .insert(entry(2, 120, 120.0, 48.0 + 100.0, 2.0))
            .unwrap();
        assert_eq!(loaded.num_entries(), 481);
        crate::check_invariants(&loaded).unwrap();
    }

    #[test]
    fn works_behind_the_write_trait() {
        let mut t = StrTree::new();
        TrajectoryIndexWrite::insert_entry(&mut t, entry(0, 0, 0.0, 0.0, 0.0)).unwrap();
        assert_eq!(t.num_entries(), 1);
    }
}
