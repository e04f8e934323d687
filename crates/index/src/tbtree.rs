//! The TB-tree (Trajectory-Bundle tree) of Pfoser, Jensen & Theodoridis
//! (VLDB 2000).
//!
//! The TB-tree trades spatial discrimination for *trajectory preservation*:
//! each leaf contains segments of exactly one trajectory, the leaves of a
//! trajectory form a doubly linked list, and new leaves are appended along
//! the right-most path of the tree (insertions arrive in temporal order in a
//! moving-object database, so the right-most path is the "now" edge). These
//! properties make trajectory reconstruction cheap and are why the paper's
//! experiments show the TB-tree overtaking the 3D R-tree as the query
//! length grows.

use mst_trajectory::{Mbb, TimeInterval, TrajectoryId};

use crate::persist::ImageKind;
use crate::tree::{InsertionPolicy, PagedTree, TreeCore};
use crate::{
    IndexError, InternalEntry, LeafEntry, Node, PageId, Result, TrajectoryIndex, INTERNAL_CAPACITY,
};

/// The trajectory-bundle tree: single-trajectory leaves, linked leaf lists,
/// right-most-path appends.
pub type TbTree = PagedTree<TbPolicy>;

/// The TB-tree's policy: a segment is appended to its trajectory's tip
/// leaf; a full tip starts a new chained leaf that is attached along the
/// right-most path of the directory. Segments of one trajectory must
/// arrive in temporal order; interleaving trajectories is fine and
/// expected.
#[derive(Debug, Default)]
pub struct TbPolicy;

impl InsertionPolicy for TbPolicy {
    const KIND: ImageKind = ImageKind::TbTree;
    const NAME: &'static str = "tbtree";
    const CHAINED_LEAVES: bool = true;

    fn insert(&mut self, core: &mut TreeCore, entry: LeafEntry) -> Result<()> {
        let in_temporal_order = |tip: &[LeafEntry]| match tip.last() {
            Some(last) if last.segment.end().t > entry.segment.start().t => {
                Err(IndexError::BadInsert(format!(
                    "TB-tree requires temporal order per trajectory: segment starts at {} \
                     but the tip leaf ends at {}",
                    entry.segment.start().t,
                    last.segment.end().t
                )))
            }
            _ => Ok(()),
        };
        if core.append_to_tip(entry, in_temporal_order)?.is_some() {
            return Ok(());
        }
        let (leaf, mbb) = core.start_chained_leaf(entry)?;
        attach_leaf(core, leaf, mbb)
    }
}

/// Hooks a brand-new leaf into the directory along the right-most path.
fn attach_leaf(core: &mut TreeCore, leaf: PageId, leaf_mbb: Mbb) -> Result<()> {
    let Some(root) = core.root else {
        core.root = Some(leaf);
        core.height = 1;
        return Ok(());
    };

    if core.height == 1 {
        // The root is itself a leaf: grow a directory level.
        let root_mbb = core.fetch_node(root)?.mbb();
        let new_root = Node::Internal {
            level: 1,
            entries: vec![
                InternalEntry {
                    child: root,
                    mbb: root_mbb,
                },
                InternalEntry {
                    child: leaf,
                    mbb: leaf_mbb,
                },
            ],
        };
        let new_root_page = core.pager.get_mut()?.allocate_node(&new_root)?;
        core.parents.insert(root, new_root_page);
        core.parents.insert(leaf, new_root_page);
        core.root = Some(new_root_page);
        core.height = 2;
        return Ok(());
    }

    // Descend the right-most path down to level 1.
    let mut path: Vec<PageId> = Vec::with_capacity(core.height as usize);
    let mut current = root;
    loop {
        let node = core.fetch_node(current)?;
        let Node::Internal { level, entries } = &node else {
            return Err(IndexError::CorruptNode {
                page: current,
                reason: "right-most descent hit a leaf above level 0".into(),
            });
        };
        path.push(current);
        if *level == 1 {
            break;
        }
        current = match entries.last() {
            Some(e) => e.child,
            None => {
                return Err(IndexError::CorruptNode {
                    page: current,
                    reason: "empty internal node on the right-most path".into(),
                })
            }
        };
    }

    // Append the leaf entry, splitting B+-tree-style (new right sibling
    // holding just the new entry) when a node on the path is full.
    let mut pending = InternalEntry {
        child: leaf,
        mbb: leaf_mbb,
    };
    for (depth, &page) in path.iter().enumerate().rev() {
        let mut node = core.fetch_node(page)?;
        let Node::Internal { level, entries } = &mut node else {
            return Err(IndexError::CorruptNode {
                page,
                reason: "leaf node on the internal insertion path".into(),
            });
        };
        if entries.len() < INTERNAL_CAPACITY {
            entries.push(pending);
            core.parents.insert(pending.child, page);
            let mbb = node.mbb();
            core.pager.get_mut()?.write_node(page, &node)?;
            core.refresh_ancestors(page, mbb)?;
            return Ok(());
        }
        // Full: start a fresh right sibling at this level.
        let sibling = Node::Internal {
            level: *level,
            entries: vec![pending],
        };
        let sibling_page = core.pager.get_mut()?.allocate_node(&sibling)?;
        core.parents.insert(pending.child, sibling_page);
        pending = InternalEntry {
            child: sibling_page,
            mbb: sibling.mbb(),
        };
        if depth == 0 {
            // The root itself was full: grow the tree.
            let old_root_mbb = core.fetch_node(page)?.mbb();
            let new_root = Node::Internal {
                level: *level + 1,
                entries: vec![
                    InternalEntry {
                        child: page,
                        mbb: old_root_mbb,
                    },
                    pending,
                ],
            };
            let new_root_page = core.pager.get_mut()?.allocate_node(&new_root)?;
            core.parents.insert(page, new_root_page);
            core.parents.insert(pending.child, new_root_page);
            core.root = Some(new_root_page);
            core.height += 1;
            return Ok(());
        }
    }
    Err(IndexError::BadInsert(
        "insertion path was empty; the right-most descent pushes at least one node".into(),
    ))
}

impl TbTree {
    /// Reconstructs all indexed segments of `id` by walking its leaf list
    /// backwards from the tip — the operation the TB-tree exists to make
    /// cheap.
    pub fn trajectory_segments(&self, id: TrajectoryId) -> Result<Vec<LeafEntry>> {
        let mut out = Vec::new();
        let mut cursor = self.core.tips.get(&id).copied();
        while let Some(page) = cursor {
            let node = self.read_node(page)?;
            let Node::Leaf { entries, prev, .. } = node else {
                return Err(IndexError::CorruptNode {
                    page,
                    reason: "leaf list points at an internal node".into(),
                });
            };
            out.extend(entries.into_iter().rev());
            cursor = prev;
        }
        out.reverse();
        Ok(out)
    }

    /// Retrieves the segments of `id` overlapping `window` by walking the
    /// trajectory's leaf list backwards from the tip — the "partial
    /// trajectory retrieval" the TB-tree's linked leaves were designed for
    /// (no directory traversal at all).
    pub fn trajectory_window(
        &self,
        id: TrajectoryId,
        window: &TimeInterval,
    ) -> Result<Vec<LeafEntry>> {
        let mut out = Vec::new();
        let mut cursor = self.core.tips.get(&id).copied();
        while let Some(page) = cursor {
            let node = self.read_node(page)?;
            let Node::Leaf { entries, prev, .. } = node else {
                return Err(IndexError::CorruptNode {
                    page,
                    reason: "leaf list points at an internal node".into(),
                });
            };
            out.extend(
                entries
                    .iter()
                    .filter(|e| e.segment.time().overlaps(window))
                    .copied(),
            );
            // Leaves are temporally ordered; once a leaf starts at or
            // before the window, earlier leaves cannot add anything.
            if entries
                .first()
                .is_some_and(|e| e.segment.start().t <= window.start())
            {
                break;
            }
            cursor = prev;
        }
        out.sort_by_key(|e| e.seq);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::{SamplePoint, Segment};

    fn entry(id: u64, seq: u32, t: f64) -> LeafEntry {
        let x = f64::from(seq) + id as f64 * 100.0;
        LeafEntry {
            traj: TrajectoryId(id),
            seq,
            segment: Segment::new(
                SamplePoint::new(t, x, 0.0),
                SamplePoint::new(t + 1.0, x + 1.0, 0.5),
            )
            .unwrap(),
        }
    }

    /// Interleaved insertion of `objects` trajectories with `steps` segments
    /// each, mimicking temporal arrival in a MOD.
    fn build(objects: u64, steps: u32) -> TbTree {
        let mut t = TbTree::new();
        for s in 0..steps {
            for id in 0..objects {
                t.insert(entry(id, s, f64::from(s))).unwrap();
            }
        }
        t
    }

    #[test]
    fn leaves_stay_single_trajectory() {
        let t = build(5, 200);
        assert_eq!(t.num_entries(), 1000);
        let report = crate::check_invariants(&t).unwrap();
        assert!(report.leaves >= 15, "200 segments need >= 3 leaves each");
    }

    #[test]
    fn leaf_list_reconstructs_trajectories() {
        let t = build(3, 150);
        for id in 0..3 {
            let segs = t.trajectory_segments(TrajectoryId(id)).unwrap();
            assert_eq!(segs.len(), 150);
            for (i, s) in segs.iter().enumerate() {
                assert_eq!(s.traj, TrajectoryId(id));
                assert_eq!(s.seq, i as u32);
            }
        }
        // Unknown trajectory -> empty.
        assert!(t.trajectory_segments(TrajectoryId(99)).unwrap().is_empty());
    }

    #[test]
    fn rejects_out_of_order_segments() {
        let mut t = TbTree::new();
        t.insert(entry(1, 0, 10.0)).unwrap();
        let bad = LeafEntry {
            traj: TrajectoryId(1),
            seq: 1,
            segment: Segment::new(
                SamplePoint::new(5.0, 0.0, 0.0),
                SamplePoint::new(6.0, 1.0, 1.0),
            )
            .unwrap(),
        };
        assert!(matches!(t.insert(bad), Err(IndexError::BadInsert(_))));
    }

    #[test]
    fn range_query_sees_everything() {
        let t = build(4, 300);
        let all = t
            .range_query(&Mbb::new(-1e12, -1e12, -1e12, 1e12, 1e12, 1e12))
            .unwrap();
        assert_eq!(all.len(), 1200);
    }

    #[test]
    fn grows_multiple_levels() {
        // Enough leaves to overflow a level-1 node (capacity 78): 100
        // trajectories × 68 segments -> 100+ leaves.
        let t = build(100, 68);
        assert!(t.height() >= 3, "height {} too small", t.height());
        crate::check_invariants(&t).unwrap();
    }

    #[test]
    fn trajectory_window_walks_the_leaf_list_only() {
        let mut t = build(4, 300);
        let window = mst_trajectory::TimeInterval::new(100.0, 150.0).unwrap();
        t.reset_stats();
        let segs = t.trajectory_window(TrajectoryId(2), &window).unwrap();
        // Segments [99..=150] overlap the closed window (segment s spans
        // [s, s+1]).
        assert_eq!(segs.len(), 52);
        for w in segs.windows(2) {
            assert_eq!(w[0].seq + 1, w[1].seq);
        }
        assert!(segs.iter().all(|e| e.traj == TrajectoryId(2)));
        // Only leaf-list pages touched: far fewer than the whole tree.
        let reads = t.stats().node_reads as usize;
        assert!(reads < t.num_pages() / 2, "read {reads} pages");
        // Empty window past the data.
        let late = mst_trajectory::TimeInterval::new(1e6, 2e6).unwrap();
        assert!(t
            .trajectory_window(TrajectoryId(2), &late)
            .unwrap()
            .is_empty());
        // Unknown trajectory.
        assert!(t
            .trajectory_window(TrajectoryId(99), &window)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn single_trajectory_tree() {
        let mut t = TbTree::new();
        for s in 0..70u32 {
            t.insert(entry(9, s, f64::from(s))).unwrap();
        }
        // 70 segments overflow one leaf (capacity 67): two leaves + root.
        assert_eq!(t.height(), 2);
        let segs = t.trajectory_segments(TrajectoryId(9)).unwrap();
        assert_eq!(segs.len(), 70);
        crate::check_invariants(&t).unwrap();
    }
}
