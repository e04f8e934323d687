//! Structural invariant checker for the R-tree-like structures.
//!
//! Used by tests (including property tests) and available to downstream
//! users as a debugging aid: it verifies the containment, level, capacity,
//! and entry-count invariants that the search algorithm's correctness rests
//! on.

use std::collections::{HashMap, HashSet};

use mst_trajectory::{Mbb, TrajectoryId};

use crate::{Node, PageId, TrajectoryIndex};

/// Tolerance for MBB containment comparisons (pure f64 copies should be
/// exact; the slack guards against future arithmetic in MBB maintenance).
const TOL: f64 = 1e-9;

/// Summary of a structural validation pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Total nodes visited.
    pub nodes: usize,
    /// Leaf nodes visited.
    pub leaves: usize,
    /// Leaf entries counted.
    pub entries: u64,
    /// Maximum depth observed (root = 0).
    pub max_depth: usize,
}

fn mbb_contains(outer: &Mbb, inner: &Mbb) -> bool {
    outer.x_min <= inner.x_min + TOL
        && outer.y_min <= inner.y_min + TOL
        && outer.t_min <= inner.t_min + TOL
        && outer.x_max >= inner.x_max - TOL
        && outer.y_max >= inner.y_max - TOL
        && outer.t_max >= inner.t_max - TOL
}

/// Walks the whole tree checking:
///
/// 1. every internal entry's MBB contains (within tolerance) the MBB of the
///    child subtree it points to;
/// 2. levels decrease by exactly one on each descent and reach 0 at leaves;
/// 3. no node exceeds its capacity;
/// 4. every leaf sits at the same depth;
/// 5. reported entry/height metadata matches the structure;
/// 6. for trajectory-preserving indexes (TB-tree), every leaf chain walks
///    back from its tip through correctly back-and-forward-linked,
///    single-trajectory, temporally ordered leaves, and the chains cover
///    exactly the owned leaves present in the tree;
/// 7. the buffer manager's bookkeeping is consistent with no leaked pins.
///
/// Returns a summary on success, or a description of the first violation.
pub fn check_invariants<I: TrajectoryIndex>(index: &I) -> Result<InvariantReport, String> {
    let mut report = InvariantReport::default();
    let Some(root) = index.root() else {
        if index.num_entries() != 0 {
            return Err("empty tree reports nonzero entries".into());
        }
        return Ok(report);
    };

    let root_node = index.read_node(root).map_err(|e| e.to_string())?;
    let expected_height = index.height();
    if root_node.level() + 1 != expected_height {
        return Err(format!(
            "root level {} inconsistent with height {}",
            root_node.level(),
            expected_height
        ));
    }

    let mut leaf_depth: Option<usize> = None;
    let mut owned_leaves: HashMap<TrajectoryId, usize> = HashMap::new();
    // (page, expected_level, expected_mbb (None at root), depth)
    let mut stack: Vec<(PageId, u8, Option<Mbb>, usize)> = vec![(root, root_node.level(), None, 0)];

    while let Some((page, expected_level, expected_mbb, depth)) = stack.pop() {
        let node = index.read_node(page).map_err(|e| e.to_string())?;
        report.nodes += 1;
        report.max_depth = report.max_depth.max(depth);
        if node.level() != expected_level {
            return Err(format!(
                "page {page:?}: level {} but parent expects {expected_level}",
                node.level()
            ));
        }
        if node.len() > node.capacity() {
            return Err(format!(
                "page {page:?}: {} entries exceed capacity {}",
                node.len(),
                node.capacity()
            ));
        }
        if node.is_empty() && depth > 0 {
            return Err(format!("page {page:?}: empty non-root node"));
        }
        if let Some(parent_mbb) = expected_mbb {
            let own = node.mbb();
            if !mbb_contains(&parent_mbb, &own) {
                return Err(format!(
                    "page {page:?}: parent MBB {parent_mbb:?} does not contain node MBB {own:?}"
                ));
            }
        }
        match node {
            Node::Leaf { entries, owner, .. } => {
                report.leaves += 1;
                report.entries += entries.len() as u64;
                if let Some(d) = leaf_depth {
                    if d != depth {
                        return Err(format!(
                            "page {page:?}: leaf at depth {depth}, earlier leaves at {d}"
                        ));
                    }
                } else {
                    leaf_depth = Some(depth);
                }
                // TB-tree leaves must be single-trajectory and temporally
                // ordered (segments are appended in time order).
                if let Some(owner) = owner {
                    if entries.iter().any(|e| e.traj != owner) {
                        return Err(format!(
                            "page {page:?}: owned leaf ({owner}) contains foreign segments"
                        ));
                    }
                    for w in entries.windows(2) {
                        if w[0].segment.end().t > w[1].segment.start().t + TOL {
                            return Err(format!(
                                "page {page:?}: owned leaf entries out of temporal order"
                            ));
                        }
                    }
                    *owned_leaves.entry(owner).or_insert(0) += 1;
                }
            }
            Node::Internal { level, entries } => {
                for e in entries {
                    stack.push((e.child, level - 1, Some(e.mbb), depth + 1));
                }
            }
        }
    }

    if report.entries != index.num_entries() {
        return Err(format!(
            "tree holds {} entries but index reports {}",
            report.entries,
            index.num_entries()
        ));
    }

    check_leaf_chains(index, &owned_leaves)?;
    index
        .audit_buffer()
        .map_err(|e| format!("buffer audit: {e}"))?;
    Ok(report)
}

/// Walks every trajectory's leaf chain backwards from its tip, verifying
/// ownership, doubly-linked consistency (`next` of each predecessor points
/// at its successor and the tip's `next` is empty), temporal order across
/// the chain, acyclicity, and that the chains cover exactly the owned
/// leaves the tree walk found. No-op for indexes without leaf chains.
fn check_leaf_chains<I: TrajectoryIndex>(
    index: &I,
    owned_leaves: &HashMap<TrajectoryId, usize>,
) -> Result<(), String> {
    let tips = index.leaf_chain_tips();
    if tips.is_empty() {
        if !owned_leaves.is_empty() {
            return Err("tree holds owned leaves but reports no chain tips".into());
        }
        return Ok(());
    }
    let mut chained: HashMap<TrajectoryId, usize> = HashMap::new();
    for (traj, tip) in tips {
        let mut current = tip;
        let mut expected_next: Option<PageId> = None;
        let mut later_start = f64::INFINITY;
        let mut seen: HashSet<PageId> = HashSet::new();
        loop {
            if !seen.insert(current) {
                return Err(format!(
                    "trajectory {traj}: leaf chain contains a cycle at {current:?}"
                ));
            }
            let node = index.read_node(current).map_err(|e| e.to_string())?;
            let Node::Leaf {
                entries,
                owner,
                prev,
                next,
            } = node
            else {
                return Err(format!(
                    "trajectory {traj}: chain page {current:?} is not a leaf"
                ));
            };
            if owner != Some(traj) {
                return Err(format!(
                    "trajectory {traj}: chain page {current:?} is owned by {owner:?}"
                ));
            }
            if next != expected_next {
                return Err(format!(
                    "trajectory {traj}: page {current:?} has next {next:?}                      but the chain expects {expected_next:?}"
                ));
            }
            let (Some(first), Some(last)) = (entries.first(), entries.last()) else {
                return Err(format!(
                    "trajectory {traj}: empty leaf {current:?} on the chain"
                ));
            };
            if last.segment.end().t > later_start + TOL {
                return Err(format!(
                    "trajectory {traj}: chain out of temporal order at {current:?}"
                ));
            }
            later_start = first.segment.start().t;
            *chained.entry(traj).or_insert(0) += 1;
            match prev {
                Some(p) => {
                    expected_next = Some(current);
                    current = p;
                }
                None => break,
            }
        }
    }
    if &chained != owned_leaves {
        return Err(format!(
            "leaf chains cover {chained:?} but the tree holds owned leaves {owned_leaves:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternalEntry, LeafEntry, Rtree3D, TbTree};
    use mst_trajectory::{SamplePoint, Segment};

    fn entry(traj: u64, seq: u32, t0: f64, x: f64, y: f64) -> LeafEntry {
        LeafEntry {
            traj: TrajectoryId(traj),
            seq,
            segment: Segment::new(
                SamplePoint::new(t0, x, y),
                SamplePoint::new(t0 + 1.0, x + 1.0, y),
            )
            .expect("valid test segment"),
        }
    }

    fn multi_level_rtree() -> Rtree3D {
        let mut t = Rtree3D::new();
        for i in 0..200u32 {
            t.insert(entry(
                u64::from(i % 10),
                i / 10,
                f64::from(i),
                f64::from(i % 17),
                f64::from(i % 13),
            ))
            .expect("insert");
        }
        assert!(t.height() > 1, "corruption tests need a directory level");
        check_invariants(&t).expect("freshly built tree is valid");
        t
    }

    fn chained_tbtree() -> TbTree {
        let mut t = TbTree::new();
        // Enough segments to span several leaves per trajectory.
        for s in 0..150u32 {
            for id in [1u64, 2] {
                t.insert(entry(id, s, f64::from(s) * 2.0, f64::from(s), 0.0))
                    .expect("insert");
            }
        }
        check_invariants(&t).expect("freshly built tree is valid");
        t
    }

    #[test]
    fn inflated_child_mbb_is_detected() {
        let mut t = multi_level_rtree();
        let root = t.root().expect("non-empty");
        let Node::Internal { level, mut entries } = t.read_node(root).unwrap() else {
            panic!("multi-level tree has an internal root");
        };
        // Shrink the first entry's box to a point: the child's real MBB now
        // sticks out of what the parent advertises.
        let m = entries[0].mbb;
        entries[0].mbb = Mbb::new(m.x_min, m.y_min, m.t_min, m.x_min, m.y_min, m.t_min);
        t.corrupt_node_for_tests(root, &Node::Internal { level, entries })
            .unwrap();
        let err = check_invariants(&t).unwrap_err();
        assert!(err.contains("does not contain"), "{err}");
    }

    #[test]
    fn mis_leveled_node_is_detected() {
        let mut t = multi_level_rtree();
        let root = t.root().expect("non-empty");
        let Node::Internal { entries, .. } = t.read_node(root).unwrap() else {
            panic!("multi-level tree has an internal root");
        };
        // Replace a level-0 child with an internal node claiming level 1.
        let victim = entries[0].child;
        let fake = Node::Internal {
            level: 1,
            entries: vec![InternalEntry {
                child: root,
                mbb: entries[0].mbb,
            }],
        };
        t.corrupt_node_for_tests(victim, &fake).unwrap();
        let err = check_invariants(&t).unwrap_err();
        assert!(err.contains("parent expects"), "{err}");
    }

    #[test]
    fn foreign_segment_in_owned_leaf_is_detected() {
        let mut t = chained_tbtree();
        let (owner_id, tip) = t.leaf_chain_tips()[0];
        let Node::Leaf {
            mut entries,
            owner,
            prev,
            next,
        } = t.read_node(tip).unwrap()
        else {
            panic!("tips point at leaves");
        };
        assert_eq!(owner, Some(owner_id));
        // Relabel the last entry: same geometry (so the MBBs stay
        // consistent), different trajectory.
        let mut foreign = entries.pop().expect("tip leaves are non-empty");
        foreign.traj = TrajectoryId(owner_id.0 + 1);
        entries.push(foreign);
        t.corrupt_node_for_tests(
            tip,
            &Node::Leaf {
                entries,
                owner,
                prev,
                next,
            },
        )
        .unwrap();
        let err = check_invariants(&t).unwrap_err();
        assert!(err.contains("foreign segments"), "{err}");
    }

    #[test]
    fn desynced_entry_count_is_detected() {
        let mut t = multi_level_rtree();
        let n = t.num_entries();
        t.set_num_entries_for_tests(n + 1);
        let err = check_invariants(&t).unwrap_err();
        assert!(err.contains("reports"), "{err}");

        let mut t = chained_tbtree();
        let n = t.num_entries();
        t.set_num_entries_for_tests(n - 1);
        let err = check_invariants(&t).unwrap_err();
        assert!(err.contains("reports"), "{err}");
    }

    #[test]
    fn broken_leaf_chain_next_pointer_is_detected() {
        let mut t = chained_tbtree();
        let (_, tip) = t.leaf_chain_tips()[0];
        let Node::Leaf { prev, .. } = t.read_node(tip).unwrap() else {
            panic!("tips point at leaves");
        };
        let predecessor = prev.expect("150 segments span several leaves");
        let Node::Leaf {
            entries,
            owner,
            prev: pp,
            ..
        } = t.read_node(predecessor).unwrap()
        else {
            panic!("chain pages are leaves");
        };
        // Sever the forward link: the predecessor forgets its successor.
        t.corrupt_node_for_tests(
            predecessor,
            &Node::Leaf {
                entries,
                owner,
                prev: pp,
                next: None,
            },
        )
        .unwrap();
        let err = check_invariants(&t).unwrap_err();
        assert!(err.contains("next"), "{err}");
    }

    #[test]
    fn leaf_chain_cycle_is_detected() {
        let mut t = chained_tbtree();
        let (_, tip) = t.leaf_chain_tips()[0];
        let Node::Leaf { prev, .. } = t.read_node(tip).unwrap() else {
            panic!("tips point at leaves");
        };
        let predecessor = prev.expect("150 segments span several leaves");
        let Node::Leaf { entries, owner, .. } = t.read_node(predecessor).unwrap() else {
            panic!("chain pages are leaves");
        };
        // Point the predecessor back at the tip: tip -> pred -> tip -> ...
        t.corrupt_node_for_tests(
            predecessor,
            &Node::Leaf {
                entries,
                owner,
                prev: Some(tip),
                next: Some(tip),
            },
        )
        .unwrap();
        let err = check_invariants(&t).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn leaked_buffer_pin_is_detected() {
        let mut t = multi_level_rtree();
        let root = t.root().expect("non-empty");
        t.read_node(root).expect("root is resident after this");
        t.leak_pin_for_tests(root).expect("root is resident");
        let err = check_invariants(&t).unwrap_err();
        assert!(err.contains("leaked pin"), "{err}");

        let mut t = chained_tbtree();
        let root = t.root().expect("non-empty");
        t.read_node(root).expect("root is resident after this");
        t.leak_pin_for_tests(root).expect("root is resident");
        let err = check_invariants(&t).unwrap_err();
        assert!(err.contains("leaked pin"), "{err}");
    }
}
