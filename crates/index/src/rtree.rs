//! A 3D (x, y, t) R-tree over trajectory segments.
//!
//! This is the "3D R-tree" of the paper's experimental study
//! (Theodoridis/Vazirgiannis/Sellis, ICMCS 1996): a classic Guttman R-tree
//! whose keys are the 3D minimum bounding boxes of individual trajectory
//! line segments. Insertion descends by least volume enlargement and
//! resolves overflows with the quadratic split.

use mst_trajectory::{Mbb, TrajectoryId};

use crate::persist::ImageKind;
use crate::tree::{DescentHooks, InsertionPolicy, PagedTree, TreeCore};
use crate::{
    IndexError, InternalEntry, LeafEntry, Node, PageId, Result, TrajectoryIndexWrite,
    INTERNAL_CAPACITY, LEAF_CAPACITY,
};

/// Minimum fill fraction enforced by the quadratic split.
pub(crate) const MIN_FILL_RATIO: f64 = 0.4;

/// A Guttman-style 3D R-tree storing one entry per trajectory segment.
pub type Rtree3D = PagedTree<RtreePolicy>;

/// The 3D R-tree's policy: every segment goes down the least-enlargement
/// descent, with no tip or parent bookkeeping; point deletes condense the
/// tree à la Guttman.
#[derive(Debug, Default)]
pub struct RtreePolicy;

impl DescentHooks for RtreePolicy {}

impl InsertionPolicy for RtreePolicy {
    const KIND: ImageKind = ImageKind::Rtree3D;
    const NAME: &'static str = "rtree";
    const SUPPORTS_DELETE: bool = true;

    fn insert(&mut self, core: &mut TreeCore, entry: LeafEntry) -> Result<()> {
        core.insert_by_descent::<RtreePolicy>(entry)
    }

    fn delete(
        &mut self,
        core: &mut TreeCore,
        traj: TrajectoryId,
        seq: u32,
        guide: Option<&Mbb>,
    ) -> Result<bool> {
        let Some(root) = core.root else {
            return Ok(false);
        };
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let Some(leaf_page) = find_leaf(core, root, traj, seq, guide, &mut path)? else {
            return Ok(false);
        };

        let mut node = core.fetch_node(leaf_page)?;
        let Node::Leaf { entries, .. } = &mut node else {
            return Err(IndexError::CorruptNode {
                page: leaf_page,
                reason: "find_leaf returned a non-leaf page".into(),
            });
        };
        let Some(idx) = entries.iter().position(|e| e.traj == traj && e.seq == seq) else {
            return Err(IndexError::CorruptNode {
                page: leaf_page,
                reason: "leaf lost the matched entry between lookup and delete".into(),
            });
        };
        entries.remove(idx);
        core.num_entries -= 1;
        core.pager.get_mut()?.write_node(leaf_page, &node)?;
        condense(core, leaf_page, node, path)?;
        Ok(true)
    }
}

impl Rtree3D {
    /// Builds a tree bottom-up from a batch of entries with Sort-Tile-
    /// Recursive packing (Leutenegger et al.): leaves are filled to
    /// capacity along an x/y/t tiling, then each directory level is packed
    /// the same way. Produces a noticeably smaller, better-clustered tree
    /// than one-by-one insertion — the right tool for loading historical
    /// trajectory archives.
    pub fn bulk_load(entries: Vec<LeafEntry>) -> Result<Self> {
        let mut tree = Rtree3D::new();
        if entries.is_empty() {
            return Ok(tree);
        }
        let core = &mut tree.core;
        core.num_entries = entries.len() as u64;
        core.max_speed = entries
            .iter()
            .map(|e| e.segment.speed())
            .fold(0.0, f64::max);

        // Pack the leaf level.
        let mut items: Vec<(Mbb, LeafEntry)> = entries.into_iter().map(|e| (e.mbb(), e)).collect();
        let mut groups: Vec<Vec<(Mbb, LeafEntry)>> = Vec::new();
        str_pack(&mut items, LEAF_CAPACITY, 3, &mut groups);
        let mut level_entries: Vec<InternalEntry> = Vec::with_capacity(groups.len());
        for g in groups {
            let node = Node::Leaf {
                entries: g.into_iter().map(|(_, e)| e).collect(),
                owner: None,
                prev: None,
                next: None,
            };
            let mbb = node.mbb();
            let page = core.pager.get_mut()?.allocate_node(&node)?;
            level_entries.push(InternalEntry { child: page, mbb });
        }
        core.height = 1;

        // Pack directory levels until one node remains.
        while level_entries.len() > 1 {
            let mut items: Vec<(Mbb, InternalEntry)> =
                level_entries.into_iter().map(|e| (e.mbb, e)).collect();
            let mut groups: Vec<Vec<(Mbb, InternalEntry)>> = Vec::new();
            str_pack(&mut items, INTERNAL_CAPACITY, 3, &mut groups);
            let mut next: Vec<InternalEntry> = Vec::with_capacity(groups.len());
            for g in groups {
                let node = Node::Internal {
                    level: core.height,
                    entries: g.into_iter().map(|(_, e)| e).collect(),
                };
                let mbb = node.mbb();
                let page = core.pager.get_mut()?.allocate_node(&node)?;
                next.push(InternalEntry { child: page, mbb });
            }
            level_entries = next;
            core.height += 1;
        }
        core.root = Some(level_entries[0].child);
        tree.paranoid_audit("bulk_load");
        Ok(tree)
    }

    /// Deletes one segment entry (matched by trajectory id + sequence
    /// number), condensing the tree à la Guttman: underfull nodes on the
    /// path are dissolved and their surviving entries reinserted; freed
    /// pages return to the store. Returns `false` when no such entry
    /// exists.
    ///
    /// Knowing only the id, the search may read the whole tree;
    /// [`TrajectoryIndexWrite::delete_segment`] enters only the subtrees
    /// whose box contains the segment's.
    ///
    /// `max_speed` is intentionally *not* recomputed — it remains a sound
    /// (if possibly loose) upper bound for the Vmax-based pruning metrics.
    pub fn delete(&mut self, traj: TrajectoryId, seq: u32) -> Result<bool> {
        self.delete_entry(traj, seq)
    }
}

/// Depth-first search for the leaf holding `(traj, seq)`, recording the
/// root-to-parent path of the match. With a `guide` (the segment's box) it
/// enters only children whose stored box contains the guide, as every box
/// on the path to the entry does; without one it tries every child.
fn find_leaf(
    core: &mut TreeCore,
    page: PageId,
    traj: TrajectoryId,
    seq: u32,
    guide: Option<&Mbb>,
    path: &mut Vec<(PageId, usize)>,
) -> Result<Option<PageId>> {
    match core.fetch_node(page)? {
        Node::Leaf { entries, .. } => {
            if entries.iter().any(|e| e.traj == traj && e.seq == seq) {
                Ok(Some(page))
            } else {
                Ok(None)
            }
        }
        Node::Internal { entries, .. } => {
            for (i, e) in entries.iter().enumerate() {
                if guide.is_some_and(|g| e.mbb.union(g) != e.mbb) {
                    continue;
                }
                path.push((page, i));
                if let Some(found) = find_leaf(core, e.child, traj, seq, guide, path)? {
                    return Ok(Some(found));
                }
                path.pop();
            }
            Ok(None)
        }
    }
}

/// Guttman's CondenseTree: walk the deletion path upward, dissolving
/// underfull nodes (their leaf entries are reinserted afterwards) and
/// tightening ancestor MBBs; then shrink the root while it has a single
/// child.
fn condense(
    core: &mut TreeCore,
    mut child_page: PageId,
    mut child_node: Node,
    path: Vec<(PageId, usize)>,
) -> Result<()> {
    let mut orphans: Vec<LeafEntry> = Vec::new();
    for &(parent_page, child_idx) in path.iter().rev() {
        let mut parent = core.fetch_node(parent_page)?;
        let Node::Internal { entries, .. } = &mut parent else {
            return Err(IndexError::CorruptNode {
                page: parent_page,
                reason: "deletion path holds a leaf above level 0".into(),
            });
        };
        let min_fill = (child_node.capacity() as f64 * MIN_FILL_RATIO).ceil() as usize;
        if child_node.len() < min_fill {
            // Dissolve the child: harvest its leaf entries, free its
            // pages, drop it from the parent.
            harvest(core, &child_node, &mut orphans)?;
            core.pager.get_mut()?.free_node(child_page)?;
            entries.remove(child_idx);
        } else {
            entries[child_idx].mbb = child_node.mbb();
        }
        core.pager.get_mut()?.write_node(parent_page, &parent)?;
        child_page = parent_page;
        child_node = parent;
    }

    // Shrink the root: empty leaf -> empty tree; single-child internal
    // chains collapse.
    loop {
        match &child_node {
            Node::Leaf { entries, .. } => {
                if entries.is_empty() && orphans.is_empty() {
                    core.pager.get_mut()?.free_node(child_page)?;
                    core.root = None;
                    core.height = 0;
                }
                break;
            }
            Node::Internal { entries, .. } => match entries.len() {
                0 => {
                    core.pager.get_mut()?.free_node(child_page)?;
                    core.root = None;
                    core.height = 0;
                    break;
                }
                1 => {
                    let only = entries[0].child;
                    core.pager.get_mut()?.free_node(child_page)?;
                    core.root = Some(only);
                    core.height -= 1;
                    child_page = only;
                    child_node = core.fetch_node(only)?;
                }
                _ => break,
            },
        }
    }

    // Reinsert what the dissolved nodes still held. The descent counts
    // entries, so compensate; the tree is transiently inconsistent until
    // the last orphan lands, and the caller audits only the final state.
    for e in orphans {
        core.num_entries -= 1;
        core.insert_by_descent::<RtreePolicy>(e)?;
    }
    Ok(())
}

/// Collects every leaf entry below `node` and frees the visited
/// descendant pages (the node's own page is freed by the caller).
fn harvest(core: &mut TreeCore, node: &Node, out: &mut Vec<LeafEntry>) -> Result<()> {
    match node {
        Node::Leaf { entries, .. } => out.extend(entries.iter().copied()),
        Node::Internal { entries, .. } => {
            for e in entries {
                let child = core.fetch_node(e.child)?;
                harvest(core, &child, out)?;
                core.pager.get_mut()?.free_node(e.child)?;
            }
        }
    }
    Ok(())
}

/// Picks the child whose MBB needs the least volume enlargement to absorb
/// `mbb` (ties broken by smaller volume, then by index for determinism),
/// and returns its slot and entry. The children come as read, so the first
/// that failed to read fails the choice.
pub(crate) fn choose_subtree(
    children: impl Iterator<Item = Result<InternalEntry>>,
    mbb: &Mbb,
) -> Result<(usize, InternalEntry)> {
    let mut best = None;
    let mut best_enlargement = f64::INFINITY;
    let mut best_volume = f64::INFINITY;
    for (i, e) in children.enumerate() {
        let e = e?;
        let enlargement = e.mbb.enlargement(mbb);
        let volume = e.mbb.volume();
        if enlargement < best_enlargement
            || (enlargement == best_enlargement && volume < best_volume)
        {
            best = Some((i, e));
            best_enlargement = enlargement;
            best_volume = volume;
        }
        best.get_or_insert((i, e));
    }
    best.ok_or(IndexError::BadInsert("no child to descend into".into()))
}

/// One half of a quadratic split: boxed items assigned to a group.
pub(crate) type SplitGroup<T> = Vec<(Mbb, T)>;

/// Guttman's quadratic split: pick the pair of seeds wasting the most dead
/// space, then assign each remaining item to the group whose MBB grows the
/// least, forcing assignment when a group must take everything left to reach
/// the minimum fill.
pub(crate) fn quadratic_split<T: Copy>(
    items: Vec<(Mbb, T)>,
    min_fill: usize,
) -> (SplitGroup<T>, SplitGroup<T>) {
    debug_assert!(items.len() >= 2);
    // Seed selection: maximize union volume minus the two volumes.
    let (mut seed_a, mut seed_b) = (0, 1);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let dead =
                items[i].0.union(&items[j].0).volume() - items[i].0.volume() - items[j].0.volume();
            if dead > worst {
                worst = dead;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let mut group_a: Vec<(Mbb, T)> = vec![items[seed_a]];
    let mut group_b: Vec<(Mbb, T)> = vec![items[seed_b]];
    let mut mbb_a = items[seed_a].0;
    let mut mbb_b = items[seed_b].0;

    let mut rest: Vec<(Mbb, T)> = items
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| i != seed_a && i != seed_b)
        .map(|(_, it)| it)
        .collect();

    while let Some(next) = pick_next(&rest, &mbb_a, &mbb_b) {
        let remaining = rest.len();
        // Forced assignment to honour the minimum fill.
        if group_a.len() + remaining <= min_fill {
            for it in rest.drain(..) {
                mbb_a = mbb_a.union(&it.0);
                group_a.push(it);
            }
            break;
        }
        if group_b.len() + remaining <= min_fill {
            for it in rest.drain(..) {
                mbb_b = mbb_b.union(&it.0);
                group_b.push(it);
            }
            break;
        }
        let it = rest.swap_remove(next);
        let grow_a = mbb_a.enlargement(&it.0);
        let grow_b = mbb_b.enlargement(&it.0);
        let to_a = match grow_a.partial_cmp(&grow_b) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => {
                // Tie: smaller volume, then fewer entries.
                if mbb_a.volume() != mbb_b.volume() {
                    mbb_a.volume() < mbb_b.volume()
                } else {
                    group_a.len() <= group_b.len()
                }
            }
        };
        if to_a {
            mbb_a = mbb_a.union(&it.0);
            group_a.push(it);
        } else {
            mbb_b = mbb_b.union(&it.0);
            group_b.push(it);
        }
    }
    (group_a, group_b)
}

/// PickNext of the quadratic split: the remaining item with the greatest
/// preference (|enlargement difference|) for one group over the other.
fn pick_next<T>(rest: &[(Mbb, T)], mbb_a: &Mbb, mbb_b: &Mbb) -> Option<usize> {
    if rest.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_pref = f64::NEG_INFINITY;
    for (i, (mbb, _)) in rest.iter().enumerate() {
        let pref = (mbb_a.enlargement(mbb) - mbb_b.enlargement(mbb)).abs();
        if pref > best_pref {
            best_pref = pref;
            best = i;
        }
    }
    Some(best)
}

/// Sort-Tile-Recursive partitioning: recursively sorts by the current
/// dimension's box center (x, then y, then t), slices into
/// `ceil(P^(1/dims))` slabs, and recurses with one dimension fewer; the
/// base case chunks a run into capacity-sized groups.
pub(crate) fn str_pack<T: Copy>(
    items: &mut [(Mbb, T)],
    cap: usize,
    dims: usize,
    out: &mut Vec<Vec<(Mbb, T)>>,
) {
    if items.len() <= cap {
        out.push(items.to_vec());
        return;
    }
    let center = |m: &Mbb, d: usize| match d {
        3 => 0.5 * (m.x_min + m.x_max),
        2 => 0.5 * (m.y_min + m.y_max),
        _ => 0.5 * (m.t_min + m.t_max),
    };
    if dims <= 1 {
        items.sort_by(|a, b| center(&a.0, 1).total_cmp(&center(&b.0, 1)));
        for chunk in items.chunks(cap) {
            out.push(chunk.to_vec());
        }
        return;
    }
    let pages = items.len().div_ceil(cap);
    let slabs = (pages as f64).powf(1.0 / dims as f64).ceil() as usize;
    let slab_size = items.len().div_ceil(slabs.max(1));
    items.sort_by(|a, b| center(&a.0, dims).total_cmp(&center(&b.0, dims)));
    for chunk in items.chunks_mut(slab_size.max(cap)) {
        str_pack(chunk, cap, dims - 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TrajectoryIndex, PAGE_SIZE};
    use mst_trajectory::{SamplePoint, Segment};

    fn seg(t0: f64, x0: f64, y0: f64, t1: f64, x1: f64, y1: f64) -> Segment {
        Segment::new(SamplePoint::new(t0, x0, y0), SamplePoint::new(t1, x1, y1)).unwrap()
    }

    fn entry(id: u64, seq: u32, t: f64, x: f64, y: f64) -> LeafEntry {
        LeafEntry {
            traj: TrajectoryId(id),
            seq,
            segment: seg(t, x, y, t + 1.0, x + 0.5, y + 0.25),
        }
    }

    #[test]
    fn empty_tree_has_no_root() {
        let t = Rtree3D::new();
        assert!(t.root().is_none());
        assert_eq!(t.num_entries(), 0);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn single_insert_creates_leaf_root() {
        let mut t = Rtree3D::new();
        t.insert(entry(1, 0, 0.0, 0.0, 0.0)).unwrap();
        assert_eq!(t.height(), 1);
        let root = t.root().unwrap();
        let node = t.read_node(root).unwrap();
        assert!(node.is_leaf());
        assert_eq!(node.len(), 1);
    }

    #[test]
    fn grows_and_keeps_all_entries() {
        let mut t = Rtree3D::new();
        let n = 1000u32;
        for i in 0..n {
            // Scatter deterministically.
            let x = (i as f64 * 17.0) % 97.0;
            let y = (i as f64 * 29.0) % 89.0;
            t.insert(entry(u64::from(i % 50), i / 50, i as f64, x, y))
                .unwrap();
        }
        assert_eq!(t.num_entries(), u64::from(n));
        assert!(t.height() >= 2, "1000 entries must overflow one leaf");
        // Every entry is reachable via a full-space range query.
        let all = t
            .range_query(&Mbb::new(
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::INFINITY,
                f64::INFINITY,
            ))
            .unwrap();
        assert_eq!(all.len(), n as usize);
        crate::check_invariants(&t).unwrap();
    }

    #[test]
    fn range_query_filters_spatially() {
        let mut t = Rtree3D::new();
        for i in 0..200u32 {
            let x = f64::from(i % 20) * 10.0;
            let y = f64::from(i / 20) * 10.0;
            t.insert(entry(u64::from(i), 0, f64::from(i), x, y))
                .unwrap();
        }
        // A window that covers x in [0, 15], y in [0, 15], all times: only
        // entries whose segment boxes intersect it qualify.
        let window = Mbb::new(0.0, 0.0, 0.0, 15.0, 15.0, 1e9);
        let hits = t.range_query(&window).unwrap();
        assert!(!hits.is_empty());
        for e in &hits {
            assert!(e.mbb().intersects(&window));
        }
        // Complement check against a scan of all entries.
        let all = t
            .range_query(&Mbb::new(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9))
            .unwrap();
        let expected = all.iter().filter(|e| e.mbb().intersects(&window)).count();
        assert_eq!(hits.len(), expected);
    }

    #[test]
    fn max_speed_tracks_fastest_segment() {
        let mut t = Rtree3D::new();
        t.insert(LeafEntry {
            traj: TrajectoryId(1),
            seq: 0,
            segment: seg(0.0, 0.0, 0.0, 1.0, 3.0, 4.0), // speed 5
        })
        .unwrap();
        t.insert(LeafEntry {
            traj: TrajectoryId(2),
            seq: 0,
            segment: seg(0.0, 0.0, 0.0, 2.0, 2.0, 0.0), // speed 1
        })
        .unwrap();
        assert_eq!(t.max_speed(), 5.0);
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let items: Vec<(Mbb, u32)> = (0..10)
            .map(|i| {
                let f = f64::from(i);
                (Mbb::new(f, f, f, f + 1.0, f + 1.0, f + 1.0), i as u32)
            })
            .collect();
        let (a, b) = quadratic_split(items, 4);
        assert_eq!(a.len() + b.len(), 10);
        assert!(a.len() >= 4 && b.len() >= 4);
    }

    #[test]
    fn split_separates_distant_clusters() {
        // Two tight clusters far apart should end up in different groups.
        let mut items: Vec<(Mbb, u32)> = Vec::new();
        for i in 0..5 {
            let f = f64::from(i) * 0.1;
            items.push((Mbb::new(f, f, f, f + 0.1, f + 0.1, f + 0.1), i as u32));
        }
        for i in 0..5 {
            let f = 1000.0 + f64::from(i) * 0.1;
            items.push((Mbb::new(f, f, f, f + 0.1, f + 0.1, f + 0.1), 100 + i as u32));
        }
        let (a, b) = quadratic_split(items, 2);
        let a_low = a.iter().all(|&(_, v)| v < 100) || a.iter().all(|&(_, v)| v >= 100);
        let b_low = b.iter().all(|&(_, v)| v < 100) || b.iter().all(|&(_, v)| v >= 100);
        assert!(a_low && b_low, "clusters were mixed: {a:?} {b:?}");
    }

    #[test]
    fn delete_removes_entry_and_preserves_invariants() {
        let mut t = Rtree3D::new();
        let n = 600u32;
        for i in 0..n {
            let x = (f64::from(i) * 13.0) % 83.0;
            let y = (f64::from(i) * 7.0) % 41.0;
            t.insert(entry(u64::from(i % 20), i / 20, f64::from(i), x, y))
                .unwrap();
        }
        // Delete every third entry.
        let mut deleted = 0u64;
        for i in (0..n).step_by(3) {
            assert!(t.delete(TrajectoryId(u64::from(i % 20)), i / 20).unwrap());
            deleted += 1;
        }
        assert_eq!(t.num_entries(), u64::from(n) - deleted);
        crate::check_invariants(&t).unwrap();
        // Deleted entries are gone; survivors remain findable.
        let all = t
            .range_query(&Mbb::new(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9))
            .unwrap();
        assert_eq!(all.len() as u64, u64::from(n) - deleted);
        assert!(!all.iter().any(|e| e.traj == TrajectoryId(0) && e.seq == 0));
    }

    #[test]
    fn delete_missing_entry_returns_false() {
        let mut t = Rtree3D::new();
        t.insert(entry(1, 0, 0.0, 0.0, 0.0)).unwrap();
        assert!(!t.delete(TrajectoryId(9), 0).unwrap());
        assert!(!t.delete(TrajectoryId(1), 5).unwrap());
        assert_eq!(t.num_entries(), 1);
    }

    #[test]
    fn delete_everything_empties_the_tree_and_reuses_pages() {
        let mut t = Rtree3D::new();
        let n = 300u32;
        for i in 0..n {
            t.insert(entry(u64::from(i), 0, f64::from(i), f64::from(i % 9), 0.0))
                .unwrap();
        }
        let pages_full = t.num_pages();
        for i in 0..n {
            assert!(t.delete(TrajectoryId(u64::from(i)), 0).unwrap(), "i={i}");
        }
        assert_eq!(t.num_entries(), 0);
        assert!(t.root().is_none());
        assert_eq!(t.height(), 0);
        crate::check_invariants(&t).unwrap();
        // Freed pages are recycled by fresh insertions.
        for i in 0..n {
            t.insert(entry(u64::from(i), 1, f64::from(i), f64::from(i % 9), 1.0))
                .unwrap();
        }
        assert!(
            t.num_pages() <= pages_full + 4,
            "rebuild used {} pages vs {} before",
            t.num_pages(),
            pages_full
        );
        crate::check_invariants(&t).unwrap();
    }

    #[test]
    fn interleaved_insert_delete_stays_consistent() {
        let mut t = Rtree3D::new();
        let mut live: Vec<(u64, u32)> = Vec::new();
        let mut x: u64 = 0xDEADBEEF;
        for step in 0..1500u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let coin = (x >> 60) % 4;
            if coin == 0 && !live.is_empty() {
                let idx = (x >> 20) as usize % live.len();
                let (tr, seq) = live.swap_remove(idx);
                assert!(t.delete(TrajectoryId(tr), seq).unwrap());
            } else {
                let tr = u64::from(step % 30);
                let seq = step;
                let fx = f64::from((x >> 10) as u32 % 1000) / 10.0;
                let fy = f64::from((x >> 30) as u32 % 1000) / 10.0;
                t.insert(entry(tr, seq, f64::from(step), fx, fy)).unwrap();
                live.push((tr, seq));
            }
        }
        assert_eq!(t.num_entries() as usize, live.len());
        crate::check_invariants(&t).unwrap();
    }

    #[test]
    fn bulk_load_packs_tighter_and_answers_identically() {
        let mut entries: Vec<LeafEntry> = Vec::new();
        for i in 0..3000u32 {
            let x = (f64::from(i) * 13.7) % 211.0;
            let y = (f64::from(i) * 7.1) % 157.0;
            entries.push(entry(u64::from(i % 40), i / 40, f64::from(i), x, y));
        }
        let mut incremental = Rtree3D::new();
        for e in &entries {
            incremental.insert(*e).unwrap();
        }
        let mut bulk = Rtree3D::bulk_load(entries.clone()).unwrap();
        assert_eq!(bulk.num_entries(), 3000);
        assert_eq!(bulk.max_speed(), incremental.max_speed());
        crate::check_invariants(&bulk).unwrap();
        // Packing beats incremental construction on size.
        assert!(
            bulk.num_pages() < incremental.num_pages(),
            "bulk {} vs incremental {}",
            bulk.num_pages(),
            incremental.num_pages()
        );
        // Same answers for range queries.
        let window = Mbb::new(20.0, 20.0, 100.0, 120.0, 90.0, 900.0);
        let mut a = bulk.range_query(&window).unwrap();
        let mut b = incremental.range_query(&window).unwrap();
        let key = |e: &LeafEntry| (e.traj, e.seq);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        // A bulk-loaded tree keeps accepting inserts and deletes.
        bulk.insert(entry(99, 0, 5000.0, 1.0, 1.0)).unwrap();
        assert!(bulk.delete(TrajectoryId(99), 0).unwrap());
        crate::check_invariants(&bulk).unwrap();
    }

    #[test]
    fn bulk_load_edge_cases() {
        let empty = Rtree3D::bulk_load(Vec::new()).unwrap();
        assert!(empty.root().is_none());
        let single = Rtree3D::bulk_load(vec![entry(1, 0, 0.0, 0.0, 0.0)]).unwrap();
        assert_eq!(single.height(), 1);
        assert_eq!(single.num_entries(), 1);
        crate::check_invariants(&single).unwrap();
        // Exactly one full leaf.
        let full: Vec<LeafEntry> = (0..LEAF_CAPACITY as u32)
            .map(|i| entry(1, i, f64::from(i), f64::from(i), 0.0))
            .collect();
        let one_leaf = Rtree3D::bulk_load(full).unwrap();
        assert_eq!(one_leaf.height(), 1);
        assert_eq!(one_leaf.num_pages(), 1);
        crate::check_invariants(&one_leaf).unwrap();
    }

    #[test]
    fn stats_report_structure_and_io() {
        let mut t = Rtree3D::new();
        for i in 0..300u32 {
            t.insert(entry(u64::from(i), 0, f64::from(i), f64::from(i % 7), 0.0))
                .unwrap();
        }
        let s = t.stats();
        assert!(s.pages >= 5);
        assert_eq!(s.entries, 300);
        assert_eq!(s.size_bytes, s.pages * PAGE_SIZE);
        assert!(s.node_reads > 0);
        t.reset_stats();
        assert_eq!(t.stats().node_reads, 0);
    }

    #[test]
    fn a_delete_guided_by_the_segment_box_reads_a_few_paths() {
        // Random walks: 100 objects x 200 steps = 20 000 segments.
        let mut x: u64 = 0x5EED_0044;
        let mut unit = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut at: Vec<(f64, f64)> = (0..100)
            .map(|_| (1000.0 * unit(), 1000.0 * unit()))
            .collect();
        let mut t = Rtree3D::new();
        let mut all = Vec::new();
        for seq in 0..200u32 {
            for (id, p) in at.iter_mut().enumerate() {
                let q = (p.0 + 10.0 * unit() - 5.0, p.1 + 10.0 * unit() - 5.0);
                let t0 = f64::from(seq);
                let e = LeafEntry {
                    traj: TrajectoryId(id as u64),
                    seq,
                    segment: seg(t0, p.0, p.1, t0 + 1.0, q.0, q.1),
                };
                // Through the core: a `paranoid` audit after each of
                // 20 000 inserts would dominate the run.
                t.core.insert_by_descent::<RtreePolicy>(e).unwrap();
                all.push(e);
                *p = q;
            }
        }
        let pages = t.num_pages() as u64;
        let root = t.root().unwrap();
        let (mut whole, mut guided, mut unguided) = (Vec::new(), 0, 0);
        for victim in all.iter().step_by(1999) {
            // The search for the leaf reads under 5 % of the pages ...
            let mut path = Vec::new();
            t.reset_stats();
            let guide = Some(victim.mbb());
            let found = find_leaf(
                &mut t.core,
                root,
                victim.traj,
                victim.seq,
                guide.as_ref(),
                &mut path,
            );
            let reads = t.stats().node_reads;
            assert!(found.unwrap().is_some());
            assert!(reads * 20 < pages, "{reads} node reads of {pages} pages");
            guided += reads;
            t.reset_stats();
            find_leaf(&mut t.core, root, victim.traj, victim.seq, None, &mut path).unwrap();
            unguided += t.stats().node_reads;
            // ... and so does the whole delete, unless the leaf falls under
            // its minimum fill and CondenseTree reinserts what it held.
            t.reset_stats();
            assert!(t.delete_segment(victim).unwrap());
            whole.push(t.stats().node_reads);
        }
        whole.sort_unstable();
        assert!(
            whole[whole.len() / 2] * 20 < pages,
            "delete reads: {whole:?} of {pages} pages"
        );
        assert!(
            unguided > 10 * guided,
            "searches: {guided} guided, {unguided} unguided"
        );
        // A segment the tree no longer holds is not found.
        assert!(!t.delete_segment(&all[0]).unwrap());
        // The id-only walk still finds what it is asked for.
        assert!(t.delete(all[1].traj, all[1].seq).unwrap());
        crate::check_invariants(&t).unwrap();
        assert_eq!(t.num_entries(), all.len() as u64 - 12);
    }
}
