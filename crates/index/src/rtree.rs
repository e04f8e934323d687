//! A 3D (x, y, t) R-tree over trajectory segments.
//!
//! This is the "3D R-tree" of the paper's experimental study
//! (Theodoridis/Vazirgiannis/Sellis, ICMCS 1996): a classic Guttman R-tree
//! whose keys are the 3D minimum bounding boxes of individual trajectory
//! line segments. Insertion descends by least volume enlargement and
//! resolves overflows with the quadratic split.

use mst_trajectory::{Mbb, Trajectory, TrajectoryId};

use crate::persist::{Image, ImageKind};
use crate::traits::Pager;
use crate::{
    IndexError, IndexStats, InternalEntry, LeafEntry, Node, PageId, PageStore, Result,
    TrajectoryIndex, INTERNAL_CAPACITY, LEAF_CAPACITY, PAGE_SIZE,
};

/// Minimum fill fraction enforced by the quadratic split.
pub(crate) const MIN_FILL_RATIO: f64 = 0.4;

/// A Guttman-style 3D R-tree storing one entry per trajectory segment.
pub struct Rtree3D {
    pager: Pager,
    root: Option<PageId>,
    height: u8,
    num_entries: u64,
    max_speed: f64,
}

impl Rtree3D {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Rtree3D {
            pager: Pager::new(),
            root: None,
            height: 0,
            num_entries: 0,
            max_speed: 0.0,
        }
    }

    /// Inserts one trajectory segment.
    pub fn insert(&mut self, entry: LeafEntry) -> Result<()> {
        self.insert_impl(entry)?;
        self.paranoid_audit("insert");
        Ok(())
    }

    /// Audit hook behind the `paranoid` feature: re-validates the whole
    /// tree and the buffer accounting after a mutating operation. The I/O
    /// counters are snapshot-restored around the audit so measurements stay
    /// comparable with unaudited runs.
    #[cfg(feature = "paranoid")]
    fn paranoid_audit(&mut self, op: &str) {
        let disk = self.pager.store.stats();
        let buf = self.pager.pool.stats();
        let reads = self.pager.node_reads;
        let failure = crate::check_invariants(self).err();
        self.pager.store.set_stats(disk);
        self.pager.pool.set_stats(buf);
        self.pager.node_reads = reads;
        if let Some(reason) = failure {
            let _ = &reason;
            debug_assert!(false, "paranoid audit after {op}: {reason}");
        }
    }

    #[cfg(not(feature = "paranoid"))]
    #[inline(always)]
    fn paranoid_audit(&mut self, _op: &str) {}

    fn insert_impl(&mut self, entry: LeafEntry) -> Result<()> {
        self.max_speed = self.max_speed.max(entry.segment.speed());
        self.num_entries += 1;

        let Some(root) = self.root else {
            let node = Node::Leaf {
                entries: vec![entry],
                owner: None,
                prev: None,
                next: None,
            };
            self.root = Some(self.pager.allocate_node(&node)?);
            self.height = 1;
            return Ok(());
        };

        // Descend to the best leaf, remembering the path.
        let mut path: Vec<(PageId, usize)> = Vec::with_capacity(self.height as usize);
        let mut current = root;
        while let Node::Internal { entries, .. } = self.read_node(current)? {
            let idx = choose_subtree(&entries, &entry.mbb());
            path.push((current, idx));
            current = entries[idx].child;
        }

        // Insert into the leaf, splitting on overflow.
        let mut leaf = self.read_node(current)?;
        let Node::Leaf { entries, .. } = &mut leaf else {
            return Err(IndexError::CorruptNode {
                page: current,
                reason: "descent ended on an internal node".into(),
            });
        };
        entries.push(entry);
        let mut updated_mbb; // MBB of the child we just modified
        let mut split: Option<InternalEntry> = None;
        if entries.len() > LEAF_CAPACITY {
            let min_fill = (LEAF_CAPACITY as f64 * MIN_FILL_RATIO).ceil() as usize;
            let items: Vec<(Mbb, LeafEntry)> = entries.iter().map(|e| (e.mbb(), *e)).collect();
            let (a, b) = quadratic_split(items, min_fill);
            let node_a = Node::Leaf {
                entries: a.into_iter().map(|(_, e)| e).collect(),
                owner: None,
                prev: None,
                next: None,
            };
            let node_b = Node::Leaf {
                entries: b.into_iter().map(|(_, e)| e).collect(),
                owner: None,
                prev: None,
                next: None,
            };
            updated_mbb = node_a.mbb();
            self.pager.write_node(current, &node_a)?;
            let new_page = self.pager.allocate_node(&node_b)?;
            split = Some(InternalEntry {
                child: new_page,
                mbb: node_b.mbb(),
            });
        } else {
            updated_mbb = leaf.mbb();
            self.pager.write_node(current, &leaf)?;
        }

        // Walk back up: refresh the child MBB, absorb any split.
        for &(page, child_idx) in path.iter().rev() {
            let mut node = self.read_node(page)?;
            let Node::Internal { level, entries } = &mut node else {
                return Err(IndexError::CorruptNode {
                    page,
                    reason: "path node is not internal".into(),
                });
            };
            entries[child_idx].mbb = updated_mbb;
            if let Some(new_entry) = split.take() {
                entries.push(new_entry);
                if entries.len() > INTERNAL_CAPACITY {
                    let min_fill = (INTERNAL_CAPACITY as f64 * MIN_FILL_RATIO).ceil() as usize;
                    let items: Vec<(Mbb, InternalEntry)> =
                        entries.iter().map(|e| (e.mbb, *e)).collect();
                    let (a, b) = quadratic_split(items, min_fill);
                    let level = *level;
                    let node_a = Node::Internal {
                        level,
                        entries: a.into_iter().map(|(_, e)| e).collect(),
                    };
                    let node_b = Node::Internal {
                        level,
                        entries: b.into_iter().map(|(_, e)| e).collect(),
                    };
                    updated_mbb = node_a.mbb();
                    self.pager.write_node(page, &node_a)?;
                    let new_page = self.pager.allocate_node(&node_b)?;
                    split = Some(InternalEntry {
                        child: new_page,
                        mbb: node_b.mbb(),
                    });
                    continue;
                }
            }
            updated_mbb = node.mbb();
            self.pager.write_node(page, &node)?;
        }

        // Root split: grow the tree by one level.
        if let Some(new_entry) = split {
            let old_root_mbb = self.read_node(root)?.mbb();
            let new_root = Node::Internal {
                level: self.height,
                entries: vec![
                    InternalEntry {
                        child: root,
                        mbb: old_root_mbb,
                    },
                    new_entry,
                ],
            };
            self.root = Some(self.pager.allocate_node(&new_root)?);
            self.height += 1;
        }
        Ok(())
    }

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
        tree.num_entries = entries.len() as u64;
        tree.max_speed = entries
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
            let page = tree.pager.allocate_node(&node)?;
            level_entries.push(InternalEntry { child: page, mbb });
        }
        tree.height = 1;

        // Pack directory levels until one node remains.
        while level_entries.len() > 1 {
            let mut items: Vec<(Mbb, InternalEntry)> =
                level_entries.into_iter().map(|e| (e.mbb, e)).collect();
            let mut groups: Vec<Vec<(Mbb, InternalEntry)>> = Vec::new();
            str_pack(&mut items, INTERNAL_CAPACITY, 3, &mut groups);
            let mut next: Vec<InternalEntry> = Vec::with_capacity(groups.len());
            for g in groups {
                let node = Node::Internal {
                    level: tree.height,
                    entries: g.into_iter().map(|(_, e)| e).collect(),
                };
                let mbb = node.mbb();
                let page = tree.pager.allocate_node(&node)?;
                next.push(InternalEntry { child: page, mbb });
            }
            level_entries = next;
            tree.height += 1;
        }
        tree.root = Some(level_entries[0].child);
        tree.paranoid_audit("bulk_load");
        Ok(tree)
    }

    /// Inserts every segment of `trajectory` under `id` (sequence numbers
    /// follow the segment order).
    pub fn insert_trajectory(&mut self, id: TrajectoryId, trajectory: &Trajectory) -> Result<()> {
        for (seq, segment) in trajectory.segments().enumerate() {
            self.insert(LeafEntry {
                traj: id,
                seq: seq as u32,
                segment,
            })?;
        }
        Ok(())
    }

    /// Flushes dirty buffered pages to the page store.
    pub fn flush(&mut self) -> Result<()> {
        self.pager.pool.flush(&mut self.pager.store)
    }

    /// Serializes the whole index into `writer` (dirty pages are flushed
    /// first, so the image is a faithful snapshot). The image carries LSN 0
    /// — use [`Rtree3D::save_lsn`] when the tree lives under a write-ahead
    /// log.
    pub fn save<W: std::io::Write>(&mut self, writer: W) -> Result<()> {
        self.save_lsn(writer, 0)
    }

    /// Serializes the whole index into `writer`, stamping the image with
    /// the log sequence number it is consistent through.
    pub fn save_lsn<W: std::io::Write>(&mut self, writer: W, lsn: u64) -> Result<()> {
        self.flush()?;
        let image = Image {
            kind: ImageKind::Rtree3D,
            lsn,
            root: self.root,
            height: self.height,
            entries: self.num_entries,
            max_speed: self.max_speed,
            pages: self.pager.store.raw_pages().map(Box::from).collect(),
            free_list: self.pager.store.free_list().to_vec(),
            tips: Vec::new(),
            parents: Vec::new(),
        };
        image.write_to(writer)
    }

    /// Saves the index to a file.
    pub fn save_to_path<P: AsRef<std::path::Path>>(&mut self, path: P) -> Result<()> {
        let file = std::fs::File::create(path).map_err(|e| IndexError::Persist(e.to_string()))?;
        self.save(std::io::BufWriter::new(file))
    }

    /// Reconstructs an index from a persisted image.
    pub fn load<R: std::io::Read>(reader: R) -> Result<Self> {
        Ok(Self::load_lsn(reader)?.0)
    }

    /// Reconstructs an index from a persisted image, also returning the log
    /// sequence number the image is consistent through.
    pub fn load_lsn<R: std::io::Read>(reader: R) -> Result<(Self, u64)> {
        let image = Image::read_from(reader)?;
        if image.kind != ImageKind::Rtree3D {
            return Err(IndexError::Persist(
                "image holds a TB-tree, not a 3D R-tree".into(),
            ));
        }
        let lsn = image.lsn;
        let store = PageStore::from_raw(image.pages, image.free_list);
        Ok((
            Rtree3D {
                pager: Pager::from_store(store),
                root: image.root,
                height: image.height,
                num_entries: image.entries,
                max_speed: image.max_speed,
            },
            lsn,
        ))
    }

    /// Loads an index from a file.
    pub fn load_from_path<P: AsRef<std::path::Path>>(path: P) -> Result<Self> {
        let file = std::fs::File::open(path).map_err(|e| IndexError::Persist(e.to_string()))?;
        Self::load(std::io::BufReader::new(file))
    }

    /// Deletes one segment entry (matched by trajectory id + sequence
    /// number), condensing the tree à la Guttman: underfull nodes on the
    /// path are dissolved and their surviving entries reinserted; freed
    /// pages return to the store. Returns `false` when no such entry
    /// exists.
    ///
    /// `max_speed` is intentionally *not* recomputed — it remains a sound
    /// (if possibly loose) upper bound for the Vmax-based pruning metrics.
    pub fn delete(&mut self, traj: TrajectoryId, seq: u32) -> Result<bool> {
        let deleted = self.delete_impl(traj, seq)?;
        self.paranoid_audit("delete");
        Ok(deleted)
    }

    fn delete_impl(&mut self, traj: TrajectoryId, seq: u32) -> Result<bool> {
        let Some(root) = self.root else {
            return Ok(false);
        };
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let Some(leaf_page) = self.find_leaf(root, traj, seq, &mut path)? else {
            return Ok(false);
        };

        let mut node = self.read_node(leaf_page)?;
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
        self.num_entries -= 1;
        self.pager.write_node(leaf_page, &node)?;
        self.condense(leaf_page, node, path)?;
        Ok(true)
    }

    /// Depth-first search for the leaf holding `(traj, seq)`, recording the
    /// root-to-parent path of the match.
    fn find_leaf(
        &mut self,
        page: PageId,
        traj: TrajectoryId,
        seq: u32,
        path: &mut Vec<(PageId, usize)>,
    ) -> Result<Option<PageId>> {
        match self.read_node(page)? {
            Node::Leaf { entries, .. } => {
                if entries.iter().any(|e| e.traj == traj && e.seq == seq) {
                    Ok(Some(page))
                } else {
                    Ok(None)
                }
            }
            Node::Internal { entries, .. } => {
                for (i, e) in entries.iter().enumerate() {
                    path.push((page, i));
                    if let Some(found) = self.find_leaf(e.child, traj, seq, path)? {
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
        &mut self,
        mut child_page: PageId,
        mut child_node: Node,
        path: Vec<(PageId, usize)>,
    ) -> Result<()> {
        let mut orphans: Vec<LeafEntry> = Vec::new();
        for &(parent_page, child_idx) in path.iter().rev() {
            let mut parent = self.read_node(parent_page)?;
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
                self.harvest(&child_node, &mut orphans)?;
                self.pager.free_node(child_page)?;
                entries.remove(child_idx);
            } else {
                entries[child_idx].mbb = child_node.mbb();
            }
            self.pager.write_node(parent_page, &parent)?;
            child_page = parent_page;
            child_node = parent;
        }

        // Shrink the root: empty leaf -> empty tree; single-child internal
        // chains collapse.
        loop {
            match &child_node {
                Node::Leaf { entries, .. } => {
                    if entries.is_empty() && orphans.is_empty() {
                        self.pager.free_node(child_page)?;
                        self.root = None;
                        self.height = 0;
                    }
                    break;
                }
                Node::Internal { entries, .. } => match entries.len() {
                    0 => {
                        self.pager.free_node(child_page)?;
                        self.root = None;
                        self.height = 0;
                        break;
                    }
                    1 => {
                        let only = entries[0].child;
                        self.pager.free_node(child_page)?;
                        self.root = Some(only);
                        self.height -= 1;
                        child_page = only;
                        child_node = self.read_node(only)?;
                    }
                    _ => break,
                },
            }
        }

        // Reinsert what the dissolved nodes still held. `insert_impl`
        // counts entries, so compensate; the unaudited path is deliberate —
        // the tree is transiently inconsistent until the last orphan lands,
        // and the delete wrapper audits the final state.
        for e in orphans {
            self.num_entries -= 1;
            self.insert_impl(e)?;
        }
        Ok(())
    }

    /// Collects every leaf entry below `node` and frees the visited
    /// descendant pages (the node's own page is freed by the caller).
    fn harvest(&mut self, node: &Node, out: &mut Vec<LeafEntry>) -> Result<()> {
        match node {
            Node::Leaf { entries, .. } => out.extend(entries.iter().copied()),
            Node::Internal { entries, .. } => {
                for e in entries {
                    let child = self.read_node(e.child)?;
                    self.harvest(&child, out)?;
                    self.pager.free_node(e.child)?;
                }
            }
        }
        Ok(())
    }
}

impl Default for Rtree3D {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl Rtree3D {
    /// Test-only: overwrite a node's page, bypassing every invariant — used
    /// by the validator's negative tests to plant corruption.
    pub(crate) fn corrupt_node_for_tests(&mut self, page: PageId, node: &Node) -> Result<()> {
        self.pager.write_node(page, node)
    }

    /// Test-only: desynchronize the entry counter.
    pub(crate) fn set_num_entries_for_tests(&mut self, n: u64) {
        self.num_entries = n;
    }

    /// Test-only: pin a resident page and never unpin it (a simulated leak).
    pub(crate) fn leak_pin_for_tests(&mut self, page: PageId) -> Result<()> {
        self.pager.pool.pin(page)
    }
}

impl crate::TrajectoryIndexWrite for Rtree3D {
    fn insert_entry(&mut self, entry: LeafEntry) -> Result<()> {
        self.insert(entry)
    }

    fn delete_entry(&mut self, traj: TrajectoryId, seq: u32) -> Result<bool> {
        self.delete(traj, seq)
    }
}

impl TrajectoryIndex for Rtree3D {
    fn root(&self) -> Option<PageId> {
        self.root
    }

    fn read_node_traced<S: crate::metrics::MetricsSink>(
        &mut self,
        page: PageId,
        sink: &mut S,
    ) -> Result<Node> {
        self.pager.read_node_traced(page, sink)
    }

    fn num_pages(&self) -> usize {
        self.pager.store.num_pages()
    }

    fn num_entries(&self) -> u64 {
        self.num_entries
    }

    fn height(&self) -> u8 {
        self.height
    }

    fn max_speed(&self) -> f64 {
        self.max_speed
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            pages: self.pager.store.num_pages(),
            size_bytes: self.pager.store.num_pages() * PAGE_SIZE,
            height: self.height,
            entries: self.num_entries,
            node_reads: self.pager.node_reads,
            disk: self.pager.store.stats(),
            buffer: self.pager.pool.stats(),
        }
    }

    fn reset_stats(&mut self) {
        self.pager.reset_stats();
    }

    fn clear_buffer(&mut self) -> Result<()> {
        self.pager.clear_buffer()
    }

    fn set_buffer_capacity(&mut self, capacity: Option<usize>) -> Result<()> {
        self.pager.set_fixed_capacity(capacity)
    }

    fn set_fault_injection(&mut self, config: Option<crate::fault::FaultConfig>) -> Result<()> {
        self.pager.set_fault_injection(config);
        Ok(())
    }

    fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.pager.store.fault_stats()
    }

    fn audit_buffer(&self) -> std::result::Result<(), String> {
        self.pager.audit()
    }
}

/// Picks the child whose MBB needs the least volume enlargement to absorb
/// `mbb` (ties broken by smaller volume, then by index for determinism).
pub(crate) fn choose_subtree(entries: &[InternalEntry], mbb: &Mbb) -> usize {
    let mut best = 0;
    let mut best_enlargement = f64::INFINITY;
    let mut best_volume = f64::INFINITY;
    for (i, e) in entries.iter().enumerate() {
        let enlargement = e.mbb.enlargement(mbb);
        let volume = e.mbb.volume();
        if enlargement < best_enlargement
            || (enlargement == best_enlargement && volume < best_volume)
        {
            best = i;
            best_enlargement = enlargement;
            best_volume = volume;
        }
    }
    best
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
        crate::check_invariants(&mut t).unwrap();
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
        crate::check_invariants(&mut t).unwrap();
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
        crate::check_invariants(&mut t).unwrap();
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
        crate::check_invariants(&mut t).unwrap();
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
        crate::check_invariants(&mut t).unwrap();
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
        crate::check_invariants(&mut bulk).unwrap();
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
        crate::check_invariants(&mut bulk).unwrap();
    }

    #[test]
    fn bulk_load_edge_cases() {
        let empty = Rtree3D::bulk_load(Vec::new()).unwrap();
        assert!(empty.root().is_none());
        let mut single = Rtree3D::bulk_load(vec![entry(1, 0, 0.0, 0.0, 0.0)]).unwrap();
        assert_eq!(single.height(), 1);
        assert_eq!(single.num_entries(), 1);
        crate::check_invariants(&mut single).unwrap();
        // Exactly one full leaf.
        let full: Vec<LeafEntry> = (0..LEAF_CAPACITY as u32)
            .map(|i| entry(1, i, f64::from(i), f64::from(i), 0.0))
            .collect();
        let mut one_leaf = Rtree3D::bulk_load(full).unwrap();
        assert_eq!(one_leaf.height(), 1);
        assert_eq!(one_leaf.num_pages(), 1);
        crate::check_invariants(&mut one_leaf).unwrap();
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
}
