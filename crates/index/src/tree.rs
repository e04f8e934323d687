//! The one paged-tree core under the four substrates.
//!
//! The paper's premise is that BFMST runs on any general-purpose
//! R-tree-like index; the 3D R-tree, STR-tree, TB-tree and metric tree
//! differ only in *where a new segment goes*. Everything else — pages and
//! buffer, the root/height/count metadata, the per-trajectory tip and
//! parent maps, the Guttman descent with quadratic-split propagation, tip
//! appends and chained leaves, ancestor MBB maintenance, the paranoid
//! audit, images, and the whole [`TrajectoryIndex`] surface — lives here
//! exactly once, in [`TreeCore`] and [`PagedTree`]. A substrate is an
//! [`InsertionPolicy`]: a placement rule over the core's primitives plus
//! whatever state is its own (see `rtree.rs`, `strtree.rs`, `tbtree.rs`,
//! `metric.rs`).
//!
//! An insert edits only the bytes it changes: the descent reads pages in
//! place, a leaf with room takes the entry's bytes at slot `count`, and an
//! ancestor's box is patched only while it grows. Only a split decodes.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use mst_trajectory::{Mbb, Trajectory, TrajectoryId};

use crate::codec::{leaf_entry_bytes, mbb_bytes};
use crate::fault::{FaultConfig, FaultStats};
use crate::metrics::{MetricsSink, NoopSink};
use crate::node::{in_place, internal_entry_bytes};
use crate::persist::{Image, ImageKind};
use crate::rtree::{choose_subtree, quadratic_split, MIN_FILL_RATIO};
use crate::shared::Pager;
use crate::traits::delete_unsupported;
use crate::{
    IndexError, IndexStats, InternalEntry, LeafEntry, Node, PageId, Result, TrajectoryIndex,
    TrajectoryIndexWrite, INTERNAL_CAPACITY, LEAF_CAPACITY, PAGE_SIZE,
};

/// Pages and buffer plus the metadata every substrate keeps: root, height,
/// entry count, `Vmax`, and the tip and parent maps (empty in substrates
/// that never fill them).
pub struct TreeCore {
    pub(crate) pager: Pager,
    pub(crate) root: Option<PageId>,
    pub(crate) height: u8,
    pub(crate) num_entries: u64,
    pub(crate) max_speed: f64,
    /// Leaf holding each trajectory's most recent segment.
    pub(crate) tips: HashMap<TrajectoryId, PageId>,
    /// Parent page of every node (root absent). A disk-resident tree keeps
    /// parent pointers in the page header; holding them in memory is
    /// equivalent for the I/O accounting of *queries*, which never use them.
    pub(crate) parents: HashMap<PageId, PageId>,
}

/// Compile-time hooks of [`TreeCore::insert_by_descent`]: what a substrate
/// records while the shared Guttman descent runs. The 3D R-tree leaves all
/// three empty, so its instantiation carries no tip or parent bookkeeping.
pub(crate) trait DescentHooks {
    /// `traj`'s new segment was placed in `leaf`.
    fn landed(_core: &mut TreeCore, _traj: TrajectoryId, _leaf: PageId) {}
    /// Leaf `page_a` overflowed into `node_a` (same page) and `node_b`.
    fn leaf_split(
        _core: &mut TreeCore,
        _page_a: PageId,
        _node_a: &Node,
        _page_b: PageId,
        _node_b: &Node,
    ) {
    }
    /// `child` now hangs under `parent`.
    fn adopted(_core: &mut TreeCore, _child: PageId, _parent: PageId) {}
}

/// A map's pairs in ascending order: what images store and validators walk,
/// so neither depends on hash order.
pub(crate) fn sorted_pairs<K: Copy + Ord, V: Copy + Ord>(map: &HashMap<K, V>) -> Vec<(K, V)> {
    let mut pairs: Vec<(K, V)> = map.iter().map(|(k, v)| (*k, *v)).collect();
    pairs.sort_unstable();
    pairs
}

/// The two halves of an overflowing node under Guttman's quadratic split.
/// Leaf halves are plain unowned leaves: only the descent-built trees
/// split.
fn split_halves(node: &Node) -> (Node, Node) {
    fn halves<T: Copy>(
        entries: &[T],
        capacity: usize,
        mbb: impl Fn(&T) -> Mbb,
    ) -> (Vec<T>, Vec<T>) {
        let min_fill = (capacity as f64 * MIN_FILL_RATIO).ceil() as usize;
        let items = entries.iter().map(|e| (mbb(e), *e)).collect();
        let (a, b) = quadratic_split(items, min_fill);
        let strip = |g: Vec<(Mbb, T)>| g.into_iter().map(|(_, e)| e).collect();
        (strip(a), strip(b))
    }
    match node {
        Node::Leaf { entries, .. } => {
            let (a, b) = halves(entries, LEAF_CAPACITY, LeafEntry::mbb);
            let leaf = |entries| Node::Leaf {
                entries,
                owner: None,
                prev: None,
                next: None,
            };
            (leaf(a), leaf(b))
        }
        Node::Internal { level, entries } => {
            let (a, b) = halves(entries, INTERNAL_CAPACITY, |e| e.mbb);
            let internal = |entries| Node::Internal {
                level: *level,
                entries,
            };
            (internal(a), internal(b))
        }
    }
}

impl TreeCore {
    /// An empty tree over a fresh page store.
    pub(crate) fn new() -> Self {
        TreeCore {
            pager: Pager::new(),
            root: None,
            height: 0,
            num_entries: 0,
            max_speed: 0.0,
            tips: HashMap::new(),
            parents: HashMap::new(),
        }
    }

    /// Fetches a node on the write path: nobody listening, no locking.
    pub(crate) fn fetch_node(&mut self, page: PageId) -> Result<Node> {
        self.pager.get_mut()?.fetch_node(page, &mut NoopSink)
    }

    /// Accounts for a stored entry.
    fn count(&mut self, entry: &LeafEntry) {
        self.max_speed = self.max_speed.max(entry.segment.speed());
        self.num_entries += 1;
    }

    /// Guttman's insert: descend by least volume enlargement, place the
    /// entry, resolve overflows with the quadratic split on the way back
    /// up, and grow a new root when the split reaches the top. Pages are
    /// read and edited in place; only a node that splits is decoded.
    pub(crate) fn insert_by_descent<H: DescentHooks>(&mut self, entry: LeafEntry) -> Result<()> {
        self.count(&entry);

        let Some(root) = self.root else {
            let node = Node::Leaf {
                entries: vec![entry],
                owner: None,
                prev: None,
                next: None,
            };
            let page = self.pager.get_mut()?.allocate_node(&node)?;
            self.root = Some(page);
            self.height = 1;
            H::landed(self, entry.traj, page);
            return Ok(());
        };

        // Descend to the best leaf, remembering each parent, the slot taken
        // and the box stored there.
        let mbb = entry.mbb();
        let mut path: Vec<(PageId, usize, Mbb)> = Vec::with_capacity(usize::from(self.height));
        let mut page = root;
        let full_leaf = loop {
            let bytes = self.pager.get_mut()?.read_page(page)?;
            if let (true, count) = in_place::head(page, bytes)? {
                let full = count >= LEAF_CAPACITY;
                break full.then(|| Node::decode(page, bytes)).transpose()?;
            }
            let (slot, child) = choose_subtree(in_place::children(page, bytes)?, &mbb)?;
            path.push((page, slot, child.mbb));
            page = child.child;
        };
        H::landed(self, entry.traj, page);

        let Some(mut node) = full_leaf else {
            let bytes = self.pager.get_mut()?.edit_page(page)?;
            in_place::push(page, bytes, &leaf_entry_bytes(&entry))?;
            // Appended last, the entry makes the leaf's box what `Node::mbb`
            // folds: the stored box ∪ the entry's.
            let Some(&(_, _, stored)) = path.last() else {
                return Ok(());
            };
            let mut up = path.into_iter().rev();
            return self.adjust_ancestors(stored.union(&mbb), |_| Ok(up.next()));
        };
        if let Node::Leaf { entries, .. } = &mut node {
            entries.push(entry);
        }
        let (mut child_mbb, mut sibling) = self.split_store::<H>(page, &node)?;
        while let Some((parent, slot, _)) = path.pop() {
            let bytes = self.pager.get_mut()?.edit_page(parent)?;
            if in_place::head(parent, bytes)?.1 < INTERNAL_CAPACITY {
                in_place::set_box(parent, bytes, slot, &child_mbb)?;
                in_place::push(parent, bytes, &internal_entry_bytes(&sibling))?;
                let parent_mbb = in_place::mbb(parent, bytes)?;
                H::adopted(self, sibling.child, parent);
                let mut up = path.into_iter().rev();
                return self.adjust_ancestors(parent_mbb, |_| Ok(up.next()));
            }
            node = self.fetch_node(parent)?;
            let Node::Internal { entries, .. } = &mut node else {
                return Err(IndexError::CorruptNode {
                    page: parent,
                    reason: "path node is not internal".into(),
                });
            };
            entries[slot].mbb = child_mbb;
            entries.push(sibling);
            H::adopted(self, sibling.child, parent);
            (child_mbb, sibling) = self.split_store::<H>(parent, &node)?;
        }

        // Root split: grow the tree by one level.
        let new_root = Node::Internal {
            level: self.height,
            entries: vec![
                InternalEntry {
                    child: root,
                    mbb: child_mbb,
                },
                sibling,
            ],
        };
        let new_root_page = self.pager.get_mut()?.allocate_node(&new_root)?;
        H::adopted(self, root, new_root_page);
        H::adopted(self, sibling.child, new_root_page);
        self.root = Some(new_root_page);
        self.height += 1;
        Ok(())
    }

    /// Splits an overflowing node: the first half stays in `page`, the
    /// second goes to a new page and the hooks learn who moved. Returns the
    /// first half's box and the parent entry of the second.
    fn split_store<H: DescentHooks>(
        &mut self,
        page: PageId,
        node: &Node,
    ) -> Result<(Mbb, InternalEntry)> {
        let (node_a, node_b) = split_halves(node);
        self.pager.get_mut()?.write_node(page, &node_a)?;
        let new_page = self.pager.get_mut()?.allocate_node(&node_b)?;
        match (&node_a, &node_b) {
            (Node::Internal { entries: a, .. }, Node::Internal { entries: b, .. }) => {
                for e in a {
                    H::adopted(self, e.child, page);
                }
                for e in b {
                    H::adopted(self, e.child, new_page);
                }
            }
            _ => H::leaf_split(self, page, &node_a, new_page, &node_b),
        }
        let sibling = InternalEntry {
            child: new_page,
            mbb: node_b.mbb(),
        };
        Ok((node_a.mbb(), sibling))
    }

    /// Trajectory preservation: appends `entry` to the leaf holding its
    /// trajectory's previous segment when that leaf has room, and tightens
    /// the ancestors. `admit` sees the tip's entries first and may veto
    /// the insert. Returns the leaf and its new MBB, or `None` when the
    /// trajectory has no tip yet or the tip is full.
    pub(crate) fn append_to_tip(
        &mut self,
        entry: LeafEntry,
        admit: impl FnOnce(&[LeafEntry]) -> Result<()>,
    ) -> Result<Option<(PageId, Mbb)>> {
        let Some(&tip) = self.tips.get(&entry.traj) else {
            return Ok(None);
        };
        let mut node = self.fetch_node(tip)?;
        let Node::Leaf { entries, .. } = &mut node else {
            return Err(IndexError::CorruptNode {
                page: tip,
                reason: "tip is not a leaf".into(),
            });
        };
        admit(entries)?;
        if entries.len() >= LEAF_CAPACITY {
            return Ok(None);
        }
        entries.push(entry);
        self.count(&entry);
        let mbb = node.mbb();
        self.pager.get_mut()?.write_node(tip, &node)?;
        self.refresh_ancestors(tip, mbb)?;
        Ok(Some((tip, mbb)))
    }

    /// Starts a new single-trajectory leaf holding `entry`, chained behind
    /// the trajectory's previous tip, and makes it the tip. Hooking it into
    /// the directory is the caller's policy.
    pub(crate) fn start_chained_leaf(&mut self, entry: LeafEntry) -> Result<(PageId, Mbb)> {
        let prev_tip = self.tips.get(&entry.traj).copied();
        let node = Node::Leaf {
            entries: vec![entry],
            owner: Some(entry.traj),
            prev: prev_tip,
            next: None,
        };
        let leaf = self.pager.get_mut()?.allocate_node(&node)?;
        self.count(&entry);
        if let Some(prev) = prev_tip {
            let mut prev_node = self.fetch_node(prev)?;
            if let Node::Leaf { next, .. } = &mut prev_node {
                *next = Some(leaf);
            }
            self.pager.get_mut()?.write_node(prev, &prev_node)?;
        }
        self.tips.insert(entry.traj, leaf);
        Ok((leaf, node.mbb()))
    }

    /// Hands a child's new box up the parent map by the ancestor rule.
    pub(crate) fn refresh_ancestors(&mut self, mut child: PageId, child_mbb: Mbb) -> Result<()> {
        self.adjust_ancestors(child_mbb, |core| {
            let Some(&parent) = core.parents.get(&child) else {
                return Ok(None);
            };
            let bytes = core.pager.get_mut()?.read_page(parent)?;
            for (slot, e) in in_place::children(parent, bytes)?.enumerate() {
                let e = e?;
                if e.child == child {
                    child = parent;
                    return Ok(Some((parent, slot, e.mbb)));
                }
            }
            Err(IndexError::CorruptNode {
                page: parent,
                reason: "parent does not reference child".into(),
            })
        })
    }

    /// The one ancestor rule: `up` yields, nearest first, each ancestor of
    /// a child whose box became `child_mbb`. One that already stores that
    /// box bit for bit ends the walk; any other gets its one 48-byte box
    /// patched in place and hands its own box (folded as `Node::mbb` does)
    /// one level up.
    fn adjust_ancestors(
        &mut self,
        mut child_mbb: Mbb,
        mut up: impl FnMut(&mut TreeCore) -> Result<Option<(PageId, usize, Mbb)>>,
    ) -> Result<()> {
        while let Some((parent, slot, stored)) = up(self)? {
            if mbb_bytes(&stored) == mbb_bytes(&child_mbb) {
                break;
            }
            let bytes = self.pager.get_mut()?.edit_page(parent)?;
            in_place::set_box(parent, bytes, slot, &child_mbb)?;
            child_mbb = in_place::mbb(parent, bytes)?;
        }
        Ok(())
    }
}

/// What makes a substrate: where a new segment goes, plus the few facts the
/// shared machinery needs to know about it. Implemented by the four policy
/// types behind [`crate::Rtree3D`], [`crate::StrTree`], [`crate::TbTree`]
/// and [`crate::MetricTree`]; the methods take the crate-private core, so
/// the trait cannot be implemented outside this crate.
pub trait InsertionPolicy: Default {
    /// The image kind this substrate saves and accepts.
    const KIND: ImageKind;

    /// Substrate name, for error messages and bench labels.
    const NAME: &'static str;

    /// Whether point deletes work. Durable stores check this *before*
    /// logging a delete, so a log never holds an op replay cannot apply.
    const SUPPORTS_DELETE: bool = false;

    /// True when leaves are single-trajectory chains headed by the tips
    /// (what [`TrajectoryIndex::leaf_chain_tips`] reports for validation).
    const CHAINED_LEAVES: bool = false;

    /// True when the parent map is part of the image; false when the
    /// substrate rebuilds its directory, and with it the map, on load.
    const PERSISTS_PARENTS: bool = true;

    /// Places one segment.
    fn insert(&mut self, core: &mut TreeCore, entry: LeafEntry) -> Result<()>;

    /// Removes one segment, matched by trajectory id + sequence number;
    /// a `guide` (the segment's box) lets the search skip every subtree
    /// whose box does not contain it.
    fn delete(
        &mut self,
        _core: &mut TreeCore,
        _traj: TrajectoryId,
        _seq: u32,
        _guide: Option<&Mbb>,
    ) -> Result<bool> {
        Err(delete_unsupported())
    }

    /// Rebuilds the policy's own state over a freshly loaded core.
    fn restore(core: TreeCore) -> Result<(TreeCore, Self)> {
        Ok((core, Self::default()))
    }
}

/// A paged trajectory index: the shared tree core driven by one
/// [`InsertionPolicy`]. Use it through the substrate aliases
/// ([`crate::Rtree3D`], [`crate::StrTree`], [`crate::TbTree`],
/// [`crate::MetricTree`]).
pub struct PagedTree<P: InsertionPolicy> {
    pub(crate) core: TreeCore,
    pub(crate) policy: P,
}

impl<P: InsertionPolicy> PagedTree<P> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        PagedTree {
            core: TreeCore::new(),
            policy: P::default(),
        }
    }

    /// Inserts one trajectory segment, placed by the substrate's policy.
    /// Substrates that constrain arrival order (the TB-tree: temporal
    /// order per trajectory; the metric tree: gap-free per trajectory)
    /// reject a violating segment with [`IndexError::BadInsert`] and stay
    /// unchanged.
    pub fn insert(&mut self, entry: LeafEntry) -> Result<()> {
        self.policy.insert(&mut self.core, entry)?;
        self.paranoid_audit("insert");
        Ok(())
    }

    /// Inserts every segment of `trajectory` under `id` (sequence numbers
    /// follow the segment order).
    pub fn insert_trajectory(&mut self, id: TrajectoryId, trajectory: &Trajectory) -> Result<()> {
        for (seq, segment) in trajectory.segments().enumerate() {
            let seq = u32::try_from(seq)
                .map_err(|_| IndexError::BadInsert(format!("segment count {seq} exceeds u32")))?;
            self.insert(LeafEntry {
                traj: id,
                seq,
                segment,
            })?;
        }
        Ok(())
    }

    /// Audit hook behind the `paranoid` feature: re-validates the whole
    /// tree and the buffer accounting after a mutating operation. The I/O
    /// counters are snapshot-restored around the audit so measurements stay
    /// comparable with unaudited runs.
    #[cfg(feature = "paranoid")]
    pub(crate) fn paranoid_audit(&mut self, op: &str) {
        let Ok(io) = self.core.pager.get_mut() else {
            return;
        };
        let (disk, buf, reads) = (io.store.stats(), io.pool.stats(), io.node_reads);
        let failure = crate::check_invariants(self).err();
        if let Ok(io) = self.core.pager.get_mut() {
            io.store.set_stats(disk);
            io.pool.set_stats(buf);
            io.node_reads = reads;
        }
        if let Some(reason) = failure {
            let _ = &reason;
            debug_assert!(false, "paranoid audit after {op}: {reason}");
        }
    }

    #[cfg(not(feature = "paranoid"))]
    #[inline(always)]
    pub(crate) fn paranoid_audit(&mut self, _op: &str) {}

    /// Flushes dirty buffered pages to the page store.
    pub fn flush(&mut self) -> Result<()> {
        let io = self.core.pager.get_mut()?;
        io.pool.flush(&mut io.store)
    }

    /// Serializes the whole index into `writer` (dirty pages are flushed
    /// first, so the image is a faithful snapshot). The image carries LSN 0
    /// — use [`PagedTree::save_lsn`] when the tree lives under a
    /// write-ahead log.
    pub fn save<W: Write>(&mut self, writer: W) -> Result<()> {
        self.save_lsn(writer, 0)
    }

    /// Serializes the whole index into `writer`, stamping the image with
    /// the log sequence number it is consistent through. Only what the
    /// pages, tips and parents hold is persisted — state a policy derives
    /// from them (the metric tree's ball directory) is rebuilt on load.
    pub fn save_lsn<W: Write>(&mut self, writer: W, lsn: u64) -> Result<()> {
        self.flush()?;
        Image::capture(&self.core, P::KIND, lsn, P::PERSISTS_PARENTS).write_to(writer)
    }

    /// Saves the index to a file.
    pub fn save_to_path<Q: AsRef<Path>>(&mut self, path: Q) -> Result<()> {
        let file = std::fs::File::create(path).map_err(|e| IndexError::Persist(e.to_string()))?;
        self.save(std::io::BufWriter::new(file))
    }

    /// Reconstructs an index from a persisted image.
    pub fn load(bytes: &[u8]) -> Result<Self> {
        Ok(Self::load_lsn(bytes)?.0)
    }

    /// Reconstructs an index from a persisted image, also returning the log
    /// sequence number the image is consistent through. An image of
    /// another substrate is refused.
    pub fn load_lsn(bytes: &[u8]) -> Result<(Self, u64)> {
        let image = Image::read_from(bytes)?;
        if image.kind != P::KIND {
            return Err(IndexError::Persist(format!(
                "image holds a {:?}, not a {:?}",
                image.kind,
                P::KIND
            )));
        }
        let lsn = image.lsn;
        let (core, policy) = P::restore(image.into_core())?;
        Ok((PagedTree { core, policy }, lsn))
    }

    /// Loads an index from a file.
    pub fn load_from_path<Q: AsRef<Path>>(path: Q) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| IndexError::Persist(e.to_string()))?;
        Self::load(&bytes)
    }
}

impl<P: InsertionPolicy> Default for PagedTree<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl<P: InsertionPolicy> PagedTree<P> {
    /// Test-only: overwrite a node's page, bypassing every invariant — used
    /// by the validator's negative tests to plant corruption.
    pub(crate) fn corrupt_node_for_tests(&mut self, page: PageId, node: &Node) -> Result<()> {
        self.core.pager.get_mut()?.write_node(page, node)
    }

    /// Test-only: desynchronize the entry counter.
    pub(crate) fn set_num_entries_for_tests(&mut self, n: u64) {
        self.core.num_entries = n;
    }
}

impl<P: InsertionPolicy> TrajectoryIndexWrite for PagedTree<P> {
    fn insert_entry(&mut self, entry: LeafEntry) -> Result<()> {
        self.insert(entry)
    }

    fn delete_entry(&mut self, traj: TrajectoryId, seq: u32) -> Result<bool> {
        let deleted = self.policy.delete(&mut self.core, traj, seq, None)?;
        self.paranoid_audit("delete");
        Ok(deleted)
    }

    fn delete_segment(&mut self, entry: &LeafEntry) -> Result<bool> {
        let guide = entry.mbb();
        let deleted = self
            .policy
            .delete(&mut self.core, entry.traj, entry.seq, Some(&guide))?;
        self.paranoid_audit("delete");
        Ok(deleted)
    }
}

impl<P: InsertionPolicy> TrajectoryIndex for PagedTree<P> {
    fn root(&self) -> Option<PageId> {
        self.core.root
    }

    fn read_node_traced<S: MetricsSink>(&self, page: PageId, sink: &mut S) -> Result<Node> {
        self.core.pager.read_node_traced(page, sink)
    }

    fn num_pages(&self) -> usize {
        self.core.pager.peek().store.num_pages()
    }

    fn num_entries(&self) -> u64 {
        self.core.num_entries
    }

    fn height(&self) -> u8 {
        self.core.height
    }

    fn max_speed(&self) -> f64 {
        self.core.max_speed
    }

    fn stats(&self) -> IndexStats {
        let pager = self.core.pager.peek();
        IndexStats {
            pages: pager.store.num_pages(),
            size_bytes: pager.store.num_pages() * PAGE_SIZE,
            height: self.core.height,
            entries: self.core.num_entries,
            node_reads: pager.node_reads,
            disk: pager.store.stats(),
            buffer: pager.pool.stats(),
        }
    }

    fn reset_stats(&mut self) {
        // A poisoned pager refuses every read; its counters no longer matter.
        if let Ok(io) = self.core.pager.get_mut() {
            io.reset_stats();
        }
    }

    fn clear_buffer(&mut self) -> Result<()> {
        self.core.pager.get_mut()?.clear_buffer()
    }

    fn set_buffer_capacity(&mut self, capacity: Option<usize>) -> Result<()> {
        self.core.pager.get_mut()?.set_fixed_capacity(capacity)
    }

    fn set_fault_injection(&mut self, config: Option<FaultConfig>) -> Result<()> {
        self.core.pager.get_mut()?.set_fault_injection(config);
        Ok(())
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        self.core.pager.peek().store.fault_stats()
    }

    fn leaf_chain_tips(&self) -> Vec<(TrajectoryId, PageId)> {
        if P::CHAINED_LEAVES {
            sorted_pairs(&self.core.tips)
        } else {
            Vec::new()
        }
    }

    fn audit_buffer(&self) -> std::result::Result<(), String> {
        self.core.pager.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::CODEC_CALLS;
    use crate::rtree::RtreePolicy;
    use crate::Rtree3D;
    use mst_trajectory::{SamplePoint, Segment};

    fn entry(traj: u64, seq: u32, t: f64, x: f64, y: f64) -> LeafEntry {
        LeafEntry {
            traj: TrajectoryId(traj),
            seq,
            segment: Segment::new(
                SamplePoint::new(t, x, y),
                SamplePoint::new(t + 1.0, x + 0.5, y + 0.25),
            )
            .expect("valid segment"),
        }
    }

    /// Lanes inserted in arrival order (through the core: a `paranoid`
    /// audit after each of thousands of inserts would dominate the run).
    fn lanes(objects: u64, steps: u32) -> Rtree3D {
        let mut tree = Rtree3D::new();
        for seq in 0..steps {
            for traj in 0..objects {
                let (x, y) = ((traj * 37 % 1000) as f64, (traj * 91 % 1000) as f64);
                let t = f64::from(seq);
                let e = entry(traj, seq, t, x + t, y);
                tree.core
                    .insert_by_descent::<RtreePolicy>(e)
                    .expect("insert");
            }
        }
        tree
    }

    /// One insert through the descent with every page clean before it:
    /// `(node reads, pages written back, (decodes, encodes))`, or `None`
    /// when the insert split a node.
    fn insert_cost(tree: &mut Rtree3D, e: LeafEntry) -> Option<(u64, u64, (u64, u64))> {
        tree.flush().expect("flush");
        tree.reset_stats();
        let pages = tree.num_pages();
        CODEC_CALLS.with(|c| c.set((0, 0)));
        tree.core
            .insert_by_descent::<RtreePolicy>(e)
            .expect("insert");
        let codec = CODEC_CALLS.with(|c| c.get());
        tree.flush().expect("flush");
        let stats = tree.stats();
        (tree.num_pages() == pages).then_some((stats.node_reads, stats.buffer.writebacks, codec))
    }

    #[test]
    fn a_non_splitting_insert_reads_its_path_once_and_writes_only_what_grew() {
        let mut tree = lanes(40, 150);
        let height = u64::from(tree.height());
        assert!(height >= 3, "the lanes must grow a real directory");

        // A twin of a stored segment: every box on its path already
        // contains it, so only the leaf is written.
        let inside = (0..40u64)
            .find_map(|traj| {
                let twin = entry(
                    traj,
                    10_000,
                    70.0,
                    (traj * 37 % 1000) as f64 + 70.0,
                    (traj * 91 % 1000) as f64,
                );
                insert_cost(&mut tree, twin)
            })
            .expect("some twin lands in a leaf with room");
        assert_eq!(inside, (height, 1, (0, 0)));

        // Far past everything stored: every ancestor's box grows.
        let outside = (0..40u32)
            .find_map(|k| {
                insert_cost(
                    &mut tree,
                    entry(7, 20_000 + k, 1e6 + f64::from(k), 5e3, 5e3),
                )
            })
            .expect("some far segment lands in a leaf with room");
        assert_eq!(outside, (height, height, (0, 0)));
        crate::check_invariants(&tree).expect("consistent");
    }

    /// Plants bytes into a page as if the disk had held them (sealed at
    /// write-back like any page).
    fn plant(tree: &mut Rtree3D, page: PageId, edit: impl FnOnce(&mut [u8])) {
        edit(
            tree.core
                .pager
                .get_mut()
                .expect("pager")
                .edit_page(page)
                .expect("page"),
        );
    }

    #[test]
    fn an_insert_meeting_a_hostile_page_fails_typed() {
        type Plant = fn(&mut [u8]);
        let leaf_count: Plant = |b| b[2..4].copy_from_slice(&200u16.to_le_bytes());
        let unknown_type: Plant = |b| b[0] = 7;
        let nan_box: Plant = |b| b[28..36].copy_from_slice(&f64::NAN.to_le_bytes());
        let inverted_box: Plant = |b| b[28..36].copy_from_slice(&1e300f64.to_le_bytes());
        for (what, on_leaves, edit) in [
            ("a leaf count beyond capacity", true, leaf_count),
            ("an unknown node type", false, unknown_type),
            ("a NaN child box", false, nan_box),
            ("an inverted child box", false, inverted_box),
        ] {
            let mut tree = lanes(8, 100);
            let root = tree.root().expect("non-empty");
            let Node::Internal { entries, .. } = tree.read_node(root).expect("root") else {
                panic!("the lanes grow a directory");
            };
            let pages: Vec<PageId> = if on_leaves {
                entries.iter().map(|e| e.child).collect()
            } else {
                vec![root]
            };
            for page in pages {
                plant(&mut tree, page, edit);
            }
            tree.flush().expect("write back");
            let got = tree
                .core
                .insert_by_descent::<RtreePolicy>(entry(3, 5_000, 50.0, 400.0, 300.0));
            assert!(
                matches!(got, Err(IndexError::CorruptNode { .. })),
                "{what}: {got:?}"
            );
        }
    }

    #[test]
    fn in_place_appends_round_trip_to_what_decode_and_encode_build() {
        let fill = u32::try_from(LEAF_CAPACITY).expect("small");
        let entries: Vec<LeafEntry> = (0..=fill)
            .map(|i| entry(u64::from(i % 3), i, f64::from(i), f64::from(i % 7), -0.0))
            .collect();
        let mut tree = Rtree3D::new();
        // The decode-and-re-encode path: each append is a decoded push
        // and a full encode.
        let mut model = Node::empty_leaf();
        for e in &entries[..LEAF_CAPACITY] {
            tree.insert(*e).expect("insert");
            if let Node::Leaf { entries, .. } = &mut model {
                entries.push(*e);
            }
            model = Node::decode(PageId(0), &model.encode()).expect("round trip");
        }
        assert_eq!(tree.num_pages(), 1, "one leaf, filled in place");
        let reload = |tree: &mut Rtree3D| {
            let mut image = Vec::new();
            tree.save(&mut image).expect("save");
            Rtree3D::load(&image).expect("load")
        };
        let back = reload(&mut tree);
        let root = back.root().expect("non-empty");
        assert_eq!(back.read_node(root).expect("decode"), model);

        // One more entry splits the full leaf into what the quadratic
        // split makes of the model.
        tree.insert(entries[LEAF_CAPACITY]).expect("insert");
        if let Node::Leaf { entries: m, .. } = &mut model {
            m.push(entries[LEAF_CAPACITY]);
        }
        let (a, b) = split_halves(&model);
        let back = reload(&mut tree);
        let Node::Internal {
            entries: halves, ..
        } = back.read_node(back.root().expect("root")).expect("decode")
        else {
            panic!("the split grows a root");
        };
        let got: Vec<Node> = halves
            .iter()
            .map(|e| back.read_node(e.child).expect("decode"))
            .collect();
        assert_eq!(got, [a.clone(), b.clone()]);
        assert_eq!(
            halves.iter().map(|e| e.mbb).collect::<Vec<_>>(),
            [a.mbb(), b.mbb()]
        );
    }
}
