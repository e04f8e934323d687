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

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use mst_trajectory::{Mbb, Trajectory, TrajectoryId};

use crate::fault::{FaultConfig, FaultStats};
use crate::metrics::{MetricsSink, NoopSink};
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

/// The two halves of an overflowing node under Guttman's quadratic split
/// (`None` while the node fits its page). Leaf halves are plain unowned
/// leaves: only the descent-built trees split.
fn split_overflow(node: &Node) -> Option<(Node, Node)> {
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
    if node.len() <= node.capacity() {
        return None;
    }
    Some(match node {
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
    })
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
    /// up, and grow a new root when the split reaches the top.
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

        // Descend to the best leaf, remembering the path.
        let mut path: Vec<(PageId, usize)> = Vec::with_capacity(self.height as usize);
        let mut page = root;
        while let Node::Internal { entries, .. } = self.fetch_node(page)? {
            let idx = choose_subtree(&entries, &entry.mbb());
            path.push((page, idx));
            page = entries[idx].child;
        }
        let mut node = self.fetch_node(page)?;
        let Node::Leaf { entries, .. } = &mut node else {
            return Err(IndexError::CorruptNode {
                page,
                reason: "descent ended on an internal node".into(),
            });
        };
        entries.push(entry);
        H::landed(self, entry.traj, page);

        // Walk back up: store the modified node (splitting on overflow),
        // then refresh its MBB in the parent and hand the parent any new
        // sibling.
        let split = loop {
            let (updated_mbb, split) = match split_overflow(&node) {
                None => {
                    self.pager.get_mut()?.write_node(page, &node)?;
                    (node.mbb(), None)
                }
                Some((node_a, node_b)) => {
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
                    (node_a.mbb(), Some(sibling))
                }
            };
            let Some((parent, child_idx)) = path.pop() else {
                break split;
            };
            node = self.fetch_node(parent)?;
            let Node::Internal { entries, .. } = &mut node else {
                return Err(IndexError::CorruptNode {
                    page: parent,
                    reason: "path node is not internal".into(),
                });
            };
            entries[child_idx].mbb = updated_mbb;
            if let Some(sibling) = split {
                entries.push(sibling);
                H::adopted(self, sibling.child, parent);
            }
            page = parent;
        };

        // Root split: grow the tree by one level.
        if let Some(sibling) = split {
            let old_root_mbb = self.fetch_node(root)?.mbb();
            let new_root = Node::Internal {
                level: self.height,
                entries: vec![
                    InternalEntry {
                        child: root,
                        mbb: old_root_mbb,
                    },
                    sibling,
                ],
            };
            let new_root_page = self.pager.get_mut()?.allocate_node(&new_root)?;
            H::adopted(self, root, new_root_page);
            H::adopted(self, sibling.child, new_root_page);
            self.root = Some(new_root_page);
            self.height += 1;
        }
        Ok(())
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

    /// Propagates an updated child MBB to the root via the parent map,
    /// stopping at the first ancestor that is already tight.
    pub(crate) fn refresh_ancestors(
        &mut self,
        mut child: PageId,
        mut child_mbb: Mbb,
    ) -> Result<()> {
        while let Some(&parent) = self.parents.get(&child) {
            let mut node = self.fetch_node(parent)?;
            let Node::Internal { entries, .. } = &mut node else {
                return Err(IndexError::CorruptNode {
                    page: parent,
                    reason: "parent map points at a leaf".into(),
                });
            };
            let slot = entries
                .iter_mut()
                .find(|e| e.child == child)
                .ok_or_else(|| IndexError::CorruptNode {
                    page: parent,
                    reason: "parent does not reference child".into(),
                })?;
            if slot.mbb == child_mbb {
                break;
            }
            slot.mbb = child_mbb;
            let mbb = node.mbb();
            self.pager.get_mut()?.write_node(parent, &node)?;
            child = parent;
            child_mbb = mbb;
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

    /// Removes one segment, matched by trajectory id + sequence number.
    fn delete(&mut self, _core: &mut TreeCore, _traj: TrajectoryId, _seq: u32) -> Result<bool> {
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
        let deleted = self.policy.delete(&mut self.core, traj, seq)?;
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
