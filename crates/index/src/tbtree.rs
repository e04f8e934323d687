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

use std::collections::HashMap;

use mst_trajectory::{Trajectory, TrajectoryId};

use crate::persist::{Image, ImageKind};
use crate::traits::Pager;
use crate::{
    IndexError, IndexStats, InternalEntry, LeafEntry, Node, PageId, PageStore, Result,
    TrajectoryIndex, INTERNAL_CAPACITY, LEAF_CAPACITY, PAGE_SIZE,
};

/// The trajectory-bundle tree: single-trajectory leaves, linked leaf lists,
/// right-most-path appends.
pub struct TbTree {
    pager: Pager,
    root: Option<PageId>,
    height: u8,
    /// Current tip leaf of each trajectory (where its next segment goes).
    tips: HashMap<TrajectoryId, PageId>,
    /// Parent page of every node (root absent). A disk-resident TB-tree
    /// keeps parent pointers in the page header; holding them in memory is
    /// equivalent for the I/O accounting of *queries*, which never use them.
    parents: HashMap<PageId, PageId>,
    num_entries: u64,
    max_speed: f64,
}

impl TbTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        TbTree {
            pager: Pager::new(),
            root: None,
            height: 0,
            tips: HashMap::new(),
            parents: HashMap::new(),
            num_entries: 0,
            max_speed: 0.0,
        }
    }

    /// Inserts one trajectory segment.
    ///
    /// Segments of one trajectory must arrive in temporal order (they are
    /// appended to the trajectory's tip leaf); interleaving different
    /// trajectories is fine and expected.
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

        if let Some(&tip) = self.tips.get(&entry.traj) {
            let mut node = self.read_node(tip)?;
            let Node::Leaf { entries, .. } = &mut node else {
                return Err(IndexError::CorruptNode {
                    page: tip,
                    reason: "tip is not a leaf".into(),
                });
            };
            if let Some(last) = entries.last() {
                if last.segment.end().t > entry.segment.start().t {
                    return Err(IndexError::BadInsert(format!(
                        "TB-tree requires temporal order per trajectory: segment starts at {} \
                         but the tip leaf ends at {}",
                        entry.segment.start().t,
                        last.segment.end().t
                    )));
                }
            }
            if entries.len() < LEAF_CAPACITY {
                entries.push(entry);
                self.num_entries += 1;
                let mbb = node.mbb();
                self.pager.write_node(tip, &node)?;
                self.refresh_ancestors(tip, mbb)?;
                return Ok(());
            }
        }

        // Start a new leaf for this trajectory, linked to the previous tip.
        let prev_tip = self.tips.get(&entry.traj).copied();
        let traj = entry.traj;
        let new_leaf_node = Node::Leaf {
            entries: vec![entry],
            owner: Some(traj),
            prev: prev_tip,
            next: None,
        };
        let new_leaf = self.pager.allocate_node(&new_leaf_node)?;
        self.num_entries += 1;
        if let Some(prev) = prev_tip {
            let mut prev_node = self.read_node(prev)?;
            if let Node::Leaf { next, .. } = &mut prev_node {
                *next = Some(new_leaf);
            }
            self.pager.write_node(prev, &prev_node)?;
        }
        self.tips.insert(traj, new_leaf);
        self.attach_leaf(new_leaf, new_leaf_node.mbb())
    }

    /// Hooks a brand-new leaf into the directory along the right-most path.
    fn attach_leaf(&mut self, leaf: PageId, leaf_mbb: mst_trajectory::Mbb) -> Result<()> {
        let Some(root) = self.root else {
            self.root = Some(leaf);
            self.height = 1;
            return Ok(());
        };

        if self.height == 1 {
            // The root is itself a leaf: grow a directory level.
            let root_mbb = self.read_node(root)?.mbb();
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
            let new_root_page = self.pager.allocate_node(&new_root)?;
            self.parents.insert(root, new_root_page);
            self.parents.insert(leaf, new_root_page);
            self.root = Some(new_root_page);
            self.height = 2;
            return Ok(());
        }

        // Descend the right-most path down to level 1.
        let mut path: Vec<PageId> = Vec::with_capacity(self.height as usize);
        let mut current = root;
        loop {
            let node = self.read_node(current)?;
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
            let mut node = self.read_node(page)?;
            let Node::Internal { level, entries } = &mut node else {
                return Err(IndexError::CorruptNode {
                    page,
                    reason: "leaf node on the internal insertion path".into(),
                });
            };
            if entries.len() < INTERNAL_CAPACITY {
                entries.push(pending);
                self.parents.insert(pending.child, page);
                let mbb = node.mbb();
                self.pager.write_node(page, &node)?;
                self.refresh_ancestors(page, mbb)?;
                return Ok(());
            }
            // Full: start a fresh right sibling at this level.
            let sibling = Node::Internal {
                level: *level,
                entries: vec![pending],
            };
            let sibling_page = self.pager.allocate_node(&sibling)?;
            self.parents.insert(pending.child, sibling_page);
            pending = InternalEntry {
                child: sibling_page,
                mbb: sibling.mbb(),
            };
            if depth == 0 {
                // The root itself was full: grow the tree.
                let old_root_mbb = self.read_node(page)?.mbb();
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
                let new_root_page = self.pager.allocate_node(&new_root)?;
                self.parents.insert(page, new_root_page);
                self.parents.insert(pending.child, new_root_page);
                self.root = Some(new_root_page);
                self.height += 1;
                return Ok(());
            }
        }
        Err(IndexError::BadInsert(
            "insertion path was empty; the right-most descent pushes at least one node".into(),
        ))
    }

    /// Propagates an updated child MBB to the root.
    fn refresh_ancestors(
        &mut self,
        mut child: PageId,
        mut child_mbb: mst_trajectory::Mbb,
    ) -> Result<()> {
        while let Some(&parent) = self.parents.get(&child) {
            let mut node = self.read_node(parent)?;
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
            if *slot
                == (InternalEntry {
                    child,
                    mbb: child_mbb,
                })
            {
                break; // no change, ancestors already tight
            }
            slot.mbb = child_mbb;
            let mbb = node.mbb();
            self.pager.write_node(parent, &node)?;
            child = parent;
            child_mbb = mbb;
        }
        Ok(())
    }

    /// Inserts every segment of `trajectory` under `id`.
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

    /// Reconstructs all indexed segments of `id` by walking its leaf list
    /// backwards from the tip — the operation the TB-tree exists to make
    /// cheap.
    pub fn trajectory_segments(&mut self, id: TrajectoryId) -> Result<Vec<LeafEntry>> {
        let mut out = Vec::new();
        let mut cursor = self.tips.get(&id).copied();
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
        &mut self,
        id: TrajectoryId,
        window: &mst_trajectory::TimeInterval,
    ) -> Result<Vec<LeafEntry>> {
        let mut out = Vec::new();
        let mut cursor = self.tips.get(&id).copied();
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

    /// Flushes dirty buffered pages to the page store.
    pub fn flush(&mut self) -> Result<()> {
        self.pager.pool.flush(&mut self.pager.store)
    }

    /// Serializes the whole index (including the per-trajectory tip map and
    /// parent pointers) into `writer`. The image carries LSN 0 — use
    /// [`TbTree::save_lsn`] when the tree lives under a write-ahead log.
    pub fn save<W: std::io::Write>(&mut self, writer: W) -> Result<()> {
        self.save_lsn(writer, 0)
    }

    /// Serializes the whole index, stamping the image with the log
    /// sequence number it is consistent through.
    pub fn save_lsn<W: std::io::Write>(&mut self, writer: W, lsn: u64) -> Result<()> {
        self.flush()?;
        let mut tips: Vec<(TrajectoryId, PageId)> =
            self.tips.iter().map(|(t, p)| (*t, *p)).collect();
        tips.sort();
        let mut parents: Vec<(PageId, PageId)> =
            self.parents.iter().map(|(c, p)| (*c, *p)).collect();
        parents.sort();
        let image = Image {
            kind: ImageKind::TbTree,
            lsn,
            root: self.root,
            height: self.height,
            entries: self.num_entries,
            max_speed: self.max_speed,
            pages: self.pager.store.raw_pages().map(Box::from).collect(),
            free_list: self.pager.store.free_list().to_vec(),
            tips,
            parents,
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
        if image.kind != ImageKind::TbTree {
            return Err(IndexError::Persist(
                "image holds a 3D R-tree, not a TB-tree".into(),
            ));
        }
        let lsn = image.lsn;
        let store = PageStore::from_raw(image.pages, image.free_list);
        Ok((
            TbTree {
                pager: Pager::from_store(store),
                root: image.root,
                height: image.height,
                tips: image.tips.into_iter().collect(),
                parents: image.parents.into_iter().collect(),
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
}

impl Default for TbTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl TbTree {
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

impl crate::TrajectoryIndexWrite for TbTree {
    fn insert_entry(&mut self, entry: LeafEntry) -> Result<()> {
        self.insert(entry)
    }
}

impl TrajectoryIndex for TbTree {
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

    fn leaf_chain_tips(&self) -> Vec<(TrajectoryId, PageId)> {
        let mut tips: Vec<(TrajectoryId, PageId)> =
            self.tips.iter().map(|(&t, &p)| (t, p)).collect();
        tips.sort_unstable();
        tips
    }

    fn audit_buffer(&self) -> std::result::Result<(), String> {
        self.pager.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::{Mbb, SamplePoint, Segment};

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
        let mut t = build(5, 200);
        assert_eq!(t.num_entries(), 1000);
        let report = crate::check_invariants(&mut t).unwrap();
        assert!(report.leaves >= 15, "200 segments need >= 3 leaves each");
    }

    #[test]
    fn leaf_list_reconstructs_trajectories() {
        let mut t = build(3, 150);
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
        let mut t = build(4, 300);
        let all = t
            .range_query(&Mbb::new(-1e12, -1e12, -1e12, 1e12, 1e12, 1e12))
            .unwrap();
        assert_eq!(all.len(), 1200);
    }

    #[test]
    fn grows_multiple_levels() {
        // Enough leaves to overflow a level-1 node (capacity 78): 100
        // trajectories × 68 segments -> 100+ leaves.
        let mut t = build(100, 68);
        assert!(t.height() >= 3, "height {} too small", t.height());
        crate::check_invariants(&mut t).unwrap();
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
        crate::check_invariants(&mut t).unwrap();
    }
}
