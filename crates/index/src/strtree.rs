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

use mst_trajectory::{Mbb, Trajectory, TrajectoryId};

use crate::persist::{Image, ImageKind};
use crate::rtree::{choose_subtree, quadratic_split, MIN_FILL_RATIO};
use crate::traits::Pager;
use crate::{
    IndexError, IndexStats, InternalEntry, LeafEntry, Node, PageId, PageStore, Result,
    TrajectoryIndex, TrajectoryIndexWrite, INTERNAL_CAPACITY, LEAF_CAPACITY, PAGE_SIZE,
};

/// An R-tree with trajectory-preserving insertion (segments join their
/// predecessor's leaf when possible).
pub struct StrTree {
    pager: Pager,
    root: Option<PageId>,
    height: u8,
    /// Leaf currently holding each trajectory's most recent segment.
    tips: HashMap<TrajectoryId, PageId>,
    /// Parent page of every node (root absent), maintained across splits.
    parents: HashMap<PageId, PageId>,
    num_entries: u64,
    max_speed: f64,
}

impl StrTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        StrTree {
            pager: Pager::new(),
            root: None,
            height: 0,
            tips: HashMap::new(),
            parents: HashMap::new(),
            num_entries: 0,
            max_speed: 0.0,
        }
    }

    /// Inserts one trajectory segment: into its predecessor's leaf when
    /// that leaf has room, otherwise via the least-enlargement descent.
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
            let page = self.pager.allocate_node(&node)?;
            self.root = Some(page);
            self.height = 1;
            self.tips.insert(entry.traj, page);
            return Ok(());
        };

        // Trajectory preservation: join the predecessor's leaf if it has
        // room.
        if let Some(&tip) = self.tips.get(&entry.traj) {
            let mut node = self.read_node(tip)?;
            if let Node::Leaf { entries, .. } = &mut node {
                if entries.len() < LEAF_CAPACITY {
                    entries.push(entry);
                    let mbb = node.mbb();
                    self.pager.write_node(tip, &node)?;
                    self.refresh_ancestors(tip, mbb)?;
                    return Ok(());
                }
            }
        }

        // Fallback: classic R-tree descent.
        let mut path: Vec<(PageId, usize)> = Vec::with_capacity(self.height as usize);
        let mut current = root;
        while let Node::Internal { entries, .. } = self.read_node(current)? {
            let idx = choose_subtree(&entries, &entry.mbb());
            path.push((current, idx));
            current = entries[idx].child;
        }

        let mut leaf = self.read_node(current)?;
        let Node::Leaf { entries, .. } = &mut leaf else {
            return Err(IndexError::CorruptNode {
                page: current,
                reason: "descent ended on an internal node".into(),
            });
        };
        entries.push(entry);
        self.tips.insert(entry.traj, current);

        let mut updated_mbb;
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
            self.retarget_tips(current, &node_a, new_page, &node_b);
        } else {
            updated_mbb = leaf.mbb();
            self.pager.write_node(current, &leaf)?;
        }

        // Propagate upwards along the descent path.
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
                self.parents.insert(new_entry.child, page);
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
                    // Re-home the moved children's parent pointers.
                    if let Node::Internal { entries, .. } = &node_a {
                        for e in entries {
                            self.parents.insert(e.child, page);
                        }
                    }
                    if let Node::Internal { entries, .. } = &node_b {
                        for e in entries {
                            self.parents.insert(e.child, new_page);
                        }
                    }
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
            let new_root_page = self.pager.allocate_node(&new_root)?;
            self.parents.insert(root, new_root_page);
            self.parents.insert(new_entry.child, new_root_page);
            self.root = Some(new_root_page);
            self.height += 1;
        }
        Ok(())
    }

    /// After splitting leaf `page_a` into `(node_a, node_b)`, repoints the
    /// tip of every trajectory that tracked the split leaf to whichever
    /// half now holds its latest (max-seq) segment.
    fn retarget_tips(&mut self, page_a: PageId, node_a: &Node, page_b: PageId, node_b: &Node) {
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
            if self.tips.get(&traj) == Some(&page_a) {
                self.tips.insert(traj, page);
            }
        }
    }

    /// Propagates an updated child MBB to the root via the parent map.
    fn refresh_ancestors(&mut self, mut child: PageId, mut child_mbb: Mbb) -> Result<()> {
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
            if slot.mbb == child_mbb {
                break;
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

    /// Flushes dirty buffered pages to the page store.
    pub fn flush(&mut self) -> Result<()> {
        self.pager.pool.flush(&mut self.pager.store)
    }

    /// Serializes the whole index (including tips and parent pointers).
    /// The image carries LSN 0 — use [`StrTree::save_lsn`] when the tree
    /// lives under a write-ahead log.
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
            kind: ImageKind::StrTree,
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

    /// Reconstructs an index from a persisted image.
    pub fn load<R: std::io::Read>(reader: R) -> Result<Self> {
        Ok(Self::load_lsn(reader)?.0)
    }

    /// Reconstructs an index from a persisted image, also returning the log
    /// sequence number the image is consistent through.
    pub fn load_lsn<R: std::io::Read>(reader: R) -> Result<(Self, u64)> {
        let image = Image::read_from(reader)?;
        if image.kind != ImageKind::StrTree {
            return Err(IndexError::Persist("image is not an STR-tree".into()));
        }
        let lsn = image.lsn;
        let store = PageStore::from_raw(image.pages, image.free_list);
        Ok((
            StrTree {
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
}

impl Default for StrTree {
    fn default() -> Self {
        Self::new()
    }
}

impl TrajectoryIndexWrite for StrTree {
    fn insert_entry(&mut self, entry: LeafEntry) -> Result<()> {
        self.insert(entry)
    }
}

impl TrajectoryIndex for StrTree {
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

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::{SamplePoint, Segment};

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
        let mut t = build(8, 150);
        assert_eq!(t.num_entries(), 1200);
        crate::check_invariants(&mut t).unwrap();
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
        fn spread<I: TrajectoryIndex>(idx: &mut I) -> f64 {
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
        let s_spread = spread(&mut strtree);
        let r_spread = spread(&mut rtree);
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
        crate::check_invariants(&mut t).unwrap();
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
        crate::check_invariants(&mut loaded).unwrap();
        // Tips survived: appending continues trajectory-preserving.
        loaded
            .insert(entry(2, 120, 120.0, 48.0 + 100.0, 2.0))
            .unwrap();
        assert_eq!(loaded.num_entries(), 481);
        crate::check_invariants(&mut loaded).unwrap();
    }

    #[test]
    fn works_behind_the_write_trait() {
        let mut t = StrTree::new();
        TrajectoryIndexWrite::insert_entry(&mut t, entry(0, 0, 0.0, 0.0, 0.0)).unwrap();
        assert_eq!(t.num_entries(), 1);
    }
}
