//! A ball-partitioning metric tree over whole trajectories — the third
//! first-class index substrate, after Güting et al.'s N-tree observation
//! that DISSIM over co-temporal trajectories is (window-restricted) a
//! metric, so a covering-radius index can prune candidates the MBB filter
//! cannot.
//!
//! The structure has two coupled layers:
//!
//! * **Page layer** — segments live in single-trajectory leaf chains
//!   exactly like the TB-tree's (owner + doubly linked leaf list), under a
//!   wholesale-rebuilt MBB directory, so the tree is a full
//!   [`TrajectoryIndex`]: range queries, the generic MBB descent, the
//!   structural validator, and snapshots all work unchanged. Candidate
//!   refinement reads chain pages through the buffer pool, so the metric
//!   search pays honest I/O for every trajectory it cannot prune.
//! * **Ball layer** — an in-memory ball-partitioning directory over whole
//!   trajectories: each node holds a pivot trajectory and a covering
//!   radius (the maximum build-time distance from the pivot to any
//!   trajectory in its subtree); internal nodes split their population at
//!   the median pivot distance into a near and a far ball. Pivots are
//!   chosen by a deterministic seeded PRNG ([`mst_prng::Rng`]) over the id
//!   list sorted ascending, so two builds over the same population are
//!   identical — bit-for-bit reproducible searches.
//!
//! The ball directory is *metric-agnostic*: [`MetricTree::ensure_directory`]
//! takes the distance oracle as a closure (the search layer passes exact
//! DISSIM over the validity overlap), and the stored radii and member
//! distances are only ever interpreted against that same oracle. The
//! directory is rebuilt lazily on the first search after a mutation.

use std::collections::{HashMap, HashSet};

use mst_prng::Rng;
use mst_trajectory::{Mbb, Trajectory, TrajectoryId};

use crate::metrics::{MetricsSink, NoopSink};
use crate::persist::{Image, ImageKind};
use crate::traits::Pager;
use crate::{
    IndexError, IndexStats, InternalEntry, LeafEntry, Node, PageId, PageStore, Result,
    TrajectoryIndex, INTERNAL_CAPACITY, LEAF_CAPACITY, PAGE_SIZE,
};

/// Fixed seed of the pivot-selection PRNG: every build over the same
/// population picks the same pivots, keeping searches reproducible.
const PIVOT_SEED: u64 = 0x4D53_5420_4D54_5245;

/// Maximum trajectories per ball-directory leaf before a median split.
const BALL_BUCKET: usize = 6;

/// Tolerance of the ball-invariant audit (radii and member distances are
/// pure copies of oracle outputs, so the slack only guards future
/// arithmetic in directory maintenance).
const BALL_TOL: f64 = 1e-9;

/// How a ball node partitions its population.
#[derive(Debug, Clone, PartialEq)]
pub enum BallKind {
    /// An internal ball: population split at the median pivot distance.
    Inner {
        /// Index (into the directory) of the ball holding the closer half.
        near: usize,
        /// Index of the ball holding the farther half.
        far: usize,
    },
    /// A leaf ball: the trajectories themselves, each with its build-time
    /// distance from this ball's pivot.
    Leaf {
        /// `(trajectory, distance-to-pivot)` pairs, in build order.
        members: Vec<(TrajectoryId, f64)>,
    },
}

/// One node of the ball directory.
#[derive(Debug, Clone, PartialEq)]
pub struct BallNode {
    /// The pivot trajectory this ball is centred on.
    pub pivot: TrajectoryId,
    /// Covering radius: an upper bound on the distance from the pivot to
    /// every trajectory in this ball's subtree.
    pub radius: f64,
    /// The node's children or members.
    pub kind: BallKind,
}

/// The ball-partitioning metric tree.
pub struct MetricTree {
    pager: Pager,
    root: Option<PageId>,
    height: u8,
    /// Current tip leaf of each trajectory's chain.
    tips: HashMap<TrajectoryId, PageId>,
    /// Parent page of every node (root absent); used to keep directory
    /// MBBs tight as tip leaves grow.
    parents: HashMap<PageId, PageId>,
    /// Every leaf page in creation order with its current MBB — the input
    /// of the wholesale directory rebuild.
    leaf_index: Vec<(PageId, Mbb)>,
    /// Position of each leaf page inside `leaf_index`.
    leaf_pos: HashMap<PageId, usize>,
    /// Directory (internal) pages, freed and rebuilt when a leaf appears.
    directory_pages: Vec<PageId>,
    /// Accumulated sample points per trajectory, in temporal order.
    samples: HashMap<TrajectoryId, Vec<(f64, f64, f64)>>,
    /// Assembled whole trajectories — revalidated on every insert, so
    /// query-time access never fails.
    trajectories: HashMap<TrajectoryId, Trajectory>,
    balls: Vec<BallNode>,
    ball_root: Option<usize>,
    balls_dirty: bool,
    num_entries: u64,
    max_speed: f64,
}

impl MetricTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        MetricTree {
            pager: Pager::new(),
            root: None,
            height: 0,
            tips: HashMap::new(),
            parents: HashMap::new(),
            leaf_index: Vec::new(),
            leaf_pos: HashMap::new(),
            directory_pages: Vec::new(),
            samples: HashMap::new(),
            trajectories: HashMap::new(),
            balls: Vec::new(),
            ball_root: None,
            balls_dirty: false,
            num_entries: 0,
            max_speed: 0.0,
        }
    }

    /// Inserts one trajectory segment.
    ///
    /// Segments of one trajectory must arrive in temporal order and be
    /// contiguous (each segment starts exactly where the previous one
    /// ended): the metric layer computes whole-trajectory distances, so a
    /// gap would make the cached trajectory — and with it every stored
    /// distance — undefined. Violations are a typed
    /// [`IndexError::BadInsert`] with the structure unchanged.
    pub fn insert(&mut self, entry: LeafEntry) -> Result<()> {
        self.insert_impl(entry)?;
        self.paranoid_audit("insert");
        Ok(())
    }

    /// Audit hook behind the `paranoid` feature: re-validates the page
    /// structure and buffer accounting after a mutation, with the I/O
    /// counters snapshot-restored so measurements stay comparable.
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
        // 1. Validate continuity against the cached samples and extend
        //    them, before any page mutates — a rejected insert leaves the
        //    tree exactly as it was.
        let s = entry.segment.start();
        let e = entry.segment.end();
        let pts = self.samples.entry(entry.traj).or_default();
        let added = if let Some(&(lt, lx, ly)) = pts.last() {
            if s.t.to_bits() != lt.to_bits()
                || s.x.to_bits() != lx.to_bits()
                || s.y.to_bits() != ly.to_bits()
            {
                return Err(IndexError::BadInsert(format!(
                    "metric tree requires contiguous segments per trajectory: segment starts \
                     at ({}, {}, {}) but the trajectory ends at ({lt}, {lx}, {ly})",
                    s.t, s.x, s.y
                )));
            }
            pts.push((e.t, e.x, e.y));
            1
        } else {
            pts.push((s.t, s.x, s.y));
            pts.push((e.t, e.x, e.y));
            2
        };
        match Trajectory::from_txy(pts) {
            Ok(t) => {
                self.trajectories.insert(entry.traj, t);
            }
            Err(err) => {
                let pts = self.samples.entry(entry.traj).or_default();
                pts.truncate(pts.len() - added);
                if pts.is_empty() {
                    self.samples.remove(&entry.traj);
                }
                return Err(IndexError::BadInsert(format!(
                    "segment does not extend a valid trajectory: {err}"
                )));
            }
        }
        self.max_speed = self.max_speed.max(entry.segment.speed());
        self.balls_dirty = true;

        // 2. Page layer: append to the trajectory's tip leaf, or start a
        //    new chained leaf and rebuild the MBB directory over it.
        if let Some(&tip) = self.tips.get(&entry.traj) {
            let mut node = self.read_node(tip)?;
            let Node::Leaf { entries, .. } = &mut node else {
                return Err(IndexError::CorruptNode {
                    page: tip,
                    reason: "tip is not a leaf".into(),
                });
            };
            if entries.len() < LEAF_CAPACITY {
                entries.push(entry);
                self.num_entries += 1;
                let mbb = node.mbb();
                self.pager.write_node(tip, &node)?;
                if let Some(&pos) = self.leaf_pos.get(&tip) {
                    if let Some(slot) = self.leaf_index.get_mut(pos) {
                        slot.1 = mbb;
                    }
                }
                return self.refresh_ancestors(tip, mbb);
            }
        }

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
        self.leaf_pos.insert(new_leaf, self.leaf_index.len());
        self.leaf_index.push((new_leaf, new_leaf_node.mbb()));
        self.rebuild_directory()
    }

    /// Rebuilds the MBB directory wholesale over `leaf_index` (called when
    /// a new leaf appears — every ~[`LEAF_CAPACITY`] inserts).
    fn rebuild_directory(&mut self) -> Result<()> {
        for page in std::mem::take(&mut self.directory_pages) {
            self.pager.free_node(page)?;
        }
        self.parents.clear();
        match self.leaf_index.as_slice() {
            [] => {
                self.root = None;
                self.height = 0;
                return Ok(());
            }
            [(page, _)] => {
                self.root = Some(*page);
                self.height = 1;
                return Ok(());
            }
            _ => {}
        }
        let mut level_entries: Vec<InternalEntry> = self
            .leaf_index
            .iter()
            .map(|&(child, mbb)| InternalEntry { child, mbb })
            .collect();
        let mut level: u8 = 1;
        loop {
            let mut next: Vec<InternalEntry> = Vec::new();
            for chunk in level_entries.chunks(INTERNAL_CAPACITY) {
                let node = Node::Internal {
                    level,
                    entries: chunk.to_vec(),
                };
                let page = self.pager.allocate_node(&node)?;
                self.directory_pages.push(page);
                for e in chunk {
                    self.parents.insert(e.child, page);
                }
                next.push(InternalEntry {
                    child: page,
                    mbb: node.mbb(),
                });
            }
            if let [root] = next.as_slice() {
                self.root = Some(root.child);
                self.height = level + 1;
                return Ok(());
            }
            level_entries = next;
            level = match level.checked_add(1) {
                Some(l) => l,
                None => {
                    return Err(IndexError::BadInsert(
                        "directory deeper than 255 levels".into(),
                    ))
                }
            };
        }
    }

    /// Propagates an updated leaf MBB to the root.
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
            if *slot
                == (InternalEntry {
                    child,
                    mbb: child_mbb,
                })
            {
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

    /// Number of whole trajectories the tree holds.
    pub fn num_trajectories(&self) -> usize {
        self.trajectories.len()
    }

    /// The ids of every indexed trajectory, ascending.
    pub fn trajectory_ids(&self) -> Vec<TrajectoryId> {
        let mut ids: Vec<TrajectoryId> = self.trajectories.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The cached whole trajectory of `id` (metadata access: validity
    /// window, pivot geometry). Refinement should read the chain pages via
    /// [`MetricTree::assemble_trajectory_traced`] instead, so candidate
    /// I/O stays honest.
    pub fn cached_trajectory(&self, id: TrajectoryId) -> Option<&Trajectory> {
        self.trajectories.get(&id)
    }

    /// Root of the ball directory, when built and non-empty.
    pub fn ball_root(&self) -> Option<usize> {
        self.ball_root
    }

    /// A ball-directory node by index.
    pub fn ball(&self, idx: usize) -> Option<&BallNode> {
        self.balls.get(idx)
    }

    /// Number of ball-directory nodes.
    pub fn ball_count(&self) -> usize {
        self.balls.len()
    }

    /// True when a mutation has invalidated the ball directory.
    pub fn directory_stale(&self) -> bool {
        self.balls_dirty
    }

    /// Builds (or rebuilds, after mutations) the ball directory using
    /// `dist` as the metric oracle. The oracle must be symmetric and
    /// satisfy the triangle inequality on the population for the stored
    /// radii to prune soundly; the search layer passes exact DISSIM over
    /// the trajectories' validity overlap. A no-op when the directory is
    /// current.
    pub fn ensure_directory<E, F>(&mut self, mut dist: F) -> std::result::Result<(), E>
    where
        E: std::fmt::Display,
        F: FnMut(&Trajectory, &Trajectory) -> std::result::Result<f64, E>,
    {
        if !self.balls_dirty {
            return Ok(());
        }
        self.balls.clear();
        self.ball_root = None;
        let ids = self.trajectory_ids();
        if !ids.is_empty() {
            let mut rng = Rng::seed_from(PIVOT_SEED);
            let root = build_ball(
                &self.trajectories,
                &mut self.balls,
                &ids,
                &mut rng,
                &mut dist,
            )?;
            self.ball_root = root;
        }
        self.balls_dirty = false;
        #[cfg(feature = "paranoid")]
        {
            if let Err(reason) = self.check_ball_invariants(&mut dist) {
                let _ = &reason;
                debug_assert!(false, "paranoid ball audit after build: {reason}");
            }
        }
        Ok(())
    }

    /// Audits the ball directory against the oracle that built it:
    ///
    /// 1. every subtree trajectory lies within its ball's covering radius;
    /// 2. every leaf member's stored pivot distance matches the oracle;
    /// 3. each ball's pivot belongs to its own subtree;
    /// 4. the leaves partition the population exactly (each trajectory in
    ///    exactly one leaf).
    ///
    /// Returns a description of the first violation. A stale directory
    /// (mutated since the last build) is reported as such.
    pub fn check_ball_invariants<E, F>(&self, mut dist: F) -> std::result::Result<(), String>
    where
        E: std::fmt::Display,
        F: FnMut(&Trajectory, &Trajectory) -> std::result::Result<f64, E>,
    {
        if self.balls_dirty {
            return Err("ball directory is stale: mutations since the last build".into());
        }
        let Some(root) = self.ball_root else {
            if self.trajectories.is_empty() {
                return Ok(());
            }
            return Err("tree holds trajectories but the ball directory is empty".into());
        };
        let mut covered: HashSet<TrajectoryId> = HashSet::new();
        self.audit_ball(root, &mut covered, &mut dist)?;
        if covered.len() != self.trajectories.len()
            || !self.trajectories.keys().all(|id| covered.contains(id))
        {
            return Err(format!(
                "ball leaves cover {} trajectories but the tree holds {}",
                covered.len(),
                self.trajectories.len()
            ));
        }
        Ok(())
    }

    /// Recursive arm of [`MetricTree::check_ball_invariants`]; returns the
    /// subtree's trajectory ids via `covered`.
    fn audit_ball<E, F>(
        &self,
        idx: usize,
        covered: &mut HashSet<TrajectoryId>,
        dist: &mut F,
    ) -> std::result::Result<Vec<TrajectoryId>, String>
    where
        E: std::fmt::Display,
        F: FnMut(&Trajectory, &Trajectory) -> std::result::Result<f64, E>,
    {
        let Some(node) = self.balls.get(idx) else {
            return Err(format!("ball index {idx} out of bounds"));
        };
        let Some(pivot_t) = self.trajectories.get(&node.pivot) else {
            return Err(format!("ball {idx} pivots on unknown {}", node.pivot));
        };
        let subtree: Vec<TrajectoryId> = match &node.kind {
            BallKind::Inner { near, far } => {
                let mut ids = self.audit_ball(*near, covered, dist)?;
                ids.extend(self.audit_ball(*far, covered, dist)?);
                ids
            }
            BallKind::Leaf { members } => {
                for &(id, stored) in members {
                    if !covered.insert(id) {
                        return Err(format!("{id} appears in more than one ball leaf"));
                    }
                    let Some(t) = self.trajectories.get(&id) else {
                        return Err(format!("ball leaf {idx} lists unknown {id}"));
                    };
                    let d = dist(pivot_t, t).map_err(|e| format!("distance oracle: {e}"))?;
                    if (d - stored).abs() > BALL_TOL {
                        return Err(format!(
                            "ball leaf {idx}: stored pivot distance {stored} for {id} \
                             disagrees with the oracle ({d})"
                        ));
                    }
                }
                members.iter().map(|&(id, _)| id).collect()
            }
        };
        if !subtree.contains(&node.pivot) {
            return Err(format!(
                "ball {idx}: pivot {} is not in its own subtree",
                node.pivot
            ));
        }
        for id in &subtree {
            let Some(t) = self.trajectories.get(id) else {
                return Err(format!("ball {idx} subtree lists unknown {id}"));
            };
            let d = dist(pivot_t, t).map_err(|e| format!("distance oracle: {e}"))?;
            if d > node.radius + BALL_TOL {
                return Err(format!(
                    "ball {idx}: {id} at distance {d} escapes the covering radius {}",
                    node.radius
                ));
            }
        }
        Ok(subtree)
    }

    /// Reassembles the whole trajectory of `id` by walking its leaf chain
    /// through the buffer pool — every page touched is reported to `sink`,
    /// so refinement I/O shows up in profiles exactly like the MBB
    /// substrates' leaf reads. Returns `None` for an unknown trajectory.
    pub fn assemble_trajectory_traced<S: MetricsSink>(
        &mut self,
        id: TrajectoryId,
        sink: &mut S,
    ) -> Result<Option<Trajectory>> {
        let Some(&tip) = self.tips.get(&id) else {
            return Ok(None);
        };
        let mut entries: Vec<LeafEntry> = Vec::new();
        let mut cursor = Some(tip);
        let mut seen: HashSet<PageId> = HashSet::new();
        while let Some(page) = cursor {
            if !seen.insert(page) {
                return Err(IndexError::CorruptNode {
                    page,
                    reason: "leaf chain contains a cycle".into(),
                });
            }
            let node = self.pager.read_node_traced(page, sink)?;
            let Node::Leaf {
                entries: es, prev, ..
            } = node
            else {
                return Err(IndexError::CorruptNode {
                    page,
                    reason: "leaf chain points at an internal node".into(),
                });
            };
            entries.extend(es.into_iter().rev());
            cursor = prev;
        }
        entries.reverse();
        entries.sort_by_key(|e| e.seq);
        if entries.is_empty() {
            return Ok(None);
        }
        let mut pts: Vec<(f64, f64, f64)> = Vec::with_capacity(entries.len() + 1);
        for (i, e) in entries.iter().enumerate() {
            let s = e.segment.start();
            if i == 0 {
                pts.push((s.t, s.x, s.y));
            } else {
                let p = entries[i - 1].segment.end();
                if s.t.to_bits() != p.t.to_bits()
                    || s.x.to_bits() != p.x.to_bits()
                    || s.y.to_bits() != p.y.to_bits()
                {
                    return Err(IndexError::CorruptNode {
                        page: tip,
                        reason: format!("chain of {id} is not contiguous at seq {}", e.seq),
                    });
                }
            }
            let end = e.segment.end();
            pts.push((end.t, end.x, end.y));
        }
        Trajectory::from_txy(&pts)
            .map(Some)
            .map_err(|err| IndexError::CorruptNode {
                page: tip,
                reason: format!("chain of {id} does not assemble: {err}"),
            })
    }

    /// Flushes dirty buffered pages to the page store.
    pub fn flush(&mut self) -> Result<()> {
        self.pager.pool.flush(&mut self.pager.store)
    }

    /// Serializes the whole index into `writer` with LSN 0 — use
    /// [`MetricTree::save_lsn`] when the tree lives under a write-ahead
    /// log.
    pub fn save<W: std::io::Write>(&mut self, writer: W) -> Result<()> {
        self.save_lsn(writer, 0)
    }

    /// Serializes the whole index, stamping the image with the log
    /// sequence number it is consistent through. Only the page layer is
    /// persisted — the ball directory is derived state and is rebuilt by
    /// the first search after loading.
    pub fn save_lsn<W: std::io::Write>(&mut self, writer: W, lsn: u64) -> Result<()> {
        self.flush()?;
        let mut tips: Vec<(TrajectoryId, PageId)> =
            self.tips.iter().map(|(t, p)| (*t, *p)).collect();
        tips.sort();
        let image = Image {
            kind: ImageKind::MetricTree,
            lsn,
            root: self.root,
            height: self.height,
            entries: self.num_entries,
            max_speed: self.max_speed,
            pages: self.pager.store.raw_pages().map(Box::from).collect(),
            free_list: self.pager.store.free_list().to_vec(),
            tips,
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

    /// Reconstructs an index from a persisted image, also returning the
    /// log sequence number the image is consistent through.
    ///
    /// The image's leaf chains are walked and every segment re-inserted in
    /// `(trajectory, sequence)` order: the derived state (cached
    /// trajectories, leaf index, directory) is rebuilt from first
    /// principles, so a structurally inconsistent image is rejected rather
    /// than trusted.
    pub fn load_lsn<R: std::io::Read>(reader: R) -> Result<(Self, u64)> {
        let image = Image::read_from(reader)?;
        if image.kind != ImageKind::MetricTree {
            return Err(IndexError::Persist(
                "image does not hold a metric tree".into(),
            ));
        }
        let lsn = image.lsn;
        let expected_entries = image.entries;
        let store = PageStore::from_raw(image.pages, image.free_list);
        let mut pager = Pager::from_store(store);
        let mut entries: Vec<LeafEntry> = Vec::new();
        for (traj, tip) in &image.tips {
            let mut cursor = Some(*tip);
            let mut seen: HashSet<PageId> = HashSet::new();
            while let Some(page) = cursor {
                if !seen.insert(page) {
                    return Err(IndexError::Persist(format!(
                        "leaf chain of {traj} contains a cycle at {page:?}"
                    )));
                }
                let node = pager.read_node_traced(page, &mut NoopSink)?;
                let Node::Leaf {
                    entries: es,
                    owner,
                    prev,
                    ..
                } = node
                else {
                    return Err(IndexError::Persist(format!(
                        "leaf chain of {traj} points at an internal node"
                    )));
                };
                if owner != Some(*traj) {
                    return Err(IndexError::Persist(format!(
                        "leaf chain of {traj} crosses into a leaf owned by {owner:?}"
                    )));
                }
                entries.extend(es);
                cursor = prev;
            }
        }
        if u64::try_from(entries.len()).unwrap_or(u64::MAX) != expected_entries {
            return Err(IndexError::Persist(format!(
                "image advertises {expected_entries} entries but its chains hold {}",
                entries.len()
            )));
        }
        entries.sort_by(|a, b| a.traj.cmp(&b.traj).then(a.seq.cmp(&b.seq)));
        let mut tree = MetricTree::new();
        for e in entries {
            tree.insert_impl(e)
                .map_err(|err| IndexError::Persist(format!("image replay: {err}")))?;
        }
        Ok((tree, lsn))
    }

    /// Loads an index from a file.
    pub fn load_from_path<P: AsRef<std::path::Path>>(path: P) -> Result<Self> {
        let file = std::fs::File::open(path).map_err(|e| IndexError::Persist(e.to_string()))?;
        Self::load(std::io::BufReader::new(file))
    }
}

/// Recursively builds a ball over `ids`, appending nodes to `balls` and
/// returning the subtree root's index (`None` only for an empty id list).
fn build_ball<E, F>(
    trajs: &HashMap<TrajectoryId, Trajectory>,
    balls: &mut Vec<BallNode>,
    ids: &[TrajectoryId],
    rng: &mut Rng,
    dist: &mut F,
) -> std::result::Result<Option<usize>, E>
where
    F: FnMut(&Trajectory, &Trajectory) -> std::result::Result<f64, E>,
{
    if ids.is_empty() {
        return Ok(None);
    }
    let pivot = ids[rng.usize_below(ids.len())];
    let Some(pivot_t) = trajs.get(&pivot) else {
        // Ids originate from the trajectory map; an absent pivot would be
        // a caller bug, degraded here into an empty subtree.
        return Ok(None);
    };
    let mut with_dist: Vec<(f64, TrajectoryId)> = Vec::with_capacity(ids.len());
    for &id in ids {
        let Some(t) = trajs.get(&id) else { continue };
        with_dist.push((dist(pivot_t, t)?, id));
    }
    let radius = with_dist.iter().fold(0.0_f64, |acc, &(d, _)| acc.max(d));
    if with_dist.len() <= BALL_BUCKET {
        balls.push(BallNode {
            pivot,
            radius,
            kind: BallKind::Leaf {
                members: with_dist.iter().map(|&(d, id)| (id, d)).collect(),
            },
        });
        return Ok(Some(balls.len() - 1));
    }
    with_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mid = with_dist.len() / 2;
    let near_ids: Vec<TrajectoryId> = with_dist[..mid].iter().map(|&(_, id)| id).collect();
    let far_ids: Vec<TrajectoryId> = with_dist[mid..].iter().map(|&(_, id)| id).collect();
    let (Some(near), Some(far)) = (
        build_ball(trajs, balls, &near_ids, rng, dist)?,
        build_ball(trajs, balls, &far_ids, rng, dist)?,
    ) else {
        // Both halves are non-empty by construction (mid >= 1 and
        // len - mid >= 1); an empty child means the map lost ids mid-build.
        return Ok(None);
    };
    balls.push(BallNode {
        pivot,
        radius,
        kind: BallKind::Inner { near, far },
    });
    Ok(Some(balls.len() - 1))
}

impl Default for MetricTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl MetricTree {
    /// Test-only: inflate or shrink a ball's covering radius, bypassing
    /// every invariant — used by the negative audit tests.
    pub(crate) fn corrupt_ball_radius_for_tests(&mut self, idx: usize, radius: f64) {
        if let Some(b) = self.balls.get_mut(idx) {
            b.radius = radius;
        }
    }

    /// Test-only: bend a leaf member's stored pivot distance.
    pub(crate) fn corrupt_ball_member_for_tests(&mut self, idx: usize, pos: usize, d: f64) {
        if let Some(BallNode {
            kind: BallKind::Leaf { members },
            ..
        }) = self.balls.get_mut(idx)
        {
            if let Some(m) = members.get_mut(pos) {
                m.1 = d;
            }
        }
    }

    /// Test-only: overwrite a node's page, bypassing every invariant.
    pub(crate) fn corrupt_node_for_tests(&mut self, page: PageId, node: &Node) -> Result<()> {
        self.pager.write_node(page, node)
    }
}

impl crate::TrajectoryIndexWrite for MetricTree {
    fn insert_entry(&mut self, entry: LeafEntry) -> Result<()> {
        self.insert(entry)
    }
    // delete_entry keeps the refusing default: point deletes would leave
    // the cached trajectories (and with them every stored ball distance)
    // inconsistent, so the substrate declares itself delete-free.
}

impl TrajectoryIndex for MetricTree {
    fn root(&self) -> Option<PageId> {
        self.root
    }

    fn read_node_traced<S: MetricsSink>(&mut self, page: PageId, sink: &mut S) -> Result<Node> {
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
    use crate::check_invariants;
    use mst_trajectory::{SamplePoint, Segment, TimeInterval};
    use std::convert::Infallible;

    /// A cheap deterministic metric for directory tests: distance between
    /// the trajectories' first sample points (a true metric on the test
    /// population, which has distinct starts).
    fn start_dist(a: &Trajectory, b: &Trajectory) -> std::result::Result<f64, Infallible> {
        let (pa, pb) = (a.position_at(a.start_time()), b.position_at(b.start_time()));
        match (pa, pb) {
            (Ok(x), Ok(y)) => Ok(x.distance(&y)),
            _ => Ok(0.0),
        }
    }

    fn traj(y: f64, steps: u32) -> Trajectory {
        let pts: Vec<(f64, f64, f64)> = (0..=steps)
            .map(|s| (f64::from(s), f64::from(s) * 0.5, y))
            .collect();
        Trajectory::from_txy(&pts).unwrap()
    }

    fn build(objects: u64, steps: u32) -> MetricTree {
        let mut t = MetricTree::new();
        // Interleaved temporal arrival, as a MOD would deliver.
        let store: Vec<(TrajectoryId, Trajectory)> = (0..objects)
            .map(|id| (TrajectoryId(id), traj(id as f64 * 3.0, steps)))
            .collect();
        for s in 0..steps {
            for (id, tr) in &store {
                let seg = tr.segment(s as usize);
                t.insert(LeafEntry {
                    traj: *id,
                    seq: s,
                    segment: seg,
                })
                .unwrap();
            }
        }
        t
    }

    #[test]
    fn page_structure_validates_and_reconstructs() {
        let mut t = build(5, 150);
        assert_eq!(t.num_entries(), 750);
        assert_eq!(t.num_trajectories(), 5);
        let report = check_invariants(&mut t).unwrap();
        assert!(report.leaves >= 15, "150 segments need >= 3 leaves each");
        let mut sink = crate::metrics::NoopSink;
        for id in 0..5 {
            let got = t
                .assemble_trajectory_traced(TrajectoryId(id), &mut sink)
                .unwrap()
                .unwrap();
            assert_eq!(got.num_segments(), 150);
            assert_eq!(&got, t.cached_trajectory(TrajectoryId(id)).unwrap());
        }
        assert!(t
            .assemble_trajectory_traced(TrajectoryId(99), &mut sink)
            .unwrap()
            .is_none());
    }

    #[test]
    fn rejects_gaps_and_leaves_the_tree_unchanged() {
        let mut t = build(2, 10);
        let before = t.num_entries();
        let bad = LeafEntry {
            traj: TrajectoryId(0),
            seq: 10,
            // Starts one time unit after trajectory 0 ends: a gap.
            segment: Segment::new(
                SamplePoint::new(11.0, 5.0, 0.0),
                SamplePoint::new(12.0, 5.5, 0.0),
            )
            .unwrap(),
        };
        assert!(matches!(t.insert(bad), Err(IndexError::BadInsert(_))));
        assert_eq!(t.num_entries(), before);
        check_invariants(&mut t).unwrap();
        // The cached trajectory is untouched.
        assert_eq!(
            t.cached_trajectory(TrajectoryId(0)).unwrap().end_time(),
            10.0
        );
    }

    #[test]
    fn ball_directory_is_deterministic_and_valid() {
        let mut t = build(20, 12);
        t.ensure_directory(|a, b| start_dist(a, b)).unwrap();
        assert!(t.ball_count() > 1, "20 trajectories split past one bucket");
        t.check_ball_invariants(|a, b| start_dist(a, b)).unwrap();
        let first: Vec<BallNode> = t.balls.clone();
        // Rebuild from scratch: identical directory.
        t.balls_dirty = true;
        t.ensure_directory(|a, b| start_dist(a, b)).unwrap();
        assert_eq!(t.balls, first);
        // A mutation marks it stale; the audit notices.
        let extra = traj(100.0, 3);
        t.insert_trajectory(TrajectoryId(90), &extra).unwrap();
        assert!(t.directory_stale());
        assert!(t
            .check_ball_invariants(|a, b| start_dist(a, b))
            .unwrap_err()
            .contains("stale"));
        t.ensure_directory(|a, b| start_dist(a, b)).unwrap();
        t.check_ball_invariants(|a, b| start_dist(a, b)).unwrap();
    }

    #[test]
    fn shrunken_radius_is_detected() {
        let mut t = build(20, 12);
        t.ensure_directory(|a, b| start_dist(a, b)).unwrap();
        let root = t.ball_root().unwrap();
        t.corrupt_ball_radius_for_tests(root, 0.0);
        let err = t
            .check_ball_invariants(|a, b| start_dist(a, b))
            .unwrap_err();
        assert!(err.contains("escapes the covering radius"), "{err}");
    }

    #[test]
    fn bent_member_distance_is_detected() {
        let mut t = build(20, 12);
        t.ensure_directory(|a, b| start_dist(a, b)).unwrap();
        let leaf = (0..t.ball_count())
            .find(|&i| matches!(t.ball(i).unwrap().kind, BallKind::Leaf { .. }))
            .unwrap();
        t.corrupt_ball_member_for_tests(leaf, 0, 1e9);
        let err = t
            .check_ball_invariants(|a, b| start_dist(a, b))
            .unwrap_err();
        assert!(err.contains("disagrees with the oracle"), "{err}");
    }

    #[test]
    fn corrupted_chain_fails_assembly() {
        let mut t = build(3, 150);
        let (owner, tip) = t.leaf_chain_tips()[0];
        let Node::Leaf {
            mut entries,
            owner: o,
            prev,
            next,
        } = t.read_node(tip).unwrap()
        else {
            panic!("tips point at leaves");
        };
        // Teleport the last segment: the chain is no longer contiguous.
        let broken = entries.pop().unwrap();
        let s = broken.segment.start();
        let e = broken.segment.end();
        entries.push(LeafEntry {
            traj: broken.traj,
            seq: broken.seq,
            segment: Segment::new(
                SamplePoint::new(s.t, s.x + 50.0, s.y),
                SamplePoint::new(e.t, e.x + 50.0, e.y),
            )
            .unwrap(),
        });
        t.corrupt_node_for_tests(
            tip,
            &Node::Leaf {
                entries,
                owner: o,
                prev,
                next,
            },
        )
        .unwrap();
        let mut sink = crate::metrics::NoopSink;
        let err = t
            .assemble_trajectory_traced(owner, &mut sink)
            .expect_err("teleported segment must fail assembly");
        assert!(matches!(err, IndexError::CorruptNode { .. }));
    }

    #[test]
    fn range_query_sees_everything() {
        let mut t = build(4, 100);
        let all = t
            .range_query(&Mbb::new(-1e12, -1e12, -1e12, 1e12, 1e12, 1e12))
            .unwrap();
        assert_eq!(all.len(), 400);
    }

    #[test]
    fn persistence_roundtrips_and_rejects_mismatches() {
        let mut t = build(6, 120);
        t.ensure_directory(|a, b| start_dist(a, b)).unwrap();
        let mut bytes = Vec::new();
        t.save_lsn(&mut bytes, 42).unwrap();
        let (mut loaded, lsn) = MetricTree::load_lsn(&bytes[..]).unwrap();
        assert_eq!(lsn, 42);
        assert_eq!(loaded.num_entries(), t.num_entries());
        assert_eq!(loaded.num_trajectories(), 6);
        assert_eq!(loaded.max_speed(), t.max_speed());
        check_invariants(&mut loaded).unwrap();
        for id in 0..6 {
            assert_eq!(
                loaded.cached_trajectory(TrajectoryId(id)),
                t.cached_trajectory(TrajectoryId(id))
            );
        }
        // The rebuilt ball directory over the same population is identical.
        loaded.ensure_directory(|a, b| start_dist(a, b)).unwrap();
        assert_eq!(loaded.balls, t.balls);
        // The loaded tree keeps accepting inserts.
        let more = traj(500.0, 4);
        loaded.insert_trajectory(TrajectoryId(50), &more).unwrap();
        check_invariants(&mut loaded).unwrap();
        // Other substrates' images are refused.
        let mut rtree = crate::Rtree3D::new();
        rtree
            .insert(LeafEntry {
                traj: TrajectoryId(0),
                seq: 0,
                segment: Segment::new(
                    SamplePoint::new(0.0, 0.0, 0.0),
                    SamplePoint::new(1.0, 1.0, 0.0),
                )
                .unwrap(),
            })
            .unwrap();
        let mut other = Vec::new();
        rtree.save(&mut other).unwrap();
        assert!(matches!(
            MetricTree::load(&other[..]),
            Err(IndexError::Persist(_))
        ));
        // Truncations are clean persistence errors at every depth.
        for cut in [4, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                MetricTree::load(&bytes[..cut]),
                Err(IndexError::Persist(_))
            ));
        }
    }

    #[test]
    fn delete_is_refused() {
        use crate::TrajectoryIndexWrite;
        let mut t = build(2, 10);
        assert!(t.delete_entry(TrajectoryId(0), 0).is_err());
    }

    #[test]
    fn single_trajectory_tree_and_window_queries() {
        let mut t = MetricTree::new();
        let tr = traj(0.0, 70);
        t.insert_trajectory(TrajectoryId(9), &tr).unwrap();
        // 70 segments overflow one leaf (capacity 67): two leaves + root.
        assert_eq!(t.height(), 2);
        check_invariants(&mut t).unwrap();
        let window = TimeInterval::new(10.0, 20.0).unwrap();
        let hits = t
            .range_query(&Mbb::new(
                -1e12,
                -1e12,
                window.start(),
                1e12,
                1e12,
                window.end(),
            ))
            .unwrap();
        // Segments [9,10] through [20,21] all touch the window: 12 hits.
        assert_eq!(hits.len(), 12);
    }
}
