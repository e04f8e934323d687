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
//!   [`crate::TrajectoryIndex`]: range queries, the generic MBB descent, the
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
//! The ball directory is *metric-agnostic*: [`MetricTree::directory`]
//! takes the distance oracle as a closure (the search layer passes exact
//! DISSIM over the validity overlap), and the stored radii and member
//! distances are only ever interpreted against that same oracle. The
//! directory is rebuilt lazily on the first search after a mutation —
//! the one thing a metric search writes — so it sits behind its own lock
//! and a search takes the tree by `&self`, holding that lock for the whole
//! query. Lock order: directory lock, then the pager mutex of each chain
//! page read.

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, MutexGuard};

use mst_prng::Rng;
use mst_trajectory::{Mbb, Trajectory, TrajectoryId};

use crate::metrics::MetricsSink;
use crate::persist::ImageKind;
use crate::tree::{sorted_pairs, InsertionPolicy, PagedTree, TreeCore};
use crate::{IndexError, InternalEntry, LeafEntry, Node, PageId, Result, INTERNAL_CAPACITY};
use crate::{Rank, Ranked};

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
pub type MetricTree = PagedTree<MetricPolicy>;

/// The metric tree's policy and state. Segments must arrive in temporal
/// order and be contiguous per trajectory (each starts exactly where the
/// previous one ended): the metric layer computes whole-trajectory
/// distances, so a gap would make the cached trajectory — and with it
/// every stored distance — undefined. Placement is the TB-tree's tip
/// append and chained leaf, under an MBB directory rebuilt wholesale
/// whenever a leaf appears. Point deletes would leave the cached
/// trajectories (and every stored ball distance) inconsistent, so the
/// substrate declares itself delete-free.
#[derive(Debug, Default)]
pub struct MetricPolicy {
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
    directory: Mutex<BallDirectory>,
}

/// The ball layer: the directory nodes, its root, and whether a mutation
/// has outdated them. Reached through [`MetricTree::directory`].
#[derive(Debug, Default)]
pub struct BallDirectory {
    balls: Vec<BallNode>,
    root: Option<usize>,
    stale: bool,
}

const LOCK: &str = "ball directory";

impl InsertionPolicy for MetricPolicy {
    const KIND: ImageKind = ImageKind::MetricTree;
    const NAME: &'static str = "metric";
    const CHAINED_LEAVES: bool = true;
    const PERSISTS_PARENTS: bool = false;

    fn insert(&mut self, core: &mut TreeCore, entry: LeafEntry) -> Result<()> {
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
        self.directory
            .get_mut()
            .map_err(IndexError::poisoned(LOCK))?
            .stale = true;

        // 2. Page layer: append to the trajectory's tip leaf, or start a
        //    new chained leaf and rebuild the MBB directory over it.
        if let Some((tip, mbb)) = core.append_to_tip(entry, |_| Ok(()))? {
            if let Some(&pos) = self.leaf_pos.get(&tip) {
                if let Some(slot) = self.leaf_index.get_mut(pos) {
                    slot.1 = mbb;
                }
            }
            return Ok(());
        }
        let (leaf, mbb) = core.start_chained_leaf(entry)?;
        self.leaf_pos.insert(leaf, self.leaf_index.len());
        self.leaf_index.push((leaf, mbb));
        self.rebuild_directory(core)
    }

    /// The image's leaf chains are walked and every segment re-inserted in
    /// `(trajectory, sequence)` order into a fresh tree: the derived state
    /// (cached trajectories, leaf index, directory) is rebuilt from first
    /// principles, so a structurally inconsistent image is rejected rather
    /// than trusted.
    fn restore(mut image: TreeCore) -> Result<(TreeCore, Self)> {
        let mut entries: Vec<LeafEntry> = Vec::new();
        for (traj, tip) in sorted_pairs(&image.tips) {
            let mut cursor = Some(tip);
            let mut seen: HashSet<PageId> = HashSet::new();
            while let Some(page) = cursor {
                if !seen.insert(page) {
                    return Err(IndexError::Persist(format!(
                        "leaf chain of {traj} contains a cycle at {page:?}"
                    )));
                }
                let Node::Leaf {
                    entries: es,
                    owner,
                    prev,
                    ..
                } = image.fetch_node(page)?
                else {
                    return Err(IndexError::Persist(format!(
                        "leaf chain of {traj} points at an internal node"
                    )));
                };
                if owner != Some(traj) {
                    return Err(IndexError::Persist(format!(
                        "leaf chain of {traj} crosses into a leaf owned by {owner:?}"
                    )));
                }
                entries.extend(es);
                cursor = prev;
            }
        }
        if u64::try_from(entries.len()).unwrap_or(u64::MAX) != image.num_entries {
            return Err(IndexError::Persist(format!(
                "image advertises {} entries but its chains hold {}",
                image.num_entries,
                entries.len()
            )));
        }
        entries.sort_by(|a, b| a.traj.cmp(&b.traj).then(a.seq.cmp(&b.seq)));
        let mut core = TreeCore::new();
        let mut policy = MetricPolicy::default();
        for e in entries {
            policy
                .insert(&mut core, e)
                .map_err(|err| IndexError::Persist(format!("image replay: {err}")))?;
        }
        Ok((core, policy))
    }
}

impl MetricPolicy {
    /// Rebuilds the MBB directory wholesale over `leaf_index` (called when
    /// a new leaf appears — every ~[`crate::LEAF_CAPACITY`] inserts).
    fn rebuild_directory(&mut self, core: &mut TreeCore) -> Result<()> {
        for page in std::mem::take(&mut self.directory_pages) {
            core.pager.get_mut()?.free_node(page)?;
        }
        core.parents.clear();
        match self.leaf_index.as_slice() {
            [] => {
                core.root = None;
                core.height = 0;
                return Ok(());
            }
            [(page, _)] => {
                core.root = Some(*page);
                core.height = 1;
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
                let page = core.pager.get_mut()?.allocate_node(&node)?;
                self.directory_pages.push(page);
                for e in chunk {
                    core.parents.insert(e.child, page);
                }
                next.push(InternalEntry {
                    child: page,
                    mbb: node.mbb(),
                });
            }
            if let [root] = next.as_slice() {
                core.root = Some(root.child);
                core.height = level + 1;
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
}

impl MetricTree {
    /// Number of whole trajectories the tree holds.
    pub fn num_trajectories(&self) -> usize {
        self.policy.trajectories.len()
    }

    /// The ids of every indexed trajectory, ascending.
    pub fn trajectory_ids(&self) -> Vec<TrajectoryId> {
        let mut ids: Vec<TrajectoryId> = self.policy.trajectories.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The cached whole trajectory of `id` (metadata access: validity
    /// window, pivot geometry). Refinement should read the chain pages via
    /// [`MetricTree::assemble_trajectory_traced`] instead, so candidate
    /// I/O stays honest.
    pub fn cached_trajectory(&self, id: TrajectoryId) -> Option<&Trajectory> {
        self.policy.trajectories.get(&id)
    }

    /// Locks the ball directory for one search, building it first (or
    /// rebuilding, after mutations) with `dist` as the metric oracle. The
    /// oracle must be symmetric and satisfy the triangle inequality on the
    /// population for the stored radii to prune soundly; the search layer
    /// passes exact DISSIM over the trajectories' validity overlap.
    /// Searches of one tree serialise on this lock; a lock poisoned by a
    /// panicking search surfaces as [`IndexError::Poisoned`].
    pub fn directory<E, F>(
        &self,
        mut dist: F,
    ) -> std::result::Result<Ranked<MutexGuard<'_, BallDirectory>>, E>
    where
        E: std::fmt::Display + From<IndexError>,
        F: FnMut(&Trajectory, &Trajectory) -> std::result::Result<f64, E>,
    {
        let mut dir = Ranked::lock(Rank::BallDirectory, || self.policy.directory.lock())
            .map_err(IndexError::poisoned(LOCK))?;
        if !dir.stale {
            return Ok(dir);
        }
        dir.balls.clear();
        dir.root = None;
        let ids = self.trajectory_ids();
        let mut rng = Rng::seed_from(PIVOT_SEED);
        dir.root = build_ball(
            &self.policy.trajectories,
            &mut dir.balls,
            &ids,
            &mut rng,
            &mut dist,
        )?;
        dir.stale = false;
        #[cfg(feature = "paranoid")]
        {
            if let Err(reason) = dir.audit(&self.policy.trajectories, &mut dist) {
                let _ = &reason;
                debug_assert!(false, "paranoid ball audit after build: {reason}");
            }
        }
        Ok(dir)
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
        let dir = Ranked::lock(Rank::BallDirectory, || self.policy.directory.lock())
            .map_err(|_| format!("{LOCK} lock poisoned"))?;
        dir.audit(&self.policy.trajectories, &mut dist)
    }

    /// Reassembles the whole trajectory of `id` by walking its leaf chain
    /// through the buffer pool — every page touched is reported to `sink`,
    /// so refinement I/O shows up in profiles exactly like the MBB
    /// substrates' leaf reads. Returns `None` for an unknown trajectory.
    pub fn assemble_trajectory_traced<S: MetricsSink>(
        &self,
        id: TrajectoryId,
        sink: &mut S,
    ) -> Result<Option<Trajectory>> {
        let Some(&tip) = self.core.tips.get(&id) else {
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
            let node = self.core.pager.read_node_traced(page, sink)?;
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
}

impl BallDirectory {
    /// Root of the directory (`None` for an empty population).
    pub fn root(&self) -> Option<usize> {
        self.root
    }

    /// A directory node by index.
    pub fn ball(&self, idx: usize) -> Option<&BallNode> {
        self.balls.get(idx)
    }

    /// The body of [`MetricTree::check_ball_invariants`], over the
    /// population `trajs` the directory was built from.
    fn audit<E, F>(
        &self,
        trajs: &HashMap<TrajectoryId, Trajectory>,
        dist: &mut F,
    ) -> std::result::Result<(), String>
    where
        E: std::fmt::Display,
        F: FnMut(&Trajectory, &Trajectory) -> std::result::Result<f64, E>,
    {
        if self.stale {
            return Err("ball directory is stale: mutations since the last build".into());
        }
        let Some(root) = self.root else {
            if trajs.is_empty() {
                return Ok(());
            }
            return Err("tree holds trajectories but the ball directory is empty".into());
        };
        let mut covered: HashSet<TrajectoryId> = HashSet::new();
        self.audit_ball(trajs, root, &mut covered, dist)?;
        if covered.len() != trajs.len() || !trajs.keys().all(|id| covered.contains(id)) {
            return Err(format!(
                "ball leaves cover {} trajectories but the tree holds {}",
                covered.len(),
                trajs.len()
            ));
        }
        Ok(())
    }

    /// Recursive arm of [`BallDirectory::audit`]; returns the subtree's
    /// trajectory ids via `covered`.
    fn audit_ball<E, F>(
        &self,
        trajs: &HashMap<TrajectoryId, Trajectory>,
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
        let Some(pivot_t) = trajs.get(&node.pivot) else {
            return Err(format!("ball {idx} pivots on unknown {}", node.pivot));
        };
        let subtree: Vec<TrajectoryId> = match &node.kind {
            BallKind::Inner { near, far } => {
                let mut ids = self.audit_ball(trajs, *near, covered, dist)?;
                ids.extend(self.audit_ball(trajs, *far, covered, dist)?);
                ids
            }
            BallKind::Leaf { members } => {
                for &(id, stored) in members {
                    if !covered.insert(id) {
                        return Err(format!("{id} appears in more than one ball leaf"));
                    }
                    let Some(t) = trajs.get(&id) else {
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
            let Some(t) = trajs.get(id) else {
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

#[cfg(test)]
impl MetricTree {
    /// Test-only: inflate or shrink a ball's covering radius, bypassing
    /// every invariant — used by the negative audit tests.
    pub(crate) fn corrupt_ball_radius_for_tests(&mut self, idx: usize, radius: f64) {
        let dir = self.policy.directory.get_mut().unwrap();
        if let Some(b) = dir.balls.get_mut(idx) {
            b.radius = radius;
        }
    }

    /// Test-only: bend a leaf member's stored pivot distance.
    pub(crate) fn corrupt_ball_member_for_tests(&mut self, idx: usize, pos: usize, d: f64) {
        let dir = self.policy.directory.get_mut().unwrap();
        if let Some(BallNode {
            kind: BallKind::Leaf { members },
            ..
        }) = dir.balls.get_mut(idx)
        {
            if let Some(m) = members.get_mut(pos) {
                m.1 = d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_invariants, TrajectoryIndex};
    use mst_trajectory::{SamplePoint, Segment, TimeInterval};

    /// A cheap deterministic metric for directory tests: distance between
    /// the trajectories' first sample points (a true metric on the test
    /// population, which has distinct starts).
    fn start_dist(a: &Trajectory, b: &Trajectory) -> Result<f64> {
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
        let t = build(5, 150);
        assert_eq!(t.num_entries(), 750);
        assert_eq!(t.num_trajectories(), 5);
        let report = check_invariants(&t).unwrap();
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
        check_invariants(&t).unwrap();
        // The cached trajectory is untouched.
        assert_eq!(
            t.cached_trajectory(TrajectoryId(0)).unwrap().end_time(),
            10.0
        );
    }

    #[test]
    fn ball_directory_is_deterministic_and_valid() {
        let mut t = build(20, 12);
        let first: Vec<BallNode> = {
            let dir = t.directory(start_dist).unwrap();
            assert!(dir.balls.len() > 1, "20 trajectories split past one bucket");
            dir.balls.clone()
        };
        t.check_ball_invariants(start_dist).unwrap();
        // Rebuild from scratch: identical directory.
        t.policy.directory.get_mut().unwrap().stale = true;
        assert_eq!(t.directory(start_dist).unwrap().balls, first);
        // A mutation marks it stale; the audit notices.
        let extra = traj(100.0, 3);
        t.insert_trajectory(TrajectoryId(90), &extra).unwrap();
        assert!(t.policy.directory.get_mut().unwrap().stale);
        assert!(t
            .check_ball_invariants(start_dist)
            .unwrap_err()
            .contains("stale"));
        drop(t.directory(start_dist).unwrap());
        t.check_ball_invariants(start_dist).unwrap();
    }

    #[test]
    fn poisoned_directory_lock_surfaces_as_index_error() {
        let t = build(8, 6);
        let panicker = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _dir = t.directory(start_dist).unwrap();
            panic!("poison the directory");
        }));
        assert!(panicker.is_err());
        assert!(matches!(
            t.directory(start_dist),
            Err(IndexError::Poisoned(_))
        ));
        assert!(t.check_ball_invariants(start_dist).is_err());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank")]
    fn pager_then_directory_trips_the_lock_rank() {
        let t = build(4, 6);
        let _io = t.core.pager.peek();
        let _dir = t.directory(start_dist);
    }

    #[test]
    fn shrunken_radius_is_detected() {
        let mut t = build(20, 12);
        let root = t.directory(start_dist).unwrap().root().unwrap();
        t.corrupt_ball_radius_for_tests(root, 0.0);
        let err = t.check_ball_invariants(start_dist).unwrap_err();
        assert!(err.contains("escapes the covering radius"), "{err}");
    }

    #[test]
    fn bent_member_distance_is_detected() {
        let mut t = build(20, 12);
        let leaf = {
            let dir = t.directory(start_dist).unwrap();
            (0..dir.balls.len())
                .find(|&i| matches!(dir.ball(i).unwrap().kind, BallKind::Leaf { .. }))
                .unwrap()
        };
        t.corrupt_ball_member_for_tests(leaf, 0, 1e9);
        let err = t.check_ball_invariants(start_dist).unwrap_err();
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
        let t = build(4, 100);
        let all = t
            .range_query(&Mbb::new(-1e12, -1e12, -1e12, 1e12, 1e12, 1e12))
            .unwrap();
        assert_eq!(all.len(), 400);
    }

    #[test]
    fn persistence_roundtrips_and_rejects_mismatches() {
        let mut t = build(6, 120);
        drop(t.directory(start_dist).unwrap());
        let mut bytes = Vec::new();
        t.save_lsn(&mut bytes, 42).unwrap();
        let (mut loaded, lsn) = MetricTree::load_lsn(&bytes[..]).unwrap();
        assert_eq!(lsn, 42);
        assert_eq!(loaded.num_entries(), t.num_entries());
        assert_eq!(loaded.num_trajectories(), 6);
        assert_eq!(loaded.max_speed(), t.max_speed());
        check_invariants(&loaded).unwrap();
        for id in 0..6 {
            assert_eq!(
                loaded.cached_trajectory(TrajectoryId(id)),
                t.cached_trajectory(TrajectoryId(id))
            );
        }
        // The rebuilt ball directory over the same population is identical.
        let want = t.directory(start_dist).unwrap().balls.clone();
        assert_eq!(loaded.directory(start_dist).unwrap().balls, want);
        // The loaded tree keeps accepting inserts.
        let more = traj(500.0, 4);
        loaded.insert_trajectory(TrajectoryId(50), &more).unwrap();
        check_invariants(&loaded).unwrap();
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
        check_invariants(&t).unwrap();
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
