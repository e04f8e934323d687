//! Thread-shareable read access to an index.
//!
//! Every index in this crate is a single-owner mutable structure: even a
//! pure *read* mutates state, because pages move through a private LRU
//! buffer pool and I/O counters tick. That is the right shape for the
//! paper's single-query experiments, but a concurrent executor needs many
//! threads reading the same shard. [`ConcurrentIndex`] closes the gap with
//! the smallest possible mechanism: the whole index (tree + buffer pool)
//! lives behind one [`Mutex`], and [`IndexReader`] hands out cheap per-job
//! handles whose `&mut self` trait methods lock only for the duration of a
//! single node fetch.
//!
//! Two properties matter for the executor built on top:
//!
//! * **Per-shard buffer pools.** The lock protects the shard's *own* pager,
//!   so each shard keeps a private LRU buffer exactly as the paper sizes it
//!   (10% of the shard's pages, max 1000). Shards never contend with each
//!   other — only jobs on the *same* shard serialize their node fetches.
//! * **Poisoning is an error, not a panic.** If a thread panics while
//!   holding the lock, every subsequent access returns
//!   [`IndexError::Poisoned`] instead of unwrapping (xtask rule R7). A
//!   crashed worker therefore fails its own query and leaves the rest of
//!   the batch reporting clean errors.
//!
//! Structural metadata (root page, height, entry count, `Vmax`) is
//! immutable while a *generation* of the index is live, so a reader pins
//! a generation-stamped snapshot at construction and serves those
//! accessors without touching the lock. Online ingest replaces the
//! snapshot ([`ConcurrentIndex::apply`] / [`ConcurrentIndex::refresh`]):
//! readers created before the swap keep answering on the pre-ingest
//! generation's metadata (root, `Vmax`, counts) until they finish, new
//! readers see the new generation — generation-based visibility instead
//! of a global write lock. The only shared mutable state is the
//! `Arc<Snapshot>` slot, swapped wholesale under its own short lock, so
//! an old generation is reclaimed exactly when its last reader drops its
//! `Arc`.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use mst_trajectory::TrajectoryId;

use crate::metrics::MetricsSink;
use crate::{IndexError, IndexStats, Node, PageId, Result, TrajectoryIndex};

/// Maps a poisoned lock into the index error space (xtask rule R7: lock
/// poisoning must surface as [`IndexError::Poisoned`], never a panic).
fn poisoned<T>(_: std::sync::PoisonError<T>) -> IndexError {
    IndexError::Poisoned("concurrent index".to_string())
}

/// An index wrapped for shared read access from many threads.
///
/// Wraps any [`TrajectoryIndex`] in a [`Mutex`] and exposes a `&self` API:
/// [`ConcurrentIndex::reader`] creates a lightweight [`IndexReader`] per
/// job, and [`ConcurrentIndex::with`] runs a closure under the lock for
/// maintenance operations (buffer resizing, stat resets).
pub struct ConcurrentIndex<I> {
    inner: Mutex<I>,
    /// The published structural snapshot. Replaced wholesale (never
    /// mutated in place) by [`ConcurrentIndex::apply`]/
    /// [`ConcurrentIndex::refresh`]; readers pin the `Arc` they found at
    /// creation. Lock order (xtask R10): `inner` is always taken before
    /// this slot — `publish` swaps while holding `inner`, readers take
    /// only the slot.
    snapshot: RwLock<Arc<Snapshot>>,
}

/// Immutable structural facts captured at one generation of the index.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    generation: u64,
    root: Option<PageId>,
    num_pages: usize,
    num_entries: u64,
    height: u8,
    max_speed: f64,
    stats: IndexStats,
    chain_tips: usize,
}

impl Snapshot {
    fn capture<I: TrajectoryIndex>(index: &I, generation: u64) -> Self {
        Snapshot {
            generation,
            root: index.root(),
            num_pages: index.num_pages(),
            num_entries: index.num_entries(),
            height: index.height(),
            max_speed: index.max_speed(),
            stats: index.stats(),
            chain_tips: index.leaf_chain_tips().len(),
        }
    }
}

impl<I: TrajectoryIndex> ConcurrentIndex<I> {
    /// Wraps a fully built index for shared read access. The structural
    /// snapshot (root, height, `Vmax`) is taken here as generation 0;
    /// mutations must go through [`ConcurrentIndex::apply`] (or call
    /// [`ConcurrentIndex::refresh`] after [`ConcurrentIndex::with`]) so
    /// the published snapshot tracks the structure.
    pub fn new(index: I) -> Self {
        let snapshot = Arc::new(Snapshot::capture(&index, 0));
        ConcurrentIndex {
            inner: Mutex::new(index),
            snapshot: RwLock::new(snapshot),
        }
    }

    /// Runs `f` with exclusive access to the underlying index. Used for
    /// maintenance between batches (clearing the buffer, resetting I/O
    /// counters); queries go through [`ConcurrentIndex::reader`] instead
    /// and structural mutations through [`ConcurrentIndex::apply`].
    pub fn with<R>(&self, f: impl FnOnce(&mut I) -> R) -> Result<R> {
        let mut guard = self.lock()?;
        Ok(f(&mut guard))
    }

    /// Runs a *mutating* closure under the index lock and publishes a new
    /// snapshot generation before releasing it: readers created after
    /// `apply` returns see the new structure, readers created before keep
    /// their pinned pre-ingest generation. Returns the closure's value and
    /// the new generation. When `f` fails nothing is published — but the
    /// index may have partially changed; the durable-store layer recovers
    /// such states from its log, in-memory callers should treat the shard
    /// as degraded.
    pub fn apply<R>(&self, f: impl FnOnce(&mut I) -> Result<R>) -> Result<(R, u64)> {
        let mut guard = self.lock()?;
        let out = f(&mut guard)?;
        let generation = self.publish(&guard)?;
        Ok((out, generation))
    }

    /// Re-captures the structural snapshot from the current index state
    /// and publishes it as a new generation. Needed after mutating through
    /// [`ConcurrentIndex::with`]; [`ConcurrentIndex::apply`] does it
    /// automatically.
    pub fn refresh(&self) -> Result<u64> {
        let guard = self.lock()?;
        self.publish(&guard)
    }

    /// Captures and swaps in a new snapshot. Callers hold the `inner`
    /// guard, which serializes generation numbering (R10 lock order:
    /// `inner` → `snapshot`).
    fn publish(&self, index: &I) -> Result<u64> {
        let generation = self.snapshot_arc().generation + 1;
        let next = Arc::new(Snapshot::capture(index, generation));
        let mut slot = self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        *slot = next;
        Ok(generation)
    }

    /// The currently published snapshot. A poisoned slot still holds a
    /// wholesale-replaced, internally consistent `Arc` (writers never
    /// mutate through it), so poison recovery here is sound rather than a
    /// silent lie.
    fn snapshot_arc(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The generation of the currently published snapshot (0 at wrap
    /// time, +1 per [`ConcurrentIndex::apply`]/[`ConcurrentIndex::refresh`]).
    pub fn generation(&self) -> u64 {
        self.snapshot_arc().generation
    }

    /// Unwraps the index, returning it to single-owner use.
    pub fn into_inner(self) -> Result<I> {
        self.inner.into_inner().map_err(poisoned)
    }

    /// A cheap per-job read handle pinned to the generation published at
    /// this moment. Creating one never blocks on the index lock; node
    /// fetches lock per call inside the handle's [`TrajectoryIndex`]
    /// methods.
    pub fn reader(&self) -> IndexReader<'_, I> {
        IndexReader {
            shared: self,
            snapshot: self.snapshot_arc(),
        }
    }

    /// Number of trajectories with a leaf chain (non-zero only for the
    /// TB-tree). Exposed so shard builders can sanity-check substrates.
    pub fn chain_tip_count(&self) -> usize {
        self.snapshot_arc().chain_tips
    }

    fn lock(&self) -> Result<MutexGuard<'_, I>> {
        self.inner.lock().map_err(poisoned)
    }
}

/// A per-job view of a [`ConcurrentIndex`] implementing [`TrajectoryIndex`].
///
/// The handle is cheap to create and intended to live for one query job.
/// Metadata accessors answer from the generation snapshot pinned at
/// creation — an ingest committing mid-job does not shift this reader's
/// root or `Vmax` under it. [`TrajectoryIndex::read_node`] and friends
/// lock the shard for the single fetch and release it before the search
/// continues, so concurrent jobs on the same shard interleave at node
/// granularity.
pub struct IndexReader<'a, I> {
    shared: &'a ConcurrentIndex<I>,
    snapshot: Arc<Snapshot>,
}

impl<I> IndexReader<'_, I> {
    /// The generation this reader is pinned to.
    pub fn generation(&self) -> u64 {
        self.snapshot.generation
    }
}

impl<I: TrajectoryIndex> IndexReader<'_, I> {
    /// Runs `f` with exclusive access to the underlying index, holding the
    /// shard lock for the whole call instead of per node fetch.
    ///
    /// Substrates whose search needs the concrete index — the metric
    /// tree's ball search reads the ball directory and cached trajectories,
    /// which the node-at-a-time [`TrajectoryIndex`] surface cannot carry —
    /// run their whole per-shard search under this lock. Jobs on *other*
    /// shards are unaffected (per-shard locks); jobs on the same shard
    /// serialize, which matches the executor's one-job-per-shard dispatch.
    /// A poisoned shard surfaces as [`IndexError::Poisoned`] (rule R7).
    pub fn with_exclusive<R>(&mut self, f: impl FnOnce(&mut I) -> R) -> Result<R> {
        let mut guard = self.shared.lock()?;
        Ok(f(&mut guard))
    }
}

impl<I: TrajectoryIndex> TrajectoryIndex for IndexReader<'_, I> {
    fn root(&self) -> Option<PageId> {
        self.snapshot.root
    }

    fn read_node_traced<S: MetricsSink>(&mut self, page: PageId, sink: &mut S) -> Result<Node> {
        let mut guard = self.shared.lock()?;
        guard.read_node_traced(page, sink)
    }

    fn num_pages(&self) -> usize {
        self.snapshot.num_pages
    }

    fn num_entries(&self) -> u64 {
        self.snapshot.num_entries
    }

    fn height(&self) -> u8 {
        self.snapshot.height
    }

    fn max_speed(&self) -> f64 {
        self.snapshot.max_speed
    }

    /// Structural statistics from the construction-time snapshot. I/O
    /// counters reflect the state when the index was wrapped; live counters
    /// during concurrent execution flow through the per-query
    /// [`MetricsSink`] instead, which is the only meaningful attribution
    /// once many jobs interleave on one pager.
    fn stats(&self) -> IndexStats {
        self.snapshot.stats
    }

    fn reset_stats(&mut self) {
        // Counter resets race concurrent jobs by definition; a reader
        // deliberately leaves the shared counters alone. Use
        // `ConcurrentIndex::with` between batches instead.
    }

    fn clear_buffer(&mut self) -> Result<()> {
        let mut guard = self.shared.lock()?;
        guard.clear_buffer()
    }

    fn set_buffer_capacity(&mut self, capacity: Option<usize>) -> Result<()> {
        let mut guard = self.shared.lock()?;
        guard.set_buffer_capacity(capacity)
    }

    fn set_fault_injection(&mut self, config: Option<crate::fault::FaultConfig>) -> Result<()> {
        let mut guard = self.shared.lock()?;
        guard.set_fault_injection(config)
    }

    fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        match self.shared.lock() {
            Ok(guard) => guard.fault_stats(),
            // This signature cannot carry a poisoning error; `None` is the
            // documented "no injection data" value.
            Err(_) => None,
        }
    }

    fn leaf_chain_tips(&self) -> Vec<(TrajectoryId, PageId)> {
        match self.shared.lock() {
            Ok(guard) => guard.leaf_chain_tips(),
            // The poisoned case cannot report an error through this
            // signature; an empty list is the documented "no chains" value
            // and merely skips chain validation.
            Err(_) => Vec::new(),
        }
    }

    fn audit_buffer(&self) -> std::result::Result<(), String> {
        match self.shared.lock() {
            Ok(guard) => guard.audit_buffer(),
            Err(e) => Err(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafEntry;
    use crate::{Rtree3D, TrajectoryIndexWrite};
    use mst_trajectory::{SamplePoint, Segment, TrajectoryId};

    fn entry(traj: u64, seq: u32, t0: f64) -> LeafEntry {
        LeafEntry {
            traj: TrajectoryId(traj),
            seq,
            segment: Segment::new(
                SamplePoint::new(t0, traj as f64, seq as f64),
                SamplePoint::new(t0 + 1.0, traj as f64 + 0.5, seq as f64 + 0.5),
            )
            .expect("valid segment"),
        }
    }

    fn small_tree() -> Rtree3D {
        let mut tree = Rtree3D::new();
        for traj in 0..4u64 {
            for seq in 0..8u32 {
                tree.insert_entry(entry(traj, seq, f64::from(seq)))
                    .expect("insert");
            }
        }
        tree
    }

    #[test]
    fn reader_metadata_matches_wrapped_index() {
        let tree = small_tree();
        let (root, pages, entries, height, vmax) = (
            tree.root(),
            tree.num_pages(),
            tree.num_entries(),
            tree.height(),
            tree.max_speed(),
        );
        let shared = ConcurrentIndex::new(tree);
        let reader = shared.reader();
        assert_eq!(reader.root(), root);
        assert_eq!(reader.num_pages(), pages);
        assert_eq!(reader.num_entries(), entries);
        assert_eq!(reader.height(), height);
        assert_eq!(reader.max_speed(), vmax);
    }

    #[test]
    fn reader_reads_the_same_nodes_as_the_owner() {
        let mut tree = small_tree();
        let root = tree.root().expect("non-empty");
        let direct = tree.read_node(root).expect("direct read");
        let shared = ConcurrentIndex::new(tree);
        let mut reader = shared.reader();
        let via_reader = reader.read_node(root).expect("shared read");
        assert_eq!(direct.level(), via_reader.level());
        assert_eq!(direct.mbb(), via_reader.mbb());
    }

    #[test]
    fn concurrent_readers_see_consistent_nodes() {
        let tree = small_tree();
        let shared = ConcurrentIndex::new(tree);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut reader = shared.reader();
                    let root = reader.root().expect("non-empty");
                    for _ in 0..16 {
                        let node = reader.read_node(root).expect("read under contention");
                        assert!(node.level() < 8);
                    }
                });
            }
        });
    }

    #[test]
    fn poisoned_lock_surfaces_as_index_error() {
        let shared = ConcurrentIndex::new(small_tree());
        let panicker = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.lock().expect("first lock");
            panic!("poison the shard");
        }));
        assert!(panicker.is_err());
        let mut reader = shared.reader();
        let root = reader.root().expect("non-empty");
        match reader.read_node(root) {
            Err(IndexError::Poisoned(_)) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
    }

    #[test]
    fn with_gives_exclusive_maintenance_access() {
        let shared = ConcurrentIndex::new(small_tree());
        let pages = shared.with(|tree| tree.num_pages()).expect("lock");
        assert!(pages > 0);
        shared
            .with(|tree| tree.clear_buffer())
            .expect("lock")
            .expect("clear");
    }

    #[test]
    fn apply_publishes_a_new_generation_while_old_readers_stay_pinned() {
        let shared = ConcurrentIndex::new(small_tree());
        assert_eq!(shared.generation(), 0);
        let old_reader = shared.reader();
        let entries_before = old_reader.num_entries();

        let ((), generation) = shared
            .apply(|tree| tree.insert_entry(entry(9, 0, 100.0)))
            .expect("apply");
        assert_eq!(generation, 1);
        assert_eq!(shared.generation(), 1);

        // The pre-ingest reader still answers with its pinned metadata...
        assert_eq!(old_reader.generation(), 0);
        assert_eq!(old_reader.num_entries(), entries_before);
        // ...while a fresh reader sees the committed generation.
        let new_reader = shared.reader();
        assert_eq!(new_reader.generation(), 1);
        assert_eq!(new_reader.num_entries(), entries_before + 1);
    }

    #[test]
    fn failed_apply_publishes_nothing() {
        let shared = ConcurrentIndex::new(small_tree());
        let err = shared
            .apply(|_| -> Result<()> { Err(IndexError::Poisoned("synthetic".into())) })
            .expect_err("closure error propagates");
        assert!(matches!(err, IndexError::Poisoned(_)));
        assert_eq!(shared.generation(), 0, "no generation published");
    }

    #[test]
    fn refresh_republishes_after_with() {
        let shared = ConcurrentIndex::new(small_tree());
        shared
            .with(|tree| tree.insert_entry(entry(9, 1, 101.0)))
            .expect("lock")
            .expect("insert");
        // `with` alone leaves the snapshot stale by design...
        assert_eq!(shared.generation(), 0);
        // ...until refresh publishes the new structure.
        let generation = shared.refresh().expect("refresh");
        assert_eq!(generation, 1);
        assert_eq!(shared.reader().num_entries(), 4 * 8 + 1);
    }

    #[test]
    fn into_inner_returns_the_index() {
        let shared = ConcurrentIndex::new(small_tree());
        let tree = shared.into_inner().expect("not poisoned");
        assert!(tree.num_entries() > 0);
    }
}
