//! The shared half of a tree: its pages and buffer, behind the one lock a
//! read needs.
//!
//! Every index in this crate keeps the paper's cost model — one index read
//! through one LRU buffer (10% of the pages, at most 1000), counted in page
//! accesses. Fetching a node mutates nothing but that buffer: the LRU
//! order, the frame table and the I/O counters. So the synchronisation
//! sits here, around exactly that state, and every search takes the tree
//! by `&self`:
//!
//! * the **shared path** — [`Pager::read_node_traced`] and the counter
//!   accessors — locks per call, so concurrent searches of one tree
//!   interleave at node-fetch granularity and share one buffer pool;
//! * the **exclusive path** — inserts, deletes, flushes, buffer sizing —
//!   holds the tree by `&mut` and reaches the same state through
//!   [`Pager::get_mut`] without locking.
//!
//! Lock order: the pager mutex ranks last ([`Rank::Pager`]); nothing is
//! acquired while it is held.
//!
//! **Poisoning is an error, not a panic.** A panic under the lock (a fault
//! mid-fetch can leave the pool half-updated) poisons it; from then on both
//! paths return [`IndexError::Poisoned`] (xtask rule R7), so a crashed
//! worker fails its own query and the rest of the batch reports clean
//! errors.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::fault::FaultConfig;
use crate::metrics::{MetricsSink, NoopSink};
use crate::traits::paper_buffer_capacity;
use crate::{BufferPool, IndexError, Node, PageId, PageStore, Rank, Ranked, Result};

/// Pages + buffer, the I/O half of [`crate::tree::TreeCore`]; see the
/// module docs for the two access paths.
pub(crate) struct Pager {
    io: Mutex<PagerIo>,
}

impl Pager {
    pub fn new() -> Self {
        Pager::from_store(PageStore::new())
    }

    /// Wraps a store (empty, or rebuilt on the persistence load path) with
    /// a cold buffer sized by the paper's rule.
    pub fn from_store(store: PageStore) -> Self {
        Pager {
            io: Mutex::new(PagerIo {
                pool: BufferPool::new(paper_buffer_capacity(store.num_pages())),
                store,
                node_reads: 0,
                fixed_capacity: None,
            }),
        }
    }

    fn lock(&self) -> Result<Ranked<MutexGuard<'_, PagerIo>>> {
        Ranked::lock(Rank::Pager, || self.io.lock()).map_err(IndexError::poisoned("pager"))
    }

    /// The pager of an exclusively held tree: no locking, same poisoning.
    pub fn get_mut(&mut self) -> Result<&mut PagerIo> {
        self.io.get_mut().map_err(IndexError::poisoned("pager"))
    }

    /// The pager for the accessors whose signatures carry no error (page
    /// count, counters, fault statistics). A poisoned lock is recovered:
    /// they only copy plain values out, and the search and write paths
    /// still refuse the tree.
    pub fn peek(&self) -> Ranked<MutexGuard<'_, PagerIo>> {
        Ranked::lock(Rank::Pager, || self.io.lock()).unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetches one node under the lock; see [`PagerIo::fetch_node`].
    pub fn read_node_traced<S: MetricsSink>(&self, page: PageId, sink: &mut S) -> Result<Node> {
        self.lock()?.fetch_node(page, sink)
    }

    /// Buffer-manager audit; see [`PagerIo::audit`].
    pub fn audit(&self) -> std::result::Result<(), String> {
        self.lock().map_err(|e| e.to_string())?.audit()
    }
}

/// What the [`Pager`]'s lock protects: the store (which carries the
/// optional fault schedule) and the buffer in front of it.
pub(crate) struct PagerIo {
    pub store: PageStore,
    pub pool: BufferPool,
    pub node_reads: u64,
    /// When set, fixes the buffer at a page count instead of the paper's
    /// auto-sizing rule (used by the buffer-sweep ablation).
    pub fixed_capacity: Option<usize>,
}

impl PagerIo {
    /// Enables (`Some`) or disables (`None`) deterministic fault injection
    /// on the pager's physical I/O.
    pub fn set_fault_injection(&mut self, config: Option<FaultConfig>) {
        self.store.set_fault_injection(config);
    }

    /// Fixes (or, with `None`, releases) the buffer capacity.
    pub fn set_fixed_capacity(&mut self, capacity: Option<usize>) -> Result<()> {
        self.fixed_capacity = capacity;
        self.resize_buffer()
    }

    /// Sizes the buffer to the fixed capacity, or else to the paper's
    /// 10%/1000 rule over the live pages — after every allocation and
    /// every free, so one tree gets one buffer whatever its history (a
    /// reloaded image is sized the same way).
    fn resize_buffer(&mut self) -> Result<()> {
        let cap = self
            .fixed_capacity
            .unwrap_or_else(|| paper_buffer_capacity(self.store.num_pages()));
        if cap == self.pool.capacity() {
            return Ok(());
        }
        self.pool.set_capacity(cap, &mut self.store)
    }

    /// Allocates a page for `node` and writes it (through the buffer).
    pub fn allocate_node(&mut self, node: &Node) -> Result<PageId> {
        let id = self.store.allocate();
        self.write_node(id, node)?;
        self.resize_buffer()?;
        Ok(id)
    }

    /// Reads and decodes the node stored in `page`. The buffer hit/miss,
    /// the decoded byte count, and the node access (tagged with the node's
    /// tree level) are reported to `sink`.
    pub fn fetch_node<S: MetricsSink>(&mut self, page: PageId, sink: &mut S) -> Result<Node> {
        self.node_reads += 1;
        let bytes = self.pool.read_traced(&mut self.store, page, sink)?;
        sink.bytes_decoded(bytes.len() as u64);
        let decoded = Node::decode(page, bytes);
        if let Ok(node) = &decoded {
            sink.node_access(node.level());
        }
        decoded
    }

    /// `page`'s bytes, read through the buffer and left undecoded (one
    /// node read, like [`PagerIo::fetch_node`]).
    pub fn read_page(&mut self, page: PageId) -> Result<&[u8]> {
        self.node_reads += 1;
        self.pool.read_traced(&mut self.store, page, &mut NoopSink)
    }

    /// `page`'s buffered bytes for an in-place edit ([`BufferPool::edit`]).
    pub fn edit_page(&mut self, page: PageId) -> Result<&mut [u8]> {
        self.pool.edit(&mut self.store, page)
    }

    /// Encodes and writes `node` into `page`.
    pub fn write_node(&mut self, page: PageId, node: &Node) -> Result<()> {
        let bytes = node.encode();
        self.pool.write(&mut self.store, page, &bytes)
    }

    pub fn reset_stats(&mut self) {
        self.node_reads = 0;
        self.store.reset_stats();
        self.pool.reset_stats();
    }

    /// Drops all cached pages so the next query starts cold.
    pub fn clear_buffer(&mut self) -> Result<()> {
        self.pool.clear(&mut self.store)
    }

    /// Frees a node's page (its bytes are dead; the buffer copy is
    /// discarded, the page returns to the store's free list) and shrinks
    /// the buffer with the index.
    pub fn free_node(&mut self, page: PageId) -> Result<()> {
        self.pool.discard(page);
        self.store.free(page)?;
        self.resize_buffer()
    }

    /// Buffer-manager audit: LRU bookkeeping consistent.
    pub fn audit(&self) -> std::result::Result<(), String> {
        self.pool.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LeafEntry, Rtree3D, TrajectoryIndex};
    use mst_trajectory::{SamplePoint, Segment, TrajectoryId};

    fn small_tree() -> Rtree3D {
        let mut tree = Rtree3D::new();
        for traj in 0..4u64 {
            for seq in 0..8u32 {
                let (t0, x, y) = (f64::from(seq), traj as f64, f64::from(seq));
                tree.insert(LeafEntry {
                    traj: TrajectoryId(traj),
                    seq,
                    segment: Segment::new(
                        SamplePoint::new(t0, x, y),
                        SamplePoint::new(t0 + 1.0, x + 0.5, y + 0.5),
                    )
                    .expect("valid segment"),
                })
                .expect("insert");
            }
        }
        tree
    }

    #[test]
    fn reader_reads_the_same_nodes_as_the_owner() {
        let mut tree = small_tree();
        let root = tree.root().expect("non-empty");
        let owned = tree.core.fetch_node(root).expect("write-path read");
        let shared = tree.read_node(root).expect("shared read");
        assert_eq!(owned.level(), shared.level());
        assert_eq!(owned.mbb(), shared.mbb());
    }

    #[test]
    fn concurrent_readers_see_consistent_nodes() {
        let mut tree = small_tree();
        tree.reset_stats();
        let tree = tree;
        let root = tree.root().expect("non-empty");
        let want = tree.read_node(root).expect("read").mbb();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..16 {
                        let node = tree.read_node(root).expect("read under contention");
                        assert_eq!(node.mbb(), want);
                    }
                });
            }
        });
        assert_eq!(tree.stats().node_reads, 1 + 4 * 16);
        tree.audit_buffer().expect("no pin leaked");
    }

    #[test]
    fn buffer_follows_the_paper_rule_after_deletes_too() {
        // Lanes in temporal order until the tree holds 100 pages (a
        // 10-page buffer), then deletes until a page is freed.
        let mut tree = Rtree3D::new();
        'grow: for seq in 0..400u32 {
            for traj in 0..24u64 {
                let (x, y, t) = (
                    (traj * 97 % 1000) as f64,
                    (traj * 61 % 1000) as f64,
                    f64::from(seq),
                );
                tree.insert(LeafEntry {
                    traj: TrajectoryId(traj),
                    seq,
                    segment: Segment::new(
                        SamplePoint::new(t, x + t, y),
                        SamplePoint::new(t + 1.0, x + t + 1.0, y + 0.5),
                    )
                    .expect("valid segment"),
                })
                .expect("insert");
                if tree.num_pages() == 100 {
                    break 'grow;
                }
            }
        }
        assert_eq!(tree.num_pages(), 100);
        let mut pages = vec![tree.root().expect("non-empty")];
        'shrink: while let Some(page) = pages.pop() {
            match tree.read_node(page).expect("read") {
                Node::Internal { entries, .. } => pages.extend(entries.iter().map(|e| e.child)),
                Node::Leaf { entries, .. } => {
                    for e in entries {
                        assert!(tree.delete(e.traj, e.seq).expect("delete"));
                        if tree.num_pages() < 100 {
                            break 'shrink;
                        }
                    }
                }
            }
        }
        let io = tree.core.pager.get_mut().expect("unpoisoned");
        assert!(io.store.num_pages() < 100);
        assert_eq!(
            io.pool.capacity(),
            paper_buffer_capacity(io.store.num_pages())
        );
    }

    #[test]
    fn poisoned_lock_surfaces_as_index_error() {
        let mut tree = small_tree();
        let root = tree.root().expect("non-empty");
        let panicker = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = tree.core.pager.lock().expect("first lock");
            panic!("poison the pager");
        }));
        assert!(panicker.is_err());
        match tree.read_node(root) {
            Err(IndexError::Poisoned(_)) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
        // The write and maintenance paths refuse the tree too; the plain
        // accessors still answer.
        assert!(matches!(tree.clear_buffer(), Err(IndexError::Poisoned(_))));
        assert!(tree.audit_buffer().is_err());
        assert!(tree.num_pages() > 0);
    }
}
