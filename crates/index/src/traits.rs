//! The read and write interfaces the MST search and the ingest paths
//! consume (the pager that moves nodes through the buffer is `shared.rs`).

use mst_trajectory::{Mbb, TrajectoryId};

use crate::fault::{FaultConfig, FaultStats};
use crate::metrics::{MetricsSink, NoopSink};
use crate::{BufferStats, DiskStats, IndexError, LeafEntry, Node, PageId, Result};

/// The paper's buffer sizing rule: 10% of the index size, capped at 1000
/// pages (and floored at a handful so tiny indexes still run buffered).
pub(crate) fn paper_buffer_capacity(index_pages: usize) -> usize {
    (index_pages / 10).clamp(8, 1000)
}

/// Combined statistics of an index: structure plus I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Total pages occupied by the index.
    pub pages: usize,
    /// Total bytes (`pages * PAGE_SIZE`).
    pub size_bytes: usize,
    /// Tree height (number of levels; a single-leaf tree has height 1).
    pub height: u8,
    /// Segment entries stored.
    pub entries: u64,
    /// Logical node reads performed (through the buffer).
    pub node_reads: u64,
    /// Physical disk counters.
    pub disk: DiskStats,
    /// Buffer counters.
    pub buffer: BufferStats,
}

/// Read access to an R-tree-like trajectory index, as required by the
/// best-first MST search: a root pointer, node fetches (with I/O
/// accounting), and the metadata the bounds need (`max_speed`, sizes).
/// Every read takes `&self` — the buffer a fetch moves pages through is
/// synchronised inside the index — so any number of searches can share one
/// tree; maintenance (`reset_stats`, buffer sizing, fault injection) takes
/// `&mut self`.
pub trait TrajectoryIndex {
    /// The root page, or `None` for an empty index.
    fn root(&self) -> Option<PageId>;

    /// Fetches and decodes a node (counts one logical read; physical I/O
    /// depends on the buffer), reporting the buffer hit/miss, the decoded
    /// byte count and the node access (tagged with the node's level) to
    /// `sink`. The one way to read a node: every implementation supplies
    /// this and nothing else.
    fn read_node_traced<S: MetricsSink>(&self, page: PageId, sink: &mut S) -> Result<Node>;

    /// [`TrajectoryIndex::read_node_traced`] with nobody listening.
    fn read_node(&self, page: PageId) -> Result<Node> {
        self.read_node_traced(page, &mut NoopSink)
    }

    /// Number of pages the index occupies.
    fn num_pages(&self) -> usize;

    /// Number of segment entries stored.
    fn num_entries(&self) -> u64;

    /// Tree height (1 for a single-leaf tree, 0 when empty).
    fn height(&self) -> u8;

    /// Maximum speed over all indexed segments (the `Vmax` ingredient of the
    /// speed-dependent bounds; the query adds its own max speed).
    fn max_speed(&self) -> f64;

    /// Snapshot of structural and I/O statistics.
    fn stats(&self) -> IndexStats;

    /// Resets the I/O counters (structure metadata is preserved).
    fn reset_stats(&mut self);

    /// Empties the buffer pool so subsequent queries run cold.
    fn clear_buffer(&mut self) -> Result<()>;

    /// Pins the buffer pool to a fixed page capacity, or restores the
    /// paper's auto-sizing rule with `None` (used by buffer ablations).
    fn set_buffer_capacity(&mut self, capacity: Option<usize>) -> Result<()>;

    /// Enables (`Some(config)`) or disables (`None`) deterministic fault
    /// injection on the index's physical page I/O (chaos testing).
    /// Enabling replaces any previous schedule and resets its statistics.
    fn set_fault_injection(&mut self, config: Option<FaultConfig>) -> Result<()>;

    /// Counters of the injected faults; `None` when injection is off.
    fn fault_stats(&self) -> Option<FaultStats>;

    /// For trajectory-preserving indexes (the TB-tree): each trajectory's
    /// tip leaf, the head of its backward leaf chain. Indexes without leaf
    /// chains return an empty list, which skips the chain validation in
    /// [`crate::check_invariants`].
    fn leaf_chain_tips(&self) -> Vec<(TrajectoryId, PageId)>;

    /// Audits the buffer manager's LRU bookkeeping (map, list and arena
    /// agree).
    fn audit_buffer(&self) -> std::result::Result<(), String>;

    /// All segments whose MBB intersects `window` — the classic 3D range
    /// query the substrate also serves (the paper's premise is that the
    /// *same* index answers both traditional and similarity queries).
    fn range_query(&self, window: &Mbb) -> Result<Vec<LeafEntry>> {
        self.range_query_traced(window, &mut NoopSink)
    }

    /// [`TrajectoryIndex::range_query`] with observability: every node
    /// visited during the traversal is reported to `sink`.
    fn range_query_traced<S: MetricsSink>(
        &self,
        window: &Mbb,
        sink: &mut S,
    ) -> Result<Vec<LeafEntry>> {
        let mut out = Vec::new();
        let Some(root) = self.root() else {
            return Ok(out);
        };
        let mut stack = vec![root];
        while let Some(page) = stack.pop() {
            match self.read_node_traced(page, sink)? {
                Node::Leaf { entries, .. } => {
                    out.extend(
                        entries
                            .iter()
                            .filter(|e| e.mbb().intersects(window))
                            .copied(),
                    );
                }
                Node::Internal { entries, .. } => {
                    stack.extend(
                        entries
                            .iter()
                            .filter(|e| e.mbb.intersects(window))
                            .map(|e| e.child),
                    );
                }
            }
        }
        Ok(out)
    }
}

/// Write access to an R-tree-like trajectory index. Separate from
/// [`TrajectoryIndex`] because read-only views (e.g. a loaded snapshot
/// served to queries) need not be writable.
pub trait TrajectoryIndexWrite: TrajectoryIndex {
    /// Inserts one segment entry.
    fn insert_entry(&mut self, entry: LeafEntry) -> Result<()>;

    /// Deletes one segment entry, matched by trajectory id + sequence
    /// number. Returns `Ok(false)` when no such entry exists. The default
    /// refuses rather than silently dropping the request: substrates whose
    /// structure cannot support point deletes (the TB-tree's leaf chains,
    /// the STR-tree's packed layout) surface a typed error, and ingest
    /// paths route deletes to substrates that can.
    fn delete_entry(&mut self, traj: TrajectoryId, seq: u32) -> Result<bool> {
        let _ = (traj, seq);
        Err(delete_unsupported())
    }

    /// [`TrajectoryIndexWrite::delete_entry`] of a segment the caller has:
    /// the search may skip every subtree whose box does not contain the
    /// segment's (the default ignores the segment).
    fn delete_segment(&mut self, entry: &LeafEntry) -> Result<bool> {
        self.delete_entry(entry.traj, entry.seq)
    }
}

/// The typed refusal of a point delete on a substrate that has none.
pub(crate) fn delete_unsupported() -> IndexError {
    IndexError::Persist("this index substrate does not support point deletes".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_capacity_follows_paper_rule() {
        assert_eq!(paper_buffer_capacity(0), 8);
        assert_eq!(paper_buffer_capacity(50), 8);
        assert_eq!(paper_buffer_capacity(200), 20);
        assert_eq!(paper_buffer_capacity(5000), 500);
        assert_eq!(paper_buffer_capacity(100_000), 1000);
    }
}
