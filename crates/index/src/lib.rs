//! Page-based spatiotemporal index substrate for the MST reproduction.
//!
//! The ICDE'07 paper runs its best-first k-MST algorithm on *general-purpose*
//! R-tree-like trajectory indexes — structures a moving-object database
//! would maintain anyway for range and nearest-neighbour queries. This crate
//! builds that substrate from scratch:
//!
//! * [`PageStore`] — an in-process "disk" of fixed 4 KB pages with physical
//!   I/O accounting, carrying the optional seeded [`FaultInjector`] that
//!   its own reads and writes draw from;
//! * [`BufferPool`] — an LRU buffer manager (the paper: 10% of the index
//!   size, at most 1000 pages) with one read path: checksum, retry,
//!   quarantine;
//! * [`Node`] — byte-serialized leaf/internal nodes; each leaf entry is one
//!   trajectory *segment* `(trajectory id, sequence number, 3D line)`;
//! * [`PagedTree`] — the one tree core under every substrate: metadata,
//!   tip and parent maps, the Guttman descent with quadratic-split
//!   propagation, tip appends and chained leaves, ancestor MBB upkeep,
//!   audits, images, and the single [`TrajectoryIndex`] implementation. A
//!   substrate is an [`InsertionPolicy`] over it — where a new segment
//!   goes, plus whatever state is its own:
//!   * [`Rtree3D`] — a Guttman-style 3D (x, y, t) R-tree: always the
//!     least-enlargement descent; also deletion and STR bulk loading;
//!   * [`StrTree`] — Pfoser et al.'s spatio-temporal R-tree: a segment
//!     joins its predecessor's leaf while there is room, else descends
//!     (the middle ground);
//!   * [`TbTree`] — the trajectory-bundle tree of Pfoser et al. (VLDB
//!     2000): single-trajectory leaves in a doubly linked list, attached
//!     along the right-most path;
//!   * [`MetricTree`] — TB-style leaf chains under a rebuilt directory,
//!     plus an in-memory ball-partitioning directory over whole
//!     trajectories;
//! * [`mindist`] — the exact minimum distance between a (moving-point) query
//!   trajectory and a node MBB over their temporal overlap, following
//!   Frentzos et al.'s nearest-neighbour work that the paper builds on;
//! * [`TrajectoryIndex`] / [`TrajectoryIndexWrite`] — the read interface
//!   the search algorithm consumes and the write interface ingest uses.
//!   Reads take `&self`: the only state a fetch mutates — buffer pool, page
//!   store, I/O counters — sits behind one mutex inside the tree's pager
//!   (`shared.rs`), so any number of searches share a tree by reference.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod buffer;
pub mod checksum;
pub mod codec;
pub mod fault;
pub mod knn;
pub mod metric;
pub mod metrics;
pub mod mindist;
mod node;
mod pagestore;
pub mod persist;
mod rank;
mod rtree;
mod shared;
mod strtree;
mod tbtree;
mod traits;
mod tree;
mod validate;

pub use buffer::{BufferPool, BufferStats, LruCache, RETRY_LIMIT};
pub use fault::{FaultConfig, FaultInjector, FaultStats};
pub use knn::KnnMatch;
pub use metric::{BallDirectory, BallKind, BallNode, MetricPolicy, MetricTree};
pub use metrics::{MetricsSink, NoopSink};
pub use node::{InternalEntry, LeafEntry, Node, INTERNAL_CAPACITY, LEAF_CAPACITY};
pub use pagestore::{DiskStats, PageId, PageStore, PAGE_SIZE};
pub use rank::{Rank, Ranked};
pub use rtree::{Rtree3D, RtreePolicy};
pub use strtree::{StrPolicy, StrTree};
pub use tbtree::{TbPolicy, TbTree};
pub use traits::{IndexStats, TrajectoryIndex, TrajectoryIndexWrite};
pub use tree::{InsertionPolicy, PagedTree};
pub use validate::{check_invariants, InvariantReport};

/// Why an allocated page cannot be served (see
/// [`IndexError::PageUnavailable`]). Distinct from
/// [`IndexError::UnknownPage`], which means the id was *never* allocated —
/// an unknown page is a caller bug (a dangling pointer in the tree), while
/// an unavailable page is a lifecycle state the storage layer itself
/// manages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unavailability {
    /// The page was freed and sits on the free list awaiting reuse.
    Freed,
    /// The page was quarantined by the buffer manager after repeated
    /// unrecoverable faults (checksum mismatches or exhausted retries). A
    /// successful write of fresh content lifts the quarantine.
    Quarantined,
}

impl std::fmt::Display for Unavailability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unavailability::Freed => write!(f, "freed"),
            Unavailability::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// Errors produced by the index layer.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexError {
    /// A page id did not refer to an allocated page.
    UnknownPage(PageId),
    /// An allocated page exists but is not currently readable (freed, or
    /// quarantined after repeated faults).
    PageUnavailable {
        /// The offending page.
        page: PageId,
        /// Why the page cannot be served.
        reason: Unavailability,
    },
    /// A page read failed transiently (injected or environmental). Retrying
    /// the same read may succeed; the buffer manager does so up to
    /// [`RETRY_LIMIT`] times before giving up.
    TransientIo(PageId),
    /// A page's stored checksum disagreed with its contents: bit rot, a
    /// torn write, or corruption in transit.
    ChecksumMismatch {
        /// The offending page.
        page: PageId,
        /// The checksum stored in the page header.
        expected: u32,
        /// The checksum recomputed from the page contents.
        found: u32,
    },
    /// A page's bytes did not decode into a valid node.
    CorruptNode {
        /// The offending page.
        page: PageId,
        /// Human-readable reason.
        reason: String,
    },
    /// The segment being inserted was invalid for this index.
    BadInsert(String),
    /// A persistence operation failed (I/O error or malformed image).
    Persist(String),
    /// A synchronisation primitive guarding index state was poisoned by a
    /// panicking thread. Concurrent read paths surface this instead of
    /// unwrapping the lock (xtask rule R7), so one crashed worker degrades
    /// into an error the caller can report rather than a process abort.
    Poisoned(String),
}

impl IndexError {
    /// Maps a poisoned lock into [`IndexError::Poisoned`] (xtask rule R7:
    /// never unwrap a lock); `what` names the lock for the message.
    pub fn poisoned<T>(what: &'static str) -> impl Fn(std::sync::PoisonError<T>) -> IndexError {
        move |_| IndexError::Poisoned(what.to_string())
    }
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::UnknownPage(p) => write!(f, "unknown page {p:?}"),
            IndexError::PageUnavailable { page, reason } => {
                write!(f, "page {page:?} is unavailable: {reason}")
            }
            IndexError::TransientIo(p) => write!(f, "transient I/O failure reading page {p:?}"),
            IndexError::ChecksumMismatch {
                page,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch on page {page:?}: header says {expected:#010x}, \
                 contents hash to {found:#010x}"
            ),
            IndexError::CorruptNode { page, reason } => {
                write!(f, "corrupt node in page {page:?}: {reason}")
            }
            IndexError::BadInsert(msg) => write!(f, "bad insert: {msg}"),
            IndexError::Persist(msg) => write!(f, "persistence failure: {msg}"),
            IndexError::Poisoned(what) => {
                write!(f, "lock poisoned by a panicking thread: {what}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// Result alias for the index crate.
pub type Result<T> = std::result::Result<T, IndexError>;
