//! On-page node layout shared by the 3D R-tree and the TB-tree.
//!
//! Every node occupies exactly one 4 KB page:
//!
//! ```text
//! header (24 bytes)
//!   [0]      node type      u8   (0 = leaf, 1 = internal)
//!   [1]      level          u8   (0 at leaves, grows towards the root)
//!   [2..4]   entry count    u16
//!   [4..8]   reserved       u32  (zero)
//!   [8..16]  owner traj id  u64  (TB-tree leaves; u64::MAX elsewhere)
//!   [16..20] prev leaf      u32  (TB-tree doubly linked leaf list)
//!   [20..24] next leaf      u32
//! entries
//!   leaf:     the codec's leaf entry (traj u64 | seq u32 | 2 samples) = 60 B
//!   internal: child page u32 | the codec's mbb (6 × f64)             = 52 B
//! ```
//!
//! Both directions go through [`crate::codec`], which owns the entry and
//! box layouts the wire protocol shares.
//!
//! Capacities derive from the page size: 67 segments per leaf, 78 children
//! per internal node — matching the order of magnitude of the paper's
//! indexes (4 KB pages over 3D line segments).

use std::cmp::Ordering;

use mst_trajectory::{Mbb, Segment, Trajectory, TrajectoryId};

use crate::codec::{CodecError, Reader, Writer, LEAF_ENTRY_SIZE, MBB_SIZE};
use crate::{IndexError, PageId, Result, PAGE_SIZE};

const HEADER_SIZE: usize = 24;
const INTERNAL_ENTRY_SIZE: usize = 4 + MBB_SIZE;

/// Maximum number of segment entries in a leaf page.
pub const LEAF_CAPACITY: usize = (PAGE_SIZE - HEADER_SIZE) / LEAF_ENTRY_SIZE;
/// Maximum number of child entries in an internal page.
pub const INTERNAL_CAPACITY: usize = (PAGE_SIZE - HEADER_SIZE) / INTERNAL_ENTRY_SIZE;

const TYPE_LEAF: u8 = 0;
const TYPE_INTERNAL: u8 = 1;
const NO_OWNER: u64 = u64::MAX;

/// One indexed trajectory segment (a leaf-level index entry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEntry {
    /// The trajectory this segment belongs to.
    pub traj: TrajectoryId,
    /// Position of the segment within its trajectory (0-based).
    pub seq: u32,
    /// The 3D line segment itself.
    pub segment: Segment,
}

impl LeafEntry {
    /// The 3D bounding box of the segment.
    pub fn mbb(&self) -> Mbb {
        self.segment.mbb()
    }

    /// Every segment of `trajectory` as the entry object `traj` indexes it
    /// under, in sequence order.
    pub fn of_trajectory(
        traj: TrajectoryId,
        trajectory: &Trajectory,
    ) -> impl Iterator<Item = LeafEntry> + '_ {
        (0..)
            .zip(trajectory.segments())
            .map(move |(seq, segment)| LeafEntry { traj, seq, segment })
    }

    /// The order a live position feed delivers segments in: by start time,
    /// then object, then sequence. It is what the TB-tree's append-at-the-tip
    /// design assumes, and being total it makes a build deterministic for
    /// any input order.
    #[inline]
    pub fn arrival_cmp(&self, other: &LeafEntry) -> Ordering {
        let (a, b) = (self.segment.start().t, other.segment.start().t);
        a.total_cmp(&b)
            .then(self.traj.cmp(&other.traj))
            .then(self.seq.cmp(&other.seq))
    }
}

/// A child pointer plus its minimum bounding box (an internal index entry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InternalEntry {
    /// Page of the child node.
    pub child: PageId,
    /// Minimum bounding box of the whole child subtree.
    pub mbb: Mbb,
}

/// A decoded index node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A leaf node holding trajectory segments.
    Leaf {
        /// Segment entries.
        entries: Vec<LeafEntry>,
        /// For TB-tree leaves: the single trajectory the leaf belongs to.
        owner: Option<TrajectoryId>,
        /// Previous leaf of the same trajectory (TB-tree leaf list).
        prev: Option<PageId>,
        /// Next leaf of the same trajectory (TB-tree leaf list).
        next: Option<PageId>,
    },
    /// An internal (directory) node.
    Internal {
        /// Height of the node above the leaf level (leaves are level 0, so
        /// internal nodes have `level >= 1`).
        level: u8,
        /// Child entries.
        entries: Vec<InternalEntry>,
    },
}

impl Node {
    /// Creates an empty plain leaf (R-tree style, no owner/links).
    pub fn empty_leaf() -> Node {
        Node::Leaf {
            entries: Vec::new(),
            owner: None,
            prev: None,
            next: None,
        }
    }

    /// The node's level: 0 for leaves, `>= 1` for internal nodes.
    pub fn level(&self) -> u8 {
        match self {
            Node::Leaf { .. } => 0,
            Node::Internal { level, .. } => *level,
        }
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Number of entries in the node.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { entries, .. } => entries.len(),
        }
    }

    /// True when the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node's capacity in entries (leaf vs internal).
    pub fn capacity(&self) -> usize {
        match self {
            Node::Leaf { .. } => LEAF_CAPACITY,
            Node::Internal { .. } => INTERNAL_CAPACITY,
        }
    }

    /// The minimum bounding box of all entries ([`Mbb::empty`] for an empty
    /// node).
    pub fn mbb(&self) -> Mbb {
        match self {
            Node::Leaf { entries, .. } => entries
                .iter()
                .fold(Mbb::empty(), |acc, e| acc.union(&e.mbb())),
            Node::Internal { entries, .. } => entries
                .iter()
                .fold(Mbb::empty(), |acc, e| acc.union(&e.mbb)),
        }
    }

    /// Serializes the node into a fresh `PAGE_SIZE` buffer.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.len() <= self.capacity(), "node overflow");
        let (node_type, owner, prev, next, entry_size) = match self {
            Node::Leaf {
                owner, prev, next, ..
            } => (
                TYPE_LEAF,
                owner.map_or(NO_OWNER, |t| t.0),
                *prev,
                *next,
                LEAF_ENTRY_SIZE,
            ),
            Node::Internal { level, .. } => {
                assert!(*level >= 1, "internal nodes live above the leaves");
                (TYPE_INTERNAL, NO_OWNER, None, None, INTERNAL_ENTRY_SIZE)
            }
        };
        let mut w = Writer::with_capacity(PAGE_SIZE);
        w.put_u8(node_type);
        w.put_u8(self.level());
        // The capacities (67 and 78 entries) fit a u16 by construction.
        w.put_u16(u16::try_from(self.len()).unwrap_or(u16::MAX));
        // The reserved header word doubles as the page checksum slot; the
        // buffer pool seals it at write-back (decode ignores the slot, so
        // encode/decode round-trips are unaffected either way).
        w.put_u32(0);
        w.put_u64(owner);
        w.put_u32(prev.unwrap_or(PageId::NONE).0);
        w.put_u32(next.unwrap_or(PageId::NONE).0);
        match self {
            Node::Leaf { entries, .. } => entries.iter().for_each(|e| w.put_leaf_entry(e)),
            Node::Internal { entries, .. } => {
                for e in entries {
                    w.put_u32(e.child.0);
                    w.put_mbb(&e.mbb);
                }
            }
        }
        let mut buf = w.into_bytes();
        assert_eq!(
            buf.len(),
            HEADER_SIZE + self.len() * entry_size,
            "encoded size disagrees with the layout constants"
        );
        buf.resize(PAGE_SIZE, 0);
        buf
    }

    /// Decodes a node from page bytes.
    ///
    /// Total over arbitrary input: short buffers, overrunning entry counts,
    /// and malformed payloads all come back as
    /// [`IndexError::CorruptNode`] — never a panic.
    pub fn decode(page: PageId, buf: &[u8]) -> Result<Node> {
        if buf.len() != PAGE_SIZE {
            return Err(IndexError::CorruptNode {
                page,
                reason: format!("page has {} bytes, expected {PAGE_SIZE}", buf.len()),
            });
        }
        read_node(Reader::new(buf)).map_err(|e| IndexError::CorruptNode {
            page,
            reason: e.to_string(),
        })
    }
}

/// Reads one node from a `PAGE_SIZE` slice. A count within capacity
/// always fits the page (`capacities_match_layout`), so only the count,
/// the level and the entries themselves need checking.
fn read_node(mut r: Reader<'_>) -> std::result::Result<Node, CodecError> {
    let node_type = r.u8()?;
    let level = r.u8()?;
    let count = usize::from(r.u16()?);
    let _checksum = r.u32()?;
    let owner = r.u64()?;
    let prev = r.u32()?;
    let next = r.u32()?;
    match node_type {
        TYPE_LEAF => {
            if count > LEAF_CAPACITY {
                return Err(CodecError::Invalid("leaf count exceeds capacity"));
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push(r.leaf_entry()?);
            }
            Ok(Node::Leaf {
                entries,
                owner: (owner != NO_OWNER).then_some(TrajectoryId(owner)),
                prev: (prev != PageId::NONE.0).then_some(PageId(prev)),
                next: (next != PageId::NONE.0).then_some(PageId(next)),
            })
        }
        TYPE_INTERNAL => {
            if count > INTERNAL_CAPACITY {
                return Err(CodecError::Invalid("internal count exceeds capacity"));
            }
            if level == 0 {
                return Err(CodecError::Invalid("internal node with level 0"));
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let mut e = Reader::new(r.take(INTERNAL_ENTRY_SIZE)?);
                let child = PageId(e.u32()?);
                entries.push(InternalEntry {
                    child,
                    mbb: e.mbb()?,
                });
            }
            Ok(Node::Internal { level, entries })
        }
        _ => Err(CodecError::Invalid("unknown node type")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::SamplePoint;

    fn entry(id: u64, seq: u32, t0: f64) -> LeafEntry {
        LeafEntry {
            traj: TrajectoryId(id),
            seq,
            segment: Segment::new(
                SamplePoint::new(t0, id as f64, seq as f64),
                SamplePoint::new(t0 + 1.0, id as f64 + 0.5, seq as f64 - 0.25),
            )
            .unwrap(),
        }
    }

    #[test]
    fn capacities_match_layout() {
        assert_eq!(LEAF_CAPACITY, 67);
        assert_eq!(INTERNAL_CAPACITY, 78);
        const { assert!(HEADER_SIZE + LEAF_CAPACITY * LEAF_ENTRY_SIZE <= PAGE_SIZE) };
        const { assert!(HEADER_SIZE + INTERNAL_CAPACITY * INTERNAL_ENTRY_SIZE <= PAGE_SIZE) };
    }

    #[test]
    fn leaf_roundtrip() {
        let node = Node::Leaf {
            entries: (0..LEAF_CAPACITY as u32)
                .map(|i| entry(7, i, i as f64))
                .collect(),
            owner: Some(TrajectoryId(7)),
            prev: Some(PageId(3)),
            next: None,
        };
        let bytes = node.encode();
        assert_eq!(bytes.len(), PAGE_SIZE);
        let back = Node::decode(PageId(0), &bytes).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn internal_roundtrip() {
        let node = Node::Internal {
            level: 3,
            entries: (0..INTERNAL_CAPACITY as u32)
                .map(|i| InternalEntry {
                    child: PageId(i),
                    mbb: Mbb::new(
                        -(i as f64),
                        0.0,
                        i as f64,
                        i as f64 + 1.0,
                        2.0,
                        i as f64 + 5.0,
                    ),
                })
                .collect(),
        };
        let back = Node::decode(PageId(9), &node.encode()).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let node = Node::empty_leaf();
        let back = Node::decode(PageId(0), &node.encode()).unwrap();
        assert_eq!(back, node);
        assert!(back.is_empty());
        assert!(back.mbb().is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = 99; // unknown type
        assert!(matches!(
            Node::decode(PageId(1), &buf),
            Err(IndexError::CorruptNode { .. })
        ));
        // Internal node claiming level 0.
        let mut buf2 = vec![0u8; PAGE_SIZE];
        buf2[0] = TYPE_INTERNAL;
        buf2[1] = 0;
        assert!(Node::decode(PageId(1), &buf2).is_err());
        // Leaf with an absurd count.
        let mut buf3 = vec![0u8; PAGE_SIZE];
        buf3[0] = TYPE_LEAF;
        buf3[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(Node::decode(PageId(1), &buf3).is_err());
        // Wrong buffer length.
        assert!(Node::decode(PageId(1), &buf[..100]).is_err());
    }

    #[test]
    fn node_mbb_covers_entries() {
        let node = Node::Leaf {
            entries: vec![entry(1, 0, 0.0), entry(2, 5, 10.0)],
            owner: None,
            prev: None,
            next: None,
        };
        let mbb = node.mbb();
        if let Node::Leaf { entries, .. } = &node {
            for e in entries {
                let u = mbb.union(&e.mbb());
                assert_eq!(u, mbb);
            }
        }
    }
}
