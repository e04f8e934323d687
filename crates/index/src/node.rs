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

use crate::codec::{mbb_bytes, CodecError, Reader, Writer, LEAF_ENTRY_SIZE, MBB_SIZE};
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
        #[cfg(test)]
        tests::CODEC_CALLS.with(|c| c.set((c.get().0, c.get().1 + 1)));
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
            Node::Internal { entries, .. } => entries
                .iter()
                .for_each(|e| w.put_bytes(&internal_entry_bytes(e))),
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
        #[cfg(test)]
        tests::CODEC_CALLS.with(|c| c.set((c.get().0 + 1, c.get().1)));
        if buf.len() != PAGE_SIZE {
            return Err(IndexError::CorruptNode {
                page,
                reason: format!("page has {} bytes, expected {PAGE_SIZE}", buf.len()),
            });
        }
        read_node(Reader::new(buf)).map_err(corrupt(page))
    }
}

/// Maps a codec error on `page` onto [`IndexError::CorruptNode`].
fn corrupt(page: PageId) -> impl Fn(CodecError) -> IndexError {
    move |e| IndexError::CorruptNode {
        page,
        reason: e.to_string(),
    }
}

/// Reads a header's first word, checked as every reader of a page checks
/// it: a known node type, a count within its capacity (which always fits
/// the page, `capacities_match_layout`) and an internal node above level 0.
/// Returns `(is_leaf, level, count)`.
fn read_kind(r: &mut Reader<'_>) -> std::result::Result<(bool, u8, usize), CodecError> {
    let (node_type, level, count, _checksum) = (r.u8()?, r.u8()?, usize::from(r.u16()?), r.u32()?);
    let invalid = |what| Err(CodecError::Invalid(what));
    match node_type {
        TYPE_LEAF if count > LEAF_CAPACITY => invalid("leaf count exceeds capacity"),
        TYPE_INTERNAL if count > INTERNAL_CAPACITY => invalid("internal count exceeds capacity"),
        TYPE_INTERNAL if level == 0 => invalid("internal node with level 0"),
        TYPE_LEAF | TYPE_INTERNAL => Ok((node_type == TYPE_LEAF, level, count)),
        _ => invalid("unknown node type"),
    }
}

/// Reads one internal entry: the child page, then its checked box.
fn read_child(r: &mut Reader<'_>) -> std::result::Result<InternalEntry, CodecError> {
    let mut e = Reader::new(r.take(INTERNAL_ENTRY_SIZE)?);
    let child = PageId(e.u32()?);
    Ok(InternalEntry {
        child,
        mbb: e.mbb()?,
    })
}

/// One internal entry's bytes, as a page holds them.
pub(crate) fn internal_entry_bytes(e: &InternalEntry) -> [u8; INTERNAL_ENTRY_SIZE] {
    let mut b = [0u8; INTERNAL_ENTRY_SIZE];
    b[..4].copy_from_slice(&e.child.0.to_le_bytes());
    b[4..].copy_from_slice(&mbb_bytes(&e.mbb));
    b
}

/// Reads one node from a `PAGE_SIZE` slice.
fn read_node(mut r: Reader<'_>) -> std::result::Result<Node, CodecError> {
    let (leaf, level, count) = read_kind(&mut r)?;
    let (owner, prev, next) = (r.u64()?, r.u32()?, r.u32()?);
    if leaf {
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(r.leaf_entry()?);
        }
        return Ok(Node::Leaf {
            entries,
            owner: (owner != NO_OWNER).then_some(TrajectoryId(owner)),
            prev: (prev != PageId::NONE.0).then_some(PageId(prev)),
            next: (next != PageId::NONE.0).then_some(PageId(next)),
        });
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(read_child(&mut r)?);
    }
    Ok(Node::Internal { level, entries })
}

/// The write path's view of a page it does not decode: the header checked
/// as [`Node::decode`] checks it and entries reached by slot, with nothing
/// allocated. Every failure is an [`IndexError::CorruptNode`].
pub(crate) mod in_place {
    use super::*;

    /// `(is_leaf, count)` of a page.
    pub(crate) fn head(page: PageId, buf: &[u8]) -> Result<(bool, usize)> {
        let (leaf, _, count) = read_kind(&mut Reader::new(buf)).map_err(corrupt(page))?;
        Ok((leaf, count))
    }

    /// The entries of an internal page in slot order, each box checked (a
    /// leaf or a childless page is refused).
    pub(crate) fn children(
        page: PageId,
        buf: &[u8],
    ) -> Result<impl Iterator<Item = Result<InternalEntry>> + '_> {
        let mut r = Reader::new(buf.get(HEADER_SIZE..).unwrap_or_default());
        match head(page, buf)? {
            (false, count) if count > 0 => {
                Ok((0..count).map(move |_| read_child(&mut r).map_err(corrupt(page))))
            }
            _ => Err(corrupt(page)(CodecError::Invalid("not a parent node"))),
        }
    }

    /// An internal page's box: its children's boxes folded in slot order,
    /// as [`Node::mbb`] folds them.
    pub(crate) fn mbb(page: PageId, buf: &[u8]) -> Result<Mbb> {
        children(page, buf)?.try_fold(Mbb::empty(), |acc, e| Ok(acc.union(&e?.mbb)))
    }

    fn slice(page: PageId, buf: &mut [u8], at: usize, len: usize) -> Result<&mut [u8]> {
        buf.get_mut(at..at + len)
            .ok_or(corrupt(page)(CodecError::Short))
    }

    /// Overwrites the box of child `slot` of an internal page.
    pub(crate) fn set_box(page: PageId, buf: &mut [u8], slot: usize, mbb: &Mbb) -> Result<()> {
        if !matches!(head(page, buf)?, (false, count) if slot < count) {
            return Err(corrupt(page)(CodecError::Invalid("no such child")));
        }
        let at = HEADER_SIZE + slot * INTERNAL_ENTRY_SIZE + 4;
        slice(page, buf, at, MBB_SIZE)?.copy_from_slice(&mbb_bytes(mbb));
        Ok(())
    }

    /// Writes an encoded entry (a leaf's or a child's, told by its length)
    /// at slot `count` and bumps the count: the bytes [`Node::encode`]
    /// writes for the node with the entry pushed.
    pub(crate) fn push(page: PageId, buf: &mut [u8], entry: &[u8]) -> Result<()> {
        let (leaf, count) = head(page, buf)?;
        let size = entry.len();
        if leaf != (size == LEAF_ENTRY_SIZE) || count >= (PAGE_SIZE - HEADER_SIZE) / size {
            return Err(corrupt(page)(CodecError::Invalid("no room for the entry")));
        }
        slice(page, buf, HEADER_SIZE + count * size, size)?.copy_from_slice(entry);
        let bumped = u16::try_from(count + 1).unwrap_or(u16::MAX);
        slice(page, buf, 2, 2)?.copy_from_slice(&bumped.to_le_bytes());
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mst_trajectory::SamplePoint;

    thread_local! {
        /// `(decodes, encodes)` of nodes on this thread: lets a test pin
        /// that a write path decodes and encodes nothing.
        pub(crate) static CODEC_CALLS: std::cell::Cell<(u64, u64)> =
            const { std::cell::Cell::new((0, 0)) };
    }

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
