//! Single-file persistence for the index structures.
//!
//! Every substrate serializes into the same framed binary image:
//!
//! ```text
//! magic   "MSTIDX02"                       8 bytes
//! kind    u8 (0 = 3D R-tree, 1 = TB-tree, 2 = STR-tree, 3 = metric tree)
//! lsn     u64  (log sequence number the image is consistent through)
//! root    u32 (PageId::NONE for empty)
//! height  u8
//! entries u64
//! vmax    f64
//! pages   u64  (total allocated slots, including freed)
//! free    u32 count, then that many u32 page ids
//! tips    u32 count, then (u64 traj, u32 page) pairs   (empty for the R-tree)
//! parents u32 count, then (u32 child, u32 parent) pairs (TB- and STR-tree)
//! data    pages × 4096 raw bytes
//! ```
//!
//! Dirty buffered pages are flushed before the image is taken, so the file
//! is a faithful snapshot. Loading rebuilds the store and a cold buffer —
//! the image is validated structurally on first use by the usual node
//! decoding (plus [`crate::check_invariants`] for the paranoid).
//!
//! The `lsn` field couples an image to a write-ahead log: it names the
//! last log record the image already contains, so recovery is
//! `load(image) + replay(lsn..)`. Images saved outside a durability
//! wrapper carry LSN 0 ("contains nothing from any log").

use std::io::Write;

use mst_trajectory::TrajectoryId;

use crate::codec::{CodecError, Reader, Writer};
use crate::shared::Pager;
use crate::tree::{sorted_pairs, TreeCore};
use crate::{IndexError, PageId, PageStore, Result, PAGE_SIZE};

const MAGIC: &[u8; 8] = b"MSTIDX02";

/// Which tree kind a persisted image holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageKind {
    /// A 3D R-tree image.
    Rtree3D,
    /// A TB-tree image.
    TbTree,
    /// An STR-tree image.
    StrTree,
    /// A metric-tree image.
    MetricTree,
}

/// Everything needed to reconstruct a tree.
pub(crate) struct Image {
    pub kind: ImageKind,
    /// Log sequence number this image is consistent through (0 when the
    /// image was saved outside a write-ahead-log wrapper).
    pub lsn: u64,
    pub root: Option<PageId>,
    pub height: u8,
    pub entries: u64,
    pub max_speed: f64,
    pub pages: Vec<Box<[u8]>>,
    pub free_list: Vec<PageId>,
    pub tips: Vec<(TrajectoryId, PageId)>,
    pub parents: Vec<(PageId, PageId)>,
}

fn io_err(e: std::io::Error) -> IndexError {
    IndexError::Persist(e.to_string())
}

impl Image {
    /// The image of `core` as its page store stands (flush first), stamped
    /// with `kind` and `lsn`. The one place a tree becomes an image.
    pub(crate) fn capture(core: &TreeCore, kind: ImageKind, lsn: u64, with_parents: bool) -> Image {
        let io = core.pager.peek();
        Image {
            kind,
            lsn,
            root: core.root,
            height: core.height,
            entries: core.num_entries,
            max_speed: core.max_speed,
            pages: io.store.raw_pages().map(Box::from).collect(),
            free_list: io.store.free_list().to_vec(),
            tips: sorted_pairs(&core.tips),
            parents: if with_parents {
                sorted_pairs(&core.parents)
            } else {
                Vec::new()
            },
        }
    }

    /// Rebuilds the page store behind a cold buffer and hands back the
    /// tree the image describes.
    pub(crate) fn into_core(self) -> TreeCore {
        TreeCore {
            pager: Pager::from_store(PageStore::from_raw(self.pages, self.free_list)),
            root: self.root,
            height: self.height,
            num_entries: self.entries,
            max_speed: self.max_speed,
            tips: self.tips.into_iter().collect(),
            parents: self.parents.into_iter().collect(),
        }
    }

    pub(crate) fn write_to<W: Write>(&self, mut w: W) -> Result<()> {
        let mut header = Writer::with_capacity(64);
        header.put_bytes(MAGIC);
        header.put_u8(match self.kind {
            ImageKind::Rtree3D => 0,
            ImageKind::TbTree => 1,
            ImageKind::StrTree => 2,
            ImageKind::MetricTree => 3,
        });
        header.put_u64(self.lsn);
        header.put_u32(self.root.unwrap_or(PageId::NONE).0);
        header.put_u8(self.height);
        header.put_u64(self.entries);
        header.put_f64(self.max_speed);
        header.put_u64(len_u64(self.pages.len(), "page")?);
        header.put_u32(len_u32(self.free_list.len(), "free-list")?);
        for id in &self.free_list {
            header.put_u32(id.0);
        }
        header.put_u32(len_u32(self.tips.len(), "tip")?);
        for (traj, page) in &self.tips {
            header.put_u64(traj.0);
            header.put_u32(page.0);
        }
        header.put_u32(len_u32(self.parents.len(), "parent")?);
        for (child, parent) in &self.parents {
            header.put_u32(child.0);
            header.put_u32(parent.0);
        }
        w.write_all(header.as_bytes()).map_err(io_err)?;
        for page in &self.pages {
            w.write_all(page).map_err(io_err)?;
        }
        w.flush().map_err(io_err)
    }

    /// Parses an image. Every count is checked against the bytes present
    /// before anything is allocated for it, so a hostile header is a
    /// clean [`IndexError::Persist`].
    pub(crate) fn read_from(bytes: &[u8]) -> Result<Image> {
        Self::parse(Reader::new(bytes))
            .map_err(|e| IndexError::Persist(format!("index image: {e}")))
    }

    fn parse(mut r: Reader<'_>) -> std::result::Result<Image, CodecError> {
        if r.take(MAGIC.len())? != MAGIC {
            return Err(CodecError::Invalid("bad magic — not an index image"));
        }
        let kind = match r.u8()? {
            0 => ImageKind::Rtree3D,
            1 => ImageKind::TbTree,
            2 => ImageKind::StrTree,
            3 => ImageKind::MetricTree,
            _ => return Err(CodecError::Invalid("unknown tree kind")),
        };
        let lsn = r.u64()?;
        let root_raw = r.u32()?;
        let height = r.u8()?;
        let entries = r.u64()?;
        let max_speed = r.f64()?;
        if !max_speed.is_finite() || max_speed < 0.0 {
            return Err(CodecError::Invalid("invalid vmax"));
        }
        let num_pages = r.count_u64(PAGE_SIZE)?;
        let free_count = r.count(4)?;
        if free_count > num_pages {
            return Err(CodecError::Invalid("more free pages than allocated"));
        }
        let free_list = (0..free_count)
            .map(|_| Ok(PageId(r.u32()?)))
            .collect::<std::result::Result<_, CodecError>>()?;
        let tips_count = r.count(12)?;
        let tips = (0..tips_count)
            .map(|_| Ok((TrajectoryId(r.u64()?), PageId(r.u32()?))))
            .collect::<std::result::Result<_, CodecError>>()?;
        let parents_count = r.count(8)?;
        let parents = (0..parents_count)
            .map(|_| Ok((PageId(r.u32()?), PageId(r.u32()?))))
            .collect::<std::result::Result<_, CodecError>>()?;
        let pages = (0..num_pages)
            .map(|_| r.take(PAGE_SIZE).map(Box::from))
            .collect::<std::result::Result<_, CodecError>>()?;
        let root = (root_raw != PageId::NONE.0).then_some(PageId(root_raw));
        if root.is_some_and(|root| root.index() >= num_pages) {
            return Err(CodecError::Invalid("root outside the image"));
        }
        r.finish()?;
        Ok(Image {
            kind,
            lsn,
            root,
            height,
            entries,
            max_speed,
            pages,
            free_list,
            tips,
            parents,
        })
    }
}

/// Converts a collection length to the on-disk `u64` count field.
fn len_u64(n: usize, what: &str) -> Result<u64> {
    u64::try_from(n).map_err(|_| IndexError::Persist(format!("{what} count {n} exceeds u64")))
}

/// Converts a collection length to the on-disk `u32` count field.
fn len_u32(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| IndexError::Persist(format!("{what} count {n} exceeds u32")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_garbage_images() {
        let err = Image::read_from(&b"not an index"[..])
            .err()
            .expect("must fail");
        assert!(matches!(err, IndexError::Persist(_)));
        // Correct magic, truncated body.
        let err = Image::read_from(&b"MSTIDX02"[..]).err().expect("must fail");
        assert!(matches!(err, IndexError::Persist(_)));
        // A previous-generation magic is a clean rejection, not a
        // misparse: the LSN field changed the layout.
        let err = Image::read_from(&b"MSTIDX01"[..]).err().expect("must fail");
        assert!(matches!(err, IndexError::Persist(_)));
        // Unknown kind byte.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(9);
        let err = Image::read_from(&buf[..]).err().expect("must fail");
        assert!(matches!(err, IndexError::Persist(_)));
    }
}

#[cfg(test)]
mod roundtrip_tests {
    use crate::{check_invariants, LeafEntry, Rtree3D, StrTree, TbTree, TrajectoryIndex};
    use mst_trajectory::{Mbb, SamplePoint, Segment, TrajectoryId};

    fn entry(id: u64, seq: u32, t: f64) -> LeafEntry {
        LeafEntry {
            traj: TrajectoryId(id),
            seq,
            segment: Segment::new(
                SamplePoint::new(t, f64::from(seq) * 0.7 + id as f64, 0.3 * id as f64),
                SamplePoint::new(
                    t + 1.0,
                    f64::from(seq) * 0.7 + id as f64 + 0.5,
                    0.3 * id as f64,
                ),
            )
            .unwrap(),
        }
    }

    #[test]
    fn rtree_roundtrips_through_bytes() {
        let mut tree = Rtree3D::new();
        for s in 0..120u32 {
            for id in 0..5u64 {
                tree.insert(entry(id, s, f64::from(s))).unwrap();
            }
        }
        // Exercise the free list too.
        for s in (0..120u32).step_by(7) {
            assert!(tree.delete(TrajectoryId(2), s).unwrap());
        }
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();
        let mut loaded = Rtree3D::load(&bytes[..]).unwrap();

        assert_eq!(loaded.num_entries(), tree.num_entries());
        assert_eq!(loaded.height(), tree.height());
        assert_eq!(loaded.max_speed(), tree.max_speed());
        assert_eq!(loaded.num_pages(), tree.num_pages());
        check_invariants(&loaded).unwrap();
        // Every surviving entry is still reachable.
        let all = |t: &Rtree3D| {
            let mut v = t
                .range_query(&Mbb::new(-1e12, -1e12, -1e12, 1e12, 1e12, 1e12))
                .unwrap();
            v.sort_by_key(|e| (e.traj, e.seq));
            v
        };
        assert_eq!(all(&loaded), all(&tree));
        // The loaded tree keeps working.
        loaded.insert(entry(9, 0, 500.0)).unwrap();
        check_invariants(&loaded).unwrap();
    }

    #[test]
    fn tbtree_roundtrips_with_tips_and_parents() {
        let mut tree = TbTree::new();
        for s in 0..200u32 {
            for id in 0..4u64 {
                tree.insert(entry(id, s, f64::from(s))).unwrap();
            }
        }
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();
        let mut loaded = TbTree::load(&bytes[..]).unwrap();
        assert_eq!(loaded.num_entries(), 800);
        check_invariants(&loaded).unwrap();
        // Leaf-list reconstruction still works (tips survived).
        let segs = loaded.trajectory_segments(TrajectoryId(3)).unwrap();
        assert_eq!(segs.len(), 200);
        // And appending continues where the tip left off (parents survived).
        loaded.insert(entry(3, 200, 200.0)).unwrap();
        assert_eq!(
            loaded.trajectory_segments(TrajectoryId(3)).unwrap().len(),
            201
        );
        check_invariants(&loaded).unwrap();
    }

    #[test]
    fn strtree_roundtrips_through_bytes() {
        let mut tree = StrTree::new();
        for s in 0..150u32 {
            for id in 0..5u64 {
                tree.insert(entry(id, s, f64::from(s))).unwrap();
            }
        }
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();
        let mut loaded = StrTree::load(&bytes[..]).unwrap();

        assert_eq!(loaded.num_entries(), tree.num_entries());
        assert_eq!(loaded.height(), tree.height());
        assert_eq!(loaded.max_speed(), tree.max_speed());
        assert_eq!(loaded.num_pages(), tree.num_pages());
        check_invariants(&loaded).unwrap();
        // Every entry is still reachable, bit-identically.
        let all = |t: &StrTree| {
            let mut v = t
                .range_query(&Mbb::new(-1e12, -1e12, -1e12, 1e12, 1e12, 1e12))
                .unwrap();
            v.sort_by_key(|e| (e.traj, e.seq));
            v
        };
        assert_eq!(all(&loaded), all(&tree));
        // The loaded tree keeps accepting inserts.
        loaded.insert(entry(9, 0, 500.0)).unwrap();
        check_invariants(&loaded).unwrap();
    }

    /// Truncating a saved STR-tree image at any depth is a clean
    /// [`IndexError::Persist`](crate::IndexError::Persist) — the variant
    /// existed but only R-tree/TB-tree images had truncation coverage.
    #[test]
    fn truncated_strtree_images_are_rejected_at_every_depth() {
        let mut tree = StrTree::new();
        for s in 0..150u32 {
            for id in 0..5u64 {
                tree.insert(entry(id, s, f64::from(s))).unwrap();
            }
        }
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();
        assert!(StrTree::load(&bytes[..]).is_ok(), "untruncated sanity");

        let cuts = [
            4,               // inside the magic
            12,              // inside the LSN field
            48,              // around the free list / tips counts
            bytes.len() / 2, // mid page data
            bytes.len() - 1, // one byte short
        ];
        for cut in cuts {
            let err = StrTree::load(&bytes[..cut])
                .err()
                .unwrap_or_else(|| panic!("truncation at {cut} must fail"));
            assert!(
                matches!(err, crate::IndexError::Persist(_)),
                "truncation at {cut}: expected Persist, got {err:?}"
            );
        }
    }

    /// The LSN stamp survives the round trip on every substrate, and the
    /// plain `save`/`load` pair behaves as LSN 0.
    #[test]
    fn lsn_stamp_roundtrips() {
        let mut rtree = Rtree3D::new();
        rtree.insert(entry(0, 0, 0.0)).unwrap();
        let mut bytes = Vec::new();
        rtree.save_lsn(&mut bytes, 0xDEAD_BEEF_CAFE).unwrap();
        let (_, lsn) = Rtree3D::load_lsn(&bytes[..]).unwrap();
        assert_eq!(lsn, 0xDEAD_BEEF_CAFE);

        let mut tb = TbTree::new();
        tb.insert(entry(0, 0, 0.0)).unwrap();
        bytes.clear();
        tb.save_lsn(&mut bytes, 7).unwrap();
        let (_, lsn) = TbTree::load_lsn(&bytes[..]).unwrap();
        assert_eq!(lsn, 7);

        let mut st = StrTree::new();
        st.insert(entry(0, 0, 0.0)).unwrap();
        bytes.clear();
        st.save(&mut bytes).unwrap();
        let (_, lsn) = StrTree::load_lsn(&bytes[..]).unwrap();
        assert_eq!(lsn, 0, "plain save stamps LSN 0");
    }

    /// A 58-byte image whose header claims 2^60 pages is refused before
    /// anything is allocated for them: the page count is checked against
    /// the bytes present, as every other count is.
    #[test]
    fn a_hostile_page_count_is_refused_before_allocating() {
        let mut bytes = b"MSTIDX02".to_vec();
        bytes.push(0); // kind: R-tree
        bytes.extend_from_slice(&0u64.to_le_bytes()); // lsn
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // no root
        bytes.push(0); // height
        bytes.extend_from_slice(&0u64.to_le_bytes()); // entries
        bytes.extend_from_slice(&0f64.to_le_bytes()); // vmax
        bytes.extend_from_slice(&(1u64 << 60).to_le_bytes()); // pages
        for _ in 0..3 {
            bytes.extend_from_slice(&0u32.to_le_bytes()); // free, tips, parents
        }
        assert_eq!(bytes.len(), 58);
        let err = Rtree3D::load(&bytes).err().expect("must fail");
        assert!(matches!(err, crate::IndexError::Persist(_)), "{err:?}");
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let mut rtree = Rtree3D::new();
        rtree.insert(entry(0, 0, 0.0)).unwrap();
        let mut bytes = Vec::new();
        rtree.save(&mut bytes).unwrap();
        assert!(TbTree::load(&bytes[..]).is_err());
        assert!(Rtree3D::load(&bytes[..]).is_ok());
    }

    /// Truncating a saved image at any depth — inside the header, inside
    /// the free list, mid-page, or one byte short — is a clean
    /// [`IndexError::Persist`](crate::IndexError::Persist), never a panic
    /// or a silently short tree.
    #[test]
    fn truncated_images_are_rejected_at_every_depth() {
        let mut tree = Rtree3D::new();
        for s in 0..120u32 {
            for id in 0..5u64 {
                tree.insert(entry(id, s, f64::from(s))).unwrap();
            }
        }
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();
        assert!(Rtree3D::load(&bytes[..]).is_ok(), "untruncated sanity");

        let cuts = [
            4,               // inside the magic
            10,              // inside the fixed header
            40,              // around the free list / tips counts
            bytes.len() / 2, // mid page data
            bytes.len() - 1, // one byte short
        ];
        for cut in cuts {
            let err = Rtree3D::load(&bytes[..cut])
                .err()
                .unwrap_or_else(|| panic!("truncation at {cut} must fail"));
            assert!(
                matches!(err, crate::IndexError::Persist(_)),
                "truncation at {cut}: expected Persist, got {err:?}"
            );
        }
    }

    /// A single flipped bit in the page-data region survives loading (the
    /// image is structurally sound) but is caught by the page checksum on
    /// the first fetch of the rotten page — and the page is quarantined
    /// afterwards, so the second fetch fast-fails without re-reading.
    #[test]
    fn bit_flipped_page_is_caught_on_first_fetch_and_quarantined() {
        let mut tree = Rtree3D::new();
        for s in 0..120u32 {
            for id in 0..5u64 {
                tree.insert(entry(id, s, f64::from(s))).unwrap();
            }
        }
        let root = tree.root().expect("non-empty tree");
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();

        // The page data is the image's tail: pages × PAGE_SIZE raw bytes.
        let data_start = bytes.len() - tree.num_pages() * crate::PAGE_SIZE;
        let rot = data_start + root.index() * crate::PAGE_SIZE + 100;
        bytes[rot] ^= 0x10;

        let loaded = Rtree3D::load(&bytes[..]).expect("structurally sound image loads");
        let err = loaded.read_node(root).expect_err("rot must surface");
        match err {
            crate::IndexError::ChecksumMismatch {
                page,
                expected,
                found,
            } => {
                assert_eq!(page, root);
                assert_ne!(expected, found);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // Retries exhausted on a persistently-rotten page ⇒ quarantined.
        match loaded.read_node(root).expect_err("still unavailable") {
            crate::IndexError::PageUnavailable { page, reason } => {
                assert_eq!(page, root);
                assert_eq!(reason, crate::Unavailability::Quarantined);
            }
            other => panic!("expected PageUnavailable, got {other:?}"),
        }
    }

    /// Same rot, but on a page the search never touches: queries against
    /// the healthy part of the tree keep answering.
    #[test]
    fn rot_outside_the_search_path_leaves_other_reads_working() {
        let mut tree = Rtree3D::new();
        for s in 0..120u32 {
            for id in 0..5u64 {
                tree.insert(entry(id, s, f64::from(s))).unwrap();
            }
        }
        let root = tree.root().expect("non-empty tree");
        // Pick a victim that is not the root.
        let victim = (0..tree.num_pages() as u32)
            .map(crate::PageId)
            .find(|p| *p != root)
            .expect("more than one page");
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();
        let data_start = bytes.len() - tree.num_pages() * crate::PAGE_SIZE;
        bytes[data_start + victim.index() * crate::PAGE_SIZE + 9] ^= 0x01;

        let loaded = Rtree3D::load(&bytes[..]).expect("loads");
        // The root still reads cleanly.
        loaded.read_node(root).expect("healthy page reads fine");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mst_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rtree.idx");
        let mut tree = Rtree3D::new();
        for s in 0..50u32 {
            tree.insert(entry(1, s, f64::from(s))).unwrap();
        }
        tree.save_to_path(&path).unwrap();
        let loaded = Rtree3D::load_from_path(&path).unwrap();
        assert_eq!(loaded.num_entries(), 50);
        check_invariants(&loaded).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
