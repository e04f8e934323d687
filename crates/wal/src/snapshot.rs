//! Whole-database snapshot images, LSN-stamped.
//!
//! A snapshot captures every shard — trajectory store *and* index image
//! (the `persist.rs` `MSTIDX02` format, which itself carries the LSN) —
//! sealed with a [`fold_bytes`] trailer over the whole byte stream:
//!
//! ```text
//! snapshot := "MSTWALSS" lsn:u64 shard_count:u32 shard{shard_count} sum:u32
//! shard    := object_count:u32 object{object_count} image_len:u64 image
//! object   := id:u64 samples
//! ```
//!
//! `samples` is the count-prefixed `(t, x, y)` list of
//! [`mst_index::codec`], through which the whole snapshot is written and
//! read.
//!
//! Shards appear in routing order, objects in store order, so the same
//! database state encodes to the same bytes — which is what lets the
//! recovery suite assert replay-twice idempotence on image bits.
//!
//! [`DurableSubstrate`] is the seam that lets the codec stay generic
//! over the index substrates: it re-routes the tree's inherent
//! `save_lsn`/`load_lsn` (which validate the image kind), adds
//! [`DurableSubstrate::fresh`] for bootstrapping an empty database, and
//! declares whether the substrate can honor delete records
//! ([`DurableSubstrate::SUPPORTS_DELETE`] — checked *before* logging, so
//! the log never holds an op replay cannot apply).

use std::io::Write;

use mst_exec::ShardedDatabase;
use mst_index::checksum::fold_bytes;
use mst_index::codec::{CodecError, Reader, Writer};
use mst_index::{InsertionPolicy, PagedTree, TrajectoryIndexWrite};
use mst_search::{KmstSubstrate, MovingObjectDatabase, TrajectoryStore};
use mst_trajectory::{Trajectory, TrajectoryId};

use crate::{Result, WalError};

const MAGIC: &[u8; 8] = b"MSTWALSS";

/// An index substrate the durable store can checkpoint and recover.
pub trait DurableSubstrate: TrajectoryIndexWrite + KmstSubstrate + Sized {
    /// Substrate name, for error messages and bench labels.
    const NAME: &'static str;

    /// Whether [`TrajectoryIndexWrite::delete_entry`] works. Checked
    /// before a delete is logged: a substrate that cannot delete must
    /// never be asked to replay one.
    const SUPPORTS_DELETE: bool;

    /// An empty index (bootstrapping a brand-new database).
    fn fresh() -> Self;

    /// Serializes the index, stamped as consistent through `lsn`.
    fn save_image<W: Write>(&mut self, writer: W, lsn: u64) -> mst_index::Result<()>;

    /// Reconstructs an index from an image, returning its LSN stamp.
    fn load_image(bytes: &[u8]) -> mst_index::Result<(Self, u64)>;
}

/// Every paged substrate is durable the same way: its policy declares the
/// name and the delete capability next to the substrate itself, and the
/// image methods are the tree's own.
impl<P: InsertionPolicy> DurableSubstrate for PagedTree<P>
where
    PagedTree<P>: KmstSubstrate,
{
    const NAME: &'static str = P::NAME;
    const SUPPORTS_DELETE: bool = P::SUPPORTS_DELETE;

    fn fresh() -> Self {
        PagedTree::new()
    }

    fn save_image<W: Write>(&mut self, writer: W, lsn: u64) -> mst_index::Result<()> {
        self.save_lsn(writer, lsn)
    }

    fn load_image(bytes: &[u8]) -> mst_index::Result<(Self, u64)> {
        PagedTree::load_lsn(bytes)
    }
}

/// Encodes the whole database as a snapshot consistent through `lsn`.
/// Takes the write half of each shard's gate in turn (saving an image
/// flushes the index's buffer), one shard at a time, so it can run while
/// the other shards answer queries.
pub fn encode_snapshot<I: DurableSubstrate>(db: &ShardedDatabase<I>, lsn: u64) -> Result<Vec<u8>> {
    let mut w = Writer::default();
    w.put_bytes(MAGIC);
    w.put_u64(lsn);
    let shards = db.shards();
    for shard in shards.iter().take(w.put_count(shards.len())) {
        shard.write(|shard_db| {
            let store = shard_db.store();
            for (id, traj) in store.iter().take(w.put_count(store.len())) {
                w.put_u64(id.0);
                w.put_samples(traj.points());
            }
            let mut image = Vec::new();
            shard_db.index_mut().save_image(&mut image, lsn)?;
            w.put_u64(u64::try_from(image.len()).unwrap_or(u64::MAX));
            w.put_bytes(&image);
            Ok::<(), mst_index::IndexError>(())
        })??;
    }
    let sum = fold_bytes(w.as_bytes());
    w.put_u32(sum);
    Ok(w.into_bytes())
}

/// Decodes a snapshot back into a database plus the LSN it is
/// consistent through. The trailer checksum is verified before any
/// parsing, every count is checked against the bytes present before
/// anything is allocated for it, each shard image's own LSN stamp must
/// agree with the header's, and every object must sit on its home shard
/// (`id % P`), once.
pub fn decode_snapshot<I: DurableSubstrate>(bytes: &[u8]) -> Result<(ShardedDatabase<I>, u64)> {
    let corrupt = |msg: &str| WalError::Corrupt(format!("snapshot: {msg}"));
    let codec = |e: CodecError| corrupt(&e.to_string());
    let body_len = bytes
        .len()
        .checked_sub(4)
        .ok_or_else(|| corrupt("shorter than its checksum trailer"))?;
    let (body, trailer) = bytes.split_at(body_len);
    if fold_bytes(body) != Reader::new(trailer).u32().map_err(codec)? {
        return Err(corrupt("checksum trailer mismatch"));
    }
    let mut r = Reader::new(body);
    if r.take(MAGIC.len()).map_err(codec)? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let lsn = r.u64().map_err(codec)?;
    // A shard is at least its object count and image length; an object
    // at least its id and point count.
    let shard_count = r.count(4 + 8).map_err(codec)?;
    let mut parts = Vec::with_capacity(shard_count);
    for shard_no in 0..shard_count {
        let mut store = TrajectoryStore::new();
        for _ in 0..r.count(8 + 4).map_err(codec)? {
            let id = TrajectoryId(r.u64().map_err(codec)?);
            let traj = Trajectory::new(r.samples().map_err(codec)?)
                .map_err(|e| corrupt(&format!("object {} invalid: {e}", id.0)))?;
            // Every id lives once, on shard `id % P`: where routing,
            // deletes and the search over the shards look for it.
            let home = u64::try_from(shard_count).map(|p| id.0 % p);
            if home.ok().and_then(|h| usize::try_from(h).ok()) != Some(shard_no)
                || store.get(id).is_some()
            {
                return Err(corrupt(&format!(
                    "object {} stored on shard {shard_no} of {shard_count}, or twice",
                    id.0
                )));
            }
            store.insert(id, traj);
        }
        let image_len = r.count_u64(1).map_err(codec)?;
        let (index, image_lsn) = I::load_image(r.take(image_len).map_err(codec)?)?;
        if image_lsn != lsn {
            return Err(corrupt(&format!(
                "shard {shard_no} image is at lsn {image_lsn}, header says {lsn}"
            )));
        }
        parts.push(MovingObjectDatabase::from_parts(index, store));
    }
    r.finish().map_err(codec)?;
    let db = ShardedDatabase::from_shard_parts(parts)?;
    Ok((db, lsn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_index::{MetricTree, Rtree3D, StrTree, TbTree, TrajectoryIndex};
    use mst_trajectory::SamplePoint;

    fn traj(id: u64, n: usize) -> (TrajectoryId, Trajectory) {
        let pts = (0..n)
            .map(|i| SamplePoint::new(i as f64, i as f64 * 0.25, id as f64))
            .collect();
        (TrajectoryId(id), Trajectory::new(pts).expect("valid"))
    }

    #[test]
    fn a_sharded_rtree_database_roundtrips_with_its_lsn() {
        let db = ShardedDatabase::with_rtree(3, (0..10u64).map(|id| traj(id, 6))).unwrap();
        let bytes = encode_snapshot(&db, 42).unwrap();
        let (back, lsn) = decode_snapshot::<Rtree3D>(&bytes).unwrap();
        assert_eq!(lsn, 42);
        assert_eq!(back.num_shards(), 3);
        assert_eq!(back.num_objects(), 10);
        for id in 0..10u64 {
            let id = TrajectoryId(id);
            assert_eq!(back.trajectory(id), db.trajectory(id));
        }
        for (a, b) in db.shards().iter().zip(back.shards()) {
            let want = a.read().unwrap().index().num_entries();
            let got = b.read().unwrap().index().num_entries();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn the_same_state_encodes_to_the_same_bytes() {
        let db = ShardedDatabase::with_tbtree(2, (0..6u64).map(|id| traj(id, 5))).unwrap();
        let a = encode_snapshot(&db, 7).unwrap();
        let (back, _) = decode_snapshot::<TbTree>(&a).unwrap();
        let b = encode_snapshot(&back, 7).unwrap();
        assert_eq!(a, b, "decode∘encode is byte-stable");
    }

    #[test]
    fn any_flipped_bit_is_rejected() {
        let db = ShardedDatabase::with_rtree(1, (0..3u64).map(|id| traj(id, 4))).unwrap();
        let bytes = encode_snapshot(&db, 1).unwrap();
        // Probe a spread of offsets (every byte would be slow: images are
        // page-sized). Include the magic, lsn, both length fields, the
        // trailer, and arbitrary interior bytes.
        let probes = [
            0,
            9,
            17,
            21,
            bytes.len() / 2,
            bytes.len() - 5,
            bytes.len() - 1,
        ];
        for &offset in &probes {
            let mut bent = bytes.clone();
            bent[offset] ^= 0x10;
            assert!(
                decode_snapshot::<Rtree3D>(&bent).is_err(),
                "flip at {offset} must be rejected"
            );
        }
        for cut in [0, 4, 11, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_snapshot::<Rtree3D>(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    /// A snapshot whose header claims `u32::MAX` shards is refused before
    /// anything is allocated for them. The trailer is re-sealed, so the
    /// count check is reached instead of the checksum check.
    #[test]
    fn a_hostile_shard_count_is_refused_before_allocating() {
        let db = ShardedDatabase::with_rtree(1, (0..2u64).map(|id| traj(id, 4))).unwrap();
        let mut bytes = encode_snapshot(&db, 3).unwrap();
        let shard_count = MAGIC.len() + 8;
        bytes[shard_count..shard_count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let body = bytes.len() - 4;
        let sum = fold_bytes(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_snapshot::<Rtree3D>(&bytes),
            Err(WalError::Corrupt(_))
        ));
    }

    /// A snapshot that stores an object off its home shard (or twice)
    /// is refused: decoded, it would plant a ghost that `trajectory(id)`
    /// and a delete look for on the home shard and never find, while a
    /// search still answers it.
    #[test]
    fn an_object_off_its_home_shard_is_refused() {
        let fleet = |ids: &[u64]| ids.iter().map(|&id| traj(id, 5)).collect::<Vec<_>>();
        let engine = |ids: &[u64]| MovingObjectDatabase::build(Rtree3D::new(), fleet(ids)).unwrap();
        let misrouted =
            ShardedDatabase::from_shard_parts(vec![engine(&[0, 3]), engine(&[1])]).expect("parts");
        let bytes = encode_snapshot(&misrouted, 5).unwrap();
        assert!(matches!(
            decode_snapshot::<Rtree3D>(&bytes),
            Err(WalError::Corrupt(msg)) if msg.contains("object 3")
        ));
        // Routed as `id % P`, the same objects decode.
        let routed = ShardedDatabase::from_shard_parts(vec![engine(&[0, 2]), engine(&[1, 3])])
            .expect("parts");
        let mut bytes = encode_snapshot(&routed, 5).unwrap();
        let (back, _) = decode_snapshot::<Rtree3D>(&bytes).unwrap();
        assert!(back.trajectory(TrajectoryId(3)).is_some());
        // Shard 0's second object renamed to its first: one id twice on
        // its home shard (the trailer re-sealed so the check is reached).
        let second = MAGIC.len() + 8 + 4 + 4 + (8 + 4 + 5 * 24);
        assert_eq!(bytes[MAGIC.len() + 16..][..8], 0u64.to_le_bytes());
        assert_eq!(bytes[second..][..8], 2u64.to_le_bytes());
        bytes[second..second + 8].copy_from_slice(&0u64.to_le_bytes());
        let body = bytes.len() - 4;
        let sum = fold_bytes(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_snapshot::<Rtree3D>(&bytes),
            Err(WalError::Corrupt(msg)) if msg.contains("object 0")
        ));
    }

    #[test]
    fn substrate_capabilities_are_declared() {
        assert_eq!(
            [Rtree3D::NAME, TbTree::NAME, StrTree::NAME, MetricTree::NAME],
            ["rtree", "tbtree", "strtree", "metric"]
        );
        assert_eq!(
            [
                Rtree3D::SUPPORTS_DELETE,
                TbTree::SUPPORTS_DELETE,
                StrTree::SUPPORTS_DELETE,
                MetricTree::SUPPORTS_DELETE
            ],
            [true, false, false, false]
        );
        assert_eq!(Rtree3D::fresh().num_entries(), 0);
    }
}
