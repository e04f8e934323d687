//! The log record grammar.
//!
//! Every record travels in one frame:
//!
//! ```text
//! frame    := payload_len:u32 checksum:u32 payload
//! payload  := lsn:u64 kind:u8 body
//! checksum := fold_bytes(payload)          (word-folded FNV, checksum.rs)
//!
//! body(Insert,  kind 1) := id:u64 samples
//! body(Delete,  kind 2) := id:u64
//! ```
//!
//! `samples` is the count-prefixed `(t, x, y)` list of
//! [`mst_index::codec`], through which every frame is written and read;
//! all integers and floats are little-endian. The checksum seals the
//! *whole* payload — LSN included — so a record can never be replayed
//! under a different sequence number than it was written with. `Insert`
//! and `Delete` are the logical ingest operations
//! ([`mst_exec::IngestOp`]); any other kind byte decodes as corrupt.

use mst_exec::IngestOp;
use mst_index::checksum::fold_bytes;
use mst_index::codec::{CodecError, Reader, Writer};
use mst_trajectory::{SamplePoint, Trajectory, TrajectoryId};

use crate::{Result, WalError};

/// `payload_len` + `checksum`.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on one payload (defensive: a corrupt length prefix must
/// not drive allocation). Generous next to real records — an `Insert` of
/// a 2000-sample trajectory is under 50 KiB.
pub const MAX_PAYLOAD: usize = 1 << 22;

/// One write-ahead log record (without its LSN, which frames carry).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A whole trajectory entering the database.
    Insert {
        /// The object's identity.
        id: TrajectoryId,
        /// The trajectory's sample points, in time order.
        points: Vec<SamplePoint>,
    },
    /// A trajectory (and all its segment entries) leaving the database.
    Delete {
        /// The object's identity.
        id: TrajectoryId,
    },
}

impl WalRecord {
    /// The logical record for one ingest operation.
    pub fn from_op(op: &IngestOp) -> WalRecord {
        match op {
            IngestOp::Insert { id, trajectory } => WalRecord::Insert {
                id: *id,
                points: trajectory.points().to_vec(),
            },
            IngestOp::Delete { id } => WalRecord::Delete { id: *id },
        }
    }

    /// The ingest operation a record replays as. A logged `Insert` always
    /// came from a valid trajectory, so a points list [`Trajectory::new`]
    /// rejects is corruption that slipped past the checksum — reported,
    /// not replayed.
    pub fn to_op(&self) -> Result<IngestOp> {
        match self {
            WalRecord::Insert { id, points } => {
                let trajectory = Trajectory::new(points.clone()).map_err(|e| {
                    WalError::Corrupt(format!("insert record for object {} : {e}", id.0))
                })?;
                Ok(IngestOp::Insert {
                    id: *id,
                    trajectory,
                })
            }
            WalRecord::Delete { id } => Ok(IngestOp::Delete { id: *id }),
        }
    }
}

/// Encodes one record as a sealed frame carrying `lsn`.
pub fn encode_frame(lsn: u64, record: &WalRecord) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    w.put_u64(0); // the header, sealed below once the payload is known
    w.put_u64(lsn);
    match record {
        WalRecord::Insert { id, points } => {
            w.put_u8(1);
            w.put_u64(id.0);
            w.put_samples(points);
        }
        WalRecord::Delete { id } => {
            w.put_u8(2);
            w.put_u64(id.0);
        }
    }
    let mut frame = w.into_bytes();
    let (header, payload) = frame.split_at_mut(FRAME_HEADER);
    let mut sealed = Writer::with_capacity(FRAME_HEADER);
    // A payload past `MAX_PAYLOAD` (let alone `u32::MAX`) decodes as corrupt.
    sealed.put_count(payload.len());
    sealed.put_u32(fold_bytes(payload));
    header.copy_from_slice(sealed.as_bytes());
    frame
}

/// The outcome of decoding the frame at the head of `buf`.
#[derive(Debug, PartialEq)]
pub enum Decoded {
    /// A sealed, parsed record occupying the first `consumed` bytes.
    Record {
        /// The record's log sequence number.
        lsn: u64,
        /// The record itself.
        record: WalRecord,
        /// Frame size in bytes (header + payload).
        consumed: usize,
    },
    /// `buf` ends mid-frame: the torn tail a crash leaves behind.
    Torn,
    /// A structurally complete frame whose checksum or body is garbage.
    Corrupt,
}

/// Decodes the frame at the head of `buf` (an empty `buf` is a clean
/// end, reported as [`Decoded::Torn`] with zero bytes — callers check
/// emptiness first when they care about the distinction).
pub fn decode_frame(buf: &[u8]) -> Decoded {
    let mut r = Reader::new(buf);
    let (Ok(len), Ok(stored_sum)) = (r.u32(), r.u32()) else {
        return Decoded::Torn;
    };
    let len = match usize::try_from(len) {
        Ok(len) if len <= MAX_PAYLOAD => len,
        _ => return Decoded::Corrupt,
    };
    let Ok(payload) = r.take(len) else {
        return Decoded::Torn;
    };
    if fold_bytes(payload) != stored_sum {
        return Decoded::Corrupt;
    }
    match parse_payload(Reader::new(payload)) {
        Ok((lsn, record)) => Decoded::Record {
            lsn,
            record,
            consumed: FRAME_HEADER + len,
        },
        Err(_) => Decoded::Corrupt,
    }
}

/// Parses a checksum-verified payload; an error is a structurally
/// impossible body (which a correct writer never produces).
fn parse_payload(mut r: Reader<'_>) -> std::result::Result<(u64, WalRecord), CodecError> {
    let lsn = r.u64()?;
    let record = match r.u8()? {
        1 => WalRecord::Insert {
            id: TrajectoryId(r.u64()?),
            points: r.samples()?,
        },
        2 => WalRecord::Delete {
            id: TrajectoryId(r.u64()?),
        },
        _ => return Err(CodecError::Invalid("record kind")),
    };
    r.finish()?;
    Ok((lsn, record))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert_record(id: u64, n: usize) -> WalRecord {
        WalRecord::Insert {
            id: TrajectoryId(id),
            points: (0..n)
                .map(|i| SamplePoint::new(i as f64, i as f64 * 0.5, id as f64))
                .collect(),
        }
    }

    #[test]
    fn every_record_kind_roundtrips() {
        let records = [
            insert_record(7, 5),
            WalRecord::Delete {
                id: TrajectoryId(9),
            },
        ];
        for (i, record) in records.iter().enumerate() {
            let frame = encode_frame(100 + i as u64, record);
            match decode_frame(&frame) {
                Decoded::Record {
                    lsn,
                    record: decoded,
                    consumed,
                } => {
                    assert_eq!(lsn, 100 + i as u64);
                    assert_eq!(&decoded, record);
                    assert_eq!(consumed, frame.len());
                }
                other => panic!("expected a record, got {other:?}"),
            }
        }
        // A well-sealed frame of any other kind is corrupt, not a record:
        // kind 3 (once a page image: shard, page, one page of bytes) and 0.
        for (kind, body) in [(3u8, 8 + mst_index::PAGE_SIZE), (0, 8)] {
            let mut payload = 7u64.to_le_bytes().to_vec();
            payload.push(kind);
            payload.resize(9 + body, 0xA5);
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&fold_bytes(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            assert_eq!(decode_frame(&frame), Decoded::Corrupt, "kind {kind}");
        }
    }

    #[test]
    fn truncation_at_every_depth_reads_as_torn() {
        let frame = encode_frame(1, &insert_record(1, 4));
        for cut in 0..frame.len() {
            assert_eq!(
                decode_frame(&frame[..cut]),
                Decoded::Torn,
                "cut at {cut} must look torn, not corrupt"
            );
        }
    }

    #[test]
    fn any_flipped_bit_reads_as_corrupt_or_torn_never_a_wrong_record() {
        let frame = encode_frame(42, &insert_record(2, 3));
        let original = match decode_frame(&frame) {
            Decoded::Record { record, .. } => record,
            other => panic!("sanity: {other:?}"),
        };
        for offset in 0..frame.len() {
            let mut bent = frame.clone();
            bent[offset] ^= 0x04;
            match decode_frame(&bent) {
                Decoded::Corrupt | Decoded::Torn => {}
                Decoded::Record { record, lsn, .. } => {
                    // Flipping a length-prefix bit can still frame a valid
                    // record only if the checksum collides — fold_bytes
                    // makes that astronomically unlikely; a passing decode
                    // here must be the identical record.
                    assert_eq!(record, original, "flip at {offset}");
                    assert_eq!(lsn, 42);
                }
            }
        }
    }

    #[test]
    fn hostile_length_prefixes_do_not_allocate() {
        let mut frame = encode_frame(
            1,
            &WalRecord::Delete {
                id: TrajectoryId(1),
            },
        );
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&frame), Decoded::Corrupt);
    }

    #[test]
    fn insert_records_convert_back_to_ops() {
        let op = IngestOp::Insert {
            id: TrajectoryId(5),
            trajectory: Trajectory::from_txy(&[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]).expect("valid"),
        };
        let record = WalRecord::from_op(&op);
        let back = record.to_op().expect("valid");
        assert_eq!(back, op);

        let del = IngestOp::Delete {
            id: TrajectoryId(5),
        };
        assert_eq!(WalRecord::from_op(&del).to_op().unwrap(), del);
    }
}
