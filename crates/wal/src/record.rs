//! The log record grammar.
//!
//! Every record travels in one frame:
//!
//! ```text
//! frame    := payload_len:u32 checksum:u32 payload
//! payload  := lsn:u64 kind:u8 body
//! checksum := fold_bytes(payload)          (word-folded FNV, checksum.rs)
//!
//! body(Insert,  kind 1) := id:u64 count:u32 (t:f64 x:f64 y:f64){count}
//! body(Delete,  kind 2) := id:u64
//! ```
//!
//! All integers and floats are little-endian. The checksum seals the
//! *whole* payload — LSN included — so a record can never be replayed
//! under a different sequence number than it was written with. `Insert`
//! and `Delete` are the logical ingest operations
//! ([`mst_exec::IngestOp`]); any other kind byte decodes as corrupt.

use mst_exec::IngestOp;
use mst_index::checksum::fold_bytes;
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

    /// The ingest operation a record replays as (`None` would be a record
    /// with no logical effect; no such kind exists, so replay applies
    /// every record). A logged `Insert` always came from a valid
    /// trajectory, so a points list [`Trajectory::new`] rejects is
    /// corruption that slipped past the checksum — reported, not replayed.
    pub fn to_op(&self) -> Result<Option<IngestOp>> {
        match self {
            WalRecord::Insert { id, points } => {
                let trajectory = Trajectory::new(points.clone()).map_err(|e| {
                    WalError::Corrupt(format!("insert record for object {} : {e}", id.0))
                })?;
                Ok(Some(IngestOp::Insert {
                    id: *id,
                    trajectory,
                }))
            }
            WalRecord::Delete { id } => Ok(Some(IngestOp::Delete { id: *id })),
        }
    }

    fn kind(&self) -> u8 {
        match self {
            WalRecord::Insert { .. } => 1,
            WalRecord::Delete { .. } => 2,
        }
    }
}

/// Encodes one record as a sealed frame carrying `lsn`.
pub fn encode_frame(lsn: u64, record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.push(record.kind());
    match record {
        WalRecord::Insert { id, points } => {
            payload.extend_from_slice(&id.0.to_le_bytes());
            payload.extend_from_slice(&(points.len() as u32).to_le_bytes());
            for p in points {
                payload.extend_from_slice(&p.t.to_le_bytes());
                payload.extend_from_slice(&p.x.to_le_bytes());
                payload.extend_from_slice(&p.y.to_le_bytes());
            }
        }
        WalRecord::Delete { id } => {
            payload.extend_from_slice(&id.0.to_le_bytes());
        }
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fold_bytes(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
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
    let Some(header) = buf.get(..FRAME_HEADER) else {
        return Decoded::Torn;
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let stored_sum = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_PAYLOAD {
        return Decoded::Corrupt;
    }
    let Some(payload) = buf.get(FRAME_HEADER..FRAME_HEADER + len) else {
        return Decoded::Torn;
    };
    if fold_bytes(payload) != stored_sum {
        return Decoded::Corrupt;
    }
    match parse_payload(payload) {
        Some((lsn, record)) => Decoded::Record {
            lsn,
            record,
            consumed: FRAME_HEADER + len,
        },
        None => Decoded::Corrupt,
    }
}

/// Parses a checksum-verified payload. `None` = structurally impossible
/// body (which a correct writer never produces).
fn parse_payload(payload: &[u8]) -> Option<(u64, WalRecord)> {
    let mut cur = Cursor { buf: payload };
    let lsn = cur.u64()?;
    let kind = cur.u8()?;
    let record = match kind {
        1 => {
            let id = TrajectoryId(cur.u64()?);
            let count = cur.u32()? as usize;
            // Exact-size check before the loop: the count must match the
            // remaining bytes, so a plausible-but-wrong count cannot
            // over-allocate or leave slack.
            if cur.remaining() != count.checked_mul(24)? {
                return None;
            }
            let mut points = Vec::with_capacity(count);
            for _ in 0..count {
                let t = cur.f64()?;
                let x = cur.f64()?;
                let y = cur.f64()?;
                points.push(SamplePoint::new(t, x, y));
            }
            WalRecord::Insert { id, points }
        }
        2 => WalRecord::Delete {
            id: TrajectoryId(cur.u64()?),
        },
        _ => return None,
    };
    if cur.remaining() != 0 {
        return None;
    }
    Some((lsn, record))
}

/// Minimal bounds-checked reader over a payload (shared with the
/// snapshot codec).
pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = (self.buf.get(..n)?, self.buf.get(n..)?);
        self.buf = rest;
        Some(head)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
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
        let back = record.to_op().expect("valid").expect("logical");
        assert_eq!(back, op);

        let del = IngestOp::Delete {
            id: TrajectoryId(5),
        };
        assert_eq!(WalRecord::from_op(&del).to_op().unwrap(), Some(del));
    }
}
