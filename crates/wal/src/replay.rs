//! Reading the log back: torn-tail-tolerant, gap-intolerant.
//!
//! A crash interrupts the log mid-write, so the *final* segment is
//! allowed to end in an incomplete frame ([`TailState::Torn`]) or a
//! checksum-failing one ([`TailState::Corrupt`]) — replay stops cleanly
//! at the last valid record and reports where the damage starts (the
//! repair offset). The same damage anywhere *else* cannot be a crash
//! artifact and is refused as real corruption, as is any discontinuity
//! in the LSN chain: the records handed back are always the gapless
//! run `from_lsn..next_lsn`.

use crate::record::{decode_frame, Decoded, WalRecord};
use crate::{LogStore, Result, WalError};

/// How the final segment ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// At a record boundary — the normal shutdown shape.
    Clean,
    /// Mid-frame — the shape a crash during an append leaves.
    Torn,
    /// A structurally complete frame with a bad checksum — the shape a
    /// torn write *inside* a sector, or bit rot, leaves.
    Corrupt,
}

/// What a log scan recovered.
#[derive(Debug)]
pub struct ReplayReport {
    /// The gapless run of records `from_lsn..next_lsn`, ascending.
    pub records: Vec<(u64, WalRecord)>,
    /// How the final segment ends.
    pub tail: TailState,
    /// Start LSN of the final segment, if the log has any segments.
    pub tail_segment: Option<u64>,
    /// Valid-prefix length of the final segment in bytes — the repair
    /// point: rewriting the segment to this length removes the damage
    /// without touching any record.
    pub tail_valid_bytes: u64,
    /// The LSN after the last valid record (where writing resumes).
    pub next_lsn: u64,
}

/// Scans every segment in LSN order and returns the records at or after
/// `from_lsn` (the snapshot's LSN + 1). Errors are permanent: chain
/// gaps, damage outside the final segment, or a log that ends before
/// reaching `from_lsn`.
pub fn replay<S: LogStore>(store: &S, from_lsn: u64) -> Result<ReplayReport> {
    let mut records: Vec<(u64, WalRecord)> = Vec::new();
    let mut report = walk(store, from_lsn, false, |lsn, record, _| {
        records.push((lsn, record));
        true
    })?;
    let next_lsn = report.next_lsn;
    match records.first() {
        // No replayable records is fine only when the log's end meets the
        // snapshot exactly; anything else means records were lost.
        None if next_lsn != from_lsn => {
            return Err(WalError::Corrupt(format!(
                "log ends at lsn {next_lsn} but the snapshot expects replay from {from_lsn}"
            )));
        }
        Some((first, _)) if *first != from_lsn => {
            return Err(WalError::Corrupt(format!(
                "first replayable record is lsn {first} but the snapshot expects {from_lsn}"
            )));
        }
        _ => {}
    }
    report.records = records;
    Ok(report)
}

/// The one reader of the log, under both [`replay`] and
/// [`read_committed_frames`](crate::read_committed_frames). Walks every
/// frame in LSN order and checks that segment names chain without gaps,
/// that every frame decodes, and that LSNs run on by exactly one. Damage
/// in the final segment ends the walk (the crash shape); anywhere else it
/// is an error. `visit` sees each record at or after `from_lsn` with its
/// raw frame bytes and returns `false` to stop early (the returned report
/// then describes only the part walked); the report's `records` stay
/// empty, keeping them is the visitor's choice. With `skip_below`,
/// segments wholly below `from_lsn` are chain-checked by name only, not
/// read.
pub(crate) fn walk<S: LogStore>(
    store: &S,
    from_lsn: u64,
    skip_below: bool,
    mut visit: impl FnMut(u64, WalRecord, &[u8]) -> bool,
) -> Result<ReplayReport> {
    let segments = store.list_logs()?;
    let mut report = ReplayReport {
        records: Vec::new(),
        tail: TailState::Clean,
        tail_segment: segments.last().copied(),
        tail_valid_bytes: 0,
        next_lsn: from_lsn,
    };
    let mut chain: Option<u64> = None;
    for (i, &start) in segments.iter().enumerate() {
        let next_segment = segments.get(i + 1).copied();
        if let Some(expected) = chain {
            if start != expected {
                return Err(WalError::Corrupt(format!(
                    "segment chain gap: expected a segment starting at lsn {expected}, \
                     found lsn {start}"
                )));
            }
        }
        if skip_below && next_segment.is_some_and(|next| next <= from_lsn) {
            chain = next_segment;
            continue;
        }
        let bytes = store.read_log(start)?;
        let mut offset = 0usize;
        // Within a segment the first record carries the segment's name;
        // every later one increments by exactly 1.
        let mut expected = start;
        while let Some(rest) = bytes.get(offset..).filter(|rest| !rest.is_empty()) {
            let (damage, tail) = match decode_frame(rest) {
                Decoded::Record {
                    lsn,
                    record,
                    consumed,
                } => {
                    if lsn != expected {
                        return Err(WalError::Corrupt(format!(
                            "lsn discontinuity in segment {start}: expected {expected}, \
                             record carries {lsn}"
                        )));
                    }
                    expected += 1;
                    let frame = rest.get(..consumed).unwrap_or(rest);
                    if lsn >= from_lsn && !visit(lsn, record, frame) {
                        return Ok(report);
                    }
                    offset += consumed;
                    continue;
                }
                Decoded::Torn => ("torn", TailState::Torn),
                Decoded::Corrupt => ("corrupt", TailState::Corrupt),
            };
            if next_segment.is_some() {
                return Err(WalError::Corrupt(format!(
                    "{damage} record in non-final segment {start} (offset {offset})"
                )));
            }
            report.tail = tail;
            break;
        }
        if next_segment.is_none() {
            report.tail_valid_bytes = offset as u64;
        }
        chain = Some(expected);
    }
    report.next_lsn = chain.unwrap_or(from_lsn);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{LogIo, SimStore};
    use crate::record::encode_frame;
    use crate::writer::{WalConfig, WalWriter};
    use mst_trajectory::TrajectoryId;

    fn delete(id: u64) -> WalRecord {
        WalRecord::Delete {
            id: TrajectoryId(id),
        }
    }

    fn store_with(n: u64, rotate_bytes: u64) -> SimStore {
        let store = SimStore::new();
        let mut w = WalWriter::create(store.clone(), WalConfig { rotate_bytes }, 1).unwrap();
        for i in 0..n {
            w.append(&delete(i)).unwrap();
        }
        w.commit().unwrap();
        store
    }

    #[test]
    fn replays_the_whole_chain_across_rotated_segments() {
        let store = store_with(30, 64);
        assert!(store.list_logs().unwrap().len() > 1, "must span segments");
        let report = replay(&store, 1).unwrap();
        assert_eq!(report.tail, TailState::Clean);
        assert_eq!(report.next_lsn, 31);
        let lsns: Vec<u64> = report.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, (1..=30).collect::<Vec<u64>>());
    }

    #[test]
    fn from_lsn_skips_what_the_snapshot_already_holds() {
        let store = store_with(10, 64);
        let report = replay(&store, 7).unwrap();
        let lsns: Vec<u64> = report.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![7, 8, 9, 10]);
        // Snapshot exactly at the log's end: nothing to replay, no error.
        let report = replay(&store, 11).unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.next_lsn, 11);
    }

    #[test]
    fn a_torn_final_tail_is_tolerated_and_locates_the_repair_point() {
        let store = store_with(5, 1 << 20);
        let clean_len = store.read_log(1).unwrap().len() as u64;
        // Append half a frame, as a crash mid-write would leave.
        let mut log = store.create_log_for_test(1);
        let frame = encode_frame(6, &delete(6));
        log.append(&frame[..frame.len() / 2]).unwrap();
        log.sync().unwrap();

        let report = replay(&store, 1).unwrap();
        assert_eq!(report.tail, TailState::Torn);
        assert_eq!(report.records.len(), 5);
        assert_eq!(report.next_lsn, 6);
        assert_eq!(report.tail_segment, Some(1));
        assert_eq!(report.tail_valid_bytes, clean_len);
    }

    #[test]
    fn a_corrupt_final_tail_is_tolerated_but_ends_the_replay() {
        let store = store_with(4, 1 << 20);
        let mut frame = encode_frame(5, &delete(5));
        let body = frame.len() - 1;
        frame[body] ^= 0xFF;
        let mut log = store.create_log_for_test(1);
        log.append(&frame).unwrap();
        log.sync().unwrap();

        let report = replay(&store, 1).unwrap();
        assert_eq!(report.tail, TailState::Corrupt);
        assert_eq!(report.records.len(), 4);
        assert_eq!(report.next_lsn, 5);
    }

    #[test]
    fn damage_in_a_non_final_segment_is_refused() {
        let store = store_with(30, 64);
        let segments = store.list_logs().unwrap();
        assert!(segments.len() > 1);
        let first = segments[0];
        let mut bytes = store.read_log(first).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        store.rewrite_log(first, &bytes).unwrap();
        assert!(matches!(replay(&store, 1), Err(WalError::Corrupt(_))));
    }

    #[test]
    fn a_segment_chain_gap_is_refused() {
        let store = store_with(30, 64);
        let segments = store.list_logs().unwrap();
        assert!(segments.len() > 2);
        store.remove_log(segments[1]).unwrap();
        assert!(matches!(replay(&store, 1), Err(WalError::Corrupt(_))));
    }

    #[test]
    fn a_log_ending_before_the_snapshot_is_refused() {
        let store = store_with(5, 1 << 20);
        assert!(matches!(replay(&store, 9), Err(WalError::Corrupt(_))));
    }

    impl SimStore {
        /// Reopens segment `start` for appending *without* truncating —
        /// test-only seam for planting damaged tails.
        fn create_log_for_test(&self, start: u64) -> crate::io::SimLog {
            let bytes = self.read_log(start).unwrap();
            let mut log = self.create_log(start).unwrap();
            log.append(&bytes).unwrap();
            log.sync().unwrap();
            log
        }
    }
}
