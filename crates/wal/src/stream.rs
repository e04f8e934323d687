//! Reading committed records *while the log is live*: the replication
//! feed and the offline integrity sweep.
//!
//! [`replay`](crate::replay::replay) rebuilds a database once, at open.
//! Replication needs something different: a **tail-follow cursor** that
//! repeatedly asks "give me the sealed frames from LSN `n` on", against
//! a log another handle is still appending to. [`read_committed_frames`]
//! is that read: it walks the segment chain, skips everything below
//! `from_lsn`, and returns raw frame bytes — verbatim, checksum and all —
//! up to a byte budget and a hard LSN cap (the caller's committed
//! watermark, so an fsync-pending tail is never shipped). The frames
//! travel the wire as-is; the receiving side re-verifies every checksum
//! and the gapless chain before applying, so replication inherits the
//! log's end-to-end integrity argument instead of inventing its own.
//!
//! [`verify_store`] is the operator-facing cousin (`mst-serve
//! --verify-store DIR`): a full offline sweep of snapshot + every
//! segment, classifying the tail (clean / torn / corrupt) and refusing
//! gaps, for runbooks that must answer "is this directory safe to
//! recover from?" without starting a server.

use crate::replay::{replay, walk, TailState};
use crate::snapshot::{decode_snapshot, DurableSubstrate};
use crate::{LogStore, Result, WalError};

/// The lowest LSN still readable from the log, or `None` for a log with
/// no segments. A subscriber asking for anything below this floor needs
/// a snapshot first — checkpoints prune segments from the front.
pub fn log_floor<S: LogStore>(store: &S) -> Result<Option<u64>> {
    Ok(store.list_logs()?.first().copied())
}

/// Reads the gapless run of sealed frames `from_lsn..=cap_lsn` as raw
/// bytes, stopping early once `max_bytes` of frames are collected (at
/// least one frame is always returned when any is available, so a
/// record bigger than the budget still ships — alone). A torn or
/// checksum-failing tail in the **final** segment ends the read cleanly
/// (those bytes are not committed); the same damage anywhere else, or a
/// chain gap, is refused as corruption.
///
/// `cap_lsn` is the caller's committed watermark: frames past it are
/// never returned even if present in the segment bytes, because an
/// append whose group commit has not fsynced yet must not replicate.
pub fn read_committed_frames<S: LogStore>(
    store: &S,
    from_lsn: u64,
    cap_lsn: u64,
    max_bytes: usize,
) -> Result<Vec<Vec<u8>>> {
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut collected = 0usize;
    // A damaged final segment is the live writer's un-fsynced tail (or a
    // crash artifact awaiting repair): not committed, not ours.
    walk(store, from_lsn, true, |lsn, _, frame| {
        if lsn > cap_lsn {
            return false;
        }
        collected += frame.len();
        out.push(frame.to_vec());
        collected < max_bytes
    })?;
    Ok(out)
}

/// What the offline integrity sweep found in a healthy store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The snapshot's LSN stamp.
    pub snapshot_lsn: u64,
    /// Snapshot size in bytes (checksum verified, every shard decoded).
    pub snapshot_bytes: u64,
    /// Log segments present, in LSN order.
    pub segments: Vec<u64>,
    /// Replayable records after the snapshot (all checksums verified).
    pub records: u64,
    /// How the final segment ends. `Torn`/`Corrupt` here is survivable
    /// crash damage — recovery repairs it — reported so operators know.
    pub tail: TailState,
    /// The LSN recovery would resume writing at.
    pub next_lsn: u64,
}

/// Sweeps a store offline: decodes the snapshot (checksum + every shard
/// image), replays the whole log chain (every frame checksum, gapless
/// LSNs, damage confined to the final segment), and classifies the
/// tail. An error means the store cannot recover losslessly; a report
/// with a non-[`TailState::Clean`] tail means a crash left repairable
/// damage that the next open will trim.
pub fn verify_store<I: DurableSubstrate, S: LogStore>(store: &S) -> Result<VerifyReport> {
    let snapshot = store.read_snapshot()?.ok_or(WalError::Config(
        "store holds no database; nothing to verify",
    ))?;
    let (_db, snapshot_lsn) = decode_snapshot::<I>(&snapshot)?;
    let report = replay(store, snapshot_lsn + 1)?;
    // Replay validated the chain; re-derive the record count from it so
    // the sweep reports exactly what recovery would apply.
    Ok(VerifyReport {
        snapshot_lsn,
        snapshot_bytes: snapshot.len() as u64,
        segments: store.list_logs()?,
        records: report.records.len() as u64,
        tail: report.tail,
        next_lsn: report.next_lsn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SimStore;
    use crate::record::{decode_frame, encode_frame, Decoded, WalRecord};
    use crate::writer::{WalConfig, WalWriter};
    use crate::LogIo;
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

    fn lsns(frames: &[Vec<u8>]) -> Vec<u64> {
        frames
            .iter()
            .map(|f| match decode_frame(f) {
                Decoded::Record { lsn, .. } => lsn,
                other => panic!("shipped frame must decode: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn the_cursor_follows_the_tail_across_rotated_segments() {
        let store = store_with(30, 64);
        assert!(store.list_logs().unwrap().len() > 1, "must span segments");
        let frames = read_committed_frames(&store, 1, 30, usize::MAX).unwrap();
        assert_eq!(lsns(&frames), (1..=30).collect::<Vec<u64>>());
        // Mid-log start, capped watermark.
        let frames = read_committed_frames(&store, 12, 20, usize::MAX).unwrap();
        assert_eq!(lsns(&frames), (12..=20).collect::<Vec<u64>>());
        // Nothing new at the tail: an empty batch, not an error.
        let frames = read_committed_frames(&store, 31, 30, usize::MAX).unwrap();
        assert!(frames.is_empty());
    }

    #[test]
    fn the_byte_budget_bounds_a_batch_but_never_starves_it() {
        let store = store_with(20, 1 << 20);
        let one = encode_frame(1, &delete(0)).len();
        let frames = read_committed_frames(&store, 1, 20, one * 3).unwrap();
        assert_eq!(lsns(&frames), vec![1, 2, 3]);
        // A budget smaller than one frame still ships one frame.
        let frames = read_committed_frames(&store, 4, 20, 1).unwrap();
        assert_eq!(lsns(&frames), vec![4]);
    }

    #[test]
    fn an_uncommitted_torn_tail_is_never_shipped() {
        let store = store_with(5, 1 << 20);
        let bytes = store.read_log(1).unwrap();
        let mut log = store.create_log(1).unwrap();
        log.append(&bytes).unwrap();
        let torn = encode_frame(6, &delete(6));
        log.append(&torn[..torn.len() / 2]).unwrap();
        log.sync().unwrap();
        let frames = read_committed_frames(&store, 1, 99, usize::MAX).unwrap();
        assert_eq!(lsns(&frames), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn gaps_and_interior_damage_are_refused() {
        let store = store_with(30, 64);
        let segments = store.list_logs().unwrap();
        assert!(segments.len() > 2);
        store.remove_log(segments[1]).unwrap();
        assert!(matches!(
            read_committed_frames(&store, 1, 30, usize::MAX),
            Err(WalError::Corrupt(_))
        ));
    }

    #[test]
    fn skipped_leading_segments_still_have_their_names_chain_checked() {
        let store = store_with(30, 64);
        let segments = store.list_logs().unwrap();
        let last = *segments.last().unwrap();
        // Asking from the last segment's start skips the earlier ones.
        let frames = read_committed_frames(&store, last, 30, usize::MAX).unwrap();
        assert_eq!(lsns(&frames), (last..=30).collect::<Vec<u64>>());
    }

    #[test]
    fn the_floor_is_the_first_segment() {
        let store = store_with(30, 64);
        let segments = store.list_logs().unwrap();
        assert_eq!(log_floor(&store).unwrap(), segments.first().copied());
        assert_eq!(log_floor(&SimStore::new()).unwrap(), None);
    }
}
