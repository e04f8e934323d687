//! The coupling: a sharded database that survives the process.
//!
//! [`DurableDatabase`] wraps an [`mst_exec::ShardedDatabase`] (shared by
//! `Arc`, so the executor and serving layers read the very same shards)
//! with write-ahead logging in front of every mutation:
//!
//! 1. **validate** — refuse anything replay could not re-apply (duplicate
//!    ids, deletes on a substrate without
//!    [`DurableSubstrate::SUPPORTS_DELETE`]) *before* logging;
//! 2. **log** — append one record per operation, then one group-commit
//!    fsync for the whole batch;
//! 3. **apply** — only after the fsync returns, mutate the in-memory
//!    shards ([`ShardedDatabase::apply_op`], generation-published).
//!
//! A crash between 2 and 3 loses nothing: the in-memory state dies with
//! the process, and recovery rebuilds it as `snapshot + replay(lsn..)`.
//! Replay application is guarded — insert if absent, delete if present —
//! so replaying a log twice equals replaying it once, and a crash
//! *during* recovery re-runs harmlessly. [`DurableDatabase::open`] also
//! repairs a torn final segment (rewriting its valid prefix through the
//! atomic-rename path) and always resumes writing in a fresh segment, so
//! damage never accretes.

use std::collections::HashMap;
use std::sync::Arc;

use mst_exec::{ExecError, IngestOp, IngestOutcome, ShardedDatabase};
use mst_search::MovingObjectDatabase;

use crate::record::{decode_frame, Decoded, WalRecord};
use crate::replay::{replay, TailState};
use crate::snapshot::{decode_snapshot, encode_snapshot, DurableSubstrate};
use crate::stream::{log_floor, read_committed_frames};
use crate::writer::{WalConfig, WalWriter};
use crate::{LogStore, Result, WalError};

/// Counters of the durable layer (monotonic over the handle's life,
/// except `applied_lsn`, which is a position).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DurableStats {
    /// LSN of the last operation applied in memory.
    pub applied_lsn: u64,
    /// Records appended to the log.
    pub wal_appends: u64,
    /// Group-commit fsyncs issued.
    pub wal_fsyncs: u64,
    /// Log segment rotations.
    pub wal_rotations: u64,
    /// Framed bytes appended.
    pub wal_bytes: u64,
    /// Records re-applied by the last recovery (0 for a clean open).
    pub replayed_records: u64,
    /// Snapshots written by [`DurableDatabase::checkpoint`].
    pub checkpoints: u64,
}

/// A crash-recoverable trajectory database: WAL-before-apply ingest over
/// shared sharded state, LSN-stamped snapshots, replay on open.
pub struct DurableDatabase<I: DurableSubstrate, S: LogStore> {
    db: Arc<ShardedDatabase<I>>,
    writer: WalWriter<S>,
    applied_lsn: u64,
    replayed_records: u64,
    checkpoints: u64,
}

impl<I: DurableSubstrate, S: LogStore> DurableDatabase<I, S> {
    /// Bootstraps a brand-new empty database of `num_shards` shards in
    /// `store`: writes the genesis snapshot (LSN 0) and opens the first
    /// log segment. Refuses a store that already holds a database.
    pub fn create(store: S, config: WalConfig, num_shards: usize) -> Result<Self> {
        if store.read_snapshot()?.is_some() || !store.list_logs()?.is_empty() {
            return Err(WalError::Config(
                "store already holds a database; open it instead",
            ));
        }
        let parts = (0..num_shards)
            .map(|_| MovingObjectDatabase::new(I::fresh()))
            .collect();
        let db = Arc::new(ShardedDatabase::from_shard_parts(parts)?);
        store.write_snapshot(&encode_snapshot(&db, 0)?)?;
        let writer = WalWriter::create(store, config, 1)?;
        Ok(DurableDatabase {
            db,
            writer,
            applied_lsn: 0,
            replayed_records: 0,
            checkpoints: 0,
        })
    }

    /// Recovers the database a crash (or clean shutdown) left in
    /// `store`: decode the snapshot, replay the log's gapless suffix
    /// with guarded application, repair any torn final segment, and
    /// resume writing in a fresh segment at the next LSN.
    pub fn open(store: S, config: WalConfig) -> Result<Self> {
        let snapshot = store.read_snapshot()?.ok_or(WalError::Config(
            "store holds no database; create one first",
        ))?;
        let (db, snapshot_lsn) = decode_snapshot::<I>(&snapshot)?;
        let db = Arc::new(db);
        let report = replay(&store, snapshot_lsn + 1)?;
        let replayed_records = report.records.len() as u64;
        for (lsn, record) in &report.records {
            apply_replayed(&db, &record.to_op()?)
                .map_err(|e| WalError::Corrupt(format!("replay of lsn {lsn} failed: {e}")))?;
        }
        if report.tail != TailState::Clean {
            if let Some(segment) = report.tail_segment {
                let bytes = store.read_log(segment)?;
                let valid = bytes
                    .get(..report.tail_valid_bytes as usize)
                    .unwrap_or(&bytes);
                store.rewrite_log(segment, valid)?;
            }
        }
        let writer = WalWriter::create(store, config, report.next_lsn)?;
        Ok(DurableDatabase {
            db,
            writer,
            applied_lsn: report.next_lsn - 1,
            replayed_records,
            checkpoints: 0,
        })
    }

    /// Applies a batch of ingest operations durably: all records are
    /// validated, logged, made durable with **one** fsync (group
    /// commit), and only then applied to the shared in-memory shards.
    /// When `apply` returns, the batch survives any crash; when it
    /// errors during validation or logging, none of it was applied.
    pub fn apply(&mut self, ops: &[IngestOp]) -> Result<Vec<IngestOutcome>> {
        let plans = self.plan(ops);
        for (op, plan) in ops.iter().zip(&plans) {
            if let Plan::Refuse(why) = *plan {
                return Err(match op {
                    IngestOp::Insert { .. } => WalError::Exec(ExecError::Config(why)),
                    IngestOp::Delete { .. } => WalError::Config(why),
                });
            }
        }
        let outcome = |r| IngestOutcome {
            applied: matches!(r, Ok((_, true))),
        };
        Ok(self.execute(ops, plans)?.into_iter().map(outcome).collect())
    }

    /// Applies a batch of *independent* ingest operations — the serving
    /// lane. Where [`DurableDatabase::apply`] treats the batch as one
    /// transaction (any validation failure refuses everything),
    /// `apply_independent` treats each operation as its own request:
    /// invalid operations are refused individually with a typed error
    /// while the rest proceed, sharing **one** group-commit fsync. This
    /// is what a server flushing a burst of ingest frames from many
    /// unrelated clients needs — one bad frame must not fail its
    /// neighbours, and the burst must not pay per-op fsyncs.
    ///
    /// Each successful entry reports `(lsn, applied)`: the operation's
    /// own LSN (a no-op delete of an absent id reports the current
    /// applied LSN) and whether state changed. The outer error is an
    /// I/O or index failure — nothing was acked if it fires during
    /// logging; a failure during application leaves the log ahead of
    /// memory, which recovery replays.
    pub fn apply_independent(
        &mut self,
        ops: &[IngestOp],
    ) -> Result<Vec<std::result::Result<(u64, bool), ExecError>>> {
        let plans = self.plan(ops);
        self.execute(ops, plans)
    }

    /// The validation pass both ingest paths share: what each operation of
    /// `ops` would do, refusing anything replay could not re-apply. It
    /// simulates the batch's own effects — presence is db state overlaid
    /// with the batch — so an insert after an in-batch delete of the id is
    /// legal and two in-batch inserts of one id are not. A refused
    /// operation leaves the overlay untouched.
    fn plan(&self, ops: &[IngestOp]) -> Vec<Plan> {
        let mut presence: HashMap<u64, bool> = HashMap::new();
        ops.iter()
            .map(|op| {
                let id = op.id();
                let exists = presence
                    .entry(id.0)
                    .or_insert_with(|| self.db.trajectory(id).is_some());
                match op {
                    IngestOp::Insert { .. } if *exists => {
                        Plan::Refuse("ingest insert of an id that already exists; delete it first")
                    }
                    IngestOp::Delete { .. } if !I::SUPPORTS_DELETE => {
                        Plan::Refuse("this index substrate does not support deletes")
                    }
                    IngestOp::Delete { .. } if !*exists => Plan::Noop,
                    _ => {
                        *exists = !*exists;
                        Plan::Log
                    }
                }
            })
            .collect()
    }

    /// Logs the planned operations under one fsync, then applies them;
    /// reports per operation as [`DurableDatabase::apply_independent`].
    fn execute(
        &mut self,
        ops: &[IngestOp],
        plans: Vec<Plan>,
    ) -> Result<Vec<std::result::Result<(u64, bool), ExecError>>> {
        let mut staged: Vec<Option<u64>> = Vec::with_capacity(ops.len());
        for (op, plan) in ops.iter().zip(&plans) {
            staged.push(match plan {
                Plan::Log => Some(self.writer.append(&WalRecord::from_op(op))?),
                Plan::Noop | Plan::Refuse(_) => None,
            });
        }
        self.writer.commit()?;
        let mut results = Vec::with_capacity(ops.len());
        for ((op, plan), lsn) in ops.iter().zip(plans).zip(staged) {
            match plan {
                Plan::Refuse(why) => results.push(Err(ExecError::Config(why))),
                Plan::Noop => results.push(Ok((self.applied_lsn, false))),
                Plan::Log => {
                    let outcome = self.db.apply_op(op)?;
                    self.applied_lsn = lsn.unwrap_or(self.applied_lsn);
                    results.push(Ok((self.applied_lsn, outcome.applied)));
                }
            }
        }
        Ok(results)
    }

    /// Writes a snapshot consistent through everything applied so far
    /// and drops every log segment the snapshot makes redundant (all but
    /// the one being written to). Recovery time is then proportional to
    /// the log written *since* the checkpoint.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.writer.commit()?;
        let bytes = encode_snapshot(&self.db, self.applied_lsn)?;
        self.writer.store().write_snapshot(&bytes)?;
        let segments = self.writer.store().list_logs()?;
        if let Some((&_last, older)) = segments.split_last() {
            for &segment in older {
                self.writer.store().remove_log(segment)?;
            }
        }
        self.checkpoints += 1;
        Ok(())
    }

    /// Bootstraps a **replica** from a primary's snapshot image: decodes
    /// it (checksum-verified), makes it the store's own genesis snapshot,
    /// and opens the log at the snapshot's LSN + 1 so
    /// [`DurableDatabase::apply_replicated`] can continue the chain.
    /// Refuses a store that already holds a database — a restarting
    /// replica recovers its own state with [`DurableDatabase::open`] and
    /// re-subscribes from where it left off instead.
    pub fn from_snapshot(store: S, config: WalConfig, snapshot: &[u8]) -> Result<Self> {
        if store.read_snapshot()?.is_some() || !store.list_logs()?.is_empty() {
            return Err(WalError::Config(
                "store already holds a database; open it instead",
            ));
        }
        let (db, snapshot_lsn) = decode_snapshot::<I>(snapshot)?;
        let db = Arc::new(db);
        store.write_snapshot(snapshot)?;
        let writer = WalWriter::create(store, config, snapshot_lsn + 1)?;
        Ok(DurableDatabase {
            db,
            writer,
            applied_lsn: snapshot_lsn,
            replayed_records: 0,
            checkpoints: 0,
        })
    }

    /// Applies a batch of sealed frames shipped from a primary's log —
    /// the replica's write path. Every frame is re-verified from its raw
    /// bytes (checksum + structure) and must continue the replica's own
    /// LSN chain gaplessly; any gap, damage, or regression refuses the
    /// whole batch **before** anything is logged. The verified records
    /// are then appended to the replica's own log, made durable with one
    /// group-commit fsync, and applied to the in-memory shards with the
    /// same guarded (idempotent) application recovery uses — so a
    /// replica that crashes mid-batch recovers and re-applies
    /// harmlessly. Returns the new applied LSN.
    pub fn apply_replicated(&mut self, frames: &[Vec<u8>]) -> Result<u64> {
        let mut records = Vec::with_capacity(frames.len());
        let mut expected = self.writer.next_lsn();
        for frame in frames {
            match decode_frame(frame) {
                Decoded::Record {
                    lsn,
                    record,
                    consumed,
                } => {
                    if consumed != frame.len() {
                        return Err(WalError::Corrupt(format!(
                            "replicated frame for lsn {lsn} carries {} trailing bytes",
                            frame.len() - consumed
                        )));
                    }
                    if lsn != expected {
                        return Err(WalError::Corrupt(format!(
                            "replication stream gap: expected lsn {expected}, frame carries {lsn}"
                        )));
                    }
                    expected += 1;
                    records.push(record);
                }
                Decoded::Torn | Decoded::Corrupt => {
                    return Err(WalError::Corrupt(format!(
                        "replicated frame at lsn {expected} failed verification"
                    )));
                }
            }
        }
        for record in &records {
            self.writer.append(record)?;
        }
        self.writer.commit()?;
        for record in &records {
            apply_replayed(&self.db, &record.to_op()?)?;
        }
        self.applied_lsn = self.writer.next_lsn() - 1;
        Ok(self.applied_lsn)
    }

    /// The lowest LSN still servable from this node's log. A subscriber
    /// asking to stream from below this floor needs a snapshot first
    /// (checkpoints prune segments from the front). The floor is the
    /// first retained segment's name — its first record's LSN.
    pub fn replication_floor(&self) -> Result<u64> {
        Ok(log_floor(self.writer.store())?.unwrap_or(self.applied_lsn + 1))
    }

    /// Encodes a snapshot of the **current** applied state, for
    /// bootstrapping a subscriber that fell below the replication floor.
    /// Unlike [`DurableDatabase::checkpoint`] this writes nothing to the
    /// store and prunes nothing.
    pub fn encode_current_snapshot(&self) -> Result<Vec<u8>> {
        encode_snapshot(&self.db, self.applied_lsn)
    }

    /// Reads the gapless run of sealed frames starting at `from_lsn`, as
    /// raw bytes, capped at the applied (committed) watermark and
    /// bounded by `max_bytes` (at least one frame ships when any is
    /// available). The replication feed: frames travel verbatim and the
    /// replica re-verifies every checksum on arrival.
    pub fn read_committed_frames(&self, from_lsn: u64, max_bytes: usize) -> Result<Vec<Vec<u8>>> {
        read_committed_frames(self.writer.store(), from_lsn, self.applied_lsn, max_bytes)
    }

    /// The shared in-memory database — hand clones of this `Arc` to the
    /// executor ([`mst_exec::ExecHandle`]) and serving layers; they see
    /// every applied ingest at generation granularity.
    pub fn database(&self) -> &Arc<ShardedDatabase<I>> {
        &self.db
    }

    /// LSN of the last operation applied in memory.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn
    }

    /// The durable layer's counters.
    pub fn stats(&self) -> DurableStats {
        let wal = self.writer.stats();
        DurableStats {
            applied_lsn: self.applied_lsn,
            wal_appends: wal.appends,
            wal_fsyncs: wal.fsyncs,
            wal_rotations: wal.rotations,
            wal_bytes: wal.bytes_appended,
            replayed_records: self.replayed_records,
            checkpoints: self.checkpoints,
        }
    }
}

/// What [`DurableDatabase::plan`] decided for one ingest operation.
enum Plan {
    /// Log it, then apply it.
    Log,
    /// A delete of an absent id: not logged, reported as not applied.
    Noop,
    /// Refused before logging, for the given reason.
    Refuse(&'static str),
}

/// Guarded (idempotent) application for replay: insert if absent,
/// delete if present. Whole-op granularity matches how recovery works —
/// the snapshot never holds half an operation, so a record is either
/// fully reflected already (skip) or not at all (apply). Public so the
/// recovery suite can prove replay-twice idempotence directly.
pub fn apply_replayed<I: DurableSubstrate>(
    db: &ShardedDatabase<I>,
    op: &IngestOp,
) -> std::result::Result<(), ExecError> {
    let exists = db.trajectory(op.id()).is_some();
    match op {
        IngestOp::Insert { .. } if exists => Ok(()),
        IngestOp::Delete { .. } if !exists => Ok(()),
        _ => db.apply_op(op).map(|_| ()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SimStore;
    use mst_index::Rtree3D;
    use mst_trajectory::{SamplePoint, Trajectory, TrajectoryId};

    fn traj(id: u64, n: usize) -> Trajectory {
        let pts = (0..n)
            .map(|i| SamplePoint::new(i as f64, i as f64 * 0.5, id as f64))
            .collect();
        Trajectory::new(pts).expect("valid")
    }

    fn insert(id: u64) -> IngestOp {
        IngestOp::Insert {
            id: TrajectoryId(id),
            trajectory: traj(id, 5),
        }
    }

    fn delete(id: u64) -> IngestOp {
        IngestOp::Delete {
            id: TrajectoryId(id),
        }
    }

    #[test]
    fn create_apply_reopen_recovers_everything_acked() {
        let store = SimStore::new();
        let mut db =
            DurableDatabase::<Rtree3D, _>::create(store.clone(), WalConfig::default(), 2).unwrap();
        let outcomes = db
            .apply(&[insert(1), insert(2), insert(3), delete(2)])
            .unwrap();
        assert!(outcomes.iter().take(3).all(|o| o.applied));
        assert_eq!(db.stats().wal_fsyncs, 1, "one group, one fsync");
        assert_eq!(db.applied_lsn(), 4);
        drop(db);

        let back = DurableDatabase::<Rtree3D, _>::open(store, WalConfig::default()).unwrap();
        assert_eq!(back.applied_lsn(), 4);
        assert_eq!(back.stats().replayed_records, 4);
        let shared = back.database();
        assert_eq!(shared.num_objects(), 2);
        assert!(shared.trajectory(TrajectoryId(1)).is_some());
        assert!(shared.trajectory(TrajectoryId(2)).is_none());
        assert!(shared.trajectory(TrajectoryId(3)).is_some());
    }

    #[test]
    fn checkpoint_truncates_the_log_and_speeds_recovery() {
        let store = SimStore::new();
        let mut db =
            DurableDatabase::<Rtree3D, _>::create(store.clone(), WalConfig::default(), 1).unwrap();
        db.apply(&[insert(1), insert(2)]).unwrap();
        db.checkpoint().unwrap();
        db.apply(&[insert(3)]).unwrap();
        drop(db);

        let mut back =
            DurableDatabase::<Rtree3D, _>::open(store.clone(), WalConfig::default()).unwrap();
        assert_eq!(
            back.stats().replayed_records,
            1,
            "only the post-checkpoint suffix replays"
        );
        assert_eq!(back.database().num_objects(), 3);
        assert_eq!(back.applied_lsn(), 3);

        // A reopen right after a checkpoint has nothing left to replay.
        back.checkpoint().unwrap();
        drop(back);
        let again = DurableDatabase::<Rtree3D, _>::open(store, WalConfig::default()).unwrap();
        assert_eq!(again.stats().replayed_records, 0);
        assert_eq!(again.database().num_objects(), 3);
        assert_eq!(again.applied_lsn(), 3);
    }

    #[test]
    fn validation_failures_log_and_apply_nothing() {
        let store = SimStore::new();
        let mut db =
            DurableDatabase::<Rtree3D, _>::create(store.clone(), WalConfig::default(), 1).unwrap();
        db.apply(&[insert(1)]).unwrap();
        let appends_before = db.stats().wal_appends;
        // Second op of the batch is invalid: the whole batch is refused.
        let err = db.apply(&[insert(2), insert(1)]).expect_err("duplicate");
        assert!(matches!(err, WalError::Exec(ExecError::Config(_))));
        assert_eq!(db.stats().wal_appends, appends_before, "nothing logged");
        assert_eq!(db.database().num_objects(), 1, "nothing applied");
        // Delete-then-insert of the same id in one batch is legal.
        let outcomes = db.apply(&[delete(1), insert(1)]).unwrap();
        assert!(outcomes.iter().all(|o| o.applied));
    }

    #[test]
    fn independent_batches_refuse_per_op_and_share_one_fsync() {
        let store = SimStore::new();
        let mut db =
            DurableDatabase::<Rtree3D, _>::create(store.clone(), WalConfig::default(), 2).unwrap();
        db.apply(&[insert(1)]).unwrap();
        let fsyncs_before = db.stats().wal_fsyncs;
        // A burst mixing valid ops, a duplicate insert, and a no-op
        // delete: the bad op is refused alone, the rest land, and the
        // whole burst costs exactly one fsync.
        let results = db
            .apply_independent(&[insert(2), insert(1), delete(9), delete(1), insert(3)])
            .unwrap();
        assert!(matches!(results[0], Ok((2, true))));
        assert!(results[1].is_err(), "duplicate insert refused alone");
        assert!(
            matches!(results[2], Ok((_, false))),
            "absent delete is a no-op"
        );
        assert!(matches!(results[3], Ok((3, true))));
        assert!(matches!(results[4], Ok((4, true))));
        assert_eq!(db.stats().wal_fsyncs, fsyncs_before + 1, "one group commit");
        assert_eq!(db.applied_lsn(), 4);
        drop(db);

        // Everything acked by the burst survives recovery.
        let back = DurableDatabase::<Rtree3D, _>::open(store, WalConfig::default()).unwrap();
        assert_eq!(back.database().num_objects(), 2, "ids 2 and 3 (1 deleted)");
        assert!(back.database().trajectory(TrajectoryId(1)).is_none());
        assert_eq!(back.applied_lsn(), 4);
    }

    #[test]
    fn deletes_on_a_tbtree_are_refused_before_logging() {
        use mst_index::TbTree;
        let store = SimStore::new();
        let mut db =
            DurableDatabase::<TbTree, _>::create(store.clone(), WalConfig::default(), 1).unwrap();
        db.apply(&[insert(1)]).unwrap();
        let err = db.apply(&[delete(1)]).expect_err("no deletes on tbtree");
        assert!(matches!(err, WalError::Config(_)));
        assert_eq!(db.stats().wal_appends, 1, "the delete never hit the log");
    }

    #[test]
    fn both_ingest_paths_refuse_the_same_ops() {
        // Which ops of `batch` each path refuses, over a store holding id 1:
        // `apply_independent` says it per op; `apply` must accept exactly
        // the ops it accepted and refuse any batch a refused op joins.
        fn refused<I: DurableSubstrate>(batch: &[IngestOp]) -> Vec<bool> {
            let fresh = || {
                let mut db =
                    DurableDatabase::<I, _>::create(SimStore::new(), WalConfig::default(), 1)
                        .unwrap();
                db.apply(&[insert(1)]).unwrap();
                db
            };
            let refused: Vec<bool> = fresh()
                .apply_independent(batch)
                .unwrap()
                .iter()
                .map(std::result::Result::is_err)
                .collect();
            let mut accepted = Vec::new();
            for (op, &no) in batch.iter().zip(&refused) {
                let mut with_op = accepted.clone();
                with_op.push(op.clone());
                assert_eq!(fresh().apply(&with_op).is_err(), no, "{op:?}");
                if !no {
                    accepted = with_op;
                }
            }
            refused
        }
        // Duplicate insert, in-batch delete-then-insert, absent-id delete,
        // in-batch duplicate.
        let batch = [
            insert(1),
            delete(1),
            insert(1),
            delete(9),
            insert(2),
            insert(2),
        ];
        assert_eq!(
            refused::<Rtree3D>(&batch),
            [true, false, false, false, false, true]
        );
        // Every delete on a TB-tree, present or absent.
        let batch = [delete(1), delete(9), insert(2)];
        assert_eq!(refused::<mst_index::TbTree>(&batch), [true, true, false]);
    }

    #[test]
    fn absent_id_deletes_are_unlogged_no_ops() {
        let store = SimStore::new();
        let mut db =
            DurableDatabase::<Rtree3D, _>::create(store.clone(), WalConfig::default(), 1).unwrap();
        let outcomes = db.apply(&[delete(9)]).unwrap();
        assert!(!outcomes[0].applied);
        assert_eq!(db.stats().wal_appends, 0);
        assert_eq!(db.applied_lsn(), 0);
    }

    #[test]
    fn a_replica_fed_committed_frames_converges_bit_identically() {
        let mut primary =
            DurableDatabase::<Rtree3D, _>::create(SimStore::new(), WalConfig::default(), 2)
                .unwrap();
        let replica_store = SimStore::new();
        let mut replica = DurableDatabase::<Rtree3D, _>::from_snapshot(
            replica_store.clone(),
            WalConfig::default(),
            &primary.encode_current_snapshot().unwrap(),
        )
        .unwrap();

        primary.apply(&[insert(1), insert(2), insert(3)]).unwrap();
        primary.apply(&[delete(2), insert(4)]).unwrap();
        let frames = primary
            .read_committed_frames(replica.applied_lsn() + 1, usize::MAX)
            .unwrap();
        assert_eq!(frames.len(), 5);
        assert_eq!(replica.apply_replicated(&frames).unwrap(), 5);
        assert_eq!(replica.applied_lsn(), primary.applied_lsn());
        assert_eq!(
            encode_snapshot(replica.database(), 0).unwrap(),
            encode_snapshot(primary.database(), 0).unwrap(),
            "replica state must be bit-identical"
        );

        // The replica's own log is durable: a reopen recovers the same
        // state without the primary.
        drop(replica);
        let back =
            DurableDatabase::<Rtree3D, _>::open(replica_store, WalConfig::default()).unwrap();
        assert_eq!(back.applied_lsn(), 5);
        assert_eq!(
            encode_snapshot(back.database(), 0).unwrap(),
            encode_snapshot(primary.database(), 0).unwrap()
        );
    }

    #[test]
    fn replication_gaps_and_tampered_frames_are_refused_before_logging() {
        let mut primary =
            DurableDatabase::<Rtree3D, _>::create(SimStore::new(), WalConfig::default(), 1)
                .unwrap();
        primary.apply(&[insert(1), insert(2), insert(3)]).unwrap();
        let frames = primary.read_committed_frames(1, usize::MAX).unwrap();

        let mut replica = DurableDatabase::<Rtree3D, _>::from_snapshot(
            SimStore::new(),
            WalConfig::default(),
            &DurableDatabase::<Rtree3D, _>::create(SimStore::new(), WalConfig::default(), 1)
                .unwrap()
                .encode_current_snapshot()
                .unwrap(),
        )
        .unwrap();

        // A gap (skipping lsn 1) is refused.
        assert!(matches!(
            replica.apply_replicated(&frames[1..]),
            Err(WalError::Corrupt(_))
        ));
        // A flipped bit is refused.
        let mut bent = frames.clone();
        let mid = bent[1].len() / 2;
        bent[1][mid] ^= 0x20;
        assert!(matches!(
            replica.apply_replicated(&bent),
            Err(WalError::Corrupt(_))
        ));
        // Nothing was logged or applied by the refusals.
        assert_eq!(replica.stats().wal_appends, 0);
        assert_eq!(replica.database().num_objects(), 0);
        // The intact batch still applies afterwards.
        assert_eq!(replica.apply_replicated(&frames).unwrap(), 3);
        assert_eq!(replica.database().num_objects(), 3);
    }

    #[test]
    fn the_replication_floor_rises_with_checkpoints() {
        let store = SimStore::new();
        let mut db = DurableDatabase::<Rtree3D, _>::create(
            store.clone(),
            WalConfig { rotate_bytes: 256 },
            1,
        )
        .unwrap();
        for id in 1..=12 {
            db.apply(&[insert(id)]).unwrap();
        }
        assert_eq!(db.replication_floor().unwrap(), 1);
        db.checkpoint().unwrap();
        let floor = db.replication_floor().unwrap();
        assert!(floor > 1, "pruned segments must raise the floor");
        // From the floor on, frames stream fine; capped at applied_lsn.
        let frames = db.read_committed_frames(floor, usize::MAX).unwrap();
        assert!(!frames.is_empty() || floor == db.applied_lsn() + 1);
    }

    #[test]
    fn create_refuses_an_occupied_store_and_open_an_empty_one() {
        let store = SimStore::new();
        assert!(matches!(
            DurableDatabase::<Rtree3D, _>::open(store.clone(), WalConfig::default()),
            Err(WalError::Config(_))
        ));
        let _db =
            DurableDatabase::<Rtree3D, _>::create(store.clone(), WalConfig::default(), 1).unwrap();
        assert!(matches!(
            DurableDatabase::<Rtree3D, _>::create(store, WalConfig::default(), 1),
            Err(WalError::Config(_))
        ));
    }
}
