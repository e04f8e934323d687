//! Recovery-path tests that are not crash-schedule sweeps: replay-twice
//! idempotence on raw image bits, and the file-backed store end-to-end
//! (real segment files, real torn tails, real repair).

use std::path::PathBuf;

use mst_exec::{IngestOp, ShardedDatabase};
use mst_index::Rtree3D;
use mst_trajectory::{SamplePoint, Trajectory, TrajectoryId};
use mst_wal::{
    apply_replayed, decode_snapshot, encode_snapshot, replay, DurableDatabase, FileStore, LogStore,
    SimStore, TailState, WalConfig, WalRecord,
};

fn traj(id: u64, n: usize) -> Trajectory {
    let pts = (0..n)
        .map(|i| SamplePoint::new(i as f64, (i as f64 + id as f64) % 9.0, id as f64 % 7.0))
        .collect();
    Trajectory::new(pts).expect("valid")
}

fn ins(id: u64) -> IngestOp {
    IngestOp::Insert {
        id: TrajectoryId(id),
        trajectory: traj(id, 6),
    }
}

fn del(id: u64) -> IngestOp {
    IngestOp::Delete {
        id: TrajectoryId(id),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mst-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn replaying_a_log_twice_produces_the_same_index_bits_as_once() {
    let store = SimStore::new();
    let mut db =
        DurableDatabase::<Rtree3D, _>::create(store.clone(), WalConfig::default(), 2).unwrap();
    db.apply(&[ins(1), ins(2), ins(3)]).unwrap();
    db.apply(&[del(2), ins(4)]).unwrap();
    drop(db);

    // Rebuild from the genesis snapshot by hand, applying the replayable
    // records once on one copy and twice on the other.
    let snapshot = store.read_snapshot().unwrap().expect("genesis snapshot");
    let report = replay(&store, 1).unwrap();
    assert_eq!(report.tail, TailState::Clean);
    assert_eq!(report.records.len(), 5);

    let build = |passes: usize| -> ShardedDatabase<Rtree3D> {
        let (db, _) = decode_snapshot::<Rtree3D>(&snapshot).unwrap();
        for _ in 0..passes {
            for (_, record) in &report.records {
                let op = record.to_op().unwrap();
                apply_replayed(&db, &op).unwrap();
            }
        }
        db
    };
    let once = encode_snapshot(&build(1), 9).unwrap();
    let twice = encode_snapshot(&build(2), 9).unwrap();
    assert_eq!(once, twice, "guarded replay must be idempotent on raw bits");
}

#[test]
fn reopening_without_writes_is_stable() {
    let store = SimStore::new();
    let mut db =
        DurableDatabase::<Rtree3D, _>::create(store.clone(), WalConfig::default(), 3).unwrap();
    db.apply(&[ins(1), ins(2), ins(3), ins(4)]).unwrap();
    drop(db);

    let first = DurableDatabase::<Rtree3D, _>::open(store.clone(), WalConfig::default()).unwrap();
    let image_first = encode_snapshot(first.database(), 0).unwrap();
    drop(first);
    let second = DurableDatabase::<Rtree3D, _>::open(store, WalConfig::default()).unwrap();
    let image_second = encode_snapshot(second.database(), 0).unwrap();
    assert_eq!(image_first, image_second, "recovery is a fixed point");
}

#[test]
fn file_store_recovers_a_real_directory_end_to_end() {
    let dir = temp_dir("recovery");
    let store = FileStore::open(&dir).unwrap();
    let mut db =
        DurableDatabase::<Rtree3D, _>::create(store, WalConfig { rotate_bytes: 512 }, 2).unwrap();
    db.apply(&[ins(1), ins(2), ins(3)]).unwrap();
    db.checkpoint().unwrap();
    db.apply(&[ins(4), del(1), ins(5)]).unwrap();
    let reference = encode_snapshot(db.database(), 0).unwrap();
    assert!(
        db.stats().wal_rotations > 0,
        "512-byte segments must rotate"
    );
    drop(db);

    let store = FileStore::open(&dir).unwrap();
    let back = DurableDatabase::<Rtree3D, _>::open(store, WalConfig::default()).unwrap();
    assert_eq!(back.stats().replayed_records, 3);
    assert_eq!(
        encode_snapshot(back.database(), 0).unwrap(),
        reference,
        "file-backed recovery reproduces the pre-shutdown state bit for bit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_store_repairs_a_torn_final_segment() {
    let dir = temp_dir("torn");
    let store = FileStore::open(&dir).unwrap();
    let mut db =
        DurableDatabase::<Rtree3D, _>::create(store.clone(), WalConfig::default(), 1).unwrap();
    db.apply(&[ins(1), ins(2)]).unwrap();
    db.apply(&[ins(3)]).unwrap();
    drop(db);

    // Tear the final segment mid-frame, as a crashed kernel would.
    let segments = store.list_logs().unwrap();
    let last = *segments.last().unwrap();
    let bytes = store.read_log(last).unwrap();
    store.rewrite_log(last, &bytes[..bytes.len() - 7]).unwrap();
    let report = replay(&store, 1).unwrap();
    assert_eq!(report.tail, TailState::Torn);
    assert_eq!(report.records.len(), 2, "record 3 lost to the tear");

    let back = DurableDatabase::<Rtree3D, _>::open(store.clone(), WalConfig::default()).unwrap();
    assert_eq!(back.applied_lsn(), 2);
    assert!(back.database().trajectory(TrajectoryId(3)).is_none());
    drop(back);

    // The open repaired the tear: a second scan sees a clean tail.
    let report = replay(&store, 1).unwrap();
    assert_eq!(report.tail, TailState::Clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn logical_records_roundtrip_through_ops() {
    let op = ins(12);
    let record = WalRecord::from_op(&op);
    assert_eq!(record.to_op().unwrap(), op);
}
