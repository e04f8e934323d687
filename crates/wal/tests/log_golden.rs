//! Golden log bytes: an `Insert` frame, a `Delete` frame and the snapshot
//! of a small two-shard R-tree database, pinned by length and FNV-1a 64.
//! The log and the snapshot are what recovery reads back after an
//! upgrade, so a refactor of their codec must leave every hash where it
//! is; a deliberate format change re-pins the table and says so.

use mst_exec::ShardedDatabase;
use mst_trajectory::{SamplePoint, Trajectory, TrajectoryId};
use mst_wal::record::encode_frame;
use mst_wal::{encode_snapshot, WalRecord};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn points(id: u64, n: usize) -> Vec<SamplePoint> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            SamplePoint::new(t, 0.5 * t - id as f64, (t * 0.25 + id as f64) % 3.0)
        })
        .collect()
}

fn messages() -> Vec<(&'static str, Vec<u8>)> {
    let insert = WalRecord::Insert {
        id: TrajectoryId(42),
        points: points(42, 5),
    };
    let delete = WalRecord::Delete {
        id: TrajectoryId(7),
    };
    let fleet = (0..6u64).map(|id| {
        let trajectory = Trajectory::new(points(id, 8)).expect("valid trajectory");
        (TrajectoryId(id), trajectory)
    });
    let db = ShardedDatabase::with_rtree(2, fleet).expect("database");
    vec![
        ("frame_insert", encode_frame(9, &insert)),
        ("frame_delete", encode_frame(10, &delete)),
        (
            "snapshot_rtree_2_shards",
            encode_snapshot(&db, 11).expect("snapshot"),
        ),
    ]
}

/// `(name, length, FNV-1a 64)`, recorded before the log and snapshot
/// codecs moved onto `mst_index::codec`.
const GOLDEN: [(&str, usize, u64); 3] = [
    ("frame_insert", 149, 0xf6b456ae6f2412e3),
    ("frame_delete", 25, 0x3bff53f5ce2c0a2d),
    ("snapshot_rtree_2_shards", 9580, 0x757abca6c4b0768c),
];

#[test]
fn log_frames_and_snapshots_encode_to_their_pinned_bytes() {
    let got: Vec<(&str, usize, u64)> = messages()
        .iter()
        .map(|(name, bytes)| (*name, bytes.len(), fnv1a64(bytes)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, len, hash)| format!("    (\"{name}\", {len}, {hash:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "table:\n{table}");
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(*g, want, "log bytes moved; table:\n{table}");
    }
}
