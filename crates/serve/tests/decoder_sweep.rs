//! A seeded mutation sweep over every decoder of outside bytes:
//! `Request::decode`, `Response::decode`, `Node::decode`, `PagedTree::load`
//! (R-tree, TB-tree and metric-tree images), `decode_frame` and
//! `decode_snapshot`.
//!
//! Each starts from valid encodings and is fed
//!
//! * every truncation,
//! * seeded random flips of one to three bits,
//! * every 2-, 4- and 8-byte window set to all ones, which inflates every
//!   count and length field to its maximum wherever it sits.
//!
//! WAL frames and snapshots are sealed by a checksum, so each mutation is
//! also re-sealed, which carries it past the checksum into the parser.
//! Every case must come back as a typed error or as a value whose
//! re-encoding decodes to itself, never as a panic. Debug builds run a
//! tenth of the cases (every tenth offset, a tenth of the flips); the
//! full count runs in release:
//!
//! ```text
//! cargo test -q --release -p mst-serve --test decoder_sweep
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use mst_exec::ShardedDatabase;
use mst_index::checksum::fold_bytes;
use mst_index::{InternalEntry, KnnMatch, LeafEntry, MetricTree, Node, PageId, Rtree3D, TbTree};
use mst_prng::Rng;
use mst_search::{MstMatch, NnMatch, QueryOptions};
use mst_serve::{ErrorCode, ProfileSummary, Request, Response, ServerCounters, StatsReport};
use mst_trajectory::{Mbb, Point, SamplePoint, Segment, TimeInterval, Trajectory, TrajectoryId};
use mst_wal::record::{decode_frame, encode_frame, Decoded};
use mst_wal::{decode_snapshot, encode_snapshot, WalRecord};

/// Seeded bit-flip cases per valid encoding at the full count.
const FLIPS: usize = 2_000;

/// Keeps one case in `1 / thin()`: all of them in release, a tenth in debug.
fn thin() -> usize {
    if cfg!(debug_assertions) {
        10
    } else {
        1
    }
}

/// Decodes `bytes`: `None` for a typed error, `Some(canonical)` for a
/// value, where `canonical` is its re-encoding (empty when the format has
/// no value-level encoder to compare).
type Decoder = fn(&[u8]) -> Option<Vec<u8>>;

/// Re-seals a mutated encoding so it passes the format's checksum.
type Sealer = fn(&mut [u8]);

struct Target {
    name: &'static str,
    decode: Decoder,
    seal: Option<Sealer>,
    valid: Vec<Vec<u8>>,
}

#[derive(Debug, Default)]
struct Tally {
    cases: usize,
    accepted: usize,
    panics: Vec<String>,
}

fn points(n: usize, id: u64) -> Vec<SamplePoint> {
    (0..n)
        .map(|i| SamplePoint::new(i as f64, 0.5 * i as f64 + id as f64, (id % 5) as f64))
        .collect()
}

/// Segment `seq` of object `traj`; consecutive segments join up, as the
/// metric tree requires.
fn entry(traj: u64, seq: u32) -> LeafEntry {
    let at = |t: f64| SamplePoint::new(t, traj as f64 + 0.25 * t, 0.5 * t);
    let t = f64::from(seq);
    LeafEntry {
        traj: TrajectoryId(traj),
        seq,
        segment: Segment::new(at(t), at(t + 1.0)).expect("valid segment"),
    }
}

fn requests() -> Vec<Vec<u8>> {
    let window = TimeInterval::new(0.5, 2.0).expect("valid window");
    let full = QueryOptions::new()
        .k(3)
        .during(&window)
        .deadline_us(900)
        .min_lsn(12);
    [
        Request::Kmst {
            points: points(4, 1),
            options: full,
        },
        Request::Knn {
            points: points(3, 2),
            options: QueryOptions::new(),
        },
        Request::KnnSegments {
            location: Point::new(1.5, -2.0),
            options: full,
        },
        Request::Range {
            window: Mbb::new(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
            options: QueryOptions::new(),
        },
        Request::Stats,
        Request::Shutdown,
        Request::Insert {
            id: TrajectoryId(9),
            points: points(3, 9),
        },
        Request::Delete {
            id: TrajectoryId(9),
        },
        Request::Subscribe { from_lsn: 4 },
        Request::ReplicaAck { lsn: 3 },
        Request::Hello {
            min_version: 2,
            max_version: 2,
            depth: 8,
        },
    ]
    .iter()
    .map(Request::encode)
    .collect()
}

fn responses() -> Vec<Vec<u8>> {
    [
        Response::Kmst {
            degraded: false,
            matches: vec![MstMatch {
                traj: TrajectoryId(3),
                dissim: 1.25,
            }],
        },
        Response::Knn {
            degraded: true,
            matches: vec![NnMatch {
                traj: TrajectoryId(4),
                distance: 0.5,
                time: 2.0,
            }],
        },
        Response::Segments {
            degraded: false,
            matches: vec![KnnMatch {
                entry: entry(5, 1),
                distance: 0.75,
            }],
        },
        Response::Range {
            degraded: false,
            entries: vec![entry(6, 0), entry(6, 1)],
        },
        Response::Stats(StatsReport {
            counters: ServerCounters {
                queries_completed: 7,
                ..ServerCounters::default()
            },
            profile: ProfileSummary {
                heap_pushes: 11,
                ..ProfileSummary::default()
            },
        }),
        Response::ShutdownAck,
        Response::Replicate {
            committed_lsn: 9,
            snapshot: Some(vec![0xA5; 24]),
            records: vec![vec![1, 2, 3], vec![4; 9]],
        },
        Response::Ingested {
            lsn: 5,
            applied: true,
        },
        Response::HelloAck {
            version: 2,
            depth: 4,
        },
        Response::Overloaded {
            queued: 3,
            capacity: 4,
        },
        Response::Error {
            code: ErrorCode::ReplicaLagging {
                required: 8,
                watermark: 6,
            },
            message: "behind".into(),
        },
    ]
    .iter()
    .map(Response::encode)
    .collect()
}

fn nodes() -> Vec<Vec<u8>> {
    let leaf = Node::Leaf {
        entries: (0..4).map(|seq| entry(2, seq)).collect(),
        owner: Some(TrajectoryId(2)),
        prev: Some(PageId(1)),
        next: None,
    };
    let internal = Node::Internal {
        level: 1,
        entries: (0..3)
            .map(|i| InternalEntry {
                child: PageId(i),
                mbb: Mbb::new(0.0, 0.0, f64::from(i), 1.0, 2.0, f64::from(i) + 1.0),
            })
            .collect(),
    };
    vec![leaf.encode(), internal.encode()]
}

/// 70 segments of two objects: two leaves under a root.
fn image<P: mst_index::InsertionPolicy>() -> Vec<u8> {
    let mut tree = mst_index::PagedTree::<P>::new();
    for seq in 0..35 {
        for traj in 0..2 {
            tree.insert(entry(traj, seq)).expect("insert");
        }
    }
    let mut bytes = Vec::new();
    tree.save_lsn(&mut bytes, 17).expect("save");
    bytes
}

fn frames() -> Vec<Vec<u8>> {
    vec![
        encode_frame(
            3,
            &WalRecord::Insert {
                id: TrajectoryId(8),
                points: points(3, 8),
            },
        ),
        encode_frame(
            4,
            &WalRecord::Delete {
                id: TrajectoryId(8),
            },
        ),
    ]
}

fn snapshot() -> Vec<u8> {
    let fleet = (0..2u64).map(|id| {
        let trajectory = Trajectory::new(points(4, id)).expect("valid trajectory");
        (TrajectoryId(id), trajectory)
    });
    let db = ShardedDatabase::with_rtree(1, fleet).expect("database");
    encode_snapshot(&db, 5).expect("snapshot")
}

fn seal_frame(bytes: &mut [u8]) {
    if bytes.len() >= 8 {
        let len = u32::try_from(bytes.len() - 8).expect("small frame");
        let sum = fold_bytes(&bytes[8..]);
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        bytes[4..8].copy_from_slice(&sum.to_le_bytes());
    }
}

fn seal_snapshot(bytes: &mut [u8]) {
    if let Some(body) = bytes.len().checked_sub(4) {
        let sum = fold_bytes(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }
}

fn targets() -> Vec<Target> {
    vec![
        Target {
            name: "Request::decode",
            decode: |b| Request::decode(b).ok().map(|r| r.encode()),
            seal: None,
            valid: requests(),
        },
        Target {
            name: "Response::decode",
            decode: |b| Response::decode(b).ok().map(|r| r.encode()),
            seal: None,
            valid: responses(),
        },
        Target {
            name: "Node::decode",
            decode: |b| Node::decode(PageId(0), b).ok().map(|n| n.encode()),
            seal: None,
            valid: nodes(),
        },
        Target {
            name: "Rtree3D::load",
            decode: |b| Rtree3D::load(b).ok().map(|_| Vec::new()),
            seal: None,
            valid: vec![image::<mst_index::RtreePolicy>()],
        },
        Target {
            name: "TbTree::load",
            decode: |b| TbTree::load(b).ok().map(|_| Vec::new()),
            seal: None,
            valid: vec![image::<mst_index::TbPolicy>()],
        },
        Target {
            name: "MetricTree::load",
            decode: |b| MetricTree::load(b).ok().map(|_| Vec::new()),
            seal: None,
            valid: vec![image::<mst_index::MetricPolicy>()],
        },
        Target {
            name: "decode_frame",
            decode: |b| match decode_frame(b) {
                Decoded::Record {
                    lsn,
                    record,
                    consumed,
                } => {
                    assert!(consumed <= b.len(), "a frame cannot outrun its bytes");
                    Some(encode_frame(lsn, &record))
                }
                Decoded::Torn | Decoded::Corrupt => None,
            },
            seal: Some(seal_frame),
            valid: frames(),
        },
        Target {
            name: "decode_snapshot",
            decode: |b| decode_snapshot::<Rtree3D>(b).ok().map(|_| Vec::new()),
            seal: Some(seal_snapshot),
            valid: vec![snapshot()],
        },
    ]
}

/// Every mutation of `valid` the sweep tries, each before sealing.
fn mutations(valid: &[u8], rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for cut in (0..valid.len()).step_by(thin()) {
        out.push(valid[..cut].to_vec());
    }
    for _ in 0..FLIPS / thin() {
        let mut m = valid.to_vec();
        for _ in 0..1 + rng.usize_below(3) {
            let bit = rng.usize_below(valid.len() * 8);
            m[bit / 8] ^= 1 << (bit % 8);
        }
        out.push(m);
    }
    for at in (0..valid.len()).step_by(thin()) {
        for width in [2, 4, 8] {
            if let Some(window) = valid.get(at..at + width) {
                if window.iter().all(|&b| b == 0xFF) {
                    continue;
                }
                let mut m = valid.to_vec();
                m[at..at + width].fill(0xFF);
                out.push(m);
            }
        }
    }
    out
}

fn run(target: &Target, bytes: &[u8], tally: &mut Tally) {
    tally.cases += 1;
    let decoded = catch_unwind(AssertUnwindSafe(|| (target.decode)(bytes)));
    match decoded {
        Err(_) => tally.panics.push(format!(
            "{}: {} bytes {:02x?}",
            target.name,
            bytes.len(),
            &bytes[..bytes.len().min(48)]
        )),
        Ok(None) => {}
        Ok(Some(canonical)) => {
            tally.accepted += 1;
            if !canonical.is_empty() {
                let again = (target.decode)(&canonical);
                assert_eq!(
                    again.as_ref(),
                    Some(&canonical),
                    "{}: a decoded value must re-encode to bytes that decode to it",
                    target.name
                );
            }
        }
    }
}

#[test]
fn every_decoder_survives_truncation_bit_flips_and_inflated_counts() {
    let mut rng = Rng::seed_from(0x5EED_C0DE);
    let mut total = Tally::default();
    for target in targets() {
        let mut tally = Tally::default();
        for valid in &target.valid {
            assert!(
                (target.decode)(valid).is_some(),
                "{}: the valid encoding must decode",
                target.name
            );
            for mut m in mutations(valid, &mut rng) {
                run(&target, &m, &mut tally);
                if let Some(seal) = target.seal {
                    seal(&mut m);
                    run(&target, &m, &mut tally);
                }
            }
        }
        eprintln!(
            "decoder sweep: {:<18} {:>7} cases, {:>6} accepted, {} panics",
            target.name,
            tally.cases,
            tally.accepted,
            tally.panics.len()
        );
        total.cases += tally.cases;
        total.accepted += tally.accepted;
        total.panics.extend(tally.panics);
    }
    eprintln!(
        "decoder sweep: {} cases, {} accepted, {} panics",
        total.cases,
        total.accepted,
        total.panics.len()
    );
    assert!(
        total.panics.is_empty(),
        "{} panics, first: {:?}",
        total.panics.len(),
        total.panics.first()
    );
    assert!(total.cases > 10_000 / thin(), "the sweep ran");
}
