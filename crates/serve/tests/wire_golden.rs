//! Golden wire bytes: one of every `Request` and `Response` variant,
//! every `ErrorCode`, and a `Stats` report with a distinct value in each
//! of its 29 slots, encoded and pinned by FNV-1a 64 of the payload. A
//! refactor of the codec, the counter list or the refusal paths must
//! leave every hash where it is; a deliberate format change re-pins the
//! table and says so.

use mst_index::{KnnMatch, LeafEntry};
use mst_search::{MstMatch, NnMatch, QueryOptions, Substrate};
use mst_serve::protocol::encode_frame_v2;
use mst_serve::{
    ErrorCode, ProfileSummary, Request, Response, ServerCounters, StatsReport, VERSION,
};
use mst_trajectory::{Mbb, Point, SamplePoint, Segment, TimeInterval, TrajectoryId};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn points() -> Vec<SamplePoint> {
    vec![
        SamplePoint::new(0.0, 1.5, -2.25),
        SamplePoint::new(1.0, 3.0, 4.0),
        SamplePoint::new(2.5, -0.0, 7.125),
    ]
}

fn entry(traj: u64, seq: u32) -> LeafEntry {
    let segment = Segment::new(
        SamplePoint::new(1.0, 2.0, 3.0),
        SamplePoint::new(4.0, 5.0, 6.5),
    )
    .expect("valid segment");
    LeafEntry {
        traj: TrajectoryId(traj),
        seq,
        segment,
    }
}

fn messages() -> Vec<(&'static str, Vec<u8>)> {
    let window = TimeInterval::new(0.5, 2.0).expect("valid window");
    let full = QueryOptions::new()
        .k(7)
        .during(&window)
        .deadline_us(1_500)
        .min_lsn(88)
        .substrate(Substrate::TbTree);
    let requests = [
        (
            "req_kmst_default",
            Request::Kmst {
                points: points(),
                options: QueryOptions::new(),
            },
        ),
        (
            "req_kmst_full",
            Request::Kmst {
                points: points(),
                options: full,
            },
        ),
        (
            "req_knn",
            Request::Knn {
                points: points(),
                options: QueryOptions::new().k(3).substrate(Substrate::Metric),
            },
        ),
        (
            "req_knn_segments",
            Request::KnnSegments {
                location: Point::new(3.25, -8.5),
                options: QueryOptions::new().k(6).during(&window),
            },
        ),
        (
            "req_range",
            Request::Range {
                window: Mbb::new(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
                options: QueryOptions::new().substrate(Substrate::StrTree),
            },
        ),
        ("req_stats", Request::Stats),
        ("req_shutdown", Request::Shutdown),
        (
            "req_insert",
            Request::Insert {
                id: TrajectoryId(99),
                points: points(),
            },
        ),
        (
            "req_delete",
            Request::Delete {
                id: TrajectoryId(12),
            },
        ),
        ("req_subscribe", Request::Subscribe { from_lsn: 17 }),
        ("req_replica_ack", Request::ReplicaAck { lsn: 16 }),
        (
            "req_hello",
            Request::Hello {
                min_version: 2,
                max_version: 3,
                depth: 32,
            },
        ),
    ];

    let stats = StatsReport {
        counters: ServerCounters {
            connections_accepted: 1,
            connections_rejected: 2,
            requests_decoded: 3,
            queries_admitted: 4,
            queries_completed: 5,
            queries_degraded: 6,
            overload_rejections: 7,
            malformed_frames: 8,
            invalid_queries: 9,
            cache_hits: 10,
            cache_misses: 11,
            ingest_applied: 12,
            wal_appends: 13,
            wal_fsyncs: 14,
            replayed_records: 15,
            repl_committed_lsn: 16,
            repl_acked_lsn: 17,
            repl_records_shipped: 18,
            repl_heartbeats: 19,
            repl_applied_lsn: 20,
            repl_records_applied: 21,
            repl_reconnects: 22,
        },
        profile: ProfileSummary {
            heap_pushes: 23,
            heap_pops: 24,
            nodes_accessed: 25,
            buffer_hits: 26,
            buffer_misses: 27,
            piece_evals: 28,
            early_terminations: 29,
        },
    };
    let error = |code| Response::Error {
        code,
        message: "typed refusal".into(),
    };
    let responses = [
        (
            "resp_kmst",
            Response::Kmst {
                degraded: false,
                matches: vec![
                    MstMatch {
                        traj: TrajectoryId(3),
                        dissim: 1.25,
                    },
                    MstMatch {
                        traj: TrajectoryId(8),
                        dissim: 2.5,
                    },
                ],
            },
        ),
        (
            "resp_knn",
            Response::Knn {
                degraded: true,
                matches: vec![NnMatch {
                    traj: TrajectoryId(9),
                    distance: 0.5,
                    time: 4.0,
                }],
            },
        ),
        (
            "resp_segments",
            Response::Segments {
                degraded: false,
                matches: vec![KnnMatch {
                    entry: entry(42, 7),
                    distance: 2.5,
                }],
            },
        ),
        (
            "resp_range",
            Response::Range {
                degraded: true,
                entries: vec![entry(42, 7), entry(43, 0)],
            },
        ),
        ("resp_stats", Response::Stats(stats)),
        ("resp_shutdown_ack", Response::ShutdownAck),
        (
            "resp_replicate_records",
            Response::Replicate {
                committed_lsn: 42,
                snapshot: None,
                records: vec![vec![1, 2, 3], vec![], vec![9; 5]],
            },
        ),
        (
            "resp_replicate_snapshot",
            Response::Replicate {
                committed_lsn: 7,
                snapshot: Some(vec![0xAB; 6]),
                records: vec![],
            },
        ),
        (
            "resp_ingested",
            Response::Ingested {
                lsn: 77,
                applied: true,
            },
        ),
        (
            "resp_hello_ack",
            Response::HelloAck {
                version: VERSION,
                depth: 16,
            },
        ),
        (
            "resp_overloaded",
            Response::Overloaded {
                queued: 4,
                capacity: 5,
            },
        ),
        ("err_malformed", error(ErrorCode::Malformed)),
        ("err_invalid_query", error(ErrorCode::InvalidQuery)),
        ("err_shutting_down", error(ErrorCode::ShuttingDown)),
        ("err_internal", error(ErrorCode::Internal)),
        (
            "err_unsupported_version",
            error(ErrorCode::UnsupportedVersion { min: 2, max: 2 }),
        ),
        ("err_read_only", error(ErrorCode::ReadOnly)),
        (
            "err_replica_lagging",
            error(ErrorCode::ReplicaLagging {
                required: 90,
                watermark: 85,
            }),
        ),
        ("err_not_primary", error(ErrorCode::NotPrimary)),
    ];

    let mut out: Vec<(&'static str, Vec<u8>)> = Vec::new();
    for (name, request) in requests {
        out.push((name, request.encode()));
    }
    for (name, response) in responses {
        out.push((name, response.encode()));
    }
    let mut frame = Vec::new();
    encode_frame_v2(&mut frame, 0x0102_0304_0506_0708, &Request::Stats.encode()).expect("frame");
    out.push(("frame_v2_stats", frame));
    out
}

/// (name, payload length, FNV-1a 64 of the payload). `req_kmst_full` was
/// re-pinned when the options' sharing flag became a reserved byte that
/// encoders always write as 1: it had carried a 0 there. The layout did not
/// change, and a 0 still decodes (`protocol` tests).
const GOLDEN: &[(&str, usize, u64)] = &[
    ("req_kmst_default", 86, 0xc209e90e42d34d19),
    ("req_kmst_full", 118, 0xcd9a4160d8e848c2),
    ("req_knn", 86, 0x01ad5aeb8737950c),
    ("req_knn_segments", 42, 0x1a89795cb7ffd13a),
    ("req_range", 58, 0x61158557b2d92509),
    ("req_stats", 1, 0xaf63b84c8601af60),
    ("req_shutdown", 1, 0xaf63bb4c8601b479),
    ("req_insert", 85, 0x05e9b4f01ad22b00),
    ("req_delete", 9, 0xfd42494af52502db),
    ("req_subscribe", 9, 0xfc940f62eeb0d075),
    ("req_replica_ack", 9, 0xb87f675143a9246d),
    ("req_hello", 11, 0x3349046660ea6dd5),
    ("resp_kmst", 38, 0xdc1485d45887ce90),
    ("resp_knn", 30, 0x57a003880812b169),
    ("resp_segments", 74, 0xfa7f52873a1102b1),
    ("resp_range", 126, 0x0c9147aac1c58132),
    ("resp_stats", 233, 0x0880d6e213dab701),
    ("resp_shutdown_ack", 1, 0xaf643b4c86028df9),
    ("resp_replicate_records", 34, 0xd60222f03f769c53),
    ("resp_replicate_snapshot", 24, 0xa197d3abc6f26867),
    ("resp_ingested", 10, 0x78f278f1ff60f51e),
    ("resp_hello_ack", 5, 0x3b6c9cdb92d4830c),
    ("resp_overloaded", 9, 0x6c7ec4abdc4e02ce),
    ("err_malformed", 17, 0x0922d897880ac89a),
    ("err_invalid_query", 17, 0x092702873e1b8b9d),
    ("err_shutting_down", 17, 0xcad6a90a3b7052a8),
    ("err_internal", 17, 0x1416e9a4d6e789db),
    ("err_unsupported_version", 21, 0x38ce32583836d666),
    ("err_read_only", 17, 0xbc0ddd89ab4c52d9),
    ("err_replica_lagging", 33, 0x1b94c725d791c0b9),
    ("err_not_primary", 17, 0x7141f093f3137b27),
    ("frame_v2_stats", 13, 0x26dc2d0410e64623),
];

#[test]
fn every_message_encodes_to_its_pinned_bytes() {
    let got: Vec<(&str, usize, u64)> = messages()
        .iter()
        .map(|(name, bytes)| (*name, bytes.len(), fnv1a64(bytes)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, len, hash)| format!("    (\"{name}\", {len}, {hash:#018x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        GOLDEN.len(),
        "message count moved; table:\n{table}"
    );
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(g, want, "wire bytes moved; table:\n{table}");
    }
}
