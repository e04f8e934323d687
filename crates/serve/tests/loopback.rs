//! Loopback integration: a real server on an ephemeral port, real TCP
//! clients speaking wire protocol v2 — pipelined, multiplexed, answers
//! compared bit-for-bit against the embedded single-threaded
//! `Query::run` path.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use mst_datagen::fixtures::{gstd_fleet, twins_fleet};
use mst_exec::ShardedDatabase;
use mst_search::{
    scan_kmst, Integration, MovingObjectDatabase, Query, QueryOptions, Substrate, TrajectoryStore,
};
use mst_serve::protocol::{encode_frame_v2, write_frame_v2};
use mst_serve::{
    ErrorCode, Request, Response, ServeClient, Server, ServerConfig, ServerHandle, VERSION,
};
use mst_trajectory::{Mbb, Point, Trajectory, TrajectoryId};

fn start_server(
    fleet: &[(TrajectoryId, Trajectory)],
    shards: usize,
    config: ServerConfig,
) -> ServerHandle<mst_index::Rtree3D> {
    let db = ShardedDatabase::with_rtree(shards, fleet.iter().cloned()).expect("build shards");
    Server::start(config, Arc::new(db)).expect("start server")
}

/// Reads one frame by hand off a raw socket: `[len: u32 le]`, then for v2
/// the `[request id: u64 le]` ahead of the payload (v1 frames report id
/// 0). `Ok(None)` is a clean close at a frame boundary.
fn read_raw_frame(stream: &mut TcpStream, v2: bool) -> std::io::Result<Option<(u64, Vec<u8>)>> {
    let mut prefix = [0u8; 4];
    if stream.read(&mut prefix[..1])? == 0 {
        return Ok(None);
    }
    stream.read_exact(&mut prefix[1..])?;
    let mut body = vec![0u8; u32::from_le_bytes(prefix) as usize];
    stream.read_exact(&mut body)?;
    if !v2 {
        return Ok(Some((0, body)));
    }
    let payload = body.split_off(8);
    let id = u64::from_le_bytes(body.try_into().expect("an 8-byte request id"));
    Ok(Some((id, payload)))
}

#[test]
fn multiplexed_clients_get_bit_identical_answers() {
    let fleet = gstd_fleet(48, 120, 11);
    let server = start_server(&fleet, 3, ServerConfig::new().workers(3).queue_capacity(16));
    let addr = server.local_addr();

    // Embedded baseline: single-threaded Query::run over one unsharded
    // database.
    let mut baseline = MovingObjectDatabase::with_rtree();
    for (id, t) in &fleet {
        baseline.insert_trajectory(*id, t).expect("insert");
    }
    // The same window the client threads derive (from fleet[7]). The
    // range box is time-bounded so the answer fits one frame comfortably.
    let window = fleet[7].1.time();
    let range_box = Mbb::new(0.0, 0.0, window.start(), 1.0, 1.0, window.start() + 30.0);

    let expected_kmst: Vec<Vec<mst_search::MstMatch>> = (0..8)
        .map(|i| {
            let q = &fleet[i * 5].1;
            Query::kmst(q).k(4).run(&baseline).expect("baseline kmst")
        })
        .collect();
    let expected_knn = Query::knn(&fleet[7].1)
        .k(3)
        .run(&baseline)
        .expect("baseline knn");
    let expected_segments = Query::knn_segments(Point::new(0.5, 0.5))
        .k(6)
        .during(&window)
        .run(&baseline)
        .expect("baseline segments");
    let expected_range = {
        // The server merges shard lists into canonical (traj, seq) order;
        // the unsharded baseline reports traversal order. Same set,
        // canonical order for comparison.
        let mut entries = Query::range(&range_box)
            .run(&baseline)
            .expect("baseline range");
        entries.sort_by(|a, b| a.traj.cmp(&b.traj).then(a.seq.cmp(&b.seq)));
        entries
    };

    // 8 concurrent connections, each pipelining all four flavours at
    // once — the server sees them interleaved across connections and
    // dedups the shared ones — then claiming the responses in reverse
    // send order (the multiplexing contract: ids route answers, not
    // arrival order).
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let q = fleet[i * 5].1.clone();
            let expected = expected_kmst[i].clone();
            let expected_knn = expected_knn.clone();
            let expected_segments = expected_segments.clone();
            let expected_range = expected_range.clone();
            let knn_query = fleet[7].1.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                assert!(client.depth() >= 4, "default depth grant fits the burst");
                let window = knn_query.time();
                let range_box = Mbb::new(0.0, 0.0, window.start(), 1.0, 1.0, window.start() + 30.0);
                let id_kmst = client
                    .send(&Request::Kmst {
                        points: q.points().to_vec(),
                        options: QueryOptions::new().k(4),
                    })
                    .expect("send kmst");
                let id_knn = client
                    .send(&Request::Knn {
                        points: knn_query.points().to_vec(),
                        options: QueryOptions::new().k(3),
                    })
                    .expect("send knn");
                let id_segments = client
                    .send(&Request::KnnSegments {
                        location: Point::new(0.5, 0.5),
                        options: QueryOptions::new().k(6).during(&window),
                    })
                    .expect("send segments");
                let id_range = client
                    .send(&Request::Range {
                        window: range_box,
                        options: QueryOptions::new(),
                    })
                    .expect("send range");
                assert_eq!(client.in_flight(), 4);

                match client.wait(id_range).expect("range") {
                    Response::Range { degraded, entries } => {
                        assert!(!degraded);
                        assert_eq!(entries, expected_range);
                    }
                    other => panic!("expected Range, got {other:?}"),
                }
                match client.wait(id_segments).expect("segments") {
                    Response::Segments { degraded, matches } => {
                        assert!(!degraded);
                        assert_eq!(matches, expected_segments);
                    }
                    other => panic!("expected Segments, got {other:?}"),
                }
                match client.wait(id_knn).expect("knn") {
                    Response::Knn { degraded, matches } => {
                        assert!(!degraded);
                        // Same contract as the exec determinism suite:
                        // (traj, bitwise distance); the closest-approach
                        // *instant* is tie-broken by traversal order.
                        assert_eq!(matches.len(), expected_knn.len());
                        for (g, w) in matches.iter().zip(&expected_knn) {
                            assert_eq!(g.traj, w.traj);
                            assert_eq!(g.distance.to_bits(), w.distance.to_bits());
                        }
                    }
                    other => panic!("expected Knn, got {other:?}"),
                }
                match client.wait(id_kmst).expect("kmst") {
                    Response::Kmst { degraded, matches } => {
                        assert!(!degraded);
                        assert_eq!(matches, expected);
                    }
                    other => panic!("expected Kmst, got {other:?}"),
                }
                assert_eq!(client.in_flight(), 0);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let mut client = ServeClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    // Every client query request answered, whether it ran or attached to
    // a deduped in-flight execution.
    assert_eq!(stats.counters.queries_completed, 32);
    assert_eq!(stats.counters.queries_degraded, 0);
    assert_eq!(stats.counters.malformed_frames, 0);
    assert_eq!(stats.counters.invalid_queries, 0);
    // The shared knn/segments/range queries overlap across the 8
    // connections, so the server must have executed fewer than 32.
    assert!(stats.counters.queries_admitted <= 32);
    assert!(stats.counters.queries_admitted >= 8, "8 distinct kmst");
    assert!(stats.profile.nodes_accessed > 0, "profile merged");
    server.shutdown();
}

#[test]
fn pipelined_responses_arrive_out_of_order() {
    let fleet = gstd_fleet(100, 120, 17);
    let server = start_server(&fleet, 2, ServerConfig::new().workers(1).queue_capacity(8));
    let addr = server.local_addr();

    let mut client = ServeClient::connect(addr).expect("connect");
    // Five distinct slow queries saturate the single exec worker, then a
    // cheap Stats probe rides the same connection. The stats answer is
    // produced directly on the I/O thread while the queries queue and
    // execute, so it must come back before the last k-MST — the
    // head-of-line blocking v1 could never avoid.
    let slow_ids: Vec<_> = (0..5)
        .map(|i| {
            client
                .send(&Request::Kmst {
                    points: fleet[i * 9].1.points().to_vec(),
                    options: QueryOptions::new().k(12),
                })
                .expect("send kmst")
        })
        .collect();
    let fast = client.send(&Request::Stats).expect("send stats");
    assert_eq!(client.in_flight(), 6);

    // Claim responses strictly in arrival order.
    let arrival: Vec<_> = (0..6)
        .map(|_| {
            let (id, response) = client.recv_any().expect("response");
            if id == fast {
                assert!(matches!(response, Response::Stats(_)));
            } else {
                match response {
                    Response::Kmst { degraded, matches } => {
                        assert!(!degraded);
                        assert_eq!(matches.len(), 12);
                    }
                    other => panic!("expected Kmst, got {other:?}"),
                }
            }
            id
        })
        .collect();
    let pos = |id| arrival.iter().position(|&a| a == id).expect("answered");
    // The last-submitted kmst completes last of the five (single worker,
    // FIFO admission); the stats probe must have overtaken it.
    assert!(
        pos(fast) < pos(slow_ids[4]),
        "stats probe was head-of-line blocked: arrival {arrival:?}"
    );
    server.shutdown();
}

#[test]
fn overload_answers_typed_backpressure_never_hangs() {
    let fleet = gstd_fleet(60, 120, 3);
    let server = start_server(&fleet, 1, ServerConfig::new().workers(1).queue_capacity(1));
    let addr = server.local_addr();
    // Every thread runs its own distinct query so the server cannot
    // dedup the burst away — admission control must genuinely engage.
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let q = fleet[(i * 7) % fleet.len()].1.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut overloaded = 0u32;
                for _ in 0..25 {
                    match client.kmst(&q, QueryOptions::new().k(8)).expect("kmst") {
                        Response::Kmst { matches, .. } => assert!(!matches.is_empty()),
                        Response::Overloaded { capacity, .. } => {
                            assert_eq!(capacity, 1);
                            overloaded += 1;
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                overloaded
            })
        })
        .collect();
    let total_overloaded: u32 = threads.into_iter().map(|t| t.join().expect("client")).sum();
    // A 1-worker, depth-1 queue cannot absorb 8 bursting clients: the
    // typed rejection must have fired, and every request got *some*
    // well-formed answer (the joins above would hang otherwise).
    assert!(total_overloaded > 0, "admission control never engaged");
    let mut client = ServeClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        u64::from(total_overloaded),
        stats.counters.overload_rejections
    );
    server.shutdown();
}

/// An unset queue bound is the executor's own default, `2 x workers`, and
/// a query that finds the queue full is refused with that capacity.
#[test]
fn an_unset_queue_bound_is_twice_the_workers() {
    let fleet = gstd_fleet(40, 60, 5);
    let db = ShardedDatabase::with_rtree(1, fleet.iter().cloned()).expect("build shards");
    let db = Arc::new(db);
    let server = Server::start(ServerConfig::new().workers(3), Arc::clone(&db)).expect("start");
    let mut client = ServeClient::connect_with_depth(server.local_addr(), 32).expect("connect");
    let burst = 20;
    // While the shard's write gate is held no query can run: three wait in
    // the workers and six in the executor's queue, so at least eleven of
    // the twenty distinct queries are refused (the bound below is the
    // looser one from when a backlog of six more sat in front of the
    // queue).
    db.shards()[0]
        .write(|_| {
            for (_, t) in fleet.iter().take(burst) {
                let request = Request::Kmst {
                    points: t.points().to_vec(),
                    options: QueryOptions::new().k(3),
                };
                client.send(&request).expect("send");
            }
            let (_, first) = client.recv_any().expect("first answer");
            assert!(
                matches!(first, Response::Overloaded { capacity: 6, .. }),
                "{first:?}"
            );
        })
        .expect("write gate");
    let mut overloaded = 1;
    for _ in 1..burst {
        match client.recv_any().expect("answer").1 {
            Response::Kmst { matches, .. } => assert_eq!(matches.len(), 3),
            Response::Overloaded { capacity, .. } => {
                assert_eq!(capacity, 6);
                overloaded += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(overloaded >= burst - 15, "{overloaded} refused");
    server.shutdown();
}

#[test]
fn shutdown_drains_inflight_queries() {
    let fleet = gstd_fleet(80, 120, 9);
    let server = start_server(&fleet, 2, ServerConfig::new().workers(1).queue_capacity(4));
    let addr = server.local_addr();

    // Client A: a heavy query.
    let q = fleet[0].1.clone();
    let worker = std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).expect("connect");
        client
            .kmst(&q, QueryOptions::new().k(10))
            .expect("answered despite shutdown")
    });

    // Client B: wait until A's query is admitted, then ask for shutdown.
    let mut client = ServeClient::connect(addr).expect("connect");
    loop {
        let stats = client.stats().expect("stats");
        if stats.counters.queries_admitted >= 1 {
            break;
        }
        std::thread::yield_now();
    }
    assert!(client.shutdown().expect("ack"));
    server.join();

    // A's in-flight query completed and its response was delivered.
    match worker.join().expect("client A") {
        Response::Kmst { matches, .. } => assert!(!matches.is_empty()),
        other => panic!("expected Kmst, got {other:?}"),
    }
}

#[test]
fn answer_cache_serves_repeats_bit_identically() {
    let fleet = gstd_fleet(40, 120, 21);
    let server = start_server(&fleet, 2, ServerConfig::new().workers(2).cache_capacity(16));
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");

    let first = match client
        .kmst(&fleet[5].1, QueryOptions::new().k(4))
        .expect("kmst")
    {
        Response::Kmst { degraded, matches } => {
            assert!(!degraded);
            matches
        }
        other => panic!("expected Kmst, got {other:?}"),
    };
    // The repeat answers from the cache: bit-identical matches, a hit on
    // the counters, and no second execution.
    let second = match client
        .kmst(&fleet[5].1, QueryOptions::new().k(4))
        .expect("kmst repeat")
    {
        Response::Kmst { degraded, matches } => {
            assert!(!degraded);
            matches
        }
        other => panic!("expected Kmst, got {other:?}"),
    };
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.traj, b.traj);
        assert_eq!(a.dissim.to_bits(), b.dissim.to_bits());
    }
    // A deadline-only difference hits the same entry (certified answers
    // are deadline-independent); a different k misses.
    match client
        .kmst(&fleet[5].1, QueryOptions::new().k(4).deadline_us(5_000_000))
        .expect("kmst deadline variant")
    {
        Response::Kmst { degraded, .. } => assert!(!degraded),
        other => panic!("expected Kmst, got {other:?}"),
    }
    match client
        .kmst(&fleet[5].1, QueryOptions::new().k(5))
        .expect("kmst different k")
    {
        Response::Kmst { .. } => {}
        other => panic!("expected Kmst, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.counters.cache_hits, 2, "repeat + deadline variant");
    assert_eq!(stats.counters.cache_misses, 2, "first + different k");
    assert_eq!(stats.counters.queries_admitted, 2, "two real executions");
    assert_eq!(stats.counters.queries_completed, 4);
    server.shutdown();
}

/// ROADMAP exactness part (2), on the served path: one trajectory stored
/// under two ids (and a third, mirrored across the query's lane, at the
/// same DISSIM), a strictly closer object, and further mirror pairs, so an
/// equal-DISSIM tie sits at the kth position for most `k`. Every `k` is
/// bit-equal to the exact scan on 1 and 2 shards (`id % 2` puts each tied
/// pair on different shards, so the cross-shard merge breaks the ties),
/// answer cache off and on.
#[test]
fn twins_and_ties_are_served_exactly_at_every_k() {
    let (query, fleet) = twins_fleet();
    let store: TrajectoryStore = fleet.iter().cloned().collect();
    let period = query.time();
    let all = scan_kmst(&store, &query, &period, fleet.len(), Integration::Exact).expect("scan");
    let bits = |id: u64| {
        let hit = all
            .iter()
            .find(|m| m.traj == TrajectoryId(id))
            .expect("scanned");
        hit.dissim.to_bits()
    };
    assert_eq!(all[0].traj, TrajectoryId(1), "the closer object leads");
    assert_eq!(bits(0), bits(5), "twins tie");
    assert_eq!(bits(0), bits(7), "and so does their mirror image");
    assert_eq!(bits(2), bits(3));
    assert_eq!(bits(4), bits(6));

    for shards in [1, 2] {
        for cache in [0, 32] {
            let config = ServerConfig::new().workers(2).cache_capacity(cache);
            let server = start_server(&fleet, shards, config);
            let mut client = ServeClient::connect(server.local_addr()).expect("connect");
            // Twice, so the second pass is answered from the cache when on.
            for pass in 0..2 {
                for k in 1..=fleet.len() {
                    let want =
                        scan_kmst(&store, &query, &period, k, Integration::Exact).expect("scan");
                    match client.kmst(&query, QueryOptions::new().k(k)).expect("kmst") {
                        Response::Kmst { degraded, matches } => {
                            assert!(!degraded);
                            assert_eq!(
                                matches, want,
                                "{shards} shard(s), cache {cache}, pass {pass}, k {k}"
                            );
                        }
                        other => panic!("expected Kmst, got {other:?}"),
                    }
                }
            }
            server.shutdown();
        }
    }
}

/// A query pinned to a substrate the server does not run on is refused by
/// every shard whatever its flavour: the answer comes back degraded and
/// empty, never computed on the wrong structure.
#[test]
fn a_foreign_substrate_pin_is_refused_by_every_flavour() {
    let fleet = gstd_fleet(16, 120, 5);
    let server = start_server(&fleet, 2, ServerConfig::new().workers(2));
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let q = &fleet[3].1;
    let window = q.time();
    let everything = Mbb::new(0.0, 0.0, window.start(), 1.0, 1.0, window.start() + 10.0);
    for (substrate, refused) in [(Substrate::Metric, true), (Substrate::Rtree, false)] {
        let options = QueryOptions::new()
            .k(3)
            .during(&window)
            .substrate(substrate);
        let answers = [
            client.kmst(q, options).expect("kmst"),
            client.knn(q, options).expect("knn"),
            client
                .knn_segments(Point::new(0.5, 0.5), options)
                .expect("segments"),
            client.range(&everything, options).expect("range"),
        ];
        for answer in answers {
            let (degraded, empty) = match &answer {
                Response::Kmst { degraded, matches } => (*degraded, matches.is_empty()),
                Response::Knn { degraded, matches } => (*degraded, matches.is_empty()),
                Response::Segments { degraded, matches } => (*degraded, matches.is_empty()),
                Response::Range { degraded, entries } => (*degraded, entries.is_empty()),
                other => panic!("expected an answer, got {other:?}"),
            };
            assert_eq!(
                (degraded, empty),
                (refused, refused),
                "{substrate:?}: {answer:?}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn v1_clients_get_a_typed_version_error_in_their_own_framing() {
    let fleet = gstd_fleet(20, 120, 7);
    let server = start_server(&fleet, 2, ServerConfig::new());
    let addr = server.local_addr();

    // A legacy v1 client: no hello, just a v1-framed Stats request. The
    // server must answer in v1 framing with a typed UnsupportedVersion —
    // never hang, never close silently.
    let mut legacy = TcpStream::connect(addr).expect("connect");
    let payload = Request::Stats.encode();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    legacy.write_all(&frame).expect("v1 frame");
    let (_, payload) = read_raw_frame(&mut legacy, false)
        .expect("read error frame")
        .expect("a typed answer, not silence");
    match Response::decode(&payload).expect("decode v1 frame") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::UnsupportedVersion { min: 2, max: 2 });
            assert!(message.contains("v2"), "tells the client what to speak");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // After the rejection the stream closes cleanly.
    assert!(matches!(read_raw_frame(&mut legacy, false), Ok(None)));

    // A v2 hello offering only versions the server does not speak gets a
    // v2-framed UnsupportedVersion at request id 0.
    let mut stale = TcpStream::connect(addr).expect("connect");
    let hello = Request::Hello {
        min_version: 1,
        max_version: 1,
        depth: 4,
    };
    write_frame_v2(&mut stale, 0, &hello.encode()).expect("v2 hello");
    let (id, payload) = read_raw_frame(&mut stale, true)
        .expect("read error frame")
        .expect("a typed answer, not silence");
    assert_eq!(id, 0);
    match Response::decode(&payload).expect("decode v2 frame") {
        Response::Error { code, .. } => {
            assert_eq!(
                code,
                ErrorCode::UnsupportedVersion {
                    min: VERSION,
                    max: VERSION
                }
            );
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // The v1 rejection is not a malformed frame — it's a well-formed
    // request in a protocol the server no longer speaks.
    let mut client = ServeClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.counters.malformed_frames, 0);
    server.shutdown();
}

#[test]
fn malformed_frames_answer_typed_errors_and_server_survives() {
    let fleet = gstd_fleet(20, 120, 5);
    let server = start_server(&fleet, 2, ServerConfig::new());
    let addr = server.local_addr();

    // Garbage opcode inside a well-formed v2 frame: typed Malformed
    // error echoing the request id, connection closed.
    let mut client = ServeClient::connect(addr).expect("connect");
    let response = client.request(&Request::Stats); // warm-up: valid
    assert!(matches!(response, Ok(Response::Stats(_))));
    write_frame_v2(client.raw_stream(), 77, &[0x7f]).expect("write garbage opcode");
    let (id, payload) = read_raw_frame(client.raw_stream(), true)
        .expect("error frame")
        .expect("a typed answer, not silence");
    assert_eq!(id, 77);
    match Response::decode(&payload).expect("decode") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Error, got {other:?}"),
    }

    // Oversized length prefix: the server rejects before allocating and
    // closes; a fresh connection still works.
    let mut hostile = ServeClient::connect(addr).expect("connect");
    hostile
        .raw_stream()
        .write_all(&(mst_serve::MAX_FRAME + 9).to_le_bytes())
        .expect("write hostile prefix");
    // Already closed (no frame) is acceptable.
    if let Ok(Some((_, payload))) = read_raw_frame(hostile.raw_stream(), true) {
        match Response::decode(&payload).expect("decode") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    // Mid-frame disconnect: promise 100 bytes, send a few, hang up.
    {
        let mut quitter = ServeClient::connect(addr).expect("connect");
        quitter
            .raw_stream()
            .write_all(&[100u8, 0, 0, 0, 1, 2, 3])
            .expect("write partial");
    } // dropped: TCP FIN mid-frame

    // A second hello after the handshake is a protocol violation.
    let mut rehello = ServeClient::connect(addr).expect("connect");
    let hello = Request::Hello {
        min_version: VERSION,
        max_version: VERSION,
        depth: 1,
    };
    write_frame_v2(rehello.raw_stream(), 9, &hello.encode()).expect("write second hello");
    let (_, payload) = read_raw_frame(rehello.raw_stream(), true)
        .expect("error frame")
        .expect("a typed answer");
    match Response::decode(&payload).expect("decode") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Error, got {other:?}"),
    }

    // Semantically invalid query (one-point trajectory): typed
    // InvalidQuery, connection stays open.
    let mut client = ServeClient::connect(addr).expect("connect");
    let response = client
        .request(&Request::Kmst {
            points: vec![mst_trajectory::SamplePoint::new(0.0, 0.0, 0.0)],
            options: QueryOptions::new(),
        })
        .expect("typed response");
    match response {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::InvalidQuery),
        other => panic!("expected InvalidQuery, got {other:?}"),
    }
    // Same connection still serves.
    assert!(client.stats().is_ok());

    let stats = client.stats().expect("stats");
    assert!(stats.counters.malformed_frames >= 3);
    assert_eq!(stats.counters.invalid_queries, 1);
    server.shutdown();
}

/// A peer that writes past its granted depth in one burst is paced, not
/// flooded into the executor: at depth 1 the server parses the next frame
/// only once the previous answer is out, so even a one-slot backlog never
/// overflows and every query runs.
#[test]
fn frames_beyond_the_granted_depth_wait_their_turn() {
    let fleet = gstd_fleet(40, 120, 13);
    let server = start_server(&fleet, 1, ServerConfig::new().workers(1).queue_capacity(1));
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let hello = Request::Hello {
        min_version: VERSION,
        max_version: VERSION,
        depth: 1,
    };
    write_frame_v2(&mut stream, 0, &hello.encode()).expect("hello");
    let (_, ack) = read_raw_frame(&mut stream, true)
        .expect("read ack")
        .expect("an ack");
    assert_eq!(
        Response::decode(&ack).expect("decode ack"),
        Response::HelloAck {
            version: VERSION,
            depth: 1
        }
    );

    // Four distinct k-MST queries in one write: three beyond the grant.
    let mut burst = Vec::new();
    for id in 1..=4u64 {
        let request = Request::Kmst {
            points: fleet[id as usize * 7].1.points().to_vec(),
            options: QueryOptions::new().k(5),
        };
        encode_frame_v2(&mut burst, id, &request.encode()).expect("frame");
    }
    stream.write_all(&burst).expect("write burst");
    let mut answered = Vec::new();
    for _ in 0..4 {
        let (id, payload) = read_raw_frame(&mut stream, true)
            .expect("read answer")
            .expect("an answer");
        match Response::decode(&payload).expect("decode answer") {
            Response::Kmst { degraded, matches } => {
                assert!(!degraded);
                assert_eq!(matches.len(), 5);
            }
            other => panic!("query {id}: expected Kmst, got {other:?}"),
        }
        answered.push(id);
    }
    answered.sort_unstable();
    assert_eq!(answered, [1, 2, 3, 4]);

    let stats = ServeClient::connect(server.local_addr())
        .expect("connect")
        .stats()
        .expect("stats");
    assert_eq!(stats.counters.overload_rejections, 0);
    assert_eq!(stats.counters.queries_admitted, 4);
    server.shutdown();
}

/// The CI smoke: one binary-size test covering the whole happy path plus
/// the failure modes ci.sh asserts on (kmst, malformed frame, stats,
/// graceful shutdown).
#[test]
fn server_smoke() {
    let fleet = gstd_fleet(24, 120, 1);
    let server = start_server(&fleet, 2, ServerConfig::new().workers(2));
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");

    match client
        .kmst(&fleet[3].1, QueryOptions::new().k(3))
        .expect("kmst")
    {
        Response::Kmst { degraded, matches } => {
            assert!(!degraded);
            assert_eq!(matches.len(), 3);
            assert_eq!(matches[0].traj, fleet[3].0, "self-match first");
        }
        other => panic!("expected Kmst, got {other:?}"),
    }

    // Malformed frame on a side connection; main connection unaffected.
    let mut hostile = ServeClient::connect(addr).expect("connect");
    hostile
        .raw_stream()
        .write_all(&[1u8, 0, 0, 0, 0xAA])
        .expect("write garbage");
    drop(hostile);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.counters.queries_completed, 1);
    assert!(client.shutdown().expect("ack"));
    server.join();

    // A post-shutdown connection is refused.
    assert!(
        ServeClient::connect(addr).is_err() || {
            let mut late = ServeClient::connect(addr).expect("connect");
            late.stats().is_err()
        }
    );
}
