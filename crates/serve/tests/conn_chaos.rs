//! Connection-kill chaos on the serving layer: seeded clients die
//! abruptly at every stage of the pipeline — mid-frame, with responses
//! unread, with queries in flight — while a well-behaved client keeps
//! querying. The server must never hang, never leak a connection slot
//! permanently, keep answering the survivors bit-identically, and still
//! drain to a clean shutdown afterwards. Each connection has its own
//! blocking reader and writer, so the two ways that can wedge — a peer
//! that stops reading, a peer that stops mid-frame — are tested too.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mst_datagen::fixtures::gstd_fleet;
use mst_exec::ShardedDatabase;
use mst_prng::Rng;
use mst_search::QueryOptions;
use mst_serve::protocol::{encode_frame_v2, write_frame_v2};
use mst_serve::{Request, Response, ServeClient, Server, ServerConfig, VERSION};
use mst_trajectory::{Mbb, Trajectory};

/// The server's cap on unflushed answer bytes per connection.
const WRITE_BUF_CAP: usize = 8 << 20;

fn kmst_request(q: &Trajectory, k: usize) -> Request {
    Request::Kmst {
        points: q.points().to_vec(),
        options: QueryOptions::new().k(k),
    }
}

fn expect_kmst(response: Response) -> Vec<mst_search::MstMatch> {
    match response {
        Response::Kmst { degraded, matches } => {
            assert!(!degraded);
            matches
        }
        other => panic!("expected Kmst, got {other:?}"),
    }
}

/// One chaos client: handshakes, pipelines a few queries, then dies at
/// a seeded point — before reading anything, mid-read, or mid-write of
/// a partial frame. Every arm abandons in-flight work on purpose.
fn chaos_client(addr: std::net::SocketAddr, q: &Trajectory, rng: &mut Rng) {
    let Ok(mut client) = ServeClient::connect_with_depth(addr, 8) else {
        // A refused connection (server at its cap mid-chaos) is itself a
        // valid chaos outcome.
        return;
    };
    let sends = 1 + rng.usize_below(6);
    let mut ids = Vec::new();
    for _ in 0..sends {
        match client.send(&kmst_request(q, 1 + rng.usize_below(4))) {
            Ok(id) => ids.push(id),
            Err(_) => return,
        }
    }
    match rng.usize_below(4) {
        // Die with every response unread.
        0 => {}
        // Read some answers, abandon the rest.
        1 => {
            let claim = rng.usize_below(ids.len().max(1));
            for id in ids.into_iter().take(claim) {
                if client.wait(id).is_err() {
                    return;
                }
            }
        }
        // Die mid-frame: a partial header promising more than is sent.
        2 => {
            let teaser = [16u8, 0, 0, 0, 7, 7];
            let _ = client.raw_stream().write_all(&teaser);
        }
        // Slam both directions shut with work still in flight.
        _ => {
            let _ = client.raw_stream().shutdown(std::net::Shutdown::Both);
        }
    }
    drop(client);
}

/// The sweep: waves of seeded chaos clients dying mid-pipeline while a
/// well-behaved client checks every wave for liveness and bit-identical
/// answers, and the server drains cleanly at the end.
#[test]
fn seeded_connection_kills_never_wedge_the_server() {
    let base = gstd_fleet(16, 60, 47);
    let q = base[2].1.clone();
    let db = ShardedDatabase::with_rtree(2, base.iter().cloned()).expect("build");
    let server = Server::start(
        ServerConfig::new()
            .workers(2)
            .max_connections(32)
            .cache_capacity(8),
        Arc::new(db),
    )
    .expect("start");
    let addr = server.local_addr();

    let mut well_behaved = ServeClient::connect(addr).expect("connect survivor");
    let truth = expect_kmst(
        well_behaved
            .request(&kmst_request(&q, 3))
            .expect("baseline"),
    );

    let mut rng = Rng::seed_from(0xC0CAC01A);
    for wave in 0..8u64 {
        // A burst of concurrently dying clients.
        let mut handles = Vec::new();
        for c in 0..4u64 {
            let q = q.clone();
            let mut rng = Rng::seed_from(0x5EED ^ (wave * 16 + c));
            handles.push(std::thread::spawn(move || {
                chaos_client(addr, &q, &mut rng);
            }));
        }
        for handle in handles {
            handle.join().expect("chaos client threads don't panic");
        }
        // Chaos mixed into this thread too: a raw mid-frame death.
        chaos_client(addr, &q, &mut rng);

        // Liveness + correctness probe after every wave.
        let probe = expect_kmst(
            well_behaved
                .request(&kmst_request(&q, 3))
                .expect("survivor answered"),
        );
        assert_eq!(probe, truth, "wave {wave}: answers drifted under chaos");
    }

    // Fresh connections still work after all the carnage...
    let mut late = ServeClient::connect(addr).expect("connect after chaos");
    assert_eq!(
        expect_kmst(late.request(&kmst_request(&q, 3)).expect("late answer")),
        truth
    );
    let stats = late.stats().expect("stats");
    assert!(stats.counters.connections_accepted >= 30);
    assert_eq!(stats.counters.queries_degraded, 0);

    // ...and the drain completes: every admitted query answers, the
    // join returns. A wedged drain fails this test by timeout.
    server.shutdown();
}

/// Queries admitted before their connection died still execute, and the
/// drain accounts for them: a shutdown issued while orphaned work is in
/// flight completes without hanging.
#[test]
fn orphaned_inflight_queries_never_hang_the_drain() {
    let base = gstd_fleet(14, 60, 31);
    let q = base[0].1.clone();
    let db = ShardedDatabase::with_rtree(2, base.iter().cloned()).expect("build");
    let server = Server::start(
        ServerConfig::new().workers(1).queue_capacity(32),
        Arc::new(db),
    )
    .expect("start");
    let addr = server.local_addr();

    // Orphan a pipeline: send a burst of queries and die immediately,
    // so their responses have no reader.
    for burst in 0..6u64 {
        let mut doomed = ServeClient::connect_with_depth(addr, 8).expect("connect doomed");
        for i in 0..8 {
            let k = 1 + ((burst + i) % 4) as usize;
            if doomed.send(&kmst_request(&q, k)).is_err() {
                break;
            }
        }
        drop(doomed);
    }

    // Shutdown races the orphaned executions; the drain must still
    // complete (admitted work answers into the void, nothing blocks).
    server.shutdown();
}

/// A peer that pipelines large range answers and never reads them stalls
/// only itself: a second connection keeps getting answers, and the
/// stalled one is cut off — its writer gives up after the write timeout,
/// or its unflushed answers pass the cap — instead of holding answers
/// without bound. It asks for eight times the cap; what reaches it before
/// the close is bounded by the cap plus the kernel's socket buffers.
#[test]
fn a_peer_that_stops_reading_stalls_only_itself() {
    let fleet = gstd_fleet(40, 500, 61);
    let q = fleet[5].1.clone();
    let db = ShardedDatabase::with_rtree(2, fleet.iter().cloned()).expect("build");
    let server = Server::start(ServerConfig::new().workers(2), Arc::new(db)).expect("start");
    let addr = server.local_addr();

    let everything = Request::Range {
        window: Mbb::new(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9),
        options: QueryOptions::new(),
    };
    let mut survivor = ServeClient::connect(addr).expect("connect survivor");
    survivor
        .raw_stream()
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let answer_len = match survivor.request(&everything).expect("one range answer") {
        Response::Range { degraded, entries } => {
            assert!(!degraded);
            Response::Range { degraded, entries }.encode().len()
        }
        other => panic!("expected Range, got {other:?}"),
    };
    assert!(
        answer_len > 256 << 10,
        "a range answer of {answer_len} bytes is too small"
    );
    let truth = expect_kmst(survivor.request(&kmst_request(&q, 3)).expect("baseline"));

    // The staller: a hello at depth 8, then every request in one write.
    let asked = 8 * WRITE_BUF_CAP / answer_len + 1;
    let mut staller = TcpStream::connect(addr).expect("connect staller");
    let hello = Request::Hello {
        min_version: VERSION,
        max_version: VERSION,
        depth: 8,
    };
    write_frame_v2(&mut staller, 0, &hello.encode()).expect("hello");
    let mut burst = Vec::new();
    for id in 1..=asked as u64 {
        encode_frame_v2(&mut burst, id, &everything.encode()).expect("frame");
    }
    staller.write_all(&burst).expect("write burst");

    // The survivor is served throughout.
    for round in 0..20 {
        let answer = expect_kmst(survivor.request(&kmst_request(&q, 3)).expect("survivor"));
        assert_eq!(answer, truth, "round {round}");
    }

    // The staller now reads: whatever reached its socket, then the close.
    // A read that times out means the server neither served nor cut it.
    staller
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut received = 0usize;
    let mut chunk = vec![0u8; 1 << 16];
    let cut = loop {
        match staller.read(&mut chunk) {
            Ok(0) => break true,
            Ok(n) => received += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break false
            }
            Err(_) => break true,
        }
    };
    assert!(
        cut,
        "the stalled connection was held open after {received} bytes"
    );
    assert!(
        received < asked * answer_len,
        "all {asked} answers arrived: the peer was never stalled"
    );
    assert_eq!(
        expect_kmst(
            survivor
                .request(&kmst_request(&q, 3))
                .expect("after the cut")
        ),
        truth
    );
    server.shutdown();
}

/// The drain does not wait on peers that went quiet: one client stops
/// half-way through a frame with answered queries behind it, another has
/// handshaken and sends nothing, a third never even said hello. Shutdown
/// shuts their readers down and finishes within the drain bound, and
/// every query the server admitted is answered.
#[test]
fn a_drain_with_quiet_peers_finishes_and_answers_what_it_admitted() {
    let fleet = gstd_fleet(30, 200, 83);
    let q = fleet[4].1.clone();
    let db = ShardedDatabase::with_rtree(2, fleet.iter().cloned()).expect("build");
    let config = ServerConfig::new().workers(1).queue_capacity(16);
    let server = Server::start(config, Arc::new(db)).expect("start");
    let addr = server.local_addr();

    let decoded = |probe: &mut ServeClient| probe.stats().expect("stats").counters.requests_decoded;
    let mut probe = ServeClient::connect(addr).expect("connect probe");
    let before = decoded(&mut probe);

    let mut halfway = ServeClient::connect_with_depth(addr, 8).expect("connect");
    let ids: Vec<_> = (1..=6)
        .map(|k| halfway.send(&kmst_request(&q, k)).expect("send"))
        .collect();
    // Wait until all six are decoded: admitted before the drain begins.
    // Every probe counts itself too.
    let mut probes = 0;
    loop {
        probes += 1;
        if decoded(&mut probe) >= before + probes + 6 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(probe);
    halfway
        .raw_stream()
        .write_all(&[100u8, 0, 0, 0, 1, 2, 3])
        .expect("half a frame");
    let mut idle = ServeClient::connect(addr).expect("connect idle");
    let silent = TcpStream::connect(addr).expect("connect silent");

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(3), "the drain took {took:?}");

    for (k, id) in (1..=6).zip(ids) {
        let answer = expect_kmst(halfway.wait(id).expect("an admitted query is answered"));
        assert_eq!(answer.len(), k, "the query at k = {k}");
    }
    assert!(
        idle.stats().is_err(),
        "the idle connection outlived the drain"
    );
    drop(silent);
}
