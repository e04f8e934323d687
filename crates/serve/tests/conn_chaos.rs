//! Connection-kill chaos on the serving layer: seeded clients die
//! abruptly at every stage of the pipeline — mid-frame, with responses
//! unread, with queries in flight — while a well-behaved client keeps
//! querying. The server must never hang, never leak a connection slot
//! permanently, keep answering the survivors bit-identically, and still
//! drain to a clean shutdown afterwards.

use std::io::Write;
use std::sync::Arc;

use mst_datagen::fixtures::gstd_fleet;
use mst_exec::ShardedDatabase;
use mst_prng::Rng;
use mst_search::QueryOptions;
use mst_serve::{Request, Response, ServeClient, Server, ServerConfig};
use mst_trajectory::Trajectory;

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
