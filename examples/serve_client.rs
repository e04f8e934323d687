//! The serving layer end to end: start an in-process `mst-serve` instance
//! on an ephemeral loopback port, ask it a k-MST question over real TCP,
//! read the server's counters, and shut it down gracefully. It asserts
//! as it goes: the wire answer is bit-equal to `Query::run` on an
//! unsharded database of the same fleet, the counters account for
//! exactly that one query, and the shutdown is acknowledged.
//!
//! Run with: `cargo run --release --example serve_client`

use std::sync::Arc;

use mst::datagen::GstdConfig;
use mst::exec::ShardedDatabase;
use mst::search::{MovingObjectDatabase, Query, QueryOptions};
use mst::serve::{Response, ServeClient, Server, ServerConfig};
use mst::trajectory::TrajectoryId;

fn main() -> Result<(), mst::Error> {
    // 1. A small GSTD fleet, sharded 2 ways, served on an ephemeral port
    //    (`port 0` lets the OS choose; `local_addr` reports the choice).
    let fleet: Vec<_> = GstdConfig {
        num_objects: 48,
        samples_per_object: 200,
        ..GstdConfig::paper_dataset(48, 11)
    }
    .generate()
    .into_iter()
    .enumerate()
    .map(|(i, t)| (TrajectoryId(i as u64), t))
    .collect();
    let query = fleet[5].1.clone();
    let window = query.time();
    // The in-process answer the wire must reproduce bit for bit.
    let mut baseline = MovingObjectDatabase::with_rtree();
    for (id, t) in &fleet {
        baseline.insert_trajectory(*id, t)?;
    }
    let expected = Query::kmst(&query).k(3).during(&window).run(&baseline)?;
    let db = Arc::new(ShardedDatabase::with_rtree(2, fleet)?);
    let server = Server::start(ServerConfig::new().workers(2).queue_capacity(8), db)?;
    println!("serving on {}", server.local_addr());

    // 2. "Which 3 objects moved most like object 5?" — the same Query
    //    surface as the in-process builder, over the wire.
    let mut client = ServeClient::connect(server.local_addr())?;
    let options = QueryOptions::new().k(3).during(&window);
    let matches = match client.kmst(&query, options)? {
        Response::Kmst { degraded, matches } => {
            assert!(!degraded, "a certified answer");
            matches
        }
        other => panic!("expected a k-MST answer, got {other:?}"),
    };
    println!("k-MST answer ({} matches):", matches.len());
    for m in &matches {
        println!("  object {} at dissimilarity {:.6}", m.traj, m.dissim);
    }
    assert_eq!(matches.len(), 3);
    assert_eq!(matches[0].traj, TrajectoryId(5), "self-match first");
    assert_eq!(matches.len(), expected.len());
    for (got, want) in matches.iter().zip(&expected) {
        assert_eq!(got.traj, want.traj);
        assert_eq!(got.dissim.to_bits(), want.dissim.to_bits());
    }

    // 3. Server-side observability: admission counters plus the merged
    //    work profile of everything executed so far.
    let stats = client.stats()?;
    println!(
        "counters: {} admitted, {} completed, {} overload rejections, {} malformed frames",
        stats.counters.queries_admitted,
        stats.counters.queries_completed,
        stats.counters.overload_rejections,
        stats.counters.malformed_frames,
    );
    println!(
        "work profile: {} index nodes visited, {} piece evaluations",
        stats.profile.nodes_accessed, stats.profile.piece_evals,
    );
    assert_eq!(stats.counters.queries_completed, 1);

    // 4. Graceful shutdown: the ack arrives first, then the server drains
    //    in-flight queries and joins every thread.
    assert!(client.shutdown()?, "shutdown acknowledged");
    server.join();
    println!("shutdown acknowledged; server drained and stopped");
    Ok(())
}
