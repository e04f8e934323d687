//! Online-ingest integration: durable servers on ephemeral ports, real
//! TCP clients inserting and deleting trajectories while queries run —
//! answers compared bit-for-bit against embedded ground truths, and the
//! whole store recovered from disk between server lifetimes.

use std::path::PathBuf;
use std::sync::Arc;

use mst_datagen::fixtures::{gstd_fleet, mixed_lifetime_fleet, twins_fleet};
use mst_exec::IngestOp;
use mst_index::{Rtree3D, TbTree};
use mst_search::{scan_kmst, Integration, MstMatch, QueryOptions, TrajectoryStore};
use mst_serve::{ErrorCode, Response, ServeClient, Server, ServerConfig, ServerHandle};
use mst_trajectory::{TimeInterval, Trajectory, TrajectoryId};
use mst_wal::{DurableDatabase, DurableSubstrate, FileStore, SimStore, WalConfig};

/// Extra trajectories to ingest online, ids disjoint from any fleet.
fn extras(count: usize, seed: u64) -> Vec<(TrajectoryId, Trajectory)> {
    gstd_fleet(count, 80, seed)
        .into_iter()
        .map(|(id, t)| (TrajectoryId(1000 + id.0), t))
        .collect()
}

/// A durable database over the in-memory simulated store, seeded with
/// `fleet` through the WAL (every seed insert is a logged record).
fn durable<I: DurableSubstrate>(
    fleet: &[(TrajectoryId, Trajectory)],
    shards: usize,
) -> DurableDatabase<I, SimStore> {
    let mut db =
        DurableDatabase::<I, SimStore>::create(SimStore::new(), WalConfig::default(), shards)
            .expect("create store");
    let ops: Vec<IngestOp> = fleet
        .iter()
        .map(|(id, t)| IngestOp::Insert {
            id: *id,
            trajectory: t.clone(),
        })
        .collect();
    db.apply(&ops).expect("seed store");
    db
}

fn start<I: DurableSubstrate + Send + 'static>(
    db: DurableDatabase<I, SimStore>,
    config: ServerConfig,
) -> ServerHandle<I> {
    Server::start_durable(config, db).expect("start durable server")
}

/// The ground truth for one kmst query over one object set: the exact
/// scan, over the query's own period.
fn baseline_kmst(
    objects: &[(TrajectoryId, Trajectory)],
    q: &Trajectory,
    k: usize,
) -> Vec<MstMatch> {
    let store: TrajectoryStore = objects.iter().cloned().collect();
    scan_kmst(&store, q, &q.time(), k, Integration::Exact).expect("scan ground truth")
}

fn expect_kmst(response: Response) -> Vec<MstMatch> {
    match response {
        Response::Kmst { degraded, matches } => {
            assert!(!degraded);
            matches
        }
        other => panic!("expected Kmst, got {other:?}"),
    }
}

fn expect_ingested(response: Response) -> (u64, bool) {
    match response {
        Response::Ingested { lsn, applied } => (lsn, applied),
        other => panic!("expected Ingested, got {other:?}"),
    }
}

fn expect_error(response: Response) -> ErrorCode {
    match response {
        Response::Error { code, .. } => code,
        other => panic!("expected Error, got {other:?}"),
    }
}

/// Queries racing a background writer must always see a *consistent*
/// state: every answer is bit-identical to the ground truth of some
/// ingest prefix, and once the writer is done the answer is the full
/// set's, exactly — on a plain GSTD fleet, on one where the objects that
/// arrive online include some alive for only part of the query period, and
/// on one where they bring a twin and a mirror image of stored objects
/// (equal-DISSIM ties at the kth place).
#[test]
fn queries_during_background_ingest_match_a_prefix_ground_truth() {
    let base = gstd_fleet(24, 80, 31);
    let q = base[3].1.clone();
    check_prefix_ground_truth(base, extras(8, 77), q, 4);

    let mut mixed = mixed_lifetime_fleet(24, 80, 31);
    let span = mixed[3].1.time();
    let quarter = span.duration() * 0.25;
    let middle = TimeInterval::new(span.start() + quarter, span.end() - quarter);
    let q = mixed[3].1.clip(&middle.expect("period")).expect("clip");
    let online = mixed.split_off(16);
    assert!(online.iter().any(|(_, t)| !t.covers(&q.time())));
    check_prefix_ground_truth(mixed, online, q, 4);

    let (q, mut twins) = twins_fleet();
    let online = twins.split_off(4);
    check_prefix_ground_truth(twins, online, q, 4);
}

fn check_prefix_ground_truth(
    base: Vec<(TrajectoryId, Trajectory)>,
    added: Vec<(TrajectoryId, Trajectory)>,
    q: Trajectory,
    k: usize,
) {
    // Ground truth for every prefix: base alone, base + added[..1], ...
    let truths: Vec<Vec<MstMatch>> = (0..=added.len())
        .map(|n| {
            let mut objects = base.clone();
            objects.extend(added[..n].iter().cloned());
            baseline_kmst(&objects, &q, k)
        })
        .collect();

    let server = start(
        durable::<Rtree3D>(&base, 2),
        ServerConfig::new().workers(2).queue_capacity(16),
    );
    let addr = server.local_addr();

    let writer_extras = added.clone();
    let writer = std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).expect("connect writer");
        for (id, t) in &writer_extras {
            let (lsn, applied) = expect_ingested(client.insert_trajectory(*id, t).expect("insert"));
            assert!(applied, "fresh ids always apply");
            assert!(lsn > 0, "acked writes carry their log position");
        }
    });

    let mut client = ServeClient::connect(addr).expect("connect reader");
    let mut observed_prefixes = std::collections::HashSet::new();
    loop {
        let done = writer.is_finished();
        let matches = expect_kmst(client.kmst(&q, QueryOptions::new().k(k)).expect("kmst"));
        let prefix = truths
            .iter()
            .position(|t| *t == matches)
            .unwrap_or_else(|| panic!("answer matches no ingest prefix: {matches:?}"));
        observed_prefixes.insert(prefix);
        if done {
            break;
        }
    }
    writer.join().expect("writer thread");

    // With every ack delivered, the final answer is the full set's.
    let final_matches = expect_kmst(client.kmst(&q, QueryOptions::new().k(k)).expect("kmst"));
    assert_eq!(final_matches, truths[added.len()], "full-set ground truth");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.counters.ingest_applied, added.len() as u64);
    // Seed inserts and online inserts, all logged.
    assert!(stats.counters.wal_appends >= (base.len() + added.len()) as u64);
    assert!(stats.counters.wal_fsyncs >= 1, "group commit fsynced");
    assert_eq!(stats.counters.queries_degraded, 0);
    server.shutdown();
}

/// An acked ingest must never let a pre-ingest answer resurface from the
/// answer cache.
#[test]
fn ingest_invalidates_the_answer_cache() {
    let base = gstd_fleet(20, 80, 9);
    let victim = base[5].0;
    let q = base[5].1.clone();
    let server = start(
        durable::<Rtree3D>(&base, 2),
        ServerConfig::new().workers(2).cache_capacity(16),
    );
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let before = expect_kmst(client.kmst(&q, QueryOptions::new().k(3)).expect("kmst"));
    assert_eq!(before[0].traj, victim, "self-match first");
    // The repeat is served from the cache.
    let repeat = expect_kmst(client.kmst(&q, QueryOptions::new().k(3)).expect("repeat"));
    assert_eq!(before, repeat);
    assert_eq!(client.stats().expect("stats").counters.cache_hits, 1);

    let (_, applied) = expect_ingested(client.delete_trajectory(victim).expect("delete"));
    assert!(applied);

    // The same query again: the cache was invalidated, the answer
    // reflects the delete and is bit-identical to the embedded ground
    // truth over the post-delete object set.
    let after = expect_kmst(
        client
            .kmst(&q, QueryOptions::new().k(3))
            .expect("kmst after"),
    );
    assert_ne!(after[0].traj, victim, "deleted object cannot match");
    let remaining: Vec<_> = base
        .iter()
        .filter(|(id, _)| *id != victim)
        .cloned()
        .collect();
    assert_eq!(after, baseline_kmst(&remaining, &q, 3));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.counters.cache_hits, 1, "post-ingest query missed");
    assert_eq!(stats.counters.ingest_applied, 1);
    server.shutdown();
}

/// Kill the server after online writes, recover the store from disk,
/// serve again: the replayed state answers bit-identically to a fresh
/// embedded database over the final object set.
#[test]
fn restart_recovers_online_ingest_bit_identically() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mst-serve-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let base = gstd_fleet(18, 80, 13);
    let added = extras(3, 55);
    let gone = base[2].0;
    let q = base[0].1.clone();

    // First lifetime: seed through the WAL, checkpoint (so recovery
    // replays exactly the online writes), serve, write online.
    {
        let store = FileStore::open(&dir).expect("open store");
        let mut db = DurableDatabase::<Rtree3D, FileStore>::create(store, WalConfig::default(), 2)
            .expect("create");
        let ops: Vec<IngestOp> = base
            .iter()
            .map(|(id, t)| IngestOp::Insert {
                id: *id,
                trajectory: t.clone(),
            })
            .collect();
        db.apply(&ops).expect("seed");
        db.checkpoint().expect("checkpoint");
        let server = Server::start_durable(ServerConfig::new().workers(2), db).expect("start");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        for (id, t) in &added {
            let (_, applied) = expect_ingested(client.insert_trajectory(*id, t).expect("insert"));
            assert!(applied);
        }
        let (_, applied) = expect_ingested(client.delete_trajectory(gone).expect("delete"));
        assert!(applied);
        assert!(client.shutdown().expect("ack"));
        server.join();
    }

    // Second lifetime: recover and compare.
    let store = FileStore::open(&dir).expect("reopen store");
    let db =
        DurableDatabase::<Rtree3D, FileStore>::open(store, WalConfig::default()).expect("recover");
    assert_eq!(
        db.stats().replayed_records,
        added.len() as u64 + 1,
        "exactly the online writes replay"
    );
    let server = Server::start_durable(ServerConfig::new().workers(2), db).expect("restart");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let mut objects: Vec<_> = base.iter().filter(|(id, _)| *id != gone).cloned().collect();
    objects.extend(added.iter().cloned());
    let got = expect_kmst(client.kmst(&q, QueryOptions::new().k(5)).expect("kmst"));
    assert_eq!(
        got,
        baseline_kmst(&objects, &q, 5),
        "recovered state answers identically"
    );

    // The recovery is visible in the wire stats, and the recovered
    // server keeps accepting writes.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.counters.replayed_records, added.len() as u64 + 1);
    let more = extras(1, 99);
    let (_, applied) = expect_ingested(
        client
            .insert_trajectory(TrajectoryId(2000), &more[0].1)
            .expect("insert"),
    );
    assert!(applied);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server started without a durable store is read-only: ingest frames
/// answer a typed `ReadOnly` error and queries keep working.
#[test]
fn read_only_servers_refuse_ingest_with_a_typed_error() {
    let base = gstd_fleet(12, 80, 3);
    let db = mst_exec::ShardedDatabase::with_rtree(2, base.iter().cloned()).expect("build");
    let server = Server::start(ServerConfig::new(), Arc::new(db)).expect("start");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let spare = extras(1, 41);
    assert_eq!(
        expect_error(
            client
                .insert_trajectory(spare[0].0, &spare[0].1)
                .expect("typed answer")
        ),
        ErrorCode::ReadOnly
    );
    assert_eq!(
        expect_error(client.delete_trajectory(base[0].0).expect("typed answer")),
        ErrorCode::ReadOnly
    );
    // The refusals left the server fully functional.
    let matches = expect_kmst(
        client
            .kmst(&base[0].1, QueryOptions::new().k(2))
            .expect("kmst"),
    );
    assert_eq!(matches[0].traj, base[0].0);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.counters.ingest_applied, 0);
    assert_eq!(stats.counters.wal_appends, 0);
    server.shutdown();
}

/// Per-operation wire semantics: duplicates and substrate refusals are
/// typed `InvalidQuery` answers, an absent-id delete is an applied=false
/// ack, and one bad operation never poisons its batch neighbours.
#[test]
fn per_op_semantics_and_substrate_refusals_over_the_wire() {
    let base = gstd_fleet(10, 80, 19);
    let server = start(durable::<Rtree3D>(&base, 1), ServerConfig::new());
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let fresh = extras(2, 23);
    let (lsn, applied) = expect_ingested(
        client
            .insert_trajectory(fresh[0].0, &fresh[0].1)
            .expect("insert"),
    );
    assert!(applied);
    assert!(lsn > 0);
    // Inserting the same id again is a typed per-op refusal...
    assert_eq!(
        expect_error(
            client
                .insert_trajectory(fresh[0].0, &fresh[1].1)
                .expect("typed answer")
        ),
        ErrorCode::InvalidQuery
    );
    // ...which must not have blocked the connection or the store: the
    // next valid write still applies.
    let (_, applied) = expect_ingested(
        client
            .insert_trajectory(fresh[1].0, &fresh[1].1)
            .expect("insert"),
    );
    assert!(applied);
    // Deleting an id that was never there is a no-op ack, not an error.
    let (_, applied) = expect_ingested(
        client
            .delete_trajectory(TrajectoryId(9999))
            .expect("delete"),
    );
    assert!(!applied);
    // A real delete applies.
    let (_, applied) = expect_ingested(client.delete_trajectory(fresh[0].0).expect("delete"));
    assert!(applied);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.counters.ingest_applied, 3, "two inserts + one delete");
    server.shutdown();

    // A TB-tree substrate stores appends but cannot delete: the wire
    // answer is the substrate's typed refusal, and inserts still work.
    let server = start(durable::<TbTree>(&base, 2), ServerConfig::new());
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    assert_eq!(
        expect_error(client.delete_trajectory(base[0].0).expect("typed answer")),
        ErrorCode::InvalidQuery
    );
    let (_, applied) = expect_ingested(
        client
            .insert_trajectory(fresh[0].0, &fresh[0].1)
            .expect("insert"),
    );
    assert!(applied);
    server.shutdown();
}
