//! Replication end-to-end over real TCP: a primary and its replicas on
//! ephemeral loopback ports, WAL records shipped over wire-protocol v2,
//! read-your-writes tokens, and client failover through the pool.

use mst_datagen::fixtures::gstd_fleet;
use mst_exec::IngestOp;
use mst_index::Rtree3D;
use mst_search::QueryOptions;
use mst_serve::{
    ClientPool, ErrorCode, Request, Response, RetryPolicy, ServeClient, Server, ServerConfig,
    ServerHandle,
};
use mst_trajectory::{Trajectory, TrajectoryId};
use mst_wal::{DurableDatabase, SimStore, WalConfig};

/// Extra trajectories for online writes, ids disjoint from any fleet.
fn extras(count: usize, seed: u64) -> Vec<(TrajectoryId, Trajectory)> {
    gstd_fleet(count, 60, seed)
        .into_iter()
        .map(|(id, t)| (TrajectoryId(1000 + id.0), t))
        .collect()
}

/// A primary over the in-memory simulated store, seeded through the WAL.
fn primary(
    fleet: &[(TrajectoryId, Trajectory)],
    shards: usize,
    config: ServerConfig,
) -> ServerHandle<Rtree3D> {
    let mut db =
        DurableDatabase::<Rtree3D, SimStore>::create(SimStore::new(), WalConfig::default(), shards)
            .expect("create store");
    let ops: Vec<IngestOp> = fleet
        .iter()
        .map(|(id, t)| IngestOp::Insert {
            id: *id,
            trajectory: t.clone(),
        })
        .collect();
    db.apply(&ops).expect("seed store");
    Server::start_durable(config, db).expect("start primary")
}

/// A test-speed retry policy: quick rounds, deterministic seed.
fn retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        base_us: 2_000,
        max_us: 50_000,
        seed: 7,
    }
}

/// A replica of `primary_addr` bootstrapping into `store`.
fn replica(
    store: SimStore,
    primary_addr: std::net::SocketAddr,
    config: ServerConfig,
) -> ServerHandle<Rtree3D> {
    Server::start_replica::<Rtree3D, _>(config, store, WalConfig::default(), primary_addr, retry())
        .expect("start replica")
}

/// Polls the replica's stats until its applied LSN reaches `lsn`.
/// Bounded: panics rather than hangs if replication stalls.
fn await_caught_up(client: &mut ServeClient, lsn: u64) {
    for _ in 0..2_000 {
        let stats = client.stats().expect("replica stats");
        if stats.counters.repl_applied_lsn >= lsn {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("replica never caught up to LSN {lsn}");
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

fn expect_ingested(response: Response) -> u64 {
    match response {
        Response::Ingested { lsn, applied } => {
            assert!(applied);
            lsn
        }
        other => panic!("expected Ingested, got {other:?}"),
    }
}

/// The tentpole path: a replica bootstraps from the primary's snapshot,
/// follows its writes, serves bit-identical answers, and refuses writes
/// and subscriptions with typed `NotPrimary` errors.
#[test]
fn replica_follows_the_primary_and_answers_bit_identically() {
    let base = gstd_fleet(20, 60, 11);
    let q = base[4].1.clone();
    let primary = primary(&base, 2, ServerConfig::new().workers(2));
    let replica = replica(SimStore::new(), primary.local_addr(), ServerConfig::new());

    let mut on_primary = ServeClient::connect(primary.local_addr()).expect("connect primary");
    let mut on_replica = ServeClient::connect(replica.local_addr()).expect("connect replica");

    // The bootstrap alone carries the seeded fleet.
    await_caught_up(&mut on_replica, base.len() as u64);
    let before = expect_kmst(
        on_replica
            .kmst(&q, QueryOptions::new().k(4))
            .expect("replica kmst"),
    );
    assert_eq!(
        before,
        expect_kmst(
            on_primary
                .kmst(&q, QueryOptions::new().k(4))
                .expect("primary kmst")
        ),
        "bootstrap state answers identically"
    );

    // Online writes stream across.
    let added = extras(6, 41);
    let mut last_lsn = 0;
    for (id, t) in &added {
        last_lsn = expect_ingested(on_primary.insert_trajectory(*id, t).expect("insert"));
    }
    await_caught_up(&mut on_replica, last_lsn);
    assert_eq!(
        expect_kmst(
            on_replica
                .kmst(&q, QueryOptions::new().k(4))
                .expect("replica kmst")
        ),
        expect_kmst(
            on_primary
                .kmst(&q, QueryOptions::new().k(4))
                .expect("primary kmst")
        ),
        "post-stream state answers identically"
    );

    // A replica refuses writes and subscriptions, typed.
    let spare = extras(1, 99);
    match on_replica
        .insert_trajectory(TrajectoryId(5000), &spare[0].1)
        .expect("typed answer")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NotPrimary),
        other => panic!("expected NotPrimary, got {other:?}"),
    }
    match on_replica
        .request(&Request::Subscribe { from_lsn: 1 })
        .expect("typed answer")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NotPrimary),
        other => panic!("expected NotPrimary, got {other:?}"),
    }

    // Liveness gauges: the replica reports its stream, the primary its
    // subscribers.
    let replica_stats = on_replica.stats().expect("stats");
    assert_eq!(replica_stats.counters.repl_applied_lsn, last_lsn);
    assert!(replica_stats.counters.repl_records_applied >= added.len() as u64);
    let primary_stats = on_primary.stats().expect("stats");
    assert_eq!(primary_stats.counters.repl_committed_lsn, last_lsn);
    assert!(primary_stats.counters.repl_records_shipped >= added.len() as u64);
    assert!(
        primary_stats.counters.repl_acked_lsn >= last_lsn,
        "the replica's cumulative ack reached the head"
    );
    assert!(
        primary_stats.counters.repl_heartbeats > 0,
        "an idle stream heartbeats"
    );

    replica.shutdown();
    primary.shutdown();
}

/// Read-your-writes: `min_lsn` below the watermark admits, above it
/// refuses with a typed `ReplicaLagging` carrying both positions — on
/// the replica and on the primary alike.
#[test]
fn min_lsn_reads_gate_on_the_watermark() {
    let base = gstd_fleet(16, 60, 23);
    let q = base[2].1.clone();
    let primary = primary(&base, 2, ServerConfig::new().workers(2));
    let replica = replica(SimStore::new(), primary.local_addr(), ServerConfig::new());

    let mut on_primary = ServeClient::connect(primary.local_addr()).expect("connect primary");
    let mut on_replica = ServeClient::connect(replica.local_addr()).expect("connect replica");

    let added = extras(1, 57);
    let lsn = expect_ingested(
        on_primary
            .insert_trajectory(added[0].0, &added[0].1)
            .expect("insert"),
    );

    // On the primary the watermark advanced before the ack: the token
    // admits immediately.
    expect_kmst(
        on_primary
            .kmst(&q, QueryOptions::new().k(3).min_lsn(lsn))
            .expect("primary read-your-writes"),
    );

    // On the replica the token either admits (already caught up) or
    // refuses typed — never stale data, never a hang. Retrying until
    // admission is exactly the client contract.
    let mut admitted = false;
    for _ in 0..2_000 {
        match on_replica
            .kmst(&q, QueryOptions::new().k(3).min_lsn(lsn))
            .expect("typed answer")
        {
            Response::Kmst { .. } => {
                admitted = true;
                break;
            }
            Response::Error {
                code:
                    ErrorCode::ReplicaLagging {
                        required,
                        watermark,
                    },
                ..
            } => {
                assert_eq!(required, lsn);
                assert!(watermark < required, "refusal implies a real lag");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            other => panic!("expected Kmst or ReplicaLagging, got {other:?}"),
        }
    }
    assert!(admitted, "the replica must eventually admit the token");

    // A token from the future refuses on both, with honest positions.
    let future = lsn + 10_000;
    for client in [&mut on_primary, &mut on_replica] {
        match client
            .kmst(&q, QueryOptions::new().k(3).min_lsn(future))
            .expect("typed answer")
        {
            Response::Error {
                code:
                    ErrorCode::ReplicaLagging {
                        required,
                        watermark,
                    },
                ..
            } => {
                assert_eq!(required, future);
                assert!(watermark >= lsn);
            }
            other => panic!("expected ReplicaLagging, got {other:?}"),
        }
    }

    replica.shutdown();
    primary.shutdown();
}

/// A replica restarted over its own (occupied) store recovers locally
/// and resumes the stream from its applied LSN — no snapshot refetch.
#[test]
fn replica_restart_resumes_from_its_recovered_store() {
    let base = gstd_fleet(14, 60, 5);
    let q = base[1].1.clone();
    let primary = primary(&base, 2, ServerConfig::new().workers(2));
    let store = SimStore::new();

    let first = replica(store.clone(), primary.local_addr(), ServerConfig::new());
    let mut on_replica = ServeClient::connect(first.local_addr()).expect("connect replica");
    await_caught_up(&mut on_replica, base.len() as u64);
    drop(on_replica);
    first.shutdown();

    // Writes land while the replica is down.
    let mut on_primary = ServeClient::connect(primary.local_addr()).expect("connect primary");
    let added = extras(4, 71);
    let mut last_lsn = 0;
    for (id, t) in &added {
        last_lsn = expect_ingested(on_primary.insert_trajectory(*id, t).expect("insert"));
    }

    // The restart recovers the store (occupied path) and catches up the
    // missed suffix over the stream.
    let second = replica(store, primary.local_addr(), ServerConfig::new());
    let mut on_replica = ServeClient::connect(second.local_addr()).expect("reconnect replica");
    await_caught_up(&mut on_replica, last_lsn);
    assert_eq!(
        expect_kmst(
            on_replica
                .kmst(&q, QueryOptions::new().k(4))
                .expect("replica kmst")
        ),
        expect_kmst(
            on_primary
                .kmst(&q, QueryOptions::new().k(4))
                .expect("primary kmst")
        ),
        "recovered replica converges with the missed writes"
    );

    second.shutdown();
    primary.shutdown();
}

/// Failover: the pool serves reads from the primary until it dies, then
/// from the replica — within the bounded retry budget, observably on
/// the second endpoint.
#[test]
fn client_pool_fails_reads_over_to_the_replica() {
    let base = gstd_fleet(18, 60, 29);
    let q = base[3].1.clone();
    let primary_server = primary(&base, 2, ServerConfig::new().workers(2));
    let replica_server = replica(
        SimStore::new(),
        primary_server.local_addr(),
        ServerConfig::new(),
    );

    let mut on_replica = ServeClient::connect(replica_server.local_addr()).expect("connect");
    await_caught_up(&mut on_replica, base.len() as u64);

    let mut pool = ClientPool::new(
        vec![primary_server.local_addr(), replica_server.local_addr()],
        retry(),
    )
    .expect("pool");
    let read = Request::Kmst {
        points: q.points().to_vec(),
        options: QueryOptions::new().k(4),
    };

    // Reads and writes both land on the primary while it lives.
    let on_primary = expect_kmst(pool.read(&read).expect("read via pool"));
    assert_eq!(pool.active_endpoint(), Some(0));
    let spare = extras(1, 83);
    expect_ingested(
        pool.write(&Request::Insert {
            id: spare[0].0,
            points: spare[0].1.points().to_vec(),
        })
        .expect("write via pool"),
    );

    // The primary dies; the next read fails over to the replica and
    // still answers (at the replica's applied state).
    primary_server.shutdown();
    let after = expect_kmst(pool.read(&read).expect("read after failover"));
    assert_eq!(pool.active_endpoint(), Some(1));
    assert!(!after.is_empty());
    // The pre-failover primary read and the replica's answer agree on
    // the replicated prefix (the replica may or may not have applied
    // the last write yet; the base fleet certainly replicated).
    assert_eq!(
        on_primary.len(),
        after.len(),
        "both answers cover the same k"
    );

    // Writes do not fail over — a replica cannot accept them.
    assert!(
        pool.write(&Request::Insert {
            id: TrajectoryId(7777),
            points: spare[0].1.points().to_vec(),
        })
        .is_err(),
        "a write with no live primary surfaces the failure"
    );

    replica_server.shutdown();
}
