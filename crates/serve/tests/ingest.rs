//! Online-ingest integration: durable servers on ephemeral ports, real
//! TCP clients inserting and deleting trajectories while queries run —
//! answers compared bit-for-bit against embedded ground truths, and the
//! whole store recovered from disk between server lifetimes.

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use mst_datagen::fixtures::{gstd_fleet, mixed_lifetime_fleet, twins_fleet};
use mst_exec::IngestOp;
use mst_index::{Rtree3D, TbTree};
use mst_search::{scan_kmst, Integration, MstMatch, QueryOptions, TrajectoryStore};
use mst_serve::{ErrorCode, Request, Response, ServeClient, Server, ServerConfig, ServerHandle};
use mst_trajectory::{TimeInterval, Trajectory, TrajectoryId};
use mst_wal::{
    DurableDatabase, DurableSubstrate, FileStore, LogIo, LogStore, SimLog, SimStore, WalConfig,
};

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

/// How long a test waits for something that takes milliseconds before it
/// fails instead of hanging.
const BOUND: Duration = Duration::from_secs(5);

/// A gate a WAL fsync can be made to wait at: while it is closed, every
/// `sync` parks (and is counted) until it opens.
#[derive(Default)]
struct Gate {
    /// `(closed, syncs parked)`.
    state: Mutex<(bool, usize)>,
    changed: Condvar,
}

impl Gate {
    fn state(&self) -> MutexGuard<'_, (bool, usize)> {
        self.state.lock().expect("gate lock")
    }

    fn set(&self, closed: bool) {
        self.state().0 = closed;
        self.changed.notify_all();
    }

    fn pass(&self) {
        let mut state = self.state();
        state.1 += 1;
        self.changed.notify_all();
        while state.0 {
            state = self.changed.wait(state).expect("gate wait");
        }
        state.1 -= 1;
    }

    /// Waits (within [`BOUND`]) until `n` syncs are parked at the gate.
    fn wait_parked(&self, n: usize) -> bool {
        let state = self.state();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, BOUND, |s| s.1 < n)
            .expect("gate wait");
        state.1 >= n
    }
}

/// Opens the gate when dropped, so a failing test never leaves a commit
/// parked in its fsync for the server's drain to wait on.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.set(false);
    }
}

/// [`SimStore`] with its logs' fsyncs behind a [`Gate`].
#[derive(Clone)]
struct GatedStore {
    inner: SimStore,
    gate: Arc<Gate>,
}

struct GatedLog {
    inner: SimLog,
    gate: Arc<Gate>,
}

impl LogIo for GatedLog {
    fn append(&mut self, bytes: &[u8]) -> mst_wal::Result<()> {
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> mst_wal::Result<()> {
        self.gate.pass();
        self.inner.sync()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl LogStore for GatedStore {
    type Log = GatedLog;

    fn create_log(&self, start_lsn: u64) -> mst_wal::Result<GatedLog> {
        Ok(GatedLog {
            inner: self.inner.create_log(start_lsn)?,
            gate: Arc::clone(&self.gate),
        })
    }

    fn read_log(&self, start_lsn: u64) -> mst_wal::Result<Vec<u8>> {
        self.inner.read_log(start_lsn)
    }

    fn list_logs(&self) -> mst_wal::Result<Vec<u64>> {
        self.inner.list_logs()
    }

    fn remove_log(&self, start_lsn: u64) -> mst_wal::Result<()> {
        self.inner.remove_log(start_lsn)
    }

    fn rewrite_log(&self, start_lsn: u64, bytes: &[u8]) -> mst_wal::Result<()> {
        self.inner.rewrite_log(start_lsn, bytes)
    }

    fn write_snapshot(&self, bytes: &[u8]) -> mst_wal::Result<()> {
        self.inner.write_snapshot(bytes)
    }

    fn read_snapshot(&self) -> mst_wal::Result<Option<Vec<u8>>> {
        self.inner.read_snapshot()
    }
}

/// A durable R-tree server over a [`GatedStore`] seeded with `fleet` (the
/// gate open), and the gate.
fn gated_server(fleet: &[(TrajectoryId, Trajectory)]) -> (ServerHandle<Rtree3D>, Arc<Gate>) {
    let gate = Arc::new(Gate::default());
    let store = GatedStore {
        inner: SimStore::new(),
        gate: Arc::clone(&gate),
    };
    let mut db = DurableDatabase::<Rtree3D, GatedStore>::create(store, WalConfig::default(), 2)
        .expect("create store");
    let ops: Vec<IngestOp> = fleet
        .iter()
        .map(|(id, t)| IngestOp::Insert {
            id: *id,
            trajectory: t.clone(),
        })
        .collect();
    db.apply(&ops).expect("seed store");
    let server = Server::start_durable(ServerConfig::new().workers(2), db).expect("start");
    (server, gate)
}

fn insert_request((id, t): &(TrajectoryId, Trajectory)) -> Request {
    Request::Insert {
        id: *id,
        points: t.points().to_vec(),
    }
}

/// A commit parked in its fsync holds up only the writes behind it: a
/// k-MST on another connection comes back, equal to the exact scan over
/// the state before the write, while the fsync still waits.
#[test]
fn a_query_is_answered_while_a_commit_waits_in_its_fsync() {
    let base = gstd_fleet(20, 80, 5);
    let (server, gate) = gated_server(&base);
    let _open = OpenOnDrop(Arc::clone(&gate));
    let addr = server.local_addr();
    let mut writer = ServeClient::connect(addr).expect("connect writer");
    let mut reader = ServeClient::connect(addr).expect("connect reader");

    gate.set(true);
    let spare = extras(1, 61);
    let insert = writer
        .send(&insert_request(&spare[0]))
        .expect("send insert");
    assert!(gate.wait_parked(1), "the insert never reached its fsync");

    // The read runs on its own thread, so a read stuck behind the commit
    // fails the test at the bound instead of hanging it.
    let q = base[4].1.clone();
    let (tx, rx) = mpsc::channel();
    let probe = {
        let q = q.clone();
        std::thread::spawn(move || {
            // invariant: the receiver outlives the bounded wait
            let _ = tx.send(reader.kmst(&q, QueryOptions::new().k(3)));
        })
    };
    let answer = rx.recv_timeout(BOUND);
    gate.set(false);
    let answer = answer.expect("the k-MST waited for another connection's fsync");
    let matches = expect_kmst(answer.expect("kmst"));
    assert_eq!(matches, baseline_kmst(&base, &q, 3));

    let (_, applied) = expect_ingested(writer.wait(insert).expect("insert ack"));
    assert!(applied);
    probe.join().expect("probe thread");
    server.shutdown();
}

/// Group commit: while the first commit waits in its fsync, connections
/// send `pipelined[i]` inserts each, back to back; all of them are logged
/// under one more fsync. Returns the rise in `wal_fsyncs`.
fn fsyncs_of_inserts_queued_behind_a_commit(pipelined: &[usize]) -> u64 {
    let base = gstd_fleet(12, 80, 8);
    let (server, gate) = gated_server(&base);
    let _open = OpenOnDrop(Arc::clone(&gate));
    let addr = server.local_addr();
    let mut probe = ServeClient::connect(addr).expect("connect probe");
    let mut first = ServeClient::connect(addr).expect("connect first writer");
    let mut others: Vec<ServeClient> = pipelined
        .iter()
        .map(|_| ServeClient::connect_with_depth(addr, 8).expect("connect writer"))
        .collect();
    let before = probe.stats().expect("stats").counters;
    let queued: usize = pipelined.iter().sum();
    let spare = extras(1 + queued, 67);

    gate.set(true);
    let first_id = first.send(&insert_request(&spare[0])).expect("send");
    assert!(
        gate.wait_parked(1),
        "the first insert never reached its fsync"
    );
    let decoded = probe.stats().expect("stats").counters.requests_decoded;
    let mut rest = spare[1..].iter();
    let sent: Vec<Vec<_>> = others
        .iter_mut()
        .zip(pipelined)
        .map(|(client, &n)| {
            let ops: Vec<_> = rest.by_ref().take(n).collect();
            ops.into_iter()
                .map(|extra| client.send(&insert_request(extra)).expect("send"))
                .collect()
        })
        .collect();
    // Every probe counts itself as a decoded request.
    let mut probes = 0;
    loop {
        probes += 1;
        let now = probe.stats().expect("stats").counters.requests_decoded;
        if now >= decoded + queued as u64 + probes {
            break;
        }
        assert!(probes < 5_000, "the queued inserts were never decoded");
        std::thread::sleep(Duration::from_millis(1));
    }
    // A reader queues its write a few microseconds after it decodes it.
    std::thread::sleep(Duration::from_millis(100));
    gate.set(false);

    let (_, applied) = expect_ingested(first.wait(first_id).expect("first ack"));
    assert!(applied);
    for (client, ids) in others.iter_mut().zip(sent) {
        for id in ids {
            let (_, applied) = expect_ingested(client.wait(id).expect("ack"));
            assert!(applied);
        }
    }
    let after = probe.stats().expect("stats").counters;
    assert_eq!(
        after.ingest_applied - before.ingest_applied,
        1 + queued as u64
    );
    server.shutdown();
    after.wal_fsyncs - before.wal_fsyncs
}

/// One fsync for the first insert, one for the three that queued behind
/// it on three connections.
#[test]
fn inserts_queued_behind_a_commit_share_the_next_fsync() {
    assert_eq!(fsyncs_of_inserts_queued_behind_a_commit(&[1, 1, 1]), 2);
}

/// Inserts pipelined back to back on one connection share a commit too:
/// its reader queues every one it has decoded before it commits.
#[test]
fn inserts_pipelined_on_one_connection_share_one_fsync() {
    assert_eq!(fsyncs_of_inserts_queued_behind_a_commit(&[6]), 2);
}
