//! Server lifecycle: configuration, shared state, startup, and the
//! graceful-shutdown drain. The I/O machinery itself — the acceptor, a
//! blocking reader and writer per connection, the executions' sinks and
//! the write lane — lives in [`crate::mux`].
//!
//! # Admission control
//!
//! Three bounded resources, three typed rejections:
//!
//! * **Connections** — at [`ServerConfig::max_connections`] the accept
//!   loop answers a newcomer with one `Overloaded` frame (v2-framed at
//!   request id 0) and closes it; nothing queues.
//! * **Pipeline depth** — each connection may keep at most its granted
//!   depth in flight; at its cap the connection's reader waits for an
//!   answer to go out before it parses or reads again, so TCP
//!   backpressure holds the client without any per-request rejection.
//! * **Queries** — the executor's bounded queue; a query that finds it
//!   full answers `Overloaded` with the queue's occupancy at once. The
//!   server never queues unboundedly and a saturated executor can never
//!   hang a connection.
//!
//! # Shutdown sequence
//!
//! 1. the shutdown flag flips and the answer cache is invalidated (new
//!    queries read straight through; nothing stale can be served across
//!    the transition);
//! 2. a self-connection unblocks the accept loop, which stops accepting
//!    and drops the listener (later connects are refused by the OS);
//! 3. the accept thread shuts the read half of every live connection,
//!    so every reader returns, and joins the readers: nothing more is
//!    submitted, and every write a reader took is committed and acked;
//! 4. the execution pool shuts down, which runs every admitted query, so
//!    every forwarded query is answered — admitted work is never dropped;
//! 5. every writer flushes what is queued (each write bounded by the
//!    write timeout), closes its connection, and exits; the accept thread
//!    joins them and exits; [`ServerHandle::join`] returns.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mst_exec::{BatchExecutor, BatchQuery, ExecHandle, ShardedDatabase};
use mst_search::KmstSubstrate;
use mst_search::{Query, QueryProfile};
use mst_trajectory::Trajectory;

use crate::cache::{cache_key, AnswerCache};
use crate::ingest::IngestBackend;
use crate::mux;
use crate::protocol::{ProfileSummary, Request, ServerStats, StatsReport};

/// Errors of the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The execution layer failed to start or was misconfigured.
    Exec(mst_exec::ExecError),
    /// A socket operation failed while starting or stopping the server.
    Io(std::io::Error),
    /// Replica bootstrap or the replication stream failed in a way that
    /// prevents the replica from starting (primary unreachable after
    /// retries, refused subscription, undecodable snapshot).
    Replication(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Exec(e) => write!(f, "execution layer: {e}"),
            ServeError::Io(e) => write!(f, "socket: {e}"),
            ServeError::Replication(msg) => write!(f, "replication: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Exec(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Replication(_) => None,
        }
    }
}

impl From<mst_exec::ExecError> for ServeError {
    fn from(e: mst_exec::ExecError) -> Self {
        ServeError::Exec(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Executor worker threads (minimum 1).
    pub workers: usize,
    /// Bound of the query admission queue; 0 means `2 x workers`. It
    /// bounds every query buffered in the server: a query that finds the
    /// queue full is refused with `Overloaded`.
    pub queue_capacity: usize,
    /// Maximum simultaneously served connections.
    pub max_connections: usize,
    /// Default per-query deadline in microseconds, applied when a request
    /// carries none.
    pub default_deadline_us: Option<u64>,
    /// Port to bind on 127.0.0.1; 0 picks an ephemeral port.
    pub port: u16,
    /// Cap on the pipeline depth a connection may negotiate (minimum 1).
    pub max_depth: u16,
    /// Answer-cache capacity in entries; 0 disables the cache.
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 0,
            max_connections: 64,
            default_deadline_us: None,
            port: 0,
            max_depth: 32,
            cache_capacity: 0,
        }
    }
}

impl ServerConfig {
    /// The default configuration: 2 workers, queue bound `2 x workers`,
    /// 64 connections, no deadline, depth cap 32, cache disabled,
    /// ephemeral port.
    pub fn new() -> Self {
        ServerConfig::default()
    }

    /// Sets the executor worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the admission-queue bound (0 restores the `2 x workers`
    /// default).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the connection cap.
    pub fn max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap.max(1);
        self
    }

    /// Sets the default per-query deadline in microseconds.
    pub fn default_deadline_us(mut self, deadline: u64) -> Self {
        self.default_deadline_us = Some(deadline);
        self
    }

    /// Sets the port (0 = ephemeral).
    pub fn port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Does nothing: every connection has its own blocking reader and
    /// writer thread (at most `2 x max_connections` in all), so there is
    /// no I/O pool to size. Kept so existing callers still build.
    pub fn io_threads(self, _threads: usize) -> Self {
        self
    }

    /// Sets the cap on negotiable pipeline depth.
    pub fn max_depth(mut self, depth: u16) -> Self {
        self.max_depth = depth.max(1);
        self
    }

    /// Sets the answer-cache capacity (0 disables caching).
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = entries;
        self
    }
}

impl ServerStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        Self::bump_by(counter, 1);
    }

    pub(crate) fn bump_by(counter: &AtomicU64, n: u64) {
        // ordering: monotonic stats counter; it orders nothing and a
        // reader tolerates a slightly stale total.
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a monotone LSN gauge to at least `v` (never lowers it —
    /// several replicas may ack out of order).
    pub(crate) fn raise(counter: &AtomicU64, v: u64) {
        // ordering: advisory stats gauge; visibility ordering for reads
        // rides on Shared::watermark, never on these counters.
        counter.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn set(counter: &AtomicU64, v: u64) {
        // ordering: mirrored gauge owned by the durable backend; a stale
        // read only undercounts a stats probe.
        counter.store(v, Ordering::Relaxed);
    }
}

/// What a server does with writes, fixed at startup.
pub(crate) enum Role {
    /// No durable store: ingest and replication frames answer a typed
    /// `ReadOnly`.
    ReadOnly,
    /// A durable store behind the write lane: the connections' readers
    /// group-commit ingest through it, and replicas may subscribe to its
    /// log.
    Primary(mux::WriteLane),
    /// Follows a primary: writes and subscriptions answer a typed
    /// `NotPrimary`, and the visibility watermark advances as the applier
    /// catches up rather than as local writes flush.
    Replica,
}

/// State shared by the accept loop, the connection threads, and the
/// executions' sinks.
pub(crate) struct Shared<I> {
    pub(crate) exec: ExecHandle<I>,
    pub(crate) stats: ServerStats,
    /// Work profile merged from every completed query.
    pub(crate) profile: Mutex<QueryProfile>,
    pub(crate) shutting_down: AtomicBool,
    /// The bounded answer cache (capacity 0 = disabled).
    pub(crate) cache: AnswerCache,
    /// Executions in flight and the requests each will answer (dedup).
    pub(crate) inflight: mux::InFlight,
    /// What the server does with writes. Only a primary runs ingest and
    /// replication frames, on its write lane; the others refuse them on
    /// the connection's reader.
    pub(crate) role: Role,
    /// The read-your-writes gate: every write at or below this LSN is
    /// visible to queries. Queries carrying `min_lsn` above it answer a
    /// typed `ReplicaLagging` on the connection's reader.
    pub(crate) watermark: mst_exec::Watermark,
    /// The bound address, for the shutdown self-connection poke.
    pub(crate) addr: SocketAddr,
}

impl<I> Shared<I> {
    /// Publishes a primary's durable state: the visibility watermark and
    /// the LSN gauges move up to the backend's committed LSN, and the WAL
    /// gauges are mirrored (stored, not added: the backend owns the true
    /// counts). Runs at startup and before any ack of the writes it
    /// covers, so a client threading `Ingested.lsn` into its next read's
    /// `min_lsn` is admitted, and a stats probe pipelined behind an acked
    /// write sees it.
    pub(crate) fn publish_commit(&self, backend: &dyn IngestBackend) {
        let committed = backend.committed_lsn();
        self.watermark.advance(committed);
        let stats = &self.stats;
        ServerStats::raise(&stats.repl_committed_lsn, committed);
        ServerStats::raise(&stats.repl_applied_lsn, committed);
        let wal = backend.wal_counters();
        ServerStats::set(&stats.wal_appends, wal.appends);
        ServerStats::set(&stats.wal_fsyncs, wal.fsyncs);
        ServerStats::set(&stats.replayed_records, wal.replayed_records);
    }

    pub(crate) fn stats_report(&self) -> StatsReport {
        let profile = match self.profile.lock() {
            Ok(p) => profile_summary(&p),
            Err(_) => ProfileSummary::default(),
        };
        StatsReport {
            counters: self.stats.snapshot(),
            profile,
        }
    }
}

fn profile_summary(p: &QueryProfile) -> ProfileSummary {
    ProfileSummary {
        heap_pushes: p.heap_pushes,
        heap_pops: p.heap_pops,
        nodes_accessed: p.nodes_accessed(),
        buffer_hits: p.buffer_hits,
        buffer_misses: p.buffer_misses,
        piece_evals: p.piece_evals(),
        early_terminations: p.early_terminations,
    }
}

/// Entry point: [`Server::start`] binds, spawns, and hands back a
/// [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `127.0.0.1:port`, spawns the execution pool and the accept
    /// loop (which starts each connection's threads), and returns the
    /// running server's handle. The bound address (with the resolved
    /// ephemeral port) is [`ServerHandle::local_addr`].
    ///
    /// The server is **read-only**: ingest frames answer a typed
    /// [`crate::protocol::ErrorCode::ReadOnly`]. Use
    /// [`Server::start_durable`] to serve writes.
    pub fn start<I>(
        config: ServerConfig,
        db: Arc<ShardedDatabase<I>>,
    ) -> Result<ServerHandle<I>, ServeError>
    where
        I: KmstSubstrate + Send + 'static,
    {
        start_inner(config, db, None, false, 0)
    }

    /// Like [`Server::start`], but over a [`mst_wal::DurableDatabase`]:
    /// the server shares the durable store's in-memory shards for
    /// queries and routes `Insert`/`Delete` frames through its
    /// write-ahead log. The ingest frames that arrive while a commit runs
    /// wait on the write lane and then flush as one write batch sharing a
    /// single group-commit fsync; an operation is acked
    /// ([`crate::protocol::Response::Ingested`]) only after that fsync
    /// returned and the in-memory shards were updated, so an acked ingest
    /// survives any crash. The answer cache is invalidated on every
    /// state-changing flush.
    ///
    /// The durable database moves into the server and is dropped (its
    /// file handles synced) with the last of the server's shared state,
    /// once the handle is dropped; recover it with
    /// [`mst_wal::DurableDatabase::open`].
    pub fn start_durable<I, S>(
        config: ServerConfig,
        durable: mst_wal::DurableDatabase<I, S>,
    ) -> Result<ServerHandle<I>, ServeError>
    where
        I: mst_wal::DurableSubstrate + Send + 'static,
        S: mst_wal::LogStore + Send + 'static,
        S::Log: Send,
    {
        let db = Arc::clone(durable.database());
        let committed = durable.applied_lsn();
        start_inner(config, db, Some(Box::new(durable)), false, committed)
    }

    /// Starts a **read-only replica** following the primary at
    /// `primary`: an occupied `store` is recovered and the stream
    /// resumed from its applied LSN; an empty one bootstraps from a
    /// fresh snapshot the primary encodes at its committed LSN
    /// (`Subscribe { from_lsn: 0 }`). Either way the applier thread then
    /// polls the primary — `ReplicaAck { lsn }` doubles as "send me what
    /// follows" — re-verifies every shipped frame, applies gapless
    /// batches through the same WAL-before-apply path as local ingest,
    /// invalidates the answer cache, and advances the visibility
    /// watermark, so `min_lsn` reads are exact on the replica too.
    ///
    /// Writes and `Subscribe` frames hitting a replica answer a typed
    /// [`crate::protocol::ErrorCode::NotPrimary`]. A lost primary is
    /// retried forever with jittered backoff (`retry` shapes one round;
    /// reconnects are counted in the stats report) — the replica keeps
    /// serving reads at its last applied state throughout. A replica
    /// whose position falls below the primary's replication floor while
    /// disconnected cannot re-bootstrap in place; it keeps serving and
    /// retrying, and a restart with an empty store re-bootstraps it.
    pub fn start_replica<I, S>(
        config: ServerConfig,
        store: S,
        wal_config: mst_wal::WalConfig,
        primary: SocketAddr,
        retry: crate::client::RetryPolicy,
    ) -> Result<ServerHandle<I>, ServeError>
    where
        I: mst_wal::DurableSubstrate + Send + 'static,
        S: mst_wal::LogStore + Send + 'static,
        S::Log: Send,
    {
        let occupied = store
            .read_snapshot()
            .map_err(|e| ServeError::Replication(format!("probing the replica store: {e}")))?
            .is_some();
        let durable: mst_wal::DurableDatabase<I, S> = if occupied {
            mst_wal::DurableDatabase::open(store, wal_config)
                .map_err(|e| ServeError::Replication(format!("recovering the replica: {e}")))?
        } else {
            let snapshot = crate::repl::fetch_bootstrap_snapshot(primary, &retry)
                .map_err(ServeError::Replication)?;
            mst_wal::DurableDatabase::from_snapshot(store, wal_config, &snapshot)
                .map_err(|e| ServeError::Replication(format!("applying the bootstrap: {e}")))?
        };
        let applied = durable.applied_lsn();
        let db = Arc::clone(durable.database());
        let handle = start_inner(config, db, None, true, applied)?;
        let shared = Arc::clone(&handle.shared);
        let applier = std::thread::Builder::new()
            .name("mst-serve-repl".into())
            .spawn(move || crate::repl::applier_loop(&shared, durable, primary, &retry))?;
        *handle
            .applier
            .lock()
            .map_err(|_| ServeError::Replication("applier handle poisoned at startup".into()))? =
            Some(applier);
        Ok(handle)
    }
}

/// Binds and spawns a server. A `backend` makes it a primary; without
/// one it is a replica if `replica` is set and read-only otherwise.
fn start_inner<I>(
    config: ServerConfig,
    db: Arc<ShardedDatabase<I>>,
    backend: Option<Box<dyn IngestBackend>>,
    replica: bool,
    visible_lsn: u64,
) -> Result<ServerHandle<I>, ServeError>
where
    I: KmstSubstrate + Send + 'static,
{
    let role = match backend {
        Some(backend) => Role::Primary(mux::WriteLane::new(backend)),
        None if replica => Role::Replica,
        None => Role::ReadOnly,
    };
    let mut executor = BatchExecutor::new()
        .workers(config.workers)
        .queue_capacity(config.queue_capacity);
    if let Some(us) = config.default_deadline_us {
        executor = executor.deadline_us(us);
    }
    let exec = executor.submit_handle(db)?;
    let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, config.port))?;
    let local_addr = listener.local_addr()?;
    // The LSN and WAL gauges are live from the first stats probe, not
    // the first write: a primary publishes what recovery left it, a
    // replica the position it resumes from.
    let stats = ServerStats::default();
    if replica {
        ServerStats::set(&stats.repl_applied_lsn, visible_lsn);
    }
    let shared = Arc::new(Shared {
        exec,
        stats,
        profile: Mutex::new(QueryProfile::default()),
        shutting_down: AtomicBool::new(false),
        cache: AnswerCache::new(config.cache_capacity),
        inflight: Mutex::default(),
        role,
        watermark: mst_exec::Watermark::at(visible_lsn),
        addr: local_addr,
    });
    if let Role::Primary(lane) = &shared.role {
        lane.publish(&shared);
    }

    let accept = {
        let shared = Arc::clone(&shared);
        let max_connections = config.max_connections;
        let max_depth = config.max_depth.max(1);
        std::thread::Builder::new()
            .name("mst-serve-accept".into())
            .spawn(move || {
                let served = mux::accept_loop(&shared, &listener, max_connections, max_depth);
                mux::drain(served, &shared);
            })?
    };
    Ok(ServerHandle {
        local_addr,
        shared,
        accept: Mutex::new(Some(accept)),
        applier: Mutex::new(None),
    })
}

/// A running server. Dropping the handle shuts the server down
/// gracefully (in-flight queries drain).
pub struct ServerHandle<I> {
    local_addr: SocketAddr,
    pub(crate) shared: Arc<Shared<I>>,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The replica applier thread, joined at shutdown (replicas only).
    applier: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<I> ServerHandle<I> {
    /// The bound address (ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// True once shutdown has been requested (by this handle or by a
    /// `Shutdown` frame).
    pub fn is_shutting_down(&self) -> bool {
        // ordering: advisory poll of a sticky one-way flag; the drain
        // itself synchronizes through the accept-thread join, not here.
        self.shared.shutting_down.load(Ordering::Relaxed)
    }

    /// Requests graceful shutdown and blocks until the drain completes:
    /// every in-flight query answers, every connection closes, every
    /// thread joins. Idempotent.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
        self.join();
    }

    /// Blocks until the server stops (a `Shutdown` frame, or
    /// [`ServerHandle::shutdown`] from another thread). The accept thread
    /// runs the drain; the replica applier, joined after it, exits on the
    /// shutdown flag (its rounds are short and its socket reads time
    /// out), so both joins are bounded once shutdown begins.
    pub fn join(&self) {
        for slot in [&self.accept, &self.applier] {
            let handle = slot.lock().ok().and_then(|mut slot| slot.take());
            if let Some(handle) = handle {
                // invariant: a panicked accept loop or applier has already
                // stopped its part of the server; the drain must still
                // complete, so the payload is not re-raised here
                let _ = handle.join();
            }
        }
    }
}

impl<I> Drop for ServerHandle<I> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Flips the flag, invalidates the answer cache, and pokes the accept
/// loop awake with a throwaway self-connection; the accept thread runs
/// the actual drain.
pub(crate) fn initiate_shutdown<I>(shared: &Shared<I>) {
    if shared.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    // Nothing cached before the transition may be served after it.
    shared.cache.invalidate();
    // The accept loop blocks in accept(); a self-connection is the
    // std-only way to unblock it promptly. If it fails (listener already
    // gone), accept() has already returned.
    if let Ok(stream) = TcpStream::connect(shared.addr) {
        drop(stream);
    }
}

/// Turns a decoded query request into its answer-cache key and a
/// validated [`BatchQuery`], through the same builders the embedded API
/// uses. The error string travels back as
/// [`crate::protocol::ErrorCode::InvalidQuery`].
pub(crate) fn build_query(request: Request) -> Result<(Vec<u8>, BatchQuery), String> {
    let Some(key) = cache_key(&request) else {
        return Err("not a query".into());
    };
    let query = match request {
        Request::Kmst { points, options } => {
            let query = Trajectory::new(points).map_err(|e| e.to_string())?;
            BatchQuery::kmst(Query::kmst(&query).options(options)).map_err(|e| e.to_string())?
        }
        Request::Knn { points, options } => {
            let query = Trajectory::new(points).map_err(|e| e.to_string())?;
            BatchQuery::knn(Query::knn(&query).options(options)).map_err(|e| e.to_string())?
        }
        Request::KnnSegments { location, options } => {
            BatchQuery::knn_segments(Query::knn_segments(location).options(options))
                .map_err(|e| e.to_string())?
        }
        Request::Range { window, options } => {
            BatchQuery::range(Query::range(&window).options(options))
        }
        _ => return Err("not a query".into()),
    };
    Ok((key, query))
}
