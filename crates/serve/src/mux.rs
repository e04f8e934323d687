//! The multiplexed serving core: a blocking acceptor, a pool of
//! non-blocking I/O workers, and one coalescer thread that batches the
//! queries pending across **all** connections into single executor
//! submissions.
//!
//! # Thread topology
//!
//! ```text
//! acceptor ──Conn──▶ io worker 0..N ──Event::Query──▶ coalescer
//!                        ▲                               │ try_submit_batch
//!                        └──────WorkerMsg::Response──────┤
//!                                                        ▼
//!                                         executor workers ──Event::Done──▶ (same channel)
//! ```
//!
//! * The **acceptor** owns the listener: cap check, then round-robin
//!   handoff of the raw stream to an I/O worker. It blocks in
//!   `accept()`; shutdown pokes it with a self-connection.
//! * Each **I/O worker** owns its connections outright: it reads
//!   non-blocking, carves frames incrementally
//!   ([`crate::protocol::split_frame_v2`]), answers `Stats`, `Shutdown`,
//!   handshakes and typed errors directly (so cheap requests overtake
//!   slow queries — the out-of-order guarantee), and forwards query
//!   work to the coalescer. A connection at its pipeline depth stops
//!   being parsed and read until an answer goes out — TCP backpressure,
//!   no bookkeeping.
//! * The **coalescer** is the single wait point: incoming queries,
//!   finished executions, and worker drain notices all arrive on one
//!   channel. Per tick it serves answer-cache hits, attaches duplicate
//!   concurrent queries to one in-flight execution (dedup), and hands
//!   the whole backlog to the executor in **one**
//!   [`mst_exec::ExecHandle::try_submit_batch`] call.
//!
//! Every typed refusal is built in one place per side: `Conn::refuse` on
//! an I/O worker, `Outbox::respond` in the coalescer.
//!
//! # Drain correctness
//!
//! Each worker sends all its `Query` events and then one `Drained`
//! event on the same channel sender, so per-sender FIFO guarantees the
//! coalescer has seen every forwarded query once all `Drained` notices
//! are in. It then runs the backlog dry, waits for `outstanding == 0`
//! (every forwarded query answered — admitted work is never dropped),
//! signals `CoalescerDone`, and the workers flush + close. A stall
//! bound (consecutive empty timeouts) caps the drain if an executor
//! outcome is lost to a bug, trading a hung shutdown for a loud one.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
// Park intervals and flush pauses below are scheduling inputs, not
// measurements; no clock is ever read in this module.
use std::time::Duration; // invariant: no clock is read; determinism holds

use mst_exec::{
    BatchQuery, IngestOp, OutcomeSink, QueryAnswer, QueryOutcome, RoutedQuery, SubmitError,
};
use mst_search::{KmstSubstrate, QueryProfile};
use mst_trajectory::Trajectory;

use crate::ingest::IngestBackend;
use crate::protocol::{
    classify_first_payload, encode_frame_v2, split_frame_v2, write_frame_v2, ErrorCode, FirstFrame,
    Request, Response, ServerStats, WireError, MAX_FRAME, VERSION,
};
use crate::server::{build_query, initiate_shutdown, Role, Shared};

/// How long an I/O worker parks on its control channel when a pass made
/// no progress. Small: it bounds the latency of *discovering* a new
/// request on an otherwise idle connection.
const IO_PARK: Duration = Duration::from_micros(300);

/// The coalescer's park interval; also the unit of its drain stall
/// bound.
const COALESCER_PARK: Duration = Duration::from_millis(25);

/// Consecutive empty park intervals during a drain before the coalescer
/// declares a lost outcome and force-exits (~5 s).
const STALL_LIMIT: u32 = 200;

/// Cap on unflushed response bytes per connection. A peer that stops
/// reading while answers pile up gets disconnected instead of growing
/// server memory without bound.
const WRITE_BUF_CAP: usize = 8 << 20;

/// Read chunk size for the per-worker scratch buffer.
const READ_CHUNK: usize = 64 << 10;

/// Stop reading a connection whose parse buffer already holds this much
/// (a frame can legitimately be `4 + 8 + MAX_FRAME` bytes).
const READ_BUF_CAP: usize = (MAX_FRAME as usize + 12) * 2;

/// Bounded final flush after `CoalescerDone`: rounds x pause ≈ 1 s.
const DRAIN_FLUSH_ROUNDS: usize = 500;
const DRAIN_FLUSH_PAUSE: Duration = Duration::from_millis(2);

/// Cap on record bytes per `Replicate` response. Keeps any one batch
/// well inside the frame cap while still amortising the round trip
/// during catch-up.
const REPL_BATCH_BYTES: usize = 1 << 20;

/// The refusal message of everything a draining server no longer admits.
const DRAINING: &str = "server is draining";

/// Where an answer goes: the I/O worker owning the connection, the
/// connection, and the request id the answer echoes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reply {
    worker: usize,
    conn: u64,
    request_id: u64,
}

/// Control messages into an I/O worker.
pub(crate) enum WorkerMsg {
    /// A fresh connection from the acceptor.
    Conn(TcpStream),
    /// A response payload to frame and write to one connection.
    Response(Reply, Arc<Vec<u8>>),
    /// The coalescer has answered everything; flush and exit.
    CoalescerDone,
}

/// Events into the coalescer — the single channel it blocks on.
pub(crate) enum Event {
    /// A validated query forwarded by an I/O worker, with its answer-cache
    /// key.
    Query {
        reply: Reply,
        key: Vec<u8>,
        query: BatchQuery,
    },
    /// A validated ingest operation. The coalescer accumulates these into
    /// one write batch per tick and flushes it through the durable backend
    /// **before** submitting the tick's query backlog, so an acked write
    /// is visible to every query admitted after its ack.
    Ingest(Reply, IngestOp),
    /// A replication fetch — a `Subscribe`, or the ack-doubling-as-poll
    /// `ReplicaAck` — for the committed records from this LSN on. Served
    /// **after** the tick's write batch flushes, so every batch reflects
    /// the newest committed state.
    Fetch(Reply, u64),
    /// An execution finished (token, outcome) — delivered by the
    /// executor workers through [`EventSink`].
    Done(u64, QueryOutcome),
    /// A worker stopped forwarding queries (drain has begun). Sent on
    /// the same sender as that worker's `Query` events, so per-sender
    /// FIFO guarantees the coalescer has seen them all first.
    Drained,
}

/// Adapts the coalescer's event channel into the executor's
/// [`OutcomeSink`], so completions land in the same queue as new work
/// and the coalescer has exactly one thing to wait on.
struct EventSink(Sender<Event>);

impl OutcomeSink for EventSink {
    fn complete(&self, token: u64, outcome: QueryOutcome) {
        // invariant: a send failure means the coalescer already exited
        // (forced drain); the outcome is undeliverable by design then
        let _ = self.0.send(Event::Done(token, outcome));
    }
}

/// The accept loop: cap check, then round-robin handoff to the I/O
/// workers. Runs on the `mst-serve-accept` thread until shutdown.
pub(crate) fn accept_loop<I>(
    shared: &Arc<Shared<I>>,
    listener: &TcpListener,
    workers: &[Sender<WorkerMsg>],
    max_connections: usize,
) where
    I: KmstSubstrate + Send + 'static,
{
    let mut next_worker = 0usize;
    while !shared.shutting_down.load(Ordering::SeqCst) {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            drop(stream);
            break;
        }
        // ordering: the live count is advisory admission control; a
        // slightly stale read admits or rejects one connection early,
        // never corrupts state.
        let live = shared.live_conns.load(Ordering::Relaxed);
        if live >= max_connections {
            ServerStats::bump(&shared.stats.connections_rejected);
            reject_connection(stream, max_connections);
            continue;
        }
        ServerStats::bump(&shared.stats.connections_accepted);
        // ordering: see the live count read above — same advisory gauge.
        shared.live_conns.fetch_add(1, Ordering::Relaxed);
        if workers.is_empty()
            || workers[next_worker % workers.len()]
                .send(WorkerMsg::Conn(stream))
                .is_err()
        {
            // The worker is gone (tear-down race): undo the registration
            // and let the dropped stream close the connection.
            // ordering: advisory gauge, as above.
            shared.live_conns.fetch_sub(1, Ordering::Relaxed);
        }
        next_worker = next_worker.wrapping_add(1);
    }
    // Dropping the listener here (by returning) refuses later connects.
}

/// Answers an over-cap connection with one v2 `Overloaded` frame at
/// request id 0 and closes it.
fn reject_connection(mut stream: TcpStream, max_connections: usize) {
    let payload = Response::Overloaded {
        queued: 0,
        capacity: u32::try_from(max_connections).unwrap_or(u32::MAX),
    }
    .encode();
    // invariant: the rejected client may already be gone; the rejection
    // frame is best-effort by design
    let _ = write_frame_v2(&mut stream, 0, &payload);
}

/// The framing a refusal goes out in: v2 at a request id, or v1 for a
/// peer whose first frame was not a v2 hello.
#[derive(Debug, Clone, Copy)]
enum Framing {
    V1,
    V2(u64),
}

/// One connection's state machine, owned by exactly one I/O worker.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written to the socket.
    written: usize,
    /// Requests forwarded to the coalescer and not yet answered.
    inflight: usize,
    /// Granted pipeline depth (the configured cap until the handshake
    /// replaces it with the grant).
    depth: usize,
    /// Handshake completed — subsequent frames are v2.
    handshaken: bool,
    /// The peer can still send (no EOF, no protocol violation).
    read_open: bool,
    /// Close once the write buffer drains (protocol violations answer
    /// first, then disconnect).
    close_after_flush: bool,
    /// Remove this connection now (socket dead or fully closed).
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_depth: u16) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            inflight: 0,
            depth: usize::from(max_depth.max(1)),
            handshaken: false,
            read_open: true,
            close_after_flush: false,
            dead: false,
        }
    }

    /// Queues one v2 frame for writing. Every payload that reaches a
    /// connection fits the frame cap — the coalescer's `respond`
    /// downgrades an over-cap answer, and the worker's own answers are
    /// small — so a frame the framer still refused kills the connection
    /// rather than leaving its request silently unanswered.
    fn queue(&mut self, request_id: u64, payload: &[u8]) {
        if encode_frame_v2(&mut self.write_buf, request_id, payload).is_err() {
            self.dead = true;
        }
    }

    /// Queues a typed refusal: the I/O side's one way to build an `Error`
    /// frame. `Malformed` and `InvalidQuery` refusals are counted, and a
    /// `Malformed` or `UnsupportedVersion` one ends the connection once
    /// the frame is out (framing sync is lost, or the peer speaks another
    /// protocol).
    fn refuse(
        &mut self,
        stats: &ServerStats,
        to: Framing,
        code: ErrorCode,
        message: impl Into<String>,
    ) {
        match code {
            ErrorCode::Malformed => ServerStats::bump(&stats.malformed_frames),
            ErrorCode::InvalidQuery => ServerStats::bump(&stats.invalid_queries),
            _ => {}
        }
        let payload = Response::Error {
            code,
            message: message.into(),
        }
        .encode();
        match to {
            Framing::V2(request_id) => self.queue(request_id, &payload),
            Framing::V1 => {
                // An error payload is at most a few bytes over 64 KiB.
                let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
                self.write_buf.extend_from_slice(&len.to_le_bytes());
                self.write_buf.extend_from_slice(&payload);
            }
        }
        if matches!(
            code,
            ErrorCode::Malformed | ErrorCode::UnsupportedVersion { .. }
        ) {
            self.close_after_flush = true;
        }
    }

    /// Drives pending bytes into the socket without blocking. Returns
    /// true when any byte moved.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    return progress;
                }
                Ok(n) => {
                    self.written += n;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return progress;
                }
            }
        }
        if self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
            if self.close_after_flush {
                self.dead = true;
            }
        } else {
            if self.written > (1 << 20) {
                self.write_buf.drain(..self.written);
                self.written = 0;
            }
            if self.write_buf.len() - self.written > WRITE_BUF_CAP {
                // The peer stopped reading while answers piled up.
                self.dead = true;
            }
        }
        progress
    }

    /// Whether this worker pass should read the socket.
    fn wants_read(&self) -> bool {
        self.read_open
            && !self.close_after_flush
            && self.read_buf.len() < READ_BUF_CAP
            && (!self.handshaken || self.inflight < self.depth)
    }

    /// Whether everything queued for the peer has been written.
    fn flushed(&self) -> bool {
        self.written == self.write_buf.len()
    }
}

/// One I/O worker: owns a set of connections, parses their frames,
/// answers cheap requests directly, forwards queries, writes responses.
pub(crate) fn io_worker_loop<I>(
    worker: usize,
    shared: &Arc<Shared<I>>,
    control: &Receiver<WorkerMsg>,
    events: &Sender<Event>,
    max_depth: u16,
) where
    I: KmstSubstrate + Send + 'static,
{
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn = 0u64;
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut drained_sent = false;
    let mut done = false;
    // Applies one control message; true once the coalescer has answered
    // everything.
    let mut apply = |msg: WorkerMsg, conns: &mut HashMap<u64, Conn>| match msg {
        WorkerMsg::Conn(stream) => {
            if stream.set_nonblocking(true).is_err() {
                // The whole design assumes non-blocking sockets; refuse.
                // ordering: advisory connection gauge (see accept_loop).
                shared.live_conns.fetch_sub(1, Ordering::Relaxed);
                return false;
            }
            // invariant: nodelay is a latency optimisation; a socket that
            // rejects it still serves correctly
            let _ = stream.set_nodelay(true);
            conns.insert(next_conn, Conn::new(stream, max_depth));
            next_conn += 1;
            false
        }
        WorkerMsg::Response(to, payload) => {
            // A response for a connection that died in the meantime is
            // dropped — the peer is gone.
            if let Some(conn) = conns.get_mut(&to.conn) {
                conn.inflight = conn.inflight.saturating_sub(1);
                conn.queue(to.request_id, &payload);
            }
            false
        }
        WorkerMsg::CoalescerDone => true,
    };

    loop {
        let mut progress = false;
        // 1. Drain control messages (new conns, responses, completion).
        loop {
            match control.try_recv() {
                Ok(msg) => {
                    progress = true;
                    done |= apply(msg, &mut conns);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    done = true;
                    break;
                }
            }
        }
        let draining = shared.shutting_down.load(Ordering::SeqCst);

        // 2. Per-connection I/O: write what's pending, read what's new,
        //    parse what's complete; drop what died.
        let before = conns.len();
        conns.retain(|&id, conn| {
            progress |= conn.flush();
            if !conn.dead && !draining {
                if conn.wants_read() {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => conn.read_open = false,
                        Ok(n) => {
                            conn.read_buf.extend_from_slice(&scratch[..n]);
                            progress = true;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => conn.dead = true,
                    }
                }
                if !conn.dead {
                    parse_frames(worker, id, conn, shared, events);
                }
            }
            // A half-closed or violated connection lingers only until its
            // answers are out.
            if !conn.read_open && conn.inflight == 0 && conn.flushed() {
                conn.dead = true;
            }
            !conn.dead
        });
        let closed = before - conns.len();
        if closed > 0 {
            // ordering: advisory connection gauge for admission control;
            // staleness admits/rejects one conn early.
            shared.live_conns.fetch_sub(closed, Ordering::Relaxed);
            progress = true;
        }

        // 3. Drain protocol: tell the coalescer our forwarded total once.
        if draining && !drained_sent {
            drained_sent = true;
            // invariant: if the coalescer is already gone the drain is
            // past the point where this notice matters
            let _ = events.send(Event::Drained);
        }

        // 4. Exit after the coalescer's final word: flush what remains
        //    (bounded), close everything, leave.
        if done {
            for _ in 0..DRAIN_FLUSH_ROUNDS {
                let mut all_clear = true;
                for conn in conns.values_mut().filter(|c| !c.dead && !c.flushed()) {
                    conn.flush();
                    all_clear &= conn.dead || conn.flushed();
                }
                if all_clear {
                    break;
                }
                std::thread::sleep(DRAIN_FLUSH_PAUSE);
            }
            // ordering: advisory gauge — final teardown bookkeeping.
            shared.live_conns.fetch_sub(conns.len(), Ordering::Relaxed);
            return;
        }

        // 5. Park briefly when idle; responses on the control channel
        //    wake us immediately.
        if !progress {
            match control.recv_timeout(IO_PARK) {
                Ok(msg) => done |= apply(msg, &mut conns),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => done = true,
            }
        }
    }
}

/// Parses the complete frames in the connection's read buffer, up to its
/// granted depth: a frame beyond it stays buffered until an answer goes
/// out and the next worker pass resumes here.
fn parse_frames<I>(
    worker: usize,
    conn_id: u64,
    conn: &mut Conn,
    shared: &Shared<I>,
    events: &Sender<Event>,
) where
    I: KmstSubstrate + Send + 'static,
{
    let stats = &shared.stats;
    while !conn.dead && !conn.close_after_flush {
        if !conn.handshaken {
            if !handshake(conn, shared) {
                return;
            }
            continue;
        }
        if conn.inflight >= conn.depth {
            return;
        }
        let (request_id, decoded) = match split_frame_v2(&conn.read_buf) {
            Ok(None) => return,
            Ok(Some(frame)) => {
                let parsed = (frame.request_id, Request::decode(frame.payload));
                let consumed = frame.consumed;
                conn.read_buf.drain(..consumed);
                parsed
            }
            Err(wire) => {
                conn.refuse(
                    stats,
                    Framing::V2(0),
                    ErrorCode::Malformed,
                    wire.to_string(),
                );
                return;
            }
        };
        let to = Framing::V2(request_id);
        let request = match decoded {
            Ok(request) => request,
            Err(wire) => {
                conn.refuse(stats, to, ErrorCode::Malformed, wire.to_string());
                return;
            }
        };
        ServerStats::bump(&stats.requests_decoded);
        let reply = Reply {
            worker,
            conn: conn_id,
            request_id,
        };
        let event = match request {
            Request::Hello { .. } => {
                conn.refuse(stats, to, ErrorCode::Malformed, "hello after the handshake");
                return;
            }
            // Answered directly on the I/O thread: a stats probe must
            // overtake slow queries pipelined ahead of it.
            Request::Stats => {
                conn.queue(request_id, &Response::Stats(shared.stats_report()).encode());
                continue;
            }
            Request::Shutdown => {
                conn.queue(request_id, &Response::ShutdownAck.encode());
                initiate_shutdown(shared);
                return;
            }
            Request::Insert { id, points } => {
                if !writes_admitted(conn, request_id, shared) {
                    continue;
                }
                match Trajectory::new(points) {
                    Ok(trajectory) => Event::Ingest(reply, IngestOp::Insert { id, trajectory }),
                    Err(e) => {
                        conn.refuse(stats, to, ErrorCode::InvalidQuery, e.to_string());
                        continue;
                    }
                }
            }
            Request::Delete { id } => {
                if !writes_admitted(conn, request_id, shared) {
                    continue;
                }
                Event::Ingest(reply, IngestOp::Delete { id })
            }
            Request::Subscribe { from_lsn } => {
                if !writes_admitted(conn, request_id, shared) {
                    continue;
                }
                Event::Fetch(reply, from_lsn)
            }
            Request::ReplicaAck { lsn } => {
                if !writes_admitted(conn, request_id, shared) {
                    continue;
                }
                ServerStats::raise(&stats.repl_acked_lsn, lsn);
                Event::Fetch(reply, lsn.saturating_add(1))
            }
            query => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    conn.refuse(stats, to, ErrorCode::ShuttingDown, DRAINING);
                    continue;
                }
                let (key, query) = match build_query(query) {
                    Ok(built) => built,
                    Err(message) => {
                        conn.refuse(stats, to, ErrorCode::InvalidQuery, message);
                        continue;
                    }
                };
                // Read-your-writes gate: a query carrying `min_lsn` is
                // admitted only once this server's applied watermark has
                // reached it. Refusal is typed and immediate (never a
                // block on the I/O thread) so the client can retry or
                // fail over.
                if let Some(required) = query.options().min_lsn {
                    if !shared.watermark.reached(required) {
                        let watermark = shared.watermark.current();
                        let code = ErrorCode::ReplicaLagging {
                            required,
                            watermark,
                        };
                        let message = "replica has not caught up to the requested LSN";
                        conn.refuse(stats, to, code, message);
                        continue;
                    }
                }
                Event::Query { reply, key, query }
            }
        };
        conn.inflight += 1;
        // invariant: a send failure means the coalescer exited under a
        // forced drain; the connection is about to be torn down with it
        let _ = events.send(event);
    }
}

/// The one gate on ingest and replication frames: only a primary that is
/// not draining forwards them to the coalescer. Every other server
/// refuses them typed on the I/O thread, and the connection stays open.
fn writes_admitted<I>(conn: &mut Conn, request_id: u64, shared: &Shared<I>) -> bool {
    let (code, message) = match shared.role {
        Role::Primary if !shared.shutting_down.load(Ordering::SeqCst) => return true,
        Role::Primary => (ErrorCode::ShuttingDown, DRAINING),
        Role::Replica => (
            ErrorCode::NotPrimary,
            "this server is a read-only replica; send writes and subscriptions to the primary",
        ),
        Role::ReadOnly => (
            ErrorCode::ReadOnly,
            "this server has no durable store: it takes no writes and has no log to ship",
        ),
    };
    conn.refuse(&shared.stats, Framing::V2(request_id), code, message);
    false
}

/// Runs the version handshake on the first complete frame. Returns false
/// when more bytes are needed (or the connection is now closing).
fn handshake<I>(conn: &mut Conn, shared: &Shared<I>) -> bool {
    let stats = &shared.stats;
    // Both protocol versions open with the same [len: u32] prefix.
    let Some(&[a, b, c, d]) = conn.read_buf.get(..4) else {
        return false;
    };
    let len = u32::from_le_bytes([a, b, c, d]);
    if len == 0 || len > MAX_FRAME + 8 {
        let message = WireError::Oversized(len).to_string();
        conn.refuse(stats, Framing::V1, ErrorCode::Malformed, message);
        return false;
    }
    let total = 4 + len as usize;
    if conn.read_buf.len() < total {
        return false;
    }
    match classify_first_payload(&conn.read_buf[4..total]) {
        FirstFrame::V2Hello => {
            let decoded = Request::decode(&conn.read_buf[12..total]);
            conn.read_buf.drain(..total);
            let Ok(Request::Hello {
                min_version,
                max_version,
                depth,
            }) = decoded
            else {
                conn.refuse(
                    stats,
                    Framing::V2(0),
                    ErrorCode::Malformed,
                    "malformed hello",
                );
                return false;
            };
            if min_version > VERSION || max_version < VERSION {
                let code = ErrorCode::UnsupportedVersion {
                    min: VERSION,
                    max: VERSION,
                };
                let message = format!(
                    "server speaks protocol v{VERSION}; client offered \
                     v{min_version}..=v{max_version}"
                );
                conn.refuse(stats, Framing::V2(0), code, message);
                return false;
            }
            ServerStats::bump(&stats.requests_decoded);
            // Before the handshake `depth` holds the configured cap.
            let granted = depth
                .max(1)
                .min(u16::try_from(conn.depth).unwrap_or(u16::MAX));
            conn.depth = usize::from(granted);
            conn.handshaken = true;
            let ack = Response::HelloAck {
                version: VERSION,
                depth: granted,
            };
            conn.queue(0, &ack.encode());
            true
        }
        FirstFrame::V1Request => {
            // A legacy v1 client: answer in *its* framing with a typed
            // error so it fails loudly, never hangs, never sees silence.
            let code = ErrorCode::UnsupportedVersion {
                min: VERSION,
                max: VERSION,
            };
            let message = format!(
                "this server speaks wire protocol v{VERSION}; \
                 upgrade the client and open with a hello frame"
            );
            conn.refuse(stats, Framing::V1, code, message);
            false
        }
        FirstFrame::Unknown => {
            let message = "first frame is neither a v2 hello nor a v1 request";
            conn.refuse(stats, Framing::V1, ErrorCode::Malformed, message);
            false
        }
    }
}

/// One in-flight (or backlogged) execution and everyone waiting on it.
struct PendingExec {
    /// The dedup identity: (cache key, deadline).
    dedup_key: (Vec<u8>, Option<u64>),
    /// Cache generation observed at admission; guards the insert.
    generation: u64,
    waiters: Vec<Reply>,
    /// The query itself, present while backlogged, taken at submission.
    query: Option<BatchQuery>,
}

/// The coalescer's way out: every answer leaves through here, and so
/// every answer is counted off `outstanding`.
struct Outbox<'a> {
    workers: &'a [Sender<WorkerMsg>],
    /// Requests received and not yet answered (any path).
    outstanding: usize,
}

impl Outbox<'_> {
    /// Sends one encoded payload to every waiter.
    fn send(&mut self, waiters: &[Reply], payload: &Arc<Vec<u8>>) {
        self.outstanding = self.outstanding.saturating_sub(waiters.len());
        for to in waiters {
            if let Some(tx) = self.workers.get(to.worker) {
                // invariant: a worker gone mid-teardown drops its
                // connections with it; the response has no reader anyway
                let _ = tx.send(WorkerMsg::Response(*to, Arc::clone(payload)));
            }
        }
    }

    /// Encodes one answer — a response, or a typed refusal `(code,
    /// message)` — and sends it to every waiter: the coalescer's one way
    /// to reply, and the only place it builds an `Error` frame. An answer
    /// over the frame cap goes out as a typed `Internal` error instead.
    /// Returns the payload sent.
    fn respond(
        &mut self,
        waiters: &[Reply],
        answer: Result<Response, (ErrorCode, String)>,
    ) -> Arc<Vec<u8>> {
        let error = |code, message| Response::Error { code, message };
        let mut payload = answer.unwrap_or_else(|(code, m)| error(code, m)).encode();
        if payload.len() > MAX_FRAME as usize {
            let message = "answer exceeds the frame cap; narrow the query";
            payload = error(ErrorCode::Internal, message.into()).encode();
        }
        let payload = Arc::new(payload);
        self.send(waiters, &payload);
        payload
    }
}

/// The coalescer: the single wait point turning per-connection request
/// streams into batched executor submissions and fanned-out responses.
struct Coalescer<'a, I> {
    shared: &'a Shared<I>,
    out: Outbox<'a>,
    sink: Arc<dyn OutcomeSink>,
    /// The durable write lane; present exactly when the server is a
    /// primary, which is the only role whose workers forward writes and
    /// replication fetches.
    backend: Option<Box<dyn IngestBackend>>,
    pending: HashMap<u64, PendingExec>,
    /// Dedup identity → the execution identical queries attach to.
    dedup: HashMap<(Vec<u8>, Option<u64>), u64>,
    backlog: VecDeque<u64>,
    /// This tick's ingest frames, flushed as one write batch.
    writes: Vec<(Reply, IngestOp)>,
    /// This tick's replication fetches and the first LSN each wants.
    fetches: Vec<(Reply, u64)>,
    next_token: u64,
    drained_workers: usize,
}

/// Runs the coalescer until the drain completes, then releases the I/O
/// workers.
pub(crate) fn coalescer_loop<I>(
    shared: &Arc<Shared<I>>,
    events: &Receiver<Event>,
    sink_tx: Sender<Event>,
    workers: &[Sender<WorkerMsg>],
    backend: Option<Box<dyn IngestBackend>>,
) where
    I: KmstSubstrate + Send + 'static,
{
    let mut c = Coalescer {
        shared,
        out: Outbox {
            workers,
            outstanding: 0,
        },
        sink: Arc::new(EventSink(sink_tx)),
        backend,
        pending: HashMap::new(),
        dedup: HashMap::new(),
        backlog: VecDeque::new(),
        writes: Vec::new(),
        fetches: Vec::new(),
        next_token: 0,
        drained_workers: 0,
    };
    let mut stall = 0u32;
    loop {
        let draining = shared.shutting_down.load(Ordering::SeqCst);
        match events.recv_timeout(COALESCER_PARK) {
            Ok(event) => {
                stall = 0;
                c.handle(event);
                while let Ok(event) = events.try_recv() {
                    c.handle(event);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if draining {
                    stall = stall.saturating_add(1);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }

        // Durable writes first — one group commit for everything this
        // tick — so a query admitted below sees every acked ingest.
        c.flush_writes();
        // Replication fetches next: they run **after** the flush so a
        // subscriber polling right behind a write batch always ships the
        // records that batch just committed.
        c.serve_fetches();
        // One batched submission per tick: the whole backlog in one
        // queue-lock round-trip; the executor admits a prefix.
        c.submit_backlog();

        let settled =
            c.drained_workers >= workers.len() && c.backlog.is_empty() && c.out.outstanding == 0;
        // The stall bound is the lost-outcome backstop: a hung executor
        // must not hang the drain forever. Whatever is left gets no
        // answer; the workers' final flush still delivers everything
        // already queued.
        if draining && (settled || stall > STALL_LIMIT) {
            break;
        }
    }
    for tx in workers {
        // invariant: a worker that already exited needs no completion
        // notice; the drain proceeds with the rest
        let _ = tx.send(WorkerMsg::CoalescerDone);
    }
}

impl<I> Coalescer<'_, I>
where
    I: KmstSubstrate + Send + 'static,
{
    fn handle(&mut self, event: Event) {
        match event {
            Event::Query { reply, key, query } => {
                self.out.outstanding += 1;
                self.admit(reply, key, query);
            }
            Event::Ingest(reply, op) => {
                self.out.outstanding += 1;
                self.writes.push((reply, op));
            }
            Event::Fetch(reply, from_lsn) => {
                self.out.outstanding += 1;
                self.fetches.push((reply, from_lsn));
            }
            Event::Done(token, outcome) => self.complete(token, outcome),
            Event::Drained => self.drained_workers += 1,
        }
    }

    /// A new query is answered from the cache, attached to an identical
    /// execution in flight, or backlogged for the next batch — unless
    /// the backlog is full, when the newest query answers a typed
    /// overload.
    fn admit(&mut self, reply: Reply, key: Vec<u8>, query: BatchQuery) {
        let shared = self.shared;
        if let Some(hit) = shared.cache.lookup(&key) {
            ServerStats::bump(&shared.stats.cache_hits);
            ServerStats::bump(&shared.stats.queries_completed);
            let delta = QueryProfile {
                answer_cache_hits: 1,
                ..QueryProfile::default()
            };
            if let Ok(mut profile) = shared.profile.lock() {
                profile.merge(&delta);
            }
            self.out.send(&[reply], &hit);
            return;
        }
        ServerStats::bump(&shared.stats.cache_misses);
        // Identical queries (same cache key AND same deadline class) in
        // flight share one execution. The deadline rides in the dedup key
        // so a no-deadline query can never be answered by a
        // potentially-degraded deadline-bearing execution.
        let dedup_key = (key, query.options().deadline_us);
        if let Some(p) = self
            .dedup
            .get(&dedup_key)
            .and_then(|t| self.pending.get_mut(t))
        {
            p.waiters.push(reply);
            return;
        }
        // The backlog is bounded like the executor's queue it waits for.
        let capacity = shared.exec.queue_capacity();
        if self.backlog.len() >= capacity {
            ServerStats::bump(&shared.stats.overload_rejections);
            let queued = self.backlog.len() + shared.exec.queue_depth();
            let overloaded = Response::Overloaded {
                queued: u32::try_from(queued).unwrap_or(u32::MAX),
                capacity: u32::try_from(capacity).unwrap_or(u32::MAX),
            };
            self.out.respond(&[reply], Ok(overloaded));
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.dedup.insert(dedup_key.clone(), token);
        self.pending.insert(
            token,
            PendingExec {
                dedup_key,
                generation: shared.cache.generation(),
                waiters: vec![reply],
                query: Some(query),
            },
        );
        self.backlog.push_back(token);
    }

    /// An execution finished: its answer fans out to every waiter, and a
    /// certified one enters the cache unless an invalidation happened
    /// since admission.
    fn complete(&mut self, token: u64, mut outcome: QueryOutcome) {
        let Some(entry) = self.pending.remove(&token) else {
            return;
        };
        self.dedup.remove(&entry.dedup_key);
        let stats = &self.shared.stats;
        let waiters = entry.waiters.len() as u64;
        ServerStats::bump_by(&stats.queries_completed, waiters);
        if outcome.degraded {
            ServerStats::bump_by(&stats.queries_degraded, waiters);
        }
        // Every waiter of this execution was a cache miss; the profile's
        // miss count mirrors the stats counter.
        outcome.profile.answer_cache_misses = waiters;
        if let Ok(mut profile) = self.shared.profile.lock() {
            profile.merge(&outcome.profile);
        }
        let degraded = outcome.degraded;
        let response = match outcome.answer {
            QueryAnswer::Kmst(matches) => Response::Kmst { degraded, matches },
            QueryAnswer::Knn(matches) => Response::Knn { degraded, matches },
            QueryAnswer::Segments(matches) => Response::Segments { degraded, matches },
            QueryAnswer::Range(entries) => Response::Range { degraded, entries },
        };
        let payload = self.out.respond(&entry.waiters, Ok(response));
        if !degraded {
            let (key, _) = entry.dedup_key;
            self.shared.cache.insert_if(key, payload, entry.generation);
        }
    }

    /// Flushes the tick's ingest operations through the durable backend
    /// as **one** write batch (one WAL group commit), publishes the new
    /// committed state, invalidates the answer cache if any operation
    /// changed state, and only then answers every writer with its own
    /// outcome. Runs before `submit_backlog` each tick, so queries
    /// admitted afterwards see the new state; the generation guard in
    /// [`crate::cache::AnswerCache::insert_if`] drops any in-flight answer
    /// computed against the old one.
    fn flush_writes(&mut self) {
        let Some(backend) = self.backend.as_mut() else {
            return;
        };
        if self.writes.is_empty() {
            return;
        }
        let (waiters, ops): (Vec<Reply>, Vec<IngestOp>) =
            std::mem::take(&mut self.writes).into_iter().unzip();
        let outcome = backend.apply_batch(&ops);
        // The watermark, the gauges and the cache settle BEFORE any ack
        // goes out: a client pipelining a stats probe or a `min_lsn` read
        // right behind its acked write must see the write.
        self.shared.publish_commit(backend.as_ref());
        let results = match outcome {
            Ok(results) => results,
            // Store-level failure: nothing was acked; every writer in the
            // batch hears the same internal error.
            Err(message) => {
                self.out
                    .respond(&waiters, Err((ErrorCode::Internal, message)));
                return;
            }
        };
        let applied = results.iter().filter(|r| matches!(r, Ok((_, true))));
        let applied = applied.count() as u64;
        if applied > 0 {
            ServerStats::bump_by(&self.shared.stats.ingest_applied, applied);
            // An answer computed against the old state must never be
            // served after an ingest ack.
            self.shared.cache.invalidate();
        }
        for (to, result) in waiters.into_iter().zip(results) {
            let answer = result
                .map(|(lsn, applied)| Response::Ingested { lsn, applied })
                .map_err(|message| (ErrorCode::InvalidQuery, message));
            self.out.respond(&[to], answer);
        }
    }

    /// Answers the tick's replication fetches from the durable backend's
    /// committed log. Runs right after `flush_writes`, so a poll that
    /// raced a write batch onto the same tick ships that batch's records.
    /// A subscriber whose `from_lsn` sits below the log floor
    /// (checkpoints truncated past it — or the bootstrap sentinel
    /// `from_lsn == 0`, since the floor is always at least 1) receives a
    /// full snapshot at the committed LSN instead of records. An empty
    /// record batch with no snapshot is the heartbeat: it still carries
    /// the primary's committed LSN, so lag gauges stay live under a
    /// write-idle primary.
    fn serve_fetches(&mut self) {
        let Some(backend) = self.backend.as_ref() else {
            return;
        };
        let stats = &self.shared.stats;
        let committed_lsn = backend.committed_lsn();
        for (to, from_lsn) in std::mem::take(&mut self.fetches) {
            let answer = backend.replication_floor().and_then(|floor| {
                if from_lsn < floor {
                    return Ok(Response::Replicate {
                        committed_lsn,
                        snapshot: Some(backend.encode_snapshot()?),
                        records: Vec::new(),
                    });
                }
                let records = backend.read_records(from_lsn, REPL_BATCH_BYTES)?;
                if records.is_empty() {
                    ServerStats::bump(&stats.repl_heartbeats);
                } else {
                    ServerStats::bump_by(&stats.repl_records_shipped, records.len() as u64);
                }
                Ok(Response::Replicate {
                    committed_lsn,
                    snapshot: None,
                    records,
                })
            });
            let answer = answer.map_err(|message| (ErrorCode::Internal, message));
            self.out.respond(&[to], answer);
        }
    }

    /// Hands the entire backlog to the executor in one batched call. The
    /// admitted prefix leaves the backlog; capacity rejections stay (in
    /// order) for the next tick; shutdown rejections answer typed errors.
    fn submit_backlog(&mut self) {
        let mut batch: Vec<RoutedQuery> = Vec::with_capacity(self.backlog.len());
        while let Some(token) = self.backlog.pop_front() {
            if let Some(query) = self.pending.get_mut(&token).and_then(|p| p.query.take()) {
                batch.push(RoutedQuery { token, query });
            }
        }
        if batch.is_empty() {
            return;
        }
        let admission = self.shared.exec.try_submit_batch(batch, &self.sink);
        let admitted = admission.admitted as u64;
        ServerStats::bump_by(&self.shared.stats.queries_admitted, admitted);
        for rejected in admission.rejected {
            match rejected.reason {
                // Not dropped, not client-rejected: the query keeps its
                // backlog slot and rides the next tick's batch.
                SubmitError::Overloaded { .. } => {
                    if let Some(entry) = self.pending.get_mut(&rejected.token) {
                        entry.query = Some(rejected.query);
                        self.backlog.push_back(rejected.token);
                    }
                }
                // The executor is gone (forced teardown): answer typed.
                SubmitError::ShuttingDown => {
                    if let Some(entry) = self.pending.remove(&rejected.token) {
                        self.dedup.remove(&entry.dedup_key);
                        let refusal = (ErrorCode::ShuttingDown, DRAINING.to_string());
                        self.out.respond(&entry.waiters, Err(refusal));
                    }
                }
            }
        }
    }
}
