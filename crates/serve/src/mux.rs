//! The serving core: a blocking acceptor, two blocking threads per
//! connection, and one coalescer thread that batches the queries pending
//! across **all** connections into single executor submissions.
//!
//! # Thread topology
//!
//! ```text
//!             ┌▶ reader ──Event::Query──▶ coalescer ──try_submit_batch──▶ executor workers
//! acceptor ───┤    │ direct answers         │    ▲                              │
//! (per conn)  │    ▼                        │    └────────Event::Done───────────┘
//!             └▶ writer ◀──── Conn queue ◀──┘ answers (Outbox)
//! ```
//!
//! * The **acceptor** owns the listener: cap check, then one reader and
//!   one writer thread for the admitted stream. It blocks in `accept()`;
//!   shutdown pokes it with a self-connection. It keeps every
//!   connection's threads and joins them, the finished ones as it
//!   accepts the next connection and the rest in the drain.
//! * A connection's **reader** blocks in `read` until the peer's bytes
//!   arrive, carves frames ([`crate::protocol::split_frame_v2`]), answers
//!   `Stats`, `Shutdown`, handshakes and typed errors directly (so cheap
//!   requests overtake slow queries — the out-of-order guarantee), and
//!   forwards query work to the coalescer. At its pipeline depth it
//!   waits for an answer to go out before it parses or reads again — TCP
//!   backpressure, no bookkeeping.
//! * A connection's **writer** blocks until answers are queued on the
//!   connection ([`Conn`]) and writes them out. A peer that stops reading
//!   blocks its own writer and nothing else.
//! * The **coalescer** is the single wait point: incoming queries,
//!   finished executions, and the drain notice all arrive on one
//!   channel. Per tick it serves answer-cache hits, attaches duplicate
//!   concurrent queries to one in-flight execution (dedup), and hands
//!   the whole backlog to the executor in **one**
//!   [`mst_exec::ExecHandle::try_submit_batch`] call.
//!
//! Nothing polls: `std` has no readiness API, so a thread blocked on one
//! socket is the only way to learn of its bytes the moment they arrive.
//! Every typed refusal is built in one place per side: `Reader::refuse`
//! on a reader, `Outbox::respond` in the coalescer.
//!
//! # Drain correctness
//!
//! The acceptor shuts the read half of every live socket, so each
//! blocked reader returns, and joins every reader. Only then does it send
//! one `Drained` event, so the coalescer has seen every forwarded query
//! once the notice is in. The coalescer runs the backlog dry, waits for
//! `outstanding == 0` (every forwarded query answered — admitted work is
//! never dropped) and exits; the writers flush what is queued and close.
//! A stall bound (consecutive empty timeouts) caps the drain if an
//! executor outcome is lost to a bug, trading a hung shutdown for a loud
//! one, and the write timeout caps the final flush to a peer that stopped
//! reading.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
// The park interval and the write timeout below are scheduling inputs,
// not measurements; no clock is ever read in this module.
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

/// How long one socket write may move no byte before the writer gives
/// the peer up: it cuts off a peer that stopped reading, and it bounds
/// the drain's final flush.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Size of a reader's scratch buffer: the most one `read` takes.
const READ_CHUNK: usize = 64 << 10;

/// Cap on record bytes per `Replicate` response. Keeps any one batch
/// well inside the frame cap while still amortising the round trip
/// during catch-up.
const REPL_BATCH_BYTES: usize = 1 << 20;

/// The refusal message of everything a draining server no longer admits.
const DRAINING: &str = "server is draining";

/// Where an answer goes: the connection's queue, and the request id the
/// answer echoes.
#[derive(Clone)]
pub(crate) struct Reply {
    conn: Arc<Conn>,
    request_id: u64,
}

/// Events into the coalescer — the single channel it blocks on.
pub(crate) enum Event {
    /// A validated query forwarded by a reader, with its answer-cache key.
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
    /// Every reader has stopped (drain has begun). Sent by the acceptor
    /// after it joined them all, so every event a reader sent is already
    /// in the channel ahead of it.
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

/// The framing a frame goes out in: v2 at a request id, or v1 for a
/// refusal to a peer whose first frame was not a v2 hello.
#[derive(Debug, Clone, Copy)]
enum Framing {
    V1,
    V2(u64),
}

/// One connection as its reader, its writer and the coalescer share it:
/// the socket, and the answers queued for the writer.
pub(crate) struct Conn {
    stream: TcpStream,
    state: Mutex<ConnState>,
    /// Wakes the writer (bytes queued, or nothing more will come) and the
    /// reader (a depth credit came back, or the connection died).
    wake: Condvar,
}

#[derive(Default)]
struct ConnState {
    /// Framed answers the writer has not taken yet.
    queued: Vec<u8>,
    /// Bytes the writer has taken and not finished writing.
    writing: usize,
    /// Requests forwarded to the coalescer and not yet answered.
    inflight: usize,
    /// The reader has stopped: nothing more will be forwarded.
    read_done: bool,
    /// The socket failed, or the peer let answers pile past
    /// [`WRITE_BUF_CAP`]: answers are dropped and both threads stop.
    dead: bool,
}

impl Conn {
    fn state(&self) -> MutexGuard<'_, ConnState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, ConnState>) -> MutexGuard<'a, ConnState> {
        self.wake
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues one frame for the writer; an `answer` hands its request's
    /// depth credit back. Every payload that reaches a connection fits
    /// the frame cap — the coalescer's `respond` downgrades an over-cap
    /// answer, and the reader's own answers are small — so a frame the
    /// framer still refused kills the connection rather than leaving its
    /// request silently unanswered. So does a frame that takes the
    /// unflushed bytes past [`WRITE_BUF_CAP`].
    fn push(&self, to: Framing, payload: &[u8], answer: bool) {
        let mut state = self.state();
        if answer {
            state.inflight = state.inflight.saturating_sub(1);
        }
        if !state.dead {
            let framed = match to {
                Framing::V2(request_id) => {
                    encode_frame_v2(&mut state.queued, request_id, payload).is_ok()
                }
                Framing::V1 => {
                    // An error payload is at most a few bytes over 64 KiB.
                    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
                    state.queued.extend_from_slice(&len.to_le_bytes());
                    state.queued.extend_from_slice(payload);
                    true
                }
            };
            if !framed || state.queued.len() + state.writing > WRITE_BUF_CAP {
                self.kill(&mut state);
            }
        }
        self.wake.notify_all();
    }

    /// Gives the connection up: answers are dropped from now on, and both
    /// halves of the socket shut so a reader blocked in `read` and a
    /// writer blocked in `write` return.
    fn kill(&self, state: &mut ConnState) {
        state.dead = true;
        state.queued = Vec::new();
        // invariant: the peer may have closed the socket already; it is
        // being given up either way
        let _ = self.stream.shutdown(Shutdown::Both);
        self.wake.notify_all();
    }

    /// Blocks until the reader may put one more request in flight at
    /// `depth`. False once the connection died or the server drains.
    fn credit<I>(&self, depth: usize, shared: &Shared<I>) -> bool {
        let mut state = self.state();
        loop {
            if state.dead || shared.shutting_down.load(Ordering::SeqCst) {
                return false;
            }
            if state.inflight < depth {
                return true;
            }
            state = self.wait(state);
        }
    }

    /// The reader's end: the writer finishes once what is in flight is
    /// answered and written.
    fn finish_reading(&self) {
        self.state().read_done = true;
        self.wake.notify_all();
    }

    /// The drain's first step: shuts the read half, so a reader blocked in
    /// `read` returns, and wakes a reader waiting for a depth credit (it
    /// sees the shutdown flag). The flag is set before the lock is taken,
    /// so a reader that checked it earlier is already waiting.
    fn stop_reading(&self) {
        let _state = self.state();
        // invariant: a socket the peer already closed has no reader left
        // to wake
        let _ = self.stream.shutdown(Shutdown::Read);
        self.wake.notify_all();
    }

    /// The drain's last step, once the coalescer exited: no answer will
    /// come for whatever is still in flight, so the writer finishes after
    /// writing what is queued.
    fn release(&self) {
        let mut state = self.state();
        state.read_done = true;
        state.inflight = 0;
        self.wake.notify_all();
    }
}

/// One admitted connection's two threads, kept by the acceptor until
/// both finished.
pub(crate) struct Served {
    conn: Arc<Conn>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

impl Served {
    fn finished(&self) -> bool {
        self.reader.is_finished() && self.writer.is_finished()
    }

    fn join(self) {
        for thread in [self.reader, self.writer] {
            // invariant: a panicked connection thread has already given
            // its connection up; joining the rest must not cascade
            let _ = thread.join();
        }
    }
}

/// The accept loop: cap check, then a reader and a writer per admitted
/// connection. Runs on the `mst-serve-accept` thread until shutdown and
/// returns the connections still served, for [`drain`].
pub(crate) fn accept_loop<I>(
    shared: &Arc<Shared<I>>,
    listener: &TcpListener,
    events: &Sender<Event>,
    max_connections: usize,
    max_depth: u16,
) -> Vec<Served>
where
    I: KmstSubstrate + Send + 'static,
{
    let mut served: Vec<Served> = Vec::new();
    let mut next_id = 0u64;
    while !shared.shutting_down.load(Ordering::SeqCst) {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            drop(stream);
            break;
        }
        let (finished, live) = served.into_iter().partition(Served::finished);
        served = live;
        finished.into_iter().for_each(Served::join);
        if served.len() >= max_connections {
            ServerStats::bump(&shared.stats.connections_rejected);
            reject_connection(stream, max_connections);
            continue;
        }
        ServerStats::bump(&shared.stats.connections_accepted);
        // A connection whose threads could not start is dropped, which
        // closes it.
        if let Ok(conn) = spawn_conn(shared, stream, events, max_depth, next_id) {
            served.push(conn);
        }
        next_id = next_id.wrapping_add(1);
    }
    // Dropping the listener here (by returning) refuses later connects.
    served
}

/// Starts one connection's writer and reader.
fn spawn_conn<I>(
    shared: &Arc<Shared<I>>,
    stream: TcpStream,
    events: &Sender<Event>,
    max_depth: u16,
    id: u64,
) -> std::io::Result<Served>
where
    I: KmstSubstrate + Send + 'static,
{
    // invariant: nodelay is a latency optimisation; a socket that rejects
    // it still serves correctly
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let conn = Arc::new(Conn {
        stream,
        state: Mutex::new(ConnState::default()),
        wake: Condvar::new(),
    });
    let writer = {
        let conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("mst-serve-write-{id}"))
            .spawn(move || write_loop(&conn))?
    };
    let reader = {
        let conn = Arc::clone(&conn);
        let shared = Arc::clone(shared);
        let events = events.clone();
        std::thread::Builder::new()
            .name(format!("mst-serve-read-{id}"))
            .spawn(move || {
                read_loop(&conn, &shared, &events, max_depth);
                conn.finish_reading();
            })
    };
    match reader {
        Ok(reader) => Ok(Served {
            conn,
            reader,
            writer,
        }),
        Err(e) => {
            conn.finish_reading();
            // invariant: the writer had nothing to write; its outcome
            // carries nothing
            let _ = writer.join();
            Err(e)
        }
    }
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

/// The drain, on the accept thread once it stopped accepting: stop every
/// reader, tell the coalescer no request will follow, let it answer
/// everything admitted, then let every writer flush and close.
pub(crate) fn drain(served: Vec<Served>, events: Sender<Event>, coalescer: JoinHandle<()>) {
    for s in &served {
        s.conn.stop_reading();
    }
    let mut writers = Vec::with_capacity(served.len());
    for Served {
        conn,
        reader,
        writer,
    } in served
    {
        // invariant: a panicked reader forwards nothing more; the drain
        // goes on
        let _ = reader.join();
        writers.push((conn, writer));
    }
    // invariant: a coalescer that already exited needs no notice
    let _ = events.send(Event::Drained);
    // invariant: a panicked coalescer answers nothing more; the writers
    // still flush what it queued
    let _ = coalescer.join();
    for (conn, _) in &writers {
        conn.release();
    }
    for (_, writer) in writers {
        // invariant: same policy — joining must not cascade
        let _ = writer.join();
    }
}

/// A connection's writer: writes whatever is queued until the reader is
/// done and every request it forwarded is answered and out, then closes
/// the socket.
fn write_loop(conn: &Conn) {
    let mut batch = Vec::new();
    let mut state = conn.state();
    loop {
        if state.dead {
            return;
        }
        if state.queued.is_empty() {
            if state.read_done && state.inflight == 0 {
                break;
            }
            state = conn.wait(state);
            continue;
        }
        std::mem::swap(&mut batch, &mut state.queued);
        state.writing = batch.len();
        drop(state);
        let written = (&conn.stream).write_all(&batch);
        batch.clear();
        state = conn.state();
        state.writing = 0;
        if written.is_err() {
            conn.kill(&mut state);
            return;
        }
    }
    // invariant: the peer may have closed the socket already; the close
    // only tells it that nothing more comes
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// A connection's reader: the handshake, then one request after another
/// until the peer closes, breaks the protocol, or the server drains.
fn read_loop<I>(conn: &Arc<Conn>, shared: &Shared<I>, events: &Sender<Event>, max_depth: u16)
where
    I: KmstSubstrate + Send + 'static,
{
    let mut reader = Reader {
        conn,
        shared,
        events,
        buf: Vec::new(),
        scratch: vec![0u8; READ_CHUNK],
        depth: usize::from(max_depth.max(1)),
    };
    if reader.handshake() {
        while reader.next_request() {}
    }
}

/// A reader's state: the parse buffer and the granted depth.
struct Reader<'a, I> {
    conn: &'a Arc<Conn>,
    shared: &'a Shared<I>,
    events: &'a Sender<Event>,
    /// Bytes read and not yet parsed.
    buf: Vec<u8>,
    scratch: Vec<u8>,
    /// Granted pipeline depth (the configured cap until the handshake
    /// replaces it with the grant).
    depth: usize,
}

impl<I> Reader<'_, I>
where
    I: KmstSubstrate + Send + 'static,
{
    /// Blocks until the peer sends more and appends it to the parse
    /// buffer. False at end of stream or on a socket error.
    fn fill(&mut self) -> bool {
        loop {
            match (&self.conn.stream).read(&mut self.scratch) {
                Ok(0) => return false,
                Ok(n) => {
                    self.buf.extend_from_slice(&self.scratch[..n]);
                    return true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Queues one answer of the reader's own (it uses no depth credit).
    fn answer(&self, request_id: u64, response: &Response) {
        self.conn
            .push(Framing::V2(request_id), &response.encode(), false);
    }

    /// Queues a typed refusal: the reader's one way to build an `Error`
    /// frame. `Malformed` and `InvalidQuery` refusals are counted. Returns
    /// whether the connection reads on: a `Malformed` or
    /// `UnsupportedVersion` refusal ends it once the frame is out (framing
    /// sync is lost, or the peer speaks another protocol).
    fn refuse(&self, to: Framing, code: ErrorCode, message: impl Into<String>) -> bool {
        let stats = &self.shared.stats;
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
        self.conn.push(to, &payload, false);
        !matches!(
            code,
            ErrorCode::Malformed | ErrorCode::UnsupportedVersion { .. }
        )
    }

    /// Runs the version handshake on the first complete frame. False when
    /// the connection ends instead.
    fn handshake(&mut self) -> bool {
        loop {
            // Both protocol versions open with the same [len: u32] prefix.
            if let Some(&[a, b, c, d]) = self.buf.get(..4) {
                let len = u32::from_le_bytes([a, b, c, d]);
                if len == 0 || len > MAX_FRAME + 8 {
                    let message = WireError::Oversized(len).to_string();
                    return self.refuse(Framing::V1, ErrorCode::Malformed, message);
                }
                let total = 4 + len as usize;
                if self.buf.len() >= total {
                    return self.greet(total);
                }
            }
            if !self.fill() {
                return false;
            }
        }
    }

    /// Answers the first frame, `total` bytes long: a v2 hello gets the
    /// grant; anything else a typed refusal that ends the connection.
    fn greet(&mut self, total: usize) -> bool {
        let stats = &self.shared.stats;
        match classify_first_payload(&self.buf[4..total]) {
            FirstFrame::V2Hello => {
                let decoded = Request::decode(&self.buf[12..total]);
                self.buf.drain(..total);
                let Ok(Request::Hello {
                    min_version,
                    max_version,
                    depth,
                }) = decoded
                else {
                    return self.refuse(Framing::V2(0), ErrorCode::Malformed, "malformed hello");
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
                    return self.refuse(Framing::V2(0), code, message);
                }
                ServerStats::bump(&stats.requests_decoded);
                // Before the handshake `depth` holds the configured cap.
                let granted = depth
                    .max(1)
                    .min(u16::try_from(self.depth).unwrap_or(u16::MAX));
                self.depth = usize::from(granted);
                let ack = Response::HelloAck {
                    version: VERSION,
                    depth: granted,
                };
                self.answer(0, &ack);
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
                self.refuse(Framing::V1, code, message)
            }
            FirstFrame::Unknown => {
                let message = "first frame is neither a v2 hello nor a v1 request";
                self.refuse(Framing::V1, ErrorCode::Malformed, message)
            }
        }
    }

    /// Serves the next request: waits for a depth credit, reads until a
    /// whole frame is buffered, then answers it directly or forwards it
    /// to the coalescer. False once the connection stops reading.
    fn next_request(&mut self) -> bool {
        if !self.conn.credit(self.depth, self.shared) {
            return false;
        }
        let (request_id, decoded) = loop {
            match split_frame_v2(&self.buf) {
                Ok(Some(frame)) => {
                    let parsed = (frame.request_id, Request::decode(frame.payload));
                    let consumed = frame.consumed;
                    self.buf.drain(..consumed);
                    break parsed;
                }
                Ok(None) => {
                    if !self.fill() {
                        return false;
                    }
                }
                Err(wire) => {
                    return self.refuse(Framing::V2(0), ErrorCode::Malformed, wire.to_string())
                }
            }
        };
        let to = Framing::V2(request_id);
        let request = match decoded {
            Ok(request) => request,
            Err(wire) => return self.refuse(to, ErrorCode::Malformed, wire.to_string()),
        };
        let shared = self.shared;
        let stats = &shared.stats;
        ServerStats::bump(&stats.requests_decoded);
        let reply = Reply {
            conn: Arc::clone(self.conn),
            request_id,
        };
        let event = match request {
            Request::Hello { .. } => {
                return self.refuse(to, ErrorCode::Malformed, "hello after the handshake");
            }
            // Answered directly on the reader: a stats probe must overtake
            // slow queries pipelined ahead of it.
            Request::Stats => {
                self.answer(request_id, &Response::Stats(shared.stats_report()));
                return true;
            }
            Request::Shutdown => {
                self.answer(request_id, &Response::ShutdownAck);
                initiate_shutdown(shared);
                return false;
            }
            Request::Insert { id, points } => {
                if !self.writes_admitted(request_id) {
                    return true;
                }
                match Trajectory::new(points) {
                    Ok(trajectory) => Event::Ingest(reply, IngestOp::Insert { id, trajectory }),
                    Err(e) => return self.refuse(to, ErrorCode::InvalidQuery, e.to_string()),
                }
            }
            Request::Delete { id } => {
                if !self.writes_admitted(request_id) {
                    return true;
                }
                Event::Ingest(reply, IngestOp::Delete { id })
            }
            Request::Subscribe { from_lsn } => {
                if !self.writes_admitted(request_id) {
                    return true;
                }
                Event::Fetch(reply, from_lsn)
            }
            Request::ReplicaAck { lsn } => {
                if !self.writes_admitted(request_id) {
                    return true;
                }
                ServerStats::raise(&stats.repl_acked_lsn, lsn);
                Event::Fetch(reply, lsn.saturating_add(1))
            }
            query => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return self.refuse(to, ErrorCode::ShuttingDown, DRAINING);
                }
                let (key, query) = match build_query(query) {
                    Ok(built) => built,
                    Err(message) => return self.refuse(to, ErrorCode::InvalidQuery, message),
                };
                // Read-your-writes gate: a query carrying `min_lsn` is
                // admitted only once this server's applied watermark has
                // reached it. Refusal is typed and immediate (never a
                // block on the reader) so the client can retry or fail
                // over.
                if let Some(required) = query.options().min_lsn {
                    if !shared.watermark.reached(required) {
                        let watermark = shared.watermark.current();
                        let code = ErrorCode::ReplicaLagging {
                            required,
                            watermark,
                        };
                        let message = "replica has not caught up to the requested LSN";
                        return self.refuse(to, code, message);
                    }
                }
                Event::Query { reply, key, query }
            }
        };
        self.conn.state().inflight += 1;
        // invariant: a send failure means the coalescer exited under a
        // forced drain; the connection is about to be torn down with it
        let _ = self.events.send(event);
        true
    }

    /// The one gate on ingest and replication frames: only a primary that
    /// is not draining forwards them to the coalescer. Every other server
    /// refuses them typed on the reader, and the connection stays open.
    fn writes_admitted(&self, request_id: u64) -> bool {
        let (code, message) = match self.shared.role {
            Role::Primary if !self.shared.shutting_down.load(Ordering::SeqCst) => return true,
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
        self.refuse(Framing::V2(request_id), code, message);
        false
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
struct Outbox {
    /// Requests received and not yet answered (any path).
    outstanding: usize,
}

impl Outbox {
    /// Queues one encoded payload on every waiter's connection.
    fn send(&mut self, waiters: &[Reply], payload: &[u8]) {
        self.outstanding = self.outstanding.saturating_sub(waiters.len());
        for to in waiters {
            to.conn.push(Framing::V2(to.request_id), payload, true);
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
    out: Outbox,
    sink: Arc<dyn OutcomeSink>,
    /// The durable write lane; present exactly when the server is a
    /// primary, which is the only role whose readers forward writes and
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
    /// Every reader has stopped: no request follows.
    drained: bool,
}

/// Runs the coalescer until the drain completes.
pub(crate) fn coalescer_loop<I>(
    shared: &Arc<Shared<I>>,
    events: &Receiver<Event>,
    sink_tx: Sender<Event>,
    backend: Option<Box<dyn IngestBackend>>,
) where
    I: KmstSubstrate + Send + 'static,
{
    let mut c = Coalescer {
        shared,
        out: Outbox { outstanding: 0 },
        sink: Arc::new(EventSink(sink_tx)),
        backend,
        pending: HashMap::new(),
        dedup: HashMap::new(),
        backlog: VecDeque::new(),
        writes: Vec::new(),
        fetches: Vec::new(),
        next_token: 0,
        drained: false,
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

        let settled = c.drained && c.backlog.is_empty() && c.out.outstanding == 0;
        // The stall bound is the lost-outcome backstop: a hung executor
        // must not hang the drain forever. Whatever is left gets no
        // answer; the writers' final flush still delivers everything
        // already queued.
        if draining && (settled || stall > STALL_LIMIT) {
            break;
        }
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
            Event::Drained => self.drained = true,
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
