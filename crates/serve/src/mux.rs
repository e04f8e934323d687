//! The serving core: a blocking acceptor and two blocking threads per
//! connection. A connection's reader dispatches its own work: it answers
//! cache hits and control frames itself, hands query misses to the
//! executor, and runs writes and replication fetches on the primary's
//! write lane.
//!
//! # Thread topology
//!
//! ```text
//!             ┌▶ reader ──try_submit_to──▶ executor worker ──┐ Execution sink:
//! acceptor ───┤    │ hits, control, writes, fetches          │ answer, cache
//! (per conn)  │    ▼                                         ▼
//!             └▶ writer ◀──────────── Conn queue ◀───────────┘
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
//!   dispatches the rest itself. A query is served from the answer cache,
//!   attached to an identical execution in flight (dedup), or submitted
//!   to the executor with one [`Execution`] sink. A write is queued on
//!   the [`WriteLane`]; the reader commits its queued writes, or leaves
//!   them to the lane's holder, before it waits, and sees them acked
//!   before it dispatches anything but another write. So writes
//!   pipelined back to back share one commit. A replication fetch runs
//!   on the lane. At its pipeline depth the reader waits for an answer
//!   to go out before it parses or reads again — TCP backpressure, no
//!   bookkeeping.
//! * An **executor worker** runs the query and then its sink, which
//!   queues the answer on every waiter's connection and fills the cache.
//! * A connection's **writer** blocks until answers are queued on the
//!   connection ([`Conn`]) and writes them out. A peer that stops reading
//!   blocks its own writer and nothing else.
//!
//! A query costs two thread wake-ups: the worker's, and the writer's.
//! Nothing polls: `std` has no readiness API, so a thread blocked on one
//! socket is the only way to learn of its bytes the moment they arrive.
//! Every typed refusal is built in one place per side: `Reader::refuse`
//! for the reader's own answers, [`respond`] for every answer that hands
//! a depth credit back.
//!
//! # Drain correctness
//!
//! The acceptor shuts the read half of every live socket, so each
//! blocked reader returns, and joins every reader: from then on nothing
//! is submitted, attached or written. `ExecHandle::shutdown` then runs
//! every admitted job, so every execution's sink answers all its waiters
//! — admitted work is never dropped. Last, the writers flush what is
//! queued and close; the write timeout caps the final flush to a peer
//! that stopped reading.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
// The write timeout below is a scheduling input, not a measurement; no
// clock is ever read in this module.
use std::time::Duration; // invariant: no clock is read; determinism holds

use mst_exec::{BatchQuery, IngestOp, OutcomeSink, QueryAnswer, QueryOutcome, SubmitError};
use mst_search::{KmstSubstrate, QueryProfile};
use mst_trajectory::Trajectory;

use crate::ingest::IngestBackend;
use crate::protocol::{
    classify_first_payload, encode_frame_v2, split_frame_v2, write_frame_v2, ErrorCode, FirstFrame,
    Request, Response, ServerStats, WireError, MAX_FRAME, VERSION,
};
use crate::server::{build_query, initiate_shutdown, Role, Shared};

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
pub(crate) struct Reply {
    conn: Arc<Conn>,
    request_id: u64,
}

/// Locks `m`; a panicked holder does not cascade into this one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The framing a frame goes out in: v2 at a request id, or v1 for a
/// refusal to a peer whose first frame was not a v2 hello.
#[derive(Debug, Clone, Copy)]
enum Framing {
    V1,
    V2(u64),
}

/// One connection as its reader, its writer and whoever answers its
/// requests share it: the socket, and the answers queued for the writer.
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
    /// Requests forwarded (to the executor or the write lane) and not
    /// yet answered.
    inflight: usize,
    /// The reader has stopped: nothing more will be forwarded.
    read_done: bool,
    /// The socket failed, or the peer let answers pile past
    /// [`WRITE_BUF_CAP`]: answers are dropped and both threads stop.
    dead: bool,
}

impl Conn {
    fn state(&self) -> MutexGuard<'_, ConnState> {
        lock(&self.state)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, ConnState>) -> MutexGuard<'a, ConnState> {
        self.wake
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues one frame for the writer; an `answer` hands its request's
    /// depth credit back. Every payload that reaches a connection fits
    /// the frame cap — [`respond`] downgrades an over-cap answer, and the
    /// reader's own answers are small — so a frame the
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

    /// Whether the reader may put one more request in flight at `depth`
    /// without waiting.
    fn has_credit(&self, depth: usize) -> bool {
        self.state().inflight < depth
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

    /// The drain's last step, once the executor ran every admitted job:
    /// no answer will come for whatever is still in flight, so the writer
    /// finishes after writing what is queued.
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
        if let Ok(conn) = spawn_conn(shared, stream, max_depth, next_id) {
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
        std::thread::Builder::new()
            .name(format!("mst-serve-read-{id}"))
            .spawn(move || {
                read_loop(&conn, &shared, max_depth);
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

/// The drain, on the accept thread once it stopped accepting: stop and
/// join every reader, run every admitted job (each execution's sink
/// answers its waiters), then let every writer flush and close.
pub(crate) fn drain<I>(served: Vec<Served>, shared: &Shared<I>) {
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
    shared.exec.shutdown();
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
fn read_loop<I>(conn: &Arc<Conn>, shared: &Arc<Shared<I>>, max_depth: u16)
where
    I: KmstSubstrate + Send + 'static,
{
    let mut reader = Reader {
        conn,
        shared,
        buf: Vec::new(),
        scratch: vec![0u8; READ_CHUNK],
        depth: usize::from(max_depth.max(1)),
        queued_writes: false,
    };
    if reader.handshake() {
        while reader.next_request() {}
    }
    reader.settle();
}

/// A reader's state: the parse buffer and the granted depth.
struct Reader<'a, I> {
    conn: &'a Arc<Conn>,
    shared: &'a Arc<Shared<I>>,
    /// Bytes read and not yet parsed.
    buf: Vec<u8>,
    scratch: Vec<u8>,
    /// Granted pipeline depth (the configured cap until the handshake
    /// replaces it with the grant).
    depth: usize,
    /// Writes this reader queued on the write lane and has not seen
    /// committed.
    queued_writes: bool,
}

impl<'a, I> Reader<'a, I>
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

    /// Before the reader waits (for a depth credit or the peer's bytes):
    /// the writes it queued are committed now, or by whoever holds the
    /// write lane before that one lets it go. So writes pipelined back to
    /// back, or sent while a commit runs, share one group commit.
    fn hand_over(&self) {
        if let (true, Role::Primary(lane)) = (self.queued_writes, &self.shared.role) {
            lane.try_commit(self.shared);
        }
    }

    /// Before the reader dispatches anything but a write, and when it
    /// ends: returns once the writes it queued are committed and acked,
    /// so whatever the peer sent after them sees them.
    fn settle(&mut self) {
        if let (true, Role::Primary(lane)) = (self.queued_writes, &self.shared.role) {
            lane.with(self.shared, |_| ());
        }
        self.queued_writes = false;
    }

    /// Serves the next request: waits for a depth credit, reads until a
    /// whole frame is buffered, then answers or dispatches it. False once
    /// the connection stops reading.
    fn next_request(&mut self) -> bool {
        if !self.conn.has_credit(self.depth) {
            self.hand_over();
        }
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
                    self.hand_over();
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
        if !matches!(request, Request::Insert { .. } | Request::Delete { .. }) {
            self.settle();
        }
        match request {
            Request::Hello { .. } => {
                return self.refuse(to, ErrorCode::Malformed, "hello after the handshake");
            }
            // Answered directly on the reader: a stats probe must overtake
            // slow queries pipelined ahead of it.
            Request::Stats => {
                self.answer(request_id, &Response::Stats(shared.stats_report()));
            }
            Request::Shutdown => {
                self.answer(request_id, &Response::ShutdownAck);
                initiate_shutdown(shared);
                return false;
            }
            Request::Insert { id, points } => {
                let Some(lane) = self.lane(request_id) else {
                    return true;
                };
                match Trajectory::new(points) {
                    Ok(trajectory) => {
                        let op = IngestOp::Insert { id, trajectory };
                        lane.queue(self.forward(request_id), op);
                        self.queued_writes = true;
                    }
                    Err(e) => return self.refuse(to, ErrorCode::InvalidQuery, e.to_string()),
                }
            }
            Request::Delete { id } => {
                if let Some(lane) = self.lane(request_id) {
                    lane.queue(self.forward(request_id), IngestOp::Delete { id });
                    self.queued_writes = true;
                }
            }
            Request::Subscribe { from_lsn } => {
                if let Some(lane) = self.lane(request_id) {
                    lane.fetch(shared, self.forward(request_id), from_lsn);
                }
            }
            Request::ReplicaAck { lsn } => {
                if let Some(lane) = self.lane(request_id) {
                    ServerStats::raise(&stats.repl_acked_lsn, lsn);
                    lane.fetch(shared, self.forward(request_id), lsn.saturating_add(1));
                }
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
                dispatch_query(shared, self.forward(request_id), key, query);
            }
        }
        true
    }

    /// Takes a depth credit for a request that is answered elsewhere; the
    /// returned reply hands it back with the answer.
    fn forward(&self, request_id: u64) -> Reply {
        self.conn.state().inflight += 1;
        Reply {
            conn: Arc::clone(self.conn),
            request_id,
        }
    }

    /// The one gate on ingest and replication frames: only a primary that
    /// is not draining runs them, on its write lane. Every other server
    /// refuses them typed on the reader, and the connection stays open.
    fn lane(&self, request_id: u64) -> Option<&'a WriteLane> {
        let (code, message) = match &self.shared.role {
            Role::Primary(lane) if !self.shared.shutting_down.load(Ordering::SeqCst) => {
                return Some(lane)
            }
            Role::Primary(_) => (ErrorCode::ShuttingDown, DRAINING),
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
        None
    }
}

/// Queues one encoded payload on every waiter's connection, handing each
/// its depth credit back.
fn send(waiters: &[Reply], payload: &[u8]) {
    for to in waiters {
        to.conn.push(Framing::V2(to.request_id), payload, true);
    }
}

/// Encodes one answer — a response, or a typed refusal `(code, message)`
/// — the only place outside `Reader::refuse` that builds an `Error`
/// frame. An answer over the frame cap becomes a typed `Internal` error.
fn encode(answer: Result<Response, (ErrorCode, String)>) -> Arc<Vec<u8>> {
    let error = |code, message| Response::Error { code, message };
    let payload = answer.unwrap_or_else(|(code, m)| error(code, m)).encode();
    if payload.len() > MAX_FRAME as usize {
        let message = "answer exceeds the frame cap; narrow the query";
        return Arc::new(error(ErrorCode::Internal, message.into()).encode());
    }
    Arc::new(payload)
}

/// Encodes one answer and sends it to every waiter: the one way to answer
/// a forwarded request.
fn respond(waiters: &[Reply], answer: Result<Response, (ErrorCode, String)>) {
    send(waiters, &encode(answer));
}

/// What identical queries in flight share one execution by: the cache
/// key, the deadline, and the cache generation at admission. The deadline
/// rides in the key so a no-deadline query can never be answered by a
/// potentially-degraded deadline-bearing execution. The generation rides
/// in it so a query sent after a write's ack never attaches to an
/// execution admitted before the write's invalidation: that one may have
/// searched the old state.
pub(crate) type DedupKey = (Vec<u8>, Option<u64>, u64);

/// Executions in flight, by what their waiters share; each entry holds
/// every request the execution will answer.
pub(crate) type InFlight = Mutex<HashMap<DedupKey, Vec<Reply>>>;

/// A query from a reader: answered from the cache, attached to an
/// identical execution in flight, or submitted to the executor. A full
/// executor queue answers a typed overload at once.
fn dispatch_query<I>(shared: &Arc<Shared<I>>, reply: Reply, key: Vec<u8>, query: BatchQuery)
where
    I: KmstSubstrate + Send + 'static,
{
    let stats = &shared.stats;
    if let Some(hit) = shared.cache.lookup(&key) {
        ServerStats::bump(&stats.cache_hits);
        ServerStats::bump(&stats.queries_completed);
        let delta = QueryProfile {
            answer_cache_hits: 1,
            ..QueryProfile::default()
        };
        lock(&shared.profile).merge(&delta);
        send(&[reply], &hit);
        return;
    }
    ServerStats::bump(&stats.cache_misses);
    let dedup = (key, query.options().deadline_us, shared.cache.generation());
    // The map stays locked across the submission, so the execution's sink
    // (which takes the entry out) cannot run before the entry is in.
    let mut inflight = lock(&shared.inflight);
    if let Some(waiters) = inflight.get_mut(&dedup) {
        waiters.push(reply);
        return;
    }
    let sink = Box::new(Execution {
        shared: Arc::clone(shared),
        key: dedup.clone(),
    });
    let refusal = match shared.exec.try_submit_to(query, sink) {
        Ok(()) => {
            ServerStats::bump(&stats.queries_admitted);
            inflight.insert(dedup, vec![reply]);
            return;
        }
        Err(SubmitError::Overloaded { queued, capacity }) => {
            ServerStats::bump(&stats.overload_rejections);
            Ok(Response::Overloaded {
                queued: u32::try_from(queued).unwrap_or(u32::MAX),
                capacity: u32::try_from(capacity).unwrap_or(u32::MAX),
            })
        }
        // The executor is gone (forced teardown): answer typed.
        Err(SubmitError::ShuttingDown) => Err((ErrorCode::ShuttingDown, DRAINING.to_string())),
    };
    drop(inflight);
    respond(&[reply], refusal);
}

/// One admitted execution's sink, run on the worker that ran it: the
/// answer fans out to every waiter, and a certified one enters the cache
/// unless an invalidation happened since admission.
struct Execution<I> {
    shared: Arc<Shared<I>>,
    key: DedupKey,
}

impl<I> OutcomeSink for Execution<I>
where
    I: KmstSubstrate + Send + 'static,
{
    fn complete(self: Box<Self>, outcome: QueryOutcome) {
        let Execution { shared, key } = *self;
        let QueryOutcome {
            answer,
            mut profile,
            degraded,
            ..
        } = outcome;
        let answer = match answer {
            QueryAnswer::Kmst(matches) => Response::Kmst { degraded, matches },
            QueryAnswer::Knn(matches) => Response::Knn { degraded, matches },
            QueryAnswer::Segments(matches) => Response::Segments { degraded, matches },
            QueryAnswer::Range(entries) => Response::Range { degraded, entries },
        };
        let payload = encode(Ok(answer));
        // Cached before the waiters leave the in-flight map: a repeat of
        // the query from then on, or from a waiter the moment its answer
        // arrives, finds it in the cache instead of running it again.
        if !degraded && shared.cache.enabled() {
            shared
                .cache
                .insert_if(key.0.clone(), Arc::clone(&payload), key.2);
        }
        let waiters = lock(&shared.inflight).remove(&key).unwrap_or_default();
        let stats = &shared.stats;
        let count = waiters.len() as u64;
        ServerStats::bump_by(&stats.queries_completed, count);
        if degraded {
            ServerStats::bump_by(&stats.queries_degraded, count);
        }
        // Every waiter of this execution was a cache miss; the profile's
        // miss count mirrors the stats counter.
        profile.answer_cache_misses = count;
        lock(&shared.profile).merge(&profile);
        send(&waiters, &payload);
    }
}

/// A primary's durable write lane: the [`IngestBackend`] behind one lock,
/// and the writes waiting for it. Whoever takes the lock commits
/// everything queued as one write batch (one WAL group commit), so writes
/// that arrive while a commit runs share the next one.
pub(crate) struct WriteLane {
    queued: Mutex<Vec<(Reply, IngestOp)>>,
    backend: Mutex<Box<dyn IngestBackend>>,
}

impl WriteLane {
    pub(crate) fn new(backend: Box<dyn IngestBackend>) -> Self {
        WriteLane {
            queued: Mutex::new(Vec::new()),
            backend: Mutex::new(backend),
        }
    }

    /// Publishes the committed state as a commit does: at startup, what
    /// recovery left.
    pub(crate) fn publish<I>(&self, shared: &Shared<I>) {
        shared.publish_commit(lock(&self.backend).as_ref());
    }

    /// Queues one ingest operation for the next commit.
    fn queue(&self, reply: Reply, op: IngestOp) {
        lock(&self.queued).push((reply, op));
    }

    /// Runs `f` on the backend once everything queued so far is committed
    /// and answered — by this caller, or by one that took the lane first.
    /// On the way out it commits whatever queued meanwhile, unless another
    /// caller took the lane (that one does it).
    fn with<I, R>(&self, shared: &Shared<I>, f: impl FnOnce(&dyn IngestBackend) -> R) -> R {
        let result = {
            let mut backend = lock(&self.backend);
            self.flush(shared, backend.as_mut());
            f(backend.as_ref())
        };
        self.try_commit(shared);
        result
    }

    /// Commits whatever is queued unless another caller holds the lane.
    /// Every holder looks at the queue again after it lets the lane go,
    /// so an operation queued while the lane was held is committed by the
    /// holder, or by whoever took the lane after it.
    fn try_commit<I>(&self, shared: &Shared<I>) {
        while !lock(&self.queued).is_empty() {
            let mut backend = match self.backend.try_lock() {
                Ok(backend) => backend,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => return,
            };
            self.flush(shared, backend.as_mut());
        }
    }

    /// Commits everything queued as one `apply_batch`; the caller holds
    /// the lane. The new committed state is published and the answer
    /// cache invalidated if any operation changed state, and only then is
    /// each writer answered with its own outcome. So an acked write is
    /// visible to every query admitted after its ack, and the generation
    /// guard in [`crate::cache::AnswerCache::insert_if`] drops any answer
    /// computed against the old state.
    fn flush<I>(&self, shared: &Shared<I>, backend: &mut dyn IngestBackend) {
        let batch = std::mem::take(&mut *lock(&self.queued));
        if batch.is_empty() {
            return;
        }
        let (waiters, ops): (Vec<Reply>, Vec<IngestOp>) = batch.into_iter().unzip();
        let outcome = backend.apply_batch(&ops);
        // The watermark, the gauges and the cache settle BEFORE any ack
        // goes out: a client pipelining a stats probe or a `min_lsn` read
        // right behind its acked write must see the write.
        shared.publish_commit(backend);
        let results = match outcome {
            Ok(results) => results,
            // Store-level failure: nothing was acked; every writer in the
            // batch hears the same internal error.
            Err(message) => {
                respond(&waiters, Err((ErrorCode::Internal, message)));
                return;
            }
        };
        let applied = results.iter().filter(|r| matches!(r, Ok((_, true))));
        let applied = applied.count() as u64;
        if applied > 0 {
            ServerStats::bump_by(&shared.stats.ingest_applied, applied);
            // An answer computed against the old state must never be
            // served after an ingest ack.
            shared.cache.invalidate();
        }
        for (to, result) in waiters.into_iter().zip(results) {
            let answer = result
                .map(|(lsn, applied)| Response::Ingested { lsn, applied })
                .map_err(|message| (ErrorCode::InvalidQuery, message));
            respond(&[to], answer);
        }
    }

    /// Answers a replication fetch from the committed log. It takes the
    /// lane, so a poll right behind a write ships the records that write
    /// committed. A subscriber whose `from_lsn` sits below the log floor
    /// (checkpoints truncated past it — or the bootstrap sentinel
    /// `from_lsn == 0`, since the floor is always at least 1) receives a
    /// full snapshot at the committed LSN instead of records. An empty
    /// record batch with no snapshot is the heartbeat: it still carries
    /// the primary's committed LSN, so lag gauges stay live under a
    /// write-idle primary.
    fn fetch<I>(&self, shared: &Shared<I>, reply: Reply, from_lsn: u64) {
        let stats = &shared.stats;
        let answer = self.with(shared, |backend| {
            let committed_lsn = backend.committed_lsn();
            let floor = backend.replication_floor()?;
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
        respond(
            &[reply],
            answer.map_err(|message| (ErrorCode::Internal, message)),
        );
    }
}
