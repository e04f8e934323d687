//! The wire protocol: a small length-prefixed binary framing over TCP.
//!
//! # Framing
//!
//! Every frame is
//!
//! ```text
//! [frame_len: u32 le] [request_id: u64 le] [opcode: u8] [body]
//! ```
//!
//! `frame_len` counts the request id, the opcode byte and the body. A
//! session opens with a [`Request::Hello`] carrying [`MAGIC`] at request
//! id 0; the server answers [`Response::HelloAck`] with the negotiated
//! pipeline depth. Every later response echoes the request id of the
//! request it answers — responses to different ids may arrive in any
//! order, responses to one id never split.
//!
//! The payload (opcode + body) is capped at [`MAX_FRAME`]; a larger
//! prefix is rejected *before* any allocation, so a hostile 4 GiB length
//! cannot balloon server memory. All integers are little-endian; all
//! coordinates are IEEE 754 doubles by bit pattern.
//!
//! The retired protocol v1 framed a message as `[payload_len: u32 le]
//! [opcode] [body]` with no request id. The server still recognises a v1
//! first frame ([`classify_first_payload`]) so it can refuse it with a
//! typed [`ErrorCode::UnsupportedVersion`] in v1 framing; nothing else
//! speaks v1.
//!
//! # Opcodes
//!
//! | opcode | direction | message |
//! |--------|-----------|---------|
//! | `0x01` | request   | k-MST query (trajectory + options) |
//! | `0x02` | request   | trajectory-kNN query (trajectory + options) |
//! | `0x03` | request   | point-kNN / nearest-segments query (point + options) |
//! | `0x04` | request   | 3D range query (box + options) |
//! | `0x05` | request   | server stats |
//! | `0x06` | request   | graceful shutdown |
//! | `0x07` | request   | insert a trajectory (online ingest, v2 only) |
//! | `0x08` | request   | delete a trajectory (online ingest, v2 only) |
//! | `0x09` | request   | subscribe to the replication stream (v2 only) |
//! | `0x0A` | request   | replica ack / poll for more records (v2 only) |
//! | `0x0F` | request   | hello (version negotiation, v2 only) |
//! | `0x81` | response  | k-MST matches |
//! | `0x82` | response  | kNN matches |
//! | `0x83` | response  | segment matches |
//! | `0x84` | response  | range hits |
//! | `0x85` | response  | stats report |
//! | `0x86` | response  | shutdown acknowledged |
//! | `0x87` | response  | ingest acknowledged (durable LSN) |
//! | `0x88` | response  | replication batch (snapshot and/or raw WAL frames) |
//! | `0x8F` | response  | hello acknowledged (v2 only) |
//! | `0xE0` | response  | overloaded (admission rejected — backpressure) |
//! | `0xE1` | response  | typed error |
//!
//! # Decoding discipline
//!
//! Decoding is *structural only* and total: every read goes through the
//! shared checked reader ([`mst_index::codec::Reader`], whose short reads,
//! over-long counts and trailing bytes map to [`WireError::Truncated`] and
//! [`WireError::TrailingBytes`]), unknown opcodes are typed errors, and
//! nothing panics on any byte sequence (the workspace's R1 gate covers
//! this crate; `tests/decoder_sweep.rs` feeds both decoders truncated,
//! bit-flipped and count-inflated payloads). Sample lists, leaf entries
//! and range boxes use the codec's layouts, the same bytes pages and WAL
//! frames carry. Semantic validation — monotonic timestamps, coverage of
//! the query period — happens server-side through the same
//! [`mst_search::Query`] builders the embedded API uses, so a structurally
//! valid but semantically bad query gets [`ErrorCode::InvalidQuery`]
//! while a malformed frame gets [`ErrorCode::Malformed`] and closes the
//! connection.

use std::sync::atomic::{AtomicU64, Ordering};

use mst_index::codec::{CodecError, Reader, Writer, LEAF_ENTRY_SIZE};
use mst_index::{KnnMatch, LeafEntry};
use mst_search::{MstMatch, NnMatch, QueryOptions, Substrate};
use mst_trajectory::{Mbb, Point, SamplePoint, TimeInterval, TrajectoryId};

/// Hard cap on a frame's payload (opcode + body): 4 MiB.
pub const MAX_FRAME: u32 = 4 << 20;

/// The magic the [`Request::Hello`] body opens with: the ASCII bytes
/// `MST2` read as a little-endian `u32`. Distinguishes a v2 handshake
/// from v1 traffic and from random bytes hitting the port.
pub const MAGIC: u32 = u32::from_le_bytes(*b"MST2");

/// The protocol version this build speaks.
pub const VERSION: u16 = 2;

/// Bytes a v2 frame spends on its request id, on top of the payload.
const V2_OVERHEAD: u32 = 8;

/// Why a frame failed to decode (or a stream failed mid-frame). Every
/// variant is a protocol violation or transport fault, never a panic.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended inside a frame, or a body was shorter than its
    /// fields claim.
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversized(u32),
    /// An opcode byte that names no message.
    BadOpcode(u8),
    /// A structurally invalid body (bad flag byte, impossible count,
    /// invalid interval or segment).
    BadPayload(&'static str),
    /// Bytes left over after a complete message was decoded.
    TrailingBytes,
    /// The transport failed.
    Io(std::io::Error),
}

impl PartialEq for WireError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (WireError::Truncated, WireError::Truncated) => true,
            (WireError::Oversized(a), WireError::Oversized(b)) => a == b,
            (WireError::BadOpcode(a), WireError::BadOpcode(b)) => a == b,
            (WireError::BadPayload(a), WireError::BadPayload(b)) => a == b,
            (WireError::TrailingBytes, WireError::TrailingBytes) => true,
            (WireError::Io(a), WireError::Io(b)) => a.kind() == b.kind(),
            _ => false,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadPayload(what) => write!(f, "malformed payload: {what}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Short => WireError::Truncated,
            CodecError::Trailing => WireError::TrailingBytes,
            CodecError::Invalid(what) => WireError::BadPayload(what),
        }
    }
}

fn put_options(w: &mut Writer, opts: &QueryOptions) {
    w.put_u32(u32::try_from(opts.k).unwrap_or(u32::MAX));
    match opts.period {
        Some(period) => {
            w.put_u8(1);
            w.put_f64(period.start());
            w.put_f64(period.end());
        }
        None => w.put_u8(0),
    }
    put_optional_u64(w, opts.deadline_us);
    // A reserved flag (it once switched cross-shard bound sharing, on by
    // default): always 1, so the byte layout stays as it was.
    w.put_u8(1);
    put_optional_u64(w, opts.min_lsn);
    w.put_u8(opts.substrate.tag());
}

fn put_optional_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        Some(v) => {
            w.put_u8(1);
            w.put_u64(v);
        }
        None => w.put_u8(0),
    }
}

fn try_options(r: &mut Reader<'_>) -> Result<QueryOptions, WireError> {
    let mut opts = QueryOptions::new();
    opts.k = usize::try_from(r.u32()?).map_err(|_| WireError::BadPayload("k"))?;
    opts.period = match r.u8()? {
        0 => None,
        1 => {
            let (start, end) = (r.f64()?, r.f64()?);
            Some(
                TimeInterval::new(start, end)
                    .map_err(|_| WireError::BadPayload("invalid time interval"))?,
            )
        }
        _ => return Err(WireError::BadPayload("period flag")),
    };
    opts.deadline_us = try_optional_u64(r, "deadline flag")?;
    // The reserved flag: checked like every flag, then ignored.
    try_flag(r, "share flag")?;
    opts.min_lsn = try_optional_u64(r, "min_lsn flag")?;
    opts.substrate = Substrate::from_tag(r.u8()?).ok_or(WireError::BadPayload("substrate tag"))?;
    Ok(opts)
}

fn try_optional_u64(r: &mut Reader<'_>, what: &'static str) -> Result<Option<u64>, WireError> {
    Ok(if try_flag(r, what)? {
        Some(r.u64()?)
    } else {
        None
    })
}

/// A `0`/`1` byte; anything else is a [`WireError::BadPayload`] naming `what`.
fn try_flag(r: &mut Reader<'_>, what: &'static str) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::BadPayload(what)),
    }
}

/// A `u32` length, then that many raw bytes.
fn put_blob(w: &mut Writer, bytes: &[u8]) {
    let n = w.put_count(bytes.len());
    w.put_bytes(bytes.get(..n).unwrap_or(bytes));
}

fn try_blob(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
    let n = r.count(1)?;
    Ok(r.take(n)?.to_vec())
}

/// A decoded client request. Trajectories arrive as raw sample lists —
/// [`mst_trajectory::Trajectory::new`] applies the semantic rules
/// server-side so its errors surface as [`ErrorCode::InvalidQuery`], not
/// as protocol violations.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A k-MST query: find the `options.k` most similar trajectories.
    Kmst {
        /// The query trajectory's samples.
        points: Vec<SamplePoint>,
        /// Shared query options (k, period, deadline, substrate).
        options: QueryOptions,
    },
    /// A trajectory-kNN query by closest approach.
    Knn {
        /// The query trajectory's samples.
        points: Vec<SamplePoint>,
        /// Shared query options.
        options: QueryOptions,
    },
    /// A point-kNN (nearest segments) query. The time window rides in
    /// `options.period` and is required — the server rejects its absence
    /// as an invalid query, mirroring the builder.
    KnnSegments {
        /// The 2D query location.
        location: Point,
        /// Shared query options.
        options: QueryOptions,
    },
    /// A 3D range query.
    Range {
        /// The spatio-temporal window.
        window: Mbb,
        /// Shared query options.
        options: QueryOptions,
    },
    /// Server counters and the merged work profile.
    Stats,
    /// Graceful shutdown: drain in-flight queries, then stop.
    Shutdown,
    /// Online ingest: insert a new trajectory. Answered with
    /// [`Response::Ingested`] once the record is durable (group-commit
    /// fsync returned) *and* applied to the in-memory shards. Semantic
    /// failures (existing id, degenerate trajectory) answer
    /// [`ErrorCode::InvalidQuery`]; a server without a durable store
    /// answers [`ErrorCode::ReadOnly`].
    Insert {
        /// The new object's identity (must not already exist).
        id: TrajectoryId,
        /// The trajectory's samples; the server applies
        /// [`mst_trajectory::Trajectory::new`]'s semantic rules.
        points: Vec<SamplePoint>,
    },
    /// Online ingest: delete the trajectory stored under an id. A delete
    /// of an absent id acks with `applied: false` — idempotent, not an
    /// error.
    Delete {
        /// The object to remove.
        id: TrajectoryId,
    },
    /// A replica opens the replication stream: ship committed WAL
    /// records starting at `from_lsn`. If `from_lsn` has fallen below
    /// the primary's replication floor (the log was checkpointed past
    /// it), the first [`Response::Replicate`] instead carries a full
    /// snapshot encoded at the primary's committed LSN, and streaming
    /// continues from there. A server with no durable store answers
    /// [`ErrorCode::ReadOnly`]; a replica answers
    /// [`ErrorCode::NotPrimary`].
    Subscribe {
        /// First LSN the replica still needs (its applied LSN + 1).
        from_lsn: u64,
    },
    /// The replica's cumulative ack, doubling as the poll for the next
    /// batch: "everything through `lsn` is applied on my side — send me
    /// what you have from `lsn + 1`". An empty [`Response::Replicate`]
    /// is the heartbeat that keeps lag observable when the primary is
    /// idle.
    ReplicaAck {
        /// Highest LSN the replica has durably applied.
        lsn: u64,
    },
    /// Version negotiation, the first frame of every v2 session (sent at
    /// request id 0). The body opens with [`MAGIC`], then the version
    /// range the client speaks and the pipeline depth it would like.
    Hello {
        /// Lowest protocol version the client accepts.
        min_version: u16,
        /// Highest protocol version the client accepts.
        max_version: u16,
        /// Requested pipeline depth (in-flight requests per connection);
        /// the server grants `min(requested, its cap)` in the ack.
        depth: u16,
    },
}

impl Request {
    /// Encodes the request into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            Request::Kmst { points, options } => {
                w.put_u8(0x01);
                put_options(&mut w, options);
                w.put_samples(points);
            }
            Request::Knn { points, options } => {
                w.put_u8(0x02);
                put_options(&mut w, options);
                w.put_samples(points);
            }
            Request::KnnSegments { location, options } => {
                w.put_u8(0x03);
                put_options(&mut w, options);
                w.put_f64(location.x);
                w.put_f64(location.y);
            }
            Request::Range { window, options } => {
                w.put_u8(0x04);
                put_options(&mut w, options);
                w.put_mbb(window);
            }
            Request::Stats => w.put_u8(0x05),
            Request::Shutdown => w.put_u8(0x06),
            Request::Insert { id, points } => {
                w.put_u8(0x07);
                w.put_u64(id.0);
                w.put_samples(points);
            }
            Request::Delete { id } => {
                w.put_u8(0x08);
                w.put_u64(id.0);
            }
            Request::Subscribe { from_lsn } => {
                w.put_u8(0x09);
                w.put_u64(*from_lsn);
            }
            Request::ReplicaAck { lsn } => {
                w.put_u8(0x0A);
                w.put_u64(*lsn);
            }
            Request::Hello {
                min_version,
                max_version,
                depth,
            } => {
                w.put_u8(0x0F);
                w.put_u32(MAGIC);
                w.put_u16(*min_version);
                w.put_u16(*max_version);
                w.put_u16(*depth);
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload into a request. Total: every malformed
    /// input maps to a typed [`WireError`].
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let request = match r.u8()? {
            0x01 => {
                let options = try_options(&mut r)?;
                let points = r.samples()?;
                Request::Kmst { points, options }
            }
            0x02 => {
                let options = try_options(&mut r)?;
                let points = r.samples()?;
                Request::Knn { points, options }
            }
            0x03 => {
                let options = try_options(&mut r)?;
                let (x, y) = (r.f64()?, r.f64()?);
                Request::KnnSegments {
                    location: Point::new(x, y),
                    options,
                }
            }
            0x04 => {
                let options = try_options(&mut r)?;
                let window = r.mbb().map_err(|e| match e {
                    CodecError::Invalid(_) => WireError::BadPayload("invalid range window"),
                    short => short.into(),
                })?;
                Request::Range { window, options }
            }
            0x05 => Request::Stats,
            0x06 => Request::Shutdown,
            0x07 => {
                let id = TrajectoryId(r.u64()?);
                let points = r.samples()?;
                Request::Insert { id, points }
            }
            0x08 => Request::Delete {
                id: TrajectoryId(r.u64()?),
            },
            0x09 => Request::Subscribe { from_lsn: r.u64()? },
            0x0A => Request::ReplicaAck { lsn: r.u64()? },
            0x0F => {
                if r.u32()? != MAGIC {
                    return Err(WireError::BadPayload("hello magic"));
                }
                let (min_version, max_version, depth) = (r.u16()?, r.u16()?, r.u16()?);
                if min_version > max_version {
                    return Err(WireError::BadPayload("hello version range"));
                }
                Request::Hello {
                    min_version,
                    max_version,
                    depth,
                }
            }
            other => return Err(WireError::BadOpcode(other)),
        };
        r.finish()?;
        Ok(request)
    }
}

/// Typed failure codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame violated the protocol; the server closes the connection.
    Malformed,
    /// The query was structurally fine but semantically invalid (e.g. a
    /// one-point trajectory, a period the query doesn't cover). The
    /// connection stays open.
    InvalidQuery,
    /// The server is draining and admits nothing new.
    ShuttingDown,
    /// The server failed internally while executing the query.
    Internal,
    /// The peer spoke a protocol version this server does not. Carries
    /// the server's supported range so the client can report precisely
    /// what to upgrade (or downgrade) to. Sent v1-framed to v1 clients —
    /// a legacy `ServeClient` decodes it as a typed error, never a hang.
    UnsupportedVersion {
        /// Lowest version the server speaks.
        min: u16,
        /// Highest version the server speaks.
        max: u16,
    },
    /// The server has no durable store behind it; ingest requests are
    /// refused. Queries keep working on the same connection.
    ReadOnly,
    /// The query carried a read-your-writes token
    /// ([`QueryOptions::min_lsn`]) this server's visible watermark has
    /// not reached. Carries both LSNs so the client can decide to wait,
    /// retry, or fall back to the primary. The connection stays open.
    ReplicaLagging {
        /// The LSN the query required.
        required: u64,
        /// The server's visible watermark at refusal time.
        watermark: u64,
    },
    /// A write or replication subscription hit a replica: replicas are
    /// read-only and only the primary feeds the replication stream.
    NotPrimary,
}

impl ErrorCode {
    fn encode_into(self, w: &mut Writer) {
        match self {
            ErrorCode::Malformed => w.put_u8(1),
            ErrorCode::InvalidQuery => w.put_u8(2),
            ErrorCode::ShuttingDown => w.put_u8(3),
            ErrorCode::Internal => w.put_u8(4),
            ErrorCode::UnsupportedVersion { min, max } => {
                w.put_u8(5);
                w.put_u16(min);
                w.put_u16(max);
            }
            ErrorCode::ReadOnly => w.put_u8(6),
            ErrorCode::ReplicaLagging {
                required,
                watermark,
            } => {
                w.put_u8(7);
                w.put_u64(required);
                w.put_u64(watermark);
            }
            ErrorCode::NotPrimary => w.put_u8(8),
        }
    }

    fn try_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::InvalidQuery),
            3 => Ok(ErrorCode::ShuttingDown),
            4 => Ok(ErrorCode::Internal),
            5 => {
                let (min, max) = (r.u16()?, r.u16()?);
                Ok(ErrorCode::UnsupportedVersion { min, max })
            }
            6 => Ok(ErrorCode::ReadOnly),
            7 => {
                let (required, watermark) = (r.u64()?, r.u64()?);
                Ok(ErrorCode::ReplicaLagging {
                    required,
                    watermark,
                })
            }
            8 => Ok(ErrorCode::NotPrimary),
            _ => Err(WireError::BadPayload("error code")),
        }
    }
}

/// Declares a block of `u64` counters. The field list is the only place
/// a counter is named: its order is the order the `Stats` frame carries
/// the slots in, and both directions of the codec walk it. With `live`,
/// the block also gets an atomic twin the server bumps from every thread
/// and snapshots into the wire struct.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident, live $live:ident {
            $($(#[$doc:meta])* $field:ident,)*
        }
    ) => {
        counters! {
            $(#[$meta])*
            pub struct $name {
                $($(#[$doc])* $field,)*
            }
        }

        /// The live, lock-free side of the counters, bumped from every
        /// server thread.
        #[derive(Debug, Default)]
        pub(crate) struct $live {
            $(pub(crate) $field: AtomicU64,)*
        }

        impl $live {
            pub(crate) fn snapshot(&self) -> $name {
                $name {
                    // ordering: stats snapshots are advisory; counters imply
                    // no ordering with the data they describe, and
                    // cross-counter skew within one snapshot is acceptable
                    $($field: self.$field.load(Ordering::Relaxed),)*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* $field:ident,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $name {
            fn encode_into(&self, w: &mut Writer) {
                $(w.put_u64(self.$field);)*
            }

            fn try_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($name {
                    $($field: r.u64()?,)*
                })
            }
        }
    };
}

counters! {
    /// Monotonic server counters, as reported by [`Response::Stats`].
    pub struct ServerCounters, live ServerStats {
        /// Connections accepted.
        connections_accepted,
        /// Connections refused at the connection cap.
        connections_rejected,
        /// Frames decoded into well-formed requests.
        requests_decoded,
        /// Queries admitted into the execution queue.
        queries_admitted,
        /// Queries that completed and answered.
        queries_completed,
        /// Completed queries that reported degradation (deadline or shard).
        queries_degraded,
        /// Queries rejected with [`Response::Overloaded`].
        overload_rejections,
        /// Frames rejected as malformed (connection then closed).
        malformed_frames,
        /// Structurally valid requests rejected as semantically invalid.
        invalid_queries,
        /// Queries answered straight from the answer cache (no execution).
        cache_hits,
        /// Query executions that missed the answer cache.
        cache_misses,
        /// Ingest operations durably applied (acked with an LSN).
        ingest_applied,
        /// Records appended to the write-ahead log (durable servers only).
        wal_appends,
        /// Group-commit fsyncs issued by the write-ahead log.
        wal_fsyncs,
        /// Log records replayed by the recovery that built this server's
        /// database (0 for a fresh or read-only server).
        replayed_records,
        /// Primary: highest LSN committed to the local log (the replication
        /// watermark replicas are chasing). Replica: 0.
        repl_committed_lsn,
        /// Primary: highest LSN any replica has cumulatively acked (the
        /// lag gauge is `repl_committed_lsn - repl_acked_lsn`). Replica: 0.
        repl_acked_lsn,
        /// Primary: WAL records shipped down replication streams.
        repl_records_shipped,
        /// Primary: empty replication batches sent as heartbeats.
        repl_heartbeats,
        /// Replica: highest LSN durably applied from the stream (equals the
        /// visible watermark). Primary: its own committed LSN.
        repl_applied_lsn,
        /// Replica: records applied from the replication stream.
        repl_records_applied,
        /// Replica: times the applier lost the primary and reconnected.
        repl_reconnects,
    }
}

counters! {
    /// A fixed-size summary of the server's merged
    /// [`mst_search::QueryProfile`]: the headline work counters, stable
    /// across profile growth.
    pub struct ProfileSummary {
        /// Elements pushed onto best-first priority queues.
        heap_pushes,
        /// Elements popped off best-first priority queues.
        heap_pops,
        /// Index node accesses, all levels.
        nodes_accessed,
        /// Buffer-pool hits.
        buffer_hits,
        /// Buffer-pool misses.
        buffer_misses,
        /// DISSIM piece integrals evaluated (exact + trapezoid).
        piece_evals,
        /// Heuristic-2 early terminations.
        early_terminations,
    }
}

/// The full stats report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Server-level counters.
    pub counters: ServerCounters,
    /// Merged work profile of every completed query.
    pub profile: ProfileSummary,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// k-MST matches, ascending dissimilarity.
    Kmst {
        /// Whether the answer is best-so-far rather than certified.
        degraded: bool,
        /// The matches.
        matches: Vec<MstMatch>,
    },
    /// Trajectory-kNN matches, ascending closest approach.
    Knn {
        /// Whether the answer is degraded.
        degraded: bool,
        /// The matches.
        matches: Vec<NnMatch>,
    },
    /// Point-kNN segment matches, ascending distance.
    Segments {
        /// Whether the answer is degraded.
        degraded: bool,
        /// The matches.
        matches: Vec<KnnMatch>,
    },
    /// Range hits in canonical (trajectory, sequence) order.
    Range {
        /// Whether the answer is degraded.
        degraded: bool,
        /// The hits.
        entries: Vec<LeafEntry>,
    },
    /// Server counters and merged profile.
    Stats(StatsReport),
    /// The server accepted the shutdown request and is draining.
    ShutdownAck,
    /// A replication batch: committed WAL frames shipped verbatim
    /// (self-delimiting, checksummed — the replica re-verifies before
    /// logging), optionally preceded by a full snapshot when the
    /// subscriber's position fell below the primary's replication
    /// floor. `records` empty and `snapshot` absent is the heartbeat.
    Replicate {
        /// The primary's committed LSN at send time: the position the
        /// replica is chasing, even when this batch is empty.
        committed_lsn: u64,
        /// A full store snapshot (the `encode_snapshot` format) when
        /// the replica must bootstrap; `None` on the steady path.
        snapshot: Option<Vec<u8>>,
        /// Sealed WAL frames, verbatim, in LSN order.
        records: Vec<Vec<u8>>,
    },
    /// An ingest operation is durable and visible: its log record's
    /// group-commit fsync returned before this frame was sent.
    Ingested {
        /// The operation's log sequence number (for a no-op delete of an
        /// absent id: the LSN the state is nonetheless consistent
        /// through).
        lsn: u64,
        /// Whether state changed (`false` only for the no-op delete).
        applied: bool,
    },
    /// The server accepted the v2 handshake.
    HelloAck {
        /// The negotiated protocol version.
        version: u16,
        /// The granted pipeline depth: at most this many requests may be
        /// in flight on the connection at once.
        depth: u16,
    },
    /// Admission control rejected the query: the execution queue is full.
    /// Backpressure, not failure — retry later.
    Overloaded {
        /// Jobs queued at rejection time.
        queued: u32,
        /// The queue's capacity.
        capacity: u32,
    },
    /// A typed error.
    Error {
        /// What class of failure.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn put_degraded_header(w: &mut Writer, opcode: u8, degraded: bool) {
    w.put_u8(opcode);
    w.put_u8(u8::from(degraded));
}

impl Response {
    /// Encodes the response into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            Response::Kmst { degraded, matches } => {
                put_degraded_header(&mut w, 0x81, *degraded);
                for m in matches.iter().take(w.put_count(matches.len())) {
                    w.put_u64(m.traj.0);
                    w.put_f64(m.dissim);
                }
            }
            Response::Knn { degraded, matches } => {
                put_degraded_header(&mut w, 0x82, *degraded);
                for m in matches.iter().take(w.put_count(matches.len())) {
                    w.put_u64(m.traj.0);
                    w.put_f64(m.distance);
                    w.put_f64(m.time);
                }
            }
            Response::Segments { degraded, matches } => {
                put_degraded_header(&mut w, 0x83, *degraded);
                for m in matches.iter().take(w.put_count(matches.len())) {
                    w.put_leaf_entry(&m.entry);
                    w.put_f64(m.distance);
                }
            }
            Response::Range { degraded, entries } => {
                put_degraded_header(&mut w, 0x84, *degraded);
                for e in entries.iter().take(w.put_count(entries.len())) {
                    w.put_leaf_entry(e);
                }
            }
            Response::Stats(report) => {
                w.put_u8(0x85);
                report.counters.encode_into(&mut w);
                report.profile.encode_into(&mut w);
            }
            Response::ShutdownAck => w.put_u8(0x86),
            Response::Replicate {
                committed_lsn,
                snapshot,
                records,
            } => {
                w.put_u8(0x88);
                w.put_u64(*committed_lsn);
                match snapshot {
                    Some(bytes) => {
                        w.put_u8(1);
                        put_blob(&mut w, bytes);
                    }
                    None => w.put_u8(0),
                }
                for r in records.iter().take(w.put_count(records.len())) {
                    put_blob(&mut w, r);
                }
            }
            Response::Ingested { lsn, applied } => {
                w.put_u8(0x87);
                w.put_u64(*lsn);
                w.put_u8(u8::from(*applied));
            }
            Response::HelloAck { version, depth } => {
                w.put_u8(0x8F);
                w.put_u16(*version);
                w.put_u16(*depth);
            }
            Response::Overloaded { queued, capacity } => {
                w.put_u8(0xE0);
                w.put_u32(*queued);
                w.put_u32(*capacity);
            }
            Response::Error { code, message } => {
                w.put_u8(0xE1);
                code.encode_into(&mut w);
                let mut len = message.len().min(usize::from(u16::MAX));
                // Truncation must not split a multi-byte character, or the
                // peer's utf-8 decode of the message fails.
                while len > 0 && !message.is_char_boundary(len) {
                    len -= 1;
                }
                let head = message.as_bytes().get(..len).unwrap_or_default();
                w.put_u16(u16::try_from(head.len()).unwrap_or(0));
                w.put_bytes(head);
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload into a response.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let response = match r.u8()? {
            0x81 => {
                let degraded = try_flag(&mut r, "degraded flag")?;
                let count = r.count(16)?;
                let mut matches = Vec::with_capacity(count);
                for _ in 0..count {
                    let traj = TrajectoryId(r.u64()?);
                    let dissim = r.f64()?;
                    matches.push(MstMatch { traj, dissim });
                }
                Response::Kmst { degraded, matches }
            }
            0x82 => {
                let degraded = try_flag(&mut r, "degraded flag")?;
                let count = r.count(24)?;
                let mut matches = Vec::with_capacity(count);
                for _ in 0..count {
                    let traj = TrajectoryId(r.u64()?);
                    let (distance, time) = (r.f64()?, r.f64()?);
                    matches.push(NnMatch {
                        traj,
                        distance,
                        time,
                    });
                }
                Response::Knn { degraded, matches }
            }
            0x83 => {
                let degraded = try_flag(&mut r, "degraded flag")?;
                let count = r.count(LEAF_ENTRY_SIZE + 8)?;
                let mut matches = Vec::with_capacity(count);
                for _ in 0..count {
                    let entry = r.leaf_entry()?;
                    let distance = r.f64()?;
                    matches.push(KnnMatch { entry, distance });
                }
                Response::Segments { degraded, matches }
            }
            0x84 => {
                let degraded = try_flag(&mut r, "degraded flag")?;
                let count = r.count(LEAF_ENTRY_SIZE)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(r.leaf_entry()?);
                }
                Response::Range { degraded, entries }
            }
            0x85 => Response::Stats(StatsReport {
                counters: ServerCounters::try_decode(&mut r)?,
                profile: ProfileSummary::try_decode(&mut r)?,
            }),
            0x86 => Response::ShutdownAck,
            0x88 => {
                let committed_lsn = r.u64()?;
                let snapshot = match r.u8()? {
                    0 => None,
                    1 => Some(try_blob(&mut r)?),
                    _ => return Err(WireError::BadPayload("snapshot flag")),
                };
                // Each record costs at least its own 4-byte length
                // prefix, so a hostile count fails the pre-check.
                let count = r.count(4)?;
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    records.push(try_blob(&mut r)?);
                }
                Response::Replicate {
                    committed_lsn,
                    snapshot,
                    records,
                }
            }
            0x87 => {
                let lsn = r.u64()?;
                let applied = try_flag(&mut r, "applied flag")?;
                Response::Ingested { lsn, applied }
            }
            0x8F => {
                let (version, depth) = (r.u16()?, r.u16()?);
                Response::HelloAck { version, depth }
            }
            0xE0 => {
                let (queued, capacity) = (r.u32()?, r.u32()?);
                Response::Overloaded { queued, capacity }
            }
            0xE1 => {
                let code = ErrorCode::try_decode(&mut r)?;
                let len = usize::from(r.u16()?);
                let message = String::from_utf8(r.take(len)?.to_vec())
                    .map_err(|_| WireError::BadPayload("error message utf-8"))?;
                Response::Error { code, message }
            }
            other => return Err(WireError::BadOpcode(other)),
        };
        r.finish()?;
        Ok(response)
    }
}

/// Appends one v2 frame — `[frame_len][request_id][payload]` — to `out`.
/// Building into a caller-owned buffer lets the mux batch several
/// responses into a single syscall; [`write_frame_v2`] is the one-frame
/// convenience over it. An empty or over-[`MAX_FRAME`] payload is refused.
pub fn encode_frame_v2(
    out: &mut Vec<u8>,
    request_id: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::Oversized(u32::MAX))?;
    if len == 0 || len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    out.reserve(12 + payload.len());
    out.extend_from_slice(&(len + V2_OVERHEAD).to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Writes one v2 frame in a single `write_all`. Prefix and payload go down
/// together: two writes per frame interact catastrophically with Nagle's
/// algorithm plus delayed ACKs (a ~40 ms stall per response on loopback,
/// worse on real links).
pub fn write_frame_v2(
    w: &mut impl std::io::Write,
    request_id: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    let mut frame = Vec::with_capacity(12 + payload.len());
    encode_frame_v2(&mut frame, request_id, payload)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// One v2 frame carved out of a growing read buffer by
/// [`split_frame_v2`]. `consumed` bytes at the front of the buffer held
/// the frame; `payload` borrows the opcode + body within them.
#[derive(Debug, PartialEq)]
pub struct SplitFrame<'a> {
    /// Bytes the frame occupied (length prefix included) — drain this
    /// many from the front of the buffer before the next call.
    pub consumed: usize,
    /// The frame's request id.
    pub request_id: u64,
    /// The frame payload (opcode + body), borrowed from the buffer.
    pub payload: &'a [u8],
}

/// Carves the first complete v2 frame off `buf` — the one frame reader,
/// shared by the server's connection readers and the client:
/// append whatever `read` returned and call this until it reports
/// `Ok(None)` (frame still incomplete — keep the bytes, read more; a
/// stream that ends there ended mid-frame). A hostile length prefix fails
/// here, before the buffer grows to match, and a frame too short to hold
/// its request id and opcode is truncated by construction.
pub fn split_frame_v2(buf: &[u8]) -> Result<Option<SplitFrame<'_>>, WireError> {
    let mut r = Reader::new(buf);
    let Ok(len) = r.u32() else {
        return Ok(None);
    };
    if len == 0 || len > MAX_FRAME + V2_OVERHEAD {
        return Err(WireError::Oversized(len));
    }
    if len <= V2_OVERHEAD {
        return Err(WireError::Truncated);
    }
    let len = usize::try_from(len).map_err(|_| WireError::Oversized(len))?;
    let Ok(frame) = r.take(len) else {
        return Ok(None);
    };
    let mut frame = Reader::new(frame);
    let request_id = frame.u64()?;
    Ok(Some(SplitFrame {
        consumed: 4 + len,
        request_id,
        payload: frame.take(frame.remaining())?,
    }))
}

/// What the first frame on a fresh connection turned out to be. Both
/// protocol versions open with the same `[len: u32]` prefix, so the
/// server reads one frame blind and classifies its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstFrame {
    /// A v2 handshake: `[request_id][0x0F][MAGIC]...`.
    V2Hello,
    /// A legacy v1 request (its first byte is a v1 request opcode). The
    /// server answers a v1-framed [`ErrorCode::UnsupportedVersion`] so
    /// old clients fail loudly instead of hanging.
    V1Request,
    /// Neither — random bytes, a response opcode, garbage.
    Unknown,
}

/// Classifies the payload of the first frame read off a new connection
/// (the bytes after the length prefix).
pub fn classify_first_payload(payload: &[u8]) -> FirstFrame {
    if payload.len() >= 13 && payload[8] == 0x0F && payload[9..13] == MAGIC.to_le_bytes() {
        return FirstFrame::V2Hello;
    }
    match payload.first() {
        Some(0x01..=0x06) => FirstFrame::V1Request,
        _ => FirstFrame::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::Segment;

    fn opts() -> QueryOptions {
        QueryOptions::new().k(7).deadline_us(1_500)
    }

    #[test]
    fn every_request_round_trips() {
        let window = TimeInterval::new(2.0, 9.0).expect("valid");
        let requests = vec![
            Request::Kmst {
                points: vec![
                    SamplePoint::new(0.0, 1.0, 2.0),
                    SamplePoint::new(1.0, 3.0, 4.0),
                ],
                options: opts().during(&window),
            },
            Request::Knn {
                points: vec![SamplePoint::new(0.5, -1.0, 2.5)],
                options: QueryOptions::new(),
            },
            Request::KnnSegments {
                location: Point::new(3.25, -8.5),
                options: opts().during(&window),
            },
            Request::Range {
                window: Mbb::new(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
                options: opts(),
            },
            Request::Stats,
            Request::Shutdown,
            Request::Insert {
                id: TrajectoryId(99),
                points: vec![
                    SamplePoint::new(0.0, 1.0, 2.0),
                    SamplePoint::new(1.0, 3.0, 4.0),
                ],
            },
            Request::Delete {
                id: TrajectoryId(12),
            },
            Request::Subscribe { from_lsn: 17 },
            Request::ReplicaAck { lsn: 16 },
            Request::Kmst {
                points: vec![
                    SamplePoint::new(0.0, 1.0, 2.0),
                    SamplePoint::new(1.0, 3.0, 4.0),
                ],
                options: opts().min_lsn(88),
            },
            Request::Hello {
                min_version: 2,
                max_version: 2,
                depth: 32,
            },
        ];
        for request in requests {
            let payload = request.encode();
            assert_eq!(Request::decode(&payload).expect("round trip"), request);
        }
    }

    #[test]
    fn every_response_round_trips() {
        let segment = Segment::new(
            SamplePoint::new(0.0, 0.0, 0.0),
            SamplePoint::new(1.0, 2.0, 3.0),
        )
        .expect("valid");
        let entry = LeafEntry {
            traj: TrajectoryId(42),
            seq: 7,
            segment,
        };
        let responses = vec![
            Response::Kmst {
                degraded: false,
                matches: vec![MstMatch {
                    traj: TrajectoryId(3),
                    dissim: 1.25,
                }],
            },
            Response::Knn {
                degraded: true,
                matches: vec![NnMatch {
                    traj: TrajectoryId(9),
                    distance: 0.5,
                    time: 4.0,
                }],
            },
            Response::Segments {
                degraded: false,
                matches: vec![KnnMatch {
                    entry,
                    distance: 2.5,
                }],
            },
            Response::Range {
                degraded: false,
                entries: vec![entry],
            },
            Response::Stats(StatsReport {
                counters: ServerCounters {
                    connections_accepted: 1,
                    queries_admitted: 2,
                    overload_rejections: 3,
                    cache_hits: 5,
                    cache_misses: 6,
                    ..ServerCounters::default()
                },
                profile: ProfileSummary {
                    heap_pushes: 10,
                    nodes_accessed: 20,
                    ..ProfileSummary::default()
                },
            }),
            Response::ShutdownAck,
            Response::Ingested {
                lsn: 77,
                applied: true,
            },
            Response::Ingested {
                lsn: 0,
                applied: false,
            },
            Response::HelloAck {
                version: 2,
                depth: 16,
            },
            Response::Overloaded {
                queued: 4,
                capacity: 4,
            },
            Response::Error {
                code: ErrorCode::InvalidQuery,
                message: "a one-point trajectory has no segments".into(),
            },
            Response::Error {
                code: ErrorCode::UnsupportedVersion { min: 2, max: 2 },
                message: "this server speaks protocol v2 only".into(),
            },
            Response::Error {
                code: ErrorCode::ReadOnly,
                message: "no durable store; ingest disabled".into(),
            },
            Response::Error {
                code: ErrorCode::ReplicaLagging {
                    required: 90,
                    watermark: 85,
                },
                message: "watermark 85 below required 90".into(),
            },
            Response::Error {
                code: ErrorCode::NotPrimary,
                message: "replicas are read-only".into(),
            },
            Response::Replicate {
                committed_lsn: 42,
                snapshot: None,
                records: vec![vec![1, 2, 3], vec![], vec![9; 40]],
            },
            Response::Replicate {
                committed_lsn: 7,
                snapshot: Some(vec![0xAB; 64]),
                records: vec![],
            },
            Response::Replicate {
                committed_lsn: 0,
                snapshot: None,
                records: vec![],
            },
        ];
        for response in responses {
            let payload = response.encode();
            assert_eq!(Response::decode(&payload).expect("round trip"), response);
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_typed_not_a_panic() {
        let request = Request::Kmst {
            points: vec![
                SamplePoint::new(0.0, 1.0, 2.0),
                SamplePoint::new(1.0, 3.0, 4.0),
            ],
            options: opts(),
        };
        let payload = request.encode();
        for cut in 0..payload.len() {
            match Request::decode(&payload[..cut]) {
                Err(WireError::Truncated) => {}
                Err(other) => panic!("cut at {cut}: unexpected error {other}"),
                Ok(_) => panic!("cut at {cut}: decoded from a truncated payload"),
            }
        }
        let response = Response::Segments {
            degraded: false,
            matches: vec![],
        };
        let payload = response.encode();
        for cut in 0..payload.len() {
            assert!(Response::decode(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let response = Response::Replicate {
            committed_lsn: 9,
            snapshot: Some(vec![3; 16]),
            records: vec![vec![1, 2], vec![4, 5, 6]],
        };
        let payload = response.encode();
        for cut in 0..payload.len() {
            assert!(Response::decode(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_replication_bodies_are_typed_not_allocated() {
        // A Replicate claiming u32::MAX records with an empty body: the
        // count pre-check fails before any Vec::with_capacity.
        let mut payload = Writer::default();
        payload.put_u8(0x88);
        payload.put_u64(1);
        payload.put_u8(0);
        payload.put_u32(u32::MAX);
        assert_eq!(
            Response::decode(payload.as_bytes()),
            Err(WireError::Truncated)
        );
        // A snapshot length larger than the body.
        let mut payload = Writer::default();
        payload.put_u8(0x88);
        payload.put_u64(1);
        payload.put_u8(1);
        payload.put_u32(1_000_000);
        assert_eq!(
            Response::decode(payload.as_bytes()),
            Err(WireError::Truncated)
        );
        // A garbage snapshot flag.
        let mut payload = Writer::default();
        payload.put_u8(0x88);
        payload.put_u64(1);
        payload.put_u8(9);
        assert_eq!(
            Response::decode(payload.as_bytes()),
            Err(WireError::BadPayload("snapshot flag"))
        );
        // A garbage min_lsn flag in options.
        let mut payload = Writer::default();
        payload.put_u8(0x09);
        payload.put_u64(5);
        payload.put_u8(0);
        assert_eq!(
            Request::decode(payload.as_bytes()),
            Err(WireError::TrailingBytes)
        );
        let mut bad_opts = Writer::default();
        bad_opts.put_u8(0x01);
        bad_opts.put_u32(1); // k
        bad_opts.put_u8(0); // no period
        bad_opts.put_u8(0); // no deadline
        bad_opts.put_u8(1); // reserved flag
        bad_opts.put_u8(7); // bad min_lsn flag
        assert_eq!(
            Request::decode(bad_opts.as_bytes()),
            Err(WireError::BadPayload("min_lsn flag"))
        );
    }

    #[test]
    fn the_reserved_options_flag_reads_either_value_and_refuses_others() {
        let request = Request::Kmst {
            points: vec![
                SamplePoint::new(0.0, 0.0, 0.0),
                SamplePoint::new(1.0, 1.0, 1.0),
            ],
            options: QueryOptions::new().k(3),
        };
        let mut bytes = request.encode();
        // Opcode, k, no period, no deadline: then the reserved flag.
        let flag = 1 + 4 + 1 + 1;
        assert_eq!(bytes[flag], 1, "encoders write the reserved flag as 1");
        bytes[flag] = 0;
        assert_eq!(Request::decode(&bytes), Ok(request));
        bytes[flag] = 2;
        assert_eq!(
            Request::decode(&bytes),
            Err(WireError::BadPayload("share flag"))
        );
    }

    #[test]
    fn hostile_counts_cannot_drive_allocation() {
        // A Kmst body claiming u32::MAX points with a 4-byte body: the
        // count pre-check fails before any Vec::with_capacity.
        let mut payload = Writer::default();
        payload.put_u8(0x01);
        put_options(&mut payload, &QueryOptions::new());
        payload.put_u32(u32::MAX);
        assert_eq!(
            Request::decode(payload.as_bytes()),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn garbage_opcodes_and_flags_are_rejected() {
        assert_eq!(Request::decode(&[0x7f]), Err(WireError::BadOpcode(0x7f)));
        assert_eq!(Response::decode(&[0x13]), Err(WireError::BadOpcode(0x13)));
        // Bad period flag.
        let mut payload = Writer::default();
        payload.put_u8(0x01);
        payload.put_u32(1);
        payload.put_u8(9);
        assert_eq!(
            Request::decode(payload.as_bytes()),
            Err(WireError::BadPayload("period flag"))
        );
        // Trailing bytes after a complete message.
        let mut payload = Request::Stats.encode();
        payload.push(0);
        assert_eq!(Request::decode(&payload), Err(WireError::TrailingBytes));
        // Inverted interval: structurally malformed.
        let mut payload = Writer::default();
        payload.put_u8(0x03);
        let mut bad = Writer::default();
        bad.put_u32(1);
        bad.put_u8(1);
        bad.put_f64(9.0);
        bad.put_f64(2.0);
        bad.put_u8(0);
        bad.put_u8(1);
        payload.put_bytes(bad.as_bytes());
        payload.put_f64(0.0);
        payload.put_f64(0.0);
        assert_eq!(
            Request::decode(payload.as_bytes()),
            Err(WireError::BadPayload("invalid time interval"))
        );
    }

    #[test]
    fn hostile_range_windows_are_rejected_not_asserted() {
        // Inverted or non-finite corners must map to a typed error and
        // never reach Mbb::new, which debug_asserts min <= max.
        let corners = [
            [9.0, 0.0, 0.0, 1.0, 5.0, 5.0],
            [0.0, 9.0, 0.0, 5.0, 1.0, 5.0],
            [0.0, 0.0, 9.0, 5.0, 5.0, 1.0],
            [f64::NAN, 0.0, 0.0, 5.0, 5.0, 5.0],
            [0.0, 0.0, 0.0, f64::INFINITY, 5.0, 5.0],
        ];
        for c in corners {
            let mut payload = Writer::default();
            payload.put_u8(0x04);
            put_options(&mut payload, &QueryOptions::new());
            for v in c {
                payload.put_f64(v);
            }
            assert_eq!(
                Request::decode(payload.as_bytes()),
                Err(WireError::BadPayload("invalid range window"))
            );
        }
    }

    #[test]
    fn oversize_error_messages_truncate_on_a_char_boundary() {
        // 'é' is two bytes, and the 65_535-byte cap is odd: naive
        // truncation would split the last character and make the frame
        // undecodable by the peer.
        let message = "é".repeat(40_000);
        let encoded = Response::Error {
            code: ErrorCode::Internal,
            message,
        }
        .encode();
        match Response::decode(&encoded).expect("truncated frame stays decodable") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Internal);
                assert_eq!(message.len(), 65_534);
                assert!(message.chars().all(|ch| ch == 'é'));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn frames_enforce_the_size_cap_and_detect_mid_frame_eof() {
        // The write side frames exactly the payloads a peer may accept:
        // one byte up to MAX_FRAME, nothing empty, nothing larger.
        let mut out = Vec::new();
        encode_frame_v2(&mut out, 3, &vec![0x05; MAX_FRAME as usize]).expect("at the cap");
        assert_eq!(
            encode_frame_v2(&mut Vec::new(), 3, &vec![0x05; MAX_FRAME as usize + 1]),
            Err(WireError::Oversized(MAX_FRAME + 1))
        );
        assert_eq!(
            encode_frame_v2(&mut Vec::new(), 3, &[]),
            Err(WireError::Oversized(0))
        );
        // The read side takes a frame at the cap whole...
        let frame = split_frame_v2(&out).expect("split").expect("complete");
        assert_eq!(
            (frame.consumed, frame.payload.len()),
            (out.len(), MAX_FRAME as usize)
        );
        // ...and refuses one byte more, or nothing at all, from the
        // prefix alone, before allocating.
        assert_eq!(
            split_frame_v2(&(MAX_FRAME + 9).to_le_bytes()),
            Err(WireError::Oversized(MAX_FRAME + 9))
        );
        assert_eq!(
            split_frame_v2(&0u32.to_le_bytes()),
            Err(WireError::Oversized(0))
        );
        // A stream that ends mid-frame (inside the prefix or the body)
        // leaves an incomplete frame: the reader keeps the bytes, and the
        // caller that sees EOF there reports the frame truncated.
        for cut in [1, 3, 11, 20, out.len() - 1] {
            assert_eq!(split_frame_v2(&out[..cut]), Ok(None), "cut at {cut}");
        }
    }

    #[test]
    fn hello_rejects_wrong_magic_and_inverted_ranges() {
        let mut payload = Writer::default();
        payload.put_u8(0x0F);
        payload.put_u32(0xDEAD_BEEF);
        payload.put_u16(2);
        payload.put_u16(2);
        payload.put_u16(8);
        assert_eq!(
            Request::decode(payload.as_bytes()),
            Err(WireError::BadPayload("hello magic"))
        );
        let mut payload = Writer::default();
        payload.put_u8(0x0F);
        payload.put_u32(MAGIC);
        payload.put_u16(3);
        payload.put_u16(2);
        payload.put_u16(8);
        assert_eq!(
            Request::decode(payload.as_bytes()),
            Err(WireError::BadPayload("hello version range"))
        );
    }

    #[test]
    fn v2_frames_round_trip_and_preserve_request_ids() {
        let mut out = Vec::new();
        for id in [0u64, 1, u64::MAX] {
            write_frame_v2(&mut out, id, &Request::Stats.encode()).expect("write");
        }
        let mut rest = &out[..];
        for id in [0u64, 1, u64::MAX] {
            let frame = split_frame_v2(rest).expect("split").expect("frame");
            assert_eq!(frame.request_id, id);
            assert_eq!(Request::decode(frame.payload), Ok(Request::Stats));
            rest = &rest[frame.consumed..];
        }
        assert_eq!(split_frame_v2(rest), Ok(None), "nothing left");

        // A frame too short to hold request id + opcode is truncated.
        assert_eq!(
            split_frame_v2(&8u32.to_le_bytes()),
            Err(WireError::Truncated)
        );
        // An empty payload cannot be framed.
        assert_eq!(
            write_frame_v2(&mut Vec::new(), 1, &[]),
            Err(WireError::Oversized(0))
        );
    }

    #[test]
    fn split_frame_carves_incrementally_and_rejects_hostile_prefixes() {
        let mut wire = Vec::new();
        write_frame_v2(&mut wire, 7, &Request::Stats.encode()).expect("write");
        write_frame_v2(&mut wire, 9, &Request::Shutdown.encode()).expect("write");

        // Incomplete at every prefix of the first frame: keep reading.
        let first_total = 4 + 8 + Request::Stats.encode().len();
        for cut in 0..first_total {
            assert_eq!(split_frame_v2(&wire[..cut]).expect("incomplete"), None);
        }
        // The first frame completes while the second is still partial.
        let frame = split_frame_v2(&wire[..first_total + 3])
            .expect("split")
            .expect("complete frame");
        assert_eq!(frame.consumed, first_total);
        assert_eq!(frame.request_id, 7);
        assert_eq!(Request::decode(frame.payload), Ok(Request::Stats));
        // Draining the first frame exposes the second.
        let frame = split_frame_v2(&wire[first_total..])
            .expect("split")
            .expect("second frame");
        assert_eq!(frame.request_id, 9);
        assert_eq!(Request::decode(frame.payload), Ok(Request::Shutdown));

        // A hostile prefix fails as soon as the 4 length bytes arrive,
        // before the buffer grows to match it.
        let huge = (MAX_FRAME + 9).to_le_bytes();
        assert_eq!(
            split_frame_v2(&huge),
            Err(WireError::Oversized(MAX_FRAME + 9))
        );
        assert_eq!(
            split_frame_v2(&5u32.to_le_bytes()),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn first_frames_classify_v2_hello_v1_request_and_garbage() {
        // A v2 hello as it appears after the length prefix.
        let hello = Request::Hello {
            min_version: 2,
            max_version: 2,
            depth: 4,
        };
        let mut framed = Vec::new();
        write_frame_v2(&mut framed, 0, &hello.encode()).expect("write");
        assert_eq!(classify_first_payload(&framed[4..]), FirstFrame::V2Hello);
        // Every v1 request opcode classifies as a legacy client.
        for request in [Request::Stats, Request::Shutdown] {
            assert_eq!(
                classify_first_payload(&request.encode()),
                FirstFrame::V1Request
            );
        }
        // Garbage, response opcodes, and empty payloads are unknown.
        assert_eq!(classify_first_payload(&[0x7f, 0, 0]), FirstFrame::Unknown);
        assert_eq!(classify_first_payload(&[0x81]), FirstFrame::Unknown);
        assert_eq!(classify_first_payload(&[]), FirstFrame::Unknown);
        // A truncated would-be hello (magic cut short) is unknown, not v2.
        assert_eq!(classify_first_payload(&framed[4..12]), FirstFrame::Unknown);
    }
}
