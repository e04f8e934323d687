//! `serve_read`: k-MST requests over real loopback TCP against an in-process
//! `mst-serve` — a **closed loop** of two connections (one thread each),
//! each keeping four requests in flight.
//!
//! Engine work per request is tiny (2 % windows) and half the traffic never
//! reaches the engine: half of every connection's requests come from a hot
//! set of 64 queries both connections share (answer-cache hits, coalescer
//! dedup), half are distinct per connection. Socket, wire codec, coalescer
//! tick and answer cache do most of the work; a kernel speed-up must not
//! move this workload.
//!
//! Closed loop because the only in-tree callers (`ServeClient`,
//! `ClientPool`) are blocking request/response clients; an open-loop rate
//! ladder is deferred.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use mst_exec::ShardedDatabase;
use mst_index::Rtree3D;
use mst_prng::Rng;
use mst_search::QueryOptions;
use mst_serve::{Request, RequestId, Response, ServeClient, Server, ServerConfig, ServerHandle};

use super::{
    check_pin, finish_reads, oracle, sharded_pages, timed_setups, AnswerLedger, Ctx, Outcome, Pass,
    ReadStack, Size, TraceInputs,
};
use crate::inputs::{
    answer_fingerprint, gstd, store_of, stratified_queries, window_query, Fnv, QuerySpec, K,
};
use crate::trace::{Clock, Span};

pub const LENGTH: f64 = 0.02;
pub const SHARDS: usize = 2;
pub const CONNECTIONS: usize = 2;
pub const DEPTH: u16 = 4;
pub const HOT_SET: usize = 64;
pub const CACHE_CAPACITY: usize = 256;

const PINNED_DIGEST: u64 = 0xeb4a_ee8d_a303_a6ae;

/// `per_cell` is each connection's distinct requests per object in one
/// pass; as many hot-set requests again are mixed in.
fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            objects: 30,
            samples: 300,
            per_cell: 4,
            oracle_samples: 40,
            setup_reps: 1,
        }
    } else {
        Size {
            objects: 100,
            samples: 2000,
            per_cell: 20,
            oracle_samples: 200,
            setup_reps: 3,
        }
    }
}

/// The server configuration of both serving workloads. The admission queue
/// holds every request the closed loop can have in flight, so none is
/// refused: a refusal would count as a failed operation.
pub fn server_config() -> ServerConfig {
    ServerConfig::new()
        .workers(2)
        .io_threads(1)
        .max_depth(8)
        .queue_capacity(2 * CONNECTIONS * DEPTH as usize)
}

/// The wire form of a query.
pub fn kmst_request(q: &QuerySpec) -> Request {
    Request::Kmst {
        points: q.query.points().to_vec(),
        options: QueryOptions::new().k(K).during(&q.period),
    }
}

/// What one connection saw in one pass.
#[derive(Default)]
pub struct ConnectionRun {
    pub lat_ms: Vec<f64>,
    pub answers: Vec<(usize, u64)>,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// Drives `stream` (indices into `requests`) down one connection, keeping
/// the negotiated depth in flight and claiming responses in any order.
pub fn pipelined(
    client: &mut ServeClient,
    requests: &[Request],
    stream: &[usize],
    clock: Option<&Clock>,
) -> ConnectionRun {
    let mut run = ConnectionRun::default();
    let window = usize::from(client.depth());
    let mut inflight: HashMap<RequestId, (usize, Instant, u64)> = HashMap::new();
    let mut next = 0usize;
    let mut done = 0usize;
    while done < stream.len() {
        while inflight.len() < window && next < stream.len() {
            let slot = next;
            next += 1;
            let sent = Instant::now();
            let sent_ns = clock.map_or(0, Clock::now_ns);
            match client.send(&requests[stream[slot]]) {
                Ok(id) => {
                    inflight.insert(id, (slot, sent, sent_ns));
                }
                Err(_) => {
                    run.failed += 1;
                    done += 1;
                }
            }
        }
        if inflight.is_empty() {
            continue;
        }
        let Ok((id, response)) = client.recv_any() else {
            // A dead transport fails everything still owed.
            run.failed += (stream.len() - done) as u64;
            break;
        };
        let Some((slot, sent, sent_ns)) = inflight.remove(&id) else {
            run.failed += 1;
            continue;
        };
        done += 1;
        match response {
            Response::Kmst {
                degraded: false,
                matches,
            } => {
                run.lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                run.answers
                    .push((stream[slot], answer_fingerprint(&matches)));
                if let Some(clock) = clock {
                    run.spans.push(Span {
                        name: "serve.request",
                        request_id: slot as u64,
                        parent: Some(0),
                        start_ns: sent_ns,
                        end_ns: clock.now_ns(),
                    });
                }
            }
            // Refused, errored or degraded: a failed operation.
            _ => run.failed += 1,
        }
    }
    run
}

struct Serve {
    handle: ServerHandle<Rtree3D>,
    db: Arc<ShardedDatabase<Rtree3D>>,
    clients: Vec<ServeClient>,
    control: ServeClient,
    requests: Vec<Request>,
    streams: Vec<Vec<usize>>,
}

fn nodes_accessed(control: &mut ServeClient) -> u64 {
    control
        .stats()
        .map_or(0, |report| report.profile.nodes_accessed)
}

impl ReadStack for Serve {
    fn pass(&mut self, clock: Option<&Clock>) -> Pass {
        let mut pass = Pass::default();
        let before = nodes_accessed(&mut self.control);
        let start = Instant::now();
        let requests = &self.requests;
        let runs: Vec<ConnectionRun> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.streams)
                .map(|(client, stream)| {
                    scope.spawn(move || pipelined(client, requests, stream, clock))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.nodes_read = nodes_accessed(&mut self.control) - before;
        for run in runs {
            pass.lat_ms.extend(run.lat_ms);
            pass.answers.extend(run.answers);
            pass.failed += run.failed;
            pass.spans.extend(run.spans);
        }
        pass
    }
}

fn start(
    fleet: crate::inputs::Fleet,
) -> (
    ServerHandle<Rtree3D>,
    Arc<ShardedDatabase<Rtree3D>>,
    SocketAddr,
) {
    let db = Arc::new(ShardedDatabase::with_rtree(SHARDS, fleet).expect("shard build"));
    let handle = Server::start(
        server_config().cache_capacity(CACHE_CAPACITY),
        Arc::clone(&db),
    )
    .expect("server start");
    let addr = handle.local_addr();
    (handle, db, addr)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let size = size(ctx.smoke);
    let fleet = gstd(size.objects, size.samples);
    let mut rng = Rng::seed_from(ctx.seed ^ 0x5E);

    // The query table: the shared hot set first, then each connection's own
    // distinct queries. A stream is indices into the table: every distinct
    // query once, as many hot picks again, shuffled together.
    let mut table: Vec<QuerySpec> = (0..HOT_SET)
        .map(|_| window_query(&fleet[rng.usize_below(fleet.len())].1, LENGTH, &mut rng))
        .collect();
    let mut streams = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let distinct = stratified_queries(&fleet, &[LENGTH], size.per_cell, &mut rng);
        let first = table.len();
        let mut stream: Vec<usize> = (first..first + distinct.len()).collect();
        stream.extend((0..distinct.len()).map(|_| rng.usize_below(HOT_SET)));
        rng.shuffle(&mut stream);
        table.extend(distinct);
        streams.push(stream);
    }
    let mut digest = Fnv::default();
    digest.eat_fleet(&fleet);
    digest.eat_queries(&table);
    for stream in &streams {
        for index in stream {
            digest.eat(*index as u64);
        }
    }
    check_pin("serve_read", ctx, digest.0, PINNED_DIGEST)?;

    // Set-up: generate, build the shards, start the server, connect.
    let ((handle, db, addr), build_s) = timed_setups(ctx.setup_reps(size.setup_reps), || {
        start(gstd(size.objects, size.samples))
    });
    let connect = |depth: u16| {
        ServeClient::connect_with_depth(addr, depth).map_err(|e| format!("connect: {e}"))
    };
    let clients = (0..CONNECTIONS)
        .map(|_| connect(DEPTH))
        .collect::<Result<Vec<_>, _>>()?;
    let checked = oracle(&store_of(&fleet), &table, size.oracle_samples, ctx);
    let mut ledger = AnswerLedger::new(table.len(), &checked);
    let pages = sharded_pages(&db);
    let mut stack = Serve {
        handle,
        db,
        clients,
        control: connect(1)?,
        requests: table.iter().map(kmst_request).collect(),
        streams,
    };
    let mut outcome = finish_reads(ctx, &mut stack, &mut ledger, build_s, pages, digest.0);
    let stats = stack.control.stats().map_err(|e| format!("stats: {e}"))?;
    let counters = stats.counters;
    outcome.notes.push(format!(
        "S{:04} x {} samples on {SHARDS} shards, {pages} pages; {CONNECTIONS} connections x depth {DEPTH}; \
         answer cache {} hits / {} misses, {} overload rejections",
        size.objects,
        size.samples,
        counters.cache_hits,
        counters.cache_misses,
        counters.overload_rejections,
    ));
    drop(stack.clients);
    drop(stack.control);
    stack.handle.shutdown();
    if ctx.trace {
        crate::layers::traced_extras(
            ctx,
            &TraceInputs {
                fleet,
                queries: table,
                db: stack.db,
            },
            &mut outcome,
        )?;
    }
    Ok(outcome)
}
