//! The `mst-serve` binary: builds a GSTD demo dataset, binds, and serves
//! until a `Shutdown` frame arrives.
//!
//! ```text
//! mst-serve [--port N] [--workers N] [--queue N] [--objects N] \
//!           [--shards N] [--deadline-ms N] [--depth N] \
//!           [--cache N] [--store DIR] \
//!           [--replica-of ADDR] [--verify-store DIR]
//! ```
//!
//! All flags optional; `--port 0` (the default) picks an ephemeral port
//! and prints it, which is what the bench harness and CI smoke use.
//!
//! With `--store DIR` the server runs durably: an existing store in
//! `DIR` is recovered (snapshot + WAL replay; `--objects`/`--shards`
//! are ignored) and an empty `DIR` is seeded with the demo fleet, each
//! insert logged through the WAL. Either way `Insert`/`Delete` frames
//! are accepted and group-committed; without the flag the server is
//! read-only and answers them with a typed `ReadOnly` error.
//!
//! With `--replica-of ADDR` (requires `--store`) the server runs as a
//! read-only replica of the primary at `ADDR`: an empty store
//! bootstraps from the primary's snapshot, an occupied one resumes the
//! stream from its recovered LSN, and the applier follows the primary
//! forever with jittered reconnect backoff. Writes answer a typed
//! `NotPrimary` error.
//!
//! `--verify-store DIR` runs no server at all: it sweeps the store
//! offline — snapshot decode, segment scan, per-frame checksums,
//! gapless-LSN check — prints a report, and exits 0 (clean) or 1
//! (corrupt). Use it before re-serving a store of questionable
//! provenance.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::Arc;

use mst_datagen::GstdConfig;
use mst_exec::{IngestOp, ShardedDatabase};
use mst_index::Rtree3D;
use mst_serve::{RetryPolicy, Server, ServerConfig, ServerHandle};
use mst_trajectory::TrajectoryId;
use mst_wal::{DurableDatabase, FileStore, LogStore, WalConfig};

struct Args {
    port: u16,
    workers: usize,
    queue: usize,
    objects: usize,
    shards: usize,
    deadline_ms: Option<u64>,
    depth: u16,
    cache: usize,
    store: Option<String>,
    replica_of: Option<String>,
    verify_store: Option<String>,
}

impl Args {
    fn from_env() -> Result<Args, String> {
        let mut args = Args {
            port: 0,
            workers: 2,
            queue: 0,
            objects: 200,
            shards: 4,
            deadline_ms: None,
            depth: 32,
            cache: 0,
            store: None,
            replica_of: None,
            verify_store: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |flag: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--port" => args.port = parse(&value("--port")?)?,
                "--workers" => args.workers = parse(&value("--workers")?)?,
                "--queue" => args.queue = parse(&value("--queue")?)?,
                "--objects" => args.objects = parse(&value("--objects")?)?,
                "--shards" => args.shards = parse(&value("--shards")?)?,
                "--deadline-ms" => args.deadline_ms = Some(parse(&value("--deadline-ms")?)?),
                "--depth" => args.depth = parse(&value("--depth")?)?,
                "--cache" => args.cache = parse(&value("--cache")?)?,
                "--store" => args.store = Some(value("--store")?),
                "--replica-of" => args.replica_of = Some(value("--replica-of")?),
                "--verify-store" => args.verify_store = Some(value("--verify-store")?),
                "--help" | "-h" => {
                    return Err("usage: mst-serve [--port N] [--workers N] [--queue N] \
                         [--objects N] [--shards N] [--deadline-ms N] [--depth N] \
                         [--cache N] [--store DIR] [--replica-of ADDR] \
                         [--verify-store DIR]"
                        .into())
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        if args.replica_of.is_some() && args.store.is_none() {
            return Err(
                "--replica-of needs --store DIR for the replica's own durable state".into(),
            );
        }
        Ok(args)
    }
}

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("invalid value: {raw}"))
}

fn main() {
    let code = run();
    std::process::exit(code);
}

fn run() -> i32 {
    let args = match Args::from_env() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return 2;
        }
    };
    let mut config = ServerConfig::new()
        .port(args.port)
        .workers(args.workers)
        .queue_capacity(args.queue)
        .max_depth(args.depth)
        .cache_capacity(args.cache);
    if let Some(ms) = args.deadline_ms {
        config = config.default_deadline_us(ms.saturating_mul(1000));
    }
    if let Some(dir) = &args.verify_store {
        return verify_store(dir);
    }
    let started = match (&args.store, &args.replica_of) {
        (Some(dir), Some(primary)) => start_replica(config, dir, primary),
        (Some(dir), None) => start_durable(config, &args, dir),
        (None, _) => start_read_only(config, &args),
    };
    let server = match started {
        Ok(server) => server,
        Err(message) => {
            eprintln!("{message}");
            return 1;
        }
    };
    // The bench harness and CI smoke parse this line for the port.
    println!("listening on {}", server.local_addr());
    server.join();
    eprintln!("drained and stopped");
    0
}

/// The demo fleet: the paper's GSTD dataset, ids dense from zero.
fn demo_fleet(objects: usize) -> Vec<(TrajectoryId, mst_trajectory::Trajectory)> {
    GstdConfig::paper_dataset(objects, 42)
        .generate()
        .into_iter()
        .enumerate()
        .map(|(i, t)| (TrajectoryId(i as u64), t))
        .collect()
}

/// The classic in-memory path: build the demo fleet, serve it read-only.
fn start_read_only(config: ServerConfig, args: &Args) -> Result<ServerHandle<Rtree3D>, String> {
    eprintln!(
        "building GSTD demo dataset: {} objects across {} shards",
        args.objects, args.shards
    );
    let db = ShardedDatabase::with_rtree(args.shards, demo_fleet(args.objects))
        .map_err(|e| format!("failed to build the database: {e}"))?;
    Server::start(config, Arc::new(db)).map_err(|e| format!("failed to start: {e}"))
}

/// The durable path: recover an existing store in `dir`, or seed an
/// empty one with the demo fleet through the WAL, then serve with
/// online ingest enabled.
fn start_durable(
    config: ServerConfig,
    args: &Args,
    dir: &str,
) -> Result<ServerHandle<Rtree3D>, String> {
    let store = FileStore::open(dir).map_err(|e| format!("failed to open store {dir}: {e}"))?;
    let has_db = store
        .read_snapshot()
        .map_err(|e| format!("failed to probe store {dir}: {e}"))?
        .is_some();
    let durable: DurableDatabase<Rtree3D, FileStore> = if has_db {
        eprintln!("recovering durable store at {dir} (--objects/--shards ignored)");
        let recovered = DurableDatabase::open(store, WalConfig::default())
            .map_err(|e| format!("recovery failed: {e}"))?;
        eprintln!(
            "recovered {} objects at LSN {} ({} records replayed)",
            recovered.database().num_objects(),
            recovered.applied_lsn(),
            recovered.stats().replayed_records,
        );
        recovered
    } else {
        eprintln!(
            "seeding durable store at {dir}: {} objects across {} shards",
            args.objects, args.shards
        );
        let mut fresh = DurableDatabase::create(store, WalConfig::default(), args.shards)
            .map_err(|e| format!("failed to create the store: {e}"))?;
        let ops: Vec<IngestOp> = demo_fleet(args.objects)
            .into_iter()
            .map(|(id, trajectory)| IngestOp::Insert { id, trajectory })
            .collect();
        fresh
            .apply(&ops)
            .map_err(|e| format!("failed to seed the store: {e}"))?;
        // Fold the seed burst into the snapshot so the next recovery
        // replays only post-seed writes.
        fresh
            .checkpoint()
            .map_err(|e| format!("failed to checkpoint the seed: {e}"))?;
        fresh
    };
    Server::start_durable(config, durable).map_err(|e| format!("failed to start: {e}"))
}

/// The replica path: follow the primary at `primary`, bootstrapping an
/// empty store from its snapshot or resuming an occupied one from its
/// recovered LSN.
fn start_replica(
    config: ServerConfig,
    dir: &str,
    primary: &str,
) -> Result<ServerHandle<Rtree3D>, String> {
    let primary: std::net::SocketAddr = primary
        .parse()
        .map_err(|_| format!("--replica-of: not a socket address: {primary}"))?;
    let store = FileStore::open(dir).map_err(|e| format!("failed to open store {dir}: {e}"))?;
    eprintln!("starting replica of {primary} over store {dir}");
    Server::start_replica(
        config,
        store,
        WalConfig::default(),
        primary,
        RetryPolicy::default(),
    )
    .map_err(|e| format!("failed to start the replica: {e}"))
}

/// The offline integrity sweep behind `--verify-store`: no server, just
/// the report and an exit code CI can gate on.
fn verify_store(dir: &str) -> i32 {
    let store = match FileStore::open(dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("failed to open store {dir}: {e}");
            return 1;
        }
    };
    match mst_wal::verify_store::<Rtree3D, _>(&store) {
        Ok(report) => {
            println!(
                "store {dir}: snapshot at LSN {} ({} bytes), {} segments, \
                 {} replayable records, tail {:?}, next LSN {}",
                report.snapshot_lsn,
                report.snapshot_bytes,
                report.segments.len(),
                report.records,
                report.tail,
                report.next_lsn,
            );
            if report.tail == mst_wal::TailState::Clean {
                println!("verdict: clean");
            } else {
                // Survivable crash damage: recovery truncates it, but an
                // operator should know it is there.
                println!("verdict: recoverable (crash-damaged tail)");
            }
            0
        }
        Err(e) => {
            eprintln!("store {dir} failed verification: {e}");
            1
        }
    }
}
