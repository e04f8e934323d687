//! `serve_ingest`: writes beside reads, over the wire, on a durable store.
//!
//! `Server::start_durable` over `DurableDatabase<Rtree3D, FileStore>` in a
//! directory under `benchmark/out/` (`sync_data` on every commit — the
//! flush policy is fixed and recorded with the file-system type).
//! Connection A inserts fresh 200-sample objects, one write in flight
//! (send → durable ack); connection B is a closed loop of depth-1 k-MST
//! reads for as long as A runs. Then the server shuts down, the store is
//! reopened (full replay) and every acked write is checked against it.
//!
//! This is the only workload where the `index`/`exec`/`serve` layers carry
//! writes beside reads: WAL append + fsync, R-tree insert/split, answer-
//! cache invalidation, readers queueing behind the writer on the index
//! lock. A read-path gain that taxes ingest (or the reverse) shows here
//! and nowhere else.
//!
//! Two properties of the program shape the write stream:
//!
//! * **A is paced** to [`IngestSize::write_rate`] writes a second, well
//!   under what the store sustains. Unpaced, faster code would insert
//!   more, grow the store further within the run and be handed slower
//!   reads for it; paced, every commit's store grows by the same amount.
//!   What the store sustains is measured by an unpaced burst afterwards.
//! * **Deletes stay out of the timed stream.** `Rtree3D::delete` finds an
//!   entry by walking the whole tree, once per segment: deleting one
//!   200-sample object from this store takes over a second, during which
//!   every reader waits. A few short-lived 10-sample objects are inserted
//!   and deleted during warm-up, so recovery is still held to deletes;
//!   `index.rtree_delete_us` prices the walk.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mst_exec::{BatchExecutor, IngestOp, ShardedDatabase};
use mst_index::Rtree3D;
use mst_prng::Rng;
use mst_search::{scan_kmst, Integration, MstMatch};
use mst_serve::{Response, ServeClient, Server, ServerHandle};
use mst_trajectory::{Trajectory, TrajectoryId};
use mst_wal::{DurableDatabase, FileStore, WalConfig};

use super::serve_read::{kmst_request, server_config, LENGTH, SHARDS};
use super::{
    check_pin, oracle, pages_mb, sharded_pages, timed_setups, AnswerLedger, Ctx, Outcome,
    TraceInputs,
};
use crate::inputs::{
    answer_fingerprint, gstd, ingest_pool, store_of, stratified_queries, Fleet, Fnv, K,
};
use crate::stats;
use crate::trace::Span;
use crate::workloads::batch_long::batch_of;

/// Ids of ingested objects start here, clear of any dataset.
const FRESH_ID_BASE: u64 = 1_000_000;
/// Length of the time slices the measured phase is cut into; read
/// statistics are medians over slices, so a longer run has more of them.
const WINDOW_S: f64 = 2.0;
/// Samples of a short-lived object (inserted and deleted during warm-up).
const SHORT_LIVED_SAMPLES: usize = 10;

const PINNED_DIGEST: u64 = 0xe4e0_0782_0e4a_ee19;

/// How much data a session moves.
#[derive(Debug, Clone, Copy)]
pub struct IngestSize {
    pub objects: usize,
    pub samples: usize,
    /// Samples of each ingested object.
    pub fresh_samples: usize,
    /// Paced writes per second during the measured phase.
    pub write_rate: f64,
    /// Unpaced writes after the measured phase (what the store sustains).
    pub burst: usize,
    /// Short-lived objects inserted and deleted again during warm-up.
    pub short_lived: usize,
    /// Reader requests per object in one lap of its stream.
    pub reads_per_object: usize,
    pub oracle_samples: usize,
    pub setup_reps: usize,
}

impl IngestSize {
    pub fn full() -> Self {
        IngestSize {
            objects: 100,
            samples: 2000,
            fresh_samples: 200,
            write_rate: 50.0,
            burst: 200,
            short_lived: 8,
            reads_per_object: 10,
            oracle_samples: 200,
            setup_reps: 3,
        }
    }

    pub fn smoke() -> Self {
        IngestSize {
            objects: 30,
            samples: 300,
            fresh_samples: 60,
            write_rate: 100.0,
            burst: 20,
            short_lived: 4,
            reads_per_object: 3,
            oracle_samples: 30,
            setup_reps: 1,
        }
    }
}

/// Everything a session measured.
pub struct IngestReport {
    pub build_s: f64,
    pub warm_s: f64,
    pub read_p50_ms: f64,
    pub read_p99_ms: f64,
    pub reads_per_s: f64,
    pub windows: usize,
    pub reads_per_window: usize,
    pub nodes_per_read: f64,
    /// Paced writes: send → durable ack.
    pub write_p50_ms: f64,
    pub write_p99_ms: f64,
    pub paced_writes: usize,
    /// Paced writes sent more than one interval after they were due.
    pub late_writes: usize,
    /// Unpaced burst.
    pub writes_per_s: f64,
    pub recovery_s: f64,
    pub replayed_records: u64,
    pub appends_per_fsync: f64,
    pub index_pages: usize,
    pub attempted: u64,
    pub failed: u64,
    pub input_digest: u64,
    pub spans: Vec<Span>,
    /// What the first wrong answers looked like.
    pub mismatches: Vec<String>,
    pub trace: TraceInputs,
}

/// One timed operation: when it completed (seconds into the measured
/// phase) and how long it took (milliseconds).
type Timed = (f64, f64);

/// A WAL directory no other session of this process (or another) uses.
fn scratch_dir() -> PathBuf {
    static SESSIONS: AtomicU64 = AtomicU64::new(0);
    let session = SESSIONS.fetch_add(1, Ordering::Relaxed);
    crate::env::out_dir().join(format!("ingest-{}-{session}", std::process::id()))
}

type Durable = DurableDatabase<Rtree3D, FileStore>;

/// Seeds a durable store with the fleet through its WAL, checkpoints it,
/// and serves it.
fn start(dir: &Path, fleet: Fleet) -> (ServerHandle<Rtree3D>, Arc<ShardedDatabase<Rtree3D>>) {
    let _ = std::fs::remove_dir_all(dir);
    let store = FileStore::open(dir).expect("open the WAL directory");
    let mut durable = Durable::create(store, WalConfig::default(), SHARDS).expect("create store");
    let ops: Vec<IngestOp> = fleet
        .into_iter()
        .map(|(id, trajectory)| IngestOp::Insert { id, trajectory })
        .collect();
    durable.apply(&ops).expect("seed the store");
    durable.checkpoint().expect("checkpoint the seeded store");
    let db = Arc::clone(durable.database());
    let handle = Server::start_durable(server_config(), durable).expect("durable server start");
    (handle, db)
}

/// The write stream: what was inserted, what was deleted again.
struct Writer {
    pool: Vec<Trajectory>,
    next_id: u64,
    live: Vec<(TrajectoryId, Trajectory)>,
    deleted: Vec<TrajectoryId>,
}

impl Writer {
    /// Inserts `trajectory` under a fresh id; `false` unless acked applied.
    fn insert(&mut self, client: &mut ServeClient, trajectory: Trajectory) -> bool {
        let id = TrajectoryId(FRESH_ID_BASE + self.next_id);
        self.next_id += 1;
        let acked = matches!(
            client.insert_trajectory(id, &trajectory),
            Ok(Response::Ingested { applied: true, .. })
        );
        self.live.push((id, trajectory));
        acked
    }

    /// Inserts the stream's next pool object.
    fn insert_next(&mut self, client: &mut ServeClient) -> bool {
        let trajectory = self.pool[(self.next_id % self.pool.len() as u64) as usize].clone();
        self.insert(client, trajectory)
    }

    /// Deletes the most recent insert.
    fn delete_last(&mut self, client: &mut ServeClient) -> bool {
        let Some((id, _)) = self.live.pop() else {
            return false;
        };
        self.deleted.push(id);
        matches!(
            client.delete_trajectory(id),
            Ok(Response::Ingested { applied: true, .. })
        )
    }
}

/// A read is well-formed when it is certified, at most `K` long and
/// ascending. While writes land its content cannot be held to a scan.
fn well_formed(response: &Response) -> Option<&[MstMatch]> {
    match response {
        Response::Kmst {
            degraded: false,
            matches,
        } if matches.len() <= K && matches.windows(2).all(|w| w[0].dissim <= w[1].dissim) => {
            Some(matches)
        }
        _ => None,
    }
}

/// Median over `windows` equal time slices of the reads' p50, p99 and rate,
/// and the smallest slice's sample count.
fn window_stats(ops: &[Timed], windows: usize, window_s: f64) -> (f64, f64, f64, usize) {
    let (mut p50, mut p99, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut smallest = usize::MAX;
    for w in 0..windows {
        let (lo, hi) = (w as f64 * window_s, (w + 1) as f64 * window_s);
        let mut slice: Vec<f64> = ops
            .iter()
            .filter(|(done, _)| *done >= lo && *done < hi)
            .map(|(_, ms)| *ms)
            .collect();
        smallest = smallest.min(slice.len());
        if slice.is_empty() {
            continue;
        }
        stats::sort(&mut slice);
        p50.push(stats::percentile(&slice, 50.0));
        p99.push(stats::percentile(&slice, 99.0));
        rate.push(slice.len() as f64 / window_s);
    }
    (
        stats::median(&mut p50),
        stats::median(&mut p99),
        stats::median(&mut rate),
        smallest,
    )
}

fn spans_of(name: &'static str, ops: &[Timed], spans: &mut Vec<Span>) {
    for (i, (done_s, ms)) in ops.iter().enumerate() {
        let end_ns = (done_s * 1e9) as u64;
        spans.push(Span {
            name,
            request_id: i as u64,
            parent: Some(0),
            start_ns: end_ns.saturating_sub((ms * 1e6) as u64),
            end_ns,
        });
    }
}

/// Runs one ingest session of `seconds` measured seconds.
///
/// `pinned` is the default-seed input digest to hold the inputs to, when
/// the session is the workload itself.
pub fn session(
    ctx: &Ctx,
    size: &IngestSize,
    seconds: f64,
    pinned: Option<u64>,
) -> Result<IngestReport, String> {
    let fleet = gstd(size.objects, size.samples);
    let mut rng = Rng::seed_from(ctx.seed ^ 0x16);
    let queries = stratified_queries(&fleet, &[LENGTH], size.reads_per_object, &mut rng);
    // One distinct object per write the session can make: two identical
    // trajectories tie exactly, and on an exact tie the program can push a
    // closer object out of the answer.
    let writes = (seconds * size.write_rate).ceil() as usize + size.burst + size.short_lived;
    let pool = ingest_pool(
        writes + 8,
        size.fresh_samples,
        size.samples as f64,
        ctx.seed ^ 0xF5,
    );
    let mut digest = Fnv::default();
    digest.eat_fleet(&fleet);
    digest.eat_queries(&queries);
    // The pool grows with `--seconds`; its head does not, and pins it.
    for t in pool.iter().take(64) {
        digest.eat_trajectory(t);
    }
    if let Some(pinned) = pinned {
        check_pin("serve_ingest", ctx, digest.0, pinned)?;
    }

    let dir = scratch_dir();
    let ((handle, db), build_s) = timed_setups(ctx.setup_reps(size.setup_reps), || {
        start(&dir, gstd(size.objects, size.samples))
    });
    let addr = handle.local_addr();
    let connect = || ServeClient::connect_with_depth(addr, 1).map_err(|e| format!("connect: {e}"));
    let (mut writer_conn, mut reader_conn, mut control) = (connect()?, connect()?, connect()?);

    let mut store = store_of(&fleet);
    let checked = oracle(&store, &queries, size.oracle_samples, ctx);
    let requests: Vec<_> = queries.iter().map(kmst_request).collect();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Warm-up: one lap of reads on the still-static store, held to the
    // scan; then short-lived objects come and go again (an object living
    // for part of the dataset's lifetime may not stay: see `ingest_pool`).
    let warm = Instant::now();
    let mut ledger = AnswerLedger::new(queries.len(), &checked);
    for (i, request) in requests.iter().enumerate() {
        attempted += 1;
        match reader_conn.request(request) {
            Ok(response) => match well_formed(&response) {
                Some(matches) => failed += ledger.check(&[(i, answer_fingerprint(matches))]),
                None => failed += 1,
            },
            Err(_) => failed += 1,
        }
    }
    let mut writer = Writer {
        pool,
        next_id: 0,
        live: Vec::new(),
        deleted: Vec::new(),
    };
    for i in 0..size.short_lived {
        let points = writer.pool[i % writer.pool.len()].points()[..SHORT_LIVED_SAMPLES].to_vec();
        let short = Trajectory::new(points).map_err(|e| format!("short-lived object: {e}"))?;
        attempted += 1;
        failed += u64::from(!writer.insert(&mut writer_conn, short));
        attempted += 1;
        failed += u64::from(!writer.delete_last(&mut writer_conn));
    }
    let warm_s = warm.elapsed().as_secs_f64();

    // Measured phase: A writes at its pace, B reads for as long as A runs.
    let before = control.stats().map_err(|e| format!("stats: {e}"))?;
    let stop = AtomicBool::new(false);
    let interval = 1.0 / size.write_rate;
    let start_at = Instant::now();
    let (writes, write_failed, late_writes, reads, read_failed) = std::thread::scope(|scope| {
        let writer_thread = scope.spawn(|| {
            let mut done: Vec<Timed> = Vec::new();
            let (mut bad, mut late) = (0u64, 0usize);
            let mut due = 0.0f64;
            loop {
                let now = start_at.elapsed().as_secs_f64();
                if now >= seconds {
                    break;
                }
                if now < due {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                } else if now > due + interval {
                    late += 1;
                }
                due += interval;
                let sent = Instant::now();
                let ok = writer.insert_next(&mut writer_conn);
                let ms = sent.elapsed().as_secs_f64() * 1e3;
                if ok {
                    done.push((start_at.elapsed().as_secs_f64(), ms));
                } else {
                    bad += 1;
                }
            }
            stop.store(true, Ordering::SeqCst);
            (done, bad, late)
        });
        let reader_thread = scope.spawn(|| {
            let mut done: Vec<Timed> = Vec::new();
            let mut bad = 0u64;
            let mut next = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let sent = Instant::now();
                let response = reader_conn.request(&requests[next % requests.len()]);
                let ms = sent.elapsed().as_secs_f64() * 1e3;
                next += 1;
                match response {
                    Ok(response) if well_formed(&response).is_some() => {
                        done.push((start_at.elapsed().as_secs_f64(), ms));
                    }
                    _ => bad += 1,
                }
            }
            (done, bad)
        });
        let (writes, write_failed, late) = writer_thread.join().expect("writer thread panicked");
        let (reads, read_failed) = reader_thread.join().expect("reader thread panicked");
        (writes, write_failed, late, reads, read_failed)
    });
    let measured_s = start_at.elapsed().as_secs_f64();
    let after = control.stats().map_err(|e| format!("stats: {e}"))?;
    attempted += writes.len() as u64 + write_failed + reads.len() as u64 + read_failed;
    failed += write_failed + read_failed;

    // What the store sustains: the same writes, unpaced.
    let burst = Instant::now();
    for _ in 0..size.burst {
        attempted += 1;
        failed += u64::from(!writer.insert_next(&mut writer_conn));
    }
    let writes_per_s = size.burst as f64 / burst.elapsed().as_secs_f64();

    // The store now holds the dataset plus every live insert: the sampled
    // reads must equal the scan over exactly that.
    let mut mismatches = Vec::new();
    for (id, trajectory) in &writer.live {
        store.insert(*id, trajectory.clone());
    }
    for (i, _) in &checked {
        attempted += 1;
        let q = &queries[*i];
        let exact = scan_kmst(&store, &q.query, &q.period, K, Integration::Exact)
            .map_err(|e| format!("scan: {e}"))?;
        let served = reader_conn.request(&requests[*i]);
        let same = matches!(&served, Ok(r) if well_formed(r).is_some_and(
            |m| answer_fingerprint(m) == answer_fingerprint(&exact)));
        if !same {
            failed += 1;
            mismatches.push(format!(
                "request {i} after ingest: served {served:?}, the scan says {exact:?}"
            ));
        }
    }
    let index_pages = sharded_pages(&db);
    drop((writer_conn, reader_conn, control));
    handle.shutdown();
    drop(handle);

    // Recovery: reopen from the bytes on disk, replaying every record
    // since the seed checkpoint, and hold the result to the acked writes.
    let reopen = Instant::now();
    let recovered = Durable::open(
        FileStore::open(&dir).map_err(|e| format!("reopen: {e}"))?,
        WalConfig::default(),
    )
    .map_err(|e| format!("recovery: {e}"))?;
    let recovery_s = reopen.elapsed().as_secs_f64();
    let replayed_records = recovered.stats().replayed_records;
    let state = recovered.database();
    attempted += 1;
    let intact = state.num_objects() == size.objects + writer.live.len()
        && writer
            .live
            .iter()
            .all(|(id, t)| state.trajectory(*id).is_some_and(|kept| kept == *t))
        && writer
            .deleted
            .iter()
            .all(|id| state.trajectory(*id).is_none());
    failed += u64::from(!intact);
    // One probe query on the recovered store must equal the scan.
    attempted += 1;
    let probe = &queries[checked.first().map_or(0, |(i, _)| *i)];
    let exact = scan_kmst(&store, &probe.query, &probe.period, K, Integration::Exact)
        .map_err(|e| format!("scan: {e}"))?;
    let outcome = BatchExecutor::new().run(state, batch_of(std::slice::from_ref(probe)));
    let same = matches!(outcome.outcomes.first(), Some(Ok(q)) if q.answer.as_kmst()
        .is_some_and(|m| answer_fingerprint(m) == answer_fingerprint(&exact)));
    failed += u64::from(!same);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    let windows = ((seconds / WINDOW_S).round() as usize).max(1);
    let (read_p50_ms, read_p99_ms, reads_per_s, reads_per_window) =
        window_stats(&reads, windows, seconds / windows as f64);
    let mut write_ms: Vec<f64> = writes.iter().map(|(_, ms)| *ms).collect();
    stats::sort(&mut write_ms);
    let appends = after.counters.wal_appends - before.counters.wal_appends;
    let fsyncs = after.counters.wal_fsyncs - before.counters.wal_fsyncs;
    let nodes = after.profile.nodes_accessed - before.profile.nodes_accessed;
    let mut spans = Vec::new();
    if ctx.trace {
        spans.push(Span {
            name: "pass",
            request_id: 0,
            parent: None,
            start_ns: 0,
            end_ns: (measured_s * 1e9) as u64,
        });
        spans_of("serve.read", &reads, &mut spans);
        spans_of("serve.write", &writes, &mut spans);
    }
    Ok(IngestReport {
        build_s,
        warm_s,
        read_p50_ms,
        read_p99_ms,
        reads_per_s,
        windows,
        reads_per_window,
        nodes_per_read: nodes as f64 / (reads.len() as u64 + read_failed).max(1) as f64,
        write_p50_ms: stats::percentile(&write_ms, 50.0),
        write_p99_ms: stats::percentile(&write_ms, 99.0),
        paced_writes: writes.len(),
        late_writes,
        writes_per_s,
        recovery_s,
        replayed_records,
        appends_per_fsync: appends as f64 / fsyncs.max(1) as f64,
        index_pages,
        attempted,
        failed,
        input_digest: digest.0,
        spans,
        mismatches,
        trace: TraceInputs { fleet, queries, db },
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let size = if ctx.smoke {
        IngestSize::smoke()
    } else {
        IngestSize::full()
    };
    let mut report = session(ctx, &size, ctx.seconds, Some(PINNED_DIGEST))?;
    let mut outcome = Outcome {
        attempted: report.attempted,
        failed: report.failed,
        input_digest: report.input_digest,
        spans: std::mem::take(&mut report.spans),
        ..Outcome::default()
    };
    outcome.notes.push(format!(
        "S{:04} x {} samples on {SHARDS} shards, {} pages at the end; {} paced inserts of {} samples \
         at {}/s, {} sent late",
        size.objects,
        size.samples,
        report.index_pages,
        report.paced_writes,
        size.fresh_samples,
        size.write_rate,
        report.late_writes,
    ));
    outcome.notes.push(format!(
        "{} time slices of at least {} reads ({} beyond p99)",
        report.windows,
        report.reads_per_window,
        stats::beyond(report.reads_per_window, 99.0),
    ));
    outcome.notes.push(format!(
        "writes: p50 {:.3} ms, p99 {:.3} ms paced ({} beyond p99), {:.0}/s unpaced; recovery {:.3} s \
         replaying {} records; WAL dir on {}",
        report.write_p50_ms,
        report.write_p99_ms,
        stats::beyond(report.paced_writes, 99.0),
        report.writes_per_s,
        report.recovery_s,
        report.replayed_records,
        crate::env::fs_type(&crate::env::out_dir()),
    ));
    outcome
        .notes
        .extend(report.mismatches.iter().take(3).cloned());
    let m = &mut outcome.metrics;
    m.insert("setup_s", report.build_s + report.warm_s);
    m.insert("query_p50_ms", report.read_p50_ms);
    m.insert("query_p99_ms", report.read_p99_ms);
    m.insert("queries_per_s", report.reads_per_s);
    m.insert("pages_per_query", report.nodes_per_read);
    m.insert("index_mb", pages_mb(report.index_pages));
    m.insert("peak_rss_mb", crate::env::peak_rss_mb());
    if ctx.trace {
        crate::layers::ingest_metrics(&report, &mut outcome);
        crate::layers::traced_extras(ctx, &report.trace, &mut outcome)?;
    }
    Ok(outcome)
}
