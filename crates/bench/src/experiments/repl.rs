//! Replication under load: a real primary/replica pair over loopback
//! TCP and real files, measuring the three numbers an operator of the
//! HA deployment cares about — steady-state replication lag, catch-up
//! throughput after an outage, and client failover time when the
//! primary dies.
//!
//! The one service bench `benchmark/` did not replace: replication lag,
//! catch-up rate and failover time have no metric there, and the lag and
//! failover gates below have no test. [`ReplReport::validate`] is the CI
//! tripwire:
//!
//! * **the replica keeps up** — every ingest burst must become visible
//!   on the replica (its `repl_applied_lsn` gauge reaches the acked
//!   LSN), and the p99 ack-to-visible lag must stay under
//!   [`MAX_LAG_P99_MS`] — the ci.sh max-replication-lag gate;
//! * **catch-up replays the backlog** — a replica restarted behind a
//!   write backlog must resume from its recovered LSN and converge to
//!   the primary's head, at a nonzero records/second;
//! * **convergence is bit-identical** — after catch-up, a probe query
//!   answered by the replica must fingerprint-match the primary's
//!   answer;
//! * **failover works and stays honest** — a [`ClientPool`] read must
//!   survive the primary's death by rotating to the replica within
//!   [`MAX_FAILOVER_MS`], and a write without a primary must surface an
//!   error, never silently land on the replica.
//!
//! The stores are real [`mst_wal::FileStore`]s in a scratch directory
//! (fsyncs included) and the wire is real TCP, so absolute numbers
//! reflect the host; the gates are deliberately loose enough for a
//! loaded CI machine.
//!
//! [`ClientPool`]: mst_serve::ClientPool

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

use mst_exec::IngestOp;
use mst_index::Rtree3D;
use mst_search::MstMatch;
use mst_serve::{
    ClientPool, Request, Response, RetryPolicy, ServeClient, Server, ServerConfig, ServerHandle,
};
use mst_trajectory::{Trajectory, TrajectoryId};
use mst_wal::{DurableDatabase, FileStore, WalConfig};

use crate::datasets::DatasetSpec;
use crate::metrics::time_ms;
use crate::workload::sample_queries;

/// The ci.sh max-replication-lag gate: p99 ack-to-visible lag must stay
/// under this many milliseconds. The replica polls every few
/// milliseconds, so healthy runs land two orders of magnitude below.
pub const MAX_LAG_P99_MS: f64 = 2_500.0;

/// Failover budget: a pool read across the primary's death must answer
/// within this many milliseconds (one dead-socket error plus one
/// replica connect — healthy runs are single-digit).
pub const MAX_FAILOVER_MS: f64 = 5_000.0;

/// Configuration of the replication benchmark.
#[derive(Debug, Clone)]
pub struct ReplBenchConfig {
    /// Seed objects in the primary's store before the replica attaches.
    pub objects: usize,
    /// Samples per object.
    pub samples: usize,
    /// Shards of both durable databases.
    pub shards: usize,
    /// Ingest bursts in the lag phase (each burst's lag is one sample).
    pub bursts: usize,
    /// Insert operations per burst.
    pub burst_size: usize,
    /// Records written while the replica is down (the catch-up backlog).
    pub backlog: usize,
    /// WAL segment rotation threshold, KiB.
    pub rotate_kib: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReplBenchConfig {
    fn default() -> Self {
        ReplBenchConfig {
            objects: 150,
            samples: 200,
            shards: 4,
            bursts: 30,
            burst_size: 8,
            backlog: 400,
            rotate_kib: 256,
            seed: 29,
        }
    }
}

impl ReplBenchConfig {
    /// The small CI configuration.
    pub fn smoke() -> Self {
        ReplBenchConfig {
            objects: 40,
            samples: 60,
            shards: 2,
            bursts: 8,
            burst_size: 4,
            backlog: 80,
            rotate_kib: 64,
            seed: 29,
        }
    }
}

/// The steady-state lag phase's measurements.
#[derive(Debug, Clone)]
pub struct LagPhase {
    /// Ingest bursts applied (each contributes one lag sample).
    pub bursts: u64,
    /// Records acked by the primary across all bursts.
    pub records: u64,
    /// The primary's committed LSN after the last burst.
    pub final_lsn: u64,
    /// Median ack-to-visible lag, milliseconds.
    pub lag_p50_ms: f64,
    /// 99th-percentile ack-to-visible lag, milliseconds.
    pub lag_p99_ms: f64,
    /// Worst observed lag, milliseconds.
    pub lag_max_ms: f64,
    /// Empty replication rounds the primary served (liveness signal).
    pub heartbeats: u64,
    /// The highest LSN the primary saw acked by the replica.
    pub acked_lsn: u64,
    /// Every burst became visible on the replica within the poll budget.
    pub converged: bool,
}

/// The catch-up phase's measurements: a replica restarted behind a
/// write backlog.
#[derive(Debug, Clone)]
pub struct CatchUpPhase {
    /// Records in the backlog the restarted replica had to replay.
    pub backlog_records: u64,
    /// The LSN the replica's recovered store resumed from.
    pub resumed_from_lsn: u64,
    /// The primary's head LSN the replica had to reach.
    pub head_lsn: u64,
    /// Wall-clock from replica start to convergence, milliseconds
    /// (includes the replica's own store recovery).
    pub wall_ms: f64,
    /// Backlog records applied per second.
    pub records_per_sec: f64,
    /// The replica reached the head within the poll budget.
    pub converged: bool,
    /// A probe query answered identically on primary and replica.
    pub answer_identical: bool,
}

/// The failover phase's measurements: the primary dies under a
/// [`ClientPool`](mst_serve::ClientPool).
#[derive(Debug, Clone)]
pub struct FailoverPhase {
    /// Wall-clock of the first pool read after the primary died,
    /// milliseconds — the client-observed failover time.
    pub failover_ms: f64,
    /// The pool ended the read connected to the replica endpoint.
    pub failed_over_to_replica: bool,
    /// The failed-over answer fingerprint-matched the pre-death answer.
    pub answer_identical: bool,
    /// A write with no primary surfaced an error (never landed on the
    /// replica).
    pub write_refused_without_primary: bool,
}

/// The full replication report.
#[derive(Debug, Clone)]
pub struct ReplReport {
    /// The configuration that produced this report.
    pub config: ReplBenchConfig,
    /// Milliseconds to seed the primary's store through the WAL.
    pub seed_ms: f64,
    /// The steady-state lag phase.
    pub lag: LagPhase,
    /// The catch-up phase.
    pub catch_up: CatchUpPhase,
    /// The failover phase.
    pub failover: FailoverPhase,
}

fn percentile(sorted_ms: &[f64], pct: usize) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    sorted_ms[(sorted_ms.len() - 1) * pct / 100]
}

/// FNV-1a over an answer's ids and dissimilarity bits — the same
/// fingerprint as the serving benchmark, so "identical answers" means
/// the same thing in both reports.
fn fingerprint(matches: &[MstMatch]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for m in matches {
        eat(m.traj.0);
        eat(m.dissim.to_bits());
    }
    h
}

/// Pipelined inserts on one connection: keeps the window full so the
/// primary group-commits the burst, returns the highest acked LSN.
fn pipelined_inserts(client: &mut ServeClient, batch: &[(TrajectoryId, Trajectory)]) -> u64 {
    let window = usize::from(client.depth());
    let mut acked_lsn = 0u64;
    let mut inflight = 0usize;
    let mut next = 0usize;
    let claim = |client: &mut ServeClient, inflight: &mut usize, acked: &mut u64| {
        let (_, response) = client.recv_any().expect("ingest ack");
        *inflight -= 1;
        match response {
            Response::Ingested { lsn, applied } => {
                assert!(applied, "fresh ids always apply");
                *acked = (*acked).max(lsn);
            }
            other => panic!("unexpected response to an insert: {other:?}"),
        }
    };
    while next < batch.len() || inflight > 0 {
        while next < batch.len() && inflight < window {
            let (id, t) = &batch[next];
            client
                .send(&Request::Insert {
                    id: *id,
                    points: t.points().to_vec(),
                })
                .expect("insert send");
            inflight += 1;
            next += 1;
        }
        if inflight > 0 {
            claim(client, &mut inflight, &mut acked_lsn);
        }
    }
    acked_lsn
}

/// Polls a stats connection until the replica's applied-LSN gauge
/// reaches `target`. Returns the elapsed milliseconds, or `None` when
/// the poll budget is exhausted (the replica stalled).
fn await_applied(stats_client: &mut ServeClient, target: u64) -> Option<f64> {
    let start = Instant::now();
    // ~30 s at 1 ms per round: generous for a loaded CI machine, finite
    // so a wedged stream fails the report instead of hanging the bench.
    for _ in 0..30_000 {
        let stats = stats_client.stats().expect("replica stats");
        if stats.counters.repl_applied_lsn >= target {
            return Some(start.elapsed().as_secs_f64() * 1000.0);
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    None
}

fn probe_fingerprint(addr: SocketAddr, query: &Trajectory, k: usize) -> u64 {
    let mut client = ServeClient::connect(addr).expect("probe connect");
    match client
        .kmst(query, mst_search::QueryOptions::new().k(k))
        .expect("probe answer")
    {
        Response::Kmst { matches, .. } => fingerprint(&matches),
        other => panic!("unexpected probe response: {other:?}"),
    }
}

/// Runs the replication benchmark: primary and replica in-process on
/// ephemeral loopback ports, stores in a scratch directory.
pub fn repl_bench(cfg: &ReplBenchConfig) -> ReplReport {
    let scratch: PathBuf = std::env::temp_dir().join(format!(
        "mst-bench-repl-{}-{}",
        std::process::id(),
        cfg.seed
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    let primary_dir = scratch.join("primary");
    let replica_dir = scratch.join("replica");
    let wal_config = WalConfig {
        rotate_bytes: cfg.rotate_kib * 1024,
    };
    let retry = RetryPolicy {
        attempts: 4,
        base_us: 2_000,
        max_us: 100_000,
        seed: cfg.seed,
    };

    // Seed fleet + disjoint pools for the lag bursts and the backlog.
    let total = cfg.objects + cfg.bursts * cfg.burst_size + cfg.backlog;
    let store = DatasetSpec::Synthetic {
        objects: total,
        samples: cfg.samples,
        seed: cfg.seed,
    }
    .build_store();
    let mut all: Vec<(TrajectoryId, Trajectory)> =
        store.iter().map(|(id, t)| (id, t.clone())).collect();
    all.sort_by_key(|(id, _)| id.0);
    let (seed_fleet, rest) = all.split_at(cfg.objects);
    let (lag_pool, backlog_pool) = rest.split_at(cfg.bursts * cfg.burst_size);
    let probe_query = sample_queries(&store, 1, 0.2, cfg.seed ^ 0xFA11)
        .remove(0)
        .query;

    // Primary: seed through the WAL, checkpoint, serve durably.
    let file_store = FileStore::open(&primary_dir).expect("open primary store");
    let mut durable =
        DurableDatabase::<Rtree3D, FileStore>::create(file_store, wal_config, cfg.shards)
            .expect("create primary store");
    let seed_ops: Vec<IngestOp> = seed_fleet
        .iter()
        .map(|(id, t)| IngestOp::Insert {
            id: *id,
            trajectory: t.clone(),
        })
        .collect();
    let (seed_ms, _) = time_ms(|| {
        durable.apply(&seed_ops).expect("seed primary");
        durable.checkpoint().expect("seed checkpoint");
    });
    let primary =
        Server::start_durable(ServerConfig::new().workers(2), durable).expect("primary start");
    let primary_addr = primary.local_addr();

    // Replica: empty store, bootstraps from the primary's snapshot.
    let replica = start_replica(&replica_dir, primary_addr, wal_config, retry);
    let replica_addr = replica.local_addr();

    // Lag phase: burst inserts on the primary, then time how long each
    // acked burst takes to become visible on the replica.
    let mut writer = ServeClient::connect_with_depth(primary_addr, 32).expect("writer connect");
    let mut replica_stats = ServeClient::connect(replica_addr).expect("replica stats connect");
    let mut lags: Vec<f64> = Vec::with_capacity(cfg.bursts);
    let mut converged = true;
    let mut final_lsn = 0u64;
    for burst in lag_pool.chunks(cfg.burst_size) {
        let lsn = pipelined_inserts(&mut writer, burst);
        final_lsn = final_lsn.max(lsn);
        match await_applied(&mut replica_stats, lsn) {
            Some(ms) => lags.push(ms),
            None => {
                converged = false;
                break;
            }
        }
    }
    lags.sort_by(|a, b| a.total_cmp(b));
    // The replica acks what it applied on its next poll; give the
    // primary's gauge the same bounded window to observe it.
    let mut acked_lsn = 0u64;
    let mut heartbeats = 0u64;
    for _ in 0..30_000 {
        let counters = writer.stats().expect("primary stats").counters;
        acked_lsn = counters.repl_acked_lsn;
        heartbeats = counters.repl_heartbeats;
        if acked_lsn >= final_lsn {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let lag = LagPhase {
        bursts: lags.len() as u64,
        records: (cfg.bursts * cfg.burst_size) as u64,
        final_lsn,
        lag_p50_ms: percentile(&lags, 50),
        lag_p99_ms: percentile(&lags, 99),
        lag_max_ms: lags.last().copied().unwrap_or(0.0),
        heartbeats,
        acked_lsn,
        converged,
    };
    eprintln!(
        "[repl] lag: {} bursts, p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms, \
         {} heartbeats, acked LSN {}",
        lag.bursts, lag.lag_p50_ms, lag.lag_p99_ms, lag.lag_max_ms, lag.heartbeats, lag.acked_lsn,
    );

    // Catch-up phase: stop the replica, write the backlog, restart the
    // replica over its recovered store, and time the replay to head.
    let resumed_from_lsn = replica_stats
        .stats()
        .expect("pre-restart stats")
        .counters
        .repl_applied_lsn;
    drop(replica_stats);
    replica.shutdown();
    let head_lsn = pipelined_inserts(&mut writer, backlog_pool);
    let (wall_ms, replica) =
        time_ms(|| start_replica(&replica_dir, primary_addr, wal_config, retry));
    let replica_addr = replica.local_addr();
    let mut replica_stats = ServeClient::connect(replica_addr).expect("replica reconnect");
    let catch_up_converged;
    let wall_ms = match await_applied(&mut replica_stats, head_lsn) {
        Some(extra_ms) => {
            catch_up_converged = true;
            wall_ms + extra_ms
        }
        None => {
            catch_up_converged = false;
            wall_ms
        }
    };
    drop(replica_stats);
    let answer_identical = catch_up_converged
        && probe_fingerprint(primary_addr, &probe_query, 4)
            == probe_fingerprint(replica_addr, &probe_query, 4);
    let catch_up = CatchUpPhase {
        backlog_records: cfg.backlog as u64,
        resumed_from_lsn,
        head_lsn,
        wall_ms,
        records_per_sec: cfg.backlog as f64 / (wall_ms / 1e3).max(1e-9),
        converged: catch_up_converged,
        answer_identical,
    };
    eprintln!(
        "[repl] catch-up: {} records in {:.1} ms ({:.0} records/s), resumed from \
         LSN {}, head {}",
        catch_up.backlog_records,
        catch_up.wall_ms,
        catch_up.records_per_sec,
        catch_up.resumed_from_lsn,
        catch_up.head_lsn,
    );

    // Failover phase: a pool over [primary, replica] loses the primary
    // mid-session; the next read must rotate to the replica.
    drop(writer);
    let mut pool = ClientPool::new(vec![primary_addr, replica_addr], retry).expect("pool build");
    let probe_request = Request::Kmst {
        points: probe_query.points().to_vec(),
        options: mst_search::QueryOptions::new().k(4),
    };
    let truth = match pool.read(&probe_request).expect("pre-death read") {
        Response::Kmst { matches, .. } => fingerprint(&matches),
        other => panic!("unexpected pool response: {other:?}"),
    };
    assert_eq!(
        pool.active_endpoint(),
        Some(0),
        "reads start on the primary"
    );
    primary.shutdown();
    let (failover_ms, failed_over) = time_ms(|| pool.read(&probe_request));
    let failover_fp = match failed_over.expect("failover read") {
        Response::Kmst { matches, .. } => fingerprint(&matches),
        other => panic!("unexpected failover response: {other:?}"),
    };
    let failover = FailoverPhase {
        failover_ms,
        failed_over_to_replica: pool.active_endpoint() == Some(1),
        answer_identical: failover_fp == truth,
        write_refused_without_primary: pool
            .write(&Request::Insert {
                id: TrajectoryId(u64::MAX),
                points: probe_query.points().to_vec(),
            })
            .is_err(),
    };
    eprintln!(
        "[repl] failover: {:.2} ms to the replica (endpoint {:?})",
        failover.failover_ms,
        pool.active_endpoint(),
    );

    drop(pool);
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);

    ReplReport {
        config: cfg.clone(),
        seed_ms,
        lag,
        catch_up,
        failover,
    }
}

fn start_replica(
    dir: &std::path::Path,
    primary: SocketAddr,
    wal_config: WalConfig,
    retry: RetryPolicy,
) -> ServerHandle<Rtree3D> {
    let store = FileStore::open(dir).expect("open replica store");
    Server::start_replica(
        ServerConfig::new().workers(2),
        store,
        wal_config,
        primary,
        retry,
    )
    .expect("replica start")
}

impl ReplReport {
    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let l = &self.lag;
        let u = &self.catch_up;
        let f = &self.failover;
        let mut out = String::new();
        out.push_str("{\n  \"experiment\": \"repl\",\n  \"protocol_version\": 2,\n");
        out.push_str(&format!(
            "  \"config\": {{\"objects\":{},\"samples\":{},\"shards\":{},\"bursts\":{},\
             \"burst_size\":{},\"backlog\":{},\"rotate_kib\":{},\"seed\":{}}},\n",
            c.objects, c.samples, c.shards, c.bursts, c.burst_size, c.backlog, c.rotate_kib, c.seed,
        ));
        out.push_str(&format!("  \"seed_ms\": {:.3},\n", self.seed_ms));
        out.push_str(&format!(
            "  \"lag\": {{\"bursts\":{},\"records\":{},\"final_lsn\":{},\
             \"lag_p50_ms\":{:.3},\"lag_p99_ms\":{:.3},\"lag_max_ms\":{:.3},\
             \"heartbeats\":{},\"acked_lsn\":{},\"converged\":{}}},\n",
            l.bursts,
            l.records,
            l.final_lsn,
            l.lag_p50_ms,
            l.lag_p99_ms,
            l.lag_max_ms,
            l.heartbeats,
            l.acked_lsn,
            l.converged,
        ));
        out.push_str(&format!(
            "  \"catch_up\": {{\"backlog_records\":{},\"resumed_from_lsn\":{},\
             \"head_lsn\":{},\"wall_ms\":{:.3},\"records_per_sec\":{:.1},\
             \"converged\":{},\"answer_identical\":{}}},\n",
            u.backlog_records,
            u.resumed_from_lsn,
            u.head_lsn,
            u.wall_ms,
            u.records_per_sec,
            u.converged,
            u.answer_identical,
        ));
        out.push_str(&format!(
            "  \"failover\": {{\"failover_ms\":{:.3},\"failed_over_to_replica\":{},\
             \"answer_identical\":{},\"write_refused_without_primary\":{}}}\n",
            f.failover_ms,
            f.failed_over_to_replica,
            f.answer_identical,
            f.write_refused_without_primary,
        ));
        out.push_str("}\n");
        out
    }

    /// The CI tripwire (see the module docs). Returns the list of
    /// failures (empty = healthy).
    pub fn validate(&self) -> Vec<String> {
        let mut failures = Vec::new();
        let l = &self.lag;
        let u = &self.catch_up;
        let f = &self.failover;
        if !l.converged {
            failures.push(format!(
                "a lag burst never became visible on the replica ({} of {} measured)",
                l.bursts, self.config.bursts,
            ));
        }
        if l.lag_p99_ms > MAX_LAG_P99_MS {
            failures.push(format!(
                "replication lag p99 {:.1} ms exceeds the {MAX_LAG_P99_MS:.0} ms gate",
                l.lag_p99_ms,
            ));
        }
        if l.acked_lsn < l.final_lsn {
            failures.push(format!(
                "the primary never saw the replica ack LSN {} (stuck at {})",
                l.final_lsn, l.acked_lsn,
            ));
        }
        if l.heartbeats == 0 {
            failures.push(
                "the primary served zero heartbeats — the replica never idled at \
                 the head"
                    .into(),
            );
        }
        if !u.converged {
            failures.push(format!(
                "catch-up never reached the head LSN {} from {}",
                u.head_lsn, u.resumed_from_lsn,
            ));
        }
        if u.head_lsn <= u.resumed_from_lsn {
            failures.push(format!(
                "the backlog left no work: head {} vs resume point {}",
                u.head_lsn, u.resumed_from_lsn,
            ));
        }
        if u.records_per_sec <= 0.0 {
            failures.push("catch-up throughput is not positive".into());
        }
        if !u.answer_identical {
            failures.push(
                "the caught-up replica answered the probe query differently from \
                 the primary"
                    .into(),
            );
        }
        if !f.failed_over_to_replica {
            failures.push("the pool read did not fail over to the replica".into());
        }
        if f.failover_ms > MAX_FAILOVER_MS {
            failures.push(format!(
                "failover took {:.1} ms, over the {MAX_FAILOVER_MS:.0} ms gate",
                f.failover_ms,
            ));
        }
        if !f.answer_identical {
            failures.push("the failed-over answer diverged from the pre-death answer".into());
        }
        if !f.write_refused_without_primary {
            failures.push("a write with no primary did not surface an error".into());
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_healthy_and_serialises() {
        let report = repl_bench(&ReplBenchConfig {
            objects: 16,
            samples: 40,
            shards: 2,
            bursts: 4,
            burst_size: 3,
            backlog: 20,
            rotate_kib: 16,
            seed: 29,
        });
        let failures = report.validate();
        assert!(failures.is_empty(), "{failures:#?}");
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"repl\""));
        assert!(json.contains("\"lag_p99_ms\""));
        assert!(json.contains("\"records_per_sec\""));
        assert!(json.contains("\"failover_ms\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
