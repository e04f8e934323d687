//! Measures steady-state replication lag, catch-up throughput after a
//! replica outage, and client failover time, over a real primary/replica
//! pair on loopback TCP with file-backed stores. The report goes under
//! `target/`: it is a liveness record of one run, not a tracked number.
//!
//! Usage: `cargo run -p mst-bench --release --bin repl --
//! [--smoke] [--objects 150] [--samples 200] [--shards 4] [--bursts 30]
//! [--burst-size 8] [--backlog 400] [--rotate-kib 256] [--seed 29]
//! [--out target/repl_bench.json]`
//!
//! `--smoke` selects the small CI configuration. The process exits
//! non-zero when [`ReplReport::validate`] trips: a burst that never
//! became visible on the replica, a p99 lag over the gate, a catch-up
//! that failed to converge bit-identically, a failover that missed the
//! replica or exceeded its budget, or a write that landed with no
//! primary alive.
//!
//! [`ReplReport::validate`]: mst_bench::experiments::ReplReport::validate

use mst_bench::args::Args;
use mst_bench::experiments::{repl_bench, ReplBenchConfig};

fn main() {
    let args = Args::from_env();
    let base = if args.has("smoke") {
        ReplBenchConfig::smoke()
    } else {
        ReplBenchConfig::default()
    };
    let cfg = ReplBenchConfig {
        objects: args.get("objects", base.objects),
        samples: args.get("samples", base.samples),
        shards: args.get("shards", base.shards),
        bursts: args.get("bursts", base.bursts),
        burst_size: args.get("burst-size", base.burst_size),
        backlog: args.get("backlog", base.backlog),
        rotate_kib: args.get("rotate-kib", base.rotate_kib),
        seed: args.get("seed", base.seed),
    };
    eprintln!(
        "[repl] {} seed objects x {} samples in {} shards; {} bursts x {} inserts \
         under a live replica, a {}-record backlog, then a failover...",
        cfg.objects, cfg.samples, cfg.shards, cfg.bursts, cfg.burst_size, cfg.backlog,
    );
    let report = repl_bench(&cfg);
    let out = std::path::PathBuf::from(args.get("out", String::from("target/repl_bench.json")));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create report directory");
    }
    std::fs::write(&out, report.to_json()).expect("write report");
    eprintln!("[repl] wrote {}", out.display());
    let failures = report.validate();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[repl] FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "[repl] lag p50 {:.2} ms / p99 {:.2} ms; catch-up {:.0} records/s over {} \
         records; failover {:.2} ms",
        report.lag.lag_p50_ms,
        report.lag.lag_p99_ms,
        report.catch_up.records_per_sec,
        report.catch_up.backlog_records,
        report.failover.failover_ms,
    );
}
