//! The four workloads and the harness the three read-only ones share.
//!
//! A workload is a fixed request stream run in **passes**: one warm-up pass,
//! then measured passes until `--seconds` have gone by (a pass is never cut
//! short). A reported timing is the median over measured passes of the
//! per-pass statistic, which is what keeps a tail percentile steady.
//! Counts are pinned in [`Size`], never derived from the clock, so the work
//! in a pass is the same on every host and every commit.

pub mod batch_long;
pub mod engine_short;
pub mod serve_ingest;
pub mod serve_read;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mst_exec::ShardedDatabase;
use mst_index::Rtree3D;
use mst_search::{scan_kmst, Integration, TrajectoryStore};

use crate::inputs::{answer_fingerprint, Fleet, QuerySpec, K};
use crate::stats;
use crate::trace::{Clock, Span};

/// Workload names, in reporting order.
pub const NAMES: [&str; 4] = ["engine_short", "batch_long", "serve_read", "serve_ingest"];

/// Why each workload exists, one line each (`BENCHMARK.json` carries them).
pub const WHY: [&str; 4] = [
    "Short queries on one R-tree 14x its buffer, one thread: descent-bound (fetch, checksum, decode, LRU, MINDIST). Page-layer work shows here; page counts repeat exactly.",
    "Long queries via BatchExecutor, 2 workers x 2 shards, index fully buffered: kernel- and exec-bound (integrals, queue, merge, SharedBound, index mutex). Hides page-layer work.",
    "Closed loop, 2 pipelined TCP connections, half hot-set half distinct 2% queries: socket, codec, coalescer and answer cache dominate. A kernel speed-up must not move it.",
    "Paced durable inserts beside closed-loop reads on a WAL-backed server, then recovery: fsync, R-tree insert, readers queueing behind the writer. Read/write trade-offs show only here.",
];

/// The host has two cores: no workload drives load from more threads.
pub const MAX_LOAD_THREADS: usize = 2;

/// The default `--seed`; its input digests are pinned.
pub const DEFAULT_SEED: u64 = 7;

/// How much one workload runs on.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub objects: usize,
    pub samples: usize,
    /// Requests per object and query length in one pass.
    pub per_cell: usize,
    /// Requests held to the exact scan.
    pub oracle_samples: usize,
    /// Cold set-ups whose median is reported.
    pub setup_reps: usize,
}

/// How a run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Test-only: corrupt one oracle answer so the run must fail.
    pub plant_wrong: bool,
}

impl Ctx {
    /// Set-up repetitions: a traced run reports no `setup_s`, so it sets
    /// up once.
    pub fn setup_reps(&self, reps: usize) -> usize {
        if self.trace {
            1
        } else {
            reps
        }
    }
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// FNV digest of the generated dataset and request stream.
    pub input_digest: u64,
    /// Human-readable facts printed with the metrics (sample counts, sizes).
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

/// Runs one workload by name.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "engine_short" => engine_short::run(ctx),
        "batch_long" => batch_long::run(ctx),
        "serve_read" => serve_read::run(ctx),
        "serve_ingest" => serve_ingest::run(ctx),
        other => Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
    }
}

/// Hard-fails when the default seed no longer generates the pinned inputs:
/// a later edit to `mst-datagen`/`mst-prng` must not silently change what
/// is measured. Other seeds and smoke sizes run unpinned.
pub fn check_pin(workload: &str, ctx: &Ctx, digest: u64, pinned: u64) -> Result<(), String> {
    if ctx.seed == DEFAULT_SEED && !ctx.smoke && digest != pinned {
        return Err(format!(
            "{workload}: default-seed input digest {digest:#018x} differs from the pinned \
             {pinned:#018x} — the generators changed what this benchmark measures"
        ));
    }
    Ok(())
}

/// Builds the stack `reps` times and keeps the last; returns it with the
/// median build time. Each discarded build is dropped before the next
/// starts, so peak memory is one stack's.
pub fn timed_setups<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut rep = 0;
    loop {
        rep += 1;
        let start = Instant::now();
        let stack = build();
        times.push(start.elapsed().as_secs_f64());
        if rep >= reps.max(1) {
            return (stack, stats::median(&mut times));
        }
        drop(stack);
    }
}

/// The in-run oracle: `samples` evenly spaced requests of the stream,
/// answered by the exact linear scan. Returns `(stream index, fingerprint)`.
pub fn oracle(
    store: &TrajectoryStore,
    queries: &[QuerySpec],
    samples: usize,
    ctx: &Ctx,
) -> Vec<(usize, u64)> {
    let stride = (queries.len() / samples.max(1)).max(1);
    let picks: Vec<usize> = (0..queries.len()).step_by(stride).take(samples).collect();
    let scan = |i: &usize| {
        let q = &queries[*i];
        let exact = scan_kmst(store, &q.query, &q.period, K, Integration::Exact)
            .expect("the scan answers every generated query");
        (*i, answer_fingerprint(&exact))
    };
    let (left, right) = picks.split_at(picks.len() / 2);
    let mut checked: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let other = scope.spawn(|| right.iter().map(scan).collect::<Vec<_>>());
        let mut mine: Vec<_> = left.iter().map(scan).collect();
        mine.extend(other.join().expect("oracle thread panicked"));
        mine
    });
    if ctx.plant_wrong {
        if let Some(first) = checked.first_mut() {
            first.1 ^= 1;
        }
    }
    checked
}

/// One pass over a request stream.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Per-request latency, milliseconds.
    pub lat_ms: Vec<f64>,
    /// `(query index, answer fingerprint)` per answered request.
    pub answers: Vec<(usize, u64)>,
    /// Requests that errored, were refused or came back degraded.
    pub failed: u64,
    /// Index nodes read while the pass ran.
    pub nodes_read: u64,
    /// Request spans, when traced; their parent is span 0, the pass itself,
    /// which [`measure`] puts in front.
    pub spans: Vec<Span>,
}

/// A built stack that can run its request stream.
pub trait ReadStack {
    fn pass(&mut self, clock: Option<&Clock>) -> Pass;
}

/// Remembers the first answer to every distinct query and counts every
/// later answer that differs — across requests, passes and connections.
/// Pre-loaded with the oracle, so the sampled queries are held to the scan.
#[derive(Debug)]
pub struct AnswerLedger {
    expected: Vec<Option<u64>>,
}

impl AnswerLedger {
    pub fn new(queries: usize, oracle: &[(usize, u64)]) -> Self {
        let mut expected = vec![None; queries];
        for (index, fingerprint) in oracle {
            expected[*index] = Some(*fingerprint);
        }
        AnswerLedger { expected }
    }

    /// Number of answers that disagree with what the ledger holds.
    pub fn check(&mut self, answers: &[(usize, u64)]) -> u64 {
        let mut wrong = 0;
        for (index, fingerprint) in answers {
            match &mut self.expected[*index] {
                Some(expected) if expected != fingerprint => wrong += 1,
                Some(_) => {}
                slot => *slot = Some(*fingerprint),
            }
        }
        wrong
    }
}

/// Medians over the measured passes.
#[derive(Debug, Default, Clone)]
pub struct ReadSummary {
    pub passes: usize,
    pub samples_per_pass: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub queries_per_s: f64,
    pub nodes_per_query: f64,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// Runs measured passes until `seconds` have gone by (at least two).
pub fn measure(
    stack: &mut impl ReadStack,
    ledger: &mut AnswerLedger,
    seconds: f64,
    clock: Option<&Clock>,
) -> ReadSummary {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut summary = ReadSummary::default();
    let (mut p50, mut p99, mut qps, mut nodes) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while summary.passes < 2 || start.elapsed() < budget {
        let pass_start_ns = clock.map(Clock::now_ns);
        let mut pass = stack.pass(clock);
        if let (Some(clock), Some(start_ns)) = (clock, pass_start_ns) {
            pass.spans.insert(
                0,
                Span {
                    name: "pass",
                    request_id: 0,
                    parent: None,
                    start_ns,
                    end_ns: clock.now_ns(),
                },
            );
        }
        let requests = pass.lat_ms.len() as u64 + pass.failed;
        summary.attempted += requests;
        summary.failed += pass.failed + ledger.check(&pass.answers);
        summary.samples_per_pass = pass.lat_ms.len();
        stats::sort(&mut pass.lat_ms);
        p50.push(stats::percentile(&pass.lat_ms, 50.0));
        p99.push(stats::percentile(&pass.lat_ms, 99.0));
        qps.push(requests as f64 / pass.wall_s);
        nodes.push(pass.nodes_read as f64 / requests as f64);
        let offset = summary.spans.len() as u32;
        summary.spans.extend(pass.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
        summary.passes += 1;
    }
    summary.p50_ms = stats::median(&mut p50);
    summary.p99_ms = stats::median(&mut p99);
    summary.queries_per_s = stats::median(&mut qps);
    summary.nodes_per_query = stats::median(&mut nodes);
    summary
}

/// Total pages of a sharded database and, pinned as its buffer capacity,
/// "the whole index fits".
pub fn sharded_pages(db: &ShardedDatabase<Rtree3D>) -> usize {
    use mst_index::TrajectoryIndex as _;
    db.shards()
        .iter()
        .map(|shard| {
            shard
                .index()
                .with(|index| index.num_pages())
                .expect("shard index lock")
        })
        .sum()
}

/// MiB of `pages` 4 KiB pages.
pub fn pages_mb(pages: usize) -> f64 {
    (pages * mst_index::PAGE_SIZE) as f64 / (1024.0 * 1024.0)
}

/// The read-only workloads' common tail: warm up, measure, and fill in the
/// end-to-end metrics. `setup_s` is the median cold build plus the one
/// warm-up pass, so work a change moves into either shows.
pub fn finish_reads(
    ctx: &Ctx,
    stack: &mut impl ReadStack,
    ledger: &mut AnswerLedger,
    build_s: f64,
    index_pages: usize,
    input_digest: u64,
) -> Outcome {
    let warm = Instant::now();
    let mut warmup = stack.pass(None);
    let warm_s = warm.elapsed().as_secs_f64();
    let warm_failed = warmup.failed + ledger.check(&warmup.answers);
    warmup.lat_ms.clear();

    let mut outcome = Outcome {
        input_digest,
        ..Outcome::default()
    };
    let summary = if ctx.trace {
        // Half the time untraced, half traced: the difference between the
        // two medians is what recording spans costs.
        let plain = measure(stack, ledger, ctx.seconds / 2.0, None);
        let clock = Clock::start();
        let traced = measure(stack, ledger, ctx.seconds / 2.0, Some(&clock));
        outcome
            .metrics
            .insert("trace.overhead_share", traced.p50_ms / plain.p50_ms - 1.0);
        outcome.attempted += plain.attempted;
        outcome.failed += plain.failed;
        traced
    } else {
        measure(stack, ledger, ctx.seconds, None)
    };
    outcome.attempted += summary.attempted + warmup.answers.len() as u64 + warmup.failed;
    outcome.failed += summary.failed + warm_failed;
    outcome.notes.push(format!(
        "{} measured passes of {} requests; {} samples beyond p99 per pass",
        summary.passes,
        summary.samples_per_pass,
        stats::beyond(summary.samples_per_pass, 99.0)
    ));
    let m = &mut outcome.metrics;
    m.insert("setup_s", build_s + warm_s);
    m.insert("query_p50_ms", summary.p50_ms);
    m.insert("query_p99_ms", summary.p99_ms);
    m.insert("queries_per_s", summary.queries_per_s);
    m.insert("pages_per_query", summary.nodes_per_query);
    m.insert("index_mb", pages_mb(index_pages));
    m.insert("peak_rss_mb", crate::env::peak_rss_mb());
    outcome.spans = summary.spans;
    outcome
}

/// What the traced extras need from a workload once its run is over: the
/// data, a sample of the stream, and the database behind a shard seam.
pub struct TraceInputs {
    pub fleet: Fleet,
    pub queries: Vec<QuerySpec>,
    pub db: Arc<ShardedDatabase<Rtree3D>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn smoke(trace: bool, plant_wrong: bool) -> Ctx {
        Ctx {
            seed: DEFAULT_SEED,
            seconds: 0.3,
            trace,
            smoke: true,
            plant_wrong,
        }
    }

    #[test]
    fn every_workload_smokes_clean_and_reports_every_end_to_end_metric() {
        for name in NAMES {
            let outcome = run(name, &smoke(false, false)).unwrap();
            assert_eq!(outcome.failed, 0, "{name}");
            assert!(outcome.attempted > 0, "{name}");
            for metric in END_TO_END {
                let value = outcome.metrics.get(metric.name).copied();
                assert!(
                    value.is_some_and(|v| v.is_finite() && v > 0.0),
                    "{name} {}: {value:?}",
                    metric.name
                );
            }
        }
    }

    #[test]
    fn a_traced_smoke_reports_every_layer_metric_and_spans() {
        for name in NAMES {
            let outcome = run(name, &smoke(true, false)).unwrap();
            assert_eq!(outcome.failed, 0, "{name}");
            for metric in PER_LAYER {
                let value = outcome.metrics.get(metric.name).copied();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name} {}: {value:?}",
                    metric.name
                );
            }
            for span in ["pass", "onion.serve", "onion.exec", "onion.search"] {
                assert!(
                    outcome.spans.iter().any(|s| s.name == span),
                    "{name} {span}"
                );
            }
        }
    }

    #[test]
    fn a_planted_wrong_answer_fails_every_workload() {
        for name in NAMES {
            let outcome = run(name, &smoke(false, true)).unwrap();
            assert!(
                outcome.failed > 0,
                "{name} did not notice the planted answer"
            );
        }
    }

    #[test]
    fn the_ledger_holds_later_answers_to_the_first_and_to_the_oracle() {
        let mut ledger = AnswerLedger::new(3, &[(1, 77)]);
        assert_eq!(ledger.check(&[(0, 5), (1, 77), (2, 9)]), 0);
        assert_eq!(ledger.check(&[(0, 5), (1, 78), (2, 8)]), 2);
        assert_eq!(ledger.check(&[(0, 5)]), 0);
    }

    #[test]
    fn setups_report_the_median_and_keep_the_last_build() {
        let mut built = 0;
        let (kept, median_s) = timed_setups(3, || {
            built += 1;
            std::thread::sleep(Duration::from_millis(5 * built));
            built
        });
        assert_eq!((kept, built), (3, 3));
        assert!((0.009..0.014).contains(&median_s), "{median_s}");
    }

    #[test]
    fn pins_guard_only_the_default_seed_at_full_size() {
        let full = Ctx {
            smoke: false,
            ..smoke(false, false)
        };
        assert!(check_pin("w", &full, 1, 2).is_err());
        assert!(check_pin("w", &full, 2, 2).is_ok());
        assert!(check_pin("w", &Ctx { seed: 11, ..full }, 1, 2).is_ok());
        assert!(check_pin("w", &smoke(false, false), 1, 2).is_ok());
    }
}
