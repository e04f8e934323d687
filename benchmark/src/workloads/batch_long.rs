//! `batch_long`: long k-MST queries through `BatchExecutor` with two
//! workers over a two-shard database whose buffers hold the whole index.
//!
//! Long queries are kernel-bound (trinomial integrals, piece evaluations,
//! candidate bookkeeping) and, with 2 workers on 2 shards, exec-bound
//! (queue, merge, `SharedBound`, the whole-index mutex). The page layer
//! does almost nothing: the "fits in cache" workload. It shows kernel and
//! scaling work and hides page-layer work.
//!
//! Per-query latency is `QueryOutcome::latency_us`, the figure the batch
//! API hands its caller; throughput is requests over the wall time of
//! `BatchExecutor::run`, measured from outside.

use std::sync::Arc;
use std::time::Instant;

use mst_exec::{BatchExecutor, BatchQuery, ShardedDatabase};
use mst_index::Rtree3D;
use mst_prng::Rng;
use mst_search::Query;

use super::{
    check_pin, finish_reads, oracle, sharded_pages, timed_setups, AnswerLedger, Ctx, Outcome, Pass,
    ReadStack, Size, TraceInputs,
};
use crate::inputs::{answer_fingerprint, gstd, store_of, stratified_queries, Fnv, QuerySpec, K};
use crate::trace::{Clock, Span};

/// Query lengths, as shares of a trajectory's lifetime.
pub const LENGTHS: [f64; 3] = [0.25, 0.5, 1.0];
pub const SHARDS: usize = 2;
pub const WORKERS: usize = 2;

const PINNED_DIGEST: u64 = 0xe7eb_1df1_e411_fb3a;

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            objects: 40,
            samples: 300,
            per_cell: 1,
            oracle_samples: 24,
            setup_reps: 1,
        }
    } else {
        Size {
            objects: 250,
            samples: 500,
            per_cell: 2,
            oracle_samples: 100,
            setup_reps: 3,
        }
    }
}

/// The requests of a stream as batch entries.
pub fn batch_of(queries: &[QuerySpec]) -> Vec<BatchQuery> {
    queries
        .iter()
        .map(|q| {
            BatchQuery::kmst(Query::kmst(&q.query).k(K).during(&q.period))
                .expect("generated queries cover their periods")
        })
        .collect()
}

struct Batch {
    db: Arc<ShardedDatabase<Rtree3D>>,
    executor: BatchExecutor,
    batch: Vec<BatchQuery>,
}

impl ReadStack for Batch {
    fn pass(&mut self, clock: Option<&Clock>) -> Pass {
        let mut pass = Pass::default();
        let batch = self.batch.clone();
        let start_ns = clock.map(Clock::now_ns);
        let start = Instant::now();
        let outcome = self.executor.run(&self.db, batch);
        pass.wall_s = start.elapsed().as_secs_f64();
        if let (Some(clock), Some(start_ns)) = (clock, start_ns) {
            pass.spans.push(Span {
                name: "exec.batch_run",
                request_id: 0,
                parent: Some(0),
                start_ns,
                end_ns: clock.now_ns(),
            });
        }
        pass.nodes_read = outcome.merged_profile().nodes_accessed();
        for (i, result) in outcome.outcomes.iter().enumerate() {
            match result {
                Ok(q) if !q.degraded => match q.answer.as_kmst() {
                    Some(matches) => {
                        pass.lat_ms.push(q.latency_ms());
                        pass.answers.push((i, answer_fingerprint(matches)));
                    }
                    None => pass.failed += 1,
                },
                _ => pass.failed += 1,
            }
        }
        pass
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let size = size(ctx.smoke);
    let generate = || gstd(size.objects, size.samples);
    let fleet = generate();
    let queries = stratified_queries(
        &fleet,
        &LENGTHS,
        size.per_cell,
        &mut Rng::seed_from(ctx.seed ^ 0xB1),
    );
    let mut digest = Fnv::default();
    digest.eat_fleet(&fleet);
    digest.eat_queries(&queries);
    check_pin("batch_long", ctx, digest.0, PINNED_DIGEST)?;

    let (db, build_s) = timed_setups(ctx.setup_reps(size.setup_reps), || {
        let db = ShardedDatabase::with_rtree(SHARDS, generate()).expect("shard build");
        // Every shard may cache the whole index: nothing is ever evicted.
        db.set_buffer_capacity(Some(sharded_pages(&db)))
            .expect("buffer capacity");
        db
    });
    let checked = oracle(&store_of(&fleet), &queries, size.oracle_samples, ctx);
    let mut ledger = AnswerLedger::new(queries.len(), &checked);
    let pages = sharded_pages(&db);
    let mut stack = Batch {
        db: Arc::new(db),
        executor: BatchExecutor::new().workers(WORKERS),
        batch: batch_of(&queries),
    };
    let mut outcome = finish_reads(ctx, &mut stack, &mut ledger, build_s, pages, digest.0);
    outcome.notes.push(format!(
        "S{:04} x {} samples on {SHARDS} shards, {pages} pages, all buffered; {WORKERS} workers",
        size.objects, size.samples,
    ));
    if ctx.trace {
        crate::layers::traced_extras(
            ctx,
            &TraceInputs {
                fleet,
                queries,
                db: stack.db,
            },
            &mut outcome,
        )?;
    }
    Ok(outcome)
}
