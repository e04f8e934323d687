//! `engine_short`: short k-MST queries against one 3D R-tree, in process,
//! on one thread, with the buffer at the paper's rule (10 % of the index,
//! at most 1000 pages) — the index is an order of magnitude larger than
//! the cache.
//!
//! Short queries are descent-bound: node fetch, checksum, `Node::decode`,
//! LRU bookkeeping and MINDIST dominate, the DISSIM kernels do little.
//! Single-threaded, so page counts repeat exactly for a seed.
//!
//! The query runs through `KmstSubstrate::kmst_search`, the entry
//! `Query::kmst(..).run(..)` dispatches to; the `MovingObjectDatabase`
//! facade in front of it cannot wrap an index built in arrival order.

use std::sync::Arc;
use std::time::Instant;

use mst_exec::ShardedDatabase;
use mst_index::{Rtree3D, TrajectoryIndex};
use mst_prng::Rng;
use mst_search::{KmstSubstrate, MstConfig, NoShare, NoopSink, TrajectoryStore};

use super::{
    check_pin, finish_reads, oracle, timed_setups, AnswerLedger, Ctx, Outcome, Pass, ReadStack,
    Size, TraceInputs,
};
use crate::inputs::{
    answer_fingerprint, build_rtree, gstd, store_of, stratified_queries, Fnv, QuerySpec, K,
};
use crate::trace::{Clock, Span};

/// Query lengths, as shares of a trajectory's lifetime.
pub const LENGTHS: [f64; 3] = [0.01, 0.02, 0.05];

const PINNED_DIGEST: u64 = 0xc383_a4f4_2456_c82d;

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            objects: 40,
            samples: 300,
            per_cell: 2,
            oracle_samples: 40,
            setup_reps: 1,
        }
    } else {
        Size {
            objects: 250,
            samples: 2000,
            per_cell: 5,
            oracle_samples: 200,
            setup_reps: 3,
        }
    }
}

struct Engine {
    index: Rtree3D,
    store: TrajectoryStore,
    queries: Vec<QuerySpec>,
}

impl ReadStack for Engine {
    fn pass(&mut self, clock: Option<&Clock>) -> Pass {
        let mut pass = Pass::default();
        let config = MstConfig::k(K);
        self.index.reset_stats();
        let start = Instant::now();
        for (i, q) in self.queries.iter().enumerate() {
            let sent = Instant::now();
            let sent_ns = clock.map(Clock::now_ns);
            let answer = self.index.kmst_search(
                &self.store,
                &q.query,
                &q.period,
                &config,
                &NoShare,
                &mut NoopSink,
            );
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            match answer {
                Ok(report) => {
                    pass.lat_ms.push(ms);
                    pass.answers.push((i, answer_fingerprint(&report.matches)));
                }
                Err(_) => pass.failed += 1,
            }
            if let (Some(clock), Some(start_ns)) = (clock, sent_ns) {
                pass.spans.push(Span {
                    name: "search.kmst",
                    request_id: i as u64,
                    parent: Some(0),
                    start_ns,
                    end_ns: clock.now_ns(),
                });
            }
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.nodes_read = self.index.stats().node_reads;
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
        &mut Rng::seed_from(ctx.seed ^ 0xE5),
    );
    let mut digest = Fnv::default();
    digest.eat_fleet(&fleet);
    digest.eat_queries(&queries);
    check_pin("engine_short", ctx, digest.0, PINNED_DIGEST)?;

    // Set-up as a caller pays it: generate the data, build the index.
    let ((index, store), build_s) = timed_setups(ctx.setup_reps(size.setup_reps), || {
        let fleet = generate();
        (build_rtree(&fleet), store_of(&fleet))
    });
    let checked = oracle(&store, &queries, size.oracle_samples, ctx);
    let mut ledger = AnswerLedger::new(queries.len(), &checked);
    let pages = index.num_pages();
    let mut engine = Engine {
        index,
        store,
        queries,
    };
    let mut outcome = finish_reads(ctx, &mut engine, &mut ledger, build_s, pages, digest.0);
    outcome.notes.push(format!(
        "S{:04} x {} samples, {} pages, buffer at the paper's rule ({} pages)",
        size.objects,
        size.samples,
        pages,
        (pages / 10).clamp(8, 1000),
    ));
    if ctx.trace {
        // The shard seam over the same data: one shard built in the same
        // arrival order is this very tree.
        drop(engine.index);
        let db = ShardedDatabase::with_rtree(1, fleet.clone()).map_err(|e| e.to_string())?;
        crate::layers::traced_extras(
            ctx,
            &TraceInputs {
                fleet,
                queries: engine.queries,
                db: Arc::new(db),
            },
            &mut outcome,
        )?;
    }
    Ok(outcome)
}
