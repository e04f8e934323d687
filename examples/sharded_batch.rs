//! Sharded batch execution: partition a moving-object dataset across
//! shards, run a mixed batch of k-MST and kNN queries on a worker pool —
//! each query one search over every shard's tree — count the nodes each
//! query expands, and verify the answers are bit-identical to the
//! single-threaded baseline.
//!
//! Run with: `cargo run --release --example sharded_batch`

use mst::datagen::GstdConfig;
use mst::exec::{BatchExecutor, BatchQuery, QueryAnswer, ShardedDatabase};
use mst::search::{MovingObjectDatabase, Query, TrajectoryStore};
use mst::trajectory::{TimeInterval, TrajectoryId};

fn main() {
    // 1. A synthetic fleet, sharded 4 ways by object id. Each shard gets
    //    its own TB-tree and its own private LRU buffer pool.
    let trajectories = GstdConfig {
        num_objects: 80,
        samples_per_object: 400,
        ..GstdConfig::paper_dataset(80, 7)
    }
    .generate();
    let store = TrajectoryStore::from_trajectories(trajectories);
    let fleet: Vec<_> = store.iter().map(|(id, t)| (id, t.clone())).collect();
    let db = ShardedDatabase::with_tbtree(4, fleet.clone()).expect("shard build");
    println!(
        "sharded database: {} objects across {} shards (object {} lives on shard {})",
        db.num_objects(),
        db.num_shards(),
        17,
        db.shard_of(TrajectoryId(17)),
    );

    // 2. A mixed batch built with the ordinary Query builders: "who moved
    //    like object N during [100, 250]?" for a handful of objects, plus
    //    a couple of trajectory-kNN queries.
    let period = TimeInterval::new(100.0, 250.0).expect("window");
    let mut batch = Vec::new();
    for id in [17u64, 3, 42, 61] {
        let q = db.trajectory(TrajectoryId(id)).expect("known object");
        batch.push(BatchQuery::kmst(Query::kmst(&q).k(5).during(&period)).expect("spec"));
    }
    for id in [8u64, 55] {
        let q = db.trajectory(TrajectoryId(id)).expect("known object");
        batch.push(BatchQuery::knn(Query::knn(&q).k(3).during(&period)).expect("spec"));
    }

    // 3. Run it on 8 workers, one job per query. A query is one best-first
    //    search over all four shards' trees under one k-th threshold, so a
    //    tight match in one tree prunes the other three from their roots.
    let outcome = BatchExecutor::new().workers(8).run(&db, batch);
    println!("\nbatch of {} queries:", outcome.outcomes.len());
    for (i, result) in outcome.outcomes.iter().enumerate() {
        let q = result.as_ref().expect("query succeeded");
        let flavour = match &q.answer {
            QueryAnswer::Kmst(_) => "k-MST",
            QueryAnswer::Knn(_) => "kNN  ",
            QueryAnswer::Segments(_) => "p-kNN",
            QueryAnswer::Range(_) => "range",
        };
        println!(
            "  [{i}] {flavour} {} matches in {:.2} ms (degraded: {})",
            q.answer.len(),
            q.latency_ms(),
            q.degraded,
        );
    }
    let profile = outcome.merged_profile();
    println!(
        "one search per query over {} shards: {:.1} nodes expanded per query",
        db.num_shards(),
        profile.nodes_accessed() as f64 / outcome.outcomes.len() as f64,
    );

    // 4. Determinism check: the sharded, parallel answers are bit-identical
    //    to single-threaded Query::run on an unsharded database.
    let mut baseline = MovingObjectDatabase::with_tbtree();
    for (id, t) in &fleet {
        baseline.insert_trajectory(*id, t).expect("baseline insert");
    }
    for (i, id) in [17u64, 3, 42, 61].into_iter().enumerate() {
        let q = baseline.trajectory(TrajectoryId(id)).expect("known object");
        let want = Query::kmst(&q)
            .k(5)
            .during(&period)
            .run(&baseline)
            .expect("baseline");
        let got = outcome.outcomes[i]
            .as_ref()
            .expect("ok")
            .answer
            .as_kmst()
            .expect("kmst answer");
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.traj, w.traj);
            assert_eq!(g.dissim.to_bits(), w.dissim.to_bits());
        }
    }
    println!("verified: batch answers are bit-identical to the single-threaded baseline");

    // 5. Deadlines degrade gracefully: a 1 µs budget cannot finish, so
    //    every query comes back flagged instead of blocking the batch.
    let mut rushed = Vec::new();
    for id in [17u64, 3] {
        let q = db.trajectory(TrajectoryId(id)).expect("known object");
        rushed.push(BatchQuery::kmst(Query::kmst(&q).k(5).during(&period)).expect("spec"));
    }
    let hurried = BatchExecutor::new()
        .workers(4)
        .deadline_us(1)
        .run(&db, rushed);
    println!(
        "with a 1 µs deadline: {}/{} queries degraded (best-effort answers, no errors)",
        hurried.degraded_count(),
        hurried.outcomes.len(),
    );
}
