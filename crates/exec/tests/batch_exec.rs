//! End-to-end tests of the sharded batch executor, centred on the PR's
//! headline guarantee: parallel, sharded execution changes *performance*,
//! never *answers*.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mst_datagen::fixtures::{lane_fleet, mixed_lifetime_fleet, twins_fleet};
use mst_exec::{BatchExecutor, BatchQuery, ExecError, IngestOp, QueryAnswer, ShardedDatabase};
use mst_index::mindist::segment_rect_mindist;
use mst_index::{
    FaultConfig, IndexError, KnnMatch, LeafEntry, MetricTree, MetricsSink, Rtree3D, StrTree,
    TbTree, TrajectoryIndex, TrajectoryIndexWrite,
};
use mst_search::dissim::dissim_between;
use mst_search::{
    scan_kmst, Integration, KmstSubstrate, MovingObjectDatabase, MstMatch, NnMatch, NoShare,
    NoopSink, Query, QueryMetrics, QueryOptions, QueryProfile, SearchError, Substrate,
    TrajectoryStore,
};
use mst_trajectory::{Mbb, Point, Rect, TimeInterval, Trajectory, TrajectoryId};

/// The batch used throughout: a few k-MST queries (one with a range-MST
/// ceiling), a couple of kNN queries, a point-kNN query and a range query
/// over the whole plane for two time units mid-period (so every shard
/// holds hits), all built with the ordinary `Query` builder.
fn batch_for(fleet: &[(TrajectoryId, Trajectory)], period: &TimeInterval) -> Vec<BatchQuery> {
    let mut batch = Vec::new();
    for qid in [0u64, 1, 4] {
        let q = &fleet[qid as usize].1;
        batch.push(BatchQuery::kmst(Query::kmst(q).k(5).during(period)).expect("kmst spec"));
    }
    let q = &fleet[2].1;
    batch.push(
        BatchQuery::kmst(Query::kmst(q).k(8).during(period).within(500.0)).expect("range spec"),
    );
    for qid in [0u64, 3] {
        let q = &fleet[qid as usize].1;
        batch.push(BatchQuery::knn(Query::knn(q).k(4).during(period)).expect("knn spec"));
    }
    let probe = Probe::new(fleet[0].1.clone(), *period, 6);
    let segments = Query::knn_segments(probe.location()).k(6).during(period);
    batch.push(BatchQuery::knn_segments(segments).expect("segments spec"));
    let middle = (period.start() + period.end()) / 2.0;
    let slice = Mbb::new(-1e9, -1e9, middle - 1.0, 1e9, 1e9, middle + 1.0);
    batch.push(BatchQuery::range(Query::range(&slice)));
    batch
}

fn baseline_answers<I: KmstSubstrate>(
    db: &MovingObjectDatabase<I>,
    fleet: &[(TrajectoryId, Trajectory)],
    period: &TimeInterval,
) -> (Vec<Vec<MstMatch>>, Vec<Vec<NnMatch>>) {
    let mut kmst = Vec::new();
    for qid in [0u64, 1, 4] {
        let q = &fleet[qid as usize].1;
        kmst.push(
            Query::kmst(q)
                .k(5)
                .during(period)
                .run(db)
                .expect("baseline kmst"),
        );
    }
    let q = &fleet[2].1;
    kmst.push(
        Query::kmst(q)
            .k(8)
            .during(period)
            .within(500.0)
            .run(db)
            .expect("baseline range"),
    );
    let mut knn = Vec::new();
    for qid in [0u64, 3] {
        let q = &fleet[qid as usize].1;
        knn.push(
            Query::knn(q)
                .k(4)
                .during(period)
                .run(db)
                .expect("baseline knn"),
        );
    }
    (kmst, knn)
}

fn assert_kmst_identical(got: &[MstMatch], want: &[MstMatch], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: result count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.traj, w.traj, "{what}: trajectory id");
        assert_eq!(
            g.dissim.to_bits(),
            w.dissim.to_bits(),
            "{what}: dissim must be bit-identical ({} vs {})",
            g.dissim,
            w.dissim
        );
    }
}

fn assert_knn_identical(got: &[NnMatch], want: &[NnMatch], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: result count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.traj, w.traj, "{what}: trajectory id");
        assert_eq!(
            g.distance.to_bits(),
            w.distance.to_bits(),
            "{what}: distance must be bit-identical"
        );
    }
}

/// Satellite (a): batch answers are bit-identical for 1/2/8 workers and
/// 1 vs 4 shards, and match the single-threaded `Query::run` baseline on
/// the unsharded database — on both index substrates. Then the parity grid
/// on every substrate, over the fleets built to break it.
#[test]
fn batch_execution_is_deterministic_across_workers_and_shards() {
    let fleet = lane_fleet(24, 30);
    let period = TimeInterval::new(0.0, 29.0).expect("period");

    let rtree_base = MovingObjectDatabase::build(Rtree3D::new(), fleet.clone()).expect("baseline");
    let rtree_want = baseline_answers(&rtree_base, &fleet, &period);
    let tbtree_base = MovingObjectDatabase::build(TbTree::new(), fleet.clone()).expect("baseline");
    let tbtree_want = baseline_answers(&tbtree_base, &fleet, &period);
    // The substrates agree with each other too — same exact values.
    for (r, t) in rtree_want.0.iter().zip(&tbtree_want.0) {
        assert_kmst_identical(r, t, "rtree vs tbtree baseline");
    }

    for shards in [1usize, 4] {
        let rtree_db = ShardedDatabase::with_rtree(shards, fleet.clone()).expect("shard build");
        let tbtree_db = ShardedDatabase::with_tbtree(shards, fleet.clone()).expect("shard build");
        let what = format!("shards={shards}");
        check_against_baseline(
            &rtree_db,
            &fleet,
            &period,
            &rtree_want,
            &format!("rtree {what}"),
        );
        check_against_baseline(
            &tbtree_db,
            &fleet,
            &period,
            &tbtree_want,
            &format!("tbtree {what}"),
        );
    }

    // The grid: every substrate x {1, 2, 3, 4} shards x {1, 2} workers x
    // k-MST, range-MST, kNN, point-kNN and range, against unsharded
    // `Query::run` (and the exact scan for k-MST, brute force for point-kNN
    // and range), on the lanes and on the fleets built to break
    // it — one trajectory under two ids and equal-DISSIM ties at the kth
    // place (`id % 2` splits every tied pair across shards), and objects
    // alive for only part of the query period.
    let lane_probes: Vec<Probe> = [0usize, 2, 5]
        .iter()
        .map(|&i| Probe::new(fleet[i].1.clone(), period, 5))
        .collect();
    parity_grid("lanes", &fleet, &lane_probes);

    let (twin_query, twins) = twins_fleet();
    let twin_probes: Vec<Probe> = (1..=twins.len())
        .map(|k| Probe::new(twin_query.clone(), twin_query.time(), k))
        .collect();
    parity_grid("twins", &twins, &twin_probes);

    let mixed = mixed_lifetime_fleet(24, 120, 13);
    let mixed_probes: Vec<Probe> = [0usize, 3, 6, 9]
        .iter()
        .map(|&i| {
            let span = mixed[i].1.time();
            let quarter = span.duration() * 0.25;
            let middle = TimeInterval::new(span.start() + quarter, span.end() - quarter);
            let middle = middle.expect("period");
            Probe::new(mixed[i].1.clip(&middle).expect("clip"), middle, 5)
        })
        .collect();
    parity_grid("mixed lifetimes", &mixed, &mixed_probes);
}

/// One parity probe: a query over a period, asked as k-MST, as range-MST
/// (ceiling at the exact DISSIM of the scan's middle answer, so the
/// ceiling cuts), as kNN, as point-kNN (the k segments nearest where the
/// query is at the middle of the period) and as a range query (the query's
/// box over the middle half of the period, widened by half its larger
/// side).
struct Probe {
    query: Trajectory,
    period: TimeInterval,
    k: usize,
}

/// A probe's five answers.
struct Answers {
    kmst: Vec<MstMatch>,
    range_mst: Vec<MstMatch>,
    knn: Vec<NnMatch>,
    segments: Vec<KnnMatch>,
    range: Vec<LeafEntry>,
}

impl Probe {
    fn new(query: Trajectory, period: TimeInterval, k: usize) -> Self {
        Probe { query, period, k }
    }

    fn theta(&self, store: &TrajectoryStore) -> f64 {
        let scan = scan_kmst(store, &self.query, &self.period, self.k, Integration::Exact);
        let scan = scan.expect("scan");
        scan[scan.len() / 2].dissim
    }

    fn location(&self) -> Point {
        let middle = (self.period.start() + self.period.end()) / 2.0;
        self.query.position_at(middle).expect("middle position")
    }

    fn window(&self) -> Mbb {
        let quarter = self.period.duration() * 0.25;
        let half = TimeInterval::new(self.period.start() + quarter, self.period.end() - quarter);
        let b = self
            .query
            .clip(&half.expect("middle half"))
            .expect("clip")
            .mbb();
        let r = b.rect();
        let pad = r.width().max(r.height()) * 0.5;
        let t = b.time();
        Mbb::new(
            r.x_min - pad,
            r.y_min - pad,
            t.start(),
            r.x_max + pad,
            r.y_max + pad,
            t.end(),
        )
    }

    fn batch(&self, store: &TrajectoryStore) -> [BatchQuery; 5] {
        let (q, period, k) = (&self.query, &self.period, self.k);
        let range = Query::kmst(q).k(k).during(period).within(self.theta(store));
        let segments = Query::knn_segments(self.location()).k(k).during(period);
        [
            BatchQuery::kmst(Query::kmst(q).k(k).during(period)).expect("kmst spec"),
            BatchQuery::kmst(range).expect("range spec"),
            BatchQuery::knn(Query::knn(q).k(k).during(period)).expect("knn spec"),
            BatchQuery::knn_segments(segments).expect("segments spec"),
            BatchQuery::range(Query::range(&self.window())),
        ]
    }

    fn run<I: KmstSubstrate>(
        &self,
        db: &MovingObjectDatabase<I>,
        store: &TrajectoryStore,
    ) -> Answers {
        let (q, period, k) = (&self.query, &self.period, self.k);
        let range = Query::kmst(q).k(k).during(period).within(self.theta(store));
        let segments = Query::knn_segments(self.location()).k(k).during(period);
        Answers {
            kmst: Query::kmst(q).k(k).during(period).run(db).expect("kmst"),
            range_mst: range.run(db).expect("range-MST"),
            knn: Query::knn(q).k(k).during(period).run(db).expect("knn"),
            segments: segments.run(db).expect("segments"),
            range: Query::range(&self.window()).run(db).expect("range"),
        }
    }

    /// The k nearest segments by brute force over the store: every
    /// segment clipped to the period, keyed by its exact distance from the
    /// location, in `(distance, traj, seq)` order.
    fn segments_oracle(&self, store: &TrajectoryStore) -> Vec<(TrajectoryId, u32, u64)> {
        let at = Rect::from_point(self.location());
        let mut all: Vec<(f64, TrajectoryId, u32)> = store
            .iter()
            .flat_map(|(id, t)| LeafEntry::of_trajectory(id, t))
            .filter_map(|e| {
                let clipped = e.segment.clip(&self.period)?;
                Some((segment_rect_mindist(&clipped, &at), e.traj, e.seq))
            })
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        all.truncate(self.k);
        all.into_iter()
            .map(|(d, traj, seq)| (traj, seq, d.to_bits()))
            .collect()
    }

    /// Every segment whose box meets the window, in `(traj, seq)` order.
    fn range_oracle(&self, store: &TrajectoryStore) -> Vec<(TrajectoryId, u32)> {
        let window = self.window();
        let mut all: Vec<(TrajectoryId, u32)> = store
            .iter()
            .flat_map(|(id, t)| LeafEntry::of_trajectory(id, t))
            .filter(|e| e.mbb().intersects(&window))
            .map(|e| (e.traj, e.seq))
            .collect();
        all.sort();
        all
    }
}

/// Point-kNN answers as they arrive (already in `(distance, traj, seq)`
/// order, ties at the k-th place included).
fn segment_keys(matches: &[KnnMatch]) -> Vec<(TrajectoryId, u32, u64)> {
    matches
        .iter()
        .map(|m| (m.entry.traj, m.entry.seq, m.distance.to_bits()))
        .collect()
}

/// Range hits as they arrive (already in `(traj, seq)` order).
fn range_keys(hits: &[LeafEntry]) -> Vec<(TrajectoryId, u32)> {
    hits.iter().map(|e| (e.traj, e.seq)).collect()
}

/// Every substrate x {1, 2, 3, 4} shards x {1, 2} workers: each probe's
/// five answers through the executor are bit-equal to unsharded
/// `Query::run` on the same substrate; its k-MST answer equals the scan,
/// its point-kNN and range answers the brute-force oracles over the store.
fn parity_grid(what: &str, fleet: &[(TrajectoryId, Trajectory)], probes: &[Probe]) {
    fn cell<I: KmstSubstrate + TrajectoryIndexWrite>(
        what: &str,
        fleet: &[(TrajectoryId, Trajectory)],
        probes: &[Probe],
        make: impl Fn() -> I,
    ) {
        let store: TrajectoryStore = fleet.iter().cloned().collect();
        let unsharded = MovingObjectDatabase::build(make(), fleet.to_vec()).expect("baseline");
        let want: Vec<_> = probes.iter().map(|p| p.run(&unsharded, &store)).collect();
        for (i, (p, answers)) in probes.iter().zip(&want).enumerate() {
            let here = format!("{what}: unsharded probe {i}");
            let scan = scan_kmst(&store, &p.query, &p.period, p.k, Integration::Exact);
            assert_kmst_identical(&answers.kmst, &scan.expect("scan"), &here);
            let segments = p.segments_oracle(&store);
            assert!(!segments.is_empty(), "{here}: no segment near the location");
            assert_eq!(
                segment_keys(&answers.segments),
                segments,
                "{here}: point-kNN"
            );
            let range = p.range_oracle(&store);
            assert!(!range.is_empty(), "{here}: an empty window");
            assert_eq!(range_keys(&answers.range), range, "{here}: range");
        }
        let batch: Vec<BatchQuery> = probes.iter().flat_map(|p| p.batch(&store)).collect();
        for shards in 1..=4 {
            let db = ShardedDatabase::build(shards, &make, fleet.to_vec()).expect("shard build");
            for workers in [1usize, 2] {
                let outcome = BatchExecutor::new()
                    .workers(workers)
                    .run(&db, batch.clone());
                for (i, answers) in want.iter().enumerate() {
                    let here = format!("{what} s={shards} w={workers} probe {i}");
                    let got = |j: usize| {
                        let query = outcome.outcomes[5 * i + j].as_ref().expect("query ok");
                        assert!(!query.degraded, "{here}: degraded");
                        assert!(query.profile.is_consistent(), "{here}: ledger");
                        &query.answer
                    };
                    assert_kmst_identical(
                        got(0).as_kmst().expect("kmst"),
                        &answers.kmst,
                        &format!("{here} kmst"),
                    );
                    assert_kmst_identical(
                        got(1).as_kmst().expect("range-MST"),
                        &answers.range_mst,
                        &format!("{here} range-MST"),
                    );
                    assert_knn_identical(
                        got(2).as_knn().expect("knn"),
                        &answers.knn,
                        &format!("{here} knn"),
                    );
                    assert_eq!(
                        segment_keys(got(3).as_segments().expect("segments")),
                        segment_keys(&answers.segments),
                        "{here} point-kNN"
                    );
                    assert_eq!(
                        range_keys(got(4).as_range().expect("range")),
                        range_keys(&answers.range),
                        "{here} range"
                    );
                }
            }
        }
    }
    cell(&format!("{what} rtree"), fleet, probes, Rtree3D::new);
    cell(&format!("{what} tbtree"), fleet, probes, TbTree::new);
    cell(&format!("{what} strtree"), fleet, probes, StrTree::new);
    cell(&format!("{what} metric"), fleet, probes, MetricTree::new);
}

fn check_against_baseline<I: TrajectoryIndex + Send + KmstSubstrate>(
    db: &ShardedDatabase<I>,
    fleet: &[(TrajectoryId, Trajectory)],
    period: &TimeInterval,
    want: &(Vec<Vec<MstMatch>>, Vec<Vec<NnMatch>>),
    what: &str,
) {
    for workers in [1usize, 2, 8] {
        let outcome = BatchExecutor::new()
            .workers(workers)
            .run(db, batch_for(fleet, period));
        assert_eq!(outcome.outcomes.len(), 8, "{what}: batch size");
        assert_eq!(
            outcome.degraded_count(),
            0,
            "{what}: no deadline, no degradation"
        );
        for (i, wanted) in want.0.iter().enumerate() {
            let got = outcome.outcomes[i].as_ref().expect("kmst query ok");
            assert!(
                !got.degraded,
                "{what}: query {i} degraded without a deadline"
            );
            assert!(
                got.profile.is_consistent(),
                "{what}: query {i} ledger unbalanced"
            );
            let matches = got.answer.as_kmst().expect("kmst answer flavour");
            assert_kmst_identical(matches, wanted, &format!("{what} kmst[{i}] w={workers}"));
        }
        for (j, wanted) in want.1.iter().enumerate() {
            let got = outcome.outcomes[4 + j].as_ref().expect("knn query ok");
            let matches = got.answer.as_knn().expect("knn answer flavour");
            assert_knn_identical(matches, wanted, &format!("{what} knn[{j}] w={workers}"));
        }
    }
}

/// A 2-shard query is one search: it expands fewer nodes than the two
/// shards searched alone (each with no bound from the other), summed — on
/// every substrate the executor serves. One threshold prunes both trees,
/// so the second shard's search does not start over from an infinite k-th.
#[test]
fn one_search_over_two_shards_expands_fewer_nodes_than_two_searches() {
    fn check<I: TrajectoryIndex + Send + KmstSubstrate>(
        what: &str,
        db: &ShardedDatabase<I>,
        fleet: &[(TrajectoryId, Trajectory)],
    ) {
        let period = TimeInterval::new(0.0, 29.0).expect("period");
        let spec = Query::kmst(&fleet[0].1).k(3).during(&period);
        let batch = vec![BatchQuery::kmst(spec).expect("spec")];
        let outcome = BatchExecutor::new().workers(1).run(db, batch);
        let query = outcome.outcomes[0].as_ref().expect("query ok");
        assert!(query.profile.is_consistent());
        let mut alone = QueryProfile::new();
        for shard in db.shards() {
            let spec = spec.spec().expect("spec");
            shard
                .run_kmst(&spec, &NoShare, &mut alone)
                .expect("shard alone");
        }
        let (one, two) = (query.profile.nodes_accessed(), alone.nodes_accessed());
        assert!(
            one < two,
            "{what}: one search expanded {one} nodes, two searches {two}"
        );
        assert_eq!(query.profile.pruning.shared_kth_evals, 0, "{what}");
        assert_eq!(query.profile.pruning.shared_kth_prunes, 0, "{what}");
    }
    let fleet = lane_fleet(24, 30);
    let rtree = ShardedDatabase::with_rtree(2, fleet.clone()).expect("shard build");
    check("rtree", &rtree, &fleet);
    let tbtree = ShardedDatabase::with_tbtree(2, fleet.clone()).expect("shard build");
    check("tbtree", &tbtree, &fleet);
    let metric = ShardedDatabase::with_metric(2, fleet.clone()).expect("shard build");
    check("metric", &metric, &fleet);
}

/// A sharded batch's merged profile does not depend on the worker count
/// or the run: each query is one thread's deterministic search. Buffers
/// hold every page, so the one page miss each page costs is the same
/// whichever query takes it first.
#[test]
fn a_sharded_batch_profile_is_the_same_at_any_worker_count_and_run() {
    fn profile_of<I: TrajectoryIndexWrite + Send + KmstSubstrate>(
        make: impl Fn() -> I,
        fleet: &[(TrajectoryId, Trajectory)],
        period: &TimeInterval,
        workers: usize,
    ) -> QueryProfile {
        let db = ShardedDatabase::build(2, make, fleet.to_vec()).expect("shard build");
        db.set_buffer_capacity(Some(1 << 16)).expect("buffers");
        let outcome = BatchExecutor::new()
            .workers(workers)
            .run(&db, batch_for(fleet, period));
        assert_eq!(outcome.degraded_count(), 0);
        outcome.merged_profile()
    }
    fn check<I: TrajectoryIndexWrite + Send + KmstSubstrate>(what: &str, make: impl Fn() -> I) {
        let fleet = lane_fleet(24, 30);
        let period = TimeInterval::new(0.0, 29.0).expect("period");
        let first = profile_of(&make, &fleet, &period, 1);
        assert!(first.nodes_accessed() > 0, "{what}");
        for (workers, run) in [(1, "second run"), (2, "two workers"), (2, "again")] {
            let again = profile_of(&make, &fleet, &period, workers);
            assert_eq!(again, first, "{what}: {run}");
        }
    }
    check("rtree", Rtree3D::new);
    check("tbtree", TbTree::new);
    check("metric", MetricTree::new);
}

/// Satellite: a zero deadline degrades every query gracefully — flagged,
/// best-effort answers, balanced candidate ledger, no errors.
#[test]
fn expired_deadline_degrades_gracefully() {
    let fleet = lane_fleet(24, 30);
    let period = TimeInterval::new(0.0, 29.0).expect("period");
    let db = ShardedDatabase::with_rtree(2, fleet.clone()).expect("shard build");

    let outcome = BatchExecutor::new()
        .workers(2)
        .deadline_us(0)
        .run(&db, batch_for(&fleet, &period));
    assert_eq!(outcome.degraded_count(), outcome.outcomes.len());
    for result in &outcome.outcomes {
        let query = result.as_ref().expect("degraded, not failed");
        assert!(query.degraded);
        assert!(
            query.profile.is_consistent(),
            "degraded ledger must still balance"
        );
    }
}

/// A generous deadline changes nothing: same answers, nothing degraded.
#[test]
fn generous_deadline_is_invisible() {
    let fleet = lane_fleet(12, 20);
    let period = TimeInterval::new(0.0, 19.0).expect("period");
    let db = ShardedDatabase::with_rtree(2, fleet.clone()).expect("shard build");
    let q = &fleet[0].1;
    let batch = |_: ()| vec![BatchQuery::kmst(Query::kmst(q).k(3).during(&period)).expect("spec")];

    let fast = BatchExecutor::new().workers(2).run(&db, batch(()));
    let slow = BatchExecutor::new()
        .workers(2)
        .deadline_us(60_000_000)
        .run(&db, batch(()));
    assert_eq!(slow.degraded_count(), 0);
    let f = fast.outcomes[0].as_ref().expect("ok");
    let s = slow.outcomes[0].as_ref().expect("ok");
    match (&f.answer, &s.answer) {
        (QueryAnswer::Kmst(a), QueryAnswer::Kmst(b)) => {
            assert_kmst_identical(a, b, "deadline vs none")
        }
        _ => panic!("unexpected answer flavour"),
    }
}

/// Self-similarity sanity: every object's own query puts itself first
/// with DISSIM 0, whatever shard it lives on.
#[test]
fn every_object_finds_itself_first() {
    let fleet = lane_fleet(10, 15);
    let period = TimeInterval::new(0.0, 14.0).expect("period");
    let db = ShardedDatabase::with_tbtree(3, fleet.clone()).expect("shard build");
    let batch: Vec<BatchQuery> = fleet
        .iter()
        .map(|(_, t)| BatchQuery::kmst(Query::kmst(t).k(2).during(&period)).expect("spec"))
        .collect();
    let outcome = BatchExecutor::new().workers(4).run(&db, batch);
    for (i, result) in outcome.outcomes.iter().enumerate() {
        let query = result.as_ref().expect("ok");
        let matches = query.answer.as_kmst().expect("kmst");
        assert_eq!(matches[0].traj, TrajectoryId(i as u64), "query {i}");
        assert!(matches[0].dissim.abs() < 1e-9, "query {i} self-dissim");
    }
}

/// Arms an unmaskable fault schedule on one shard and drops its warm
/// buffer pages so the very next node fetch goes to the (faulted)
/// physical store.
fn break_shard<I: TrajectoryIndex>(db: &ShardedDatabase<I>, shard: usize) {
    db.set_fault_injection(shard, Some(FaultConfig::quiet(7).with_read_transient(1.0)))
        .expect("arm faults");
    db.shards()[shard]
        .index()
        .with(|index| index.clear_buffer())
        .expect("lock")
        .expect("clear buffer");
}

/// Tentpole: a shard whose search dies with an index fault degrades the
/// query instead of failing it. The merged answer is exactly what the
/// surviving shard would produce alone — bit-identical to a database
/// built from only that shard's objects — the failure names the dead
/// shard, and the merged ledger (including the aborted job's work) still
/// balances.
#[test]
fn faulted_shard_degrades_query_instead_of_failing_it() {
    let fleet = lane_fleet(24, 30);
    let period = TimeInterval::new(0.0, 29.0).expect("period");
    let db = ShardedDatabase::with_rtree(2, fleet.clone()).expect("shard build");
    break_shard(&db, 0);

    // Shard 1 of the 2-way split holds exactly the odd ids, inserted in
    // the same temporal order a 1-shard database of only those objects
    // uses — so that database is the certified "surviving shard" answer.
    let odd: Vec<_> = fleet
        .iter()
        .filter(|(id, _)| id.0 % 2 == 1)
        .cloned()
        .collect();
    let odd_db = ShardedDatabase::with_rtree(1, odd).expect("odd build");
    let want = BatchExecutor::new()
        .workers(1)
        .run(&odd_db, batch_for(&fleet, &period));

    let outcome = BatchExecutor::new()
        .workers(2)
        .run(&db, batch_for(&fleet, &period));
    assert_eq!(outcome.degraded_count(), outcome.outcomes.len());
    assert_eq!(outcome.failed_shard_count(), outcome.outcomes.len());
    for (i, (result, wanted)) in outcome.outcomes.iter().zip(&want.outcomes).enumerate() {
        let query = result.as_ref().expect("degraded, not failed");
        assert!(query.degraded, "query {i} must be flagged");
        assert!(
            !query.deadline_expired,
            "query {i}: no deadline was set, only the shard fault degrades"
        );
        assert_eq!(query.failures.len(), 1, "query {i}: one dead shard");
        assert_eq!(query.failures[0].shard, 0, "query {i}: shard 0 died");
        assert!(
            query.profile.is_consistent(),
            "query {i}: merged ledger must balance even with an aborted job"
        );
        let wanted = wanted.as_ref().expect("baseline ok");
        match (&query.answer, &wanted.answer) {
            (QueryAnswer::Kmst(a), QueryAnswer::Kmst(b)) => {
                assert_kmst_identical(a, b, &format!("degraded kmst[{i}] vs surviving shard"))
            }
            (QueryAnswer::Knn(a), QueryAnswer::Knn(b)) => {
                assert_knn_identical(a, b, &format!("degraded knn[{i}] vs surviving shard"))
            }
            (QueryAnswer::Segments(a), QueryAnswer::Segments(b)) => {
                assert!(!b.is_empty(), "query {i}: the surviving shard answers");
                assert_eq!(segment_keys(a), segment_keys(b), "degraded point-kNN[{i}]");
            }
            (QueryAnswer::Range(a), QueryAnswer::Range(b)) => {
                assert!(!b.is_empty(), "query {i}: the surviving shard answers");
                assert_eq!(range_keys(a), range_keys(b), "degraded range[{i}]");
            }
            _ => panic!("answer flavours diverged on query {i}"),
        }
    }
    // The retry storm and quarantine show up in the batch-merged profile
    // (per-query attribution depends on which job reached the bad page
    // first, so assert at batch granularity).
    let merged = outcome.merged_profile();
    assert!(merged.io_retries > 0, "retries must be counted: {merged:?}");
    assert!(
        merged.pages_quarantined > 0,
        "the bad page must be quarantined: {merged:?}"
    );
}

/// The search over the shards drops a shard whose reads fail and goes on
/// with the rest: with only shard 1 of two faulted, every query degrades
/// with exactly one failure, naming shard 1, keeps its ledger balanced,
/// and answers only shard-0 trajectories — each k-MST match at its exact
/// DISSIM.
#[test]
fn a_shard_whose_reads_fail_leaves_the_search_and_the_other_answers() {
    let fleet = lane_fleet(24, 30);
    let period = TimeInterval::new(0.0, 29.0).expect("period");
    let db = ShardedDatabase::with_rtree(2, fleet.clone()).expect("shard build");
    break_shard(&db, 1);
    let batch = batch_for(&fleet, &period);
    let queries: Vec<Option<Trajectory>> = batch
        .iter()
        .map(|q| match q {
            BatchQuery::Kmst(spec) => Some(spec.query.clone()),
            BatchQuery::Knn(spec) => Some(spec.query.clone()),
            BatchQuery::Segments(_) | BatchQuery::Range(_) => None,
        })
        .collect();
    let outcome = BatchExecutor::new().workers(2).run(&db, batch);
    for (i, result) in outcome.outcomes.iter().enumerate() {
        let query = result.as_ref().expect("degraded, not failed");
        assert!(query.degraded && !query.deadline_expired, "query {i}");
        assert_eq!(query.failures.len(), 1, "query {i}: {:?}", query.failures);
        assert_eq!(query.failures[0].shard, 1, "query {i}");
        assert!(query.profile.is_consistent(), "query {i}: ledger");
        assert!(!query.answer.is_empty(), "query {i}: shard 0 answers");
        let ids: Vec<TrajectoryId> = match &query.answer {
            QueryAnswer::Kmst(matches) => {
                for m in matches {
                    let t = db.trajectory(m.traj).expect("stored");
                    let q = queries[i].as_ref().expect("a k-MST query");
                    let exact = dissim_between(q, &t, &period, Integration::Exact);
                    let exact = exact.expect("dissim").approx;
                    assert_eq!(m.dissim.to_bits(), exact.to_bits(), "query {i}");
                }
                matches.iter().map(|m| m.traj).collect()
            }
            QueryAnswer::Knn(matches) => matches.iter().map(|m| m.traj).collect(),
            QueryAnswer::Segments(matches) => matches.iter().map(|m| m.entry.traj).collect(),
            QueryAnswer::Range(hits) => hits.iter().map(|e| e.traj).collect(),
        };
        assert!(
            ids.iter().all(|id| db.shard_of(*id) == 0),
            "query {i}: {ids:?}"
        );
    }
}

/// Arming fault injection on a shard that does not exist is a config
/// error, not a panic.
#[test]
fn fault_injection_on_missing_shard_is_a_config_error() {
    let fleet = lane_fleet(4, 10);
    let db = ShardedDatabase::with_rtree(2, fleet).expect("shard build");
    let r = db.set_fault_injection(9, Some(FaultConfig::quiet(1)));
    assert!(matches!(r, Err(mst_exec::ExecError::Config(_))));
    assert!(db.fault_stats(9).is_none());
}

/// Satellite (c): a query can be degraded by *both* causes at once — a
/// dead shard and an expired deadline — and reports each one.
///
/// Construction: the one search over both shards' trees reads shard 0's
/// root among its first pops (the read dies, well before the deadline)
/// and goes on through shard 1's tree, a multi-millisecond traversal that
/// observes the deadline expiring part-way. The deadline is swept upward,
/// doubling from well under a release-mode search of this fleet to far
/// over a debug-mode one, so a machine whose worker starts late (a busy
/// CPU) or searches fast, in either build profile, still finds a window
/// where both causes fire.
#[test]
fn deadline_and_shard_fault_report_both_causes() {
    let fleet = lane_fleet(64, 150);
    let period = TimeInterval::new(0.0, 149.0).expect("period");
    let q = &fleet[1].1;

    for deadline_us in (0..11).map(|doubling| 250u64 << doubling) {
        // Fresh database per attempt: quarantine from the previous round
        // must not leak into the next.
        let db = ShardedDatabase::with_rtree(2, fleet.clone()).expect("shard build");
        break_shard(&db, 0);
        let batch = vec![BatchQuery::kmst(Query::kmst(q).k(10).during(&period)).expect("spec")];
        let outcome = BatchExecutor::new()
            .workers(1)
            .deadline_us(deadline_us)
            .run(&db, batch);
        let query = outcome.outcomes[0].as_ref().expect("degraded, not failed");
        assert!(
            query.profile.is_consistent(),
            "ledger must balance whatever degraded it"
        );
        if query.deadline_expired && !query.failures.is_empty() {
            assert!(query.degraded, "both causes must set the summary flag");
            assert_eq!(query.failures[0].shard, 0);
            return;
        }
    }
    panic!("no deadline in the sweep produced both degradation causes at once");
}

/// An empty batch is a no-op, not an error.
#[test]
fn empty_batch_returns_no_outcomes() {
    let fleet = lane_fleet(4, 10);
    let db = ShardedDatabase::with_rtree(2, fleet).expect("shard build");
    let outcome = BatchExecutor::new().workers(2).run(&db, Vec::new());
    assert!(outcome.outcomes.is_empty());
}

/// A query pinned to a substrate the database does not run on is refused
/// with the typed error by every flavour, on every shard — not only by
/// k-MST and trajectory-kNN.
#[test]
fn a_foreign_substrate_pin_is_refused_by_every_flavour() {
    let fleet = lane_fleet(8, 20);
    let period = TimeInterval::new(0.0, 19.0).expect("period");
    let db = ShardedDatabase::with_rtree(2, fleet.clone()).expect("shard build");
    let foreign = QueryOptions::new()
        .k(2)
        .during(&period)
        .substrate(Substrate::Metric);
    let q = &fleet[0].1;
    let everything = Mbb::new(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9);
    let batch = vec![
        BatchQuery::kmst(Query::kmst(q).options(foreign)).expect("kmst spec"),
        BatchQuery::knn(Query::knn(q).options(foreign)).expect("knn spec"),
        BatchQuery::knn_segments(Query::knn_segments(Point::new(0.0, 0.0)).options(foreign))
            .expect("segments spec"),
        BatchQuery::range(Query::range(&everything).options(foreign)),
    ];
    let outcome = BatchExecutor::new().workers(2).run(&db, batch);
    for (i, result) in outcome.outcomes.iter().enumerate() {
        let query = result.as_ref().expect("degraded, not failed");
        assert_eq!(query.failures.len(), 2, "query {i}: both shards refuse");
        for failure in &query.failures {
            assert!(
                matches!(
                    failure.error,
                    SearchError::SubstrateMismatch {
                        requested: Substrate::Metric,
                        actual: Substrate::Rtree,
                    }
                ),
                "query {i}: {failure}"
            );
        }
    }
    // Pinned to the substrate it runs on, the same batch answers.
    let own = foreign.substrate(Substrate::Rtree);
    let batch = vec![
        BatchQuery::knn_segments(Query::knn_segments(Point::new(0.0, 0.0)).options(own))
            .expect("segments spec"),
        BatchQuery::range(Query::range(&everything).options(own)),
    ];
    let outcome = BatchExecutor::new().workers(2).run(&db, batch);
    assert_eq!(outcome.degraded_count(), 0);
}

/// Marks "inside a search" at the first heap push — the shard gate's read
/// half is held by then, the pager mutex is not — and waits there for a
/// second reader to get as far.
struct Meet<'a> {
    inside: &'a AtomicUsize,
    armed: bool,
    met: bool,
}

impl MetricsSink for Meet<'_> {
    fn heap_push(&mut self) {
        if !std::mem::take(&mut self.armed) {
            return;
        }
        self.inside.fetch_add(1, Ordering::SeqCst);
        let give_up = Instant::now() + Duration::from_secs(20);
        while self.inside.load(Ordering::SeqCst) < 2 && Instant::now() < give_up {
            std::thread::yield_now();
        }
        self.met = self.inside.load(Ordering::SeqCst) >= 2;
    }
}

impl QueryMetrics for Meet<'_> {}

/// A reader that dies mid-search: under the pager mutex (`bytes_decoded`
/// fires during a node fetch) or, on the metric tree, under the directory
/// lock (`heap_push` fires once the ball search holds it).
struct Bomb {
    in_fetch: bool,
}

impl MetricsSink for Bomb {
    fn bytes_decoded(&mut self, _: u64) {
        if self.in_fetch {
            panic!("reader dies under the pager mutex");
        }
    }
    fn heap_push(&mut self) {
        if !self.in_fetch {
            panic!("reader dies under the directory lock");
        }
    }
}

impl QueryMetrics for Bomb {}

/// What one shard guarantees with readers and a writer on it at once:
/// readers share it (two are inside a search at the same moment), every
/// answer is the exact scan's over the store before or after some prefix
/// of the writer's operations — never over half of one — and a reader that
/// panics under the pager or directory lock turns into `Poisoned` errors
/// for everyone after it, not into more panics.
#[test]
fn readers_share_a_shard_and_a_writer_is_seen_whole() {
    const K: usize = 4;
    let fleet = lane_fleet(20, 30);
    let period = TimeInterval::new(0.0, 29.0).expect("period");
    let insert = |id: usize| IngestOp::Insert {
        id: fleet[id].0,
        trajectory: fleet[id].1.clone(),
    };
    let delete = |id: u64| IngestOp::Delete {
        id: TrajectoryId(id),
    };
    // Even ids are the query's neighbours, so most operations move the
    // answer; deleting 0 removes the query's own twin from the top.
    let ops = [
        insert(12),
        delete(2),
        insert(14),
        delete(4),
        insert(16),
        delete(0),
        insert(13),
        insert(18),
        delete(12),
        insert(2),
    ];
    let query = fleet[0].1.clone();
    let spec = Query::kmst(&query)
        .k(K)
        .during(&period)
        .spec()
        .expect("spec");

    // The exact answer after every prefix of the operations.
    let mut store = TrajectoryStore::new();
    for (id, traj) in &fleet[..12] {
        store.insert(*id, traj.clone());
    }
    let scan = |store: &TrajectoryStore| {
        scan_kmst(store, &query, &period, K, Integration::Exact).expect("scan")
    };
    let mut expected = vec![scan(&store)];
    for op in &ops {
        match op {
            IngestOp::Insert { id, trajectory } => store.insert(*id, trajectory.clone()),
            IngestOp::Delete { id } => drop(store.remove(*id)),
        }
        expected.push(scan(&store));
    }
    let same = |got: &[MstMatch], want: &[MstMatch]| {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.traj == w.traj && g.dissim.to_bits() == w.dissim.to_bits())
    };

    let db = ShardedDatabase::with_rtree(1, fleet[..12].to_vec()).expect("shard build");
    let shard = &db.shards()[0];
    let inside = AtomicUsize::new(0);
    let written = AtomicBool::new(false);
    let start = Barrier::new(5);
    std::thread::scope(|scope| {
        for reader in 0..4 {
            let (spec, expected, inside, written, start) =
                (&spec, &expected, &inside, &written, &start);
            scope.spawn(move || {
                // Before the writer starts (a waiting writer would hold new
                // readers back): readers 0 and 1 meet inside a search.
                if reader < 2 {
                    let mut meet = Meet {
                        inside,
                        armed: true,
                        met: false,
                    };
                    let report = shard.run_kmst(spec, &NoShare, &mut meet).expect("search");
                    assert!(meet.met, "two readers must be inside one shard at once");
                    assert!(same(&report.matches, &expected[0]));
                }
                start.wait();
                let mut prefix = 0;
                loop {
                    let last = written.load(Ordering::SeqCst);
                    let report = shard
                        .run_kmst(spec, &NoShare, &mut NoopSink)
                        .expect("search");
                    prefix = (prefix..expected.len())
                        .find(|&p| same(&report.matches, &expected[p]))
                        .unwrap_or_else(|| {
                            panic!(
                                "reader {reader}: {:?} is the exact answer after no prefix \
                                 of the operations at or past {prefix}",
                                report.matches
                            )
                        });
                    if last {
                        assert!(same(&report.matches, &expected[expected.len() - 1]));
                        break;
                    }
                }
            });
        }
        start.wait();
        for op in &ops {
            assert!(db.apply_op(op).expect("apply").applied);
        }
        written.store(true, Ordering::SeqCst);
    });

    // A reader dies under the pager mutex: later searches and writes on the
    // shard get the typed error.
    let poisoned =
        |r: mst_search::Result<_>| matches!(r, Err(SearchError::Index(IndexError::Poisoned(_))));
    let mut bomb = Bomb { in_fetch: true };
    let died = catch_unwind(AssertUnwindSafe(|| {
        shard.run_kmst(&spec, &NoShare, &mut bomb)
    }));
    assert!(died.is_err());
    assert!(poisoned(shard.run_kmst(&spec, &NoShare, &mut NoopSink)));
    assert!(matches!(
        db.apply_op(&insert(19)),
        Err(ExecError::Search(SearchError::Index(IndexError::Poisoned(
            _
        ))))
    ));
    // The same under the metric tree's directory lock.
    let metric = ShardedDatabase::with_metric(1, fleet[..12].to_vec()).expect("shard build");
    let shard = &metric.shards()[0];
    let report = shard
        .run_kmst(&spec, &NoShare, &mut NoopSink)
        .expect("search");
    assert!(same(&report.matches, &expected[0]));
    let mut bomb = Bomb { in_fetch: false };
    let died = catch_unwind(AssertUnwindSafe(|| {
        shard.run_kmst(&spec, &NoShare, &mut bomb)
    }));
    assert!(died.is_err());
    assert!(poisoned(shard.run_kmst(&spec, &NoShare, &mut NoopSink)));
}
