//! Cross-substrate parity: every substrate's k-MST answer — the BFMST
//! descent over the R-tree, STR-tree and TB-tree, the ball search over the
//! metric tree — must be bit-identical to the linear-scan ground truth on
//! four seeded stores (Trucks-like, GSTD synthetic, a GSTD fleet with mixed
//! lifetimes, and the twins-and-ties fleet), through the single-index `Query` builder and through
//! the sharded batch executor across 1/4 shards x 1/8 workers.

use mst::datagen::fixtures::{mixed_lifetime_fleet, twins_fleet};
use mst::datagen::{GstdConfig, TrucksConfig};
use mst::exec::{BatchExecutor, BatchQuery, ShardedDatabase};
use mst::index::{
    InsertionPolicy, MetricPolicy, MetricTree, PagedTree, Rtree3D, RtreePolicy, StrPolicy, StrTree,
    TbPolicy, TbTree, TrajectoryIndexWrite,
};
use mst::search::{
    scan_kmst, Integration, KmstSubstrate, MovingObjectDatabase, MstMatch, Query, Substrate,
    TrajectoryStore,
};
use mst::trajectory::{TimeInterval, Trajectory, TrajectoryId};

fn trucks_store() -> TrajectoryStore {
    let trajs = TrucksConfig {
        num_trucks: 10,
        ..TrucksConfig::paper_like(5)
    }
    .generate();
    TrajectoryStore::from_trajectories(trajs)
}

fn synthetic_store() -> TrajectoryStore {
    let trajs = GstdConfig {
        num_objects: 10,
        samples_per_object: 150,
        ..GstdConfig::paper_dataset(10, 7)
    }
    .generate();
    TrajectoryStore::from_trajectories(trajs)
}

/// The shared mixed-lifetime fleet: two objects in three cover only part of
/// the middle-half probe period of a full-lifetime query, so neither kind
/// may appear in — or shape — its answer.
fn mixed_lifetime_store() -> TrajectoryStore {
    mixed_lifetime_fleet(40, 150, 13).into_iter().collect()
}

/// Query workload over a store: a handful of member trajectories clipped
/// to the middle half of their own lifetime.
fn workload(store: &TrajectoryStore, k: usize) -> Vec<(Trajectory, TimeInterval, usize)> {
    (0..4u64)
        .map(|qi| {
            let t = store.get(TrajectoryId(qi)).expect("query trajectory");
            let span = t.time();
            let quarter = span.duration() * 0.25;
            let period = TimeInterval::new(span.start() + quarter, span.end() - quarter)
                .expect("valid period");
            let q = t.clip(&period).expect("clip to period");
            (q, period, k)
        })
        .collect()
}

fn bits(matches: &[MstMatch]) -> Vec<(TrajectoryId, u64)> {
    matches
        .iter()
        .map(|m| (m.traj, m.dissim.to_bits()))
        .collect()
}

fn ground_truth(
    store: &TrajectoryStore,
    workload: &[(Trajectory, TimeInterval, usize)],
) -> Vec<Vec<(TrajectoryId, u64)>> {
    workload
        .iter()
        .map(|(q, period, k)| {
            bits(&scan_kmst(store, q, period, *k, Integration::Exact).expect("scan ground truth"))
        })
        .collect()
}

/// One substrate, one index: scan == substrate, bit for bit, through the
/// `Query` builder pinned to that substrate.
fn check_single<I: TrajectoryIndexWrite + KmstSubstrate>(
    name: &str,
    store: &TrajectoryStore,
    index: I,
) {
    let wl = workload(store, 3);
    let truth = ground_truth(store, &wl);
    let mut db = MovingObjectDatabase::new(index);
    for (id, t) in store.iter() {
        db.insert_trajectory(id, t).expect("insert");
    }
    for (i, (q, period, k)) in wl.iter().enumerate() {
        let got = Query::kmst(q)
            .k(*k)
            .during(period)
            .substrate(I::KIND)
            .run(&db)
            .expect("query");
        assert_eq!(bits(&got), truth[i], "{name} q{i}: {:?} vs scan", I::KIND);
    }
}

/// Single-index parity on one dataset, on all four substrates.
fn check_single_index(name: &str, store: &TrajectoryStore) {
    check_single(name, store, Rtree3D::new());
    check_single(name, store, StrTree::new());
    check_single(name, store, TbTree::new());
    check_single(name, store, MetricTree::new());
}

/// One substrate, sharded: every shard count x worker count cell
/// reproduces the scan answer bit-for-bit.
fn check_shards<I: TrajectoryIndexWrite + KmstSubstrate + Send + 'static>(
    name: &str,
    store: &TrajectoryStore,
    make_index: fn() -> I,
) {
    let wl = workload(store, 3);
    let truth = ground_truth(store, &wl);
    let fleet: Vec<(TrajectoryId, Trajectory)> =
        store.iter().map(|(id, t)| (id, t.clone())).collect();

    for shards in [1usize, 4] {
        let db = ShardedDatabase::build(shards, make_index, fleet.iter().cloned())
            .expect("sharded build");
        assert_eq!(db.substrate(), I::KIND);
        for workers in [1usize, 8] {
            let batch: Vec<BatchQuery> = wl
                .iter()
                .map(|(q, period, k)| {
                    BatchQuery::kmst(Query::kmst(q).k(*k).during(period).substrate(I::KIND))
                        .expect("kmst spec")
                })
                .collect();
            let outcome = BatchExecutor::new().workers(workers).run(&db, batch);
            let cell = format!("{name} {:?} s={shards} w={workers}", I::KIND);
            assert_eq!(outcome.degraded_count(), 0, "{cell}");
            for (i, want) in truth.iter().enumerate() {
                let got = outcome.outcomes[i].as_ref().expect("query ok");
                let matches = got.answer.as_kmst().expect("kmst answer");
                assert_eq!(&bits(matches), want, "{cell} q{i}: shard parity");
            }
        }
    }
}

/// Sharded parity on one dataset, on all four substrates.
fn check_sharded(name: &str, store: &TrajectoryStore) {
    check_shards(name, store, Rtree3D::new);
    check_shards(name, store, StrTree::new);
    check_shards(name, store, TbTree::new);
    check_shards(name, store, MetricTree::new);
}

#[test]
fn every_substrate_matches_scan_on_trucks() {
    check_single_index("trucks", &trucks_store());
}

#[test]
fn every_substrate_matches_scan_on_synthetic() {
    check_single_index("synthetic", &synthetic_store());
}

#[test]
fn every_sharded_substrate_matches_scan_on_trucks() {
    check_sharded("trucks", &trucks_store());
}

#[test]
fn every_sharded_substrate_matches_scan_on_synthetic() {
    check_sharded("synthetic", &synthetic_store());
}

/// Partial-lifetime objects must neither enter an answer nor tighten its
/// kth threshold on the way out (they never complete, but their
/// pessimistic keys used to count).
#[test]
fn every_substrate_matches_scan_on_mixed_lifetimes() {
    let store = mixed_lifetime_store();
    let partial = store
        .iter()
        .filter(|(_, t)| t.duration() < 0.5 * store.get(TrajectoryId(0)).expect("t0").duration())
        .count();
    assert!(10 * partial >= 3 * store.len(), "{partial} partial objects");
    check_single_index("mixed", &store);
}

#[test]
fn every_sharded_substrate_matches_scan_on_mixed_lifetimes() {
    check_sharded("mixed", &mixed_lifetime_store());
}

/// One trajectory under two ids, its mirror image and two more mirror
/// pairs: bit-equal DISSIM ties inside every answer, split across shards.
#[test]
fn every_substrate_matches_scan_on_twins_and_ties() {
    let store: TrajectoryStore = twins_fleet().1.into_iter().collect();
    check_single_index("twins", &store);
    check_sharded("twins", &store);
}

/// The pre-loaded trap: an index that already holds entries — here an image
/// saved and loaded again — becomes a database together with the store it
/// was built over, through `from_parts`, and then answers bit for bit what it
/// answered before the save, which is what the scan says. (`new` is for an
/// empty index: over the same R-tree image its store would be empty and
/// every candidate the descent meets `MissingTrajectory`.)
#[test]
fn a_reloaded_image_answers_through_the_facade() {
    fn check<P: InsertionPolicy>(store: &TrajectoryStore)
    where
        PagedTree<P>: KmstSubstrate,
    {
        let wl = workload(store, 3);
        let answers = |db: &MovingObjectDatabase<PagedTree<P>>| -> Vec<_> {
            let run = |(q, period, k): &(Trajectory, TimeInterval, usize)| {
                bits(&Query::kmst(q).k(*k).during(period).run(db).expect("query"))
            };
            wl.iter().map(run).collect()
        };
        let fleet = store.iter().map(|(id, t)| (id, t.clone()));
        let db = MovingObjectDatabase::build(PagedTree::<P>::new(), fleet).expect("build");
        let before = answers(&db);
        assert_eq!(before, ground_truth(store, &wl), "{}", P::NAME);

        let (mut index, store) = db.into_parts();
        let mut image = Vec::new();
        index.save(&mut image).expect("save");
        let index = PagedTree::<P>::load(&image[..]).expect("load");
        let reloaded = MovingObjectDatabase::from_parts(index, store);
        assert_eq!(answers(&reloaded), before, "{} after reload", P::NAME);
    }
    let store = mixed_lifetime_store();
    check::<RtreePolicy>(&store);
    check::<StrPolicy>(&store);
    check::<TbPolicy>(&store);
    check::<MetricPolicy>(&store);
}

#[test]
fn substrate_pin_refuses_the_wrong_index() {
    let store = synthetic_store();
    let mut metric = MovingObjectDatabase::with_metric();
    for (id, t) in store.iter() {
        metric.insert_trajectory(id, t).expect("insert");
    }
    let (q, period, k) = workload(&store, 2).remove(0);
    // Pinned to the R-tree, a metric-backed database must refuse rather
    // than silently answer from a different structure.
    let err = Query::kmst(&q)
        .k(k)
        .during(&period)
        .substrate(Substrate::Rtree)
        .run(&metric)
        .expect_err("substrate mismatch");
    let text = err.to_string();
    assert!(text.contains("substrate"), "{text}");
    // Auto (the default) runs on whatever the database holds.
    let auto = Query::kmst(&q)
        .k(k)
        .during(&period)
        .run(&metric)
        .expect("auto substrate");
    assert_eq!(
        bits(&auto),
        ground_truth(&store, &[(q, period, k)]).remove(0)
    );
}
