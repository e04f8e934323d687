//! End-to-end integration tests: generators → indexes → search, verified
//! against the exact linear scan across datasets, index kinds, query
//! shapes, and k.

use mst::datagen::{GstdConfig, TrucksConfig};
use mst::index::{check_invariants, Rtree3D, TbTree, TrajectoryIndex};
use mst::search::{
    arrival_order, bfmst_search, scan_kmst, Integration, MstConfig, NoShare, NoopSink,
    TrajectoryStore,
};
use mst::trajectory::{TimeInterval, TrajectoryId};

fn build_both(store: &TrajectoryStore) -> (Rtree3D, TbTree) {
    let mut rtree = Rtree3D::new();
    let mut tbtree = TbTree::new();
    for e in arrival_order(store.iter()) {
        rtree.insert(e).unwrap();
        tbtree.insert(e).unwrap();
    }
    (rtree, tbtree)
}

fn ids(matches: &[mst::search::MstMatch]) -> Vec<TrajectoryId> {
    matches.iter().map(|m| m.traj).collect()
}

#[test]
fn gstd_pipeline_bfmst_equals_scan_for_many_settings() {
    for seed in [1u64, 22, 333] {
        let data = GstdConfig {
            num_objects: 25,
            samples_per_object: 200,
            ..GstdConfig::paper_dataset(25, seed)
        }
        .generate();
        let store = TrajectoryStore::from_trajectories(data);
        let (rtree, tbtree) = build_both(&store);
        check_invariants(&rtree).unwrap();
        check_invariants(&tbtree).unwrap();

        for (k, (a, b)) in [
            (1usize, (0.0, 199.0)),
            (3, (20.0, 90.0)),
            (7, (150.5, 180.25)),
        ] {
            let period = TimeInterval::new(a, b).unwrap();
            // Query: clip of a data trajectory (different one per setting).
            let q = store
                .get(TrajectoryId(seed % 25))
                .unwrap()
                .clip(&period)
                .unwrap();
            let expected = ids(&scan_kmst(&store, &q, &period, k, Integration::Exact).unwrap());
            let r = bfmst_search(
                &[(&rtree, &store)],
                &q,
                &period,
                &MstConfig::k(k),
                &NoShare,
                &mut NoopSink,
            )
            .unwrap();
            let t = bfmst_search(
                &[(&tbtree, &store)],
                &q,
                &period,
                &MstConfig::k(k),
                &NoShare,
                &mut NoopSink,
            )
            .unwrap();
            assert_eq!(ids(&r), expected, "rtree seed {seed} k {k}");
            assert_eq!(ids(&t), expected, "tbtree seed {seed} k {k}");
        }
    }
}

#[test]
fn trucks_pipeline_identifies_compressed_originals() {
    let fleet = TrucksConfig::small(15, 4).generate();
    let store = TrajectoryStore::from_trajectories(fleet.clone());
    let (rtree, _) = build_both(&store);
    let period = fleet[0].time();
    for qi in [0usize, 7, 14] {
        let compressed = mst::datagen::td_tr_fraction(&fleet[qi], 0.01);
        let got = bfmst_search(
            &[(&rtree, &store)],
            &compressed,
            &period,
            &MstConfig::k(1),
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(got[0].traj, TrajectoryId(qi as u64));
    }
}

#[test]
fn foreign_query_trajectory_works() {
    // The query need not be part of the dataset at all.
    let data = GstdConfig {
        num_objects: 10,
        samples_per_object: 100,
        ..GstdConfig::paper_dataset(10, 5)
    }
    .generate();
    let store = TrajectoryStore::from_trajectories(data);
    let (rtree, tbtree) = build_both(&store);
    let period = TimeInterval::new(10.0, 60.0).unwrap();
    // A synthetic diagonal crossing the unit square.
    let q = mst::trajectory::Trajectory::from_txy(&[
        (10.0, 0.1, 0.1),
        (35.0, 0.5, 0.6),
        (60.0, 0.9, 0.2),
    ])
    .unwrap();
    let expected = ids(&scan_kmst(&store, &q, &period, 4, Integration::Exact).unwrap());
    let r = bfmst_search(
        &[(&rtree, &store)],
        &q,
        &period,
        &MstConfig::k(4),
        &NoShare,
        &mut NoopSink,
    )
    .unwrap();
    let t = bfmst_search(
        &[(&tbtree, &store)],
        &q,
        &period,
        &MstConfig::k(4),
        &NoShare,
        &mut NoopSink,
    )
    .unwrap();
    assert_eq!(ids(&r), expected);
    assert_eq!(ids(&t), expected);
    // Exact values agree with the scan within post-processing tolerance.
    let scan = scan_kmst(&store, &q, &period, 4, Integration::Exact).unwrap();
    for (got, want) in r.iter().zip(&scan) {
        assert!((got.dissim - want.dissim).abs() < 1e-9);
    }
}

#[test]
fn repeated_queries_are_deterministic_and_buffer_friendly() {
    let data = GstdConfig {
        num_objects: 15,
        samples_per_object: 150,
        ..GstdConfig::paper_dataset(15, 8)
    }
    .generate();
    let store = TrajectoryStore::from_trajectories(data);
    let (mut rtree, _) = build_both(&store);
    let period = TimeInterval::new(30.0, 80.0).unwrap();
    let q = store.get(TrajectoryId(2)).unwrap().clip(&period).unwrap();

    rtree.clear_buffer().unwrap();
    rtree.reset_stats();
    let first = bfmst_search(
        &[(&rtree, &store)],
        &q,
        &period,
        &MstConfig::k(3),
        &NoShare,
        &mut NoopSink,
    )
    .unwrap();
    let cold_misses = rtree.stats().buffer.misses;

    rtree.reset_stats();
    let second = bfmst_search(
        &[(&rtree, &store)],
        &q,
        &period,
        &MstConfig::k(3),
        &NoShare,
        &mut NoopSink,
    )
    .unwrap();
    let warm_misses = rtree.stats().buffer.misses;

    assert_eq!(ids(&first), ids(&second));
    assert!(
        warm_misses <= cold_misses,
        "warm run missed more ({warm_misses}) than cold ({cold_misses})"
    );
}

#[test]
fn results_are_sorted_and_k_bounded() {
    let data = GstdConfig {
        num_objects: 30,
        samples_per_object: 80,
        ..GstdConfig::paper_dataset(30, 12)
    }
    .generate();
    let store = TrajectoryStore::from_trajectories(data);
    let (rtree, _) = build_both(&store);
    let period = TimeInterval::new(0.0, 79.0).unwrap();
    let q = store.get(TrajectoryId(0)).unwrap().clone();
    for k in [1usize, 5, 29, 30, 100] {
        let got = bfmst_search(
            &[(&rtree, &store)],
            &q,
            &period,
            &MstConfig::k(k),
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        assert!(got.len() <= k);
        assert!(got.len() <= store.len());
        for w in got.windows(2) {
            assert!(w[0].dissim <= w[1].dissim);
        }
    }
}

#[test]
fn error_management_never_changes_the_winner_set() {
    // Trapezoid + error management must equal exact integration.
    let data = GstdConfig {
        num_objects: 20,
        samples_per_object: 120,
        ..GstdConfig::paper_dataset(20, 31)
    }
    .generate();
    let store = TrajectoryStore::from_trajectories(data);
    let (rtree, _) = build_both(&store);
    let period = TimeInterval::new(5.0, 110.0).unwrap();
    for qi in 0..5u64 {
        let q = store.get(TrajectoryId(qi)).unwrap().clip(&period).unwrap();
        let approx = bfmst_search(
            &[(&rtree, &store)],
            &q,
            &period,
            &MstConfig::k(4),
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        let exact_cfg = MstConfig {
            integration: Integration::Exact,
            error_management: false,
            ..MstConfig::k(4)
        };
        let exact = bfmst_search(
            &[(&rtree, &store)],
            &q,
            &period,
            &exact_cfg,
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(ids(&approx), ids(&exact), "query {qi}");
    }
}

#[test]
fn range_mst_respects_the_ceiling_and_matches_scan_filtering() {
    let data = GstdConfig {
        num_objects: 20,
        samples_per_object: 100,
        ..GstdConfig::paper_dataset(20, 77)
    }
    .generate();
    let store = TrajectoryStore::from_trajectories(data);
    let (rtree, _) = build_both(&store);
    let period = TimeInterval::new(0.0, 99.0).unwrap();
    let q = store.get(TrajectoryId(4)).unwrap().clone();

    // Derive a meaningful ceiling from the scan: between the 3rd and 4th
    // best values, so exactly 3 trajectories qualify.
    let scan = scan_kmst(&store, &q, &period, 20, Integration::Exact).unwrap();
    let theta = 0.5 * (scan[2].dissim + scan[3].dissim);

    let cfg = mst::search::MstConfig::within(20, theta);
    let got = bfmst_search(
        &[(&rtree, &store)],
        &q,
        &period,
        &cfg,
        &NoShare,
        &mut NoopSink,
    )
    .unwrap();
    assert_eq!(got.len(), 3);
    assert_eq!(
        ids(&got),
        scan[..3].iter().map(|m| m.traj).collect::<Vec<_>>()
    );
    for m in &got {
        assert!(m.dissim <= theta);
    }

    // A ceiling below the minimum yields an empty result set.
    let none = bfmst_search(
        &[(&rtree, &store)],
        &q,
        &period,
        &mst::search::MstConfig::within(5, scan[0].dissim * 0.5 - 1e-9),
        &NoShare,
        &mut NoopSink,
    )
    .unwrap();
    assert!(none.is_empty());

    // The ceiling must also reduce work relative to the unbounded query.
    let mut unbounded = mst::search::QueryProfile::new();
    let mut bounded = mst::search::QueryProfile::new();
    let k20 = MstConfig::k(20);
    bfmst_search(
        &[(&rtree, &store)],
        &q,
        &period,
        &k20,
        &NoShare,
        &mut unbounded,
    )
    .unwrap();
    bfmst_search(
        &[(&rtree, &store)],
        &q,
        &period,
        &cfg,
        &NoShare,
        &mut bounded,
    )
    .unwrap();
    assert!(bounded.nodes_accessed() <= unbounded.nodes_accessed());
}

#[test]
fn time_relaxed_query_end_to_end() {
    // Build a fleet where trajectory 0's movement is duplicated by
    // trajectory 5 with a +40 time-unit delay; the relaxed query must pair
    // them and report the delay.
    let mut data = GstdConfig {
        num_objects: 6,
        samples_per_object: 120,
        ..GstdConfig::paper_dataset(6, 13)
    }
    .generate();
    let delayed = data[0].shift_time(40.0).unwrap();
    data[5] = delayed;
    let store = TrajectoryStore::from_trajectories(data);
    let query = store
        .get(TrajectoryId(0))
        .unwrap()
        .clip(&TimeInterval::new(10.0, 80.0).unwrap())
        .unwrap();
    let got = mst::search::time_relaxed_kmst(&store, &query, &mst::search::TimeRelaxedConfig::k(2))
        .unwrap();
    // Both the original (shift 0) and the delayed copy (shift 40) are
    // essentially perfect matches.
    let ids: Vec<_> = got.iter().map(|m| m.traj).collect();
    assert!(ids.contains(&TrajectoryId(0)));
    assert!(ids.contains(&TrajectoryId(5)));
    for m in &got {
        assert!(m.dissim < 1e-6, "dissim {}", m.dissim);
        let expected_shift = if m.traj == TrajectoryId(0) { 0.0 } else { 40.0 };
        assert!(
            (m.shift - expected_shift).abs() < 0.1,
            "shift {} for {}",
            m.shift,
            m.traj
        );
    }
}

#[test]
fn strtree_bfmst_equals_scan_too() {
    let data = GstdConfig {
        num_objects: 18,
        samples_per_object: 150,
        ..GstdConfig::paper_dataset(18, 41)
    }
    .generate();
    let store = TrajectoryStore::from_trajectories(data);
    let mut strtree = mst::index::StrTree::new();
    for (id, t) in store.iter() {
        strtree.insert_trajectory(id, t).unwrap();
    }
    check_invariants(&strtree).unwrap();
    for (k, (a, b)) in [(1usize, (0.0, 149.0)), (4, (30.0, 100.0))] {
        let period = TimeInterval::new(a, b).unwrap();
        let q = store.get(TrajectoryId(9)).unwrap().clip(&period).unwrap();
        let expected = ids(&scan_kmst(&store, &q, &period, k, Integration::Exact).unwrap());
        let got = bfmst_search(
            &[(&strtree, &store)],
            &q,
            &period,
            &MstConfig::k(k),
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(ids(&got), expected, "k={k}");
    }
}

#[test]
fn nearest_trajectories_consistent_with_dissim_on_parallel_lanes() {
    // On parallel lanes, the closest-approach ranking and the DISSIM
    // ranking coincide — both indexes agree with the scan.
    let trajs: Vec<mst::trajectory::Trajectory> = (0..12)
        .map(|i| {
            let y = f64::from(i) * 4.0;
            mst::trajectory::Trajectory::from_txy(
                &(0..=60)
                    .map(|s| (f64::from(s), f64::from(s) * 0.5, y))
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        })
        .collect();
    let store = TrajectoryStore::from_trajectories(trajs);
    let (rtree, _) = build_both(&store);
    let period = TimeInterval::new(0.0, 60.0).unwrap();
    let q = store.get(TrajectoryId(6)).unwrap().clone();
    let nn = mst::search::nearest_trajectories(&[&rtree], &q, &period, 5, &NoShare, &mut NoopSink)
        .unwrap();
    let mst_res = bfmst_search(
        &[(&rtree, &store)],
        &q,
        &period,
        &MstConfig::k(5),
        &NoShare,
        &mut NoopSink,
    )
    .unwrap();
    assert_eq!(nn.iter().map(|m| m.traj).collect::<Vec<_>>(), ids(&mst_res));
    assert_eq!(nn[0].distance, 0.0);
}

#[test]
fn corrupted_index_image_fails_cleanly_not_by_panic() {
    let data = GstdConfig {
        num_objects: 8,
        samples_per_object: 80,
        ..GstdConfig::paper_dataset(8, 21)
    }
    .generate();
    let store = TrajectoryStore::from_trajectories(data);
    let (mut rtree, _) = build_both(&store);
    let mut bytes = Vec::new();
    rtree.save(&mut bytes).unwrap();

    // Truncated image: load must error.
    assert!(Rtree3D::load(&bytes[..bytes.len() / 2]).is_err());

    // Flip the node-type byte of a page in the middle of the file: the load
    // succeeds (pages are lazily validated), but the first query that
    // touches the bad page reports a corrupt node instead of panicking.
    let mut evil = bytes.clone();
    let header_end = evil.len() - rtree.num_pages() * 4096;
    let victim = header_end + (rtree.num_pages() / 2) * 4096;
    evil[victim] = 0xFF;
    if let Ok(loaded) = Rtree3D::load(&evil[..]) {
        let period = TimeInterval::new(0.0, 79.0).unwrap();
        let q = store.get(TrajectoryId(0)).unwrap().clone();
        // Force a full traversal so the bad page is hit.
        let cfg = MstConfig {
            use_heuristic1: false,
            use_heuristic2: false,
            ..MstConfig::k(8)
        };
        // The single-tree entry point: its one tree's failed read is the
        // search's error.
        let result = mst::search::KmstSubstrate::kmst_search(
            &loaded,
            &store,
            &q,
            &period,
            &cfg,
            &NoShare,
            &mut NoopSink,
        );
        assert!(result.is_err(), "query over a corrupt page must error");
    }
}

/// A query period that is a single instant gets one answer everywhere:
/// the linear scan's `InvalidInterval` refusal — from the spec freezes
/// (so a batch or a server refuses it as an invalid query instead of
/// failing every shard), from each of the three searches, and from the
/// builder terminals. Only `k == 0` still answers empty first.
#[test]
fn an_instant_query_period_is_refused_like_the_scan_refuses_it() {
    use mst::exec::BatchQuery;
    use mst::index::MetricTree;
    use mst::search::{KmstSubstrate, MovingObjectDatabase, Query, SearchError};
    use mst::trajectory::TrajectoryError;

    fn is_instant_refusal(e: &SearchError) -> bool {
        matches!(
            e,
            SearchError::Trajectory(TrajectoryError::InvalidInterval { start, end })
                if *start == 5.0 && *end == 5.0
        )
    }

    let store: TrajectoryStore = mst::datagen::fixtures::lane_fleet(8, 20)
        .into_iter()
        .collect();
    let (rtree, _) = build_both(&store);
    let mut metric = MetricTree::new();
    for e in arrival_order(store.iter()) {
        metric.insert(e).unwrap();
    }
    let q = store.get(TrajectoryId(0)).unwrap().clone();
    let instant = TimeInterval::new(5.0, 5.0).unwrap();
    assert!(q.covers(&instant));

    let scan = scan_kmst(&store, &q, &instant, 2, Integration::Exact).unwrap_err();
    assert!(is_instant_refusal(&scan), "{scan:?}");

    let kmst = Query::kmst(&q).k(2).during(&instant);
    let knn = Query::knn(&q).k(2).during(&instant);
    assert!(is_instant_refusal(&kmst.spec().unwrap_err()));
    assert!(is_instant_refusal(&knn.spec().unwrap_err()));

    let config = MstConfig::k(2);
    let searches = [
        bfmst_search(
            &[(&rtree, &store)],
            &q,
            &instant,
            &config,
            &NoShare,
            &mut NoopSink,
        )
        .err()
        .map(SearchError::from),
        metric
            .kmst_search(&store, &q, &instant, &config, &NoShare, &mut NoopSink)
            .err(),
        mst::search::nearest_trajectories(&[&rtree], &q, &instant, 2, &NoShare, &mut NoopSink)
            .err()
            .map(SearchError::from),
    ];
    for refusal in searches {
        assert!(
            refusal.as_ref().is_some_and(is_instant_refusal),
            "{refusal:?}"
        );
    }
    let none = bfmst_search(
        &[(&rtree, &store)],
        &q,
        &instant,
        &MstConfig::k(0),
        &NoShare,
        &mut NoopSink,
    );
    assert!(none.unwrap().is_empty());

    let db = MovingObjectDatabase::from_parts(rtree, store.clone());
    assert!(is_instant_refusal(&kmst.run(&db).unwrap_err()));
    assert!(is_instant_refusal(&knn.run(&db).unwrap_err()));

    for refused in [BatchQuery::kmst(kmst), BatchQuery::knn(knn)] {
        match refused {
            Err(e) => assert!(is_instant_refusal(&e), "{e:?}"),
            other => panic!("a batch took an instant period: {other:?}"),
        }
    }
}
