//! Integration tests for the query observability layer: the candidate
//! ledger and the heap ledger must balance on realistic workloads,
//! profiles must accumulate monotonically, and attaching a sink must never
//! change a single result bit.

use mst::datagen::GstdConfig;
use mst::index::{MetricTree, Rtree3D, StrTree, TbTree, TrajectoryIndexWrite};
use mst::search::{
    arrival_order, bfmst_search, scan_kmst, scan_kmst_traced, time_relaxed_kmst,
    time_relaxed_kmst_traced, Integration, KmstSubstrate, MstConfig, NoShare, NoopSink,
    QueryProfile, TimeRelaxedConfig, TrajectoryStore,
};
use mst::trajectory::{TimeInterval, TrajectoryId};

fn gstd_store(objects: usize, samples: usize, seed: u64) -> TrajectoryStore {
    let data = GstdConfig {
        num_objects: objects,
        samples_per_object: samples,
        ..GstdConfig::paper_dataset(objects, seed)
    }
    .generate();
    TrajectoryStore::from_trajectories(data)
}

/// Feeds every segment of `store` to `index` in arrival (start-time) order.
fn build<I: TrajectoryIndexWrite>(mut index: I, store: &TrajectoryStore) -> I {
    for e in arrival_order(store.iter()) {
        index.insert_entry(e).unwrap();
    }
    index
}

fn build_both(store: &TrajectoryStore) -> (Rtree3D, TbTree) {
    (build(Rtree3D::new(), store), build(TbTree::new(), store))
}

fn dissim_bits(matches: &[mst::search::MstMatch]) -> Vec<(TrajectoryId, u64)> {
    matches
        .iter()
        .map(|m| (m.traj, m.dissim.to_bits()))
        .collect()
}

/// Runs the ledger workload of one seed on one substrate: six queries over
/// two windows, heuristics on and off, every per-query ledger balanced.
/// Returns the counters summed over the workload.
fn ledger_workload<I: KmstSubstrate>(
    label: &str,
    index: &I,
    store: &TrajectoryStore,
    seed: u64,
) -> QueryProfile {
    let mut total = QueryProfile::new();
    // The second, shorter window is there for the TB-tree: only on it does
    // heuristic 2 fire while candidates are still pending.
    for qi in 0..6u64 {
        for (from, to) in [(10.0, 160.0), (60.0, 105.0)] {
            let period = TimeInterval::new(from, to).unwrap();
            let q = store.get(TrajectoryId(qi)).unwrap().clip(&period).unwrap();
            for config in [
                MstConfig::k(3),
                MstConfig {
                    use_heuristic1: false,
                    use_heuristic2: false,
                    ..MstConfig::k(3)
                },
            ] {
                let mut p = QueryProfile::new();
                index
                    .kmst_search(store, &q, &period, &config, &NoShare, &mut p)
                    .unwrap();
                assert!(
                    p.is_consistent(),
                    "{label} seed {seed} q {qi}: seen {} != {} pruned + {} refined + {} pending",
                    p.candidates.seen,
                    p.candidates.pruned,
                    p.candidates.refined,
                    p.candidates.pending
                );
                // Every pushed node is either popped or discarded unvisited
                // at early termination; without termination the heap drains
                // fully.
                if p.early_terminations == 0 {
                    assert_eq!(p.heap_pushes, p.heap_pops, "{label} seed {seed} q {qi}");
                } else {
                    assert!(p.heap_pushes >= p.heap_pops, "{label} seed {seed} q {qi}");
                }
                total.merge(&p);
            }
        }
    }
    total
}

/// A counter that stays zero over a whole workload is a disconnected
/// instrumentation hook.
fn assert_live(label: &str, seed: u64, counters: &[(&str, u64)]) {
    for (name, value) in counters {
        assert!(*value > 0, "{label} seed {seed}: counter `{name}` is dead");
    }
}

/// The candidate ledger balances (`seen == pruned + refined + pending`),
/// and every heap push is popped unless heuristic 2 cut the search short,
/// for every query of a seeded workload, on every index substrate, with
/// both heuristics on and off — and summed over the workload each
/// substrate shows the counter classes its search is built from: the
/// paper's MINDIST-family heuristics on the MBB trees, the
/// triangle-inequality bound on the metric tree.
#[test]
fn candidate_ledger_balances_on_both_substrates() {
    fn mbb_tree<I: KmstSubstrate>(label: &str, index: &I, store: &TrajectoryStore, seed: u64) {
        let t = ledger_workload(label, index, store, seed);
        assert_live(
            label,
            seed,
            &[
                ("heap_pushes", t.heap_pushes),
                ("heap_pops", t.heap_pops),
                ("node_accesses", t.nodes_accessed()),
                ("buffer_hits", t.buffer_hits),
                ("buffer_misses", t.buffer_misses),
                ("bytes_decoded", t.bytes_decoded),
                ("piece_evals", t.piece_evals()),
                ("ldd_evals", t.pruning.ldd_evals),
                ("opt_dissim_evals", t.pruning.opt_dissim_evals),
                ("pes_dissim_evals", t.pruning.pes_dissim_evals),
                ("opt_dissim_inc_evals", t.pruning.opt_dissim_inc_evals),
                ("min_dissim_inc_evals", t.pruning.min_dissim_inc_evals),
                (
                    "prunes",
                    t.candidates.pruned
                        + t.pruning.opt_dissim_prunes
                        + t.pruning.opt_dissim_inc_prunes
                        + t.pruning.min_dissim_inc_prunes,
                ),
            ],
        );
    }
    for seed in [3u64, 19] {
        let store = gstd_store(30, 180, seed);
        let (rtree, tbtree) = build_both(&store);
        mbb_tree("rtree", &rtree, &store, seed);
        mbb_tree("tbtree", &tbtree, &store, seed);
        mbb_tree("strtree", &build(StrTree::new(), &store), &store, seed);
        // The metric substrate never computes MBB bounds; its ledger lives
        // in the triangle-inequality counters, its refinements are always
        // exact, and its I/O shows up as leaf-chain reads.
        let t = ledger_workload("metric", &build(MetricTree::new(), &store), &store, seed);
        assert_live(
            "metric",
            seed,
            &[
                ("heap_pushes", t.heap_pushes),
                ("heap_pops", t.heap_pops),
                ("node_accesses", t.nodes_accessed()),
                ("buffer_misses", t.buffer_misses),
                ("bytes_decoded", t.bytes_decoded),
                ("exact_piece_evals", t.exact_piece_evals),
                ("triangle_ineq_evals", t.pruning.triangle_ineq_evals),
                ("triangle_ineq_prunes", t.pruning.triangle_ineq_prunes),
                ("candidates_refined", t.candidates.refined),
            ],
        );
    }
}

/// A reused profile only ever accumulates: running a second query on the
/// same profile never decreases any counter.
#[test]
fn counters_are_monotone_across_queries() {
    let store = gstd_store(20, 150, 5);
    let (rtree, _) = build_both(&store);
    let period = TimeInterval::new(0.0, 140.0).unwrap();
    let mut profile = QueryProfile::new();
    let mut last = QueryProfile::new();
    for qi in 0..5u64 {
        let q = store.get(TrajectoryId(qi)).unwrap().clip(&period).unwrap();
        bfmst_search(
            &[(&rtree, &store)],
            &q,
            &period,
            &MstConfig::k(2),
            &NoShare,
            &mut profile,
        )
        .unwrap();
        assert!(profile.heap_pushes >= last.heap_pushes);
        assert!(profile.heap_pops >= last.heap_pops);
        assert!(profile.nodes_accessed() >= last.nodes_accessed());
        assert!(profile.buffer_hits >= last.buffer_hits);
        assert!(profile.buffer_misses >= last.buffer_misses);
        assert!(profile.bytes_decoded >= last.bytes_decoded);
        assert!(profile.piece_evals() >= last.piece_evals());
        assert!(profile.candidates.seen >= last.candidates.seen);
        assert!(profile.pruning.ldd_evals >= last.pruning.ldd_evals);
        assert!(profile.pruning.pes_dissim_evals >= last.pruning.pes_dissim_evals);
        // Every query does real work, so the headline counters strictly grow.
        assert!(
            profile.heap_pops > last.heap_pops,
            "query {qi} popped nothing"
        );
        assert!(profile.candidates.seen > last.candidates.seen);
        last = profile.clone();
    }
}

/// Attaching a profile must not change any result: the traced and
/// untraced entry points return bit-identical dissimilarities for k-MST
/// (both substrates), the scan, and the time-relaxed search.
#[test]
fn tracing_never_changes_a_result_bit() {
    let store = gstd_store(25, 180, 27);
    let (rtree, tbtree) = build_both(&store);
    let period = TimeInterval::new(5.0, 170.0).unwrap();
    for qi in [0u64, 8, 16, 24] {
        let q = store.get(TrajectoryId(qi)).unwrap().clip(&period).unwrap();

        let plain = bfmst_search(
            &[(&rtree, &store)],
            &q,
            &period,
            &MstConfig::k(4),
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        let mut profile = QueryProfile::new();
        let traced = bfmst_search(
            &[(&rtree, &store)],
            &q,
            &period,
            &MstConfig::k(4),
            &NoShare,
            &mut profile,
        )
        .unwrap();
        assert_eq!(dissim_bits(&plain), dissim_bits(&traced));

        let plain_tb = bfmst_search(
            &[(&tbtree, &store)],
            &q,
            &period,
            &MstConfig::k(4),
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        let mut ptb = QueryProfile::new();
        let traced_tb = bfmst_search(
            &[(&tbtree, &store)],
            &q,
            &period,
            &MstConfig::k(4),
            &NoShare,
            &mut ptb,
        )
        .unwrap();
        assert_eq!(dissim_bits(&plain_tb), dissim_bits(&traced_tb));

        let scan_plain = scan_kmst(&store, &q, &period, 4, Integration::Exact).unwrap();
        let mut ps = QueryProfile::new();
        let scan_traced =
            scan_kmst_traced(&store, &q, &period, 4, Integration::Exact, &mut ps).unwrap();
        assert_eq!(dissim_bits(&scan_plain), dissim_bits(&scan_traced));
        // The scan refines every candidate it sees — the pruning-power
        // denominator.
        assert_eq!(ps.candidates.seen, ps.candidates.refined);
        assert!(ps.is_consistent());

        let relax_plain = time_relaxed_kmst(&store, &q, &TimeRelaxedConfig::k(2)).unwrap();
        let mut prx = QueryProfile::new();
        let relax_traced =
            time_relaxed_kmst_traced(&store, &q, &TimeRelaxedConfig::k(2), &mut prx).unwrap();
        assert_eq!(
            relax_plain
                .iter()
                .map(|m| (m.traj, m.dissim.to_bits(), m.shift.to_bits()))
                .collect::<Vec<_>>(),
            relax_traced
                .iter()
                .map(|m| (m.traj, m.dissim.to_bits(), m.shift.to_bits()))
                .collect::<Vec<_>>()
        );
        assert!(prx.is_consistent());
    }
}

/// The builder facade returns exactly what the underlying search
/// functions return, and its profiled variant reports live counters.
#[test]
fn builder_matches_the_direct_entry_points() {
    use mst::search::{MovingObjectDatabase, Query};
    let store = gstd_store(20, 150, 33);
    let mut db = MovingObjectDatabase::with_tbtree();
    let mut feed: Vec<(TrajectoryId, mst::trajectory::SamplePoint)> = Vec::new();
    for (id, t) in store.iter() {
        for p in t.points() {
            feed.push((id, *p));
        }
    }
    feed.sort_by(|a, b| a.1.t.total_cmp(&b.1.t).then(a.0.cmp(&b.0)));
    for (id, p) in feed {
        db.append(id, p).unwrap();
    }

    let period = TimeInterval::new(10.0, 140.0).unwrap();
    let q = db
        .trajectory(TrajectoryId(3))
        .unwrap()
        .clip(&period)
        .unwrap();

    let via_builder = Query::kmst(&q).k(3).during(&period).run(&db).unwrap();
    let (profiled, profile) = Query::kmst(&q).k(3).during(&period).profile(&db).unwrap();
    assert_eq!(dissim_bits(&via_builder), dissim_bits(&profiled));
    assert!(profile.is_consistent());
    assert!(profile.nodes_accessed() > 0);
    assert!(profile.candidates.seen > 0);
    assert!(profile.piece_evals() > 0);

    let direct =
        scan_kmst(db.store(), &q, &period, 3, Integration::Trapezoid).map(|m| dissim_bits(&m));
    // The index search post-refines with the same integration rule, so the
    // winner set agrees with the scan (ids, not necessarily bits).
    let scan_ids: Vec<TrajectoryId> = direct.unwrap().iter().map(|(id, _)| *id).collect();
    let builder_ids: Vec<TrajectoryId> = via_builder.iter().map(|m| m.traj).collect();
    assert_eq!(scan_ids, builder_ids);
}
