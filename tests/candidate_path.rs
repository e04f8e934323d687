//! The candidate path of BFMST, pinned: what `bfmst_search` does per leaf
//! entry besides the integrals (threshold read, entry matching, gap walk,
//! exact refinement) may get cheaper but may not change a count or a bit.
//!
//! * the forward cursor that matches a leaf's time-sorted entries against
//!   the query lands on the segment `Trajectory::segment_index_at` finds,
//!   for every entry of every leaf of a Trucks-like (variable-rate) R-tree,
//!   TB-tree and STR-tree;
//! * one seeded query set per MBB substrate reproduces the full
//!   [`QueryProfile`] and the answer fingerprint recorded before the
//!   candidate path was reworked;
//! * the same query set pins the other two best-first loops — the metric
//!   tree's ball search and trajectory kNN on the R-tree — recorded before
//!   the three loops shared one pruning threshold, and a one-worker batch
//!   over two-shard R-tree and metric databases, whose queries are each
//!   one search over both shards' trees: its answers were recorded when
//!   the shards were searched one by one under a shared bound, its
//!   profile when they became one search.

use mst::datagen::TrucksConfig;
use mst::exec::{BatchExecutor, BatchQuery, QueryAnswer, ShardedDatabase};
use mst::index::{
    LeafEntry, MetricTree, Node, Rtree3D, StrTree, TbTree, TrajectoryIndex, TrajectoryIndexWrite,
};
use mst::search::metrics::{CandidateCounters, PruningCounters};
use mst::search::{
    arrival_order, scan_kmst, Integration, KmstSubstrate, MovingObjectDatabase, MstConfig, NoShare,
    Query, QueryProfile, TrajectoryStore,
};
use mst::trajectory::{SamplePoint, TimeInterval, Trajectory, TrajectoryId};

/// A Trucks-like fleet: jittered sampling with drop-outs, so no two objects
/// share a rate and a leaf's entries start anywhere inside a query segment.
fn trucks_store() -> TrajectoryStore {
    TrajectoryStore::from_trajectories(TrucksConfig::small(24, 0x6361_6e64).generate())
}

fn build<I: TrajectoryIndexWrite>(mut index: I, store: &TrajectoryStore) -> I {
    for e in arrival_order(store.iter()) {
        index.insert_entry(e).expect("insert");
    }
    index
}

/// Nine queries: three objects, each displaced by 35 m (no zero-DISSIM self
/// match) and cut to 2 %, 25 % and 100 % of its lifetime.
fn queries(store: &TrajectoryStore) -> Vec<(Trajectory, TimeInterval)> {
    let mut out = Vec::new();
    for object in [3u64, 11, 17] {
        let t = store.get(TrajectoryId(object)).expect("query object");
        let moved = Trajectory::new(
            t.points()
                .iter()
                .map(|p| SamplePoint::new(p.t, p.x + 35.0, p.y - 20.0))
                .collect(),
        )
        .expect("displaced copy");
        for share in [0.02, 0.25, 1.0] {
            let whole = moved.time();
            let len = whole.duration() * share;
            let start = whole.start() + (whole.duration() - len) * 0.4;
            let period = TimeInterval::new(start, start + len).expect("period");
            out.push((moved.clip(&period).expect("clip"), period));
        }
    }
    out
}

/// FNV-1a over the answers' `(id, DISSIM bits)`.
fn fingerprint(hash: &mut u64, matches: &[mst::search::MstMatch]) {
    fold_words(
        hash,
        matches.iter().flat_map(|m| [m.traj.0, m.dissim.to_bits()]),
    );
}

/// FNV-1a over kNN answers' `(id, distance bits, time bits)`.
fn knn_fingerprint(hash: &mut u64, matches: &[mst::search::NnMatch]) {
    fold_words(
        hash,
        matches
            .iter()
            .flat_map(|m| [m.traj.0, m.distance.to_bits(), m.time.to_bits()]),
    );
}

fn fold_words(hash: &mut u64, words: impl IntoIterator<Item = u64>) {
    for word in words {
        for byte in word.to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs the pinned set on one substrate: every query under k = 1, k = 4 and
/// an exact-integration k = 2, answers checked against the scan; returns
/// the summed profile and the answer fingerprint.
fn pinned_run<I: KmstSubstrate>(index: &I, store: &TrajectoryStore) -> (QueryProfile, u64) {
    let mut total = QueryProfile::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (q, period) in queries(store) {
        let exact = MstConfig {
            integration: Integration::Exact,
            error_management: false,
            ..MstConfig::k(2)
        };
        for config in [MstConfig::k(1), MstConfig::k(4), exact] {
            let mut profile = QueryProfile::new();
            let report = index
                .kmst_search(store, &q, &period, &config, &NoShare, &mut profile)
                .expect("search");
            assert!(profile.is_consistent());
            let want = scan_kmst(store, &q, &period, config.k, Integration::Exact).expect("scan");
            assert_eq!(
                report.matches.iter().map(|m| m.traj).collect::<Vec<_>>(),
                want.iter().map(|m| m.traj).collect::<Vec<_>>()
            );
            fingerprint(&mut hash, &report.matches);
            total.merge(&profile);
        }
    }
    (total, hash)
}

/// The R-tree, TB-tree and STR-tree over the fleet, in that order.
fn substrates(store: &TrajectoryStore) -> (Rtree3D, TbTree, StrTree) {
    (
        build(Rtree3D::new(), store),
        build(TbTree::new(), store),
        build(StrTree::new(), store),
    )
}

#[test]
fn candidate_path_pinned_profiles_and_answers_are_those_recorded_before_the_rework() {
    let store = trucks_store();
    let (rtree, tbtree, strtree) = substrates(&store);

    let (profile, answers) = pinned_run(&rtree, &store);
    assert_eq!(answers, 0xcdb83ed738958f82, "R-tree answers");
    assert_eq!(
        profile,
        QueryProfile {
            heap_pushes: 1008,
            heap_pops: 429,
            node_accesses: vec![375, 27],
            buffer_hits: 47,
            buffer_misses: 355,
            bytes_decoded: 1646592,
            exact_piece_evals: 9598,
            trapezoid_piece_evals: 10399,
            exact_recomputations: 45,
            candidates: CandidateCounters {
                seen: 350,
                refined: 75,
                pruned: 201,
                pending: 74,
            },
            pruning: PruningCounters {
                ldd_evals: 64986,
                opt_dissim_evals: 9052,
                opt_dissim_prunes: 201,
                pes_dissim_evals: 9052,
                pes_dissim_tightenings: 9052,
                opt_dissim_inc_evals: 263,
                opt_dissim_inc_prunes: 74,
                min_dissim_inc_evals: 233,
                min_dissim_inc_prunes: 606,
                ..PruningCounters::default()
            },
            early_terminations: 27,
            ..QueryProfile::default()
        },
        "R-tree"
    );

    let (profile, answers) = pinned_run(&tbtree, &store);
    assert_eq!(answers, 0x9896ab09b6da6978, "TB-tree answers");
    assert_eq!(
        profile,
        QueryProfile {
            heap_pushes: 891,
            heap_pops: 467,
            node_accesses: vec![413, 27],
            buffer_hits: 38,
            buffer_misses: 402,
            bytes_decoded: 1802240,
            exact_piece_evals: 10997,
            trapezoid_piece_evals: 14934,
            exact_recomputations: 45,
            candidates: CandidateCounters {
                seen: 345,
                refined: 104,
                pruned: 176,
                pending: 65,
            },
            pruning: PruningCounters {
                ldd_evals: 24692,
                opt_dissim_evals: 12008,
                opt_dissim_prunes: 176,
                pes_dissim_evals: 12008,
                pes_dissim_tightenings: 12008,
                opt_dissim_inc_evals: 85,
                opt_dissim_inc_prunes: 65,
                min_dissim_inc_evals: 272,
                min_dissim_inc_prunes: 451,
                ..PruningCounters::default()
            },
            early_terminations: 27,
            ..QueryProfile::default()
        },
        "TB-tree"
    );

    let (profile, answers) = pinned_run(&strtree, &store);
    assert_eq!(answers, 0x61b4d08d3c3f1a9, "STR-tree answers");
    assert_eq!(
        profile,
        QueryProfile {
            heap_pushes: 981,
            heap_pops: 397,
            node_accesses: vec![343, 27],
            buffer_hits: 53,
            buffer_misses: 317,
            bytes_decoded: 1515520,
            exact_piece_evals: 9985,
            trapezoid_piece_evals: 10916,
            exact_recomputations: 45,
            candidates: CandidateCounters {
                seen: 319,
                refined: 74,
                pruned: 165,
                pending: 80,
            },
            pruning: PruningCounters {
                ldd_evals: 39734,
                opt_dissim_evals: 9480,
                opt_dissim_prunes: 165,
                pes_dissim_evals: 9480,
                pes_dissim_tightenings: 9480,
                opt_dissim_inc_evals: 103,
                opt_dissim_inc_prunes: 80,
                min_dissim_inc_evals: 215,
                min_dissim_inc_prunes: 611,
                ..PruningCounters::default()
            },
            early_terminations: 27,
            ..QueryProfile::default()
        },
        "STR-tree"
    );
}

#[test]
fn candidate_path_metric_ball_search_profile_and_answers_are_pinned() {
    let store = trucks_store();
    let tree = build(MetricTree::new(), &store);
    let (profile, answers) = pinned_run(&tree, &store);
    // The same answers as the TB-tree's pin: every substrate is exact.
    assert_eq!(answers, 0x9896ab09b6da6978, "metric-tree answers");
    assert_eq!(
        profile,
        QueryProfile {
            heap_pushes: 189,
            heap_pops: 189,
            node_accesses: vec![784],
            buffer_hits: 2,
            buffer_misses: 782,
            bytes_decoded: 3211264,
            exact_piece_evals: 39844,
            candidates: CandidateCounters {
                seen: 643,
                refined: 581,
                pruned: 62,
                ..CandidateCounters::default()
            },
            pruning: PruningCounters {
                triangle_ineq_evals: 607,
                triangle_ineq_prunes: 63,
                ..PruningCounters::default()
            },
            early_terminations: 1,
            ..QueryProfile::default()
        },
        "metric tree"
    );
}

#[test]
fn candidate_path_trajectory_knn_profile_and_answers_are_pinned() {
    let store = trucks_store();
    // `run_knn` is `nearest_trajectories` on the database's index.
    let db = MovingObjectDatabase::from_parts(build(Rtree3D::new(), &store), store.clone());
    let mut total = QueryProfile::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (q, period) in queries(&store) {
        for k in [1, 4] {
            let (matches, profile) = Query::knn(&q)
                .k(k)
                .during(&period)
                .profile(&db)
                .expect("knn");
            assert!(profile.is_consistent());
            assert_eq!(matches.len(), k);
            knn_fingerprint(&mut hash, &matches);
            total.merge(&profile);
        }
    }
    assert_eq!(hash, 0x42cd0f473aa43ebc, "kNN answers");
    assert_eq!(
        total,
        QueryProfile {
            heap_pushes: 672,
            heap_pops: 176,
            node_accesses: vec![140, 18],
            buffer_hits: 43,
            buffer_misses: 115,
            bytes_decoded: 647168,
            candidates: CandidateCounters {
                seen: 187,
                pending: 187,
                ..CandidateCounters::default()
            },
            ..QueryProfile::default()
        },
        "R-tree kNN"
    );
}

/// The query set as a batch: k-MST at k = 1 and k = 4, then kNN at k = 4.
fn batch(store: &TrajectoryStore) -> Vec<BatchQuery> {
    let mut out = Vec::new();
    for (q, period) in queries(store) {
        for k in [1, 4] {
            out.push(BatchQuery::kmst(Query::kmst(&q).k(k).during(&period)).expect("spec"));
        }
        out.push(BatchQuery::knn(Query::knn(&q).k(4).during(&period)).expect("spec"));
    }
    out
}

/// Runs [`batch`] on one worker — so the buffer pools see the queries in
/// one order — and returns the merged profile and the answer fingerprint.
fn pinned_batch<I: KmstSubstrate + Send>(
    db: &ShardedDatabase<I>,
    store: &TrajectoryStore,
) -> (QueryProfile, u64) {
    let outcome = BatchExecutor::new().workers(1).run(db, batch(store));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for result in &outcome.outcomes {
        let query = result.as_ref().expect("query");
        assert!(!query.degraded, "{:?}", query.failures);
        match &query.answer {
            QueryAnswer::Kmst(m) => fingerprint(&mut hash, m),
            QueryAnswer::Knn(m) => knn_fingerprint(&mut hash, m),
            other => panic!("unexpected answer {other:?}"),
        }
    }
    (outcome.merged_profile(), hash)
}

#[test]
fn candidate_path_sharded_batch_profiles_of_the_one_search_are_pinned() {
    let store = trucks_store();
    let fleet = || store.iter().map(|(id, t)| (id, t.clone()));
    let rtree = ShardedDatabase::with_rtree(2, fleet()).expect("shards");
    let metric = ShardedDatabase::with_metric(2, fleet()).expect("shards");
    let (profile, answers) = pinned_batch(&rtree, &store);
    assert_eq!(answers, 0x25c4e6db6fef3f36, "two R-tree shards");
    assert_eq!(
        profile,
        QueryProfile {
            heap_pushes: 1071,
            heap_pops: 394,
            node_accesses: vec![313, 54],
            buffer_hits: 171,
            buffer_misses: 196,
            bytes_decoded: 1503232,
            exact_piece_evals: 2924,
            trapezoid_piece_evals: 10795,
            exact_recomputations: 45,
            candidates: CandidateCounters {
                seen: 313,
                refined: 52,
                pruned: 98,
                pending: 163,
            },
            pruning: PruningCounters {
                ldd_evals: 34188,
                opt_dissim_evals: 5735,
                opt_dissim_prunes: 98,
                pes_dissim_evals: 5735,
                pes_dissim_tightenings: 5735,
                opt_dissim_inc_evals: 182,
                opt_dissim_inc_prunes: 62,
                min_dissim_inc_evals: 136,
                min_dissim_inc_prunes: 446,
                ..PruningCounters::default()
            },
            early_terminations: 18,
            ..QueryProfile::default()
        },
        "two R-tree shards"
    );
    let (profile, answers) = pinned_batch(&metric, &store);
    assert_eq!(answers, 0x8bfba3e881b65ab9, "two metric shards");
    assert_eq!(
        profile,
        QueryProfile {
            heap_pushes: 414,
            heap_pops: 248,
            node_accesses: vec![669, 18],
            buffer_hits: 78,
            buffer_misses: 609,
            bytes_decoded: 2813952,
            exact_piece_evals: 26265,
            candidates: CandidateCounters {
                seen: 508,
                refined: 386,
                pruned: 16,
                pending: 106,
            },
            pruning: PruningCounters {
                triangle_ineq_evals: 375,
                triangle_ineq_prunes: 22,
                ..PruningCounters::default()
            },
            early_terminations: 6,
            ..QueryProfile::default()
        },
        "two metric shards"
    );
}

/// Every leaf's entries, one `Vec` per leaf.
fn leaves<I: TrajectoryIndex>(index: &I) -> Vec<Vec<LeafEntry>> {
    let mut out = Vec::new();
    let mut pages: Vec<_> = index.root().into_iter().collect();
    while let Some(page) = pages.pop() {
        match index.read_node(page).expect("read") {
            Node::Leaf { entries, .. } => out.push(entries),
            Node::Internal { entries, .. } => pages.extend(entries.iter().map(|e| e.child)),
        }
    }
    out
}

/// Sweeps every leaf the way `bfmst_search` does — entries alive for more
/// than an instant of the period, in arrival order, one binary search for
/// the first and a forward walk from there — and checks every cursor
/// position against the binary search it replaces. Returns the entries
/// checked.
fn cursor_sweep<I: TrajectoryIndex>(index: &I, q: &Trajectory, period: &TimeInterval) -> usize {
    let mut checked = 0;
    for mut entries in leaves(index) {
        let window_of = |e: &LeafEntry| {
            let window = e.segment.time().intersect(period)?;
            (!window.is_instant()).then_some(window)
        };
        entries.retain(|e| window_of(e).is_some());
        entries.sort_unstable_by(LeafEntry::arrival_cmp);
        let Some(first) = entries.first().and_then(window_of) else {
            continue;
        };
        let mut cursor = q.segment_index_at(first.start()).expect("inside the query");
        for e in &entries {
            let window = window_of(e).expect("retained");
            cursor = q.segment_index_from(cursor, window.start());
            assert_eq!(
                cursor,
                q.segment_index_at(window.start())
                    .expect("inside the query"),
                "entry {:?}#{} over {window}",
                e.traj,
                e.seq
            );
            checked += 1;
        }
    }
    checked
}

#[test]
fn candidate_path_cursor_lands_where_the_binary_search_does_on_every_leaf_entry() {
    let store = trucks_store();
    let (rtree, tbtree, strtree) = substrates(&store);
    let segments: usize = store.iter().map(|(_, t)| t.num_segments()).sum();
    for (q, period) in queries(&store) {
        let checked = [
            cursor_sweep(&rtree, &q, &period),
            cursor_sweep(&tbtree, &q, &period),
            cursor_sweep(&strtree, &q, &period),
        ];
        // Every tree holds every segment once, so the sweeps see the same
        // entries; the whole-lifetime queries see all of them.
        assert_eq!(checked[0], checked[1]);
        assert_eq!(checked[0], checked[2]);
        assert!(checked[0] > 0 && checked[0] <= segments);
        if period.duration() >= 2_999.0 {
            assert_eq!(checked[0], segments);
        }
    }
}
