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
//!   candidate path was reworked.

use mst::datagen::TrucksConfig;
use mst::index::{
    LeafEntry, Node, Rtree3D, StrTree, TbTree, TrajectoryIndex, TrajectoryIndexWrite,
};
use mst::search::metrics::{CandidateCounters, PruningCounters};
use mst::search::{
    arrival_order, scan_kmst, Integration, KmstSubstrate, MstConfig, NoShare, QueryProfile,
    TrajectoryStore,
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
    for m in matches {
        for word in [m.traj.0, m.dissim.to_bits()] {
            for byte in word.to_le_bytes() {
                *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
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
