//! Property-based tests on the core invariants, spanning crates:
//!
//! * the trapezoid DISSIM enclosure always contains the exact integral;
//! * OPTDISSIM/PESDISSIM sandwich the exact DISSIM for arbitrary partial
//!   retrievals;
//! * BFMST on both index structures equals the exact linear scan;
//! * MINDIST lower-bounds every realized query–candidate distance;
//! * TD-TR respects its tolerance and keeps endpoints;
//! * R-tree / TB-tree structural invariants survive arbitrary insertions.
//!
//! The hermetic build carries no `proptest`; each property runs as a seeded
//! deterministic loop over [`mst_prng`]-generated inputs, with the failing
//! case index reported for exact replay.

use mst::datagen::td_tr;
use mst::index::mindist::trajectory_mbb_mindist;
use mst::index::{check_invariants, Rtree3D, TbTree, TrajectoryIndex};
use mst::search::bounds::Candidate;
use mst::search::dissim::{dissim_between, dissim_exact, piece};
use mst::search::{
    arrival_order, bfmst_search, scan_kmst, Integration, MstConfig, NoShare, NoopSink,
    TrajectoryStore,
};
use mst::trajectory::cosample::co_segments;
use mst::trajectory::{TimeInterval, Trajectory, TrajectoryId};
use mst_prng::Rng;

/// A trajectory with `n` points on the shared time grid `0, 1, ..., n-1`
/// and coordinates in [-10, 10].
fn trajectory(rng: &mut Rng, n: usize) -> Trajectory {
    Trajectory::new(
        (0..n)
            .map(|i| {
                mst::trajectory::SamplePoint::new(
                    i as f64,
                    rng.f64_range(-10.0, 10.0),
                    rng.f64_range(-10.0, 10.0),
                )
            })
            .collect(),
    )
    .expect("grid timestamps are strictly increasing")
}

/// A small dataset of trajectories over the same grid.
fn dataset(rng: &mut Rng, objects: usize, n: usize) -> Vec<Trajectory> {
    (0..objects).map(|_| trajectory(rng, n)).collect()
}

/// Runs `cases` independently seeded iterations of `body`, reporting the
/// case index (hence the exact input stream) on failure.
fn check(name: &str, cases: u64, mut body: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::seed_from(0x5EED_CA5E ^ case.wrapping_mul(0x9E37_79B9));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            panic!("property `{name}` failed at case {case}: {e:?}");
        }
    }
}

#[test]
fn trapezoid_enclosure_contains_exact() {
    check("trapezoid_enclosure", 64, |rng| {
        let a = trajectory(rng, 8);
        let b = trajectory(rng, 12);
        let period = TimeInterval::new(0.0, 7.0).unwrap();
        let exact = dissim_exact(&a, &b, &period).unwrap();
        let approx = dissim_between(&a, &b, &period, Integration::Trapezoid).unwrap();
        assert!(exact <= approx.upper() + 1e-9 * (1.0 + exact.abs()));
        assert!(exact >= approx.lower() - 1e-9 * (1.0 + exact.abs()));
    });
}

#[test]
fn dissim_is_symmetric_and_nonnegative() {
    check("dissim_symmetric", 64, |rng| {
        let a = trajectory(rng, 6);
        let b = trajectory(rng, 9);
        let period = TimeInterval::new(0.0, 5.0).unwrap();
        let ab = dissim_exact(&a, &b, &period).unwrap();
        let ba = dissim_exact(&b, &a, &period).unwrap();
        assert!(ab >= -1e-12);
        assert!((ab - ba).abs() < 1e-9 * (1.0 + ab.abs()));
    });
}

#[test]
fn partial_candidate_bounds_sandwich_exact() {
    check("partial_bounds_sandwich", 64, |rng| {
        let q = trajectory(rng, 7);
        let t = trajectory(rng, 7);
        let mask: Vec<bool> = (0..16).map(|_| rng.bool()).collect();
        let period = TimeInterval::new(0.0, 6.0).unwrap();
        let exact = dissim_exact(&q, &t, &period).unwrap();
        let vmax = q.max_speed() + t.max_speed();
        let pairs = co_segments(&q, &t, &period).unwrap();
        let mut cand = Candidate::new(TrajectoryId(0), 1e-9);
        let mut any = false;
        for (i, pair) in pairs.iter().enumerate() {
            if mask[i % mask.len()] {
                let p = piece(&pair.first, &pair.second, Integration::Trapezoid).unwrap();
                cand.add_piece(&p);
                any = true;
            }
        }
        if !any {
            return; // the vacuous mask carries no information
        }
        let opt = cand.opt_dissim(&period, vmax);
        let pes = cand.pes_dissim(&period, vmax);
        let tol = 1e-9 * (1.0 + exact.abs());
        assert!(opt <= exact + tol, "opt {opt} > exact {exact}");
        assert!(pes >= exact - tol, "pes {pes} < exact {exact}");
    });
}

#[test]
fn bfmst_equals_scan_on_random_datasets() {
    check("bfmst_equals_scan", 64, |rng| {
        let data = dataset(rng, 8, 6);
        let k = 1 + rng.usize_below(5);
        let qi = rng.usize_below(8);
        let store = TrajectoryStore::from_trajectories(data);
        let period = TimeInterval::new(0.0, 5.0).unwrap();
        let q = store.get(TrajectoryId(qi as u64)).unwrap().clone();
        let expected: Vec<_> = scan_kmst(&store, &q, &period, k, Integration::Exact)
            .unwrap()
            .into_iter()
            .map(|m| m.traj)
            .collect();

        let mut rtree = Rtree3D::new();
        let mut tbtree = TbTree::new();
        for (id, t) in store.iter() {
            rtree.insert_trajectory(id, t).unwrap();
            tbtree.insert_trajectory(id, t).unwrap();
        }
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
        let got_r: Vec<_> = r.matches.iter().map(|m| m.traj).collect();
        let got_t: Vec<_> = t.matches.iter().map(|m| m.traj).collect();
        assert_eq!(got_r, expected);
        assert_eq!(got_t, expected);
    });
}

#[test]
fn mindist_lower_bounds_realized_distances() {
    check("mindist_lower_bounds", 64, |rng| {
        // For any candidate segment's MBB, MINDIST(Q, mbb) must lower-bound
        // the actual distance between the query and that segment over the
        // overlap.
        let q = trajectory(rng, 6);
        let t = trajectory(rng, 6);
        let period = TimeInterval::new(0.0, 5.0).unwrap();
        for seg in t.segments() {
            let mbb = seg.mbb();
            let Some(lower) = trajectory_mbb_mindist(&q, &mbb, &period) else {
                continue;
            };
            // Sample the realized distance densely over the overlap.
            let window = period.intersect(&seg.time()).unwrap();
            for i in 0..=50 {
                let tt = window.start() + (window.end() - window.start()) * f64::from(i) / 50.0;
                let qp = q.position_at(tt).unwrap();
                let sp = seg.position_at(tt).unwrap();
                let d = qp.distance(&sp);
                assert!(
                    lower <= d + 1e-9,
                    "mindist {lower} exceeds realized {d} at t={tt}"
                );
            }
        }
    });
}

#[test]
fn tdtr_respects_tolerance() {
    check("tdtr_tolerance", 64, |rng| {
        let t = trajectory(rng, 30);
        let tol = rng.f64_range(0.01, 5.0);
        let c = td_tr(&t, tol);
        // Endpoints survive.
        assert_eq!(c.points()[0], t.points()[0]);
        assert_eq!(*c.points().last().unwrap(), *t.points().last().unwrap());
        // Every original sample within tolerance of the compressed line.
        for p in t.points() {
            let pos = c.position_at(p.t).unwrap();
            let d = ((p.x - pos.x).powi(2) + (p.y - pos.y).powi(2)).sqrt();
            assert!(d <= tol + 1e-9, "deviation {d} > tol {tol}");
        }
    });
}

#[test]
fn index_invariants_hold_after_random_insertions() {
    check("index_invariants", 64, |rng| {
        let data = dataset(rng, 6, 12);
        let mut rtree = Rtree3D::new();
        let mut tbtree = TbTree::new();
        // Temporal interleave.
        let fleet = (0..).map(TrajectoryId).zip(&data);
        for e in arrival_order(fleet) {
            rtree.insert(e).unwrap();
            tbtree.insert(e).unwrap();
        }
        check_invariants(&rtree).unwrap();
        check_invariants(&tbtree).unwrap();
        assert_eq!(rtree.num_entries(), tbtree.num_entries());
    });
}

#[test]
fn strtree_matches_rtree_query_results() {
    check("strtree_matches_rtree", 32, |rng| {
        let data = dataset(rng, 6, 10);
        let qi = rng.usize_below(6);
        let store = TrajectoryStore::from_trajectories(data);
        let mut rtree = Rtree3D::new();
        let mut strtree = mst::index::StrTree::new();
        for (id, t) in store.iter() {
            rtree.insert_trajectory(id, t).unwrap();
            strtree.insert_trajectory(id, t).unwrap();
        }
        check_invariants(&strtree).unwrap();
        let period = TimeInterval::new(0.0, 9.0).unwrap();
        let q = store.get(TrajectoryId(qi as u64)).unwrap().clone();
        let a = bfmst_search(
            &[(&rtree, &store)],
            &q,
            &period,
            &MstConfig::k(3),
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        let b = bfmst_search(
            &[(&strtree, &store)],
            &q,
            &period,
            &MstConfig::k(3),
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        let ids_a: Vec<_> = a.matches.iter().map(|m| m.traj).collect();
        let ids_b: Vec<_> = b.matches.iter().map(|m| m.traj).collect();
        assert_eq!(ids_a, ids_b);
    });
}

#[test]
fn persistence_roundtrip_preserves_query_answers() {
    check("persistence_roundtrip", 32, |rng| {
        let data = dataset(rng, 5, 8);
        let qi = rng.usize_below(5);
        let store = TrajectoryStore::from_trajectories(data);
        let mut tree = Rtree3D::new();
        for (id, t) in store.iter() {
            tree.insert_trajectory(id, t).unwrap();
        }
        let period = TimeInterval::new(0.0, 7.0).unwrap();
        let q = store.get(TrajectoryId(qi as u64)).unwrap().clone();
        let before = bfmst_search(
            &[(&tree, &store)],
            &q,
            &period,
            &MstConfig::k(2),
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();
        let loaded = Rtree3D::load(&bytes[..]).unwrap();
        check_invariants(&loaded).unwrap();
        let after = bfmst_search(
            &[(&loaded, &store)],
            &q,
            &period,
            &MstConfig::k(2),
            &NoShare,
            &mut NoopSink,
        )
        .unwrap();
        let ids_before: Vec<_> = before.matches.iter().map(|m| m.traj).collect();
        let ids_after: Vec<_> = after.matches.iter().map(|m| m.traj).collect();
        assert_eq!(ids_before, ids_after);
    });
}

#[test]
fn rtree_delete_then_query_is_consistent() {
    check("rtree_delete_consistent", 32, |rng| {
        let data = dataset(rng, 5, 10);
        let kills = 1 + rng.usize_below(11);
        let kill: Vec<(u64, u32)> = (0..kills)
            .map(|_| (rng.u64_below(5), rng.u64_below(9) as u32))
            .collect();
        let store = TrajectoryStore::from_trajectories(data);
        let mut tree = Rtree3D::new();
        for (id, t) in store.iter() {
            tree.insert_trajectory(id, t).unwrap();
        }
        let mut removed = std::collections::HashSet::new();
        for (traj, seq) in kill {
            let id = TrajectoryId(traj);
            let was_present = !removed.contains(&(id, seq));
            let deleted = tree.delete(id, seq).unwrap();
            assert_eq!(deleted, was_present);
            removed.insert((id, seq));
        }
        check_invariants(&tree).unwrap();
        let expected = 5 * 9 - removed.len() as u64;
        assert_eq!(tree.num_entries(), expected);
    });
}

#[test]
fn knn_segments_matches_oracle() {
    check("knn_matches_oracle", 32, |rng| {
        let data = dataset(rng, 4, 8);
        let px = rng.f64_range(-10.0, 10.0);
        let py = rng.f64_range(-10.0, 10.0);
        let store = TrajectoryStore::from_trajectories(data);
        let mut tree = Rtree3D::new();
        for (id, t) in store.iter() {
            tree.insert_trajectory(id, t).unwrap();
        }
        let window = TimeInterval::new(1.0, 6.0).unwrap();
        let point = mst::trajectory::Point::new(px, py);
        let got = mst::index::knn_segments(&tree, point, &window, 4).unwrap();
        // Oracle: every indexed segment, clipped, measured directly.
        let mut all: Vec<f64> = Vec::new();
        for (_, t) in store.iter() {
            for seg in t.segments() {
                if let Some(c) = seg.clip(&window) {
                    all.push(mst::index::mindist::segment_rect_mindist(
                        &c,
                        &mst::trajectory::Rect::from_point(point),
                    ));
                }
            }
        }
        all.sort_by(f64::total_cmp);
        assert_eq!(got.len(), 4.min(all.len()));
        for (g, want) in got.iter().zip(&all) {
            assert!((g.distance - want).abs() < 1e-9);
        }
    });
}
