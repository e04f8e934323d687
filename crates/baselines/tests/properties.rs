//! Property-based tests for the baseline measures, run as seeded
//! deterministic loops (the hermetic build carries no `proptest`; the
//! in-tree [`mst_prng`] generator drives the same invariants instead).

use mst_baselines::{interpolation_improve, Edr, Lcss};
use mst_prng::Rng;
use mst_trajectory::Trajectory;

/// A random trajectory with `n` points on the shared grid `0, 1, ..., n-1`
/// and coordinates in `[-5, 5]`.
fn trajectory(rng: &mut Rng, n: usize) -> Trajectory {
    Trajectory::new(
        (0..n)
            .map(|i| {
                mst_trajectory::SamplePoint::new(
                    i as f64,
                    rng.f64_range(-5.0, 5.0),
                    rng.f64_range(-5.0, 5.0),
                )
            })
            .collect(),
    )
    .unwrap()
}

/// Runs `cases` independently seeded iterations of `body`; the failure
/// message carries the case seed so any violation replays exactly.
fn check(name: &str, cases: u64, mut body: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::seed_from(0xBA5E_11E5 ^ case.wrapping_mul(0x9E37_79B9));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            panic!("property `{name}` failed at case {case}: {e:?}");
        }
    }
}

#[test]
fn lcss_similarity_is_bounded_and_symmetric() {
    check("lcss_bounded_symmetric", 96, |rng| {
        let a = trajectory(rng, 9);
        let b = trajectory(rng, 13);
        let eps = rng.f64_range(0.01, 5.0);
        let m = Lcss::new(eps);
        let s = m.similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(m.lcss_length(&a, &b), m.lcss_length(&b, &a));
        // Self-similarity is 1 for any positive epsilon.
        assert_eq!(m.similarity(&a, &a), 1.0);
    });
}

#[test]
fn lcss_is_monotone_in_epsilon() {
    check("lcss_monotone_in_epsilon", 96, |rng| {
        let a = trajectory(rng, 8);
        let b = trajectory(rng, 8);
        let tight = Lcss::new(0.1).lcss_length(&a, &b);
        let loose = Lcss::new(2.0).lcss_length(&a, &b);
        assert!(loose >= tight);
    });
}

#[test]
fn edr_is_symmetric_and_bounded() {
    check("edr_symmetric_bounded", 96, |rng| {
        let a = trajectory(rng, 7);
        let b = trajectory(rng, 11);
        let eps = rng.f64_range(0.01, 5.0);
        let m = Edr::new(eps);
        let d = m.distance(&a, &b);
        assert_eq!(d, m.distance(&b, &a));
        assert!(d <= a.num_points().max(b.num_points()));
        assert!(d >= a.num_points().abs_diff(b.num_points()));
        assert_eq!(m.distance(&a, &a), 0);
        assert!((0.0..=1.0).contains(&m.normalized_distance(&a, &b)));
    });
}

#[test]
fn interpolation_improve_is_a_superset_resampling() {
    check("interpolation_improve_superset", 96, |rng| {
        let q = trajectory(rng, 5);
        let d = trajectory(rng, 12);
        let improved = interpolation_improve(&q, &d);
        // All original query timestamps survive.
        let stamps: Vec<f64> = improved.points().iter().map(|p| p.t).collect();
        for p in q.points() {
            assert!(stamps.contains(&p.t));
        }
        // Positions still lie on the original query's polyline.
        for p in improved.points() {
            let on_line = q.position_at(p.t).unwrap();
            assert!((p.x - on_line.x).abs() < 1e-9);
            assert!((p.y - on_line.y).abs() < 1e-9);
        }
    });
}
