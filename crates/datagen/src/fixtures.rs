//! Small seeded fleets the test suites share, so that the awkward cases —
//! objects alive for part of a query period, one trajectory under two ids,
//! equal-DISSIM ties — are in front of every suite that compares index
//! answers with the exact scan, not only the one that first met them.

use mst_trajectory::{SamplePoint, TimeInterval, Trajectory, TrajectoryId};

use crate::{GstdConfig, SpeedDistribution};

/// `(id, trajectory)` pairs with dense ids from 0: what every database
/// builder takes.
pub type Fleet = Vec<(TrajectoryId, Trajectory)>;

fn with_dense_ids(trajectories: impl IntoIterator<Item = Trajectory>) -> Fleet {
    (0..).map(TrajectoryId).zip(trajectories).collect()
}

/// A scaled-down GSTD workload (unit time step, lognormal speeds around
/// `5e-3`): enough structure to exercise every query flavour, small enough
/// that a suite built on it stays fast.
pub fn gstd_fleet(objects: usize, samples: usize, seed: u64) -> Fleet {
    with_dense_ids(
        GstdConfig {
            num_objects: objects,
            samples_per_object: samples,
            time_step: 1.0,
            speed: SpeedDistribution::lognormal_with_median(5.0e-3, 0.6),
            seed,
        }
        .generate(),
    )
}

/// Straight movers over `[0, points - 1]`: even ids hug an origin lane, odd
/// ids fan far out — so a query near the cluster finds tight matches on one
/// shard (under 2-way sharding) and prunable stragglers on the other.
pub fn lane_fleet(n: u64, points: usize) -> Fleet {
    with_dense_ids((0..n).map(|id| {
        let (dx, dy) = if id % 2 == 0 {
            (id as f64 * 0.25, 0.5 * id as f64)
        } else {
            (id as f64 * 3.0, 40.0 + 7.0 * id as f64)
        };
        let pts = (0..points)
            .map(|i| {
                let t = i as f64;
                SamplePoint::new(t, t * 0.8 + dx, dy + t * 0.1)
            })
            .collect();
        Trajectory::new(pts).expect("valid lane trajectory")
    }))
}

/// A paper-speed GSTD fleet where two objects in three live only part of
/// the common time span: ids `≡ 1 (mod 3)` stop at 45 % of it, ids
/// `≡ 2 (mod 3)` start at 55 %. Neither kind covers the middle half of a
/// full-lifetime object's span, so neither may appear in — or shape — the
/// answer of a query over it.
pub fn mixed_lifetime_fleet(objects: usize, samples: usize, seed: u64) -> Fleet {
    let full = GstdConfig {
        samples_per_object: samples,
        ..GstdConfig::paper_dataset(objects, seed)
    }
    .generate();
    with_dense_ids(full.into_iter().enumerate().map(|(i, t)| {
        let (start, end) = (t.start_time(), t.end_time());
        let at = |share: f64| start + (end - start) * share;
        let lifetime = match i % 3 {
            1 => TimeInterval::new(start, at(0.45)),
            2 => TimeInterval::new(at(0.55), end),
            _ => return t,
        };
        t.clip(&lifetime.expect("valid lifetime"))
            .expect("clip to lifetime")
    }))
}

/// A query along `y = 0` and nine objects shaped like it at small offsets:
/// one trajectory stored under two ids (0 and 5), its mirror image across
/// the query's lane (7) — a three-way bit-equal DISSIM tie — a strictly
/// closer object (1) and two more mirror pairs (2/3, 4/6), so an
/// equal-DISSIM tie sits at the kth position for most `k`, and `id % 2`
/// splits every tied pair across two shards.
pub fn twins_fleet() -> (Trajectory, Fleet) {
    // `lane(y, _)` and `lane(-y, _)` are at bit-equal DISSIM from the query.
    let lane = |y: f64, wobble: f64| {
        let pts: Vec<(f64, f64, f64)> = (0..60)
            .map(|i| {
                let t = f64::from(i);
                (t, t * 0.01, y * (1.0 + wobble * (t * 0.2).sin()))
            })
            .collect();
        Trajectory::from_txy(&pts).expect("lane")
    };
    let fleet = with_dense_ids([
        lane(0.02, 0.3),  // 0: twin ...
        lane(0.01, 0.1),  // 1: strictly closer than the twins
        lane(0.03, 0.2),  // 2: mirror pair ...
        lane(-0.03, 0.2), // 3: ... of 2
        lane(-0.05, 0.0), // 4
        lane(0.02, 0.3),  // 5: ... of 0, the same trajectory
        lane(0.05, 0.0),  // 6: mirror of 4
        lane(-0.02, 0.3), // 7: mirror of the twins — a three-way tie
        lane(0.08, 0.1),  // 8
    ]);
    (lane(0.0, 0.0), fleet)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleets_are_deterministic_and_shaped_as_documented() {
        assert_eq!(gstd_fleet(6, 40, 3), gstd_fleet(6, 40, 3));
        assert_ne!(gstd_fleet(6, 40, 3), gstd_fleet(6, 40, 4));
        assert!(lane_fleet(5, 12)
            .iter()
            .all(|(_, t)| t.num_points() == 12 && t.end_time() == 11.0));

        let mixed = mixed_lifetime_fleet(12, 100, 13);
        let span = mixed[0].1.time();
        let middle = TimeInterval::new(
            span.start() + span.duration() * 0.25,
            span.end() - span.duration() * 0.25,
        )
        .expect("middle half");
        for (id, t) in &mixed {
            assert_eq!(t.covers(&middle), id.0 % 3 == 0, "object {}", id.0);
        }

        let (query, twins) = twins_fleet();
        assert_eq!(twins[0].1, twins[5].1, "one trajectory under two ids");
        assert!(twins.iter().all(|(_, t)| t.time() == query.time()));
    }
}
