//! Everything a workload runs on, generated through `mst-datagen` GSTD and
//! `mst-prng`: datasets, request streams, and the FNV digests that pin them.
//!
//! `--seed` drives the **traffic** — which windows are queried, in what
//! order, which objects are ingested. The **dataset** is generated from
//! [`DATASET_SEED`], a constant of the benchmark like the object count:
//! across datasets of one size, identical code differs by ±6 % in pages per
//! query and ±12 % in throughput (the shape of the R-tree's top levels and
//! GSTD's maximum speed are global factors of one dataset), which would
//! push every bound to its cap and leave any gain under ~15 % unresolved.

use mst_datagen::GstdConfig;
use mst_index::{LeafEntry, Rtree3D, TrajectoryIndexWrite};
use mst_prng::Rng;
use mst_search::{MstMatch, TrajectoryStore};
use mst_trajectory::{SamplePoint, TimeInterval, Trajectory, TrajectoryId};

/// Results per query, on every workload.
pub const K: usize = 4;

/// A dataset: trajectories with dense ids, in generation order.
pub type Fleet = Vec<(TrajectoryId, Trajectory)>;

/// Seed of every generated dataset (see the module docs).
pub const DATASET_SEED: u64 = 0x4D53_5430_3037;

/// Side of the square world every generated position is scaled to. At
/// GSTD's own scale (unit square, ~5e-4 units a step) the program's
/// closed-form DISSIM is wrong: `DistanceTrinomial::integral_exact` tests
/// "the paths cross" against an absolute floor (`disc <= 1e-12 * (scale +
/// 1)`), so two objects 0.05 apart whose velocities differ by 7e-6 for one
/// step (a = 5e-11, 4ac = 6e-13) integrate to 0.001 where it is 0.053. Scan
/// and exact post-processing then rank by a value the trapezoid bounds
/// contradict, and with two workers sharing a bound the answer depends on
/// thread timing (README, "What the benchmark found", item 6). Index, bounds
/// and search are scale-free: a 1000 x 1000 world costs the same and keeps
/// real discriminants 1e12 times clear of the floor.
pub const WORLD: f64 = 1000.0;

/// `trajectories` with every position scaled from the unit square to the
/// [`WORLD`] square; times stay.
fn in_world(trajectories: Vec<Trajectory>) -> Vec<Trajectory> {
    trajectories
        .into_iter()
        .map(|t| {
            let points = t
                .points()
                .iter()
                .map(|p| SamplePoint::new(p.t, p.x * WORLD, p.y * WORLD))
                .collect();
            Trajectory::new(points).expect("scaling keeps samples finite and ordered")
        })
        .collect()
}

/// GSTD `S{objects}` with `samples` positions per object.
pub fn gstd(objects: usize, samples: usize) -> Fleet {
    with_ids(in_world(
        GstdConfig {
            samples_per_object: samples,
            ..GstdConfig::paper_dataset(objects, DATASET_SEED)
        }
        .generate(),
    ))
}

pub fn with_ids(trajectories: Vec<Trajectory>) -> Fleet {
    trajectories
        .into_iter()
        .enumerate()
        .map(|(i, t)| (TrajectoryId(i as u64), t))
        .collect()
}

/// Objects to ingest: traffic, so `--seed` generates them. Each has
/// `samples` positions spread over `[0, lifetime]`, the whole life of the
/// dataset it joins. An object that covers a query's period only in part
/// makes the program answer wrongly (13 % of probe queries differ from the
/// scan after 400 such inserts on one shard), and a workload may not
/// contain operations that fail.
pub fn ingest_pool(objects: usize, samples: usize, lifetime: f64, seed: u64) -> Vec<Trajectory> {
    in_world(
        GstdConfig {
            samples_per_object: samples,
            time_step: lifetime / (samples - 1) as f64,
            ..GstdConfig::paper_dataset(objects, seed)
        }
        .generate(),
    )
}

/// One k-MST request: the query trajectory, already clipped to its period.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub query: Trajectory,
    pub period: TimeInterval,
}

/// A random window of `length` (a share of the trajectory's lifetime),
/// clipped out of `t` — a query the way the paper's Table 3 draws them.
pub fn window_query(t: &Trajectory, length: f64, rng: &mut Rng) -> QuerySpec {
    let span = t.duration() * length;
    let latest_start = t.end_time() - span;
    let start = if latest_start > t.start_time() {
        rng.f64_range(t.start_time(), latest_start)
    } else {
        t.start_time()
    };
    let period = TimeInterval::new(start, (start + span).min(t.end_time()))
        .expect("window inside the trajectory's lifetime");
    let query = t.clip(&period).expect("a trajectory covers its own window");
    QuerySpec { query, period }
}

/// A stratified request stream: every object is queried `per_cell` times
/// at every length, so the mix of cheap and expensive requests is the same
/// for every seed; the seed draws where each window lies and the order.
pub fn stratified_queries(
    fleet: &Fleet,
    lengths: &[f64],
    per_cell: usize,
    rng: &mut Rng,
) -> Vec<QuerySpec> {
    let mut queries = Vec::with_capacity(fleet.len() * lengths.len() * per_cell);
    for (_, t) in fleet {
        for length in lengths {
            for _ in 0..per_cell {
                queries.push(window_query(t, *length, rng));
            }
        }
    }
    rng.shuffle(&mut queries);
    queries
}

/// A store over the fleet.
pub fn store_of(fleet: &Fleet) -> TrajectoryStore {
    let mut store = TrajectoryStore::new();
    for (id, t) in fleet {
        store.insert(*id, t.clone());
    }
    store
}

/// All segments in arrival order: by start time, then object — the order a
/// live position feed delivers them and `ShardedDatabase::build` uses.
pub fn temporal_entries(fleet: &Fleet) -> Vec<LeafEntry> {
    let mut entries: Vec<LeafEntry> = fleet
        .iter()
        .flat_map(|(id, t)| {
            t.segments().enumerate().map(|(seq, segment)| LeafEntry {
                traj: *id,
                seq: seq as u32,
                segment,
            })
        })
        .collect();
    entries.sort_by(|a, b| {
        a.segment
            .start()
            .t
            .total_cmp(&b.segment.start().t)
            .then(a.traj.cmp(&b.traj))
    });
    entries
}

/// Inserts the fleet into `index` in arrival order.
pub fn build_into<I: TrajectoryIndexWrite>(mut index: I, fleet: &Fleet) -> I {
    for entry in temporal_entries(fleet) {
        index
            .insert_entry(entry)
            .expect("generated segments insert cleanly");
    }
    index
}

/// A 3D R-tree over the fleet.
pub fn build_rtree(fleet: &Fleet) -> Rtree3D {
    build_into(Rtree3D::new(), fleet)
}

/// FNV-1a, 64 bit, over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_f64(&mut self, v: f64) {
        self.eat(v.to_bits());
    }

    pub fn eat_trajectory(&mut self, t: &Trajectory) {
        self.eat(t.num_points() as u64);
        for p in t.points() {
            self.eat_f64(p.t);
            self.eat_f64(p.x);
            self.eat_f64(p.y);
        }
    }

    pub fn eat_fleet(&mut self, fleet: &Fleet) {
        self.eat(fleet.len() as u64);
        for (id, t) in fleet {
            self.eat(id.0);
            self.eat_trajectory(t);
        }
    }

    pub fn eat_queries(&mut self, queries: &[QuerySpec]) {
        self.eat(queries.len() as u64);
        for q in queries {
            self.eat_f64(q.period.start());
            self.eat_f64(q.period.end());
            self.eat_trajectory(&q.query);
        }
    }
}

/// An answer's identity: ids and dissimilarity bits, in rank order.
pub fn answer_fingerprint(matches: &[MstMatch]) -> u64 {
    let mut h = Fnv::default();
    h.eat(matches.len() as u64);
    for m in matches {
        h.eat(m.traj.0);
        h.eat_f64(m.dissim);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let digest = |seed: u64| {
            let fleet = gstd(6, 80);
            let queries = stratified_queries(&fleet, &[0.05, 0.5], 2, &mut Rng::seed_from(seed));
            let mut h = Fnv::default();
            h.eat_fleet(&fleet);
            h.eat_queries(&queries);
            h.0
        };
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }

    #[test]
    fn datasets_and_ingested_objects_fill_the_world_square() {
        let ingested = with_ids(ingest_pool(6, 80, 79.0, 3));
        for fleet in [gstd(6, 80), ingested] {
            let (mut low, mut high) = (f64::INFINITY, f64::NEG_INFINITY);
            for p in fleet.iter().flat_map(|(_, t)| t.points()) {
                low = low.min(p.x.min(p.y));
                high = high.max(p.x.max(p.y));
            }
            assert!(low >= 0.0 && high <= WORLD, "{low}..{high}");
            assert!(high > WORLD / 2.0, "still at unit-square scale: {high}");
        }
    }

    #[test]
    fn the_stream_is_stratified_and_covers_its_periods() {
        let fleet = gstd(5, 101);
        let queries = stratified_queries(&fleet, &[0.1, 1.0], 3, &mut Rng::seed_from(9));
        assert_eq!(queries.len(), 5 * 2 * 3);
        assert!(queries.iter().all(|q| q.query.covers(&q.period)));
        let full = queries
            .iter()
            .filter(|q| (q.period.duration() - 100.0).abs() < 1e-9)
            .count();
        let tenth = queries
            .iter()
            .filter(|q| (q.period.duration() - 10.0).abs() < 1e-9)
            .count();
        assert_eq!((full, tenth), (15, 15));
    }

    #[test]
    fn fingerprints_see_ids_order_and_bits() {
        let m = |id: u64, d: f64| MstMatch {
            traj: TrajectoryId(id),
            dissim: d,
        };
        let base = answer_fingerprint(&[m(1, 0.5), m(2, 0.75)]);
        assert_eq!(base, answer_fingerprint(&[m(1, 0.5), m(2, 0.75)]));
        assert_ne!(base, answer_fingerprint(&[m(2, 0.75), m(1, 0.5)]));
        assert_ne!(
            base,
            answer_fingerprint(&[m(1, 0.5), m(2, 0.75 + f64::EPSILON)])
        );
        assert_ne!(base, answer_fingerprint(&[m(1, 0.5)]));
    }

    #[test]
    fn arrival_order_is_by_start_time() {
        let fleet = gstd(4, 30);
        let entries = temporal_entries(&fleet);
        assert_eq!(entries.len(), 4 * 29);
        assert!(entries
            .windows(2)
            .all(|w| w[0].segment.start().t <= w[1].segment.start().t));
    }
}
