//! Named datasets of the evaluation (Table 2) and index construction.
//!
//! Segments are inserted in global temporal order — the arrival order a
//! moving-object database sees — which is also what the TB-tree's
//! append-at-the-tip design assumes.

use mst_datagen::{GstdConfig, TrucksConfig};
use mst_index::{LeafEntry, Rtree3D, TbTree};
use mst_search::TrajectoryStore;
use mst_trajectory::Trajectory;

/// The index structures under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// The 3D (x, y, t) R-tree.
    Rtree3D,
    /// The trajectory-bundle tree.
    TbTree,
}

impl IndexKind {
    /// Display label used in tables ("3D R-tree" / "TB-tree").
    pub fn label(&self) -> &'static str {
        match self {
            IndexKind::Rtree3D => "3D R-tree",
            IndexKind::TbTree => "TB-tree",
        }
    }
}

/// A named dataset specification.
#[derive(Debug, Clone)]
pub enum DatasetSpec {
    /// The Trucks-like fleet dataset (quality experiments).
    Trucks {
        /// Number of trucks (paper: 273).
        num_trucks: usize,
        /// RNG seed.
        seed: u64,
    },
    /// A GSTD synthetic dataset `S{objects}` (performance experiments).
    Synthetic {
        /// Number of moving objects.
        objects: usize,
        /// Samples per object (paper: 2000).
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl DatasetSpec {
    /// The paper's synthetic scale ladder S0100..S1000, scaled by `scale`
    /// (1.0 = paper size).
    pub fn paper_ladder(scale: f64, seed: u64) -> Vec<DatasetSpec> {
        [100usize, 250, 500, 1000]
            .into_iter()
            .map(|objects| DatasetSpec::Synthetic {
                objects: ((objects as f64 * scale).round() as usize).max(4),
                samples: 2000,
                seed,
            })
            .collect()
    }

    /// The dataset's display name (`Trucks`, `S0100`, ...).
    pub fn name(&self) -> String {
        match self {
            DatasetSpec::Trucks { .. } => "Trucks".into(),
            DatasetSpec::Synthetic { objects, .. } => format!("S{objects:04}"),
        }
    }

    /// Generates the trajectories.
    pub fn generate(&self) -> Vec<Trajectory> {
        match *self {
            DatasetSpec::Trucks { num_trucks, seed } => TrucksConfig {
                num_trucks,
                ..TrucksConfig::paper_like(seed)
            }
            .generate(),
            DatasetSpec::Synthetic {
                objects,
                samples,
                seed,
            } => GstdConfig {
                num_objects: objects,
                samples_per_object: samples,
                ..GstdConfig::paper_dataset(objects, seed)
            }
            .generate(),
        }
    }

    /// Generates the trajectories into a store with dense ids.
    pub fn build_store(&self) -> TrajectoryStore {
        TrajectoryStore::from_trajectories(self.generate())
    }
}

/// All segments of a store, sorted by start time (the MOD arrival order).
pub fn temporal_entries(store: &TrajectoryStore) -> Vec<LeafEntry> {
    let mut entries: Vec<LeafEntry> = Vec::with_capacity(store.total_segments() as usize);
    for (id, t) in store.iter() {
        for (seq, segment) in t.segments().enumerate() {
            entries.push(LeafEntry {
                traj: id,
                seq: seq as u32,
                segment,
            });
        }
    }
    entries.sort_by(|a, b| {
        a.segment
            .start()
            .t
            .total_cmp(&b.segment.start().t)
            .then(a.traj.cmp(&b.traj))
    });
    entries
}

/// Builds a 3D R-tree over the store (temporal insertion order).
pub fn build_rtree(store: &TrajectoryStore) -> Rtree3D {
    let mut idx = Rtree3D::new();
    for e in temporal_entries(store) {
        idx.insert(e).expect("valid segments insert cleanly");
    }
    idx
}

/// Builds a TB-tree over the store (temporal insertion order).
pub fn build_tbtree(store: &TrajectoryStore) -> TbTree {
    let mut idx = TbTree::new();
    for e in temporal_entries(store) {
        idx.insert(e).expect("temporal order satisfies the TB-tree");
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_index::TrajectoryIndex;

    #[test]
    fn ladder_scales_names_and_sizes() {
        let specs = DatasetSpec::paper_ladder(0.1, 1);
        let names: Vec<String> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["S0010", "S0025", "S0050", "S0100"]);
    }

    #[test]
    fn temporal_entries_are_sorted() {
        let store = DatasetSpec::Synthetic {
            objects: 5,
            samples: 40,
            seed: 3,
        }
        .build_store();
        let entries = temporal_entries(&store);
        assert_eq!(entries.len(), 5 * 39);
        for w in entries.windows(2) {
            assert!(w[0].segment.start().t <= w[1].segment.start().t);
        }
    }

    #[test]
    fn both_indexes_hold_all_entries() {
        let store = DatasetSpec::Synthetic {
            objects: 6,
            samples: 60,
            seed: 9,
        }
        .build_store();
        let rt = build_rtree(&store);
        let tb = build_tbtree(&store);
        assert_eq!(rt.num_entries(), store.total_segments());
        assert_eq!(tb.num_entries(), store.total_segments());
    }
}
