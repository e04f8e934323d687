//! Named datasets of the evaluation (Table 2) and index construction.
//!
//! Segments are inserted in global temporal order — the arrival order a
//! moving-object database sees — which is also what the TB-tree's
//! append-at-the-tip design assumes.

use mst_datagen::{GstdConfig, TrucksConfig};
use mst_index::{Rtree3D, TbTree, TrajectoryIndexWrite};
use mst_search::{arrival_order, TrajectoryStore};
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

/// Builds `index` over the store, segments inserted in the MOD arrival
/// order ([`arrival_order`]).
fn build<I: TrajectoryIndexWrite>(mut index: I, store: &TrajectoryStore) -> I {
    for e in arrival_order(store.iter()) {
        index
            .insert_entry(e)
            .expect("arrival order inserts cleanly on every substrate");
    }
    index
}

/// Builds a 3D R-tree over the store (temporal insertion order).
pub fn build_rtree(store: &TrajectoryStore) -> Rtree3D {
    build(Rtree3D::new(), store)
}

/// Builds a TB-tree over the store (temporal insertion order).
pub fn build_tbtree(store: &TrajectoryStore) -> TbTree {
    build(TbTree::new(), store)
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
