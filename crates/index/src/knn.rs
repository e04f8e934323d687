//! The answer type of the point k-nearest-neighbour query — the
//! "traditional" distance-browsing query (Hjaltason & Samet) that the same
//! R-tree-like structures serve alongside MST search, per the paper's
//! premise (and its reference [6], Frentzos et al.'s NN algorithms on
//! moving-object trajectories).
//!
//! The query is a static point plus a time window: *which k segments came
//! closest to this location during the window?* Distance of a segment is
//! the minimum spatial distance of its moving point over the temporal
//! overlap with the window ([`crate::mindist::segment_rect_mindist`] with a
//! degenerate rectangle). The search itself is `mst_search::nearest_segments`,
//! the one best-first MBB descent every search of the MBB substrates runs.

use crate::LeafEntry;

/// One kNN answer: the segment and its minimum distance from the query
/// point during the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnMatch {
    /// The matched segment entry.
    pub entry: LeafEntry,
    /// Its minimum distance from the query point over the temporal overlap.
    pub distance: f64,
}
