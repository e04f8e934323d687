//! Index-based Most-Similar-Trajectory search (ICDE 2007).
//!
//! This crate is the paper's primary contribution:
//!
//! * [`dissim`] — the **DISSIM** spatiotemporal dissimilarity metric
//!   (Definition 1): the definite integral of the Euclidean distance between
//!   two trajectories over a common time period; computed either in closed
//!   form or with the cheap trapezoid approximation of Lemma 1, whose error
//!   bound is tracked alongside;
//! * [`bounds`] — the pruning metrics: **LDD** (Definition 2), the
//!   speed-dependent **OPTDISSIM** / **PESDISSIM** envelopes (Definitions
//!   3–4, Lemmas 2–3) and the speed-independent **OPTDISSIMINC** /
//!   **MINDISSIMINC** (Definitions 5–6, Lemma 4), plus the
//!   [`bounds::Candidate`] bookkeeping that maintains them incrementally
//!   while the index is traversed;
//! * [`bfmst`] — the **BFMSTSearch** best-first k-MST algorithm (Section 4,
//!   Figure 7) over any [`mst_index::TrajectoryIndex`], with heuristics 1–2
//!   and the error management of Section 4.4;
//! * [`scan`] — the exact linear-scan k-MST used as ground truth and as the
//!   pruning-power denominator;
//! * [`TrajectoryStore`] — the moving-object dataset the index sits on top
//!   of (needed for the exact post-processing step);
//! * [`MovingObjectDatabase`] — the engine: that store and one index, kept
//!   in step;
//! * [`run`] — every query over engines (the [`Query`] builder's terminals
//!   run one, `mst-exec` every shard's): the substrate pin, the flavour
//!   dispatch, and the degraded path that re-runs a query without a shard
//!   whose read failed, each written once ([`forest`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bfmst;
pub mod bounds;
pub mod database;
pub mod descent;
pub mod dissim;
pub mod forest;
pub mod knn;
mod merge;
pub mod metrics;
pub mod nn;
pub mod options;
pub mod query;
pub mod scan;
pub mod selectivity;
pub mod share;
mod store;
pub mod substrate;
pub mod time_relaxed;
mod topk;

pub use bfmst::{bfmst_search, MstConfig};
pub use database::{arrival_order, MovingObjectDatabase};
pub use descent::MbbDescent;
pub use dissim::{Dissim, Integration};
pub use forest::{run, Abort, BatchQuery, QueryAnswer, ShardFailure};
pub use knn::{nearest_segments, segments_within};
pub use metrics::{
    CandidateCounters, MetricsSink, NoopSink, PruningBound, PruningCounters, QueryMetrics,
    QueryProfile,
};
pub use nn::{nearest_trajectories, NnMatch};
pub use options::{QueryOptions, Substrate};
pub use query::{
    KmstQuery, KmstSpec, KnnQuery, KnnSegmentsQuery, KnnSpec, Query, RangeQuery, RangeSpec,
    SegmentsSpec, TimeRelaxedQuery,
};
pub use scan::{scan_kmst, scan_kmst_traced};
pub use selectivity::{estimate_selectivity, SelectivityEstimate, SelectivityHistogram};
pub use share::{BoundShare, NoShare};
pub use store::TrajectoryStore;
pub use substrate::{metric_kmst_search, KmstSubstrate, SearchReport};
pub use time_relaxed::{
    time_relaxed_kmst, time_relaxed_kmst_traced, TimeRelaxedConfig, TimeRelaxedMatch,
};
pub use topk::UpperKeys;

use mst_trajectory::TrajectoryId;

/// One answer of a k-MST query: a trajectory and its dissimilarity from the
/// query over the query period (smaller is more similar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MstMatch {
    /// The matched trajectory.
    pub traj: TrajectoryId,
    /// Its DISSIM from the query (exact when the search post-processes or
    /// runs in exact mode).
    pub dissim: f64,
}

/// Errors of the search layer.
#[derive(Debug)]
pub enum SearchError {
    /// A trajectory-model operation failed.
    Trajectory(mst_trajectory::TrajectoryError),
    /// An index operation failed.
    Index(mst_index::IndexError),
    /// The query trajectory does not cover the query period.
    QueryOutsidePeriod {
        /// Requested period.
        period: (f64, f64),
        /// Query validity.
        valid: (f64, f64),
    },
    /// A candidate referenced by the index is missing from the store.
    MissingTrajectory(TrajectoryId),
    /// An insert named an id the database already holds (delete it first).
    DuplicateTrajectory(TrajectoryId),
    /// A [`Query`] builder was run with a required parameter missing or an
    /// inconsistent combination of settings.
    MisconfiguredQuery(&'static str),
    /// The query pinned a [`Substrate`] the executing database is not
    /// backed by.
    SubstrateMismatch {
        /// The substrate the query options demanded.
        requested: Substrate,
        /// The substrate actually backing the database.
        actual: Substrate,
    },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Trajectory(e) => write!(f, "trajectory error: {e}"),
            SearchError::Index(e) => write!(f, "index error: {e}"),
            SearchError::QueryOutsidePeriod { period, valid } => write!(
                f,
                "query valid on [{}, {}] does not cover the query period [{}, {}]",
                valid.0, valid.1, period.0, period.1
            ),
            SearchError::MissingTrajectory(id) => {
                write!(f, "trajectory {id} indexed but missing from the store")
            }
            SearchError::DuplicateTrajectory(id) => {
                write!(f, "trajectory {id} already exists; delete it first")
            }
            SearchError::MisconfiguredQuery(what) => {
                write!(f, "misconfigured query: {what}")
            }
            SearchError::SubstrateMismatch { requested, actual } => {
                write!(
                    f,
                    "query pinned substrate {} but the database runs on {}",
                    requested.name(),
                    actual.name()
                )
            }
        }
    }
}

impl std::error::Error for SearchError {}

impl From<mst_trajectory::TrajectoryError> for SearchError {
    fn from(e: mst_trajectory::TrajectoryError) -> Self {
        SearchError::Trajectory(e)
    }
}

impl From<mst_index::IndexError> for SearchError {
    fn from(e: mst_index::IndexError) -> Self {
        SearchError::Index(e)
    }
}

/// Result alias for the search crate.
pub type Result<T> = std::result::Result<T, SearchError>;
