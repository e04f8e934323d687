//! Workload generators for the MST reproduction (Section 5.1 of the paper).
//!
//! * [`gstd`] — a reimplementation of the subset of the GSTD spatiotemporal
//!   data generator (Theodoridis, Silva & Nascimento, SSD 1999) the paper
//!   uses: random initial distribution, random heading, normal/lognormal
//!   speeds, ~2000 position samples per object.
//! * [`trucks`] — a synthetic substitute for the real "Trucks" fleet
//!   dataset (273 trajectories, ~112K segments) whose original distribution
//!   site is offline; see DESIGN.md for why the substitution preserves the
//!   quality experiment's stress.
//! * [`tdtr`] — the TD-TR trajectory compression of Meratnia & By (EDBT
//!   2004): Douglas–Peucker under the time-synchronized Euclidean distance,
//!   used by the paper to produce "similar but not identical" query
//!   trajectories (Figures 8–9).
//! * [`io`] — plain-text dataset reading/writing (`id t x y` per line), so
//!   real datasets in the Trucks format can be dropped in.
//! * [`fixtures`] — the small seeded fleets the workspace's test suites
//!   share (partial lifetimes, twins and DISSIM ties included).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fixtures;
pub mod gstd;
pub mod io;
pub mod tdtr;
pub mod trucks;

pub use gstd::{GstdConfig, SpeedDistribution};
pub use tdtr::{td_tr, td_tr_fraction};
pub use trucks::TrucksConfig;
