//! Baseline trajectory similarity measures the paper compares DISSIM
//! against (Section 5.2, Figure 9): LCSS (Vlachos et al., ICDE 2002) and
//! EDR (Chen et al., SIGMOD 2005) — plus the "improved" LCSS-I / EDR-I
//! variants the paper constructs by interpolating extra samples into the
//! under-sampled query.
//!
//! All of these operate on the *point sequences* of the trajectories and
//! (except where noted) ignore the time dimension — that is precisely the
//! weakness the paper's quality experiment (Figure 9) exposes when
//! trajectories are sampled at different rates.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod edr;
mod lcss;
mod prep;

pub use edr::Edr;
pub use lcss::Lcss;
pub use prep::{epsilon_for, interpolation_improve, normalize_all};
