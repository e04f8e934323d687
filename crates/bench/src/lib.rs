//! Experiment harness reproducing every table and figure of the ICDE 2007
//! evaluation (Section 5), plus the ablations DESIGN.md calls out.
//!
//! Each experiment is a library function (so integration tests can run it
//! at reduced scale) with a thin binary wrapper:
//!
//! | paper item | binary | library entry |
//! |---|---|---|
//! | Table 2 | `table2` | [`experiments::table2`] |
//! | Figure 8 | `figure8` | [`experiments::figure8`] |
//! | Figure 9 | `figure9` | [`experiments::figure9`] |
//! | Figure 10 (Q1/Q2/Q3) | `figure10` | [`experiments::figure10`] |
//! | ablations | `ablation` | [`experiments::ablation`] |
//! | buffer sweep (extension) | `buffer_sweep` | [`experiments::buffer_sweep`] |
//! | index shootout (extension) | `index_comparison` | [`experiments::index_comparison`] |
//! | replication lag / catch-up / failover | `repl` | [`experiments::repl_bench`] |
//!
//! The performance of the system itself — kernels, page layer, executor,
//! wire, WAL, end to end — is measured in one place, `benchmark/` at the
//! repository root (see `benchmark/README.md`); nothing here duplicates it.
//! `repl` stays because that benchmark has no replicated workload.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod args;
pub mod datasets;
pub mod experiments;
pub mod metrics;
pub mod workload;
