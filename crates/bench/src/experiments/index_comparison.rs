//! Index shootout (extension): the paper evaluates the 3D R-tree and the
//! TB-tree; its reference [13] defines a third structure, the STR-tree,
//! sitting between them; and this reproduction adds a fourth — the
//! whole-trajectory metric tree with triangle-inequality pruning. This
//! experiment builds all of them over the same insertion stream and runs
//! the same k-MST workload through each substrate's own search
//! ([`mst_search::KmstSubstrate::kmst_search`]), reporting build cost,
//! size, query time, pruning, and physical I/O.
//!
//! The metric tree's ball directory is built lazily on its first query,
//! so that query's wall time carries the directory build; pruning power
//! and page misses are unaffected (the directory is distance bookkeeping
//! over cached trajectories, not page I/O).
//!
//! Two pruning columns, deliberately distinct:
//!
//! - **Pruning power** is physical — the fraction of the substrate's own
//!   pages a query did *not* read. The MBB trees win here by
//!   construction: their refinement decodes individual segment pages,
//!   while the metric tree's refinement reads a candidate's whole chain.
//! - **Filter prunes** is logical — candidates the substrate's filter
//!   bound eliminated per query *without* exact refinement
//!   (`candidates.pruned` in the [`mst_search::QueryProfile`] ledger,
//!   identical semantics on every substrate). This is where the metric
//!   tree's triangle-inequality bound does its work: the R-tree's MBB
//!   filter rarely rejects a surfaced candidate outright (its strength
//!   is descent ordering), whereas the ball bound discards candidates
//!   wholesale before any page of theirs is read.

use mst_index::{MetricTree, Rtree3D, StrTree, TbTree, TrajectoryIndexWrite};
use mst_search::{KmstSubstrate, MstConfig, NoShare, QueryProfile, TrajectoryStore};

use crate::datasets::DatasetSpec;
use crate::metrics::{pruning_power, time_ms, Summary, Table};
use crate::workload::sample_queries;

/// Configuration of the three-way comparison.
#[derive(Debug, Clone)]
pub struct IndexComparisonConfig {
    /// Moving objects in the synthetic dataset.
    pub objects: usize,
    /// Samples per object.
    pub samples: usize,
    /// Queries per index.
    pub queries: usize,
    /// Query length fraction.
    pub length: f64,
    /// k of the k-MST queries.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IndexComparisonConfig {
    fn default() -> Self {
        IndexComparisonConfig {
            objects: 250,
            samples: 2000,
            queries: 50,
            length: 0.25,
            k: 1,
            seed: 7,
        }
    }
}

fn measure<I: TrajectoryIndexWrite + KmstSubstrate>(
    index: I,
    label: &str,
    entries: &[mst_index::LeafEntry],
    store: &TrajectoryStore,
    cfg: &IndexComparisonConfig,
    table: &mut Table,
    expected: &[Vec<mst_trajectory::TrajectoryId>],
) {
    let mut index = index;
    let (build_ms, ()) = time_ms(|| {
        for e in entries {
            index.insert_entry(*e).expect("valid insert");
        }
    });
    measure_queries(index, label, build_ms, store, cfg, table, expected);
}

fn measure_queries<I: TrajectoryIndexWrite + KmstSubstrate>(
    mut index: I,
    label: &str,
    build_ms: f64,
    store: &TrajectoryStore,
    cfg: &IndexComparisonConfig,
    table: &mut Table,
    expected: &[Vec<mst_trajectory::TrajectoryId>],
) {
    let queries = sample_queries(store, cfg.queries, cfg.length, cfg.seed ^ 0xC0);
    let total_pages = index.num_pages();
    let mut times = Vec::new();
    let mut prunings = Vec::new();
    let mut filter_prunes = Vec::new();
    let mut misses = Vec::new();
    let mut agree = true;
    for (q, want) in queries.iter().zip(expected) {
        index.reset_stats();
        let mut profile = QueryProfile::new();
        let (ms, report) = time_ms(|| {
            index
                .kmst_search(
                    store,
                    &q.query,
                    &q.period,
                    &MstConfig::k(cfg.k),
                    &NoShare,
                    &mut profile,
                )
                .expect("valid query")
        });
        let got: Vec<_> = report.matches.iter().map(|m| m.traj).collect();
        agree &= got == *want;
        times.push(ms);
        let stats = index.stats();
        prunings.push(pruning_power(stats.node_reads, total_pages));
        filter_prunes.push(profile.candidates.pruned as f64);
        misses.push(stats.buffer.misses as f64);
    }
    table.push_row(vec![
        label.to_string(),
        format!("{:.0}", build_ms),
        format!("{:.1}", index.stats().size_bytes as f64 / (1024.0 * 1024.0)),
        format!("{:.2}", Summary::of(&times).mean),
        format!("{:.3}", Summary::of(&prunings).mean),
        format!("{:.2}", Summary::of(&filter_prunes).mean),
        format!("{:.1}", Summary::of(&misses).mean),
        agree.to_string(),
    ]);
}

/// Runs the comparison and returns the result table.
pub fn index_comparison(cfg: &IndexComparisonConfig) -> Table {
    let store = DatasetSpec::Synthetic {
        objects: cfg.objects,
        samples: cfg.samples,
        seed: cfg.seed,
    }
    .build_store();
    let entries = mst_search::arrival_order(store.iter());
    let queries = sample_queries(&store, cfg.queries, cfg.length, cfg.seed ^ 0xC0);

    // Ground truth once (exact scan).
    let expected: Vec<Vec<mst_trajectory::TrajectoryId>> = queries
        .iter()
        .map(|q| {
            mst_search::scan_kmst(
                &store,
                &q.query,
                &q.period,
                cfg.k,
                mst_search::Integration::Exact,
            )
            .expect("scan succeeds")
            .into_iter()
            .map(|m| m.traj)
            .collect()
        })
        .collect();

    let mut table = Table::new(
        "Index comparison: 3D R-tree vs STR-tree vs TB-tree vs Metric tree",
        &[
            "Index",
            "Build (ms)",
            "Size (MB)",
            "Query (ms)",
            "Pruning power",
            "Filter prunes",
            "Page misses",
            "Agrees with exact scan",
        ],
    );
    measure(
        Rtree3D::new(),
        "3D R-tree",
        &entries,
        &store,
        cfg,
        &mut table,
        &expected,
    );
    // Bulk-loaded variant of the same R-tree.
    let (bulk_ms, bulk) = time_ms(|| Rtree3D::bulk_load(entries.clone()).expect("bulk load"));
    measure_queries(
        bulk,
        "3D R-tree (bulk)",
        bulk_ms,
        &store,
        cfg,
        &mut table,
        &expected,
    );
    measure(
        StrTree::new(),
        "STR-tree",
        &entries,
        &store,
        cfg,
        &mut table,
        &expected,
    );
    measure(
        TbTree::new(),
        "TB-tree",
        &entries,
        &store,
        cfg,
        &mut table,
        &expected,
    );
    measure(
        MetricTree::new(),
        "Metric tree",
        &entries,
        &store,
        cfg,
        &mut table,
        &expected,
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_substrate_agrees_with_the_scan() {
        let cfg = IndexComparisonConfig {
            objects: 12,
            samples: 150,
            queries: 5,
            length: 0.3,
            k: 2,
            seed: 3,
        };
        let t = index_comparison(&cfg);
        assert_eq!(t.len(), 5);
        for line in t.to_csv().lines().skip(1) {
            assert_eq!(line.split(',').nth(7).unwrap(), "true", "{line}");
        }
    }

    #[test]
    fn metric_tree_prunes_at_least_as_hard_as_the_rtree_filter() {
        let cfg = IndexComparisonConfig {
            objects: 16,
            samples: 200,
            queries: 6,
            length: 0.3,
            k: 2,
            seed: 11,
        };
        let t = index_comparison(&cfg);
        let filter_prunes = |label: &str| -> f64 {
            t.to_csv()
                .lines()
                .skip(1)
                .find(|l| l.starts_with(label))
                .and_then(|l| l.split(',').nth(5))
                .and_then(|v| v.parse().ok())
                .expect("filter-prunes cell")
        };
        // Same ledger counter on both rows: candidates the filter bound
        // eliminated per query without exact refinement. The R-tree's
        // MBB filter almost never rejects a surfaced candidate outright
        // (its strength is descent ordering); the triangle-inequality
        // bound must discard at least as many.
        assert!(filter_prunes("Metric tree") >= filter_prunes("3D R-tree"));
    }
}
