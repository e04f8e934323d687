//! Figure 10: performance of the BFMST algorithm — execution time and
//! pruning power while scaling dataset cardinality (Q1), query length (Q2),
//! and k (Q3), on both the 3D R-tree and the TB-tree.

use mst_index::{Rtree3D, TbTree, TrajectoryIndex};
use mst_search::{bfmst_search, MstConfig, NoShare, NoopSink, TrajectoryStore};

use crate::datasets::{build_rtree, build_tbtree, DatasetSpec, IndexKind};
use crate::metrics::{pruning_power, time_ms, Summary, Table};
use crate::workload::{sample_queries, QuerySet, QuerySpec};

/// Configuration of the performance experiments.
#[derive(Debug, Clone)]
pub struct Figure10Config {
    /// Which Table 3 query set to run.
    pub set: QuerySet,
    /// Scale on the paper's dataset sizes (1.0 = S0100..S1000 with 2000
    /// samples per object).
    pub scale: f64,
    /// Queries per experimental setting (paper: 500).
    pub queries: usize,
    /// Clear the buffer before every query (cold runs); default warm, as in
    /// the paper's buffered setup.
    pub cold: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Figure10Config {
    fn default() -> Self {
        Figure10Config {
            set: QuerySet::Q1,
            scale: 1.0,
            queries: 500,
            cold: false,
            seed: 7,
        }
    }
}

/// Aggregate outcome of one (setting, index) cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    time: Summary,
    pruning: Summary,
    nodes: Summary,
    misses: Summary,
}

fn run_cell<I: TrajectoryIndex>(
    index: &mut I,
    store: &TrajectoryStore,
    queries: &[QuerySpec],
    k: usize,
    cold: bool,
) -> Cell {
    let total_pages = index.num_pages();
    let mut times = Vec::with_capacity(queries.len());
    let mut prunings = Vec::with_capacity(queries.len());
    let mut nodes = Vec::with_capacity(queries.len());
    let mut misses = Vec::with_capacity(queries.len());
    for q in queries {
        if cold {
            index.clear_buffer().expect("buffer clear");
        }
        index.reset_stats();
        let (ms, _) = time_ms(|| {
            bfmst_search(
                &[(index, store)],
                &q.query,
                &q.period,
                &MstConfig::k(k),
                &NoShare,
                &mut NoopSink,
            )
            .expect("well-formed performance query")
        });
        let stats = index.stats();
        times.push(ms);
        prunings.push(pruning_power(stats.node_reads, total_pages));
        nodes.push(stats.node_reads as f64);
        misses.push(stats.buffer.misses as f64);
    }
    Cell {
        time: Summary::of(&times),
        pruning: Summary::of(&prunings),
        nodes: Summary::of(&nodes),
        misses: Summary::of(&misses),
    }
}

/// One sweep point: dataset plus per-index measurements.
fn push_rows(
    table: &mut Table,
    setting: &str,
    dataset: &str,
    k: usize,
    length: f64,
    rtree_cell: Cell,
    tbtree_cell: Cell,
) {
    for (kind, cell) in [
        (IndexKind::Rtree3D, rtree_cell),
        (IndexKind::TbTree, tbtree_cell),
    ] {
        table.push_row(vec![
            setting.to_string(),
            dataset.to_string(),
            format!("{:.0}", length * 100.0),
            k.to_string(),
            kind.label().to_string(),
            format!("{:.2}", cell.time.mean),
            format!("{:.2}", cell.time.std_err),
            format!("{:.3}", cell.pruning.mean),
            format!("{:.0}", cell.nodes.mean),
            format!("{:.1}", cell.misses.mean),
        ]);
    }
}

/// Runs the selected query set and reports execution time (ms/query) and
/// pruning power for both index structures.
pub fn figure10(cfg: &Figure10Config) -> Table {
    let mut table = Table::new(
        &format!("Figure 10 ({:?}): BFMST performance", cfg.set),
        &[
            "Setting",
            "Dataset",
            "Query length (%)",
            "k",
            "Index",
            "Time (ms)",
            "Time stderr",
            "Pruning power",
            "Nodes visited",
            "Page misses",
        ],
    );

    match cfg.set {
        QuerySet::Q1 => {
            for spec in DatasetSpec::paper_ladder(cfg.scale, cfg.seed) {
                let store = spec.build_store();
                let mut rtree = build_rtree(&store);
                let mut tbtree = build_tbtree(&store);
                let queries = sample_queries(&store, cfg.queries, 0.05, cfg.seed ^ 0xA1);
                let rc = run_cell(&mut rtree, &store, &queries, 1, cfg.cold);
                let tc = run_cell(&mut tbtree, &store, &queries, 1, cfg.cold);
                push_rows(&mut table, "Q1", &spec.name(), 1, 0.05, rc, tc);
            }
        }
        QuerySet::Q2 | QuerySet::Q3 => {
            let spec = DatasetSpec::Synthetic {
                objects: ((500.0 * cfg.scale).round() as usize).max(4),
                samples: 2000,
                seed: cfg.seed,
            };
            let store = spec.build_store();
            let mut rtree: Rtree3D = build_rtree(&store);
            let mut tbtree: TbTree = build_tbtree(&store);
            match cfg.set {
                QuerySet::Q2 => {
                    for length in cfg.set.lengths() {
                        let queries = sample_queries(&store, cfg.queries, length, cfg.seed ^ 0xA2);
                        let rc = run_cell(&mut rtree, &store, &queries, 1, cfg.cold);
                        let tc = run_cell(&mut tbtree, &store, &queries, 1, cfg.cold);
                        push_rows(&mut table, "Q2", &spec.name(), 1, length, rc, tc);
                    }
                }
                QuerySet::Q3 => {
                    let queries = sample_queries(&store, cfg.queries, 0.05, cfg.seed ^ 0xA3);
                    for k in cfg.set.ks() {
                        let rc = run_cell(&mut rtree, &store, &queries, k, cfg.cold);
                        let tc = run_cell(&mut tbtree, &store, &queries, k, cfg.cold);
                        push_rows(&mut table, "Q3", &spec.name(), k, 0.05, rc, tc);
                    }
                }
                QuerySet::Q1 => unreachable!(),
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_small_scale_runs_and_prunes() {
        let cfg = Figure10Config {
            set: QuerySet::Q1,
            scale: 0.05, // S0005..S0050
            queries: 4,
            cold: false,
            seed: 3,
        };
        let t = figure10(&cfg);
        assert_eq!(t.len(), 8); // 4 datasets x 2 indexes
                                // Pruning power should be substantial even at toy scale.
        for line in t.to_csv().lines().skip(1) {
            let pruning: f64 = line.split(',').nth(7).unwrap().parse().unwrap();
            assert!(pruning > 0.3, "pruning power {pruning} too weak: {line}");
        }
    }

    #[test]
    fn q3_k_sweep_produces_all_rows() {
        let cfg = Figure10Config {
            set: QuerySet::Q3,
            scale: 0.02, // 10 objects
            queries: 3,
            cold: false,
            seed: 5,
        };
        let t = figure10(&cfg);
        assert_eq!(t.len(), 12); // 6 k values x 2 indexes
    }
}
