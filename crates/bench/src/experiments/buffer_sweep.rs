//! Buffer-size ablation: how much of the BFMST query cost is buffer
//! behaviour. The paper fixes the buffer at 10% of the index (max 1000
//! pages); this sweep varies the fraction and reports physical I/O per
//! query — the quantity a disk-resident deployment pays for.

use mst_index::TrajectoryIndex;
use mst_search::{bfmst_search, MstConfig, NoShare, NoopSink};

use crate::datasets::{build_rtree, DatasetSpec};
use crate::metrics::{time_ms, Summary, Table};
use crate::workload::sample_queries;

/// Configuration of the buffer sweep.
#[derive(Debug, Clone)]
pub struct BufferSweepConfig {
    /// Moving objects in the synthetic dataset.
    pub objects: usize,
    /// Samples per object.
    pub samples: usize,
    /// Queries per buffer setting.
    pub queries: usize,
    /// Query length fraction.
    pub length: f64,
    /// Buffer capacities as fractions of the index page count (0 rows pin
    /// the minimum buffer of 1 page).
    pub fractions: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BufferSweepConfig {
    fn default() -> Self {
        BufferSweepConfig {
            objects: 250,
            samples: 2000,
            queries: 50,
            length: 0.25,
            fractions: vec![0.0, 0.01, 0.05, 0.10, 0.25, 0.50],
            seed: 7,
        }
    }
}

/// Runs the same query set under each buffer capacity and reports physical
/// misses and wall-clock per query (3D R-tree).
pub fn buffer_sweep(cfg: &BufferSweepConfig) -> Table {
    let store = DatasetSpec::Synthetic {
        objects: cfg.objects,
        samples: cfg.samples,
        seed: cfg.seed,
    }
    .build_store();
    let mut rtree = build_rtree(&store);
    let queries = sample_queries(&store, cfg.queries, cfg.length, cfg.seed ^ 0xB0);
    let total_pages = rtree.num_pages();

    let mut table = Table::new(
        "Buffer sweep: physical I/O vs buffer capacity (3D R-tree)",
        &[
            "Buffer (pages)",
            "Buffer (% of index)",
            "Time (ms)",
            "Misses / query",
            "Hit rate",
        ],
    );
    for &fraction in &cfg.fractions {
        let capacity = ((total_pages as f64 * fraction) as usize).max(1);
        rtree
            .set_buffer_capacity(Some(capacity))
            .expect("capacity change");
        // Warm-up pass so every setting starts from its own steady state.
        rtree.clear_buffer().expect("buffer clear");
        for q in queries.iter().take(3) {
            bfmst_search(
                &[(&rtree, &store)],
                &q.query,
                &q.period,
                &MstConfig::k(1),
                &NoShare,
                &mut NoopSink,
            )
            .expect("warm-up query");
        }
        rtree.reset_stats();
        let mut times = Vec::with_capacity(queries.len());
        for q in &queries {
            let (ms, _) = time_ms(|| {
                bfmst_search(
                    &[(&rtree, &store)],
                    &q.query,
                    &q.period,
                    &MstConfig::k(1),
                    &NoShare,
                    &mut NoopSink,
                )
                .expect("sweep query")
            });
            times.push(ms);
        }
        let stats = rtree.stats();
        let touches = stats.buffer.hits + stats.buffer.misses;
        table.push_row(vec![
            capacity.to_string(),
            format!("{:.1}", 100.0 * capacity as f64 / total_pages as f64),
            format!("{:.2}", Summary::of(&times).mean),
            format!("{:.1}", stats.buffer.misses as f64 / queries.len() as f64),
            format!("{:.3}", stats.buffer.hits as f64 / touches.max(1) as f64),
        ]);
    }
    // Restore the paper's auto rule.
    rtree.set_buffer_capacity(None).expect("capacity restore");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_buffers_never_miss_more() {
        let cfg = BufferSweepConfig {
            objects: 20,
            samples: 300,
            queries: 10,
            length: 0.3,
            fractions: vec![0.0, 0.1, 1.0],
            seed: 5,
        };
        let t = buffer_sweep(&cfg);
        assert_eq!(t.len(), 3);
        let misses: Vec<f64> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(3).unwrap().parse().unwrap())
            .collect();
        assert!(
            misses.windows(2).all(|w| w[0] >= w[1] - 1e-9),
            "misses not monotone: {misses:?}"
        );
        // A buffer covering the whole index should approach zero misses in
        // steady state.
        assert!(misses[2] < misses[0]);
    }
}
