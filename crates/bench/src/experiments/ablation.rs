//! Ablations beyond the paper's figures: how much each ingredient of the
//! BFMST algorithm contributes, and what the trapezoid approximation buys.
//!
//! Variants compared (all verified against the exact linear scan):
//!
//! * `full` — both heuristics, trapezoid + error management (the paper's
//!   algorithm);
//! * `no-h1` — heuristic 1 (candidate rejection) disabled;
//! * `no-h2` — heuristic 2 (termination) disabled;
//! * `no-heuristics` — neither, i.e. plain best-first assembly;
//! * `exact-integration` — both heuristics but closed-form integrals
//!   everywhere (no error management needed);
//! * `scan` — the linear scan over the store (no index at all).

use mst_index::TrajectoryIndex;
use mst_search::{bfmst_search, scan_kmst, Integration, MstConfig, NoShare, NoopSink};

use crate::datasets::{build_rtree, DatasetSpec};
use crate::metrics::{pruning_power, time_ms, Summary, Table};
use crate::workload::sample_queries;

/// Configuration of the ablation run.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Number of moving objects in the synthetic dataset (paper scale: 250).
    pub objects: usize,
    /// Samples per object.
    pub samples: usize,
    /// Queries per variant.
    pub queries: usize,
    /// Query length fraction.
    pub length: f64,
    /// k of the k-MST queries.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            objects: 250,
            samples: 2000,
            queries: 25,
            length: 0.05,
            k: 1,
            seed: 7,
        }
    }
}

struct Variant {
    name: &'static str,
    config: Option<MstConfig>, // None = linear scan
}

/// Runs every variant over the same query set, checking answers against the
/// exact scan and reporting time / pruning / node counts.
pub fn ablation(cfg: &AblationConfig) -> Table {
    let store = DatasetSpec::Synthetic {
        objects: cfg.objects,
        samples: cfg.samples,
        seed: cfg.seed,
    }
    .build_store();
    let mut rtree = build_rtree(&store);
    let queries = sample_queries(&store, cfg.queries, cfg.length, cfg.seed ^ 0xAB);
    let total_pages = rtree.num_pages();

    let base = MstConfig::k(cfg.k);
    let variants = [
        Variant {
            name: "full",
            config: Some(base),
        },
        Variant {
            name: "no-h1",
            config: Some(MstConfig {
                use_heuristic1: false,
                ..base
            }),
        },
        Variant {
            name: "no-h2",
            config: Some(MstConfig {
                use_heuristic2: false,
                ..base
            }),
        },
        Variant {
            name: "no-heuristics",
            config: Some(MstConfig {
                use_heuristic1: false,
                use_heuristic2: false,
                ..base
            }),
        },
        Variant {
            name: "exact-integration",
            config: Some(MstConfig {
                integration: Integration::Exact,
                error_management: false,
                ..base
            }),
        },
        Variant {
            name: "scan",
            config: None,
        },
    ];

    // Ground truth per query (exact scan).
    let truth: Vec<Vec<mst_trajectory::TrajectoryId>> = queries
        .iter()
        .map(|q| {
            scan_kmst(&store, &q.query, &q.period, cfg.k, Integration::Exact)
                .expect("scan succeeds")
                .into_iter()
                .map(|m| m.traj)
                .collect()
        })
        .collect();

    let mut table = Table::new(
        "Ablation: BFMST ingredients on the 3D R-tree",
        &[
            "Variant",
            "Time (ms)",
            "Time stderr",
            "Pruning power",
            "Nodes visited",
            "Agrees with exact scan",
        ],
    );
    for v in variants {
        let mut times = Vec::new();
        let mut prunings = Vec::new();
        let mut nodes = Vec::new();
        let mut agree = true;
        for (q, expected) in queries.iter().zip(&truth) {
            match &v.config {
                Some(mc) => {
                    rtree.reset_stats();
                    let (ms, report) = time_ms(|| {
                        bfmst_search(
                            &[(&rtree, &store)],
                            &q.query,
                            &q.period,
                            mc,
                            &NoShare,
                            &mut NoopSink,
                        )
                        .expect("valid query")
                    });
                    let got: Vec<_> = report.matches.iter().map(|m| m.traj).collect();
                    agree &= got == *expected;
                    times.push(ms);
                    let node_reads = rtree.stats().node_reads;
                    prunings.push(pruning_power(node_reads, total_pages));
                    nodes.push(node_reads as f64);
                }
                None => {
                    let (ms, got) = time_ms(|| {
                        scan_kmst(&store, &q.query, &q.period, cfg.k, Integration::Exact)
                            .expect("scan succeeds")
                    });
                    let got: Vec<_> = got.into_iter().map(|m| m.traj).collect();
                    agree &= got == *expected;
                    times.push(ms);
                    prunings.push(0.0);
                    nodes.push(0.0);
                }
            }
        }
        let t = Summary::of(&times);
        table.push_row(vec![
            v.name.to_string(),
            format!("{:.2}", t.mean),
            format!("{:.2}", t.std_err),
            format!("{:.3}", Summary::of(&prunings).mean),
            format!("{:.0}", Summary::of(&nodes).mean),
            agree.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_agree_with_ground_truth_at_small_scale() {
        let cfg = AblationConfig {
            objects: 15,
            samples: 120,
            queries: 6,
            length: 0.2,
            k: 2,
            seed: 11,
        };
        let t = ablation(&cfg);
        assert_eq!(t.len(), 6);
        for line in t.to_csv().lines().skip(1) {
            let agrees = line.split(',').nth(5).unwrap();
            assert_eq!(agrees, "true", "variant disagreed: {line}");
        }
    }
}
