//! Figure 9: quality of the similarity measures under TD-TR compression.
//!
//! Every query is a TD-TR-compressed copy of a dataset trajectory; a
//! measure answers correctly when it ranks the original as the most similar
//! trajectory (k = 1). The paper sweeps the TD-TR parameter `p` from 0.1%
//! to 10% and reports the percentage of false results for DISSIM, LCSS,
//! LCSS-I, EDR, and EDR-I.

use mst_prng::Rng;

use mst_baselines::{epsilon_for, normalize_all, Edr, Lcss};
use mst_datagen::{td_tr_fraction, TrucksConfig};
use mst_search::{bfmst_search, MstConfig, NoShare, NoopSink, TrajectoryStore};
use mst_trajectory::{normalize, TimeInterval, Trajectory, TrajectoryId};

use crate::datasets::build_rtree;
use crate::metrics::Table;

/// Configuration of the quality experiment.
#[derive(Debug, Clone)]
pub struct Figure9Config {
    /// Fleet size (paper: 273).
    pub num_trucks: usize,
    /// Number of query trajectories drawn from the fleet (paper: all).
    pub num_queries: usize,
    /// TD-TR parameters to sweep (fractions of trajectory length).
    pub ps: Vec<f64>,
    /// Normalize trajectories for LCSS/EDR (the paper does; DISSIM never
    /// normalizes).
    pub normalize: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Figure9Config {
    fn default() -> Self {
        Figure9Config {
            num_trucks: 273,
            num_queries: 100,
            ps: vec![0.001, 0.01, 0.02, 0.05, 0.10],
            normalize: true,
            seed: 7,
        }
    }
}

/// Per-measure false-result counters for one `p` setting.
#[derive(Debug, Default, Clone, Copy)]
struct FalseCounts {
    dissim: usize,
    lcss: usize,
    lcss_i: usize,
    edr: usize,
    edr_i: usize,
}

/// Runs the quality experiment and reports % false results per measure and
/// `p`.
pub fn figure9(cfg: &Figure9Config) -> Table {
    let fleet = TrucksConfig {
        num_trucks: cfg.num_trucks,
        ..TrucksConfig::paper_like(cfg.seed)
    }
    .generate();
    let store = TrajectoryStore::from_trajectories(fleet.clone());
    let mut rtree = build_rtree(&store);
    let duration = fleet[0].time();

    // LCSS/EDR pipeline: per-trajectory normalization plus the epsilon rule
    // (a quarter of the max coordinate standard deviation).
    let prepared: Vec<Trajectory> = if cfg.normalize {
        normalize_all(&fleet)
    } else {
        fleet.clone()
    };
    let epsilon = epsilon_for(prepared.iter());
    let lcss = Lcss::new(epsilon);
    let edr = Edr::new(epsilon);

    // Query sample: a deterministic subset of the fleet.
    let mut ids: Vec<usize> = (0..fleet.len()).collect();
    let mut rng = Rng::seed_from(cfg.seed ^ 0xF19);
    rng.shuffle(&mut ids);
    ids.truncate(cfg.num_queries.min(fleet.len()));

    let mut table = Table::new(
        "Figure 9: false results (%) vs TD-TR parameter p",
        &["p (%)", "DISSIM", "LCSS", "LCSS-I", "EDR", "EDR-I"],
    );
    for &p in &cfg.ps {
        let mut counts = FalseCounts::default();
        for &qi in &ids {
            let original_id = TrajectoryId(qi as u64);
            let compressed = td_tr_fraction(&fleet[qi], p);

            // DISSIM: index-based 1-MST over the common period.
            let winner = dissim_winner(&mut rtree, &store, &compressed, &duration);
            if winner != Some(original_id) {
                counts.dissim += 1;
            }

            // The sequence measures see the (optionally normalized)
            // compressed query.
            let prepared_query = if cfg.normalize {
                normalize(&compressed).expect("compressed trajectories are valid")
            } else {
                compressed.clone()
            };
            let best = |score: &dyn Fn(&Trajectory) -> f64| -> usize { argmin(&prepared, score) };

            if best(&|t| lcss.distance(&prepared_query, t)) != qi {
                counts.lcss += 1;
            }
            if best(&|t| lcss.distance_improved(&prepared_query, t)) != qi {
                counts.lcss_i += 1;
            }
            if best(&|t| edr.distance(&prepared_query, t) as f64) != qi {
                counts.edr += 1;
            }
            if best(&|t| edr.distance_improved(&prepared_query, t) as f64) != qi {
                counts.edr_i += 1;
            }
        }
        let pct = |c: usize| format!("{:.1}", 100.0 * c as f64 / ids.len() as f64);
        table.push_row(vec![
            format!("{:.1}", p * 100.0),
            pct(counts.dissim),
            pct(counts.lcss),
            pct(counts.lcss_i),
            pct(counts.edr),
            pct(counts.edr_i),
        ]);
    }
    table
}

fn dissim_winner(
    rtree: &mut mst_index::Rtree3D,
    store: &TrajectoryStore,
    query: &Trajectory,
    period: &TimeInterval,
) -> Option<TrajectoryId> {
    let matches = bfmst_search(
        &[(rtree, store)],
        query,
        period,
        &MstConfig::k(1),
        &NoShare,
        &mut NoopSink,
    )
    .expect("well-formed quality query");
    matches.first().map(|m| m.traj)
}

/// Index of the minimizing trajectory (ties broken towards the lower
/// index, deterministically).
fn argmin(data: &[Trajectory], score: &dyn Fn(&Trajectory) -> f64) -> usize {
    let mut best = 0usize;
    let mut best_score = f64::INFINITY;
    for (i, t) in data.iter().enumerate() {
        let s = score(t);
        if s < best_score {
            best = i;
            best_score = s;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_has_expected_shape_and_dissim_wins() {
        let cfg = Figure9Config {
            num_trucks: 12,
            num_queries: 6,
            ps: vec![0.001, 0.05],
            normalize: true,
            seed: 5,
        };
        let t = figure9(&cfg);
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        let rows: Vec<Vec<f64>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        // DISSIM at mild compression must be perfect on well-separated
        // trucks.
        assert_eq!(rows[0][1], 0.0, "DISSIM false rate at p = 0.1%: {csv}");
        // No measure can exceed 100%.
        for row in &rows {
            for &v in &row[1..] {
                assert!((0.0..=100.0).contains(&v));
            }
        }
    }
}
