//! Fleet compression audit — the paper's quality experiment as a workflow.
//!
//! A fleet operator archives GPS tracks compressed with TD-TR to save
//! space. Before deleting the originals, they audit that each compressed
//! track still *identifies* its source: querying the archive with the
//! compressed track must return the original as the most similar
//! trajectory. The audit runs DISSIM (index-based) next to LCSS/EDR and
//! their interpolation-improved variants, at increasing compression, and
//! asserts what the table shows: up to 1 % of the points kept DISSIM
//! identifies every original, at every level it errs no more often than
//! any sequence measure, and every index answer equals the linear scan.
//!
//! Run with: `cargo run --release --example fleet_compression_audit`

use mst::baselines::{epsilon_for, normalize_all, Edr, Lcss};
use mst::datagen::{td_tr_fraction, TrucksConfig};
use mst::index::Rtree3D;
use mst::search::{
    bfmst_search, scan_kmst, Integration, MstConfig, NoShare, NoopSink, TrajectoryStore,
};
use mst::trajectory::{normalize, TrajectoryId};

fn main() {
    // A slice of the paper's fleet: its sampling, half its day.
    let fleet = TrucksConfig {
        num_trucks: 20,
        duration: 6_300.0,
        ..TrucksConfig::paper_like(2026)
    }
    .generate();
    println!(
        "fleet: {} trucks, {:.0} samples/truck on average",
        fleet.len(),
        fleet.iter().map(|t| t.num_points() as f64).sum::<f64>() / fleet.len() as f64
    );

    let store = TrajectoryStore::from_trajectories(fleet.clone());
    let mut index = Rtree3D::new();
    for (id, t) in store.iter() {
        index.insert_trajectory(id, t).unwrap();
    }
    let period = fleet[0].time();

    // Baseline setup per the paper: normalized data, epsilon = 1/4 max std.
    let prepared = normalize_all(&fleet);
    let eps = epsilon_for(prepared.iter());
    let lcss = Lcss::new(eps);
    let edr = Edr::new(eps);

    println!(
        "\n{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "p", "DISSIM", "LCSS", "LCSS-I", "EDR", "EDR-I"
    );
    for p in [0.001, 0.01, 0.05, 0.10] {
        let mut wrong = [0usize; 5];
        for (qi, original) in fleet.iter().enumerate() {
            let compressed = td_tr_fraction(original, p);

            // DISSIM via the index, checked against the linear scan.
            let found = bfmst_search(
                &[(&index, &store)],
                &compressed,
                &period,
                &MstConfig::k(1),
                &NoShare,
                &mut NoopSink,
            )
            .unwrap();
            // Same answer; the DISSIM value may differ in its last bits
            // (the two sum the same pieces in different orders).
            let scan = scan_kmst(&store, &compressed, &period, 1, Integration::Exact).unwrap();
            assert!(
                found.len() == 1
                    && found[0].traj == scan[0].traj
                    && (found[0].dissim - scan[0].dissim).abs() <= 1e-9 * scan[0].dissim.abs(),
                "p = {p}, truck {qi}: index answer {found:?} != scan {scan:?}"
            );
            wrong[0] += usize::from(found[0].traj != TrajectoryId(qi as u64));

            // Sequence measures on normalized data.
            let q = normalize(&compressed).unwrap();
            let argmin = |f: &dyn Fn(usize) -> f64| {
                (0..prepared.len())
                    .min_by(|&a, &b| f(a).total_cmp(&f(b)))
                    .unwrap()
            };
            wrong[1] += usize::from(argmin(&|i| lcss.distance(&q, &prepared[i])) != qi);
            wrong[2] += usize::from(argmin(&|i| lcss.distance_improved(&q, &prepared[i])) != qi);
            wrong[3] += usize::from(argmin(&|i| edr.distance(&q, &prepared[i]) as f64) != qi);
            wrong[4] +=
                usize::from(argmin(&|i| edr.distance_improved(&q, &prepared[i]) as f64) != qi);
        }
        let pct = |w: usize| 100.0 * w as f64 / fleet.len() as f64;
        println!(
            "{:<10} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            format!("{:.1}%", p * 100.0),
            pct(wrong[0]),
            pct(wrong[1]),
            pct(wrong[2]),
            pct(wrong[3]),
            pct(wrong[4]),
        );
        if p <= 0.01 {
            assert_eq!(wrong[0], 0, "p = {p}: DISSIM lost an original");
        }
        assert!(
            wrong[1..].iter().all(|&w| wrong[0] <= w),
            "p = {p}: DISSIM erred more often than a sequence measure: {wrong:?}"
        );
    }
    println!(
        "\nReading: DISSIM keeps identifying originals far into the compression\n\
         range because it integrates the *spatiotemporal* gap; the edit-style\n\
         measures degrade as the vertex counts diverge (the paper's Figure 9)."
    );
}
