//! Quickstart: build a moving-object dataset, index it, and run a k-MST
//! query — the five-minute tour of the library.
//!
//! Run with: `cargo run --release --example quickstart`

use mst::datagen::GstdConfig;
use mst::index::{Rtree3D, TrajectoryIndex};
use mst::search::{
    bfmst_search, scan_kmst, Integration, MstConfig, NoShare, NoopSink, TrajectoryStore,
};
use mst::trajectory::TimeInterval;

fn main() {
    // 1. A synthetic moving-object dataset: 50 objects, 500 samples each.
    let trajectories = GstdConfig {
        num_objects: 50,
        samples_per_object: 500,
        ..GstdConfig::paper_dataset(50, 42)
    }
    .generate();
    let store = TrajectoryStore::from_trajectories(trajectories);
    println!(
        "dataset: {} trajectories, {} segments",
        store.len(),
        store.total_segments()
    );

    // 2. Index every segment in a 3D (x, y, t) R-tree — the same structure
    //    a MOD would keep for range and nearest-neighbour queries.
    let mut index = Rtree3D::new();
    for (id, t) in store.iter() {
        index.insert_trajectory(id, t).expect("valid segments");
    }
    let s = index.stats();
    println!(
        "index: {} pages ({:.1} MB), height {}",
        s.pages,
        s.size_bytes as f64 / (1024.0 * 1024.0),
        s.height
    );

    // 3. Query: the 5 trajectories most similar to object 17's movement
    //    during the window [100, 250].
    let period = TimeInterval::new(100.0, 250.0).unwrap();
    let query = store
        .get(mst::trajectory::TrajectoryId(17))
        .unwrap()
        .clip(&period)
        .unwrap();

    index.reset_stats();
    let report = bfmst_search(
        &index,
        &store,
        &query,
        &period,
        &MstConfig::k(5),
        &NoShare,
        &mut NoopSink,
    )
    .expect("well-formed query");
    println!("\nk-MST results (5 most similar to object 17 on [100, 250]):");
    for (rank, m) in report.matches.iter().enumerate() {
        println!("  {}. {}  DISSIM = {:.6}", rank + 1, m.traj, m.dissim);
    }
    println!(
        "\ntraversal: {} of {} pages touched ({} candidates seen, {} rejected early, terminated early: {})",
        index.stats().node_reads,
        index.num_pages(),
        report.candidates_seen,
        report.candidates_rejected,
        report.terminated_early,
    );

    // 4. Cross-check against the exact linear scan: identical answer.
    let scan = scan_kmst(&store, &query, &period, 5, Integration::Exact).unwrap();
    assert_eq!(
        scan.iter().map(|m| m.traj).collect::<Vec<_>>(),
        report.matches.iter().map(|m| m.traj).collect::<Vec<_>>()
    );
    println!("verified: index-based answer equals the exact linear scan");
}
