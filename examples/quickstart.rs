//! Quickstart: build a moving-object dataset, index it, and run a k-MST
//! query — the five-minute tour of the library.
//!
//! Run with: `cargo run --release --example quickstart`

use mst::datagen::GstdConfig;
use mst::index::{Rtree3D, TrajectoryIndex};
use mst::search::{scan_kmst, Integration, MovingObjectDatabase, Query};
use mst::trajectory::{TimeInterval, TrajectoryId};

fn main() {
    // 1. A synthetic moving-object dataset: 50 objects, 500 samples each.
    let trajectories = GstdConfig {
        num_objects: 50,
        samples_per_object: 500,
        ..GstdConfig::paper_dataset(50, 42)
    }
    .generate();

    // 2. A moving-object database: the trajectories, and every segment
    //    indexed in a 3D (x, y, t) R-tree — the same structure a MOD would
    //    keep for range and nearest-neighbour queries — inserted in the
    //    order a live position feed would deliver them.
    let fleet = (0..).map(TrajectoryId).zip(trajectories);
    let db = MovingObjectDatabase::build(Rtree3D::new(), fleet).expect("valid segments");
    let s = db.index().stats();
    println!(
        "dataset: {} trajectories, {} segments",
        db.num_objects(),
        db.store().total_segments()
    );
    println!(
        "index: {} pages ({:.1} MB), height {}",
        s.pages,
        s.size_bytes as f64 / (1024.0 * 1024.0),
        s.height
    );

    // 3. Query: the 5 trajectories most similar to object 17's movement
    //    during the window [100, 250] — profiled, to see what it cost.
    let period = TimeInterval::new(100.0, 250.0).unwrap();
    let query = db
        .trajectory(TrajectoryId(17))
        .unwrap()
        .clip(&period)
        .unwrap();
    let (top, profile) = Query::kmst(&query)
        .k(5)
        .during(&period)
        .profile(&db)
        .expect("well-formed query");
    println!("\nk-MST results (5 most similar to object 17 on [100, 250]):");
    for (rank, m) in top.iter().enumerate() {
        println!("  {}. {}  DISSIM = {:.6}", rank + 1, m.traj, m.dissim);
    }
    println!(
        "\ntraversal: {} of {} pages touched ({} candidates seen, {} pruned)",
        profile.nodes_accessed(),
        db.index().num_pages(),
        profile.candidates.seen,
        profile.candidates.pruned,
    );

    // 4. Cross-check against the exact linear scan: identical answer.
    let scan = scan_kmst(db.store(), &query, &period, 5, Integration::Exact).unwrap();
    assert_eq!(top, scan);
    println!("verified: index-based answer equals the exact linear scan");
}
