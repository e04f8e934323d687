//! Index explorer: compare the two R-tree-like substrates side by side —
//! structure, build cost, buffer behaviour, and the same k-MST query on
//! both. The paper's premise is that one general-purpose index serves both
//! traditional range queries and similarity search; this example shows it
//! doing both.
//!
//! Run with: `cargo run --release --example index_explorer`

use mst::datagen::GstdConfig;
use mst::index::{check_invariants, Rtree3D, TbTree, TrajectoryIndex};
use mst::search::{arrival_order, bfmst_search, MstConfig, NoShare, NoopSink, TrajectoryStore};
use mst::trajectory::{Mbb, TimeInterval};

fn main() {
    let trajectories = GstdConfig {
        num_objects: 80,
        samples_per_object: 600,
        ..GstdConfig::paper_dataset(80, 9)
    }
    .generate();
    let store = TrajectoryStore::from_trajectories(trajectories);

    // Insert in global temporal order — the arrival order of a live MOD.
    let entries = arrival_order(store.iter());

    let mut rtree = Rtree3D::new();
    let mut tbtree = TbTree::new();
    for e in &entries {
        rtree.insert(*e).unwrap();
        tbtree.insert(*e).unwrap();
    }

    println!("structure after inserting {} segments:\n", entries.len());
    for (name, stats, report) in [
        (
            "3D R-tree",
            rtree.stats(),
            check_invariants(&rtree).unwrap(),
        ),
        (
            "TB-tree",
            tbtree.stats(),
            check_invariants(&tbtree).unwrap(),
        ),
    ] {
        println!(
            "  {:<10} {:>5} pages  {:>6.2} MB  height {}  ({} leaves, {} nodes; invariants OK)",
            name,
            stats.pages,
            stats.size_bytes as f64 / (1024.0 * 1024.0),
            stats.height,
            report.leaves,
            report.nodes,
        );
    }

    // A classic 3D range query: who passed through the city-center quadrant
    // during [100, 160]?
    let window = Mbb::new(0.4, 0.4, 100.0, 0.6, 0.6, 160.0);
    rtree.reset_stats();
    tbtree.reset_stats();
    let hits_r = rtree.range_query(&window).unwrap();
    let hits_t = tbtree.range_query(&window).unwrap();
    assert_eq!(hits_r.len(), hits_t.len(), "both trees index the same data");
    println!(
        "\nrange query (center quadrant, t in [100, 160]): {} segments\n  \
         3D R-tree touched {} pages; TB-tree touched {} pages",
        hits_r.len(),
        rtree.stats().node_reads,
        tbtree.stats().node_reads,
    );

    // The same index now answers a similarity query.
    let period = TimeInterval::new(150.0, 450.0).unwrap();
    let query = store
        .get(mst::trajectory::TrajectoryId(3))
        .unwrap()
        .clip(&period)
        .unwrap();
    println!("\nk-MST query (k = 3, object 3's movement on [150, 450]):");
    for (name, result) in [
        ("3D R-tree", {
            rtree.reset_stats();
            let r = bfmst_search(
                &[(&rtree, &store)],
                &query,
                &period,
                &MstConfig::k(3),
                &NoShare,
                &mut NoopSink,
            )
            .unwrap();
            (r, rtree.stats())
        }),
        ("TB-tree", {
            tbtree.reset_stats();
            let r = bfmst_search(
                &[(&tbtree, &store)],
                &query,
                &period,
                &MstConfig::k(3),
                &NoShare,
                &mut NoopSink,
            )
            .unwrap();
            (r, tbtree.stats())
        }),
    ] {
        let (matches, stats) = result;
        let ids: Vec<String> = matches
            .iter()
            .map(|m| format!("{} ({:.4})", m.traj, m.dissim))
            .collect();
        println!(
            "  {:<10} -> [{}]  pages touched: {} / {}  buffer hits/misses: {}/{}",
            name,
            ids.join(", "),
            stats.node_reads,
            stats.pages,
            stats.buffer.hits,
            stats.buffer.misses,
        );
    }
    println!("\nBoth substrates return the same answer; their I/O profiles differ —\nexactly the trade-off Figure 10 of the paper quantifies.");
}
