//! A day in the life of a moving-object database: stream positions in,
//! answer every query flavour, estimate selectivities like an optimizer
//! would, and persist the index across a "restart".
//!
//! Run with: `cargo run --release --example mod_lifecycle`

use mst::datagen::TrucksConfig;
use mst::index::{Rtree3D, TrajectoryIndex};
use mst::search::{
    estimate_selectivity, MovingObjectDatabase, Query, SelectivityHistogram, TrajectoryStore,
};
use mst::trajectory::{Point, TimeInterval, TrajectoryId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Morning: the fleet comes online and streams GPS fixes. ---
    let fleet = TrucksConfig::small(25, 99).generate();
    let mut db = MovingObjectDatabase::with_rtree();
    // Feed positions in global temporal order, as a live gateway would.
    let mut feed: Vec<(TrajectoryId, mst::trajectory::SamplePoint)> = Vec::new();
    for (i, t) in fleet.iter().enumerate() {
        for p in t.points() {
            feed.push((TrajectoryId(i as u64), *p));
        }
    }
    feed.sort_by(|a, b| a.1.t.total_cmp(&b.1.t).then(a.0.cmp(&b.0)));
    for (id, p) in feed {
        db.append(id, p)?;
    }
    println!(
        "ingested {} objects / {} segments ({} index pages)",
        db.num_objects(),
        db.index().num_entries(),
        db.index().num_pages()
    );

    let horizon = fleet[0].time();

    // --- Dispatcher queries. ---
    // "Who passed near the depot between 10 and 20 minutes in?"
    let window = TimeInterval::new(600.0, 1200.0)?;
    let depot = Point::new(5000.0, 5000.0);
    let nn = Query::knn_segments(depot).k(3).during(&window).run(&db)?;
    println!("\nclosest passes to the depot in [600s, 1200s]:");
    for m in &nn {
        println!(
            "  {} came within {:.0} m (segment starting t={:.0}s)",
            m.entry.traj,
            m.distance,
            m.entry.segment.start().t
        );
    }

    // "Which trucks moved most like truck 7 all day?" — profiled, so the
    // dispatcher also sees what the search cost.
    let q = db.trajectory(TrajectoryId(7)).unwrap();
    let (top, profile) = Query::kmst(&q).k(4).during(&horizon).profile(&db)?;
    println!("\ntrucks most similar to truck 7 (DISSIM, whole shift):");
    for m in &top {
        println!("  {}  {:.0}", m.traj, m.dissim);
    }
    println!(
        "  ({} nodes read, {} candidates seen, {} pruned, {} piece integrals)",
        profile.nodes_accessed(),
        profile.candidates.seen,
        profile.candidates.pruned,
        profile.piece_evals()
    );

    // "Same question, but ignore departure times" — the time-relaxed query.
    let clipped = q.clip(&TimeInterval::new(300.0, 1500.0)?)?;
    let relaxed = Query::kmst(&clipped).k(3).time_relaxed().run(&db)?;
    println!("\ntime-relaxed matches for truck 7's 300-1500s leg:");
    for m in &relaxed {
        println!(
            "  {}  dissim {:.0} at shift {:+.0}s",
            m.traj, m.dissim, m.shift
        );
    }

    // --- Optimizer statistics. ---
    // The estimators read the trajectories the index is built over.
    let store = db.store();
    let theta = top.last().unwrap().dissim;
    let est = estimate_selectivity(store, &q, &horizon, theta, 12, 42)?;
    println!(
        "\nselectivity of DISSIM <= {:.0}: sampled estimate {:.1}% +/- {:.1}% \
         (~{:.0} of {} trucks)",
        theta,
        est.fraction * 100.0,
        est.std_err * 100.0,
        est.cardinality(),
        est.population
    );
    let hist = SelectivityHistogram::build(store, &horizon, 3, 24, 42)?;
    println!(
        "histogram estimate for the same predicate: {:.1}%",
        hist.estimate(&q, theta)? * 100.0
    );

    // --- Evening: persist everything, "restart", and keep serving. ---
    let dir = std::env::temp_dir();
    let idx_path = dir.join("mst_mod_lifecycle.idx");
    let data_path = dir.join("mst_mod_lifecycle.txt");
    let (mut index, store) = db.into_parts();
    index.save_to_path(&idx_path)?;
    mst::datagen::io::save_to_path(&data_path, store.iter())?;

    let reloaded = Rtree3D::load_from_path(&idx_path)?;
    let dataset = mst::datagen::io::load_from_path(&data_path)?;
    println!(
        "\npersisted and reloaded: {} pages, {} segments, {} trajectories",
        reloaded.num_pages(),
        reloaded.num_entries(),
        dataset.len()
    );
    // The reloaded index and its store make a database again, and it
    // answers immediately.
    let snapshot: TrajectoryStore = dataset.into_iter().collect();
    let reloaded_db = MovingObjectDatabase::from_parts(reloaded, snapshot);
    let again = Query::kmst(&q).k(4).during(&horizon).run(&reloaded_db)?;
    assert_eq!(
        again.iter().map(|m| m.traj).collect::<Vec<_>>(),
        top.iter().map(|m| m.traj).collect::<Vec<_>>(),
        "the reloaded index must reproduce the pre-restart answer"
    );
    println!("post-restart k-MST answer matches the pre-restart one");
    std::fs::remove_file(&idx_path).ok();
    std::fs::remove_file(&data_path).ok();
    Ok(())
}
