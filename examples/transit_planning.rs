//! The paper's motivating scenario: a city extends its metro network and
//! planners ask which existing bus lines shadow the new metro line — those
//! are the timetables to change (or the routes to retire).
//!
//! We synthesize a new metro line plus a fleet of bus lines on the same
//! street grid, index the buses, and run a k-MST query with the metro
//! line's planned trajectory. Because DISSIM is *spatiotemporal*, a bus
//! sharing the corridor but at rush-hour-shifted times ranks worse than one
//! that truly duplicates the service.
//!
//! Run with: `cargo run --release --example transit_planning`

use mst::index::TbTree;
use mst::search::{bfmst_search, MstConfig, NoShare, NoopSink, TrajectoryStore};
use mst::trajectory::{SamplePoint, TimeInterval, Trajectory, TrajectoryBuilder, TrajectoryId};

/// A transit line: stops on a polyline, constant cruise speed, fixed dwell
/// at each stop. `depart` shifts the whole schedule.
fn line(stops: &[(f64, f64)], depart: f64, speed: f64, dwell: f64) -> Trajectory {
    let mut b = TrajectoryBuilder::new();
    let mut t = depart;
    let (mut x, mut y) = stops[0];
    b.push(SamplePoint::new(t, x, y)).unwrap();
    for &(nx, ny) in &stops[1..] {
        let dist = ((nx - x).powi(2) + (ny - y).powi(2)).sqrt();
        t += dist / speed;
        b.push(SamplePoint::new(t, nx, ny)).unwrap();
        t += dwell;
        b.push(SamplePoint::new(t, nx, ny)).unwrap();
        (x, y) = (nx, ny);
    }
    b.build().unwrap()
}

fn main() {
    // The new metro line: straight east-west corridor, fast, short dwells.
    // Departure 07:00 (t = 0 s), stops every 800 m.
    let metro_stops: Vec<(f64, f64)> = (0..=10).map(|i| (f64::from(i) * 800.0, 0.0)).collect();
    let metro = line(&metro_stops, 0.0, 16.0, 25.0);

    // Existing bus lines.
    let mut buses: Vec<(&str, Trajectory)> = Vec::new();
    // Bus 12: same corridor, same departure — the redundant line.
    let bus12_stops: Vec<(f64, f64)> = (0..=20).map(|i| (f64::from(i) * 400.0, 30.0)).collect();
    buses.push((
        "bus 12 (same corridor, same schedule)",
        line(&bus12_stops, 0.0, 9.0, 20.0),
    ));
    // Bus 34: same corridor but departs 40 minutes later.
    buses.push((
        "bus 34 (same corridor, +40 min)",
        line(&bus12_stops, 2400.0, 9.0, 20.0),
    ));
    // Bus 56: parallel corridor 2 km north.
    let bus56_stops: Vec<(f64, f64)> = (0..=20).map(|i| (f64::from(i) * 400.0, 2000.0)).collect();
    buses.push((
        "bus 56 (parallel, 2 km north)",
        line(&bus56_stops, 0.0, 9.0, 20.0),
    ));
    // Bus 78: crosses the metro perpendicularly downtown.
    let bus78_stops: Vec<(f64, f64)> = (0..=20)
        .map(|i| (4000.0, f64::from(i) * 400.0 - 4000.0))
        .collect();
    buses.push((
        "bus 78 (perpendicular crossing)",
        line(&bus78_stops, 0.0, 9.0, 20.0),
    ));
    // Bus 90: meandering suburban feeder.
    let bus90_stops: Vec<(f64, f64)> = (0..=20)
        .map(|i| {
            let f = f64::from(i) * 400.0;
            (f, 1200.0 + 600.0 * (f / 900.0).sin())
        })
        .collect();
    buses.push((
        "bus 90 (suburban feeder)",
        line(&bus90_stops, 600.0, 9.0, 20.0),
    ));

    // Evaluate over the metro's first service hour, a period all lines
    // cover once padded: extend every line to span [0, horizon] by keeping
    // vehicles at their terminus.
    let horizon = 3600.0;
    let pad = |t: &Trajectory| -> Trajectory {
        let mut pts: Vec<SamplePoint> = t.points().to_vec();
        let first = pts[0];
        let last = pts[pts.len() - 1];
        if first.t > 0.0 {
            pts.insert(0, SamplePoint::new(0.0, first.x, first.y));
        }
        if last.t < horizon {
            pts.push(SamplePoint::new(horizon, last.x, last.y));
        }
        Trajectory::new(pts).unwrap()
    };

    let mut store = TrajectoryStore::new();
    let mut index = TbTree::new();
    for (i, (_, bus)) in buses.iter().enumerate() {
        let padded = pad(bus);
        let id = TrajectoryId(i as u64);
        index.insert_trajectory(id, &padded).unwrap();
        store.insert(id, padded);
    }

    let period = TimeInterval::new(0.0, horizon).unwrap();
    let metro_padded = pad(&metro);
    let report = bfmst_search(
        &[(&index, &store)],
        &metro_padded,
        &period,
        &MstConfig::k(buses.len()),
        &NoShare,
        &mut NoopSink,
    )
    .expect("planning query");

    println!("Which bus lines shadow the new metro line? (ascending DISSIM)\n");
    for (rank, m) in report.matches.iter().enumerate() {
        let name = buses[m.traj.0 as usize].0;
        println!(
            "  {}. {:<42} DISSIM = {:>14.0}  (mean gap {:>7.1} m)",
            rank + 1,
            name,
            m.dissim,
            m.dissim / period.duration(),
        );
    }
    println!(
        "\nThe redundant line must rank first; the time-shifted twin must rank\n\
         worse than it — spatial-only measures cannot tell those two apart."
    );
    let first = buses[report.matches[0].traj.0 as usize].0;
    assert!(
        first.starts_with("bus 12"),
        "expected bus 12 first, got {first}"
    );
    let rank_of = |needle: &str| {
        report
            .matches
            .iter()
            .position(|m| buses[m.traj.0 as usize].0.starts_with(needle))
            .unwrap()
    };
    assert!(rank_of("bus 34") > rank_of("bus 12"));
    println!("assertions passed: DISSIM separates schedule duplicates from time-shifted ones");
}
