//! Seeded chaos suite for the fault-tolerance layer: deterministic fault
//! schedules swept over fault rates × both index substrates × 1/4 shards.
//!
//! The contract under test, end to end:
//!
//! * **No panics** anywhere in the sweep — every fault surfaces as a
//!   typed error or is masked by the retry/checksum machinery.
//! * **Fault rate 0 is invisible**: an armed-but-quiet injector produces
//!   answers bit-identical to the single-threaded [`Query::run`]
//!   baseline on an unsharded database.
//! * **Masked faults are invisible too**: whenever retries absorb every
//!   injected fault (no shard failed), the merged answers are
//!   bit-identical to the baseline and the candidate ledger balances.
//! * **Unmasked faults degrade honestly**: a query whose shard died is
//!   flagged `degraded` with a non-empty [`ShardFailure`] list naming
//!   the shard, and its merged ledger still balances.
//!
//! `chaos_smoke` is the fast subset `ci.sh` runs in release mode.

use mst::datagen::fixtures::lane_fleet;
use mst::exec::{BatchExecutor, BatchQuery, QueryAnswer, ShardedDatabase};
use mst::index::{FaultConfig, TrajectoryIndex, TrajectoryIndexWrite};
use mst::search::{KmstSubstrate, MovingObjectDatabase, MstMatch, NnMatch, Query};
use mst::trajectory::{TimeInterval, Trajectory, TrajectoryId};

/// The batch every sweep point runs: two k-MST queries and one kNN.
fn batch_for(fleet: &[(TrajectoryId, Trajectory)], period: &TimeInterval) -> Vec<BatchQuery> {
    vec![
        BatchQuery::kmst(Query::kmst(&fleet[0].1).k(5).during(period)).expect("kmst spec"),
        BatchQuery::kmst(Query::kmst(&fleet[3].1).k(3).during(period)).expect("kmst spec"),
        BatchQuery::knn(Query::knn(&fleet[1].1).k(4).during(period)).expect("knn spec"),
    ]
}

/// The certified answers, straight from the paper-faithful single-index
/// [`Query::run`] path on an unsharded database.
fn baseline<I: TrajectoryIndexWrite + KmstSubstrate>(
    mut db: MovingObjectDatabase<I>,
    fleet: &[(TrajectoryId, Trajectory)],
    period: &TimeInterval,
) -> (Vec<Vec<MstMatch>>, Vec<NnMatch>) {
    for (id, traj) in fleet {
        db.insert_trajectory(*id, traj).expect("baseline insert");
    }
    let kmst = vec![
        Query::kmst(&fleet[0].1)
            .k(5)
            .during(period)
            .run(&db)
            .expect("baseline kmst"),
        Query::kmst(&fleet[3].1)
            .k(3)
            .during(period)
            .run(&db)
            .expect("baseline kmst"),
    ];
    let knn = Query::knn(&fleet[1].1)
        .k(4)
        .during(period)
        .run(&db)
        .expect("baseline knn");
    (kmst, knn)
}

fn assert_bit_identical(
    answer: &QueryAnswer,
    want: &(Vec<Vec<MstMatch>>, Vec<NnMatch>),
    query: usize,
    what: &str,
) {
    match (query, answer) {
        (0 | 1, QueryAnswer::Kmst(got)) => {
            let want = &want.0[query];
            assert_eq!(got.len(), want.len(), "{what} q{query}: result count");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.traj, w.traj, "{what} q{query}: trajectory id");
                assert_eq!(
                    g.dissim.to_bits(),
                    w.dissim.to_bits(),
                    "{what} q{query}: dissim must be bit-identical"
                );
            }
        }
        (2, QueryAnswer::Knn(got)) => {
            let want = &want.1;
            assert_eq!(got.len(), want.len(), "{what} q{query}: result count");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.traj, w.traj, "{what} q{query}: trajectory id");
                assert_eq!(
                    g.distance.to_bits(),
                    w.distance.to_bits(),
                    "{what} q{query}: distance must be bit-identical"
                );
            }
        }
        _ => panic!("{what} q{query}: unexpected answer flavour"),
    }
}

/// Arms `config` on every shard and drops the warm buffer pages so the
/// fault schedule actually sees physical reads.
fn arm_all<I: TrajectoryIndex>(db: &ShardedDatabase<I>, config: FaultConfig) {
    for shard in 0..db.num_shards() {
        db.set_fault_injection(shard, Some(config.with_seed(config.seed + shard as u64)))
            .expect("arm faults");
        db.shards()[shard]
            .index()
            .with(|index| index.clear_buffer())
            .expect("lock")
            .expect("clear buffer");
    }
}

/// One sweep point: run the batch under `config` and check the honesty
/// contract. Returns how many queries were degraded.
fn run_case<I: TrajectoryIndex + Send + KmstSubstrate>(
    db: &ShardedDatabase<I>,
    fleet: &[(TrajectoryId, Trajectory)],
    period: &TimeInterval,
    config: FaultConfig,
    want: &(Vec<Vec<MstMatch>>, Vec<NnMatch>),
    workers: usize,
    what: &str,
) -> usize {
    arm_all(db, config);
    let outcome = BatchExecutor::new()
        .workers(workers)
        .run(db, batch_for(fleet, period));
    assert_eq!(outcome.outcomes.len(), 3, "{what}: batch size");
    let mut degraded = 0;
    for (q, result) in outcome.outcomes.iter().enumerate() {
        let query = result.as_ref().unwrap_or_else(|e| {
            panic!("{what} q{q}: a fault must degrade, never fail the query: {e}")
        });
        assert!(
            query.profile.is_consistent(),
            "{what} q{q}: candidate ledger unbalanced: {:?}",
            query.profile.candidates
        );
        assert!(
            !query.deadline_expired,
            "{what} q{q}: no deadline was configured"
        );
        assert_eq!(
            query.degraded,
            !query.failures.is_empty(),
            "{what} q{q}: degraded flag must track the failure list"
        );
        if query.failures.is_empty() {
            // Every injected fault was masked (retries, checksum re-reads):
            // the answer must be exactly the certified baseline.
            assert_bit_identical(&query.answer, want, q, what);
        } else {
            degraded += 1;
            for failure in &query.failures {
                assert!(
                    failure.shard < db.num_shards(),
                    "{what} q{q}: failure names a nonexistent shard"
                );
                assert!(
                    !failure.error.to_string().is_empty(),
                    "{what} q{q}: failure cause must be reportable"
                );
            }
        }
    }
    // The injector saw the traffic: reads flowed through at least one
    // shard's armed store.
    let reads: u64 = (0..db.num_shards())
        .filter_map(|s| db.fault_stats(s))
        .map(|s| s.reads)
        .sum();
    assert!(reads > 0, "{what}: no physical read crossed the injector");
    degraded
}

/// Fault-rate 0, both substrates, 1 and 4 shards: an armed injector with
/// nothing to inject is bit-for-bit invisible.
#[test]
fn fault_rate_zero_is_bit_identical_to_query_run() {
    let fleet = lane_fleet(16, 24);
    let period = TimeInterval::new(0.0, 23.0).expect("period");
    let rtree_want = baseline(MovingObjectDatabase::with_rtree(), &fleet, &period);
    let tbtree_want = baseline(MovingObjectDatabase::with_tbtree(), &fleet, &period);

    for shards in [1usize, 4] {
        for workers in [1usize, 3] {
            let db = ShardedDatabase::with_rtree(shards, fleet.clone()).expect("build");
            let degraded = run_case(
                &db,
                &fleet,
                &period,
                FaultConfig::quiet(11),
                &rtree_want,
                workers,
                &format!("rtree s={shards} w={workers} rate=0"),
            );
            assert_eq!(degraded, 0, "a quiet injector degraded something");

            let db = ShardedDatabase::with_tbtree(shards, fleet.clone()).expect("build");
            let degraded = run_case(
                &db,
                &fleet,
                &period,
                FaultConfig::quiet(13),
                &tbtree_want,
                workers,
                &format!("tbtree s={shards} w={workers} rate=0"),
            );
            assert_eq!(degraded, 0, "a quiet injector degraded something");
        }
    }
}

/// The full sweep: fault rates from easily-masked to unmaskable, all
/// four fault kinds, both substrates, 1 and 4 shards. Honesty is checked
/// at every point; at the unmaskable end at least something must degrade
/// (otherwise the sweep is vacuous).
#[test]
fn chaos_sweep_is_honest_across_rates_substrates_and_shards() {
    let fleet = lane_fleet(16, 24);
    let period = TimeInterval::new(0.0, 23.0).expect("period");
    let rtree_want = baseline(MovingObjectDatabase::with_rtree(), &fleet, &period);
    let tbtree_want = baseline(MovingObjectDatabase::with_tbtree(), &fleet, &period);

    let schedules: Vec<(&str, FaultConfig)> = vec![
        (
            "transient=0.05",
            FaultConfig::quiet(101).with_read_transient(0.05),
        ),
        (
            "transient=0.5",
            FaultConfig::quiet(102).with_read_transient(0.5),
        ),
        (
            "transient=1.0",
            FaultConfig::quiet(103).with_read_transient(1.0),
        ),
        (
            "corrupt=0.05",
            FaultConfig::quiet(104).with_read_corrupt(0.05),
        ),
        (
            "corrupt=1.0",
            FaultConfig::quiet(105).with_read_corrupt(1.0),
        ),
        (
            "mixed",
            FaultConfig::quiet(106)
                .with_read_transient(0.1)
                .with_read_corrupt(0.1)
                .with_torn_write(0.2)
                .with_stall(0.3, 250),
        ),
    ];

    let mut degraded_total = 0;
    for shards in [1usize, 4] {
        for (label, config) in &schedules {
            let db = ShardedDatabase::with_rtree(shards, fleet.clone()).expect("build");
            degraded_total += run_case(
                &db,
                &fleet,
                &period,
                *config,
                &rtree_want,
                2,
                &format!("rtree s={shards} {label}"),
            );
            let db = ShardedDatabase::with_tbtree(shards, fleet.clone()).expect("build");
            degraded_total += run_case(
                &db,
                &fleet,
                &period,
                *config,
                &tbtree_want,
                2,
                &format!("tbtree s={shards} {label}"),
            );
        }
    }
    assert!(
        degraded_total > 0,
        "the unmaskable end of the sweep never degraded anything — the injector is dead"
    );
}

/// Unmaskable schedules must degrade: with every physical read failing
/// (or arriving corrupt) past what `RETRY_LIMIT` can absorb, each query
/// reports at least one shard failure — never a panic, never a silent
/// wrong answer.
#[test]
fn unmaskable_rates_always_degrade_with_named_causes() {
    let fleet = lane_fleet(16, 24);
    let period = TimeInterval::new(0.0, 23.0).expect("period");
    let want = baseline(MovingObjectDatabase::with_rtree(), &fleet, &period);
    for (label, config) in [
        (
            "transient=1.0",
            FaultConfig::quiet(201).with_read_transient(1.0),
        ),
        (
            "corrupt=1.0",
            FaultConfig::quiet(202).with_read_corrupt(1.0),
        ),
    ] {
        let db = ShardedDatabase::with_rtree(4, fleet.clone()).expect("build");
        let degraded = run_case(&db, &fleet, &period, config, &want, 2, label);
        assert_eq!(degraded, 3, "{label}: every query must degrade");
        // The retry machinery fought before giving up, and gave an
        // honest account of itself.
        let stats = db.fault_stats(0).expect("armed shard has stats");
        assert!(stats.reads > 0, "{label}: no reads reached shard 0");
    }
}

/// The fast subset `ci.sh` runs in release: one substrate, two shards,
/// a quiet schedule (bit-identical check) and a mixed noisy one
/// (honesty check).
#[test]
fn chaos_smoke() {
    let fleet = lane_fleet(12, 16);
    let period = TimeInterval::new(0.0, 15.0).expect("period");
    let want = baseline(MovingObjectDatabase::with_rtree(), &fleet, &period);

    let db = ShardedDatabase::with_rtree(2, fleet.clone()).expect("build");
    let degraded = run_case(
        &db,
        &fleet,
        &period,
        FaultConfig::quiet(31),
        &want,
        2,
        "smoke rate=0",
    );
    assert_eq!(degraded, 0);

    let db = ShardedDatabase::with_rtree(2, fleet.clone()).expect("build");
    run_case(
        &db,
        &fleet,
        &period,
        FaultConfig::quiet(32)
            .with_read_transient(0.3)
            .with_read_corrupt(0.2)
            .with_stall(0.2, 100),
        &want,
        2,
        "smoke noisy",
    );
}
