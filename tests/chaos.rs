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
//!   the shard, its merged ledger still balances, and its answer is
//!   bit-identical to the baseline over only the objects of the shards
//!   that did not fail.
//!
//! `chaos_smoke` is the fast subset `ci.sh` runs in release mode.

use mst::datagen::fixtures::lane_fleet;
use mst::exec::{BatchExecutor, BatchOutcome, BatchQuery, QueryAnswer, ShardedDatabase};
use mst::index::{FaultConfig, TrajectoryIndex, TrajectoryIndexWrite, RETRY_LIMIT};
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
/// [`Query::run`] path on an unsharded database of the objects of `fleet`
/// that `keep` admits.
fn baseline<I: TrajectoryIndexWrite + KmstSubstrate>(
    mut db: MovingObjectDatabase<I>,
    fleet: &[(TrajectoryId, Trajectory)],
    period: &TimeInterval,
    keep: impl Fn(TrajectoryId) -> bool,
) -> (Vec<Vec<MstMatch>>, Vec<NnMatch>) {
    for (id, traj) in fleet.iter().filter(|(id, _)| keep(*id)) {
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

/// Arms `config` on every shard, zeroes its I/O counters and drops the
/// warm buffer pages so the fault schedule actually sees physical reads.
fn arm_all<I: TrajectoryIndex>(db: &ShardedDatabase<I>, config: FaultConfig) {
    for shard in 0..db.num_shards() {
        db.set_fault_injection(shard, Some(config.with_seed(config.seed + shard as u64)))
            .expect("arm faults");
        db.shards()[shard]
            .index()
            .with(|index| {
                index.reset_stats();
                index.clear_buffer()
            })
            .expect("lock")
            .expect("clear buffer");
    }
}

/// One sweep point: run the batch under `config` and check the honesty
/// contract. Returns the outcome (its `degraded_count` is how many
/// queries were degraded).
fn run_case<I: TrajectoryIndexWrite + Default + Send + KmstSubstrate>(
    db: &ShardedDatabase<I>,
    fleet: &[(TrajectoryId, Trajectory)],
    period: &TimeInterval,
    config: FaultConfig,
    want: &(Vec<Vec<MstMatch>>, Vec<NnMatch>),
    workers: usize,
    what: &str,
) -> BatchOutcome {
    arm_all(db, config);
    let outcome = BatchExecutor::new()
        .workers(workers)
        .run(db, batch_for(fleet, period));
    assert_eq!(outcome.outcomes.len(), 3, "{what}: batch size");
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
            // The answer is exactly what the surviving shards hold.
            let failed: Vec<usize> = query.failures.iter().map(|f| f.shard).collect();
            let alive = |id| !failed.contains(&db.shard_of(id));
            let empty = MovingObjectDatabase::new(I::default());
            let survivors = baseline(empty, fleet, period, alive);
            assert_bit_identical(&query.answer, &survivors, q, &format!("{what} degraded"));
        }
    }
    // The injector saw the traffic: reads flowed through at least one
    // shard's armed store.
    let reads: u64 = (0..db.num_shards())
        .filter_map(|s| db.fault_stats(s))
        .map(|s| s.reads)
        .sum();
    assert!(reads > 0, "{what}: no physical read crossed the injector");
    outcome
}

/// Fault-rate 0, both substrates, 1 and 4 shards: an armed injector with
/// nothing to inject is bit-for-bit invisible.
#[test]
fn fault_rate_zero_is_bit_identical_to_query_run() {
    let fleet = lane_fleet(16, 24);
    let period = TimeInterval::new(0.0, 23.0).expect("period");
    let rtree_want = baseline(MovingObjectDatabase::with_rtree(), &fleet, &period, |_| {
        true
    });
    let tbtree_want = baseline(MovingObjectDatabase::with_tbtree(), &fleet, &period, |_| {
        true
    });

    for shards in [1usize, 4] {
        for workers in [1usize, 3] {
            let db = ShardedDatabase::with_rtree(shards, fleet.clone()).expect("build");
            let outcome = run_case(
                &db,
                &fleet,
                &period,
                FaultConfig::quiet(11),
                &rtree_want,
                workers,
                &format!("rtree s={shards} w={workers} rate=0"),
            );
            assert_eq!(
                outcome.degraded_count(),
                0,
                "a quiet injector degraded something"
            );

            let db = ShardedDatabase::with_tbtree(shards, fleet.clone()).expect("build");
            let outcome = run_case(
                &db,
                &fleet,
                &period,
                FaultConfig::quiet(13),
                &tbtree_want,
                workers,
                &format!("tbtree s={shards} w={workers} rate=0"),
            );
            assert_eq!(
                outcome.degraded_count(),
                0,
                "a quiet injector degraded something"
            );
        }
    }
}

/// The full sweep: fault rates from easily-masked to unmaskable, all
/// three fault kinds, both substrates, 1 and 4 shards. Honesty is checked
/// at every point; at the unmaskable end at least something must degrade
/// (otherwise the sweep is vacuous).
#[test]
fn chaos_sweep_is_honest_across_rates_substrates_and_shards() {
    let fleet = lane_fleet(16, 24);
    let period = TimeInterval::new(0.0, 23.0).expect("period");
    let rtree_want = baseline(MovingObjectDatabase::with_rtree(), &fleet, &period, |_| {
        true
    });
    let tbtree_want = baseline(MovingObjectDatabase::with_tbtree(), &fleet, &period, |_| {
        true
    });

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
                .with_torn_write(0.2),
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
            )
            .degraded_count();
            let db = ShardedDatabase::with_tbtree(shards, fleet.clone()).expect("build");
            degraded_total += run_case(
                &db,
                &fleet,
                &period,
                *config,
                &tbtree_want,
                2,
                &format!("tbtree s={shards} {label}"),
            )
            .degraded_count();
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
/// wrong answer. The accounting balances too: the query profiles and the
/// injector are the only record of the faults, so their arithmetic is
/// pinned — every failed fetch makes `RETRY_LIMIT + 1` attempts and ends
/// in one quarantine.
#[test]
fn unmaskable_rates_always_degrade_with_named_causes() {
    let fleet = lane_fleet(16, 24);
    let period = TimeInterval::new(0.0, 23.0).expect("period");
    let want = baseline(MovingObjectDatabase::with_rtree(), &fleet, &period, |_| {
        true
    });
    let attempts = u64::from(RETRY_LIMIT) + 1;
    for (label, config, transient) in [
        (
            "transient=1.0",
            FaultConfig::quiet(201).with_read_transient(1.0),
            true,
        ),
        (
            "corrupt=1.0",
            FaultConfig::quiet(202).with_read_corrupt(1.0),
            false,
        ),
    ] {
        let db = ShardedDatabase::with_rtree(4, fleet.clone()).expect("build");
        let outcome = run_case(&db, &fleet, &period, config, &want, 2, label);
        assert_eq!(
            outcome.degraded_count(),
            3,
            "{label}: every query must degrade"
        );
        // The retry machinery fought before giving up, and gave an
        // honest account of itself.
        let profile = outcome.merged_profile();
        assert!(profile.pages_quarantined > 0, "{label}: {profile:?}");
        assert_eq!(
            profile.io_retries,
            u64::from(RETRY_LIMIT) * profile.pages_quarantined,
            "{label}: retries per quarantine"
        );
        for shard in 0..db.num_shards() {
            let faults = db.fault_stats(shard).expect("armed shard has stats");
            let disk = db.shards()[shard]
                .index()
                .with(|index| index.stats().disk)
                .expect("lock");
            assert!(faults.reads > 0, "{label}: no reads reached shard {shard}");
            assert_eq!(faults.reads, disk.reads, "{label}: shard {shard}");
            if transient {
                assert_eq!(faults.transient_errors, faults.reads, "{label}");
            } else {
                assert_eq!(faults.corrupted_reads, faults.reads, "{label}");
            }
        }
        if transient {
            assert_eq!(profile.checksum_failures, 0, "{label}");
        } else {
            assert_eq!(
                profile.checksum_failures,
                attempts * profile.pages_quarantined,
                "{label}: checksum failures per quarantine"
            );
        }
    }
}

/// The fast subset `ci.sh` runs in release: one substrate, two shards,
/// a quiet schedule (bit-identical check) and a mixed noisy one
/// (honesty check).
#[test]
fn chaos_smoke() {
    let fleet = lane_fleet(12, 16);
    let period = TimeInterval::new(0.0, 15.0).expect("period");
    let want = baseline(MovingObjectDatabase::with_rtree(), &fleet, &period, |_| {
        true
    });

    let db = ShardedDatabase::with_rtree(2, fleet.clone()).expect("build");
    let outcome = run_case(
        &db,
        &fleet,
        &period,
        FaultConfig::quiet(31),
        &want,
        2,
        "smoke rate=0",
    );
    assert_eq!(outcome.degraded_count(), 0);

    let db = ShardedDatabase::with_rtree(2, fleet.clone()).expect("build");
    run_case(
        &db,
        &fleet,
        &period,
        FaultConfig::quiet(32)
            .with_read_transient(0.3)
            .with_read_corrupt(0.2),
        &want,
        2,
        "smoke noisy",
    );
}

/// FNV-1a over `bytes`.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over little-endian 64-bit words.
fn fnv_words(hash: &mut u64, words: &[u64]) {
    for word in words {
        fnv(hash, &word.to_le_bytes());
    }
}

/// One schedule's fault history on a seeded R-tree, folded into a digest.
/// The tree is built into a buffer larger than itself, the schedule is
/// armed, more trajectories are inserted (every page resident, so no read
/// crosses the injector yet) and the whole dirty buffer is written back,
/// drawing torn writes. Then a fixed stream of cold k-MST queries reads
/// the pages back through the paper-sized buffer. Each query folds in its
/// outcome (answer fingerprint, or its error message), its I/O counters
/// and its buffer hits/misses; the injector's and the disk's counters
/// close the digest.
fn fault_schedule_digest(config: FaultConfig) -> u64 {
    let fleet = lane_fleet(24, 60);
    let period = TimeInterval::new(0.0, 59.0).expect("period");
    let mut db = MovingObjectDatabase::with_rtree();
    db.index_mut()
        .set_buffer_capacity(Some(4096))
        .expect("size buffer");
    for (id, traj) in &fleet[..16] {
        db.insert_trajectory(*id, traj).expect("build");
    }
    db.index_mut().reset_stats();
    db.index_mut()
        .set_fault_injection(Some(config))
        .expect("arm faults");
    for (id, traj) in &fleet[16..] {
        db.insert_trajectory(*id, traj)
            .expect("insert, all pages resident");
    }
    db.index_mut().clear_buffer().expect("write back");
    db.index_mut()
        .set_buffer_capacity(None)
        .expect("paper buffer");

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (q, k) in [(0usize, 3usize), (5, 1), (9, 4), (17, 2), (22, 5), (3, 2)] {
        db.index_mut().clear_buffer().expect("cold buffer");
        let mut profile = mst::search::QueryProfile::new();
        match Query::kmst(&fleet[q].1)
            .k(k)
            .during(&period)
            .run_traced(&db, &mut profile)
        {
            Ok(matches) => {
                for m in &matches {
                    fnv_words(&mut hash, &[m.traj.0, m.dissim.to_bits()]);
                }
            }
            Err(e) => fnv(&mut hash, e.to_string().as_bytes()),
        }
        fnv_words(
            &mut hash,
            &[
                profile.io_retries,
                profile.checksum_failures,
                profile.pages_quarantined,
                profile.buffer_hits,
                profile.buffer_misses,
            ],
        );
    }
    let faults = db.index().fault_stats().expect("armed");
    let disk = db.index().stats().disk;
    fnv_words(
        &mut hash,
        &[
            faults.reads,
            faults.writes,
            faults.transient_errors,
            faults.corrupted_reads,
            faults.torn_writes,
            disk.reads,
            disk.writes,
        ],
    );
    hash
}

/// The fault schedule is pinned: four seeded schedules, each folded by
/// [`fault_schedule_digest`], reproduce digests recorded before the page
/// layer was collapsed into one store and one buffer read. A change to the
/// draw order, to which I/O calls cross the injector, or to how a fault is
/// retried, counted or surfaced moves a digest. Re-pin only for a
/// deliberate change to the fault model.
#[test]
fn fault_schedule_golden() {
    let schedules = [
        (
            "transient",
            FaultConfig::quiet(301).with_read_transient(0.2),
            0xc384_5787_9377_7c55u64,
        ),
        (
            "corrupt",
            FaultConfig::quiet(302).with_read_corrupt(0.3),
            0x7c4d_997f_3cda_bad0,
        ),
        (
            "torn",
            FaultConfig::quiet(303).with_torn_write(0.2),
            0x6a7f_bfea_795b_3183,
        ),
        (
            "mixed",
            FaultConfig::quiet(304)
                .with_read_transient(0.15)
                .with_read_corrupt(0.15)
                .with_torn_write(0.1),
            0x0b55_4844_7919_26f6,
        ),
    ];
    for (label, config, want) in schedules {
        let got = fault_schedule_digest(config);
        assert_eq!(got, want, "{label}: fault schedule digest {got:#018x}");
    }
}
