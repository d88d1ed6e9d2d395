//! The streaming front-end must be unobservable next to the batch one:
//! any permutation of per-device updates — duplicates included, last
//! write wins — sealed once yields a report identical (modulo wall-clock
//! timings) to `observe()` on the assembled snapshot — observed through
//! the full-recompute [`Oracle`]. And sealing a small
//! epoch over a calm fleet must maintain the vicinity grid incrementally,
//! not rebuild it.

mod common;

use anomaly_characterization::detectors::ThresholdDetector;
use anomaly_characterization::pipeline::{Monitor, MonitorBuilder, Report, StalenessPolicy};
use anomaly_characterization::qos::GridUpdate;
use common::{Drive, Oracle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Everything a report says except its wall-clock timings.
fn fingerprint(r: &Report) -> String {
    format!(
        "k={} n={} verdicts={:?} warming={:?} stragglers={:?} summary={}",
        r.instant(),
        r.population(),
        r.verdicts(),
        r.warming(),
        r.stragglers(),
        {
            let mut s = r.summary();
            s.detection_micros = 0;
            s.characterization_micros = 0;
            s.to_json()
        },
    )
}

fn builder() -> MonitorBuilder {
    MonitorBuilder::new().detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.08)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Feed the same epoch sequence to a batch oracle and a streaming
    /// monitor whose updates arrive shuffled and partially duplicated:
    /// every sealed report must match the observed one byte for byte.
    #[test]
    fn shuffled_duplicated_ingest_equals_observe(
        levels in proptest::collection::vec(
            proptest::collection::vec(0.0..=1.0f64, 8), 4),
        n in 2..=8usize,
        seed in 0u64..10_000,
    ) {
        let mut batch = Oracle::new(builder().fleet(n).build().unwrap(), builder);
        let mut stream = builder().fleet(n).build().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for epoch in &levels {
            let rows: Vec<Vec<f64>> = epoch[..n].iter().map(|&v| vec![v]).collect();
            // Stale duplicates first (they must be overwritten) …
            for slot in 0..n {
                if rng.gen_bool(0.3) {
                    let junk = rng.gen_range(0.0..=1.0);
                    stream.ingest(slot as u64, vec![junk]).unwrap();
                }
            }
            // … then the real updates, in a random arrival order.
            let mut updates: Vec<(u64, Vec<f64>)> = rows
                .iter()
                .enumerate()
                .map(|(slot, row)| (slot as u64, row.clone()))
                .collect();
            updates.shuffle(&mut rng);
            stream.ingest_many(updates).unwrap();
            let streamed = stream.seal().unwrap();

            let observed = batch.observe_rows(rows).unwrap();
            prop_assert_eq!(
                fingerprint(&observed),
                fingerprint(&streamed),
                "epoch {} diverged",
                observed.instant()
            );
        }
        // Both monitors agree on the final snapshot too.
        prop_assert_eq!(batch.monitor().last_snapshot(), stream.last_snapshot());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The characterization cache and the incremental grid must be
    /// unobservable: shuffled-silence ingest sequences with mid-run churn,
    /// under every staleness policy, produce
    /// byte-identical reports and final snapshots on the monitor and on
    /// the full-recompute oracle.
    ///
    /// In `placeholder` runs devices 1–3 jump next to the origin one epoch
    /// before the churn and then fall silent where the policy allows, so
    /// their flags freeze; the joiner takes over the leaver's warmed
    /// detector, reports exactly the origin — the placeholder row of a
    /// joiner — and falls silent too, so one epoch later it enters `A_k`
    /// next to cached verdicts that only its own dirty cells evict.
    #[test]
    fn characterization_cache_is_unobservable_under_churn(
        levels in proptest::collection::vec(
            proptest::collection::vec(0.0..=1.0f64, 6), 6),
        silence in proptest::collection::vec(
            proptest::collection::vec(0usize..3, 6), 6),
        churn_at in 1usize..5,
        placeholder in 0usize..2,
    ) {
        let placeholder = placeholder == 1;
        // The cluster's jump needs an epoch before it to flag.
        let churn_at = if placeholder { churn_at.max(2) } else { churn_at };
        let n = 6usize;
        let policies = [
            StalenessPolicy::Reject,
            StalenessPolicy::CarryForward { max_age: 1_000 },
            StalenessPolicy::Default(vec![0.5]),
        ];
        for policy in &policies {
            let configured = {
                let policy = policy.clone();
                move || builder().staleness(policy.clone())
            };
            let run = |m: &mut dyn Drive| {
                let mut prints = Vec::new();
                for (e, epoch) in levels.iter().enumerate() {
                    if e == churn_at {
                        let detector = m.monitor().leave(0u64).unwrap();
                        if placeholder {
                            m.monitor().join_with(1_000u64, detector).unwrap();
                        } else {
                            m.monitor().join(1_000u64).unwrap();
                        }
                    }
                    let keys = m.monitor().keys().to_vec();
                    for (i, &key) in keys.iter().enumerate() {
                        let frozen = placeholder
                            && match key.0 {
                                1..=3 => e >= churn_at,
                                1_000 => e > churn_at,
                                _ => false,
                            };
                        // Epoch 0 and the fresh joiner always
                        // report; under Reject everyone does.
                        let may_skip = e > 0
                            && !matches!(policy, StalenessPolicy::Reject)
                            && (frozen
                                || (key.0 as usize) < n && silence[e][key.0 as usize] == 0);
                        if may_skip {
                            continue;
                        }
                        let level = match key.0 {
                            _ if !placeholder => epoch[i % epoch.len()],
                            // The leaver's detector last saw 0.5, far
                            // enough from the origin to flag the joiner.
                            0 => 0.5,
                            1..=3 if e + 1 < churn_at => 0.5,
                            1..=3 if e + 1 == churn_at => 0.01 * key.0 as f64,
                            1_000 if e == churn_at => 0.0,
                            _ => epoch[i % epoch.len()],
                        };
                        m.monitor().ingest(key, vec![level]).unwrap();
                    }
                    prints.push(fingerprint(&m.seal().unwrap()));
                }
                (prints, m.monitor().last_snapshot().cloned())
            };
            let mut monitor = configured().fleet(n).build().unwrap();
            let mut oracle =
                Oracle::new(configured().fleet(n).build().unwrap(), configured.clone());
            prop_assert_eq!(
                run(&mut monitor),
                run(&mut oracle),
                "{:?} diverged",
                policy
            );
        }
    }
}

/// A long steady run designed to hit every cache path: a flagged cluster
/// frozen by silence (full cache hits, epoch after epoch), far-away calm
/// movers (> 4r from the cluster — cached verdicts must be served
/// untouched), then a mover *inside* the cluster's neighbourhood (partial
/// invalidation, mixed cached/fresh characterization). Every epoch must
/// match the full-recompute oracle byte for byte.
#[test]
fn characterization_cache_matches_full_recompute_on_a_frozen_cluster() {
    const N: usize = 60;
    let builder = || {
        MonitorBuilder::new()
            .staleness(StalenessPolicy::CarryForward { max_age: 10_000 })
            .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
    };
    let mut cached = builder().fleet(N).build().unwrap();
    let mut full = Oracle::new(builder().fleet(N).build().unwrap(), builder);

    let base_row = |k: u64| vec![0.55 + 0.3 * ((k % 37) as f64 / 37.0)];
    let step = |cached: &mut Monitor, full: &mut Oracle, rows: Vec<(u64, Vec<f64>)>| {
        cached.ingest_many(rows.clone()).unwrap();
        full.monitor().ingest_many(rows).unwrap();
        let a = cached.seal().unwrap();
        let b = full.seal().unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b), "k={}", a.instant());
        a
    };
    // Warm-up: two full epochs.
    for _ in 0..2 {
        step(
            &mut cached,
            &mut full,
            (0..N as u64).map(|k| (k, base_row(k))).collect(),
        );
    }
    // The cluster 0..6 jumps into an anomalous corner and then goes
    // silent: frozen flags keep it abnormal for every following epoch.
    let mut rows: Vec<(u64, Vec<f64>)> = (0..N as u64).map(|k| (k, base_row(k))).collect();
    for k in 0..6u64 {
        rows[k as usize] = (k, vec![0.10 + k as f64 * 0.005]);
    }
    let r = step(&mut cached, &mut full, rows);
    assert_eq!(r.verdicts().len(), 6);
    // Far-away churn only: two calm devices wiggle within their cells,
    // > 4r away from the cluster, so the cached cluster verdicts are
    // reused wholesale — and must still equal a fresh recompute.
    for round in 0..4 {
        let wiggle = if round % 2 == 0 { 0.004 } else { -0.004 };
        let rows = vec![
            (40u64, vec![base_row(40)[0] + wiggle]),
            (41u64, vec![base_row(41)[0] + wiggle]),
        ];
        let r = step(&mut cached, &mut full, rows);
        assert_eq!(r.verdicts().len(), 6, "the frozen cluster stays abnormal");
    }
    // A device drops into the cluster's 4r neighbourhood: the dirty-cell
    // expansion must invalidate the affected entries, flag the newcomer,
    // and the mixed cached/fresh path must still be byte-identical.
    let r = step(&mut cached, &mut full, vec![(30u64, vec![0.16])]);
    assert_eq!(r.verdicts().len(), 7, "the near mover flags too");
    // And the re-cached neighbourhood serves the next quiet epoch.
    let r = step(
        &mut cached,
        &mut full,
        vec![(40u64, vec![base_row(40)[0] + 0.004])],
    );
    assert_eq!(r.verdicts().len(), 7);
}

/// The acceptance bar for delta-style sealing: an epoch where ≤ 1% of the
/// fleet reports a change re-buckets only those devices in the vicinity
/// grid — no full rebuild (and, structurally, no full snapshot clone:
/// the sealing path recycles the previous snapshot's buffers).
#[test]
fn sealing_a_one_percent_epoch_is_incremental() {
    const N: usize = 500;
    const CHANGED: usize = 5; // exactly 1% of the fleet
    let mut m = MonitorBuilder::new()
        .staleness(StalenessPolicy::CarryForward { max_age: 1_000 })
        .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
        .fleet(N)
        .build()
        .unwrap();
    // Two full epochs establish the previous snapshot and the buffers.
    for _ in 0..2 {
        m.ingest_many((0..N as u64).map(|k| (k, vec![0.2 + (k % 50) as f64 * 0.01])))
            .unwrap();
        m.seal().unwrap();
    }
    assert_eq!(m.last_grid_update(), None, "no flags yet, no grid yet");

    // Epoch 3: 1% of the fleet jumps; everyone else is silent and carried.
    m.ingest_many((0..CHANGED as u64).map(|k| (k, vec![0.95])))
        .unwrap();
    let r = m.seal().unwrap();
    assert_eq!(r.verdicts().len(), CHANGED);
    assert_eq!(r.stragglers().len(), N - CHANGED);
    assert_eq!(
        m.last_grid_update(),
        Some(GridUpdate::Rebuilt),
        "the first characterized instant builds the grid"
    );

    // Epoch 4: another 1% jumps. The grid must absorb the staged moves of
    // epoch 3 incrementally — rebucketing at most those few devices — and
    // never rebuild.
    m.ingest_many((0..CHANGED as u64).map(|k| (k, vec![0.2 + (k % 50) as f64 * 0.01])))
        .unwrap();
    let r = m.seal().unwrap();
    assert_eq!(r.verdicts().len(), CHANGED);
    match m.last_grid_update() {
        Some(GridUpdate::Incremental { rebucketed }) => assert!(
            rebucketed <= CHANGED,
            "rebucketed {rebucketed} devices for a {CHANGED}-device epoch"
        ),
        other => panic!("expected an incremental grid update, got {other:?}"),
    }

    // And it stays incremental across further small epochs.
    for round in 0..3 {
        let level = if round % 2 == 0 { 0.95 } else { 0.4 };
        m.ingest_many((0..CHANGED as u64).map(|k| (k, vec![level])))
            .unwrap();
        m.seal().unwrap();
        assert!(
            matches!(
                m.last_grid_update(),
                Some(GridUpdate::Incremental { rebucketed }) if rebucketed <= CHANGED
            ),
            "round {round}: {:?}",
            m.last_grid_update()
        );
    }
}

/// Churn forces one rebuild (dense ids shifted), after which steady
/// sealing goes back to incremental maintenance.
#[test]
fn churn_rebuilds_once_then_returns_to_incremental() {
    let mut m = MonitorBuilder::new()
        .staleness(StalenessPolicy::CarryForward { max_age: 100 })
        .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
        .fleet(64)
        .build()
        .unwrap();
    let seal_with_jump = |m: &mut Monitor, jumpers: &[u64], level: f64| {
        for &k in jumpers {
            m.ingest(k, vec![level]).unwrap();
        }
        m.seal().unwrap()
    };
    m.ingest_many((0..64u64).map(|k| (k, vec![0.8]))).unwrap();
    m.seal().unwrap();
    m.ingest_many((0..64u64).map(|k| (k, vec![0.8]))).unwrap();
    m.seal().unwrap();
    seal_with_jump(&mut m, &[1, 2], 0.3);
    seal_with_jump(&mut m, &[1, 2], 0.8);
    assert!(matches!(
        m.last_grid_update(),
        Some(GridUpdate::Incremental { .. })
    ));

    // Membership changes: staged moves and the recycled buffer die. The
    // churned interval characterizes a 63-survivor cohort (rebuild), and
    // the next full-fleet interval re-syncs the grid to the full scope
    // (one more rebuild) before incremental maintenance resumes.
    m.leave(63u64).unwrap();
    m.join(99u64).unwrap();
    m.ingest(99u64, vec![0.8]).unwrap();
    seal_with_jump(&mut m, &[1, 2], 0.3);
    assert_eq!(m.last_grid_update(), Some(GridUpdate::Rebuilt));
    seal_with_jump(&mut m, &[1, 2], 0.8);
    assert_eq!(m.last_grid_update(), Some(GridUpdate::Rebuilt));

    // Steady again: incremental resumes.
    seal_with_jump(&mut m, &[1, 2], 0.3);
    assert!(matches!(
        m.last_grid_update(),
        Some(GridUpdate::Incremental { .. })
    ));
}

/// A joiner's previous row is a placeholder (the origin), and its row is
/// always counted as changed at the seal it joins, even when it reports
/// exactly the placeholder: the echo of that change evicts the cached
/// verdicts around it one seal later, when it enters `A_k` and the
/// trajectory index. Here the joiner lands on the origin next to three
/// frozen flagged devices — sparse alone at `τ = 3`, massive with the
/// joiner — and every epoch must match the full-recompute oracle.
#[test]
fn a_joiner_reporting_the_placeholder_row_evicts_the_cache_around_it() {
    const N: usize = 40;
    const JOINER: u64 = 1_000;
    let builder = || {
        MonitorBuilder::new()
            .staleness(StalenessPolicy::CarryForward { max_age: 100 })
            .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
    };
    let mut cached = builder().fleet(N).build().unwrap();
    let mut full = Oracle::new(builder().fleet(N).build().unwrap(), builder);
    let base_row = |k: u64| vec![0.55 + 0.3 * ((k % 37) as f64 / 37.0)];
    let step = |cached: &mut Monitor, full: &mut Oracle, rows: Vec<(u64, Vec<f64>)>| {
        cached.ingest_many(rows.clone()).unwrap();
        full.monitor().ingest_many(rows).unwrap();
        let a = cached.seal().unwrap();
        let b = full.seal().unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b), "k={}", a.instant());
        a
    };
    for _ in 0..2 {
        step(
            &mut cached,
            &mut full,
            (0..N as u64).map(|k| (k, base_row(k))).collect(),
        );
    }
    // Three devices jump next to the origin and go silent: frozen flags
    // keep them abnormal.
    let cluster: Vec<(u64, Vec<f64>)> = (0..3u64)
        .map(|k| (k, vec![0.01 + 0.005 * k as f64]))
        .collect();
    let r = step(&mut cached, &mut full, cluster);
    assert_eq!(r.verdicts().len(), 3);
    // A calm device leaves; the joiner takes over its warmed detector, so
    // its first row, exactly the origin, flags it at once.
    for m in [&mut cached, full.monitor()] {
        let detector = m.leave(30u64).unwrap();
        m.join_with(JOINER, detector).unwrap();
    }
    let r = step(&mut cached, &mut full, vec![(JOINER, vec![0.0])]);
    assert_eq!(r.warming(), &[JOINER.into()]);
    assert_eq!(r.verdicts().len(), 3);
    assert_eq!(
        r.massive().count(),
        0,
        "three co-located devices are sparse"
    );
    // Nobody reports: the joiner is in A_k now, and its cached neighbours
    // must be recomputed with it.
    let r = step(&mut cached, &mut full, Vec::new());
    assert_eq!(r.verdicts().len(), 4);
    assert_eq!(r.massive().count(), 4, "with the joiner they are dense");
}

/// A churn seal that fails in phase 1 leaves the monitor as it was: the
/// same checkpoint bytes and the same previous snapshot, still in the
/// pre-churn dense order. Once the silent joiner reports, the stream is
/// the one of a twin that never failed.
#[test]
fn a_failed_churn_seal_changes_nothing() {
    const N: u64 = 8;
    let build = || {
        MonitorBuilder::new()
            .staleness(StalenessPolicy::CarryForward { max_age: 5 })
            .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
            .fleet(N as usize)
            .build()
            .unwrap()
    };
    let mut m = build();
    let mut twin = build();
    let row = |k: u64| vec![0.2 + 0.08 * k as f64];
    for m in [&mut m, &mut twin] {
        for _ in 0..2 {
            m.ingest_many((0..N).map(|k| (k, row(k)))).unwrap();
            m.seal().unwrap();
        }
        // Devices 0..4 jump together and stay flagged.
        m.ingest_many((0..4u64).map(|k| (k, vec![0.9 - 0.01 * k as f64])))
            .unwrap();
        m.seal().unwrap();
        m.leave(1u64).unwrap();
        m.join(100u64).unwrap();
        m.ingest_many([(5u64, vec![0.65]), (6u64, vec![0.7])])
            .unwrap();
    }
    let checkpoint = |m: &Monitor| {
        let mut bytes = Vec::new();
        m.checkpoint(&mut bytes).unwrap();
        bytes
    };
    let bytes = checkpoint(&m);
    let snapshot = m.last_snapshot().cloned();
    assert_eq!(
        m.seal().unwrap_err(),
        anomaly_characterization::pipeline::MonitorError::Ingest(
            anomaly_characterization::pipeline::IngestError::MissingDevices {
                keys: vec![100u64.into()],
            }
        )
    );
    assert_eq!(checkpoint(&m), bytes, "the checkpoint is unchanged");
    assert_eq!(m.last_snapshot().cloned(), snapshot, "so is the snapshot");
    for m in [&mut m, &mut twin] {
        m.ingest(100u64, vec![0.3]).unwrap();
    }
    let (a, b) = (m.seal().unwrap(), twin.seal().unwrap());
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.verdicts().len(), 3, "the survivors of the jump");
    for m in [&mut m, &mut twin] {
        m.ingest_many([(0u64, vec![0.2]), (100u64, vec![0.31])])
            .unwrap();
    }
    let (a, b) = (m.seal().unwrap(), twin.seal().unwrap());
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(m.last_snapshot(), twin.last_snapshot());
}
