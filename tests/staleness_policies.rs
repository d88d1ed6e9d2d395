//! Staleness policies exercised end to end on the ISP fault-injection
//! workload: `CarryForward` bridges a gateway whose reports go missing for
//! k consecutive instants, and `Reject` surfaces a typed error naming the
//! missing `DeviceKey`s.

use anomaly_characterization::detectors::{ThresholdDetector, VectorDetector};
use anomaly_characterization::pipeline::{
    DeviceKey, IngestError, Monitor, MonitorBuilder, MonitorError, StalenessPolicy,
};
use anomaly_eval::{NetworkFaultScenario, Scenario, ScenarioRun, ScenarioSpec};
use anomaly_qos::Snapshot;

fn scenario() -> (ScenarioSpec, ScenarioRun) {
    let scenario = NetworkFaultScenario::small_mixed("staleness-net", 21, 3);
    let spec = scenario.spec();
    let run = scenario.generate().unwrap();
    (spec, run)
}

fn monitor(spec: &ScenarioSpec, staleness: StalenessPolicy) -> Monitor {
    let services = spec.services;
    let delta = spec.detector_delta;
    MonitorBuilder::new()
        .params(spec.params)
        .services(services)
        .staleness(staleness)
        .detector_factory(move |_| {
            Box::new(VectorDetector::homogeneous(services, move || {
                ThresholdDetector::with_delta(delta)
            }))
        })
        .fleet(spec.population)
        .build()
        .unwrap()
}

/// Ingests every row of `snapshot` except the devices in `skip`.
fn ingest_except(m: &mut Monitor, snapshot: &Snapshot, skip: &[DeviceKey]) {
    let keys = m.keys().to_vec();
    for (id, p) in snapshot.iter() {
        let key = keys[id.index()];
        if skip.contains(&key) {
            continue;
        }
        m.ingest(key, p.to_vec()).unwrap();
    }
}

#[test]
fn carry_forward_bridges_a_gateway_that_skips_k_instants() {
    const K: u64 = 2;
    let (spec, run) = scenario();
    let mut m = monitor(&spec, StalenessPolicy::CarryForward { max_age: K });
    // The silent gateway: a calm device (never in the ground truth), so
    // its carried row is indistinguishable from a slow but healthy report.
    let silent_id = (0..spec.population as u32)
        .map(anomaly_qos::DeviceId)
        .find(|&id| {
            run.steps
                .iter()
                .all(|s| !s.truth.abnormal_devices().contains(id))
        })
        .expect("some gateway stays calm across the run");
    let silent = DeviceKey(silent_id.0 as u64);

    // Step 0: everyone reports, both instants.
    ingest_except(&mut m, run.steps[0].pair.before(), &[]);
    m.seal().unwrap();
    ingest_except(&mut m, run.steps[0].pair.after(), &[]);
    let r = m.seal().unwrap();
    assert!(r.has_network_event(), "the DSLAM outage must still surface");
    assert!(r.stragglers().is_empty());

    // Steps 1..: the gateway goes silent for exactly K consecutive
    // instants — bridged both times, and the rest of the fleet is still
    // detected and characterized normally.
    let mut bridged = 0u64;
    for snapshot in [run.steps[1].pair.before(), run.steps[1].pair.after()] {
        ingest_except(&mut m, snapshot, &[silent]);
        let r = m.seal().unwrap();
        assert_eq!(r.stragglers(), &[silent]);
        bridged += 1;
    }
    assert_eq!(bridged, K);
    // The gateway reports again: no straggler, age reset.
    ingest_except(&mut m, run.steps[2].pair.before(), &[]);
    m.seal().unwrap();
    ingest_except(&mut m, run.steps[2].pair.after(), &[]);
    let after = m.seal().unwrap();
    assert!(after.stragglers().is_empty(), "the gateway is back");
}

#[test]
fn carry_forward_rejects_a_gateway_stale_beyond_max_age() {
    let (spec, run) = scenario();
    let mut m = monitor(&spec, StalenessPolicy::CarryForward { max_age: 1 });
    let silent = DeviceKey(40);
    ingest_except(&mut m, run.steps[0].pair.before(), &[]);
    m.seal().unwrap();
    // Miss 1: bridged.
    ingest_except(&mut m, run.steps[0].pair.after(), &[silent]);
    assert_eq!(m.seal().unwrap().stragglers(), &[silent]);
    // Miss 2: beyond the bound — typed error naming the device.
    ingest_except(&mut m, run.steps[1].pair.before(), &[silent]);
    let err = m.seal().unwrap_err();
    assert_eq!(
        err,
        MonitorError::Ingest(IngestError::StaleDevices {
            keys: vec![silent],
            max_age: 1,
        })
    );
    // The epoch is still open: the late report arrives and sealing works.
    let row = run.steps[1]
        .pair
        .before()
        .position(anomaly_qos::DeviceId(40))
        .to_vec();
    m.ingest(silent, row).unwrap();
    assert!(m.seal().unwrap().stragglers().is_empty());
}

/// The `CarryForward { max_age }` bound is **inclusive**: a device silent
/// for *exactly* `max_age` consecutive epochs is bridged every single
/// time, and only the `max_age + 1`-th consecutive miss fails. Pinned for
/// several bounds so the `age < max_age` comparison in the seal can never
/// silently drift to `<=` (one extra bridged epoch) or to bridging one
/// epoch fewer than documented.
#[test]
fn carry_forward_bridges_exactly_max_age_epochs() {
    for max_age in [1u64, 2, 3, 5] {
        let mut m = MonitorBuilder::new()
            .staleness(StalenessPolicy::CarryForward { max_age })
            .fleet(2)
            .build()
            .unwrap();
        m.ingest_many([(0u64, vec![0.9]), (1u64, vec![0.8])])
            .unwrap();
        m.seal().unwrap();
        // Silent for exactly max_age consecutive epochs: bridged each time.
        for miss in 1..=max_age {
            m.ingest(0u64, vec![0.9]).unwrap();
            let r = m
                .seal()
                .unwrap_or_else(|e| panic!("miss {miss}/{max_age} must be bridged: {e}"));
            assert_eq!(r.stragglers(), &[DeviceKey(1)], "miss {miss}/{max_age}");
        }
        // The max_age + 1-th consecutive miss crosses the bound.
        m.ingest(0u64, vec![0.9]).unwrap();
        assert_eq!(
            m.seal().unwrap_err(),
            MonitorError::Ingest(IngestError::StaleDevices {
                keys: vec![DeviceKey(1)],
                max_age,
            }),
            "max_age {max_age}"
        );
        // A late report resets the run of misses entirely.
        m.ingest(1u64, vec![0.8]).unwrap();
        assert!(m.seal().unwrap().stragglers().is_empty());
        m.ingest(0u64, vec![0.9]).unwrap();
        assert_eq!(m.seal().unwrap().stragglers(), &[DeviceKey(1)]);
    }
}

/// Churn in the middle of an open epoch: `leave` swap-removes the dense
/// slot out of the key vector, the detector vector, *and* the epoch state
/// (staged update + staleness age). The device swapped into the vacated
/// slot must keep its own staged point and its own consecutive-miss age —
/// not inherit the departing device's (or a reset one).
#[test]
fn leave_mid_epoch_keeps_staged_points_and_ages_with_their_device() {
    let mut m = MonitorBuilder::new()
        .staleness(StalenessPolicy::CarryForward { max_age: 2 })
        .fleet(4)
        .build()
        .unwrap();
    // Epoch 0: everyone reports a distinguishable row.
    m.ingest_many((0u64..4).map(|k| (k, vec![0.5 + k as f64 / 100.0])))
        .unwrap();
    m.seal().unwrap();
    // Epoch 1: device 3 (the last dense slot) misses once — its age is 1.
    m.ingest_many((0u64..3).map(|k| (k, vec![0.6]))).unwrap();
    assert_eq!(m.seal().unwrap().stragglers(), &[DeviceKey(3)]);

    // Epoch 2, interleaved with churn: device 0 stages an update, then
    // device 1 leaves mid-epoch (device 3 swap-moves into slot 1, carrying
    // its staged state), and a fresh device 9 joins the tail slot.
    m.ingest(0u64, vec![0.7]).unwrap();
    m.leave(1u64).unwrap();
    m.join(9u64).unwrap();
    assert_eq!(
        m.keys(),
        &[DeviceKey(0), DeviceKey(3), DeviceKey(2), DeviceKey(9)]
    );
    // The joiner has no previous position: it must report this epoch.
    m.ingest(2u64, vec![0.7]).unwrap();
    m.ingest(9u64, vec![0.7]).unwrap();
    let r = m.seal().unwrap();
    // Device 3's second consecutive miss is bridged with ITS old row (the
    // epoch-0 report carried through epoch 1) — not device 1's.
    assert_eq!(r.stragglers(), &[DeviceKey(3)]);
    let slot3 = m.id_of(DeviceKey(3)).unwrap();
    assert_eq!(
        m.last_snapshot().unwrap().position(slot3),
        &[0.53],
        "the swapped-in slot must keep device 3's carried row"
    );
    // And device 0's staged point survived the churn untouched.
    let slot0 = m.id_of(DeviceKey(0)).unwrap();
    assert_eq!(m.last_snapshot().unwrap().position(slot0), &[0.7]);

    // Epoch 3: device 3's THIRD consecutive miss must cross max_age 2. If
    // the swap had mis-attributed ages (e.g. reset to the vacated slot's
    // age), this seal would wrongly bridge it again.
    m.ingest(0u64, vec![0.7]).unwrap();
    m.ingest(2u64, vec![0.7]).unwrap();
    m.ingest(9u64, vec![0.7]).unwrap();
    assert_eq!(
        m.seal().unwrap_err(),
        MonitorError::Ingest(IngestError::StaleDevices {
            keys: vec![DeviceKey(3)],
            max_age: 2,
        })
    );
    // Recovery: device 3 reports, the epoch seals, everyone is current.
    m.ingest(3u64, vec![0.8]).unwrap();
    let r = m.seal().unwrap();
    assert!(r.stragglers().is_empty());
    assert_eq!(r.population(), 4);
}

/// A staged update leaves with its device, and the update staged by the
/// swapped-in device is attributed to the right key even when both had
/// pending points (the `pending` vector mirrors the same swap-remove).
#[test]
fn leave_mid_epoch_drops_only_the_departing_devices_update() {
    let mut m = MonitorBuilder::new().fleet(3).build().unwrap();
    m.ingest_many((0u64..3).map(|k| (k, vec![0.9]))).unwrap();
    m.seal().unwrap();
    // All three stage updates; device 1 (with a pending point) leaves.
    m.ingest(0u64, vec![0.10]).unwrap();
    m.ingest(1u64, vec![0.20]).unwrap();
    m.ingest(2u64, vec![0.30]).unwrap();
    m.leave(1u64).unwrap();
    assert_eq!(m.pending_updates(), 2);
    assert!(m.silent_keys().is_empty());
    let r = m.seal().unwrap();
    assert_eq!(r.population(), 2);
    let slot2 = m.id_of(DeviceKey(2)).unwrap();
    assert_eq!(
        m.last_snapshot().unwrap().position(slot2),
        &[0.30],
        "device 2's staged point follows it into the swapped slot"
    );
    let slot0 = m.id_of(DeviceKey(0)).unwrap();
    assert_eq!(m.last_snapshot().unwrap().position(slot0), &[0.10]);
}

/// Bridged rows do not feed detectors (the pinned *frozen* semantics —
/// see the `StalenessPolicy` docs): a device flagged by real data that
/// then goes silent keeps its frozen verdict — it stays in `A_k` every
/// bridged epoch — until a real report clears it. `ThresholdDetector`
/// makes the distinction observable: re-feeding the carried row would see
/// a zero jump and clear a legitimate alarm just because the device went
/// quiet.
#[test]
fn carried_rows_freeze_the_detector_and_its_verdict() {
    let mut m = MonitorBuilder::new()
        .staleness(StalenessPolicy::CarryForward { max_age: 10 })
        .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.15)))
        .fleet(8)
        .build()
        .unwrap();
    for _ in 0..2 {
        m.ingest_many((0..8u64).map(|k| (k, vec![0.9]))).unwrap();
        assert!(m.seal().unwrap().verdicts().is_empty());
    }
    // Device 0 jumps: flagged on real data.
    m.ingest(0u64, vec![0.2]).unwrap();
    m.ingest_many((1..8u64).map(|k| (k, vec![0.9]))).unwrap();
    let r = m.seal().unwrap();
    assert!(r.class_of(DeviceKey(0)).is_some(), "the jump must flag");
    assert_eq!(r.verdicts().len(), 1);
    // Three bridged epochs: the frozen verdict keeps device 0 abnormal.
    for miss in 1..=3 {
        m.ingest_many((1..8u64).map(|k| (k, vec![0.9]))).unwrap();
        let r = m.seal().unwrap();
        assert_eq!(r.stragglers(), &[DeviceKey(0)], "miss {miss}");
        assert!(
            r.class_of(DeviceKey(0)).is_some(),
            "miss {miss}: the frozen flag must keep the silent device in A_k"
        );
    }
    // The device reports its row again — REAL data this time, zero jump:
    // the detector finally observes it and the alarm clears. Had the
    // bridged epochs re-fed the carried row, the alarm would have cleared
    // three epochs ago on synthetic data.
    m.ingest(0u64, vec![0.2]).unwrap();
    m.ingest_many((1..8u64).map(|k| (k, vec![0.9]))).unwrap();
    let r = m.seal().unwrap();
    assert!(r.stragglers().is_empty());
    assert!(
        r.verdicts().is_empty(),
        "a real zero-jump report clears the threshold alarm"
    );
}

/// `Default` fills freeze detectors too: a silent device whose row is
/// defaulted far away from its last report stays calm — the synthetic row
/// is never observed. The very same row reported as real data flags
/// immediately, proving the detector state stayed at the last *observed*
/// value through the defaulted epoch.
#[test]
fn default_fills_do_not_feed_detectors() {
    let mut m = MonitorBuilder::new()
        .staleness(StalenessPolicy::Default(vec![0.5]))
        .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.15)))
        .fleet(4)
        .build()
        .unwrap();
    for _ in 0..2 {
        m.ingest_many((0..4u64).map(|k| (k, vec![0.9]))).unwrap();
        assert!(m.seal().unwrap().verdicts().is_empty());
    }
    // Devices 2 and 3 go silent: their rows default to 0.5 — a 0.4 jump,
    // had it been fed. Frozen detectors keep the fleet calm.
    m.ingest(0u64, vec![0.9]).unwrap();
    m.ingest(1u64, vec![0.9]).unwrap();
    let r = m.seal().unwrap();
    assert_eq!(r.stragglers(), &[DeviceKey(2), DeviceKey(3)]);
    assert!(
        r.verdicts().is_empty(),
        "synthetic default rows must not flag anybody"
    );
    // Device 2 now reports 0.5 for real. Its detector last observed 0.9 —
    // not the defaulted 0.5 — so the 0.4 jump flags it.
    m.ingest(0u64, vec![0.9]).unwrap();
    m.ingest(1u64, vec![0.9]).unwrap();
    m.ingest(2u64, vec![0.5]).unwrap();
    m.ingest(3u64, vec![0.9]).unwrap();
    let r = m.seal().unwrap();
    assert!(
        r.class_of(DeviceKey(2)).is_some(),
        "the same row as real data flags: the detector state was frozen at 0.9"
    );
}

#[test]
fn reject_names_every_missing_gateway() {
    let (spec, run) = scenario();
    let mut m = monitor(&spec, StalenessPolicy::Reject);
    let missing = [DeviceKey(3), DeviceKey(17)];
    ingest_except(&mut m, run.steps[0].pair.before(), &missing);
    let err = m.seal().unwrap_err();
    assert_eq!(
        err,
        MonitorError::Ingest(IngestError::MissingDevices {
            keys: missing.to_vec(),
        })
    );
    let rendered = err.to_string();
    assert!(rendered.contains("#3"), "{rendered}");
    assert!(rendered.contains("#17"), "{rendered}");
    // Completing the epoch seals it.
    ingest_except(&mut m, run.steps[0].pair.before(), &[DeviceKey(3)]);
    let row = run.steps[0]
        .pair
        .before()
        .position(anomaly_qos::DeviceId(3))
        .to_vec();
    m.ingest(DeviceKey(3), row).unwrap();
    assert!(m.seal().is_ok());
}
