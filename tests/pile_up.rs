//! A DSLAM-shaped pile-up: eight groups of 64 co-located devices, one of
//! which jumps together while a lone device faults in another group, and
//! both repair three epochs later.
//!
//! The 64 movers share one closed neighbourhood, so the monitor runs
//! Algorithm 2 once for all of them, and their vicinity queries fall in
//! one grid cell crowded with the healthy groups around them. Every report
//! must equal the full-recompute [`Oracle`], and every
//! verdict's cost and vicinity must equal the ones a per-device
//! enumeration and a linear vicinity scan give.

mod common;

use anomaly_characterization::core::{
    maximal_motions_involving_bounded, Analyzer, AnomalyClass, DevicePrecompute, MotionOps, Params,
    TrajectoryTable, DEFAULT_ENUMERATION_BUDGET,
};
use anomaly_characterization::detectors::{ThresholdDetector, VectorDetector};
use anomaly_characterization::pipeline::{DeviceKey, MonitorBuilder, Report};
use anomaly_characterization::qos::{DeviceId, QosSpace, Snapshot, StatePair};
use common::{Drive, Oracle};

const PER_GROUP: u64 = 64;
const DEVICES: usize = 8 * PER_GROUP as usize;
/// The group whose devices jump together.
const OUTAGE: u64 = 5;
/// A device of another group that faults alone.
const LONER: u64 = 2 * PER_GROUP + 17;
const RADIUS: f64 = 0.03;

/// Groups sit 0.05 apart, so each group's before-cells also hold its
/// healthy neighbours; members spread by at most 0.003.
fn home(k: u64) -> Vec<f64> {
    let group = k / PER_GROUP;
    vec![0.20 + 0.05 * group as f64 + 0.001 * (k % 4) as f64, 0.40]
}

fn position(k: u64, faulted: bool) -> Vec<f64> {
    let mut row = home(k);
    if faulted && k / PER_GROUP == OUTAGE {
        row[1] = 0.70;
    } else if faulted && k == LONER {
        row = vec![0.85, 0.10];
    }
    row
}

/// Every device's row at each epoch: two calm epochs, the onset, two
/// steady epochs at the faulted positions, the repair, and two calm ones.
fn trace() -> Vec<Vec<Vec<f64>>> {
    [false, false, true, true, true, false, false, false]
        .into_iter()
        .map(|faulted| (0..DEVICES as u64).map(|k| position(k, faulted)).collect())
        .collect()
}

fn builder(devices: usize) -> MonitorBuilder {
    MonitorBuilder::new()
        .services(2)
        .radius(RADIUS)
        .tau(3)
        .detector_factory(|_| {
            Box::new(VectorDetector::homogeneous(2, || {
                ThresholdDetector::with_delta(0.15)
            }))
        })
        .capacity(devices)
        .fleet(devices)
}

/// Everything a report says except its wall-clock timings.
fn fingerprint(r: &Report) -> String {
    let mut s = r.summary();
    s.detection_micros = 0;
    s.characterization_micros = 0;
    format!(
        "k={} verdicts={:?} warming={:?} deltas={:?} summary={}",
        r.instant(),
        r.verdicts(),
        r.warming(),
        r.event_deltas(),
        s.to_json()
    )
}

fn state_pair(before: &[Vec<f64>], after: &[Vec<f64>]) -> StatePair {
    let space = QosSpace::new(2).unwrap();
    StatePair::new(
        Snapshot::from_rows(&space, before.to_vec()).unwrap(),
        Snapshot::from_rows(&space, after.to_vec()).unwrap(),
    )
    .unwrap()
}

/// Checks every verdict of `report` (sealed over `before → after`)
/// against a per-device recomputation: each device's slice from its own
/// enumeration, the verdict from an engine merged from those slices, and
/// the vicinity from the linear scan over the whole fleet.
fn assert_per_device_reference(report: &Report, before: &[Vec<f64>], after: &[Vec<f64>]) {
    let params = Params::new(RADIUS, 3).unwrap();
    let rows: Vec<(DeviceId, Vec<f64>)> = report
        .verdicts()
        .iter()
        .map(|v| {
            assert_eq!(u64::from(v.id.0), v.key.0, "no churn: dense id is the key");
            let k = v.key.0 as usize;
            (v.id, [before[k].clone(), after[k].clone()].concat())
        })
        .collect();
    let table = TrajectoryTable::from_concatenated(2, rows);
    let parts: Vec<(DeviceId, DevicePrecompute)> = table
        .ids()
        .iter()
        .map(|&j| {
            let part = Analyzer::precompute_device(&table, &params, j, DEFAULT_ENUMERATION_BUDGET);
            (j, part)
        })
        .collect();
    let analyzer = Analyzer::from_parts(&table, params, parts);
    let pair = state_pair(before, after);
    for v in report.verdicts() {
        let want = analyzer.characterize_full(v.id);
        assert_eq!(v.characterization, want, "device {}", v.key);
        let mut ops = MotionOps::default();
        let motions = maximal_motions_involving_bounded(
            &table,
            v.id,
            params.window(),
            &mut ops,
            DEFAULT_ENUMERATION_BUDGET,
        )
        .unwrap();
        let cost = v.characterization.cost();
        assert_eq!(cost.window_moves, ops.window_moves, "device {}", v.key);
        assert_eq!(cost.maximal_motions, motions.len(), "device {}", v.key);
        assert_eq!(
            cost.dense_motions,
            motions.iter().filter(|m| params.is_dense(m.len())).count(),
            "device {}",
            v.key
        );
        assert_eq!(
            v.vicinity,
            pair.neighbors_both(v.id, params.window()).len(),
            "device {}",
            v.key
        );
    }
}

#[test]
fn a_pile_up_matches_the_oracle_and_the_per_device_reference_sequentially() {
    let trace = trace();
    let mut monitor = builder(DEVICES).build().unwrap();
    let mut oracle = Oracle::new(builder(DEVICES).build().unwrap(), || builder(0));
    let mut reports = Vec::with_capacity(trace.len());
    for rows in &trace {
        let epoch: Vec<(u64, Vec<f64>)> = rows
            .iter()
            .cloned()
            .enumerate()
            .map(|(k, r)| (k as u64, r))
            .collect();
        monitor.ingest_many(epoch.clone()).unwrap();
        oracle.monitor().ingest_many(epoch).unwrap();
        let a = monitor.seal().unwrap();
        let b = oracle.seal().unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b), "k={}", a.instant());
        reports.push(a);
    }
    for (e, report) in reports.iter().enumerate().skip(1) {
        assert_per_device_reference(report, &trace[e - 1], &trace[e]);
    }
    // The onset and the repair each flag the whole group plus the loner:
    // the group is one massive outage, the loner an isolated fault.
    for e in [2, 5] {
        let r = &reports[e];
        assert_eq!(r.verdicts().len(), PER_GROUP as usize + 1, "epoch {e}");
        assert_eq!(r.count_of(AnomalyClass::Massive), PER_GROUP as usize);
        assert_eq!(r.class_of(DeviceKey(LONER)), Some(AnomalyClass::Isolated));
        assert_eq!(r.components(), 1);
        for v in r.massive() {
            assert_eq!(v.vicinity, PER_GROUP as usize - 1, "device {}", v.key);
            assert!(v.characterization.cost().window_moves > 0);
        }
    }
    for e in [1, 3, 4, 6, 7] {
        assert!(reports[e].verdicts().is_empty(), "epoch {e}");
    }
}
