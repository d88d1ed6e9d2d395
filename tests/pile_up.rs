//! DSLAM-shaped pile-ups over eight groups of 64 co-located devices.
//!
//! In the first, one group jumps together while a lone device faults in
//! another group, and both repair three epochs later. The 64 movers share
//! one closed neighbourhood, so the monitor runs Algorithm 2 once for all
//! of them, decides their Algorithm 3 verdict once (they are twins), and
//! their vicinity queries share one walk of the trajectory index through a
//! cell crowded with the healthy groups around them. Two more shapes test
//! where twins stop: two pile-ups that share an edge device, and a pile-up
//! one of whose members also sits in a second dense motion.
//!
//! Every report must equal the full-recompute [`Oracle`], and every
//! verdict's cost and vicinity must equal the ones a per-device
//! enumeration and a linear vicinity scan give.
//!
//! One more, ignored, case pins the smallest slow table found among those
//! the twin property test's generator draws: 16 devices in overlapping
//! clusters that take seconds to characterize.

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

/// Where the outage group and the loner go when they fault.
fn outage_and_loner(k: u64) -> Option<Vec<f64>> {
    if k / PER_GROUP == OUTAGE {
        let mut row = home(k);
        row[1] = 0.70;
        Some(row)
    } else if k == LONER {
        Some(vec![0.85, 0.10])
    } else {
        None
    }
}

/// Every device's row at each epoch: two calm epochs, the onset, two
/// steady epochs at the faulted positions, the repair, and two calm ones.
/// `fault` gives the faulted position of the devices that move.
fn trace(fault: impl Fn(u64) -> Option<Vec<f64>>) -> Vec<Vec<Vec<f64>>> {
    [false, false, true, true, true, false, false, false]
        .into_iter()
        .map(|faulted| {
            (0..DEVICES as u64)
                .map(|k| {
                    faulted
                        .then(|| fault(k))
                        .flatten()
                        .unwrap_or_else(|| home(k))
                })
                .collect()
        })
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

/// Seals `trace` through a monitor and the full-recompute oracle, checks
/// every report against both references, and returns the reports.
fn run(trace: &[Vec<Vec<f64>>]) -> Vec<Report> {
    let mut monitor = builder(DEVICES).build().unwrap();
    let mut oracle = Oracle::new(builder(DEVICES).build().unwrap(), || builder(0));
    let mut reports = Vec::with_capacity(trace.len());
    for rows in trace {
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
    for e in [1, 3, 4, 6, 7] {
        assert!(reports[e].verdicts().is_empty(), "epoch {e}");
    }
    reports
}

#[test]
fn a_pile_up_matches_the_oracle_and_the_per_device_reference_sequentially() {
    let reports = run(&trace(outage_and_loner));
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
}

/// Groups 3 and 5 jump together, 0.10 apart, and one device of group 4
/// between them jumps with them: it lies within the window of both
/// pile-ups, which lie outside each other's. Each pile-up is one twin
/// class; the edge device sits in both dense motions, is nobody's twin,
/// and joins the two into one component.
#[test]
fn two_pile_ups_sharing_an_edge_device_match_the_references() {
    const EDGE: u64 = 4 * PER_GROUP + 1;
    let fault = |k: u64| {
        let group = k / PER_GROUP;
        (group == 3 || group == 5 || k == EDGE).then(|| {
            let mut row = home(k);
            row[1] = 0.70;
            row
        })
    };
    let reports = run(&trace(fault));
    for e in [2, 5] {
        let r = &reports[e];
        assert_eq!(r.verdicts().len(), 2 * PER_GROUP as usize + 1, "epoch {e}");
        assert_eq!(r.count_of(AnomalyClass::Massive), r.verdicts().len());
        assert_eq!(r.components(), 1);
        for v in r.verdicts() {
            let cost = v.characterization.cost();
            let (dense, vicinity) = if v.key == DeviceKey(EDGE) {
                (2, 2 * PER_GROUP as usize)
            } else {
                (1, PER_GROUP as usize)
            };
            assert_eq!(cost.dense_motions, dense, "device {}", v.key);
            assert_eq!(v.vicinity, vicinity, "device {}", v.key);
        }
    }
}

/// The outage group jumps, and one of its members lands 0.03 further
/// along, next to four devices of group 6 that jumped with it: that
/// member is in the pile-up's dense motion and in a second one with the
/// four. Its closed neighbourhood differs from the other members', so it
/// is decided apart from them, while they stay twins.
#[test]
fn a_member_in_a_second_dense_motion_is_decided_apart() {
    const STRAY: u64 = OUTAGE * PER_GROUP + 9;
    let fault = |k: u64| {
        let mut row = home(k);
        if k / PER_GROUP == OUTAGE {
            row[1] = 0.70;
            if k == STRAY {
                row[0] += 0.03;
            }
            Some(row)
        } else if (6 * PER_GROUP..6 * PER_GROUP + 4).contains(&k) {
            row[0] += 0.03;
            row[1] = 0.70;
            Some(row)
        } else {
            None
        }
    };
    let reports = run(&trace(fault));
    for e in [2, 5] {
        let r = &reports[e];
        assert_eq!(r.verdicts().len(), PER_GROUP as usize + 4, "epoch {e}");
        assert_eq!(r.count_of(AnomalyClass::Massive), r.verdicts().len());
        assert_eq!(r.components(), 1);
        for v in r.verdicts() {
            let dense = if v.key == DeviceKey(STRAY) { 2 } else { 1 };
            assert_eq!(
                v.characterization.cost().dense_motions,
                dense,
                "device {}",
                v.key
            );
        }
    }
}

/// Rows `(anchor, kind, before-offset, after-offset)` drawn the way the
/// twin property test of `Analyzer::characterize_full_batch` (in
/// `anomaly-core`) draws them: 16 devices in two services around anchors
/// 0.05 apart, at `r = 0.05`, `τ = 1`. Of ~12 000 tables of 16 to 19 rows
/// drawn so, this is the smallest that took over 5 s in a release build
/// (tables of 17 rows took up to ~10 s).
const SLOW_TWIN_ROWS: [(usize, u8, f64, f64); 16] = [
    (3, 2, 0.07775015075744622, 0.06900415420361808),
    (0, 1, 0.09072018214445202, 0.08878794931399388),
    (0, 0, 0.005993689878471609, 0.09090495118570051),
    (0, 2, 0.082773705438897, 0.0748772658880932),
    (0, 1, 0.09454403298195202, 0.08650234752572832),
    (2, 2, 0.07729279778177456, 0.09835400001579969),
    (1, 0, 0.06742019243126479, 0.08917191814483058),
    (2, 0, 0.01766290385615408, 0.002717759576437273),
    (2, 2, 0.07792720834360131, 0.0829103652007707),
    (1, 2, 0.04983838878428881, 0.027421555522777242),
    (3, 2, 0.01136247324109292, 0.09293748099810568),
    (2, 0, 0.0002512259967190622, 0.09954293566588662),
    (0, 2, 0.01742852524130786, 0.07170079936883986),
    (0, 2, 0.00124484990212973, 0.006989208034392103),
    (2, 0, 0.06566945419780346, 0.03996721047456915),
    (1, 0, 0.07626650818426761, 0.04413903075066619),
];

/// The slow configuration costs seconds in the Theorem 7 / Corollary 8
/// collection search under `DEFAULT_COLLECTION_BUDGET`, not in
/// Algorithm 2: it takes 5–9 s in a release build on a shared 2-vCPU
/// x86-64 container. Algorithm 2 makes 508 window moves over all 16
/// devices, while two devices (`d5`, `d8`) each test 960 504 collections
/// before Theorem 7 finds them massive. Prints every device's `Cost`. Run
/// it with
/// `cargo test --release --test pile_up -- --ignored --nocapture`.
#[test]
#[ignore = "takes seconds: a worst-case probe for a per-seal budget"]
fn sixteen_overlapping_devices_cost_seconds_in_the_collection_search() {
    const ANCHORS: [f64; 4] = [0.10, 0.15, 0.20, 0.30];
    // Kind 0 sits on its anchor, 1 on a grid-aligned offset, 2 anywhere
    // within one window of it.
    let rows = SLOW_TWIN_ROWS
        .iter()
        .enumerate()
        .map(|(i, &(anchor, kind, b, a))| {
            let base = ANCHORS[anchor];
            let (db, da) = match kind {
                0 => (0.0, 0.0),
                1 => ((b * 10.0).round() / 100.0, (a * 10.0).round() / 100.0),
                _ => (b, a),
            };
            (
                DeviceId(i as u32),
                vec![base + db, base + db, base + da, base + da],
            )
        })
        .collect();
    let table = TrajectoryTable::from_concatenated(2, rows);
    let params = Params::new(0.05, 1).unwrap();
    let analyzer = Analyzer::with_enumeration_budget(&table, params, DEFAULT_ENUMERATION_BUDGET);
    let verdicts = analyzer.characterize_full_batch(table.ids());
    let (mut window_moves, mut collections) = (0, 0);
    for (j, verdict) in table.ids().iter().zip(&verdicts) {
        let cost = verdict.cost();
        println!(
            "device {j}: {:?} by {:?}, {cost:?}",
            verdict.class(),
            verdict.rule()
        );
        window_moves += cost.window_moves;
        collections += cost.collections_tested;
    }
    println!("total: {window_moves} window moves, {collections} collections tested");
    assert!(window_moves < 1_000);
    assert!(collections > 1_000_000);
}
