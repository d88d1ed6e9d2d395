//! The trajectory index seen through the monitor: a lone fault that jumps
//! out of a crowded square, monitors with many services, and what
//! [`Monitor::last_grid_update`] reports seal by seal.
//!
//! Every report must equal the full-recompute [`Oracle`], which rebuilds
//! the index and recomputes every verdict at each seal.

mod common;

use anomaly_characterization::core::AnomalyClass;
use anomaly_characterization::detectors::{ThresholdDetector, VectorDetector};
use anomaly_characterization::pipeline::{
    DeviceKey, Monitor, MonitorBuilder, Report, StalenessPolicy,
};
use anomaly_characterization::qos::GridUpdate;
use common::{Drive, Oracle};

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

fn builder(services: usize, devices: usize) -> MonitorBuilder {
    MonitorBuilder::new()
        .services(services)
        .radius(0.03)
        .tau(3)
        .staleness(StalenessPolicy::CarryForward { max_age: 1_000 })
        .detector_factory(move |_| {
            Box::new(VectorDetector::homogeneous(services, || {
                ThresholdDetector::with_delta(0.1)
            }))
        })
        .capacity(devices)
        .fleet(devices)
}

/// Seals every epoch of `epochs` (full rows) on a monitor and on the
/// [`Oracle`], asserting equal reports, and returns the monitor's.
fn run_against_the_oracle(services: usize, epochs: &[Vec<Vec<f64>>]) -> Vec<Report> {
    let devices = epochs[0].len();
    let mut monitor = builder(services, devices).build().unwrap();
    let mut oracle = Oracle::new(builder(services, devices).build().unwrap(), move || {
        builder(services, 0)
    });
    let mut reports = Vec::with_capacity(epochs.len());
    for rows in epochs {
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
    reports
}

/// A crowded square of calm devices (cells are 0.0625 wide at `r = 0.03`)
/// and one device at its centre that jumps along the first axis by
/// `shift`, stays away for two epochs, and comes back.
fn crowd_with_a_jumper(shift: f64) -> Vec<Vec<Vec<f64>>> {
    const SIDE: usize = 60;
    let calm: Vec<Vec<f64>> = (0..SIDE * SIDE)
        .map(|i| {
            let (x, y) = (i % SIDE, i / SIDE);
            vec![0.55 + 0.005 * x as f64, 0.55 + 0.005 * y as f64]
        })
        .collect();
    let home = vec![0.70, 0.70];
    let away = vec![0.70 + shift, 0.70];
    [&home, &home, &away, &away, &away, &home, &home]
        .into_iter()
        .map(|jumper| {
            let mut rows = calm.clone();
            rows.push(jumper.clone());
            rows
        })
        .collect()
}

/// The lone fault of a crowded square — the paper's isolated "call the
/// help desk" page — with its before- and after-cells two and three cells
/// apart: no calm device is within `2r` at both instants, so its vicinity
/// is 0 and it is isolated, both when it leaves and when it comes back.
#[test]
fn a_jumper_out_of_a_crowded_square_is_isolated() {
    for (shift, gap) in [(0.13, 2), (0.19, 3)] {
        let cell = |x: f64| (x / 0.0625) as i64;
        assert_eq!(cell(0.70 + shift) - cell(0.70), gap);
        let epochs = crowd_with_a_jumper(shift);
        let jumper = DeviceKey((epochs[0].len() - 1) as u64);
        let reports = run_against_the_oracle(2, &epochs);
        for e in [2, 5] {
            let r = &reports[e];
            assert_eq!(r.verdicts().len(), 1, "gap {gap}, epoch {e}");
            assert_eq!(r.class_of(jumper), Some(AnomalyClass::Isolated));
            assert_eq!(r.verdicts()[0].vicinity, 0, "gap {gap}, epoch {e}");
        }
    }
}

/// Rows of `devices` positions in `services` dimensions: a co-located
/// group of five (keys 0..5) that jumps together at epoch 2, a lone fault (key
/// 5) that jumps at epoch 4, and calm devices that wiggle below the
/// detector threshold, some across cells.
fn many_services_trace(services: usize, devices: usize) -> Vec<Vec<Vec<f64>>> {
    let home = |k: usize| -> Vec<f64> {
        (0..services)
            .map(|a| match k {
                0..5 => 0.5 + 0.001 * k as f64,
                _ => 0.2 + 0.6 * (((k * 7 + a * 3) % 11) as f64 / 11.0),
            })
            .collect()
    };
    (0..8)
        .map(|e: usize| {
            (0..devices)
                .map(|k| {
                    let mut row = home(k);
                    if k < 5 && (2..6).contains(&e) {
                        row.fill(0.05 + 0.001 * k as f64);
                    } else if k == 5 && (4..7).contains(&e) {
                        row[0] = 0.95;
                    } else if k >= 6 && e % 2 == 1 {
                        row[k % services] += 0.04;
                    }
                    row
                })
                .collect()
        })
        .collect()
}

/// Six and sixteen services: a dense grid would need `16^6` and `2^16`
/// buckets for two devices (or wrap to none at sixteen); the sparse index
/// holds one entry per device, and every report equals the Oracle's.
#[test]
fn many_services_seal_a_lone_fault_and_a_co_moving_group() {
    for services in [6, 16] {
        let epochs = many_services_trace(services, 30);
        let reports = run_against_the_oracle(services, &epochs);
        let group = &reports[2];
        assert_eq!(
            group.count_of(AnomalyClass::Massive),
            5,
            "{services} services"
        );
        let fault = &reports[4];
        assert_eq!(
            fault.class_of(DeviceKey(5)),
            Some(AnomalyClass::Isolated),
            "{services} services"
        );
    }
}

/// `last_grid_update` describes the seal just made: `None` for a quiet
/// seal after a characterized one, `Rebuilt` for the first characterized
/// seal after a restore, `Incremental` for the next ones.
#[test]
fn last_grid_update_follows_the_current_seal() {
    let epochs = crowd_with_a_jumper(0.19);
    let devices = epochs[0].len();
    let mut m = builder(2, devices).build().unwrap();
    let seal = |m: &mut Monitor, e: usize| {
        let rows = epochs[e]
            .iter()
            .cloned()
            .enumerate()
            .map(|(k, r)| (k as u64, r));
        m.ingest_many(rows).unwrap();
        m.seal().unwrap()
    };
    for e in 0..2 {
        seal(&mut m, e);
        assert_eq!(m.last_grid_update(), None, "epoch {e}: nothing flagged");
    }
    assert!(!seal(&mut m, 2).verdicts().is_empty());
    assert_eq!(m.last_grid_update(), Some(GridUpdate::Rebuilt));
    // The jumper re-reports the same reading: its flag clears.
    assert!(seal(&mut m, 3).verdicts().is_empty());
    assert_eq!(m.last_grid_update(), None, "a quiet seal updates nothing");
    assert!(seal(&mut m, 4).verdicts().is_empty());
    assert_eq!(m.last_grid_update(), None);

    let mut bytes = Vec::new();
    m.checkpoint(&mut bytes).unwrap();
    let mut m = Monitor::restore(bytes.as_slice(), builder(2, 0)).unwrap();
    assert_eq!(
        m.last_grid_update(),
        None,
        "a restored monitor has no index"
    );
    assert!(!seal(&mut m, 5).verdicts().is_empty());
    assert_eq!(m.last_grid_update(), Some(GridUpdate::Rebuilt));
    assert!(seal(&mut m, 6).verdicts().is_empty());
    assert_eq!(m.last_grid_update(), None);
    // The jumper leaves again: the index re-keys the staged devices.
    assert!(!seal(&mut m, 2).verdicts().is_empty());
    assert_eq!(
        m.last_grid_update(),
        Some(GridUpdate::Incremental { rebucketed: 1 })
    );
}
