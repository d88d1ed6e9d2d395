//! Property-based equivalence: on random small fleets, the deployed
//! `Monitor` must classify every flagged device exactly as the
//! omniscient observer does by enumerating all anomaly partitions
//! (Relations (2)–(3), Definition 8) — across random radii, densities,
//! dimensions, and populations.
//!
//! Populations stay at `n ≤ 12` because the observer's partition count
//! grows with the Bell numbers; the vendored proptest shim is seeded per
//! test, so a passing run is reproducible everywhere.

use anomaly_characterization::core::observer::brute_force_classes;
use anomaly_characterization::core::{Params, TrajectoryTable};
use anomaly_characterization::detectors::{DeviceDetector, Verdict};
use anomaly_characterization::pipeline::MonitorBuilder;
use anomaly_characterization::qos::{DeviceId, QosSpace, Snapshot, StatePair};
use proptest::prelude::*;

/// Flags every observation after the first — turning the whole fleet into
/// `A_k` so the equivalence is checked on every device.
struct AlwaysFlag {
    services: usize,
    warmed: bool,
}

impl DeviceDetector for AlwaysFlag {
    fn services(&self) -> usize {
        self.services
    }

    fn observe_vector(&mut self, values: &[f64]) -> Verdict {
        assert_eq!(values.len(), self.services);
        let flag = self.warmed;
        self.warmed = true;
        Verdict::new(flag, 1.0, None)
    }

    fn reset(&mut self) {
        self.warmed = false;
    }

    fn description(&self) -> String {
        "always-flag".to_string()
    }
}

/// Feeds the two snapshots through a monitor and checks every verdict
/// against the observer's ground truth.
fn check_monitor_against_observer(
    rows_before: &[Vec<f64>],
    rows_after: &[Vec<f64>],
    radius: f64,
    tau: usize,
) {
    let n = rows_before.len();
    let d = rows_before[0].len();
    let space = QosSpace::new(d).unwrap();
    let before = Snapshot::from_rows(&space, rows_before.to_vec()).unwrap();
    let after = Snapshot::from_rows(&space, rows_after.to_vec()).unwrap();

    let mut monitor = MonitorBuilder::new()
        .radius(radius)
        .tau(tau)
        .services(d)
        .detector_factory(move |_| {
            Box::new(AlwaysFlag {
                services: d,
                warmed: false,
            })
        })
        .fleet(n)
        .build()
        .unwrap();
    let warmup = monitor.observe(before.clone()).unwrap();
    assert!(warmup.verdicts().is_empty(), "no interval yet");
    let report = monitor.observe(after.clone()).unwrap();
    assert_eq!(report.verdicts().len(), n, "every device is flagged");

    let pair = StatePair::new(before, after).unwrap();
    let all: Vec<DeviceId> = (0..n as u32).map(DeviceId).collect();
    let table = TrajectoryTable::from_state_pair(&pair, &all);
    let params = Params::new(radius, tau).unwrap();
    let truth = brute_force_classes(&table, &params, 5_000_000);

    for v in report.verdicts() {
        assert_eq!(
            Some(v.class()),
            truth.class_of(v.id),
            "device {} disagrees with the observer (r={radius}, tau={tau}, n={n}, d={d})",
            v.id,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Monitor == omniscient observer on every flagged device.
    #[test]
    fn monitor_matches_observer_on_random_small_fleets(
        d in 1..=2usize,
        raw_before in proptest::collection::vec(
            proptest::collection::vec(0.0..=1.0f64, 2), 2..=12),
        raw_after in proptest::collection::vec(
            proptest::collection::vec(0.0..=1.0f64, 2), 2..=12),
        radius in 0.01..0.12f64,
        tau in 1..=4usize,
    ) {
        let n = raw_before.len().min(raw_after.len());
        let cut = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
            rows[..n].iter().map(|r| r[..d].to_vec()).collect()
        };
        check_monitor_against_observer(&cut(&raw_before), &cut(&raw_after), radius, tau);
    }
}
