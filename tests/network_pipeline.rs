//! Integration of the ISP network substrate with detectors and the
//! characterization core — the full deployment pipeline of the paper's
//! motivating use case.

use anomaly_characterization::core::{Analyzer, AnomalyClass, Params, TrajectoryTable};
use anomaly_characterization::detectors::{EwmaDetector, VectorDetector};
use anomaly_characterization::network::{
    gateway_reports, FaultTarget, NetworkConfig, NetworkSimulation, ReportAction,
};
use anomaly_characterization::pipeline::{DeviceKey, MonitorBuilder};
use anomaly_characterization::qos::DeviceId;

fn params() -> Params {
    Params::new(0.02, 3).unwrap()
}

#[test]
fn detectors_build_a_k_from_network_measurements() {
    // Warm the detectors on healthy snapshots, inject a DSLAM fault, and
    // check the detector-built A_k matches the fault's blast radius.
    let mut net = NetworkSimulation::new(NetworkConfig::small(11)).unwrap();
    let d = net.services().len();
    let n = net.population();
    let mut devices: Vec<VectorDetector> = (0..n)
        .map(|_| VectorDetector::homogeneous(d, || EwmaDetector::new(0.3, 6.0)))
        .collect();
    for _ in 0..30 {
        let snap = net.snapshot();
        for (j, det) in devices.iter_mut().enumerate() {
            det.observe_vector(snap.position(DeviceId(j as u32)));
        }
    }
    let dslam = net.topology().dslams()[2];
    let expected = net.topology().downstream_gateways(dslam).len();
    let outcome = net.step(vec![FaultTarget::Node {
        node: dslam,
        severity: 0.5,
    }]);
    let mut flagged = Vec::new();
    for (j, det) in devices.iter_mut().enumerate() {
        let id = DeviceId(j as u32);
        if det
            .observe_vector(outcome.pair.after().position(id))
            .is_anomalous()
        {
            flagged.push(id);
        }
    }
    assert_eq!(flagged.len(), expected, "A_k must equal the blast radius");

    // And the characterization of the detector-built A_k is massive.
    let table = TrajectoryTable::from_state_pair(&outcome.pair, &flagged);
    let analyzer = Analyzer::new(&table, params());
    for &j in table.ids() {
        assert_eq!(analyzer.characterize_full(j).class(), AnomalyClass::Massive);
    }
}

/// The same deployment story as `detectors_build_a_k_from_network_
/// measurements`, but served entirely by the v2 Monitor: gateways join
/// under their topology node ids, the monitor builds A_k itself, and the
/// blast radius comes back as one massive event.
#[test]
fn monitor_keyed_by_gateway_ids_finds_the_blast_radius() {
    let mut net = NetworkSimulation::new(NetworkConfig::small(11)).unwrap();
    let d = net.services().len();
    let mut monitor = MonitorBuilder::new()
        .radius(0.02)
        .tau(3)
        .services(d)
        .detector_factory(move |_key| {
            Box::new(VectorDetector::homogeneous(d, || {
                EwmaDetector::new(0.3, 6.0)
            }))
        })
        .devices(net.topology().gateways().iter().map(|g| g.0))
        .build()
        .unwrap();
    // Warm-up: σ-gates may fluke on jitter while settling, but a healthy
    // network never shows a network-level event.
    for _ in 0..30 {
        assert!(!monitor.observe(net.snapshot()).unwrap().has_network_event());
    }
    let dslam = net.topology().dslams()[2];
    let expected: Vec<DeviceKey> = net
        .topology()
        .downstream_gateways(dslam)
        .into_iter()
        .map(|g| DeviceKey(g.0 as u64))
        .collect();
    net.inject(FaultTarget::Node {
        node: dslam,
        severity: 0.5,
    });
    let report = monitor.observe(net.snapshot()).unwrap();
    let mut flagged: Vec<DeviceKey> = report.verdicts().iter().map(|v| v.key).collect();
    flagged.sort_unstable();
    let mut expected_sorted = expected;
    expected_sorted.sort_unstable();
    assert_eq!(flagged, expected_sorted, "A_k must equal the blast radius");
    for v in report.verdicts() {
        assert_eq!(v.class(), AnomalyClass::Massive, "{}", v.key);
    }
    assert!(report.operator_notifications().is_empty());
}

#[test]
fn simultaneous_dslam_faults_are_both_recognized() {
    let mut net = NetworkSimulation::new(NetworkConfig::small(13)).unwrap();
    let d0 = net.topology().dslams()[0];
    let d3 = net.topology().dslams()[3];
    let outcome = net.step(vec![
        FaultTarget::Node {
            node: d0,
            severity: 0.5,
        },
        FaultTarget::Node {
            node: d3,
            severity: 0.3,
        },
    ]);
    let reports = gateway_reports(&outcome, params());
    assert_eq!(reports.len(), 32);
    let ott = reports
        .iter()
        .filter(|r| r.action == ReportAction::NotifyOtt)
        .count();
    assert_eq!(ott, 32, "both faults are network-level events");
}

#[test]
fn core_fault_degrades_everyone_and_is_massive() {
    let mut net = NetworkSimulation::new(NetworkConfig::small(17)).unwrap();
    let core = net.topology().cores()[0];
    let outcome = net.step(vec![FaultTarget::Node {
        node: core,
        severity: 0.4,
    }]);
    assert_eq!(outcome.impacted[0].len(), net.population());
    let reports = gateway_reports(&outcome, params());
    assert!(reports.iter().all(|r| r.class == AnomalyClass::Massive));
}

#[test]
fn severity_below_radius_keeps_unimpacted_gateways_quiet() {
    // Gateways not downstream of the fault move only by measurement jitter,
    // which is far below the consistency radius.
    let mut net = NetworkSimulation::new(NetworkConfig::small(19)).unwrap();
    let dslam = net.topology().dslams()[1];
    let outcome = net.step(vec![FaultTarget::Node {
        node: dslam,
        severity: 0.6,
    }]);
    let impacted = outcome.abnormal();
    for id in outcome.pair.device_ids() {
        if !impacted.contains(id) {
            let motion = outcome
                .pair
                .before()
                .position(id)
                .iter()
                .zip(outcome.pair.after().position(id))
                .map(|(b, a)| (b - a).abs())
                .fold(0.0f64, f64::max);
            assert!(motion < 0.02, "quiet gateway {id} moved {motion}");
        }
    }
}

/// The operator decision end to end on a family of small topologies: a
/// DSLAM fault yields massive verdicts for exactly its subtree — no
/// gateway calls home — while a CPE fault yields exactly one isolated
/// call-home, whatever the tree shape.
#[test]
fn operator_decisions_hold_on_small_topologies() {
    for (shape, seed) in [
        ((1, 1, 1, 6), 31u64),
        ((1, 2, 2, 8), 33),
        ((2, 2, 1, 5), 37),
    ] {
        let mut config = NetworkConfig::small(seed);
        config.shape = shape;

        // Network-level fault: the whole subtree reports massive, upstream
        // (OTT) only — the ISP help desk stays quiet.
        let mut net = NetworkSimulation::new(config.clone()).unwrap();
        let dslam = net.topology().dslams()[0];
        let subtree = net.topology().downstream_gateways(dslam).len();
        assert!(subtree > 3, "shape {shape:?} must exceed tau");
        let outcome = net.step(vec![FaultTarget::Node {
            node: dslam,
            severity: 0.5,
        }]);
        let reports = gateway_reports(&outcome, params());
        assert_eq!(reports.len(), subtree, "shape {shape:?}");
        for r in &reports {
            assert_eq!(
                r.class,
                AnomalyClass::Massive,
                "shape {shape:?} {}",
                r.device
            );
            assert_eq!(r.action, ReportAction::NotifyOtt, "shape {shape:?}");
        }

        // CPE fault: exactly one isolated call-home, and it is the faulted
        // gateway itself.
        let mut net = NetworkSimulation::new(config).unwrap();
        let gateway = net.topology().gateways()[2];
        let outcome = net.step(vec![FaultTarget::Gateway {
            gateway,
            severity: 0.7,
        }]);
        let reports = gateway_reports(&outcome, params());
        assert_eq!(reports.len(), 1, "shape {shape:?}");
        assert_eq!(reports[0].class, AnomalyClass::Isolated, "shape {shape:?}");
        assert_eq!(
            reports[0].action,
            ReportAction::NotifyIsp,
            "shape {shape:?}"
        );
        assert_eq!(
            outcome.impacted[0].iter().collect::<Vec<_>>(),
            vec![reports[0].device],
            "shape {shape:?}: the caller is the faulted gateway"
        );
    }
}

#[test]
fn repeated_incidents_over_time_stay_classifiable() {
    let mut net = NetworkSimulation::new(NetworkConfig::small(23)).unwrap();
    for step in 0..4 {
        let dslam = net.topology().dslams()[step % 4];
        let outcome = net.step(vec![FaultTarget::Node {
            node: dslam,
            severity: 0.5,
        }]);
        let reports = gateway_reports(&outcome, params());
        assert_eq!(reports.len(), 16, "step {step}");
        assert!(
            reports.iter().all(|r| r.class == AnomalyClass::Massive),
            "step {step}"
        );
        net.repair_all();
    }
}
