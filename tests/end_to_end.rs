//! End-to-end integration: simulator → trajectory table → characterization,
//! checked for internal consistency and against the omniscient observer.

use anomaly_characterization::core::observer::brute_force_classes;
use anomaly_characterization::core::{Analyzer, AnomalyClass, Params, Rule, TrajectoryTable};
use anomaly_characterization::detectors::ThresholdDetector;
use anomaly_characterization::pipeline::MonitorBuilder;
use anomaly_characterization::qos::DeviceId;
use anomaly_characterization::simulator::{runner::analyze_step, ScenarioConfig, Simulation};

fn small_scenario(seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::paper_defaults(seed);
    c.n = 400;
    c.errors_per_step = 6;
    c
}

#[test]
fn every_flagged_device_gets_exactly_one_verdict() {
    for seed in 0..5 {
        let mut sim = Simulation::new(small_scenario(seed)).unwrap();
        let outcome = sim.step();
        let report = analyze_step(&outcome, true);
        assert_eq!(
            report.isolated + report.massive_thm6 + report.massive_thm7 + report.unresolved,
            report.abnormal,
            "seed {seed}"
        );
    }
}

#[test]
fn quick_and_full_only_differ_on_unresolved_devices() {
    for seed in 10..15 {
        let mut sim = Simulation::new(small_scenario(seed)).unwrap();
        let outcome = sim.step();
        let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
        let table = TrajectoryTable::from_state_pair(&outcome.pair, &abnormal);
        let analyzer = Analyzer::new(&table, outcome.config.params);
        for &j in table.ids() {
            let quick = analyzer.characterize(j);
            let full = analyzer.characterize_full(j);
            if quick.rule() != Rule::Algorithm3 {
                assert_eq!(quick.class(), full.class(), "seed {seed} device {j}");
            } else {
                // The fast path said "unresolved"; the NSC may upgrade it to
                // massive but never to isolated (Theorem 5 already ruled).
                assert_ne!(
                    full.class(),
                    AnomalyClass::Isolated,
                    "seed {seed} device {j}"
                );
            }
        }
    }
}

/// The paper's central accuracy claim on *simulated* data: local verdicts
/// equal the omniscient observer's on every configuration small enough to
/// enumerate exhaustively.
#[test]
fn local_equals_observer_on_simulated_steps() {
    let mut checked = 0usize;
    for seed in 20..40 {
        let mut config = small_scenario(seed);
        config.n = 150;
        config.errors_per_step = 2;
        let mut sim = Simulation::new(config).unwrap();
        let outcome = sim.step();
        let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
        if abnormal.len() > 11 {
            continue; // exhaustive enumeration would blow up
        }
        let table = TrajectoryTable::from_state_pair(&outcome.pair, &abnormal);
        let params = outcome.config.params;
        let truth = brute_force_classes(&table, &params, 5_000_000);
        let analyzer = Analyzer::new(&table, params);
        for &j in table.ids() {
            assert_eq!(
                Some(analyzer.characterize_full(j).class()),
                truth.class_of(j),
                "seed {seed} device {j}"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 20,
        "the test must actually exercise configurations"
    );
}

#[test]
fn massive_truth_mostly_classified_massive_when_r3_enforced() {
    // With R3 enforced and mostly-massive errors, devices of truly-massive
    // events are classified massive or unresolved — never isolated.
    let mut config = small_scenario(77);
    config.isolated_prob = 0.0;
    config.n = 1000;
    config.errors_per_step = 10;
    let mut sim = Simulation::new(config).unwrap();
    let outcome = sim.step();
    let tau = outcome.config.params.tau();
    let truly_massive = outcome.truth.massive_devices(tau);
    let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
    let table = TrajectoryTable::from_state_pair(&outcome.pair, &abnormal);
    let analyzer = Analyzer::new(&table, outcome.config.params);
    for j in &truly_massive {
        let class = analyzer.characterize_full(j).class();
        assert_ne!(
            class,
            AnomalyClass::Isolated,
            "device {j} of a massive event cannot be certainly-isolated"
        );
    }
}

#[test]
fn isolated_truth_never_certainly_massive_when_r3_enforced() {
    // Under R3 enforcement the generator keeps isolated events away from
    // dense motions, so no isolated-truth device should be *certainly*
    // massive.
    for seed in 50..54 {
        let mut config = small_scenario(seed);
        config.isolated_prob = 1.0;
        let mut sim = Simulation::new(config).unwrap();
        let outcome = sim.step();
        let report = analyze_step(&outcome, true);
        assert_eq!(
            report.missed_isolated_as_massive, 0,
            "seed {seed}: R3-enforced isolated errors must not look massive"
        );
    }
}

/// The served Monitor surface and the bare engine agree verdict-for-verdict
/// on simulated data: a monitor fed the simulator's two snapshots flags via
/// delta thresholds and characterizes exactly like a hand-built Analyzer
/// over the same flagged set.
#[test]
fn monitor_surface_matches_direct_analyzer_on_simulated_steps() {
    for seed in 0..4 {
        let mut sim = Simulation::new(small_scenario(seed)).unwrap();
        let outcome = sim.step();
        let n = outcome.pair.len();
        let dim = outcome.pair.dim();
        let params = outcome.config.params;
        // Delta thresholds flag exactly the devices that moved > 0.05 in
        // some service — a deterministic, history-free a_k(j).
        let mut monitor = MonitorBuilder::new()
            .params(params)
            .services(dim)
            .detector_factory(move |_key| {
                Box::new(
                    anomaly_characterization::detectors::VectorDetector::homogeneous(dim, || {
                        ThresholdDetector::with_delta(0.05)
                    }),
                )
            })
            .fleet(n)
            .build()
            .unwrap();
        let warm = monitor.observe(outcome.pair.before().clone()).unwrap();
        assert!(warm.verdicts().is_empty(), "first snapshot cannot report");
        let report = monitor.observe(outcome.pair.after().clone()).unwrap();

        let flagged: Vec<DeviceId> = report.verdicts().iter().map(|v| v.id).collect();
        let table = TrajectoryTable::from_state_pair(&outcome.pair, &flagged);
        let analyzer = Analyzer::new(&table, params);
        for v in report.verdicts() {
            assert_eq!(
                v.class(),
                analyzer.characterize_full(v.id).class(),
                "seed {seed} device {}",
                v.id
            );
        }
    }
}

#[test]
fn multi_step_runs_stay_consistent() {
    let mut sim = Simulation::new(small_scenario(99)).unwrap();
    for step in 0..10 {
        let outcome = sim.step();
        // Population and dimension never drift.
        assert_eq!(outcome.pair.len(), 400);
        assert_eq!(outcome.pair.dim(), 2);
        // All positions remain valid QoS values.
        for (_, p) in outcome.pair.after().iter() {
            assert!(p.iter().all(|c| (0.0..=1.0).contains(c)), "step {step}");
        }
        let report = analyze_step(&outcome, false);
        assert_eq!(report.abnormal, outcome.abnormal().len());
    }
}

#[test]
fn params_flow_through_the_pipeline() {
    // A larger tau reclassifies borderline groups as isolated.
    let mut config = small_scenario(123);
    config.n = 2000;
    config.isolated_prob = 0.0;
    let mut sim = Simulation::new(config).unwrap();
    let outcome = sim.step();
    let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
    let table = TrajectoryTable::from_state_pair(&outcome.pair, &abnormal);

    let strict = Analyzer::new(&table, Params::new(0.03, 3).unwrap());
    let lax = Analyzer::new(&table, Params::new(0.03, 30).unwrap());
    let massive_strict = strict
        .classify_all_full()
        .iter()
        .filter(|(_, c)| c.class() == AnomalyClass::Massive)
        .count();
    let massive_lax = lax
        .classify_all_full()
        .iter()
        .filter(|(_, c)| c.class() == AnomalyClass::Massive)
        .count();
    assert!(
        massive_lax <= massive_strict,
        "raising tau cannot create massive verdicts ({massive_lax} > {massive_strict})"
    );
}
