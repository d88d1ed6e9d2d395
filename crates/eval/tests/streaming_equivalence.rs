//! The acceptance bar of the streaming ingestion API: for **every**
//! workload in the zoo, replaying the scenario through `ingest` + `seal`
//! with a seed-fixed shuffled arrival order produces evaluation metrics
//! byte-identical to the batch `observe()` path — per-instant breakdowns
//! included.

use anomaly_core::Params;
use anomaly_eval::{
    evaluate_monitor_on, evaluate_monitor_streaming_on, AdversaryScenario, ChurnScenario,
    FleetScenario, NetworkFaultScenario, RecordedScenario, Scenario, SimScenario,
    StreamingScenario,
};
use anomaly_simulator::trace::Trace;
use anomaly_simulator::{FleetSpec, ScenarioConfig};

fn small_fleet(name: &str, seed: u64) -> FleetScenario {
    FleetScenario {
        name: name.into(),
        fleet: FleetSpec {
            devices: 300,
            services: 2,
            massive_clusters: 2,
            cluster_size: 5,
            isolated: 3,
            cohesion: 0.05,
            calm_activity: 0.4,
            jitter: 0.02,
            shift: 0.3,
            seed,
        },
        steps: 3,
        params: Params::new(0.03, 3).unwrap(),
    }
}

fn scenario_zoo() -> Vec<Box<dyn Scenario>> {
    let mut sim_config = ScenarioConfig::paper_defaults(31);
    sim_config.n = 150;
    sim_config.errors_per_step = 4;
    let sim = SimScenario {
        name: "stream-sim".into(),
        config: sim_config.clone(),
        steps: 3,
        detector_delta: 0.02,
    };
    let recorded = {
        let run = sim.generate().unwrap();
        let mut trace = Trace::new(sim.config.n, sim.config.dim, sim.config.params);
        trace.steps = run.steps;
        RecordedScenario::from_text("stream-recorded", &trace.to_text(), 0.02).unwrap()
    };
    let mut adversary_config = ScenarioConfig::paper_defaults(33);
    adversary_config.n = 150;
    adversary_config.errors_per_step = 4;
    adversary_config.isolated_prob = 0.8;
    vec![
        Box::new(sim),
        Box::new(NetworkFaultScenario::small_mixed("stream-network", 32, 3)),
        Box::new(AdversaryScenario {
            name: "stream-adversary".into(),
            config: adversary_config,
            coalition: 3,
            steps: 3,
            detector_delta: 0.02,
            shadow_seed: 5,
        }),
        Box::new(small_fleet("stream-fleet", 41)),
        Box::new(ChurnScenario {
            fleet: small_fleet("stream-churn", 43),
            churn_devices: 20,
            churn_every: 1,
        }),
        Box::new(recorded),
    ]
}

#[test]
fn every_scenario_streams_byte_identically_to_the_batch_path() {
    for scenario in scenario_zoo() {
        let spec = scenario.spec();
        let run = scenario.generate().unwrap();
        let batch = evaluate_monitor_on(&spec, &run).unwrap();
        assert!(
            batch.confusion.total() > 0,
            "{}: scenario must score something",
            spec.name
        );
        // Two different shuffle seeds: arrival order must never show.
        for seed in [7u64, 12345] {
            let streamed = evaluate_monitor_streaming_on(&spec, &run, seed, 0.0, 1).unwrap();
            assert_eq!(
                batch.metrics_json(),
                streamed.metrics_json(),
                "{}: streaming replay (seed {seed}) diverged",
                spec.name
            );
        }
    }
}

#[test]
fn the_streaming_adapter_delegates_spec_and_generation() {
    let inner = small_fleet("stream-wrap", 47);
    let wrapped = StreamingScenario::shuffled(inner.clone(), 9);
    assert_eq!(wrapped.spec(), inner.spec());
    assert_eq!(
        wrapped.generate().unwrap().steps.len(),
        inner.generate().unwrap().steps.len()
    );
    assert_eq!(wrapped.drop_probability, 0.0);
}
