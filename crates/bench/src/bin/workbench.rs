//! Scenario workbench: the full accuracy matrix — every workload scenario
//! × the paper's pipeline and every baseline — scored against ground truth
//! and written to `BENCH_eval.json`.
//!
//! For each scenario the paper's pipeline and the k-means and
//! tessellation baselines are scored on the *same* generated steps. On scenarios whose name starts
//! with `network`, the paper engine's macro F1 must meet or beat both
//! baselines; the run aborts otherwise.
//!
//! Knobs (environment variables):
//!
//! * `EVAL_BENCH_OUT` — output path (default `BENCH_eval.json`)
//! * `EVAL_BENCH_BASELINE` — path to a previously committed
//!   `BENCH_eval.json`; when set, every (scenario, method) cell present in
//!   both runs must not regress in macro F1, event-level F1, or alert
//!   page F1 (tolerance 1e-6) or the run aborts. When unset the gate is skipped for local
//!   exploratory runs — unless `CI` is set, in which case the run fails
//!   loudly instead of letting the gate go silently vacuous
//! * `EVAL_BENCH_FLEET_DEVICES` — fleet-scenario population (default
//!   20000; the scenario name embeds the value, so reduced runs are never
//!   compared against full ones)

use anomaly_baselines::{Classifier, KMeansClassifier, TessellationClassifier};
use anomaly_core::Params;
use anomaly_eval::{
    evaluate_classifier_on, evaluate_monitor_alerts_on, evaluate_monitor_on,
    evaluate_monitor_streaming_on, AdversaryScenario, ChurnScenario, FleetScenario,
    NetworkFaultScenario, PersistentAnomalyScenario, RecordedScenario, Scenario, ScenarioScore,
    SimScenario,
};
use anomaly_simulator::trace::Trace;
use anomaly_simulator::{DestinationModel, FleetSpec, ScenarioConfig};

/// One row of the matrix: a scenario plus the baseline knobs that give the
/// baselines their best shot (k close to the true event count).
struct Entry {
    scenario: Box<dyn Scenario>,
    kmeans_k: usize,
    tess_cells: usize,
    /// ISP-tree shape for alert-quality scoring; `Some` only on the
    /// network scenarios, whose dense device ids are gateway indices.
    alert_shape: Option<(usize, usize, usize, usize)>,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn scenarios() -> Vec<Entry> {
    let mut entries: Vec<Entry> = Vec::new();

    // The paper's Section VII-A operating point: mostly-massive errors.
    entries.push(Entry {
        scenario: Box::new(SimScenario::paper("sim-paper", 42, 6)),
        kmeans_k: 20,
        tess_cells: 16,
        alert_shape: None,
    });

    // Isolated-heavy variant: the regime where false massives hurt most.
    let mut isolated_heavy = ScenarioConfig::paper_defaults(43);
    isolated_heavy.isolated_prob = 0.6;
    entries.push(Entry {
        scenario: Box::new(SimScenario {
            name: "sim-isolated-heavy".into(),
            config: isolated_heavy,
            steps: 6,
            detector_delta: 0.02,
        }),
        kmeans_k: 20,
        tess_cells: 16,
        alert_shape: None,
    });

    // ISP tree, network-level outages only.
    let mut dslam_only = NetworkFaultScenario::small_mixed("network-dslam-outages", 7, 6);
    dslam_only.dslam_faults_per_step = 2;
    dslam_only.cpe_faults_per_step = 0;
    let dslam_shape = dslam_only.config.shape;
    entries.push(Entry {
        scenario: Box::new(dslam_only),
        kmeans_k: 2,
        tess_cells: 16,
        alert_shape: Some(dslam_shape),
    });

    // ISP tree, mixed network and CPE faults.
    let mut mixed = NetworkFaultScenario::small_mixed("network-mixed-faults", 8, 6);
    mixed.cpe_faults_per_step = 2;
    let mixed_shape = mixed.config.shape;
    entries.push(Entry {
        scenario: Box::new(mixed),
        kmeans_k: 3,
        tess_cells: 16,
        alert_shape: Some(mixed_shape),
    });

    // Collusion: a τ-strong coalition shadows isolated victims.
    let mut adversary_config = ScenarioConfig::paper_defaults(5);
    adversary_config.n = 400;
    adversary_config.errors_per_step = 6;
    adversary_config.isolated_prob = 0.9;
    adversary_config.destination = DestinationModel::Uniform;
    let coalition = adversary_config.params.tau();
    entries.push(Entry {
        scenario: Box::new(AdversaryScenario {
            name: "adversary-collusion".into(),
            config: adversary_config,
            coalition,
            steps: 6,
            detector_delta: 0.02,
            shadow_seed: 11,
        }),
        kmeans_k: 7,
        tess_cells: 16,
        alert_shape: None,
    });

    // Large fleet: cluster/loner mix over a calm jittering population.
    let devices = env_usize("EVAL_BENCH_FLEET_DEVICES", 20_000);
    let fleet = FleetSpec {
        devices,
        services: 2,
        massive_clusters: (devices / 2000).max(1),
        cluster_size: 10,
        isolated: (devices / 400).max(1),
        cohesion: 0.05,
        calm_activity: 0.1,
        jitter: 0.02,
        shift: 0.3,
        seed: 17,
    };
    let fleet_events = fleet.massive_clusters + fleet.isolated;
    entries.push(Entry {
        scenario: Box::new(FleetScenario {
            name: format!("fleet-{devices}"),
            fleet,
            steps: 3,
            params: Params::new(0.03, 3).expect("valid fleet operating point"),
        }),
        kmeans_k: fleet_events,
        tess_cells: 16,
        alert_shape: None,
    });

    // Membership churn over a mid-size fleet.
    let churn_fleet = FleetSpec {
        devices: 2000,
        services: 2,
        massive_clusters: 3,
        cluster_size: 8,
        isolated: 10,
        cohesion: 0.05,
        calm_activity: 0.3,
        jitter: 0.02,
        shift: 0.3,
        seed: 19,
    };
    entries.push(Entry {
        scenario: Box::new(ChurnScenario {
            fleet: FleetScenario {
                name: "churn-fleet".into(),
                fleet: churn_fleet,
                steps: 6,
                params: Params::new(0.03, 3).expect("valid fleet operating point"),
            },
            churn_devices: 100,
            churn_every: 2,
        }),
        kmeans_k: 13,
        tess_cells: 16,
        alert_shape: None,
    });

    // Long-lived anomalies + flapping devices: the event-tracker workload.
    // A multi-step cluster outage and recurring isolated faults must
    // surface as correlated events, not per-instant verdict confetti.
    entries.push(Entry {
        scenario: Box::new(PersistentAnomalyScenario::standard(
            "persistent-anomaly",
            61,
        )),
        kmeans_k: 12,
        tess_cells: 16,
        alert_shape: None,
    });

    // Recorded trace: a Section VII-A scenario through the text format.
    let recorded_source = SimScenario::paper("recorded-source", 42, 2);
    let run = recorded_source
        .generate()
        .expect("the paper operating point generates");
    let mut trace = Trace::new(
        recorded_source.config.n,
        recorded_source.config.dim,
        recorded_source.config.params,
    );
    trace.steps = run.steps;
    let text = trace.to_text();
    entries.push(Entry {
        scenario: Box::new(
            RecordedScenario::from_text("recorded-replay", &text, 0.02)
                .expect("a freshly serialized trace parses"),
        ),
        kmeans_k: 20,
        tess_cells: 16,
        alert_shape: None,
    });

    entries
}

/// Extracts `(scenario, method) -> metric` triplets for one numeric JSON
/// key from a workbench JSON file (the exact format this binary writes).
/// Keys absent from a cell (e.g. `event_f1` in a pre-event baseline file)
/// are simply skipped, so the gate stays backward compatible.
fn parse_metric(text: &str, key: &str) -> Vec<(String, String, f64)> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    for chunk in text.split("{\"scenario\":\"").skip(1) {
        let Some(scenario) = chunk.split('"').next() else {
            continue;
        };
        let Some(method) = chunk
            .split("\"method\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
        else {
            continue;
        };
        let Some(value) = chunk
            .split(needle.as_str())
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|num| num.parse::<f64>().ok())
        else {
            continue;
        };
        out.push((scenario.to_string(), method.to_string(), value));
    }
    out
}

fn main() {
    let out_path =
        std::env::var("EVAL_BENCH_OUT").unwrap_or_else(|_| "BENCH_eval.json".to_string());

    let mut scores: Vec<ScenarioScore> = Vec::new();
    for entry in scenarios() {
        let scenario = entry.scenario.as_ref();
        let spec = scenario.spec();
        let tau = spec.params.tau();
        // One generation per scenario: all three methods score the same run.
        let run = scenario.generate().expect("the scenario generates");

        // Network scenarios additionally score the serve crate's alert
        // pipeline (page precision/recall against the truth spans).
        let paper = match entry.alert_shape {
            Some(shape) => evaluate_monitor_alerts_on(&spec, &run, shape),
            None => evaluate_monitor_on(&spec, &run),
        }
        .expect("the paper's pipeline evaluates");
        if let Some(quality) = &paper.alerts {
            eprintln!(
                "{:>22}: alerts {} / truth {} (page F1 {:.3}, {} recurrences, {} signatures)",
                spec.name,
                quality.alerts,
                quality.truth_events,
                quality.page_f1(),
                quality.recurrences,
                quality.distinct_signatures,
            );
            assert!(
                quality.page_f1() > 0.0,
                "{}: the alert pipeline paged nothing real: {quality:?}",
                spec.name
            );
        }

        let kmeans = KMeansClassifier::new(entry.kmeans_k, tau, 1);
        let tess = TessellationClassifier::new(entry.tess_cells, tau);
        let km_score = evaluate_classifier_on(&spec, &run, &kmeans);
        let tess_score = evaluate_classifier_on(&spec, &run, &tess);

        eprintln!(
            concat!(
                "{:>22}: paper F1 {:.3} (event F1 {:.3}, latency {:.2}) | ",
                "{} F1 {:.3} | {} F1 {:.3} ({} truth devices, {} events, {} spurious)"
            ),
            spec.name,
            paper.macro_f1(),
            paper.events.f1(),
            paper.events.mean_latency(),
            kmeans.name(),
            km_score.macro_f1(),
            tess.name(),
            tess_score.macro_f1(),
            paper.confusion.total(),
            paper.events.truth_events,
            paper.confusion.spurious_total(),
        );

        // The acceptance gate: on network-fault scenarios the paper's
        // pipeline must meet or beat both centralized baselines.
        if spec.name.starts_with("network") {
            for baseline in [&km_score, &tess_score] {
                assert!(
                    paper.macro_f1() + 1e-9 >= baseline.macro_f1(),
                    "{}: paper F1 {:.4} lost to {} F1 {:.4}",
                    spec.name,
                    paper.macro_f1(),
                    baseline.method,
                    baseline.macro_f1()
                );
            }
        }

        // The event-tracker gate: on the long-lived-anomaly workload the
        // multi-step cluster outage and every flapper recurrence must be
        // found as correlated events — perfectly, with no invented events
        // and no detection lag.
        if spec.name.starts_with("persistent") {
            assert_eq!(
                (paper.events.recall(), paper.events.precision()),
                (1.0, 1.0),
                "{}: event tracking degraded: {:?}",
                spec.name,
                paper.events
            );
            assert_eq!(
                paper.events.mean_latency(),
                0.0,
                "{}: detection latency appeared: {:?}",
                spec.name,
                paper.events
            );
        }

        scores.extend([paper, km_score, tess_score]);
    }

    // Streaming-replay gate: one scenario driven through the ingest/seal
    // front-end with a seed-fixed shuffled arrival order must score
    // byte-identically to the batch path.
    {
        let mut streamed_scenario = NetworkFaultScenario::small_mixed("network-mixed-faults", 8, 6);
        streamed_scenario.cpe_faults_per_step = 2;
        let spec = streamed_scenario.spec();
        let run = streamed_scenario
            .generate()
            .expect("the scenario generates");
        let batch = evaluate_monitor_on(&spec, &run).expect("batch evaluation succeeds");
        let streamed = evaluate_monitor_streaming_on(&spec, &run, 4242, 0.0, 1)
            .expect("streaming evaluation succeeds");
        assert_eq!(
            batch.metrics_json(),
            streamed.metrics_json(),
            "streaming replay diverged from the batch path on {}",
            spec.name
        );
        eprintln!(
            "streaming gate: {} replayed through ingest/seal, scores byte-identical (F1 {:.3})",
            spec.name,
            streamed.macro_f1()
        );
    }

    let entries_json: Vec<String> = scores.iter().map(ScenarioScore::to_json).collect();
    let json = format!(
        "{{\"bench\":\"eval\",\"entries\":[\n{}\n]}}\n",
        entries_json.join(",\n")
    );

    // Accuracy-regression gate against a committed run, on both the
    // device-level macro F1 and the event-level F1. In CI the gate is
    // mandatory: a missing EVAL_BENCH_BASELINE must fail the job loudly
    // instead of silently skipping the comparison.
    match std::env::var("EVAL_BENCH_BASELINE") {
        Ok(baseline_path) => {
            let committed =
                std::fs::read_to_string(&baseline_path).expect("read the committed baseline file");
            for key in ["macro_f1", "event_f1", "page_f1"] {
                let old = parse_metric(&committed, key);
                let new = parse_metric(&json, key);
                if key == "macro_f1" {
                    assert!(!old.is_empty(), "no entries parsed from {baseline_path}");
                } else if old.is_empty() {
                    // A pre-event baseline file: nothing to compare yet.
                    eprintln!("regression gate: {baseline_path} has no {key} cells, skipping");
                    continue;
                }
                let mut compared = 0usize;
                for (scenario, method, old_value) in &old {
                    let Some((_, _, new_value)) =
                        new.iter().find(|(s, m, _)| s == scenario && m == method)
                    else {
                        continue; // reduced runs skip cells (e.g. a smaller fleet)
                    };
                    compared += 1;
                    assert!(
                        *new_value + 1e-6 >= *old_value,
                        "{key} regression on ({scenario}, {method}): \
                         {new_value:.6} < {old_value:.6}"
                    );
                }
                // The gate must not go vacuous: only deliberately re-shaped
                // cells (a resized fleet, a retired method) may be
                // skipped. If fewer than half the committed cells matched,
                // something drifted — a scenario rename or a serialization
                // change — and the "none worse" claim would be hollow.
                assert!(
                    compared * 2 >= old.len(),
                    "regression gate went vacuous: only {compared}/{} committed {key} cells \
                     matched",
                    old.len()
                );
                eprintln!(
                    "regression gate: {compared} {key} cells compared against {baseline_path}, \
                     none worse"
                );
            }
        }
        Err(_) if std::env::var("CI").is_ok() => {
            panic!(
                "EVAL_BENCH_BASELINE is not set but CI is: the accuracy-regression gate would \
                 silently skip. Point it at the committed BENCH_eval.json (or unset CI for a \
                 local exploratory run)."
            );
        }
        Err(_) => {
            eprintln!("regression gate: EVAL_BENCH_BASELINE not set, skipping (local run)");
        }
    }

    std::fs::write(&out_path, json).expect("write workbench output");
    eprintln!("wrote {out_path}");
}
