//! Smoke-sized runs of every workload: the metrics named in
//! `BENCHMARK.json` come out with their units, and runs repeat their
//! behaviour exactly.

use anomaly_perfbench::{run, Options, Outcome, Size, Workload};

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    })
}

/// `(name, unit)` of every metric listed under `section` in
/// `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section is listed");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_emits(outcome: &Outcome, section: &str) {
    assert!(outcome.correct, "checks failed: {:?}", outcome.problems);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    let got: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(got, listed(section));
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, 7, false);
        assert_emits(&outcome, "end_to_end");
        for m in &outcome.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_a_trace() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, 7, true);
        assert_emits(&outcome, "per_layer");
        let json = outcome.trace_json.expect("a traced run renders its spans");
        assert!(json.contains("\"name\":\"seal\""));
        assert!(json.contains("\"kind\":\"restore\""));
        assert!(outcome.spans["seal"].count > 0);
    }
}

#[test]
fn two_runs_give_the_same_digest() {
    for workload in Workload::ALL {
        let a = smoke(workload, 3, false);
        let b = smoke(workload, 3, false);
        assert_eq!(a.digest, b.digest, "{}", workload.name());
        let c = smoke(workload, 4, false);
        assert_ne!(
            a.digest,
            c.digest,
            "{}: the seed shapes the inputs",
            workload.name()
        );
    }
}
