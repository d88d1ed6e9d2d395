//! Scenario evaluation: score the paper's pipeline and both centralized
//! baselines on the same workloads, end to end.
//!
//! Run with `cargo run --example evaluation`.

use anomaly_baselines::{KMeansClassifier, TessellationClassifier};
use anomaly_eval::{
    evaluate_classifier, evaluate_monitor, NetworkFaultScenario, Scenario, ScenarioScore,
    SimScenario,
};
use anomaly_simulator::score::TruthClass;

fn print_score(score: &ScenarioScore) {
    println!(
        "  {:<28} accuracy {:>5.1}%  F1(isolated) {:.3}  F1(massive) {:.3}  macro F1 {:.3}",
        score.method,
        100.0 * score.confusion.accuracy(),
        score.confusion.f1(TruthClass::Isolated),
        score.confusion.f1(TruthClass::Massive),
        score.macro_f1(),
    );
}

fn evaluate(scenario: &dyn Scenario) -> Result<(), Box<dyn std::error::Error>> {
    let spec = scenario.spec();
    println!(
        "{} — {} devices, {} services, r = {}, tau = {}",
        spec.name,
        spec.population,
        spec.services,
        spec.params.radius(),
        spec.params.tau()
    );
    let paper = evaluate_monitor(scenario)?;
    let kmeans = KMeansClassifier::new(8, spec.params.tau(), 1);
    let tess = TessellationClassifier::new(16, spec.params.tau());
    let km_score = evaluate_classifier(scenario, &kmeans)?;
    let tess_score = evaluate_classifier(scenario, &tess)?;
    print_score(&paper);
    print_score(&km_score);
    print_score(&tess_score);
    println!(
        "  per-instant (paper): {}",
        paper
            .instants
            .iter()
            .map(|i| format!("k{}:{}/{}", i.step, i.correct, i.abnormal))
            .collect::<Vec<_>>()
            .join(" ")
    );
    assert!(
        paper.macro_f1() + 1e-9 >= tess_score.macro_f1().min(km_score.macro_f1()),
        "the local method should not lose to the weaker baseline"
    );
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An ISP access tree with one DSLAM outage and one CPE fault per step:
    // the paper's motivating deployment.
    evaluate(&NetworkFaultScenario::small_mixed("network-mixed", 42, 4))?;

    // The Section VII-A Monte-Carlo protocol at the paper's operating
    // point.
    evaluate(&SimScenario::paper("sim-paper", 42, 4))?;

    Ok(())
}
