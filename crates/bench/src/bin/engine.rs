//! Engine benchmark: characterization on a large generated fleet.
//!
//! Feeds a deterministic [`FleetSpec`] trace to the monitor and reports
//! wall-clock and verdict counts, writing the result to
//! `BENCH_engine.json` (override with `ENGINE_BENCH_OUT`).
//!
//! Knobs (environment variables):
//!
//! * `ENGINE_BENCH_DEVICES` — fleet size (default 100000)
//! * `ENGINE_BENCH_STEPS` — anomalous instants fed (default 8)
//! * `ENGINE_BENCH_REPS` — repetitions; the minimum wall-clock is
//!   reported (default 3)
//! * `ENGINE_BENCH_OUT` — output path (default `BENCH_engine.json`)

use anomaly_characterization::pipeline::MonitorBuilder;
use anomaly_detectors::{ThresholdDetector, VectorDetector};
use anomaly_simulator::fleet::{generate_fleet, FleetInstant, FleetSpec};
use std::time::Instant;

/// Timing and verdict counters of one run.
struct Outcome {
    total_millis: f64,
    characterization_millis: f64,
    verdicts: usize,
    isolated: usize,
    massive: usize,
    unresolved: usize,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn run(spec: &FleetSpec, trace: &[FleetInstant]) -> Outcome {
    let services = spec.services;
    // Delta detector between jitter and shift: calm devices never flag,
    // anomalous jumps always do.
    let delta = (spec.jitter + spec.shift) / 2.0;
    let mut monitor = MonitorBuilder::new()
        .services(services)
        .detector_factory(move |_| {
            Box::new(VectorDetector::homogeneous(services, || {
                ThresholdDetector::with_delta(delta)
            }))
        })
        .fleet(spec.devices)
        .build()
        .expect("bench monitor configuration is valid");

    let start = Instant::now();
    let mut characterization_millis = 0.0;
    let (mut verdicts, mut isolated, mut massive, mut unresolved) = (0, 0, 0, 0);
    for instant in trace {
        let report = monitor
            .observe(instant.snapshot.clone())
            .expect("trace snapshots match the fleet");
        characterization_millis += report.characterization_time().as_secs_f64() * 1e3;
        let s = report.summary();
        verdicts += s.abnormal;
        isolated += s.isolated;
        massive += s.massive;
        unresolved += s.unresolved;
    }
    Outcome {
        total_millis: start.elapsed().as_secs_f64() * 1e3,
        characterization_millis,
        verdicts,
        isolated,
        massive,
        unresolved,
    }
}

fn main() {
    let devices = env_usize("ENGINE_BENCH_DEVICES", 100_000);
    let steps = env_usize("ENGINE_BENCH_STEPS", 8);
    let out_path =
        std::env::var("ENGINE_BENCH_OUT").unwrap_or_else(|_| "BENCH_engine.json".to_string());

    let mut spec = FleetSpec::large(42);
    spec.devices = devices;
    // Scale the anomaly mix down with the fleet so smoke runs stay tiny.
    if devices < 100_000 {
        let scale = (devices as f64 / 100_000.0).max(0.01);
        spec.massive_clusters = ((spec.massive_clusters as f64 * scale) as usize).max(1);
        spec.isolated = ((spec.isolated as f64 * scale) as usize).max(1);
    }
    eprintln!(
        "generating fleet: {} devices, {} services, {} flagged/instant, {} steps",
        spec.devices,
        spec.services,
        spec.flagged_per_instant(),
        steps
    );
    let trace = generate_fleet(&spec, steps).expect("bench spec is valid");

    let reps = env_usize("ENGINE_BENCH_REPS", 3).max(1);
    // Min-of-reps: each run does identical deterministic work, so the
    // minimum is the least-noisy estimate of its cost.
    let best = (0..reps)
        .map(|_| run(&spec, &trace))
        .min_by(|a, b| a.total_millis.total_cmp(&b.total_millis))
        .expect("at least one repetition");
    eprintln!(
        "total {:.1} ms, characterization {:.1} ms, {} verdicts (min of {reps})",
        best.total_millis, best.characterization_millis, best.verdicts
    );

    let json = format!(
        concat!(
            "{{\"bench\":\"engine\",\"devices\":{},\"services\":{},",
            "\"flagged_per_instant\":{},\"steps\":{},\"seed\":{},",
            "\"configs\":[{{\"name\":\"sequential\",\"total_millis\":{:.3},",
            "\"characterization_millis\":{:.3},\"verdicts\":{},",
            "\"isolated\":{},\"massive\":{},\"unresolved\":{}}}]}}"
        ),
        spec.devices,
        spec.services,
        spec.flagged_per_instant(),
        steps,
        spec.seed,
        best.total_millis,
        best.characterization_millis,
        best.verdicts,
        best.isolated,
        best.massive,
        best.unresolved,
    );
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench output");
    eprintln!("wrote {out_path}");
}
