//! Engine benchmark: sequential vs threaded characterization on a large
//! generated fleet.
//!
//! Feeds the same deterministic [`FleetSpec`] trace to both engines and
//! reports wall-clock per engine, writing the result to
//! `BENCH_engine.json` (override with `ENGINE_BENCH_OUT`). Both engines
//! must produce identical verdicts — the run aborts otherwise — so the
//! timings compare equal work.
//!
//! Knobs (environment variables):
//!
//! * `ENGINE_BENCH_DEVICES` — fleet size (default 100000)
//! * `ENGINE_BENCH_STEPS` — anomalous instants fed (default 8)
//! * `ENGINE_BENCH_WORKERS` — threaded worker count (default: cores)
//! * `ENGINE_BENCH_REPS` — repetitions per configuration; the minimum
//!   wall-clock is reported (default 3)
//! * `ENGINE_BENCH_OUT` — output path (default `BENCH_engine.json`)

use anomaly_characterization::pipeline::{Engine, MonitorBuilder};
use anomaly_detectors::{ThresholdDetector, VectorDetector};
use anomaly_simulator::fleet::{generate_fleet, FleetInstant, FleetSpec};
use std::time::Instant;

/// One monitor configuration under test.
struct Config {
    name: &'static str,
    engine: Engine,
}

/// Timing and verdict counters of one configuration's run.
struct Outcome {
    name: &'static str,
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

fn run(spec: &FleetSpec, trace: &[FleetInstant], config: &Config) -> Outcome {
    let services = spec.services;
    // Delta detector between jitter and shift: calm devices never flag,
    // anomalous jumps always do.
    let delta = (spec.jitter + spec.shift) / 2.0;
    let mut monitor = MonitorBuilder::new()
        .services(services)
        .engine(config.engine)
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
        name: config.name,
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
    let workers = env_usize(
        "ENGINE_BENCH_WORKERS",
        std::thread::available_parallelism().map_or(4, |n| n.get()),
    );
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

    let configs = [
        Config {
            name: "sequential",
            engine: Engine::Sequential,
        },
        Config {
            name: "threaded",
            engine: Engine::Threaded { workers },
        },
    ];

    let reps = env_usize("ENGINE_BENCH_REPS", 3).max(1);
    let outcomes: Vec<Outcome> = configs
        .iter()
        .map(|c| {
            // Min-of-reps: each run does identical deterministic work, so
            // the minimum is the least-noisy estimate of its cost.
            let o = (0..reps)
                .map(|_| run(&spec, &trace, c))
                .min_by(|a, b| a.total_millis.total_cmp(&b.total_millis))
                .expect("at least one repetition");
            eprintln!(
                "{:>24}: total {:>9.1} ms, characterization {:>9.1} ms, {} verdicts (min of {reps})",
                o.name, o.total_millis, o.characterization_millis, o.verdicts
            );
            o
        })
        .collect();

    // Equal work or the comparison is meaningless.
    let reference = &outcomes[0];
    for o in &outcomes[1..] {
        assert_eq!(
            (o.verdicts, o.isolated, o.massive, o.unresolved),
            (
                reference.verdicts,
                reference.isolated,
                reference.massive,
                reference.unresolved
            ),
            "engine configurations disagree on verdicts ({} vs {})",
            o.name,
            reference.name,
        );
    }

    let baseline = outcomes[0].total_millis;
    let threaded = outcomes
        .last()
        .expect("both configurations ran")
        .total_millis;
    let speedup = baseline / threaded.max(1e-9);
    eprintln!("threaded speedup over sequential: {speedup:.2}x");

    let configs_json: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"total_millis\":{:.3},",
                    "\"characterization_millis\":{:.3},\"verdicts\":{},",
                    "\"isolated\":{},\"massive\":{},\"unresolved\":{}}}"
                ),
                o.name,
                o.total_millis,
                o.characterization_millis,
                o.verdicts,
                o.isolated,
                o.massive,
                o.unresolved,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\"bench\":\"engine\",\"devices\":{},\"services\":{},",
            "\"flagged_per_instant\":{},\"steps\":{},\"workers\":{},",
            "\"seed\":{},\"configs\":[{}],",
            "\"speedup_threaded_vs_sequential\":{:.3}}}"
        ),
        spec.devices,
        spec.services,
        spec.flagged_per_instant(),
        steps,
        workers,
        spec.seed,
        configs_json.join(","),
        speedup,
    );
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench output");
    eprintln!("wrote {out_path}");
}
