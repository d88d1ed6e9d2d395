//! Engine benchmark: characterization on a large generated fleet, and on
//! one pile-up.
//!
//! Two configs, each fed to a fresh monitor, with wall-clock and verdict
//! counts written to `BENCH_engine.json` (override with
//! `ENGINE_BENCH_OUT`):
//!
//! * `sequential` — a deterministic [`FleetSpec`] trace;
//! * `pile-up` — one co-located cluster of [`PILE_UP`] devices (a DSLAM
//!   outage) that jumps together after two calm instants: every device is a twin of
//!   every other, so the onset seal is one Algorithm 2 enumeration, one
//!   Algorithm 3 verdict and one vicinity walk.
//!
//! Knobs (environment variables):
//!
//! * `ENGINE_BENCH_DEVICES` — fleet size (default 100000)
//! * `ENGINE_BENCH_STEPS` — anomalous instants fed (default 8)
//! * `ENGINE_BENCH_REPS` — repetitions; the minimum wall-clock is
//!   reported (default 3)
//! * `ENGINE_BENCH_OUT` — output path (default `BENCH_engine.json`)

use anomaly_characterization::pipeline::{Monitor, MonitorBuilder, Report};
use anomaly_detectors::{ThresholdDetector, VectorDetector};
use anomaly_simulator::fleet::{generate_fleet, FleetInstant, FleetSpec};
use std::time::Instant;

/// Devices in the `pile-up` config's cluster.
const PILE_UP: usize = 512;

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

impl Outcome {
    /// Times `seal` over `instants` steps, summing each report's
    /// characterization time and verdict counts.
    fn measure(instants: usize, mut seal: impl FnMut(usize) -> Report) -> Outcome {
        let start = Instant::now();
        let mut characterization_millis = 0.0;
        let (mut verdicts, mut isolated, mut massive, mut unresolved) = (0, 0, 0, 0);
        for step in 0..instants {
            let report = seal(step);
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

    /// This outcome as one `configs` entry of the JSON output.
    fn json(&self, name: &str) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"total_millis\":{:.3},",
                "\"characterization_millis\":{:.3},\"verdicts\":{},",
                "\"isolated\":{},\"massive\":{},\"unresolved\":{}}}"
            ),
            name,
            self.total_millis,
            self.characterization_millis,
            self.verdicts,
            self.isolated,
            self.massive,
            self.unresolved,
        )
    }
}

/// The monitor every config runs: `services` dimensions, default radius
/// and τ, and a delta detector that flags a move larger than `delta`.
fn monitor(services: usize, devices: usize, delta: f64) -> Monitor {
    MonitorBuilder::new()
        .services(services)
        .detector_factory(move |_| {
            Box::new(VectorDetector::homogeneous(services, || {
                ThresholdDetector::with_delta(delta)
            }))
        })
        .fleet(devices)
        .build()
        .expect("bench monitor configuration is valid")
}

fn run(spec: &FleetSpec, trace: &[FleetInstant]) -> Outcome {
    // Delta detector between jitter and shift: calm devices never flag,
    // anomalous jumps always do.
    let mut monitor = monitor(
        spec.services,
        spec.devices,
        (spec.jitter + spec.shift) / 2.0,
    );
    Outcome::measure(trace.len(), |step| {
        monitor
            .observe(trace[step].snapshot.clone())
            .expect("trace snapshots match the fleet")
    })
}

/// One cluster of `devices` within a 0.004 square (well inside the
/// default window of 0.06) that sits still for two instants and then
/// moves 0.4 along the second service, all together.
fn run_pile_up(devices: usize) -> Outcome {
    let rows = |jumped: bool| -> Vec<Vec<f64>> {
        (0..devices)
            .map(|k| {
                let x = 0.30 + 0.001 * (k % 5) as f64;
                let y = 0.30 + 0.001 * (k / 5 % 5) as f64;
                vec![x, if jumped { y + 0.4 } else { y }]
            })
            .collect()
    };
    let mut monitor = monitor(2, devices, 0.2);
    Outcome::measure(3, |step| {
        monitor
            .observe_rows(rows(step == 2))
            .expect("pile-up rows match the fleet")
    })
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
    let best = |run: &dyn Fn() -> Outcome| {
        (0..reps)
            .map(|_| run())
            .min_by(|a, b| a.total_millis.total_cmp(&b.total_millis))
            .expect("at least one repetition")
    };
    let fleet = best(&|| run(&spec, &trace));
    let piled = best(&|| run_pile_up(PILE_UP));
    for (name, outcome) in [("sequential", &fleet), ("pile-up", &piled)] {
        eprintln!(
            "{name}: total {:.1} ms, characterization {:.1} ms, {} verdicts \
             ({} isolated, {} massive, {} unresolved; min of {reps})",
            outcome.total_millis,
            outcome.characterization_millis,
            outcome.verdicts,
            outcome.isolated,
            outcome.massive,
            outcome.unresolved,
        );
    }

    let json = format!(
        concat!(
            "{{\"bench\":\"engine\",\"devices\":{},\"services\":{},",
            "\"flagged_per_instant\":{},\"steps\":{},\"seed\":{},",
            "\"pile_up_devices\":{},\"configs\":[{},{}]}}"
        ),
        spec.devices,
        spec.services,
        spec.flagged_per_instant(),
        steps,
        spec.seed,
        PILE_UP,
        fleet.json("sequential"),
        piled.json("pile-up"),
    );
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench output");
    eprintln!("wrote {out_path}");
}
