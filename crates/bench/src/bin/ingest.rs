//! Ingest benchmark: seal latency of the streaming front-end.
//!
//! Workload: a persistent anomalous cluster jumps once during warm-up and
//! then goes silent — bridged rows freeze detector state and verdict (see
//! the `StalenessPolicy` docs), so every later epoch characterizes the
//! same abnormal set. Each measured epoch ingests updates for a rotating
//! window of `changed` calm devices far from the cluster and seals. The
//! run asserts the structural guarantees behind the O(changed +
//! dirty-neighbourhood) seal claim: steady-state epochs maintain the
//! vicinity grid incrementally (no rebuild) and keep the frozen cluster
//! flagged without re-feeding it.
//!
//! The first characterized epoch — grid build plus the first full
//! characterization — is cold by construction and is reported separately
//! as `warmup_seal_micros`, so it cannot pollute the steady-state
//! statistics (`seal_micros_min`/`median`/`max` cover steady epochs only).
//! A fleet-size sweep at fixed churn records how flat the steady-state
//! seal stays as the population grows; `sweep_flat_ratio` is the largest
//! sweep median over the smallest. Each sweep point runs
//! `INGEST_BENCH_REPS` independent repetitions and reports the **minimum
//! of the per-repetition medians** — the noise-robust lower envelope — so
//! one slow repetition (scheduler jitter, a page-cache miss) cannot make
//! the sweep look non-monotone.
//!
//! After its steady epochs every run seals one more epoch in which a single
//! calm device jumps 0.16 (about 2.56 cells of 0.0625) along the first
//! axis, across a cell column full of calm devices: the lone fault of the
//! paper's "call the help desk" page. Each sweep point reports the fastest
//! such seal of its repetitions as `lone_jump_seal_micros`, apart from the
//! steady statistics.
//!
//! Then one calm device leaves (the last slot moves into its place) and a
//! new device joins and reports its calm row: the seal after that churn is
//! `churn_seal_micros`, and the next one, with the usual `changed` calm
//! wiggles, is `post_churn_seal_micros` (fastest of the repetitions each).
//!
//! Last come `FULL_ROUNDS` full rounds: every device reports its current
//! row moved by 0.001 along the first axis, a small wiggle that stays in
//! its cell almost always. Their seal is the full-round seal of a fleet
//! whose devices all report every epoch; `full_round_seal_micros` is the
//! fastest of all rounds of all repetitions.
//!
//! For the headline ratio the same workload shape is also driven through
//! the batch `observe` path with full snapshots (the cluster re-jumps
//! every epoch there, since batch epochs feed every detector).
//!
//! Knobs (environment variables):
//!
//! * `INGEST_BENCH_DEVICES` — fleet size (default 50000)
//! * `INGEST_BENCH_STEPS` — measured steady-state epochs (default 12)
//! * `INGEST_BENCH_CHANGED_PERMILLE` — changed devices per epoch, in ‰ of
//!   the fleet (default 10 = 1%)
//! * `INGEST_BENCH_SWEEP` — comma-separated fleet sizes swept at a fixed
//!   500-device churn (default `10000,50000,100000`; empty disables)
//! * `INGEST_BENCH_REPS` — repetitions per sweep point; the reported
//!   median is the minimum per-repetition median (default 3)
//! * `INGEST_BENCH_OUT` — output path (default `BENCH_ingest.json`)

use anomaly_characterization::core::AnomalyClass;
use anomaly_characterization::pipeline::{DeviceKey, Monitor, MonitorBuilder, StalenessPolicy};
use anomaly_detectors::{ThresholdDetector, VectorDetector};
use anomaly_qos::{GridUpdate, QosSpace, Snapshot};
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

const SERVICES: usize = 2;
/// Devices in the persistent anomalous cluster.
const CLUSTER: usize = 64;
/// Fixed churn of every sweep run, per the O(changed) claim: the same 500
/// devices' worth of work regardless of fleet size.
const SWEEP_CHANGED: usize = 500;

/// Calm base position of device `k`: a deterministic spread over the
/// region `[0.55, 0.85]^2`, far (> 4r) from the cluster's corner.
fn base_row(k: usize) -> Vec<f64> {
    vec![
        0.55 + 0.3 * ((k % 97) as f64 / 97.0),
        0.55 + 0.3 * ((k % 89) as f64 / 89.0),
    ]
}

/// Anomalous cluster position of device `k`; `phase` flips between two
/// corners 0.2 apart so the batch path (which re-feeds every detector each
/// epoch) keeps the cluster flagged epoch after epoch.
fn jump_row(k: usize, phase: usize) -> Vec<f64> {
    let corner = if phase.is_multiple_of(2) { 0.10 } else { 0.30 };
    vec![corner + 0.02 * ((k % 7) as f64 / 7.0), 0.12]
}

/// The lone jumper: the first calm device whose first coordinate sits
/// about 0.01 into a 0.0625-wide cell, so a 0.16 jump (over the detector
/// delta) lands two cells over, with a populated cell column between.
const LONE_JUMPER: usize = 7 + 97;
/// How far the lone jumper moves along the first axis.
const LONE_JUMP: f64 = 0.16;

/// The calm device that leaves after the lone jump, from the middle of the
/// fleet so the last slot moves into its place.
const LEAVER: usize = CLUSTER + 1;

/// Full rounds sealed at the end of every run.
const FULL_ROUNDS: usize = 3;

/// Small in-region wiggle of a churn device: below the detector delta
/// (stays calm), but real motion the grid and the cache must absorb.
fn wiggled_row(k: usize, step: usize) -> Vec<f64> {
    let delta = if step.is_multiple_of(2) {
        0.004
    } else {
        -0.004
    };
    let mut row = base_row(k);
    row[0] += delta;
    row
}

fn monitor(devices: usize) -> Monitor {
    MonitorBuilder::new()
        .services(SERVICES)
        .staleness(StalenessPolicy::CarryForward {
            max_age: u64::MAX - 1,
        })
        .detector_factory(|_| {
            Box::new(VectorDetector::homogeneous(SERVICES, || {
                ThresholdDetector::with_delta(0.15)
            }))
        })
        .capacity(devices)
        .fleet(devices)
        .build()
        .expect("bench monitor configuration is valid")
}

struct EpochStats {
    ingest_micros: u64,
    seal_micros: u64,
    verdicts: usize,
}

struct RunStats {
    /// The cold, first characterized epoch: grid build + full
    /// characterization of the cluster. Reported apart from the steady
    /// epochs so it cannot pollute their statistics.
    warmup_seal_micros: u64,
    epochs: Vec<EpochStats>,
    /// The epoch after the steady ones, in which one calm device jumps
    /// alone.
    lone_jump_seal_micros: u64,
    /// The seal after one calm device left and one joined.
    churn_seal_micros: u64,
    /// The seal after that one, with `changed` calm wiggles.
    post_churn_seal_micros: u64,
    /// The fastest seal of a full round of small wiggles.
    full_round_seal_micros: u64,
}

impl RunStats {
    fn steady_seals(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.seal_micros).collect()
    }
}

fn min(xs: &[u64]) -> u64 {
    xs.iter().copied().min().unwrap_or(0)
}

fn max(xs: &[u64]) -> u64 {
    xs.iter().copied().max().unwrap_or(0)
}

fn median(xs: &[u64]) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// Streams the workload through one monitor: calm warm-up, the cluster's
/// jump (cold characterized epoch, timed separately), then `steps` steady
/// delta epochs of `changed` rotating calm updates.
fn run_streaming(devices: usize, steps: usize, changed: usize) -> RunStats {
    assert!(
        devices > LEAVER + 1 + changed,
        "fleet of {devices} too small for cluster {CLUSTER} + churn {changed}"
    );
    let mut m = monitor(devices);
    // Two calm full epochs: detectors learn the base rows.
    for _ in 0..2 {
        m.ingest_many((0..devices).map(|k| (k as u64, base_row(k))))
            .expect("baseline rows are valid");
        m.seal().expect("full calm epochs seal");
    }
    // The cold epoch: the cluster jumps (a full epoch — everyone else
    // re-reports base). Builds the grid and characterizes from scratch.
    m.ingest_many((0..devices).map(|k| {
        let row = if k < CLUSTER {
            jump_row(k, 0)
        } else {
            base_row(k)
        };
        (k as u64, row)
    }))
    .expect("jump rows are valid");
    let warm_start = Instant::now();
    let report = m.seal().expect("the jump epoch seals");
    let warmup_seal_micros = warm_start.elapsed().as_micros() as u64;
    assert_eq!(report.verdicts().len(), CLUSTER, "the cluster must flag");
    assert_eq!(
        m.last_grid_update(),
        Some(GridUpdate::Rebuilt),
        "the first characterized epoch builds the grid"
    );

    // Steady state: the cluster stays silent (frozen flags keep it
    // abnormal); a rotating window of `changed` calm devices reports a
    // small wiggle each epoch.
    let calm = devices - CLUSTER;
    let mut epochs: Vec<EpochStats> = Vec::with_capacity(steps);
    for step in 0..steps {
        let start = (step * changed) % calm;
        let ingest_start = Instant::now();
        m.ingest_many((0..changed).map(|i| {
            let k = CLUSTER + (start + i) % calm;
            (k as u64, wiggled_row(k, step))
        }))
        .expect("churn rows are valid");
        let ingest_micros = ingest_start.elapsed().as_micros() as u64;
        let seal_start = Instant::now();
        let report = m.seal().expect("steady epochs seal");
        let seal_micros = seal_start.elapsed().as_micros() as u64;
        // The structural claims: no rebuild, re-bucketing bounded by the
        // actual movers (the first steady epoch also absorbs the staged
        // cluster jump), and the frozen cluster stays flagged without
        // being re-fed.
        match m.last_grid_update() {
            Some(GridUpdate::Incremental { rebucketed }) => {
                let movers = changed + if step == 0 { CLUSTER } else { 0 };
                assert!(
                    rebucketed <= movers,
                    "epoch {step}: rebucketed {rebucketed} for {movers} movers"
                );
            }
            other => panic!("epoch {step}: expected incremental grid maintenance, got {other:?}"),
        }
        assert_eq!(
            report.verdicts().len(),
            CLUSTER,
            "epoch {step}: the frozen cluster must stay abnormal"
        );
        assert_eq!(report.straggler_count(), devices - changed);
        epochs.push(EpochStats {
            ingest_micros,
            seal_micros,
            verdicts: report.verdicts().len(),
        });
    }
    // The lone fault: one calm device jumps two cells over, across a cell
    // column of calm devices, and is characterized fresh.
    let mut jumped = base_row(LONE_JUMPER);
    jumped[0] += LONE_JUMP;
    m.ingest_many([(LONE_JUMPER as u64, jumped)])
        .expect("the jump row is valid");
    let jump_start = Instant::now();
    let report = m.seal().expect("the lone-jump epoch seals");
    let lone_jump_seal_micros = jump_start.elapsed().as_micros() as u64;
    assert_eq!(report.verdicts().len(), CLUSTER + 1, "the jumper must flag");
    assert_eq!(
        report.class_of(DeviceKey(LONE_JUMPER as u64)),
        Some(AnomalyClass::Isolated),
        "a lone jump is an isolated fault"
    );
    // Churn: a calm device leaves, a new one joins and reports, and the
    // frozen cluster and the jumper keep the seal characterizing.
    m.leave(LEAVER as u64).expect("the leaver is in the fleet");
    let joiner = devices as u64;
    m.join(joiner).expect("the joiner is new");
    m.ingest(joiner, base_row(devices))
        .expect("the joiner's row is valid");
    let churn_start = Instant::now();
    let report = m.seal().expect("the churn epoch seals");
    let churn_seal_micros = churn_start.elapsed().as_micros() as u64;
    assert_eq!(report.population(), devices);
    assert_eq!(
        report.verdicts().len(),
        CLUSTER + 1,
        "A_k survives the churn"
    );
    // The next epoch: the usual calm wiggles, over devices that stayed.
    m.ingest_many((0..changed).map(|i| {
        let k = LEAVER + 1 + i;
        (k as u64, wiggled_row(k, steps))
    }))
    .expect("churn rows are valid");
    let post_start = Instant::now();
    let report = m.seal().expect("the epoch after the churn seals");
    let post_churn_seal_micros = post_start.elapsed().as_micros() as u64;
    assert!(
        report.verdicts().len() >= CLUSTER,
        "the cluster stays abnormal"
    );
    // Full rounds: every device wiggles its current row.
    let mut full_round_seal_micros = u64::MAX;
    for round in 0..FULL_ROUNDS {
        let delta = if round.is_multiple_of(2) {
            0.001
        } else {
            -0.001
        };
        let snapshot = m.last_snapshot().expect("the monitor has sealed");
        let rows: Vec<(u64, Vec<f64>)> = m
            .keys()
            .iter()
            .zip(snapshot.iter())
            .map(|(key, (_, row))| {
                let mut row = row.to_vec();
                row[0] = (row[0] + delta).clamp(0.0, 1.0);
                (key.0, row)
            })
            .collect();
        m.ingest_many(rows).expect("wiggled rows are valid");
        let start = Instant::now();
        let report = m.seal().expect("full rounds seal");
        full_round_seal_micros = full_round_seal_micros.min(start.elapsed().as_micros() as u64);
        assert_eq!(report.straggler_count(), 0, "every device reported");
    }
    RunStats {
        warmup_seal_micros,
        epochs,
        lone_jump_seal_micros,
        churn_seal_micros,
        post_churn_seal_micros,
        full_round_seal_micros,
    }
}

/// Drives the same workload shape through full-snapshot `observe` calls
/// for the headline ratio. Batch epochs feed every detector, so the
/// cluster re-jumps between its two corners each epoch to stay flagged.
fn run_batch(devices: usize, steps: usize, changed: usize) -> Vec<u64> {
    let mut b = monitor(devices);
    let space = QosSpace::new(SERVICES).expect("two services");
    let calm = devices - CLUSTER;
    let snapshot_at = |phase: usize, window: Option<usize>| -> Snapshot {
        let rows: Vec<Vec<f64>> = (0..devices)
            .map(|k| {
                if k < CLUSTER {
                    jump_row(k, phase)
                } else if let Some(step) = window {
                    let start = (step * changed) % calm;
                    let offset = (k - CLUSTER + calm - start) % calm;
                    if offset < changed {
                        wiggled_row(k, step)
                    } else {
                        base_row(k)
                    }
                } else {
                    base_row(k)
                }
            })
            .collect();
        Snapshot::from_rows(&space, rows).expect("rows are valid")
    };
    let base = Snapshot::from_rows(&space, (0..devices).map(base_row).collect())
        .expect("base rows are valid");
    for _ in 0..2 {
        b.observe(base.clone()).expect("warm-up");
    }
    b.observe(snapshot_at(0, None)).expect("the jump epoch");
    let mut observe_micros = Vec::with_capacity(steps);
    for step in 0..steps {
        let snapshot = snapshot_at(step + 1, Some(step));
        let t = Instant::now();
        let report = b.observe(snapshot).expect("batch epochs observe");
        observe_micros.push(t.elapsed().as_micros() as u64);
        assert_eq!(
            report.verdicts().len(),
            CLUSTER,
            "step {step}: the re-jumping cluster must stay flagged in batch"
        );
    }
    observe_micros
}

fn main() {
    let devices = env_usize("INGEST_BENCH_DEVICES", 50_000);
    let steps = env_usize("INGEST_BENCH_STEPS", 12).max(1);
    let permille = env_usize("INGEST_BENCH_CHANGED_PERMILLE", 10);
    let changed = ((devices * permille) / 1000).max(1);
    let reps = env_usize("INGEST_BENCH_REPS", 3).max(1);
    let sweep_sizes: Vec<usize> = std::env::var("INGEST_BENCH_SWEEP")
        .unwrap_or_else(|_| "10000,50000,100000".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let out_path =
        std::env::var("INGEST_BENCH_OUT").unwrap_or_else(|_| "BENCH_ingest.json".to_string());
    eprintln!(
        "ingest bench: {devices} devices, {steps} steady epochs, {changed} changed/epoch ({permille}‰)"
    );

    // --- Headline run: streaming deltas, then the batch comparison.
    let headline = run_streaming(devices, steps, changed);
    let observe_micros = run_batch(devices, steps, changed);

    let seals = headline.steady_seals();
    eprintln!(
        "seal (delta, {changed} changed): warm-up {} µs, steady min {} / median {} / max {} µs | observe (full {devices}): min {} µs",
        headline.warmup_seal_micros,
        min(&seals),
        median(&seals),
        max(&seals),
        min(&observe_micros),
    );

    // --- Fleet-size sweep at fixed churn: the flatness evidence. Every
    // point runs `reps` independent repetitions; the reported median is
    // the minimum per-repetition median, so a single noisy repetition
    // cannot fake a slope (or hide one — the envelope is per-point).
    struct SweepPoint {
        devices: usize,
        changed: usize,
        warmup_seal_micros: u64,
        steady_min: u64,
        steady_median: u64,
        steady_max: u64,
        lone_jump_seal_micros: u64,
        churn_seal_micros: u64,
        post_churn_seal_micros: u64,
        full_round_seal_micros: u64,
    }
    let fastest =
        |runs: &[RunStats], of: fn(&RunStats) -> u64| min(&runs.iter().map(of).collect::<Vec<_>>());
    let mut sweep_points: Vec<SweepPoint> = Vec::new();
    for &size in &sweep_sizes {
        eprintln!("sweep: {size} devices at {SWEEP_CHANGED} changed/epoch, {reps} reps");
        let runs: Vec<RunStats> = (0..reps)
            .map(|_| run_streaming(size, steps, SWEEP_CHANGED))
            .collect();
        let medians: Vec<u64> = runs.iter().map(|r| median(&r.steady_seals())).collect();
        let all_seals: Vec<u64> = runs.iter().flat_map(|r| r.steady_seals()).collect();
        sweep_points.push(SweepPoint {
            devices: size,
            changed: SWEEP_CHANGED,
            warmup_seal_micros: fastest(&runs, |r| r.warmup_seal_micros),
            steady_min: min(&all_seals),
            steady_median: min(&medians),
            steady_max: max(&all_seals),
            lone_jump_seal_micros: fastest(&runs, |r| r.lone_jump_seal_micros),
            churn_seal_micros: fastest(&runs, |r| r.churn_seal_micros),
            post_churn_seal_micros: fastest(&runs, |r| r.post_churn_seal_micros),
            full_round_seal_micros: fastest(&runs, |r| r.full_round_seal_micros),
        });
    }
    sweep_points.sort_by_key(|r| r.devices);
    let sweep_flat_ratio = match (sweep_points.first(), sweep_points.last()) {
        (Some(small), Some(large)) if small.devices < large.devices => {
            large.steady_median as f64 / small.steady_median.max(1) as f64
        }
        _ => 1.0,
    };
    for r in &sweep_points {
        eprintln!(
            "sweep {} devices: warm-up {} µs, steady median {} µs (min of {reps} medians), lone jump {} µs, churn {} µs, after churn {} µs, full round {} µs",
            r.devices,
            r.warmup_seal_micros,
            r.steady_median,
            r.lone_jump_seal_micros,
            r.churn_seal_micros,
            r.post_churn_seal_micros,
            r.full_round_seal_micros
        );
    }
    eprintln!("sweep flat ratio (largest/smallest steady median): {sweep_flat_ratio:.2}");

    let epochs_json: Vec<String> = headline
        .epochs
        .iter()
        .map(|e| {
            format!(
                "{{\"ingest_micros\":{},\"seal_micros\":{},\"verdicts\":{}}}",
                e.ingest_micros, e.seal_micros, e.verdicts
            )
        })
        .collect();
    let sweep_json: Vec<String> = sweep_points
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"devices\":{},\"changed\":{},\"warmup_seal_micros\":{},",
                    "\"steady_seal_micros_min\":{},\"steady_seal_micros_median\":{},",
                    "\"steady_seal_micros_max\":{},\"lone_jump_seal_micros\":{},",
                    "\"churn_seal_micros\":{},\"post_churn_seal_micros\":{},",
                    "\"full_round_seal_micros\":{}}}"
                ),
                r.devices,
                r.changed,
                r.warmup_seal_micros,
                r.steady_min,
                r.steady_median,
                r.steady_max,
                r.lone_jump_seal_micros,
                r.churn_seal_micros,
                r.post_churn_seal_micros,
                r.full_round_seal_micros,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\"bench\":\"ingest\",\"devices\":{},\"services\":{},",
            "\"cluster\":{},\"changed_per_epoch\":{},\"steps\":{},",
            "\"warmup_seal_micros\":{},",
            "\"seal_micros_min\":{},\"seal_micros_median\":{},\"seal_micros_max\":{},",
            "\"ingest_micros_min\":{},",
            "\"observe_full_micros_min\":{},",
            "\"sweep_reps\":{},\"sweep\":[{}],\"sweep_flat_ratio\":{:.3},",
            "\"epochs\":[{}]}}\n"
        ),
        devices,
        SERVICES,
        CLUSTER,
        changed,
        steps,
        headline.warmup_seal_micros,
        min(&seals),
        median(&seals),
        max(&seals),
        min(&headline
            .epochs
            .iter()
            .map(|e| e.ingest_micros)
            .collect::<Vec<_>>()),
        min(&observe_micros),
        reps,
        sweep_json.join(","),
        sweep_flat_ratio,
        epochs_json.join(","),
    );
    std::fs::write(&out_path, json).expect("write bench output");
    eprintln!("wrote {out_path}");
}
