//! `frozen-cluster`: a large fleet whose only anomaly is frozen.
//!
//! About 100k devices run on the threaded engine with two pool workers.
//! During set-up a 64-device cluster jumps together (a massive anomaly)
//! and then stays silent: the carry-forward staleness policy bridges its
//! rows, and with them its flags, so every later epoch reports the same 64
//! massive verdicts from the characterization cache. Each epoch 1% of the
//! calm devices report a small wiggle through streaming ingest. Once per
//! [`FAULT_PERIOD`] epochs one device jumps alone (an isolated verdict the
//! device reports to its operator: the page of this workload): in turn, a
//! calm device faults, then at the next such epoch it goes home. The
//! jumper re-reports its reading the next epoch, which clears its flag.
//! Restarts are spread through the run: each checkpoints the monitor
//! and drops it, times a cold start and drops that, then restores the
//! checkpoint, so only one monitor is ever alive.
//!
//! Why: the cache serves every cluster verdict, so a steady seal is ingest
//! staging, delta assembly, detection of the fed rows, incremental grid
//! upkeep, cache triage and the per-seal component-partition rebuild.
//! Algorithm 2 does no work on steady epochs. The pool characterizes the
//! whole cluster when the cache is cold: at set-up, where the cluster
//! jumps, and at the first seal after every restore, since the cache is
//! not part of a checkpoint. A page flags one fresh device, which the
//! engine characterizes without the pool.

use crate::calib::Elasticity;
use crate::record::{checkpoint, ingest_and_seal, restore, EpochEnd, Recorder};
use crate::stats::Kind;
use crate::{Options, Size, Updates};
use anomaly_characterization::core::AnomalyClass;
use anomaly_characterization::detectors::{ThresholdDetector, VectorDetector};
use anomaly_characterization::pipeline::{
    DeviceKey, Engine, Monitor, MonitorBuilder, MonitorError, Report, StalenessPolicy,
};
use anomaly_characterization::qos::{DeviceId, GridUpdate};
use anomaly_characterization::simulator::{ErrorEvent, GroundTruth};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SERVICES: usize = 2;
/// Devices in the frozen massive cluster (keys `0..CLUSTER`).
const CLUSTER: usize = 64;
/// Detector jump threshold: above the calm wiggle, below every fault.
const DELTA: f64 = 0.15;
/// Calm devices move this far on their turn to report.
const WIGGLE: f64 = 0.004;
/// A lone jump moves its device this far along the first axis: over
/// [`DELTA`] by more than a wiggle either way, and short enough to stay
/// inside the calm square, so a fault and a return home cost alike.
const FAULT_SHIFT: f64 = 0.16;
/// Middle of the calm square along the first axis: jumps cross it.
const MIDDLE: f64 = 0.7;
/// Epochs after set-up left out of every sample.
const WARMUP: u64 = 20;
/// Lone jumps come once per this many epochs.
const FAULT_PERIOD: u64 = 20;
/// Workers of the characterization pool: one per core of a two-core host.
/// The pool runs only when at least two devices are characterized fresh.
const POOL_WORKERS: usize = 2;

/// How this workload's times swing with the host (see [`crate::calib`]):
/// slopes of log raw time against log kernel median over 18 runs of 30 and
/// 60 s whose kernel medians spanned 0.28–0.50 ms, to the nearest 0.05.
pub const ELASTICITY: Elasticity = Elasticity {
    seal_p50: 1.1,
    seal_p90: 0.9,
    page_p50: 1.8,
    page_p90: 1.65,
    busy: 1.2,
    checkpoint: 0.6,
    restore: 0.65,
    setup: 0.95,
};

/// Size of the workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    devices: usize,
    /// Calm devices reporting each epoch.
    changed: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            devices: 100_000,
            changed: 1_000,
        },
        Size::Smoke => Shape {
            devices: 2_000,
            changed: 20,
        },
    }
}

fn builder(devices: usize) -> MonitorBuilder {
    MonitorBuilder::new()
        .services(SERVICES)
        .engine(Engine::Threaded {
            workers: POOL_WORKERS,
        })
        .staleness(StalenessPolicy::CarryForward {
            max_age: u64::MAX - 1,
        })
        .detector_factory(|_| {
            Box::new(VectorDetector::homogeneous(SERVICES, || {
                ThresholdDetector::with_delta(DELTA)
            }))
        })
        .capacity(devices)
}

/// The input generator: positions of every device and the fault schedule.
struct Fleet {
    shape: Shape,
    /// Where each device sits when calm.
    home: Vec<[f64; 2]>,
    /// Where the cluster lands when it jumps.
    cluster_at: Vec<[f64; 2]>,
    step: u64,
    /// The device a lone fault moved away from home.
    away: Option<usize>,
    /// The devices that jumped last epoch.
    last_faults: Vec<usize>,
    /// Picks the devices that fault.
    rng: StdRng,
}

impl Fleet {
    fn new(shape: Shape, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unit = || rng.gen::<f64>();
        // The cluster starts co-located, so its jump is one dense motion;
        // calm devices spread over a square far from where it lands.
        let home = (0..shape.devices)
            .map(|k| {
                if k < CLUSTER {
                    [0.60 + 0.02 * unit(), 0.60 + 0.02 * unit()]
                } else {
                    [0.55 + 0.3 * unit(), 0.55 + 0.3 * unit()]
                }
            })
            .collect();
        let cluster_at = (0..CLUSTER)
            .map(|_| [0.10 + 0.02 * unit(), 0.12 + 0.02 * unit()])
            .collect();
        Fleet {
            shape,
            home,
            cluster_at,
            step: 0,
            away: None,
            last_faults: Vec::new(),
            rng,
        }
    }

    fn next_kind(&self) -> Kind {
        let phase = self.step % FAULT_PERIOD;
        if phase == FAULT_PERIOD / 2 {
            Kind::Onset
        } else if phase == FAULT_PERIOD / 2 + 1 {
            Kind::Recovery
        } else {
            Kind::Steady
        }
    }

    /// Shift of a jump of device `k`, across the middle of the calm square:
    /// away from home, or back.
    fn shift_of(&self, k: usize) -> f64 {
        if self.home[k][0] >= MIDDLE {
            -FAULT_SHIFT
        } else {
            FAULT_SHIFT
        }
    }

    /// The next steady-state epoch: its updates, and the devices that jump
    /// alone in it.
    fn next(&mut self) -> (Updates, Vec<usize>) {
        let kind = self.next_kind();
        let calm = self.shape.devices - CLUSTER;
        let start = (self.step as usize * self.shape.changed) % calm;
        let sign = if self.step.is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        let mut updates: Updates = (0..self.shape.changed)
            .map(|i| {
                let k = CLUSTER + (start + i) % calm;
                let [x, y] = self.home[k];
                (k as u64, vec![x + sign * WIGGLE, y])
            })
            .collect();
        let mut faults = Vec::new();
        match kind {
            Kind::Onset => {
                // The device away goes home (a jump of its own), or else a
                // calm device faults, so at most one device is ever away.
                // The jump row comes after the wiggle rows, so it wins if
                // the device also wiggles this epoch.
                let k = match self.away.take() {
                    Some(k) => k,
                    None => {
                        let k = CLUSTER + (start + self.rng.gen_range(0..calm)) % calm;
                        self.away = Some(k);
                        k
                    }
                };
                self.home[k][0] += self.shift_of(k);
                updates.push((k as u64, self.home[k].to_vec()));
                faults.push(k);
            }
            Kind::Recovery => {
                // The jumpers report the same reading again: unflagged.
                for &k in &self.last_faults {
                    updates.push((k as u64, self.home[k].to_vec()));
                }
            }
            _ => {}
        }
        self.last_faults.clone_from(&faults);
        self.step += 1;
        (updates, faults)
    }

    fn truth(&self, faults: &[usize]) -> GroundTruth {
        let mut events = vec![ErrorEvent {
            impacted: (0..CLUSTER as u32).map(DeviceId).collect(),
            intended_isolated: false,
        }];
        events.extend(faults.iter().map(|&k| ErrorEvent {
            impacted: std::iter::once(DeviceId(k as u32)).collect(),
            intended_isolated: true,
        }));
        GroundTruth::new(events)
    }
}

/// The inputs of a cold start: the fleet's starting positions and its
/// first steady epoch. The set-up epochs are made from them again for each
/// cold start rather than kept.
struct SetUpInputs {
    home: Vec<[f64; 2]>,
    cluster_at: Vec<[f64; 2]>,
    first: Updates,
}

impl SetUpInputs {
    /// Set-up epochs: two calm rounds, the cluster's jump, the first steady
    /// epoch.
    const EPOCHS: usize = 4;

    /// Set-up epoch `i`.
    fn epoch(&self, i: usize) -> Updates {
        if i + 1 == Self::EPOCHS {
            return self.first.clone();
        }
        let mut rows: Updates = self
            .home
            .iter()
            .enumerate()
            .map(|(k, at)| (k as u64, at.to_vec()))
            .collect();
        if i == 2 {
            for (k, at) in self.cluster_at.iter().enumerate() {
                rows[k].1 = at.to_vec();
            }
        }
        rows
    }
}

/// A cold start: builds the monitor and seals the set-up epochs, each made
/// off the clock just before it is sealed.
fn set_up(rec: &mut Recorder, inputs: &SetUpInputs, devices: usize) -> Option<(Monitor, Report)> {
    let mut monitor = rec.set_up_part(|| builder(devices).fleet(devices).build())?;
    let mut report = None;
    for i in 0..SetUpInputs::EPOCHS {
        let updates = inputs.epoch(i);
        report = Some(rec.set_up_part(|| -> Result<Report, MonitorError> {
            monitor.ingest_many(updates)?;
            monitor.seal()
        })?);
    }
    rec.set_up_done();
    Some((monitor, report?))
}

/// A restart slot: checkpoints `monitor` into `bytes` and drops it, then
/// times a cold start and drops that too, so no two monitors are alive at
/// once. The caller restores `bytes` to serve the next epoch.
fn restart(
    rec: &mut Recorder,
    monitor: Monitor,
    bytes: &mut Vec<u8>,
    inputs: &SetUpInputs,
    devices: usize,
) -> Option<()> {
    rec.begin_slot();
    checkpoint(rec, &monitor, bytes)?;
    drop(monitor);
    let (cold, report) = set_up(rec, inputs, devices)?;
    check(rec, &cold, &report, &[], true);
    drop(cold);
    rec.end_slot();
    rec.slot_done();
    Some(())
}

/// Opens an epoch of `kind` and makes its inputs, off the clock.
fn open_epoch(rec: &mut Recorder, fleet: &mut Fleet, kind: Kind) -> (Updates, Vec<usize>) {
    rec.begin_epoch(kind);
    let (inputs, gen_ms) = rec.time("gen", || fleet.next());
    rec.layer("gen.ms", gen_ms);
    inputs
}

fn check(rec: &mut Recorder, monitor: &Monitor, report: &Report, faults: &[usize], restored: bool) {
    let epoch = report.instant();
    let massive = report.count_of(AnomalyClass::Massive);
    rec.check(massive == CLUSTER, || {
        format!("frozen-cluster epoch {epoch}: {massive} massive verdicts, expected {CLUSTER}")
    });
    let verdicts = report.verdicts().len();
    let expected = CLUSTER + faults.len();
    rec.check(verdicts == expected, || {
        format!("frozen-cluster epoch {epoch}: {verdicts} verdicts, expected {expected}")
    });
    for &k in faults {
        let class = report.class_of(DeviceKey(k as u64));
        rec.check(class == Some(AnomalyClass::Isolated), || {
            format!("frozen-cluster epoch {epoch}: lone fault {k} classed {class:?}")
        });
    }
    if !restored {
        let update = monitor.last_grid_update();
        rec.check(
            matches!(update, Some(GridUpdate::Incremental { .. })),
            || format!("frozen-cluster epoch {epoch}: grid {update:?} after warm-up"),
        );
    }
}

/// Runs the workload.
pub fn run(opts: &Options, rec: &mut Recorder) {
    let shape = shape(opts.size);
    let devices = shape.devices;
    let mut fleet = Fleet::new(shape, opts.seed);
    let (home, cluster_at) = (fleet.home.clone(), fleet.cluster_at.clone());
    let (first, _) = fleet.next();
    let inputs = SetUpInputs {
        home,
        cluster_at,
        first,
    };

    let Some((mut monitor, report)) = set_up(rec, &inputs, devices) else {
        return;
    };
    check(rec, &monitor, &report, &[], true);

    let mut bytes = Vec::new();
    rec.warm_up(WARMUP);
    rec.start_loop();
    while rec.running() {
        // Slots go on steady epochs, so no lone fault straddles a restart.
        let restoring = fleet.next_kind() == Kind::Steady && rec.slot_due();
        let sealed = if restoring {
            if restart(rec, monitor, &mut bytes, &inputs, devices).is_none() {
                return;
            }
            let (updates, faults) = open_epoch(rec, &mut fleet, Kind::Restore);
            let rows = updates.len();
            restore(rec, &bytes, builder(devices), updates).map(|s| (s, rows, faults))
        } else {
            let kind = fleet.next_kind();
            let (updates, faults) = open_epoch(rec, &mut fleet, kind);
            let rows = updates.len();
            ingest_and_seal(rec, &mut monitor, updates).map(|(report, ingest_ms, seal_ms)| {
                ((monitor, report, ingest_ms, seal_ms), rows, faults)
            })
        };
        let Some(((live, report, ingest_ms, seal_ms), rows, faults)) = sealed else {
            return;
        };
        monitor = live;
        check(rec, &monitor, &report, &faults, restoring);
        if rec.in_prefix() {
            rec.prefix(&report, "", &fleet.truth(&faults), |key| {
                Some(DeviceId(key.0 as u32))
            });
        }
        rec.end_epoch(EpochEnd {
            latency_ms: seal_ms,
            page: !report.operator_notifications().is_empty(),
            updates: rows,
            busy_ms: ingest_ms + seal_ms,
        });
    }
}
