//! `isp-outages`: an ISP access network with outages, the alert sink and
//! the event log.
//!
//! An `anomaly-network` tree of 8192 home gateways, 128 per DSLAM, runs on
//! the sequential engine, and every gateway reports every epoch. A
//! repeating timeline of [`PERIOD`] epochs takes one DSLAM down (its 128
//! gateways jump together) and, on the same onset epoch, one customer's
//! gateway on another DSLAM (a CPE fault), then repairs both [`OUTAGE`]
//! epochs later; the repair flags the same devices again, which the sink
//! folds in as recurrences. Each epoch runs the seal, the alert sink and
//! the event log. Restarts are spread through the run: each checkpoints
//! into the log and compacts it, times a cold start and drops it, then
//! restores the serve loop from the compacted log. After every restore the
//! pre-restore loop keeps running beside it for a full period so the two
//! action streams can be compared byte for byte.
//!
//! Why: this is the only workload where events, signatures, the sink and
//! the store do real work. A DSLAM outage is a dense pile-up of co-located
//! gateways. Ingest, detection and persistence are used differently from
//! `frozen-cluster`: full rounds against 1% deltas, and a small state
//! written often against a large state written rarely.

use crate::calib::Elasticity;
use crate::record::{ingest_and_seal, EpochEnd, Recorder};
use crate::stats::Kind;
use crate::{Options, Size, Updates};
use anomaly_characterization::detectors::{ThresholdDetector, VectorDetector};
use anomaly_characterization::network::{
    FaultTarget, MeasurementModel, NetworkConfig, NetworkSimulation, NodeId, Service, Topology,
};
use anomaly_characterization::pipeline::{
    DeviceKey, EventLog, MonitorBuilder, MonitorError, Report,
};
use anomaly_characterization::qos::DeviceId;
use anomaly_characterization::simulator::{ErrorEvent, GroundTruth};
use anomaly_characterization::store::LogWriter;
use anomaly_serve::{
    actions_to_json, AlertAction, AlertActionKind, AlertConfig, AlertSink, KeyMap, ServeLoop,
};

/// Epochs in one turn of the outage timeline.
const PERIOD: u64 = 20;
/// Epochs from an outage's onset to its repair.
const OUTAGE: u64 = 5;
/// Timeline position of the onset; the epochs before it are quiet.
const ONSET_AT: u64 = PERIOD / 2;
const DSLAM_SEVERITY: f64 = 0.5;
const CPE_SEVERITY: f64 = 0.8;
/// Detector jump threshold: far above the ±0.005 measurement jitter.
const DELTA: f64 = 0.1;
/// Quiet epochs a cold start seals before its first steady report.
const SETUP_EPOCHS: usize = 2;
/// Epochs after set-up left out of every sample.
const WARMUP: u64 = 5;

/// How this workload's times swing with the host (see [`crate::calib`]):
/// slopes of log raw time against log kernel median over eight 30-s runs
/// whose kernel medians spanned 0.33–0.50 ms, to the nearest 0.05.
pub const ELASTICITY: Elasticity = Elasticity {
    seal_p50: 1.25,
    seal_p90: 0.7,
    page_p50: 1.3,
    page_p90: 0.5,
    busy: 1.0,
    checkpoint: 0.45,
    restore: 0.65,
    setup: 0.65,
};

/// Tree shape: cores, aggregations per core, DSLAMs per aggregation,
/// gateways per DSLAM.
fn tree(size: Size) -> (usize, usize, usize, usize) {
    match size {
        Size::Full => (1, 4, 16, 128),
        Size::Smoke => (1, 2, 4, 8),
    }
}

fn builder(services: usize) -> MonitorBuilder {
    MonitorBuilder::new()
        .services(services)
        .detector_factory(move |_| {
            Box::new(VectorDetector::homogeneous(services, || {
                ThresholdDetector::with_delta(DELTA)
            }))
        })
}

/// The network and its outage timeline.
struct Timeline {
    net: NetworkSimulation,
    step: u64,
    /// Outages so far: picks the next DSLAM and CPE.
    outages: usize,
    /// Ground truth of the outage in progress (the repair flags the same
    /// devices as the onset).
    current: GroundTruth,
}

impl Timeline {
    fn new(size: Size, seed: u64) -> Self {
        let config = NetworkConfig {
            shape: tree(size),
            services: vec![Service::new("iptv", 950), Service::new("voip", 900)],
            measurement: MeasurementModel::default(),
            seed,
        };
        Timeline {
            net: NetworkSimulation::new(config).expect("two services"),
            step: 0,
            outages: seed as usize,
            current: GroundTruth::default(),
        }
    }

    fn topology(&self) -> &Topology {
        self.net.topology()
    }

    fn next_kind(&self) -> Kind {
        match self.step % PERIOD {
            ONSET_AT => Kind::Onset,
            p if p == ONSET_AT + OUTAGE => Kind::Recovery,
            _ => Kind::Quiet,
        }
    }

    fn round(&mut self) -> Updates {
        self.net
            .measure_stream()
            .into_iter()
            .map(|u| (u.key, u.qos))
            .collect()
    }

    /// The next epoch: its kind, every gateway's report, and the faults
    /// whose effect the epoch shows.
    fn next(&mut self) -> (Kind, Updates, GroundTruth) {
        let kind = self.next_kind();
        let truth = match kind {
            Kind::Onset => {
                let t = self.net.topology();
                let dslams = t.dslams();
                let dslam = dslams[self.outages % dslams.len()];
                let other = dslams[(self.outages + dslams.len() / 2) % dslams.len()];
                let gateways = t.downstream_gateways(other);
                let cpe = gateways[self.outages % gateways.len()];
                let down = self.net.inject(FaultTarget::Node {
                    node: dslam,
                    severity: DSLAM_SEVERITY,
                });
                let alone = self.net.inject(FaultTarget::Gateway {
                    gateway: cpe,
                    severity: CPE_SEVERITY,
                });
                self.current = GroundTruth::new(vec![
                    ErrorEvent {
                        impacted: down,
                        intended_isolated: false,
                    },
                    ErrorEvent {
                        impacted: alone,
                        intended_isolated: true,
                    },
                ]);
                self.outages += 1;
                self.current.clone()
            }
            Kind::Recovery => {
                self.net.repair_all();
                self.current.clone()
            }
            _ => GroundTruth::default(),
        };
        self.step += 1;
        (kind, self.round(), truth)
    }
}

/// The serve loop with its open event log.
struct Served {
    serve: ServeLoop,
    log: EventLog<Vec<u8>>,
}

impl Served {
    /// One untimed epoch: ingest, seal, sink, log append. Returns the
    /// report's summary line and the rendered actions.
    fn replay(&mut self, updates: Updates) -> Result<(String, String), MonitorError> {
        self.serve.monitor_mut().ingest_many(updates)?;
        let report = self.serve.monitor_mut().seal()?;
        let actions = self.serve.sink_mut().observe(&report);
        self.log.record_seal(self.serve.monitor(), &report)?;
        Ok((summary_line(&report), actions_to_json(&actions)))
    }
}

fn summary_line(report: &Report) -> String {
    let s = report.summary();
    format!(
        "epoch {} abnormal {} isolated {} massive {} open {}",
        s.instant, s.abnormal, s.isolated, s.massive, s.events_open
    )
}

/// A cold start: builds the monitor, the sink and the log, and runs the
/// set-up epochs through them, each copied off the clock just before it
/// is sealed.
fn set_up(
    rec: &mut Recorder,
    topology: &Topology,
    services: usize,
    epochs: &[Updates],
) -> Option<Served> {
    let gateways: Vec<u32> = topology.gateways().iter().map(|g| g.0).collect();
    let topology = topology.clone();
    let mut served = rec.set_up_part(|| -> Result<Served, MonitorError> {
        let monitor = builder(services).devices(gateways).build()?;
        let sink = AlertSink::new(topology, KeyMap::NodeIds, AlertConfig::default());
        Ok(Served {
            serve: ServeLoop::new(monitor, sink, 1),
            log: EventLog::create(Vec::new())?,
        })
    })?;
    for updates in epochs {
        let updates = updates.clone();
        rec.set_up_part(|| served.replay(updates))?;
    }
    rec.set_up_done();
    Some(served)
}

/// What one timed epoch produced.
struct Sealed {
    report: Report,
    actions: Vec<AlertAction>,
    ingest_ms: f64,
    latency_ms: f64,
    busy_ms: f64,
}

/// One timed epoch: ingest, seal, sink, log append. The seal and the sink
/// are called apart (not through `ServeLoop::round`) so each is timed on
/// its own; the loop is used for its persistence.
fn epoch(rec: &mut Recorder, served: &mut Served, updates: Updates) -> Option<Sealed> {
    let (report, ingest_ms, seal_ms) = ingest_and_seal(rec, served.serve.monitor_mut(), updates)?;
    let (actions, sink_ms) = rec.time("sink", || served.serve.sink_mut().observe(&report));
    let before = served.log.bytes_written();
    let (result, log_ms) = rec.time("log.append", || {
        served.log.record_seal(served.serve.monitor(), &report)
    });
    rec.call("log.append", result)?;
    let count = |kind| actions.iter().filter(|a| a.kind == kind).count() as f64;
    rec.layer("sink.ms", sink_ms);
    rec.layer("sink.pages", count(AlertActionKind::Page));
    rec.layer("sink.recurs", count(AlertActionKind::Recur));
    rec.layer("sink.suppressed", count(AlertActionKind::Suppress));
    rec.layer("sink.resolves", count(AlertActionKind::Resolve));
    rec.layer("log.append_ms", log_ms);
    rec.layer(
        "log.bytes_per_epoch",
        (served.log.bytes_written() - before) as f64,
    );
    Some(Sealed {
        report,
        actions,
        ingest_ms,
        latency_ms: seal_ms + sink_ms,
        busy_ms: ingest_ms + seal_ms + sink_ms + log_ms,
    })
}

/// A checkpoint into the running log, which then rotates: the full image
/// is compacted down to the checkpoint, and later epochs go to a new log.
/// Returns the compacted image.
fn checkpoint(rec: &mut Recorder, served: &mut Served) -> Option<Vec<u8>> {
    let before = served.log.bytes_written();
    let (result, ms) = rec.time("checkpoint", || {
        served.serve.checkpoint_into(&mut served.log)
    });
    rec.call("checkpoint", result)?;
    rec.checkpoint(ms);
    rec.rare("checkpoint.ms", ms);
    rec.rare(
        "checkpoint.bytes",
        (served.log.bytes_written() - before) as f64,
    );
    let fresh = rec.call("log.create", EventLog::create(Vec::new()))?;
    let image = rec.call(
        "log.close",
        std::mem::replace(&mut served.log, fresh).into_inner(),
    )?;
    let (result, ms) = rec.time("log.compact", || LogWriter::compact(&image));
    let compacted = rec.call("log.compact", result)?;
    rec.rare("log.compact_ms", ms);
    rec.rare("log.compacted_bytes", compacted.len() as f64);
    Some(compacted)
}

/// Runs the workload.
pub fn run(opts: &Options, rec: &mut Recorder) {
    let services = 2;
    let mut timeline = Timeline::new(opts.size, opts.seed);
    let topology = timeline.topology().clone();
    let id_of = |key: DeviceKey| {
        u32::try_from(key.0)
            .ok()
            .and_then(|raw| topology.gateway_index(NodeId(raw)))
            .map(|i| DeviceId(i as u32))
    };
    let setup_epochs: Vec<Updates> = (0..SETUP_EPOCHS).map(|_| timeline.round()).collect();

    let Some(mut served) = set_up(rec, &topology, services, &setup_epochs) else {
        return;
    };

    // The uninterrupted loop a restore replaced, and the epochs left to
    // compare it with the restored one.
    let mut shadow: Option<(Served, u64)> = None;
    rec.warm_up(WARMUP);
    rec.start_loop();
    while rec.running() {
        let restoring = shadow.is_none() && timeline.next_kind() == Kind::Quiet && rec.slot_due();
        let mut compacted = Vec::new();
        if restoring {
            // The cold start comes before the restore, while the shadow
            // loop is not yet running, so at most two serve loops are
            // ever alive.
            rec.begin_slot();
            let Some(image) = checkpoint(rec, &mut served) else {
                return;
            };
            compacted = image;
            let Some(cold) = set_up(rec, &topology, services, &setup_epochs) else {
                return;
            };
            drop(cold);
            rec.end_slot();
            rec.slot_done();
        }

        rec.begin_epoch(if restoring {
            Kind::Restore
        } else {
            timeline.next_kind()
        });
        let ((kind, updates, truth), gen_ms) = rec.time("gen", || timeline.next());
        rec.layer("gen.ms", gen_ms);
        let mut decode_ms = 0.0;
        if restoring {
            let topo = topology.clone();
            let (result, ms) = rec.time("restore.decode", || {
                ServeLoop::restore(
                    &compacted,
                    builder(services),
                    topo,
                    KeyMap::NodeIds,
                    AlertConfig::default(),
                )
            });
            let Some(serve) = rec.call("restore", result) else {
                return;
            };
            let Some(log) = rec.call("log.create", EventLog::create(Vec::new())) else {
                return;
            };
            shadow = Some((
                std::mem::replace(&mut served, Served { serve, log }),
                PERIOD,
            ));
            decode_ms = ms;
        }
        let shadow_updates = shadow.as_ref().map(|_| updates.clone());
        let rows = updates.len();
        let Some(sealed) = epoch(rec, &mut served, updates) else {
            return;
        };
        if restoring {
            let first_ms = sealed.ingest_ms + sealed.latency_ms;
            rec.restore(decode_ms + first_ms);
            rec.rare("restore.decode_ms", decode_ms);
            rec.rare("restore.first_seal_ms", first_ms);
        }
        let actions = actions_to_json(&sealed.actions);
        if let (Some((reference, left)), Some(updates)) = (shadow.as_mut(), shadow_updates) {
            let Some(expected) = rec.call("shadow", reference.replay(updates)) else {
                return;
            };
            let got = (summary_line(&sealed.report), actions.clone());
            rec.check(got == expected, || {
                format!(
                    "isp-outages: after a restore, {} / {} differs from the uninterrupted {} / {}",
                    got.0, got.1, expected.0, expected.1
                )
            });
            *left -= 1;
            if *left == 0 {
                shadow = None;
            }
        }
        let flagged = sealed.report.verdicts().len();
        let faulted = truth.abnormal_devices().len();
        rec.check(flagged == faulted, || {
            format!(
                "isp-outages {} epoch: {flagged} verdicts, {faulted} faulted gateways",
                kind.as_str()
            )
        });
        if rec.in_prefix() {
            rec.prefix(&sealed.report, &actions, &truth, id_of);
        }
        rec.end_epoch(EpochEnd {
            latency_ms: sealed.latency_ms,
            page: sealed
                .actions
                .iter()
                .any(|a| a.kind == AlertActionKind::Page),
            updates: rows,
            busy_ms: sealed.busy_ms,
        });
    }
}
