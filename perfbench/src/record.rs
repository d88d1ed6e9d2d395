//! A run's bookkeeping: timed calls, epoch samples, per-layer values,
//! output checks, the behaviour digest and the final metrics.
//!
//! Generation, scoring, digesting and formatting happen between the timed
//! calls, never inside them: only the closure passed to
//! [`Recorder::time`] is on the clock.

use crate::calib::{Calibration, Elasticity, Scale};
use crate::stats::{median, percentile, samples_needed, Kind, Sample};
use crate::trace::{SpanTotals, Tracer};
use crate::Options;
use anomaly_characterization::core::AnomalyClass;
use anomaly_characterization::pipeline::{DeviceKey, Monitor, MonitorBuilder, Report};
use anomaly_characterization::qos::{DeviceId, GridUpdate};
use anomaly_characterization::simulator::score::score_step_classes;
use anomaly_characterization::simulator::{Confusion, GroundTruth};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

/// Checkpoint, restore and cold-start samples taken per run, spread evenly
/// over `--seconds` so they land in different host-speed regimes.
const SLOTS: usize = 40;

/// Epochs of the live system that feed the digest and `macro_f1`: a fixed
/// prefix, so both are the same for a seed whatever the run length.
const PREFIX_EPOCHS: usize = 100;

/// The run stops measuring after this many seconds even when samples are
/// short, so that it exits well within three minutes.
const CAP_SECONDS: f64 = 150.0;

/// Epoch records reserved up front. The reservation is only touched as
/// epochs come, so `peak_rss_mb` grows smoothly with a run's epochs
/// instead of jumping when a doubling list is copied.
const EPOCHS_RESERVED: usize = 1 << 18;

/// `τ` of every workload's monitor (the builder's default).
const TAU: usize = 3;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed and no call failed.
    pub correct: bool,
    /// Calls made into the monitor, sink, log and persistence.
    pub attempted: u64,
    /// Those that returned an error.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// FNV-1a hash of the first [`PREFIX_EPOCHS`] reports and actions.
    pub digest: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Measured epochs per kind.
    pub kinds: BTreeMap<Kind, usize>,
    /// The calibration kernel's runs, which scale the end-to-end times.
    pub scale: Scale,
    /// Span totals of a traced run.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Chrome trace-event JSON of a traced run.
    pub trace_json: Option<String>,
}

/// How a per-layer metric folds its per-epoch values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Median of the recorded values.
    Median,
    /// Sum over measured epochs, divided by their number.
    PerEpoch,
    /// Sum over the run.
    Total,
}

/// Every per-layer metric: name, unit, fold. `trace.overhead_pct` is
/// computed from the epoch samples instead.
const LAYERS: &[(&str, &str, Fold)] = &[
    ("ingest.rows", "rows/epoch", Fold::PerEpoch),
    ("ingest.ms", "ms", Fold::Median),
    ("ingest.errors", "count", Fold::Total),
    ("seal.ms", "ms", Fold::Median),
    ("seal.detect_ms", "ms", Fold::Median),
    ("seal.characterize_ms", "ms", Fold::Median),
    ("seal.self_ms", "ms", Fold::Median),
    ("grid.rebuilds", "count", Fold::Total),
    ("grid.rebucketed", "devices/epoch", Fold::PerEpoch),
    ("core.flagged", "count/epoch", Fold::PerEpoch),
    ("core.massive", "count/epoch", Fold::PerEpoch),
    ("core.isolated", "count/epoch", Fold::PerEpoch),
    ("core.unresolved", "count/epoch", Fold::PerEpoch),
    ("core.components", "count/epoch", Fold::PerEpoch),
    ("core.window_moves", "count/epoch", Fold::PerEpoch),
    ("core.collections_tested", "count/epoch", Fold::PerEpoch),
    ("core.dense_motions", "count/epoch", Fold::PerEpoch),
    ("events.deltas", "count/epoch", Fold::PerEpoch),
    ("events.open", "count/epoch", Fold::PerEpoch),
    ("sink.ms", "ms", Fold::Median),
    ("sink.pages", "count/epoch", Fold::PerEpoch),
    ("sink.recurs", "count/epoch", Fold::PerEpoch),
    ("sink.suppressed", "count/epoch", Fold::PerEpoch),
    ("sink.resolves", "count/epoch", Fold::PerEpoch),
    ("log.append_ms", "ms", Fold::Median),
    ("log.bytes_per_epoch", "B/epoch", Fold::PerEpoch),
    ("log.compact_ms", "ms", Fold::Median),
    ("log.compacted_bytes", "B", Fold::Median),
    ("checkpoint.bytes", "B", Fold::Median),
    ("checkpoint.ms", "ms", Fold::Median),
    ("restore.decode_ms", "ms", Fold::Median),
    ("restore.first_seal_ms", "ms", Fold::Median),
    ("gen.ms", "ms", Fold::Median),
];

/// How one epoch ended, as the workload measured it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochEnd {
    /// From the call that closes the epoch to the return of its report and
    /// alert actions (seal, plus the sink where one runs).
    pub latency_ms: f64,
    /// The epoch's output pages an operator.
    pub page: bool,
    /// Updates ingested.
    pub updates: usize,
    /// Ingest + seal + sink + log append.
    pub busy_ms: f64,
}

#[derive(Debug, Clone, Copy)]
struct EpochRecord {
    kind: Kind,
    /// When the epoch ended, on the calibration clock.
    at: f64,
    end: EpochEnd,
    traced: bool,
}

/// Measured epochs by population, kept as they come so the loop's stop
/// test does not rescan the epochs.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    seal: usize,
    page: usize,
}

/// Bookkeeping of one run. Workloads drive it epoch by epoch.
#[derive(Debug)]
pub struct Recorder {
    trace: bool,
    seconds: f64,
    /// Kind of the epochs the seal percentiles cover.
    seal_kind: Kind,
    /// Kind every paging epoch must have.
    page_kind: Kind,
    /// How the workload's times swing with the host.
    elasticity: Elasticity,
    /// The span recorder (see [`Recorder::begin_epoch`] for which epochs).
    tracer: Tracer,
    loop_start: Option<Instant>,
    slots_done: usize,
    warmup_left: u64,
    epoch: u64,
    current: Option<Kind>,
    epochs: Vec<EpochRecord>,
    counts: Counts,
    /// Host-speed calibration (see [`crate::calib`]).
    calib: Calibration,
    /// Slot samples: `(calibration time, value)`.
    setups: Vec<(f64, f64)>,
    /// Time of the cold start in progress, summed over its parts.
    setup_ms: f64,
    checkpoints: Vec<(f64, f64)>,
    restores: Vec<(f64, f64)>,
    values: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: u64,
    prefix_seen: usize,
    confusion: Confusion,
}

impl Recorder {
    /// A recorder for `opts`, whose seal percentiles cover `seal_kind`
    /// epochs, whose pages all come from `page_kind` epochs, and whose
    /// times are scaled with `elasticity`.
    pub fn new(opts: &Options, seal_kind: Kind, page_kind: Kind, elasticity: Elasticity) -> Self {
        Recorder {
            trace: opts.trace,
            seconds: opts.seconds,
            seal_kind,
            page_kind,
            elasticity,
            tracer: Tracer::new(opts.trace),
            loop_start: None,
            slots_done: 0,
            warmup_left: 0,
            epoch: 0,
            current: None,
            epochs: Vec::with_capacity(EPOCHS_RESERVED),
            counts: Counts::default(),
            calib: Calibration::new(),
            setups: Vec::new(),
            setup_ms: 0.0,
            checkpoints: Vec::new(),
            restores: Vec::new(),
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            prefix_seen: 0,
            confusion: Confusion::new(),
        }
    }

    /// Runs `f` on the clock, records its span, and returns its result
    /// with the elapsed milliseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.tracer.span(name, start, end);
        (out, end.duration_since(start).as_secs_f64() * 1e3)
    }

    /// Counts one call into the system; a failure is recorded and yields
    /// `None`, which ends the run.
    pub fn call<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Excludes the next `epochs` epochs from every sample.
    pub fn warm_up(&mut self, epochs: u64) {
        self.warmup_left = epochs;
    }

    /// Starts the measured loop: `--seconds` and the slot schedule count
    /// from here.
    pub fn start_loop(&mut self) {
        self.calib.burst();
        self.loop_start = Some(Instant::now());
    }

    fn elapsed(&self) -> f64 {
        self.loop_start.map_or(0.0, |s| s.elapsed().as_secs_f64())
    }

    fn measuring(&self) -> bool {
        self.warmup_left == 0 && self.loop_start.is_some()
    }

    /// Whether a checkpoint/restore/cold-start slot is due.
    pub fn slot_due(&self) -> bool {
        self.slots_done < SLOTS
            && self.elapsed() >= (self.slots_done + 1) as f64 * self.seconds / (SLOTS + 1) as f64
    }

    /// Marks a slot done.
    pub fn slot_done(&mut self) {
        self.slots_done += 1;
    }

    /// Whether the loop should run another epoch: until `--seconds` have
    /// passed, every slot ran, and every percentile has its samples (or
    /// the cap is hit).
    pub fn running(&self) -> bool {
        let elapsed = self.elapsed();
        if elapsed >= CAP_SECONDS {
            return false;
        }
        let p90 = samples_needed(90).expect("p90 is supported");
        let p50 = samples_needed(50).expect("p50 is supported");
        let enough = self.counts.seal >= p90
            && self.counts.page >= p90
            && self.setups.len() >= p50
            && self.checkpoints.len() >= p50
            && self.restores.len() >= p50;
        !(elapsed >= self.seconds && self.slots_done >= SLOTS && enough)
    }

    /// Opens an epoch of `kind`.
    pub fn begin_epoch(&mut self, kind: Kind) {
        let measured = self.measuring();
        // Every other epoch of the seal kind goes untraced, to measure what
        // tracing costs; rarer kinds are always traced.
        let traced = self.trace
            && measured
            && (kind != self.seal_kind || self.counts.seal.is_multiple_of(2));
        self.tracer.set_enabled(traced);
        self.tracer.open("epoch", Some(self.epoch), Some(kind));
        self.current = Some(kind);
    }

    /// Closes the open epoch.
    pub fn end_epoch(&mut self, end: EpochEnd) {
        let kind = self.current.take().expect("an epoch is open");
        self.tracer.close();
        if self.measuring() {
            if kind != Kind::Restore {
                let page_kind = self.page_kind;
                self.check(end.page == (kind == page_kind), || {
                    format!(
                        "a {} epoch {} a page, but every {} epoch and no other pages",
                        kind.as_str(),
                        if end.page { "raised" } else { "did not raise" },
                        page_kind.as_str()
                    )
                });
            }
            self.counts.seal += usize::from(kind == self.seal_kind);
            self.counts.page += usize::from(end.page);
            self.epochs.push(EpochRecord {
                kind,
                at: self.calib.now(),
                end,
                traced: self.tracer.enabled(),
            });
        }
        self.warmup_left = self.warmup_left.saturating_sub(1);
        self.epoch += 1;
        self.calib.tick();
    }

    /// Opens a span for work between epochs (checkpoint, cold start).
    pub fn begin_slot(&mut self) {
        self.calib.burst();
        self.tracer.set_enabled(self.trace);
        self.tracer.open("slot", None, None);
    }

    /// Closes the span [`Recorder::begin_slot`] opened.
    pub fn end_slot(&mut self) {
        self.tracer.close();
        self.calib.burst();
    }

    /// Records one value of a per-epoch layer metric; ignored outside the
    /// measured, non-restore epochs of a traced run.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        if self.trace && self.measuring() && self.current.is_some_and(|k| k != Kind::Restore) {
            self.values.entry(name).or_default().push(value);
        }
    }

    /// Records one value of a slot metric (checkpoint, restore, compaction)
    /// in a traced run.
    pub fn rare(&mut self, name: &'static str, value: f64) {
        if self.trace {
            self.values.entry(name).or_default().push(value);
        }
    }

    /// Times one part of a cold start (building the system, or sealing one
    /// set-up epoch) and returns its result. The inputs of each part are
    /// made between parts, off the clock.
    pub fn set_up_part<T, E: Display>(&mut self, part: impl FnOnce() -> Result<T, E>) -> Option<T> {
        let (result, ms) = self.time("setup", part);
        self.setup_ms += ms;
        self.call("setup", result)
    }

    /// Ends a cold start and records its time: the sum of its parts.
    pub fn set_up_done(&mut self) {
        self.setups.push((self.calib.now(), self.setup_ms / 1e3));
        self.setup_ms = 0.0;
    }

    /// One checkpoint write, milliseconds.
    pub fn checkpoint(&mut self, ms: f64) {
        self.checkpoints.push((self.calib.now(), ms));
    }

    /// One restore, from checkpoint bytes to the first report, milliseconds.
    pub fn restore(&mut self, ms: f64) {
        self.restores.push((self.calib.now(), ms));
    }

    /// Whether the live system is still in the digested, scored prefix.
    pub fn in_prefix(&self) -> bool {
        self.prefix_seen < PREFIX_EPOCHS
    }

    /// Folds one epoch of the prefix into the digest and the verdict score:
    /// the report's deterministic summary fields, every verdict with its
    /// motion, rule, cost, vicinity and component, and the rendered alert
    /// actions. `id_of` maps verdict keys to the ids the
    /// ground truth uses.
    pub fn prefix(
        &mut self,
        report: &Report,
        actions: &str,
        truth: &GroundTruth,
        id_of: impl Fn(DeviceKey) -> Option<DeviceId>,
    ) {
        if !self.in_prefix() {
            return;
        }
        self.prefix_seen += 1;
        let s = report.summary();
        let mut line = format!(
            "{} {} {} {} {} {} {} {} {} {} {}|",
            s.instant,
            s.population,
            s.abnormal,
            s.isolated,
            s.massive,
            s.unresolved,
            s.stragglers,
            s.components,
            s.events_open,
            s.events_opened,
            s.events_closed,
        );
        for v in report.verdicts() {
            let cost = v.characterization.cost();
            line.push_str(&format!(
                "{}:{:?}:{:?}:{}:{}:{}:{}:{}:{:?} ",
                v.key.0,
                v.class(),
                v.displacement,
                v.characterization.rule(),
                cost.window_moves,
                cost.dense_motions,
                cost.collections_tested,
                v.vicinity,
                v.component,
            ));
        }
        line.push_str(actions);
        line.push('\n');
        for b in line.bytes() {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
        }

        let abnormal = truth.abnormal_devices();
        let mut classes = Vec::with_capacity(report.verdicts().len());
        for v in report.verdicts() {
            match id_of(v.key) {
                Some(id) if abnormal.contains(id) => classes.push((id, v.class())),
                _ => self.confusion.record_spurious(v.class()),
            }
        }
        score_step_classes(&mut self.confusion, truth, TAU, &classes);
    }

    /// Records the per-layer values of a sealed epoch of a traced run:
    /// ingest, the seal split by the report's detection and
    /// characterization times, grid maintenance, the verdicts' Algorithm
    /// 2–5 work, and event deltas.
    pub fn seal_layers(
        &mut self,
        monitor: &Monitor,
        report: &Report,
        rows: usize,
        ingest_ms: f64,
        seal_ms: f64,
    ) {
        if !self.trace {
            return;
        }
        let detect_ms = report.detection_time().as_secs_f64() * 1e3;
        let characterize_ms = report.characterization_time().as_secs_f64() * 1e3;
        self.tracer.derive(
            "seal",
            &[
                ("seal.detect", detect_ms),
                ("seal.characterize", characterize_ms),
            ],
        );
        self.layer("ingest.rows", rows as f64);
        self.layer("ingest.ms", ingest_ms);
        self.layer("ingest.errors", 0.0);
        self.layer("seal.ms", seal_ms);
        self.layer("seal.detect_ms", detect_ms);
        self.layer("seal.characterize_ms", characterize_ms);
        self.layer("seal.self_ms", seal_ms - detect_ms - characterize_ms);
        match monitor.last_grid_update() {
            Some(GridUpdate::Rebuilt) => self.layer("grid.rebuilds", 1.0),
            Some(GridUpdate::Incremental { rebucketed }) => {
                self.layer("grid.rebucketed", rebucketed as f64);
            }
            _ => {}
        }
        let (mut moves, mut collections, mut dense) = (0u64, 0u64, 0usize);
        for v in report.verdicts() {
            let cost = v.characterization.cost();
            moves += cost.window_moves;
            collections += cost.collections_tested;
            dense += cost.dense_motions;
        }
        self.layer("core.flagged", report.verdicts().len() as f64);
        self.layer(
            "core.massive",
            report.count_of(AnomalyClass::Massive) as f64,
        );
        self.layer(
            "core.isolated",
            report.count_of(AnomalyClass::Isolated) as f64,
        );
        self.layer(
            "core.unresolved",
            report.count_of(AnomalyClass::Unresolved) as f64,
        );
        self.layer("core.components", report.components() as f64);
        self.layer("core.window_moves", moves as f64);
        self.layer("core.collections_tested", collections as f64);
        self.layer("core.dense_motions", dense as f64);
        self.layer("events.deltas", report.event_deltas().len() as f64);
        self.layer("events.open", report.open_events() as f64);
    }

    /// Ends the run: computes the metrics and applies the sampling rules.
    pub fn finish(mut self) -> Outcome {
        let mut kinds: BTreeMap<Kind, usize> = BTreeMap::new();
        for e in &self.epochs {
            *kinds.entry(e.kind).or_default() += 1;
        }
        let scale = self.calib.scale();
        let metrics = if self.trace {
            self.layer_metrics()
        } else {
            self.end_to_end_metrics(&scale)
        };
        for m in &metrics {
            self.check(m.value.is_finite(), || {
                format!("{} is not a finite number", m.name)
            });
        }
        let (spans, trace_json) = if self.trace {
            (self.tracer.totals(), Some(self.tracer.chrome_json()))
        } else {
            (BTreeMap::new(), None)
        };
        Outcome {
            correct: self.problems.is_empty() && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            digest: self.digest,
            problems: self.problems,
            kinds,
            scale,
            spans,
            trace_json,
        }
    }

    /// Latencies of the epochs `keep` selects, each multiplied by
    /// `factor` of its time stamp.
    fn samples(
        &self,
        keep: impl Fn(&EpochRecord) -> bool,
        factor: impl Fn(f64) -> f64,
    ) -> Vec<Sample> {
        self.epochs
            .iter()
            .filter(|e| keep(e))
            .map(|e| Sample {
                value: e.end.latency_ms * factor(e.at),
                kind: e.kind,
            })
            .collect()
    }

    /// A percentile, or a problem (and NaN) when the rules refuse it.
    fn pct(&mut self, name: &str, samples: &[Sample], p: u32) -> f64 {
        match percentile(samples, p) {
            Ok(v) => v,
            Err(e) => {
                self.problems.push(format!("{name}: {e}"));
                f64::NAN
            }
        }
    }

    /// A percentile of time-stamped values with no epoch kind (slot
    /// samples), each scaled by the host speed around it.
    fn plain_pct(
        &mut self,
        name: &str,
        values: &[(f64, f64)],
        p: u32,
        factor: impl Fn(f64) -> f64,
    ) -> f64 {
        let samples: Vec<Sample> = values
            .iter()
            .map(|&(at, value)| Sample {
                value: value * factor(at),
                kind: Kind::Steady,
            })
            .collect();
        self.pct(name, &samples, p)
    }

    /// The end-to-end metrics, every time scaled to the reference host
    /// speed.
    fn end_to_end_metrics(&mut self, scale: &Scale) -> Vec<Metric> {
        let seal_kind = self.seal_kind;
        let e = self.elasticity;
        let seal = |f: f64| self.samples(|r| r.kind == seal_kind, |at| scale.factor(at, f));
        let page = |f: f64| {
            self.samples(
                |r| r.end.page && r.kind != Kind::Restore,
                |at| scale.factor(at, f),
            )
        };
        let (seal_p50, seal_p90) = (seal(e.seal_p50), seal(e.seal_p90));
        let (page_p50, page_p90) = (page(e.page_p50), page(e.page_p90));
        let (updates, busy_ms) =
            self.epochs
                .iter()
                .filter(|e| e.kind != Kind::Restore)
                .fold((0, 0.0), |(u, b), r| {
                    (
                        u + r.end.updates,
                        b + r.end.busy_ms * scale.factor(r.at, e.busy),
                    )
                });
        let setups = self.setups.clone();
        let checkpoints = self.checkpoints.clone();
        let restores = self.restores.clone();
        let metric = |name, value, unit| Metric { name, value, unit };
        let metrics = vec![
            metric("seal_p50_ms", self.pct("seal_p50_ms", &seal_p50, 50), "ms"),
            metric("seal_p90_ms", self.pct("seal_p90_ms", &seal_p90, 90), "ms"),
            metric("page_p50_ms", self.pct("page_p50_ms", &page_p50, 50), "ms"),
            metric("page_p90_ms", self.pct("page_p90_ms", &page_p90, 90), "ms"),
            metric("updates_per_s", updates as f64 / (busy_ms / 1e3), "1/s"),
            metric(
                "checkpoint_p50_ms",
                self.plain_pct("checkpoint_p50_ms", &checkpoints, 50, |at| {
                    scale.factor(at, e.checkpoint)
                }),
                "ms",
            ),
            metric(
                "restore_p50_ms",
                self.plain_pct("restore_p50_ms", &restores, 50, |at| {
                    scale.factor(at, e.restore)
                }),
                "ms",
            ),
            metric(
                "setup_s",
                self.plain_pct("setup_s", &setups, 50, |at| scale.factor(at, e.setup)),
                "s",
            ),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric("macro_f1", self.confusion.macro_f1(), "ratio"),
        ];
        for m in &metrics {
            self.check(m.value > 0.0, || format!("{} is not positive", m.name));
        }
        metrics
    }

    fn layer_metrics(&mut self) -> Vec<Metric> {
        let epochs = self
            .epochs
            .iter()
            .filter(|e| e.kind != Kind::Restore)
            .count()
            .max(1) as f64;
        let mut metrics: Vec<Metric> = LAYERS
            .iter()
            .map(|&(name, unit, fold)| {
                let values = self.values.get(name).map_or(&[][..], Vec::as_slice);
                let value = match fold {
                    Fold::Median => median(values),
                    Fold::PerEpoch => values.iter().fold(0.0, |a, v| a + v) / epochs,
                    Fold::Total => values.iter().fold(0.0, |a, v| a + v),
                };
                Metric { name, value, unit }
            })
            .collect();
        let seal_kind = self.seal_kind;
        let traced = self.samples(|e| e.kind == seal_kind && e.traced, |_| 1.0);
        let untraced = self.samples(|e| e.kind == seal_kind && !e.traced, |_| 1.0);
        let on = self.pct("trace.overhead_pct (traced epochs)", &traced, 50);
        let off = self.pct("trace.overhead_pct (untraced epochs)", &untraced, 50);
        metrics.push(Metric {
            name: "trace.overhead_pct",
            value: (on / off - 1.0) * 100.0,
            unit: "%",
        });
        metrics
    }
}

/// Peak resident set size (`VmHWM`), megabytes; 0 where `/proc` is absent.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ingests one epoch's updates and seals it, recording the ingest and seal
/// layers. Returns the report with the ingest and seal milliseconds, or
/// `None` when a call failed.
pub fn ingest_and_seal(
    rec: &mut Recorder,
    monitor: &mut Monitor,
    updates: Vec<(u64, Vec<f64>)>,
) -> Option<(Report, f64, f64)> {
    let rows = updates.len();
    let (result, ingest_ms) = rec.time("ingest", || monitor.ingest_many(updates));
    if result.is_err() {
        rec.layer("ingest.errors", 1.0);
    }
    rec.call("ingest", result)?;
    let (result, seal_ms) = rec.time("seal", || monitor.seal());
    let report = rec.call("seal", result)?;
    rec.seal_layers(monitor, &report, rows, ingest_ms, seal_ms);
    Some((report, ingest_ms, seal_ms))
}

/// Writes `monitor`'s checkpoint into `buf`. The buffer is kept from one
/// checkpoint to the next, as a daemon would keep it, so the time is
/// encoding rather than faulting in fresh pages.
pub fn checkpoint(rec: &mut Recorder, monitor: &Monitor, buf: &mut Vec<u8>) -> Option<()> {
    buf.clear();
    let (result, ms) = rec.time("checkpoint", || monitor.checkpoint(&mut *buf));
    rec.call("checkpoint", result)?;
    rec.checkpoint(ms);
    rec.rare("checkpoint.ms", ms);
    rec.rare("checkpoint.bytes", buf.len() as f64);
    Some(())
}

/// Restores a monitor from checkpoint `bytes` and seals `updates` with it.
/// Records the restore, from the bytes to the first report. Returns the
/// new monitor with what [`ingest_and_seal`] returns.
pub fn restore(
    rec: &mut Recorder,
    bytes: &[u8],
    builder: MonitorBuilder,
    updates: Vec<(u64, Vec<f64>)>,
) -> Option<(Monitor, Report, f64, f64)> {
    let (result, decode_ms) = rec.time("restore.decode", || Monitor::restore(bytes, builder));
    let mut monitor = rec.call("restore", result)?;
    let (report, ingest_ms, seal_ms) = ingest_and_seal(rec, &mut monitor, updates)?;
    rec.restore(decode_ms + ingest_ms + seal_ms);
    rec.rare("restore.decode_ms", decode_ms);
    rec.rare("restore.first_seal_ms", ingest_ms + seal_ms);
    Some((monitor, report, ingest_ms, seal_ms))
}
