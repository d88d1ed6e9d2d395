//! Drive a scenario through the paper's pipeline or a centralized
//! baseline, and score the verdicts against the ground truth.

use crate::error::EvalError;
use crate::scenario::{Scenario, ScenarioRun, ScenarioSpec};
use crate::workloads::StreamingScenario;
use anomaly_baselines::Classifier;
use anomaly_characterization::pipeline::{
    read_log, EventDeltaKind, EventLog, Monitor, MonitorBuilder, Report, StalenessPolicy,
};
use anomaly_characterization::store::{Dec, Enc};
use anomaly_core::{AnomalyClass, DeviceSet};
use anomaly_detectors::{ThresholdDetector, VectorDetector};
use anomaly_network::Topology;
use anomaly_qos::DeviceId;
use anomaly_serve::{AlertActionKind, AlertConfig, AlertSink, KeyMap};
use anomaly_simulator::score::{self, Confusion, EventConfusion, EventSpan};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Per-step scoring summary — the evaluation's per-instant breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstantScore {
    /// Step index within the scenario.
    pub step: usize,
    /// Ground-truth abnormal devices scored this step.
    pub abnormal: u64,
    /// Correct verdicts.
    pub correct: u64,
    /// Hard misclassifications (isolated ↔ massive).
    pub mistaken: u64,
    /// Abstentions plus devices without any verdict.
    pub undecided: u64,
    /// Verdicts on devices outside the ground truth (detector flukes,
    /// repair rebounds); zero for baselines, which are handed the abnormal
    /// set directly.
    pub spurious: u64,
}

impl InstantScore {
    fn from_confusion(step: usize, confusion: &Confusion) -> Self {
        InstantScore {
            step,
            abnormal: confusion.total(),
            correct: confusion.correct(),
            mistaken: confusion.mistaken(),
            undecided: confusion.undecided(),
            spurious: confusion.spurious_total(),
        }
    }

    /// Stable JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"step\":{},\"abnormal\":{},\"correct\":{},",
                "\"mistaken\":{},\"undecided\":{},\"spurious\":{}}}"
            ),
            self.step, self.abnormal, self.correct, self.mistaken, self.undecided, self.spurious,
        )
    }
}

/// Alert-pipeline quality on one scenario: the serve crate's deduplicated
/// notification stream scored against the ground-truth event spans.
///
/// Pages and recurrences are matched to truth spans by step window (a
/// notification at step `s` matches a span covering `s`, with a small
/// slack for debounce/repair lag). The offline sink is configured with an
/// effectively unlimited token bucket, so the numbers measure detection
/// and deduplication, not throttling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertQuality {
    /// Ground-truth event spans in the run.
    pub truth_events: u64,
    /// Deduplicated alerts the sink created.
    pub alerts: u64,
    /// Page notifications (new alerts) emitted.
    pub pages: u64,
    /// Recurrences folded into existing alerts.
    pub recurrences: u64,
    /// Alerts resolved by the end of the run.
    pub resolved: u64,
    /// Distinct canonical root-cause signatures observed.
    pub distinct_signatures: u64,
    /// Page/recurrence notifications that land inside a truth span.
    pub matched_notifications: u64,
    /// Total page/recurrence notifications.
    pub notifications: u64,
    /// Truth spans covered by at least one notification.
    pub paged_events: u64,
}

impl AlertQuality {
    /// Fraction of notifications that correspond to a real event.
    pub fn page_precision(&self) -> f64 {
        if self.notifications == 0 {
            return if self.truth_events == 0 { 1.0 } else { 0.0 };
        }
        self.matched_notifications as f64 / self.notifications as f64
    }

    /// Fraction of real events that produced at least one notification.
    pub fn page_recall(&self) -> f64 {
        if self.truth_events == 0 {
            return 1.0;
        }
        self.paged_events as f64 / self.truth_events as f64
    }

    /// Harmonic mean of page precision and recall.
    pub fn page_f1(&self) -> f64 {
        let (p, r) = (self.page_precision(), self.page_recall());
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }

    /// Stable JSON rendering (fixed key order, `{:.6}` floats).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"truth_events\":{},\"alerts\":{},\"pages\":{},",
                "\"recurrences\":{},\"resolved\":{},\"distinct_signatures\":{},",
                "\"matched_notifications\":{},\"notifications\":{},\"paged_events\":{},",
                "\"page_precision\":{:.6},\"page_recall\":{:.6},\"page_f1\":{:.6}}}"
            ),
            self.truth_events,
            self.alerts,
            self.pages,
            self.recurrences,
            self.resolved,
            self.distinct_signatures,
            self.matched_notifications,
            self.notifications,
            self.paged_events,
            self.page_precision(),
            self.page_recall(),
            self.page_f1(),
        )
    }
}

/// One method's score on one scenario: the aggregate confusion matrix and
/// the per-instant breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioScore {
    /// Scenario name (from [`ScenarioSpec::name`]).
    pub scenario: String,
    /// Method label (`paper-sequential`, `paper-streaming-sequential`, or
    /// the baseline's [`Classifier::name`]).
    pub method: String,
    /// Steps scored.
    pub steps: usize,
    /// Aggregate confusion over all steps.
    pub confusion: Confusion,
    /// Event-level comparison: predicted anomaly events (the monitor's
    /// tracker output, or the baseline's per-step groups linked across
    /// steps) against the ground-truth event spans.
    pub events: EventConfusion,
    /// Per-step breakdown.
    pub instants: Vec<InstantScore>,
    /// Alert-pipeline quality, when the method was scored through the
    /// serve crate's alert sink ([`evaluate_monitor_alerts_on`]).
    pub alerts: Option<AlertQuality>,
}

impl ScenarioScore {
    /// The headline metric: unweighted mean of the per-class F1 scores.
    pub fn macro_f1(&self) -> f64 {
        self.confusion.macro_f1()
    }

    /// The engine-independent part of the score (everything except the
    /// method label), serialized — two evaluations are equivalent exactly
    /// when these strings are byte-identical.
    pub fn metrics_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"steps\":{},\"score\":{},\"events\":{},\"instants\":[",
            self.steps,
            self.confusion.to_json(),
            self.events.to_json()
        );
        for (i, instant) in self.instants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&instant.to_json());
        }
        out.push(']');
        if let Some(alerts) = &self.alerts {
            let _ = write!(out, ",\"alerts\":{}", alerts.to_json());
        }
        out.push('}');
        out
    }

    /// Full JSON rendering, one object per scenario × method cell.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"method\":\"{}\",\"metrics\":{}}}",
            self.scenario,
            self.method,
            self.metrics_json()
        )
    }
}

/// Scores one verdict list against one step's ground truth: every truth
/// device is recorded (missing ones as [`Prediction::Missing`]), and
/// verdicts on devices outside the truth are counted as spurious.
///
/// [`Prediction::Missing`]: anomaly_simulator::score::Prediction::Missing
fn score_one_step(
    spec: &ScenarioSpec,
    step_truth: &anomaly_simulator::GroundTruth,
    verdicts: &[(DeviceId, AnomalyClass)],
) -> Confusion {
    let mut confusion = Confusion::new();
    score::score_step_classes(&mut confusion, step_truth, spec.params.tau(), verdicts);
    let abnormal = step_truth.abnormal_devices();
    for &(id, class) in verdicts {
        if !abnormal.contains(id) {
            confusion.record_spurious(class);
        }
    }
    confusion
}

fn aggregate(
    spec: ScenarioSpec,
    method: String,
    per_step: Vec<Confusion>,
    events: EventConfusion,
) -> ScenarioScore {
    let mut total = Confusion::new();
    let mut instants = Vec::with_capacity(per_step.len());
    for (i, c) in per_step.iter().enumerate() {
        instants.push(InstantScore::from_confusion(i, c));
        total.merge(c);
    }
    ScenarioScore {
        scenario: spec.name,
        method,
        steps: per_step.len(),
        confusion: total,
        events,
        instants,
        alerts: None,
    }
}

/// Ground-truth event spans of a run, in step coordinates.
fn truth_spans(spec: &ScenarioSpec, run: &ScenarioRun) -> Vec<EventSpan> {
    score::link_truth_events(run.steps.iter().map(|s| &s.truth), spec.params.tau())
}

/// Reconstructs the monitor's anomaly events in **step coordinates** from
/// the per-step reports' [`EventDeltaKind`] feed: each event's onset/last
/// step, its device set (translated from stable keys to the per-step dense
/// ids the ground truth speaks), and its peak class. Deltas emitted during
/// discarded bridging epochs never extend a span, which is exactly the
/// step-aligned view the ground truth has.
///
/// The feed is component-aware end to end: the tracker opens one event per
/// spatial component, so two coincident spatially-disjoint outages arrive
/// here as two event ids and score as two predicted spans — the event-id
/// keying inherits the split without re-deriving it. (Baselines, which
/// have no component structure, go through
/// [`spans_from_step_classes`] and the component-blind linker instead.)
fn spans_from_reports(reports: &[Report]) -> Vec<EventSpan> {
    use std::collections::BTreeMap;
    struct Partial {
        onset: usize,
        last: usize,
        devices: DeviceSet,
        massive: bool,
    }
    let mut by_id: BTreeMap<anomaly_characterization::pipeline::EventId, Partial> = BTreeMap::new();
    for (step, report) in reports.iter().enumerate() {
        let id_of: BTreeMap<_, _> = report.verdicts().iter().map(|v| (v.key, v.id)).collect();
        for delta in report.event_deltas() {
            if delta.kind == EventDeltaKind::Closed {
                continue;
            }
            let partial = by_id.entry(delta.id).or_insert_with(|| Partial {
                onset: step,
                last: step,
                devices: DeviceSet::new(),
                massive: false,
            });
            partial.last = step;
            partial.massive |= delta.class == AnomalyClass::Massive;
            for key in &delta.joined {
                // Every joined device carries a verdict in the same report
                // (warming devices extend events but never join them).
                if let Some(&id) = id_of.get(key) {
                    partial.devices.insert(id);
                }
            }
        }
    }
    by_id
        .into_values()
        .map(|p| EventSpan {
            onset: p.onset,
            last: p.last,
            devices: p.devices,
            massive: p.massive,
        })
        .collect()
}

/// Predicted event spans of a centralized baseline: its per-step verdicts
/// are grouped the way the monitor's tracker groups them — every
/// massive-predicted device of one step in one shared group, each
/// isolated-predicted device alone, abstentions skipped — and the groups
/// are linked across steps by device overlap.
fn spans_from_step_classes(per_step: &[Vec<(DeviceId, AnomalyClass)>]) -> Vec<EventSpan> {
    let grouped: Vec<Vec<(DeviceSet, bool)>> = per_step
        .iter()
        .map(|classes| {
            let mut groups: Vec<(DeviceSet, bool)> = Vec::new();
            let massive: DeviceSet = classes
                .iter()
                .filter(|&&(_, class)| class == AnomalyClass::Massive)
                .map(|&(id, _)| id)
                .collect();
            if !massive.is_empty() {
                groups.push((massive, true));
            }
            let mut isolated: Vec<DeviceId> = classes
                .iter()
                .filter(|&&(_, class)| class == AnomalyClass::Isolated)
                .map(|&(id, _)| id)
                .collect();
            isolated.sort_unstable();
            for id in isolated {
                groups.push((DeviceSet::singleton(id), false));
            }
            groups
        })
        .collect();
    score::link_event_spans(grouped.iter().map(|g| g.iter()))
}

/// Method label of the paper's pipeline driven through the batch front-end.
const PAPER_METHOD: &str = "paper-sequential";

/// Method label of the paper's pipeline driven through the streaming
/// front-end.
const PAPER_STREAMING_METHOD: &str = "paper-streaming-sequential";

/// Evaluates the paper's pipeline on a scenario: builds a [`Monitor`] from
/// the scenario's spec (threshold detectors at the spec's delta), drives
/// it over the generated run — applying churn between segments — and
/// scores every per-step report against the ground truth.
///
/// # Errors
///
/// Propagates generator and monitor failures.
///
/// [`Monitor`]: anomaly_characterization::pipeline::Monitor
pub fn evaluate_monitor(scenario: &dyn Scenario) -> Result<ScenarioScore, EvalError> {
    evaluate_monitor_on(&scenario.spec(), &scenario.generate()?)
}

/// [`evaluate_monitor`] over a pre-generated run — use this to score
/// several methods on one `generate()` call (generation of a large fleet
/// dwarfs the scoring itself).
///
/// # Errors
///
/// Propagates monitor failures.
pub fn evaluate_monitor_on(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
) -> Result<ScenarioScore, EvalError> {
    let reports = drive_monitor(spec, run)?;
    Ok(score_reports(spec, run, PAPER_METHOD, &reports))
}

/// Drives the standard evaluation monitor over a run (applying churn
/// between segments) and returns the per-step reports.
fn drive_monitor(spec: &ScenarioSpec, run: &ScenarioRun) -> Result<Vec<Report>, EvalError> {
    let mut monitor = build_monitor(spec, StalenessPolicy::Reject)?;
    let mut reports: Vec<Report> = Vec::with_capacity(run.steps.len());
    let mut next = 0usize;
    for churn in &run.churn {
        let end = (churn.after_step + 1).clamp(next, run.steps.len());
        if next < end {
            reports.extend(monitor.run_scenario(&run.steps[next..end])?);
            next = end;
        }
        for &key in &churn.leaves {
            monitor.leave(key)?;
        }
        for &key in &churn.joins {
            monitor.join(key)?;
        }
    }
    if next < run.steps.len() {
        reports.extend(monitor.run_scenario(&run.steps[next..])?);
    }
    Ok(reports)
}

/// `Aux` record tag of an evaluation capture: the payload maps each
/// scenario step to the sealed-epoch instant its report carried, which is
/// what lets [`evaluate_log_on`] translate the log's epoch-coordinate
/// events back into the step coordinates the ground truth speaks.
const EVAL_AUX_TAG: &[u8; 4] = b"EVL1";

/// [`evaluate_monitor_on`] that additionally persists the run into an
/// [`EventLog`] on `sink`: one summary record per sealed epoch (bridging
/// epochs included — exactly the stream a live daemon writes), every
/// closed event as it closes, a step-map `Aux` record, and the still-open
/// events at the end. Returns the live score together with the finished
/// writer; [`evaluate_log_on`] replays the log offline and reproduces the
/// score's event cell.
///
/// # Errors
///
/// Propagates monitor failures and log I/O failures.
pub fn record_monitor_log<W: std::io::Write>(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    sink: W,
) -> Result<(ScenarioScore, W), EvalError> {
    let mut monitor = build_monitor(spec, StalenessPolicy::Reject)?;
    let mut log = EventLog::create(sink)?;
    let mut reports: Vec<Report> = Vec::with_capacity(run.steps.len());
    let mut step_epochs: Vec<u64> = Vec::with_capacity(run.steps.len());

    fn feed_logged<W: std::io::Write>(
        monitor: &mut Monitor,
        log: &mut EventLog<W>,
        reports: &mut Vec<Report>,
        step_epochs: &mut Vec<u64>,
        steps: &[anomaly_simulator::trace::TraceStep],
    ) -> Result<(), EvalError> {
        for step in steps {
            if monitor.last_snapshot() != Some(step.pair.before()) {
                let bridging = monitor.observe(step.pair.before().clone())?;
                log.record_seal(monitor, &bridging)?;
            }
            let report = monitor.observe(step.pair.after().clone())?;
            log.record_seal(monitor, &report)?;
            step_epochs.push(report.instant());
            reports.push(report);
        }
        Ok(())
    }

    let mut next = 0usize;
    for churn in &run.churn {
        let end = (churn.after_step + 1).clamp(next, run.steps.len());
        if next < end {
            feed_logged(
                &mut monitor,
                &mut log,
                &mut reports,
                &mut step_epochs,
                &run.steps[next..end],
            )?;
            next = end;
        }
        for &key in &churn.leaves {
            monitor.leave(key)?;
        }
        for &key in &churn.joins {
            monitor.join(key)?;
        }
    }
    if next < run.steps.len() {
        feed_logged(
            &mut monitor,
            &mut log,
            &mut reports,
            &mut step_epochs,
            &run.steps[next..],
        )?;
    }

    let mut aux = Enc::new();
    aux.bytes(EVAL_AUX_TAG);
    aux.u64s(&step_epochs);
    log.append_aux(&aux.into_bytes())?;
    let writer = log.finish(&monitor)?;

    Ok((score_reports(spec, run, PAPER_METHOD, &reports), writer))
}

/// Replays a persisted event/summary log through the event-scoring
/// machinery: the log's event records are translated from sealed-epoch
/// coordinates into step coordinates via the capture's step-map `Aux`
/// record and scored against the run's ground-truth spans, reproducing
/// the `events` cell a live [`evaluate_monitor_on`] run commits to
/// `BENCH_eval.json`.
///
/// Device keys are assumed dense and stable (`DeviceKey(k)` ↔ the dense
/// `DeviceId(k)` the ground truth speaks), which holds for every
/// workbench scenario; under membership churn the key→slot mapping
/// shifts and event cells are not comparable.
///
/// # Errors
///
/// [`EvalError::Log`] when the log is not an evaluation capture (no
/// step-map record); monitor-level errors when the log is corrupt or
/// truncated.
pub fn evaluate_log_on<R: std::io::Read>(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    source: R,
) -> Result<EventConfusion, EvalError> {
    let persisted = read_log(source)?;
    let step_epochs = persisted
        .aux
        .iter()
        .rev()
        .find_map(|payload| {
            let mut dec = Dec::new(payload);
            let tag = dec.bytes("aux.tag").ok()?;
            if tag != EVAL_AUX_TAG {
                return None;
            }
            dec.u64s("aux.step_epochs").ok()
        })
        .ok_or_else(|| EvalError::Log {
            reason: "log holds no evaluation step-map record \
                     (was it captured by record_monitor_log?)"
                .to_string(),
        })?;
    let mut spans: Vec<EventSpan> = Vec::new();
    for event in &persisted.events {
        // First step at or after the event's onset epoch, last step at or
        // before its last active epoch: bridging-epoch activity collapses
        // onto the neighbouring step, exactly like the live report feed.
        let Some(onset) = step_epochs.iter().position(|&e| e >= event.onset) else {
            continue;
        };
        let Some(last) = step_epochs.iter().rposition(|&e| e <= event.last_active) else {
            continue;
        };
        if last < onset {
            continue;
        }
        let devices: DeviceSet = event
            .devices
            .iter()
            .map(|key| DeviceId(key.0 as u32))
            .collect();
        let massive = event.class == AnomalyClass::Massive
            || event
                .transitions
                .iter()
                .any(|t| t.from == AnomalyClass::Massive || t.to == AnomalyClass::Massive);
        spans.push(EventSpan {
            onset,
            last,
            devices,
            massive,
        });
    }
    Ok(score::score_events(&truth_spans(spec, run), &spans))
}

/// Reads a log written by [`record_monitor_log`] from `path`, regenerates
/// the scenario, and scores the log's events against the ground truth —
/// the offline counterpart of a live evaluation's `events` cell.
///
/// # Errors
///
/// [`EvalError::Log`] on an unreadable file or a log without a step-map
/// record; generator and monitor errors otherwise.
pub fn evaluate_log(
    path: impl AsRef<std::path::Path>,
    scenario: &dyn Scenario,
) -> Result<EventConfusion, EvalError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| EvalError::Log {
        reason: format!("cannot open {}: {e}", path.display()),
    })?;
    let run = scenario.generate()?;
    evaluate_log_on(&scenario.spec(), &run, std::io::BufReader::new(file))
}

/// [`evaluate_monitor_on`] plus alert-pipeline quality: every sealed
/// report — the per-step ones *and* the bridging observations
/// `run_scenario` discards — is folded through an [`AlertSink`] over the
/// scenario's ISP tree (`shape` = cores, aggregations per core, DSLAMs
/// per aggregation, gateways per DSLAM — the scenario population must
/// equal the resulting gateway count), exactly the epoch stream a live
/// serve loop would see, and the resulting notification stream is scored
/// against the ground-truth event spans.
///
/// # Errors
///
/// Propagates monitor failures.
pub fn evaluate_monitor_alerts_on(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    shape: (usize, usize, usize, usize),
) -> Result<ScenarioScore, EvalError> {
    let (cores, aggs, dslams, gateways) = shape;
    // Offline scoring never throttles: the bucket refills a full
    // notification's worth of tokens per epoch and holds a deep reserve,
    // so the numbers measure detection and dedup, not the rate limiter.
    let config = AlertConfig {
        dedup_window: 16,
        bucket_capacity: 1024,
        refill_millitokens: 1_000_000,
    };
    let mut sink = AlertSink::new(
        Topology::tree(cores, aggs, dslams, gateways),
        KeyMap::GatewayIndex,
        config,
    );
    let mut monitor = build_monitor(spec, StalenessPolicy::Reject)?;
    let mut reports: Vec<Report> = Vec::with_capacity(run.steps.len());
    // Step coordinate of every page/recurrence notification. Bridging
    // observations carry the upcoming step's coordinate — their closes
    // and recoveries belong to the span that just ended, which the
    // matching slack below absorbs.
    let mut notify_steps: Vec<usize> = Vec::new();

    fn feed_steps(
        monitor: &mut Monitor,
        sink: &mut AlertSink,
        reports: &mut Vec<Report>,
        notify_steps: &mut Vec<usize>,
        steps: &[anomaly_simulator::trace::TraceStep],
        base: usize,
    ) -> Result<(), EvalError> {
        for (offset, step) in steps.iter().enumerate() {
            if monitor.last_snapshot() != Some(step.pair.before()) {
                let bridging = monitor.observe(step.pair.before().clone())?;
                note_pages(sink.observe(&bridging), base + offset, notify_steps);
            }
            let report = monitor.observe(step.pair.after().clone())?;
            note_pages(sink.observe(&report), base + offset, notify_steps);
            reports.push(report);
        }
        Ok(())
    }

    let mut next = 0usize;
    for churn in &run.churn {
        let end = (churn.after_step + 1).clamp(next, run.steps.len());
        if next < end {
            feed_steps(
                &mut monitor,
                &mut sink,
                &mut reports,
                &mut notify_steps,
                &run.steps[next..end],
                next,
            )?;
            next = end;
        }
        for &key in &churn.leaves {
            monitor.leave(key)?;
        }
        for &key in &churn.joins {
            monitor.join(key)?;
        }
    }
    if next < run.steps.len() {
        feed_steps(
            &mut monitor,
            &mut sink,
            &mut reports,
            &mut notify_steps,
            &run.steps[next..],
            next,
        )?;
    }

    let mut score = score_reports(spec, run, PAPER_METHOD, &reports);
    score.alerts = Some(alert_quality(spec, run, &sink, &notify_steps));
    Ok(score)
}

/// Records the step coordinate of each page/recurrence in `actions`.
fn note_pages(actions: Vec<anomaly_serve::AlertAction>, step: usize, out: &mut Vec<usize>) {
    for action in actions {
        if matches!(action.kind, AlertActionKind::Page | AlertActionKind::Recur) {
            out.push(step);
        }
    }
}

/// Steps of slack when matching a notification to a truth span: repairs
/// and debounced closes notify one to two steps after the span ends.
const PAGE_MATCH_SLACK: usize = 2;

/// Scores a sink's page/recurrence stream against the run's ground-truth
/// spans by step-window matching.
fn alert_quality(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    sink: &AlertSink,
    notify_steps: &[usize],
) -> AlertQuality {
    let truth = truth_spans(spec, run);
    let mut matched_notifications = 0u64;
    let mut paged = vec![false; truth.len()];
    for &step in notify_steps {
        let mut hit = false;
        for (i, span) in truth.iter().enumerate() {
            if span.onset <= step && step <= span.last + PAGE_MATCH_SLACK {
                paged[i] = true;
                hit = true;
            }
        }
        matched_notifications += u64::from(hit);
    }
    AlertQuality {
        truth_events: truth.len() as u64,
        alerts: sink.alerts_created(),
        pages: sink.pages_emitted(),
        recurrences: sink.recurrences(),
        resolved: sink.resolved(),
        distinct_signatures: sink.distinct_signatures() as u64,
        matched_notifications,
        notifications: notify_steps.len() as u64,
        paged_events: paged.iter().filter(|&&p| p).count() as u64,
    }
}

/// Builds the standard evaluation monitor for a scenario spec.
fn build_monitor(spec: &ScenarioSpec, staleness: StalenessPolicy) -> Result<Monitor, EvalError> {
    let services = spec.services;
    let delta = spec.detector_delta;
    Ok(MonitorBuilder::new()
        .params(spec.params)
        .services(services)
        .staleness(staleness)
        // Debounce 1 absorbs exactly the single discarded bridging epoch a
        // non-chained scenario inserts between steps, so "consecutive
        // steps" means the same thing to the tracker as to the
        // ground-truth event linker.
        .debounce(1)
        .history(64)
        .detector_factory(move |_| {
            Box::new(VectorDetector::homogeneous(services, move || {
                ThresholdDetector::with_delta(delta)
            }))
        })
        .fleet(spec.population)
        .build()?)
}

/// Scores a monitor's per-step reports against a run's ground truth, on
/// both axes: per-device confusion and event-level span matching.
fn score_reports(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    method: &str,
    reports: &[Report],
) -> ScenarioScore {
    let per_step: Vec<Confusion> = run
        .steps
        .iter()
        .zip(reports)
        .map(|(step, report)| {
            let verdicts: Vec<(DeviceId, AnomalyClass)> = report
                .verdicts()
                .iter()
                .map(|v| (v.id, v.class()))
                .collect();
            score_one_step(spec, &step.truth, &verdicts)
        })
        .collect();
    let events = score::score_events(&truth_spans(spec, run), &spans_from_reports(reports));
    aggregate(spec.clone(), method.to_string(), per_step, events)
}

/// Evaluates the paper's pipeline over a scenario replayed through the
/// **streaming** front-end: each step's snapshot is decomposed into
/// per-device `(key, measurements)` updates, shuffled with the adapter's
/// seed-fixed RNG, optionally dropped, ingested one by one, and sealed —
/// then scored exactly like [`evaluate_monitor`].
///
/// With [`StreamingScenario::drop_probability`]` == 0` the resulting
/// metrics are byte-identical to the batch path (asserted here — the run
/// fails loudly if the equivalence ever breaks); with drops the monitor
/// runs under `StalenessPolicy::CarryForward` and the score quantifies the
/// degradation.
///
/// # Errors
///
/// Propagates generator and monitor failures (including
/// `MonitorError::Ingest` when a drop streak exceeds
/// [`StreamingScenario::max_age`]).
pub fn evaluate_monitor_streaming<S: Scenario>(
    scenario: &StreamingScenario<S>,
) -> Result<ScenarioScore, EvalError> {
    let spec = scenario.spec();
    let run = scenario.generate()?;
    let streamed = evaluate_monitor_streaming_on(
        &spec,
        &run,
        scenario.shuffle_seed,
        scenario.drop_probability,
        scenario.max_age,
    )?;
    if scenario.drop_probability == 0.0 {
        let batch = evaluate_monitor_on(&spec, &run)?;
        assert_eq!(
            batch.metrics_json(),
            streamed.metrics_json(),
            "{}: lossless streaming replay diverged from the batch path",
            spec.name
        );
    }
    Ok(streamed)
}

/// [`evaluate_monitor_streaming`] over a pre-generated run.
///
/// # Errors
///
/// Propagates monitor failures.
pub fn evaluate_monitor_streaming_on(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    shuffle_seed: u64,
    drop_probability: f64,
    max_age: u64,
) -> Result<ScenarioScore, EvalError> {
    let staleness = if drop_probability > 0.0 {
        StalenessPolicy::CarryForward { max_age }
    } else {
        StalenessPolicy::Reject
    };
    let mut monitor = build_monitor(spec, staleness)?;
    let mut rng = StdRng::seed_from_u64(shuffle_seed);
    // Keys with at least one sealed position: only they can be dropped
    // (carry-forward needs a row to bridge with).
    let mut established: BTreeSet<u64> = BTreeSet::new();

    /// Streams one snapshot's rows into the monitor (shuffled, lossy for
    /// established devices) and seals the epoch.
    fn stream_snapshot(
        monitor: &mut Monitor,
        rng: &mut StdRng,
        established: &mut BTreeSet<u64>,
        snapshot: &anomaly_qos::Snapshot,
        drop_probability: f64,
    ) -> Result<Report, EvalError> {
        let keys = monitor.keys().to_vec();
        let mut updates: Vec<(u64, Vec<f64>)> = snapshot
            .iter()
            .map(|(id, p)| (keys[id.index()].0, p.to_vec()))
            .collect();
        updates.shuffle(rng);
        for (key, row) in updates {
            if drop_probability > 0.0
                && established.contains(&key)
                && rng.gen_bool(drop_probability)
            {
                continue;
            }
            monitor.ingest(key, row)?;
        }
        let report = monitor.seal()?;
        established.extend(monitor.keys().iter().map(|k| k.0));
        Ok(report)
    }

    // Whether each step chains onto the previous one, judged from the
    // run itself (after of step i-1 == before of step i) rather than from
    // the monitor's sealed state: a lossy seal carries stale rows, and
    // comparing against it would misread every step after the first drop
    // as a recording gap (feeding spurious bridging epochs and double
    // drop-draws). For a lossless replay the two checks coincide, so the
    // batch-path equivalence is unchanged.
    let chained: Vec<bool> = run
        .steps
        .iter()
        .enumerate()
        .map(|(i, step)| i > 0 && run.steps[i - 1].pair.after() == step.pair.before())
        .collect();

    let mut reports: Vec<Report> = Vec::with_capacity(run.steps.len());
    let stream_steps = |monitor: &mut Monitor,
                        rng: &mut StdRng,
                        established: &mut BTreeSet<u64>,
                        steps: &[anomaly_simulator::trace::TraceStep],
                        base: usize|
     -> Result<Vec<Report>, EvalError> {
        let mut out = Vec::with_capacity(steps.len());
        for (offset, step) in steps.iter().enumerate() {
            if !chained[base + offset] {
                // Gap-bridging observation, discarded like `run_scenario`'s.
                stream_snapshot(
                    monitor,
                    rng,
                    established,
                    step.pair.before(),
                    drop_probability,
                )?;
            }
            out.push(stream_snapshot(
                monitor,
                rng,
                established,
                step.pair.after(),
                drop_probability,
            )?);
        }
        Ok(out)
    };

    let mut next = 0usize;
    for churn in &run.churn {
        let end = (churn.after_step + 1).clamp(next, run.steps.len());
        if next < end {
            reports.extend(stream_steps(
                &mut monitor,
                &mut rng,
                &mut established,
                &run.steps[next..end],
                next,
            )?);
            next = end;
        }
        for &key in &churn.leaves {
            monitor.leave(key)?;
            established.remove(&key);
        }
        for &key in &churn.joins {
            monitor.join(key)?;
        }
    }
    if next < run.steps.len() {
        reports.extend(stream_steps(
            &mut monitor,
            &mut rng,
            &mut established,
            &run.steps[next..],
            next,
        )?);
    }

    Ok(score_reports(spec, run, PAPER_STREAMING_METHOD, &reports))
}

/// Evaluates a centralized baseline on the identical scenario: each step's
/// ground-truth abnormal set is handed to the classifier (its classical
/// operating assumption — it needs the abnormal set collected at a
/// management node), and its answers are scored with the same confusion
/// types.
///
/// # Errors
///
/// Propagates generator failures.
pub fn evaluate_classifier(
    scenario: &dyn Scenario,
    classifier: &dyn Classifier,
) -> Result<ScenarioScore, EvalError> {
    Ok(evaluate_classifier_on(
        &scenario.spec(),
        &scenario.generate()?,
        classifier,
    ))
}

/// [`evaluate_classifier`] over a pre-generated run — use this to score
/// several baselines on one `generate()` call.
pub fn evaluate_classifier_on(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    classifier: &dyn Classifier,
) -> ScenarioScore {
    let mut step_classes: Vec<Vec<(DeviceId, AnomalyClass)>> = Vec::with_capacity(run.steps.len());
    let per_step: Vec<Confusion> = run
        .steps
        .iter()
        .map(|step| {
            let mut abnormal: Vec<DeviceId> = step.truth.abnormal_devices().iter().collect();
            abnormal.sort_unstable();
            let classes = classifier.classify(&step.pair, &abnormal);
            let confusion = score_one_step(spec, &step.truth, &classes);
            step_classes.push(classes);
            confusion
        })
        .collect();
    let events = score::score_events(
        &truth_spans(spec, run),
        &spans_from_step_classes(&step_classes),
    );
    aggregate(spec.clone(), classifier.name(), per_step, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{ChurnScenario, FleetScenario, NetworkFaultScenario};

    use anomaly_baselines::TessellationClassifier;
    use anomaly_core::Params;
    use anomaly_simulator::FleetSpec;

    fn fleet_scenario() -> FleetScenario {
        FleetScenario {
            name: "fleet".into(),
            fleet: FleetSpec {
                devices: 500,
                services: 2,
                massive_clusters: 2,
                cluster_size: 6,
                isolated: 4,
                cohesion: 0.05,
                calm_activity: 0.4,
                jitter: 0.02,
                shift: 0.3,
                seed: 21,
            },
            steps: 3,
            params: Params::new(0.03, 3).unwrap(),
        }
    }

    #[test]
    fn monitor_evaluation_scores_every_truth_device() {
        let scenario = fleet_scenario();
        let score = evaluate_monitor(&scenario).unwrap();
        assert_eq!(score.scenario, "fleet");
        assert_eq!(score.method, "paper-sequential");
        assert_eq!(score.steps, 3);
        let truth_total: u64 = scenario
            .generate()
            .unwrap()
            .steps
            .iter()
            .map(|s| s.truth.abnormal_devices().len() as u64)
            .sum();
        assert_eq!(score.confusion.total(), truth_total);
        // The generator's clusters and loners are well separated: the
        // pipeline should be very accurate here.
        assert!(
            score.macro_f1() > 0.9,
            "fleet macro F1 {:.3}",
            score.macro_f1()
        );
        assert_eq!(score.instants.len(), 3);
    }

    #[test]
    fn network_evaluation_beats_or_meets_a_degenerate_baseline() {
        let scenario = NetworkFaultScenario::small_mixed("net", 3, 4);
        let paper = evaluate_monitor(&scenario).unwrap();
        let degenerate = TessellationClassifier::new(1, 3);
        let baseline = evaluate_classifier(&scenario, &degenerate).unwrap();
        assert_eq!(paper.confusion.total(), baseline.confusion.total());
        assert!(
            paper.macro_f1() >= baseline.macro_f1(),
            "paper {:.3} vs 1-cell tessellation {:.3}",
            paper.macro_f1(),
            baseline.macro_f1()
        );
        // A 1-cell tessellation calls every CPE fault massive.
        assert!(baseline.confusion.mistaken() > 0);
    }

    #[test]
    fn churn_is_applied_between_segments() {
        let scenario = ChurnScenario {
            fleet: fleet_scenario(),
            churn_devices: 25,
            churn_every: 1,
        };
        let churned = evaluate_monitor(&scenario).unwrap();
        assert_eq!(churned.steps, 3);
        // Every truth device is still accounted for: joiners that flag
        // while warming are scored as missing, not dropped.
        let truth_total: u64 = scenario
            .generate()
            .unwrap()
            .steps
            .iter()
            .map(|s| s.truth.abnormal_devices().len() as u64)
            .sum();
        assert_eq!(churned.confusion.total(), truth_total);
    }

    #[test]
    fn lossless_streaming_replay_matches_the_batch_path() {
        let scenario = StreamingScenario::shuffled(fleet_scenario(), 77);
        let streamed = evaluate_monitor_streaming(&scenario).unwrap();
        // evaluate_monitor_streaming already asserts byte equality with the
        // batch path internally; double-check the visible surface.
        let batch = evaluate_monitor(&scenario.inner).unwrap();
        assert_eq!(batch.metrics_json(), streamed.metrics_json());
        assert_eq!(streamed.method, "paper-streaming-sequential");
    }

    #[test]
    fn lossy_streaming_replay_still_scores_every_truth_device() {
        let scenario = StreamingScenario {
            inner: fleet_scenario(),
            shuffle_seed: 78,
            drop_probability: 0.2,
            max_age: 8,
        };
        let streamed = evaluate_monitor_streaming(&scenario).unwrap();
        let truth_total: u64 = scenario
            .generate()
            .unwrap()
            .steps
            .iter()
            .map(|s| s.truth.abnormal_devices().len() as u64)
            .sum();
        assert_eq!(streamed.confusion.total(), truth_total);
    }

    #[test]
    fn json_renderings_are_stable() {
        let score = evaluate_monitor(&fleet_scenario()).unwrap();
        let json = score.to_json();
        assert!(json.contains("\"scenario\":\"fleet\""));
        assert!(json.contains("\"method\":\"paper-sequential\""));
        assert!(json.contains("\"macro_f1\""));
        assert!(json.contains("\"event_f1\""));
        assert!(json.contains("\"mean_detection_latency\""));
        assert_eq!(json, score.to_json());
        assert!(score.metrics_json().starts_with("{\"steps\":3"));
    }

    #[test]
    fn persistent_anomalies_are_tracked_as_single_events() {
        use crate::workloads::PersistentAnomalyScenario;
        let scenario = PersistentAnomalyScenario {
            devices: 120,
            ..PersistentAnomalyScenario::standard("persist-eval", 31)
        };
        let score = evaluate_monitor(&scenario).unwrap();
        // Device-level: the well-separated cluster and flappers classify
        // cleanly.
        assert!(
            score.macro_f1() > 0.9,
            "persistent macro F1 {:.3}",
            score.macro_f1()
        );
        // Event-level: every ground-truth event is found, nothing spurious
        // is invented, and detection is immediate (the detectors flag the
        // very first anomalous jump).
        assert_eq!(score.events.recall(), 1.0, "{:?}", score.events);
        assert_eq!(score.events.precision(), 1.0, "{:?}", score.events);
        assert_eq!(score.events.mean_latency(), 0.0, "{:?}", score.events);
        // The tracker correlates: the 5-step cluster outage and the
        // flappers' recurrences produce *fewer* predicted events than
        // truth spans (debounce merges recurrences), never more.
        assert!(
            score.events.predicted_events <= score.events.truth_events,
            "{:?}",
            score.events
        );
        assert!(score.events.predicted_events > scenario.flappers as u64);
    }

    #[test]
    fn alert_quality_scores_the_network_scenario() {
        let scenario = NetworkFaultScenario::small_mixed("net-alerts", 3, 4);
        let shape = scenario.config.shape;
        let run = scenario.generate().unwrap();
        let spec = scenario.spec();
        let plain = evaluate_monitor_on(&spec, &run).unwrap();
        let scored = evaluate_monitor_alerts_on(&spec, &run, shape).unwrap();
        // The alert fold rides along without disturbing the base metrics.
        assert_eq!(plain.confusion, scored.confusion);
        assert!(plain.alerts.is_none());
        let quality = scored.alerts.expect("alert quality attached");
        assert!(quality.truth_events > 0);
        assert!(quality.alerts > 0, "{quality:?}");
        // The scenario faults every step, so consecutive outages roll
        // into continuing incidents: recall is bounded by dedup, not
        // detection — half the truth spans fold into ongoing alerts.
        assert!(
            quality.page_recall() >= 0.5,
            "onsets must page: {quality:?}"
        );
        assert!(quality.resolved >= 1, "{quality:?}");
        assert!(quality.distinct_signatures >= 1, "{quality:?}");
        assert!(
            quality.page_precision() > 0.5,
            "pages should land inside truth spans: {quality:?}"
        );
        let json = scored.metrics_json();
        assert!(json.contains("\"alerts\":{\"truth_events\""), "{json}");
        assert!(json.contains("\"page_f1\""), "{json}");
    }

    #[test]
    fn baseline_event_spans_come_from_linked_step_groups() {
        let scenario = fleet_scenario();
        let baseline = TessellationClassifier::new(16, 3);
        let score = evaluate_classifier(&scenario, &baseline).unwrap();
        assert!(score.events.predicted_events > 0);
        assert!(score.events.truth_events > 0);
        let json = score.metrics_json();
        assert!(json.contains("\"events\":{\"truth_events\""), "{json}");
    }
}
