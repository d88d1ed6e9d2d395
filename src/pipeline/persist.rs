//! Durable monitor state: binary checkpoints and the append-only
//! event/summary log, built on the dependency-free [`anomaly_store`]
//! framing (`pub use`d as [`crate::store`]).
//!
//! Two record families make a monitor's life resumable:
//!
//! * **Checkpoints** ([`Monitor::checkpoint`] / [`Monitor::restore`]) — a
//!   configuration header followed by the full resumable state: fleet
//!   keys, per-device detector state, frozen verdicts, the last sealed
//!   snapshot, the open epoch with its staleness ages, the event tracker
//!   (ids are never recycled across a restore), and the epoch clock. A
//!   monitor restored from a checkpoint continues the report, event-delta,
//!   and summary streams **byte-identically** to the uninterrupted run —
//!   pinned by `tests/checkpoint_restore.rs`.
//! * **Event/summary records** ([`EventLog`]) — every sealed epoch's
//!   [`ReportSummary`] and every closed [`AnomalyEvent`], appended as they
//!   happen, so the log replays the monitor's observable history without
//!   decoding any checkpoint.
//!
//! Restore is deny-by-default: the header carries every behavioural knob
//! (`radius`, `tau`, `services`, `norm`, `max_population`, `staleness`,
//! `debounce`, `history`), and a builder that disagrees on any of them
//! fails with [`MonitorError::CheckpointMismatch`] naming the field —
//! resuming under a different configuration would silently diverge from
//! the run that wrote the checkpoint. [`Engine`](super::Engine) is not a
//! knob: the builder ignores it, so there is nothing to reconcile.

use super::builder::MonitorBuilder;
use super::error::MonitorError;
use super::events::{AnomalyEvent, ClassTransition, EventDeltaKind, EventId};
use super::ingest::StalenessPolicy;
use super::key::DeviceKey;
use super::monitor::Monitor;
use super::report::{Report, ReportSummary};
use anomaly_core::AnomalyClass;
use anomaly_detectors::StateError;
use anomaly_qos::NormKind;
use anomaly_store::{Dec, DecodeError, Enc, LogReader, LogWriter, RecordKind};
use std::io::{Read, Write};

/// Maps a detector-state failure onto the monitor's error surface: a
/// parameter mismatch keeps its field name (the checkpoint was written
/// under a different detector configuration); everything else is a
/// malformed payload.
pub(super) fn state_error(e: StateError) -> MonitorError {
    match e {
        StateError::ParamMismatch { field } => MonitorError::CheckpointMismatch { field },
        other => MonitorError::Persist {
            detail: format!("detector state does not decode: {other}"),
        },
    }
}

/// A checkpointed table covers a different number of devices than the
/// fleet it is being restored into.
pub(super) fn shape_error(what: &str, actual: usize, expected: usize) -> MonitorError {
    MonitorError::Persist {
        detail: format!("checkpointed {what} covers {actual} entries, expected {expected}"),
    }
}

fn class_code(class: AnomalyClass) -> u8 {
    match class {
        AnomalyClass::Isolated => 0,
        AnomalyClass::Massive => 1,
        AnomalyClass::Unresolved => 2,
    }
}

fn decode_class(dec: &mut Dec<'_>, field: &'static str) -> Result<AnomalyClass, DecodeError> {
    Ok(match dec.tag(field, 3)? {
        0 => AnomalyClass::Isolated,
        1 => AnomalyClass::Massive,
        _ => AnomalyClass::Unresolved,
    })
}

fn norm_code(norm: NormKind) -> u8 {
    match norm {
        NormKind::Uniform => 0,
        NormKind::L1 => 1,
        NormKind::L2 => 2,
    }
}

fn decode_norm(dec: &mut Dec<'_>) -> Result<NormKind, DecodeError> {
    Ok(match dec.tag("header.norm", 3)? {
        0 => NormKind::Uniform,
        1 => NormKind::L1,
        _ => NormKind::L2,
    })
}

fn encode_staleness(enc: &mut Enc, policy: &StalenessPolicy) {
    match policy {
        StalenessPolicy::Reject => enc.u8(0),
        StalenessPolicy::CarryForward { max_age } => {
            enc.u8(1);
            enc.u64(*max_age);
        }
        StalenessPolicy::Default(row) => {
            enc.u8(2);
            enc.f64s(row);
        }
    }
}

fn decode_staleness(dec: &mut Dec<'_>) -> Result<StalenessPolicy, DecodeError> {
    Ok(match dec.tag("header.staleness", 3)? {
        0 => StalenessPolicy::Reject,
        1 => StalenessPolicy::CarryForward {
            max_age: dec.u64("header.staleness")?,
        },
        _ => StalenessPolicy::Default(dec.f64s("header.staleness")?),
    })
}

fn keys_of(devices: &[DeviceKey]) -> Vec<u64> {
    devices.iter().map(|k| k.0).collect()
}

/// Serializes one anomaly event (open or closed).
pub(super) fn encode_event(enc: &mut Enc, event: &AnomalyEvent) {
    enc.u64(event.id.0);
    enc.u64(event.onset);
    enc.u64(event.last_active);
    enc.opt_u64(event.end);
    enc.u8(class_code(event.class));
    enc.usize(event.transitions.len());
    for t in &event.transitions {
        enc.u64(t.epoch);
        enc.u8(class_code(t.from));
        enc.u8(class_code(t.to));
    }
    enc.u64s(&keys_of(&event.devices));
    enc.u64s(&keys_of(&event.active));
    enc.usize(event.peak_active);
    enc.u64(event.epochs_active);
    enc.opt_u64(event.component.map(u64::from));
}

/// Reads back one event written by [`encode_event`].
pub(super) fn decode_event(dec: &mut Dec<'_>) -> Result<AnomalyEvent, DecodeError> {
    let id = EventId(dec.u64("event.id")?);
    let onset = dec.u64("event.onset")?;
    let last_active = dec.u64("event.last_active")?;
    let end = dec.opt_u64("event.end")?;
    let class = decode_class(dec, "event.class")?;
    let transitions_n = dec.seq_len("event.transitions")?;
    let mut transitions = Vec::with_capacity(transitions_n.min(1 << 16));
    for _ in 0..transitions_n {
        transitions.push(ClassTransition {
            epoch: dec.u64("event.transitions")?,
            from: decode_class(dec, "event.transitions")?,
            to: decode_class(dec, "event.transitions")?,
        });
    }
    let devices = dec
        .u64s("event.devices")?
        .into_iter()
        .map(DeviceKey)
        .collect();
    let active = dec
        .u64s("event.active")?
        .into_iter()
        .map(DeviceKey)
        .collect();
    let peak_active = dec.usize("event.peak_active")?;
    let epochs_active = dec.u64("event.epochs_active")?;
    let component = match dec.opt_u64("event.component")? {
        None => None,
        Some(c) => Some(u32::try_from(c).map_err(|_| DecodeError {
            offset: 0,
            field: "event.component",
        })?),
    };
    Ok(AnomalyEvent {
        id,
        onset,
        last_active,
        end,
        class,
        transitions,
        devices,
        active,
        peak_active,
        epochs_active,
        component,
    })
}

/// Serializes one epoch summary, field order pinned to the struct.
pub(super) fn encode_summary(enc: &mut Enc, s: &ReportSummary) {
    enc.u64(s.instant);
    enc.usize(s.population);
    enc.usize(s.abnormal);
    enc.usize(s.isolated);
    enc.usize(s.massive);
    enc.usize(s.unresolved);
    enc.usize(s.warming);
    enc.usize(s.stragglers);
    enc.usize(s.components);
    enc.usize(s.events_open);
    enc.usize(s.events_opened);
    enc.usize(s.events_closed);
    enc.u64(s.detection_micros);
    enc.u64(s.characterization_micros);
}

/// Reads back one summary written by [`encode_summary`].
pub(super) fn decode_summary(dec: &mut Dec<'_>) -> Result<ReportSummary, DecodeError> {
    Ok(ReportSummary {
        instant: dec.u64("summary.instant")?,
        population: dec.usize("summary.population")?,
        abnormal: dec.usize("summary.abnormal")?,
        isolated: dec.usize("summary.isolated")?,
        massive: dec.usize("summary.massive")?,
        unresolved: dec.usize("summary.unresolved")?,
        warming: dec.usize("summary.warming")?,
        stragglers: dec.usize("summary.stragglers")?,
        components: dec.usize("summary.components")?,
        events_open: dec.usize("summary.events_open")?,
        events_opened: dec.usize("summary.events_opened")?,
        events_closed: dec.usize("summary.events_closed")?,
        detection_micros: dec.u64("summary.detection_micros")?,
        characterization_micros: dec.u64("summary.characterization_micros")?,
    })
}

/// The configuration header every checkpoint payload opens with.
fn encode_header(enc: &mut Enc, monitor: &Monitor) {
    enc.f64(monitor.params().radius());
    enc.u64(monitor.params().tau() as u64);
    enc.u64(monitor.services() as u64);
    enc.u8(norm_code(monitor.norm()));
    enc.u64(monitor.max_population());
    encode_staleness(enc, monitor.staleness());
    enc.u64(monitor.events().debounce());
    enc.u64(monitor.events().window() as u64);
}

/// Reconciles the checkpoint's header against a freshly built monitor,
/// naming the first disagreeing knob.
fn verify_header(dec: &mut Dec<'_>, monitor: &Monitor) -> Result<(), MonitorError> {
    if dec.f64("header.radius")?.to_bits() != monitor.params().radius().to_bits() {
        return Err(MonitorError::CheckpointMismatch { field: "radius" });
    }
    if dec.u64("header.tau")? != monitor.params().tau() as u64 {
        return Err(MonitorError::CheckpointMismatch { field: "tau" });
    }
    if dec.u64("header.services")? != monitor.services() as u64 {
        return Err(MonitorError::CheckpointMismatch { field: "services" });
    }
    if decode_norm(dec)? != monitor.norm() {
        return Err(MonitorError::CheckpointMismatch { field: "norm" });
    }
    if dec.u64("header.max_population")? != monitor.max_population() {
        return Err(MonitorError::CheckpointMismatch {
            field: "max_population",
        });
    }
    if decode_staleness(dec)? != *monitor.staleness() {
        return Err(MonitorError::CheckpointMismatch { field: "staleness" });
    }
    if dec.u64("header.debounce")? != monitor.events().debounce() {
        return Err(MonitorError::CheckpointMismatch { field: "debounce" });
    }
    if dec.u64("header.history")? != monitor.events().window() as u64 {
        return Err(MonitorError::CheckpointMismatch { field: "history" });
    }
    Ok(())
}

/// The complete checkpoint payload: header, then the monitor's state.
fn checkpoint_payload(monitor: &Monitor) -> Vec<u8> {
    let mut enc = Enc::new();
    encode_header(&mut enc, monitor);
    monitor.encode_state(&mut enc);
    enc.into_bytes()
}

/// Rebuilds a monitor from one checkpoint payload and the builder that
/// describes the intended configuration.
fn restore_from_payload(payload: &[u8], builder: MonitorBuilder) -> Result<Monitor, MonitorError> {
    let requested_epoch = builder.epoch_start();
    let mut monitor = builder.build()?;
    if monitor.population() != 0 {
        return Err(MonitorError::CheckpointMismatch { field: "devices" });
    }
    let mut dec = Dec::new(payload);
    verify_header(&mut dec, &monitor)?;
    monitor.import_state(&mut dec)?;
    dec.finish("checkpoint")?;
    if let Some(start) = requested_epoch {
        if start != monitor.instant() {
            return Err(MonitorError::CheckpointMismatch { field: "epoch" });
        }
    }
    Ok(monitor)
}

impl Monitor {
    /// Writes a complete, self-contained checkpoint log — header frame
    /// plus one `Checkpoint` record — to `sink`, returning the bytes
    /// written. A monitor restored from it via [`Monitor::restore`]
    /// continues every output stream byte-identically.
    ///
    /// To embed checkpoints into an ongoing event log instead, use
    /// [`EventLog::checkpoint`].
    ///
    /// # Errors
    ///
    /// [`MonitorError::Persist`] on I/O failure.
    ///
    /// # Example
    ///
    /// ```
    /// use anomaly_characterization::pipeline::{Monitor, MonitorBuilder};
    ///
    /// let mut monitor = MonitorBuilder::new().fleet(3).build()?;
    /// monitor.observe_rows(vec![vec![0.9]; 3])?;
    /// let mut bytes = Vec::new();
    /// monitor.checkpoint(&mut bytes)?;
    /// let restored = Monitor::restore(bytes.as_slice(), MonitorBuilder::new())?;
    /// assert_eq!(restored.instant(), monitor.instant());
    /// assert_eq!(restored.keys(), monitor.keys());
    /// # Ok::<(), anomaly_characterization::pipeline::MonitorError>(())
    /// ```
    pub fn checkpoint<W: Write>(&self, sink: W) -> Result<u64, MonitorError> {
        let mut writer = LogWriter::create(sink)?;
        writer.append(RecordKind::Checkpoint, &checkpoint_payload(self))?;
        let bytes = writer.bytes_written();
        writer.into_inner()?;
        Ok(bytes)
    }

    /// Reads a log from `source` and rebuilds the monitor from its **last**
    /// complete checkpoint record, using `builder` for the configuration
    /// (detector factory included — detectors are rebuilt by the factory,
    /// then overlaid with their checkpointed state).
    ///
    /// The builder must describe the configuration the checkpoint was
    /// written under and must not enroll initial devices (the fleet comes
    /// from the checkpoint). Leave [`MonitorBuilder::epoch`] unset to
    /// adopt the checkpoint's clock; an explicit start must equal it.
    ///
    /// # Errors
    ///
    /// * [`MonitorError::CheckpointMismatch`] — a configuration knob (or a
    ///   detector parameter, or the builder's `epoch`/initial `devices`)
    ///   disagrees with the checkpoint; the field is named;
    /// * [`MonitorError::Persist`] — I/O failure, corrupt or truncated
    ///   record, missing checkpoint, or a payload that does not decode.
    pub fn restore<R: Read>(source: R, builder: MonitorBuilder) -> Result<Monitor, MonitorError> {
        let mut reader = LogReader::open(source)?;
        let mut checkpoint: Option<Vec<u8>> = None;
        while let Some(record) = reader.next_record()? {
            if record.kind == RecordKind::Checkpoint {
                checkpoint = Some(record.payload);
            }
        }
        let payload = checkpoint.ok_or_else(|| MonitorError::Persist {
            detail: "log holds no checkpoint record".to_string(),
        })?;
        restore_from_payload(&payload, builder)
    }
}

/// Append-only persistence companion of a live monitor: one `Summary`
/// record per sealed epoch, one `Event` record per closed anomaly event,
/// `Checkpoint` records on demand, and application-defined `Aux` records.
///
/// Closed events are fetched from the monitor's history ring, so the
/// monitor must keep a history window of at least 1
/// ([`MonitorBuilder::history`]); a window of 0 fails
/// [`EventLog::record_seal`] with a typed error rather than silently
/// dropping events.
///
/// # Example
///
/// ```
/// use anomaly_characterization::pipeline::{EventLog, MonitorBuilder};
///
/// let mut monitor = MonitorBuilder::new().fleet(2).build()?;
/// let mut log = EventLog::create(Vec::new())?;
/// for _ in 0..3 {
///     let report = monitor.observe_rows(vec![vec![0.9]; 2])?;
///     log.record_seal(&monitor, &report)?;
/// }
/// log.checkpoint(&monitor)?;
/// let bytes = log.finish(&monitor)?;
/// let replay = anomaly_characterization::pipeline::read_log(bytes.as_slice())?;
/// assert_eq!(replay.summaries.len(), 3);
/// # Ok::<(), anomaly_characterization::pipeline::MonitorError>(())
/// ```
#[derive(Debug)]
pub struct EventLog<W: Write> {
    writer: LogWriter<W>,
}

impl<W: Write> EventLog<W> {
    /// Starts a fresh log on `sink` (header only; no records yet).
    ///
    /// # Errors
    ///
    /// [`MonitorError::Persist`] on I/O failure.
    pub fn create(sink: W) -> Result<Self, MonitorError> {
        Ok(EventLog {
            writer: LogWriter::create(sink)?,
        })
    }

    /// Appends one sealed epoch: its summary record, then one event record
    /// per event the epoch closed (fetched from the history ring).
    ///
    /// # Errors
    ///
    /// [`MonitorError::Persist`] on I/O failure, or when a closed event is
    /// not in the history ring (history window 0).
    pub fn record_seal(&mut self, monitor: &Monitor, report: &Report) -> Result<(), MonitorError> {
        let mut enc = Enc::new();
        encode_summary(&mut enc, &report.summary());
        self.writer.append(RecordKind::Summary, &enc.into_bytes())?;
        for delta in report.event_deltas() {
            if delta.kind != EventDeltaKind::Closed {
                continue;
            }
            let event = monitor
                .events()
                .get(delta.id)
                .ok_or_else(|| MonitorError::Persist {
                    detail: format!(
                        "closed event {} is not in the history ring; \
                         EventLog needs a history window of at least 1",
                        delta.id
                    ),
                })?;
            let mut enc = Enc::new();
            encode_event(&mut enc, event);
            self.writer.append(RecordKind::Event, &enc.into_bytes())?;
        }
        Ok(())
    }

    /// Embeds a full checkpoint record at the log's current position.
    /// Restore uses the last one; earlier checkpoints stay readable as
    /// historical anchors.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Persist`] on I/O failure.
    pub fn checkpoint(&mut self, monitor: &Monitor) -> Result<(), MonitorError> {
        self.writer
            .append(RecordKind::Checkpoint, &checkpoint_payload(monitor))?;
        Ok(())
    }

    /// Appends an application-defined `Aux` record (by convention the
    /// first four payload bytes tag the producer).
    ///
    /// # Errors
    ///
    /// [`MonitorError::Persist`] on I/O failure.
    pub fn append_aux(&mut self, payload: &[u8]) -> Result<(), MonitorError> {
        self.writer.append(RecordKind::Aux, payload)?;
        Ok(())
    }

    /// Total bytes written so far, header included — the log-size metric
    /// the serve bench reports.
    pub fn bytes_written(&self) -> u64 {
        self.writer.bytes_written()
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Persist`] on I/O failure.
    pub fn flush(&mut self) -> Result<(), MonitorError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Closes the log without flushing open events — the right close for
    /// a log whose tail is a [`EventLog::checkpoint`] record, which
    /// already carries them. Returns the underlying writer.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Persist`] on I/O failure.
    pub fn into_inner(self) -> Result<W, MonitorError> {
        Ok(self.writer.into_inner()?)
    }

    /// Closes the log: flushes every still-open event as an event record
    /// (their `end` is `None`, marking them in-flight at shutdown) and
    /// returns the underlying writer.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Persist`] on I/O failure.
    pub fn finish(mut self, monitor: &Monitor) -> Result<W, MonitorError> {
        for event in monitor.events().open() {
            let mut enc = Enc::new();
            encode_event(&mut enc, event);
            self.writer.append(RecordKind::Event, &enc.into_bytes())?;
        }
        Ok(self.writer.into_inner()?)
    }
}

/// Everything a persisted log holds, fully decoded — the replay surface
/// `anomaly-eval` scores and the serve daemon restores side state from.
#[derive(Debug, Default, Clone, PartialEq)]
#[non_exhaustive]
pub struct PersistedLog {
    /// Every event record, in append order (closed events as they closed;
    /// a trailing run of open events if the log was finished cleanly).
    pub events: Vec<AnomalyEvent>,
    /// Every epoch summary, in append order.
    pub summaries: Vec<ReportSummary>,
    /// Number of checkpoint records seen (payloads are not retained here —
    /// restore them with [`Monitor::restore`]).
    pub checkpoints: usize,
    /// Application-defined side-state records, in append order.
    pub aux: Vec<Vec<u8>>,
}

/// Reads and decodes a whole log. Corrupt or truncated logs fail with a
/// typed [`MonitorError::Persist`]; they never panic.
///
/// # Errors
///
/// [`MonitorError::Persist`] on I/O failure, framing corruption, a
/// truncated tail, or a record payload that does not decode.
pub fn read_log<R: Read>(source: R) -> Result<PersistedLog, MonitorError> {
    let mut reader = LogReader::open(source)?;
    let mut out = PersistedLog::default();
    while let Some(record) = reader.next_record()? {
        match record.kind {
            RecordKind::Checkpoint => out.checkpoints += 1,
            RecordKind::Aux => out.aux.push(record.payload),
            RecordKind::Event => {
                let mut dec = Dec::new(&record.payload);
                out.events.push(decode_event(&mut dec)?);
                dec.finish("event")?;
            }
            RecordKind::Summary => {
                let mut dec = Dec::new(&record.payload);
                out.summaries.push(decode_summary(&mut dec)?);
                dec.finish("summary")?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::builder::MonitorBuilder;
    use super::*;

    fn sample_event() -> AnomalyEvent {
        AnomalyEvent {
            id: EventId(7),
            onset: 3,
            last_active: 9,
            end: Some(10),
            class: AnomalyClass::Massive,
            transitions: vec![ClassTransition {
                epoch: 5,
                from: AnomalyClass::Isolated,
                to: AnomalyClass::Massive,
            }],
            devices: vec![DeviceKey(1), DeviceKey(4)],
            active: vec![DeviceKey(4)],
            peak_active: 2,
            epochs_active: 6,
            component: Some(3),
        }
    }

    #[test]
    fn events_and_summaries_round_trip() {
        let event = sample_event();
        let mut enc = Enc::new();
        encode_event(&mut enc, &event);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(decode_event(&mut dec).unwrap(), event);
        dec.finish("event").unwrap();

        let mut m = MonitorBuilder::new().fleet(2).build().unwrap();
        let summary = m.observe_rows(vec![vec![0.9]; 2]).unwrap().summary();
        let mut enc = Enc::new();
        encode_summary(&mut enc, &summary);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(decode_summary(&mut dec).unwrap(), summary);
        dec.finish("summary").unwrap();
    }

    #[test]
    fn bad_class_tags_are_typed_decode_errors() {
        let event = sample_event();
        let mut enc = Enc::new();
        encode_event(&mut enc, &event);
        let mut bytes = enc.into_bytes();
        // The class byte sits right after id/onset/last_active/end.
        let class_at = 8 + 8 + 8 + 1 + 8;
        *bytes.get_mut(class_at).unwrap() = 9;
        let mut dec = Dec::new(&bytes);
        let err = decode_event(&mut dec).unwrap_err();
        assert_eq!(err.field, "event.class");
    }

    #[test]
    fn empty_logs_restore_to_a_typed_missing_checkpoint_error() {
        let log = EventLog::create(Vec::new()).unwrap();
        let m = MonitorBuilder::new().build().unwrap();
        let bytes = log.finish(&m).unwrap();
        let err = Monitor::restore(bytes.as_slice(), MonitorBuilder::new()).unwrap_err();
        assert!(matches!(err, MonitorError::Persist { .. }));
        assert!(err.to_string().contains("no checkpoint"), "{err}");
    }

    #[test]
    fn restore_rejects_builders_with_initial_devices() {
        let m = MonitorBuilder::new().fleet(2).build().unwrap();
        let mut bytes = Vec::new();
        m.checkpoint(&mut bytes).unwrap();
        let err = Monitor::restore(bytes.as_slice(), MonitorBuilder::new().fleet(2)).unwrap_err();
        assert_eq!(err, MonitorError::CheckpointMismatch { field: "devices" });
    }

    #[test]
    fn record_seal_without_history_is_a_typed_error() {
        // History window 0: closed events cannot be fetched for the log.
        let mut m = MonitorBuilder::new()
            .history(0)
            .detector_factory(|_| Box::new(anomaly_detectors::ThresholdDetector::with_delta(0.1)))
            .fleet(2)
            .build()
            .unwrap();
        let mut log = EventLog::create(Vec::new()).unwrap();
        m.observe_rows(vec![vec![0.9]; 2]).unwrap();
        // Open an event, then close it with a quiet epoch.
        m.observe_rows(vec![vec![0.4], vec![0.9]]).unwrap();
        let report = m.observe_rows(vec![vec![0.4], vec![0.9]]).unwrap();
        let err = log.record_seal(&m, &report).unwrap_err();
        assert!(matches!(err, MonitorError::Persist { .. }));
        assert!(err.to_string().contains("history"), "{err}");
    }
}
