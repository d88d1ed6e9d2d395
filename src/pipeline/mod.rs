//! The deployable pipeline: snapshots in, verdicts out.
//!
//! [`Monitor`] is the glue a real deployment needs around the paper's
//! algorithms: it owns one error-detection function per device (the
//! `a_k(j)` of Section III-A), ingests a QoS snapshot per sampling instant,
//! assembles the abnormal set `A_k`, and runs the local characterization of
//! Section V over the `[k−1, k]` interval — returning, for every flagged
//! device, whether its anomaly is isolated, massive, or unresolved.
//!
//! The surface, in the order a deployment meets it:
//!
//! * [`MonitorBuilder`] — parameters, norm, detector factory, capacity and
//!   population bounds, staleness policy and epoch start; all validation
//!   at `build()`, no panics.
//! * [`Monitor`] — the streaming front-end [`ingest`](Monitor::ingest) /
//!   [`ingest_many`](Monitor::ingest_many) / [`seal`](Monitor::seal) per
//!   epoch, with [`observe`](Monitor::observe) /
//!   [`observe_rows`](Monitor::observe_rows) as the one-shot batch form;
//!   [`join`](Monitor::join) / [`leave`](Monitor::leave) for fleet churn
//!   under stable [`DeviceKey`]s; [`run_trace`](Monitor::run_trace) to
//!   replay recorded scenarios through the identical engine.
//! * [`StalenessPolicy`] — what [`seal`](Monitor::seal) does about devices
//!   that did not report: `Reject`, `CarryForward { max_age }`, or
//!   `Default(row)`.
//! * [`Report`] — per-class iterators and counts, per-device
//!   [`DeviceVerdict`]s with displacement and vicinity context, epoch
//!   metadata ([`Report::stragglers`]), the epoch's event changes
//!   ([`Report::event_deltas`]), wall-clock timings, and a serializable,
//!   versioned [`ReportSummary`].
//! * [`EventTracker`] — temporal correlation over the report stream:
//!   per-epoch verdicts fold into [`AnomalyEvent`]s with a full lifecycle
//!   (onset, class transitions, affected-device evolution, end), plus a
//!   bounded ring of recent epoch summaries
//!   ([`MonitorBuilder::history`]); read it via [`Monitor::events`].
//! * [`MonitorError`] — every misuse path, typed (ingestion failures under
//!   [`MonitorError::Ingest`]).
//!
//! The v1 `FleetMonitor` shim was removed after its deprecation cycle; see
//! the README's migration notes.
//!
//! # Example
//!
//! ```
//! use anomaly_characterization::pipeline::{DeviceKey, MonitorBuilder};
//! use anomaly_characterization::core::AnomalyClass;
//! use anomaly_characterization::detectors::EwmaDetector;
//!
//! let mut monitor = MonitorBuilder::new()
//!     .radius(0.03)
//!     .tau(3)
//!     .detector_factory(|_key| Box::new(EwmaDetector::new(0.3, 4.0)))
//!     .fleet(6)
//!     .build()?;
//! // Healthy warm-up.
//! for _ in 0..30 {
//!     assert!(monitor.observe_rows(vec![vec![0.9]; 6])?.is_quiet());
//! }
//! // A shared incident hits devices 0..5; device 5 fails alone.
//! let rows = vec![
//!     vec![0.4], vec![0.41], vec![0.42], vec![0.43], vec![0.44], vec![0.1],
//! ];
//! let report = monitor.observe_rows(rows)?;
//! assert_eq!(report.verdicts().len(), 6);
//! assert_eq!(report.class_of(DeviceKey(5)), Some(AnomalyClass::Isolated));
//! assert_eq!(report.operator_notifications(), vec![DeviceKey(5)]);
//! assert!(report.has_network_event());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod builder;
mod engine;
mod error;
mod events;
mod ingest;
mod key;
mod monitor;
mod persist;
mod replay;
mod report;
mod timings;

pub use builder::{MonitorBuilder, MAX_FLEET};
pub use engine::Engine;
pub use error::MonitorError;
pub use events::{
    AnomalyEvent, ClassTransition, EventDelta, EventDeltaKind, EventId, EventTracker,
};
pub use ingest::{IngestError, StalenessPolicy};
pub use key::DeviceKey;
pub use monitor::{DetectorFactory, Monitor};
pub use persist::{read_log, EventLog, PersistedLog};
pub use report::{DeviceVerdict, Report, ReportSummary};
