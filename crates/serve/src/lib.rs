//! Alerting daemon over the anomaly-characterization pipeline.
//!
//! The monitor turns per-epoch QoS snapshots into [`Report`]s with
//! event deltas; this crate turns that stream into what an operator
//! actually consumes: deduplicated, severity-ranked, rate-limited,
//! acknowledgeable **alerts**, each keyed by a canonical root-cause
//! [`Signature`].
//!
//! * [`signature`]: the deterministic normal-form reduction from an
//!   event lifecycle (class transitions, topology spread, duration,
//!   straggler overlap) to a stable versioned signature ID.
//! * [`alerts`]: severity ladder, acknowledgement lifecycle, the emitted
//!   [`AlertAction`] stream, and the deterministic token-bucket rate
//!   limiter.
//! * [`sink`]: the pure fold from [`Report`]s to alert state — usable
//!   live behind a daemon or offline over collected reports.
//! * [`daemon`]: the [`ServeLoop`] tying a `Monitor` and an [`AlertSink`]
//!   behind one ingest/round surface, plus the `serve` binary driving it
//!   against a simulated ISP network.
//!
//! Everything is logical-time and fully deterministic: the same
//! measurement stream produces a byte-identical alert stream across
//! cached and recomputed seals and checkpointless restarts.
//!
//! [`Report`]: anomaly_characterization::pipeline::Report

#![forbid(unsafe_code)]
#![deny(warnings)]
#![warn(missing_docs)]

pub mod alerts;
pub mod daemon;
pub mod signature;
pub mod sink;

pub use alerts::{
    actions_to_json, severity, Alert, AlertAction, AlertActionKind, AlertId, AlertPhase, Severity,
    TokenBucket,
};
pub use daemon::ServeLoop;
pub use signature::{
    affected_bucket, duration_bucket, Signature, SignatureAtoms, TopologySpread, SIGNATURE_VERSION,
};
pub use sink::{AlertConfig, AlertSink, KeyMap, SINK_STATE_VERSION};
