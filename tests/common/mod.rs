//! The full-recompute reference the determinism suites compare the
//! production monitor against.
//!
//! A monitor restored from a checkpoint has no trajectory index and an
//! empty characterization cache, so its first seal builds the index from
//! scratch and recomputes every flagged device's verdict. [`Oracle`]
//! checkpoints and restores its monitor before every seal, so *every* one
//! of its seals takes that path: no incremental index update and no
//! cached verdict ever reaches its reports, and it is reached through
//! public API alone.

// Each test crate compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use anomaly_characterization::pipeline::{Monitor, MonitorBuilder, MonitorError, Report};
use anomaly_characterization::qos::Snapshot;
use anomaly_characterization::simulator::trace::Trace;

/// What a scenario does to a monitor, so one scenario drives the monitor
/// under test and the [`Oracle`] alike: every seal goes through these
/// methods, everything else through [`Drive::monitor`].
pub trait Drive {
    /// The driven monitor.
    fn monitor(&mut self) -> &mut Monitor;

    /// Runs before every seal.
    fn before_seal(&mut self) {}

    /// [`Monitor::seal`].
    fn seal(&mut self) -> Result<Report, MonitorError> {
        self.before_seal();
        self.monitor().seal()
    }

    /// [`Monitor::observe`].
    fn observe(&mut self, snapshot: Snapshot) -> Result<Report, MonitorError> {
        self.before_seal();
        self.monitor().observe(snapshot)
    }

    /// [`Monitor::observe_rows`].
    fn observe_rows(&mut self, rows: Vec<Vec<f64>>) -> Result<Report, MonitorError> {
        self.before_seal();
        self.monitor().observe_rows(rows)
    }

    /// [`Monitor::run_trace`], one observation at a time: each distinct
    /// snapshot is observed once, and a step whose `before` is not the
    /// last-seen snapshot feeds both.
    fn run_trace(&mut self, trace: &Trace) -> Result<Vec<Report>, MonitorError> {
        let mut reports = Vec::with_capacity(trace.steps.len() + 1);
        for step in &trace.steps {
            if self.monitor().last_snapshot() != Some(step.pair.before()) {
                reports.push(self.observe(step.pair.before().clone())?);
            }
            reports.push(self.observe(step.pair.after().clone())?);
        }
        Ok(reports)
    }
}

impl Drive for Monitor {
    fn monitor(&mut self) -> &mut Monitor {
        self
    }

    fn run_trace(&mut self, trace: &Trace) -> Result<Vec<Report>, MonitorError> {
        Monitor::run_trace(self, trace)
    }
}

/// A monitor that restarts from its own checkpoint before every seal.
pub struct Oracle {
    monitor: Monitor,
    builder: Box<dyn Fn() -> MonitorBuilder>,
}

impl Oracle {
    /// Wraps `monitor`. `builder` describes its configuration without
    /// enrolling any device, as [`Monitor::restore`] requires.
    pub fn new(monitor: Monitor, builder: impl Fn() -> MonitorBuilder + 'static) -> Self {
        Oracle {
            monitor,
            builder: Box::new(builder),
        }
    }
}

impl Drive for Oracle {
    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// Replaces the monitor with one restored from its checkpoint.
    fn before_seal(&mut self) {
        let mut bytes = Vec::new();
        self.monitor.checkpoint(&mut bytes).expect("checkpoint");
        self.monitor = Monitor::restore(bytes.as_slice(), (self.builder)()).expect("restore");
    }
}
