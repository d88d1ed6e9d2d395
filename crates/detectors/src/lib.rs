//! Error-detection functions `a_k(j)` for QoS time series.
//!
//! The DSN 2014 paper assumes each device runs an error-detection function
//! that flags an *abnormal trajectory* whenever the observed QoS of at least
//! one consumed service deviates too much from its predicted value
//! (Definition 5). The paper deliberately leaves the implementation out of
//! scope but cites the standard candidates; this crate implements all of
//! them so the pipeline runs end to end:
//!
//! * [`ThresholdDetector`] — simple absolute/delta thresholds;
//! * [`EwmaDetector`] — exponentially weighted moving average with a
//!   residual σ-band;
//! * [`HoltWintersDetector`] — Holt's double exponential smoothing
//!   (trend-aware forecasting, refs \[6\]\[12\] of the paper);
//! * [`CusumDetector`] — Page's two-sided cumulative-sum change detector
//!   (ref \[10\]);
//! * [`KalmanDetector`] — a scalar constant-velocity Kalman filter with an
//!   innovation gate (ref \[7\]);
//! * [`VectorDetector`] — one detector per service; the device-level
//!   `a_k(j)` is the OR over services, exactly as in the paper.
//!
//! All detectors implement the [`Detector`] trait: feed one observation per
//! sampling instant, get a [`Verdict`] back.
//!
//! # Example
//!
//! ```
//! use anomaly_detectors::{Detector, EwmaDetector};
//!
//! let mut det = EwmaDetector::new(0.3, 4.0);
//! // Warm up on a stable signal.
//! for _ in 0..50 {
//!     assert!(!det.observe(0.9).is_anomalous());
//! }
//! // A large drop in QoS is flagged.
//! assert!(det.observe(0.2).is_anomalous());
//! ```

#![forbid(unsafe_code)]
#![deny(warnings)]
#![warn(missing_docs)]

mod cusum;
mod device;
mod ewma;
mod holt_winters;
mod kalman;
mod state;
mod threshold;
mod vector;

pub use cusum::CusumDetector;
pub use device::DeviceDetector;
pub use ewma::EwmaDetector;
pub use holt_winters::HoltWintersDetector;
pub use kalman::KalmanDetector;
pub use state::{StateError, StateReader, StateWriter};
pub use threshold::ThresholdDetector;
pub use vector::VectorDetector;

/// Outcome of feeding one observation to a [`Detector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    anomalous: bool,
    score: f64,
    forecast: Option<f64>,
}

impl Verdict {
    /// Builds a verdict (used by detector implementations).
    pub fn new(anomalous: bool, score: f64, forecast: Option<f64>) -> Self {
        Verdict {
            anomalous,
            score,
            forecast,
        }
    }

    /// A "nothing to report" verdict with zero score.
    pub fn normal() -> Self {
        Verdict::new(false, 0.0, None)
    }

    /// True if this observation was flagged as abnormal.
    pub fn is_anomalous(&self) -> bool {
        self.anomalous
    }

    /// Detector-specific anomaly score (larger = more abnormal); comparable
    /// across observations of the *same* detector only.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// The value the detector predicted for this instant, when the detector
    /// is forecasting-based.
    pub fn forecast(&self) -> Option<f64> {
        self.forecast
    }
}

/// An online error-detection function over a scalar QoS series.
///
/// Implementations are fed one measurement per discrete time step and decide
/// whether the *variation* of the series is too large to be normal — the
/// `a_k(j)` of the paper, for a single service.
pub trait Detector {
    /// Feeds the measurement at the current instant and returns the verdict.
    fn observe(&mut self, value: f64) -> Verdict;

    /// Clears all learned state, as after a device reboot.
    fn reset(&mut self);

    /// Human-readable detector name (for reports and benches).
    fn name(&self) -> &'static str;

    /// Serializes the detector — immutable parameters first, mutable
    /// state second — into `out` (see [`StateWriter`]). The default is
    /// for stateless detectors: nothing to save.
    ///
    /// A detector that learns **must** override `save`/[`Detector::load`]
    /// as a pair, or a checkpointed monitor silently restores it cold.
    fn save(&self, out: &mut StateWriter) {
        let _ = out;
    }

    /// Restores state written by [`Detector::save`], verifying the saved
    /// parameters against this instance's. Fails with a typed
    /// [`StateError`] — naming the parameter on a configuration mismatch
    /// — and never panics on malformed input.
    fn load(&mut self, state: &mut StateReader<'_>) -> Result<(), StateError> {
        let _ = state;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared signal generators for detector tests.

    /// A flat signal with a level shift at `change_at`.
    pub fn level_shift(len: usize, change_at: usize, before: f64, after: f64) -> Vec<f64> {
        (0..len)
            .map(|i| if i < change_at { before } else { after })
            .collect()
    }

    /// A linear ramp from `start` to `end`.
    pub fn ramp(len: usize, start: f64, end: f64) -> Vec<f64> {
        (0..len)
            .map(|i| start + (end - start) * i as f64 / (len.max(2) - 1) as f64)
            .collect()
    }

    /// Deterministic pseudo-noise in `[-amp, amp]` (no RNG dependency).
    pub fn wiggle(len: usize, base: f64, amp: f64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let phase = i as f64 * 2.399963; // golden-angle increments
                base + amp * phase.sin()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accessors() {
        let v = Verdict::new(true, 2.5, Some(0.8));
        assert!(v.is_anomalous());
        assert_eq!(v.score(), 2.5);
        assert_eq!(v.forecast(), Some(0.8));
        assert!(!Verdict::normal().is_anomalous());
    }

    #[test]
    fn detectors_are_object_safe() {
        // The trait must be usable as `Box<dyn Detector>` for heterogeneous
        // per-service configurations.
        let mut dets: Vec<Box<dyn Detector>> = vec![
            Box::new(ThresholdDetector::with_delta(0.2)),
            Box::new(EwmaDetector::new(0.3, 4.0)),
            Box::new(CusumDetector::new(0.05, 0.5)),
            Box::new(HoltWintersDetector::new(0.4, 0.2, 4.0)),
            Box::new(KalmanDetector::new(1e-4, 1e-3, 4.0)),
        ];
        for d in &mut dets {
            let _ = d.observe(0.9);
            d.reset();
            assert!(!d.name().is_empty());
        }
    }
}
