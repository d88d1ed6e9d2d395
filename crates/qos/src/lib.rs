//! QoS-space geometry substrate for anomaly characterization.
//!
//! This crate models the *QoS space* `E = [0,1]^d` of the DSN 2014 paper
//! "Anomaly Characterization in Large Scale Networks" (Anceaume et al.):
//! every monitored device continuously consumes `d` services, and the
//! end-to-end quality of each service is a value in `[0,1]`, so the state of
//! a device at discrete time `k` is a point `p_k(j) ∈ E`.
//!
//! Provided building blocks:
//!
//! * [`Point`] / [`DeviceId`] — positions of devices in `E`.
//! * [`norm`] — the uniform (L∞) norm used throughout the paper, plus L1/L2
//!   for completeness (all norms on `E` are equivalent, Section III-B).
//! * [`QosSpace`] — dimension-checked construction and containment.
//! * [`Snapshot`] / [`StatePair`] — the system states `S_{k-1}`, `S_k`.
//! * [`Trajectory`] — a device's motion between two successive snapshots.
//! * [`TrajectoryIndex`] — a sparse index keyed by `(before-cell,
//!   after-cell)` answering the vicinity queries `N(j)` (all devices within
//!   `2r` of `j` at *both* times) that the local characterization
//!   algorithms rely on; [`CellGeometry`] is its cell layout.
//!
//! # Example
//!
//! ```
//! use anomaly_qos::{Point, QosSpace, Snapshot, StatePair, DeviceId};
//!
//! let space = QosSpace::new(2).unwrap();
//! let before = Snapshot::from_rows(&space, vec![vec![0.10, 0.20], vec![0.12, 0.21]]).unwrap();
//! let after  = Snapshot::from_rows(&space, vec![vec![0.50, 0.60], vec![0.52, 0.61]]).unwrap();
//! let pair = StatePair::new(before, after).unwrap();
//! // Devices 0 and 1 moved together: their trajectories stay within 2r of
//! // each other for r = 0.02 at both times.
//! let d = pair.pairwise_motion_distance(DeviceId(0), DeviceId(1));
//! assert!(d <= 2.0 * 0.02);
//! ```

#![forbid(unsafe_code)]
#![deny(warnings)]
#![warn(missing_docs)]

mod error;
mod grid;
pub mod norm;
mod point;
mod snapshot;
mod space;
mod trajectory;

pub use error::QosError;
pub use grid::{CellGeometry, CellSet, ExpandedCells, GridUpdate, TrajectoryIndex};
pub use norm::{l1_distance, l2_distance, uniform_distance, Norm, NormKind};
pub use point::{DeviceId, Point};
pub use snapshot::{Snapshot, StatePair};
pub use space::QosSpace;
pub use trajectory::Trajectory;

/// Upper bound (exclusive) of the valid consistency-impact radius `r`.
///
/// Definition 1 of the paper requires `r ∈ [0, 1/4)`.
pub const MAX_RADIUS: f64 = 0.25;

/// Validates a consistency-impact radius `r ∈ [0, 1/4)`.
///
/// # Errors
///
/// Returns [`QosError::InvalidRadius`] if `r` is negative, not finite, or
/// `>= 1/4`.
///
/// # Example
///
/// ```
/// assert!(anomaly_qos::validate_radius(0.03).is_ok());
/// assert!(anomaly_qos::validate_radius(0.25).is_err());
/// ```
pub fn validate_radius(r: f64) -> Result<f64, QosError> {
    if r.is_finite() && (0.0..MAX_RADIUS).contains(&r) {
        Ok(r)
    } else {
        Err(QosError::InvalidRadius { radius: r })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_accepts_paper_value() {
        assert_eq!(validate_radius(0.03).unwrap(), 0.03);
    }

    #[test]
    fn radius_accepts_zero() {
        assert_eq!(validate_radius(0.0).unwrap(), 0.0);
    }

    #[test]
    fn radius_rejects_quarter_and_above() {
        assert!(validate_radius(0.25).is_err());
        assert!(validate_radius(0.7).is_err());
    }

    #[test]
    fn radius_rejects_negative_and_nan() {
        assert!(validate_radius(-0.01).is_err());
        assert!(validate_radius(f64::NAN).is_err());
        assert!(validate_radius(f64::INFINITY).is_err());
    }
}
