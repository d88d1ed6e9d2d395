use std::error::Error;
use std::fmt;

/// Errors produced by the QoS-space substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QosError {
    /// The requested space dimension was zero.
    ZeroDimension,
    /// A coordinate fell outside `[0,1]` or was not finite.
    CoordinateOutOfRange {
        /// Index of the offending coordinate.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A point had the wrong number of coordinates for the space.
    DimensionMismatch {
        /// Dimension expected by the space.
        expected: usize,
        /// Dimension actually provided.
        actual: usize,
    },
    /// The consistency-impact radius was outside `[0, 1/4)`.
    InvalidRadius {
        /// The offending radius.
        radius: f64,
    },
    /// Two snapshots paired into a `StatePair` disagreed on population or dimension.
    SnapshotMismatch {
        /// Human-readable description of the disagreement.
        reason: String,
    },
    /// A trajectory row held a `NaN` or an infinite coordinate.
    NonFinite {
        /// Index of the offending row.
        id: u32,
    },
    /// A device id was out of bounds for the snapshot population.
    UnknownDevice {
        /// The offending device id.
        id: u32,
        /// Population size of the snapshot.
        population: usize,
    },
}

impl fmt::Display for QosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosError::ZeroDimension => write!(f, "QoS space dimension must be at least 1"),
            QosError::CoordinateOutOfRange { index, value } => write!(
                f,
                "coordinate {index} has value {value} outside the unit interval"
            ),
            QosError::DimensionMismatch { expected, actual } => write!(
                f,
                "point has {actual} coordinates but the space has dimension {expected}"
            ),
            QosError::InvalidRadius { radius } => write!(
                f,
                "consistency impact radius {radius} is outside the valid range [0, 1/4)"
            ),
            QosError::SnapshotMismatch { reason } => {
                write!(f, "snapshots cannot be paired: {reason}")
            }
            QosError::NonFinite { id } => {
                write!(f, "trajectory row {id} has a coordinate that is not finite")
            }
            QosError::UnknownDevice { id, population } => write!(
                f,
                "device id {id} is out of bounds for a population of {population}"
            ),
        }
    }
}

impl Error for QosError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors = [
            QosError::ZeroDimension,
            QosError::CoordinateOutOfRange {
                index: 1,
                value: 1.5,
            },
            QosError::DimensionMismatch {
                expected: 2,
                actual: 3,
            },
            QosError::InvalidRadius { radius: 0.3 },
            QosError::SnapshotMismatch {
                reason: "dim".into(),
            },
            QosError::NonFinite { id: 4 },
            QosError::UnknownDevice {
                id: 9,
                population: 3,
            },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QosError>();
    }
}
