use crate::error::QosError;
use crate::point::Point;

/// The QoS space `E = [0,1]^d` (Section III-A of the paper).
///
/// A `QosSpace` owns only its dimension; it is the validating constructor for
/// [`Point`]s and the authority on dimension agreement.
///
/// # Example
///
/// ```
/// use anomaly_qos::QosSpace;
/// let space = QosSpace::new(2)?;
/// assert_eq!(space.dim(), 2);
/// let p = space.point(vec![0.5, 0.25])?;
/// assert!(space.contains(&p));
/// # Ok::<(), anomaly_qos::QosError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QosSpace {
    dim: usize,
}

impl QosSpace {
    /// Creates a QoS space of dimension `d` (the number of monitored services).
    ///
    /// # Errors
    ///
    /// Returns [`QosError::ZeroDimension`] when `d == 0`.
    pub fn new(dim: usize) -> Result<Self, QosError> {
        if dim == 0 {
            Err(QosError::ZeroDimension)
        } else {
            Ok(QosSpace { dim })
        }
    }

    /// The dimension `d` of the space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Validates and constructs a point of this space.
    ///
    /// # Errors
    ///
    /// * [`QosError::DimensionMismatch`] if `coords.len() != self.dim()`.
    /// * [`QosError::CoordinateOutOfRange`] if any coordinate is not a finite
    ///   value in `[0,1]`.
    pub fn point(&self, coords: Vec<f64>) -> Result<Point, QosError> {
        self.check(&coords)?;
        Ok(Point::new_unchecked(coords))
    }

    /// Validates a coordinate row against this space without taking it:
    /// the checks of [`QosSpace::point`], for rows that are copied into
    /// flat storage rather than kept as a [`Point`].
    ///
    /// # Errors
    ///
    /// Same as [`QosSpace::point`].
    pub fn check(&self, coords: &[f64]) -> Result<(), QosError> {
        check_row(self.dim, coords)
    }

    /// True if `p` has this space's dimension and lies inside `[0,1]^d`.
    pub fn contains(&self, p: &Point) -> bool {
        p.dim() == self.dim && p.is_in_unit_cube()
    }

    /// The center of the space, `(1/2, …, 1/2)`.
    pub fn center(&self) -> Point {
        Point::new_unchecked(vec![0.5; self.dim])
    }
}

/// The checks of [`QosSpace::check`] for a space of dimension `dim`.
pub(crate) fn check_row(dim: usize, coords: &[f64]) -> Result<(), QosError> {
    if coords.len() != dim {
        return Err(QosError::DimensionMismatch {
            expected: dim,
            actual: coords.len(),
        });
    }
    match coords
        .iter()
        .enumerate()
        .find(|(_, c)| !c.is_finite() || !(0.0..=1.0).contains(*c))
    {
        Some((index, &value)) => Err(QosError::CoordinateOutOfRange { index, value }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dimension() {
        assert_eq!(QosSpace::new(0).unwrap_err(), QosError::ZeroDimension);
    }

    #[test]
    fn validates_dimension() {
        let space = QosSpace::new(2).unwrap();
        let err = space.point(vec![0.1]).unwrap_err();
        assert_eq!(
            err,
            QosError::DimensionMismatch {
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn validates_range() {
        let space = QosSpace::new(2).unwrap();
        let err = space.point(vec![0.1, 1.2]).unwrap_err();
        assert_eq!(
            err,
            QosError::CoordinateOutOfRange {
                index: 1,
                value: 1.2
            }
        );
        assert!(space.point(vec![0.0, 1.0]).is_ok());
    }

    #[test]
    fn rejects_nan_coordinate() {
        let space = QosSpace::new(1).unwrap();
        assert!(space.point(vec![f64::NAN]).is_err());
    }

    #[test]
    fn contains_checks_dimension_and_cube() {
        let space = QosSpace::new(2).unwrap();
        assert!(space.contains(&Point::new_unchecked(vec![0.2, 0.3])));
        assert!(!space.contains(&Point::new_unchecked(vec![0.2])));
        assert!(!space.contains(&Point::new_unchecked(vec![0.2, 1.3])));
    }

    #[test]
    fn center_is_half_everywhere() {
        let space = QosSpace::new(3).unwrap();
        assert_eq!(space.center().coords(), &[0.5, 0.5, 0.5]);
    }
}
