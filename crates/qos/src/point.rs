use std::fmt;
use std::ops::Index;

/// Identifier of a monitored device, i.e. an index into a snapshot.
///
/// The paper ranges devices over `[[1, n]]`; we use `0..n` indices. The
/// newtype prevents mixing device ids with other integers (sizes, counts).
///
/// # Example
///
/// ```
/// use anomaly_qos::DeviceId;
/// let j = DeviceId(3);
/// assert_eq!(j.index(), 3);
/// assert_eq!(j.to_string(), "d3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// Returns the id as a `usize` index into snapshot storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl From<u32> for DeviceId {
    fn from(value: u32) -> Self {
        DeviceId(value)
    }
}

impl From<DeviceId> for u32 {
    fn from(value: DeviceId) -> Self {
        value.0
    }
}

/// A position in the QoS space `E = [0,1]^d`.
///
/// Coordinates are the end-to-end QoS measurements `q_{i,k}(j)` of the `d`
/// services consumed by a device (Section III-A of the paper).
///
/// Construction through [`crate::QosSpace::point`] validates that every
/// coordinate lies in `[0,1]`; [`Point::new_unchecked`] skips validation for
/// internal hot paths (it is safe — out-of-range coordinates only degrade
/// semantics, never memory safety).
///
/// # Example
///
/// ```
/// use anomaly_qos::{Point, QosSpace};
/// let space = QosSpace::new(2)?;
/// let p = space.point(vec![0.3, 0.8])?;
/// assert_eq!(p.dim(), 2);
/// assert_eq!(p[0], 0.3);
/// # Ok::<(), anomaly_qos::QosError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point without validating coordinate ranges.
    ///
    /// Prefer [`crate::QosSpace::point`] at API boundaries.
    pub fn new_unchecked(coords: Vec<f64>) -> Self {
        Point { coords }
    }

    /// Number of coordinates (the space dimension `d`).
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate accessor returning `None` out of bounds.
    pub fn get(&self, i: usize) -> Option<f64> {
        self.coords.get(i).copied()
    }

    /// Coordinates as a slice.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Consumes the point, returning its coordinate vector.
    pub fn into_coords(self) -> Vec<f64> {
        self.coords
    }

    /// Returns the point translated by `delta`, clamped into `[0,1]^d`.
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != self.dim()`.
    pub fn translated_clamped(&self, delta: &[f64]) -> Point {
        assert_eq!(
            delta.len(),
            self.dim(),
            "translation vector dimension must match point dimension"
        );
        let coords = self
            .coords
            .iter()
            .zip(delta)
            .map(|(c, d)| (c + d).clamp(0.0, 1.0))
            .collect();
        Point { coords }
    }

    /// True if every coordinate lies in `[0,1]` and is finite.
    pub fn is_in_unit_cube(&self) -> bool {
        self.coords
            .iter()
            .all(|c| c.is_finite() && (0.0..=1.0).contains(c))
    }
}

impl Index<usize> for Point {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.coords[index]
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.4}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new_unchecked(coords)
    }
}

impl AsRef<[f64]> for Point {
    fn as_ref(&self) -> &[f64] {
        &self.coords
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_id_roundtrip() {
        let id = DeviceId::from(7u32);
        assert_eq!(u32::from(id), 7);
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn point_accessors() {
        let p = Point::new_unchecked(vec![0.1, 0.9]);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.get(0), Some(0.1));
        assert_eq!(p.get(2), None);
        assert_eq!(p[1], 0.9);
        assert_eq!(p.coords(), &[0.1, 0.9]);
    }

    #[test]
    fn translation_clamps_to_unit_cube() {
        let p = Point::new_unchecked(vec![0.9, 0.1]);
        let q = p.translated_clamped(&[0.3, -0.3]);
        assert_eq!(q.coords(), &[1.0, 0.0]);
        assert!(q.is_in_unit_cube());
    }

    #[test]
    #[should_panic(expected = "translation vector dimension")]
    fn translation_rejects_wrong_dimension() {
        Point::new_unchecked(vec![0.5]).translated_clamped(&[0.1, 0.2]);
    }

    #[test]
    fn unit_cube_check() {
        assert!(Point::new_unchecked(vec![0.0, 1.0]).is_in_unit_cube());
        assert!(!Point::new_unchecked(vec![-0.1]).is_in_unit_cube());
        assert!(!Point::new_unchecked(vec![f64::NAN]).is_in_unit_cube());
    }

    #[test]
    fn display_formats_coordinates() {
        let p = Point::new_unchecked(vec![0.25, 0.5]);
        assert_eq!(p.to_string(), "(0.2500, 0.5000)");
    }
}
