use crate::error::QosError;
use crate::norm::uniform_distance;
use crate::point::{DeviceId, Point};
use crate::space::QosSpace;
use crate::trajectory::Trajectory;

/// The system state `S_k` at one discrete time: the position of every device.
///
/// # Example
///
/// ```
/// use anomaly_qos::{QosSpace, Snapshot, DeviceId};
/// let space = QosSpace::new(2)?;
/// let snap = Snapshot::from_rows(&space, vec![vec![0.1, 0.2], vec![0.3, 0.4]])?;
/// assert_eq!(snap.len(), 2);
/// assert_eq!(snap.position(DeviceId(1)).coords(), &[0.3, 0.4]);
/// # Ok::<(), anomaly_qos::QosError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    dim: usize,
    positions: Vec<Point>,
}

impl Snapshot {
    /// Builds a snapshot from validated points.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::DimensionMismatch`] if any point disagrees with the
    /// space dimension, or [`QosError::CoordinateOutOfRange`] if a point lies
    /// outside the unit cube.
    pub fn new(space: &QosSpace, positions: Vec<Point>) -> Result<Self, QosError> {
        for p in &positions {
            if p.dim() != space.dim() {
                return Err(QosError::DimensionMismatch {
                    expected: space.dim(),
                    actual: p.dim(),
                });
            }
            if !p.is_in_unit_cube() {
                let (index, value) = p
                    .coords()
                    .iter()
                    .enumerate()
                    .find(|(_, c)| !c.is_finite() || !(0.0..=1.0).contains(*c))
                    .map(|(i, c)| (i, *c))
                    .unwrap_or((0, f64::NAN));
                return Err(QosError::CoordinateOutOfRange { index, value });
            }
        }
        Ok(Snapshot {
            dim: space.dim(),
            positions,
        })
    }

    /// Builds a snapshot from raw coordinate rows, validating each row.
    ///
    /// # Errors
    ///
    /// Same as [`Snapshot::new`].
    pub fn from_rows(space: &QosSpace, rows: Vec<Vec<f64>>) -> Result<Self, QosError> {
        let positions = rows
            .into_iter()
            .map(|row| space.point(row))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Snapshot {
            dim: space.dim(),
            positions,
        })
    }

    /// Number of devices `n` in the snapshot.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the snapshot holds no devices.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Space dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Position of device `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds; use [`Snapshot::try_position`] for a
    /// fallible accessor.
    pub fn position(&self, j: DeviceId) -> &Point {
        &self.positions[j.index()]
    }

    /// Fallible position accessor.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::UnknownDevice`] when `j` is out of bounds.
    pub fn try_position(&self, j: DeviceId) -> Result<&Point, QosError> {
        self.positions
            .get(j.index())
            .ok_or(QosError::UnknownDevice {
                id: j.0,
                population: self.positions.len(),
            })
    }

    /// Iterates over `(DeviceId, &Point)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &Point)> {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, p)| (DeviceId(i as u32), p))
    }

    /// All device ids in the snapshot.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> {
        (0..self.positions.len() as u32).map(DeviceId)
    }

    /// Uniform-norm distance between two devices in this snapshot.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of bounds.
    pub fn distance(&self, a: DeviceId, b: DeviceId) -> f64 {
        uniform_distance(self.position(a).coords(), self.position(b).coords())
    }

    /// Replaces the position of device `j` (used by simulators between steps).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds or the point dimension disagrees.
    pub fn set_position(&mut self, j: DeviceId, p: Point) {
        assert_eq!(p.dim(), self.dim, "point dimension must match snapshot");
        self.positions[j.index()] = p;
    }

    /// Consumes the snapshot, returning its positions in dense-id order —
    /// e.g. to feed every row of a pre-assembled matrix into a streaming
    /// ingestion path without cloning each point.
    pub fn into_positions(self) -> Vec<Point> {
        self.positions
    }

    /// Copies row `id` from `src` into this snapshot in place, reusing the
    /// row's existing allocation (no allocation, one `memcpy` of `d`
    /// floats). This is the buffer-recycling half of delta-style snapshot
    /// assembly: a stale buffer is brought up to date row by row instead of
    /// being re-cloned wholesale.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots disagree on dimension or `id` is out of
    /// bounds for either snapshot.
    pub fn copy_row_from(&mut self, src: &Snapshot, id: DeviceId) {
        assert_eq!(self.dim, src.dim, "snapshot dimensions must match");
        self.positions[id.index()].copy_from(&src.positions[id.index()]);
    }

    /// Edits rows in place: every `(id, point)` patch replaces device
    /// `id`'s position, leaving all other rows (and their allocations)
    /// untouched. Duplicate ids are legal; the last patch wins.
    ///
    /// This is the churn-tolerant delta primitive behind streaming epoch
    /// sealing: a fleet where only a few devices reported this instant
    /// patches exactly those rows — O(changed devices), not O(population).
    /// Validation is all-or-nothing: every patch is checked (id in bounds,
    /// dimension, unit cube) before the first row is written, so a
    /// malformed batch can never leave the snapshot half-patched.
    ///
    /// # Errors
    ///
    /// [`QosError::UnknownDevice`] for an out-of-bounds id,
    /// [`QosError::DimensionMismatch`] or
    /// [`QosError::CoordinateOutOfRange`] for an invalid point.
    ///
    /// # Example
    ///
    /// ```
    /// use anomaly_qos::{DeviceId, Point, QosSpace, Snapshot};
    /// let space = QosSpace::new(1)?;
    /// let mut snap = Snapshot::from_rows(&space, vec![vec![0.1], vec![0.2], vec![0.3]])?;
    /// snap.patch_rows(vec![(DeviceId(2), Point::new_unchecked(vec![0.9]))])?;
    /// assert_eq!(snap.position(DeviceId(2)).coords(), &[0.9]);
    /// assert_eq!(snap.position(DeviceId(0)).coords(), &[0.1]);
    /// # Ok::<(), anomaly_qos::QosError>(())
    /// ```
    pub fn patch_rows(
        &mut self,
        patches: impl IntoIterator<Item = (DeviceId, Point)>,
    ) -> Result<(), QosError> {
        let patches: Vec<(DeviceId, Point)> = patches.into_iter().collect();
        for (id, p) in &patches {
            if id.index() >= self.positions.len() {
                return Err(QosError::UnknownDevice {
                    id: id.0,
                    population: self.positions.len(),
                });
            }
            if p.dim() != self.dim {
                return Err(QosError::DimensionMismatch {
                    expected: self.dim,
                    actual: p.dim(),
                });
            }
            if !p.is_in_unit_cube() {
                let (index, value) = p
                    .coords()
                    .iter()
                    .enumerate()
                    .find(|(_, c)| !c.is_finite() || !(0.0..=1.0).contains(*c))
                    .map(|(i, c)| (i, *c))
                    .unwrap_or((0, f64::NAN));
                return Err(QosError::CoordinateOutOfRange { index, value });
            }
        }
        for (id, p) in patches {
            self.positions[id.index()] = p;
        }
        Ok(())
    }
}

/// A pair of successive system states `(S_{k-1}, S_k)`.
///
/// Every notion of the paper — consistent motions, anomaly partitions,
/// characterization — is defined on the time interval `[k-1, k]`, i.e. on a
/// `StatePair`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatePair {
    before: Snapshot,
    after: Snapshot,
}

impl StatePair {
    /// Pairs two snapshots.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::SnapshotMismatch`] if the two snapshots disagree on
    /// population size or dimension.
    pub fn new(before: Snapshot, after: Snapshot) -> Result<Self, QosError> {
        if before.len() != after.len() {
            return Err(QosError::SnapshotMismatch {
                reason: format!(
                    "population differs: {} before vs {} after",
                    before.len(),
                    after.len()
                ),
            });
        }
        if before.dim() != after.dim() {
            return Err(QosError::SnapshotMismatch {
                reason: format!(
                    "dimension differs: {} before vs {} after",
                    before.dim(),
                    after.dim()
                ),
            });
        }
        Ok(StatePair { before, after })
    }

    /// The earlier snapshot `S_{k-1}`.
    pub fn before(&self) -> &Snapshot {
        &self.before
    }

    /// The later snapshot `S_k`.
    pub fn after(&self) -> &Snapshot {
        &self.after
    }

    /// Number of devices `n`.
    pub fn len(&self) -> usize {
        self.before.len()
    }

    /// True when the pair holds no devices.
    pub fn is_empty(&self) -> bool {
        self.before.is_empty()
    }

    /// Space dimension `d`.
    pub fn dim(&self) -> usize {
        self.before.dim()
    }

    /// The trajectory of device `j` in `[k-1, k]`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn trajectory(&self, j: DeviceId) -> Trajectory {
        Trajectory::new(
            j,
            self.before.position(j).clone(),
            self.after.position(j).clone(),
        )
    }

    /// The *motion distance* between devices `a` and `b`: the larger of their
    /// uniform distances at `k-1` and at `k`.
    ///
    /// Two devices can belong to a common r-consistent motion only if this
    /// quantity is at most `2r` (Definitions 1 and 3).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of bounds.
    pub fn pairwise_motion_distance(&self, a: DeviceId, b: DeviceId) -> f64 {
        self.before.distance(a, b).max(self.after.distance(a, b))
    }

    /// Devices (other than `j`) within uniform distance `radius` of `j` at
    /// **both** times — the neighbourhood `N(j) = N_{k-1}(j) ∩ N_k(j)` that
    /// Algorithm 2 of the paper takes as input, computed by linear scan.
    ///
    /// For large populations prefer [`crate::TrajectoryIndex::vicinity`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn neighbors_both(&self, j: DeviceId, radius: f64) -> Vec<DeviceId> {
        self.before
            .device_ids()
            .filter(|&other| other != j && self.pairwise_motion_distance(j, other) <= radius)
            .collect()
    }

    /// All device ids.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> {
        self.before.device_ids()
    }

    /// Consumes the pair, returning `(before, after)` — e.g. to retain one
    /// snapshot across instants without re-cloning it.
    pub fn into_parts(self) -> (Snapshot, Snapshot) {
        (self.before, self.after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space2() -> QosSpace {
        QosSpace::new(2).unwrap()
    }

    #[test]
    fn snapshot_accessors() {
        let s = Snapshot::from_rows(&space2(), vec![vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.dim(), 2);
        assert_eq!(s.position(DeviceId(0)).coords(), &[0.1, 0.2]);
        assert!(s.try_position(DeviceId(5)).is_err());
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn snapshot_rejects_out_of_cube_point() {
        let err = Snapshot::new(&space2(), vec![Point::new_unchecked(vec![0.1, 1.4])]).unwrap_err();
        assert!(matches!(err, QosError::CoordinateOutOfRange { .. }));
    }

    #[test]
    fn snapshot_rejects_wrong_dim_point() {
        let err = Snapshot::new(&space2(), vec![Point::new_unchecked(vec![0.1])]).unwrap_err();
        assert!(matches!(err, QosError::DimensionMismatch { .. }));
    }

    #[test]
    fn snapshot_distance_uses_uniform_norm() {
        let s = Snapshot::from_rows(&space2(), vec![vec![0.1, 0.2], vec![0.3, 0.9]]).unwrap();
        assert!((s.distance(DeviceId(0), DeviceId(1)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn patch_rows_edits_in_place_last_write_wins() {
        let mut s = Snapshot::from_rows(
            &space2(),
            vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 0.6]],
        )
        .unwrap();
        s.patch_rows(vec![
            (DeviceId(1), Point::new_unchecked(vec![0.7, 0.7])),
            (DeviceId(1), Point::new_unchecked(vec![0.8, 0.9])),
        ])
        .unwrap();
        assert_eq!(s.position(DeviceId(1)).coords(), &[0.8, 0.9]);
        assert_eq!(s.position(DeviceId(0)).coords(), &[0.1, 0.2]);
        // Empty patch sets are legal no-ops.
        s.patch_rows(Vec::new()).unwrap();
    }

    #[test]
    fn patch_rows_is_all_or_nothing() {
        let mut s = Snapshot::from_rows(&space2(), vec![vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        // A valid patch followed by an invalid one: nothing is applied.
        let err = s
            .patch_rows(vec![
                (DeviceId(0), Point::new_unchecked(vec![0.9, 0.9])),
                (DeviceId(1), Point::new_unchecked(vec![1.4, 0.0])),
            ])
            .unwrap_err();
        assert!(matches!(err, QosError::CoordinateOutOfRange { .. }));
        assert_eq!(s.position(DeviceId(0)).coords(), &[0.1, 0.2]);
        let err = s
            .patch_rows(vec![(DeviceId(5), Point::new_unchecked(vec![0.5, 0.5]))])
            .unwrap_err();
        assert!(matches!(err, QosError::UnknownDevice { id: 5, .. }));
        let err = s
            .patch_rows(vec![(DeviceId(0), Point::new_unchecked(vec![0.5]))])
            .unwrap_err();
        assert!(matches!(err, QosError::DimensionMismatch { .. }));
    }

    #[test]
    fn copy_row_from_reuses_the_allocation() {
        let src = Snapshot::from_rows(&space2(), vec![vec![0.9, 0.8], vec![0.7, 0.6]]).unwrap();
        let mut dst = Snapshot::from_rows(&space2(), vec![vec![0.1, 0.1], vec![0.2, 0.2]]).unwrap();
        dst.copy_row_from(&src, DeviceId(1));
        assert_eq!(dst.position(DeviceId(1)).coords(), &[0.7, 0.6]);
        assert_eq!(dst.position(DeviceId(0)).coords(), &[0.1, 0.1]);
    }

    #[test]
    fn into_positions_preserves_dense_order() {
        let s = Snapshot::from_rows(&space2(), vec![vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        let points = s.into_positions();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].coords(), &[0.3, 0.4]);
    }

    #[test]
    fn state_pair_rejects_population_mismatch() {
        let a = Snapshot::from_rows(&space2(), vec![vec![0.1, 0.2]]).unwrap();
        let b = Snapshot::from_rows(&space2(), vec![vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        assert!(StatePair::new(a, b).is_err());
    }

    #[test]
    fn state_pair_rejects_dimension_mismatch() {
        let a = Snapshot::from_rows(&space2(), vec![vec![0.1, 0.2]]).unwrap();
        let s1 = QosSpace::new(1).unwrap();
        let b = Snapshot::from_rows(&s1, vec![vec![0.1]]).unwrap();
        assert!(StatePair::new(a, b).is_err());
    }

    #[test]
    fn motion_distance_is_max_over_times() {
        let before = Snapshot::from_rows(&space2(), vec![vec![0.1, 0.1], vec![0.15, 0.1]]).unwrap();
        let after = Snapshot::from_rows(&space2(), vec![vec![0.5, 0.5], vec![0.9, 0.5]]).unwrap();
        let pair = StatePair::new(before, after).unwrap();
        // distance 0.05 before, 0.4 after -> max 0.4
        assert!((pair.pairwise_motion_distance(DeviceId(0), DeviceId(1)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn neighbors_both_requires_closeness_at_both_times() {
        let before = Snapshot::from_rows(
            &space2(),
            vec![vec![0.1, 0.1], vec![0.12, 0.1], vec![0.12, 0.1]],
        )
        .unwrap();
        let after = Snapshot::from_rows(
            &space2(),
            vec![vec![0.5, 0.5], vec![0.52, 0.5], vec![0.9, 0.9]],
        )
        .unwrap();
        let pair = StatePair::new(before, after).unwrap();
        // Device 1 stays close to 0 at both times; device 2 only before.
        assert_eq!(pair.neighbors_both(DeviceId(0), 0.06), vec![DeviceId(1)]);
    }

    #[test]
    fn trajectory_links_positions() {
        let before = Snapshot::from_rows(&space2(), vec![vec![0.1, 0.1]]).unwrap();
        let after = Snapshot::from_rows(&space2(), vec![vec![0.4, 0.1]]).unwrap();
        let pair = StatePair::new(before, after).unwrap();
        let t = pair.trajectory(DeviceId(0));
        assert!((t.displacement_norm() - 0.3).abs() < 1e-12);
    }
}
