use crate::error::QosError;
use crate::norm::uniform_distance;
use crate::point::{DeviceId, Point};
use crate::space::{check_row, QosSpace};
use crate::trajectory::Trajectory;

/// The system state `S_k` at one discrete time: the position of every device.
///
/// Positions are stored row-major in one flat buffer of stride `d` (the
/// space dimension): device `j`'s coordinates are the `d` values starting
/// at `j·d`, and [`Snapshot::position`] returns them as a `&[f64]`. Copying a
/// row or the whole snapshot is a slice copy; no position is its own heap
/// allocation. [`Point`] appears only at the edges, where positions are
/// built or replaced one at a time ([`Snapshot::new`],
/// [`Snapshot::set_position`], [`StatePair::trajectory`]).
///
/// # Example
///
/// ```
/// use anomaly_qos::{QosSpace, Snapshot, DeviceId};
/// let space = QosSpace::new(2)?;
/// let snap = Snapshot::from_rows(&space, vec![vec![0.1, 0.2], vec![0.3, 0.4]])?;
/// assert_eq!(snap.len(), 2);
/// assert_eq!(snap.position(DeviceId(1)), &[0.3, 0.4]);
/// # Ok::<(), anomaly_qos::QosError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    dim: usize,
    /// Row-major positions, `dim` values per device.
    coords: Vec<f64>,
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
        let mut coords = Vec::with_capacity(positions.len() * space.dim());
        for p in &positions {
            space.check(p.coords())?;
            coords.extend_from_slice(p.coords());
        }
        Ok(Snapshot {
            dim: space.dim(),
            coords,
        })
    }

    /// Builds a snapshot from raw coordinate rows, validating each row.
    ///
    /// # Errors
    ///
    /// Same as [`Snapshot::new`].
    pub fn from_rows(space: &QosSpace, rows: Vec<Vec<f64>>) -> Result<Self, QosError> {
        let mut coords = Vec::with_capacity(rows.len() * space.dim());
        for row in &rows {
            space.check(row)?;
            coords.extend_from_slice(row);
        }
        Ok(Snapshot {
            dim: space.dim(),
            coords,
        })
    }

    /// Builds a snapshot from its flat row-major layout: `d` coordinates
    /// per device, device `j`'s starting at `j·d`. The buffer becomes the
    /// snapshot's storage; nothing is copied.
    ///
    /// # Errors
    ///
    /// [`QosError::DimensionMismatch`] when the length is not a multiple of
    /// `d` (the trailing partial row is the offending point), or
    /// [`QosError::CoordinateOutOfRange`] for a coordinate outside `[0,1]`.
    pub fn from_flat(space: &QosSpace, coords: Vec<f64>) -> Result<Self, QosError> {
        let dim = space.dim();
        let tail = coords.len() % dim;
        if tail != 0 {
            return Err(QosError::DimensionMismatch {
                expected: dim,
                actual: tail,
            });
        }
        for row in coords.chunks_exact(dim) {
            space.check(row)?;
        }
        Ok(Snapshot { dim, coords })
    }

    /// Number of devices `n` in the snapshot.
    pub fn len(&self) -> usize {
        self.coords.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when the snapshot holds no devices.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Space dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The storage range of row `j`, if `j` is in bounds.
    fn span(&self, j: DeviceId) -> Option<std::ops::Range<usize>> {
        let start = j.index().checked_mul(self.dim)?;
        let end = start.checked_add(self.dim)?;
        (end <= self.coords.len()).then_some(start..end)
    }

    fn unknown(&self, j: DeviceId) -> QosError {
        QosError::UnknownDevice {
            id: j.0,
            population: self.len(),
        }
    }

    /// Position of device `j`: its `d` coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds; use [`Snapshot::try_position`] for a
    /// fallible accessor.
    pub fn position(&self, j: DeviceId) -> &[f64] {
        match self.try_position(j) {
            Ok(row) => row,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible position accessor.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::UnknownDevice`] when `j` is out of bounds.
    pub fn try_position(&self, j: DeviceId) -> Result<&[f64], QosError> {
        self.span(j)
            .and_then(|span| self.coords.get(span))
            .ok_or_else(|| self.unknown(j))
    }

    /// Iterates over `(DeviceId, position)` pairs in dense-id order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &[f64])> {
        self.coords
            .chunks_exact(self.dim.max(1))
            .enumerate()
            .map(|(i, row)| (DeviceId(i as u32), row))
    }

    /// All device ids in the snapshot.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> {
        (0..self.len() as u32).map(DeviceId)
    }

    /// Uniform-norm distance between two devices in this snapshot.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of bounds.
    pub fn distance(&self, a: DeviceId, b: DeviceId) -> f64 {
        uniform_distance(self.position(a), self.position(b))
    }

    /// Replaces the position of device `j` (used by simulators between steps).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds or the point dimension disagrees.
    pub fn set_position(&mut self, j: DeviceId, p: Point) {
        assert_eq!(p.dim(), self.dim, "point dimension must match snapshot");
        let span = self
            .span(j)
            .unwrap_or_else(|| panic!("{}", self.unknown(j)));
        self.coords[span].copy_from_slice(p.coords());
    }

    /// Copies row `id` from `src` into this snapshot in place: one slice
    /// copy of `d` floats, no allocation. This is the buffer-recycling half
    /// of delta-style snapshot assembly: a stale buffer is brought up to
    /// date row by row instead of being re-cloned wholesale.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots disagree on dimension or `id` is out of
    /// bounds for either snapshot.
    pub fn copy_row_from(&mut self, src: &Snapshot, id: DeviceId) {
        assert_eq!(self.dim, src.dim, "snapshot dimensions must match");
        let span = self
            .span(id)
            .unwrap_or_else(|| panic!("{}", self.unknown(id)));
        self.coords[span].copy_from_slice(src.position(id));
    }

    /// Overwrites row `id` with `row` without checking that its
    /// coordinates lie in the unit cube — for rows validated on the way
    /// in, such as a monitor's staged updates. Like
    /// [`Point::new_unchecked`], an out-of-range coordinate only degrades
    /// semantics, never memory safety.
    ///
    /// # Errors
    ///
    /// [`QosError::UnknownDevice`] for an out-of-bounds id and
    /// [`QosError::DimensionMismatch`] for a row of the wrong length; the
    /// snapshot is unchanged then.
    pub fn set_row_unchecked(&mut self, id: DeviceId, row: &[f64]) -> Result<(), QosError> {
        if row.len() != self.dim {
            return Err(QosError::DimensionMismatch {
                expected: self.dim,
                actual: row.len(),
            });
        }
        let unknown = self.unknown(id);
        let dst = self
            .span(id)
            .and_then(|span| self.coords.get_mut(span))
            .ok_or(unknown)?;
        dst.copy_from_slice(row);
        Ok(())
    }

    /// Edits rows in place: every `(id, row)` patch replaces device `id`'s
    /// position with a slice copy, leaving all other rows untouched.
    /// Duplicate ids are legal; the last patch wins.
    ///
    /// A fleet where only a few devices reported this instant patches
    /// exactly those rows — O(changed devices), not O(population).
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
    /// assert_eq!(snap.position(DeviceId(2)), &[0.9]);
    /// assert_eq!(snap.position(DeviceId(0)), &[0.1]);
    /// # Ok::<(), anomaly_qos::QosError>(())
    /// ```
    pub fn patch_rows<P: AsRef<[f64]>>(
        &mut self,
        patches: impl IntoIterator<Item = (DeviceId, P)>,
    ) -> Result<(), QosError> {
        let patches: Vec<(DeviceId, P)> = patches.into_iter().collect();
        for (id, p) in &patches {
            if self.span(*id).is_none() {
                return Err(self.unknown(*id));
            }
            check_row(self.dim, p.as_ref())?;
        }
        for (id, p) in patches {
            self.set_row_unchecked(id, p.as_ref())?;
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
            Point::new_unchecked(self.before.position(j).to_vec()),
            Point::new_unchecked(self.after.position(j).to_vec()),
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
        assert_eq!(s.position(DeviceId(0)), &[0.1, 0.2]);
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
        assert_eq!(s.position(DeviceId(1)), &[0.8, 0.9]);
        assert_eq!(s.position(DeviceId(0)), &[0.1, 0.2]);
        // Empty patch sets are legal no-ops.
        s.patch_rows(Vec::<(DeviceId, Point)>::new()).unwrap();
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
        assert_eq!(s.position(DeviceId(0)), &[0.1, 0.2]);
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
        assert_eq!(dst.position(DeviceId(1)), &[0.7, 0.6]);
        assert_eq!(dst.position(DeviceId(0)), &[0.1, 0.1]);
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
