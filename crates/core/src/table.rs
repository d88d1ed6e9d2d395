use crate::set::DeviceSet;
use anomaly_qos::{uniform_distance, CellGeometry, DeviceId, StatePair, TrajectoryIndex};
use std::error::Error;
use std::fmt;

/// Errors raised by the fallible [`TrajectoryTable`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TableError {
    /// A concatenated row did not hold `2 * dim` coordinates.
    WrongRowWidth {
        /// The offending device.
        id: DeviceId,
        /// `2 * dim`.
        expected: usize,
        /// The row's actual length.
        actual: usize,
    },
    /// The same device id appeared twice.
    DuplicateDevice {
        /// The repeated id.
        id: DeviceId,
    },
    /// A row held a coordinate that is not finite: the cell index would
    /// misfile it, and a neighbourhood query could miss a neighbour.
    NonFinite {
        /// The offending device.
        id: DeviceId,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::WrongRowWidth {
                id,
                expected,
                actual,
            } => write!(
                f,
                "device {id}: row holds {actual} coordinates, expected 2*dim = {expected}"
            ),
            TableError::DuplicateDevice { id } => write!(f, "duplicate device id {id}"),
            TableError::NonFinite { id } => {
                write!(f, "device {id}: row holds a coordinate that is not finite")
            }
        }
    }
}

impl Error for TableError {}

/// Trajectories of the abnormal devices, in the concatenated `2d`-space.
///
/// Definition 3 makes a set `B` an *r-consistent motion* when it is
/// r-consistent at both `k−1` and `k`; under the uniform norm this is
/// equivalent to `B` having L∞ diameter at most `2r` in the `2d`-dimensional
/// space obtained by concatenating each device's position at `k−1` with its
/// position at `k`. The table stores exactly these concatenated coordinates
/// for the devices under analysis (typically `A_k`, the flagged devices),
/// one flat row of `2d` values per device, in ascending id order.
///
/// # Example
///
/// ```
/// use anomaly_core::TrajectoryTable;
/// use anomaly_qos::{DeviceId, QosSpace, Snapshot, StatePair};
///
/// let space = QosSpace::new(2)?;
/// let before = Snapshot::from_rows(&space, vec![vec![0.1, 0.2], vec![0.15, 0.2]])?;
/// let after  = Snapshot::from_rows(&space, vec![vec![0.6, 0.7], vec![0.65, 0.7]])?;
/// let pair = StatePair::new(before, after)?;
/// let table = TrajectoryTable::from_state_pair(&pair, &[DeviceId(0), DeviceId(1)]);
/// assert_eq!(table.len(), 2);
/// assert!((table.motion_distance(DeviceId(0), DeviceId(1)) - 0.05).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryTable {
    /// Space dimension `d` (the concatenated space has `2d` axes).
    dim: usize,
    /// Sorted device ids; the device of slot `i` is `ids[i]`.
    ids: Vec<DeviceId>,
    /// Slot-major concatenated coordinates: slot `i` owns
    /// `coords[2d·i .. 2d·(i+1)]`.
    coords: Vec<f64>,
}

impl TrajectoryTable {
    /// Builds a table for `devices` from a pair of snapshots.
    ///
    /// # Panics
    ///
    /// Panics if any device id is out of bounds for the pair.
    pub fn from_state_pair(pair: &StatePair, devices: &[DeviceId]) -> Self {
        let dim = pair.dim();
        let mut ids = devices.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let mut coords = Vec::with_capacity(ids.len() * 2 * dim);
        for &id in &ids {
            coords.extend_from_slice(pair.before().position(id));
            coords.extend_from_slice(pair.after().position(id));
        }
        TrajectoryTable { dim, ids, coords }
    }

    /// Builds a table directly from concatenated coordinates
    /// (`2*dim` values per device: position at `k−1`, then at `k`).
    ///
    /// # Panics
    ///
    /// Panics if any row length differs from `2*dim`, a coordinate is not
    /// finite, or ids repeat; use
    /// [`TrajectoryTable::try_from_concatenated`] for the fallible form.
    pub fn from_concatenated(dim: usize, rows: Vec<(DeviceId, Vec<f64>)>) -> Self {
        match TrajectoryTable::try_from_concatenated(dim, rows) {
            Ok(table) => table,
            Err(TableError::WrongRowWidth { .. }) => {
                panic!("row must hold 2*dim coordinates")
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`TrajectoryTable::from_concatenated`] — the
    /// construction path for incremental monitors, which assemble
    /// trajectories row by row from successive snapshots instead of pairing
    /// whole `Snapshot`s, and must surface malformed input as typed errors
    /// rather than panics.
    ///
    /// # Errors
    ///
    /// [`TableError::WrongRowWidth`] for the first row (in input order)
    /// that does not hold exactly `2 * dim` coordinates; otherwise
    /// [`TableError::NonFinite`] for the first row holding a `NaN` or an
    /// infinity; otherwise [`TableError::DuplicateDevice`] for the smallest
    /// id that repeats.
    pub fn try_from_concatenated(
        dim: usize,
        mut rows: Vec<(DeviceId, Vec<f64>)>,
    ) -> Result<Self, TableError> {
        if let Some((id, row)) = rows.iter().find(|(_, row)| row.len() != 2 * dim) {
            return Err(TableError::WrongRowWidth {
                id: *id,
                expected: 2 * dim,
                actual: row.len(),
            });
        }
        if let Some((id, _)) = rows
            .iter()
            .find(|(_, row)| row.iter().any(|c| !c.is_finite()))
        {
            return Err(TableError::NonFinite { id: *id });
        }
        rows.sort_by_key(|&(id, _)| id);
        if let Some(pair) = rows.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(TableError::DuplicateDevice { id: pair[0].0 });
        }
        let ids = rows.iter().map(|&(id, _)| id).collect();
        let coords = rows.into_iter().flat_map(|(_, row)| row).collect();
        Ok(TrajectoryTable { dim, ids, coords })
    }

    /// Convenience for 1-service systems: rows of `(id, before, after)`,
    /// matching the paper's figures (QoS at `k` as a function of QoS at
    /// `k−1`).
    pub fn from_pairs_1d(rows: &[(u32, f64, f64)]) -> Self {
        TrajectoryTable::from_concatenated(
            1,
            rows.iter()
                .map(|&(id, b, a)| (DeviceId(id), vec![b, a]))
                .collect(),
        )
    }

    /// Space dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of devices in the table.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Sorted device ids.
    pub fn ids(&self) -> &[DeviceId] {
        &self.ids
    }

    /// All devices as a [`DeviceSet`].
    pub fn device_set(&self) -> DeviceSet {
        self.ids.iter().copied().collect()
    }

    /// True if the table holds `id`.
    pub fn contains(&self, id: DeviceId) -> bool {
        self.slot(id).is_some()
    }

    /// The slot of `id`: its rank among the table's ids.
    pub(crate) fn slot(&self, id: DeviceId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The concatenated row of slot `slot`.
    fn row(&self, slot: usize) -> &[f64] {
        let width = 2 * self.dim;
        self.coords
            .get(slot * width..(slot + 1) * width)
            .unwrap_or(&[])
    }

    /// Concatenated coordinates of a device.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the table.
    pub fn concatenated(&self, id: DeviceId) -> &[f64] {
        match self.slot(id) {
            Some(slot) => self.row(slot),
            None => panic!("device {id} not in table"),
        }
    }

    /// Motion distance between two devices: the L∞ distance of their
    /// concatenated coordinates (= max of the distances at the two times).
    ///
    /// # Panics
    ///
    /// Panics if either id is not in the table.
    pub fn motion_distance(&self, a: DeviceId, b: DeviceId) -> f64 {
        uniform_distance(self.concatenated(a), self.concatenated(b))
    }

    /// Devices of the table (other than `j`) within motion distance `2r` of
    /// `j` — the candidate set `N(j)` of Algorithm 2, restricted to `A_k`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not in the table.
    pub fn neighborhood(&self, j: DeviceId, window: f64) -> Vec<DeviceId> {
        assert!(self.contains(j), "device {j} not in table");
        self.neighborhoods(&[j], window).pop().unwrap_or_default()
    }

    /// [`TrajectoryTable::neighborhood`] of every device of `js`, in
    /// order, from one [`TrajectoryIndex`] over the table. The index is
    /// walked once per distinct `(before-cell, after-cell)` key among the
    /// queries ([`TrajectoryIndex::candidates_per_key`]), so devices that
    /// moved together share one walk; each device then tests the key's
    /// candidates exactly. An id not in the table gets an empty list.
    pub fn neighborhoods(&self, js: &[DeviceId], window: f64) -> Vec<Vec<DeviceId>> {
        let d = self.dim;
        let geometry = CellGeometry::new(d, window);
        // Every constructor rejects a row that is not finite, so the index
        // build cannot fail.
        let index = TrajectoryIndex::from_trajectories(
            geometry,
            (0..self.len()).map(|slot| self.row(slot).split_at(d)),
        )
        .expect("table rows are finite");
        let queries = js.iter().enumerate().filter_map(|(q, &j)| {
            let slot = self.slot(j)?;
            let (before, after) = self.row(slot).split_at(d);
            Some(((q, slot), before, after))
        });
        let mut out = vec![Vec::new(); js.len()];
        index.candidates_per_key(queries, window, |candidates, queries| {
            // Slots ascend with ids.
            let mut candidates = candidates.to_vec();
            candidates.sort_unstable();
            for &(q, slot) in queries {
                let row = self.row(slot);
                out[q] = candidates
                    .iter()
                    .map(|&other| other as usize)
                    .filter(|&other| {
                        other != slot && uniform_distance(row, self.row(other)) <= window
                    })
                    .filter_map(|other| self.ids.get(other).copied())
                    .collect();
            }
        });
        out
    }

    /// Restricts the table to `keep`, dropping all other devices.
    pub fn restricted_to(&self, keep: &DeviceSet) -> TrajectoryTable {
        let mut ids = Vec::new();
        let mut coords = Vec::new();
        for (slot, &id) in self.ids.iter().enumerate() {
            if keep.contains(id) {
                ids.push(id);
                coords.extend_from_slice(self.row(slot));
            }
        }
        TrajectoryTable {
            dim: self.dim,
            ids,
            coords,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_1d_builds_concatenated_rows() {
        let t = TrajectoryTable::from_pairs_1d(&[(0, 0.1, 0.5), (1, 0.2, 0.6)]);
        assert_eq!(t.dim(), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.concatenated(DeviceId(0)), &[0.1, 0.5]);
        assert!((t.motion_distance(DeviceId(0), DeviceId(1)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn neighborhood_excludes_self_and_far_devices() {
        let t = TrajectoryTable::from_pairs_1d(&[
            (0, 0.10, 0.50),
            (1, 0.12, 0.52),
            (2, 0.30, 0.52), // close after, far before
            (3, 0.12, 0.90), // close before, far after
        ]);
        assert_eq!(t.neighborhood(DeviceId(0), 0.06), vec![DeviceId(1)]);
    }

    #[test]
    fn neighborhoods_answer_in_query_order() {
        let t =
            TrajectoryTable::from_pairs_1d(&[(3, 0.10, 0.50), (7, 0.12, 0.52), (9, 0.80, 0.20)]);
        assert_eq!(
            t.neighborhoods(&[DeviceId(9), DeviceId(3), DeviceId(4), DeviceId(7)], 0.06),
            vec![vec![], vec![DeviceId(7)], vec![], vec![DeviceId(3)]]
        );
        assert!(t.neighborhoods(&[], 0.06).is_empty());
        // A zero window keeps only identical trajectories.
        let twins = TrajectoryTable::from_pairs_1d(&[(0, 0.3, 0.4), (1, 0.3, 0.4), (2, 0.3, 0.41)]);
        assert_eq!(twins.neighborhood(DeviceId(0), 0.0), vec![DeviceId(1)]);
    }

    proptest::proptest! {
        /// The indexed neighbourhoods equal the pairwise scan over the
        /// table, on grid-aligned decimals with gaps of exactly the window.
        /// Each drawn trajectory is held by a crowd of up to three devices
        /// (identical, or nudged by a thousandth), so queries share keys;
        /// queries come rotated, some twice, plus one absent id.
        #[test]
        fn neighborhoods_equal_the_pairwise_scan(
            rows in proptest::collection::vec(
                (proptest::collection::vec(0usize..10, 4), 1usize..4), 1..30),
            dim in 1usize..3,
            window_pick in 0usize..3,
            rotate in 0usize..64,
            repeats in 0usize..5,
        ) {
            const PALETTE: [f64; 10] = [0.0, 0.04, 0.07, 0.1, 0.14, 0.2, 0.3, 0.5, 0.9, 1.0];
            let window = [0.05, 0.1, 0.2][window_pick];
            let mut table_rows = Vec::new();
            for (r, crowd) in &rows {
                for i in 0..*crowd {
                    let nudge = 0.001 * (i % 2) as f64;
                    let row = r[..2 * dim].iter().map(|&c| (PALETTE[c] - nudge).max(0.0)).collect();
                    table_rows.push((DeviceId(2 * table_rows.len() as u32), row));
                }
            }
            let t = TrajectoryTable::from_concatenated(dim, table_rows);
            let mut js = t.ids().to_vec();
            let by = rotate % js.len();
            js.rotate_left(by);
            js.extend_from_within(..repeats.min(js.len()));
            js.push(DeviceId(1));
            let got = t.neighborhoods(&js, window);
            proptest::prop_assert_eq!(got.len(), js.len());
            for (&j, near) in js.iter().zip(&got) {
                let want: Vec<DeviceId> = if t.contains(j) {
                    t.ids()
                        .iter()
                        .copied()
                        .filter(|&o| o != j && t.motion_distance(j, o) <= window)
                        .collect()
                } else {
                    Vec::new()
                };
                proptest::prop_assert_eq!(near, &want);
            }
        }
    }

    #[test]
    fn restriction_keeps_requested_devices() {
        let t = TrajectoryTable::from_pairs_1d(&[(0, 0.1, 0.1), (1, 0.2, 0.2), (2, 0.3, 0.3)]);
        let r = t.restricted_to(&DeviceSet::from([0, 2]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(DeviceId(0)));
        assert!(!r.contains(DeviceId(1)));
    }

    #[test]
    fn try_constructor_reports_typed_errors() {
        assert_eq!(
            TrajectoryTable::try_from_concatenated(2, vec![(DeviceId(4), vec![0.1, 0.2])]),
            Err(TableError::WrongRowWidth {
                id: DeviceId(4),
                expected: 4,
                actual: 2,
            })
        );
        assert_eq!(
            TrajectoryTable::try_from_concatenated(
                1,
                vec![(DeviceId(0), vec![0.1, 0.2]), (DeviceId(0), vec![0.3, 0.4])],
            ),
            Err(TableError::DuplicateDevice { id: DeviceId(0) })
        );
        let ok =
            TrajectoryTable::try_from_concatenated(1, vec![(DeviceId(0), vec![0.1, 0.2])]).unwrap();
        assert_eq!(ok.len(), 1);
        assert!(!TableError::DuplicateDevice { id: DeviceId(0) }
            .to_string()
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate device id")]
    fn rejects_duplicate_ids() {
        TrajectoryTable::from_concatenated(
            1,
            vec![(DeviceId(0), vec![0.1, 0.2]), (DeviceId(0), vec![0.3, 0.4])],
        );
    }

    /// `NaN` falls in cell 0 of its axis while the distance ignores it, so
    /// a neighbourhood query over such a row could miss a neighbour: the
    /// row is refused.
    #[test]
    fn rejects_a_coordinate_that_is_not_finite() {
        let rows = vec![
            (DeviceId(0), vec![1e6, 0.5]),
            (DeviceId(1), vec![1e6, f64::NAN]),
        ];
        assert_eq!(
            TrajectoryTable::try_from_concatenated(1, rows.clone()),
            Err(TableError::NonFinite { id: DeviceId(1) })
        );
        let infinite = vec![(DeviceId(2), vec![f64::INFINITY, 0.5])];
        assert_eq!(
            TrajectoryTable::try_from_concatenated(1, infinite),
            Err(TableError::NonFinite { id: DeviceId(2) })
        );
        let panic = std::panic::catch_unwind(|| TrajectoryTable::from_concatenated(1, rows));
        let message = panic.expect_err("a NaN row must panic");
        let message = message
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("not finite"), "{message}");
    }

    #[test]
    #[should_panic(expected = "2*dim")]
    fn rejects_wrong_row_width() {
        TrajectoryTable::from_concatenated(2, vec![(DeviceId(0), vec![0.1, 0.2])]);
    }

    #[test]
    fn ids_are_sorted_and_deduped() {
        use anomaly_qos::{QosSpace, Snapshot};
        let space = QosSpace::new(1).unwrap();
        let before = Snapshot::from_rows(&space, vec![vec![0.1], vec![0.2], vec![0.3]]).unwrap();
        let after = Snapshot::from_rows(&space, vec![vec![0.1], vec![0.2], vec![0.3]]).unwrap();
        let pair = StatePair::new(before, after).unwrap();
        let t = TrajectoryTable::from_state_pair(&pair, &[DeviceId(2), DeviceId(0), DeviceId(2)]);
        assert_eq!(t.ids(), &[DeviceId(0), DeviceId(2)]);
    }
}
