use crate::point::{DeviceId, Point};
use crate::snapshot::StatePair;

/// How [`GridIndex::apply_moves`] brought the index up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridUpdate {
    /// Only the devices whose cell changed were re-bucketed.
    Incremental {
        /// Number of devices moved between buckets.
        rebucketed: usize,
    },
    /// The incremental path was not applicable (dimension, resolution, or
    /// population changed) and the index was rebuilt from scratch.
    Rebuilt,
}

/// The cell layout of a [`GridIndex`]: what a dimension and a minimum cell
/// side determine before any position is indexed.
///
/// Every index built over `dim`-dimensional positions with cells no
/// smaller than `min_cell_side` uses this layout, so
/// [`CellGeometry::cell_index`] agrees with [`GridIndex::cell_index`] and
/// callers can place positions in cells before the first build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGeometry {
    cells_per_axis: usize,
    cell_side: f64,
}

impl CellGeometry {
    /// The layout for `dim` axes and cells no smaller than `min_cell_side`.
    /// The axis resolution is capped so `cells_per_axis^dim` stays
    /// affordable in higher dimensions (`dim` is small in practice: the
    /// number of services).
    pub fn new(dim: usize, min_cell_side: f64) -> Self {
        let max_axis = match dim {
            1 => 4096,
            2 => 512,
            3 => 64,
            _ => 16,
        };
        let cells_per_axis = ((1.0 / min_cell_side).floor() as usize).clamp(1, max_axis);
        CellGeometry {
            cells_per_axis,
            cell_side: 1.0 / cells_per_axis as f64,
        }
    }

    /// Flattened index of the cell `coords` falls in.
    pub fn cell_index(&self, coords: &[f64]) -> usize {
        GridIndex::flatten(coords, self.cells_per_axis, self.cell_side)
    }
}

/// Uniform-grid spatial index over a [`StatePair`].
///
/// Buckets devices by their position at time `k-1` into hypercube cells of a
/// configurable side, so that the vicinity query *"all devices within uniform
/// distance `radius` of `j` at both times"* inspects only the `3^d`-ish cells
/// around `j` instead of the whole population. Candidates from the grid are
/// then filtered exactly on the motion distance, so results are identical to
/// the linear scan [`StatePair::neighbors_both`].
///
/// The local algorithms of the paper only ever look `2r` (one hop) or `4r`
/// (two hops) away, and `r < 1/4`, so cell sides match query radii well.
///
/// # Example
///
/// ```
/// use anomaly_qos::{GridIndex, QosSpace, Snapshot, StatePair, DeviceId};
/// let space = QosSpace::new(2)?;
/// let before = Snapshot::from_rows(&space, vec![vec![0.1, 0.1], vec![0.12, 0.11], vec![0.9, 0.9]])?;
/// let after  = Snapshot::from_rows(&space, vec![vec![0.4, 0.4], vec![0.42, 0.41], vec![0.9, 0.8]])?;
/// let pair = StatePair::new(before, after)?;
/// let index = GridIndex::build(&pair, 0.06);
/// assert_eq!(index.neighbors_both(&pair, DeviceId(0), 0.06), vec![DeviceId(1)]);
/// # Ok::<(), anomaly_qos::QosError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    /// Number of cells along each axis.
    cells_per_axis: usize,
    /// Cell side length (1 / cells_per_axis).
    cell_side: f64,
    /// Space dimension.
    dim: usize,
    /// Population the index was built over (before-positions).
    population: usize,
    /// Flattened cell -> device ids bucketed by before-position.
    buckets: Vec<Vec<DeviceId>>,
    /// Per device (dense ids): the flattened cell it is bucketed in.
    cell_of: Vec<usize>,
    /// Per device: its slot within its bucket, so incremental updates
    /// remove in O(1) instead of scanning the bucket.
    slot_of: Vec<usize>,
}

impl GridIndex {
    /// Builds an index over the `before` positions of `pair`, with cells no
    /// smaller than `min_cell_side` (typically the query radius `2r`).
    ///
    /// # Panics
    ///
    /// Panics if `min_cell_side` is not a positive finite number.
    pub fn build(pair: &StatePair, min_cell_side: f64) -> Self {
        let mut index = GridIndex {
            cells_per_axis: 0,
            cell_side: 1.0,
            dim: 0,
            population: 0,
            buckets: Vec::new(),
            cell_of: Vec::new(),
            slot_of: Vec::new(),
        };
        index.rebuild(pair, min_cell_side);
        index
    }

    /// Re-indexes a (possibly different) state pair in place, reusing the
    /// bucket allocations of the previous instant.
    ///
    /// Continuous monitors rebuild the vicinity index at every sampling
    /// instant; after the first few instants the per-cell vectors have
    /// reached their steady-state capacities and re-indexing allocates
    /// nothing. The resulting index is identical to a fresh
    /// [`GridIndex::build`].
    ///
    /// # Panics
    ///
    /// Panics if `min_cell_side` is not a positive finite number.
    pub fn rebuild(&mut self, pair: &StatePair, min_cell_side: f64) {
        assert!(
            min_cell_side.is_finite() && min_cell_side > 0.0,
            "cell side must be positive and finite"
        );
        let dim = pair.dim();
        let CellGeometry {
            cells_per_axis,
            cell_side,
        } = CellGeometry::new(dim, min_cell_side);
        let total_cells = cells_per_axis.pow(dim as u32);
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.buckets.resize_with(total_cells, Vec::new);
        self.cell_of.clear();
        self.slot_of.clear();
        self.cell_of.reserve(pair.len());
        self.slot_of.reserve(pair.len());
        for (id, p) in pair.before().iter() {
            let cell = Self::flatten(p.coords(), cells_per_axis, cell_side);
            self.cell_of.push(cell);
            self.slot_of.push(self.buckets[cell].len());
            self.buckets[cell].push(id);
        }
        self.cells_per_axis = cells_per_axis;
        self.cell_side = cell_side;
        self.dim = dim;
        self.population = pair.len();
    }

    /// Incrementally maintains the index across one sampling instant.
    ///
    /// `moves` lists every device whose **before**-position changed since
    /// the index last described a state pair, as `(device, old position,
    /// new position)`; `pair` is the state pair the index must describe
    /// after the call. Only devices whose grid cell actually changed are
    /// re-bucketed, so a mostly-calm fleet updates in time proportional to
    /// the churn, not the population.
    ///
    /// Falls back to a full [`GridIndex::rebuild`] — returning
    /// [`GridUpdate::Rebuilt`] — whenever the incremental path cannot apply:
    /// the dimension changed, `min_cell_side` implies a different cell
    /// resolution, or the population differs from the one indexed.
    ///
    /// The resulting index is identical to a fresh
    /// [`GridIndex::build`]`(pair, min_cell_side)` as long as `moves` is
    /// complete and accurate; queries remain exact either way because
    /// candidates are always filtered on the true motion distance.
    ///
    /// # Panics
    ///
    /// Panics if `min_cell_side` is not a positive finite number, or if a
    /// move names a device that is not in the bucket its old position maps
    /// to (an incomplete or inconsistent move list).
    pub fn apply_moves(
        &mut self,
        pair: &StatePair,
        min_cell_side: f64,
        moves: &[(DeviceId, Point, Point)],
    ) -> GridUpdate {
        assert!(
            min_cell_side.is_finite() && min_cell_side > 0.0,
            "cell side must be positive and finite"
        );
        let cells_per_axis = CellGeometry::new(pair.dim(), min_cell_side).cells_per_axis;
        if pair.dim() != self.dim
            || cells_per_axis != self.cells_per_axis
            || pair.len() != self.population
        {
            self.rebuild(pair, min_cell_side);
            return GridUpdate::Rebuilt;
        }
        let mut rebucketed = 0usize;
        for (id, old, new) in moves {
            let from = self.cell_of[id.index()];
            assert_eq!(
                Self::flatten(old.coords(), self.cells_per_axis, self.cell_side),
                from,
                "move's old position disagrees with the cell device {id} is indexed in",
            );
            let to = Self::flatten(new.coords(), self.cells_per_axis, self.cell_side);
            if from == to {
                continue;
            }
            // O(1) removal: swap-remove the device's slot and re-point the
            // device that swapped into it.
            let slot = self.slot_of[id.index()];
            let bucket = &mut self.buckets[from];
            bucket.swap_remove(slot);
            if let Some(&moved) = bucket.get(slot) {
                self.slot_of[moved.index()] = slot;
            }
            self.cell_of[id.index()] = to;
            self.slot_of[id.index()] = self.buckets[to].len();
            self.buckets[to].push(*id);
            rebucketed += 1;
        }
        GridUpdate::Incremental { rebucketed }
    }

    /// Flattened index of the cell `coords` falls in, under the current
    /// resolution — lets callers detect cell crossings (and thus build
    /// minimal [`GridIndex::apply_moves`] batches) without re-deriving the
    /// grid geometry.
    ///
    /// # Panics
    ///
    /// Panics if `coords` has fewer axes than the indexed dimension.
    pub fn cell_index(&self, coords: &[f64]) -> usize {
        Self::flatten(coords, self.cells_per_axis, self.cell_side)
    }

    fn flatten(coords: &[f64], cells_per_axis: usize, cell_side: f64) -> usize {
        let mut idx = 0usize;
        for &c in coords {
            let axis = ((c / cell_side) as usize).min(cells_per_axis - 1);
            idx = idx * cells_per_axis + axis;
        }
        idx
    }

    /// Number of cells along each axis.
    pub fn cells_per_axis(&self) -> usize {
        self.cells_per_axis
    }

    /// Side length of each cell.
    pub fn cell_side(&self) -> f64 {
        self.cell_side
    }

    /// Expands a set of dirty cells by `rings` rings of neighbouring cells
    /// (Chebyshev distance on the grid, clamped at the domain border).
    ///
    /// This is the locality query behind incremental re-characterization:
    /// a device's verdict depends on trajectories and flags within `4r` of
    /// it (its own `2r`-neighbourhood per Definition 1, plus those
    /// neighbours' `2r`-neighbourhoods for the Section V families). With
    /// cells of side `2r`, two positions at most `4r` apart differ by at
    /// most two cell indices per axis — so `rings = 2` around every cell a
    /// change touched covers every device whose verdict that change could
    /// possibly reach.
    ///
    /// The result contains the input cells themselves (`rings = 0` is the
    /// identity). Out-of-range input cells are ignored.
    pub fn expand_cells(
        &self,
        cells: &std::collections::BTreeSet<usize>,
        rings: usize,
    ) -> std::collections::BTreeSet<usize> {
        let mut out = std::collections::BTreeSet::new();
        let n = self.cells_per_axis;
        let total = n.checked_pow(self.dim as u32).unwrap_or(usize::MAX);
        let mut lo = vec![0usize; self.dim];
        let mut hi = vec![0usize; self.dim];
        let mut cur = vec![0usize; self.dim];
        for &cell in cells {
            if cell >= total {
                continue;
            }
            // Decode the flattened index back into per-axis coordinates
            // (row-major, mirroring `flatten`).
            let mut rest = cell;
            for axis in (0..self.dim).rev() {
                let c = rest % n;
                rest /= n;
                lo[axis] = c.saturating_sub(rings);
                hi[axis] = (c + rings).min(n - 1);
            }
            // Odometer over the clamped hyper-box around the cell.
            cur.copy_from_slice(&lo);
            loop {
                let mut idx = 0usize;
                for &c in &cur {
                    idx = idx * n + c;
                }
                out.insert(idx);
                let mut axis = self.dim;
                loop {
                    if axis == 0 {
                        break;
                    }
                    axis -= 1;
                    if cur[axis] < hi[axis] {
                        cur[axis] += 1;
                        break;
                    }
                    cur[axis] = lo[axis];
                }
                if cur == lo {
                    break;
                }
            }
        }
        out
    }

    /// Exact vicinity query: devices other than `j` within uniform distance
    /// `radius` of `j` at **both** times `k-1` and `k`.
    ///
    /// Results are sorted by device id and agree exactly with
    /// [`StatePair::neighbors_both`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds for `pair`, or if `pair` disagrees with
    /// the dimension the index was built for.
    pub fn neighbors_both(&self, pair: &StatePair, j: DeviceId, radius: f64) -> Vec<DeviceId> {
        assert_eq!(pair.dim(), self.dim, "state pair dimension mismatch");
        let (before, after) = (pair.before(), pair.after());
        let mut out = Vec::new();
        self.for_each_bucket_near(before.position(j).coords(), radius, |bucket| {
            // The motion distance is the larger of the two instants'
            // distances: test the before-distance first and compute the
            // after-distance only for candidates that pass it.
            for &cand in bucket {
                if cand != j
                    && before.distance(j, cand) <= radius
                    && after.distance(j, cand) <= radius
                {
                    out.push(cand);
                }
            }
        });
        out.sort_unstable();
        out
    }

    /// Vicinity sizes of many devices at once: entry `i` equals
    /// `self.neighbors_both(pair, js[i], radius).len()`.
    ///
    /// Queries are grouped by before-cell. Every query of a group walks the
    /// same cells, so each group scans those buckets once and keeps only the
    /// candidates within `radius` of the group's bounding box on every axis
    /// at both instants; the exact per-query distance tests then run on the
    /// survivors alone. A pile-up of co-moving devices in a crowded cell
    /// thus costs one bucket scan instead of one per device.
    ///
    /// The box test compares `lo − x` and `x − hi` with `radius` against
    /// the unexpanded per-axis minimum `lo` and maximum `hi` of the group.
    /// Floating-point subtraction is monotone, so for any member `q` with
    /// `lo ≤ q` the computed `lo − x` never exceeds the computed `q − x`
    /// (likewise `x − hi` never exceeds `x − q`): a candidate within the
    /// uniform distance `radius` of some member always survives, and
    /// rounding can only keep extra candidates, which the exact tests drop.
    ///
    /// # Panics
    ///
    /// Panics if a device of `js` is out of bounds for `pair`, or if `pair`
    /// disagrees with the dimension the index was built for.
    pub fn vicinity_counts(&self, pair: &StatePair, js: &[DeviceId], radius: f64) -> Vec<usize> {
        assert_eq!(pair.dim(), self.dim, "state pair dimension mismatch");
        let (before, after) = (pair.before(), pair.after());
        let mut order: Vec<(usize, usize)> = js
            .iter()
            .enumerate()
            .map(|(i, &j)| (self.cell_index(before.position(j).coords()), i))
            .collect();
        order.sort_unstable();
        let mut counts = vec![0usize; js.len()];
        let (mut lo_b, mut hi_b) = (vec![0.0; self.dim], vec![0.0; self.dim]);
        let (mut lo_a, mut hi_a) = (vec![0.0; self.dim], vec![0.0; self.dim]);
        for group in order.chunk_by(|x, y| x.0 == y.0) {
            let Some(&(_, first)) = group.first() else {
                continue;
            };
            lo_b.fill(f64::INFINITY);
            hi_b.fill(f64::NEG_INFINITY);
            lo_a.fill(f64::INFINITY);
            hi_a.fill(f64::NEG_INFINITY);
            for &(_, i) in group {
                widen(&mut lo_b, &mut hi_b, before.position(js[i]).coords());
                widen(&mut lo_a, &mut hi_a, after.position(js[i]).coords());
            }
            self.for_each_bucket_near(before.position(js[first]).coords(), radius, |bucket| {
                for &cand in bucket {
                    if !near_box(&lo_b, &hi_b, before.position(cand).coords(), radius)
                        || !near_box(&lo_a, &hi_a, after.position(cand).coords(), radius)
                    {
                        continue;
                    }
                    for &(_, i) in group {
                        let j = js[i];
                        if cand != j
                            && before.distance(j, cand) <= radius
                            && after.distance(j, cand) <= radius
                        {
                            counts[i] += 1;
                        }
                    }
                }
            });
        }
        counts
    }

    /// Calls `visit` on every bucket of the hyper-box of cells within
    /// `ceil(radius / cell_side)` cells of the cell `center` falls in,
    /// clamped at the domain border: the `3^d` cells around it when cells
    /// are no smaller than `radius`. Every position in one cell walks the
    /// same buckets.
    fn for_each_bucket_near(
        &self,
        center: &[f64],
        radius: f64,
        mut visit: impl FnMut(&[DeviceId]),
    ) {
        let reach = (radius / self.cell_side).ceil() as isize;
        // Per-axis scratch on the stack for every realistic dimension (`d`
        // is the number of services a device consumes).
        const STACK_DIMS: usize = 8;
        let mut axes_buf = [0isize; STACK_DIMS];
        let mut offsets_buf = [0isize; STACK_DIMS];
        let (mut axes_vec, mut offsets_vec);
        let (axes, offsets): (&mut [isize], &mut [isize]) = if self.dim <= STACK_DIMS {
            (&mut axes_buf[..self.dim], &mut offsets_buf[..self.dim])
        } else {
            axes_vec = vec![0isize; self.dim];
            offsets_vec = vec![0isize; self.dim];
            (&mut axes_vec[..], &mut offsets_vec[..])
        };
        for (a, &c) in axes.iter_mut().zip(center) {
            *a = ((c / self.cell_side) as isize).min(self.cells_per_axis as isize - 1);
        }
        offsets.fill(-reach);
        'outer: loop {
            // Compute the flattened index of the current neighbour cell.
            let mut idx = 0usize;
            let mut valid = true;
            for (a, off) in axes.iter().zip(offsets.iter()) {
                let axis = a + off;
                if axis < 0 || axis >= self.cells_per_axis as isize {
                    valid = false;
                    break;
                }
                idx = idx * self.cells_per_axis + axis as usize;
            }
            if valid {
                visit(&self.buckets[idx]);
            }
            // Advance the offset odometer.
            for i in (0..self.dim).rev() {
                offsets[i] += 1;
                if offsets[i] <= reach {
                    continue 'outer;
                }
                offsets[i] = -reach;
            }
            break;
        }
    }
}

/// Widens the per-axis box `[lo, hi]` to cover `p`.
fn widen(lo: &mut [f64], hi: &mut [f64], p: &[f64]) {
    for ((l, h), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(p) {
        *l = l.min(x);
        *h = h.max(x);
    }
}

/// True unless `x` is farther than `radius` from the box `[lo, hi]` on some
/// axis. Tested as `lo − x > radius || x − hi > radius` against the
/// unexpanded bounds, so rounding can never reject a point within `radius`
/// of a box member (see [`GridIndex::vicinity_counts`]).
fn near_box(lo: &[f64], hi: &[f64], x: &[f64], radius: f64) -> bool {
    lo.iter()
        .zip(hi)
        .zip(x)
        .all(|((&l, &h), &c)| !(l - c > radius || c - h > radius))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use crate::space::QosSpace;
    use proptest::prelude::*;

    fn pair_from(rows_before: Vec<Vec<f64>>, rows_after: Vec<Vec<f64>>) -> StatePair {
        let dim = rows_before[0].len();
        let space = QosSpace::new(dim).unwrap();
        StatePair::new(
            Snapshot::from_rows(&space, rows_before).unwrap(),
            Snapshot::from_rows(&space, rows_after).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn matches_linear_scan_on_small_example() {
        let pair = pair_from(
            vec![
                vec![0.1, 0.1],
                vec![0.12, 0.11],
                vec![0.9, 0.9],
                vec![0.13, 0.13],
            ],
            vec![
                vec![0.4, 0.4],
                vec![0.42, 0.41],
                vec![0.9, 0.8],
                vec![0.8, 0.8],
            ],
        );
        let index = GridIndex::build(&pair, 0.06);
        for j in pair.device_ids() {
            let mut expected = pair.neighbors_both(j, 0.06);
            expected.sort_unstable();
            assert_eq!(index.neighbors_both(&pair, j, 0.06), expected);
        }
    }

    #[test]
    fn expand_cells_covers_the_chebyshev_ring() {
        let pair = pair_from(
            vec![vec![0.5, 0.5], vec![0.1, 0.1]],
            vec![vec![0.5, 0.5], vec![0.1, 0.1]],
        );
        let index = GridIndex::build(&pair, 0.1); // 10 cells per axis
        let n = index.cells_per_axis();
        assert_eq!(n, 10);
        let center = index.cell_index(&[0.55, 0.55]); // cell (5, 5)
        let dirty: std::collections::BTreeSet<usize> = [center].into_iter().collect();

        // rings = 0 is the identity.
        assert_eq!(index.expand_cells(&dirty, 0), dirty);

        // rings = 2 is the full 5x5 Chebyshev box around (5, 5).
        let expanded = index.expand_cells(&dirty, 2);
        let mut expected = std::collections::BTreeSet::new();
        for x in 3..=7usize {
            for y in 3..=7usize {
                expected.insert(x * n + y);
            }
        }
        assert_eq!(expanded, expected);
    }

    #[test]
    fn expand_cells_clamps_at_the_domain_border() {
        let pair = pair_from(vec![vec![0.05, 0.05]], vec![vec![0.05, 0.05]]);
        let index = GridIndex::build(&pair, 0.1);
        let n = index.cells_per_axis();
        let corner = index.cell_index(&[0.0, 0.0]); // cell (0, 0)
        let dirty: std::collections::BTreeSet<usize> = [corner].into_iter().collect();
        let expanded = index.expand_cells(&dirty, 2);
        let mut expected = std::collections::BTreeSet::new();
        for x in 0..=2usize {
            for y in 0..=2usize {
                expected.insert(x * n + y);
            }
        }
        assert_eq!(expanded, expected);
        // Out-of-range cells are ignored rather than decoded nonsensically.
        let bogus: std::collections::BTreeSet<usize> = [n * n + 7].into_iter().collect();
        assert!(index.expand_cells(&bogus, 2).is_empty());
    }

    #[test]
    fn expand_cells_merges_overlapping_neighbourhoods() {
        let pair = pair_from(vec![vec![0.5, 0.5]], vec![vec![0.5, 0.5]]);
        let index = GridIndex::build(&pair, 0.1);
        let a = index.cell_index(&[0.45, 0.45]);
        let b = index.cell_index(&[0.55, 0.45]); // adjacent along axis 0
        let dirty: std::collections::BTreeSet<usize> = [a, b].into_iter().collect();
        let expanded = index.expand_cells(&dirty, 1);
        // Two adjacent 3x3 boxes overlap into a 4x3 box: 12 distinct cells.
        assert_eq!(expanded.len(), 12);
        for &cell in &dirty {
            assert!(expanded.contains(&cell));
        }
    }

    #[test]
    fn handles_boundary_coordinates() {
        let pair = pair_from(
            vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.02, 0.0]],
            vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.02, 0.0]],
        );
        let index = GridIndex::build(&pair, 0.05);
        assert_eq!(
            index.neighbors_both(&pair, DeviceId(0), 0.05),
            vec![DeviceId(2)]
        );
        assert!(index.neighbors_both(&pair, DeviceId(1), 0.05).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_cell_side() {
        let pair = pair_from(vec![vec![0.5]], vec![vec![0.5]]);
        GridIndex::build(&pair, 0.0);
    }

    #[test]
    fn rebuild_matches_fresh_build_across_instants() {
        let first = pair_from(
            vec![vec![0.1, 0.1], vec![0.5, 0.5], vec![0.9, 0.9]],
            vec![vec![0.2, 0.1], vec![0.5, 0.6], vec![0.9, 0.8]],
        );
        let second = pair_from(
            vec![
                vec![0.3, 0.3],
                vec![0.31, 0.3],
                vec![0.7, 0.7],
                vec![0.72, 0.7],
            ],
            vec![
                vec![0.4, 0.4],
                vec![0.41, 0.4],
                vec![0.7, 0.6],
                vec![0.72, 0.6],
            ],
        );
        let mut reused = GridIndex::build(&first, 0.06);
        reused.rebuild(&second, 0.08);
        let fresh = GridIndex::build(&second, 0.08);
        assert_eq!(reused.cells_per_axis(), fresh.cells_per_axis());
        for j in second.device_ids() {
            assert_eq!(
                reused.neighbors_both(&second, j, 0.08),
                fresh.neighbors_both(&second, j, 0.08),
            );
        }
    }

    #[test]
    fn rebuild_survives_population_and_resolution_changes() {
        // Coarse -> fine -> coarse, with different populations each time.
        let pairs = [
            pair_from(vec![vec![0.5]], vec![vec![0.5]]),
            pair_from(
                vec![vec![0.1], vec![0.12], vec![0.9]],
                vec![vec![0.2], vec![0.22], vec![0.9]],
            ),
        ];
        let mut index = GridIndex::build(&pairs[0], 0.5);
        for (pair, side) in [(&pairs[1], 0.01), (&pairs[0], 0.3), (&pairs[1], 0.06)] {
            index.rebuild(pair, side);
            let fresh = GridIndex::build(pair, side);
            for j in pair.device_ids() {
                assert_eq!(
                    index.neighbors_both(pair, j, side),
                    fresh.neighbors_both(pair, j, side),
                );
            }
        }
    }

    #[test]
    fn one_dimensional_space_works() {
        let pair = pair_from(
            vec![vec![0.1], vec![0.14], vec![0.5]],
            vec![vec![0.2], vec![0.24], vec![0.9]],
        );
        let index = GridIndex::build(&pair, 0.06);
        assert_eq!(
            index.neighbors_both(&pair, DeviceId(0), 0.06),
            vec![DeviceId(1)]
        );
    }

    /// Applies `moves` (old pair -> new pair, positional diff of the before
    /// snapshots) and asserts the result equals a fresh build.
    fn assert_apply_matches_fresh(old: &StatePair, new: &StatePair, side: f64, radius: f64) {
        let mut index = GridIndex::build(old, side);
        let moves: Vec<(DeviceId, Point, Point)> = old
            .before()
            .iter()
            .zip(new.before().iter())
            .filter(|((_, a), (_, b))| a != b)
            .map(|((id, a), (_, b))| (id, a.clone(), b.clone()))
            .collect();
        index.apply_moves(new, side, &moves);
        let fresh = GridIndex::build(new, side);
        for j in new.device_ids() {
            assert_eq!(
                index.neighbors_both(new, j, radius),
                fresh.neighbors_both(new, j, radius),
                "device {j:?} disagrees after apply_moves"
            );
        }
    }

    #[test]
    fn apply_moves_rebuckets_boundary_crossers() {
        let old = pair_from(
            vec![vec![0.10, 0.10], vec![0.50, 0.50], vec![0.90, 0.90]],
            vec![vec![0.12, 0.10], vec![0.50, 0.52], vec![0.90, 0.88]],
        );
        // Device 0 crosses several cells, device 1 stays put, device 2
        // nudges within its cell.
        let new = pair_from(
            vec![vec![0.45, 0.45], vec![0.50, 0.50], vec![0.905, 0.90]],
            vec![vec![0.46, 0.45], vec![0.50, 0.51], vec![0.91, 0.90]],
        );
        assert_apply_matches_fresh(&old, &new, 0.06, 0.06);
    }

    #[test]
    fn apply_moves_reports_incremental_outcome_and_counts() {
        let old = pair_from(vec![vec![0.1], vec![0.9]], vec![vec![0.1], vec![0.9]]);
        let new = pair_from(vec![vec![0.6], vec![0.9]], vec![vec![0.6], vec![0.9]]);
        let mut index = GridIndex::build(&old, 0.1);
        let moves = vec![(
            DeviceId(0),
            old.before().position(DeviceId(0)).clone(),
            new.before().position(DeviceId(0)).clone(),
        )];
        assert_eq!(
            index.apply_moves(&new, 0.1, &moves),
            GridUpdate::Incremental { rebucketed: 1 }
        );
        // A no-op move (same cell) is not counted.
        assert_eq!(
            index.apply_moves(&new, 0.1, &[]),
            GridUpdate::Incremental { rebucketed: 0 }
        );
    }

    #[test]
    fn apply_moves_falls_back_to_rebuild_on_cell_side_change() {
        let pair = pair_from(
            vec![vec![0.1], vec![0.5], vec![0.9]],
            vec![vec![0.1], vec![0.5], vec![0.9]],
        );
        let mut index = GridIndex::build(&pair, 0.1);
        // A different resolution cannot be patched in place.
        assert_eq!(index.apply_moves(&pair, 0.3, &[]), GridUpdate::Rebuilt);
        assert_eq!(
            index.cells_per_axis(),
            GridIndex::build(&pair, 0.3).cells_per_axis()
        );
    }

    #[test]
    fn apply_moves_falls_back_to_rebuild_on_population_change() {
        let old = pair_from(vec![vec![0.1], vec![0.9]], vec![vec![0.1], vec![0.9]]);
        let new = pair_from(
            vec![vec![0.1], vec![0.5], vec![0.9]],
            vec![vec![0.1], vec![0.5], vec![0.9]],
        );
        let mut index = GridIndex::build(&old, 0.1);
        assert_eq!(index.apply_moves(&new, 0.1, &[]), GridUpdate::Rebuilt);
        let fresh = GridIndex::build(&new, 0.1);
        for j in new.device_ids() {
            assert_eq!(
                index.neighbors_both(&new, j, 0.1),
                fresh.neighbors_both(&new, j, 0.1),
            );
        }
    }

    #[test]
    #[should_panic(expected = "disagrees with the cell")]
    fn apply_moves_rejects_inconsistent_move_lists() {
        let pair = pair_from(vec![vec![0.1]], vec![vec![0.1]]);
        let mut index = GridIndex::build(&pair, 0.1);
        // Claims device 0 was at 0.9 (wrong cell).
        let lie = vec![(
            DeviceId(0),
            Point::new_unchecked(vec![0.9]),
            Point::new_unchecked(vec![0.1]),
        )];
        index.apply_moves(&pair, 0.1, &lie);
    }

    /// The axis-resolution cap engages for `min_cell_side` far below the
    /// capped cell side; a caller detecting cell crossings through
    /// [`GridIndex::cell_index`] (the monitor's staged-move filter) must
    /// stay consistent with `apply_moves`' own capped geometry.
    #[test]
    fn cell_index_crossing_filter_matches_apply_moves_under_the_cap() {
        // dim 3: uncapped would be 1000 cells/axis, capped at 64.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![0.08 * i as f64, 0.07 * i as f64, 0.05 * i as f64])
            .collect();
        let old = pair_from(rows.clone(), rows.clone());
        let side = 0.001;
        let mut index = GridIndex::build(&old, side);
        assert_eq!(index.cells_per_axis(), 64, "the dim-3 cap must engage");
        // Every device nudges; some cross capped cells, some only cross
        // cells of the *uncapped* resolution (the desync hazard: filtering
        // with the wrong geometry would drop or fabricate moves).
        let new_rows: Vec<Vec<f64>> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let nudge = if i % 3 == 0 { 0.002 } else { 0.11 };
                row.iter().map(|c| (c + nudge).min(1.0)).collect()
            })
            .collect();
        let new = pair_from(new_rows, rows.clone());
        // The monitor's filter: keep only moves whose *capped* cell differs.
        let moves: Vec<(DeviceId, Point, Point)> = old
            .before()
            .iter()
            .zip(new.before().iter())
            .filter(|((_, a), (_, b))| index.cell_index(a.coords()) != index.cell_index(b.coords()))
            .map(|((id, a), (_, b))| (id, a.clone(), b.clone()))
            .collect();
        assert!(
            moves.len() < old.len(),
            "some nudges must stay within their capped cell"
        );
        assert_eq!(
            index.apply_moves(&new, side, &moves),
            GridUpdate::Incremental {
                rebucketed: moves.len()
            }
        );
        let fresh = GridIndex::build(&new, side);
        for j in new.device_ids() {
            for radius in [0.02, 0.12] {
                assert_eq!(
                    index.neighbors_both(&new, j, radius),
                    fresh.neighbors_both(&new, j, radius),
                    "device {j:?} at radius {radius}"
                );
            }
        }
    }

    /// The layout derived before any build places every position in the
    /// cell a built index uses, capped regime included.
    #[test]
    fn cell_geometry_agrees_with_a_built_index() {
        for (dim, side) in [(1, 0.1), (2, 0.06), (2, 0.0001), (3, 0.001), (5, 0.2)] {
            let rows: Vec<Vec<f64>> = (0..40)
                .map(|i| {
                    (0..dim)
                        .map(|a| ((i * 7 + a * 13) % 41) as f64 / 40.0)
                        .collect()
                })
                .collect();
            let pair = pair_from(rows.clone(), rows.clone());
            let index = GridIndex::build(&pair, side);
            let geometry = CellGeometry::new(dim, side);
            for row in &rows {
                assert_eq!(
                    geometry.cell_index(row),
                    index.cell_index(row),
                    "{dim} {side}"
                );
            }
        }
    }

    #[test]
    fn the_axis_cap_depends_on_the_dimension() {
        for (dim, expected) in [(1usize, 4096), (2, 512), (3, 64), (4, 16), (6, 16)] {
            let rows = vec![vec![0.5; dim], vec![0.25; dim]];
            let pair = pair_from(rows.clone(), rows);
            let index = GridIndex::build(&pair, 1e-9);
            assert_eq!(index.cells_per_axis(), expected, "dim {dim}");
            // The capped cell side is what cell_index actually uses.
            assert!((index.cell_side() - 1.0 / expected as f64).abs() < 1e-12);
        }
    }

    /// `vicinity_counts` against the linear scan, for every device.
    fn assert_counts_match_linear_scan(pair: &StatePair, js: &[DeviceId], radius: f64) {
        let index = GridIndex::build(pair, radius);
        let counts = index.vicinity_counts(pair, js, radius);
        assert_eq!(counts.len(), js.len());
        for (&j, &count) in js.iter().zip(&counts) {
            assert_eq!(
                count,
                pair.neighbors_both(j, radius).len(),
                "device {j:?} at radius {radius}"
            );
        }
    }

    /// Gaps whose computed difference is exactly `radius` while
    /// `lo − radius` rounds above the candidate: a box pre-expanded by the
    /// radius would drop these neighbours.
    #[test]
    fn vicinity_counts_keep_neighbours_exactly_radius_away() {
        for (near, far, radius) in [(0.04, 0.14, 0.1), (0.08, 0.28, 0.2), (0.02, 0.07, 0.05)] {
            for dim in 1..=3 {
                let row = |x: f64| {
                    let mut r = vec![0.5; dim];
                    r[0] = x;
                    r
                };
                // Two queries share the far cell; the near device is one
                // cell over, within `radius` of both at both instants.
                let rows = vec![row(far), row(far), row(near)];
                let pair = pair_from(rows.clone(), rows);
                let js: Vec<DeviceId> = pair.device_ids().collect();
                assert_counts_match_linear_scan(&pair, &js, radius);
                let index = GridIndex::build(&pair, radius);
                assert_eq!(index.vicinity_counts(&pair, &js, radius), vec![2, 2, 2]);
            }
        }
    }

    #[test]
    fn vicinity_counts_handle_empty_and_repeated_queries() {
        let pair = pair_from(
            vec![vec![0.1, 0.1], vec![0.12, 0.11], vec![0.9, 0.9]],
            vec![vec![0.4, 0.4], vec![0.42, 0.41], vec![0.9, 0.8]],
        );
        let index = GridIndex::build(&pair, 0.06);
        assert!(index.vicinity_counts(&pair, &[], 0.06).is_empty());
        let js = [DeviceId(2), DeviceId(0), DeviceId(0), DeviceId(1)];
        assert_eq!(index.vicinity_counts(&pair, &js, 0.06), vec![0, 1, 1, 1]);
    }

    proptest! {
        /// Batched vicinity counts equal the linear scan on grid-aligned
        /// decimals: many queries per cell, points on cell boundaries and
        /// at the clamped edge 1.0, and gaps exactly equal to the radius
        /// (including the ones where `lo − radius` rounds up past the
        /// neighbour).
        #[test]
        fn vicinity_counts_equal_linear_scan(
            rows in proptest::collection::vec(
                (proptest::collection::vec(0usize..PALETTE.len(), 6), 0usize..PALETTE.len()),
                1..40),
            dim in 1usize..4,
            radius_pick in 0usize..4,
            shuffle in 0u64..u64::MAX,
        ) {
            let radius = [0.05, 0.1, 0.2, 0.3][radius_pick];
            // Half the devices stay put, so the before-box and the
            // after-box differ for the groups that hold a mover.
            let before: Vec<Vec<f64>> = rows
                .iter()
                .map(|(coords, _)| coords[..dim].iter().map(|&c| PALETTE[c]).collect())
                .collect();
            let after: Vec<Vec<f64>> = rows
                .iter()
                .zip(&before)
                .enumerate()
                .map(|(i, ((coords, shift), b))| {
                    if i % 2 == 0 {
                        b.clone()
                    } else {
                        let mut a: Vec<f64> =
                            coords[3..3 + dim].iter().map(|&c| PALETTE[c]).collect();
                        a[0] = PALETTE[*shift];
                        a
                    }
                })
                .collect();
            let pair = pair_from(before, after);
            let mut js: Vec<DeviceId> = pair.device_ids().collect();
            let mut state = shuffle | 1;
            for i in (1..js.len()).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                js.swap(i, (state >> 33) as usize % (i + 1));
            }
            assert_counts_match_linear_scan(&pair, &js, radius);
        }
    }

    /// Grid-aligned decimals: cell boundaries for the radii the property
    /// test draws, the domain edges, and both ends of every gap where
    /// `lo − radius` rounds above a neighbour `radius` away.
    const PALETTE: [f64; 16] = [
        0.0, 0.02, 0.04, 0.07, 0.08, 0.1, 0.14, 0.2, 0.28, 0.3, 0.31, 0.5, 0.6, 0.7, 0.9, 1.0,
    ];

    proptest! {
        /// The grid query is exactly equivalent to the linear scan, for any
        /// population and radius.
        #[test]
        fn grid_equals_linear_scan(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 1..40),
            rows_after in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 1..40),
            radius in 0.01..0.3f64,
        ) {
            let n = rows.len().min(rows_after.len());
            let pair = pair_from(rows[..n].to_vec(), rows_after[..n].to_vec());
            let index = GridIndex::build(&pair, radius);
            for j in pair.device_ids() {
                let mut expected = pair.neighbors_both(j, radius);
                expected.sort_unstable();
                prop_assert_eq!(index.neighbors_both(&pair, j, radius), expected);
            }
        }

        /// In the capped-resolution regime (dim 3, radii far below the
        /// 1/64 capped cell side) the incremental path must still agree
        /// with a fresh build — both when handed the full positional diff
        /// and when handed only the moves that cross a *capped* cell, the
        /// filter the monitor's sealing path applies via `cell_index`.
        #[test]
        fn apply_moves_equals_fresh_build_when_the_axis_cap_engages(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 3), 1..25),
            moved in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 3), 1..25),
            radius in 0.0003..0.02f64,
        ) {
            let n = rows.len().min(moved.len());
            let before = rows[..n].to_vec();
            let old = pair_from(before.clone(), before.clone());
            let new_before: Vec<Vec<f64>> = before
                .iter()
                .enumerate()
                .map(|(i, row)| if i % 2 == 0 { moved[i].clone() } else { row.clone() })
                .collect();
            let new = pair_from(new_before, moved[..n].to_vec());
            prop_assert!(GridIndex::build(&old, radius).cells_per_axis() <= 64);
            // Full positional diff.
            assert_apply_matches_fresh(&old, &new, radius, radius);
            // Capped-cell-crossing filter only (the monitor's batch).
            let mut index = GridIndex::build(&old, radius);
            let moves: Vec<(DeviceId, Point, Point)> = old
                .before()
                .iter()
                .zip(new.before().iter())
                .filter(|((_, a), (_, b))| {
                    index.cell_index(a.coords()) != index.cell_index(b.coords())
                })
                .map(|((id, a), (_, b))| (id, a.clone(), b.clone()))
                .collect();
            index.apply_moves(&new, radius, &moves);
            let fresh = GridIndex::build(&new, radius);
            for j in new.device_ids() {
                prop_assert_eq!(
                    index.neighbors_both(&new, j, radius),
                    fresh.neighbors_both(&new, j, radius)
                );
            }
        }

        /// Applying a randomized batch of moves is equivalent to a fresh
        /// build over the moved-to state, for any population and radius —
        /// including devices crossing cell boundaries.
        #[test]
        fn apply_moves_equals_fresh_build(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 1..30),
            moved in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 1..30),
            radius in 0.01..0.3f64,
        ) {
            let n = rows.len().min(moved.len());
            let before = rows[..n].to_vec();
            let old = pair_from(before.clone(), before.clone());
            // Move a deterministic subset (every other device) to a fresh
            // random position; the rest stay put.
            let new_before: Vec<Vec<f64>> = before
                .iter()
                .enumerate()
                .map(|(i, row)| if i % 2 == 0 { moved[i].clone() } else { row.clone() })
                .collect();
            let new = pair_from(new_before, moved[..n].to_vec());
            assert_apply_matches_fresh(&old, &new, radius, radius);
        }
    }
}
