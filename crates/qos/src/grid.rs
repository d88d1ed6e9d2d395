use crate::error::QosError;
use crate::norm::uniform_distance;
use crate::point::DeviceId;
use crate::snapshot::StatePair;
use std::collections::{BTreeMap, BTreeSet};

/// How [`TrajectoryIndex::apply_moves`] brought the index up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridUpdate {
    /// Only the staged devices were re-keyed: every device whose cell at
    /// `k-1` or at `k` may have changed, and every device whose own
    /// displacement may have crossed half a cell side (its still/moving
    /// class, see [`TrajectoryIndex`]).
    Incremental {
        /// Number of staged devices whose `(before-cell, after-cell,
        /// moving)` key changed.
        rebucketed: usize,
    },
    /// The incremental path was not applicable (dimension, resolution, or
    /// population changed) and the index was rebuilt from scratch.
    Rebuilt,
}

/// Largest number of cells one instant's grid may hold, so a cell id fits
/// a `u32` with room to spare at every dimension.
const MAX_CELLS: usize = 1 << 18;

/// Slack on the still-skipping bound of [`TrajectoryIndex::candidates`],
/// for float rounding. Every distance in the bound is a maximum of
/// per-axis differences, each rounded once. The difference of two floats
/// within a factor two of each other is exact, and any other difference is
/// at least half its larger operand; so the differences near the bound,
/// all below 1, round by at most half a unit in the last place of 1,
/// whatever the coordinates' magnitude. The sum `2·radius + cell_side/2`
/// adds two more roundings: a few `1e-16` in all, against `1e-12`.
const STILL_SKIP_MARGIN: f64 = 1e-12;

/// `|after − before|∞` over the axes both slices have: [`uniform_distance`]
/// without its panic on slices of different lengths.
fn displacement(before: &[f64], after: &[f64]) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// The cell layout of a [`TrajectoryIndex`]: what a dimension and a
/// minimum cell side determine before any position is indexed.
///
/// Every index built over `dim`-dimensional positions with cells no
/// smaller than `min_cell_side` uses this layout, so callers can place
/// positions in cells before the first build and compare cell ids across
/// rebuilds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGeometry {
    dim: usize,
    cells_per_axis: usize,
    cell_side: f64,
}

impl CellGeometry {
    /// The layout for `dim` axes and cells no smaller than `min_cell_side`.
    ///
    /// The axis resolution is capped so `cells_per_axis^dim` stays at most
    /// 2^18 (`dim` is the number of services): 4096 cells per axis in one
    /// dimension, 512 in two, 64 in three, 16 in four, and fewer beyond. A
    /// side that is zero, negative or not a number takes the capped or the
    /// coarsest resolution; no input panics.
    pub fn new(dim: usize, min_cell_side: f64) -> Self {
        let max_axis = match dim {
            0 => 1,
            1 => 4096,
            2 => 512,
            3 => 64,
            _ => (1..=16usize)
                .rev()
                .find(|n| n.checked_pow(dim as u32).is_some_and(|t| t <= MAX_CELLS))
                .unwrap_or(1),
        };
        let cells_per_axis = ((1.0 / min_cell_side).floor() as usize).clamp(1, max_axis);
        CellGeometry {
            dim,
            cells_per_axis,
            cell_side: 1.0 / cells_per_axis as f64,
        }
    }

    /// Flattened (row-major) id of the cell `coords` falls in. Axes beyond
    /// the layout's dimension are ignored.
    pub fn cell_index(&self, coords: &[f64]) -> u32 {
        let mut idx = 0usize;
        for &c in coords.iter().take(self.dim) {
            let axis = ((c / self.cell_side) as usize).min(self.cells_per_axis - 1);
            idx = idx * self.cells_per_axis + axis;
        }
        idx as u32
    }

    /// True when a device that went from `before` to `after` is filed as
    /// *moving* in a [`TrajectoryIndex`]: its own displacement
    /// `|after − before|∞` is more than half a cell side.
    pub fn is_moving(&self, before: &[f64], after: &[f64]) -> bool {
        let half = self.half_side();
        !before.iter().zip(after).all(|(b, a)| (a - b).abs() <= half)
    }

    /// The `(before-cell, after-cell, moving)` key a [`TrajectoryIndex`]
    /// files a device that went from `before` to `after` under: equal to
    /// `(cell_index(before), cell_index(after), is_moving(before, after))`,
    /// computed in one pass over the axes when both rows have the layout's
    /// dimension.
    pub fn key(&self, before: &[f64], after: &[f64]) -> (u32, u32, bool) {
        if before.len() != self.dim || after.len() != self.dim {
            return (
                self.cell_index(before),
                self.cell_index(after),
                self.is_moving(before, after),
            );
        }
        let (n, side, half) = (self.cells_per_axis, self.cell_side, self.half_side());
        let (mut from, mut to, mut still) = (0usize, 0usize, true);
        for (&b, &a) in before.iter().zip(after) {
            from = from * n + ((b / side) as usize).min(n - 1);
            to = to * n + ((a / side) as usize).min(n - 1);
            still &= (a - b).abs() <= half;
        }
        (from as u32, to as u32, !still)
    }

    /// [`CellGeometry::key`] packed as the index stores it:
    /// `(before-cell, 2·after-cell + moving)`. Cell ids stay below 2^18, so
    /// the class fits the low bit, and still devices sort before moving
    /// ones.
    fn packed_key(&self, before: &[f64], after: &[f64]) -> (u32, u32) {
        let (from, to, moving) = self.key(before, after);
        (from, (to << 1) | u32::from(moving))
    }

    /// Half the cell side: the largest displacement of a still device.
    fn half_side(&self) -> f64 {
        self.cell_side / 2.0
    }

    /// Number of cells of the whole grid, `cells_per_axis^dim`.
    fn cells(&self) -> usize {
        self.cells_per_axis.saturating_pow(self.dim as u32)
    }

    /// Largest per-axis cell distance between two cells: the Chebyshev
    /// distance on the grid.
    fn chebyshev(&self, a: u32, b: u32) -> usize {
        let n = self.cells_per_axis;
        let (mut a, mut b) = (a as usize, b as usize);
        let mut dist = 0;
        for _ in 0..self.dim {
            dist = dist.max((a % n).abs_diff(b % n));
            a /= n;
            b /= n;
        }
        dist
    }

    /// Cells per axis a query of uniform radius `radius` must reach out to
    /// around its own cell: `ceil(radius / cell_side)`, one when cells are
    /// no smaller than the radius.
    fn reach(&self, radius: f64) -> usize {
        let reach = (radius / self.cell_side).ceil();
        if reach >= 0.0 {
            (reach as usize).min(self.cells_per_axis)
        } else {
            0
        }
    }

    /// Calls `visit` on every cell within `reach` cells of `centre` on
    /// every axis, clamped at the domain border, in ascending id order.
    fn for_each_cell_near(&self, centre: u32, reach: usize, visit: &mut dyn FnMut(u32)) {
        self.walk(0, 0, centre as usize, reach, visit);
    }

    fn walk(
        &self,
        axis: usize,
        prefix: usize,
        centre: usize,
        reach: usize,
        visit: &mut dyn FnMut(u32),
    ) {
        if axis == self.dim {
            visit(prefix as u32);
            return;
        }
        let n = self.cells_per_axis;
        let stride = n.saturating_pow((self.dim - axis - 1) as u32);
        let c = (centre / stride) % n;
        for x in c.saturating_sub(reach)..=(c + reach).min(n - 1) {
            self.walk(axis + 1, prefix * n + x, centre, reach, visit);
        }
    }

    /// The cells within `rings` cells, on every axis, of some cell of
    /// `cells` (Chebyshev distance on the grid, clamped at the domain
    /// border) — tested per cell, never materialised.
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
    /// `cells` must be sorted and distinct, as [`CellSet::sorted`] returns
    /// them: a membership test then range-scans the few input cells that
    /// can be near it instead of expanding anything. The expansion contains
    /// the input cells themselves (`rings = 0` is the identity).
    /// Out-of-range input cells are ignored.
    pub fn expand_cells<'a>(&'a self, cells: &'a [u32], rings: usize) -> ExpandedCells<'a> {
        ExpandedCells {
            geometry: self,
            cells,
            rings,
        }
    }
}

/// A set of cells grown by a number of rings: see
/// [`CellGeometry::expand_cells`].
#[derive(Debug, Clone, Copy)]
pub struct ExpandedCells<'a> {
    geometry: &'a CellGeometry,
    /// Sorted and distinct.
    cells: &'a [u32],
    rings: usize,
}

impl ExpandedCells<'_> {
    /// True when `cell` lies within the rings of some input cell.
    ///
    /// Cells whose first axis is within `rings` of `cell`'s form one
    /// contiguous run of row-major ids, so only that run of the input set
    /// is scanned, each candidate by its per-axis distance.
    pub fn contains(&self, cell: u32) -> bool {
        let g = self.geometry;
        let total = g.cells();
        if cell as usize >= total {
            return false;
        }
        let slab = total / g.cells_per_axis;
        let first = cell as usize / slab;
        let lo = first.saturating_sub(self.rings) * slab;
        let hi = first
            .saturating_add(self.rings)
            .saturating_add(1)
            .min(g.cells_per_axis)
            * slab;
        let start = self.cells.partition_point(|&c| (c as usize) < lo);
        self.cells
            .iter()
            .skip(start)
            .take_while(|&&c| (c as usize) < hi)
            .any(|&c| g.chebyshev(c, cell) <= self.rings)
    }
}

/// A set of cell ids of one [`CellGeometry`], for cells marked one at a
/// time and consumed in bulk: a bitmap with one bit per cell of the grid
/// (at most 2^18 bits, 32 KB) plus the list of the cells set, in insertion
/// order. Inserting is one bit test, so a cell marked many times is listed
/// once; clearing walks the list, so it costs the cells set, not the grid.
/// Cell ids outside the grid are ignored.
#[derive(Debug, Clone)]
pub struct CellSet {
    /// Cells of the grid: ids at or above are ignored.
    grid: usize,
    bits: Vec<u64>,
    cells: Vec<u32>,
}

impl CellSet {
    /// An empty set over the cells of `geometry`.
    pub fn new(geometry: &CellGeometry) -> Self {
        let grid = geometry.cells();
        CellSet {
            grid,
            bits: vec![0; grid.div_ceil(64)],
            cells: Vec::new(),
        }
    }

    /// Adds `cell`; true when it was not in the set yet.
    pub fn insert(&mut self, cell: u32) -> bool {
        if cell as usize >= self.grid {
            return false;
        }
        let Some(word) = self.bits.get_mut(cell as usize / 64) else {
            return false;
        };
        let bit = 1u64 << (cell % 64);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.cells.push(cell);
        true
    }

    /// True when the set holds no cell.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells of the set, sorted and distinct — the input
    /// [`CellGeometry::expand_cells`] takes.
    pub fn sorted(&mut self) -> &[u32] {
        self.cells.sort_unstable();
        &self.cells
    }

    /// Empties the set, keeping its storage.
    pub fn clear(&mut self) {
        for cell in self.cells.drain(..) {
            if let Some(word) = self.bits.get_mut(cell as usize / 64) {
                *word &= !(1u64 << (cell % 64));
            }
        }
    }
}

impl Extend<u32> for CellSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, cells: I) {
        for cell in cells {
            self.insert(cell);
        }
    }
}

/// Sparse trajectory index over a [`StatePair`], keyed by
/// `(before-cell, after-cell, moving)`.
///
/// Definition 3 makes the vicinity query *"all devices within uniform
/// distance `radius` of `j` at both times"* a ball of the concatenated
/// `2d`-space. The index files every device under the pair of grid cells
/// its positions at `k-1` and at `k` fall in, and under its class: *still*
/// when its own displacement is at most half a cell side, *moving*
/// otherwise ([`CellGeometry::is_moving`]). It is one ordered set, so it
/// holds one entry per device and allocates `O(devices)` whatever the
/// dimension.
///
/// A query walks the `3^d` before-cells around `j`'s (when cells are no
/// smaller than the radius), range-scans each one's keys, and skips every
/// key whose after-cell lies outside the same box around `j`'s after-cell
/// before touching a device: a stationary crowd sits on the diagonal keys,
/// so a device that jumped away from it examines none of it. A device that
/// jumped only two cells still has a column of diagonal keys between its
/// two cells inside that box; when its jump is longer than
/// `2·radius + cell_side/2`, no still device can be near it at both
/// instants, and the query skips the still devices of every key with one
/// range seek. Candidates are then filtered exactly on the motion
/// distance, so results are identical to the linear scan
/// [`StatePair::neighbors_both`].
///
/// The local algorithms of the paper only ever look `2r` (one hop) or `4r`
/// (two hops) away, and `r < 1/4`, so cell sides match query radii well.
///
/// # Example
///
/// ```
/// use anomaly_qos::{TrajectoryIndex, QosSpace, Snapshot, StatePair, DeviceId};
/// let space = QosSpace::new(2)?;
/// let before = Snapshot::from_rows(&space, vec![vec![0.1, 0.1], vec![0.12, 0.11], vec![0.9, 0.9]])?;
/// let after  = Snapshot::from_rows(&space, vec![vec![0.4, 0.4], vec![0.42, 0.41], vec![0.9, 0.8]])?;
/// let pair = StatePair::new(before, after)?;
/// let index = TrajectoryIndex::build(&pair, 0.06);
/// assert_eq!(index.vicinity(&pair, DeviceId(0), 0.06), 1);
/// assert_eq!(index.vicinity(&pair, DeviceId(2), 0.06), 0);
/// # Ok::<(), anomaly_qos::QosError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryIndex {
    geometry: CellGeometry,
    /// `(before-cell, 2·after-cell + moving, id)` for every indexed device
    /// (the packed key of [`CellGeometry::packed_key`]): one before-cell's keys
    /// are contiguous, and within one `(before-cell, after-cell)` pair the
    /// still devices come first, each class's ids ascending.
    entries: BTreeSet<(u32, u32, u32)>,
    /// Per id, the packed key it is filed under ([`UNFILED`] for a device
    /// left out of the index).
    key_of: Vec<(u32, u32)>,
}

/// The `key_of` entry of a device [`TrajectoryIndex::build_except`] left
/// out: no cell id reaches `u32::MAX`.
const UNFILED: (u32, u32) = (u32::MAX, u32::MAX);

impl TrajectoryIndex {
    /// Indexes the trajectories of `pair`, with cells no smaller than
    /// `min_cell_side` (typically the query radius `2r`), in one sorted
    /// pass.
    pub fn build(pair: &StatePair, min_cell_side: f64) -> Self {
        TrajectoryIndex::build_except(pair, min_cell_side, &[])
    }

    /// [`TrajectoryIndex::build`] leaving out the devices of `unfiled`
    /// (ascending): [`TrajectoryIndex::key_of`] is `None` for them and no
    /// query visits them. A monitor leaves out the devices that joined
    /// since `k-1`, whose row there is only a placeholder.
    pub fn build_except(pair: &StatePair, min_cell_side: f64, unfiled: &[DeviceId]) -> Self {
        let geometry = CellGeometry::new(pair.dim(), min_cell_side);
        let rows = pair
            .before()
            .iter()
            .zip(pair.after().iter())
            .map(|((id, b), (_, a))| unfiled.binary_search(&id).is_err().then_some((b, a)));
        TrajectoryIndex::index(geometry, rows)
    }

    /// Indexes trajectories given as `(position at k-1, position at k)`,
    /// laid out by `geometry`. Row `i` gets id `i`.
    ///
    /// # Errors
    ///
    /// [`QosError::NonFinite`] for the first row holding a `NaN` or an
    /// infinite coordinate: such a row has no cell (`NaN` would file it in
    /// cell 0 of its axis while distances ignore that axis), so queries
    /// could miss it.
    pub fn from_trajectories<'a>(
        geometry: CellGeometry,
        rows: impl IntoIterator<Item = (&'a [f64], &'a [f64])>,
    ) -> Result<Self, QosError> {
        let mut non_finite = None;
        let rows = rows.into_iter().enumerate().map_while(|(id, (b, a))| {
            if b.iter().chain(a).all(|c| c.is_finite()) {
                Some(Some((b, a)))
            } else {
                non_finite = Some(id as u32);
                None
            }
        });
        let index = TrajectoryIndex::index(geometry, rows);
        match non_finite {
            Some(id) => Err(QosError::NonFinite { id }),
            None => Ok(index),
        }
    }

    /// Files row `i` under id `i`, skipping the `None` rows.
    fn index<'a>(
        geometry: CellGeometry,
        rows: impl Iterator<Item = Option<(&'a [f64], &'a [f64])>>,
    ) -> Self {
        let mut key_of = Vec::with_capacity(rows.size_hint().0);
        let mut entries = Vec::with_capacity(rows.size_hint().0);
        for (id, row) in rows.enumerate() {
            let Some((before, after)) = row else {
                key_of.push(UNFILED);
                continue;
            };
            let key = geometry.packed_key(before, after);
            key_of.push(key);
            entries.push((key.0, key.1, id as u32));
        }
        TrajectoryIndex {
            geometry,
            entries: radix_sorted(entries).into_iter().collect(),
            key_of,
        }
    }

    /// Brings the index from the state pair it last described to `pair`.
    ///
    /// `moved` lists every device whose key may have changed since then:
    /// its position at `k-1` or at `k` changed cell, or its displacement
    /// may have crossed half a cell side. Each one's key is recomputed
    /// from `pair` and the device re-filed if it changed, so a mostly-calm
    /// fleet updates in time proportional to the churn, not the
    /// population. Ids may repeat; ids outside the population are ignored.
    ///
    /// Falls back to a full rebuild — returning [`GridUpdate::Rebuilt`] —
    /// whenever the incremental path cannot apply: the dimension changed,
    /// `min_cell_side` implies a different cell resolution, or the
    /// population differs from the one indexed. The result equals a fresh
    /// [`TrajectoryIndex::build`]`(pair, min_cell_side)` as long as `moved`
    /// is complete.
    pub fn apply_moves(
        &mut self,
        pair: &StatePair,
        min_cell_side: f64,
        moved: &[DeviceId],
    ) -> GridUpdate {
        let geometry = CellGeometry::new(pair.dim(), min_cell_side);
        if geometry != self.geometry || pair.len() != self.key_of.len() {
            *self = TrajectoryIndex::build(pair, min_cell_side);
            return GridUpdate::Rebuilt;
        }
        let mut rebucketed = 0usize;
        for &id in moved {
            let (Ok(before), Ok(after)) = (
                pair.before().try_position(id),
                pair.after().try_position(id),
            ) else {
                continue;
            };
            let Some(filed) = self.key_of.get_mut(id.index()) else {
                continue;
            };
            let key = geometry.packed_key(before, after);
            if *filed == key {
                continue;
            }
            self.entries.remove(&(filed.0, filed.1, id.0));
            self.entries.insert((key.0, key.1, id.0));
            *filed = key;
            rebucketed += 1;
        }
        GridUpdate::Incremental { rebucketed }
    }

    /// The `(before-cell, after-cell, moving)` key `id` is filed under;
    /// `None` for an id outside the population or left out of the index.
    pub fn key_of(&self, id: DeviceId) -> Option<(u32, u32, bool)> {
        let &(before, after) = self.key_of.get(id.index()).filter(|&&k| k != UNFILED)?;
        Some((before, after >> 1, after & 1 == 1))
    }

    /// Calls `visit` with the id of every device filed under a key whose
    /// before-cell is within `ceil(radius / cell_side)` cells of the cell
    /// of `before`, and whose after-cell is within as many cells of the
    /// cell of `after`, on every axis — leaving out the still devices when
    /// the query's own displacement rules them out. That is a superset of
    /// the devices within uniform distance `radius` of `before` at `k-1`
    /// and of `after` at `k`; callers filter it exactly. Ids come grouped
    /// by key.
    pub fn candidates(&self, before: &[f64], after: &[f64], radius: f64, visit: impl FnMut(u32)) {
        let query = self.query(before, after, radius);
        self.walk(query, self.geometry.reach(radius), visit);
    }

    /// What the candidates of a query depend on: its before-cell, its
    /// after-cell, and whether it skips still devices.
    ///
    /// A still device `c` moved at most `h = cell_side/2`. If it is within
    /// `radius` of `j` at both instants, the triangle inequality gives
    /// `|j(k) − j(k-1)| ≤ |j(k) − c(k)| + |c(k) − c(k-1)| + |c(k-1) − j(k-1)|
    /// ≤ 2·radius + h`. So a query that moved further than that, plus
    /// [`STILL_SKIP_MARGIN`] for the rounding of the computed distances,
    /// has no still device among its neighbours.
    fn query(&self, before: &[f64], after: &[f64], radius: f64) -> (u32, u32, bool) {
        let g = &self.geometry;
        let bound = 2.0 * radius + g.half_side() + STILL_SKIP_MARGIN;
        (
            g.cell_index(before),
            g.cell_index(after),
            displacement(before, after) > bound,
        )
    }

    /// The walk behind [`TrajectoryIndex::candidates`] for one query key,
    /// reaching `reach` cells around both of its cells.
    fn walk(
        &self,
        (from, to, skip_still): (u32, u32, bool),
        reach: usize,
        mut visit: impl FnMut(u32),
    ) {
        let g = &self.geometry;
        g.for_each_cell_near(from, reach, &mut |cell| {
            let mut scan = self.entries.range((cell, 0, 0)..);
            let mut next = scan.next();
            // The after-cell of the key being scanned, once admitted.
            let mut admitted = None;
            while let Some(&(b, packed, id)) = next {
                if b != cell {
                    break;
                }
                let a = packed >> 1;
                if admitted == Some(a) {
                    visit(id);
                    next = scan.next();
                } else if g.chebyshev(a, to) > reach {
                    // Skip the whole key without touching its devices.
                    scan = self.entries.range((cell, (a + 1) << 1, 0)..);
                    next = scan.next();
                } else {
                    admitted = Some(a);
                    if skip_still && packed & 1 == 0 {
                        // Skip the key's still devices: seek to its first
                        // moving one.
                        scan = self.entries.range((cell, packed | 1, 0)..);
                        next = scan.next();
                    } else {
                        visit(id);
                        next = scan.next();
                    }
                }
            }
        });
    }

    /// Runs one index walk per distinct query key — before-cell,
    /// after-cell, and whether still devices are skipped — among `queries`,
    /// each a tag with its positions at `k-1` and at `k`, and calls
    /// `visit` once per key, in key order, with the ids
    /// [`TrajectoryIndex::candidates`] visits for that key and the tags of
    /// every query that falls under it, in query order. The candidates
    /// depend only on the key, so a crowd that shares one pays for one
    /// walk; callers filter them exactly per query.
    pub fn candidates_per_key<'q, T>(
        &self,
        queries: impl IntoIterator<Item = (T, &'q [f64], &'q [f64])>,
        radius: f64,
        mut visit: impl FnMut(&[u32], &[T]),
    ) {
        let mut keys: BTreeMap<(u32, u32, bool), Vec<T>> = BTreeMap::new();
        for (tag, before, after) in queries {
            keys.entry(self.query(before, after, radius))
                .or_default()
                .push(tag);
        }
        let reach = self.geometry.reach(radius);
        let mut candidates: Vec<u32> = Vec::new();
        for (query, tags) in keys {
            candidates.clear();
            self.walk(query, reach, |id| candidates.push(id));
            visit(&candidates, &tags);
        }
    }

    /// Vicinity size of `j`: the number of devices other than `j` within
    /// uniform distance `radius` of it at **both** times `k-1` and `k`,
    /// equal to `pair.neighbors_both(j, radius).len()` when the index
    /// describes `pair`. Zero when `j` is not in `pair`. The one-device
    /// case of [`TrajectoryIndex::vicinities`].
    pub fn vicinity(&self, pair: &StatePair, j: DeviceId, radius: f64) -> usize {
        self.vicinities(pair, &[j], radius).pop().unwrap_or(0)
    }

    /// [`TrajectoryIndex::vicinity`] of every device of `js`, in order,
    /// with one index walk per distinct key among them
    /// ([`TrajectoryIndex::candidates_per_key`]): the devices of a pile-up
    /// share their key, so they share their walk, and each is then tested
    /// exactly against its key's candidates.
    pub fn vicinities(&self, pair: &StatePair, js: &[DeviceId], radius: f64) -> Vec<usize> {
        let (before, after) = (pair.before(), pair.after());
        let mut counts = vec![0; js.len()];
        let queries = js.iter().enumerate().filter_map(|(q, &j)| {
            let (Ok(jb), Ok(ja)) = (before.try_position(j), after.try_position(j)) else {
                return None;
            };
            Some(((q, j, jb, ja), jb, ja))
        });
        let within = |home: &[f64], p: &[f64]| uniform_distance(home, p) <= radius;
        self.candidates_per_key(queries, radius, |candidates, tags| {
            for &(q, j, jb, ja) in tags {
                // The motion distance is the larger of the two instants'
                // distances: test the before-distance first, and load the
                // after-position only for candidates that pass it.
                let count = candidates
                    .iter()
                    .map(|&c| DeviceId(c))
                    .filter(|&c| {
                        c != j
                            && before.try_position(c).is_ok_and(|p| within(jb, p))
                            && after.try_position(c).is_ok_and(|p| within(ja, p))
                    })
                    .count();
                if let Some(slot) = counts.get_mut(q) {
                    *slot = count;
                }
            }
        });
        counts
    }
}

/// Bits of the sort key [`radix_sorted`] handles per counting pass.
const RADIX_BITS: u32 = 9;

/// Index entries generated in ascending id order, put in key order: a
/// stable LSD radix sort on the packed `(before-cell, after-cell, moving)`
/// key, at most 37 bits since cell ids stay below 2^18, so ids stay
/// ascending within a key. Passes above the largest key's top bit, and
/// passes whose digit is the same for every entry, are skipped. The ordered
/// set is then built from the sorted run in one pass.
fn radix_sorted(mut entries: Vec<(u32, u32, u32)>) -> Vec<(u32, u32, u32)> {
    let key = |e: &(u32, u32, u32)| (u64::from(e.0) << 19) | u64::from(e.1);
    let bits = entries
        .iter()
        .map(key)
        .max()
        .map_or(0, |k| 64 - k.leading_zeros());
    let mask = (1u64 << RADIX_BITS) - 1;
    let mut scratch = vec![(0, 0, 0); entries.len()];
    for shift in (0..bits).step_by(RADIX_BITS as usize) {
        let digit = |e: &(u32, u32, u32)| ((key(e) >> shift) & mask) as usize;
        let mut next = [0usize; 1 << RADIX_BITS];
        for entry in &entries {
            if let Some(count) = next.get_mut(digit(entry)) {
                *count += 1;
            }
        }
        if next.contains(&entries.len()) {
            continue;
        }
        let mut start = 0;
        for slot in &mut next {
            let count = *slot;
            *slot = start;
            start += count;
        }
        for &entry in &entries {
            if let Some(slot) = next.get_mut(digit(&entry)) {
                if let Some(place) = scratch.get_mut(*slot) {
                    *place = entry;
                }
                *slot += 1;
            }
        }
        std::mem::swap(&mut entries, &mut scratch);
    }
    entries
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

    /// The exact neighbours of `j` among the index's candidates, sorted.
    fn neighbors(
        index: &TrajectoryIndex,
        pair: &StatePair,
        j: DeviceId,
        radius: f64,
    ) -> Vec<DeviceId> {
        let (before, after) = (pair.before(), pair.after());
        let mut out = Vec::new();
        index.candidates(before.position(j), after.position(j), radius, |c| {
            let c = DeviceId(c);
            if c != j && before.distance(j, c) <= radius && after.distance(j, c) <= radius {
                out.push(c);
            }
        });
        out.sort_unstable();
        out
    }

    fn linear(pair: &StatePair, j: DeviceId, radius: f64) -> Vec<DeviceId> {
        let mut expected = pair.neighbors_both(j, radius);
        expected.sort_unstable();
        expected
    }

    /// The positional diff of two pairs: every device whose position at
    /// either instant changed.
    fn diff(old: &StatePair, new: &StatePair) -> Vec<DeviceId> {
        new.device_ids()
            .filter(|&id| {
                old.before().position(id) != new.before().position(id)
                    || old.after().position(id) != new.after().position(id)
            })
            .collect()
    }

    /// Applies the positional diff of `old → new` and asserts the result
    /// equals a fresh build, with `rebucketed` the number of changed keys.
    fn assert_apply_matches_fresh(old: &StatePair, new: &StatePair, side: f64) {
        let mut index = TrajectoryIndex::build(old, side);
        let before = index.clone();
        let fresh = TrajectoryIndex::build(new, side);
        let rekeyed = new
            .device_ids()
            .filter(|&id| before.key_of(id) != fresh.key_of(id))
            .count();
        assert_eq!(
            index.apply_moves(new, side, &diff(old, new)),
            GridUpdate::Incremental {
                rebucketed: rekeyed
            }
        );
        assert_eq!(index, fresh);
    }

    /// `x` moved by `k` units in the last place.
    fn ulps(mut x: f64, k: i32) -> f64 {
        for _ in 0..k.unsigned_abs() {
            x = if k > 0 { x.next_up() } else { x.next_down() };
        }
        x
    }

    /// A move along one axis at the edges of the still/moving classes:
    /// `shape` 0 is exactly half a cell side (the longest still move), and
    /// 1 to 7 the still-skipping bound `2·radius + cell_side/2`, nudged by
    /// `shape − 4` units in the last place.
    fn class_edge_step(radius: f64, shape: usize) -> f64 {
        let half = CellGeometry::new(1, radius).half_side();
        match shape {
            0 => half,
            _ => ulps(2.0 * radius + half, shape as i32 - 4),
        }
    }

    /// `x` moved by `step`, up or down, kept in the domain.
    fn shifted(x: f64, step: f64, up: bool) -> f64 {
        if up {
            (x + step).min(1.0)
        } else {
            (x - step).max(0.0)
        }
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
        let index = TrajectoryIndex::build(&pair, 0.06);
        for j in pair.device_ids() {
            assert_eq!(neighbors(&index, &pair, j, 0.06), linear(&pair, j, 0.06));
            assert_eq!(index.vicinity(&pair, j, 0.06), linear(&pair, j, 0.06).len());
        }
    }

    /// The sorted, distinct cell list of a set.
    fn list(cells: &BTreeSet<u32>) -> Vec<u32> {
        cells.iter().copied().collect()
    }

    /// Every cell of a `dim`-dimensional geometry the expansion contains.
    fn expanded(geometry: &CellGeometry, dirty: &BTreeSet<u32>, rings: usize) -> BTreeSet<u32> {
        let cells = list(dirty);
        let view = geometry.expand_cells(&cells, rings);
        (0..geometry.cells() as u32)
            .filter(|&c| view.contains(c))
            .collect()
    }

    #[test]
    fn expand_cells_covers_the_chebyshev_ring() {
        let geometry = CellGeometry::new(2, 0.1); // 10 cells per axis
        let n = geometry.cells_per_axis;
        assert_eq!(n, 10);
        let center = geometry.cell_index(&[0.55, 0.55]); // cell (5, 5)
        let dirty: BTreeSet<u32> = [center].into_iter().collect();

        // rings = 0 is the identity.
        assert_eq!(expanded(&geometry, &dirty, 0), dirty);

        // rings = 2 is the full 5x5 Chebyshev box around (5, 5).
        let mut expected = BTreeSet::new();
        for x in 3..=7u32 {
            for y in 3..=7u32 {
                expected.insert(x * n as u32 + y);
            }
        }
        assert_eq!(expanded(&geometry, &dirty, 2), expected);
    }

    #[test]
    fn expand_cells_clamps_at_the_domain_border() {
        let geometry = CellGeometry::new(2, 0.1);
        let n = geometry.cells_per_axis as u32;
        let corner = geometry.cell_index(&[0.0, 0.0]); // cell (0, 0)
        let dirty: BTreeSet<u32> = [corner].into_iter().collect();
        let mut expected = BTreeSet::new();
        for x in 0..=2u32 {
            for y in 0..=2u32 {
                expected.insert(x * n + y);
            }
        }
        assert_eq!(expanded(&geometry, &dirty, 2), expected);
        // A cell of the last row does not wrap around to the first one.
        let edge: BTreeSet<u32> = [9 * n + 9].into_iter().collect();
        assert!(!geometry.expand_cells(&list(&edge), 1).contains(0));
        assert!(!geometry.expand_cells(&list(&edge), 1).contains(9 * n));
        // Out-of-range cells are ignored rather than decoded nonsensically.
        let bogus: BTreeSet<u32> = [n * n + 7].into_iter().collect();
        assert!(expanded(&geometry, &bogus, 2).is_empty());
        assert!(!geometry.expand_cells(&list(&dirty), 2).contains(n * n + 7));
    }

    #[test]
    fn expand_cells_merges_overlapping_neighbourhoods() {
        let geometry = CellGeometry::new(2, 0.1);
        let a = geometry.cell_index(&[0.45, 0.45]);
        let b = geometry.cell_index(&[0.55, 0.45]); // adjacent along axis 0
        let dirty: BTreeSet<u32> = [a, b].into_iter().collect();
        let cells = expanded(&geometry, &dirty, 1);
        // Two adjacent 3x3 boxes overlap into a 4x3 box: 12 distinct cells.
        assert_eq!(cells.len(), 12);
        for cell in &dirty {
            assert!(cells.contains(cell));
        }
    }

    /// The expansion never materialises its cells: at 16 services a
    /// two-ring box would hold 5^16 of them.
    #[test]
    fn expand_cells_scales_to_many_services() {
        let geometry = CellGeometry::new(16, 0.06);
        assert_eq!(geometry.cells_per_axis, 2);
        let origin = geometry.cell_index(&[0.1; 16]);
        let far = geometry.cell_index(&[0.9; 16]);
        let dirty: BTreeSet<u32> = [origin].into_iter().collect();
        assert!(geometry.expand_cells(&list(&dirty), 0).contains(origin));
        assert!(!geometry.expand_cells(&list(&dirty), 0).contains(far));
        assert!(geometry.expand_cells(&list(&dirty), 1).contains(far));
    }

    #[test]
    fn handles_boundary_coordinates() {
        let pair = pair_from(
            vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.02, 0.0]],
            vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.02, 0.0]],
        );
        let index = TrajectoryIndex::build(&pair, 0.05);
        assert_eq!(
            neighbors(&index, &pair, DeviceId(0), 0.05),
            vec![DeviceId(2)]
        );
        assert!(neighbors(&index, &pair, DeviceId(1), 0.05).is_empty());
    }

    /// A zero, negative or non-numeric cell side takes the capped or the
    /// coarsest resolution instead of panicking, and queries stay exact.
    #[test]
    fn zero_cell_side_takes_the_capped_resolution() {
        assert_eq!(CellGeometry::new(1, 0.0).cells_per_axis, 4096);
        assert_eq!(CellGeometry::new(1, -0.5).cells_per_axis, 1);
        assert_eq!(CellGeometry::new(1, f64::NAN).cells_per_axis, 1);
        let pair = pair_from(vec![vec![0.5], vec![0.5]], vec![vec![0.5], vec![0.5]]);
        for side in [0.0, -0.5, f64::NAN] {
            let index = TrajectoryIndex::build(&pair, side);
            assert_eq!(index.vicinity(&pair, DeviceId(0), 0.0), 1);
        }
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
        let mut reused = TrajectoryIndex::build(&first, 0.06);
        assert_eq!(reused.apply_moves(&second, 0.08, &[]), GridUpdate::Rebuilt);
        let fresh = TrajectoryIndex::build(&second, 0.08);
        assert_eq!(reused, fresh);
        for j in second.device_ids() {
            assert_eq!(
                neighbors(&reused, &second, j, 0.08),
                linear(&second, j, 0.08)
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
        let mut index = TrajectoryIndex::build(&pairs[0], 0.5);
        for (pair, side) in [(&pairs[1], 0.01), (&pairs[0], 0.3), (&pairs[1], 0.06)] {
            assert_eq!(index.apply_moves(pair, side, &[]), GridUpdate::Rebuilt);
            assert_eq!(index, TrajectoryIndex::build(pair, side));
            for j in pair.device_ids() {
                assert_eq!(neighbors(&index, pair, j, side), linear(pair, j, side));
            }
        }
    }

    #[test]
    fn one_dimensional_space_works() {
        let pair = pair_from(
            vec![vec![0.1], vec![0.14], vec![0.5]],
            vec![vec![0.2], vec![0.24], vec![0.9]],
        );
        let index = TrajectoryIndex::build(&pair, 0.06);
        assert_eq!(
            neighbors(&index, &pair, DeviceId(0), 0.06),
            vec![DeviceId(1)]
        );
    }

    #[test]
    fn apply_moves_rebuckets_boundary_crossers() {
        let old = pair_from(
            vec![vec![0.10, 0.10], vec![0.50, 0.50], vec![0.90, 0.90]],
            vec![vec![0.12, 0.10], vec![0.50, 0.52], vec![0.90, 0.88]],
        );
        // Device 0 crosses several cells, device 1 stays put, device 2
        // nudges within its cells.
        let new = pair_from(
            vec![vec![0.45, 0.45], vec![0.50, 0.50], vec![0.905, 0.90]],
            vec![vec![0.46, 0.45], vec![0.50, 0.51], vec![0.91, 0.90]],
        );
        assert_apply_matches_fresh(&old, &new, 0.06);
    }

    #[test]
    fn apply_moves_reports_incremental_outcome_and_counts() {
        let old = pair_from(vec![vec![0.1], vec![0.9]], vec![vec![0.1], vec![0.9]]);
        // Device 0 moves at k-1 only, device 1 at k only: both re-keyed.
        let new = pair_from(vec![vec![0.6], vec![0.9]], vec![vec![0.1], vec![0.3]]);
        let mut index = TrajectoryIndex::build(&old, 0.1);
        assert_eq!(
            index.apply_moves(&new, 0.1, &[DeviceId(0), DeviceId(1)]),
            GridUpdate::Incremental { rebucketed: 2 }
        );
        // A device whose key did not change, or one named twice, is not
        // counted again.
        assert_eq!(
            index.apply_moves(&new, 0.1, &[DeviceId(0), DeviceId(0)]),
            GridUpdate::Incremental { rebucketed: 0 }
        );
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
        let mut index = TrajectoryIndex::build(&pair, 0.1);
        // A different resolution cannot be patched in place.
        assert_eq!(index.apply_moves(&pair, 0.3, &[]), GridUpdate::Rebuilt);
        assert_eq!(index, TrajectoryIndex::build(&pair, 0.3));
    }

    #[test]
    fn apply_moves_falls_back_to_rebuild_on_population_change() {
        let old = pair_from(vec![vec![0.1], vec![0.9]], vec![vec![0.1], vec![0.9]]);
        let new = pair_from(
            vec![vec![0.1], vec![0.5], vec![0.9]],
            vec![vec![0.1], vec![0.5], vec![0.9]],
        );
        let mut index = TrajectoryIndex::build(&old, 0.1);
        assert_eq!(index.apply_moves(&new, 0.1, &[]), GridUpdate::Rebuilt);
        let fresh = TrajectoryIndex::build(&new, 0.1);
        assert_eq!(index, fresh);
        for j in new.device_ids() {
            assert_eq!(neighbors(&index, &new, j, 0.1), linear(&new, j, 0.1));
        }
    }

    /// Keys are recomputed from the pair, so no move list can put the
    /// index in a state it cannot describe; ids beyond the population are
    /// skipped.
    #[test]
    fn apply_moves_ignores_ids_outside_the_population() {
        let old = pair_from(vec![vec![0.1]], vec![vec![0.1]]);
        let new = pair_from(vec![vec![0.9]], vec![vec![0.1]]);
        let mut index = TrajectoryIndex::build(&old, 0.1);
        assert_eq!(
            index.apply_moves(&new, 0.1, &[DeviceId(7), DeviceId(0), DeviceId(u32::MAX)]),
            GridUpdate::Incremental { rebucketed: 1 }
        );
        assert_eq!(index, TrajectoryIndex::build(&new, 0.1));
    }

    /// The axis-resolution cap engages for `min_cell_side` far below the
    /// capped cell side; a caller detecting cell crossings through
    /// [`CellGeometry::cell_index`] (the monitor's staging filter) must
    /// stay consistent with `apply_moves`' own capped geometry.
    #[test]
    fn cell_index_crossing_filter_matches_apply_moves_under_the_cap() {
        // dim 3: uncapped would be 1000 cells/axis, capped at 64.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![0.08 * i as f64, 0.07 * i as f64, 0.05 * i as f64])
            .collect();
        let old = pair_from(rows.clone(), rows.clone());
        let side = 0.001;
        let mut index = TrajectoryIndex::build(&old, side);
        let geometry = index.geometry;
        assert_eq!(geometry.cells_per_axis, 64, "the dim-3 cap must engage");
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
        let new = pair_from(new_rows.clone(), new_rows);
        // The monitor's filter: stage only rows whose *capped* cell moved.
        let moved: Vec<DeviceId> = old
            .device_ids()
            .filter(|&id| {
                let (a, b) = (old.after().position(id), new.after().position(id));
                geometry.cell_index(a) != geometry.cell_index(b)
            })
            .collect();
        assert!(
            moved.len() < old.len(),
            "some nudges must stay within their capped cell"
        );
        assert_eq!(
            index.apply_moves(&new, side, &moved),
            GridUpdate::Incremental {
                rebucketed: moved.len()
            }
        );
        assert_eq!(index, TrajectoryIndex::build(&new, side));
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
            let index = TrajectoryIndex::build(&pair, side);
            let geometry = CellGeometry::new(dim, side);
            assert_eq!(index.geometry, geometry);
            for (i, row) in rows.iter().enumerate() {
                let cell = geometry.cell_index(row);
                assert_eq!(
                    index.key_of(DeviceId(i as u32)),
                    Some((cell, cell, false)),
                    "{dim} {side}"
                );
            }
        }
    }

    #[test]
    fn from_trajectories_rejects_a_coordinate_that_is_not_finite() {
        let geometry = CellGeometry::new(2, 0.06);
        let index = |rows: &[([f64; 2], [f64; 2])]| {
            TrajectoryIndex::from_trajectories(geometry, rows.iter().map(|(b, a)| (&b[..], &a[..])))
        };
        let calm = ([0.1, 0.1], [0.1, 0.1]);
        assert_eq!(
            index(&[calm, ([1e6, f64::NAN], [1e6, 0.0])]),
            Err(QosError::NonFinite { id: 1 })
        );
        assert_eq!(
            index(&[calm, calm, ([0.2, 0.2], [f64::INFINITY, 0.2])]),
            Err(QosError::NonFinite { id: 2 })
        );
        // Finite rows off the unit cube still have cells.
        let far = index(&[calm, ([1e6, -3.0], [1e6, 0.5])]).unwrap();
        assert!(far.key_of(DeviceId(1)).is_some());
    }

    #[test]
    fn a_cell_set_lists_each_cell_once_and_clears_through_its_list() {
        let geometry = CellGeometry::new(2, 0.1); // 100 cells
        let mut set = CellSet::new(&geometry);
        assert!(set.is_empty());
        for cell in [42, 7, 42, 99, 7, 0] {
            set.insert(cell);
        }
        assert!(!set.insert(99), "already in the set");
        assert!(!set.insert(100), "outside the grid");
        assert_eq!(set.sorted(), &[0, 7, 42, 99]);
        set.clear();
        assert!(set.is_empty());
        // Clearing reset the bits: a cleared cell is listed again.
        set.extend([5, 42, 5, 3]);
        assert_eq!(set.sorted(), &[3, 5, 42]);
        // The sorted list is the input of the ring expansion.
        let expanded = geometry.expand_cells(set.sorted(), 1);
        assert!(expanded.contains(16) && !expanded.contains(17) && expanded.contains(53));
    }

    #[test]
    fn the_axis_cap_depends_on_the_dimension() {
        for (dim, expected) in [
            (1usize, 4096),
            (2, 512),
            (3, 64),
            (4, 16),
            (5, 12),
            (6, 8),
            (16, 2),
            (19, 1),
        ] {
            let geometry = CellGeometry::new(dim, 1e-9);
            assert_eq!(geometry.cells_per_axis, expected, "dim {dim}");
            assert!(geometry.cells() <= MAX_CELLS, "dim {dim}");
            // The capped cell side is what cell_index actually uses.
            assert!((geometry.cell_side - 1.0 / expected as f64).abs() < 1e-12);
        }
    }

    /// Sixteen services at the default window: two devices index in two
    /// entries, where a dense grid would need 2^16 buckets or wrap to none.
    #[test]
    fn many_services_index_in_linear_space() {
        let pair = pair_from(
            vec![vec![0.5; 16], vec![0.51; 16]],
            vec![vec![0.5; 16], vec![0.9; 16]],
        );
        let index = TrajectoryIndex::build(&pair, 0.06);
        assert_eq!(index.entries.len(), 2);
        assert_eq!(index.key_of.len(), 2);
        for j in pair.device_ids() {
            assert_eq!(index.vicinity(&pair, j, 0.06), 0);
        }
    }

    /// `vicinity` against the linear scan, for every device of `js`.
    fn assert_counts_match_linear_scan(pair: &StatePair, js: &[DeviceId], radius: f64) {
        let index = TrajectoryIndex::build(pair, radius);
        for &j in js {
            assert_eq!(
                index.vicinity(pair, j, radius),
                pair.neighbors_both(j, radius).len(),
                "device {j:?} at radius {radius}"
            );
        }
    }

    /// Gaps whose computed difference is exactly `radius`, where a box
    /// pre-expanded by the radius would round past the neighbour.
    #[test]
    fn vicinity_counts_keep_neighbours_exactly_radius_away() {
        for (near, far, radius) in [(0.04, 0.14, 0.1), (0.08, 0.28, 0.2), (0.02, 0.07, 0.05)] {
            for dim in 1..=3 {
                let row = |x: f64| {
                    let mut r = vec![0.5; dim];
                    r[0] = x;
                    r
                };
                // Two devices share the far cell; the near device is one
                // cell over, within `radius` of both at both instants.
                let rows = vec![row(far), row(far), row(near)];
                let pair = pair_from(rows.clone(), rows);
                let js: Vec<DeviceId> = pair.device_ids().collect();
                assert_counts_match_linear_scan(&pair, &js, radius);
                let index = TrajectoryIndex::build(&pair, radius);
                let counts: Vec<usize> = js
                    .iter()
                    .map(|&j| index.vicinity(&pair, j, radius))
                    .collect();
                assert_eq!(counts, vec![2, 2, 2]);
            }
        }
    }

    #[test]
    fn vicinity_counts_handle_empty_and_repeated_queries() {
        let pair = pair_from(
            vec![vec![0.1, 0.1], vec![0.12, 0.11], vec![0.9, 0.9]],
            vec![vec![0.4, 0.4], vec![0.42, 0.41], vec![0.9, 0.8]],
        );
        let index = TrajectoryIndex::build(&pair, 0.06);
        let js = [DeviceId(2), DeviceId(0), DeviceId(0), DeviceId(1)];
        let counts: Vec<usize> = js.iter().map(|&j| index.vicinity(&pair, j, 0.06)).collect();
        assert_eq!(counts, vec![0, 1, 1, 1]);
        // A device outside the pair has no vicinity.
        assert_eq!(index.vicinity(&pair, DeviceId(3), 0.06), 0);
        let space = QosSpace::new(2).unwrap();
        let empty = StatePair::new(
            Snapshot::from_rows(&space, vec![]).unwrap(),
            Snapshot::from_rows(&space, vec![]).unwrap(),
        )
        .unwrap();
        let index = TrajectoryIndex::build(&empty, 0.06);
        assert!(index.entries.is_empty());
        assert_eq!(index.vicinity(&empty, DeviceId(0), 0.06), 0);
    }

    /// A left-out device has no key and is no one's neighbour; every other
    /// device is filed as in a full build, and re-keying the left-out one
    /// files it.
    #[test]
    fn build_except_leaves_devices_out() {
        let pair = pair_from(
            vec![vec![0.1, 0.1], vec![0.12, 0.11], vec![0.11, 0.1]],
            vec![vec![0.4, 0.4], vec![0.42, 0.41], vec![0.41, 0.4]],
        );
        let full = TrajectoryIndex::build(&pair, 0.06);
        let mut index = TrajectoryIndex::build_except(&pair, 0.06, &[DeviceId(1)]);
        assert_eq!(index.key_of(DeviceId(1)), None);
        assert_eq!(index.key_of(DeviceId(0)), full.key_of(DeviceId(0)));
        assert_eq!(index.key_of(DeviceId(2)), full.key_of(DeviceId(2)));
        assert_eq!(index.vicinity(&pair, DeviceId(0), 0.06), 1);
        assert_eq!(full.vicinity(&pair, DeviceId(0), 0.06), 2);
        // The left-out device's own query still sees the filed ones.
        assert_eq!(index.vicinity(&pair, DeviceId(1), 0.06), 2);
        assert_eq!(
            index.apply_moves(&pair, 0.06, &[DeviceId(1)]),
            GridUpdate::Incremental { rebucketed: 1 }
        );
        assert_eq!(index, full);
    }

    /// A crowd that stays put over three cell columns, and one device that
    /// jumped out of the middle one by two and by three cells: at three
    /// the jumper's query examines no crowd device, at two only the
    /// column next to it.
    #[test]
    fn a_jumper_skips_the_crowd_it_left() {
        let crowd: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![0.40 + 0.001 * i as f64, 0.5])
            .collect();
        for cells in [3.0, 2.0] {
            let mut before = crowd.clone();
            let mut after = crowd.clone();
            before.push(vec![0.55, 0.5]);
            after.push(vec![0.55 + cells * 0.1, 0.5]);
            let pair = pair_from(before, after);
            let index = TrajectoryIndex::build(&pair, 0.1);
            let geometry = index.geometry;
            let column = geometry.cell_index(&[0.65, 0.5]);
            let next_column = crowd
                .iter()
                .filter(|row| geometry.cell_index(row) == column)
                .count();
            assert!(next_column > 50);
            let jumper = DeviceId(300);
            let mut examined = 0;
            index.candidates(
                pair.before().position(jumper),
                pair.after().position(jumper),
                0.1,
                |_| examined += 1,
            );
            let expected = if cells == 3.0 { 1 } else { 1 + next_column };
            assert_eq!(examined, expected, "{cells} cells away");
            assert_eq!(
                index.vicinity(&pair, jumper, 0.1),
                pair.neighbors_both(jumper, 0.1).len()
            );
        }
    }

    /// A still crowd fills the cell column between a lone jumper's before-
    /// and after-cells, two cells apart: some of it never moves, some moves
    /// a little, and some exactly half a cell side (binary fractions, so
    /// every difference is exact). The jump is longer than
    /// `2·radius + cell_side/2`, so no still device can be near the jumper
    /// at both instants, and its query visits only itself.
    #[test]
    fn a_long_jump_skips_the_still_column_between() {
        let radius = 0.125;
        let mut before: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![0.625 + i as f64 / 2048.0, 0.5 + i as f64 / 8192.0])
            .collect();
        let mut after: Vec<Vec<f64>> = before
            .iter()
            .enumerate()
            .map(|(i, row)| vec![row[0] + [0.0, 1.0 / 64.0, 1.0 / 16.0][i % 3], row[1]])
            .collect();
        let start = 0.5 + 1.0 / 1024.0;
        before.push(vec![start, 0.5]);
        after.push(vec![start + 0.32, 0.5]);
        let pair = pair_from(before, after);
        let index = TrajectoryIndex::build(&pair, radius);
        let geometry = index.geometry;
        let jumper = DeviceId(200);
        let (from, to) = (
            pair.before().position(jumper),
            pair.after().position(jumper),
        );
        assert_eq!(
            geometry.chebyshev(geometry.cell_index(from), geometry.cell_index(to)),
            2
        );
        let column = geometry.cell_index(&[0.7, 0.5]);
        assert!(pair.device_ids().filter(|&id| id != jumper).all(|id| index
            .key_of(id)
            .is_some_and(|(b, _, moving)| b == column && !moving)));
        let mut examined = Vec::new();
        index.candidates(from, to, radius, |id| examined.push(id));
        assert_eq!(examined, vec![200]);
        assert_eq!(index.vicinity(&pair, jumper, radius), 0);
        assert!(pair.neighbors_both(jumper, radius).is_empty());
    }

    /// A still device exactly on the triangle bound: `c` moves half a cell
    /// side, and `j`, `radius` away from it at both instants, moves
    /// `2·radius + cell_side/2`. The computed jump rounds just above the
    /// computed bound while both computed gaps stay within the radius, so
    /// only the margin keeps `c` among `j`'s candidates.
    #[test]
    fn the_still_skip_keeps_a_neighbour_its_rounding_puts_past_the_bound() {
        let radius = 0.07; // 14 cells of 1/14 per axis
        let (c, j) = ((0.13, 0.09428571428571429), (0.2, 0.024285714285714282));
        let half = CellGeometry::new(1, radius).half_side();
        assert!(f64::abs(c.1 - c.0) <= half);
        assert!(f64::abs(j.1 - j.0) > 2.0 * radius + half);
        for dim in 1..=3 {
            let row = |x: f64| {
                let mut r = vec![0.5; dim];
                r[0] = x;
                r
            };
            let pair = pair_from(vec![row(c.0), row(j.0)], vec![row(c.1), row(j.1)]);
            assert_eq!(pair.neighbors_both(DeviceId(1), radius), vec![DeviceId(0)]);
            assert_counts_match_linear_scan(&pair, &[DeviceId(0), DeviceId(1)], radius);
        }
    }

    /// Trajectories given directly (as a `TrajectoryTable` gives them) need
    /// not lie in the domain: shifted far off it, where a unit in the last
    /// place dwarfs the margin, a jumper's still-skipping query still keeps
    /// every device the exact filter keeps.
    #[test]
    fn the_still_skip_is_exact_off_the_domain() {
        let radius = 0.07;
        let half = CellGeometry::new(2, radius).half_side();
        let jump = 2.0 * radius + half;
        for base in [-3.5, 1e6, 12_345.678] {
            for y in [base, base + 0.03] {
                // A still device and a jumper `radius` away from it at both
                // instants, and two still devices beside them.
                let rows = [
                    ([base, base], [base + half, base]),
                    ([base - radius, y], [base + half + radius, y]),
                    ([base + 0.01, base], [base + 0.01, base]),
                    ([base, y], [base + half, y]),
                ];
                let index = TrajectoryIndex::from_trajectories(
                    CellGeometry::new(2, radius),
                    rows.iter().map(|(b, a)| (&b[..], &a[..])),
                )
                .unwrap();
                let (jb, ja) = (&rows[1].0[..], &rows[1].1[..]);
                assert!(displacement(jb, ja) >= jump - 1e-9);
                let mut kept = Vec::new();
                index.candidates(jb, ja, radius, |id| {
                    let (b, a) = &rows[id as usize];
                    if uniform_distance(jb, b) <= radius && uniform_distance(ja, a) <= radius {
                        kept.push(id);
                    }
                });
                kept.sort_unstable();
                let want: Vec<u32> = (0..rows.len() as u32)
                    .filter(|&id| {
                        let (b, a) = &rows[id as usize];
                        uniform_distance(jb, b) <= radius && uniform_distance(ja, a) <= radius
                    })
                    .collect();
                assert_eq!(kept, want, "base {base}, y {y}");
            }
        }
    }

    proptest! {
        /// The one-pass key equals its three parts, for 1 to 6 services: on
        /// random rows, on coordinates exactly on a cell boundary, and on
        /// moves of exactly half a cell side — the longest still move —
        /// and one unit in the last place under and over it.
        #[test]
        fn the_key_is_both_cells_and_the_class(
            dim in 1usize..7,
            side in 0.001f64..0.3,
            axes in proptest::collection::vec((0usize..4, 0.0..=1.0f64, 0usize..5), 6),
        ) {
            let geometry = CellGeometry::new(dim, side);
            let (cell, half) = (geometry.cell_side, geometry.half_side());
            let mut before = Vec::with_capacity(dim);
            let mut after = Vec::with_capacity(dim);
            for &(place, x, step) in axes.iter().take(dim) {
                let b = match place {
                    0 | 1 => x,
                    _ => ((x / cell).floor() * cell).min(1.0),
                };
                let delta = match step {
                    0 => 0.0,
                    1 => x * cell,
                    2 => half,
                    3 => ulps(half, -1),
                    _ => ulps(half, 1),
                };
                before.push(b);
                after.push(if place % 2 == 0 { b + delta } else { b - delta });
            }
            prop_assert_eq!(
                geometry.key(&before, &after),
                (
                    geometry.cell_index(&before),
                    geometry.cell_index(&after),
                    geometry.is_moving(&before, &after),
                )
            );
        }
    }

    proptest! {
        /// Vicinity counts equal the linear scan on grid-aligned decimals:
        /// many queries per cell, points on cell boundaries and at the
        /// clamped edge 1.0, and gaps exactly equal to the radius.
        #[test]
        fn vicinity_counts_equal_linear_scan(
            rows in proptest::collection::vec(
                (proptest::collection::vec(0usize..PALETTE.len(), 6), 0usize..PALETTE.len(), 0usize..8),
                1..40),
            dim in 1usize..4,
            radius_pick in 0usize..5,
        ) {
            let radius = RADII[radius_pick];
            // A quarter of the devices stay put, a quarter move anywhere,
            // and half move along the first axis by a class-edge step.
            let before: Vec<Vec<f64>> = rows
                .iter()
                .map(|(coords, _, _)| coords[..dim].iter().map(|&c| PALETTE[c]).collect())
                .collect();
            let after: Vec<Vec<f64>> = rows
                .iter()
                .zip(&before)
                .enumerate()
                .map(|(i, ((coords, shift, shape), b))| match i % 4 {
                    0 => b.clone(),
                    1 => {
                        let mut a: Vec<f64> =
                            coords[3..3 + dim].iter().map(|&c| PALETTE[c]).collect();
                        a[0] = PALETTE[*shift];
                        a
                    }
                    _ => {
                        let mut a = b.clone();
                        a[0] = shifted(a[0], class_edge_step(radius, *shape), i % 4 == 2);
                        a
                    }
                })
                .collect();
            let pair = pair_from(before, after);
            let js: Vec<DeviceId> = pair.device_ids().collect();
            assert_counts_match_linear_scan(&pair, &js, radius);
        }

        /// Index queries equal `StatePair::neighbors_both` on the palette,
        /// with movers whose before- and after-cells differ by 0 to 3
        /// cells on one axis, so every admitted and skipped key shape
        /// (diagonal, one column over, out of the after-ball) occurs, and
        /// movers at the edges of the still/moving classes: still devices
        /// moved exactly half a cell side, and jumps within a few units in
        /// the last place of the still-skipping bound.
        #[test]
        fn index_queries_equal_neighbors_both(
            rows in proptest::collection::vec(
                (proptest::collection::vec(0usize..PALETTE.len(), 3), 0usize..12, 0usize..3, 0usize..2),
                1..40),
            dim in 1usize..4,
            radius_pick in 0usize..5,
        ) {
            let radius = RADII[radius_pick];
            let mut before = Vec::new();
            let mut after = Vec::new();
            for (coords, shape, axis, up) in &rows {
                let b: Vec<f64> = coords[..dim].iter().map(|&c| PALETTE[c]).collect();
                let mut a = b.clone();
                let axis = axis % dim;
                let step = match shape {
                    0..=3 => *shape as f64 * radius,
                    _ => class_edge_step(radius, shape - 4),
                };
                a[axis] = shifted(a[axis], step, *up == 1);
                before.push(b);
                after.push(a);
            }
            let pair = pair_from(before, after);
            let index = TrajectoryIndex::build(&pair, radius);
            for j in pair.device_ids() {
                prop_assert_eq!(neighbors(&index, &pair, j, radius), linear(&pair, j, radius));
                prop_assert_eq!(index.vicinity(&pair, j, radius), linear(&pair, j, radius).len());
            }
        }
    }

    proptest! {
        /// `vicinities` equals the linear scan for every query on crowds
        /// that share keys: each drawn trajectory over the palette is held
        /// by up to four devices (identical, or nudged by a thousandth),
        /// which stay put, move anywhere, move half a cell side, or jump
        /// by the still-skipping bound give or take a unit in the last
        /// place per member (so one cell pair holds queries on both sides
        /// of the bound), and queries come rotated, some twice, plus one id
        /// outside the pair.
        #[test]
        fn vicinities_equal_neighbors_both_on_shared_keys(
            rows in proptest::collection::vec(
                (proptest::collection::vec(0usize..PALETTE.len(), 6), 1usize..5, 0usize..4),
                1..24),
            dim in 1usize..4,
            radius_pick in 0usize..5,
            rotate in 0usize..64,
            repeats in 0usize..6,
        ) {
            let radius = RADII[radius_pick];
            let mut before = Vec::new();
            let mut after = Vec::new();
            for (coords, crowd, moves) in &rows {
                let b: Vec<f64> = coords[..dim].iter().map(|&c| PALETTE[c]).collect();
                for i in 0..*crowd {
                    let a: Vec<f64> = match moves {
                        0 => b.clone(),
                        1 => coords[3..3 + dim].iter().map(|&c| PALETTE[c]).collect(),
                        _ => {
                            let mut a = b.clone();
                            let shape = if *moves == 2 { 0 } else { 3 + i };
                            a[0] = shifted(a[0], class_edge_step(radius, shape), coords[3] % 2 == 0);
                            a
                        }
                    };
                    let nudge = |p: &[f64]| -> Vec<f64> {
                        p.iter().map(|&x| (x - 0.001 * (i % 2) as f64).max(0.0)).collect()
                    };
                    before.push(nudge(&b));
                    after.push(nudge(&a));
                }
            }
            let pair = pair_from(before, after);
            let index = TrajectoryIndex::build(&pair, radius);
            let mut js: Vec<DeviceId> = pair.device_ids().collect();
            let by = rotate % js.len();
            js.rotate_left(by);
            js.extend_from_within(..repeats.min(js.len()));
            let outside = DeviceId(pair.len() as u32);
            js.push(outside);
            let got = index.vicinities(&pair, &js, radius);
            prop_assert_eq!(got.len(), js.len());
            for (&j, &count) in js.iter().zip(&got) {
                let want = if j == outside { 0 } else { pair.neighbors_both(j, radius).len() };
                prop_assert_eq!(count, want, "device {:?} at radius {}", j, radius);
                prop_assert_eq!(index.vicinity(&pair, j, radius), want);
            }
        }
    }

    /// The radii the property tests draw; at 0.07, cells of 1/14 put
    /// rounding errors on the still-skipping bound.
    const RADII: [f64; 5] = [0.05, 0.07, 0.1, 0.2, 0.3];

    /// Grid-aligned decimals: cell boundaries for the radii the property
    /// tests draw, the domain edges, and both ends of every gap where
    /// `lo − radius` rounds above a neighbour `radius` away.
    const PALETTE: [f64; 16] = [
        0.0, 0.02, 0.04, 0.07, 0.08, 0.1, 0.14, 0.2, 0.28, 0.3, 0.31, 0.5, 0.6, 0.7, 0.9, 1.0,
    ];

    proptest! {
        /// The index query is exactly equivalent to the linear scan, for
        /// any population and radius.
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
            let index = TrajectoryIndex::build(&pair, radius);
            for j in pair.device_ids() {
                prop_assert_eq!(neighbors(&index, &pair, j, radius), linear(&pair, j, radius));
            }
        }

        /// In the capped-resolution regime (dim 3, radii far below the
        /// 1/64 capped cell side) the incremental path must still agree
        /// with a fresh build — both when handed the full positional diff
        /// and when handed only the rows that cross a *capped* cell, the
        /// filter the monitor's sealing path applies.
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
            prop_assert!(TrajectoryIndex::build(&old, radius).geometry.cells_per_axis <= 64);
            // Full positional diff.
            assert_apply_matches_fresh(&old, &new, radius);
            // Capped-cell-crossing filter only (the monitor's batch).
            let mut index = TrajectoryIndex::build(&old, radius);
            let geometry = index.geometry;
            let crossed = |a: &[f64], b: &[f64]| geometry.cell_index(a) != geometry.cell_index(b);
            let staged: Vec<DeviceId> = old
                .device_ids()
                .filter(|&id| {
                    crossed(old.before().position(id), new.before().position(id))
                        || crossed(old.after().position(id), new.after().position(id))
                })
                .collect();
            index.apply_moves(&new, radius, &staged);
            prop_assert_eq!(index, TrajectoryIndex::build(&new, radius));
        }

        /// Applying a randomized batch of moves is equivalent to a fresh
        /// build over the moved-to state, for any population and radius —
        /// including devices crossing cell boundaries, and devices moving
        /// within their cell by just more or just less than half a cell
        /// side, which changes their class and nothing else.
        #[test]
        fn apply_moves_equals_fresh_build(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 1..30),
            moved in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 1..30),
            radius in 0.01..0.3f64,
            sides in proptest::collection::vec(0usize..2, 30),
        ) {
            let n = rows.len().min(moved.len());
            let before = rows[..n].to_vec();
            let old = pair_from(before.clone(), before.clone());
            // Every other device jumps to a fresh random position at both
            // instants; every third of the rest moves within its cell,
            // towards its farther wall, by half a cell side ± 1e-9; the
            // rest move to a random position at `k`.
            let half = CellGeometry::new(2, radius).half_side();
            let new_before: Vec<Vec<f64>> = before
                .iter()
                .enumerate()
                .map(|(i, row)| if i % 2 == 0 { moved[i].clone() } else { row.clone() })
                .collect();
            let new_after: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    if i % 2 == 0 || i % 3 != 0 {
                        return moved[i].clone();
                    }
                    let mut a = before[i].clone();
                    let step = if sides[i] == 1 { half + 1e-9 } else { half - 1e-9 };
                    let up = (a[0] / (2.0 * half)).fract() < 0.5;
                    a[0] = shifted(a[0], step, up);
                    a
                })
                .collect();
            let new = pair_from(new_before, new_after);
            assert_apply_matches_fresh(&old, &new, radius);
        }
    }
}
