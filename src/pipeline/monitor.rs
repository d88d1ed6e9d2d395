use super::error::MonitorError;
use super::events::{AnomalyEvent, EventDelta, EventTracker};
use super::ingest::{EpochState, StalenessPolicy};
use super::key::DeviceKey;
use super::persist;
use super::report::{DeviceVerdict, Report, ReportSummary, Stragglers};
use super::timings::Stopwatch;
use anomaly_core::{
    Analyzer, Characterization, ComponentPartition, DevicePrecompute, Params, TrajectoryTable,
    DEFAULT_ENUMERATION_BUDGET,
};
use anomaly_detectors::{DeviceDetector, StateReader, StateWriter};
use anomaly_qos::{
    CellGeometry, CellSet, DeviceId, ExpandedCells, GridUpdate, Norm, NormKind, QosSpace, Snapshot,
    StatePair, TrajectoryIndex,
};
use anomaly_store::{Dec, Enc};
// conformance: allow(C2, reason = "HashMap backs only the lookup-only key index; it is never iterated, so hash order cannot reach a report")
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Chebyshev cell rings the dirty-cell set is expanded by before cache
/// invalidation ([`CellGeometry::expand_cells`]). A device's verdict is a
/// function of trajectories and flagged-set membership within `4r` of it
/// (its own motions involve devices within the `2r` window, and the
/// Theorem 7 search inspects those neighbours' motions, reaching a further
/// `2r` out). Cells are
/// `2r` wide, so two positions at most `4r` apart differ by at most two
/// cell indices per axis — expanding every dirty cell by two rings
/// therefore covers every device whose verdict the change could touch.
const INVALIDATION_RINGS: usize = 2;

/// Produces the error-detection function of a joining device from its
/// stable key.
pub type DetectorFactory = Box<dyn Fn(DeviceKey) -> Box<dyn DeviceDetector>>;

/// Continuous, churn-tolerant monitor for a fleet of devices — the
/// deployable form of the paper's pipeline.
///
/// Each sampling instant `k` closes with one snapshot of the fleet: the
/// snapshot feeds each device's error-detection function (`a_k(j)`,
/// Section III-A), flagged devices form the abnormal set `A_k`, and the
/// local characterization of Section V runs over the `[k−1, k]` interval,
/// classifying each flagged device as isolated, massive, or unresolved.
///
/// Two front-ends feed the same engine:
///
/// * **Streaming** — [`ingest`](Monitor::ingest) /
///   [`ingest_many`](Monitor::ingest_many) accumulate per-device updates
///   (any order, duplicates last-write-wins) into an open epoch;
///   [`seal`](Monitor::seal) resolves devices that stayed silent through
///   the configured [`StalenessPolicy`], assembles the snapshot
///   delta-style from the previous one, and returns the epoch's
///   [`Report`].
/// * **Batch** — [`observe`](Monitor::observe) /
///   [`observe_rows`](Monitor::observe_rows) take one pre-assembled
///   snapshot; they are one-shot conveniences implemented as `ingest_many`
///   over every row followed by `seal`, so the paths are equivalent by
///   construction.
///
/// A `Monitor`
///
/// * never panics on misuse — every error path returns a typed
///   [`MonitorError`];
/// * supports **dynamic membership**: devices [`join`](Monitor::join) and
///   [`leave`](Monitor::leave) between instants under stable
///   [`DeviceKey`]s; the next seal moves the previous snapshot's rows to
///   the devices' new slots and characterizes the devices present at both
///   instants of the interval;
/// * accepts any [`DeviceDetector`] implementation per device, so fleets
///   mix EWMA, CUSUM, Kalman, or Holt-Winters models freely;
/// * keeps its trajectory index and snapshot buffers across instants and
///   reports per-instant wall-clock timings.
///
/// Construct one with [`MonitorBuilder`](super::MonitorBuilder).
///
/// # Example
///
/// ```
/// use anomaly_characterization::pipeline::{DeviceKey, MonitorBuilder};
/// use anomaly_core::AnomalyClass;
///
/// let mut monitor = MonitorBuilder::new().fleet(6).build()?;
/// // Healthy warm-up.
/// for _ in 0..30 {
///     let report = monitor.observe_rows(vec![vec![0.9]; 6])?;
///     assert!(report.is_quiet());
/// }
/// // A shared incident hits devices 0..5; device 5 fails alone.
/// let rows = vec![
///     vec![0.40], vec![0.41], vec![0.42], vec![0.43], vec![0.44], vec![0.10],
/// ];
/// let report = monitor.observe_rows(rows)?;
/// assert_eq!(report.verdicts().len(), 6);
/// assert_eq!(report.class_of(DeviceKey(5)), Some(AnomalyClass::Isolated));
/// assert!(report.has_network_event());
/// # Ok::<(), anomaly_characterization::pipeline::MonitorError>(())
/// ```
pub struct Monitor {
    params: Params,
    services: usize,
    norm: NormKind,
    factory: DetectorFactory,
    space: QosSpace,
    max_population: u64,
    /// Dense order: index `i` is the device with id `DeviceId(i)` now.
    /// Arc'd so a sealed [`Report`] can reference the epoch's key order
    /// (for its lazily materialized straggler list) without copying it;
    /// membership changes go through [`Arc::make_mut`], which clones only
    /// if such a report is still alive.
    keys: Arc<Vec<DeviceKey>>,
    /// Key → dense-slot map. Lookup-only: every read is a point query
    /// (`get`/`contains_key`) on the per-update hot path, never an
    /// iteration, so its hash order is unobservable in any report.
    // conformance: allow(C2, reason = "lookup-only key index on the per-update hot path; never iterated")
    index: HashMap<DeviceKey, u32>,
    detectors: Vec<Box<dyn DeviceDetector>>,
    /// Snapshot of the previous instant, if any.
    previous: Option<Snapshot>,
    /// Dense key order of `previous` — populated lazily, only when
    /// membership has churned since `previous` was taken (`None` means the
    /// current `keys` still describe it). An O(1) handle on the pre-churn
    /// `keys` Arc; the next seal realigns `previous` by it
    /// ([`Monitor::align_previous`]).
    previous_keys: Option<Arc<Vec<DeviceKey>>>,
    /// Vicinity index over the last characterized interval's devices,
    /// keyed by each device's `(before-cell, after-cell, moving)`, kept
    /// across instants and updated in place.
    trajectory_index: Option<TrajectoryIndex>,
    /// The cell layout of the index and of the cache's dirty cells: a
    /// function of the service count and the window alone, fixed for the
    /// monitor's lifetime, so cell ids stay comparable across rebuilds and
    /// exist before the first one.
    geometry: CellGeometry,
    /// Last detector verdict per dense slot: `(is_anomalous, score)`.
    /// Slot-aligned with `keys`; slots whose detector is not fed this
    /// epoch (carried or defaulted rows) keep — "freeze" — their last
    /// verdict, which is what makes detection O(fed) instead of O(n).
    flag_state: Vec<(bool, f64)>,
    /// The slots currently flagged (`flag_state[i].0 == true`), maintained
    /// incrementally at every verdict flip so assembling `A_k` is
    /// O(|A_k|), not an O(population) scan. Kept aligned with `flag_state`
    /// through the same swap-remove discipline on churn.
    flagged_slots: BTreeSet<u32>,
    /// Per-device characterization cache, keyed by dense id and cleared at
    /// every churn (dense ids shift); entries are invalidated when their
    /// cell falls inside the [`INVALIDATION_RINGS`]-expanded dirty-cell
    /// neighbourhood.
    char_cache: CharCache,
    /// Grid cells touched since the last characterized instant: cells of
    /// rows whose value changed, plus cells of devices whose detector flag
    /// flipped. A [`CellSet`] — one bit per cell of `geometry` plus the
    /// list of the cells set — so the two cells of every changed row
    /// insert in a bit test each, and a cell is listed once however often
    /// it is marked. Consumed (sorted for [`CellGeometry::expand_cells`], then
    /// cleared through its list and re-seeded with the sealing epoch's own
    /// changed cells) at every characterized instant.
    dirty_pending: CellSet,
    instant: u64,
    /// The open streaming epoch: pending per-device updates and
    /// staleness ages (slot-aligned with `keys`).
    pub(super) epoch: EpochState,
    /// How [`Monitor::seal`] resolves devices that did not report.
    pub(super) staleness: StalenessPolicy,
    /// Recycled snapshot buffer for delta-style sealing: holds the
    /// second-to-last snapshot `S_{k-2}`, which differs from `previous`
    /// (`S_{k-1}`) by exactly `spare_lag`. Ping-ponged with `previous`
    /// every epoch, so steady-state sealing never clones a snapshot.
    spare: Option<Snapshot>,
    /// Rows of `spare` that are stale with respect to `previous`.
    spare_lag: Vec<DeviceId>,
    /// Devices whose `(before-cell, after-cell, moving)` key may have
    /// changed since the trajectory index last described a pair: every row
    /// that crossed a cell or moved more than half a cell side in an epoch
    /// sealed since, including the last characterized epoch's own (their
    /// before-cell moves, and their move turns still, one instant later).
    /// The batch `TrajectoryIndex::apply_moves` re-keys at the next
    /// characterized instant.
    index_staged: Vec<DeviceId>,
    /// True when the trajectory index describes a full-fleet pair and
    /// `index_staged` has tracked every re-keyed row since — the precondition
    /// for re-keying the staged devices instead of rebuilding.
    index_synced: bool,
    /// How the current seal brought the trajectory index up to date;
    /// `None` when it characterized nothing.
    last_grid_update: Option<GridUpdate>,
    /// Correlates per-epoch verdicts into anomaly events and keeps the
    /// bounded report history.
    tracker: EventTracker,
}

/// One device's verdict and vicinity, cached or fresh, keyed by dense id
/// for the deterministic merge into the report.
struct VerdictRow {
    j: DeviceId,
    characterization: Characterization,
    vicinity: usize,
}

/// Cached characterization state of one flagged device.
///
/// An entry is valid as long as nothing inside the device's
/// `4r`-neighbourhood changed since it was computed: neither a trajectory
/// (a row value change — including the computing epoch's own movers, whose
/// trajectories turn stationary one epoch later, hence the dirty-set echo)
/// nor the flagged set (a detector flag flip). Both are tracked as grid
/// cells in `dirty_pending` and tested against `cell` after ring
/// expansion.
struct CacheEntry {
    /// Cell of the device's `after` position when the entry was computed
    /// — the anchor the dirty-neighbourhood invalidation tests.
    cell: u32,
    /// The device's precompute slice, re-merged into the interval's
    /// analyzer whenever other devices need fresh computation.
    precompute: DevicePrecompute,
    /// The cached verdict.
    characterization: Characterization,
    /// The cached vicinity count.
    vicinity: usize,
}

/// The characterization cache: one [`CacheEntry`] per flagged device, plus
/// the component partition of the last fully cached seal.
///
/// The partition is a function of the abnormal set and its devices' cached
/// dense slices alone, so a seal that serves every verdict from the cache
/// can reuse the previous one when neither changed. Invalidation is
/// structural: every mutator that changes an entry drops the memo, so a
/// memo that exists was built from the entries now in the cache, and the
/// abnormal set is compared directly.
#[derive(Default)]
struct CharCache {
    entries: BTreeMap<u32, CacheEntry>,
    /// The abnormal set a partition was built for, and that partition.
    partition: Option<(Vec<DeviceId>, Arc<ComponentPartition>)>,
}

impl CharCache {
    fn get(&self, j: u32) -> Option<&CacheEntry> {
        self.entries.get(&j)
    }

    fn insert(&mut self, j: u32, entry: CacheEntry) {
        self.partition = None;
        self.entries.insert(j, entry);
    }

    /// Triage: evicts every entry anchored in one of the `doomed` cells.
    fn evict_cells(&mut self, doomed: &ExpandedCells<'_>) {
        let before = self.entries.len();
        self.entries.retain(|_, entry| !doomed.contains(entry.cell));
        if self.entries.len() != before {
            self.partition = None;
        }
    }

    fn clear(&mut self) {
        self.partition = None;
        self.entries.clear();
    }

    /// The component partition of `abnormal` from its cached dense slices,
    /// every device of which has an entry: the memo when it was built for
    /// the same abnormal set, else a rebuild that becomes the memo.
    fn partition_of(&mut self, abnormal: &[DeviceId]) -> Arc<ComponentPartition> {
        if let Some((ids, partition)) = &self.partition {
            if ids.as_slice() == abnormal {
                return Arc::clone(partition);
            }
        }
        let entries = &self.entries;
        let partition =
            Arc::new(ComponentPartition::from_slices(abnormal.iter().filter_map(
                |&j| entries.get(&j.0).map(|entry| &entry.precompute),
            )));
        self.partition = Some((abnormal.to_vec(), Arc::clone(&partition)));
        partition
    }
}

/// The per-epoch change summary [`Monitor::seal`] hands to
/// [`Monitor::advance`]: which detectors receive a fresh observation,
/// which rows actually changed value, and the cells and index keys those
/// rows moved — all filled by the one pass that assembles the snapshot.
/// This is what makes the back half of `seal` scale with the churn instead
/// of the population.
pub(super) struct SealDelta {
    /// Dense slots with a fresh update this epoch, ascending; the detectors
    /// of every other slot stay frozen.
    pub(super) fed: Vec<u32>,
    /// Rows whose value changed this epoch, and every unplaced slot,
    /// ascending.
    pub(super) changed: Vec<DeviceId>,
    /// The before-cell and the after-cell of every changed row, in pairs
    /// (empty without a previous snapshot): the seed of the cache's dirty
    /// set, and the echo that re-dirties those rows next epoch.
    pub(super) cells: Vec<u32>,
    /// The changed rows whose trajectory-index key moves: their cell
    /// changed, or their move is long enough to file them as moving.
    pub(super) rekeyed: Vec<DeviceId>,
    /// Slots with no row in the previous snapshot, ascending
    /// ([`Monitor::align_previous`]): kept out of `A_k` and of the
    /// trajectory index this seal.
    pub(super) unplaced: Vec<DeviceId>,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("population", &self.keys.len())
            .field("services", &self.services)
            .field("instant", &self.instant)
            .field("params", &self.params)
            .field("staleness", &self.staleness)
            .field("pending_updates", &self.epoch.updated())
            .finish()
    }
}

impl Monitor {
    /// Called by the builder; all arguments pre-validated.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn from_parts(
        params: Params,
        services: usize,
        norm: NormKind,
        factory: DetectorFactory,
        space: QosSpace,
        capacity: usize,
        max_population: u64,
        staleness: StalenessPolicy,
        epoch_start: u64,
        history: usize,
        debounce: u64,
    ) -> Self {
        let geometry = CellGeometry::new(services, params.window().max(1e-6));
        Monitor {
            params,
            services,
            norm,
            factory,
            space,
            max_population,
            keys: Arc::new(Vec::with_capacity(capacity)),
            // conformance: allow(C2, reason = "lookup-only key index on the per-update hot path; never iterated")
            index: HashMap::with_capacity(capacity),
            detectors: Vec::with_capacity(capacity),
            previous: None,
            previous_keys: None,
            trajectory_index: None,
            geometry,
            flag_state: Vec::with_capacity(capacity),
            flagged_slots: BTreeSet::new(),
            char_cache: CharCache::default(),
            dirty_pending: CellSet::new(&geometry),
            instant: epoch_start,
            epoch: EpochState::with_capacity(capacity, services),
            staleness,
            spare: None,
            spare_lag: Vec::new(),
            index_staged: Vec::new(),
            index_synced: false,
            last_grid_update: None,
            tracker: EventTracker::new(history, debounce),
        }
    }

    /// How the most recent seal brought the trajectory index up to date:
    /// [`GridUpdate::Incremental`] with the number of devices whose
    /// `(before-cell, after-cell, moving)` key changed, or [`GridUpdate::Rebuilt`]
    /// (the first characterized seal, the first after a restore or a
    /// reset, the first after membership churn, and the first after a
    /// seal whose joiners the index left out). `None` when that seal
    /// characterized nothing, so a quiet seal never re-reports an earlier
    /// update. A steady fleet sealing small epochs must report
    /// `Incremental` here — `tests/ingest_equivalence.rs` pins that down.
    pub fn last_grid_update(&self) -> Option<GridUpdate> {
        self.last_grid_update
    }

    /// Number of monitored devices.
    pub fn population(&self) -> usize {
        self.keys.len()
    }

    /// Services per device (the QoS space dimension `d`).
    pub fn services(&self) -> usize {
        self.services
    }

    /// The characterization parameters in force.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The norm used for report displacement magnitudes.
    pub fn norm(&self) -> NormKind {
        self.norm
    }

    /// The fleet-size bound.
    pub fn max_population(&self) -> u64 {
        self.max_population
    }

    /// The next sampling instant (epochs sealed so far, offset by the
    /// builder's [`epoch`](super::MonitorBuilder::epoch) start).
    pub fn instant(&self) -> u64 {
        self.instant
    }

    /// Stable keys in dense order: `keys()[i]` is `DeviceId(i)` at the next
    /// observation. The order shifts under churn — [`Monitor::leave`] moves
    /// the last device into the vacated slot.
    pub fn keys(&self) -> &[DeviceKey] {
        &self.keys
    }

    /// True when `key` is currently in the fleet.
    pub fn contains(&self, key: DeviceKey) -> bool {
        self.index.contains_key(&key)
    }

    /// Current dense id of `key`, if present.
    pub fn id_of(&self, key: DeviceKey) -> Option<DeviceId> {
        self.index.get(&key).map(|&i| DeviceId(i))
    }

    /// Stable key of the device currently at dense id `id`.
    pub fn key_of(&self, id: DeviceId) -> Option<DeviceKey> {
        self.keys.get(id.index()).copied()
    }

    /// The last sealed snapshot, if any.
    pub fn last_snapshot(&self) -> Option<&Snapshot> {
        self.previous.as_ref()
    }

    /// The anomaly event tracker: open events, recently closed ones, and
    /// lifetime counters. Updated at every seal; the per-epoch change feed
    /// is [`Report::event_deltas`].
    pub fn events(&self) -> &EventTracker {
        &self.tracker
    }

    /// Summaries of the most recently sealed epochs, oldest first — the
    /// bounded ring configured by
    /// [`MonitorBuilder::history`](super::MonitorBuilder::history).
    pub fn history(&self) -> impl Iterator<Item = &ReportSummary> {
        self.tracker.history()
    }

    /// Current dense slot of `key` (internal form of [`Monitor::id_of`]).
    pub(super) fn slot_of(&self, key: DeviceKey) -> Option<usize> {
        self.index.get(&key).map(|&i| i as usize)
    }

    /// The stable key at dense index `i`, as a typed invariant error
    /// instead of a panicking index (conformance C1): every `i` handed to
    /// this comes from a structure maintained slot-aligned with `keys`, so
    /// a miss is a bug in this crate, not misuse.
    pub(super) fn key_at(&self, i: u32) -> Result<DeviceKey, MonitorError> {
        self.keys
            .get(i as usize)
            .copied()
            .ok_or(MonitorError::internal("dense id out of range for fleet"))
    }

    /// The QoS space rows are validated against.
    pub(super) fn space(&self) -> &QosSpace {
        &self.space
    }

    /// The cell layout of the trajectory index and of the dirty cells.
    pub(super) fn geometry(&self) -> CellGeometry {
        self.geometry
    }

    /// The previous sealed snapshot (internal alias used by the seal
    /// machinery in `ingest.rs`).
    pub(super) fn previous_snapshot(&self) -> Option<&Snapshot> {
        self.previous.as_ref()
    }

    /// Shared handle on the current dense key order, for reports that
    /// reference it lazily (O(1); see the `keys` field).
    pub(super) fn key_order_handle(&self) -> Arc<Vec<DeviceKey>> {
        Arc::clone(&self.keys)
    }

    /// Takes the recycled snapshot buffer when it matches the required
    /// shape.
    pub(super) fn take_spare(&mut self, population: usize) -> Option<Snapshot> {
        match &self.spare {
            Some(s) if s.len() == population && s.dim() == self.services => self.spare.take(),
            _ => None,
        }
    }

    /// Takes the list of rows by which the spare buffer lags `previous`.
    pub(super) fn take_spare_lag(&mut self) -> Vec<DeviceId> {
        std::mem::take(&mut self.spare_lag)
    }

    /// Records which rows the (new) spare buffer is missing.
    pub(super) fn set_spare_lag(&mut self, changed: Vec<DeviceId>) {
        self.spare_lag = changed;
    }

    /// Drops the recycled buffer and every staged index move — called
    /// when membership or shape changes make them meaningless.
    pub(super) fn invalidate_spare(&mut self) {
        self.spare = None;
        self.spare_lag.clear();
        self.index_staged.clear();
        self.index_synced = false;
    }

    /// Adds this epoch's re-keyed rows to the devices the trajectory index
    /// must re-key at its next incremental update. Nothing is staged while
    /// the index is out of sync: its next update rebuilds it anyway.
    fn stage_index_moves(&mut self, rekeyed: &[DeviceId]) {
        if !self.index_synced {
            return;
        }
        self.index_staged.extend_from_slice(rekeyed);
        // Quiet streaks stage the same devices again and again; keep the
        // batch no larger than the fleet.
        if self.index_staged.len() > self.keys.len() {
            self.index_staged.sort_unstable();
            self.index_staged.dedup();
        }
    }

    /// Assembles the interval's characterization engine from the freshly
    /// computed precompute slices plus the stored slices of every
    /// cache-served device. Together the parts cover the abnormal set
    /// exactly, whatever mix produced them.
    fn merged_analyzer<'t>(
        &self,
        table: &'t TrajectoryTable,
        mut parts: Vec<(DeviceId, DevicePrecompute)>,
    ) -> Analyzer<'t> {
        for &j in table.ids() {
            if let Some(entry) = self.char_cache.get(j.0) {
                parts.push((j, entry.precompute.clone()));
            }
        }
        Analyzer::from_parts(table, self.params, parts)
    }

    /// Enrolls a device, building its detector with the configured factory.
    /// Returns the device's dense id at the next observation.
    ///
    /// A device joining between instants `k-1` and `k` has no position at
    /// `k-1`: it warms up at `k` (reported via [`Report::warming`] if
    /// flagged) and is characterized from `k+1` on. Until its first update
    /// it also has nothing to carry forward, so under
    /// [`StalenessPolicy::Reject`] and
    /// [`StalenessPolicy::CarryForward`] it must report in the epoch that
    /// seals next.
    ///
    /// # Errors
    ///
    /// [`MonitorError::DuplicateDevice`], [`MonitorError::FleetTooLarge`],
    /// or [`MonitorError::ServiceMismatch`] (factory produced a detector of
    /// the wrong width).
    pub fn join(&mut self, key: impl Into<DeviceKey>) -> Result<DeviceId, MonitorError> {
        let key = key.into();
        let detector = (self.factory)(key);
        self.join_with(key, detector)
    }

    /// Enrolls a device with an explicitly supplied detector, bypassing the
    /// factory — e.g. to migrate a warmed-up detector between monitors.
    ///
    /// # Errors
    ///
    /// Same as [`Monitor::join`].
    pub fn join_with(
        &mut self,
        key: impl Into<DeviceKey>,
        detector: Box<dyn DeviceDetector>,
    ) -> Result<DeviceId, MonitorError> {
        let key = key.into();
        if self.index.contains_key(&key) {
            return Err(MonitorError::DuplicateDevice { key });
        }
        let population = self.keys.len() as u64 + 1;
        if population > self.max_population {
            return Err(MonitorError::FleetTooLarge {
                population,
                bound: self.max_population,
            });
        }
        if detector.services() != self.services {
            return Err(MonitorError::ServiceMismatch {
                expected: self.services,
                actual: detector.services(),
            });
        }
        self.note_churn();
        let id = self.keys.len() as u32;
        Arc::make_mut(&mut self.keys).push(key);
        self.detectors.push(detector);
        self.flag_state.push((false, 0.0));
        self.epoch.push_slot();
        self.index.insert(key, id);
        Ok(DeviceId(id))
    }

    /// Removes a device from the fleet, returning its detector (still
    /// warmed up, in case the device re-joins later). Any update it staged
    /// in the open epoch is dropped with it.
    ///
    /// The last device in dense order moves into the vacated slot, so
    /// dense ids of other devices may change; stable keys never do.
    ///
    /// # Errors
    ///
    /// [`MonitorError::UnknownDevice`] when `key` is not in the fleet.
    pub fn leave(
        &mut self,
        key: impl Into<DeviceKey>,
    ) -> Result<Box<dyn DeviceDetector>, MonitorError> {
        let key = key.into();
        let Some(&slot) = self.index.get(&key) else {
            return Err(MonitorError::UnknownDevice { key });
        };
        self.note_churn();
        let slot = slot as usize;
        // Mirror the swap-remove in the flagged-slot set: the departing
        // slot's entry goes, and the last slot (about to move into the
        // vacated position) is re-keyed.
        let last = self.keys.len().saturating_sub(1) as u32;
        self.flagged_slots.remove(&(slot as u32));
        if slot as u32 != last && self.flagged_slots.remove(&last) {
            self.flagged_slots.insert(slot as u32);
        }
        self.index.remove(&key);
        Arc::make_mut(&mut self.keys).swap_remove(slot);
        let detector = self.detectors.swap_remove(slot);
        self.flag_state.swap_remove(slot);
        self.epoch.remove_slot(slot);
        if let Some(&moved) = self.keys.get(slot) {
            self.index.insert(moved, slot as u32);
        }
        Ok(detector)
    }

    /// Where the previous snapshot's rows go in the current dense order,
    /// read off `previous_keys` — the O(1) record of a churn since the
    /// previous seal — and the key index in one pass. Returns, per previous
    /// row, its device's current slot (`None`: it left), or `None` when
    /// membership did not change; and the *unplaced* slots, ascending: the
    /// devices with no previous row (joiners), or every slot when there is
    /// no previous snapshot. A device that left and re-joined under the
    /// same key keeps its row. Read-only, so a seal that fails after it
    /// leaves the previous snapshot as it was.
    #[allow(clippy::type_complexity)]
    pub(super) fn align_previous(&self) -> (Option<Vec<Option<u32>>>, Vec<DeviceId>) {
        let n = self.keys.len();
        let previous_keys = match (&self.previous, &self.previous_keys) {
            (None, _) => return (None, (0..n as u32).map(DeviceId).collect()),
            (Some(_), None) => return (None, Vec::new()),
            (Some(_), Some(previous_keys)) => previous_keys,
        };
        let mut placed = vec![false; n];
        let targets = previous_keys
            .iter()
            .map(|key| {
                let &slot = self.index.get(key)?;
                *placed.get_mut(slot as usize)? = true;
                Some(slot)
            })
            .collect();
        let unplaced = (0..n as u32)
            .filter(|&slot| placed.get(slot as usize) == Some(&false))
            .map(DeviceId)
            .collect();
        (Some(targets), unplaced)
    }

    /// Moves each row of the previous snapshot to its device's current
    /// slot (`targets`, from [`Monitor::align_previous`]) and gives every
    /// unplaced slot the origin as a placeholder row. The placeholder is
    /// never read as a position: an unplaced slot stays out of `A_k` and of
    /// the trajectory index for the seal, and its row is always written.
    pub(super) fn realign_previous(
        &mut self,
        targets: Vec<Option<u32>>,
    ) -> Result<(), MonitorError> {
        let previous = self.previous.take().ok_or(MonitorError::internal(
            "realignment requires a previous snapshot",
        ))?;
        let origin = vec![0.0; self.keys.len() * self.services];
        let mut realigned = Snapshot::from_flat(&self.space, origin)?;
        for ((_, row), target) in previous.iter().zip(targets) {
            if let Some(slot) = target {
                realigned.set_row_unchecked(DeviceId(slot), row)?;
            }
        }
        self.previous = Some(realigned);
        self.previous_keys = None;
        Ok(())
    }

    /// Remembers the previous snapshot's key order before the first
    /// membership change since it was taken, and invalidates every
    /// structure keyed by the old dense order (recycled buffer, staged
    /// grid moves, characterization cache).
    fn note_churn(&mut self) {
        if self.previous.is_some() && self.previous_keys.is_none() {
            self.previous_keys = Some(self.keys.clone());
        }
        self.invalidate_spare();
        // Dense ids shift under churn (swap-remove), so both the
        // id-keyed cache and its cell-level dirty tracking are void.
        self.char_cache.clear();
        self.dirty_pending.clear();
    }

    /// Resets every detector, forgets the previous snapshot, and discards
    /// the open epoch together with its staleness history (e.g. after a
    /// maintenance window where QoS levels legitimately changed).
    ///
    /// Still-open anomaly events are closed with synthetic
    /// [`EventDeltaKind::Closed`](super::EventDeltaKind::Closed) deltas,
    /// returned in ascending id order — feed them to any consumer of
    /// [`Report::event_deltas`](super::Report::event_deltas) so it does
    /// not leak open alerts across the reset. Event ids and lifetime
    /// totals survive; ids are never reused.
    pub fn reset(&mut self) -> Vec<EventDelta> {
        for det in &mut self.detectors {
            det.reset();
        }
        self.flag_state.fill((false, 0.0));
        self.flagged_slots.clear();
        self.char_cache.clear();
        self.dirty_pending.clear();
        self.previous = None;
        self.previous_keys = None;
        self.epoch.reset();
        self.invalidate_spare();
        self.last_grid_update = None;
        self.tracker.reset()
    }

    /// Convenience form of [`Monitor::observe`]: validates raw coordinate
    /// rows (one row per device, in dense [`Monitor::keys`] order) and
    /// observes the resulting snapshot.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Qos`] for invalid coordinates, plus everything
    /// [`Monitor::observe`] returns.
    pub fn observe_rows(&mut self, rows: Vec<Vec<f64>>) -> Result<Report, MonitorError> {
        let snapshot = Snapshot::from_rows(&self.space, rows)?;
        self.observe(snapshot)
    }

    /// One-shot batch form of the streaming API: ingests every row of a
    /// pre-assembled snapshot of instant `k` — one position per device, in
    /// dense [`Monitor::keys`] order — seals the epoch, and returns the
    /// interval's [`Report`].
    ///
    /// Implemented as [`ingest_many`](Monitor::ingest_many) over every row
    /// followed by [`seal`](Monitor::seal), so the batch and streaming
    /// paths produce identical reports by construction. Because every
    /// device receives an update, the [`StalenessPolicy`] never engages
    /// and any updates already staged in the open epoch are overwritten
    /// (last write wins) and sealed along.
    ///
    /// The first snapshot ever (and the first after [`Monitor::reset`])
    /// only warms the detectors: there is no `[k−1, k]` interval yet, so
    /// the report carries no verdicts. When membership churned since the
    /// previous snapshot, the seal first moves each previous row to its
    /// device's new slot; characterization covers the devices present at
    /// both `k−1` and `k`, and fresh joiners that flag immediately are
    /// listed in [`Report::warming`].
    ///
    /// # Errors
    ///
    /// * [`MonitorError::ServiceMismatch`] — snapshot dimension differs
    ///   from the monitor's service count;
    /// * [`MonitorError::PopulationMismatch`] — snapshot covers a different
    ///   number of devices than the fleet.
    ///
    /// Nothing is staged on error.
    pub fn observe(&mut self, snapshot: Snapshot) -> Result<Report, MonitorError> {
        if snapshot.dim() != self.services {
            return Err(MonitorError::ServiceMismatch {
                expected: self.services,
                actual: snapshot.dim(),
            });
        }
        if snapshot.len() != self.keys.len() {
            return Err(MonitorError::PopulationMismatch {
                expected: self.keys.len(),
                actual: snapshot.len(),
            });
        }
        // Rows were validated by the snapshot's constructor: stage them
        // directly, without the per-row re-validation of `ingest`.
        for (id, row) in snapshot.iter() {
            self.epoch.stage(id.index(), row)?;
        }
        self.seal()
    }

    /// Shared back half of [`Monitor::seal`]: feeds the detectors of the
    /// slots that actually received an update, runs the characterization
    /// over `[k−1, k]`, and rotates the snapshot buffers (`previous` ←
    /// sealed snapshot, `spare` ← old previous, when shapes allow).
    ///
    /// Detection is O(`delta.fed`), not O(population): a slot whose row
    /// was carried forward or defaulted keeps its **frozen** detector
    /// state and last verdict (see the [`StalenessPolicy`] docs for why
    /// freezing, not re-feeding, is the pinned semantics). Flag flips and
    /// the epoch's changed cells feed the characterization cache's dirty
    /// set.
    pub(super) fn advance(
        &mut self,
        current: Snapshot,
        stragglers: Stragglers,
        delta: &SealDelta,
    ) -> Result<Report, MonitorError> {
        self.last_grid_update = None;
        let detection_start = Stopwatch::start();
        for &slot in &delta.fed {
            let i = slot as usize;
            let point = current.try_position(DeviceId(slot))?;
            let verdict = self
                .detectors
                .get_mut(i)
                .ok_or(MonitorError::internal("fed slot out of detector range"))?
                .observe_vector(point);
            let flagged_now = verdict.is_anomalous();
            let was_flagged = self
                .flag_state
                .get(i)
                .map(|s| s.0)
                .ok_or(MonitorError::internal("fed slot out of flag-state range"))?;
            if flagged_now != was_flagged {
                if flagged_now {
                    self.flagged_slots.insert(slot);
                } else {
                    self.flagged_slots.remove(&slot);
                }
                // A_k membership changed at this device's position: every
                // cached verdict in its neighbourhood is suspect.
                if self.trajectory_index.is_some() {
                    self.dirty_pending.insert(self.geometry.cell_index(point));
                }
            }
            if let Some(state) = self.flag_state.get_mut(i) {
                *state = (flagged_now, verdict.score());
            }
        }
        // A_k: every slot whose (possibly frozen) verdict is anomalous,
        // with its score — read off the incrementally maintained flagged
        // set (ascending, so the order matches a dense scan), O(|A_k|).
        let mut flagged: Vec<(u32, f64)> = Vec::with_capacity(self.flagged_slots.len());
        for &i in &self.flagged_slots {
            let score =
                self.flag_state
                    .get(i as usize)
                    .map(|s| s.1)
                    .ok_or(MonitorError::internal(
                        "flagged slot out of flag-state range",
                    ))?;
            flagged.push((i, score));
        }
        let detection = detection_start.elapsed();
        // The changed rows' cells matter only to a cache, which exists once
        // an index does, or to this epoch's echo if it characterizes.
        if self.trajectory_index.is_some() || !flagged.is_empty() {
            self.dirty_pending.extend(delta.cells.iter().copied());
        }
        // The sealing epoch's own movers change their after-cell or their
        // class now.
        self.stage_index_moves(&delta.rekeyed);

        let instant = self.instant;
        self.instant += 1;

        // Characterization over the devices present at both k-1 and k.
        let mut verdicts: Vec<DeviceVerdict> = Vec::new();
        let mut warming: Vec<DeviceKey> = Vec::new();
        let mut characterization = Duration::ZERO;
        let (new_previous, new_spare) = match self.previous.take() {
            Some(previous) if !flagged.is_empty() => {
                let char_start = Stopwatch::start();
                let rotated = self.characterize_interval(
                    previous,
                    current,
                    &flagged,
                    &delta.cells,
                    &delta.unplaced,
                    &mut verdicts,
                    &mut warming,
                )?;
                characterization = char_start.elapsed();
                // Once the index has absorbed this epoch's movers, their
                // before-cell moves, and their move turns still, at the next
                // instant: stage them again.
                if self.last_grid_update.is_some() {
                    self.stage_index_moves(&delta.rekeyed);
                }
                rotated
            }
            Some(previous) => (current, Some(previous)),
            None => {
                // Very first interval: every flagged device is warming.
                for &(i, _) in &flagged {
                    warming.push(self.key_at(i)?);
                }
                (current, None)
            }
        };

        self.previous = Some(new_previous);
        if let Some(spare) = new_spare {
            self.spare = Some(spare);
        }
        let mut report = Report {
            instant,
            population: self.keys.len(),
            verdicts,
            warming,
            stragglers,
            detection,
            characterization,
            event_deltas: Vec::new(),
            events_open: 0,
        };
        // Fold the epoch into the event tracker and record the summary in
        // the history ring. The tracker consumes only the (already
        // deterministic) report, so events inherit its determinism.
        report.event_deltas = self.tracker.observe(&report);
        report.events_open = self.tracker.open().len();
        self.tracker.push_history(report.summary());
        Ok(report)
    }

    /// Pairs the previous and current snapshots, runs the local
    /// characterization on the flagged devices present at both instants —
    /// serving devices whose `4r`-neighbourhood is untouched straight from
    /// the cache — and enriches verdicts with displacement and vicinity
    /// context. Flagged `unplaced` devices joined since `k−1` and are
    /// listed as warming. Returns the rotated snapshot buffers:
    /// `(new previous, recyclable spare)`, both full snapshots, without a
    /// single clone.
    ///
    /// `echo_cells` are the sealing epoch's own changed cells; they re-seed
    /// the dirty set after it is consumed, because this epoch's movers have
    /// a different (stationary) trajectory at the next instant even if they
    /// stay silent from here on.
    #[allow(clippy::too_many_arguments)]
    fn characterize_interval(
        &mut self,
        previous: Snapshot,
        current: Snapshot,
        flagged: &[(u32, f64)],
        echo_cells: &[u32],
        unplaced: &[DeviceId],
        verdicts: &mut Vec<DeviceVerdict>,
        warming: &mut Vec<DeviceKey>,
    ) -> Result<(Snapshot, Option<Snapshot>), MonitorError> {
        // A_k, plus each flagged device's score (only flagged devices are
        // touched: O(|A_k|), not O(n)). Both lists ascend, so one cursor
        // walks `unplaced`.
        let mut abnormal: Vec<DeviceId> = Vec::new();
        let mut scores: BTreeMap<u32, f64> = BTreeMap::new();
        let mut joined = unplaced.iter().copied().peekable();
        for &(i, score) in flagged {
            let j = DeviceId(i);
            while joined.next_if(|&u| u < j).is_some() {}
            if joined.next_if_eq(&j).is_some() {
                // Flagged but joined after k-1: no interval yet.
                warming.push(self.key_at(i)?);
            } else {
                abnormal.push(j);
                scores.insert(i, score);
            }
        }
        if abnormal.is_empty() {
            return Ok((current, Some(previous)));
        }
        let pair = StatePair::new(previous, current)?;

        // Trajectory index over every device present at both instants (not
        // only A_k), kept across instants. While it is in sync, the devices
        // whose key may have changed since its last update are re-keyed
        // (`apply_moves` — O(staged devices)); otherwise it is rebuilt in
        // one sorted pass, without the joiners, and stays out of sync until
        // a rebuild files them.
        let window = self.params.window();
        let cell_side = window.max(1e-6);
        self.last_grid_update = Some(match &mut self.trajectory_index {
            Some(index) if self.index_synced => {
                index.apply_moves(&pair, cell_side, &self.index_staged)
            }
            index => {
                *index = Some(TrajectoryIndex::build_except(&pair, cell_side, unplaced));
                GridUpdate::Rebuilt
            }
        });
        self.index_staged.clear();
        self.index_synced = unplaced.is_empty();

        // Cache triage. Consume the dirty cells accumulated since the last
        // characterized instant, expand them to the 4r (= 2 cell rings)
        // dependency neighbourhood of Definition 1's locality bound, and
        // drop every cached verdict anchored inside it; what remains is
        // provably unaffected and served without recomputation.
        if !self.dirty_pending.is_empty() {
            let doomed = self
                .geometry
                .expand_cells(self.dirty_pending.sorted(), INVALIDATION_RINGS);
            self.char_cache.evict_cells(&doomed);
            self.dirty_pending.clear();
        }
        // Echo: rows that changed this epoch change trajectory again next
        // epoch (moving → stationary), so their cells go straight back into
        // the dirty set for the next invalidation round.
        self.dirty_pending.extend(echo_cells.iter().copied());
        let mut rows: Vec<VerdictRow> = Vec::with_capacity(abnormal.len());
        let mut fresh: Vec<DeviceId> = Vec::new();
        for &j in &abnormal {
            match self.char_cache.get(j.0) {
                Some(entry) => rows.push(VerdictRow {
                    j,
                    characterization: entry.characterization,
                    vicinity: entry.vicinity,
                }),
                None => fresh.push(j),
            }
        }

        // Fresh characterization: per-device motion precompute for the
        // fresh devices, merged with the cached slices into one engine,
        // then verdicts and vicinities for the fresh devices only. The
        // merge places each slice in its device's table slot, so the
        // report is identical to a full recompute.
        let partition = if fresh.is_empty() {
            // Full cache hit: no trajectory table, no analyzer. The
            // characterization cost of the epoch is the index update plus
            // one map lookup per flagged device. The spatial partition
            // comes from the cached dense slices — component ids are
            // epoch-local ranks, so a cached id could go stale when an
            // unrelated component vanishes, but the dense sets themselves
            // are exactly as valid as the cached verdicts — and is reused
            // while neither they nor the abnormal set change.
            self.char_cache.partition_of(&abnormal)
        } else {
            let table = TrajectoryTable::from_state_pair(&pair, &abnormal);
            let fresh_parts = Analyzer::precompute_shard(
                &table,
                &self.params,
                &fresh,
                DEFAULT_ENUMERATION_BUDGET,
            );
            // Slices share their motions behind an `Arc`: keeping the
            // fresh ones for the cache copies ids, not device sets.
            let fresh_pre = fresh_parts.clone();
            // The merged analyzer covers the whole abnormal set (fresh
            // slices plus every cached one), so its partition is the
            // epoch's global one.
            let analyzer = self.merged_analyzer(&table, fresh_parts);
            let index = self
                .trajectory_index
                .as_ref()
                .ok_or(MonitorError::internal(
                    "trajectory index missing after update",
                ))?;
            // One batch decides twins once; one index walk per key serves
            // every fresh device's vicinity.
            let verdicts = analyzer.characterize_full_batch(&fresh);
            let vicinities = index.vicinities(&pair, &fresh, window);
            let mut fresh_pre = fresh_pre.into_iter();
            for ((&j, characterization), vicinity) in fresh.iter().zip(verdicts).zip(vicinities) {
                // Cache the fresh verdict with its precompute slice, for
                // future merges.
                let Some((_, precompute)) = fresh_pre.next().filter(|(id, _)| *id == j) else {
                    return Err(MonitorError::internal(
                        "fresh device missing its precompute slice",
                    ));
                };
                let cell = self.geometry.cell_index(pair.after().position(j));
                self.char_cache.insert(
                    j.0,
                    CacheEntry {
                        cell,
                        precompute,
                        characterization,
                        vicinity,
                    },
                );
                rows.push(VerdictRow {
                    j,
                    characterization,
                    vicinity,
                });
            }
            Arc::new(analyzer.component_partition())
        };

        // Deterministic merge: id order is the report's verdict order,
        // whatever mix of cached and fresh rows produced them.
        rows.sort_unstable_by_key(|r| r.j);
        for row in rows {
            let j = row.j;
            let displacement = self
                .norm
                .distance(pair.before().position(j), pair.after().position(j));
            verdicts.push(DeviceVerdict {
                key: self.key_at(j.0)?,
                id: j,
                characterization: row.characterization,
                score: scores.get(&j.0).copied().unwrap_or(0.0),
                displacement,
                vicinity: row.vicinity,
                component: partition.component_of(j),
            });
        }

        // Rotate the buffers: after → new previous, before → recyclable
        // spare.
        let (before, after) = pair.into_parts();
        Ok((after, Some(before)))
    }
}

/// Checkpoint body codec: the resumable state behind the configuration
/// header `persist` writes. Lives on `Monitor` because only this module
/// sees the private fields; the framing, header reconciliation, and the
/// public [`Monitor::checkpoint`]/[`Monitor::restore`] entry points live
/// in [`super::persist`].
impl Monitor {
    /// Serializes everything a fresh monitor built from the same
    /// configuration needs to continue the report stream byte-identically:
    /// fleet keys, per-device detector state, frozen verdicts, the last
    /// sealed snapshot (and its key order, if membership churned since),
    /// the open epoch with its staleness ages, the event tracker, and the
    /// clock. Derived structures — trajectory index,
    /// characterization cache, recycled snapshot buffers — are
    /// deliberately absent: they are rebuilt lazily, and the determinism
    /// suites prove reports are identical with or without them.
    pub(super) fn encode_state(&self, enc: &mut Enc) {
        let keys: Vec<u64> = self.keys.iter().map(|k| k.0).collect();
        enc.u64s(&keys);
        for det in &self.detectors {
            let mut writer = StateWriter::new();
            det.save(&mut writer);
            enc.u64s(&writer.into_words());
        }
        enc.usize(self.flag_state.len());
        for &(flagged, score) in &self.flag_state {
            enc.bool(flagged);
            enc.f64(score);
        }
        match &self.previous {
            Some(prev) => {
                enc.bool(true);
                enc.usize(prev.len());
                for (_, row) in prev.iter() {
                    enc.f64s(row);
                }
            }
            None => enc.bool(false),
        }
        match &self.previous_keys {
            Some(prev_keys) => {
                enc.bool(true);
                let raw: Vec<u64> = prev_keys.iter().map(|k| k.0).collect();
                enc.u64s(&raw);
            }
            None => enc.bool(false),
        }
        enc.usize(self.epoch.slots());
        for slot in self.epoch.pending() {
            match slot {
                Some(row) => {
                    enc.bool(true);
                    enc.f64s(row);
                }
                None => enc.bool(false),
            }
        }
        let slots: Vec<u64> = self
            .epoch
            .updated_slots()
            .iter()
            .map(|&s| u64::from(s))
            .collect();
        enc.u64s(&slots);
        enc.u64(self.epoch.sealed());
        enc.u64s(self.epoch.last_reported());
        enc.u64(self.epoch.stale_floor());
        enc.u64(self.tracker.next_id());
        enc.u64(self.tracker.opened_total());
        enc.u64(self.tracker.closed_total());
        enc.usize(self.tracker.open().len());
        for event in self.tracker.open() {
            persist::encode_event(enc, event);
        }
        let closed: Vec<&AnomalyEvent> = self.tracker.recently_closed().collect();
        enc.usize(closed.len());
        for event in closed {
            persist::encode_event(enc, event);
        }
        let history: Vec<&ReportSummary> = self.tracker.history().collect();
        enc.usize(history.len());
        for summary in history {
            persist::encode_summary(enc, summary);
        }
        enc.u64(self.instant);
    }

    /// Rebuilds the state written by [`Monitor::encode_state`] into this
    /// (empty, identically configured) monitor. Devices re-join through
    /// the regular path — the factory recreates each detector's shape,
    /// then its learned state is overlaid — so every internal structure is
    /// maintained by the same code paths a live monitor uses.
    ///
    /// # Errors
    ///
    /// [`MonitorError::CheckpointMismatch`] when a detector's saved
    /// parameters disagree with what the factory built (named field);
    /// [`MonitorError::Persist`] for payloads that decode but are
    /// internally inconsistent (wrong table sizes, out-of-range slots,
    /// invalid coordinates).
    pub(super) fn import_state(&mut self, dec: &mut Dec<'_>) -> Result<(), MonitorError> {
        for key in dec.u64s("state.keys")? {
            self.join(DeviceKey(key))?;
        }
        let n = self.keys.len();
        for det in &mut self.detectors {
            let words = dec.u64s("state.detector")?;
            let mut reader = StateReader::new(&words);
            det.load(&mut reader).map_err(persist::state_error)?;
            reader.finish().map_err(persist::state_error)?;
        }
        let flags = dec.usize("state.flags")?;
        if flags != n {
            return Err(persist::shape_error("flag table", flags, n));
        }
        self.flag_state.clear();
        self.flagged_slots.clear();
        for slot in 0..n {
            let flagged = dec.bool("state.flags")?;
            let score = dec.f64("state.flags")?;
            self.flag_state.push((flagged, score));
            if flagged {
                self.flagged_slots.insert(slot as u32);
            }
        }
        let d = self.services;
        self.previous = if dec.bool("state.previous")? {
            let rows_n = dec.usize("state.previous")?;
            let invalid = |e| MonitorError::Persist {
                detail: format!("checkpointed snapshot is invalid: {e}"),
            };
            // Each row is decoded straight onto the flat buffer and checked
            // there, in row order.
            let mut flat: Vec<f64> = Vec::with_capacity(rows_n.min(1 << 16) * d);
            for _ in 0..rows_n {
                let start = flat.len();
                dec.f64s_into("state.previous", &mut flat)?;
                self.space
                    .check(flat.get(start..).unwrap_or_default())
                    .map_err(invalid)?;
            }
            Some(Snapshot::from_flat(&self.space, flat).map_err(invalid)?)
        } else {
            None
        };
        self.previous_keys = if dec.bool("state.previous_keys")? {
            let raw = dec.u64s("state.previous_keys")?;
            Some(Arc::new(raw.into_iter().map(DeviceKey).collect()))
        } else {
            None
        };
        match (&self.previous, &self.previous_keys) {
            (Some(prev), Some(prev_keys)) if prev.len() != prev_keys.len() => {
                return Err(persist::shape_error(
                    "previous key order",
                    prev_keys.len(),
                    prev.len(),
                ));
            }
            (Some(prev), None) if prev.len() != n => {
                return Err(persist::shape_error("previous snapshot", prev.len(), n));
            }
            (None, Some(_)) => {
                return Err(MonitorError::Persist {
                    detail: "checkpoint has a previous key order but no previous snapshot"
                        .to_string(),
                });
            }
            _ => {}
        }
        let pending_n = dec.usize("state.epoch.pending")?;
        if pending_n != n {
            return Err(persist::shape_error("pending table", pending_n, n));
        }
        // Pending rows decode onto one flat buffer of stride `d`; a silent
        // slot's row is zeros under a cleared flag.
        let mut rows: Vec<f64> = Vec::with_capacity(pending_n.min(1 << 16) * d);
        let mut has_update: Vec<bool> = Vec::with_capacity(pending_n.min(1 << 16));
        for _ in 0..pending_n {
            let start = rows.len();
            let has = dec.bool("state.epoch.pending")?;
            if has {
                dec.f64s_into("state.epoch.pending", &mut rows)?;
                self.space
                    .check(rows.get(start..).unwrap_or_default())
                    .map_err(|e| MonitorError::Persist {
                        detail: format!("checkpointed pending update is invalid: {e}"),
                    })?;
            } else {
                rows.resize(start + d, 0.0);
            }
            has_update.push(has);
        }
        let mut updated_slots: Vec<u32> = Vec::new();
        let mut seen = vec![false; n];
        for raw in dec.u64s("state.epoch.updated_slots")? {
            let slot = u32::try_from(raw).ok().map(|s| s as usize);
            let fresh = slot.is_some_and(|i| {
                has_update.get(i) == Some(&true) && seen.get(i).is_some_and(|b| !*b)
            });
            let Some(slot) = slot.filter(|_| fresh) else {
                return Err(MonitorError::Persist {
                    detail: "checkpointed update list disagrees with the pending table".to_string(),
                });
            };
            if let Some(b) = seen.get_mut(slot) {
                *b = true;
            }
            updated_slots.push(slot as u32);
        }
        if updated_slots.len() != has_update.iter().filter(|&&has| has).count() {
            return Err(MonitorError::Persist {
                detail: "checkpointed update list disagrees with the pending table".to_string(),
            });
        }
        let sealed = dec.u64("state.epoch.sealed")?;
        let last_reported = dec.u64s("state.epoch.last_reported")?;
        if last_reported.len() != n {
            return Err(persist::shape_error(
                "staleness table",
                last_reported.len(),
                n,
            ));
        }
        let stale_floor = dec.u64("state.epoch.stale_floor")?;
        if stale_floor > sealed || last_reported.iter().any(|&r| r > sealed || r < stale_floor) {
            return Err(MonitorError::Persist {
                detail: "checkpointed staleness ages are inconsistent".to_string(),
            });
        }
        self.epoch = EpochState::from_state(
            d,
            rows,
            has_update,
            updated_slots,
            sealed,
            last_reported,
            stale_floor,
        );
        let next_id = dec.u64("state.events.next_id")?;
        let opened_total = dec.u64("state.events.opened_total")?;
        let closed_total = dec.u64("state.events.closed_total")?;
        let open_n = dec.usize("state.events.open")?;
        let mut open: Vec<AnomalyEvent> = Vec::with_capacity(open_n.min(1 << 16));
        for _ in 0..open_n {
            open.push(persist::decode_event(dec)?);
        }
        let closed_n = dec.usize("state.events.closed")?;
        let mut closed: Vec<AnomalyEvent> = Vec::with_capacity(closed_n.min(1 << 16));
        for _ in 0..closed_n {
            closed.push(persist::decode_event(dec)?);
        }
        let history_n = dec.usize("state.events.history")?;
        let mut history: Vec<ReportSummary> = Vec::with_capacity(history_n.min(1 << 16));
        for _ in 0..history_n {
            history.push(persist::decode_summary(dec)?);
        }
        if open.iter().chain(closed.iter()).any(|e| e.id.0 >= next_id) {
            return Err(MonitorError::Persist {
                detail: "checkpointed event ids exceed the id counter".to_string(),
            });
        }
        self.tracker = EventTracker::from_state(
            self.tracker.window(),
            self.tracker.debounce(),
            next_id,
            open,
            closed,
            history,
            opened_total,
            closed_total,
        );
        self.instant = dec.u64("state.instant")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::builder::MonitorBuilder;
    use super::*;
    use anomaly_core::{AnomalyClass, DEFAULT_ENUMERATION_BUDGET};
    use anomaly_detectors::{CusumDetector, EwmaDetector};

    fn warmed(n: usize) -> Monitor {
        let mut m = MonitorBuilder::new().fleet(n).build().unwrap();
        for _ in 0..30 {
            let r = m.observe_rows(vec![vec![0.9]; n]).unwrap();
            assert!(r.is_quiet());
        }
        m
    }

    #[test]
    fn quiet_fleet_reports_nothing() {
        let mut m = MonitorBuilder::new().fleet(8).build().unwrap();
        for k in 0..20 {
            let r = m.observe_rows(vec![vec![0.9]; 8]).unwrap();
            assert_eq!(r.instant(), k);
            assert!(r.is_quiet());
            assert_eq!(r.population(), 8);
            assert!(r.stragglers().is_empty());
        }
    }

    #[test]
    fn shared_incident_is_massive_lone_fault_isolated() {
        let mut m = warmed(8);
        let mut rows = vec![vec![0.45]; 8];
        rows[0] = vec![0.44];
        rows[1] = vec![0.46];
        rows[7] = vec![0.05]; // the loner
        let r = m.observe_rows(rows).unwrap();
        assert_eq!(r.verdicts().len(), 8);
        assert!(r.has_network_event());
        assert_eq!(r.operator_notifications(), vec![DeviceKey(7)]);
        assert_eq!(r.class_of(DeviceKey(0)), Some(AnomalyClass::Massive));
        assert_eq!(r.class_of_id(DeviceId(7)), Some(AnomalyClass::Isolated));
        // The massive group's verdicts see each other in their vicinity.
        for v in r.massive() {
            assert!(v.vicinity >= 6, "vicinity {} for {}", v.vicinity, v.key);
        }
        // Displacement reflects the actual motion magnitude.
        let loner = r.verdicts().iter().find(|v| v.key == DeviceKey(7)).unwrap();
        assert!((loner.displacement - 0.85).abs() < 1e-9);
    }

    #[test]
    fn population_mismatch_is_an_error_not_a_panic() {
        let mut m = warmed(4);
        let err = m.observe_rows(vec![vec![0.9]; 3]).unwrap_err();
        assert_eq!(
            err,
            MonitorError::PopulationMismatch {
                expected: 4,
                actual: 3,
            }
        );
        // The monitor survives misuse: the next correct snapshot works.
        assert!(m.observe_rows(vec![vec![0.9]; 4]).is_ok());
    }

    #[test]
    fn wrong_dimension_is_an_error() {
        let mut m = warmed(4);
        let space2 = QosSpace::new(2).unwrap();
        let snap = Snapshot::from_rows(&space2, vec![vec![0.9, 0.9]; 4]).unwrap();
        assert_eq!(
            m.observe(snap).unwrap_err(),
            MonitorError::ServiceMismatch {
                expected: 1,
                actual: 2,
            }
        );
    }

    #[test]
    fn out_of_range_rows_are_an_error() {
        let mut m = warmed(2);
        let err = m.observe_rows(vec![vec![0.9], vec![1.4]]).unwrap_err();
        assert!(matches!(err, MonitorError::Qos(_)));
    }

    #[test]
    fn join_assigns_dense_ids_and_leave_compacts() {
        let mut m = MonitorBuilder::new().build().unwrap();
        assert_eq!(m.join(10u64).unwrap(), DeviceId(0));
        assert_eq!(m.join(20u64).unwrap(), DeviceId(1));
        assert_eq!(m.join(30u64).unwrap(), DeviceId(2));
        assert_eq!(
            m.join(20u64).unwrap_err(),
            MonitorError::DuplicateDevice { key: DeviceKey(20) }
        );
        // Leaving #10 moves #30 into slot 0.
        m.leave(10u64).unwrap();
        assert_eq!(m.keys(), &[DeviceKey(30), DeviceKey(20)]);
        assert_eq!(m.id_of(DeviceKey(30)), Some(DeviceId(0)));
        assert_eq!(m.key_of(DeviceId(1)), Some(DeviceKey(20)));
        assert!(!m.contains(DeviceKey(10)));
        assert_eq!(
            m.leave(10u64).unwrap_err(),
            MonitorError::UnknownDevice { key: DeviceKey(10) }
        );
    }

    #[test]
    fn leave_drops_the_departing_devices_pending_update() {
        let mut m = MonitorBuilder::new().fleet(3).build().unwrap();
        m.ingest(1u64, vec![0.9]).unwrap();
        m.ingest(2u64, vec![0.8]).unwrap();
        assert_eq!(m.pending_updates(), 2);
        // Device 1 leaves; its staged update goes with it, and device 2's
        // update follows the swap into slot 1.
        m.leave(1u64).unwrap();
        assert_eq!(m.pending_updates(), 1);
        m.ingest(0u64, vec![0.7]).unwrap();
        let r = m.seal().unwrap();
        assert_eq!(r.population(), 2);
        let slot2 = m.id_of(DeviceKey(2)).unwrap();
        assert_eq!(m.last_snapshot().unwrap().position(slot2), &[0.8]);
    }

    #[test]
    fn leaving_returns_the_warmed_detector() {
        let mut m = MonitorBuilder::new()
            .detector_factory(|_| Box::new(CusumDetector::new(0.05, 0.5)))
            .fleet(2)
            .build()
            .unwrap();
        let det = m.leave(0u64).unwrap();
        assert_eq!(det.services(), 1);
        assert!(det.description().contains("cusum"));
        // And it can re-join elsewhere.
        m.join_with(7u64, det).unwrap();
        assert!(m.contains(DeviceKey(7)));
    }

    #[test]
    fn fleet_bound_rejects_oversized_joins() {
        let mut m = MonitorBuilder::new()
            .max_population(2)
            .fleet(2)
            .build()
            .unwrap();
        assert_eq!(
            m.join(99u64).unwrap_err(),
            MonitorError::FleetTooLarge {
                population: 3,
                bound: 2,
            }
        );
    }

    #[test]
    fn join_with_rejects_wrong_width_detectors() {
        let mut m = MonitorBuilder::new().services(2).build().unwrap();
        let err = m
            .join_with(1u64, Box::new(EwmaDetector::new(0.3, 4.0)))
            .unwrap_err();
        assert_eq!(
            err,
            MonitorError::ServiceMismatch {
                expected: 2,
                actual: 1,
            }
        );
    }

    #[test]
    fn churn_restricts_characterization_to_survivors() {
        let mut m = warmed(6);
        // Device 5 leaves; device 100 joins, inheriting the warmed-up
        // detector (so it can flag immediately). Dense slot 5 is reused.
        let det = m.leave(5u64).unwrap();
        m.join_with(100u64, det).unwrap();
        assert_eq!(m.population(), 6);
        // Shared incident over everyone; the joiner flags too but has no
        // interval yet.
        let r = m.observe_rows(vec![vec![0.45]; 6]).unwrap();
        assert_eq!(r.warming(), &[DeviceKey(100)]);
        assert_eq!(r.verdicts().len(), 5, "only survivors characterized");
        assert!(r.class_of(DeviceKey(100)).is_none());
        for v in r.verdicts() {
            assert_eq!(v.class(), AnomalyClass::Massive, "{}", v.key);
        }
        // Once every detector has re-settled at the new level, the joiner
        // has an interval like everyone else and is characterized.
        for _ in 0..30 {
            m.observe_rows(vec![vec![0.45]; 6]).unwrap();
        }
        let mut rows = vec![vec![0.45]; 6];
        let joiner_slot = m.id_of(DeviceKey(100)).unwrap().index();
        rows[joiner_slot] = vec![0.05];
        let r = m.observe_rows(rows).unwrap();
        assert_eq!(r.class_of(DeviceKey(100)), Some(AnomalyClass::Isolated));
    }

    #[test]
    fn fully_churned_interval_yields_no_verdicts() {
        let mut m = warmed(3);
        for k in 0..3 {
            m.leave(k as u64).unwrap();
        }
        for k in 10..13u64 {
            m.join(k).unwrap();
        }
        // Everyone is new: nothing can be characterized, nothing panics.
        let r = m.observe_rows(vec![vec![0.2]; 3]).unwrap();
        assert!(r.verdicts().is_empty());
    }

    #[test]
    fn empty_fleet_is_legal() {
        let mut m = MonitorBuilder::new().build().unwrap();
        let r = m.observe_rows(vec![]).unwrap();
        assert!(r.is_quiet());
        assert_eq!(r.population(), 0);
        assert_eq!(r.summary().abnormal, 0);
        // The streaming path seals empty fleets too.
        assert!(m.seal().is_ok());
    }

    #[test]
    fn reset_forgets_history() {
        let mut m = warmed(4);
        m.reset();
        // A very different level right after reset: detectors re-warm, no
        // alarm, and there is no previous snapshot to characterize against.
        let r = m.observe_rows(vec![vec![0.2]; 4]).unwrap();
        assert!(r.verdicts().is_empty());
        assert!(m.last_grid_update().is_none());
    }

    #[test]
    fn timings_are_recorded() {
        let mut m = warmed(8);
        let r = m.observe_rows(vec![vec![0.45]; 8]).unwrap();
        assert!(!r.verdicts().is_empty());
        assert!(r.detection_time() > Duration::ZERO);
        assert!(r.characterization_time() > Duration::ZERO);
    }

    #[test]
    fn steady_epochs_update_the_grid_incrementally() {
        // After the first characterized instant builds the index, later
        // small epochs re-key only the devices whose key changed.
        let mut m = warmed(16);
        let mut rows = vec![vec![0.9]; 16];
        rows[3] = vec![0.45];
        m.observe_rows(rows.clone()).unwrap();
        assert_eq!(m.last_grid_update(), Some(GridUpdate::Rebuilt));
        rows[3] = vec![0.44];
        rows[5] = vec![0.46];
        m.observe_rows(rows).unwrap();
        match m.last_grid_update() {
            Some(GridUpdate::Incremental { rebucketed }) => {
                assert!(rebucketed <= 2, "rebucketed {rebucketed}")
            }
            other => panic!("expected an incremental update, got {other:?}"),
        }
    }

    /// Every flag flip evicts or inserts the flipping device's own entry,
    /// so through the monitor's API the abnormal set never changes without
    /// a cache write. The memo still compares it directly: a smaller
    /// abnormal set over an untouched cache gets its own partition.
    #[test]
    fn cached_partition_follows_the_abnormal_set_without_a_cache_write() {
        let table = TrajectoryTable::from_pairs_1d(&[
            (0, 0.10, 0.50),
            (1, 0.11, 0.51),
            (2, 0.12, 0.52),
            (3, 0.13, 0.53),
            (4, 0.70, 0.10),
            (5, 0.71, 0.11),
            (6, 0.72, 0.12),
            (7, 0.73, 0.13),
        ]);
        let params = Params::new(0.05, 3).unwrap();
        let parts: Vec<(DeviceId, DevicePrecompute)> = table
            .ids()
            .iter()
            .map(|&j| {
                let pre =
                    Analyzer::precompute_device(&table, &params, j, DEFAULT_ENUMERATION_BUDGET);
                (j, pre)
            })
            .collect();
        let analyzer = Analyzer::from_parts(&table, params, parts.clone());
        let mut cache = CharCache::default();
        for (j, precompute) in parts {
            let entry = CacheEntry {
                cell: 0,
                precompute,
                characterization: analyzer.characterize_full(j),
                vicinity: 0,
            };
            cache.insert(j.0, entry);
        }
        let all = table.ids().to_vec();
        let both = cache.partition_of(&all);
        assert_eq!(*both, analyzer.component_partition());
        assert_eq!(both.component_of(DeviceId(4)), Some(1));
        assert!(Arc::ptr_eq(&both, &cache.partition_of(&all)), "memo reused");
        let second: Vec<DeviceId> = all.iter().copied().filter(|j| j.0 >= 4).collect();
        let only = cache.partition_of(&second);
        assert_eq!(only.count(), 1);
        assert_eq!(only.component_of(DeviceId(4)), Some(0));
        assert_eq!(only.component_of(DeviceId(0)), None);
    }

    #[test]
    fn debug_formats_are_stable() {
        let m = MonitorBuilder::new().fleet(2).build().unwrap();
        let s = format!("{m:?}");
        assert!(s.contains("population: 2"));
        let b = format!("{:?}", MonitorBuilder::new());
        assert!(b.contains("radius"));
    }

    /// Index upkeep against a fresh build, through random epochs.
    mod index_upkeep {
        use super::*;
        use anomaly_detectors::ThresholdDetector;
        use proptest::prelude::*;

        const DEVICES: usize = 16;

        fn builder(devices: usize) -> MonitorBuilder {
            MonitorBuilder::new()
                .staleness(StalenessPolicy::CarryForward { max_age: 1_000 })
                .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
                .fleet(devices)
        }

        /// What one epoch does before its seal.
        #[derive(Debug, Clone, Copy)]
        enum Step {
            /// Some devices wiggle by 0.04 (under the detector's delta,
            /// often across a cell, and otherwise within it but over the
            /// still/moving threshold of half a 0.0625 cell); flagged
            /// devices stay frozen.
            Wiggle,
            /// Some devices move by 0.01: under the class threshold, so
            /// only those that cross a cell are re-keyed.
            Nudge,
            /// Some devices jump by 0.3: flagged, so the seal characterizes.
            Jump,
            /// Every device re-reports, some wiggling: every flag clears and
            /// the seal characterizes nothing, while rows still cross cells.
            Settle,
            /// One device leaves and a fresh one joins and reports.
            Churn,
            /// The monitor is checkpointed and restored before the seal.
            Restore,
        }

        proptest! {
            /// Across random epochs — uncharacterized quiet seals between
            /// characterized ones, churn, and a restore — the index the
            /// monitor keeps equals a fresh build over the interval it last
            /// characterized, `last_grid_update` is `None` exactly when a seal
            /// characterized nothing, and `rebucketed` counts exactly the
            /// devices whose key, still/moving class included, changed
            /// since the previous update.
            #[test]
            fn the_trajectory_index_equals_a_fresh_build(
                steps in proptest::collection::vec(0usize..11, 4..24),
                picks in proptest::collection::vec(0usize..1000, 24),
            ) {
                let mut m = builder(DEVICES).build().unwrap();
                let mut position: Vec<(u64, f64)> = (0..DEVICES as u64)
                    .map(|k| (k, 0.05 + 0.9 * k as f64 / DEVICES as f64))
                    .collect();
                let mut next_key = DEVICES as u64;
                m.ingest_many(position.iter().map(|&(k, x)| (k, vec![x]))).unwrap();
                m.seal().unwrap();
                // Whether the next characterized seal may update in place.
                let mut synced = false;
                for (e, &raw) in steps.iter().enumerate() {
                    let step = match raw {
                        0..=2 => Step::Wiggle,
                        3..=5 => Step::Jump,
                        6 | 7 => Step::Settle,
                        8 => Step::Churn,
                        9 => Step::Restore,
                        _ => Step::Nudge,
                    };
                    let pick = picks[e % picks.len()];
                    let chosen = |i: usize| (pick >> (i % 10)) & 1 == 1;
                    let mut rows: Vec<(u64, Vec<f64>)> = Vec::new();
                    match step {
                        Step::Wiggle | Step::Nudge | Step::Jump | Step::Settle => {
                            let delta = match step {
                                Step::Jump => 0.3,
                                Step::Nudge => 0.01,
                                _ => 0.04,
                            };
                            for (i, (k, x)) in position.iter_mut().enumerate() {
                                if chosen(i) {
                                    *x = if *x + delta <= 1.0 { *x + delta } else { *x - delta };
                                    rows.push((*k, vec![*x]));
                                } else if matches!(step, Step::Settle) {
                                    rows.push((*k, vec![*x]));
                                }
                            }
                        }
                        Step::Churn => {
                            let gone = position.remove(pick % position.len()).0;
                            m.leave(gone).unwrap();
                            m.join(next_key).unwrap();
                            let x = (pick % 97) as f64 / 97.0;
                            position.push((next_key, x));
                            rows.push((next_key, vec![x]));
                            next_key += 1;
                            synced = false;
                        }
                        Step::Restore => {
                            let mut bytes = Vec::new();
                            m.checkpoint(&mut bytes).unwrap();
                            m = Monitor::restore(bytes.as_slice(), builder(0)).unwrap();
                            prop_assert!(m.trajectory_index.is_none());
                            synced = false;
                        }
                    }
                    let before = m.last_snapshot().cloned();
                    let old = m.trajectory_index.clone();
                    m.ingest_many(rows).unwrap();
                    let report = m.seal().unwrap();
                    let characterized = !report.verdicts().is_empty();
                    prop_assert_eq!(m.last_grid_update().is_some(), characterized, "epoch {}", e);
                    if !characterized {
                        continue;
                    }
                    if matches!(step, Step::Churn) {
                        prop_assert_eq!(m.last_grid_update(), Some(GridUpdate::Rebuilt));
                        continue;
                    }
                    let after = m.last_snapshot().cloned();
                    let pair = StatePair::new(before.unwrap(), after.unwrap()).unwrap();
                    let fresh = TrajectoryIndex::build(&pair, m.params().window());
                    prop_assert_eq!(m.trajectory_index.as_ref(), Some(&fresh), "epoch {}", e);
                    let expected = match (&old, synced) {
                        (Some(old), true) => GridUpdate::Incremental {
                            rebucketed: pair
                                .device_ids()
                                .filter(|&id| old.key_of(id) != fresh.key_of(id))
                                .count(),
                        },
                        _ => GridUpdate::Rebuilt,
                    };
                    prop_assert_eq!(m.last_grid_update(), Some(expected), "epoch {}", e);
                    synced = true;
                }
            }
        }
    }
}
