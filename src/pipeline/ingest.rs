//! Streaming ingestion: per-device updates, sealed epochs, and
//! partial-snapshot policies.
//!
//! The paper's monitor consumes one complete QoS snapshot per instant, but
//! real collection pipelines see an unordered stream of per-device reports
//! — late, duplicated, or missing. This module is the front-end that turns
//! that stream back into the paper's model:
//!
//! * [`Monitor::ingest`] / [`Monitor::ingest_many`] accumulate per-device
//!   measurements into the **open epoch** (duplicates are last-write-wins,
//!   arrival order is irrelevant);
//! * [`Monitor::seal`] closes the epoch: devices that did not report are
//!   resolved by the configured [`StalenessPolicy`], the instant's
//!   [`Snapshot`] is assembled **delta-style** — the previous snapshot's
//!   buffers are recycled and only changed rows are written, so sealing is
//!   O(changed devices) — and the existing detection + characterization
//!   engine runs, returning the same [`Report`] the batch path produces.
//!
//! [`Monitor::observe`] is now a one-shot convenience implemented as
//! `ingest_many` over every dense row followed by `seal`, so the two paths
//! are equivalent by construction (and verified byte-for-byte by
//! `tests/ingest_equivalence.rs`).
//!
//! ```text
//!             ingest(key, row)            seal()
//!   updates ─────────────────▶ open epoch ───────▶ Snapshot_k ─▶ Report_k
//!             (any order,         │                    ▲
//!              last write wins)   │ missing devices    │ delta-patch of
//!                                 ▼                    │ Snapshot_{k-1}
//!                          StalenessPolicy ────────────┘
//!                     Reject | CarryForward | Default
//! ```

use super::error::MonitorError;
use super::key::DeviceKey;
use super::monitor::{Monitor, SealDelta};
use super::report::{Report, Stragglers};
use anomaly_qos::{DeviceId, Snapshot};
use std::error::Error;
use std::fmt;

/// How [`Monitor::seal`] resolves devices that did not report during the
/// epoch being sealed.
///
/// # Detector state of bridged devices
///
/// A device whose row is synthesized by the policy (carried forward or
/// defaulted) does **not** feed its error-detection function that epoch:
/// the detector's internal state and its last verdict are *frozen* until
/// the device reports again. The alternative — re-feeding the synthesized
/// row — would let the bridging fabricate observations the device never
/// made: a delta-sensitive detector (e.g.
/// [`ThresholdDetector`](anomaly_detectors::ThresholdDetector)) would see
/// a zero jump and *clear* a legitimate alarm simply because the device
/// went quiet, and an averaging detector would converge on the synthetic
/// value. Freezing keeps the last evidence-based verdict in force — a
/// flagged device that falls silent stays in the abnormal set `A_k` until
/// real data clears it — and makes per-epoch detection cost proportional
/// to the devices that actually reported. Pinned by
/// `tests/staleness_policies.rs`.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum StalenessPolicy {
    /// Sealing fails with [`IngestError::MissingDevices`] naming every
    /// silent device; the epoch stays open so the caller can ingest the
    /// missing updates (or [`Monitor::discard_epoch`]) and retry. The
    /// default — it makes the streaming path exactly as strict as the
    /// batch one.
    #[default]
    Reject,
    /// A silent device keeps its previous position for up to `max_age`
    /// consecutive epochs — the bound is **inclusive**: a device silent
    /// for exactly `max_age` consecutive epochs is bridged every time, and
    /// the `max_age + 1`-th consecutive silent epoch fails sealing with
    /// [`IngestError::StaleDevices`] (pinned by the boundary test in
    /// `tests/staleness_policies.rs`). Devices with no previous position
    /// at all (fresh joiners, or the very first epoch) cannot be carried
    /// and surface as [`IngestError::MissingDevices`].
    CarryForward {
        /// Longest run of consecutive epochs a device may miss (`1` =
        /// bridge a single skipped instant).
        max_age: u64,
    },
    /// A silent device's row is replaced by this fixed coordinate row
    /// (validated against the monitor's service count at
    /// [`build`](super::MonitorBuilder::build)). Never fails.
    Default(Vec<f64>),
}

/// Typed failures of the streaming ingestion surface, folded into
/// [`MonitorError::Ingest`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IngestError {
    /// [`Monitor::seal`] under [`StalenessPolicy::Reject`] (or a carry
    /// forward with no previous position to carry) found devices that
    /// never reported this epoch. The epoch stays open.
    MissingDevices {
        /// The silent devices, in dense-id order.
        keys: Vec<DeviceKey>,
    },
    /// [`StalenessPolicy::CarryForward`] found devices silent for longer
    /// than `max_age` consecutive epochs. The epoch stays open.
    StaleDevices {
        /// The too-stale devices, in dense-id order.
        keys: Vec<DeviceKey>,
        /// The bound in force.
        max_age: u64,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list(keys: &[DeviceKey]) -> String {
            let mut s = keys
                .iter()
                .take(8)
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            if keys.len() > 8 {
                s.push_str(&format!(", … ({} total)", keys.len()));
            }
            s
        }
        match self {
            IngestError::MissingDevices { keys } => write!(
                f,
                "cannot seal the epoch: no update from device(s) {}",
                list(keys)
            ),
            IngestError::StaleDevices { keys, max_age } => write!(
                f,
                "cannot seal the epoch: device(s) {} exceeded the carry-forward bound of {max_age} epoch(s)",
                list(keys)
            ),
        }
    }
}

impl Error for IngestError {}

/// The open epoch: per-slot pending updates and per-slot staleness ages.
///
/// Pending updates live in one flat buffer of stride `d` (the service
/// count), row `slot` at `slot·d`, beside a per-slot has-update flag: a
/// staged row is copied in once, at ingest, and read in place by the
/// seal. Slot vectors are index-aligned with the monitor's dense key order
/// and maintained through churn with the same swap-remove discipline as
/// the detector vector.
#[derive(Debug, Default)]
pub(super) struct EpochState {
    /// Services per device: the stride of `rows`.
    dim: usize,
    /// Pending update per dense slot, row-major; a row means something
    /// only while its slot's `has_update` flag is set.
    rows: Vec<f64>,
    /// Per slot: true when `rows` holds an update staged this epoch.
    has_update: Vec<bool>,
    /// Slots with a pending update, in arrival order (no duplicates —
    /// last-write-wins keeps the first entry). Lets sealing enumerate the
    /// changed devices without scanning every slot; cleared when the epoch
    /// is settled or discarded.
    updated_slots: Vec<u32>,
    /// Number of epochs sealed so far. Ages are stored lazily as
    /// `sealed - last_reported[slot]`, so settling an epoch is O(reporting
    /// devices) instead of O(population).
    sealed: u64,
    /// Value of `sealed` as of the last epoch each slot reported in (or
    /// when it joined).
    last_reported: Vec<u64>,
    /// Lower bound on every entry of `last_reported`: when
    /// `sealed - stale_floor` is still below the carry-forward bound, no
    /// device can be stale and the per-slot age checks can be skipped.
    /// Raised whenever every device reports in the same epoch.
    stale_floor: u64,
}

impl EpochState {
    pub(super) fn with_capacity(capacity: usize, dim: usize) -> Self {
        EpochState {
            dim,
            rows: Vec::with_capacity(capacity.saturating_mul(dim)),
            has_update: Vec::with_capacity(capacity),
            updated_slots: Vec::new(),
            sealed: 0,
            last_reported: Vec::with_capacity(capacity),
            stale_floor: 0,
        }
    }

    /// The storage range of `slot`'s row.
    fn span(&self, slot: usize) -> std::ops::Range<usize> {
        slot * self.dim..(slot + 1) * self.dim
    }

    /// A device joined: appends its (empty) slot with age 0.
    pub(super) fn push_slot(&mut self) {
        self.rows.resize(self.rows.len() + self.dim, 0.0);
        self.has_update.push(false);
        self.last_reported.push(self.sealed);
    }

    /// A device left: swap-removes its slot, mirroring the key vector.
    pub(super) fn remove_slot(&mut self, slot: usize) {
        let last = self.has_update.len().saturating_sub(1);
        if slot != last {
            let from = self.span(last);
            self.rows.copy_within(from, slot * self.dim);
        }
        self.rows.truncate(last * self.dim);
        self.has_update.swap_remove(slot);
        let (slot32, last32) = (slot as u32, last as u32);
        // The swap-remove moved the last slot into the vacated one: drop
        // both old entries from the update list and re-key the survivor.
        self.updated_slots.retain(|&s| s != slot32 && s != last32);
        if slot != last && self.has_update(slot) {
            self.updated_slots.push(slot32);
        }
        self.last_reported.swap_remove(slot);
    }

    /// Stages an update for a slot (last write wins): one copy of a row
    /// the caller validated.
    pub(super) fn stage(&mut self, slot: usize, row: &[f64]) -> Result<(), MonitorError> {
        let span = self.span(slot);
        let (Some(dst), Some(flag)) = (self.rows.get_mut(span), self.has_update.get_mut(slot))
        else {
            return Err(MonitorError::internal(
                "staged slot out of the pending table",
            ));
        };
        dst.copy_from_slice(row);
        if !*flag {
            *flag = true;
            self.updated_slots.push(slot as u32);
        }
        Ok(())
    }

    pub(super) fn updated(&self) -> usize {
        self.updated_slots.len()
    }

    /// Slots with a pending update, in arrival order.
    pub(super) fn updated_slots(&self) -> &[u32] {
        &self.updated_slots
    }

    pub(super) fn has_update(&self, slot: usize) -> bool {
        self.has_update.get(slot).copied().unwrap_or(false)
    }

    /// The update staged for `slot` this epoch, if any.
    pub(super) fn row(&self, slot: usize) -> Option<&[f64]> {
        if self.has_update(slot) {
            self.rows.get(self.span(slot))
        } else {
            None
        }
    }

    pub(super) fn age(&self, slot: usize) -> u64 {
        // conformance: allow(C1, reason = "slot vectors are index-aligned with the dense key order; every slot comes from the key index")
        self.sealed - self.last_reported[slot]
    }

    /// True when no slot can possibly have reached `max_age` consecutive
    /// misses: the lower bound on every slot's last-reported epoch is
    /// recent enough. Lets carry-forward sealing skip the per-slot age
    /// checks entirely.
    pub(super) fn none_stale(&self, max_age: u64) -> bool {
        self.sealed - self.stale_floor < max_age
    }

    /// Records the outcome of a sealed epoch: every slot in `fed`
    /// reported (age resets to 0, and its pending row is consumed), every
    /// other slot's age grows by one — implicitly, via the lazy
    /// `sealed - last_reported` representation, so the cost is O(`fed`),
    /// not O(population).
    pub(super) fn settle_epoch(&mut self, fed: &[u32], population: usize) {
        self.sealed += 1;
        for &slot in fed {
            if let Some(e) = self.last_reported.get_mut(slot as usize) {
                *e = self.sealed;
            }
            if let Some(flag) = self.has_update.get_mut(slot as usize) {
                *flag = false;
            }
        }
        if fed.len() == population {
            self.stale_floor = self.sealed;
        }
        self.updated_slots.clear();
    }

    /// Drops every pending update (ages are untouched).
    pub(super) fn discard(&mut self) {
        for &slot in &self.updated_slots {
            if let Some(flag) = self.has_update.get_mut(slot as usize) {
                *flag = false;
            }
        }
        self.updated_slots.clear();
    }

    /// Forgets the staleness history too (used by [`Monitor::reset`]).
    pub(super) fn reset(&mut self) {
        self.discard();
        self.last_reported.fill(self.sealed);
        self.stale_floor = self.sealed;
    }

    /// Number of slots (checkpoint export).
    pub(super) fn slots(&self) -> usize {
        self.has_update.len()
    }

    /// Pending update per dense slot, `None` for a silent one (checkpoint
    /// export).
    pub(super) fn pending(&self) -> impl Iterator<Item = Option<&[f64]>> {
        self.has_update
            .iter()
            .zip(self.rows.chunks_exact(self.dim.max(1)))
            .map(|(&has, row)| has.then_some(row))
    }

    /// Number of epochs sealed so far (checkpoint export).
    pub(super) fn sealed(&self) -> u64 {
        self.sealed
    }

    /// Per-slot last-reported epoch numbers (checkpoint export).
    pub(super) fn last_reported(&self) -> &[u64] {
        &self.last_reported
    }

    /// Lower bound on `last_reported` (checkpoint export).
    pub(super) fn stale_floor(&self) -> u64 {
        self.stale_floor
    }

    /// Rebuilds the open epoch from checkpointed parts: the flat pending
    /// rows of stride `dim` and their has-update flags, already checked
    /// against `updated_slots` by the caller.
    pub(super) fn from_state(
        dim: usize,
        rows: Vec<f64>,
        has_update: Vec<bool>,
        updated_slots: Vec<u32>,
        sealed: u64,
        last_reported: Vec<u64>,
        stale_floor: u64,
    ) -> Self {
        EpochState {
            dim,
            rows,
            has_update,
            updated_slots,
            sealed,
            last_reported,
            stale_floor,
        }
    }
}

impl Monitor {
    /// Stages one device's measurements into the open epoch.
    ///
    /// Updates accumulate until [`Monitor::seal`] closes the epoch;
    /// duplicates overwrite (last write wins), so arrival order never
    /// matters. Nothing is fed to detectors or characterized until the
    /// seal.
    ///
    /// # Errors
    ///
    /// * [`MonitorError::UnknownDevice`] — `key` is not in the fleet;
    /// * [`MonitorError::ServiceMismatch`] — wrong number of measurements;
    /// * [`MonitorError::Qos`] — a measurement outside `[0, 1]`.
    ///
    /// # Example
    ///
    /// ```
    /// use anomaly_characterization::pipeline::MonitorBuilder;
    ///
    /// let mut monitor = MonitorBuilder::new().fleet(3).build()?;
    /// // Reports arrive out of order, device 1 even twice.
    /// monitor.ingest(2u64, vec![0.93])?;
    /// monitor.ingest(1u64, vec![0.55])?;
    /// monitor.ingest(0u64, vec![0.91])?;
    /// monitor.ingest(1u64, vec![0.92])?; // last write wins
    /// let report = monitor.seal()?;
    /// assert_eq!(report.population(), 3);
    /// # Ok::<(), anomaly_characterization::pipeline::MonitorError>(())
    /// ```
    pub fn ingest(
        &mut self,
        key: impl Into<DeviceKey>,
        measurements: Vec<f64>,
    ) -> Result<(), MonitorError> {
        let key = key.into();
        let Some(slot) = self.slot_of(key) else {
            return Err(MonitorError::UnknownDevice { key });
        };
        if measurements.len() != self.services() {
            return Err(MonitorError::ServiceMismatch {
                expected: self.services(),
                actual: measurements.len(),
            });
        }
        self.space().check(&measurements)?;
        // The row is copied into the open epoch; the caller's buffer is
        // freed here, not at the seal.
        self.epoch.stage(slot, &measurements)
    }

    /// Stages a batch of per-device updates, in order.
    ///
    /// Equivalent to calling [`Monitor::ingest`] per element. On the first
    /// invalid update the error is returned and the remaining elements are
    /// not applied; updates staged before the failure stay in the open
    /// epoch (complete them and re-seal, or [`Monitor::discard_epoch`]).
    ///
    /// # Errors
    ///
    /// Same as [`Monitor::ingest`].
    pub fn ingest_many<I, K>(&mut self, updates: I) -> Result<(), MonitorError>
    where
        I: IntoIterator<Item = (K, Vec<f64>)>,
        K: Into<DeviceKey>,
    {
        for (key, row) in updates {
            self.ingest(key, row)?;
        }
        Ok(())
    }

    /// Number of devices with a pending update in the open epoch.
    pub fn pending_updates(&self) -> usize {
        self.epoch.updated()
    }

    /// Devices without a pending update in the open epoch, in dense-id
    /// order — the set [`Monitor::seal`] will hand to the staleness
    /// policy.
    pub fn silent_keys(&self) -> Vec<DeviceKey> {
        self.keys()
            .iter()
            .enumerate()
            .filter(|&(slot, _)| !self.epoch.has_update(slot))
            .map(|(_, &key)| key)
            .collect()
    }

    /// Drops every update staged in the open epoch without sealing it.
    /// Staleness ages are untouched (the epoch was never sealed).
    pub fn discard_epoch(&mut self) {
        self.epoch.discard();
    }

    /// The staleness policy in force.
    pub fn staleness(&self) -> &StalenessPolicy {
        &self.staleness
    }

    /// Closes the open epoch: resolves silent devices through the
    /// [`StalenessPolicy`], assembles the instant's snapshot delta-style
    /// (recycling the previous snapshot's buffers — O(changed devices), no
    /// full clone in steady state), and runs detection + characterization,
    /// returning the epoch's [`Report`]. After a [`Monitor::join`] or
    /// [`Monitor::leave`] the seal first moves each row of the previous
    /// snapshot to its device's new slot; the rest is the same.
    ///
    /// Devices bridged by the policy are listed in
    /// [`Report::stragglers`]. On a policy failure the epoch stays open
    /// and unchanged, and so do [`Monitor::last_snapshot`] and the
    /// checkpoint: ingest the missing updates and seal again, or
    /// [`Monitor::discard_epoch`].
    ///
    /// # Errors
    ///
    /// [`MonitorError::Ingest`] with [`IngestError::MissingDevices`] or
    /// [`IngestError::StaleDevices`], per the policy.
    ///
    /// # Example
    ///
    /// ```
    /// use anomaly_characterization::pipeline::{MonitorBuilder, StalenessPolicy};
    ///
    /// let mut monitor = MonitorBuilder::new()
    ///     .staleness(StalenessPolicy::CarryForward { max_age: 2 })
    ///     .fleet(3)
    ///     .build()?;
    /// // Epoch 0: everyone reports.
    /// monitor.ingest_many((0u64..3).map(|k| (k, vec![0.9])))?;
    /// monitor.seal()?;
    /// // Epoch 1: device 2 is silent — its last row is carried forward.
    /// monitor.ingest(0u64, vec![0.9])?;
    /// monitor.ingest(1u64, vec![0.9])?;
    /// let report = monitor.seal()?;
    /// assert_eq!(report.stragglers().len(), 1);
    /// # Ok::<(), anomaly_characterization::pipeline::MonitorError>(())
    /// ```
    pub fn seal(&mut self) -> Result<Report, MonitorError> {
        let n = self.keys().len();
        // The devices that reported this epoch, in dense-slot order — the
        // seal's working set. Everything below is O(`fed` + silent-device
        // bookkeeping), never a per-slot re-derivation of this set.
        let mut fed: Vec<u32> = self.epoch.updated_slots().to_vec();
        fed.sort_unstable();
        let (targets, unplaced) = self.align_previous();

        // Phases 1 & 2 — resolve silent devices, then assemble the
        // epoch's snapshot. Phase 1 is read-only: a policy failure must
        // leave the epoch open and every internal structure intact.
        let stragglers = self.resolve_silent(n, &fed, &unplaced)?;
        // After a churn, the previous rows move to the current dense order
        // only once the policy has accepted the epoch.
        if let Some(targets) = targets {
            self.realign_previous(targets)?;
        }
        let (current, delta) = self.assemble_delta(fed, unplaced)?;

        // Phase 3 — settle ages and run the shared pipeline. Only slots
        // with a real update feed their detector (frozen semantics for
        // bridged rows — see `StalenessPolicy`); the changed rows and their
        // cells go along so characterization can invalidate exactly the
        // neighbourhoods they touch, and the trajectory index re-keys the
        // ones whose key changed.
        self.epoch.settle_epoch(&delta.fed, n);
        let report = self.advance(current, stragglers, &delta)?;

        // Phase 4 — record the delta for the next epoch: the recycled
        // buffer lags the new previous snapshot by exactly `changed`.
        self.set_spare_lag(delta.changed);
        Ok(report)
    }

    /// Phase 1: the policy resolves over the *runs* of silent slots
    /// between consecutive fed slots — bulk slice copies when no
    /// per-device age check is needed. Every silent device has a previous
    /// position at its own slot except the `unplaced` ones, which
    /// carry-forward cannot bridge.
    ///
    /// A carried device's detector is NOT fed the carried row: state and
    /// verdict stay frozen until real data arrives (only `fed` slots reach
    /// the detectors). Re-feeding would manufacture a zero-delta
    /// observation and could clear a real alarm — see the
    /// [`StalenessPolicy`] docs for the full rationale.
    ///
    /// Kept out of line: inlined into `seal`, its one caller, it made the
    /// full-round seal of perfbench's isp-outages workload ~8% slower
    /// (`seal_p50_ms`, alternating pairs).
    #[inline(never)]
    fn resolve_silent(
        &self,
        n: usize,
        fed: &[u32],
        unplaced: &[DeviceId],
    ) -> Result<Stragglers, MonitorError> {
        enum Resolution {
            Reject,
            /// Default or carry-forward with the stale bound provably
            /// unreachable: every silent device is a straggler, so the
            /// silent runs are recorded as-is (no per-device work at all).
            AllRuns,
            /// Carry-forward with per-slot age checks.
            CarryCheck {
                max_age: u64,
            },
        }
        let resolution = match &self.staleness {
            StalenessPolicy::Reject => Resolution::Reject,
            StalenessPolicy::Default(_) => Resolution::AllRuns,
            StalenessPolicy::CarryForward { max_age } => {
                if self.epoch.none_stale(*max_age) {
                    Resolution::AllRuns
                } else {
                    Resolution::CarryCheck { max_age: *max_age }
                }
            }
        };
        let keys = self.keys();
        if matches!(self.staleness, StalenessPolicy::CarryForward { .. }) {
            // Nothing to carry for a silent device without a previous row.
            let missing = unplaced
                .iter()
                .filter(|id| !self.epoch.has_update(id.index()))
                .map(|&id| self.key_at(id.0))
                .collect::<Result<Vec<DeviceKey>, MonitorError>>()?;
            if !missing.is_empty() {
                return Err(MonitorError::Ingest(IngestError::MissingDevices {
                    keys: missing,
                }));
            }
        }
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut eager: Vec<DeviceKey> = Vec::new();
        let mut missing: Vec<DeviceKey> = Vec::new();
        let mut stale: Vec<DeviceKey> = Vec::new();
        let mut lo = 0usize;
        for hi in fed.iter().map(|&s| s as usize).chain(std::iter::once(n)) {
            if hi > lo {
                match resolution {
                    Resolution::AllRuns => runs.push((lo as u32, hi as u32)),
                    Resolution::Reject => missing.extend_from_slice(
                        keys.get(lo..hi)
                            .ok_or(MonitorError::internal("fed slot out of key range"))?,
                    ),
                    Resolution::CarryCheck { max_age } => {
                        // `age` counts the *previously sealed* consecutive
                        // misses, so this epoch is consecutive miss number
                        // `age + 1`; carrying while `age < max_age` bridges
                        // a device for exactly `max_age` consecutive epochs
                        // (inclusive bound — see the policy's doc).
                        let run = keys
                            .get(lo..hi)
                            .ok_or(MonitorError::internal("fed slot out of key range"))?;
                        for (off, &key) in run.iter().enumerate() {
                            if self.epoch.age(lo + off) < max_age {
                                eager.push(key);
                            } else {
                                stale.push(key);
                            }
                        }
                    }
                }
            }
            lo = hi + 1;
        }
        if !missing.is_empty() {
            return Err(MonitorError::Ingest(IngestError::MissingDevices {
                keys: missing,
            }));
        }
        if !stale.is_empty() {
            let max_age = match &self.staleness {
                StalenessPolicy::CarryForward { max_age } => *max_age,
                // Only the carry-forward arm ever pushes into `stale`;
                // reaching this is a bug, reported as a typed error
                // rather than a panic (conformance C1).
                _ => {
                    return Err(MonitorError::internal(
                        "only carry-forward produces stale devices",
                    ))
                }
            };
            return Err(MonitorError::Ingest(IngestError::StaleDevices {
                keys: stale,
                max_age,
            }));
        }
        Ok(match resolution {
            Resolution::AllRuns => Stragglers::Lazy {
                runs,
                keys: self.key_order_handle(),
                cache: std::sync::OnceLock::new(),
            },
            _ => Stragglers::Eager(eager),
        })
    }

    /// Phase 2: recycle the spare buffer (or clone the previous snapshot
    /// once when no spare exists yet), write only the rows that actually
    /// changed, and report the change-set.
    ///
    /// One pass over the fed rows — every row under the `Default` policy,
    /// where a silent row must be compared against the default row too;
    /// silent rows otherwise keep their previous value and cost nothing.
    /// Each row is compared with its previous one; a changed row is copied
    /// into the buffer, and its before-cell, after-cell and still/moving
    /// class ([`CellGeometry::key`](anomaly_qos::CellGeometry::key)) are
    /// computed in the same step, giving the cache's dirty cells and the
    /// trajectory index's re-keyed rows without a second pass. Rows were
    /// validated at ingest and are not checked again.
    ///
    /// An `unplaced` slot's row is always written and counted as changed,
    /// even when it equals the placeholder: that dirties its cells now, and
    /// their echo evicts the cached verdicts around it when it enters the
    /// trajectory index one seal later. With no previous snapshot every
    /// slot is unplaced, the staged rows are the snapshot, and there are no
    /// cells to compute.
    fn assemble_delta(
        &mut self,
        fed: Vec<u32>,
        unplaced: Vec<DeviceId>,
    ) -> Result<(Snapshot, SealDelta), MonitorError> {
        let n = self.keys().len();
        let spare = self.take_spare(n);
        // The rows the spare lags by, and then the buffer of this epoch's
        // changed rows: the same allocation, recycled every seal.
        let mut changed = if spare.is_some() {
            self.take_spare_lag()
        } else {
            Vec::new()
        };
        let default_row = match &self.staleness {
            StalenessPolicy::Default(row) => Some(row.as_slice()),
            _ => None,
        };
        // A slot's row this epoch: its staged update, else the default row
        // (without one, only fed slots have a row).
        let rows = |slot: usize| {
            self.epoch
                .row(slot)
                .or(default_row)
                .ok_or(MonitorError::internal("fed slot has no pending update"))
        };
        let Some(prev) = self.previous_snapshot() else {
            let mut flat = Vec::with_capacity(n * self.services());
            for slot in 0..n {
                flat.extend_from_slice(rows(slot)?);
            }
            let current = Snapshot::from_flat(self.space(), flat)?;
            let delta = SealDelta {
                fed,
                changed: (0..n as u32).map(DeviceId).collect(),
                cells: Vec::new(),
                rekeyed: Vec::new(),
                unplaced,
            };
            return Ok((current, delta));
        };
        let mut current = match spare {
            // Bring the buffer from S_{k-2} to S_{k-1}: only the rows that
            // changed last epoch differ.
            Some(mut buf) => {
                for &id in &changed {
                    buf.copy_row_from(prev, id);
                }
                buf
            }
            // The first seal after the first one, a restore or a churn:
            // one full copy, then the spare ping-pong makes every later
            // seal copy-free.
            None => prev.clone(),
        };
        let geometry = self.geometry();
        let walked = if default_row.is_some() { n } else { fed.len() };
        changed.clear();
        changed.reserve(walked);
        let mut cells: Vec<u32> = Vec::with_capacity(2 * walked);
        let mut rekeyed: Vec<DeviceId> = Vec::new();
        let mut write = |slot: usize| -> Result<(), MonitorError> {
            let id = DeviceId(slot as u32);
            let row = rows(slot)?;
            let before = prev.try_position(id)?;
            if row == before && unplaced.binary_search(&id).is_err() {
                return Ok(());
            }
            current.set_row_unchecked(id, row)?;
            let (from, to, moving) = geometry.key(before, row);
            changed.push(id);
            cells.push(from);
            cells.push(to);
            if from != to || moving {
                rekeyed.push(id);
            }
            Ok(())
        };
        if default_row.is_some() {
            for slot in 0..n {
                write(slot)?;
            }
        } else {
            for &slot in &fed {
                write(slot as usize)?;
            }
        }
        let delta = SealDelta {
            fed,
            changed,
            cells,
            rekeyed,
            unplaced,
        };
        Ok((current, delta))
    }
}

impl From<IngestError> for MonitorError {
    fn from(e: IngestError) -> Self {
        MonitorError::Ingest(e)
    }
}

#[cfg(test)]
mod tests {
    use super::super::builder::MonitorBuilder;
    use super::*;
    use anomaly_qos::QosError;

    #[test]
    fn ingest_validates_key_width_and_range() {
        let mut m = MonitorBuilder::new().fleet(2).build().unwrap();
        assert_eq!(
            m.ingest(9u64, vec![0.5]).unwrap_err(),
            MonitorError::UnknownDevice { key: DeviceKey(9) }
        );
        assert_eq!(
            m.ingest(0u64, vec![0.5, 0.5]).unwrap_err(),
            MonitorError::ServiceMismatch {
                expected: 1,
                actual: 2,
            }
        );
        assert!(matches!(
            m.ingest(0u64, vec![1.5]).unwrap_err(),
            MonitorError::Qos(QosError::CoordinateOutOfRange { .. })
        ));
        assert_eq!(m.pending_updates(), 0);
    }

    #[test]
    fn duplicates_are_last_write_wins() {
        let mut m = MonitorBuilder::new().fleet(2).build().unwrap();
        m.ingest(0u64, vec![0.1]).unwrap();
        m.ingest(0u64, vec![0.9]).unwrap();
        m.ingest(1u64, vec![0.9]).unwrap();
        assert_eq!(m.pending_updates(), 2);
        assert!(m.silent_keys().is_empty());
        let r = m.seal().unwrap();
        assert_eq!(r.population(), 2);
        assert_eq!(m.last_snapshot().unwrap().position(DeviceId(0)), &[0.9]);
    }

    #[test]
    fn reject_policy_names_the_silent_devices_and_keeps_the_epoch_open() {
        let mut m = MonitorBuilder::new().fleet(3).build().unwrap();
        m.ingest(1u64, vec![0.9]).unwrap();
        assert_eq!(m.silent_keys(), vec![DeviceKey(0), DeviceKey(2)]);
        let err = m.seal().unwrap_err();
        assert_eq!(
            err,
            MonitorError::Ingest(IngestError::MissingDevices {
                keys: vec![DeviceKey(0), DeviceKey(2)],
            })
        );
        // The epoch survives the failure: complete it and seal again.
        assert_eq!(m.pending_updates(), 1);
        m.ingest(0u64, vec![0.9]).unwrap();
        m.ingest(2u64, vec![0.9]).unwrap();
        assert!(m.seal().is_ok());
        assert_eq!(m.instant(), 1);
    }

    #[test]
    fn discard_epoch_drops_pending_updates() {
        let mut m = MonitorBuilder::new().fleet(2).build().unwrap();
        m.ingest(0u64, vec![0.9]).unwrap();
        m.discard_epoch();
        assert_eq!(m.pending_updates(), 0);
        assert_eq!(m.silent_keys().len(), 2);
    }

    #[test]
    fn carry_forward_bridges_within_max_age() {
        let mut m = MonitorBuilder::new()
            .staleness(StalenessPolicy::CarryForward { max_age: 2 })
            .fleet(2)
            .build()
            .unwrap();
        m.ingest_many([(0u64, vec![0.9]), (1u64, vec![0.8])])
            .unwrap();
        m.seal().unwrap();
        // Device 1 misses two consecutive epochs: bridged both times.
        for _ in 0..2 {
            m.ingest(0u64, vec![0.9]).unwrap();
            let r = m.seal().unwrap();
            assert_eq!(r.stragglers(), &[DeviceKey(1)]);
            assert_eq!(m.last_snapshot().unwrap().position(DeviceId(1)), &[0.8]);
        }
        // The third consecutive miss exceeds max_age.
        m.ingest(0u64, vec![0.9]).unwrap();
        let err = m.seal().unwrap_err();
        assert_eq!(
            err,
            MonitorError::Ingest(IngestError::StaleDevices {
                keys: vec![DeviceKey(1)],
                max_age: 2,
            })
        );
        // Reporting again resets the age and the epoch seals.
        m.ingest(1u64, vec![0.8]).unwrap();
        let r = m.seal().unwrap();
        assert!(r.stragglers().is_empty());
    }

    #[test]
    fn carry_forward_cannot_bridge_a_device_that_never_reported() {
        let mut m = MonitorBuilder::new()
            .staleness(StalenessPolicy::CarryForward { max_age: 10 })
            .fleet(2)
            .build()
            .unwrap();
        // First epoch: there is nothing to carry.
        m.ingest(0u64, vec![0.9]).unwrap();
        assert_eq!(
            m.seal().unwrap_err(),
            MonitorError::Ingest(IngestError::MissingDevices {
                keys: vec![DeviceKey(1)],
            })
        );
        m.ingest(1u64, vec![0.9]).unwrap();
        m.seal().unwrap();
        // A fresh joiner has no previous position either.
        m.join(7u64).unwrap();
        m.ingest(0u64, vec![0.9]).unwrap();
        m.ingest(1u64, vec![0.9]).unwrap();
        assert_eq!(
            m.seal().unwrap_err(),
            MonitorError::Ingest(IngestError::MissingDevices {
                keys: vec![DeviceKey(7)],
            })
        );
    }

    #[test]
    fn default_policy_fills_any_silence() {
        let mut m = MonitorBuilder::new()
            .staleness(StalenessPolicy::Default(vec![0.5]))
            .fleet(2)
            .build()
            .unwrap();
        // Even the very first epoch seals with no updates at all.
        let r = m.seal().unwrap();
        assert_eq!(r.stragglers(), &[DeviceKey(0), DeviceKey(1)]);
        assert_eq!(m.last_snapshot().unwrap().position(DeviceId(0)), &[0.5]);
        m.ingest(0u64, vec![0.9]).unwrap();
        let r = m.seal().unwrap();
        assert_eq!(r.stragglers(), &[DeviceKey(1)]);
        assert_eq!(r.summary().stragglers, 1);
    }

    #[test]
    fn seal_errors_render_capped_key_lists() {
        let keys: Vec<DeviceKey> = (0..12).map(DeviceKey).collect();
        let e = IngestError::MissingDevices { keys: keys.clone() };
        let s = e.to_string();
        assert!(s.contains("#0"), "{s}");
        assert!(s.contains("(12 total)"), "{s}");
        let e = IngestError::StaleDevices {
            keys: keys[..2].to_vec(),
            max_age: 3,
        };
        assert!(e.to_string().contains("bound of 3"), "{}", e);
    }

    #[test]
    fn churned_epochs_seal_through_the_delta_path() {
        let mut m = MonitorBuilder::new()
            .staleness(StalenessPolicy::CarryForward { max_age: 4 })
            .fleet(3)
            .build()
            .unwrap();
        for _ in 0..3 {
            m.ingest_many((0u64..3).map(|k| (k, vec![0.9]))).unwrap();
            m.seal().unwrap();
        }
        // Device 2 leaves, device 9 joins; 0 goes silent (carried), the
        // joiner must report.
        m.leave(2u64).unwrap();
        m.join(9u64).unwrap();
        m.ingest(1u64, vec![0.9]).unwrap();
        m.ingest(9u64, vec![0.9]).unwrap();
        let r = m.seal().unwrap();
        assert_eq!(r.stragglers(), &[DeviceKey(0)]);
        assert_eq!(r.population(), 3);
    }
}
