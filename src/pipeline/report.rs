use super::events::{EventDelta, EventDeltaKind};
use super::key::DeviceKey;
use anomaly_core::{AnomalyClass, Characterization};
use anomaly_qos::DeviceId;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Backing store of [`Report::stragglers`].
///
/// The steady-state carry-forward seal bridges every silent device, which
/// in a large, mostly-quiet fleet is nearly the whole population — eagerly
/// copying those keys into the report would be the seal's only remaining
/// O(population) step. Instead the seal records the *runs* of consecutive
/// silent dense slots plus a shared handle on the epoch's key order
/// (O(silent runs), i.e. O(reporting devices + 1)), and the key list is
/// materialized once, lazily, if a consumer actually asks for it.
#[derive(Debug, Clone)]
pub(super) enum Stragglers {
    /// Explicit key list (policies that resolve silent devices one at a
    /// time).
    Eager(Vec<DeviceKey>),
    /// Run-length form over the epoch's dense key order.
    Lazy {
        /// Half-open `[lo, hi)` dense-slot ranges of silent devices, in
        /// ascending order.
        runs: Vec<(u32, u32)>,
        /// The epoch's dense key order, shared with the monitor (cloned
        /// copy-on-write only if membership churns while this report is
        /// still alive).
        keys: Arc<Vec<DeviceKey>>,
        /// The materialized key list, built on first access.
        cache: OnceLock<Vec<DeviceKey>>,
    },
}

impl Stragglers {
    pub(super) fn len(&self) -> usize {
        match self {
            Stragglers::Eager(v) => v.len(),
            Stragglers::Lazy { runs, .. } => runs
                .iter()
                .map(|&(lo, hi)| hi.saturating_sub(lo) as usize)
                .sum(),
        }
    }

    pub(super) fn as_slice(&self) -> &[DeviceKey] {
        match self {
            Stragglers::Eager(v) => v,
            Stragglers::Lazy { runs, keys, cache } => cache.get_or_init(|| {
                let mut out: Vec<DeviceKey> = Vec::with_capacity(self.len());
                for &(lo, hi) in runs {
                    if let Some(run) = keys.get(lo as usize..hi as usize) {
                        out.extend_from_slice(run);
                    }
                }
                out
            }),
        }
    }
}

impl PartialEq for Stragglers {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// One flagged device's verdict within a [`Report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceVerdict {
    /// Stable external key of the device.
    pub key: DeviceKey,
    /// Dense id of the device *at this instant* (shifts under churn; use
    /// [`DeviceVerdict::key`] for anything that outlives the report).
    pub id: DeviceId,
    /// The local characterization: class, deciding rule, operation costs.
    pub characterization: Characterization,
    /// The detector's anomaly score for this instant (comparable across
    /// instants of the same device only).
    pub score: f64,
    /// Magnitude of the device's QoS motion over `[k−1, k]`, measured with
    /// the monitor's configured norm.
    pub displacement: f64,
    /// Devices present at both instants — flagged or not — within `2r` of
    /// this device at both instants: the full-population neighbourhood `N(j)`
    /// of Algorithm 2, the context an operator dashboard shows next to the
    /// verdict. (The characterization itself only consults the flagged
    /// subset; a large vicinity with few flagged members is exactly what
    /// distinguishes a lone fault in a busy region.)
    pub vicinity: usize,
    /// Spatial component of the verdict: the connected component of
    /// overlapping maximal τ-dense motions the device belongs to this
    /// epoch ([`ComponentPartition`](anomaly_core::ComponentPartition)),
    /// or `None` when the device is in no dense motion (every isolated
    /// device; massive devices always carry one). Ids are **epoch-local**
    /// ranks — comparable only between verdicts of the same report.
    pub component: Option<u32>,
}

impl DeviceVerdict {
    /// The anomaly class.
    pub fn class(&self) -> AnomalyClass {
        self.characterization.class()
    }
}

/// Per-instant monitoring result: everything the paper's pipeline can say
/// about the interval `[k−1, k]`.
///
/// Construction happens inside [`Monitor::seal`](super::Monitor::seal) (and
/// its one-shot form [`Monitor::observe`](super::Monitor::observe));
/// consumers read it through the per-class iterators and counters, or ship
/// [`Report::summary`] to a metrics sink.
///
/// The struct is `#[non_exhaustive]`: future epochs of the streaming API
/// may attach more metadata without a breaking change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Report {
    pub(super) instant: u64,
    pub(super) population: usize,
    pub(super) verdicts: Vec<DeviceVerdict>,
    pub(super) warming: Vec<DeviceKey>,
    /// Devices whose row this epoch was synthesized by the staleness
    /// policy instead of a fresh measurement.
    pub(super) stragglers: Stragglers,
    pub(super) detection: Duration,
    pub(super) characterization: Duration,
    /// What the event tracker did with this epoch's verdicts.
    pub(super) event_deltas: Vec<EventDelta>,
    /// Anomaly events still open after this epoch.
    pub(super) events_open: usize,
}

impl Report {
    /// Sampling instant `k` (0 = the first snapshot the monitor ever saw).
    pub fn instant(&self) -> u64 {
        self.instant
    }

    /// Fleet size when the snapshot was taken.
    pub fn population(&self) -> usize {
        self.population
    }

    /// Verdict of every characterized device of `A_k`, sorted by dense id.
    pub fn verdicts(&self) -> &[DeviceVerdict] {
        &self.verdicts
    }

    /// Devices whose detector flagged them but which had no position at
    /// `k−1` (fresh joiners): no interval, no verdict yet.
    pub fn warming(&self) -> &[DeviceKey] {
        &self.warming
    }

    /// Devices that missed the sealed epoch and had their row synthesized
    /// by the configured [`StalenessPolicy`](super::StalenessPolicy)
    /// (carried forward from the previous snapshot, or filled with the
    /// default row), in dense-id order. Always empty on the batch
    /// [`observe`](super::Monitor::observe) path, which supplies every row.
    ///
    /// The key list is materialized lazily on first access: sealing only
    /// records the silent dense-slot runs, so a consumer that never reads
    /// this list (or only needs [`Report::straggler_count`]) never pays
    /// for building it.
    pub fn stragglers(&self) -> &[DeviceKey] {
        self.stragglers.as_slice()
    }

    /// Number of devices bridged by the staleness policy this epoch,
    /// without materializing the key list.
    pub fn straggler_count(&self) -> usize {
        self.stragglers.len()
    }

    /// True when nothing was flagged and nothing is warming.
    pub fn is_quiet(&self) -> bool {
        self.verdicts.is_empty() && self.warming.is_empty()
    }

    /// The class of one device by stable key, if it was characterized.
    pub fn class_of(&self, key: DeviceKey) -> Option<AnomalyClass> {
        self.verdicts
            .iter()
            .find(|v| v.key == key)
            .map(DeviceVerdict::class)
    }

    /// The class of one device by dense id, if it was characterized.
    pub fn class_of_id(&self, id: DeviceId) -> Option<AnomalyClass> {
        self.verdicts
            .iter()
            .find(|v| v.id == id)
            .map(DeviceVerdict::class)
    }

    /// Verdicts of one class.
    pub fn of_class(&self, class: AnomalyClass) -> impl Iterator<Item = &DeviceVerdict> {
        self.verdicts.iter().filter(move |v| v.class() == class)
    }

    /// Devices certainly hit by an isolated anomaly.
    pub fn isolated(&self) -> impl Iterator<Item = &DeviceVerdict> {
        self.of_class(AnomalyClass::Isolated)
    }

    /// Devices certainly hit by a massive anomaly.
    pub fn massive(&self) -> impl Iterator<Item = &DeviceVerdict> {
        self.of_class(AnomalyClass::Massive)
    }

    /// Devices in an unresolved configuration (defer and re-sample).
    pub fn unresolved(&self) -> impl Iterator<Item = &DeviceVerdict> {
        self.of_class(AnomalyClass::Unresolved)
    }

    /// Number of verdicts of one class.
    pub fn count_of(&self, class: AnomalyClass) -> usize {
        self.of_class(class).count()
    }

    /// Devices that should notify the operator (isolated anomalies), by
    /// stable key.
    pub fn operator_notifications(&self) -> Vec<DeviceKey> {
        self.isolated().map(|v| v.key).collect()
    }

    /// True when a network-level (massive) event was observed.
    pub fn has_network_event(&self) -> bool {
        self.verdicts
            .iter()
            .any(|v| v.class() == AnomalyClass::Massive)
    }

    /// Number of distinct spatial components among this epoch's verdicts —
    /// the count of connected dense-motion blobs, i.e. how many separate
    /// collective anomalies the epoch shows (0 when every verdict is
    /// isolated).
    pub fn components(&self) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for v in &self.verdicts {
            if let Some(c) = v.component {
                seen.insert(c);
            }
        }
        seen.len()
    }

    /// What the event tracker did with this epoch's verdicts: events
    /// opened, updated (with any class transition), and closed, in
    /// ascending event-id order. Sufficient to reconstruct every event's
    /// evolution from the report stream alone — see
    /// [`EventTracker`](super::EventTracker) for the correlation rules and
    /// [`Monitor::events`](super::Monitor::events) for the standing state.
    pub fn event_deltas(&self) -> &[EventDelta] {
        &self.event_deltas
    }

    /// Anomaly events still open after this epoch.
    pub fn open_events(&self) -> usize {
        self.events_open
    }

    /// Wall-clock time spent feeding the error-detection functions.
    pub fn detection_time(&self) -> Duration {
        self.detection
    }

    /// Wall-clock time spent on the local characterization (zero on quiet
    /// or warm-up instants).
    pub fn characterization_time(&self) -> Duration {
        self.characterization
    }

    /// Condensed, serializable form for logs and metric sinks.
    pub fn summary(&self) -> ReportSummary {
        ReportSummary {
            instant: self.instant,
            population: self.population,
            abnormal: self.verdicts.len(),
            isolated: self.count_of(AnomalyClass::Isolated),
            massive: self.count_of(AnomalyClass::Massive),
            unresolved: self.count_of(AnomalyClass::Unresolved),
            warming: self.warming.len(),
            stragglers: self.stragglers.len(),
            components: self.components(),
            events_open: self.events_open,
            events_opened: self
                .event_deltas
                .iter()
                .filter(|d| d.kind == EventDeltaKind::Opened)
                .count(),
            events_closed: self
                .event_deltas
                .iter()
                .filter(|d| d.kind == EventDeltaKind::Closed)
                .count(),
            detection_micros: self.detection.as_micros() as u64,
            characterization_micros: self.characterization.as_micros() as u64,
        }
    }
}

/// Flat per-instant counters, ready for a metrics pipeline.
///
/// `#[non_exhaustive]`: new counters (like the epoch metadata added with
/// the streaming ingestion API) may appear in minor releases. Construct it
/// through [`Report::summary`] and read fields directly; the JSON rendering
/// carries a schema version (`"v"`) so sinks can dispatch on shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ReportSummary {
    /// Sampling instant `k`.
    pub instant: u64,
    /// Fleet size at `k`.
    pub population: usize,
    /// `|A_k|` among devices with a full interval.
    pub abnormal: usize,
    /// Isolated verdicts.
    pub isolated: usize,
    /// Massive verdicts.
    pub massive: usize,
    /// Unresolved verdicts.
    pub unresolved: usize,
    /// Flagged devices still warming (no interval yet).
    pub warming: usize,
    /// Devices bridged by the staleness policy this epoch.
    pub stragglers: usize,
    /// Distinct spatial components among the epoch's verdicts (connected
    /// blobs of overlapping dense motions; 0 when nothing is collective).
    pub components: usize,
    /// Anomaly events still open after this epoch.
    pub events_open: usize,
    /// Events opened this epoch.
    pub events_opened: usize,
    /// Events closed this epoch.
    pub events_closed: usize,
    /// Detection wall-clock, microseconds.
    pub detection_micros: u64,
    /// Characterization wall-clock, microseconds.
    pub characterization_micros: u64,
}

impl ReportSummary {
    /// Version of the JSON schema [`ReportSummary::to_json`] emits. Bumped
    /// whenever a key is added, so metric sinks can dispatch on shape
    /// instead of breaking. Version 2 added `stragglers` (streaming epoch
    /// metadata); version 3 added the event-tracker counters
    /// (`events_open`, `events_opened`, `events_closed`); version 4 added
    /// `components` (distinct spatial dense-motion components this epoch).
    pub const JSON_VERSION: u32 = 4;

    /// JSON object rendering (no external dependencies; keys are stable
    /// within one [`ReportSummary::JSON_VERSION`], and new versions only
    /// add keys).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"v\":{},\"instant\":{},\"population\":{},\"abnormal\":{},",
                "\"isolated\":{},\"massive\":{},\"unresolved\":{},\"warming\":{},",
                "\"stragglers\":{},\"components\":{},",
                "\"events_open\":{},\"events_opened\":{},\"events_closed\":{},",
                "\"detection_micros\":{},\"characterization_micros\":{}}}"
            ),
            Self::JSON_VERSION,
            self.instant,
            self.population,
            self.abnormal,
            self.isolated,
            self.massive,
            self.unresolved,
            self.warming,
            self.stragglers,
            self.components,
            self.events_open,
            self.events_opened,
            self.events_closed,
            self.detection_micros,
            self.characterization_micros,
        )
    }
}

impl fmt::Display for ReportSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "k={} n={} abnormal={} (isolated {}, massive {}, unresolved {}, warming {}, stragglers {}) events={}",
            self.instant,
            self.population,
            self.abnormal,
            self.isolated,
            self.massive,
            self.unresolved,
            self.warming,
            self.stragglers,
            self.events_open,
        )
    }
}
