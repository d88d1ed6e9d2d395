//! Anomaly event tracking: correlating per-epoch verdicts into events
//! with a lifecycle.
//!
//! The paper's monitor classifies each sampling instant independently, but
//! operators act on *anomalies over time*: a DSLAM outage is one event
//! spanning many epochs, not `k` disjoint "massive" verdicts. The
//! [`EventTracker`] sits behind every sealed epoch and folds the stream of
//! [`Report`]s into [`AnomalyEvent`]s:
//!
//! ```text
//!   epoch:      k        k+1       k+2       k+3        k+4
//!   verdicts:  {a,b,c}M  {a,b,c}M  {a,b}U    —          —
//!               │         │         │         │          │
//!               ▼         ▼         ▼         ▼          ▼
//!   event #0:  Opened ─▶ Updated ─▶ Updated ─▶ (idle) ─▶ Closed
//!              onset=k   active    unresolved  gap 1     end=k+3
//!                                  absorbed    ≤ debounce
//! ```
//!
//! * **Onset** — an event opens at the first epoch one of its devices gets
//!   a verdict. Unclaimed *massive* verdicts of one epoch open (or join)
//!   one shared event **per spatial component** — the connected component
//!   of overlapping dense motions carried by the verdict
//!   ([`DeviceVerdict::component`](super::DeviceVerdict::component)) — so
//!   two simultaneous, spatially disjoint outages open as two events with
//!   independent lifecycles. An unclaimed *unresolved* verdict whose
//!   component carries unclaimed massive verdicts this same epoch folds
//!   in with them — the local test abstained, the shared dense motion
//!   resolves it spatially. Each unclaimed *isolated* verdict (and
//!   unresolved verdicts without such massive company) opens its own.
//! * **Continuation** — an event stays active while any device it has ever
//!   affected keeps receiving verdicts (or is re-flagged while warming
//!   after a re-join). Newly flagged massive devices join the oldest
//!   continuing event that has a device in the *same spatial component*
//!   this epoch, so an outage growing within one dense blob stays one
//!   event — even when it grows out of a fault first seen as isolated —
//!   while a spatially unrelated onset opens separately. When no component
//!   information is available (legacy feeds), the pre-spatial rule
//!   applies: join the oldest continuing event that is massive this epoch.
//! * **Class transitions** — the event's class follows its *definite*
//!   verdicts (massive wins over isolated when both are present).
//!   Unresolved verdicts and warm-up epochs never transition the class:
//!   they are absorbed, exactly like the paper's per-instant abstention.
//! * **End** — an event with no verdicts for more than
//!   [`debounce`](super::MonitorBuilder::debounce) consecutive epochs
//!   closes. The bound is **inclusive**: the event absorbs gaps of up to
//!   exactly `debounce` quiet epochs and the closing decision lands on
//!   quiet epoch `debounce + 1` (so `debounce = 0` closes at the first
//!   quiet epoch). [`AnomalyEvent::end`] is the first epoch the event was
//!   no longer observed — always `last_active + 1`, regardless of when
//!   the closing decision lands.
//!
//! Epoch-coincident massive onsets are separated by the spatial component
//! the characterization attaches to every verdict: concurrent outages in
//! different dense-motion blobs open as distinct events even when they
//! land on the exact same sampling instant. Onsets in different epochs
//! stay separate as long as their device sets are disjoint.
//!
//! Everything here is deterministic: events are processed in id order,
//! devices in key order, and the tracker consumes only the (already
//! deterministic) report — so event streams are byte-identical between a
//! monitor serving cached verdicts and one recomputing every seal.

use super::key::DeviceKey;
use super::report::{Report, ReportSummary};
use anomaly_core::AnomalyClass;
use std::collections::VecDeque;

/// Stable identity of one tracked anomaly event, assigned in onset order
/// and never reused within a monitor's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// One definite class change in an event's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassTransition {
    /// Epoch the transition was observed at.
    pub epoch: u64,
    /// Class before.
    pub from: AnomalyClass,
    /// Class after.
    pub to: AnomalyClass,
}

/// A correlated anomaly spanning one or more epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyEvent {
    /// The event's id (onset order).
    pub id: EventId,
    /// First epoch a device of this event received a verdict.
    pub onset: u64,
    /// Most recent epoch with a verdict.
    pub last_active: u64,
    /// First epoch the event was no longer observed — `None` while open.
    /// The closing *decision* happens once the gap exceeds the debounce
    /// bound, but `end` always equals `last_active + 1`.
    pub end: Option<u64>,
    /// Current class (the last definite class observed; events opened by
    /// unresolved verdicts stay [`AnomalyClass::Unresolved`] until a
    /// definite epoch arrives).
    pub class: AnomalyClass,
    /// Every definite class change, in epoch order.
    pub transitions: Vec<ClassTransition>,
    /// Every device ever affected, sorted by key.
    pub devices: Vec<DeviceKey>,
    /// Devices active at [`AnomalyEvent::last_active`] — with a verdict,
    /// or absorbed warming activity after a leave/re-join — sorted.
    pub active: Vec<DeviceKey>,
    /// Largest per-epoch active set observed.
    pub peak_active: usize,
    /// Number of epochs with activity (a verdict or absorbed warming on
    /// some device of the event); quiet gap epochs are excluded.
    pub epochs_active: u64,
    /// Spatial component of the event's active cohort at the most recent
    /// epoch any active device carried one (the smallest such component,
    /// for determinism). `None` for events whose devices were never in a
    /// dense motion (isolated faults) or on legacy feeds without spatial
    /// information. Component ids are epoch-local ranks: they identify
    /// which blob the event belongs to *within one epoch's partition* and
    /// must not be compared across distant epochs.
    pub component: Option<u32>,
}

impl AnomalyEvent {
    /// True while the event has not been closed.
    pub fn is_open(&self) -> bool {
        self.end.is_none()
    }

    /// Observed lifetime in epochs: `end - onset` for closed events, up to
    /// `last_active` (inclusive) for open ones.
    pub fn span(&self) -> u64 {
        self.end.unwrap_or(self.last_active + 1) - self.onset
    }
}

/// What happened to one event during one sealed epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventDeltaKind {
    /// The event did not exist before this epoch.
    Opened,
    /// The event existed and received verdicts this epoch.
    Updated,
    /// The event's quiet gap exceeded the debounce bound this epoch.
    Closed,
}

/// Per-epoch change record for one event — the incremental feed
/// [`Report::event_deltas`] exposes, sufficient to reconstruct every
/// event's evolution without polling [`Monitor::events`](super::Monitor::events).
#[derive(Debug, Clone, PartialEq)]
pub struct EventDelta {
    /// The event.
    pub id: EventId,
    /// Opened, updated, or closed.
    pub kind: EventDeltaKind,
    /// The event's class after this epoch.
    pub class: AnomalyClass,
    /// The definite class change observed this epoch, if any.
    pub transition: Option<ClassTransition>,
    /// Devices active this epoch — verdicts plus absorbed warming
    /// activity (0 for [`EventDeltaKind::Closed`]).
    pub active: usize,
    /// Devices newly affected this epoch, sorted (the full set on
    /// [`EventDeltaKind::Opened`]).
    pub joined: Vec<DeviceKey>,
    /// Cumulative affected-device count after this epoch.
    pub total: usize,
    /// The event's spatial component after this epoch (see
    /// [`AnomalyEvent::component`]).
    pub component: Option<u32>,
}

/// Folds the per-epoch [`Report`] stream into [`AnomalyEvent`]s and keeps a
/// bounded window of recent history.
///
/// Owned by the [`Monitor`](super::Monitor) and updated at every seal;
/// read it through [`Monitor::events`](super::Monitor::events).
#[derive(Debug)]
pub struct EventTracker {
    /// Ring capacity for report summaries and recently closed events.
    window: usize,
    /// Quiet epochs an open event absorbs before closing.
    debounce: u64,
    next_id: u64,
    /// Open events, ascending id.
    open: Vec<AnomalyEvent>,
    /// Recently closed events, oldest first, bounded by `window`.
    closed: VecDeque<AnomalyEvent>,
    /// Summaries of the last `window` sealed epochs, oldest first.
    history: VecDeque<ReportSummary>,
    opened_total: u64,
    closed_total: u64,
}

impl EventTracker {
    pub(super) fn new(window: usize, debounce: u64) -> Self {
        EventTracker {
            window,
            debounce,
            next_id: 0,
            open: Vec::new(),
            closed: VecDeque::new(),
            history: VecDeque::new(),
            opened_total: 0,
            closed_total: 0,
        }
    }

    /// Rebuilds a tracker from checkpointed parts. The rings are
    /// re-bounded to `window` (a checkpoint written under a larger window
    /// keeps only its newest entries).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn from_state(
        window: usize,
        debounce: u64,
        next_id: u64,
        open: Vec<AnomalyEvent>,
        closed: Vec<AnomalyEvent>,
        history: Vec<ReportSummary>,
        opened_total: u64,
        closed_total: u64,
    ) -> Self {
        let mut closed: VecDeque<AnomalyEvent> = closed.into();
        while closed.len() > window {
            closed.pop_front();
        }
        let mut history: VecDeque<ReportSummary> = history.into();
        while history.len() > window {
            history.pop_front();
        }
        EventTracker {
            window,
            debounce,
            next_id,
            open,
            closed,
            history,
            opened_total,
            closed_total,
        }
    }

    /// The next event id to be assigned (checkpoint export — ids are never
    /// reused across a restore).
    pub(super) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The history window (ring capacity), as configured by
    /// [`MonitorBuilder::history`](super::MonitorBuilder::history).
    pub fn window(&self) -> usize {
        self.window
    }

    /// The debounce bound, as configured by
    /// [`MonitorBuilder::debounce`](super::MonitorBuilder::debounce).
    pub fn debounce(&self) -> u64 {
        self.debounce
    }

    /// Open events, ascending id.
    pub fn open(&self) -> &[AnomalyEvent] {
        &self.open
    }

    /// The most recently closed events (up to the history window), oldest
    /// first.
    pub fn recently_closed(&self) -> impl Iterator<Item = &AnomalyEvent> {
        self.closed.iter()
    }

    /// Summaries of the last sealed epochs (up to the history window),
    /// oldest first.
    pub fn history(&self) -> impl Iterator<Item = &ReportSummary> {
        self.history.iter()
    }

    /// Events opened over the monitor's lifetime.
    pub fn opened_total(&self) -> u64 {
        self.opened_total
    }

    /// Events closed over the monitor's lifetime.
    pub fn closed_total(&self) -> u64 {
        self.closed_total
    }

    /// One event by id, open or recently closed.
    pub fn get(&self, id: EventId) -> Option<&AnomalyEvent> {
        self.open
            .iter()
            .find(|e| e.id == id)
            .or_else(|| self.closed.iter().find(|e| e.id == id))
    }

    /// Clears all tracker state, closing every still-open event first and
    /// returning the synthetic [`EventDeltaKind::Closed`] deltas in
    /// ascending id order — a delta-feed consumer must see every opened
    /// event close, or it leaks open alerts forever.
    ///
    /// The synthetic closes look exactly like debounce closes: `end` is
    /// `last_active + 1`, `active` is 0, and `total` is the cumulative
    /// affected-device count. Totals and ids survive a reset: event ids
    /// are never reused.
    pub(super) fn reset(&mut self) -> Vec<EventDelta> {
        let deltas: Vec<EventDelta> = self
            .open
            .iter()
            .map(|event| EventDelta {
                id: event.id,
                kind: EventDeltaKind::Closed,
                class: event.class,
                transition: None,
                active: 0,
                joined: Vec::new(),
                total: event.devices.len(),
                component: event.component,
            })
            .collect();
        self.closed_total += self.open.len() as u64;
        self.open.clear();
        self.closed.clear();
        self.history.clear();
        deltas
    }

    pub(super) fn push_history(&mut self, summary: ReportSummary) {
        if self.window == 0 {
            return;
        }
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(summary);
    }

    /// Folds one sealed epoch's report in, returning the per-event deltas
    /// in ascending id order.
    pub(super) fn observe(&mut self, report: &Report) -> Vec<EventDelta> {
        let definite: Vec<(DeviceKey, AnomalyClass, Option<u32>)> = report
            .verdicts()
            .iter()
            .map(|v| (v.key, v.class(), v.component))
            .collect();
        self.fold(report.instant(), definite, report.warming())
    }

    /// The correlation core, on bare per-device activity: `definite` lists
    /// every characterized device's class and spatial component, `warming`
    /// the flagged devices without an interval (activity without a class:
    /// they can keep an event alive after a leave/re-join, never start
    /// one).
    fn fold(
        &mut self,
        k: u64,
        mut definite: Vec<(DeviceKey, AnomalyClass, Option<u32>)>,
        warming: &[DeviceKey],
    ) -> Vec<EventDelta> {
        definite.sort_unstable_by_key(|&(key, _, _)| key);
        let lookup = |key: DeviceKey| -> Option<(AnomalyClass, Option<u32>)> {
            definite
                .binary_search_by_key(&key, |&(k, _, _)| k)
                .ok()
                .and_then(|i| definite.get(i))
                .map(|&(_, class, component)| (class, component))
        };
        let class_of = |key: DeviceKey| -> Option<AnomalyClass> { lookup(key).map(|(c, _)| c) };
        let component_of = |key: DeviceKey| -> Option<u32> { lookup(key).and_then(|(_, c)| c) };
        let mut active_keys: Vec<DeviceKey> = definite.iter().map(|&(key, _, _)| key).collect();
        for &key in warming {
            if let Err(pos) = active_keys.binary_search(&key) {
                active_keys.insert(pos, key);
            }
        }

        // Continuation: each active device belongs to the oldest open event
        // that has ever affected it.
        let mut claimed = vec![false; active_keys.len()];
        let mut continuing: Vec<(usize, Vec<DeviceKey>)> = Vec::new(); // (open index, active overlap)
        for (idx, event) in self.open.iter().enumerate() {
            let mut overlap = Vec::new();
            for (&key, taken) in active_keys.iter().zip(claimed.iter_mut()) {
                if !*taken && event.devices.binary_search(&key).is_ok() {
                    *taken = true;
                    overlap.push(key);
                }
            }
            if !overlap.is_empty() {
                continuing.push((idx, overlap));
            }
        }

        // Unclaimed definite verdicts open or join events. Warming devices
        // never spawn: a fresh joiner that flags has no interval yet.
        // Massive verdicts group by spatial component — one group per
        // connected dense-motion blob, in order of smallest member key —
        // so epoch-coincident disjoint outages never share an event.
        let mut massive_groups: Vec<(Option<u32>, Vec<DeviceKey>)> = Vec::new();
        let mut new_single: Vec<(DeviceKey, AnomalyClass, Option<u32>)> = Vec::new();
        for (&key, &taken) in active_keys.iter().zip(claimed.iter()) {
            if taken {
                continue;
            }
            match lookup(key) {
                Some((AnomalyClass::Massive, component)) => {
                    match massive_groups.iter_mut().find(|(c, _)| *c == component) {
                        Some((_, group)) => group.push(key),
                        None => massive_groups.push((component, vec![key])),
                    }
                }
                Some((class, component)) => new_single.push((key, class, component)),
                None => {} // warming only
            }
        }

        // An unresolved verdict inside a component that carries unclaimed
        // massive evidence this epoch is part of that component's
        // anomaly: the per-device test abstained (the paper's per-instant
        // "cannot resolve"), but the shared dense motion ties the device
        // to the blob's massive verdicts, so it folds into the
        // component's massive group — and follows it, whether the group
        // opens a new event or grows a continuing one — instead of
        // opening a singleton. Isolated verdicts are never folded:
        // isolated is a definite ruling that the device does not co-move
        // with the blob. Unresolved verdicts in all-unresolved or
        // component-free neighbourhoods, or in components whose massive
        // devices are all quietly continuing their event, keep opening
        // their own events.
        new_single.retain(|&(key, class, component)| {
            if class != AnomalyClass::Unresolved {
                return true;
            }
            let group =
                component.and_then(|c| massive_groups.iter_mut().find(|(gc, _)| *gc == Some(c)));
            match group {
                Some((_, group)) => {
                    group.push(key);
                    false
                }
                None => true,
            }
        });
        for (_, group) in &mut massive_groups {
            group.sort_unstable();
        }

        // A growing massive event absorbs the new devices instead of
        // fragmenting — but only within one spatial blob: a group with a
        // known component joins the oldest continuing event that has an
        // active device in the *same* component this epoch (an isolated
        // fault swept into a network incident transitions and grows in the
        // same epoch; the shared dense motion is what links them). A
        // spatially unrelated concurrent onset matches no continuing
        // component and opens its own event below. Groups without spatial
        // information (legacy feeds) fall back to the pre-spatial rule:
        // the oldest continuing event that is massive this epoch, by
        // standing class or by its continuing devices' verdicts.
        massive_groups.retain_mut(|(component, group)| {
            let open = &self.open;
            let absorbed = continuing
                .iter_mut()
                .find(|(idx, overlap)| match component {
                    Some(c) => overlap.iter().any(|&key| component_of(key) == Some(*c)),
                    None => {
                        open.get(*idx)
                            .is_some_and(|e| e.class == AnomalyClass::Massive)
                            || overlap
                                .iter()
                                .any(|&key| class_of(key) == Some(AnomalyClass::Massive))
                    }
                });
            match absorbed {
                Some((_, overlap)) => {
                    overlap.append(group);
                    overlap.sort_unstable();
                    false
                }
                None => true,
            }
        });

        let mut deltas: Vec<EventDelta> = Vec::new();

        // Update continuing events, id order.
        for (idx, overlap) in &continuing {
            // Indices into `open` were collected above and nothing has
            // mutated the vector since; a miss would be a bug, so skip
            // rather than panic (conformance C1).
            let Some(event) = self.open.get_mut(*idx) else {
                continue;
            };
            let mut joined: Vec<DeviceKey> = Vec::new();
            for &key in overlap {
                if let Err(pos) = event.devices.binary_search(&key) {
                    event.devices.insert(pos, key);
                    joined.push(key);
                }
            }
            event.last_active = k;
            event.epochs_active += 1;
            event.active = overlap.clone();
            event.peak_active = event.peak_active.max(overlap.len());
            // The event's spatial identity follows its active cohort:
            // refresh it whenever any active device carries a component
            // this epoch (smallest wins, for determinism); keep the last
            // known one through component-free epochs.
            if let Some(c) = overlap.iter().filter_map(|&key| component_of(key)).min() {
                event.component = Some(c);
            }
            let transition = Self::transition(event, overlap, &class_of, k);
            deltas.push(EventDelta {
                id: event.id,
                kind: EventDeltaKind::Updated,
                class: event.class,
                transition,
                active: overlap.len(),
                joined,
                total: event.devices.len(),
                component: event.component,
            });
        }

        // Open new events: one shared massive event per surviving spatial
        // group first (in smallest-member-key order), then one per
        // isolated/unresolved device in key order.
        let mut openings: Vec<(Vec<DeviceKey>, AnomalyClass, Option<u32>)> = Vec::new();
        for (component, group) in massive_groups {
            if !group.is_empty() {
                openings.push((group, AnomalyClass::Massive, component));
            }
        }
        for (key, class, component) in new_single {
            openings.push((vec![key], class, component));
        }
        for (devices, class, component) in openings {
            let id = EventId(self.next_id);
            self.next_id += 1;
            self.opened_total += 1;
            let event = AnomalyEvent {
                id,
                onset: k,
                last_active: k,
                end: None,
                class,
                transitions: Vec::new(),
                devices: devices.clone(),
                active: devices.clone(),
                peak_active: devices.len(),
                epochs_active: 1,
                component,
            };
            deltas.push(EventDelta {
                id,
                kind: EventDeltaKind::Opened,
                class,
                transition: None,
                active: devices.len(),
                joined: devices,
                total: event.devices.len(),
                component,
            });
            self.open.push(event);
        }

        // Close events whose quiet gap exceeded the debounce bound.
        let debounce = self.debounce;
        let mut idx = 0;
        while idx < self.open.len() {
            let Some(event) = self.open.get_mut(idx) else {
                break;
            };
            if event.last_active < k && k - event.last_active > debounce {
                event.end = Some(event.last_active + 1);
                event.active.clear();
                deltas.push(EventDelta {
                    id: event.id,
                    kind: EventDeltaKind::Closed,
                    class: event.class,
                    transition: None,
                    active: 0,
                    joined: Vec::new(),
                    total: event.devices.len(),
                    component: event.component,
                });
                let closed = self.open.remove(idx);
                self.closed_total += 1;
                if self.window > 0 {
                    if self.closed.len() == self.window {
                        self.closed.pop_front();
                    }
                    self.closed.push_back(closed);
                }
            } else {
                idx += 1;
            }
        }

        deltas.sort_by_key(|d| d.id);
        deltas
    }

    /// The event's class after this epoch's verdicts: massive wins over
    /// isolated; indefinite epochs (unresolved or warming only) keep the
    /// previous class. Returns the transition, if one happened.
    fn transition<F>(
        event: &mut AnomalyEvent,
        active: &[DeviceKey],
        class_of: &F,
        epoch: u64,
    ) -> Option<ClassTransition>
    where
        F: Fn(DeviceKey) -> Option<AnomalyClass>,
    {
        let mut observed: Option<AnomalyClass> = None;
        for &key in active {
            match class_of(key) {
                Some(AnomalyClass::Massive) => {
                    observed = Some(AnomalyClass::Massive);
                    break;
                }
                Some(AnomalyClass::Isolated) => {
                    observed.get_or_insert(AnomalyClass::Isolated);
                }
                _ => {}
            }
        }
        let new_class = observed?;
        if new_class == event.class {
            return None;
        }
        let transition = ClassTransition {
            epoch,
            from: event.class,
            to: new_class,
        };
        event.class = new_class;
        event.transitions.push(transition);
        Some(transition)
    }
}

#[cfg(test)]
mod tests {
    use super::super::builder::MonitorBuilder;
    use super::super::monitor::Monitor;
    use super::*;

    /// A monitor with jump-threshold detectors (flag on any step > 0.1),
    /// so tests control the flagged set exactly, observed once at 0.9.
    fn warmed(n: usize, debounce: u64) -> Monitor {
        let mut m = MonitorBuilder::new()
            .debounce(debounce)
            .detector_factory(|_| Box::new(anomaly_detectors::ThresholdDetector::with_delta(0.1)))
            .fleet(n)
            .build()
            .unwrap();
        assert!(m.observe_rows(vec![vec![0.9]; n]).unwrap().is_quiet());
        m
    }

    fn keys(ks: &[u64]) -> Vec<DeviceKey> {
        ks.iter().copied().map(DeviceKey).collect()
    }

    #[test]
    fn a_multi_epoch_incident_is_one_event() {
        let mut m = warmed(8, 0);
        // Epoch A: devices 0..5 drop together (massive), 7 alone (isolated).
        let mut rows = vec![vec![0.45]; 6];
        rows.push(vec![0.9]);
        rows.push(vec![0.1]);
        let r = m.observe_rows(rows).unwrap();
        let deltas = r.event_deltas();
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].kind, EventDeltaKind::Opened);
        assert_eq!(deltas[0].class, anomaly_core::AnomalyClass::Massive);
        assert_eq!(deltas[0].joined, keys(&[0, 1, 2, 3, 4, 5]));
        assert_eq!(deltas[1].class, anomaly_core::AnomalyClass::Isolated);
        assert_eq!(deltas[1].joined, keys(&[7]));
        assert_eq!(m.events().open().len(), 2);

        // Epoch B: the shared incident deepens (same devices flag again);
        // device 7 has settled (no new jump).
        let mut rows = vec![vec![0.2]; 6];
        rows.push(vec![0.9]);
        rows.push(vec![0.1]);
        let r = m.observe_rows(rows).unwrap();
        let updated: Vec<_> = r
            .event_deltas()
            .iter()
            .filter(|d| d.kind == EventDeltaKind::Updated)
            .collect();
        assert_eq!(updated.len(), 1);
        assert_eq!(updated[0].id, EventId(0));
        assert_eq!(updated[0].active, 6);
        // Device 7's isolated event closed (debounce 0, one quiet epoch).
        let closed: Vec<_> = r
            .event_deltas()
            .iter()
            .filter(|d| d.kind == EventDeltaKind::Closed)
            .collect();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].id, EventId(1));
        let e1 = m.events().get(EventId(1)).unwrap();
        assert_eq!(e1.end, Some(r.instant()));
        assert_eq!(e1.span(), 1);

        // The massive event is still open with two active epochs.
        let e0 = m.events().get(EventId(0)).unwrap();
        assert!(e0.is_open());
        assert_eq!(e0.epochs_active, 2);
        assert_eq!(e0.peak_active, 6);
        assert_eq!(m.events().opened_total(), 2);
        assert_eq!(m.events().closed_total(), 1);
    }

    #[test]
    fn debounce_absorbs_quiet_gaps() {
        let mut m = warmed(4, 1);
        let jump = |m: &mut Monitor, level: f64| {
            let mut rows = vec![vec![0.9]; 3];
            rows.push(vec![level]);
            m.observe_rows(rows).unwrap()
        };
        // Device 3 flaps: out, still, back — one quiet epoch in between.
        let r = jump(&mut m, 0.3);
        assert_eq!(r.event_deltas().len(), 1);
        let id = r.event_deltas()[0].id;
        let r = jump(&mut m, 0.3); // no jump: quiet epoch
        assert!(r.event_deltas().is_empty(), "gap 1 is absorbed");
        let r = jump(&mut m, 0.9); // jumps back: flagged again
        assert_eq!(r.event_deltas().len(), 1);
        assert_eq!(r.event_deltas()[0].id, id, "the flap continues its event");
        assert_eq!(r.event_deltas()[0].kind, EventDeltaKind::Updated);
        // Two quiet epochs exceed debounce 1.
        jump(&mut m, 0.9);
        let r = jump(&mut m, 0.9);
        let deltas = r.event_deltas();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].kind, EventDeltaKind::Closed);
        assert_eq!(m.events().open().len(), 0);
        assert_eq!(m.events().recently_closed().count(), 1);
    }

    /// Under spatial splitting, a later-onset cohort that never co-moves
    /// with the first one is its own dense component — it opens a second
    /// event instead of being absorbed by class alone.
    #[test]
    fn spatially_disjoint_growth_opens_its_own_event() {
        let mut m = warmed(8, 0);
        // Devices 0..4 drop first...
        let mut rows = vec![vec![0.45]; 4];
        rows.extend(vec![vec![0.9]; 4]);
        let r = m.observe_rows(rows).unwrap();
        assert_eq!(r.event_deltas().len(), 1);
        let first = r.event_deltas()[0].id;
        assert_eq!(r.event_deltas()[0].component, Some(0));
        // ...then devices 4..8 fall from 0.9 to 0.2 while 0..4 keep
        // degrading from 0.45: two separate dense motions this epoch.
        let rows = vec![vec![0.2]; 8];
        let r = m.observe_rows(rows).unwrap();
        assert_eq!(r.summary().components, 2);
        let deltas = r.event_deltas();
        assert_eq!(deltas.len(), 2, "two blobs, two events: {deltas:?}");
        assert_eq!(deltas[0].id, first);
        assert_eq!(deltas[0].kind, EventDeltaKind::Updated);
        assert!(deltas[0].joined.is_empty());
        assert_eq!(deltas[0].component, Some(0));
        assert_eq!(deltas[1].kind, EventDeltaKind::Opened);
        assert_eq!(deltas[1].joined, keys(&[4, 5, 6, 7]));
        assert_eq!(deltas[1].component, Some(1));
        let second = m.events().get(deltas[1].id).unwrap();
        assert_eq!(second.devices, keys(&[4, 5, 6, 7]));
        assert_eq!(second.component, Some(1));
    }

    fn fold(
        tracker: &mut EventTracker,
        k: u64,
        verdicts: &[(u64, AnomalyClass)],
        warming: &[u64],
    ) -> Vec<EventDelta> {
        let definite = verdicts
            .iter()
            .map(|&(key, class)| (DeviceKey(key), class, None))
            .collect();
        let warming: Vec<DeviceKey> = warming.iter().copied().map(DeviceKey).collect();
        tracker.fold(k, definite, &warming)
    }

    fn fold_spatial(
        tracker: &mut EventTracker,
        k: u64,
        verdicts: &[(u64, AnomalyClass, Option<u32>)],
    ) -> Vec<EventDelta> {
        let definite = verdicts
            .iter()
            .map(|&(key, class, component)| (DeviceKey(key), class, component))
            .collect();
        tracker.fold(k, definite, &[])
    }

    /// An outage growing within one dense blob stays one event: the new
    /// devices share the continuing devices' component.
    #[test]
    fn growth_within_one_component_joins_the_open_event() {
        use anomaly_core::AnomalyClass;
        let mut tracker = EventTracker::new(8, 0);
        let first: Vec<(u64, AnomalyClass, Option<u32>)> = (0..4)
            .map(|k| (k, AnomalyClass::Massive, Some(0)))
            .collect();
        let d = fold_spatial(&mut tracker, 0, &first);
        assert_eq!(d.len(), 1);
        let grown: Vec<(u64, AnomalyClass, Option<u32>)> = (0..8)
            .map(|k| (k, AnomalyClass::Massive, Some(0)))
            .collect();
        let d = fold_spatial(&mut tracker, 1, &grown);
        assert_eq!(d.len(), 1, "same blob, one event: {d:?}");
        assert_eq!(d[0].kind, EventDeltaKind::Updated);
        assert_eq!(d[0].joined, keys(&[4, 5, 6, 7]));
        assert_eq!(d[0].total, 8);
        assert_eq!(d[0].component, Some(0));
    }

    /// Epoch-coincident massive onsets in different components open as
    /// separate events with independent lifecycles.
    #[test]
    fn coincident_disjoint_outages_open_separate_events() {
        use anomaly_core::AnomalyClass;
        let mut tracker = EventTracker::new(8, 0);
        let both: Vec<(u64, AnomalyClass, Option<u32>)> = (0..4)
            .map(|k| (k, AnomalyClass::Massive, Some(0)))
            .chain((10..14).map(|k| (k, AnomalyClass::Massive, Some(1))))
            .collect();
        let d = fold_spatial(&mut tracker, 0, &both);
        assert_eq!(d.len(), 2, "two components, two events: {d:?}");
        assert_eq!(d[0].kind, EventDeltaKind::Opened);
        assert_eq!(d[0].joined, keys(&[0, 1, 2, 3]));
        assert_eq!(d[0].component, Some(0));
        assert_eq!(d[1].kind, EventDeltaKind::Opened);
        assert_eq!(d[1].joined, keys(&[10, 11, 12, 13]));
        assert_eq!(d[1].component, Some(1));
        // The first blob recovers; the second keeps failing. Independent
        // lifecycles: one closes, the other continues.
        let second: Vec<(u64, AnomalyClass, Option<u32>)> = (10..14)
            .map(|k| (k, AnomalyClass::Massive, Some(0)))
            .collect();
        let d = fold_spatial(&mut tracker, 1, &second);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].kind, EventDeltaKind::Closed);
        assert_eq!(d[1].kind, EventDeltaKind::Updated);
        assert_eq!(tracker.open().len(), 1);
        // Component ids are epoch-local: the surviving event re-anchors to
        // this epoch's rank 0.
        assert_eq!(tracker.open()[0].component, Some(0));
    }

    /// An unresolved verdict sharing a component with unclaimed massive
    /// verdicts is part of that anomaly: it folds in with them instead of
    /// opening a singleton. An abstention whose component-mates are all
    /// quietly continuing their event keeps its own event, and isolated
    /// verdicts and unresolved verdicts without massive component-mates
    /// are never folded.
    #[test]
    fn unresolved_in_a_massive_component_folds_into_its_event() {
        use anomaly_core::AnomalyClass;
        let mut tracker = EventTracker::new(8, 0);
        // Epoch 0: component 0 has massive evidence plus one abstention;
        // component 1 is all-unresolved; device 30 is isolated in the
        // massive component.
        let verdicts: Vec<(u64, AnomalyClass, Option<u32>)> = vec![
            (3, AnomalyClass::Unresolved, Some(0)),
            (10, AnomalyClass::Massive, Some(0)),
            (11, AnomalyClass::Massive, Some(0)),
            (20, AnomalyClass::Unresolved, Some(1)),
            (30, AnomalyClass::Isolated, Some(0)),
        ];
        let d = fold_spatial(&mut tracker, 0, &verdicts);
        assert_eq!(
            d.len(),
            3,
            "massive+folded, lone unresolved, isolated: {d:?}"
        );
        assert_eq!(d[0].kind, EventDeltaKind::Opened);
        assert_eq!(d[0].class, AnomalyClass::Massive);
        assert_eq!(d[0].joined, keys(&[3, 10, 11]), "abstention folded in");
        assert_eq!(d[1].class, AnomalyClass::Unresolved);
        assert_eq!(d[1].joined, keys(&[20]), "all-unresolved blob stays alone");
        assert_eq!(d[2].class, AnomalyClass::Isolated);
        assert_eq!(d[2].joined, keys(&[30]), "isolated is a definite ruling");
        // Epoch 1: the massive event continues (its devices are claimed by
        // continuation, so there is no unclaimed massive evidence in the
        // component) and a *new* device abstains in it. Nothing to fold
        // into: the abstention opens its own event — it is more likely an
        // independent fault co-located with the blob's dense region than
        // part of the established incident.
        let verdicts: Vec<(u64, AnomalyClass, Option<u32>)> = vec![
            (4, AnomalyClass::Unresolved, Some(0)),
            (10, AnomalyClass::Massive, Some(0)),
            (11, AnomalyClass::Massive, Some(0)),
        ];
        let d = fold_spatial(&mut tracker, 1, &verdicts);
        let updated: Vec<_> = d
            .iter()
            .filter(|delta| delta.kind == EventDeltaKind::Updated)
            .collect();
        assert_eq!(updated.len(), 1);
        assert_eq!(updated[0].id, EventId(0));
        assert!(updated[0].joined.is_empty());
        let opened: Vec<_> = d
            .iter()
            .filter(|delta| delta.kind == EventDeltaKind::Opened)
            .collect();
        assert_eq!(
            opened.len(),
            1,
            "late abstention keeps its own event: {d:?}"
        );
        assert_eq!(opened[0].joined, keys(&[4]));
        assert_eq!(opened[0].class, AnomalyClass::Unresolved);
    }

    /// Regression: an outage growing out of an *isolated*-classed event
    /// must not fragment. The event transitions isolated→massive in the
    /// same epoch the new devices arrive, and the absorption must see the
    /// epoch's verdicts, not the stale class.
    #[test]
    fn growth_out_of_an_isolated_event_stays_one_event() {
        use anomaly_core::AnomalyClass;
        let mut tracker = EventTracker::new(8, 0);
        // Epoch 0: device 0 fails alone.
        let d = fold(&mut tracker, 0, &[(0, AnomalyClass::Isolated)], &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].class, AnomalyClass::Isolated);
        // Epoch 1: the fault spreads — devices 0..=4 co-move massively.
        let massive: Vec<(u64, AnomalyClass)> =
            (0..5).map(|k| (k, AnomalyClass::Massive)).collect();
        let d = fold(&mut tracker, 1, &massive, &[]);
        assert_eq!(d.len(), 1, "one physical incident, one event: {d:?}");
        assert_eq!(d[0].kind, EventDeltaKind::Updated);
        assert_eq!(d[0].class, AnomalyClass::Massive);
        assert_eq!(d[0].joined, keys(&[1, 2, 3, 4]));
        assert_eq!(
            d[0].transition,
            Some(ClassTransition {
                epoch: 1,
                from: AnomalyClass::Isolated,
                to: AnomalyClass::Massive,
            })
        );
        assert_eq!(tracker.open().len(), 1);
        assert_eq!(tracker.open()[0].devices, keys(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn class_transitions_are_recorded_and_unresolved_is_absorbed() {
        use anomaly_core::AnomalyClass;
        let mut tracker = EventTracker::new(8, 0);
        // Epoch 0: device 5 isolated.
        let d = fold(&mut tracker, 0, &[(5, AnomalyClass::Isolated)], &[]);
        assert_eq!(d[0].class, AnomalyClass::Isolated);
        // Epoch 1: the same device is swept into a massive verdict.
        let d = fold(&mut tracker, 1, &[(5, AnomalyClass::Massive)], &[]);
        assert_eq!(d[0].class, AnomalyClass::Massive);
        assert_eq!(
            d[0].transition,
            Some(ClassTransition {
                epoch: 1,
                from: AnomalyClass::Isolated,
                to: AnomalyClass::Massive,
            })
        );
        // Epoch 2: unresolved — absorbed, class unchanged.
        let d = fold(&mut tracker, 2, &[(5, AnomalyClass::Unresolved)], &[]);
        assert_eq!(d[0].class, AnomalyClass::Massive);
        assert_eq!(d[0].transition, None);
        let event = &tracker.open()[0];
        assert_eq!(event.transitions.len(), 1);
        assert_eq!(event.epochs_active, 3);
    }

    #[test]
    fn warming_devices_extend_but_never_open_events() {
        use anomaly_core::AnomalyClass;
        let mut tracker = EventTracker::new(8, 0);
        // A warming-only epoch opens nothing.
        let d = fold(&mut tracker, 0, &[], &[9]);
        assert!(d.is_empty());
        assert!(tracker.open().is_empty());
        // Once device 9 has a verdict it owns an event...
        fold(&mut tracker, 1, &[(9, AnomalyClass::Isolated)], &[]);
        // ...and a later warming epoch (leave + re-join) keeps it alive.
        let d = fold(&mut tracker, 2, &[], &[9]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kind, EventDeltaKind::Updated);
        assert_eq!(d[0].transition, None);
        assert_eq!(tracker.open()[0].last_active, 2);
    }

    #[test]
    fn history_and_closed_rings_are_bounded() {
        let mut m = MonitorBuilder::new()
            .history(3)
            .detector_factory(|_| Box::new(anomaly_detectors::ThresholdDetector::with_delta(0.1)))
            .fleet(2)
            .build()
            .unwrap();
        for _ in 0..10 {
            m.observe_rows(vec![vec![0.9]; 2]).unwrap();
        }
        assert_eq!(m.events().window(), 3);
        assert_eq!(m.events().history().count(), 3);
        let instants: Vec<u64> = m.events().history().map(|s| s.instant).collect();
        assert_eq!(instants, vec![7, 8, 9], "oldest first, last 3 epochs");
        // Jump, hold, jump back: each period churns short-lived events
        // through open → quiet → closed (debounce 0).
        for i in 0..12u64 {
            let level = if i % 3 == 0 { 0.4 } else { 0.9 };
            m.observe_rows(vec![vec![level]; 2]).unwrap();
        }
        assert!(m.events().recently_closed().count() <= 3);
        assert!(m.events().closed_total() >= 4);
    }

    /// Pins the inclusive debounce boundary: an event absorbs gaps of up
    /// to exactly `debounce` quiet epochs and closes on quiet epoch
    /// `debounce + 1`, with `end` recording `last_active + 1`.
    #[test]
    fn debounce_boundary_is_inclusive() {
        use anomaly_core::AnomalyClass;
        for debounce in [0u64, 1, 3] {
            let mut tracker = EventTracker::new(8, debounce);
            fold(&mut tracker, 0, &[(0, AnomalyClass::Isolated)], &[]);
            for k in 1..=debounce {
                let d = fold(&mut tracker, k, &[], &[]);
                assert!(
                    d.is_empty(),
                    "debounce {debounce}: quiet epoch {k} must be absorbed"
                );
                assert_eq!(tracker.open().len(), 1);
            }
            let d = fold(&mut tracker, debounce + 1, &[], &[]);
            assert_eq!(
                d.len(),
                1,
                "debounce {debounce}: closes on epoch {}",
                debounce + 1
            );
            assert_eq!(d[0].kind, EventDeltaKind::Closed);
            assert!(tracker.open().is_empty());
            let closed = tracker.get(EventId(0)).unwrap();
            assert_eq!(
                closed.end,
                Some(1),
                "end is last_active + 1, not the close epoch"
            );
            // A verdict on the last absorbable quiet epoch keeps the next
            // event alive through the same-width gap.
            let mut tracker = EventTracker::new(8, debounce);
            fold(&mut tracker, 0, &[(0, AnomalyClass::Isolated)], &[]);
            let d = fold(&mut tracker, debounce, &[(0, AnomalyClass::Isolated)], &[]);
            assert!(
                d.iter().all(|delta| delta.kind != EventDeltaKind::Closed),
                "debounce {debounce}: gap of {debounce} epochs must not close"
            );
        }
    }

    /// Regression: a reset must close every open event with a synthetic
    /// delta — silently dropping them leaks open alerts in any delta-feed
    /// consumer.
    #[test]
    fn reset_emits_synthetic_close_deltas() {
        let mut m = warmed(8, 3);
        let mut rows = vec![vec![0.45]; 6];
        rows.push(vec![0.9]);
        rows.push(vec![0.1]);
        m.observe_rows(rows).unwrap();
        assert_eq!(m.events().open().len(), 2);
        let deltas = m.reset();
        assert_eq!(deltas.len(), 2);
        assert!(deltas.windows(2).all(|w| w[0].id < w[1].id));
        for d in &deltas {
            assert_eq!(d.kind, EventDeltaKind::Closed);
            assert_eq!(d.active, 0);
            assert!(d.joined.is_empty());
        }
        assert_eq!(deltas[0].total, 6, "cumulative device count survives");
        assert_eq!(deltas[1].total, 1);
        assert!(m.events().open().is_empty());
        assert_eq!(m.events().closed_total(), 2, "totals survive the reset");
        // A second reset has nothing left to close.
        assert!(m.reset().is_empty());
    }

    #[test]
    fn reset_clears_events_but_never_reuses_ids() {
        let mut m = warmed(2, 0);
        m.observe_rows(vec![vec![0.4], vec![0.9]]).unwrap();
        assert_eq!(m.events().open().len(), 1);
        let first_id = m.events().open()[0].id;
        m.reset();
        assert!(m.events().open().is_empty());
        assert_eq!(m.events().history().count(), 0);
        for _ in 0..30 {
            m.observe_rows(vec![vec![0.9]; 2]).unwrap();
        }
        let r = m.observe_rows(vec![vec![0.4], vec![0.9]]).unwrap();
        assert!(r.event_deltas()[0].id > first_id, "ids are never reused");
    }
}
