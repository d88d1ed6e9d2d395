//! The alert sink: a pure, deterministic fold from the monitor's
//! per-epoch [`Report`] stream to deduplicated, rate-limited operator
//! alerts.
//!
//! The sink consumes only [`Report::event_deltas`] (plus the straggler
//! list), so it can run behind a live serve loop or over an
//! already-collected report vector — the evaluation workbench uses the
//! latter. Deltas referencing events first seen before the sink attached
//! (mid-stream attach, checkpointless restart) are adopted as fresh
//! lifecycles; unknown closes are ignored.
//!
//! Determinism: deltas are folded in ascending event-id order (the order
//! the tracker emits), every index is a `BTreeMap`, and time is the
//! sealed-epoch instant — the emitted action stream is byte-identical
//! whether the monitor served cached verdicts or recomputed them.

use crate::alerts::{
    severity, Alert, AlertAction, AlertActionKind, AlertId, AlertPhase, Severity, TokenBucket,
};
use crate::signature::{class_rank, Signature, SignatureAtoms, TopologySpread};
use anomaly_characterization::pipeline::{
    DeviceKey, EventDelta, EventDeltaKind, EventId, MonitorError, Report,
};
use anomaly_core::AnomalyClass;
use anomaly_network::{NodeId, NodeKind, Topology};
use anomaly_store::{Dec, DecodeError, Enc};
use std::collections::{BTreeMap, BTreeSet};

/// How pipeline [`DeviceKey`]s translate back to topology gateways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMap {
    /// Keys are raw topology node ids — the `MeasurementUpdate::key`
    /// convention of `anomaly-network`'s streaming collection.
    NodeIds,
    /// Keys are dense gateway indices `0..gateways.len()` — the
    /// convention of the evaluation workloads.
    GatewayIndex,
}

/// Tuning of the alert fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertConfig {
    /// Epochs after resolution during which a recurrence of the same
    /// root cause folds into the existing alert instead of paging anew.
    pub dedup_window: u64,
    /// Token-bucket capacity, in whole notifications.
    pub bucket_capacity: u32,
    /// Token-bucket refill per sealed epoch, in milli-tokens
    /// (1000 = one notification per epoch).
    pub refill_millitokens: u32,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig {
            dedup_window: 16,
            bucket_capacity: 4,
            refill_millitokens: 500,
        }
    }
}

/// Dedup-index key for an alert's root node; unmapped roots share one
/// sentinel bucket.
fn root_key(root: Option<NodeId>) -> u32 {
    match root {
        Some(node) => node.0,
        None => u32::MAX,
    }
}

/// The lifecycle the sink tracks per open event id.
#[derive(Debug, Clone)]
struct EventLife {
    onset: u64,
    last: u64,
    onset_class: AnomalyClass,
    peak: AnomalyClass,
    devices: BTreeSet<DeviceKey>,
    straggler_overlap: bool,
    /// The alert this lifecycle folded into; `None` until routed.
    alert: Option<AlertId>,
}

/// Folds event deltas into deduplicated, rate-limited, acknowledgeable
/// alerts keyed by canonical root-cause signatures.
#[derive(Debug, Clone)]
pub struct AlertSink {
    topology: Topology,
    keymap: KeyMap,
    config: AlertConfig,
    bucket: TokenBucket,
    /// DeviceKey raw value → gateway node, per the [`KeyMap`].
    gateway_of: BTreeMap<u64, NodeId>,
    next_alert: u64,
    lives: BTreeMap<EventId, EventLife>,
    alerts: BTreeMap<AlertId, Alert>,
    /// Still-open event lifecycles per alert; an alert resolves when its
    /// count returns to zero.
    open_counts: BTreeMap<AlertId, u64>,
    /// Root-cause dedup index (last writer wins on re-rooting).
    by_root: BTreeMap<u32, AlertId>,
    /// Canonical signature → closed-lifecycle occurrences: the "same
    /// incident class again" registry.
    seen: BTreeMap<Signature, u64>,
    alerts_created: u64,
    pages_emitted: u64,
    recurrences: u64,
    suppressed_total: u64,
    resolved_total: u64,
}

impl AlertSink {
    /// A sink over `topology`, translating keys per `keymap`.
    pub fn new(topology: Topology, keymap: KeyMap, config: AlertConfig) -> Self {
        let mut gateway_of = BTreeMap::new();
        for (index, &gw) in topology.gateways().iter().enumerate() {
            let key = match keymap {
                KeyMap::NodeIds => u64::from(gw.0),
                KeyMap::GatewayIndex => index as u64,
            };
            gateway_of.insert(key, gw);
        }
        let bucket = TokenBucket::new(config.bucket_capacity, config.refill_millitokens);
        AlertSink {
            topology,
            keymap,
            config,
            bucket,
            gateway_of,
            next_alert: 0,
            lives: BTreeMap::new(),
            alerts: BTreeMap::new(),
            open_counts: BTreeMap::new(),
            by_root: BTreeMap::new(),
            seen: BTreeMap::new(),
            alerts_created: 0,
            pages_emitted: 0,
            recurrences: 0,
            suppressed_total: 0,
            resolved_total: 0,
        }
    }

    /// Folds one sealed epoch's report in, returning the notifications it
    /// triggered in deterministic order.
    pub fn observe(&mut self, report: &Report) -> Vec<AlertAction> {
        let stragglers: Vec<DeviceKey> = if report.straggler_count() > 0 {
            let mut keys = report.stragglers().to_vec();
            keys.sort_unstable();
            keys
        } else {
            Vec::new()
        };
        self.fold_deltas(report.instant(), report.event_deltas(), &stragglers)
    }

    /// The raw fold: one epoch's deltas plus the sorted straggler keys.
    /// [`AlertSink::observe`] wraps it; `ServeLoop::shutdown` feeds the
    /// synthetic close deltas a `Monitor::reset` returns through it.
    pub fn fold_deltas(
        &mut self,
        epoch: u64,
        deltas: &[EventDelta],
        stragglers: &[DeviceKey],
    ) -> Vec<AlertAction> {
        self.bucket.tick();
        let mut actions = Vec::new();
        for delta in deltas {
            match delta.kind {
                EventDeltaKind::Opened | EventDeltaKind::Updated => {
                    self.on_activity(epoch, delta, stragglers, &mut actions);
                }
                EventDeltaKind::Closed => self.on_close(epoch, delta, &mut actions),
            }
        }
        actions
    }

    fn on_activity(
        &mut self,
        epoch: u64,
        delta: &EventDelta,
        stragglers: &[DeviceKey],
        actions: &mut Vec<AlertAction>,
    ) {
        let mut life = self.lives.remove(&delta.id).unwrap_or_else(|| EventLife {
            onset: epoch,
            last: epoch,
            onset_class: delta.class,
            peak: delta.class,
            devices: BTreeSet::new(),
            straggler_overlap: false,
            alert: None,
        });
        life.last = epoch;
        if class_rank(delta.class) > class_rank(life.peak) {
            life.peak = delta.class;
        }
        for &key in &delta.joined {
            life.devices.insert(key);
        }
        if !life.straggler_overlap && !stragglers.is_empty() {
            life.straggler_overlap = life
                .devices
                .iter()
                .any(|key| stragglers.binary_search(key).is_ok());
        }
        let root = self.root_of(&life.devices);
        match life.alert {
            None => {
                let aid = self.route(epoch, &life, root, actions);
                life.alert = Some(aid);
            }
            Some(aid) => {
                self.continue_alert(epoch, &life, root, aid, !delta.joined.is_empty(), actions);
            }
        }
        self.lives.insert(delta.id, life);
    }

    /// Routes a newly seen lifecycle: folds it into a live (or recently
    /// resolved) alert with the same root cause, or pages a new one.
    fn route(
        &mut self,
        epoch: u64,
        life: &EventLife,
        root: Option<NodeId>,
        actions: &mut Vec<AlertAction>,
    ) -> AlertId {
        let key = root_key(root);
        let fold_into = self.by_root.get(&key).copied().filter(|aid| {
            self.alerts.get(aid).is_some_and(|alert| match alert.phase {
                AlertPhase::Open | AlertPhase::Acknowledged => true,
                AlertPhase::Resolved => alert
                    .resolved_at
                    .is_some_and(|at| at + self.config.dedup_window >= epoch),
            })
        });
        let duration = life.last - life.onset + 1;
        match fold_into {
            Some(aid) => {
                if let Some(alert) = self.alerts.get_mut(&aid) {
                    alert.occurrences += 1;
                    alert.last_seen = epoch;
                    if alert.phase == AlertPhase::Resolved {
                        alert.phase = AlertPhase::Open;
                        alert.resolved_at = None;
                    }
                    if class_rank(life.peak) > class_rank(alert.class) {
                        alert.class = life.peak;
                    }
                    alert.devices = alert.devices.max(life.devices.len());
                    let sev = severity(alert.class, alert.devices, duration);
                    if sev > alert.severity {
                        alert.severity = sev;
                    }
                }
                *self.open_counts.entry(aid).or_insert(0) += 1;
                self.recurrences += 1;
                self.notify(epoch, aid, AlertActionKind::Recur, actions);
                aid
            }
            None => {
                let aid = AlertId(self.next_alert);
                self.next_alert += 1;
                self.alerts_created += 1;
                let alert = Alert {
                    id: aid,
                    root,
                    class: life.peak,
                    severity: severity(life.peak, life.devices.len(), duration),
                    phase: AlertPhase::Open,
                    opened_at: epoch,
                    last_seen: epoch,
                    resolved_at: None,
                    occurrences: 1,
                    suppressed: 0,
                    devices: life.devices.len(),
                    signature: None,
                };
                self.alerts.insert(aid, alert);
                self.by_root.insert(key, aid);
                self.open_counts.insert(aid, 1);
                self.notify(epoch, aid, AlertActionKind::Page, actions);
                aid
            }
        }
    }

    /// Continuing activity on an already-routed lifecycle: grow the
    /// alert, re-root it if the affected set widened, escalate severity.
    fn continue_alert(
        &mut self,
        epoch: u64,
        life: &EventLife,
        root: Option<NodeId>,
        aid: AlertId,
        joined: bool,
        actions: &mut Vec<AlertAction>,
    ) {
        let mut escalated = false;
        if let Some(alert) = self.alerts.get_mut(&aid) {
            alert.last_seen = epoch;
            if class_rank(life.peak) > class_rank(alert.class) {
                alert.class = life.peak;
            }
            alert.devices = alert.devices.max(life.devices.len());
            if joined && root.is_some() && root != alert.root {
                let old = root_key(alert.root);
                if self.by_root.get(&old) == Some(&aid) {
                    self.by_root.remove(&old);
                }
                self.by_root.insert(root_key(root), aid);
                alert.root = root;
            }
            let duration = epoch - life.onset + 1;
            let sev = severity(alert.class, alert.devices, duration);
            if sev > alert.severity {
                alert.severity = sev;
                escalated = true;
            }
        }
        if escalated {
            self.notify(epoch, aid, AlertActionKind::Escalate, actions);
        }
    }

    fn on_close(&mut self, epoch: u64, delta: &EventDelta, actions: &mut Vec<AlertAction>) {
        let Some(life) = self.lives.remove(&delta.id) else {
            return; // closed before the sink attached: nothing to resolve
        };
        let Some(aid) = life.alert else {
            return;
        };
        // Component-scoped: the signature describes the lifecycle's own
        // spatial component — root and spread come from *its* device set,
        // not from the (possibly wider) alert it folded into, so two
        // coincident outages under one alert still close with two
        // distinct root-cause signatures.
        let root = self.root_of(&life.devices);
        let spread = match root {
            Some(node) => self.spread_of(node),
            None => TopologySpread::Core,
        };
        let atoms = SignatureAtoms {
            onset_class: life.onset_class,
            peak_class: life.peak,
            spread,
            duration_epochs: life.last - life.onset + 1,
            affected_devices: life.devices.len(),
            straggler_overlap: life.straggler_overlap,
            component_root: root.map(|node| node.0),
        };
        let sig = atoms.reduce();
        *self.seen.entry(sig).or_insert(0) += 1;
        let open = self.open_counts.entry(aid).or_insert(1);
        *open = open.saturating_sub(1);
        let all_closed = *open == 0;
        if let Some(alert) = self.alerts.get_mut(&aid) {
            alert.signature = Some(sig);
            if all_closed && alert.phase != AlertPhase::Resolved {
                alert.phase = AlertPhase::Resolved;
                alert.resolved_at = Some(epoch);
                self.resolved_total += 1;
                actions.push(AlertAction {
                    epoch,
                    alert: aid,
                    kind: AlertActionKind::Resolve,
                    severity: alert.severity,
                    class: alert.class,
                    root: alert.root,
                    signature: Some(sig),
                });
            }
        }
    }

    /// Emits one rate-limited notification, or a suppression record when
    /// the bucket is dry. Resolutions bypass this: closing out an alert
    /// is always delivered.
    fn notify(
        &mut self,
        epoch: u64,
        aid: AlertId,
        kind: AlertActionKind,
        actions: &mut Vec<AlertAction>,
    ) {
        let delivered = self.bucket.try_take();
        let Some(alert) = self.alerts.get_mut(&aid) else {
            return;
        };
        let kind = if delivered {
            if kind == AlertActionKind::Page {
                self.pages_emitted += 1;
            }
            kind
        } else {
            alert.suppressed += 1;
            self.suppressed_total += 1;
            AlertActionKind::Suppress
        };
        actions.push(AlertAction {
            epoch,
            alert: aid,
            kind,
            severity: alert.severity,
            class: alert.class,
            root: alert.root,
            signature: alert.signature,
        });
    }

    /// Narrowest topology node covering every device of a lifecycle, via
    /// the key map; `None` when no device maps to a gateway.
    fn root_of(&self, devices: &BTreeSet<DeviceKey>) -> Option<NodeId> {
        let mut root: Option<NodeId> = None;
        for key in devices {
            let Some(&gw) = self.gateway_of.get(&key.0) else {
                continue;
            };
            root = match root {
                None => Some(gw),
                Some(current) => self.common_ancestor(current, gw),
            };
        }
        root
    }

    /// Lowest common ancestor of two in-topology nodes.
    fn common_ancestor(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        if a == b {
            return Some(a);
        }
        let chain_a = self.topology.route_to_core(a);
        self.topology
            .route_to_core(b)
            .into_iter()
            .find(|node| chain_a.contains(node))
    }

    fn spread_of(&self, node: NodeId) -> TopologySpread {
        match self.topology.kind(node) {
            NodeKind::Gateway => TopologySpread::Gateway,
            NodeKind::Dslam => TopologySpread::Dslam,
            NodeKind::Aggregation => TopologySpread::Aggregation,
            NodeKind::Core => TopologySpread::Core,
        }
    }

    /// Acknowledges an open alert. Returns `false` when the alert does
    /// not exist or is not [`AlertPhase::Open`].
    pub fn ack(&mut self, id: AlertId) -> bool {
        match self.alerts.get_mut(&id) {
            Some(alert) if alert.phase == AlertPhase::Open => {
                alert.phase = AlertPhase::Acknowledged;
                true
            }
            _ => false,
        }
    }

    /// Every alert ever created, in id order.
    pub fn alerts(&self) -> impl Iterator<Item = &Alert> {
        self.alerts.values()
    }

    /// One alert by id.
    pub fn alert(&self, id: AlertId) -> Option<&Alert> {
        self.alerts.get(&id)
    }

    /// Alerts not yet resolved.
    pub fn open_alerts(&self) -> usize {
        self.alerts
            .values()
            .filter(|alert| alert.phase != AlertPhase::Resolved)
            .count()
    }

    /// Deduplicated alerts created over the sink's lifetime.
    pub fn alerts_created(&self) -> u64 {
        self.alerts_created
    }

    /// Page notifications actually delivered (post rate limit).
    pub fn pages_emitted(&self) -> u64 {
        self.pages_emitted
    }

    /// Lifecycles folded into existing alerts instead of paging anew.
    pub fn recurrences(&self) -> u64 {
        self.recurrences
    }

    /// Notifications dropped by the rate limiter.
    pub fn suppressed(&self) -> u64 {
        self.suppressed_total
    }

    /// Alerts that reached [`AlertPhase::Resolved`] (re-opens can make
    /// this exceed the current resolved count).
    pub fn resolved(&self) -> u64 {
        self.resolved_total
    }

    /// Distinct canonical signatures observed across closed lifecycles.
    pub fn distinct_signatures(&self) -> usize {
        self.seen.len()
    }

    /// Closed lifecycles that reduced to `sig` — the "same incident
    /// class again" counter.
    pub fn signature_occurrences(&self, sig: Signature) -> u64 {
        self.seen.get(&sig).copied().unwrap_or(0)
    }

    /// Current rate-limiter level, in milli-tokens.
    pub fn bucket_level_millitokens(&self) -> u64 {
        self.bucket.level_millitokens()
    }

    /// Every alert as a JSON array in id order, stable key order.
    pub fn alerts_json(&self) -> String {
        let mut out = String::from("[");
        for (i, alert) in self.alerts.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&alert.to_json());
        }
        out.push(']');
        out
    }
}

/// Version of the sink's checkpoint payload layout. Bump on any change to
/// [`AlertSink::save`]'s field order or widths — old payloads must fail
/// typed, never misparse.
pub const SINK_STATE_VERSION: u32 = 1;

fn class_code(class: AnomalyClass) -> u8 {
    match class {
        AnomalyClass::Isolated => 0,
        AnomalyClass::Massive => 1,
        AnomalyClass::Unresolved => 2,
    }
}

fn decode_sink_class(dec: &mut Dec<'_>, field: &'static str) -> Result<AnomalyClass, DecodeError> {
    Ok(match dec.tag(field, 3)? {
        0 => AnomalyClass::Isolated,
        1 => AnomalyClass::Massive,
        _ => AnomalyClass::Unresolved,
    })
}

fn severity_code(sev: Severity) -> u8 {
    match sev {
        Severity::Minor => 0,
        Severity::Major => 1,
        Severity::Critical => 2,
    }
}

fn decode_severity(dec: &mut Dec<'_>) -> Result<Severity, DecodeError> {
    Ok(match dec.tag("alert.severity", 3)? {
        0 => Severity::Minor,
        1 => Severity::Major,
        _ => Severity::Critical,
    })
}

fn phase_code(phase: AlertPhase) -> u8 {
    match phase {
        AlertPhase::Open => 0,
        AlertPhase::Acknowledged => 1,
        AlertPhase::Resolved => 2,
    }
}

fn decode_phase(dec: &mut Dec<'_>) -> Result<AlertPhase, DecodeError> {
    Ok(match dec.tag("alert.phase", 3)? {
        0 => AlertPhase::Open,
        1 => AlertPhase::Acknowledged,
        _ => AlertPhase::Resolved,
    })
}

fn keymap_code(keymap: KeyMap) -> u8 {
    match keymap {
        KeyMap::NodeIds => 0,
        KeyMap::GatewayIndex => 1,
    }
}

fn decode_node(dec: &mut Dec<'_>, field: &'static str) -> Result<Option<NodeId>, MonitorError> {
    match dec.opt_u64(field)? {
        None => Ok(None),
        Some(raw) => {
            let id = u32::try_from(raw).map_err(|_| MonitorError::Persist {
                detail: format!("checkpointed node id {raw} does not fit a topology id"),
            })?;
            Ok(Some(NodeId(id)))
        }
    }
}

impl AlertSink {
    /// Serializes the sink's resumable state — everything except the
    /// topology, key map, and [`AlertConfig`], which the restoring side
    /// supplies to [`AlertSink::load`] and which the payload records only
    /// to reconcile against.
    pub fn save(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u32(SINK_STATE_VERSION);
        // Configuration echo, reconciled on load (deny-by-default).
        enc.u64(self.config.dedup_window);
        enc.u32(self.config.bucket_capacity);
        enc.u32(self.config.refill_millitokens);
        enc.u8(keymap_code(self.keymap));
        enc.usize(self.gateway_of.len());
        // Resumable state proper.
        enc.u64(self.bucket.level_millitokens());
        enc.u64(self.next_alert);
        enc.usize(self.lives.len());
        for (id, life) in &self.lives {
            enc.u64(id.0);
            enc.u64(life.onset);
            enc.u64(life.last);
            enc.u8(class_code(life.onset_class));
            enc.u8(class_code(life.peak));
            let devices: Vec<u64> = life.devices.iter().map(|k| k.0).collect();
            enc.u64s(&devices);
            enc.bool(life.straggler_overlap);
            enc.opt_u64(life.alert.map(|a| a.0));
        }
        enc.usize(self.alerts.len());
        for alert in self.alerts.values() {
            enc.u64(alert.id.0);
            enc.opt_u64(alert.root.map(|n| u64::from(n.0)));
            enc.u8(class_code(alert.class));
            enc.u8(severity_code(alert.severity));
            enc.u8(phase_code(alert.phase));
            enc.u64(alert.opened_at);
            enc.u64(alert.last_seen);
            enc.opt_u64(alert.resolved_at);
            enc.u64(alert.occurrences);
            enc.u64(alert.suppressed);
            enc.usize(alert.devices);
            enc.opt_u64(alert.signature.map(|s| s.0));
        }
        enc.usize(self.open_counts.len());
        for (aid, count) in &self.open_counts {
            enc.u64(aid.0);
            enc.u64(*count);
        }
        enc.usize(self.by_root.len());
        for (root, aid) in &self.by_root {
            enc.u32(*root);
            enc.u64(aid.0);
        }
        enc.usize(self.seen.len());
        for (sig, count) in &self.seen {
            enc.u64(sig.0);
            enc.u64(*count);
        }
        enc.u64(self.alerts_created);
        enc.u64(self.pages_emitted);
        enc.u64(self.recurrences);
        enc.u64(self.suppressed_total);
        enc.u64(self.resolved_total);
        enc.into_bytes()
    }

    /// Rebuilds a sink from a [`AlertSink::save`] payload plus the
    /// constructor arguments of the original.
    ///
    /// Restore is deny-by-default: a `config`, `keymap`, or topology
    /// gateway count that disagrees with what the payload was saved under
    /// fails with [`MonitorError::CheckpointMismatch`] naming the knob —
    /// resuming dedup windows or rate limits under different tuning would
    /// silently diverge from the run that saved the state.
    ///
    /// # Errors
    ///
    /// [`MonitorError::CheckpointMismatch`] on a disagreeing constructor
    /// argument; [`MonitorError::Persist`] on a payload that is corrupt,
    /// truncated, from another [`SINK_STATE_VERSION`], or that holds an
    /// impossible value.
    pub fn load(
        topology: Topology,
        keymap: KeyMap,
        config: AlertConfig,
        payload: &[u8],
    ) -> Result<AlertSink, MonitorError> {
        let mut dec = Dec::new(payload);
        let version = dec.u32("alert.version")?;
        if version != SINK_STATE_VERSION {
            return Err(MonitorError::Persist {
                detail: format!(
                    "alert sink state version {version} is not supported \
                     (this build reads version {SINK_STATE_VERSION})"
                ),
            });
        }
        if dec.u64("alert.dedup_window")? != config.dedup_window {
            return Err(MonitorError::CheckpointMismatch {
                field: "alert.dedup_window",
            });
        }
        if dec.u32("alert.bucket_capacity")? != config.bucket_capacity {
            return Err(MonitorError::CheckpointMismatch {
                field: "alert.bucket_capacity",
            });
        }
        if dec.u32("alert.refill_millitokens")? != config.refill_millitokens {
            return Err(MonitorError::CheckpointMismatch {
                field: "alert.refill_millitokens",
            });
        }
        if dec.tag("alert.keymap", 2)? != keymap_code(keymap) {
            return Err(MonitorError::CheckpointMismatch {
                field: "alert.keymap",
            });
        }
        let mut sink = AlertSink::new(topology, keymap, config);
        if dec.usize("alert.gateways")? != sink.gateway_of.len() {
            return Err(MonitorError::CheckpointMismatch {
                field: "alert.topology",
            });
        }
        let level = dec.u64("alert.bucket_level")?;
        sink.bucket.set_level_millitokens(level);
        sink.next_alert = dec.u64("alert.next_alert")?;
        let lives_n = dec.seq_len("alert.lives")?;
        for _ in 0..lives_n {
            let id = EventId(dec.u64("alert.lives")?);
            let onset = dec.u64("alert.lives")?;
            let last = dec.u64("alert.lives")?;
            let onset_class = decode_sink_class(&mut dec, "alert.lives")?;
            let peak = decode_sink_class(&mut dec, "alert.lives")?;
            let devices: BTreeSet<DeviceKey> = dec
                .u64s("alert.lives")?
                .into_iter()
                .map(DeviceKey)
                .collect();
            let straggler_overlap = dec.bool("alert.lives")?;
            let alert = dec.opt_u64("alert.lives")?.map(AlertId);
            sink.lives.insert(
                id,
                EventLife {
                    onset,
                    last,
                    onset_class,
                    peak,
                    devices,
                    straggler_overlap,
                    alert,
                },
            );
        }
        let alerts_n = dec.seq_len("alert.alerts")?;
        for _ in 0..alerts_n {
            let id = AlertId(dec.u64("alert.id")?);
            let root = decode_node(&mut dec, "alert.root")?;
            let class = decode_sink_class(&mut dec, "alert.class")?;
            let severity = decode_severity(&mut dec)?;
            let phase = decode_phase(&mut dec)?;
            let opened_at = dec.u64("alert.opened_at")?;
            let last_seen = dec.u64("alert.last_seen")?;
            let resolved_at = dec.opt_u64("alert.resolved_at")?;
            let occurrences = dec.u64("alert.occurrences")?;
            let suppressed = dec.u64("alert.suppressed")?;
            let devices = dec.usize("alert.devices")?;
            let signature = dec.opt_u64("alert.signature")?.map(Signature);
            sink.alerts.insert(
                id,
                Alert {
                    id,
                    root,
                    class,
                    severity,
                    phase,
                    opened_at,
                    last_seen,
                    resolved_at,
                    occurrences,
                    suppressed,
                    devices,
                    signature,
                },
            );
        }
        let open_n = dec.seq_len("alert.open_counts")?;
        for _ in 0..open_n {
            let aid = AlertId(dec.u64("alert.open_counts")?);
            let count = dec.u64("alert.open_counts")?;
            sink.open_counts.insert(aid, count);
        }
        let roots_n = dec.seq_len("alert.by_root")?;
        for _ in 0..roots_n {
            let root = dec.u32("alert.by_root")?;
            let aid = AlertId(dec.u64("alert.by_root")?);
            sink.by_root.insert(root, aid);
        }
        let seen_n = dec.seq_len("alert.seen")?;
        for _ in 0..seen_n {
            let sig = Signature(dec.u64("alert.seen")?);
            let count = dec.u64("alert.seen")?;
            sink.seen.insert(sig, count);
        }
        sink.alerts_created = dec.u64("alert.alerts_created")?;
        sink.pages_emitted = dec.u64("alert.pages_emitted")?;
        sink.recurrences = dec.u64("alert.recurrences")?;
        sink.suppressed_total = dec.u64("alert.suppressed_total")?;
        sink.resolved_total = dec.u64("alert.resolved_total")?;
        dec.finish("alert-sink")?;
        Ok(sink)
    }
}
