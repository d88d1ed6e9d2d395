//! The workload zoo: every generator in the workspace behind the one
//! [`Scenario`] interface.
//!
//! * [`SimScenario`] — the paper's Section VII-A Monte-Carlo protocol
//!   (`anomaly-simulator`), chained across intervals;
//! * [`NetworkFaultScenario`] — ISP fault injection on a synthetic
//!   core/aggregation/DSLAM/gateway tree (`anomaly-network`): DSLAM
//!   outages are the massive events, CPE faults the isolated ones;
//! * [`AdversaryScenario`] — the Section VIII collusion attack: a
//!   coalition of fabricated devices shadows an isolated victim's
//!   trajectory to suppress its operator report;
//! * [`FleetScenario`] — the large-fleet load generator
//!   (`simulator::fleet`): co-moving clusters and lone jumpers over a calm
//!   jittering population;
//! * [`ChurnScenario`] — the same fleet with periodic membership
//!   replacement, exercising the seals that realign the previous snapshot
//!   after a join or a leave;
//! * [`RecordedScenario`] — replay of a recorded [`Trace`] ("send me the
//!   scenario that broke").

use crate::error::EvalError;
use crate::scenario::{ChurnEvent, Scenario, ScenarioRun, ScenarioSpec};
use anomaly_core::Params;
use anomaly_network::{FaultTarget, NetworkConfig, NetworkSimulation, NodeId};
use anomaly_qos::{DeviceId, QosSpace, Snapshot, StatePair};
use anomaly_simulator::trace::{Trace, TraceError, TraceStep};
use anomaly_simulator::{
    generate_fleet, ErrorEvent, FleetSpec, GroundTruth, ScenarioConfig, Simulation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Section VII-A Monte-Carlo generator as a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SimScenario {
    /// Scenario name.
    pub name: String,
    /// Generator configuration (population, error mix, `r`, `τ`, seed).
    pub config: ScenarioConfig,
    /// Intervals to generate.
    pub steps: usize,
    /// Detector jump threshold. Calm simulated devices do not move at all,
    /// so any value below the typical error displacement works.
    pub detector_delta: f64,
}

impl SimScenario {
    /// A named scenario at the paper's operating point.
    pub fn paper(name: impl Into<String>, seed: u64, steps: usize) -> Self {
        SimScenario {
            name: name.into(),
            config: ScenarioConfig::paper_defaults(seed),
            steps,
            detector_delta: 0.02,
        }
    }
}

impl Scenario for SimScenario {
    fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            name: self.name.clone(),
            population: self.config.n,
            services: self.config.dim,
            params: self.config.params,
            detector_delta: self.detector_delta,
        }
    }

    fn generate(&self) -> Result<ScenarioRun, EvalError> {
        let mut sim = Simulation::new(self.config.clone())?;
        let steps = (0..self.steps)
            .map(|_| {
                let outcome = sim.step();
                TraceStep {
                    pair: outcome.pair,
                    truth: outcome.truth,
                }
            })
            .collect();
        Ok(ScenarioRun {
            steps,
            churn: Vec::new(),
        })
    }
}

/// ISP fault injection on a synthetic access tree.
///
/// Each step starts from a fully repaired network, degrades
/// `dslam_faults_per_step` distinct DSLAMs (massive events: every
/// downstream gateway drops coherently) and up to `cpe_faults_per_step`
/// gateways on *unfaulted* DSLAM subtrees (isolated events), so the
/// impacted sets are pairwise disjoint — restriction R1 holds by
/// construction. Fault choices rotate deterministically with the step
/// index.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkFaultScenario {
    /// Scenario name.
    pub name: String,
    /// Tree shape, services, measurement model, and jitter seed.
    pub config: NetworkConfig,
    /// Characterization operating point.
    pub params: Params,
    /// Intervals to generate.
    pub steps: usize,
    /// DSLAM outages per step.
    pub dslam_faults_per_step: usize,
    /// CPE (single-gateway) faults per step; capped at the number of
    /// DSLAMs left unfaulted.
    pub cpe_faults_per_step: usize,
    /// Health drop of faulted network elements, in `(0, 1]`.
    pub dslam_severity: f64,
    /// Health drop of faulted gateways, in `(0, 1]`.
    pub cpe_severity: f64,
    /// Detector jump threshold: above the measurement jitter, below the
    /// severity-induced QoS drop.
    pub detector_delta: f64,
}

impl NetworkFaultScenario {
    /// A mixed workload on the small 64-gateway tree: one DSLAM outage and
    /// one CPE fault per step.
    pub fn small_mixed(name: impl Into<String>, seed: u64, steps: usize) -> Self {
        NetworkFaultScenario {
            name: name.into(),
            config: NetworkConfig::small(seed),
            params: Params::new(0.02, 3).expect("the network operating point is valid"),
            steps,
            dslam_faults_per_step: 1,
            cpe_faults_per_step: 1,
            dslam_severity: 0.5,
            cpe_severity: 0.7,
            detector_delta: 0.1,
        }
    }
}

impl Scenario for NetworkFaultScenario {
    fn spec(&self) -> ScenarioSpec {
        let (c, a, d, g) = self.config.shape;
        ScenarioSpec {
            name: self.name.clone(),
            population: c * a * d * g,
            services: self.config.services.len(),
            params: self.params,
            detector_delta: self.detector_delta,
        }
    }

    fn generate(&self) -> Result<ScenarioRun, EvalError> {
        if self.dslam_faults_per_step == 0 && self.cpe_faults_per_step == 0 {
            return Err(EvalError::InvalidScenario {
                reason: "a network fault scenario needs at least one fault per step".into(),
            });
        }
        let mut net = NetworkSimulation::new(self.config.clone())?;
        let dslams: Vec<NodeId> = net.topology().dslams().to_vec();
        let node_faults = self.dslam_faults_per_step.min(dslams.len());
        let mut steps = Vec::with_capacity(self.steps);
        for s in 0..self.steps {
            net.repair_all();
            // Distinct DSLAMs: a rotating window over the DSLAM list.
            let chosen: Vec<NodeId> = (0..node_faults)
                .map(|i| dslams[(s * node_faults + i) % dslams.len()])
                .collect();
            let mut faults: Vec<FaultTarget> = chosen
                .iter()
                .map(|&node| FaultTarget::Node {
                    node,
                    severity: self.dslam_severity,
                })
                .collect();
            // CPE faults live on subtrees no DSLAM fault touches (R1).
            let free: Vec<NodeId> = dslams
                .iter()
                .copied()
                .filter(|d| !chosen.contains(d))
                .collect();
            let cpe_faults = self.cpe_faults_per_step.min(free.len());
            for j in 0..cpe_faults {
                let subtree = net.topology().downstream_gateways(free[j]);
                let gateway = subtree[(s + j) % subtree.len()];
                faults.push(FaultTarget::Gateway {
                    gateway,
                    severity: self.cpe_severity,
                });
            }
            let is_cpe: Vec<bool> = (0..faults.len()).map(|i| i >= node_faults).collect();
            let outcome = net.step(faults);
            let events: Vec<ErrorEvent> = outcome
                .impacted
                .iter()
                .zip(&is_cpe)
                .filter(|(impacted, _)| !impacted.is_empty())
                .map(|(impacted, &cpe)| ErrorEvent {
                    impacted: impacted.clone(),
                    intended_isolated: cpe,
                })
                .collect();
            steps.push(TraceStep {
                pair: outcome.pair,
                truth: GroundTruth::new(events),
            });
        }
        Ok(ScenarioRun {
            steps,
            churn: Vec::new(),
        })
    }
}

/// The collusion attack of Section VIII as a standing workload.
///
/// The honest population follows a [`SimScenario`]; `coalition` fabricated
/// devices (ids `n..n+coalition`) park at a calm position and, whenever a
/// step contains a lone isolated victim, shadow its trajectory within
/// `r/2` at both instants. The coalition's own event is recorded in the
/// ground truth (intended massive — the attackers co-move by design), so
/// the scoring shows both sides of the attack: the victim's suppressed
/// isolated verdict and the coalition's fabricated motion.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryScenario {
    /// Scenario name.
    pub name: String,
    /// Honest-population generator configuration.
    pub config: ScenarioConfig,
    /// Fabricated devices per attack.
    pub coalition: usize,
    /// Intervals to generate.
    pub steps: usize,
    /// Detector jump threshold (see [`SimScenario::detector_delta`]).
    pub detector_delta: f64,
    /// Seed of the shadow-jitter RNG (independent of the honest world).
    pub shadow_seed: u64,
}

impl Scenario for AdversaryScenario {
    fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            name: self.name.clone(),
            population: self.config.n + self.coalition,
            services: self.config.dim,
            params: self.config.params,
            detector_delta: self.detector_delta,
        }
    }

    fn generate(&self) -> Result<ScenarioRun, EvalError> {
        let mut sim = Simulation::new(self.config.clone())?;
        let mut rng = StdRng::seed_from_u64(self.shadow_seed);
        let n = self.config.n;
        let dim = self.config.dim;
        let space = QosSpace::new(dim).expect("the simulator validated dim >= 1");
        let park = vec![0.95; dim];
        let jitter = self.config.params.radius() / 2.0;
        let mut steps = Vec::with_capacity(self.steps);
        for _ in 0..self.steps {
            let outcome = sim.step();
            let rows_of = |snapshot: &Snapshot| -> Vec<Vec<f64>> {
                (0..n)
                    .map(|i| snapshot.position(DeviceId(i as u32)).to_vec())
                    .collect()
            };
            let mut before_rows = rows_of(outcome.pair.before());
            let mut after_rows = rows_of(outcome.pair.after());
            let mut events = outcome.truth.events().to_vec();
            // A lone isolated victim: the device whose report the
            // coalition wants to swallow.
            let victim = outcome
                .truth
                .events()
                .iter()
                .find(|e| e.impacted.len() == 1)
                .and_then(|e| e.impacted.iter().next());
            match victim {
                Some(victim) if self.coalition > 0 => {
                    let shadow = |origin: &[f64], rng: &mut StdRng| -> Vec<f64> {
                        origin
                            .iter()
                            .map(|c| (c + rng.gen_range(-jitter..=jitter)).clamp(0.0, 1.0))
                            .collect()
                    };
                    let victim_before = outcome.pair.before().position(victim).to_vec();
                    let victim_after = outcome.pair.after().position(victim).to_vec();
                    for _ in 0..self.coalition {
                        before_rows.push(shadow(&victim_before, &mut rng));
                        after_rows.push(shadow(&victim_after, &mut rng));
                    }
                    events.push(ErrorEvent {
                        impacted: (n..n + self.coalition)
                            .map(|i| DeviceId(i as u32))
                            .collect(),
                        intended_isolated: false,
                    });
                }
                _ => {
                    // No victim this interval: the coalition idles (no
                    // motion, no flags).
                    for _ in 0..self.coalition {
                        before_rows.push(park.clone());
                        after_rows.push(park.clone());
                    }
                }
            }
            let pair = StatePair::new(
                Snapshot::from_rows(&space, before_rows).expect("rows are clamped to the cube"),
                Snapshot::from_rows(&space, after_rows).expect("rows are clamped to the cube"),
            )
            .expect("both snapshots cover n + coalition devices");
            steps.push(TraceStep {
                pair,
                truth: GroundTruth::new(events),
            });
        }
        Ok(ScenarioRun {
            steps,
            churn: Vec::new(),
        })
    }
}

/// The large-fleet load generator as a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// Scenario name.
    pub name: String,
    /// Fleet shape and anomaly mix.
    pub fleet: FleetSpec,
    /// Anomalous intervals to generate.
    pub steps: usize,
    /// Characterization operating point; keep the window `2r` at or above
    /// the fleet's `cohesion` so clusters register as consistent motions.
    pub params: Params,
}

impl FleetScenario {
    /// Detector threshold between the fleet's calm jitter and its
    /// anomalous shift.
    fn detector_delta(&self) -> f64 {
        (self.fleet.jitter + self.fleet.shift) / 2.0
    }

    fn trace_steps(&self) -> Result<Vec<TraceStep>, EvalError> {
        let instants = generate_fleet(&self.fleet, self.steps)?;
        Ok(instants
            .windows(2)
            .map(|w| TraceStep {
                pair: StatePair::new(w[0].snapshot.clone(), w[1].snapshot.clone())
                    .expect("chained instants share the fleet shape"),
                truth: w[1].truth.clone(),
            })
            .collect())
    }
}

impl Scenario for FleetScenario {
    fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            name: self.name.clone(),
            population: self.fleet.devices,
            services: self.fleet.services,
            params: self.params,
            detector_delta: self.detector_delta(),
        }
    }

    fn generate(&self) -> Result<ScenarioRun, EvalError> {
        Ok(ScenarioRun {
            steps: self.trace_steps()?,
            churn: Vec::new(),
        })
    }
}

/// A [`FleetScenario`] with periodic membership replacement: after every
/// `churn_every` steps, the `churn_devices` devices on the tail dense
/// slots leave and fresh ones join in their place, so the monitor
/// characterizes the surviving cohort and warms the joiners — while
/// ground-truth device ids stay positional.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnScenario {
    /// The underlying fleet workload.
    pub fleet: FleetScenario,
    /// Tail devices replaced at each churn point (must be below the fleet
    /// size).
    pub churn_devices: usize,
    /// Steps between churn points (at least 1).
    pub churn_every: usize,
}

impl Scenario for ChurnScenario {
    fn spec(&self) -> ScenarioSpec {
        self.fleet.spec()
    }

    fn generate(&self) -> Result<ScenarioRun, EvalError> {
        let n = self.fleet.fleet.devices;
        if self.churn_devices == 0 || self.churn_devices >= n {
            return Err(EvalError::InvalidScenario {
                reason: format!(
                    "churn_devices must be in 1..{n}, got {}",
                    self.churn_devices
                ),
            });
        }
        if self.churn_every == 0 {
            return Err(EvalError::InvalidScenario {
                reason: "churn_every must be at least 1".into(),
            });
        }
        let steps = self.fleet.trace_steps()?;
        // Keys currently occupying the tail slots, slot-ascending.
        let mut tail_keys: Vec<u64> = ((n - self.churn_devices) as u64..n as u64).collect();
        let mut next_key = n as u64;
        let mut churn = Vec::new();
        let mut at = self.churn_every;
        while at < steps.len() {
            let joins: Vec<u64> = (next_key..next_key + self.churn_devices as u64).collect();
            churn.push(ChurnEvent {
                after_step: at - 1,
                // Descending slot order: every leave pops the current last
                // dense slot, so no surviving device changes id.
                leaves: tail_keys.iter().rev().copied().collect(),
                joins: joins.clone(),
            });
            tail_keys = joins;
            next_key += self.churn_devices as u64;
            at += self.churn_every;
        }
        Ok(ScenarioRun { steps, churn })
    }
}

/// Long-lived anomalies and flapping devices: the event-tracker workload.
///
/// Three populations share a 2-service QoS cube:
///
/// * a **massive cluster** (devices `0..cluster_size`) parked near the top
///   of the cube that degrades coherently — one downward `shift` per step —
///   for `duration` consecutive steps starting at `onset`: one long-lived
///   network event whose ground truth spans many steps;
/// * **flappers** (the next `flappers` devices), each alone in its own
///   neighbourhood, that jump out by `shift` at steps `≡ 0 (mod
///   flap_period)` and back at steps `≡ 1`, then hold still — isolated
///   anomalies that recur with quiet gaps in between;
/// * a **calm majority** jittering below the detector threshold.
///
/// Per-step device verdicts score exactly like every other workload; the
/// point of this one is the *event* axis: the cluster must surface as one
/// event (not `duration` disjoint massive verdicts) and each flapper's
/// recurrences must stay temporally correlated, which the event-level
/// precision/recall/latency metrics quantify.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistentAnomalyScenario {
    /// Scenario name.
    pub name: String,
    /// Fleet size (cluster + flappers + calm majority).
    pub devices: usize,
    /// Devices in the long-lived massive cluster.
    pub cluster_size: usize,
    /// Step the cluster starts degrading.
    pub onset: usize,
    /// Consecutive degrading steps.
    pub duration: usize,
    /// Number of flapping devices.
    pub flappers: usize,
    /// Flap cycle length (`>= 2`): out at `step ≡ 0`, back at `step ≡ 1`,
    /// still otherwise — so each cycle has `flap_period - 2` quiet steps.
    pub flap_period: usize,
    /// Steps to generate.
    pub steps: usize,
    /// Characterization operating point.
    pub params: Params,
    /// Calm per-coordinate jitter, strictly below the detector threshold.
    pub jitter: f64,
    /// Anomalous per-step displacement, strictly above it.
    pub shift: f64,
    /// Seed for placement and calm jitter.
    pub seed: u64,
}

impl PersistentAnomalyScenario {
    /// A standard instance: 800 devices, an 8-device cluster degrading for
    /// 5 steps from step 2, four period-3 flappers, 10 steps.
    pub fn standard(name: impl Into<String>, seed: u64) -> Self {
        PersistentAnomalyScenario {
            name: name.into(),
            devices: 800,
            cluster_size: 8,
            onset: 2,
            duration: 5,
            flappers: 4,
            flap_period: 3,
            steps: 10,
            params: Params::new(0.03, 3).expect("the standard operating point is valid"),
            jitter: 0.01,
            shift: 0.15,
            seed,
        }
    }

    fn detector_delta(&self) -> f64 {
        (self.jitter + self.shift) / 2.0
    }
}

impl Scenario for PersistentAnomalyScenario {
    fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            name: self.name.clone(),
            population: self.devices,
            services: 2,
            params: self.params,
            detector_delta: self.detector_delta(),
        }
    }

    fn generate(&self) -> Result<ScenarioRun, EvalError> {
        let window = self.params.window();
        let invalid = |reason: String| EvalError::InvalidScenario { reason };
        if self.flap_period < 2 {
            return Err(invalid(format!(
                "flap_period must be at least 2, got {}",
                self.flap_period
            )));
        }
        if self.cluster_size + self.flappers > self.devices {
            return Err(invalid(format!(
                "{} cluster + {} flapper devices exceed the fleet of {}",
                self.cluster_size, self.flappers, self.devices
            )));
        }
        if self.shift <= self.jitter {
            return Err(invalid(format!(
                "shift {} must exceed the calm jitter {} for the detector to separate them",
                self.shift, self.jitter
            )));
        }
        let active_steps = self.duration.min(self.steps.saturating_sub(self.onset));
        let cluster_top = 0.88;
        if cluster_top - active_steps as f64 * self.shift < 0.01 {
            return Err(invalid(format!(
                "{active_steps} drift steps of {} leave the unit cube",
                self.shift
            )));
        }
        // Flappers sit on one column, vertically separated by more than the
        // vicinity window so they never co-move with each other.
        let spacing = 2.0 * window + 0.02;
        if 0.1 + self.flappers as f64 * spacing > 0.95 || 0.06 + self.shift > 0.80 {
            return Err(invalid(format!(
                "{} flappers at spacing {spacing:.3} (shift {}) do not fit the cube",
                self.flappers, self.shift
            )));
        }

        let space = QosSpace::new(2).expect("two services is a valid space");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let spread = window.min(0.08) / 2.0;
        let mut pos: Vec<[f64; 2]> = (0..self.devices)
            .map(|i| {
                if i < self.cluster_size {
                    [
                        cluster_top + rng.gen_range(0.0..spread),
                        cluster_top + rng.gen_range(0.0..spread),
                    ]
                } else if i < self.cluster_size + self.flappers {
                    let f = i - self.cluster_size;
                    [0.06, 0.1 + f as f64 * spacing]
                } else {
                    [rng.gen_range(0.15..0.80), rng.gen_range(0.15..0.80)]
                }
            })
            .collect();

        let snapshot = |pos: &[[f64; 2]]| -> Snapshot {
            Snapshot::from_rows(&space, pos.iter().map(|p| p.to_vec()).collect())
                .expect("generated rows stay in the unit cube")
        };
        let mut previous = snapshot(&pos);
        let mut steps = Vec::with_capacity(self.steps);
        for step in 0..self.steps {
            let mut events: Vec<ErrorEvent> = Vec::new();
            // The long-lived cluster: one coherent downward shift per
            // active step, every cluster device impacted.
            if step >= self.onset && step < self.onset + self.duration {
                for p in pos.iter_mut().take(self.cluster_size) {
                    p[1] -= self.shift;
                }
                events.push(ErrorEvent {
                    impacted: (0..self.cluster_size).map(|i| DeviceId(i as u32)).collect(),
                    intended_isolated: false,
                });
            }
            // Flappers: out, back, still, repeat.
            for f in 0..self.flappers {
                let id = self.cluster_size + f;
                let jumped = match step % self.flap_period {
                    0 => {
                        pos[id][0] += self.shift;
                        true
                    }
                    1 => {
                        pos[id][0] -= self.shift;
                        true
                    }
                    _ => false,
                };
                if jumped {
                    events.push(ErrorEvent {
                        impacted: anomaly_core::DeviceSet::singleton(DeviceId(id as u32)),
                        intended_isolated: true,
                    });
                }
            }
            // The calm majority random-walks below the detector threshold.
            for p in pos.iter_mut().skip(self.cluster_size + self.flappers) {
                for c in p.iter_mut() {
                    *c = (*c + rng.gen_range(-self.jitter..=self.jitter)).clamp(0.01, 0.99);
                }
            }
            let current = snapshot(&pos);
            steps.push(TraceStep {
                pair: StatePair::new(previous, current.clone())
                    .expect("chained snapshots share the fleet shape"),
                truth: GroundTruth::new(events),
            });
            previous = current;
        }
        Ok(ScenarioRun {
            steps,
            churn: Vec::new(),
        })
    }
}

/// Replays any scenario through the monitor's streaming front-end
/// (`ingest` + `seal`) instead of the batch `observe` path: each step's
/// snapshot is decomposed into per-device updates, shuffled with a
/// seed-fixed RNG, optionally dropped, and sealed once.
///
/// With `drop_probability == 0` the streamed replay is **byte-identical**
/// to the batch path — same verdicts, same scores — which
/// [`evaluate_monitor_streaming`](crate::evaluate_monitor_streaming)
/// asserts cheaply and `crates/eval/tests/streaming_equivalence.rs` pins
/// across every workload. With a positive drop probability, dropped
/// devices are bridged by `StalenessPolicy::CarryForward { max_age }`,
/// quantifying how gracefully accuracy degrades under report loss.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingScenario<S> {
    /// The workload being replayed.
    pub inner: S,
    /// Seed of the arrival-order shuffle (and the drop draws).
    pub shuffle_seed: u64,
    /// Per-update probability of losing the report, in `[0, 1)`. Only
    /// devices with an already-sealed position are ever dropped, so the
    /// carry-forward policy always has a row to bridge with.
    pub drop_probability: f64,
    /// Carry-forward bound handed to the monitor when drops are enabled.
    pub max_age: u64,
}

impl<S: Scenario> StreamingScenario<S> {
    /// Wraps a scenario for lossless streaming replay (shuffle only).
    pub fn shuffled(inner: S, shuffle_seed: u64) -> Self {
        StreamingScenario {
            inner,
            shuffle_seed,
            drop_probability: 0.0,
            max_age: 1,
        }
    }
}

impl<S: Scenario> Scenario for StreamingScenario<S> {
    fn spec(&self) -> ScenarioSpec {
        self.inner.spec()
    }

    fn generate(&self) -> Result<ScenarioRun, EvalError> {
        self.inner.generate()
    }
}

/// Replay of a recorded trace as a scenario — regression fixtures and
/// "send me the scenario that broke" workflows, scored like any live
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedScenario {
    /// Scenario name.
    pub name: String,
    /// The recorded steps and parameters.
    pub trace: Trace,
    /// Detector jump threshold for the replay monitor.
    pub detector_delta: f64,
}

impl RecordedScenario {
    /// Parses a trace from its v1 text format.
    ///
    /// # Errors
    ///
    /// Propagates [`TraceError`] from the parser.
    pub fn from_text(
        name: impl Into<String>,
        text: &str,
        detector_delta: f64,
    ) -> Result<Self, TraceError> {
        Ok(RecordedScenario {
            name: name.into(),
            trace: Trace::from_text(text)?,
            detector_delta,
        })
    }
}

impl Scenario for RecordedScenario {
    fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            name: self.name.clone(),
            population: self.trace.n,
            services: self.trace.dim,
            params: self.trace.params,
            detector_delta: self.detector_delta,
        }
    }

    fn generate(&self) -> Result<ScenarioRun, EvalError> {
        Ok(ScenarioRun {
            steps: self.trace.steps.clone(),
            churn: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomaly_core::DeviceSet;

    fn assert_r1(run: &ScenarioRun) {
        for (k, step) in run.steps.iter().enumerate() {
            let mut seen = DeviceSet::new();
            for event in step.truth.events() {
                for id in &event.impacted {
                    assert!(seen.insert(id), "step {k}: device {id} in two events");
                }
            }
        }
    }

    #[test]
    fn sim_scenario_generates_chained_labelled_steps() {
        let mut config = ScenarioConfig::paper_defaults(3);
        config.n = 200;
        config.errors_per_step = 4;
        let scenario = SimScenario {
            name: "sim".into(),
            config,
            steps: 3,
            detector_delta: 0.02,
        };
        let run = scenario.generate().unwrap();
        assert_eq!(run.steps.len(), 3);
        assert!(run.churn.is_empty());
        assert_r1(&run);
        // Chained: after of step k is before of step k+1.
        for w in run.steps.windows(2) {
            assert_eq!(w[0].pair.after(), w[1].pair.before());
        }
        // Deterministic.
        assert_eq!(scenario.generate().unwrap(), run);
    }

    #[test]
    fn network_scenario_keeps_events_disjoint_and_labelled() {
        let scenario = NetworkFaultScenario::small_mixed("net", 5, 4);
        let run = scenario.generate().unwrap();
        assert_eq!(run.steps.len(), 4);
        assert_r1(&run);
        let tau = scenario.params.tau();
        for step in &run.steps {
            let massive = step
                .truth
                .events()
                .iter()
                .filter(|e| e.is_massive(tau))
                .count();
            let isolated = step.truth.events().len() - massive;
            assert_eq!(massive, 1, "one DSLAM outage per step");
            assert_eq!(isolated, 1, "one CPE fault per step");
            for e in step.truth.events() {
                assert_eq!(e.intended_isolated, !e.is_massive(tau));
            }
        }
    }

    #[test]
    fn network_scenario_rejects_the_empty_fault_mix() {
        let mut scenario = NetworkFaultScenario::small_mixed("net", 1, 1);
        scenario.dslam_faults_per_step = 0;
        scenario.cpe_faults_per_step = 0;
        assert!(matches!(
            scenario.generate(),
            Err(EvalError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn adversary_scenario_extends_the_population_with_shadows() {
        let mut config = ScenarioConfig::paper_defaults(7);
        config.n = 300;
        config.errors_per_step = 6;
        config.isolated_prob = 0.9;
        let scenario = AdversaryScenario {
            name: "adv".into(),
            config,
            coalition: 3,
            steps: 3,
            detector_delta: 0.02,
            shadow_seed: 11,
        };
        assert_eq!(scenario.spec().population, 303);
        let run = scenario.generate().unwrap();
        assert_r1(&run);
        let shadow_events: usize = run
            .steps
            .iter()
            .flat_map(|s| s.truth.events())
            .filter(|e| e.impacted.iter().any(|id| id.0 >= 300))
            .count();
        assert!(shadow_events > 0, "some step must mount the attack");
        for step in &run.steps {
            assert_eq!(step.pair.len(), 303);
            for e in step.truth.events() {
                if e.impacted.iter().any(|id| id.0 >= 300) {
                    assert_eq!(e.impacted.len(), 3, "the coalition acts as one event");
                    assert!(!e.intended_isolated);
                }
            }
        }
    }

    fn small_fleet(name: &str) -> FleetScenario {
        FleetScenario {
            name: name.into(),
            fleet: FleetSpec {
                devices: 400,
                services: 2,
                massive_clusters: 2,
                cluster_size: 5,
                isolated: 3,
                cohesion: 0.05,
                calm_activity: 0.4,
                jitter: 0.02,
                shift: 0.3,
                seed: 9,
            },
            steps: 4,
            params: Params::new(0.03, 3).unwrap(),
        }
    }

    #[test]
    fn fleet_scenario_reuses_the_generator_truth() {
        let run = small_fleet("fleet").generate().unwrap();
        assert_eq!(run.steps.len(), 4);
        assert_r1(&run);
        for step in &run.steps {
            assert!(!step.truth.events().is_empty());
        }
    }

    #[test]
    fn churn_scenario_replaces_tail_slots() {
        let scenario = ChurnScenario {
            fleet: small_fleet("churn"),
            churn_devices: 20,
            churn_every: 2,
        };
        let run = scenario.generate().unwrap();
        assert_eq!(run.churn.len(), 1, "4 steps, churn after step 1");
        let event = &run.churn[0];
        assert_eq!(event.after_step, 1);
        assert_eq!(event.leaves, (380u64..400).rev().collect::<Vec<_>>());
        assert_eq!(event.joins, (400u64..420).collect::<Vec<_>>());
    }

    #[test]
    fn churn_scenario_validates_its_knobs() {
        let mut scenario = ChurnScenario {
            fleet: small_fleet("churn"),
            churn_devices: 0,
            churn_every: 2,
        };
        assert!(matches!(
            scenario.generate(),
            Err(EvalError::InvalidScenario { .. })
        ));
        scenario.churn_devices = 20;
        scenario.churn_every = 0;
        assert!(matches!(
            scenario.generate(),
            Err(EvalError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn persistent_scenario_generates_chained_labelled_steps() {
        let scenario = PersistentAnomalyScenario {
            devices: 60,
            ..PersistentAnomalyScenario::standard("persist", 5)
        };
        let run = scenario.generate().unwrap();
        assert_eq!(run.steps.len(), 10);
        assert_r1(&run);
        for w in run.steps.windows(2) {
            assert_eq!(w[0].pair.after(), w[1].pair.before());
        }
        assert_eq!(scenario.generate().unwrap(), run, "deterministic");
        // The cluster event appears at exactly the drift steps.
        for (i, step) in run.steps.iter().enumerate() {
            let has_cluster = step
                .truth
                .events()
                .iter()
                .any(|e| e.impacted.len() == scenario.cluster_size);
            assert_eq!(has_cluster, (2..7).contains(&i), "step {i}");
            let flapper_events = step
                .truth
                .events()
                .iter()
                .filter(|e| e.impacted.len() == 1)
                .count();
            let expected = if i % 3 <= 1 { scenario.flappers } else { 0 };
            assert_eq!(flapper_events, expected, "step {i}");
        }
        // Linked into spans: one long massive event, plus per-flapper
        // isolated recurrences (two active steps each, quiet gaps between).
        let spans = anomaly_simulator::score::link_truth_events(
            run.steps.iter().map(|s| &s.truth),
            scenario.params.tau(),
        );
        let massive: Vec<_> = spans.iter().filter(|s| s.massive).collect();
        assert_eq!(massive.len(), 1, "one long-lived cluster event");
        assert_eq!((massive[0].onset, massive[0].last), (2, 6));
        assert_eq!(massive[0].devices.len(), scenario.cluster_size);
        let isolated = spans.len() - 1;
        // Steps 0..10, period 3: recurrences at {0,1}, {3,4}, {6,7}, {9}.
        assert_eq!(isolated, scenario.flappers * 4);
    }

    #[test]
    fn persistent_scenario_validates_its_knobs() {
        let bad_period = PersistentAnomalyScenario {
            flap_period: 1,
            ..PersistentAnomalyScenario::standard("p", 1)
        };
        assert!(matches!(
            bad_period.generate(),
            Err(EvalError::InvalidScenario { .. })
        ));
        let bad_drift = PersistentAnomalyScenario {
            duration: 50,
            steps: 60,
            ..PersistentAnomalyScenario::standard("p", 1)
        };
        assert!(matches!(
            bad_drift.generate(),
            Err(EvalError::InvalidScenario { .. })
        ));
        let bad_fleet = PersistentAnomalyScenario {
            devices: 5,
            ..PersistentAnomalyScenario::standard("p", 1)
        };
        assert!(matches!(
            bad_fleet.generate(),
            Err(EvalError::InvalidScenario { .. })
        ));
        let bad_shift = PersistentAnomalyScenario {
            jitter: 0.2,
            ..PersistentAnomalyScenario::standard("p", 1)
        };
        assert!(matches!(
            bad_shift.generate(),
            Err(EvalError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn recorded_scenario_roundtrips_through_text() {
        let sim = SimScenario {
            name: "sim".into(),
            config: {
                let mut c = ScenarioConfig::paper_defaults(13);
                c.n = 80;
                c.errors_per_step = 3;
                c
            },
            steps: 2,
            detector_delta: 0.02,
        };
        let run = sim.generate().unwrap();
        let mut trace = Trace::new(80, 2, sim.config.params);
        trace.steps = run.steps.clone();
        let recorded = RecordedScenario::from_text("recorded", &trace.to_text(), 0.02).unwrap();
        assert_eq!(recorded.spec().population, 80);
        let replayed = recorded.generate().unwrap();
        assert_eq!(replayed.steps.len(), run.steps.len());
        for (a, b) in replayed.steps.iter().zip(&run.steps) {
            assert_eq!(a.truth, b.truth);
        }
    }
}
