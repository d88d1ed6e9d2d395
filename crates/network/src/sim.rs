use crate::measurement::MeasurementModel;
use crate::topology::{NodeId, NodeKind, Service, Topology};
use anomaly_core::DeviceSet;
use anomaly_qos::{DeviceId, QosSpace, Snapshot, StatePair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Where a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTarget {
    /// A network element degrades: every downstream gateway is impacted
    /// coherently (the massive-anomaly generator).
    Node {
        /// The faulted element (core, aggregation or DSLAM).
        node: NodeId,
        /// Health drop in `(0, 1]` (1 = total outage).
        severity: f64,
    },
    /// One gateway's own hardware/software misbehaves: only that device is
    /// impacted (the isolated-anomaly generator).
    Gateway {
        /// The faulty gateway.
        gateway: NodeId,
        /// Health drop in `(0, 1]`.
        severity: f64,
    },
}

/// Configuration of a network simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Tree shape: cores, aggregations per core, DSLAMs per aggregation,
    /// gateways per DSLAM.
    pub shape: (usize, usize, usize, usize),
    /// The `d` services every gateway consumes.
    pub services: Vec<Service>,
    /// Measurement model.
    pub measurement: MeasurementModel,
    /// RNG seed for measurement jitter.
    pub seed: u64,
}

impl NetworkConfig {
    /// A small deterministic network: 1 core, 2 aggregations, 4 DSLAMs,
    /// 64 gateways, two services (IPTV and VoIP).
    pub fn small(seed: u64) -> Self {
        NetworkConfig {
            shape: (1, 2, 2, 16),
            services: vec![Service::new("iptv", 950), Service::new("voip", 900)],
            measurement: MeasurementModel::default(),
            seed,
        }
    }
}

/// Errors raised when building a network simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetworkError {
    /// The configuration declares no services.
    NoServices,
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::NoServices => write!(f, "a network needs at least one service"),
        }
    }
}

impl Error for NetworkError {}

/// One gateway's measurement report: the per-device unit a real
/// collection pipeline transports, ready for
/// `Monitor::ingest(update.key, update.qos)`.
///
/// The batch [`NetworkSimulation::snapshot`] is just the dense assembly of
/// one full round of these.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementUpdate {
    /// The reporting gateway's topology node.
    pub gateway: NodeId,
    /// Stable ingestion key (the raw node id — what
    /// `Monitor::join`ing by topology id uses).
    pub key: u64,
    /// Dense pipeline id (gateway position among all gateways).
    pub device: DeviceId,
    /// Measured QoS of every service, in service order.
    pub qos: Vec<f64>,
}

/// Result of one fault-injection step.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// QoS snapshots of all gateways before/after the faults.
    pub pair: StatePair,
    /// Ground truth: per injected fault, the impacted gateways (as pipeline
    /// device ids — gateway position among all gateways).
    pub impacted: Vec<DeviceSet>,
}

impl StepOutcome {
    /// Union of all impacted devices — the ground-truth `A_k`.
    pub fn abnormal(&self) -> DeviceSet {
        self.impacted.iter().flat_map(|s| s.iter()).collect()
    }
}

/// The ISP network with injectable faults.
#[derive(Debug, Clone)]
pub struct NetworkSimulation {
    topology: Topology,
    config: NetworkConfig,
    space: QosSpace,
    /// Health per node id, in `[0,1]`.
    health: Vec<f64>,
    /// Extra per-gateway health (CPE faults), multiplied on top.
    gateway_health: Vec<f64>,
    rng: StdRng,
}

impl NetworkSimulation {
    /// Builds the network with every element healthy.
    ///
    /// # Errors
    ///
    /// [`NetworkError::NoServices`] when the config lists no services.
    pub fn new(config: NetworkConfig) -> Result<Self, NetworkError> {
        if config.services.is_empty() {
            return Err(NetworkError::NoServices);
        }
        let (c, a, d, g) = config.shape;
        let topology = Topology::tree(c, a, d, g);
        let space = QosSpace::new(config.services.len())
            .unwrap_or_else(|_| unreachable!("non-empty services"));
        let health = vec![1.0; topology.len()];
        let gateway_health = vec![1.0; topology.gateways().len()];
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(NetworkSimulation {
            topology,
            config,
            space,
            health,
            gateway_health,
            rng,
        })
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The monitored services.
    pub fn services(&self) -> &[Service] {
        &self.config.services
    }

    /// Number of monitored gateways (the population `n`).
    pub fn population(&self) -> usize {
        self.topology.gateways().len()
    }

    /// Measures one full collection round as a stream of per-gateway
    /// updates — the shape a real pipeline delivers them in (feed each to
    /// `Monitor::ingest`; arrival order does not matter there). One call
    /// consumes exactly the same measurement-jitter randomness as one
    /// [`NetworkSimulation::snapshot`], so streaming and batch consumers
    /// observe identical QoS values for identical simulation states.
    pub fn measure_stream(&mut self) -> Vec<MeasurementUpdate> {
        let gateways: Vec<NodeId> = self.topology.gateways().to_vec();
        gateways
            .iter()
            .enumerate()
            .map(|(i, &gw)| {
                let cpe = self.gateway_health[i];
                let qos: Vec<f64> = self
                    .config
                    .services
                    .iter()
                    .map(|s| {
                        let noise = self.rng.gen_range(-1.0..=1.0);
                        let q = self.config.measurement.measure(
                            &self.topology,
                            &self.health,
                            gw,
                            s,
                            noise,
                        );
                        (q * cpe).clamp(0.0, 1.0)
                    })
                    .collect();
                MeasurementUpdate {
                    gateway: gw,
                    key: gw.0 as u64,
                    device: DeviceId(i as u32),
                    qos,
                }
            })
            .collect()
    }

    /// Measures the current QoS of every gateway as a dense snapshot —
    /// the batch assembly of one [`NetworkSimulation::measure_stream`]
    /// round.
    pub fn snapshot(&mut self) -> Snapshot {
        let rows: Vec<Vec<f64>> = self
            .measure_stream()
            .into_iter()
            .map(|update| update.qos)
            .collect();
        Snapshot::from_rows(&self.space, rows)
            .unwrap_or_else(|_| unreachable!("measurements are clamped"))
    }

    /// Applies one fault, returning the impacted gateways (pipeline ids).
    ///
    /// # Panics
    ///
    /// Panics if severity is outside `(0, 1]`, a `Node` target is a
    /// gateway, or a `Gateway` target is not a gateway.
    pub fn inject(&mut self, fault: FaultTarget) -> DeviceSet {
        match fault {
            FaultTarget::Node { node, severity } => {
                assert!(
                    (0.0..=1.0).contains(&severity) && severity > 0.0,
                    "severity must lie in (0, 1]"
                );
                assert!(
                    self.topology.kind(node) != NodeKind::Gateway,
                    "use FaultTarget::Gateway for CPE faults"
                );
                self.health[node.0 as usize] *= 1.0 - severity;
                self.topology
                    .downstream_gateways(node)
                    .into_iter()
                    .map(|gw| {
                        let index = self
                            .topology
                            .gateway_index(gw)
                            .unwrap_or_else(|| unreachable!("downstream nodes are gateways"));
                        DeviceId(index as u32)
                    })
                    .collect()
            }
            FaultTarget::Gateway { gateway, severity } => {
                assert!(
                    (0.0..=1.0).contains(&severity) && severity > 0.0,
                    "severity must lie in (0, 1]"
                );
                let Some(index) = self.topology.gateway_index(gateway) else {
                    panic!("FaultTarget::Gateway requires a gateway node");
                };
                self.gateway_health[index] *= 1.0 - severity;
                DeviceSet::singleton(DeviceId(index as u32))
            }
        }
    }

    /// Repairs every element back to full health.
    pub fn repair_all(&mut self) {
        self.health.fill(1.0);
        self.gateway_health.fill(1.0);
    }

    /// Takes a before-snapshot, injects the given faults, takes an
    /// after-snapshot, and reports both with the ground truth.
    pub fn step(&mut self, faults: Vec<FaultTarget>) -> StepOutcome {
        let before = self.snapshot();
        let impacted: Vec<DeviceSet> = faults.into_iter().map(|f| self.inject(f)).collect();
        let after = self.snapshot();
        StepOutcome {
            pair: StatePair::new(before, after).unwrap_or_else(|_| unreachable!("same population")),
            impacted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_network_measures_near_base_quality() {
        let mut net = NetworkSimulation::new(NetworkConfig::small(1)).unwrap();
        let snap = net.snapshot();
        assert_eq!(snap.len(), 64);
        for (_, p) in snap.iter() {
            assert!((p[0] - 0.95).abs() < 0.01, "iptv at {}", p[0]);
            assert!((p[1] - 0.90).abs() < 0.01, "voip at {}", p[1]);
        }
    }

    #[test]
    fn measure_stream_and_snapshot_agree_value_for_value() {
        // Two simulations with the same seed: one consumed as a stream,
        // one as dense snapshots. The values must match exactly, across
        // rounds and across a fault.
        let mut streamed = NetworkSimulation::new(NetworkConfig::small(11)).unwrap();
        let mut batched = NetworkSimulation::new(NetworkConfig::small(11)).unwrap();
        for round in 0..3 {
            if round == 2 {
                let dslam = streamed.topology().dslams()[1];
                streamed.inject(FaultTarget::Node {
                    node: dslam,
                    severity: 0.5,
                });
                batched.inject(FaultTarget::Node {
                    node: dslam,
                    severity: 0.5,
                });
            }
            let stream = streamed.measure_stream();
            let snap = batched.snapshot();
            assert_eq!(stream.len(), snap.len());
            for update in &stream {
                assert_eq!(update.key, update.gateway.0 as u64);
                assert_eq!(
                    update.qos.as_slice(),
                    snap.position(update.device),
                    "round {round}, gateway {}",
                    update.gateway
                );
            }
        }
    }

    #[test]
    fn dslam_fault_impacts_exactly_its_subtree() {
        let mut net = NetworkSimulation::new(NetworkConfig::small(2)).unwrap();
        let dslam = net.topology().dslams()[0];
        let expected = net.topology().downstream_gateways(dslam).len();
        let out = net.step(vec![FaultTarget::Node {
            node: dslam,
            severity: 0.5,
        }]);
        assert_eq!(out.impacted[0].len(), expected);
        // Impacted gateways dropped by ~half; others did not move much.
        let abnormal = out.abnormal();
        for id in out.pair.device_ids() {
            let before = out.pair.before().position(id)[0];
            let after = out.pair.after().position(id)[0];
            if abnormal.contains(id) {
                assert!(after < before * 0.6 + 0.02, "device {id} should drop");
            } else {
                assert!(
                    (after - before).abs() < 0.05,
                    "device {id} should be stable"
                );
            }
        }
    }

    #[test]
    fn gateway_fault_impacts_one_device() {
        let mut net = NetworkSimulation::new(NetworkConfig::small(3)).unwrap();
        let gw = net.topology().gateways()[5];
        let out = net.step(vec![FaultTarget::Gateway {
            gateway: gw,
            severity: 0.7,
        }]);
        assert_eq!(out.impacted[0], DeviceSet::singleton(DeviceId(5)));
    }

    #[test]
    fn aggregation_fault_impacts_more_than_dslam_fault() {
        let net = NetworkSimulation::new(NetworkConfig::small(4)).unwrap();
        let agg = net.topology().aggregations()[0];
        let dslam = net.topology().dslams()[0];
        let agg_count = net.topology().downstream_gateways(agg).len();
        let dslam_count = net.topology().downstream_gateways(dslam).len();
        assert!(agg_count > dslam_count);
    }

    #[test]
    fn repair_restores_quality() {
        let mut net = NetworkSimulation::new(NetworkConfig::small(5)).unwrap();
        let dslam = net.topology().dslams()[0];
        net.inject(FaultTarget::Node {
            node: dslam,
            severity: 0.9,
        });
        net.repair_all();
        let snap = net.snapshot();
        for (_, p) in snap.iter() {
            assert!(p[0] > 0.9);
        }
    }

    #[test]
    fn rejects_empty_service_list() {
        let mut c = NetworkConfig::small(1);
        c.services.clear();
        assert_eq!(
            NetworkSimulation::new(c).unwrap_err(),
            NetworkError::NoServices
        );
    }

    #[test]
    #[should_panic(expected = "severity")]
    fn rejects_zero_severity() {
        let mut net = NetworkSimulation::new(NetworkConfig::small(1)).unwrap();
        let dslam = net.topology().dslams()[0];
        net.inject(FaultTarget::Node {
            node: dslam,
            severity: 0.0,
        });
    }

    #[test]
    #[should_panic(expected = "CPE faults")]
    fn node_target_rejects_gateways() {
        let mut net = NetworkSimulation::new(NetworkConfig::small(1)).unwrap();
        let gw = net.topology().gateways()[0];
        net.inject(FaultTarget::Node {
            node: gw,
            severity: 0.5,
        });
    }
}
