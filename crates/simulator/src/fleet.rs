//! Large-fleet snapshot generator for engine benchmarking.
//!
//! [`Simulation`](crate::Simulation) reproduces the paper's Section VII-A
//! protocol faithfully — per-event group construction, restriction
//! enforcement, repairs — which is exactly right for accuracy studies and
//! exactly wrong for load generation: its bookkeeping drowns out the system
//! under test at 100k+ devices. [`FleetSpec`] trades protocol fidelity for
//! volume: a calm, jittering population seeded i.i.d. uniformly, plus a
//! configurable anomaly mix of co-moving clusters (massive events) and lone
//! jumpers (isolated events), emitted as chained snapshots ready to feed
//! `Monitor::observe` (`anomaly-characterization`) unmodified.
//!
//! Runs are deterministic for a given spec (seeded RNG), so engine
//! configurations can be compared on byte-identical inputs.

use crate::config::SimulationError;
use crate::ground_truth::{ErrorEvent, GroundTruth};
use anomaly_qos::{DeviceId, QosSpace, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a benchmark fleet and its per-instant anomaly mix.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Population size `n` (the point of this generator is `n ≥ 100_000`).
    pub devices: usize,
    /// Services per device (QoS space dimension `d`).
    pub services: usize,
    /// Co-moving clusters injected per instant (each one massive when
    /// `cluster_size > τ`).
    pub massive_clusters: usize,
    /// Devices per cluster.
    pub cluster_size: usize,
    /// Lone jumpers injected per instant (isolated events).
    pub isolated: usize,
    /// Maximum pairwise spread of a cluster at both instants; keep it at or
    /// below the monitor's `2r` window so clusters register as consistent
    /// motions (hence massive anomalies when `cluster_size > τ`).
    pub cohesion: f64,
    /// Fraction of calm devices whose reading changes at all between two
    /// instants. Deployed QoS metrics are quantized and mostly stable
    /// sample-to-sample, so most healthy devices report the exact same
    /// position; `1.0` makes the whole fleet jitter every instant (the
    /// worst case for incremental index maintenance).
    pub calm_activity: f64,
    /// Peak-to-peak amplitude of the calm population's per-instant jitter;
    /// keep it below the detector's flag threshold.
    pub jitter: f64,
    /// Minimum jump magnitude of anomalous devices; keep it above the
    /// detector's flag threshold.
    pub shift: f64,
    /// RNG seed.
    pub seed: u64,
}

impl FleetSpec {
    /// A 100k-device, 2-service fleet with a mixed anomaly load — the
    /// configuration behind `BENCH_engine.json`.
    pub fn large(seed: u64) -> Self {
        FleetSpec {
            devices: 100_000,
            services: 2,
            massive_clusters: 10,
            cluster_size: 12,
            isolated: 60,
            cohesion: 0.05,
            calm_activity: 0.1,
            jitter: 0.02,
            shift: 0.3,
            seed,
        }
    }

    /// Upper bound on devices flagged per instant under this mix (clusters
    /// may come up short when the population is too sparse to supply
    /// `cluster_size` co-located devices).
    pub fn flagged_per_instant(&self) -> usize {
        self.massive_clusters * self.cluster_size + self.isolated
    }

    /// Checks the mix fits the population and the magnitudes make sense.
    ///
    /// # Errors
    ///
    /// [`SimulationError::PopulationTooSmall`] when the anomaly mix needs
    /// more devices than the fleet has, [`SimulationError::ZeroDimension`]
    /// for zero services, [`SimulationError::InvalidProbability`] for
    /// non-finite or negative `jitter`/`shift`.
    pub fn validate(&self) -> Result<(), SimulationError> {
        if self.services == 0 {
            return Err(SimulationError::ZeroDimension);
        }
        if self.devices < self.flagged_per_instant().max(2) {
            return Err(SimulationError::PopulationTooSmall { n: self.devices });
        }
        for magnitude in [self.jitter, self.shift, self.cohesion, self.calm_activity] {
            if !magnitude.is_finite() || !(0.0..=1.0).contains(&magnitude) {
                return Err(SimulationError::InvalidProbability { value: magnitude });
            }
        }
        Ok(())
    }
}

/// One simulated instant: the snapshot to feed the monitor, plus the ground
/// truth of which devices were made anomalous while producing it.
#[derive(Debug, Clone)]
pub struct FleetInstant {
    /// Positions of every device at this instant.
    pub snapshot: Snapshot,
    /// Devices that jumped (cluster members and lone jumpers), sorted by
    /// id. Empty for the initial placement.
    pub flagged: Vec<DeviceId>,
    /// The real scenario of the interval ending at this instant: one event
    /// per injected cluster (intended massive) and per lone jumper
    /// (intended isolated). Empty for the initial placement.
    pub truth: GroundTruth,
}

/// Generates `steps + 1` chained snapshots: an initial calm placement, then
/// `steps` instants each carrying the spec's anomaly mix.
///
/// Consecutive instants share no allocation but describe one continuous
/// fleet history — feed them to a monitor in order. Calm devices take a
/// uniform jitter step of amplitude `jitter` (clamped to the unit cube);
/// each cluster picks a fresh co-located group and moves it coherently by
/// at least `shift`; lone jumpers move individually by at least `shift`.
/// Anomalous groups are disjoint within one instant.
///
/// # Errors
///
/// Propagates [`FleetSpec::validate`] failures.
pub fn generate_fleet(
    spec: &FleetSpec,
    steps: usize,
) -> Result<Vec<FleetInstant>, SimulationError> {
    spec.validate()?;
    let space = QosSpace::new(spec.services)
        .unwrap_or_else(|_| unreachable!("validate checked services >= 1"));
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let dim = spec.services;
    let n = spec.devices;

    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let mut out = Vec::with_capacity(steps + 1);
    out.push(FleetInstant {
        snapshot: Snapshot::from_rows(&space, rows.clone())
            .unwrap_or_else(|_| unreachable!("generated rows are in range")),
        flagged: Vec::new(),
        truth: GroundTruth::default(),
    });

    for _ in 0..steps {
        // Pick this instant's victims: per cluster, a spatially co-located
        // group (so the members form a consistent motion at k−1), plus lone
        // jumpers, all disjoint.
        let mut is_flagged = vec![false; n];
        let mut flagged: Vec<DeviceId> = Vec::with_capacity(spec.flagged_per_instant());
        let mut clusters: Vec<Vec<usize>> = Vec::with_capacity(spec.massive_clusters);
        for _ in 0..spec.massive_clusters {
            let members = pick_cluster(&mut rng, &rows, &mut is_flagged, spec);
            flagged.extend(members.iter().map(|&i| DeviceId(i as u32)));
            clusters.push(members);
        }
        let loners = pick_disjoint(&mut rng, &mut is_flagged, n, spec.isolated);
        flagged.extend(loners.iter().map(|&i| DeviceId(i as u32)));
        flagged.sort_unstable();
        // Ground truth mirrors the injection: clusters are intended-massive
        // events (effectively massive only when they found > τ co-located
        // members), loners are intended-isolated singletons. The disjoint
        // draws above guarantee restriction R1.
        let mut events: Vec<ErrorEvent> = clusters
            .iter()
            .filter(|members| !members.is_empty())
            .map(|members| ErrorEvent {
                impacted: members.iter().map(|&i| DeviceId(i as u32)).collect(),
                intended_isolated: false,
            })
            .collect();
        events.extend(loners.iter().map(|&i| ErrorEvent {
            impacted: std::iter::once(DeviceId(i as u32)).collect(),
            intended_isolated: true,
        }));
        let truth = GroundTruth::new(events);

        // Calm motion: a `calm_activity` fraction of the healthy fleet takes
        // a uniform jitter step (clamped to the cube); the rest report the
        // exact same reading, as quantized QoS metrics mostly do.
        for (i, row) in rows.iter_mut().enumerate() {
            if is_flagged[i] || !rng.gen_bool(spec.calm_activity) {
                continue;
            }
            for c in row.iter_mut() {
                *c = (*c + (rng.gen::<f64>() - 0.5) * spec.jitter).clamp(0.0, 1.0);
            }
        }
        // Each cluster co-moves: members land jittered around a common
        // destination, staying within `cohesion` of each other at arrival.
        let spread = spec.cohesion.min(spec.jitter) / 2.0;
        for members in &clusters {
            let dest: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
            for &i in members {
                let target = shifted_from(&mut rng, &rows[i], &dest, spec.shift, spread);
                rows[i] = target;
            }
        }
        // Lone jumpers move individually.
        for &i in &loners {
            let dest: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
            let target = shifted_from(&mut rng, &rows[i], &dest, spec.shift, 0.0);
            rows[i] = target;
        }
        out.push(FleetInstant {
            snapshot: Snapshot::from_rows(&space, rows.clone())
                .unwrap_or_else(|_| unreachable!("generated rows are in range")),
            flagged,
            truth,
        });
    }
    Ok(out)
}

/// Draws `count` not-yet-flagged device indices, marking them flagged.
fn pick_disjoint(rng: &mut StdRng, is_flagged: &mut [bool], n: usize, count: usize) -> Vec<usize> {
    let mut members = Vec::with_capacity(count);
    while members.len() < count {
        let i = rng.gen_range(0..n);
        if !is_flagged[i] {
            is_flagged[i] = true;
            members.push(i);
        }
    }
    members
}

/// Picks up to `cluster_size` unflagged devices within `cohesion/2` (L∞) of
/// a random seed device, marking them flagged. Tries a few seeds and keeps
/// the most populous neighbourhood, so sparse fleets yield smaller (but
/// still co-located) clusters rather than scattered ones.
fn pick_cluster(
    rng: &mut StdRng,
    rows: &[Vec<f64>],
    is_flagged: &mut [bool],
    spec: &FleetSpec,
) -> Vec<usize> {
    let radius = spec.cohesion / 2.0;
    let mut best: Vec<usize> = Vec::new();
    for _ in 0..8 {
        let seed = rng.gen_range(0..rows.len());
        if is_flagged[seed] {
            continue;
        }
        let center = &rows[seed];
        let mut members: Vec<usize> = Vec::with_capacity(spec.cluster_size);
        for (i, row) in rows.iter().enumerate() {
            if is_flagged[i] {
                continue;
            }
            let dist = row
                .iter()
                .zip(center)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            if dist <= radius {
                members.push(i);
                if members.len() == spec.cluster_size {
                    break;
                }
            }
        }
        if members.len() > best.len() {
            best = members;
        }
        if best.len() == spec.cluster_size {
            break;
        }
    }
    for &i in &best {
        is_flagged[i] = true;
    }
    best
}

/// A point near `dest` (within `spread` per axis) whose uniform distance
/// from `from` is at least `min_shift`; re-aims at the opposite corner when
/// `dest` happens to be too close.
fn shifted_from(
    rng: &mut StdRng,
    from: &[f64],
    dest: &[f64],
    min_shift: f64,
    spread: f64,
) -> Vec<f64> {
    let mut target: Vec<f64> = dest
        .iter()
        .map(|&c| (c + (rng.gen::<f64>() - 0.5) * spread).clamp(0.0, 1.0))
        .collect();
    let far_enough = |t: &[f64]| {
        t.iter()
            .zip(from)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
            >= min_shift
    };
    if !far_enough(&target) {
        // Deterministic fallback: push the first axis to whichever edge is
        // farther from the origin coordinate.
        let axis = if from[0] < 0.5 { 1.0 } else { 0.0 };
        target[0] = axis;
    }
    target
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> FleetSpec {
        FleetSpec {
            devices: 500,
            services: 2,
            massive_clusters: 2,
            cluster_size: 5,
            isolated: 3,
            cohesion: 0.2,
            calm_activity: 0.5,
            jitter: 0.02,
            shift: 0.3,
            seed: 7,
        }
    }

    #[test]
    fn generates_chained_instants_with_the_requested_mix() {
        let spec = small_spec();
        let fleet = generate_fleet(&spec, 3).unwrap();
        assert_eq!(fleet.len(), 4);
        assert!(fleet[0].flagged.is_empty());
        for instant in &fleet[1..] {
            assert_eq!(instant.snapshot.len(), 500);
            assert!(instant.flagged.len() <= spec.flagged_per_instant());
            assert!(
                instant.flagged.len() >= spec.isolated + spec.massive_clusters,
                "only {} flagged",
                instant.flagged.len()
            );
            assert!(
                instant.flagged.windows(2).all(|w| w[0] < w[1]),
                "sorted, disjoint"
            );
        }
    }

    #[test]
    fn flagged_devices_jump_and_calm_devices_jitter() {
        let spec = small_spec();
        let fleet = generate_fleet(&spec, 1).unwrap();
        let (before, after) = (&fleet[0].snapshot, &fleet[1].snapshot);
        for id in before.device_ids() {
            let dist = before
                .position(id)
                .iter()
                .zip(after.position(id))
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            if fleet[1].flagged.binary_search(&id).is_ok() {
                assert!(dist >= spec.shift, "flagged {id:?} moved only {dist}");
            } else {
                assert!(dist <= spec.jitter, "calm {id:?} moved {dist}");
            }
        }
    }

    #[test]
    fn cluster_members_stay_coherent() {
        let spec = small_spec();
        let fleet = generate_fleet(&spec, 1).unwrap();
        // The first cluster_size flagged-generation entries per cluster
        // co-moved; verify that *some* pair of flagged devices is close at
        // the destination (co-movers), which a pure loner mix would not be.
        let after = &fleet[1].snapshot;
        let flagged = &fleet[1].flagged;
        let close_pairs = flagged
            .iter()
            .flat_map(|&a| flagged.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a < b)
            .filter(|&(a, b)| after.distance(a, b) <= spec.jitter)
            .count();
        assert!(close_pairs > 0, "no co-located flagged pair after the move");
    }

    #[test]
    fn truth_mirrors_flagged_and_respects_r1() {
        let spec = small_spec();
        let fleet = generate_fleet(&spec, 2).unwrap();
        assert!(fleet[0].truth.events().is_empty());
        for instant in &fleet[1..] {
            let mut from_truth: Vec<DeviceId> = instant.truth.abnormal_devices().iter().collect();
            from_truth.sort_unstable();
            assert_eq!(from_truth, instant.flagged, "truth covers the flagged set");
            let isolated_events = instant
                .truth
                .events()
                .iter()
                .filter(|e| e.intended_isolated)
                .count();
            assert_eq!(isolated_events, spec.isolated, "one event per loner");
            for e in instant
                .truth
                .events()
                .iter()
                .filter(|e| e.intended_isolated)
            {
                assert_eq!(e.impacted.len(), 1);
            }
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let spec = small_spec();
        let a = generate_fleet(&spec, 2).unwrap();
        let b = generate_fleet(&spec, 2).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.snapshot, y.snapshot);
            assert_eq!(x.flagged, y.flagged);
        }
    }

    #[test]
    fn validation_rejects_impossible_specs() {
        let mut spec = small_spec();
        spec.devices = 10;
        assert_eq!(
            spec.validate(),
            Err(SimulationError::PopulationTooSmall { n: 10 })
        );
        let mut spec = small_spec();
        spec.services = 0;
        assert_eq!(spec.validate(), Err(SimulationError::ZeroDimension));
        let mut spec = small_spec();
        spec.shift = f64::NAN;
        assert!(matches!(
            spec.validate(),
            Err(SimulationError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn large_preset_is_valid_and_100k() {
        let spec = FleetSpec::large(1);
        assert!(spec.validate().is_ok());
        assert!(spec.devices >= 100_000);
        assert!(spec.flagged_per_instant() >= 100);
    }
}
