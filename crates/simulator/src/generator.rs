use crate::config::{DestinationModel, ScenarioConfig, SimulationError};
use crate::ground_truth::{ErrorEvent, GroundTruth};
use anomaly_core::DeviceSet;
use anomaly_qos::{DeviceId, Point, QosSpace, Snapshot, StatePair};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Maximum destination re-draws when enforcing restriction R3.
const R3_RETRIES: usize = 50;

/// The evolving device population (Section VII-A generator).
///
/// Deterministic for a given [`ScenarioConfig`] (seeded RNG).
#[derive(Debug, Clone)]
pub struct Simulation {
    config: ScenarioConfig,
    space: QosSpace,
    rng: StdRng,
    current: Snapshot,
    /// Devices impacted in the previous step: they are repaired during the
    /// next interval (moved back to a fresh uniform position, unflagged),
    /// keeping the population density stationary instead of letting
    /// degraded devices pile up in the low-QoS corner forever.
    recovering: DeviceSet,
    step_count: u64,
}

/// Result of one simulated interval `[k−1, k]`.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// The two snapshots `S_{k−1}`, `S_k`.
    pub pair: StatePair,
    /// The real scenario `R_k`.
    pub truth: GroundTruth,
    /// Devices repaired during this interval (impacted in the previous one):
    /// they moved back to a healthy position but raised no flag.
    pub recovered: DeviceSet,
    /// The configuration that produced this step.
    pub config: ScenarioConfig,
}

impl StepOutcome {
    /// The flagged devices `A_k` (all devices impacted by some error).
    pub fn abnormal(&self) -> DeviceSet {
        self.truth.abnormal_devices()
    }
}

impl Simulation {
    /// Creates a simulation with devices placed i.i.d. uniformly in `E`.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioConfig::validate`] failures.
    pub fn new(config: ScenarioConfig) -> Result<Self, SimulationError> {
        config.validate()?;
        let space = QosSpace::new(config.dim).map_err(|_| SimulationError::ZeroDimension)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let rows: Vec<Vec<f64>> = (0..config.n)
            .map(|_| (0..config.dim).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let current = Snapshot::from_rows(&space, rows)
            .unwrap_or_else(|_| unreachable!("generated rows are in range"));
        Ok(Simulation {
            config,
            space,
            rng,
            current,
            recovering: DeviceSet::new(),
            step_count: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Number of completed steps.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// The current snapshot `S_k`.
    pub fn current(&self) -> &Snapshot {
        &self.current
    }

    /// The QoS space devices live in.
    pub fn space(&self) -> &QosSpace {
        &self.space
    }

    /// Advances one interval: injects `A` errors per the paper's protocol
    /// and returns the two snapshots plus the ground truth.
    pub fn step(&mut self) -> StepOutcome {
        let before = self.current.clone();
        let mut after = self.current.clone();
        // Repair last interval's victims: move them to fresh uniform
        // positions. They are excluded from this interval's error selection
        // (mid-repair) and raise no abnormality flag.
        let recovered = std::mem::take(&mut self.recovering);
        for id in &recovered {
            let coords: Vec<f64> = (0..self.config.dim).map(|_| self.rng.gen()).collect();
            after.set_position(id, Point::new_unchecked(coords));
        }
        let mut impacted_all = DeviceSet::new();
        // Members (with their post-move positions implied by `after`) of
        // already-placed events, split by effective class, for R3
        // enforcement.
        let mut placed_isolated: Vec<DeviceId> = Vec::new();
        let mut events = Vec::new();

        for _ in 0..self.config.errors_per_step {
            let Some(event) = self.inject_error(
                &before,
                &mut after,
                &impacted_all,
                &recovered,
                &placed_isolated,
            ) else {
                break; // population exhausted
            };
            for id in &event.impacted {
                impacted_all.insert(id);
            }
            if !event.is_massive(self.config.params.tau()) {
                placed_isolated.extend(event.impacted.iter());
            }
            events.push(event);
        }

        self.current = after.clone();
        self.recovering = impacted_all;
        self.step_count += 1;
        StepOutcome {
            pair: StatePair::new(before, after)
                .unwrap_or_else(|_| unreachable!("snapshots share shape")),
            truth: GroundTruth::new(events),
            recovered,
            config: self.config.clone(),
        }
    }

    /// Injects one error: picks an epicentre, draws the impacted set from
    /// the ball of radius `r`, and moves it rigidly to a uniform target.
    fn inject_error(
        &mut self,
        before: &Snapshot,
        after: &mut Snapshot,
        impacted_all: &DeviceSet,
        recovering: &DeviceSet,
        placed_isolated: &[DeviceId],
    ) -> Option<ErrorEvent> {
        let tau = self.config.params.tau();
        let r = self.config.params.radius();
        // Epicentre: uniform among devices not yet impacted (R1) and not
        // mid-repair.
        let free: Vec<DeviceId> = before
            .device_ids()
            .filter(|id| !impacted_all.contains(*id) && !recovering.contains(*id))
            .collect();
        if free.is_empty() {
            return None;
        }
        let intended_isolated = self.rng.gen_bool(self.config.isolated_prob);

        // Ball of radius r around the epicentre at time k−1, free devices
        // only. An intended-massive error needs more than τ candidates, so
        // it retries a few epicentres and keeps the most populous ball —
        // faults hit where there is something to hit.
        let ball_of = |rng_epicentre: DeviceId, free: &[DeviceId]| -> Vec<DeviceId> {
            let center = before.position(rng_epicentre);
            free.iter()
                .copied()
                .filter(|&id| anomaly_qos::uniform_distance(before.position(id), center) <= r)
                .collect()
        };
        let epicentre_tries = if intended_isolated { 1 } else { 4 };
        let mut ball: Vec<DeviceId> = Vec::new();
        for _ in 0..epicentre_tries {
            let candidate = free[self.rng.gen_range(0..free.len())];
            let candidate_ball = ball_of(candidate, &free);
            if candidate_ball.len() > ball.len() {
                ball = candidate_ball;
            }
            if ball.len() > tau {
                break;
            }
        }
        ball.shuffle(&mut self.rng);
        let t = if intended_isolated {
            self.rng.gen_range(1..=tau.min(ball.len()))
        } else if ball.len() > tau {
            // Cap massive impact sizes so the mean event matches the
            // population density of the paper's runs (|A_k|/A ≈ 4.8).
            self.rng.gen_range(tau + 1..=ball.len().min(2 * tau + 1))
        } else {
            ball.len() // intended massive, too few candidates
        };
        let members: Vec<DeviceId> = ball[..t].to_vec();

        // Common displacement (R2): all members move rigidly so that the
        // group lands uniformly in E while preserving relative positions.
        let dim = self.config.dim;
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for &m in &members {
            for (i, &c) in before.position(m).iter().enumerate() {
                lo[i] = lo[i].min(c);
                hi[i] = hi[i].max(c);
            }
        }
        let effective_isolated = members.len() <= tau;
        let must_avoid = self.config.enforce_r3 && !placed_isolated.is_empty();
        let mut displacement = vec![0.0; dim];
        for attempt in 0..R3_RETRIES {
            for i in 0..dim {
                displacement[i] = match self.config.destination {
                    // Valid range keeps every member inside [0,1].
                    DestinationModel::Uniform => self.rng.gen_range(-lo[i]..=(1.0 - hi[i])),
                    DestinationModel::Degradation { scale } => {
                        // Land the group's lower corner near the degraded
                        // region: cubic bias toward 0, clamped to the
                        // range that keeps the group inside E.
                        let u: f64 = self.rng.gen();
                        let target = scale * u * u * u;
                        (target - lo[i]).clamp(-lo[i], 1.0 - hi[i])
                    }
                };
            }
            if !must_avoid || attempt == R3_RETRIES - 1 {
                break;
            }
            // R3 enforcement: the event must not land in motion-proximity of
            // any member of an already-placed isolated event (that would let
            // isolated devices join dense motions). Only relevant when this
            // event or the placed one is isolated-sized; massive-massive
            // superpositions are allowed (they drive Figure 7).
            if self.avoids_isolated_members(
                before,
                after,
                &members,
                &displacement,
                placed_isolated,
                effective_isolated,
            ) {
                break;
            }
        }

        for &m in &members {
            let new_pos: Vec<f64> = before
                .position(m)
                .iter()
                .zip(&displacement)
                .map(|(c, d)| (c + d).clamp(0.0, 1.0))
                .collect();
            after.set_position(m, Point::new_unchecked(new_pos));
        }
        Some(ErrorEvent {
            impacted: members.into_iter().collect(),
            intended_isolated,
        })
    }

    /// True when, under `displacement`, no member of this event sits within
    /// motion distance `2r` of a previously placed isolated-event member.
    #[allow(clippy::too_many_arguments)]
    fn avoids_isolated_members(
        &self,
        before: &Snapshot,
        after: &Snapshot,
        members: &[DeviceId],
        displacement: &[f64],
        placed_isolated: &[DeviceId],
        effective_isolated: bool,
    ) -> bool {
        let window = self.config.params.window();
        // A massive event only threatens R3 through isolated members it
        // lands next to; an isolated event additionally must not land next
        // to *any* impacted device, but checking against isolated members
        // covers the dominant effect at modest cost.
        let _ = effective_isolated;
        for &m in members {
            let b_m = before.position(m);
            let a_m: Vec<f64> = b_m
                .iter()
                .zip(displacement)
                .map(|(c, d)| (c + d).clamp(0.0, 1.0))
                .collect();
            for &p in placed_isolated {
                let close_before = anomaly_qos::uniform_distance(b_m, before.position(p)) <= window;
                let close_after = anomaly_qos::uniform_distance(&a_m, after.position(p)) <= window;
                if close_before && close_after {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomaly_core::{motion, TrajectoryTable};

    fn small_config(seed: u64) -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_defaults(seed);
        c.n = 300;
        c.errors_per_step = 8;
        c
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let mut a = Simulation::new(small_config(7)).unwrap();
        let mut b = Simulation::new(small_config(7)).unwrap();
        let oa = a.step();
        let ob = b.step();
        assert_eq!(oa.pair, ob.pair);
        assert_eq!(oa.truth, ob.truth);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Simulation::new(small_config(1)).unwrap();
        let mut b = Simulation::new(small_config(2)).unwrap();
        assert_ne!(a.step().pair, b.step().pair);
    }

    #[test]
    fn events_are_disjoint_and_flagged_devices_moved() {
        let mut sim = Simulation::new(small_config(11)).unwrap();
        let out = sim.step();
        let mut seen = DeviceSet::new();
        for e in out.truth.events() {
            for id in &e.impacted {
                assert!(seen.insert(id), "device {id} impacted twice (R1)");
            }
        }
        // Devices not in A_k did not move (except recovering ones).
        let abnormal = out.abnormal();
        for id in out.pair.device_ids() {
            let moved = out.pair.before().position(id) != out.pair.after().position(id);
            if moved {
                assert!(
                    abnormal.contains(id) || out.recovered.contains(id),
                    "unflagged device {id} moved"
                );
            }
        }
    }

    #[test]
    fn impacted_groups_follow_consistent_motions_r2() {
        let mut sim = Simulation::new(small_config(13)).unwrap();
        let out = sim.step();
        let abnormal: Vec<DeviceId> = out.abnormal().iter().collect();
        let table = TrajectoryTable::from_state_pair(&out.pair, &abnormal);
        let window = out.config.params.window();
        for e in out.truth.events() {
            assert!(
                motion::is_consistent_motion(&table, &e.impacted, window),
                "event members must share an r-consistent motion (R2): {:?}",
                e.impacted
            );
        }
    }

    #[test]
    fn positions_stay_in_unit_cube() {
        let mut sim = Simulation::new(small_config(17)).unwrap();
        for _ in 0..5 {
            let out = sim.step();
            for (_, p) in out.pair.after().iter() {
                assert!(p.iter().all(|c| (0.0..=1.0).contains(c)));
            }
        }
    }

    #[test]
    fn isolated_probability_one_yields_only_small_events() {
        let mut config = small_config(19);
        config.isolated_prob = 1.0;
        let mut sim = Simulation::new(config).unwrap();
        let out = sim.step();
        assert!(!out.truth.events().is_empty());
        for e in out.truth.events() {
            assert!(e.intended_isolated);
            assert!(e.impacted.len() <= out.config.params.tau());
        }
    }

    #[test]
    fn isolated_probability_zero_yields_intended_massive_events() {
        let mut config = small_config(23);
        config.isolated_prob = 0.0;
        let mut sim = Simulation::new(config).unwrap();
        let out = sim.step();
        assert!(!out.truth.events().is_empty());
        for e in out.truth.events() {
            assert!(!e.intended_isolated);
        }
    }

    #[test]
    fn massive_events_exceed_tau_when_density_allows() {
        // A dense population guarantees balls larger than τ.
        let mut config = ScenarioConfig::paper_defaults(29);
        config.n = 4000;
        config.errors_per_step = 5;
        config.isolated_prob = 0.0;
        let mut sim = Simulation::new(config).unwrap();
        let out = sim.step();
        let tau = out.config.params.tau();
        assert!(
            out.truth.events().iter().any(|e| e.impacted.len() > tau),
            "at n = 4000 at least one massive event should exceed τ"
        );
    }

    #[test]
    fn step_count_advances_and_population_is_stable() {
        let mut sim = Simulation::new(small_config(31)).unwrap();
        assert_eq!(sim.step_count(), 0);
        let out = sim.step();
        assert_eq!(sim.step_count(), 1);
        assert_eq!(out.pair.len(), 300);
        assert_eq!(sim.current().len(), 300);
    }
}
