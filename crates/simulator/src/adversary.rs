//! Adversarial devices — the paper's future work (Section VIII), built.
//!
//! *"As future work, we plan to extend our characterization to take into
//! account malicious devices. In particular, we will study the presence of
//! collusion of malicious devices whose aim would be to prevent an impacted
//! device to be detected by the monitoring application."*
//!
//! The attack: a victim device is hit by an **isolated** error (it should
//! call the operator). A coalition of `c` malicious devices fabricates
//! trajectories that shadow the victim's motion, so the victim appears to
//! belong to a τ-dense motion and self-classifies as **massive** — silently
//! swallowing its report. [`run_attack`] mounts the attack and
//! [`AttackReport`] measures when it succeeds, quantifying how large a
//! coalition must be and how the density threshold `τ` trades robustness
//! against sensitivity.

use crate::config::{ScenarioConfig, SimulationError};
use crate::generator::Simulation;
use anomaly_core::{Analyzer, AnomalyClass, TrajectoryTable};
use anomaly_qos::{DeviceId, StatePair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of one collusion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackReport {
    /// The targeted (honest, isolated-error) device.
    pub victim: DeviceId,
    /// Coalition size used.
    pub coalition: usize,
    /// The victim's verdict *without* the coalition.
    pub verdict_clean: AnomalyClass,
    /// The victim's verdict *with* the fabricated trajectories.
    pub verdict_attacked: AnomalyClass,
}

impl AttackReport {
    /// True when the coalition flipped an isolated verdict away from
    /// isolated (the report was suppressed).
    pub fn suppressed(&self) -> bool {
        self.verdict_clean == AnomalyClass::Isolated
            && self.verdict_attacked != AnomalyClass::Isolated
    }
}

/// Mounts a shadowing attack on a simulated step.
///
/// Runs one simulation step, picks as victim a device hit by a
/// **singleton** isolated error (a lone victim, so the attack cost is the
/// coalition's alone — a victim with event co-members needs
/// correspondingly fewer shadows), and appends `coalition` fabricated
/// devices whose trajectories sit within `jitter ≤ r/2` of the victim's at
/// both times. Returns `None` when the step produced no such victim.
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn run_attack(
    config: &ScenarioConfig,
    coalition: usize,
    seed: u64,
) -> Result<Option<AttackReport>, SimulationError> {
    let mut sim = Simulation::new(config.clone())?;
    let outcome = sim.step();
    let Some(victim) = outcome
        .truth
        .events()
        .iter()
        .find(|e| e.impacted.len() == 1)
        .and_then(|e| e.impacted.iter().next())
    else {
        return Ok(None);
    };
    let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
    Ok(Some(attack_on_pair(
        &outcome.pair,
        &abnormal,
        victim,
        coalition,
        config,
        seed,
    )))
}

/// The attack core, exposed for tests and sweeps: fabricates `coalition`
/// shadow trajectories around `victim` and re-characterizes.
pub fn attack_on_pair(
    pair: &StatePair,
    abnormal: &[DeviceId],
    victim: DeviceId,
    coalition: usize,
    config: &ScenarioConfig,
    seed: u64,
) -> AttackReport {
    let params = config.params;
    let clean_table = TrajectoryTable::from_state_pair(pair, abnormal);
    let clean = Analyzer::new(&clean_table, params)
        .characterize_full(victim)
        .class();

    // Fabricated devices get ids above the honest population.
    let mut rng = StdRng::seed_from_u64(seed);
    let jitter = params.radius() / 2.0;
    let before_v = pair.before().position(victim);
    let after_v = pair.after().position(victim);
    let mut rows: Vec<(DeviceId, Vec<f64>)> = abnormal
        .iter()
        .map(|&id| {
            let mut v = pair.before().position(id).to_vec();
            v.extend_from_slice(pair.after().position(id));
            (id, v)
        })
        .collect();
    let base_id = pair.len() as u32;
    for i in 0..coalition {
        let shadow = |p: &[f64], rng: &mut StdRng| -> Vec<f64> {
            p.iter()
                .map(|c| (c + rng.gen_range(-jitter..=jitter)).clamp(0.0, 1.0))
                .collect()
        };
        let mut row = shadow(before_v, &mut rng);
        row.extend(shadow(after_v, &mut rng));
        rows.push((DeviceId(base_id + i as u32), row));
    }
    let attacked_table = TrajectoryTable::from_concatenated(pair.dim(), rows);
    let attacked = Analyzer::new(&attacked_table, params)
        .characterize_full(victim)
        .class();

    AttackReport {
        victim,
        coalition,
        verdict_clean: clean,
        verdict_attacked: attacked,
    }
}

/// Minimum coalition size that suppresses the victim's report, swept from 0
/// to `max_coalition`; `None` when even the largest coalition fails (or no
/// isolated victim arose).
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn minimum_winning_coalition(
    config: &ScenarioConfig,
    max_coalition: usize,
    seed: u64,
) -> Result<Option<usize>, SimulationError> {
    for c in 0..=max_coalition {
        match run_attack(config, c, seed)? {
            Some(report) if report.suppressed() => return Ok(Some(c)),
            Some(_) => continue,
            None => return Ok(None),
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64) -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_defaults(seed);
        c.n = 400;
        c.errors_per_step = 6;
        c.isolated_prob = 0.9; // make isolated victims plentiful
                               // Uniform destinations: the victim lands in empty space, so the
                               // flip (if any) is the coalition's doing alone.
        c.destination = crate::DestinationModel::Uniform;
        c
    }

    #[test]
    fn no_coalition_means_no_suppression() {
        let report = run_attack(&config(1), 0, 99)
            .unwrap()
            .expect("victim exists");
        assert_eq!(report.verdict_clean, report.verdict_attacked);
        assert!(!report.suppressed());
    }

    #[test]
    fn tau_shadows_flip_the_victim() {
        // τ = 3: a coalition of τ devices makes the victim's motion have
        // τ + 1 members — a dense motion — so the isolated verdict flips.
        let cfg = config(2);
        let tau = cfg.params.tau();
        let report = run_attack(&cfg, tau, 7).unwrap().expect("victim exists");
        assert_eq!(report.verdict_clean, AnomalyClass::Isolated);
        assert!(
            report.suppressed(),
            "a τ-strong coalition must suppress the report: {report:?}"
        );
    }

    #[test]
    fn minimum_coalition_is_tau() {
        // Fewer than τ shadows leave every motion sparse (victim + c ≤ τ);
        // exactly τ is the tipping point. Whether a step yields a singleton
        // isolated victim depends on the scenario seed, so scan a few.
        let min = (3..35)
            .find_map(|s| minimum_winning_coalition(&config(s), 6, 11).unwrap())
            .expect("some seed yields an isolated victim");
        assert_eq!(min, config(3).params.tau());
    }

    #[test]
    fn larger_tau_needs_larger_coalitions() {
        let mut cfg = config(4);
        let min3 = minimum_winning_coalition(&cfg, 10, 13).unwrap().unwrap();
        cfg.params = anomaly_core::Params::new(0.03, 6).unwrap();
        let min6 = minimum_winning_coalition(&cfg, 10, 13).unwrap().unwrap();
        assert!(
            min6 > min3,
            "raising tau must raise the attack cost ({min3} -> {min6})"
        );
    }

    #[test]
    fn attack_is_deterministic() {
        let a = run_attack(&config(5), 3, 21).unwrap();
        let b = run_attack(&config(5), 3, 21).unwrap();
        assert_eq!(a, b);
    }
}
