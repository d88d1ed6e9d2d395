//! Anomaly characterization core — the primary contribution of the DSN 2014
//! paper "Anomaly Characterization in Large Scale Networks" (Anceaume,
//! Busnel, Le Merrer, Ludinard, Marchand, Sericola).
//!
//! Given two successive snapshots of a device population in the QoS space
//! and the set `A_k` of devices whose trajectory was flagged abnormal, this
//! crate decides **locally, per device** whether the device was hit by
//!
//! * an **isolated** anomaly (at most `τ` devices impacted),
//! * a **massive** anomaly (more than `τ` devices impacted), or
//! * whether it sits in an **unresolved configuration** — one where even an
//!   omniscient observer cannot tell (Theorem 3, the ACP impossibility).
//!
//! # Map from paper to code
//!
//! | Paper | Code |
//! |---|---|
//! | r-consistent set / motion (Defs. 1–3) | [`motion`] predicates on a [`TrajectoryTable`] |
//! | Algorithm 2 (`maxMotions`) | [`maximal_motions`] / [`maximal_motions_involving`] |
//! | Anomaly partition, Algorithm 1 (Lemma 2) | [`partition::build_partition`], [`partition::AnomalyPartition`] |
//! | Families `W̄_k(j)`, `D_k(j)`, `J_k(j)`, `L_k(j)` | [`families::Families`] |
//! | Theorem 5 (NSC for `I_k`) | [`Analyzer::characterize`] fast path |
//! | Theorem 6 (sufficient for `M_k`), Algorithm 3 | [`Analyzer::characterize`] |
//! | Theorem 7 (NSC for `M_k`), Algorithms 4–5 | [`Analyzer::characterize_full`] |
//! | Corollary 8 (NSC for `U_k`) | [`Analyzer::characterize_full`] |
//! | Omniscient observer, Relations (2)–(3) | [`observer::brute_force_classes`] |
//!
//! # Example
//!
//! Five devices move together while a sixth jumps on its own; with `τ = 3`
//! the group is characterized as massive and the loner as isolated:
//!
//! ```
//! use anomaly_core::{Analyzer, AnomalyClass, Params, TrajectoryTable};
//! use anomaly_qos::{DeviceId, QosSpace, Snapshot, StatePair};
//!
//! let space = QosSpace::new(1)?;
//! let before = Snapshot::from_rows(&space, vec![
//!     vec![0.10], vec![0.11], vec![0.12], vec![0.13], vec![0.14], // the group
//!     vec![0.80],                                                 // the loner
//! ])?;
//! let after = Snapshot::from_rows(&space, vec![
//!     vec![0.50], vec![0.51], vec![0.52], vec![0.53], vec![0.54],
//!     vec![0.20],
//! ])?;
//! let pair = StatePair::new(before, after)?;
//! let abnormal: Vec<DeviceId> = (0..6).map(DeviceId).collect();
//! let params = Params::new(0.03, 3)?;
//! let table = TrajectoryTable::from_state_pair(&pair, &abnormal);
//! let analyzer = Analyzer::new(&table, params);
//!
//! assert_eq!(analyzer.characterize(DeviceId(0)).class(), AnomalyClass::Massive);
//! assert_eq!(analyzer.characterize(DeviceId(5)).class(), AnomalyClass::Isolated);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(warnings)]
#![warn(missing_docs)]

mod characterize;
pub mod families;
pub mod local;
mod maximal;
pub mod motion;
pub mod observer;
mod params;
pub mod partition;
mod set;
mod table;

#[cfg(test)]
mod figures;

pub use characterize::{
    Analyzer, AnomalyClass, Characterization, ComponentPartition, Cost, DevicePrecompute, Rule,
    DEFAULT_COLLECTION_BUDGET, DEFAULT_ENUMERATION_BUDGET,
};
pub use families::Families;
pub use local::LocalContext;
pub use maximal::{
    maximal_motions, maximal_motions_bounded, maximal_motions_brute, maximal_motions_involving,
    maximal_motions_involving_bounded, MotionOps,
};
pub use params::{Params, ParamsError};
pub use partition::{build_partition, AnomalyPartition, PartitionError};
pub use set::DeviceSet;
pub use table::{TableError, TrajectoryTable};
