//! Scenario workbench: end-to-end accuracy evaluation across network,
//! adversary, and churn workloads.
//!
//! The paper's claim is not just that characterization *runs* — it is that
//! per-device local verdicts agree with the real scenario `R_k` under
//! realistic ISP conditions, and do so at least as well as centralized
//! clustering baselines. This crate turns that claim into a standing
//! harness:
//!
//! * [`Scenario`] unifies every workload generator in the workspace —
//!   Monte-Carlo simulation ([`SimScenario`]), ISP fault injection
//!   ([`NetworkFaultScenario`]), collusion attacks ([`AdversaryScenario`]),
//!   large fleets ([`FleetScenario`]), membership churn
//!   ([`ChurnScenario`]), long-lived anomalies with flapping devices
//!   ([`PersistentAnomalyScenario`]), and recorded traces
//!   ([`RecordedScenario`]) — behind one deterministic `generate()`;
//! * [`evaluate_monitor`] drives the v2
//!   [`Monitor`](anomaly_characterization::pipeline::Monitor) over a
//!   scenario via `Monitor::run_scenario` and scores every verdict against
//!   the ground truth with the per-class confusion matrices of
//!   [`anomaly_simulator::score`];
//! * [`evaluate_classifier`] scores the k-means and tessellation baselines
//!   (`anomaly-baselines`) on the *same* generated runs, so accuracy
//!   comparisons are apples to apples;
//! * the `workbench` binary in `anomaly-bench` runs the full scenario ×
//!   method matrix and writes `BENCH_eval.json` — the accuracy-regression
//!   gate every future performance PR runs against.
//!
//! # Example
//!
//! ```
//! use anomaly_baselines::TessellationClassifier;
//! use anomaly_eval::{evaluate_classifier, evaluate_monitor, NetworkFaultScenario};
//!
//! let scenario = NetworkFaultScenario::small_mixed("dslam-vs-cpe", 42, 3);
//! let paper = evaluate_monitor(&scenario)?;
//! let tess = evaluate_classifier(&scenario, &TessellationClassifier::new(16, 3))?;
//! assert!(paper.macro_f1() >= tess.macro_f1());
//! # Ok::<(), anomaly_eval::EvalError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(warnings)]
#![warn(missing_docs)]

mod error;
mod runner;
mod scenario;
mod workloads;

pub use error::EvalError;
pub use runner::{
    evaluate_classifier, evaluate_classifier_on, evaluate_log, evaluate_log_on, evaluate_monitor,
    evaluate_monitor_alerts_on, evaluate_monitor_on, evaluate_monitor_streaming,
    evaluate_monitor_streaming_on, record_monitor_log, AlertQuality, InstantScore, ScenarioScore,
};
pub use scenario::{ChurnEvent, Scenario, ScenarioRun, ScenarioSpec};
pub use workloads::{
    AdversaryScenario, ChurnScenario, FleetScenario, NetworkFaultScenario,
    PersistentAnomalyScenario, RecordedScenario, SimScenario, StreamingScenario,
};
