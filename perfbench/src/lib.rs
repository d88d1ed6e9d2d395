//! End-to-end and per-layer benchmark of the anomaly monitor.
//!
//! One run drives one workload through the public API of the pipeline
//! (`Monitor`), the alert sink, the event log and persistence, for a given
//! number of seconds, checks the outputs, and reports either the
//! end-to-end metrics (seal and page latency, throughput, checkpoint,
//! restore and set-up time, memory, verdict quality) or, when traced, the
//! per-layer metrics taken from spans around each call. See `README.md`
//! next to this crate for the workloads and metric definitions.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod calib;
pub mod frozen;
pub mod isp;
pub mod record;
pub mod stats;
pub mod trace;

pub use record::{Metric, Outcome, Recorder};

use stats::Kind;

/// One epoch's updates: `(device key, QoS row)`.
pub type Updates = Vec<(u64, Vec<f64>)>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A large fleet whose only anomaly is a frozen cluster.
    FrozenCluster,
    /// An ISP access network with DSLAM outages and CPE faults.
    IspOutages,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::FrozenCluster, Workload::IspOutages];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FrozenCluster => "frozen-cluster",
            Workload::IspOutages => "isp-outages",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large a run's fleets are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the command line runs.
    Full,
    /// Small fleets, for the benchmark's own tests.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Minimum measured time; the run goes on until every reported
    /// percentile has its samples.
    pub seconds: f64,
    /// Report per-layer metrics from spans instead of end-to-end metrics.
    pub trace: bool,
    /// Fleet sizes.
    pub size: Size,
}

/// Runs one workload.
pub fn run(opts: &Options) -> Outcome {
    let (seal_kind, page_kind, elasticity) = match opts.workload {
        Workload::FrozenCluster => (Kind::Steady, Kind::Onset, frozen::ELASTICITY),
        Workload::IspOutages => (Kind::Quiet, Kind::Onset, isp::ELASTICITY),
    };
    let mut rec = Recorder::new(opts, seal_kind, page_kind, elasticity);
    match opts.workload {
        Workload::FrozenCluster => frozen::run(opts, &mut rec),
        Workload::IspOutages => isp::run(opts, &mut rec),
    }
    rec.finish()
}
