//! Scenario traces: record simulated steps to a portable text format and
//! replay them later — regression fixtures, cross-machine comparisons, and
//! "send me the scenario that broke" workflows.
//!
//! The format is line-oriented and human-inspectable:
//!
//! ```text
//! anomaly-trace v1
//! n 6 dim 1 r 0.03 tau 3
//! step
//! before 0.9 0.91 0.92 0.93 0.94 0.92
//! after 0.4 0.41 0.42 0.43 0.44 0.1
//! event isolated 5
//! event massive 0 1 2 3 4
//! end
//! ```

use crate::generator::StepOutcome;
use crate::ground_truth::{ErrorEvent, GroundTruth};
use anomaly_core::{DeviceSet, Params};
use anomaly_qos::{DeviceId, QosSpace, Snapshot, StatePair};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// A recorded scenario: parameters plus a sequence of steps.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Population size.
    pub n: usize,
    /// QoS space dimension.
    pub dim: usize,
    /// Characterization parameters.
    pub params: Params,
    /// Recorded steps.
    pub steps: Vec<TraceStep>,
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Snapshots before/after.
    pub pair: StatePair,
    /// Ground-truth events.
    pub truth: GroundTruth,
}

/// Errors raised when parsing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// Missing or wrong magic header.
    BadHeader,
    /// A line failed to parse.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The trace body was structurally inconsistent.
    Inconsistent {
        /// Description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadHeader => write!(f, "not an anomaly-trace v1 file"),
            TraceError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            TraceError::Inconsistent { reason } => write!(f, "inconsistent trace: {reason}"),
        }
    }
}

impl Error for TraceError {}

impl Trace {
    /// Starts an empty trace for a population of `n` devices in `dim`
    /// services, characterized with `params`.
    pub fn new(n: usize, dim: usize, params: Params) -> Self {
        Trace {
            n,
            dim,
            params,
            steps: Vec::new(),
        }
    }

    /// Appends a simulated step.
    ///
    /// # Panics
    ///
    /// Panics if the outcome disagrees with the trace's population or
    /// dimension.
    pub fn record(&mut self, outcome: &StepOutcome) {
        assert_eq!(outcome.pair.len(), self.n, "population mismatch");
        assert_eq!(outcome.pair.dim(), self.dim, "dimension mismatch");
        self.steps.push(TraceStep {
            pair: outcome.pair.clone(),
            truth: outcome.truth.clone(),
        });
    }

    /// A sub-trace holding the steps of `range`, with the same parameters.
    ///
    /// Out-of-bounds indices are clamped to the recorded step count. Useful
    /// for replaying a scenario in segments — e.g. reproducing fleet
    /// membership changes that happened between two recording sessions.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Trace {
        let end = range.end.min(self.steps.len());
        let start = range.start.min(end);
        Trace {
            n: self.n,
            dim: self.dim,
            params: self.params,
            steps: self.steps[start..end].to_vec(),
        }
    }

    /// Serializes to the v1 text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("anomaly-trace v1\n");
        let _ = writeln!(
            out,
            "n {} dim {} r {} tau {}",
            self.n,
            self.dim,
            self.params.radius(),
            self.params.tau()
        );
        for step in &self.steps {
            out.push_str("step\n");
            for (label, snap) in [("before", step.pair.before()), ("after", step.pair.after())] {
                out.push_str(label);
                for (_, p) in snap.iter() {
                    for c in p {
                        let _ = write!(out, " {c}");
                    }
                }
                out.push('\n');
            }
            for event in step.truth.events() {
                out.push_str("event ");
                out.push_str(if event.intended_isolated {
                    "isolated"
                } else {
                    "massive"
                });
                for id in &event.impacted {
                    let _ = write!(out, " {}", id.0);
                }
                out.push('\n');
            }
            out.push_str("end\n");
        }
        out
    }

    /// Parses the v1 text format.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first problem found.
    pub fn from_text(text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines().enumerate();
        let Some((_, magic)) = lines.next() else {
            return Err(TraceError::BadHeader);
        };
        if magic.trim() != "anomaly-trace v1" {
            return Err(TraceError::BadHeader);
        }
        let Some((lineno, header)) = lines.next() else {
            return Err(TraceError::BadHeader);
        };
        let fields: Vec<&str> = header.split_whitespace().collect();
        let bad = |line: usize, reason: &str| TraceError::BadLine {
            line: line + 1,
            reason: reason.to_string(),
        };
        if fields.len() != 8
            || fields[0] != "n"
            || fields[2] != "dim"
            || fields[4] != "r"
            || fields[6] != "tau"
        {
            return Err(bad(lineno, "expected `n <n> dim <d> r <r> tau <tau>`"));
        }
        let n: usize = fields[1].parse().map_err(|_| bad(lineno, "bad n"))?;
        let dim: usize = fields[3].parse().map_err(|_| bad(lineno, "bad dim"))?;
        let r: f64 = fields[5].parse().map_err(|_| bad(lineno, "bad r"))?;
        let tau: usize = fields[7].parse().map_err(|_| bad(lineno, "bad tau"))?;
        let params = Params::new(r, tau).map_err(|e| TraceError::Inconsistent {
            reason: e.to_string(),
        })?;
        let space = QosSpace::new(dim).map_err(|e| TraceError::Inconsistent {
            reason: e.to_string(),
        })?;

        let mut trace = Trace::new(n, dim, params);
        let mut before: Option<Snapshot> = None;
        let mut after: Option<Snapshot> = None;
        let mut events: Vec<ErrorEvent> = Vec::new();
        let mut in_step = false;

        let parse_snapshot = |lineno: usize, rest: &str| -> Result<Snapshot, TraceError> {
            let values: Result<Vec<f64>, _> =
                rest.split_whitespace().map(str::parse::<f64>).collect();
            let values = values.map_err(|_| bad(lineno, "bad coordinate"))?;
            if values.len() != n * dim {
                return Err(bad(lineno, "wrong number of coordinates"));
            }
            let rows: Vec<Vec<f64>> = values.chunks(dim).map(<[f64]>::to_vec).collect();
            Snapshot::from_rows(&space, rows).map_err(|e| TraceError::Inconsistent {
                reason: e.to_string(),
            })
        };

        for (lineno, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line == "step" {
                if in_step {
                    return Err(bad(lineno, "nested step"));
                }
                in_step = true;
            } else if let Some(rest) = line.strip_prefix("before") {
                before = Some(parse_snapshot(lineno, rest)?);
            } else if let Some(rest) = line.strip_prefix("after") {
                after = Some(parse_snapshot(lineno, rest)?);
            } else if let Some(rest) = line.strip_prefix("event ") {
                let mut parts = rest.split_whitespace();
                let kind = parts
                    .next()
                    .ok_or_else(|| bad(lineno, "missing event kind"))?;
                let intended_isolated = match kind {
                    "isolated" => true,
                    "massive" => false,
                    _ => return Err(bad(lineno, "unknown event kind")),
                };
                let ids: Result<DeviceSet, _> = parts
                    .map(|p| p.parse::<u32>().map(DeviceId))
                    .collect::<Result<Vec<_>, _>>()
                    .map(|v| v.into_iter().collect());
                let impacted = ids.map_err(|_| bad(lineno, "bad device id"))?;
                events.push(ErrorEvent {
                    impacted,
                    intended_isolated,
                });
            } else if line == "end" {
                let (Some(b), Some(a)) = (before.take(), after.take()) else {
                    return Err(TraceError::Inconsistent {
                        reason: "step missing before/after snapshots".into(),
                    });
                };
                let pair = StatePair::new(b, a).map_err(|e| TraceError::Inconsistent {
                    reason: e.to_string(),
                })?;
                trace.steps.push(TraceStep {
                    pair,
                    truth: GroundTruth::new(std::mem::take(&mut events)),
                });
                in_step = false;
            } else {
                return Err(bad(lineno, "unrecognized line"));
            }
        }
        if in_step {
            return Err(TraceError::Inconsistent {
                reason: "unterminated step".into(),
            });
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::generator::Simulation;

    fn recorded(seed: u64, steps: usize) -> Trace {
        let mut config = ScenarioConfig::paper_defaults(seed);
        config.n = 50;
        config.errors_per_step = 3;
        let mut sim = Simulation::new(config.clone()).unwrap();
        let mut trace = Trace::new(config.n, config.dim, config.params);
        for _ in 0..steps {
            trace.record(&sim.step());
        }
        trace
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = recorded(5, 3);
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).unwrap();
        assert_eq!(trace, parsed);
    }

    #[test]
    fn slice_preserves_parameters_and_clamps() {
        let trace = recorded(8, 4);
        let mid = trace.slice(1..3);
        assert_eq!(mid.n, trace.n);
        assert_eq!(mid.params, trace.params);
        assert_eq!(mid.steps, trace.steps[1..3].to_vec());
        assert_eq!(trace.slice(2..99).steps.len(), 2);
        assert!(trace.slice(7..9).steps.is_empty());
    }

    #[test]
    fn header_is_validated() {
        assert_eq!(Trace::from_text(""), Err(TraceError::BadHeader));
        assert_eq!(
            Trace::from_text("something else\n"),
            Err(TraceError::BadHeader)
        );
    }

    #[test]
    fn bad_coordinate_is_reported_with_line() {
        let trace = recorded(6, 1);
        let text = trace.to_text().replace("step\nbefore ", "step\nbefore x");
        match Trace::from_text(&text) {
            Err(TraceError::BadLine { line, .. }) => assert!(line > 2),
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_step_is_rejected() {
        let trace = recorded(7, 1);
        let mut text = trace.to_text();
        text = text.replace("end\n", "");
        assert!(matches!(
            Trace::from_text(&text),
            Err(TraceError::Inconsistent { .. })
        ));
    }

    #[test]
    fn replayed_steps_characterize_identically() {
        use crate::generator::StepOutcome;
        use crate::runner::analyze_step;
        let mut config = ScenarioConfig::paper_defaults(9);
        config.n = 80;
        config.errors_per_step = 4;
        let mut sim = Simulation::new(config.clone()).unwrap();
        let outcome = sim.step();
        let mut trace = Trace::new(config.n, config.dim, config.params);
        trace.record(&outcome);
        let parsed = Trace::from_text(&trace.to_text()).unwrap();
        let replayed = StepOutcome {
            pair: parsed.steps[0].pair.clone(),
            truth: parsed.steps[0].truth.clone(),
            recovered: DeviceSet::new(),
            config: config.clone(),
        };
        assert_eq!(analyze_step(&outcome, true), analyze_step(&replayed, true));
    }

    #[test]
    fn error_display() {
        let e = TraceError::BadLine {
            line: 3,
            reason: "oops".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
