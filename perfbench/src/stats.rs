//! Percentiles under the benchmark's sampling rules.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond its rank, and only when the ranks around it all come from one
//! kind of epoch: a percentile that sits where cheap epochs give way to
//! expensive ones jumps between the two costs from run to run.

use std::fmt;

/// Samples a percentile must leave above its rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the benchmark reports.
pub const SUPPORTED: [u32; 2] = [50, 90];

/// What happened in an epoch, as far as its cost is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Nothing is flagged: every device reports its usual reading.
    Quiet,
    /// Faults start: devices jump and are flagged.
    Onset,
    /// Faults clear: devices jump back, or stop being flagged.
    Recovery,
    /// The workload's regular epoch (a frozen cluster, or fresh anomalies
    /// every epoch).
    Steady,
    /// The first epoch of a monitor restored from a checkpoint.
    Restore,
}

impl Kind {
    /// Label used in traces and output.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Quiet => "quiet",
            Kind::Onset => "onset",
            Kind::Recovery => "recovery",
            Kind::Steady => "steady",
            Kind::Restore => "restore",
        }
    }
}

/// One timed sample and the kind of epoch it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The measured value.
    pub value: f64,
    /// The epoch kind.
    pub kind: Kind,
}

/// Why a percentile cannot be reported.
#[derive(Debug, Clone, PartialEq)]
pub enum PercentileError {
    /// Only [`SUPPORTED`] percentiles are reported.
    Unsupported(u32),
    /// Fewer than [`MIN_BEYOND`] samples would lie beyond the rank.
    TooFewSamples {
        /// The percentile asked for.
        p: u32,
        /// Samples available.
        samples: usize,
        /// Samples needed.
        needed: usize,
    },
    /// The ranks around the percentile hold more than one epoch kind.
    KindBoundary {
        /// The percentile asked for.
        p: u32,
        /// Two kinds found next to each other around the rank.
        kinds: (Kind, Kind),
    },
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PercentileError::Unsupported(p) => write!(f, "p{p} is not a supported percentile"),
            PercentileError::TooFewSamples { p, samples, needed } => {
                write!(f, "p{p} needs {needed} samples, got {samples}")
            }
            PercentileError::KindBoundary { p, kinds } => write!(
                f,
                "p{p} falls where {} epochs meet {} epochs",
                kinds.0.as_str(),
                kinds.1.as_str()
            ),
        }
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Smallest sample count for which percentile `p` leaves [`MIN_BEYOND`]
/// samples beyond its rank.
///
/// # Errors
///
/// [`PercentileError::Unsupported`] for a percentile outside [`SUPPORTED`].
pub fn samples_needed(p: u32) -> Result<usize, PercentileError> {
    if !SUPPORTED.contains(&p) {
        return Err(PercentileError::Unsupported(p));
    }
    Ok((1..)
        .find(|&n| n - rank(p, n) >= MIN_BEYOND)
        .expect("the gap beyond a rank grows with n"))
}

/// Nearest-rank percentile `p` of `samples`, refused when too few samples
/// lie beyond it or when the ranks within 1% of it (at least one rank on
/// each side) mix epoch kinds.
///
/// # Errors
///
/// See [`PercentileError`].
pub fn percentile(samples: &[Sample], p: u32) -> Result<f64, PercentileError> {
    let needed = samples_needed(p)?;
    let n = samples.len();
    if n < needed {
        return Err(PercentileError::TooFewSamples {
            p,
            samples: n,
            needed,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.value.total_cmp(&b.value));
    let at = rank(p, n) - 1;
    let band = (n / 100).max(1);
    let around = &sorted[at.saturating_sub(band)..(at + band + 1).min(n)];
    if let Some(other) = around.iter().find(|s| s.kind != sorted[at].kind) {
        return Err(PercentileError::KindBoundary {
            p,
            kinds: (sorted[at].kind, other.kind),
        });
    }
    Ok(sorted[at].value)
}

/// Median of plain values (0 for none), for per-layer summaries.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(values: impl IntoIterator<Item = f64>) -> Vec<Sample> {
        values
            .into_iter()
            .map(|value| Sample {
                value,
                kind: Kind::Quiet,
            })
            .collect()
    }

    #[test]
    fn unsupported_percentiles_are_refused() {
        let samples = quiet((0..1000).map(f64::from));
        for p in [0, 1, 25, 75, 95, 99, 100] {
            assert_eq!(
                percentile(&samples, p),
                Err(PercentileError::Unsupported(p))
            );
        }
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(50), Ok(20));
        assert_eq!(samples_needed(90), Ok(100));
        let samples = quiet((0..99).map(f64::from));
        assert!(matches!(
            percentile(&samples, 90),
            Err(PercentileError::TooFewSamples { needed: 100, .. })
        ));
        let samples = quiet((1..=100).map(f64::from));
        assert_eq!(percentile(&samples, 90), Ok(90.0));
        assert_eq!(percentile(&samples, 50), Ok(50.0));
    }

    #[test]
    fn a_percentile_on_a_kind_boundary_is_refused() {
        // 90 cheap quiet epochs, 10 expensive onsets: p90 sits on the seam.
        let mut samples = quiet((0..90).map(f64::from));
        samples.extend((0..10).map(|i| Sample {
            value: 1000.0 + f64::from(i),
            kind: Kind::Onset,
        }));
        assert!(matches!(
            percentile(&samples, 90),
            Err(PercentileError::KindBoundary { .. })
        ));
        assert_eq!(percentile(&samples, 50), Ok(49.0));
    }
}
