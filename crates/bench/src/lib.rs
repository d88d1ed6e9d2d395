//! Reproduction harness: one function (and one binary) per table and figure
//! of the paper's evaluation section, plus Criterion micro-benchmarks.
//!
//! Every experiment prints the same rows/series the paper reports, next to
//! the paper's published values where applicable. Run each with its own
//! binary (`fig6a`, `fig6b`, `table2`, `table3`, `fig7`, `fig8`, `fig9`):
//!
//! ```text
//! cargo run -p anomaly-bench --bin table2
//! ```
//!
//! The `REPRO_STEPS` environment variable scales the Monte-Carlo effort
//! (default 20 steps per grid point; the paper averaged ~10 000 settings —
//! raise it when you have the time).

#![forbid(unsafe_code)]
#![deny(warnings)]
#![warn(missing_docs)]

pub mod experiments;

/// Number of simulated steps per configuration, from `REPRO_STEPS`
/// (default 20, minimum 1).
pub fn repro_steps() -> u64 {
    std::env::var("REPRO_STEPS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(|v| v.max(1))
        .unwrap_or(20)
}

#[cfg(test)]
mod tests {
    #[test]
    fn repro_steps_has_a_sane_default() {
        // The env var is not set under `cargo test`.
        if std::env::var("REPRO_STEPS").is_err() {
            assert_eq!(super::repro_steps(), 20);
        }
    }
}
