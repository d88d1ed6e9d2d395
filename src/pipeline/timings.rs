//! The designated wall-clock module — the only place pipeline code may
//! read time (conformance lint C3, `no-wallclock`).
//!
//! Reports must be pure functions of their inputs: byte-identical across
//! cached and recomputed seals, restarts, streaming-vs-batch, and
//! `Trace::slice` replay. A stray `Instant::now()` can never change a
//! verdict, but it *can* tempt one to — gating work on elapsed time is the
//! classic way determinism dies between two CI samples. So the clock is
//! quarantined here, behind a type that can only ever feed the advisory
//! timing telemetry in a [`Report`](super::Report).

use std::time::{Duration, Instant};

/// A started wall-clock measurement for report telemetry.
///
/// Deliberately minimal: no "now", no timestamps, no comparisons — only a
/// start-to-elapsed span, so the clock cannot leak into control flow.
#[derive(Debug, Clone, Copy)]
pub(super) struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts measuring.
    pub(super) fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Wall-clock time since [`Stopwatch::start`].
    pub(super) fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}
