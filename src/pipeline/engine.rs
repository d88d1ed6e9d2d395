//! Execution-strategy knobs for the characterization hot path.

/// How [`Monitor::observe`](super::Monitor::observe) executes the
/// per-instant characterization.
///
/// Per-device verdicts are local (Definition 1: each device decides from
/// its `2r`-neighbourhood only), so the flagged set can be split into
/// shards and characterized concurrently; the monitor merges shard results
/// back in dense-id order, making the [`Report`](super::Report) —
/// verdicts, iterator order, summary counters — identical for every
/// variant and worker count. Timings are the only fields that differ.
///
/// # Example
///
/// ```
/// use anomaly_characterization::pipeline::{Engine, MonitorBuilder};
///
/// let monitor = MonitorBuilder::new()
///     .engine(Engine::Threaded { workers: 4 })
///     .fleet(100)
///     .build()?;
/// assert_eq!(monitor.engine(), Engine::Threaded { workers: 4 });
/// # Ok::<(), anomaly_characterization::pipeline::MonitorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Single-threaded characterization on the calling thread (default).
    #[default]
    Sequential,
    /// Characterization fanned out over a persistent pool of `workers` OS
    /// threads (plain `std::thread` + channels; no runtime, no extra
    /// dependencies). The pool is spawned lazily on the first epoch that
    /// needs it and its threads stay parked between epochs, so the
    /// per-seal cost is two channel round-trips per shard. Shards are
    /// grid-locality aware ([`anomaly_core::ShardPlan`]): each worker gets
    /// a balanced, spatially-coherent slice of the flagged set.
    ///
    /// The *shard* count is `workers` capped at the number of devices
    /// needing fresh characterization; an epoch with a single shard runs
    /// on the calling thread. `workers == 0` and `workers == 1` therefore
    /// behave like [`Engine::Sequential`] (no threads are spawned).
    Threaded {
        /// Upper bound on concurrent worker threads.
        workers: usize,
    },
}

impl Engine {
    /// One thread per available core, as reported by the OS (falls back to
    /// [`Engine::Sequential`] when parallelism cannot be queried).
    pub fn threaded_auto() -> Self {
        match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => Engine::Threaded { workers: n.get() },
            _ => Engine::Sequential,
        }
    }

    /// Effective shard count for a flagged set of `devices`.
    pub(super) fn shard_count(self, devices: usize) -> usize {
        match self {
            Engine::Sequential => 1,
            Engine::Threaded { workers } => workers.clamp(1, devices.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        assert_eq!(Engine::default(), Engine::Sequential);
    }

    #[test]
    fn shard_count_is_clamped_to_the_flagged_set() {
        assert_eq!(Engine::Sequential.shard_count(100), 1);
        assert_eq!(Engine::Threaded { workers: 4 }.shard_count(100), 4);
        assert_eq!(Engine::Threaded { workers: 4 }.shard_count(2), 2);
        assert_eq!(Engine::Threaded { workers: 0 }.shard_count(10), 1);
        assert_eq!(Engine::Threaded { workers: 3 }.shard_count(0), 1);
    }

    #[test]
    fn threaded_auto_never_reports_zero_workers() {
        match Engine::threaded_auto() {
            Engine::Threaded { workers } => assert!(workers > 1),
            Engine::Sequential => {}
        }
    }
}
