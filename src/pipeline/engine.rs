//! The retired execution-strategy knob.

/// Accepted for source compatibility and ignored: characterization always
/// runs on the calling thread.
///
/// [`MonitorBuilder::engine`](super::MonitorBuilder::engine) takes either
/// variant and stores neither, so a [`Report`](super::Report) is the same
/// whichever one a caller names.
///
/// # Example
///
/// ```
/// use anomaly_characterization::pipeline::{Engine, MonitorBuilder};
///
/// // Builds exactly the monitor `MonitorBuilder::new().fleet(100)` does.
/// let monitor = MonitorBuilder::new()
///     .engine(Engine::Threaded { workers: 4 })
///     .fleet(100)
///     .build()?;
/// assert_eq!(monitor.population(), 100);
/// # Ok::<(), anomaly_characterization::pipeline::MonitorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Characterization on the calling thread.
    #[default]
    Sequential,
    /// Also characterization on the calling thread: `workers` is ignored
    /// and no thread is started.
    Threaded {
        /// Ignored.
        workers: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        assert_eq!(Engine::default(), Engine::Sequential);
    }
}
