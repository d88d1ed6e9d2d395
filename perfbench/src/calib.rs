//! Host-speed calibration of the reported times.
//!
//! The shared host the benchmark was tuned on (a 2-vCPU Xeon VM) runs the
//! monitor up to 60% slower for minutes at a time: the `frozen-cluster`
//! steady seal read 0.30 ms in one stretch and 0.45–0.55 ms for the next
//! quarter of an hour, with no steal time and no page faults in the seal.
//! No statistic inside a 60-s run sees past a stretch that outlasts it.
//!
//! What does see it is a small fixed kernel of hash-set and B-tree work
//! (the kind of work the seal does) run between epochs every
//! [`PERIOD_MS`]. In a 150-s run whose seal medians over 500-epoch chunks
//! spanned 0.32–0.56 ms, the kernel's medians over the same chunks
//! correlated 0.97 with them: the seal-to-kernel ratio varied 3.5%
//! (coefficient of variation) against 14% for the seal alone. A pure
//! arithmetic loop (0.82) and pointer chases over 1–32 MB (0.77–0.84)
//! tracked the seal less well.
//!
//! Each kind of time swings with the host by its own amount, though: the
//! slope of its log against the log of the kernel's time, its
//! [`Elasticity`], ranges from about 0.5 (`isp-outages` page p90) to 1.8
//! (`frozen-cluster` page p50). No other kernel tried (sorting,
//! independent arithmetic chains, larger hash sets and B-trees) tracked
//! the seal and the pages better. Each workload states the elasticities
//! fitted for it.
//!
//! Every end-to-end time is therefore multiplied by ([`REFERENCE_MS`] ÷
//! the kernel's median in a window of [`WINDOW_S`] seconds either side of
//! it) to the power of its elasticity: it reads as milliseconds on a host
//! where the kernel takes [`REFERENCE_MS`]. The kernel's code is the
//! benchmark's own and never changes with the program, so a change to the
//! program moves the scaled times exactly as it moves the raw ones at a
//! fixed host speed.

use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Kernel time at which scaled times equal raw ones: about the kernel's
/// median on the host the benchmark was tuned on.
pub const REFERENCE_MS: f64 = 0.5;

/// The kernel runs once per this many milliseconds of the measured loop.
pub const PERIOD_MS: f64 = 25.0;

/// A time is scaled by the kernel's median over the one-second buckets
/// within this many seconds of it (widened when those hold no run).
pub const WINDOW_S: usize = 1;

/// Kernel runs back to back around work that leaves no room for the
/// periodic ones: set-ups, checkpoints and restores.
const BURST: usize = 5;

/// Keys the kernel inserts into and probes a hash set.
const SET_KEYS: usize = 10_000;

/// Of those, keys the kernel builds a B-tree of.
const TREE_KEYS: usize = 2_500;

/// How far each kind of time swings with the host: the exponent of the
/// kernel ratio in its scale factor, fitted as the slope of the time's log
/// against the kernel time's log over runs in fast and slow stretches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elasticity {
    /// `seal_p50_ms`.
    pub seal_p50: f64,
    /// `seal_p90_ms`.
    pub seal_p90: f64,
    /// `page_p50_ms`.
    pub page_p50: f64,
    /// `page_p90_ms`.
    pub page_p90: f64,
    /// Busy time per epoch (`updates_per_s`).
    pub busy: f64,
    /// `checkpoint_p50_ms`.
    pub checkpoint: f64,
    /// `restore_p50_ms`.
    pub restore: f64,
    /// `setup_s`.
    pub setup: f64,
}

/// The calibration kernel and its timed runs.
#[derive(Debug)]
pub struct Calibration {
    origin: Instant,
    last: Option<Instant>,
    keys: Vec<u32>,
    /// Fixed-key SipHash, so every process lays the set out alike.
    set: HashSet<u32, BuildHasherDefault<DefaultHasher>>,
    /// `(seconds since the recorder started, kernel milliseconds)`.
    runs: Vec<(f64, f64)>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// A calibration whose clock starts now, with a first burst of runs.
    pub fn new() -> Self {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let keys = (0..SET_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        let mut calib = Calibration {
            origin: Instant::now(),
            last: None,
            keys,
            set: HashSet::with_capacity_and_hasher(SET_KEYS, Default::default()),
            runs: Vec::new(),
        };
        calib.burst();
        calib
    }

    /// Seconds since the calibration started: the time stamp of a sample.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs the kernel when [`PERIOD_MS`] have passed since the last run.
    pub fn tick(&mut self) {
        let due = self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() * 1e3 >= PERIOD_MS);
        if due {
            self.run();
        }
    }

    /// Runs the kernel [`BURST`] times.
    pub fn burst(&mut self) {
        for _ in 0..BURST {
            self.run();
        }
    }

    fn run(&mut self) {
        let start = Instant::now();
        self.set.clear();
        for &k in &self.keys {
            self.set.insert(k);
        }
        let hits = self
            .keys
            .iter()
            .filter(|&&k| self.set.contains(&k.rotate_left(1)))
            .count();
        let tree: BTreeMap<u32, u32> = self.keys[..TREE_KEYS]
            .iter()
            .map(|&k| (k, k >> 3))
            .collect();
        let sum = tree
            .values()
            .fold(hits as u64, |a, &v| a.wrapping_add(u64::from(v)));
        std::hint::black_box(sum);
        drop(tree);
        let end = Instant::now();
        self.runs.push((
            end.duration_since(self.origin).as_secs_f64(),
            end.duration_since(start).as_secs_f64() * 1e3,
        ));
        self.last = Some(end);
    }

    /// The scale the runs so far give.
    pub fn scale(&self) -> Scale {
        Scale::new(&self.runs)
    }
}

/// Per-second kernel ratios from the kernel's runs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// [`REFERENCE_MS`] ÷ the kernel's median around each one-second
    /// bucket since the calibration started.
    ratios: Vec<f64>,
    /// Median kernel time over the whole run.
    pub kernel_ms: f64,
    /// Kernel runs.
    pub runs: usize,
}

impl Scale {
    fn new(runs: &[(f64, f64)]) -> Self {
        let bucket = |at: f64| at.max(0.0) as usize;
        let buckets = runs
            .iter()
            .map(|&(at, _)| bucket(at) + 1)
            .max()
            .unwrap_or(0);
        let mut by_bucket: Vec<Vec<f64>> = vec![Vec::new(); buckets];
        for &(at, ms) in runs {
            by_bucket[bucket(at)].push(ms);
        }
        let ratios = (0..buckets)
            .map(|b| {
                // Widen the window until it holds a run; the first burst
                // guarantees one exists.
                (WINDOW_S..)
                    .map(|w| {
                        let window = &by_bucket[b.saturating_sub(w)..(b + w + 1).min(buckets)];
                        window.concat()
                    })
                    .find(|ms| !ms.is_empty())
                    .map_or(1.0, |ms| REFERENCE_MS / median(&ms))
            })
            .collect();
        Scale {
            ratios,
            kernel_ms: median(&runs.iter().map(|&(_, ms)| ms).collect::<Vec<_>>()),
            runs: runs.len(),
        }
    }

    /// Factor for a time of the given elasticity measured at `at` seconds.
    pub fn factor(&self, at: f64, elasticity: f64) -> f64 {
        let b = (at.max(0.0) as usize).min(self.ratios.len().saturating_sub(1));
        self.ratios.get(b).copied().unwrap_or(1.0).powf(elasticity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_time_is_scaled_by_the_kernel_near_it() {
        // Seconds 0–2 at the reference speed, seconds 5–7 twice as slow.
        let mut runs: Vec<(f64, f64)> = (0..30).map(|i| (f64::from(i) * 0.1, 0.5)).collect();
        runs.extend((0..30).map(|i| (5.0 + f64::from(i) * 0.1, 1.0)));
        let scale = Scale::new(&runs);
        assert_eq!(scale.factor(1.0, 1.5), 1.0);
        assert_eq!(scale.factor(6.0, 1.0), 0.5);
        assert_eq!(scale.factor(6.0, 2.0), 0.25);
        // Beyond the last run, the last bucket's factor holds.
        assert_eq!(scale.factor(100.0, 1.0), 0.5);
        // A second with no run of its own borrows the nearest ones.
        assert!(scale.factor(3.5, 1.0).is_finite());
    }

    #[test]
    fn a_calibration_starts_with_a_burst() {
        let calib = Calibration::new();
        assert_eq!(calib.runs.len(), BURST);
        let scale = calib.scale();
        assert!(scale.kernel_ms > 0.0);
        assert!(scale.factor(0.0, 1.0) > 0.0);
    }
}
