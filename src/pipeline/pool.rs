//! Characterization jobs and the persistent worker pool that runs them
//! for the threaded engine.
//!
//! Each characterization phase is a list of [`Job`]s, one per shard, for
//! every engine. An epoch with a single shard — always the case under
//! [`Engine::Sequential`](super::Engine::Sequential) — runs its job inline
//! on the calling thread. Otherwise the pool ships the jobs to OS threads
//! it spawned once and keeps parked on channel receives between epochs,
//! over per-worker channels.
//!
//! Inputs are shared as `Arc`s — which is exactly why the borrowing
//! `Analyzer<'t>` cannot be used here and the owned
//! [`AnalyzerCore`] exists. A job consumes its `Arc`s before reporting its
//! result, and the result channel's happens-before edge guarantees the
//! caller can reclaim sole ownership (e.g. of the [`StatePair`]) once every
//! result has been collected.
//!
//! Worker panics are contained with `catch_unwind` and surface as a typed
//! [`MonitorError`] (conformance C1: no panic may cross the pipeline
//! boundary); the monitor drops the poisoned pool and rebuilds it on the
//! next threaded epoch.

use super::error::MonitorError;
use anomaly_core::{
    AnalyzerCore, Characterization, DevicePrecompute, Params, TrajectoryTable,
    DEFAULT_ENUMERATION_BUDGET,
};
use anomaly_qos::{DeviceId, StatePair, TrajectoryIndex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One unit of work shipped to a worker: a shard of flagged devices plus
/// shared read-only views of everything the phase needs.
pub(super) enum Job {
    /// Phase 1: per-device motion precompute over one shard.
    Precompute {
        /// Trajectories of the whole abnormal set.
        table: Arc<TrajectoryTable>,
        /// Characterization parameters in force.
        params: Params,
        /// The devices this worker precomputes.
        shard: Vec<DeviceId>,
    },
    /// Phase 2: verdicts and vicinity counts over one shard.
    Verdicts {
        /// The merged engine (cached + fresh parts).
        core: Arc<AnalyzerCore>,
        /// Trajectories of the whole abnormal set.
        table: Arc<TrajectoryTable>,
        /// The interval's cohort state pair.
        pair: Arc<StatePair>,
        /// Trajectory index over the cohort.
        index: Arc<TrajectoryIndex>,
        /// Vicinity radius (`2r`).
        window: f64,
        /// The devices this worker decides.
        shard: Vec<DeviceId>,
    },
}

/// What a worker sends back for one [`Job`].
pub(super) enum JobOutput {
    /// Phase 1 results: one precompute slice per shard device.
    Parts(Vec<(DeviceId, DevicePrecompute)>),
    /// Phase 2 results: `(device, verdict, vicinity)` per shard device.
    Verdicts(Vec<(DeviceId, Characterization, usize)>),
}

/// A job's result, tagged with its dispatch sequence number so the caller
/// can restore submission order. `output` is `None` when the job panicked.
struct JobResult {
    seq: usize,
    output: Option<JobOutput>,
}

impl Job {
    /// Runs the job to completion, consuming the shared inputs.
    pub(super) fn run(self) -> JobOutput {
        match self {
            Job::Precompute {
                table,
                params,
                shard,
            } => JobOutput::Parts(AnalyzerCore::precompute_shard(
                &table,
                &params,
                &shard,
                DEFAULT_ENUMERATION_BUDGET,
            )),
            Job::Verdicts {
                core,
                table,
                pair,
                index,
                window,
                shard,
            } => JobOutput::Verdicts(
                shard
                    .iter()
                    .map(|&j| {
                        let vicinity = index.vicinity(&pair, j, window);
                        (j, core.characterize_full(&table, j), vicinity)
                    })
                    .collect(),
            ),
        }
    }
}

/// A fixed-size pool of parked characterization workers, alive for the
/// monitor's lifetime.
///
/// Dispatch is round-robin over per-worker channels; results funnel back
/// through one shared channel and are re-ordered by sequence number, so
/// [`WorkerPool::run`] returns outputs in submission order — determinism
/// does not depend on thread scheduling.
pub(super) struct WorkerPool {
    /// One submission channel per worker (dropping them stops the pool).
    senders: Vec<Sender<(usize, Job)>>,
    /// Shared result channel.
    results: Receiver<JobResult>,
    /// The parked threads, joined on drop.
    handles: Vec<JoinHandle<()>>,
    /// Round-robin dispatch cursor.
    next: usize,
}

impl WorkerPool {
    /// Spawns `workers` parked threads (at least one).
    pub(super) fn spawn(workers: usize) -> Self {
        let workers = workers.max(1);
        let (result_tx, results) = channel::<JobResult>();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<(usize, Job)>();
            let out = result_tx.clone();
            handles.push(std::thread::spawn(move || {
                while let Ok((seq, job)) = rx.recv() {
                    let output = catch_unwind(AssertUnwindSafe(|| job.run())).ok();
                    if out.send(JobResult { seq, output }).is_err() {
                        break;
                    }
                }
            }));
            senders.push(tx);
        }
        WorkerPool {
            senders,
            results,
            handles,
            next: 0,
        }
    }

    /// Number of worker threads.
    pub(super) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Dispatches `jobs` round-robin and collects every result, returned in
    /// submission order.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Internal`] when a worker panicked or disconnected.
    /// All results are drained before reporting the failure, so the pool's
    /// channels hold no stale results either way — but the caller must
    /// still drop a failed pool: a panic means a worker's state (not the
    /// channel) can no longer be trusted.
    pub(super) fn run(&mut self, jobs: Vec<Job>) -> Result<Vec<JobOutput>, MonitorError> {
        let n = jobs.len();
        for (seq, job) in jobs.into_iter().enumerate() {
            let w = self.next % self.senders.len().max(1);
            self.next = self.next.wrapping_add(1);
            self.senders
                .get(w)
                .ok_or(MonitorError::internal("worker pool has no workers"))?
                .send((seq, job))
                .map_err(|_| MonitorError::internal("characterization worker disconnected"))?;
        }
        let mut slots: Vec<Option<JobOutput>> = Vec::new();
        slots.resize_with(n, || None);
        let mut panicked = false;
        for _ in 0..n {
            let res = self
                .results
                .recv()
                .map_err(|_| MonitorError::internal("characterization workers hung up"))?;
            match res.output {
                Some(output) => {
                    let slot = slots.get_mut(res.seq).ok_or(MonitorError::internal(
                        "worker returned an unknown job sequence",
                    ))?;
                    if slot.replace(output).is_some() {
                        return Err(MonitorError::internal("worker answered a job twice"));
                    }
                }
                None => panicked = true,
            }
        }
        if panicked {
            return Err(MonitorError::internal("characterization worker panicked"));
        }
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            out.push(slot.ok_or(MonitorError::internal("worker result missing"))?);
        }
        Ok(out)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the submission channels wakes every parked worker out of
        // its `recv`; join afterwards so no thread outlives the monitor.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            // A worker that panicked outside `catch_unwind` cannot happen
            // (the whole job body is wrapped), but joining is infallible
            // hygiene either way: ignore the result.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomaly_core::Params;

    fn table_of(rows: &[(u32, f64, f64)]) -> TrajectoryTable {
        TrajectoryTable::from_pairs_1d(rows)
    }

    #[test]
    fn pool_runs_precompute_jobs_in_submission_order() {
        let params = Params::new(0.03, 3).unwrap();
        let table = Arc::new(table_of(&[
            (0, 0.10, 0.50),
            (1, 0.11, 0.51),
            (2, 0.12, 0.52),
            (3, 0.80, 0.20),
        ]));
        let mut pool = WorkerPool::spawn(2);
        assert_eq!(pool.workers(), 2);
        let jobs = vec![
            Job::Precompute {
                table: Arc::clone(&table),
                params,
                shard: vec![DeviceId(0), DeviceId(1)],
            },
            Job::Precompute {
                table: Arc::clone(&table),
                params,
                shard: vec![DeviceId(2), DeviceId(3)],
            },
        ];
        let outputs = pool.run(jobs).unwrap();
        assert_eq!(outputs.len(), 2);
        let ids: Vec<Vec<u32>> = outputs
            .iter()
            .map(|o| match o {
                JobOutput::Parts(parts) => parts.iter().map(|(j, _)| j.0).collect(),
                JobOutput::Verdicts(_) => panic!("wrong output kind"),
            })
            .collect();
        assert_eq!(ids, vec![vec![0, 1], vec![2, 3]]);
        // The same parts merge into a working engine.
        let parts: Vec<(DeviceId, DevicePrecompute)> = outputs
            .into_iter()
            .flat_map(|o| match o {
                JobOutput::Parts(parts) => parts,
                JobOutput::Verdicts(_) => Vec::new(),
            })
            .collect();
        let core = AnalyzerCore::from_parts(&table, params, parts);
        assert!(core.overflowed_devices().next().is_none());
    }

    #[test]
    fn pool_survives_reuse_across_many_rounds() {
        let params = Params::new(0.03, 3).unwrap();
        let table = Arc::new(table_of(&[(0, 0.1, 0.5), (1, 0.12, 0.52)]));
        let mut pool = WorkerPool::spawn(3);
        for _ in 0..10 {
            let jobs = vec![Job::Precompute {
                table: Arc::clone(&table),
                params,
                shard: vec![DeviceId(0), DeviceId(1)],
            }];
            assert_eq!(pool.run(jobs).unwrap().len(), 1);
        }
    }

    #[test]
    fn arcs_are_reclaimable_after_collection() {
        let params = Params::new(0.03, 3).unwrap();
        let table = Arc::new(table_of(&[(0, 0.1, 0.5)]));
        let mut pool = WorkerPool::spawn(1);
        let jobs = vec![Job::Precompute {
            table: Arc::clone(&table),
            params,
            shard: vec![DeviceId(0)],
        }];
        pool.run(jobs).unwrap();
        // The job consumed its Arc before reporting; after collection the
        // caller holds the only reference again.
        assert!(Arc::try_unwrap(table).is_ok());
    }

    #[test]
    fn dropping_the_pool_joins_every_worker() {
        let pool = WorkerPool::spawn(4);
        drop(pool); // must not hang
    }
}
