//! The characterization cache against a full recompute, on the traces
//! where cached state is most likely to go stale:
//!
//! * a chain-shaped cluster whose moving and stationary trajectories
//!   characterize differently, jumping on the first characterized epoch
//!   (no vicinity grid exists yet) and on the first seal after a restore;
//! * fully cached epochs after one dense contributor is evicted and
//!   recomputed while the rest of its cluster is served from the cache;
//! * fully cached epochs after the component holding the smallest ids
//!   dissolves, so every later component rank shifts.
//!
//! Every epoch must match the full-recompute [`Oracle`] byte for byte, and
//! a restore at any cut must continue the uninterrupted report stream.

mod common;

use anomaly_characterization::core::AnomalyClass;
use anomaly_characterization::detectors::{ThresholdDetector, VectorDetector};
use anomaly_characterization::pipeline::{
    DeviceKey, Monitor, MonitorBuilder, Report, StalenessPolicy,
};
use common::{Drive, Oracle};

/// Everything a report says except its wall-clock timings.
fn fingerprint(r: &Report) -> String {
    let mut s = r.summary();
    s.detection_micros = 0;
    s.characterization_micros = 0;
    format!(
        "k={} verdicts={:?} warming={:?} stragglers={:?} deltas={:?} summary={}",
        r.instant(),
        r.verdicts(),
        r.warming(),
        r.stragglers(),
        r.event_deltas(),
        s.to_json()
    )
}

/// One epoch's updates.
type Epoch = Vec<(u64, Vec<f64>)>;

/// Seals `trace` through a monitor of `devices` built by `builder` and
/// through the full-recompute oracle, asserting every epoch agrees, and
/// returns the monitor's reports.
fn matches_the_oracle(
    builder: fn(usize) -> MonitorBuilder,
    devices: usize,
    trace: &[Epoch],
) -> Vec<Report> {
    let mut cached = builder(devices).build().unwrap();
    let mut full = Oracle::new(builder(devices).build().unwrap(), move || builder(0));
    let mut reports = Vec::with_capacity(trace.len());
    for epoch in trace {
        cached.ingest_many(epoch.clone()).unwrap();
        full.monitor().ingest_many(epoch.clone()).unwrap();
        let a = cached.seal().unwrap();
        let b = full.seal().unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b), "k={}", a.instant());
        reports.push(a);
    }
    reports
}

fn count(r: &Report, class: AnomalyClass) -> usize {
    r.verdicts().iter().filter(|v| v.class() == class).count()
}

fn component_of(r: &Report, key: u64) -> Option<u32> {
    r.verdicts()
        .iter()
        .find(|v| v.key == DeviceKey(key))
        .and_then(|v| v.component)
}

// --- The chain-shaped cluster -------------------------------------------

/// Devices `0..CHAIN` form the cluster.
const CHAIN: u64 = 64;

/// Calm position of device `k`, spread over `[0.55, 0.85]^2`.
fn home(k: u64) -> Vec<f64> {
    vec![
        0.55 + 0.3 * ((k % 97) as f64 / 97.0),
        0.55 + 0.3 * ((k % 89) as f64 / 89.0),
    ]
}

/// Where a cluster device lands. Homes spread the cluster over the calm
/// square and the landing squeezes it into a short segment, so its moving
/// trajectories are a chain of overlapping dense motions while its
/// stationary ones are co-located.
fn landed(k: u64) -> Vec<f64> {
    vec![0.10 + 0.02 * ((k % 7) as f64 / 7.0), 0.12]
}

/// `home(k)` nudged by less than the detector threshold.
fn wiggled(k: u64, step: usize) -> Vec<f64> {
    let mut row = home(k);
    row[0] += if step.is_multiple_of(2) {
        0.004
    } else {
        -0.004
    };
    row
}

fn chain_builder(devices: usize) -> MonitorBuilder {
    MonitorBuilder::new()
        .services(2)
        .staleness(StalenessPolicy::CarryForward {
            max_age: u64::MAX - 1,
        })
        .detector_factory(|_| {
            Box::new(VectorDetector::homogeneous(2, || {
                ThresholdDetector::with_delta(0.15)
            }))
        })
        .capacity(devices)
        .fleet(devices)
}

fn everyone(devices: usize, row: impl Fn(u64) -> Vec<f64>) -> Epoch {
    (0..devices as u64).map(|k| (k, row(k))).collect()
}

/// `changed` calm devices past the cluster report a wiggle, in a window
/// that rotates with `step`.
fn calm_wiggles(devices: usize, changed: usize, step: usize) -> Epoch {
    let calm = devices - CHAIN as usize;
    (0..changed)
        .map(|i| {
            let k = CHAIN + ((step * changed + i) % calm) as u64;
            (k, wiggled(k, step))
        })
        .collect()
}

/// The cluster jumps on the first characterized epoch, when no vicinity
/// grid exists yet, and then stays silent. Its moving trajectories leave
/// part of it unresolved; once it is stationary all 64 are massive. A
/// cache that never re-dirtied the jump's movers kept serving the moving
/// verdicts on every later epoch.
#[test]
fn chain_cluster_jumping_before_the_grid_exists_matches_full_recompute() {
    const DEVICES: usize = 3000;
    let mut trace = vec![everyone(DEVICES, home), everyone(DEVICES, home)];
    trace.push(everyone(DEVICES, |k| {
        if k < CHAIN {
            landed(k)
        } else {
            home(k)
        }
    }));
    for step in 0..6 {
        trace.push(calm_wiggles(DEVICES, 30, step));
    }
    let reports = matches_the_oracle(chain_builder, DEVICES, &trace);
    let jump = &reports[2];
    assert_eq!(jump.verdicts().len(), CHAIN as usize);
    assert_eq!(
        (
            count(jump, AnomalyClass::Massive),
            count(jump, AnomalyClass::Unresolved)
        ),
        (30, 34),
        "the moving chain differs from the stationary cluster"
    );
    for r in &reports[3..] {
        assert_eq!(
            count(r, AnomalyClass::Massive),
            CHAIN as usize,
            "k={}",
            r.instant()
        );
    }
}

/// The same cluster jumps on the first seal after a restore, where the
/// restored monitor has no grid while the uninterrupted one has (a lone
/// fault built it earlier). A checkpoint and restore after any epoch must
/// continue the uninterrupted report stream.
#[test]
fn restore_at_every_cut_continues_the_chain_cluster_stream() {
    const DEVICES: usize = 600;
    const LONER: u64 = CHAIN + 100;
    let mut trace = vec![everyone(DEVICES, home), everyone(DEVICES, home)];
    // A lone fault builds the grid, then clears.
    trace.push(vec![(LONER, vec![0.40, 0.30])]);
    trace.push(vec![(LONER, vec![0.40, 0.30])]);
    trace.push((0..CHAIN).map(|k| (k, landed(k))).collect());
    for step in 0..5 {
        trace.push(calm_wiggles(DEVICES, 6, step));
    }
    let run = |monitor: &mut Monitor, epochs: &[Epoch]| -> Vec<String> {
        epochs
            .iter()
            .map(|epoch| {
                monitor.ingest_many(epoch.clone()).unwrap();
                fingerprint(&monitor.seal().unwrap())
            })
            .collect()
    };
    let mut whole = chain_builder(DEVICES).build().unwrap();
    let uninterrupted = run(&mut whole, &trace);
    for cut in 1..trace.len() {
        let mut first = chain_builder(DEVICES).build().unwrap();
        let mut prints = run(&mut first, &trace[..cut]);
        let mut log = Vec::new();
        first.checkpoint(&mut log).unwrap();
        drop(first);
        let mut restored = Monitor::restore(log.as_slice(), chain_builder(0)).unwrap();
        prints.extend(run(&mut restored, &trace[cut..]));
        for (k, (a, b)) in uninterrupted.iter().zip(&prints).enumerate() {
            assert_eq!(
                a,
                b,
                "restored after epoch {} diverged at epoch {k}",
                cut - 1
            );
        }
    }
}

// --- Memo invalidation ----------------------------------------------------

/// One service; a device is flagged while its value is below 0.5 or it
/// jumps by more than 0.1, so flagged devices can report small moves and
/// stay flagged.
fn line_builder(devices: usize) -> MonitorBuilder {
    MonitorBuilder::new()
        .staleness(StalenessPolicy::CarryForward {
            max_age: u64::MAX - 1,
        })
        .detector_factory(|_| Box::new(ThresholdDetector::new(0.5, 1.0, 0.1)))
        .fleet(devices)
}

/// Calm devices `first..devices` spread over `[0.55, 0.95]`.
fn line_home(k: u64) -> f64 {
    0.55 + 0.4 * ((k % 37) as f64 / 37.0)
}

/// Two calm devices past `first` report a wiggle, rotating with `step`.
fn line_wiggles(first: u64, devices: usize, step: usize) -> Epoch {
    let calm = devices as u64 - first;
    (0..2u64)
        .map(|i| {
            let k = first + (step as u64 * 2 + i) % calm;
            let nudge = if step.is_multiple_of(2) {
                0.003
            } else {
                -0.003
            };
            (k, vec![line_home(k) + nudge])
        })
        .collect()
}

/// A 33-device chain spans seven grid cells. Its far end moves on its own
/// (still flagged, so the abnormal set is unchanged): the entries near it
/// are evicted and recomputed while the rest of the chain is served from
/// the cache. The fully cached epochs that follow must not reuse the
/// partition built before the move.
#[test]
fn fully_cached_epochs_after_one_contributor_is_evicted_match_full_recompute() {
    const DEVICES: usize = 100;
    const END: u64 = 32;
    let chain_home = |k: u64| 0.6 + 0.01 * k as f64;
    let chain_at = |k: u64| 0.02 + 0.012 * k as f64;
    let calm = |k: u64| {
        if k <= END {
            chain_home(k)
        } else {
            line_home(k)
        }
    };
    let mut trace: Vec<Epoch> = (0..2)
        .map(|_| (0..DEVICES as u64).map(|k| (k, vec![calm(k)])).collect())
        .collect();
    trace.push((0..=END).map(|k| (k, vec![chain_at(k)])).collect());
    for step in 0..4 {
        trace.push(line_wiggles(END + 1, DEVICES, step));
    }
    let before_move = trace.len() - 1;
    trace.push(vec![(END, vec![0.47])]);
    for step in 4..8 {
        trace.push(line_wiggles(END + 1, DEVICES, step));
    }
    let reports = matches_the_oracle(line_builder, DEVICES, &trace);
    let last = reports.last().unwrap();
    assert_eq!(reports[before_move].verdicts().len(), END as usize + 1);
    assert_eq!(
        last.verdicts().len(),
        END as usize + 1,
        "the abnormal set is unchanged"
    );
    assert!(component_of(&reports[before_move], END).is_some());
    assert_eq!(
        component_of(last, END),
        None,
        "the moved end left the chain"
    );
    assert_eq!(last.class_of(DeviceKey(END)), Some(AnomalyClass::Isolated));
    assert_eq!(component_of(last, 0), Some(0));
}

/// Two frozen groups; the one holding the smallest ids goes home and
/// clears, so the other's component rank drops from 1 to 0 while every
/// one of its verdicts is still served from the cache.
#[test]
fn fully_cached_epochs_after_the_first_component_dissolves_match_full_recompute() {
    const DEVICES: usize = 80;
    const GROUPS: u64 = 12;
    let group_home = |k: u64| 0.6 + 0.01 * k as f64;
    let group_at = |k: u64| {
        if k < 6 {
            0.05 + 0.01 * k as f64
        } else {
            0.30 + 0.01 * (k - 6) as f64
        }
    };
    let calm = |k: u64| {
        if k < GROUPS {
            group_home(k)
        } else {
            line_home(k)
        }
    };
    let mut trace: Vec<Epoch> = (0..2)
        .map(|_| (0..DEVICES as u64).map(|k| (k, vec![calm(k)])).collect())
        .collect();
    trace.push((0..GROUPS).map(|k| (k, vec![group_at(k)])).collect());
    for step in 0..3 {
        trace.push(line_wiggles(GROUPS, DEVICES, step));
    }
    let before = trace.len() - 1;
    // The first group goes home (flagged by the jump), then reports home
    // again and clears.
    for _ in 0..2 {
        trace.push((0..6).map(|k| (k, vec![group_home(k)])).collect());
    }
    for step in 3..6 {
        trace.push(line_wiggles(GROUPS, DEVICES, step));
    }
    let reports = matches_the_oracle(line_builder, DEVICES, &trace);
    assert_eq!(reports[before].summary().components, 2);
    assert_eq!(component_of(&reports[before], 6), Some(1));
    let last = reports.last().unwrap();
    assert_eq!(last.verdicts().len(), 6);
    assert_eq!(last.summary().components, 1);
    assert_eq!(component_of(last, 6), Some(0));
}
