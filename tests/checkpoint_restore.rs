//! The persistence determinism gate: a monitor checkpointed mid-trace and
//! restored into a fresh process continues its report, event-delta, and
//! summary streams **byte-identically** to the uninterrupted run — across
//! fleet churn, carry-forward bridging, and arbitrary cut points
//! (including mid-epoch, with updates staged) — and so does the
//! full-recompute [`Oracle`], which restarts from a checkpoint before
//! every seal.
//!
//! Alongside the identity gate: one restore-mismatch test per builder
//! knob (each failing with a typed [`MonitorError::CheckpointMismatch`]
//! naming the field), and corruption tests proving that flipped bytes and
//! truncated tails surface as typed [`MonitorError::Persist`] errors —
//! never panics, whatever the prefix length.

mod common;

use anomaly_characterization::core::Params;
use anomaly_characterization::detectors::{ThresholdDetector, VectorDetector};
use anomaly_characterization::pipeline::{
    read_log, EventLog, Monitor, MonitorBuilder, MonitorError, Report, StalenessPolicy,
};
use anomaly_characterization::qos::{DeviceId, NormKind, Snapshot};
use anomaly_characterization::simulator::FleetSpec;
use anomaly_eval::{
    ChurnEvent, ChurnScenario, FleetScenario, NetworkFaultScenario, Scenario, ScenarioRun,
    ScenarioSpec,
};
use common::{Drive, Oracle};
use proptest::prelude::*;

/// The full deterministic observable surface of one sealed epoch, as one
/// string — wall-clock timings excluded, everything else included, so two
/// streams are equal iff they are byte-identical.
fn observable(report: &Report) -> String {
    let s = report.summary();
    format!(
        "epoch {}: verdicts {:?}; warming {:?}; stragglers {:?}; deltas {:?}; \
         components {}; counts {}/{}/{}/{}/{}/{}; events {}/{}/{}\n",
        report.instant(),
        report.verdicts(),
        report.warming(),
        report.stragglers(),
        report.event_deltas(),
        s.components,
        s.population,
        s.abnormal,
        s.isolated,
        s.massive,
        s.unresolved,
        s.warming,
        s.events_open,
        s.events_opened,
        s.events_closed,
    )
}

/// A monitor builder matching `spec`, with every behavioural knob pinned.
fn builder_for(spec: &ScenarioSpec) -> MonitorBuilder {
    let services = spec.services;
    let delta = spec.detector_delta;
    MonitorBuilder::new()
        .params(spec.params)
        .services(services)
        .staleness(StalenessPolicy::CarryForward { max_age: 32 })
        .debounce(1)
        .history(16)
        .detector_factory(move |_| {
            Box::new(VectorDetector::homogeneous(services, move || {
                ThresholdDetector::with_delta(delta)
            }))
        })
}

/// One atomic replay action. The schedule is computed once per scenario so
/// the uninterrupted and the checkpoint-interrupted runs execute the exact
/// same sequence — only the cut point differs.
#[derive(Debug, Clone)]
enum Action {
    /// Stage one device's row into the open epoch.
    Ingest(u64, Vec<f64>),
    /// Seal the open epoch (this is where a report is emitted).
    Seal,
    /// Membership churn between epochs.
    Leave(u64),
    Join(u64),
}

/// Executes a slice of the schedule, appending each sealed report's
/// observable surface to `out`.
fn play(monitor: &mut dyn Drive, actions: &[Action], out: &mut String) {
    for action in actions {
        match action {
            Action::Ingest(key, row) => monitor.monitor().ingest(*key, row.clone()).unwrap(),
            Action::Seal => out.push_str(&observable(&monitor.seal().unwrap())),
            Action::Leave(key) => {
                monitor.monitor().leave(*key).unwrap();
            }
            Action::Join(key) => {
                monitor.monitor().join(*key).unwrap();
            }
        }
    }
}

/// Flattens a scenario run into the streaming schedule: every snapshot is
/// decomposed into per-device ingests plus a seal, non-chained steps get
/// their bridging epoch, churn splices in between steps, and — when
/// `drop_seed` is odd — established devices occasionally skip a report so
/// the carry-forward policy has to bridge them.
fn schedule_of(run: &ScenarioRun, drop_seed: u64) -> Vec<Action> {
    let mut actions = Vec::new();
    let mut keys: Vec<u64> = (0..run.steps[0].pair.len() as u64).collect();
    let mut reported: Vec<u64> = Vec::new();
    let mut last_fed: Option<Snapshot> = None;
    let mut rng = drop_seed;
    let mut coin = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        drop_seed % 2 == 1 && (rng >> 33).is_multiple_of(4)
    };
    let mut feed =
        |snapshot: &Snapshot, keys: &[u64], reported: &mut Vec<u64>, actions: &mut Vec<Action>| {
            for (slot, &key) in keys.iter().enumerate() {
                let row = snapshot.position(DeviceId(slot as u32)).to_vec();
                if reported.contains(&key) && coin() {
                    continue; // dropped report: carry-forward bridges it
                }
                actions.push(Action::Ingest(key, row));
                if !reported.contains(&key) {
                    reported.push(key);
                }
            }
            actions.push(Action::Seal);
        };
    let mut next = 0usize;
    let mut churn_iter = run.churn.iter().peekable();
    while next < run.steps.len() {
        let step = &run.steps[next];
        if last_fed.as_ref() != Some(step.pair.before()) {
            feed(step.pair.before(), &keys, &mut reported, &mut actions);
        }
        feed(step.pair.after(), &keys, &mut reported, &mut actions);
        last_fed = Some(step.pair.after().clone());
        while let Some(churn) = churn_iter.peek() {
            if churn.after_step != next {
                break;
            }
            for &key in &churn.leaves {
                actions.push(Action::Leave(key));
                // Mirror the monitor's swap-remove on the dense slots.
                let slot = keys.iter().position(|&k| k == key).unwrap();
                keys.swap_remove(slot);
                reported.retain(|&k| k != key);
            }
            for &key in &churn.joins {
                actions.push(Action::Join(key));
                keys.push(key);
            }
            // Splicing across churn: the next step's `before` is fed again
            // for the new cohort rather than compared to the old one.
            last_fed = None;
            churn_iter.next();
        }
        next += 1;
    }
    actions
}

/// A churnful fleet workload: co-moving clusters, lone jumpers, and a
/// 10% membership replacement every other step.
fn churn_scenario() -> ChurnScenario {
    ChurnScenario {
        fleet: FleetScenario {
            name: "ckpt-churn".into(),
            fleet: FleetSpec {
                devices: 120,
                services: 2,
                massive_clusters: 1,
                cluster_size: 5,
                isolated: 2,
                cohesion: 0.05,
                calm_activity: 0.4,
                jitter: 0.02,
                shift: 0.3,
                seed: 21,
            },
            steps: 6,
            params: Params::new(0.03, 3).unwrap(),
        },
        churn_devices: 12,
        churn_every: 2,
    }
}

/// Runs the identity gate at one cut point: the uninterrupted stream must
/// equal prefix-stream + checkpoint + restore + rest-stream. Returns the
/// uninterrupted stream.
fn assert_resumes_identically(spec: &ScenarioSpec, actions: &[Action], cut: usize) -> String {
    let mut full = String::new();
    let mut monitor = builder_for(spec).fleet(spec.population).build().unwrap();
    play(&mut monitor, actions, &mut full);

    let mut resumed = String::new();
    let mut monitor = builder_for(spec).fleet(spec.population).build().unwrap();
    play(&mut monitor, &actions[..cut], &mut resumed);
    let mut bytes = Vec::new();
    let written = monitor.checkpoint(&mut bytes).unwrap();
    assert_eq!(written, bytes.len() as u64);
    drop(monitor);

    let mut restored = Monitor::restore(bytes.as_slice(), builder_for(spec)).unwrap();
    play(&mut restored, &actions[cut..], &mut resumed);
    assert_eq!(resumed, full, "cut {cut}");
    full
}

#[test]
fn checkpointed_run_continues_byte_identically_and_matches_the_oracle() {
    let scenario = churn_scenario();
    let spec = scenario.spec();
    let run = scenario.generate().unwrap();
    let actions = schedule_of(&run, 0);
    let cut = actions.len() / 2;
    // Restarting before every seal — the oracle — changes no byte either.
    let monitor = builder_for(&spec).fleet(spec.population).build().unwrap();
    let restart_spec = spec.clone();
    let mut oracle = Oracle::new(monitor, move || builder_for(&restart_spec));
    let mut reference = String::new();
    play(&mut oracle, &actions, &mut reference);
    let full = assert_resumes_identically(&spec, &actions, cut);
    assert_eq!(full, reference, "the monitor diverged from the oracle");
}

#[test]
fn mid_epoch_checkpoint_keeps_staged_updates() {
    // Cut right after a few ingests of an open epoch: the staged rows must
    // survive the restore and the next seal must match the uninterrupted
    // run exactly.
    let scenario = churn_scenario();
    let spec = scenario.spec();
    let run = scenario.generate().unwrap();
    let actions = schedule_of(&run, 0);
    let mid_epoch = actions
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a, Action::Ingest(..)))
        .map(|(i, _)| i + 1)
        .nth(spec.population + 7)
        .unwrap();
    assert!(matches!(actions[mid_epoch], Action::Ingest(..)));
    assert_resumes_identically(&spec, &actions, mid_epoch);
}

/// The ISP fault workload with synthesized tail churn — every step has a
/// massive (DSLAM) and an isolated (CPE) ground-truth event, and four
/// gateways are replaced twice along the run.
fn churnful_network_run(seed: u64) -> (ScenarioSpec, ScenarioRun) {
    let scenario = NetworkFaultScenario::small_mixed("ckpt-net", seed, 5);
    let spec = scenario.spec();
    let mut run = scenario.generate().unwrap();
    let n = spec.population as u64;
    run.churn = vec![
        ChurnEvent {
            after_step: 1,
            leaves: (n - 4..n).rev().collect(),
            joins: (n..n + 4).collect(),
        },
        ChurnEvent {
            after_step: 3,
            leaves: (n..n + 4).rev().collect(),
            joins: (n + 4..n + 8).collect(),
        },
    ];
    (spec, run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn any_cut_of_a_churnful_network_run_resumes_identically(
        seed in 0u64..1_000,
        cut_frac in 0.05f64..0.95,
    ) {
        let (spec, run) = churnful_network_run(seed % 17);
        // Odd seeds enable random report drops, exercising the
        // carry-forward bridging across the checkpoint boundary.
        let actions = schedule_of(&run, seed | 1);
        let cut = ((actions.len() as f64) * cut_frac) as usize;
        assert_resumes_identically(&spec, &actions, cut.min(actions.len()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// The event tracker's standing spatial state survives a checkpoint at
    /// any cut point: the restored monitor carries exactly the open and
    /// recently-closed `AnomalyEvent`s of the uninterrupted run —
    /// including each event's component id — and its next epochs keep the
    /// component-split delta feed byte-identical (the `observable` surface
    /// checked via [`assert_resumes_identically`] elsewhere).
    #[test]
    fn open_event_components_survive_any_checkpoint_cut(
        seed in 0u64..1_000,
        cut_frac in 0.05f64..0.95,
    ) {
        let (spec, run) = churnful_network_run(seed % 17);
        let actions = schedule_of(&run, 0);
        let cut = (((actions.len() as f64) * cut_frac) as usize).min(actions.len());

        let mut sink = String::new();
        let mut full = builder_for(&spec)
            .fleet(spec.population)
            .build()
            .unwrap();
        play(&mut full, &actions, &mut sink);

        let mut interrupted = builder_for(&spec)
            .fleet(spec.population)
            .build()
            .unwrap();
        play(&mut interrupted, &actions[..cut], &mut sink);
        let mut bytes = Vec::new();
        interrupted.checkpoint(&mut bytes).unwrap();
        drop(interrupted);
        let mut restored =
            Monitor::restore(bytes.as_slice(), builder_for(&spec)).unwrap();
        play(&mut restored, &actions[cut..], &mut sink);

        prop_assert_eq!(full.events().open(), restored.events().open());
        let full_closed: Vec<_> = full.events().recently_closed().collect();
        let restored_closed: Vec<_> = restored.events().recently_closed().collect();
        prop_assert_eq!(full_closed, restored_closed);
        // The run must actually exercise the spatial layer: at least one
        // event with a component id somewhere along the way.
        prop_assert!(
            full.events().opened_total() > 0,
            "scenario opened no events"
        );
    }
}

/// A small monitor with every knob set away from its default, a few epochs
/// of traffic (enough to open an event), and its checkpoint bytes.
fn knobbed_monitor() -> (Monitor, Vec<u8>) {
    let mut monitor = knobbed_builder().fleet(4).build().unwrap();
    for _ in 0..3 {
        monitor.observe_rows(vec![vec![0.9, 0.9]; 4]).unwrap();
    }
    // Device 0 jumps alone: an isolated event opens.
    monitor
        .observe_rows(vec![
            vec![0.4, 0.4],
            vec![0.9, 0.9],
            vec![0.9, 0.9],
            vec![0.9, 0.9],
        ])
        .unwrap();
    let mut bytes = Vec::new();
    monitor.checkpoint(&mut bytes).unwrap();
    (monitor, bytes)
}

fn knobbed_builder() -> MonitorBuilder {
    MonitorBuilder::new()
        .radius(0.05)
        .tau(3)
        .services(2)
        .norm(NormKind::L2)
        .max_population(500)
        .staleness(StalenessPolicy::CarryForward { max_age: 4 })
        .debounce(2)
        .history(8)
        .detector_factory(|_| {
            Box::new(VectorDetector::homogeneous(2, || {
                ThresholdDetector::with_delta(0.1)
            }))
        })
}

fn mismatch_of(bytes: &[u8], builder: MonitorBuilder) -> &'static str {
    match Monitor::restore(bytes, builder) {
        Err(MonitorError::CheckpointMismatch { field }) => field,
        other => panic!("expected a checkpoint mismatch, got {other:?}"),
    }
}

#[test]
fn every_mismatched_knob_fails_restore_with_its_field_name() {
    let (monitor, bytes) = knobbed_monitor();
    // The reference builder restores cleanly...
    let restored = Monitor::restore(bytes.as_slice(), knobbed_builder()).unwrap();
    assert_eq!(restored.instant(), monitor.instant());
    assert_eq!(restored.keys(), monitor.keys());
    // ...and each knob, changed alone, fails with its own name.
    let b = knobbed_builder;
    assert_eq!(mismatch_of(&bytes, b().radius(0.06)), "radius");
    assert_eq!(mismatch_of(&bytes, b().tau(2)), "tau");
    assert_eq!(mismatch_of(&bytes, b().norm(NormKind::L1)), "norm");
    assert_eq!(
        mismatch_of(&bytes, b().max_population(400)),
        "max_population"
    );
    assert_eq!(
        mismatch_of(&bytes, b().staleness(StalenessPolicy::Reject)),
        "staleness"
    );
    assert_eq!(
        mismatch_of(
            &bytes,
            b().staleness(StalenessPolicy::CarryForward { max_age: 5 })
        ),
        "staleness"
    );
    assert_eq!(mismatch_of(&bytes, b().debounce(1)), "debounce");
    assert_eq!(mismatch_of(&bytes, b().history(4)), "history");
    // The services knob (with a matching detector shape, so the header
    // check fires rather than the builder's own validation).
    let wrong_services = MonitorBuilder::new()
        .radius(0.05)
        .tau(3)
        .services(3)
        .norm(NormKind::L2)
        .max_population(500)
        .staleness(StalenessPolicy::CarryForward { max_age: 4 })
        .debounce(2)
        .history(8)
        .detector_factory(|_| {
            Box::new(VectorDetector::homogeneous(3, || {
                ThresholdDetector::with_delta(0.1)
            }))
        });
    assert_eq!(mismatch_of(&bytes, wrong_services), "services");
    // A detector rebuilt with a different parameter names the parameter.
    let wrong_detector = b().detector_factory(|_| {
        Box::new(VectorDetector::homogeneous(2, || {
            ThresholdDetector::with_delta(0.2)
        }))
    });
    assert_eq!(mismatch_of(&bytes, wrong_detector), "threshold.max_delta");
    // An explicit epoch start that disagrees with the checkpoint's clock.
    assert_eq!(mismatch_of(&bytes, b().epoch(99)), "epoch");
    // ...while the checkpoint's own clock is accepted explicitly.
    let at_clock = Monitor::restore(bytes.as_slice(), b().epoch(monitor.instant())).unwrap();
    assert_eq!(at_clock.instant(), monitor.instant());
    // A builder that enrolls its own devices cannot restore.
    assert_eq!(mismatch_of(&bytes, b().fleet(4)), "devices");
}

#[test]
fn corrupted_checkpoint_bytes_fail_typed_never_panic() {
    let (_, bytes) = knobbed_monitor();
    // Flip every byte in turn: whatever gets corrupted — magic, version,
    // frame header, checksum, payload — restore returns a typed error.
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x55;
        if let Err(e) = Monitor::restore(corrupt.as_slice(), knobbed_builder()) {
            assert!(
                matches!(
                    e,
                    MonitorError::Persist { .. } | MonitorError::CheckpointMismatch { .. }
                ),
                "byte {i}: unexpected error {e:?}"
            );
        }
        // A surviving restore is fine too (a flipped bit inside an unread
        // alignment hole cannot exist in this format, but a flipped bit in
        // e.g. a wall-clock-free field that checksum catches will not get
        // here; the assertion above is the real gate: no panic, no
        // untyped error).
    }
}

#[test]
fn truncated_checkpoint_tails_fail_typed_at_every_length() {
    let (_, bytes) = knobbed_monitor();
    for len in 0..bytes.len() {
        let err = Monitor::restore(&bytes[..len], knobbed_builder())
            .expect_err("a truncated log must not restore");
        assert!(
            matches!(err, MonitorError::Persist { .. }),
            "length {len}: unexpected error {err:?}"
        );
    }
}

#[test]
fn event_log_replays_summaries_and_closed_events() {
    let scenario = churn_scenario();
    let spec = scenario.spec();
    let run = scenario.generate().unwrap();
    let actions = schedule_of(&run, 0);
    let mut monitor = builder_for(&spec).fleet(spec.population).build().unwrap();
    let mut log = EventLog::create(Vec::new()).unwrap();
    let mut summaries = Vec::new();
    let mut seals = 0usize;
    for action in &actions {
        match action {
            Action::Ingest(key, row) => monitor.ingest(*key, row.clone()).unwrap(),
            Action::Seal => {
                let report = monitor.seal().unwrap();
                log.record_seal(&monitor, &report).unwrap();
                summaries.push(report.summary());
                seals += 1;
            }
            Action::Leave(key) => {
                monitor.leave(*key).unwrap();
            }
            Action::Join(key) => {
                monitor.join(*key).unwrap();
            }
        }
    }
    log.checkpoint(&monitor).unwrap();
    assert!(log.bytes_written() > 0);
    let bytes = log.finish(&monitor).unwrap();

    let replay = read_log(bytes.as_slice()).unwrap();
    assert_eq!(replay.summaries.len(), seals);
    assert_eq!(replay.summaries, summaries);
    assert_eq!(replay.checkpoints, 1);
    // Closed events appear exactly once each, with an end; the trailing
    // run of open events (flushed by finish) have none.
    let closed = replay.events.iter().filter(|e| e.end.is_some()).count();
    let open = replay.events.len() - closed;
    assert_eq!(open, monitor.events().open().len());
    assert_eq!(closed as u64, monitor.events().closed_total());
    // And the same log restores the monitor it chronicles.
    let restored = Monitor::restore(bytes.as_slice(), builder_for(&spec)).unwrap();
    assert_eq!(restored.instant(), monitor.instant());
    assert_eq!(restored.keys(), monitor.keys());
}
