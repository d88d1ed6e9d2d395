//! The incremental trajectory index and the characterization cache must
//! be unobservable in reports: on the churn trace of `monitor_v2.rs` (plus
//! a streamed churn whose joiner reports the placeholder row), on a
//! generated large-ish fleet, and through the event tracker and the serve
//! crate's alert stream, the monitor produces exactly the verdicts,
//! ordering, and summary of the full-recompute [`Oracle`]. The retired
//! [`Engine`] knob is accepted and changes none of it.

mod common;

use anomaly_characterization::core::AnomalyClass;
use anomaly_characterization::core::Params;
use anomaly_characterization::pipeline::{
    DeviceKey, Engine, MonitorBuilder, Report, StalenessPolicy,
};
use anomaly_characterization::qos::{QosSpace, Snapshot, StatePair};
use anomaly_characterization::simulator::fleet::{generate_fleet, FleetSpec};
use anomaly_characterization::simulator::trace::{Trace, TraceStep};
use anomaly_characterization::simulator::GroundTruth;
use common::{Drive, Oracle};

const BASELINE: f64 = 0.9;

fn snapshot(levels: &[f64]) -> Snapshot {
    let space = QosSpace::new(1).unwrap();
    Snapshot::from_rows(&space, levels.iter().map(|&v| vec![v]).collect()).unwrap()
}

fn trace_from_levels(levels: &[Vec<f64>]) -> Trace {
    let n = levels[0].len();
    let mut trace = Trace::new(n, 1, Params::new(0.03, 3).unwrap());
    for w in levels.windows(2) {
        trace.steps.push(TraceStep {
            pair: StatePair::new(snapshot(&w[0]), snapshot(&w[1])).unwrap(),
            truth: GroundTruth::new(Vec::new()),
        });
    }
    trace
}

/// Two reports agree on everything except wall-clock timings.
fn assert_reports_identical(a: &Report, b: &Report, context: &str) {
    assert_eq!(a.instant(), b.instant(), "{context}: instant");
    assert_eq!(a.population(), b.population(), "{context}: population");
    assert_eq!(a.verdicts(), b.verdicts(), "{context}: verdicts + order");
    assert_eq!(a.warming(), b.warming(), "{context}: warming");
    assert_eq!(
        a.event_deltas(),
        b.event_deltas(),
        "{context}: event deltas"
    );
    assert_eq!(a.open_events(), b.open_events(), "{context}: open events");
    // Same via the iterators and the serialized summary (timing fields are
    // wall-clock and legitimately differ; normalize them away).
    let keys = |r: &Report| {
        (
            r.isolated().map(|v| v.key).collect::<Vec<_>>(),
            r.massive().map(|v| v.key).collect::<Vec<_>>(),
            r.unresolved().map(|v| v.key).collect::<Vec<_>>(),
        )
    };
    assert_eq!(keys(a), keys(b), "{context}: per-class iterators");
    let normalized = |r: &Report| {
        let mut s = r.summary();
        s.detection_micros = 0;
        s.characterization_micros = 0;
        s.to_json()
    };
    assert_eq!(normalized(a), normalized(b), "{context}: JSON summary");
}

/// The churn trace's configuration: silent devices are carried forward,
/// so its last segment can stream partial epochs.
fn churn_builder() -> MonitorBuilder {
    MonitorBuilder::new().staleness(StalenessPolicy::CarryForward { max_age: 1_000 })
}

/// Replays the monitor_v2 churn scenario, then a streamed churn segment,
/// on a monitor built by `builder` (from [`churn_builder`]), returning
/// every report produced.
fn churn_scenario(builder: MonitorBuilder) -> Vec<Report> {
    churn_scenario_on(&mut builder.fleet(8).build().unwrap())
}

/// The same scenario on the full-recompute oracle.
fn churn_scenario_on_the_oracle() -> Vec<Report> {
    let monitor = churn_builder().fleet(8).build().unwrap();
    churn_scenario_on(&mut Oracle::new(monitor, churn_builder))
}

fn churn_scenario_on(m: &mut dyn Drive) -> Vec<Report> {
    let mut reports = Vec::new();
    for _ in 0..40 {
        reports.push(m.observe_rows(vec![vec![BASELINE]; 8]).unwrap());
    }

    // Segment 1: shared incident + lone fault, then recovery.
    let healthy = vec![BASELINE; 8];
    let incident = vec![0.45, 0.46, 0.44, 0.452, 0.458, 0.443, 0.10, BASELINE];
    let seg1 = trace_from_levels(&[healthy.clone(), incident, healthy.clone()]);
    reports.extend(m.run_trace(&seg1).unwrap());
    for _ in 0..40 {
        reports.push(m.observe_rows(vec![vec![BASELINE]; 8]).unwrap());
    }

    // Churn: 6 and 7 leave, 100 and 101 join.
    m.monitor().leave(6u64).unwrap();
    m.monitor().leave(7u64).unwrap();
    m.monitor().join(100u64).unwrap();
    m.monitor().join(101u64).unwrap();

    // Segment 2: another mixed incident over the churned fleet.
    let second = vec![0.45, 0.46, 0.44, 0.452, 0.458, 0.10, 0.20, 0.22];
    let seg2 = trace_from_levels(&[healthy, second]);
    reports.extend(m.run_trace(&seg2).unwrap());
    for _ in 0..40 {
        reports.push(m.observe_rows(vec![vec![BASELINE]; 8]).unwrap());
    }

    // Segment 3, streamed: three devices jump next to the origin and fall
    // silent, so their flags freeze; everyone else is silent and carried
    // forward. Then device 5 leaves and a joiner takes over its warmed
    // detector, reporting exactly the origin — the placeholder row a
    // joiner gets. Then nobody reports. Only the joiner's forced `changed`
    // entry dirties its cells: the last seal puts it in A_k, and the
    // cached verdicts around it must be recomputed with it.
    for key in 0..3u64 {
        m.monitor()
            .ingest(key, vec![0.01 * (key + 1) as f64])
            .unwrap();
    }
    reports.push(m.seal().unwrap());
    let detector = m.monitor().leave(5u64).unwrap();
    m.monitor().join_with(102u64, detector).unwrap();
    m.monitor().ingest(102u64, vec![0.0]).unwrap();
    reports.push(m.seal().unwrap());
    reports.push(m.seal().unwrap());
    reports
}

/// The characterization cache and the incremental grid must be
/// unobservable next to full recomputation: the churn trace's reports
/// match the oracle's byte for byte.
#[test]
fn characterization_cache_is_unobservable_on_the_churn_trace() {
    let baseline = churn_scenario(churn_builder());
    assert!(baseline.iter().any(|r| !r.verdicts().is_empty()));
    // Segment 3: the joiner warms beside the three, then joins them.
    let joiner = DeviceKey(102);
    let [.., at_churn, after] = baseline.as_slice() else {
        panic!("the churn trace ends with segment 3");
    };
    assert_eq!(at_churn.warming(), &[joiner]);
    assert_eq!(
        at_churn.massive().count(),
        0,
        "three co-located devices are sparse"
    );
    assert_eq!(after.class_of(joiner), Some(AnomalyClass::Massive));
    assert_eq!(after.massive().count(), 4, "with the joiner they are dense");
    let oracle = churn_scenario_on_the_oracle();
    assert_eq!(baseline.len(), oracle.len());
    for (a, b) in baseline.iter().zip(&oracle) {
        assert_reports_identical(a, b, &format!("oracle, k={}", a.instant()));
    }
}

/// [`Engine`] is accepted and ignored: a monitor built with perfbench's
/// `Threaded { workers: 2 }`, and one asking for `usize::MAX` workers,
/// both run the churn trace — whose incident seals have several fresh
/// devices — on the calling thread and match the oracle. Were a worker
/// count still honoured, the second would ask the OS for `usize::MAX`
/// threads, so finishing at all is part of the check.
#[test]
fn threaded_engine_runs_inline_and_matches_the_oracle() {
    let oracle = churn_scenario_on_the_oracle();
    assert!(oracle.iter().any(|r| r.verdicts().len() > 1));
    for workers in [2, usize::MAX] {
        let reports = churn_scenario(churn_builder().engine(Engine::Threaded { workers }));
        assert_eq!(oracle.len(), reports.len());
        for (a, b) in oracle.iter().zip(&reports) {
            assert_reports_identical(a, b, &format!("workers={workers} k={}", a.instant()));
        }
    }
}

#[test]
fn monitor_matches_the_oracle_on_a_generated_fleet_with_clusters() {
    // A denser scenario than the churn trace: co-moving clusters, lone
    // jumpers, and calm jitter, across multiple chained instants.
    let spec = FleetSpec {
        devices: 600,
        services: 2,
        massive_clusters: 2,
        cluster_size: 6,
        isolated: 4,
        cohesion: 0.2,
        calm_activity: 0.6,
        jitter: 0.02,
        shift: 0.3,
        seed: 11,
    };
    let fleet = generate_fleet(&spec, 3).unwrap();
    let builder = || {
        use anomaly_characterization::detectors::{ThresholdDetector, VectorDetector};
        MonitorBuilder::new().services(2).detector_factory(|_| {
            Box::new(VectorDetector::homogeneous(2, || {
                ThresholdDetector::with_delta(0.16)
            }))
        })
    };
    let run = |m: &mut dyn Drive| -> Vec<Report> {
        fleet
            .iter()
            .map(|instant| m.observe(instant.snapshot.clone()).unwrap())
            .collect()
    };
    let monitor = builder().fleet(600).build().unwrap();
    let baseline = run(&mut Oracle::new(monitor, builder));
    let total: usize = baseline.iter().map(|r| r.verdicts().len()).sum();
    assert!(total > 0, "scenario must flag devices");
    assert!(baseline.iter().any(|r| r.has_network_event()));
    let reports = run(&mut builder().fleet(600).build().unwrap());
    assert_eq!(baseline.len(), reports.len());
    for (a, b) in baseline.iter().zip(&reports) {
        assert_reports_identical(a, b, &format!("fleet k={}", a.instant()));
    }
}

/// The event tracker's standing state — open events, recently closed
/// events, lifetime counters, and the history ring — is byte-identical
/// between the monitor and the full-recompute oracle, not just the
/// per-report delta feed.
#[test]
fn event_tracker_state_matches_the_oracle() {
    use anomaly_characterization::pipeline::AnomalyEvent;

    fn builder() -> MonitorBuilder {
        MonitorBuilder::new().debounce(1)
    }

    fn run(m: &mut dyn Drive) -> (Vec<AnomalyEvent>, Vec<AnomalyEvent>, String) {
        for _ in 0..40 {
            m.observe_rows(vec![vec![BASELINE]; 8]).unwrap();
        }
        // A flapping incident, a growing massive event, and a recovery.
        let levels = [
            vec![0.45, 0.46, 0.44, 0.452, BASELINE, BASELINE, 0.10, BASELINE],
            vec![0.20, 0.21, 0.19, 0.202, 0.21, 0.20, 0.10, BASELINE],
            vec![0.20, 0.21, 0.19, 0.202, 0.21, 0.20, 0.10, BASELINE],
            vec![0.20, 0.21, 0.19, 0.202, 0.21, 0.20, 0.80, BASELINE],
            vec![
                BASELINE, BASELINE, BASELINE, BASELINE, BASELINE, BASELINE, 0.10, BASELINE,
            ],
        ];
        for rows in &levels {
            m.observe_rows(rows.iter().map(|&v| vec![v]).collect())
                .unwrap();
        }
        // Timings are wall-clock and legitimately differ; normalize them.
        let m = m.monitor();
        let history: Vec<String> = m
            .history()
            .map(|s| {
                let mut s = *s;
                s.detection_micros = 0;
                s.characterization_micros = 0;
                s.to_json()
            })
            .collect();
        (
            m.events().open().to_vec(),
            m.events().recently_closed().cloned().collect(),
            history.join("\n"),
        )
    }

    let monitor = builder().fleet(8).build().unwrap();
    let baseline = run(&mut Oracle::new(monitor, builder));
    assert!(
        !baseline.0.is_empty() || !baseline.1.is_empty(),
        "the scenario must produce events"
    );
    let state = run(&mut builder().fleet(8).build().unwrap());
    assert_eq!(baseline.0, state.0, "open events");
    assert_eq!(baseline.1, state.1, "closed events");
    assert_eq!(baseline.2, state.2, "history ring");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// Replaying a chained trace in two slices (`Trace::slice`) through
    /// one monitor yields exactly the reports — and event boundaries — of
    /// the uninterrupted replay, wherever the cut lands.
    #[test]
    fn sliced_trace_replay_preserves_event_boundaries(
        levels in proptest::collection::vec(
            proptest::collection::vec(0.05..=0.95f64, 4), 3..9),
        cut in 0usize..12,
    ) {
        use anomaly_characterization::detectors::ThresholdDetector;
        use proptest::prelude::*;

        let trace = trace_from_levels(&levels);
        let steps = trace.steps.len();
        let cut = cut % (steps + 1);
        let build = || {
            MonitorBuilder::new()
                .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
                .debounce(1)
                .fleet(4)
                .build()
                .unwrap()
        };
        let mut full = build();
        let full_reports = full.run_trace(&trace).unwrap();
        let mut sliced = build();
        let mut sliced_reports = sliced.run_trace(&trace.slice(0..cut)).unwrap();
        sliced_reports.extend(sliced.run_trace(&trace.slice(cut..steps)).unwrap());
        prop_assert_eq!(full_reports.len(), sliced_reports.len());
        for (a, b) in full_reports.iter().zip(&sliced_reports) {
            assert_reports_identical(a, b, &format!("cut={cut} k={}", a.instant()));
        }
        prop_assert_eq!(full.events().open(), sliced.events().open());
        let full_closed: Vec<_> = full.events().recently_closed().collect();
        let sliced_closed: Vec<_> = sliced.events().recently_closed().collect();
        prop_assert_eq!(full_closed, sliced_closed);
        prop_assert_eq!(full.events().opened_total(), sliced.events().opened_total());
        prop_assert_eq!(full.events().closed_total(), sliced.events().closed_total());
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// The spatial layer is cache-invariant on random traces: every
    /// verdict's component id, the summary's distinct-component count,
    /// and the component-split event-delta feed (which events open, which
    /// devices join which) match the full-recompute oracle byte-for-byte.
    #[test]
    fn component_numbering_and_event_split_match_the_oracle(
        levels in proptest::collection::vec(
            proptest::collection::vec(0.05..=0.95f64, 8), 3..7),
    ) {
        use anomaly_characterization::detectors::ThresholdDetector;
        use proptest::prelude::*;

        let builder = || {
            MonitorBuilder::new()
                .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
                .debounce(1)
        };
        let run = |m: &mut dyn Drive| {
            let mut surface = String::new();
            for rows in std::iter::once(&vec![BASELINE; 8]).chain(&levels) {
                let report = m
                    .observe_rows(rows.iter().map(|&v| vec![v]).collect())
                    .unwrap();
                let components: Vec<_> =
                    report.verdicts().iter().map(|v| (v.key, v.component)).collect();
                surface.push_str(&format!(
                    "k={} components={} verdicts={components:?} deltas={:?}\n",
                    report.instant(),
                    report.summary().components,
                    report.event_deltas(),
                ));
            }
            surface
        };
        let monitor = builder().fleet(8).build().unwrap();
        let baseline = run(&mut Oracle::new(monitor, builder));
        prop_assert_eq!(baseline, run(&mut builder().fleet(8).build().unwrap()));
    }
}

/// The serve crate's alert stream inherits the cache invariance: the
/// same measurement stream produces a byte-identical action stream —
/// pages, recurrences, resolutions, signatures — on the monitor and the
/// full-recompute oracle, and replaying the run from a cold start
/// (checkpointless restart) reproduces it exactly.
#[test]
fn serve_alert_stream_matches_the_oracle_and_a_rerun() {
    use anomaly_characterization::network::Topology;
    use anomaly_serve::{actions_to_json, AlertConfig, AlertSink, KeyMap};

    fn builder() -> MonitorBuilder {
        MonitorBuilder::new().debounce(1)
    }

    fn on(m: &mut dyn Drive) -> String {
        let mut sink = AlertSink::new(
            Topology::tree(1, 2, 2, 16),
            KeyMap::GatewayIndex,
            AlertConfig::default(),
        );
        let mut actions = Vec::new();
        let mut last_epoch = 0;
        let healthy = vec![vec![BASELINE]; 64];
        for _ in 0..40 {
            let report = m.observe_rows(healthy.clone()).unwrap();
            last_epoch = report.instant();
            actions.extend(sink.observe(&report));
        }
        // DSLAM 0's subtree (gateways 0..16) goes out, recovers, and
        // re-faults within the dedup window; a lone CPE (gateway 40)
        // dips in between.
        let mut outage = healthy.clone();
        for row in outage.iter_mut().take(16) {
            *row = vec![0.2];
        }
        let mut cpe = healthy.clone();
        cpe[40] = vec![0.3];
        let script = [
            outage.clone(),
            healthy.clone(),
            healthy.clone(),
            healthy.clone(),
            cpe,
            healthy.clone(),
            healthy.clone(),
            outage,
            healthy.clone(),
            healthy.clone(),
            healthy.clone(),
        ];
        for rows in script {
            let report = m.observe_rows(rows).unwrap();
            last_epoch = report.instant();
            actions.extend(sink.observe(&report));
        }
        // Clean shutdown: synthetic closes drain the still-open alerts.
        let deltas = m.monitor().reset();
        actions.extend(sink.fold_deltas(last_epoch + 1, &deltas, &[]));
        actions_to_json(&actions)
    }

    let monitor = builder().fleet(64).build().unwrap();
    let baseline = on(&mut Oracle::new(monitor, builder));
    assert!(
        baseline.contains("\"kind\":\"page\""),
        "the scenario must page: {baseline}"
    );
    assert!(
        baseline.contains("\"kind\":\"resolve\""),
        "the scenario must resolve: {baseline}"
    );
    // Checkpointless restart: a byte-identical rerun.
    assert_eq!(baseline, on(&mut builder().fleet(64).build().unwrap()));
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

    /// Event ids ascend within every report's delta feed, a given id is
    /// opened at most once over a monitor's lifetime — close and
    /// [`Monitor::reset`] never recycle ids — and every reset delta is a
    /// synthetic close for a previously opened event.
    #[test]
    fn event_delta_ids_ascend_and_never_recur(
        levels in proptest::collection::vec(
            proptest::collection::vec(0.05..=0.95f64, 6), 4..10),
        reset_at in 0usize..16,
    ) {
        use anomaly_characterization::detectors::ThresholdDetector;
        use anomaly_characterization::pipeline::{EventDeltaKind, EventId};
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        let mut m = MonitorBuilder::new()
            .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
            .debounce(1)
            .fleet(6)
            .build()
            .unwrap();
        let mut opened: BTreeSet<EventId> = BTreeSet::new();
        let mut max_opened: Option<EventId> = None;
        let reset_at = reset_at % (levels.len() + 1);
        for (i, rows) in levels.iter().enumerate() {
            if i == reset_at {
                for delta in m.reset() {
                    prop_assert_eq!(delta.kind, EventDeltaKind::Closed);
                    prop_assert!(
                        opened.contains(&delta.id),
                        "reset closed an event that never opened"
                    );
                }
            }
            let report = m.observe_rows(rows.iter().map(|&v| vec![v]).collect()).unwrap();
            let mut last: Option<EventId> = None;
            for delta in report.event_deltas() {
                if let Some(prev) = last {
                    prop_assert!(delta.id >= prev, "delta feed out of order");
                }
                last = Some(delta.id);
                if delta.kind == EventDeltaKind::Opened {
                    prop_assert!(opened.insert(delta.id), "event id reused");
                    if let Some(max) = max_opened {
                        prop_assert!(delta.id > max, "event ids must ascend");
                    }
                    max_opened = Some(delta.id);
                }
            }
        }
    }
}
