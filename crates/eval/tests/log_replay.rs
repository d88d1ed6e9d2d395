//! Offline log replay reproduces live event scoring: a run captured into
//! a persisted event/summary log via [`record_monitor_log`] yields, when
//! replayed with [`evaluate_log_on`], the exact `events` cell the live
//! [`evaluate_monitor_on`] run committed — across workloads, and
//! matching the live score produced *during* the capture itself.

use anomaly_eval::{
    evaluate_log, evaluate_log_on, evaluate_monitor_on, record_monitor_log, EvalError,
    NetworkFaultScenario, Scenario, SimScenario,
};

fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(SimScenario::paper("log-sim", 42, 6)),
        Box::new(NetworkFaultScenario::small_mixed("log-net", 5, 4)),
    ]
}

#[test]
fn replayed_logs_reproduce_the_live_event_cells() {
    for scenario in scenarios() {
        let spec = scenario.spec();
        let run = scenario.generate().expect("scenario generates");
        let live = evaluate_monitor_on(&spec, &run).expect("live run scores");
        let (captured, log) =
            record_monitor_log(&spec, &run, Vec::new()).expect("capture succeeds");
        assert_eq!(
            captured.events, live.events,
            "{}: capture must not perturb the live score",
            spec.name
        );
        let replayed = evaluate_log_on(&spec, &run, log.as_slice()).expect("replay succeeds");
        assert_eq!(
            replayed, live.events,
            "{}: offline replay must reproduce the live event cell",
            spec.name
        );
    }
}

#[test]
fn evaluate_log_reads_a_capture_from_disk() {
    let scenario = NetworkFaultScenario::small_mixed("log-file", 5, 4);
    let run = scenario.generate().expect("scenario generates");
    let live = evaluate_monitor_on(&scenario.spec(), &run).expect("live run scores");
    let (_, log) =
        record_monitor_log(&scenario.spec(), &run, Vec::new()).expect("capture succeeds");
    let dir = std::env::temp_dir();
    let path = dir.join("anomaly-eval-log-replay-test.bin");
    std::fs::write(&path, &log).expect("log written");
    let replayed = evaluate_log(&path, &scenario).expect("file replay succeeds");
    std::fs::remove_file(&path).ok();
    assert_eq!(replayed, live.events);
}

#[test]
fn missing_files_and_foreign_logs_fail_typed() {
    let scenario = SimScenario::paper("log-missing", 1, 2);
    let err = evaluate_log("/nonexistent/anomaly-eval.bin", &scenario)
        .expect_err("missing file must fail");
    assert!(matches!(err, EvalError::Log { .. }), "{err:?}");

    // A structurally valid log without an evaluation step-map record (here:
    // an empty log) is not a capture.
    let spec = scenario.spec();
    let run = scenario.generate().expect("scenario generates");
    let (_, log) = record_monitor_log(&spec, &run, Vec::new()).expect("capture succeeds");
    // Keep only the file header: magic + version.
    let err =
        evaluate_log_on(&spec, &run, &log[..12]).expect_err("headerless log is not a capture");
    assert!(matches!(err, EvalError::Log { .. }), "{err:?}");
}

#[test]
fn corrupted_captures_fail_typed_never_panic() {
    let scenario = SimScenario::paper("log-corrupt", 9, 3);
    let spec = scenario.spec();
    let run = scenario.generate().expect("scenario generates");
    let (_, log) = record_monitor_log(&spec, &run, Vec::new()).expect("capture succeeds");
    for len in 0..log.len() {
        // A truncation landing exactly on a frame boundary *after* the
        // step-map record is a clean (shorter) log and replays fine; any
        // other truncation must fail typed. Either way: no panic.
        let _ = evaluate_log_on(&spec, &run, &log[..len]);
    }
    for i in 0..log.len() {
        let mut bent = log.clone();
        bent[i] ^= 0x55;
        // Must never panic; typed failure or (for flips the framing
        // checksum cannot distinguish, e.g. inside the mutable header) a
        // successful but different replay are both acceptable.
        let _ = evaluate_log_on(&spec, &run, bent.as_slice());
    }
}
