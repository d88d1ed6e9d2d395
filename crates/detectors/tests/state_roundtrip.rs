//! Mid-stream save/load must be unobservable: a detector checkpointed
//! after any prefix of a signal and restored into a freshly constructed
//! twin must produce bit-identical verdicts on the remaining signal.

use anomaly_detectors::{
    CusumDetector, Detector, DeviceDetector, EwmaDetector, HoltWintersDetector, KalmanDetector,
    StateError, StateReader, StateWriter, ThresholdDetector, VectorDetector,
};

/// A wiggly signal with a level shift and a recovery — enough structure
/// to exercise warm-up, flagged, and post-anomaly regimes.
fn signal() -> Vec<f64> {
    (0..120)
        .map(|i| {
            let base = if (60..80).contains(&i) { 0.3 } else { 0.9 };
            base + 0.01 * (i as f64 * 2.399963).sin()
        })
        .collect()
}

fn assert_resumes_identically(make: impl Fn() -> Box<dyn Detector>, label: &str) {
    let signal = signal();
    for split in [1usize, 7, 59, 61, 90] {
        // The uninterrupted reference.
        let mut reference = make();
        for &v in &signal {
            reference.observe(v);
        }
        // Checkpoint at `split`, restore into a fresh twin, run the rest
        // on both and compare verdicts bit-for-bit.
        let mut original = make();
        for &v in signal.iter().take(split) {
            original.observe(v);
        }
        let mut writer = StateWriter::new();
        original.save(&mut writer);
        let words = writer.into_words();
        let mut restored = make();
        let mut reader = StateReader::new(&words);
        restored
            .load(&mut reader)
            .unwrap_or_else(|e| panic!("{label}: load failed at split {split}: {e}"));
        reader
            .finish()
            .unwrap_or_else(|e| panic!("{label}: leftover state at split {split}: {e}"));
        for (i, &v) in signal.iter().enumerate().skip(split) {
            let a = original.observe(v);
            let b = restored.observe(v);
            assert_eq!(
                (
                    a.is_anomalous(),
                    a.score().to_bits(),
                    a.forecast().map(f64::to_bits)
                ),
                (
                    b.is_anomalous(),
                    b.score().to_bits(),
                    b.forecast().map(f64::to_bits)
                ),
                "{label}: split {split}, step {i}: restored verdict diverged"
            );
        }
    }
}

#[test]
fn every_scalar_detector_resumes_identically() {
    assert_resumes_identically(|| Box::new(EwmaDetector::new(0.3, 4.0)), "ewma");
    assert_resumes_identically(|| Box::new(ThresholdDetector::with_delta(0.1)), "threshold");
    assert_resumes_identically(|| Box::new(CusumDetector::new(0.02, 0.3)), "cusum");
    assert_resumes_identically(
        || Box::new(HoltWintersDetector::new(0.4, 0.2, 4.0)),
        "holt-winters",
    );
    assert_resumes_identically(|| Box::new(KalmanDetector::new(1e-4, 1e-3, 4.0)), "kalman");
}

#[test]
fn vector_detectors_resume_identically() {
    let signal = signal();
    let make = || VectorDetector::homogeneous(2, || EwmaDetector::new(0.3, 4.0));
    let mut original = make();
    for &v in signal.iter().take(50) {
        original.observe_vector(&[v, 1.0 - v]);
    }
    let mut writer = StateWriter::new();
    DeviceDetector::save(&original, &mut writer);
    let words = writer.into_words();
    let mut restored = make();
    let mut reader = StateReader::new(&words);
    DeviceDetector::load(&mut restored, &mut reader).unwrap();
    reader.finish().unwrap();
    for &v in signal.iter().skip(50) {
        let a = original.observe_vector(&[v, 1.0 - v]);
        let b = restored.observe_vector(&[v, 1.0 - v]);
        assert_eq!(
            (a.is_anomalous(), a.score().to_bits()),
            (b.is_anomalous(), b.score().to_bits())
        );
    }
}

#[test]
fn loading_into_a_differently_configured_detector_names_the_field() {
    let mut writer = StateWriter::new();
    Detector::save(&EwmaDetector::new(0.3, 4.0), &mut writer);
    let words = writer.into_words();
    let mut other = EwmaDetector::new(0.5, 4.0);
    let err = Detector::load(&mut other, &mut StateReader::new(&words)).unwrap_err();
    assert_eq!(
        err,
        StateError::ParamMismatch {
            field: "ewma.alpha"
        }
    );

    // Shape mismatches are typed too, never a panic.
    let mut vector = VectorDetector::homogeneous(3, || EwmaDetector::new(0.3, 4.0));
    let err = DeviceDetector::load(&mut vector, &mut StateReader::new(&words)).unwrap_err();
    assert!(matches!(
        err,
        StateError::ParamMismatch { .. } | StateError::Truncated { .. }
    ));

    // Truncated state is typed.
    let mut det = EwmaDetector::new(0.3, 4.0);
    let half = words[..2].to_vec();
    let err = Detector::load(&mut det, &mut StateReader::new(&half)).unwrap_err();
    assert!(matches!(err, StateError::Truncated { .. }));
}
