//! Throughput of the error-detection functions `a_k(j)` (the per-sample
//! cost every monitored device pays).

use anomaly_detectors::{
    CusumDetector, Detector, EwmaDetector, HoltWintersDetector, KalmanDetector, ThresholdDetector,
    VectorDetector,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// A QoS-like signal: stable with a level shift near the end.
fn signal() -> Vec<f64> {
    (0..1000)
        .map(|i| {
            let base = if i < 900 { 0.92 } else { 0.4 };
            base + 0.004 * ((i as f64) * 2.399963).sin()
        })
        .collect()
}

fn run<D: Detector>(mut det: D, sig: &[f64]) -> usize {
    sig.iter()
        .filter(|&&v| det.observe(v).is_anomalous())
        .count()
}

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detectors/1k_samples");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1));
    let sig = signal();
    group.bench_function("threshold", |b| {
        b.iter(|| black_box(run(ThresholdDetector::with_delta(0.2), &sig)))
    });
    group.bench_function("ewma", |b| {
        b.iter(|| black_box(run(EwmaDetector::new(0.3, 4.0), &sig)))
    });
    group.bench_function("holt_winters", |b| {
        b.iter(|| black_box(run(HoltWintersDetector::new(0.5, 0.2, 4.0), &sig)))
    });
    group.bench_function("cusum", |b| {
        b.iter(|| black_box(run(CusumDetector::new(0.02, 0.3), &sig)))
    });
    group.bench_function("kalman", |b| {
        b.iter(|| black_box(run(KalmanDetector::new(1e-4, 1e-3, 5.0), &sig)))
    });
    group.bench_function("vector_2_services", |b| {
        b.iter(|| {
            let mut dev = VectorDetector::homogeneous(2, || EwmaDetector::new(0.3, 4.0));
            let mut alarms = 0usize;
            for pair in sig.windows(2) {
                if dev.observe_vector(pair).is_anomalous() {
                    alarms += 1;
                }
            }
            black_box(alarms)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_detectors);
criterion_main!(benches);
