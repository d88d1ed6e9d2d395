//! A quiet full-round seal allocates a fixed handful of buffers, whatever
//! the fleet size: snapshot rows and pending updates live in flat buffers
//! that are recycled from seal to seal, so no row is its own allocation.
//!
//! A counting global allocator counts allocations, reallocations and frees
//! made on the sealing thread while `seal()` runs, and nothing else: not the
//! ingest before it, not the report dropped after it, not other threads.

use anomaly_characterization::detectors::{ThresholdDetector, VectorDetector};
use anomaly_characterization::pipeline::{Monitor, MonitorBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static EVENTS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            EVENTS.with(|events| events.set(events.get() + 1));
        }
    });
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counters are const-initialized thread locals without destructors, so
// touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note();
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SERVICES: usize = 2;

/// Device `k`'s row at `step`: a fixed point well inside its cell, moved by
/// ±0.001 along the first axis — under the detector's delta and under
/// half a cell side, so the fleet stays calm and no index key changes.
fn row(k: usize, step: usize) -> Vec<f64> {
    let wiggle = if step.is_multiple_of(2) {
        0.001
    } else {
        -0.001
    };
    vec![0.53 + 0.0002 * (k % 50) as f64 + wiggle, 0.72]
}

/// Allocator events inside the seal of a full round in which every one of
/// `devices` reports a small in-cell wiggle, after enough full rounds that
/// every recycled buffer exists.
fn quiet_full_round_seal_events(devices: usize) -> usize {
    let mut m: Monitor = MonitorBuilder::new()
        .services(SERVICES)
        .detector_factory(|_| {
            Box::new(VectorDetector::homogeneous(SERVICES, || {
                ThresholdDetector::with_delta(0.1)
            }))
        })
        .capacity(devices)
        .fleet(devices)
        .build()
        .unwrap();
    for step in 0..6 {
        m.ingest_many((0..devices).map(|k| (k as u64, row(k, step))))
            .unwrap();
        assert!(m.seal().unwrap().is_quiet());
    }
    m.ingest_many((0..devices).map(|k| (k as u64, row(k, 6))))
        .unwrap();
    EVENTS.with(|events| events.set(0));
    COUNTING.with(|on| on.set(true));
    let report = m.seal();
    COUNTING.with(|on| on.set(false));
    let events = EVENTS.with(Cell::get);
    let report = report.unwrap();
    assert!(report.is_quiet());
    assert_eq!(report.population(), devices);
    events
}

#[test]
fn a_quiet_full_round_seal_allocates_the_same_at_any_fleet_size() {
    let small = quiet_full_round_seal_events(1024);
    let large = quiet_full_round_seal_events(4096);
    assert!(
        large <= small + 8,
        "allocator events grow with the fleet: {small} at 1024 devices, {large} at 4096"
    );
    assert!(
        large < 64,
        "{large} allocator events in one quiet seal of 4096 devices"
    );
}
