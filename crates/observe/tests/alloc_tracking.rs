//! End-to-end tests of the tracking global allocator. This test binary —
//! unlike the library unit tests, whose harness owns the allocator slot —
//! registers [`TrackingAllocator`] for real, so the counters observe every
//! heap operation in the process.
//!
//! The counters are process-global, so tests that enable tracking
//! serialise on one mutex; `cargo test` threading stays safe.

use ngs_observe::alloc::{self, TrackingAllocator};
use ngs_observe::sampler::ResourceSampler;
use ngs_observe::Collector;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Serialises tests that flip the global ENABLED flag.
static GATE: Mutex<()> = Mutex::new(());

fn with_tracking<T>(f: impl FnOnce() -> T) -> T {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    assert!(alloc::enable(), "this binary registered the tracking allocator");
    let out = f();
    alloc::disable();
    out
}

#[test]
fn accounting_balances_after_threaded_storms() {
    with_tracking(|| {
        let baseline = alloc::live_bytes();
        // Deterministic pseudo-random storm: every thread allocates and
        // frees vectors of varying sizes, keeping a rotating window live so
        // frees interleave with allocations across the run.
        let workers: Vec<_> = (0u64..4)
            .map(|seed| {
                std::thread::spawn(move || {
                    let mut held: Vec<Vec<u8>> = Vec::new();
                    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
                    for _ in 0..2_000 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let size = (state % 8_192) as usize + 1;
                        held.push(vec![0xA5u8; size]);
                        if held.len() > 16 {
                            held.remove((state % 16) as usize);
                        }
                    }
                    drop(held);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = alloc::snapshot().expect("tracking is enabled");
        assert!(stats.alloc_count > 8_000, "storm allocations were observed: {stats:?}");
        // Every storm byte was freed: live returns to (near) the baseline.
        // Thread teardown may release a little runtime-internal memory too,
        // so allow slack in both directions.
        let live = alloc::live_bytes();
        let slack = 1 << 20; // 1 MiB
        assert!(
            live <= baseline + slack,
            "live bytes leaked past baseline: baseline={baseline} live={live}"
        );
        assert!(stats.peak_live_bytes >= stats.live_bytes, "peak ≥ live in snapshots");
    });
}

#[test]
fn peak_is_at_least_live_at_every_sample() {
    with_tracking(|| {
        alloc::reset_peak();
        let mut held: Vec<Vec<u8>> = Vec::new();
        for round in 0..200 {
            held.push(vec![round as u8; 16 * 1024]);
            if round % 3 == 0 {
                held.pop();
            }
            let s = alloc::snapshot().expect("enabled");
            assert!(
                s.peak_live_bytes >= s.live_bytes,
                "round {round}: peak {} < live {}",
                s.peak_live_bytes,
                s.live_bytes
            );
            assert!(s.allocated_bytes >= s.freed_bytes || s.live_bytes == 0);
        }
        drop(held);
    });
}

#[test]
fn spans_attribute_allocation_deltas() {
    with_tracking(|| {
        alloc::reset_peak();
        let before = alloc::snapshot().expect("tracking is enabled");
        let c = Collector::new();
        let big = {
            let _span = c.span("test.big_alloc");
            vec![0u8; 8 << 20] // 8 MiB
        };
        let after = alloc::snapshot().expect("tracking is enabled");
        let report = c.report("test");
        let s = report.span("test.big_alloc").expect("span recorded");
        assert!(
            s.alloc_bytes >= 8 << 20,
            "span saw the 8 MiB allocation: alloc_bytes={}",
            s.alloc_bytes
        );
        // The watermark is `allocated - freed` at its highest, and the
        // harness's other threads free, while tracking is on, blocks they
        // allocated while it was off: frees with no counted allocation. So
        // "peak >= 8 MiB" holds only in a quiet process (it failed 3 runs in
        // 30, short by 8..333 bytes). What holds always: when the 8 MiB
        // landed, live was at least all that was allocated before plus the
        // 8 MiB, less all that has been freed by now.
        let floor = (before.allocated_bytes + (8 << 20)).saturating_sub(after.freed_bytes);
        assert!(
            s.alloc_peak_bytes >= floor,
            "peak watermark covers the allocation: alloc_peak_bytes={} < {floor}",
            s.alloc_peak_bytes
        );
        assert!(floor > 7 << 20, "the bound is not vacuous: {floor}");
        drop(big);
        let json = report.to_json();
        assert!(json.contains("\"schema_version\": 4"));
        assert!(json.contains("\"alloc\": {"), "alloc section present when tracking: {json}");
        assert!(!json.contains("\"alloc\": null"));
    });
}

/// A pooled stage allocates on worker threads: the span counts them, so it
/// reads the same whichever thread happened to do the work.
#[test]
fn spans_count_allocations_of_threads_joined_inside_them() {
    with_tracking(|| {
        let c = Collector::new();
        let held = {
            let _span = c.span("test.pooled");
            std::thread::spawn(|| vec![0u8; 4 << 20]).join().expect("the worker does not panic")
        };
        let s = c.report("test").span("test.pooled").copied().expect("span recorded");
        assert!(s.alloc_bytes >= 4 << 20, "a worker's 4 MiB is counted: {}", s.alloc_bytes);
        drop(held);
    });
}

#[test]
fn sampler_timeline_respects_peak_ge_live() {
    with_tracking(|| {
        let sampler = ResourceSampler::start(Duration::from_millis(5));
        let mut held = Vec::new();
        for _ in 0..50 {
            held.push(vec![0u8; 256 * 1024]);
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(held);
        let samples = sampler.stop();
        assert!(samples.len() >= 2, "baseline + final samples at minimum");
        let with_alloc = samples.iter().filter_map(|s| s.alloc.as_ref()).count();
        assert!(with_alloc >= 2, "alloc stats present while tracking");
        for s in samples.iter().filter_map(|s| s.alloc.as_ref()) {
            assert!(s.peak_live_bytes >= s.live_bytes);
        }
    });
}

#[test]
fn disabled_tracking_is_a_no_op() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    alloc::disable();
    let before = alloc::snapshot();
    assert_eq!(before, None, "no snapshots while disabled");
    let count_before = {
        alloc::enable();
        let c = alloc::snapshot().unwrap().alloc_count;
        alloc::disable();
        c
    };
    // Allocate while disabled: counters must not move.
    let v: Vec<u64> = (0..100_000).collect();
    drop(v);
    alloc::enable();
    let count_after = alloc::snapshot().unwrap().alloc_count;
    alloc::disable();
    // enable()'s own 64-byte probe is the only counted allocation.
    assert!(
        count_after <= count_before + 4,
        "disabled allocations leaked into the counters: {count_before} -> {count_after}"
    );
}

#[test]
fn enabled_overhead_is_modest() {
    // A loose guard, not a benchmark: the tracked path must stay within a
    // generous factor of the untracked path on an allocation-heavy loop, so
    // an accidental lock or syscall on the hot path fails here.
    //
    // The true ratio is about 1.65. One long storm per side, as this test
    // used to take, is one wall-clock sample each: with the two cores
    // oversubscribed the ratio of two such samples was measured anywhere
    // between 0.8 and 2.4 in thirty runs, and a tier-1 run has seen it
    // above the bound. So the storms
    // are short — well under a scheduler timeslice, so most run undisturbed
    // — the two sides alternate, and the *fastest* storm of each side is
    // compared (1.57..1.79 under the same load). A slowdown that is in the
    // code is in every sample, the fastest included.
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    fn storm() -> Duration {
        let start = Instant::now();
        for i in 0..5_000usize {
            let v = vec![0u8; 64 + (i % 512)];
            std::hint::black_box(&v);
        }
        start.elapsed()
    }
    alloc::disable();
    storm(); // warm-up
    let (mut disabled, mut enabled) = (Duration::MAX, Duration::MAX);
    for _ in 0..50 {
        alloc::disable();
        disabled = disabled.min(storm());
        alloc::enable();
        enabled = enabled.min(storm());
    }
    alloc::disable();
    let ratio = enabled.as_secs_f64() / disabled.as_secs_f64().max(1e-6);
    assert!(ratio < 3.0, "tracked allocation path is {ratio:.2}x the untracked path");
}
