//! Dependency-free tracking global allocator.
//!
//! [`TrackingAllocator`] wraps [`std::alloc::System`] and maintains global
//! byte counters with relaxed atomics. Binaries register it
//! at compile time:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ngs_observe::alloc::TrackingAllocator =
//!     ngs_observe::alloc::TrackingAllocator;
//! ```
//!
//! and flip it on at runtime with [`enable`] (the `--profile-mem` flag).
//! While disabled the hot path is a single relaxed load and a branch on top
//! of the `System` call — effectively the plain allocator. While enabled
//! every allocation updates:
//!
//! * `ALLOCATED` / `FREED` — **monotonic** byte totals. Live bytes are
//!   derived as `allocated.saturating_sub(freed)` instead of a single
//!   signed gauge, so memory allocated before tracking was enabled and
//!   freed afterwards can never underflow the counter.
//! * `PEAK` — high-watermark of the derived live bytes, maintained with
//!   `fetch_max` at allocation time.
//! * `COUNT` — number of allocation calls.
//!
//! [`Collector`](crate::Collector) spans diff `ALLOCATED` over their
//! interval ([`allocated_bytes`]), so a span counts what every thread
//! allocated while it was open, pool workers too.
//!
//! The counters are process-wide: [`reset_peak`] rebases the watermark to
//! the current live bytes so sequential phases of one process can each
//! measure their own peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Tracking is on (flipped by [`enable`]/[`disable`]).
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Set the first time [`TrackingAllocator`] services a call — proof that
/// the binary actually registered it as the global allocator.
static INSTALLED: AtomicBool = AtomicBool::new(false);
/// Monotonic total bytes allocated while tracking was enabled.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Monotonic total bytes freed while tracking was enabled.
static FREED: AtomicU64 = AtomicU64::new(0);
/// High-watermark of `ALLOCATED - FREED`.
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Number of allocation calls while tracking was enabled.
static COUNT: AtomicU64 = AtomicU64::new(0);

#[inline]
fn on_alloc(size: usize) {
    if !INSTALLED.load(Relaxed) {
        INSTALLED.store(true, Relaxed);
    }
    if !ENABLED.load(Relaxed) {
        return;
    }
    let size = size as u64;
    let allocated = ALLOCATED.fetch_add(size, Relaxed) + size;
    COUNT.fetch_add(1, Relaxed);
    let live = allocated.saturating_sub(FREED.load(Relaxed));
    PEAK.fetch_max(live, Relaxed);
}

#[inline]
fn on_free(size: usize) {
    if !ENABLED.load(Relaxed) {
        return;
    }
    FREED.fetch_add(size as u64, Relaxed);
}

/// A [`GlobalAlloc`] wrapping [`System`] with byte accounting. Zero-sized
/// unit struct so registering it costs nothing.
pub struct TrackingAllocator;

// SAFETY: delegates every allocation verbatim to `System`; the accounting
// only observes sizes and never touches the returned memory.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// Turn tracking on. Returns whether [`TrackingAllocator`] is actually this
/// process's global allocator (when it is not — the binary never registered
/// it — the counters will stay zero and callers should warn rather than
/// silently report nothing).
pub fn enable() -> bool {
    ENABLED.store(true, Relaxed);
    // Force one heap allocation through whatever the global allocator is;
    // if it is ours, INSTALLED flips.
    let probe = vec![0u8; 64];
    drop(std::hint::black_box(probe));
    INSTALLED.load(Relaxed)
}

/// Turn tracking off (the hot path reverts to a load + branch).
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// Whether tracking is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Rebase the peak watermark to the current live bytes, so a sequence of
/// phases in one process can each report its own peak.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Relaxed);
}

/// Current live bytes (`allocated − freed`, saturating).
pub fn live_bytes() -> u64 {
    ALLOCATED.load(Relaxed).saturating_sub(FREED.load(Relaxed))
}

/// Bytes allocated by the whole process while tracking was enabled
/// (monotonic; span attribution diffs two readings).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Relaxed)
}

/// A snapshot of the global allocator counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Monotonic bytes allocated since tracking was enabled.
    pub allocated_bytes: u64,
    /// Monotonic bytes freed since tracking was enabled.
    pub freed_bytes: u64,
    /// Live bytes (`allocated − freed`) at snapshot time.
    pub live_bytes: u64,
    /// High-watermark of live bytes (since enable or the last
    /// [`reset_peak`]).
    pub peak_live_bytes: u64,
    /// Allocation calls since tracking was enabled.
    pub alloc_count: u64,
}

impl AllocStats {
    /// Fold another snapshot in by field-wise maximum. Snapshots are
    /// point-in-time readings of the same monotonic counters, so the later
    /// (larger) reading wins — this keeps [`Report::merge`](crate::Report::merge)
    /// associative and commutative, mirroring the RSS probe.
    pub fn merge(&mut self, other: &AllocStats) {
        self.allocated_bytes = self.allocated_bytes.max(other.allocated_bytes);
        self.freed_bytes = self.freed_bytes.max(other.freed_bytes);
        self.live_bytes = self.live_bytes.max(other.live_bytes);
        self.peak_live_bytes = self.peak_live_bytes.max(other.peak_live_bytes);
        self.alloc_count = self.alloc_count.max(other.alloc_count);
    }
}

/// Snapshot the global counters. `None` while tracking is disabled or when
/// [`TrackingAllocator`] is not the process's global allocator — reports
/// then omit the alloc section instead of claiming zero bytes.
pub fn snapshot() -> Option<AllocStats> {
    if !ENABLED.load(Relaxed) || !INSTALLED.load(Relaxed) {
        return None;
    }
    let allocated = ALLOCATED.load(Relaxed);
    let freed = FREED.load(Relaxed);
    let live = allocated.saturating_sub(freed);
    Some(AllocStats {
        allocated_bytes: allocated,
        freed_bytes: freed,
        live_bytes: live,
        // A racing allocation can observe live > the stored peak for an
        // instant; clamp so peak ≥ live always holds in snapshots.
        peak_live_bytes: PEAK.load(Relaxed).max(live),
        alloc_count: COUNT.load(Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator itself is exercised end-to-end in
    // `tests/alloc_tracking.rs`, which registers `TrackingAllocator` as the
    // test binary's global allocator (a library unit test cannot: the
    // harness binary owns that slot). Here we cover the pure parts.

    #[test]
    fn snapshot_is_none_when_not_installed() {
        // This unit-test binary uses the default allocator, so INSTALLED
        // never flips and enable() reports the truth.
        assert!(!enable(), "unit tests run under the system allocator");
        assert_eq!(snapshot(), None);
        disable();
        assert!(!is_enabled());
    }

    #[test]
    fn alloc_stats_merge_takes_maxima() {
        let mut a = AllocStats {
            allocated_bytes: 100,
            freed_bytes: 40,
            live_bytes: 60,
            peak_live_bytes: 80,
            alloc_count: 7,
        };
        let b = AllocStats {
            allocated_bytes: 90,
            freed_bytes: 70,
            live_bytes: 20,
            peak_live_bytes: 95,
            alloc_count: 11,
        };
        let mut ba = b;
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a, ba, "merge is commutative");
        assert_eq!(a.allocated_bytes, 100);
        assert_eq!(a.freed_bytes, 70);
        assert_eq!(a.peak_live_bytes, 95);
        assert_eq!(a.alloc_count, 11);
    }
}
