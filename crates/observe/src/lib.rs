//! `ngs-observe` — the workspace's observability substrate.
//!
//! The paper evaluates every system by per-stage quantities and run times
//! (Tables 2.2–2.4, 3.3, 4.2–4.3); this crate is the shared instrumentation
//! those reports are produced from. It is deliberately dependency-free so
//! every layer of the workspace — including `mapreduce-lite`, which avoids
//! `ngs-core` — can depend on it.
//!
//! Building blocks:
//!
//! * [`Collector`] — a thread-safe sink for spans, counters, gauges and
//!   histograms. A disabled collector ([`Collector::disabled`]) makes every
//!   recording call a cheap no-op, so un-instrumented entry points pay
//!   (almost) nothing.
//! * Spans — hierarchical by naming convention: dot-separated paths such as
//!   `reptile.build.neighbor_index` (see DESIGN.md §Observability for the
//!   naming rules). Each span aggregates call count, total/min/max wall
//!   time, the process CPU time spent while it was open ([`process_cpu_ns`]
//!   read at open and close; DESIGN.md §CPU per span), and the thread count
//!   in effect when it was opened.
//! * Counters — monotonic `u64` sums (decision mixes, record counts).
//! * Gauges — last-known `f64` values with a per-gauge merge mode
//!   ([`GaugeMerge`]): minimum by default (BIC traces, thresholds; keeps
//!   [`Report::merge`] associative and commutative), maximum for
//!   high-watermarks such as peak memory, or last-write for
//!   order-dependent folds.
//! * [`LogHistogram`] — log₂-bucketed `u64` histograms for heavy-tailed
//!   quantities: k-mer multiplicities, clique sizes, scaled EM deltas.
//! * [`MemoryProbe`] — current and peak RSS from `/proc/self/status`
//!   (`None` on platforms without procfs).
//! * [`Report`] — an immutable snapshot rendering both a human table
//!   ([`Report::render_table`]) and machine-readable JSON
//!   ([`Report::to_json`], the `BENCH_<pipeline>.json` schema), with
//!   [`Report::merge`] for folding multi-process or multi-phase runs.
//! * [`Tracer`] — per-occurrence event timelines beneath the aggregates:
//!   hierarchical spans with begin/end/instant events, serialised as JSONL
//!   and viewable in `chrome://tracing` via the `ngs-trace` binary (see
//!   the [`trace`] module and DESIGN.md §Tracing).
//! * [`alloc`] — the tracking global allocator (`--profile-mem`): when a
//!   binary registers [`alloc::TrackingAllocator`] and enables it, every
//!   span additionally records allocated-byte and peak-live-byte figures,
//!   and reports carry a process-wide allocator section (see DESIGN.md
//!   §Memory profiling).
//! * [`sampler`] — background resource timeline (allocator + procfs
//!   snapshots as JSONL, the `--resource-jsonl` flag) and the
//!   [`sampler::ProgressMeter`] throughput heartbeat.

pub mod alloc;
mod cpu;
mod histogram;
pub mod json;
mod memory;
mod report;
pub mod sampler;
pub mod trace;
pub mod traceview;

pub use cpu::{available_cores, process_cpu_ns};
pub use histogram::LogHistogram;
pub use memory::{read_memory, MemoryProbe};
pub use report::{
    parse_bench_report, validate_bench_invariants, BenchSpan, CpuTotals, GaugeMerge, Report,
    SpanStat,
};
pub use trace::{SpanId, TraceContext, TraceEvent, TraceEventKind, TraceSpan, Tracer};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Lock `m`, recovering the data when a previous holder panicked. The
/// observability substrate must never cascade a secondary panic into a
/// pipeline that already survived the first one: a poisoned telemetry
/// mutex means one sample/event may be mid-write, which is exactly the
/// kind of damage aggregate metrics tolerate — losing the whole run's
/// report to a `PoisonError` unwrap is strictly worse.
pub(crate) fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Mutable aggregation state behind the collector's mutex.
#[derive(Debug, Default)]
struct Inner {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    /// Merge modes for gauges recorded with a non-default mode.
    gauge_modes: BTreeMap<String, GaugeMerge>,
    histograms: BTreeMap<String, LogHistogram>,
}

/// A thread-safe metrics sink.
///
/// All recording goes through one mutex; instrumentation is therefore meant
/// for *stage-grained* events (a pipeline phase, an EM iteration, a
/// MapReduce task attempt), not per-base inner loops — hot paths accumulate
/// locally (e.g. `ReptileStats`) and fold into the collector once.
#[derive(Debug, Default)]
pub struct Collector {
    enabled: bool,
    inner: Mutex<Inner>,
    tracer: Option<Arc<Tracer>>,
}

impl Collector {
    /// A recording collector.
    pub fn new() -> Collector {
        Collector { enabled: true, inner: Mutex::new(Inner::default()), tracer: None }
    }

    /// A collector that ignores everything (for un-instrumented entry
    /// points; keeps plain `run()` overhead negligible).
    pub fn disabled() -> Collector {
        Collector { enabled: false, inner: Mutex::new(Inner::default()), tracer: None }
    }

    /// A recording collector whose spans also emit trace events into
    /// `tracer` (always enabled: a tracer needs the spans to fire).
    pub fn with_tracer(tracer: Arc<Tracer>) -> Collector {
        Collector { enabled: true, inner: Mutex::new(Inner::default()), tracer: Some(tracer) }
    }

    /// Whether this collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Open a span at `path` (dot-separated hierarchy). The span is recorded
    /// when the returned guard drops. Thread count is the process's
    /// [`available_cores`] (a disabled collector does not look it up); use
    /// [`Collector::span_with_threads`] when the caller knows its actual
    /// pool size (e.g. rayon).
    pub fn span<'c>(&'c self, path: &str) -> SpanGuard<'c> {
        let threads = if self.enabled { available_cores() } else { 1 };
        self.span_with_threads(path, threads)
    }

    /// Open a span with an explicit thread count.
    pub fn span_with_threads<'c>(&'c self, path: &str, threads: usize) -> SpanGuard<'c> {
        let trace_id = match &self.tracer {
            Some(t) if self.enabled => t.begin(path),
            _ => SpanId::ROOT,
        };
        self.guard(path, threads, trace_id)
    }

    /// Open a span whose trace event parents under an explicit `parent`
    /// span id (for work running on a different thread than the stage that
    /// spawned it, e.g. MapReduce task attempts). `detail` annotates the
    /// trace event (`task=3 attempt=1`); aggregates ignore it. Without a
    /// tracer this is identical to [`Collector::span_with_threads`].
    pub fn span_traced<'c>(
        &'c self,
        path: &str,
        parent: SpanId,
        detail: &str,
        threads: usize,
    ) -> SpanGuard<'c> {
        let trace_id = match &self.tracer {
            Some(t) if self.enabled => t.begin_under_detail(path, parent, detail),
            _ => SpanId::ROOT,
        };
        self.guard(path, threads, trace_id)
    }

    /// The guard for a span opening now. A disabled collector reads no
    /// clock: its guard holds no CPU or allocation baseline.
    fn guard<'c>(&'c self, path: &str, threads: usize, trace_id: SpanId) -> SpanGuard<'c> {
        SpanGuard {
            collector: self,
            path: if self.enabled { path.to_string() } else { String::new() },
            start: Instant::now(),
            threads,
            trace_id,
            cpu_start: self.enabled.then(process_cpu_ns).flatten(),
            alloc_start: (self.enabled && alloc::is_enabled()).then(alloc::allocated_bytes),
        }
    }

    /// Record a completed span of known duration (used when folding
    /// externally-measured times, e.g. [`SpanStat`]s from `JobStats`). Its
    /// CPU time was not measured, so the report writes `cpu_ns: null`.
    pub fn record_span_ns(&self, path: &str, ns: u64, threads: usize) {
        self.record_span(path, ns, threads, None, 0, 0);
    }

    /// Record a completed span of known duration and known CPU time
    /// (`cpu_ns`, e.g. a worker process's CPU clock over a task attempt).
    pub fn record_span_cpu(&self, path: &str, ns: u64, threads: usize, cpu_ns: u64) {
        self.record_span(path, ns, threads, Some(cpu_ns), 0, 0);
    }

    /// Fold one span occurrence in: `alloc_bytes` is the bytes the process
    /// allocated while it was open, `alloc_peak_bytes` the
    /// process-wide live-byte high-watermark at close (both 0 without the
    /// tracking allocator — see the [`alloc`] module).
    fn record_span(
        &self,
        path: &str,
        ns: u64,
        threads: usize,
        cpu_ns: Option<u64>,
        alloc_bytes: u64,
        alloc_peak_bytes: u64,
    ) {
        if !self.enabled {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        let stat = inner.spans.entry(path.to_string()).or_default();
        stat.observe(ns, threads);
        if let Some(cpu_ns) = cpu_ns {
            stat.observe_cpu(cpu_ns);
        }
        stat.observe_alloc(alloc_bytes, alloc_peak_bytes);
    }

    /// Add `delta` to the monotonic counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        if !self.enabled || delta == 0 {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Increment the counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of the counter `name` (0 when never incremented).
    /// Cheap enough for a progress thread to poll, not for an inner loop.
    pub fn counter_value(&self, name: &str) -> u64 {
        if !self.enabled {
            return 0;
        }
        lock_unpoisoned(&self.inner).counters.get(name).copied().unwrap_or(0)
    }

    /// Set the gauge `name` with the default [`GaugeMerge::Min`] mode
    /// (reports merge it by minimum).
    pub fn gauge(&self, name: &str, value: f64) {
        self.gauge_with_mode(name, value, GaugeMerge::Min);
    }

    /// Set the gauge `name` merging by maximum — for high-watermarks such
    /// as per-stage peak memory, where min-merging would silently report
    /// the *smallest* peak across folded reports.
    pub fn gauge_max(&self, name: &str, value: f64) {
        self.gauge_with_mode(name, value, GaugeMerge::Max);
    }

    /// Set the gauge `name` under an explicit merge mode. Within one
    /// collector the latest write always wins; the mode governs how
    /// [`Report::merge`] folds the gauge across reports. Use one mode per
    /// gauge name — mixing modes leaves the last non-default mode in
    /// effect.
    pub fn gauge_with_mode(&self, name: &str, value: f64, mode: GaugeMerge) {
        if !self.enabled {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        inner.gauges.insert(name.to_string(), value);
        if mode != GaugeMerge::Min {
            inner.gauge_modes.insert(name.to_string(), mode);
        }
    }

    /// Record one observation of `value` into histogram `name`.
    pub fn record(&self, name: &str, value: u64) {
        self.record_n(name, value, 1);
    }

    /// Record `count` observations of `value` into histogram `name`
    /// (folding pre-aggregated stats in one lock acquisition).
    pub fn record_n(&self, name: &str, value: u64, count: u64) {
        if !self.enabled || count == 0 {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        inner.histograms.entry(name.to_string()).or_default().record_n(value, count);
    }

    /// Merge a pre-built histogram into `name` (for per-thread local
    /// histograms folded at phase end).
    pub fn merge_histogram(&self, name: &str, hist: &LogHistogram) {
        if !self.enabled || hist.count() == 0 {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        inner.histograms.entry(name.to_string()).or_default().merge(hist);
    }

    /// Snapshot everything recorded so far into a [`Report`] for
    /// `pipeline`, probing process memory, the process CPU clock (enabled
    /// collectors only) and, when tracking is enabled, the allocator
    /// counters at snapshot time.
    pub fn report(&self, pipeline: &str) -> Report {
        let inner = lock_unpoisoned(&self.inner);
        Report {
            pipeline: pipeline.to_string(),
            spans: inner.spans.clone(),
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            gauge_modes: inner.gauge_modes.clone(),
            histograms: inner.histograms.clone(),
            memory: read_memory(),
            alloc: alloc::snapshot(),
            cpu: self
                .enabled
                .then(process_cpu_ns)
                .flatten()
                .map(|process_ns| CpuTotals { process_ns }),
        }
    }
}

/// RAII guard recording one span occurrence on drop (and, when the
/// collector carries a tracer, closing the matching trace span).
pub struct SpanGuard<'c> {
    collector: &'c Collector,
    path: String,
    start: Instant,
    threads: usize,
    trace_id: SpanId,
    /// Process CPU clock at open (`None` for a disabled collector, or
    /// where the clock is unavailable).
    cpu_start: Option<u64>,
    /// Process-allocated bytes at open (`Some` only when the tracking
    /// allocator was enabled then — the drop diffs against it).
    alloc_start: Option<u64>,
}

impl SpanGuard<'_> {
    /// Elapsed time since the span opened (without closing it).
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// The trace span id backing this guard (`SpanId::ROOT` when no tracer
    /// is attached) — pass it as the parent of cross-thread children.
    pub fn trace_id(&self) -> SpanId {
        self.trace_id
    }

    /// Replace the thread count this span will record on drop. Spans are
    /// opened with the parallelism *available* (all that is knowable up
    /// front); call this just before the span closes with the parallelism
    /// the work actually *got* (e.g. `rayon::last_threads_used()`), so
    /// BENCH reports stop claiming full fan-out for sequential runs.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = &self.collector.tracer {
            t.end(self.trace_id);
        }
        if !self.collector.enabled {
            return;
        }
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let cpu_ns = self.cpu_start.and_then(|start| Some(process_cpu_ns()?.saturating_sub(start)));
        // Allocation attribution: bytes the process allocated while the
        // span was open (the pool's workers too, as with `cpu_ns`), plus the
        // process-wide peak watermark at close.
        let (alloc_bytes, alloc_peak) = match self.alloc_start {
            Some(start) => (
                alloc::allocated_bytes().saturating_sub(start),
                alloc::snapshot().map_or(0, |s| s.peak_live_bytes),
            ),
            None => (0, 0),
        };
        self.collector.record_span(&self.path, ns, self.threads, cpu_ns, alloc_bytes, alloc_peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_by_path() {
        let c = Collector::new();
        for _ in 0..3 {
            let _g = c.span("a.b");
        }
        let r = c.report("test");
        assert_eq!(r.spans["a.b"].count, 3);
        assert!(r.spans["a.b"].total_ns >= r.spans["a.b"].max_ns);
        assert!(r.spans["a.b"].threads >= 1);
    }

    #[test]
    fn counters_and_gauges_record() {
        let c = Collector::new();
        c.add("x", 2);
        c.incr("x");
        c.gauge("g", -12.5);
        let r = c.report("test");
        assert_eq!(r.counters["x"], 3);
        assert_eq!(r.gauges["g"], -12.5);
    }

    #[test]
    fn span_cpu_counts_a_thread_joined_inside_it() {
        // The child spins on its own thread's CPU clock, so at least 50 ms
        // of process CPU pass while the span is open, none of it on the
        // span's own thread.
        const SPIN_NS: u64 = 50_000_000;
        let c = Collector::new();
        {
            let _g = c.span("parent");
            std::thread::spawn(|| {
                let start = cpu::thread_cpu_ns().unwrap();
                while cpu::thread_cpu_ns().unwrap() - start < SPIN_NS {}
            })
            .join()
            .unwrap();
        }
        let r = c.report("test");
        let span_cpu = r.spans["parent"].cpu_ns.expect("a guard span is measured");
        assert!(span_cpu >= SPIN_NS, "span cpu_ns {span_cpu} misses the joined thread");
        let process = r.cpu.expect("report carries the process CPU clock").process_ns;
        assert!(process >= span_cpu, "report cpu {process} below the span's {span_cpu}");
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::disabled();
        let reads = cpu::READS.with(|n| n.get());
        let lookups = cpu::CORE_LOOKUPS.with(|n| n.get());
        {
            let _g = c.span("a");
            let _t = c.span_traced("b", SpanId::ROOT, "", 1);
        }
        c.add("x", 5);
        c.gauge("g", 1.0);
        c.record("h", 9);
        let r = c.report("test");
        assert_eq!(cpu::READS.with(|n| n.get()), reads, "a disabled collector reads no clock");
        let core_lookups = cpu::CORE_LOOKUPS.with(|n| n.get());
        assert_eq!(core_lookups, lookups, "a disabled collector looks up no core count");
        assert_eq!(r.cpu, None);
        assert!(r.spans.is_empty());
        assert!(r.counters.is_empty());
        assert!(r.gauges.is_empty());
        assert!(r.histograms.is_empty());
    }

    /// Every enabled span records the core count, yet the standard
    /// library is asked for it once per process.
    #[test]
    fn core_count_is_read_once_per_process() {
        let c = Collector::new();
        for _ in 0..100 {
            let _g = c.span("a");
        }
        assert_eq!(cpu::CORE_READS.load(std::sync::atomic::Ordering::Relaxed), 1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(c.report("t").span("a").expect("span").threads, cores);
    }

    #[test]
    fn collector_spans_emit_trace_events() {
        let tracer = Arc::new(Tracer::new());
        let c = Collector::with_tracer(tracer.clone());
        {
            let outer = c.span("outer");
            let _inner = c.span_traced("inner", outer.trace_id(), "task=0 attempt=0", 2);
        }
        let events = tracer.events();
        let begins: Vec<_> = events.iter().filter(|e| e.kind == TraceEventKind::Begin).collect();
        assert_eq!(begins.len(), 2);
        assert_eq!(begins[0].name, "outer");
        assert_eq!(begins[1].name, "inner");
        assert_eq!(begins[1].parent, begins[0].id);
        assert_eq!(begins[1].detail, "task=0 attempt=0");
        assert_eq!(events.iter().filter(|e| e.kind == TraceEventKind::End).count(), 2);
        // Aggregates still recorded.
        let r = c.report("t");
        assert_eq!(r.spans["outer"].count, 1);
        assert_eq!(r.spans["inner"].count, 1);
    }

    #[test]
    fn histogram_via_collector() {
        let c = Collector::new();
        c.record("h", 1);
        c.record_n("h", 100, 4);
        let r = c.report("test");
        assert_eq!(r.histograms["h"].count(), 5);
        assert_eq!(r.histograms["h"].sum(), 401);
    }
}
