//! Structured event tracing: per-occurrence timelines beneath the
//! aggregate [`Collector`](crate::Collector) metrics.
//!
//! Aggregates answer *how much*; traces answer *where and when*. A
//! [`Tracer`] records begin/end/instant events with hierarchical span IDs
//! (parent/child), per-thread tags and nanosecond timestamps into a
//! lock-sharded buffer, and serialises them as JSONL (`schema_version 2`,
//! see [`Tracer::to_jsonl`]). The `ngs-trace` binary converts a trace to
//! Chrome `chrome://tracing` JSON, prints a critical-path summary, and
//! stitches per-process traces (see [`crate::traceview`]).
//!
//! Parenting works two ways:
//!
//! * **Ambient** — every thread keeps a stack of its open spans; a span
//!   opened without an explicit parent nests under the innermost open span
//!   of the same tracer on the same thread. RAII guards keep this stack
//!   balanced, panics included.
//! * **Explicit** — a [`TraceContext`] carries `(tracer, parent span)`
//!   across thread boundaries, so work scheduled on other threads (e.g.
//!   MapReduce task attempts) parents under the stage that spawned it
//!   rather than under that worker thread's (empty) stack.
//!
//! A disabled tracer ([`Tracer::disabled`]) turns every call into a cheap
//! branch — no allocation, no locking — so un-traced runs pay (almost)
//! nothing, the same contract as the disabled collector.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version of the JSONL trace schema written by [`Tracer::to_jsonl`].
/// Version 2 added the process-metadata header (`pid`, `role`,
/// `clock_offset_ns`) and the optional per-event `pid` key for events
/// ingested from other processes; version-1 files remain readable.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Buffer shards; events land in the shard of their thread tag, so
/// concurrent recorders rarely contend on a lock.
const SHARDS: usize = 16;

/// Identifier of one span occurrence. `SpanId::ROOT` (0) is the synthetic
/// root: spans parented there are top-level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(u64);

impl SpanId {
    /// The synthetic root (no parent).
    pub const ROOT: SpanId = SpanId(0);

    /// Raw id value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuild an id from its raw value (for trace file parsing).
    pub fn from_u64(v: u64) -> SpanId {
        SpanId(v)
    }

    /// Whether this is the synthetic root.
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point-in-time event (no duration).
    Instant,
}

impl TraceEventKind {
    /// One-letter JSONL tag (`B`/`E`/`I`).
    pub fn tag(self) -> &'static str {
        match self {
            TraceEventKind::Begin => "B",
            TraceEventKind::End => "E",
            TraceEventKind::Instant => "I",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Begin / End / Instant.
    pub kind: TraceEventKind,
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// The span this event belongs to (instants get their own id).
    pub id: SpanId,
    /// Parent span (ROOT for top-level; ROOT on End events — the tree is
    /// reconstructed from Begin events).
    pub parent: SpanId,
    /// Span name (dot-separated path convention; empty on End events).
    pub name: String,
    /// Free-form annotation, e.g. `task=3 attempt=1` (empty = none).
    pub detail: String,
    /// Per-process thread tag (small dense integers, not OS TIDs).
    pub thread: u64,
    /// Nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// OS process id of the recording process. Locally recorded events
    /// carry the tracer's own pid; events stitched in from another process
    /// via [`Tracer::ingest`] keep their origin pid, which is what gives
    /// the Chrome export its per-process lanes.
    pub pid: u32,
}

/// Metadata for one process whose events appear in a trace: the schema-v2
/// header fields, and the registry entry [`Tracer::ingest`] records per
/// foreign process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessMeta {
    /// OS process id.
    pub pid: u32,
    /// Human-readable role, e.g. `driver` or `worker3`.
    pub role: String,
    /// Estimated nanoseconds to *add* to this process's local timestamps
    /// to land on the reference (driver) timeline. 0 when the file is
    /// already in reference time.
    pub clock_offset_ns: i64,
}

static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACER_INSTANCE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Dense per-thread tag, assigned on first trace activity.
    static THREAD_TAG: u64 = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
    /// Ambient stack of open spans: `(tracer instance, span id)`. Tagged by
    /// tracer instance so two tracers interleaving on one thread (tests,
    /// nested tools) never see each other's spans as parents.
    static AMBIENT: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// This thread's dense tag (stable for the thread's lifetime).
pub fn thread_tag() -> u64 {
    THREAD_TAG.with(|t| *t)
}

/// An event-recording tracer. Cheap no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    instance: u64,
    next_span: AtomicU64,
    next_seq: AtomicU64,
    epoch: Instant,
    shards: Vec<Mutex<Vec<TraceEvent>>>,
    pid: u32,
    role: Mutex<String>,
    /// Foreign processes whose events were stitched in via [`Tracer::ingest`].
    processes: Mutex<Vec<ProcessMeta>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    fn with_enabled(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            instance: NEXT_TRACER_INSTANCE.fetch_add(1, Ordering::Relaxed),
            next_span: AtomicU64::new(1),
            next_seq: AtomicU64::new(1),
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            pid: std::process::id(),
            role: Mutex::new("main".to_string()),
            processes: Mutex::new(Vec::new()),
        }
    }

    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer::with_enabled(true)
    }

    /// A tracer that ignores everything (for un-traced entry points).
    pub fn disabled() -> Tracer {
        Tracer::with_enabled(false)
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since this tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// OS process id stamped on locally recorded events and the JSONL
    /// header.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Set the role written to the JSONL header (default `main`).
    pub fn set_role(&self, role: &str) {
        *crate::lock_unpoisoned(&self.role) = role.to_string();
    }

    /// This tracer's role (see [`Tracer::set_role`]).
    pub fn role(&self) -> String {
        crate::lock_unpoisoned(&self.role).clone()
    }

    /// The foreign processes stitched into this trace so far, in ingestion
    /// order (one entry per distinct pid).
    pub fn processes(&self) -> Vec<ProcessMeta> {
        crate::lock_unpoisoned(&self.processes).clone()
    }

    fn push_event(&self, ev: TraceEvent) {
        let shard = (ev.thread as usize) % SHARDS;
        crate::lock_unpoisoned(&self.shards[shard]).push(ev);
    }

    /// The innermost open span of *this* tracer on the current thread
    /// (ROOT when none).
    pub fn current_parent(&self) -> SpanId {
        if !self.enabled {
            return SpanId::ROOT;
        }
        AMBIENT.with(|stack| {
            stack
                .borrow()
                .iter()
                .rev()
                .find(|&&(inst, _)| inst == self.instance)
                .map_or(SpanId::ROOT, |&(_, id)| SpanId(id))
        })
    }

    /// Core begin: record the event, push the ambient stack, return the new
    /// span id. `parent: None` means "use the ambient parent".
    fn begin_full(&self, name: &str, parent: Option<SpanId>, detail: &str) -> SpanId {
        if !self.enabled {
            return SpanId::ROOT;
        }
        let parent = parent.unwrap_or_else(|| self.current_parent());
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        let ev = TraceEvent {
            kind: TraceEventKind::Begin,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            id,
            parent,
            name: name.to_string(),
            detail: detail.to_string(),
            thread: thread_tag(),
            ts_ns: self.now_ns(),
            pid: self.pid,
        };
        self.push_event(ev);
        AMBIENT.with(|stack| stack.borrow_mut().push((self.instance, id.0)));
        id
    }

    /// Open a span under the ambient parent of the current thread.
    pub fn begin(&self, name: &str) -> SpanId {
        self.begin_full(name, None, "")
    }

    /// Open a span under an explicit parent (cross-thread propagation).
    pub fn begin_under(&self, name: &str, parent: SpanId) -> SpanId {
        self.begin_full(name, Some(parent), "")
    }

    /// Open a span under an explicit parent, with a detail annotation.
    pub fn begin_under_detail(&self, name: &str, parent: SpanId, detail: &str) -> SpanId {
        self.begin_full(name, Some(parent), detail)
    }

    /// Close span `id`. Tolerates out-of-order closes (the matching stack
    /// entry is removed wherever it sits). No-op for ROOT / disabled.
    pub fn end(&self, id: SpanId) {
        if !self.enabled || id.is_root() {
            return;
        }
        let ev = TraceEvent {
            kind: TraceEventKind::End,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            id,
            parent: SpanId::ROOT,
            name: String::new(),
            detail: String::new(),
            thread: thread_tag(),
            ts_ns: self.now_ns(),
            pid: self.pid,
        };
        self.push_event(ev);
        AMBIENT.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) =
                stack.iter().rposition(|&(inst, sid)| inst == self.instance && sid == id.0)
            {
                stack.remove(pos);
            }
        });
    }

    /// Record an instant event under the ambient parent.
    pub fn instant(&self, name: &str, detail: &str) {
        self.instant_under(name, self.current_parent(), detail);
    }

    /// Record an instant event under an explicit parent.
    pub fn instant_under(&self, name: &str, parent: SpanId, detail: &str) {
        if !self.enabled {
            return;
        }
        let ev = TraceEvent {
            kind: TraceEventKind::Instant,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            id: SpanId(self.next_span.fetch_add(1, Ordering::Relaxed)),
            parent,
            name: name.to_string(),
            detail: detail.to_string(),
            thread: thread_tag(),
            ts_ns: self.now_ns(),
            pid: self.pid,
        };
        self.push_event(ev);
    }

    /// RAII span under the ambient parent.
    pub fn span<'t>(&'t self, name: &str) -> TraceSpan<'t> {
        TraceSpan { tracer: self, id: self.begin(name) }
    }

    /// RAII span under an explicit parent.
    pub fn span_under<'t>(&'t self, name: &str, parent: SpanId) -> TraceSpan<'t> {
        TraceSpan { tracer: self, id: self.begin_under(name, parent) }
    }

    /// Every event recorded so far, in global `seq` order. Snapshots (does
    /// not drain), so it can be called mid-run.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(crate::lock_unpoisoned(shard).iter().cloned());
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Drain every buffered event, in global `seq` order. This is the
    /// shipping primitive for cross-process tracing: a pooled worker drains
    /// its buffer into each `Done`/`Failed` reply, so worker memory stays
    /// bounded and each chunk holds exactly one task attempt's events.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut crate::lock_unpoisoned(shard));
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Stitch a chunk of events recorded by another process into this
    /// trace, re-parented under `under`:
    ///
    /// * span ids and seqs are re-allocated from this tracer's counters
    ///   (intra-chunk parent links are preserved; chunk roots and parents
    ///   not present in the chunk attach to `under`);
    /// * timestamps are shifted by `meta.clock_offset_ns` onto this
    ///   tracer's timeline and clamped into `[clamp.0, clamp.1]`, so
    ///   residual clock-estimate error can never make a worker span escape
    ///   its driver-side parent;
    /// * spans the chunk left open (it should not — but a crashing worker
    ///   might) are closed at `clamp.1`, keeping the stitched trace
    ///   well-formed; `End` events for spans the chunk never began are
    ///   dropped;
    /// * `meta` is recorded in the process registry (one entry per pid)
    ///   and `meta.pid` is stamped on every stitched event.
    ///
    /// Call this *before* ending the span passed as `under`: the
    /// well-formedness checker requires children to close no later than
    /// their parent.
    pub fn ingest(
        &self,
        chunk: &[TraceEvent],
        under: SpanId,
        meta: &ProcessMeta,
        clamp: (u64, u64),
    ) {
        if !self.enabled {
            return;
        }
        {
            let mut procs = crate::lock_unpoisoned(&self.processes);
            if !procs.iter().any(|p| p.pid == meta.pid) {
                procs.push(meta.clone());
            }
        }
        if chunk.is_empty() {
            return;
        }
        let (lo, hi) = clamp;
        let shift = |ts: u64| ts.saturating_add_signed(meta.clock_offset_ns).clamp(lo, hi.max(lo));
        let mut sorted: Vec<&TraceEvent> = chunk.iter().collect();
        sorted.sort_by_key(|e| e.seq);
        let mut map: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        // Ids still open after the loop, in open order, for synthetic closes.
        let mut open: Vec<u64> = Vec::new();
        for e in sorted {
            let (id, parent) = match e.kind {
                TraceEventKind::End => {
                    let Some(&mapped) = map.get(&e.id.as_u64()) else {
                        continue; // end without a begin in this chunk
                    };
                    if let Some(pos) = open.iter().rposition(|&id| id == mapped) {
                        open.remove(pos);
                    }
                    (mapped, SpanId::ROOT)
                }
                TraceEventKind::Begin | TraceEventKind::Instant => {
                    let id = self.next_span.fetch_add(1, Ordering::Relaxed);
                    map.insert(e.id.as_u64(), id);
                    if e.kind == TraceEventKind::Begin {
                        open.push(id);
                    }
                    let parent = if e.parent.is_root() {
                        under
                    } else {
                        map.get(&e.parent.as_u64()).map_or(under, |&p| SpanId(p))
                    };
                    (id, parent)
                }
            };
            self.push_event(TraceEvent {
                kind: e.kind,
                seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
                id: SpanId(id),
                parent,
                name: e.name.clone(),
                detail: e.detail.clone(),
                thread: e.thread,
                ts_ns: shift(e.ts_ns),
                pid: meta.pid,
            });
        }
        for id in open.into_iter().rev() {
            self.push_event(TraceEvent {
                kind: TraceEventKind::End,
                seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
                id: SpanId(id),
                parent: SpanId::ROOT,
                name: String::new(),
                detail: String::new(),
                thread: 0,
                ts_ns: hi.max(lo),
                pid: meta.pid,
            });
        }
    }

    /// Serialise the trace as JSONL (`schema_version` 2): a header object
    /// carrying the process metadata, followed by one event object per
    /// line. Event keys are always present except `pid`, which appears
    /// only on events stitched in from a *different* process:
    ///
    /// ```json
    /// {"schema_version": 2, "kind": "ngs-trace", "unit": "ns",
    ///  "pid": 4242, "role": "main", "clock_offset_ns": 0}
    /// {"ev": "B", "seq": 1, "id": 1, "parent": 0, "name": "reptile.run",
    ///  "detail": "", "tid": 1, "ts_ns": 120}
    /// {"ev": "E", "seq": 2, "id": 1, "parent": 0, "name": "", "detail": "",
    ///  "tid": 1, "ts_ns": 990}
    /// ```
    ///
    /// The caller persists this through `ngs_durable::write_atomic` (the
    /// crate dependency points the other way, so the write lives with the
    /// caller), which is what the `--trace-jsonl` CLI flag does — a crash
    /// never leaves a torn trace file.
    pub fn to_jsonl(&self) -> String {
        render_jsonl(
            &self.events(),
            &ProcessMeta { pid: self.pid, role: self.role(), clock_offset_ns: 0 },
        )
    }

    /// Serialise only the events recorded by process `meta.pid` (the
    /// per-process component files a pooled driver writes next to its
    /// stitched trace, see `ngs-trace merge`). Timestamps are left as they
    /// are stored — already on this tracer's timeline — so the component
    /// header carries `clock_offset_ns: 0`.
    pub fn to_jsonl_for_pid(&self, meta: &ProcessMeta) -> String {
        let events: Vec<TraceEvent> =
            self.events().into_iter().filter(|e| e.pid == meta.pid).collect();
        render_jsonl(&events, &ProcessMeta { clock_offset_ns: 0, ..meta.clone() })
    }
}

/// Render `events` as schema-v2 JSONL under `meta`'s header. Events whose
/// pid differs from the header pid get an explicit `"pid"` key.
pub fn render_jsonl(events: &[TraceEvent], meta: &ProcessMeta) -> String {
    let mut out = String::with_capacity(96 + events.len() * 96);
    write!(
        out,
        "{{\"schema_version\": {TRACE_SCHEMA_VERSION}, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": {}, \"role\": ",
        meta.pid
    )
    .unwrap();
    crate::report::json_string(&mut out, &meta.role);
    writeln!(out, ", \"clock_offset_ns\": {}}}", meta.clock_offset_ns).unwrap();
    for e in events {
        write!(
            out,
            "{{\"ev\": \"{}\", \"seq\": {}, \"id\": {}, \"parent\": {}, \"name\": ",
            e.kind.tag(),
            e.seq,
            e.id.as_u64(),
            e.parent.as_u64()
        )
        .unwrap();
        crate::report::json_string(&mut out, &e.name);
        out.push_str(", \"detail\": ");
        crate::report::json_string(&mut out, &e.detail);
        write!(out, ", \"tid\": {}, \"ts_ns\": {}", e.thread, e.ts_ns).unwrap();
        if e.pid != meta.pid {
            write!(out, ", \"pid\": {}", e.pid).unwrap();
        }
        out.push_str("}\n");
    }
    out
}

/// RAII guard closing its span on drop (panic-safe: unwinding drops it).
pub struct TraceSpan<'t> {
    tracer: &'t Tracer,
    id: SpanId,
}

impl TraceSpan<'_> {
    /// The span's id, for parenting children explicitly.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        self.tracer.end(self.id);
    }
}

/// A `(tracer, parent span)` pair that crosses thread boundaries: clone it
/// into worker closures so their spans parent under the stage/job that
/// spawned them instead of the worker thread's own (empty) ambient stack.
#[derive(Debug, Clone)]
pub struct TraceContext {
    tracer: Arc<Tracer>,
    parent: SpanId,
}

impl TraceContext {
    /// Context parented at the calling thread's ambient span (ROOT when
    /// nothing is open).
    pub fn new(tracer: Arc<Tracer>) -> TraceContext {
        let parent = tracer.current_parent();
        TraceContext { tracer, parent }
    }

    /// The underlying tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The parent span this context points at.
    pub fn parent(&self) -> SpanId {
        self.parent
    }

    /// A child context parented at `parent` (same tracer).
    pub fn child(&self, parent: SpanId) -> TraceContext {
        TraceContext { tracer: self.tracer.clone(), parent }
    }

    /// RAII span under this context's parent.
    pub fn span<'t>(&'t self, name: &str) -> TraceSpan<'t> {
        self.tracer.span_under(name, self.parent)
    }

    /// Instant event under this context's parent.
    pub fn instant(&self, name: &str, detail: &str) {
        self.tracer.instant_under(name, self.parent, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begins(events: &[TraceEvent]) -> Vec<&TraceEvent> {
        events.iter().filter(|e| e.kind == TraceEventKind::Begin).collect()
    }

    #[test]
    fn ambient_nesting_parents_children() {
        let t = Tracer::new();
        {
            let outer = t.span("outer");
            {
                let inner = t.span("inner");
                assert_ne!(inner.id(), outer.id());
            }
            t.instant("tick", "n=1");
        }
        let events = t.events();
        let b = begins(&events);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].parent, SpanId::ROOT);
        assert_eq!(b[1].parent, b[0].id, "inner parents under outer");
        let instant = events.iter().find(|e| e.kind == TraceEventKind::Instant).unwrap();
        assert_eq!(instant.parent, b[0].id, "instant after inner closed parents under outer");
        // Begin/end balance per id.
        let ends: Vec<_> = events.iter().filter(|e| e.kind == TraceEventKind::End).collect();
        assert_eq!(ends.len(), 2);
    }

    #[test]
    fn explicit_parent_wins_over_ambient() {
        let t = Tracer::new();
        let outer = t.span("outer");
        let detached = t.span_under("detached", SpanId::ROOT);
        let events = t.events();
        let b = begins(&events);
        assert_eq!(b[1].parent, SpanId::ROOT);
        drop(detached);
        drop(outer);
    }

    #[test]
    fn context_crosses_threads() {
        let tracer = Arc::new(Tracer::new());
        let stage = tracer.span("stage");
        let ctx = TraceContext::new(tracer.clone());
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    let _task = ctx.span("task");
                });
            }
        });
        drop(stage);
        let events = tracer.events();
        let b = begins(&events);
        let stage_id = b.iter().find(|e| e.name == "stage").unwrap().id;
        let tasks: Vec<_> = b.iter().filter(|e| e.name == "task").collect();
        assert_eq!(tasks.len(), 3);
        assert!(tasks.iter().all(|e| e.parent == stage_id), "tasks parent under stage");
        // Threads got distinct tags.
        let tids: std::collections::BTreeSet<u64> = tasks.iter().map(|e| e.thread).collect();
        assert_eq!(tids.len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        let s = t.span("x");
        assert!(s.id().is_root());
        drop(s);
        t.instant("y", "");
        assert!(t.events().is_empty());
        assert_eq!(t.to_jsonl().lines().count(), 1, "header only");
    }

    #[test]
    fn two_tracers_do_not_cross_parent() {
        let a = Tracer::new();
        let b = Tracer::new();
        let _sa = a.span("a.outer");
        let sb = b.span("b.span");
        let events = b.events();
        assert_eq!(begins(&events)[0].parent, SpanId::ROOT, "b must not parent under a's span");
        drop(sb);
    }

    #[test]
    fn end_survives_panic_via_guard() {
        let t = Tracer::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = t.span("will_panic");
            panic!("boom");
        }));
        assert!(result.is_err());
        let events = t.events();
        assert_eq!(events.len(), 2, "begin and end despite the panic");
        assert_eq!(events[1].kind, TraceEventKind::End);
        assert_eq!(t.current_parent(), SpanId::ROOT, "ambient stack unwound");
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_event() {
        let t = Tracer::new();
        {
            let _s = t.span("a");
            t.instant("i", "k=v");
        }
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 3);
        assert!(lines[0].contains("\"schema_version\": 2"));
        assert!(lines[0].contains(&format!("\"pid\": {}", std::process::id())));
        assert!(lines[0].contains("\"role\": \"main\""));
        assert!(lines[0].contains("\"clock_offset_ns\": 0"));
        assert!(lines[1].contains("\"ev\": \"B\""));
        assert!(lines[2].contains("\"ev\": \"I\""));
        assert!(lines[3].contains("\"ev\": \"E\""));
        // Local events carry the header pid implicitly — no per-event key.
        assert!(!lines[1].contains(", \"pid\":"));
    }

    #[test]
    fn take_events_drains_the_buffer() {
        let t = Tracer::new();
        {
            let _s = t.span("a");
        }
        let first = t.take_events();
        assert_eq!(first.len(), 2);
        assert!(t.take_events().is_empty(), "drained");
        {
            let _s = t.span("b");
        }
        let second = t.take_events();
        assert_eq!(second.len(), 2);
        assert!(second[0].seq > first[1].seq, "seq counter keeps advancing");
    }

    #[test]
    fn ingest_remaps_reparents_and_corrects_timestamps() {
        // "Worker": record a small tree with its own ids/seqs/timestamps.
        let worker = Tracer::new();
        {
            let task = worker.span("worker.task");
            let _exec = worker.span_under("worker.exec", task.id());
            worker.instant_under("worker.tick", task.id(), "n=1");
        }
        let chunk = worker.take_events();

        // "Driver": stitch the chunk under a lease span with a clock shift.
        let driver = Tracer::new();
        let lease = driver.begin("mapreduce.task.map");
        let lo = driver.now_ns();
        let meta =
            ProcessMeta { pid: 99_999, role: "worker0".to_string(), clock_offset_ns: 1_000_000 };
        driver.ingest(&chunk, lease, &meta, (lo, lo + 500));
        driver.end(lease);

        let events = driver.events();
        let b: Vec<_> = events.iter().filter(|e| e.kind == TraceEventKind::Begin).collect();
        let lease_ev = b.iter().find(|e| e.name == "mapreduce.task.map").unwrap();
        let task_ev = b.iter().find(|e| e.name == "worker.task").unwrap();
        let exec_ev = b.iter().find(|e| e.name == "worker.exec").unwrap();
        assert_eq!(task_ev.parent, lease_ev.id, "chunk root re-parents under the lease");
        assert_eq!(exec_ev.parent, task_ev.id, "intra-chunk parentage preserved");
        assert_eq!(task_ev.pid, 99_999);
        assert_eq!(lease_ev.pid, std::process::id());
        // Timestamps clamped into the lease interval despite the huge shift.
        for e in &events {
            if e.pid == 99_999 {
                assert!(e.ts_ns >= lo && e.ts_ns <= lo + 500, "clamped: {}", e.ts_ns);
            }
        }
        // Fresh ids: no collisions between driver and stitched spans.
        let mut ids: Vec<u64> = b.iter().map(|e| e.id.as_u64()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), b.len());
        // Balance holds, and stitched ends precede the lease end in seq.
        let ends = events.iter().filter(|e| e.kind == TraceEventKind::End).count();
        assert_eq!(b.len(), ends);
        assert_eq!(driver.processes(), vec![meta]);
    }

    #[test]
    fn ingest_closes_spans_a_crashed_worker_left_open() {
        let worker = Tracer::new();
        let open = worker.begin("worker.task");
        let _ = open; // never ended: simulates a chunk from a dying worker
        let chunk = worker.take_events();
        assert_eq!(chunk.len(), 1);

        let driver = Tracer::new();
        let lease = driver.begin("lease");
        let meta = ProcessMeta { pid: 7, role: "worker1".to_string(), clock_offset_ns: 0 };
        driver.ingest(&chunk, lease, &meta, (0, 10));
        driver.end(lease);
        let events = driver.events();
        let begins = events.iter().filter(|e| e.kind == TraceEventKind::Begin).count();
        let ends = events.iter().filter(|e| e.kind == TraceEventKind::End).count();
        assert_eq!(begins, ends, "synthetic end balances the open span");
    }

    #[test]
    fn component_export_partitions_by_pid() {
        let driver = Tracer::new();
        let lease = driver.begin("lease");
        let worker = Tracer::new();
        {
            let _t = worker.span("worker.task");
        }
        let meta = ProcessMeta { pid: 31_337, role: "worker0".to_string(), clock_offset_ns: 0 };
        driver.ingest(&worker.take_events(), lease, &meta, (0, u64::MAX));
        driver.end(lease);

        let own = driver.to_jsonl_for_pid(&ProcessMeta {
            pid: driver.pid(),
            role: "driver".into(),
            clock_offset_ns: 0,
        });
        assert!(own.contains("\"lease\""));
        assert!(!own.contains("worker.task"));
        let theirs = driver.to_jsonl_for_pid(&meta);
        assert!(theirs.contains("worker.task"));
        assert!(!theirs.contains("\"lease\""));
        assert!(theirs.lines().next().unwrap().contains("\"pid\": 31337"));
    }

    #[test]
    fn seq_orders_events_totally() {
        let t = Tracer::new();
        for _ in 0..10 {
            let _s = t.span("x");
        }
        let events = t.events();
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }
}
