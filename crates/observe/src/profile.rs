//! Continuous span-stack CPU profiler (the `--profile-cpu` flag).
//!
//! A sampling profiler over the *span* stacks the tracer already
//! maintains: every thread publishes its stack of open span names into a
//! seqlock-guarded fixed-size slot, and a background thread samples all
//! slots at a configurable rate (default [`DEFAULT_HZ`] = 97 Hz — prime,
//! so it cannot phase-lock with millisecond-periodic work), classifying
//! each sample on-CPU vs off-CPU from `/proc/self/task/<tid>/stat`.
//! Nothing stops the world:
//!
//! * **Writer side** (the thread entering/leaving a span): two relaxed
//!   stores plus a version bump — the classic seqlock write protocol. The
//!   version is odd while a write is in flight.
//! * **Reader side** (the sampler): read version, copy the frames, re-read
//!   the version; a torn snapshot (odd version or version moved) is
//!   discarded and counted, never folded.
//!
//! Samples fold into collapsed `state;name;name;… count` stacks (the
//! flamegraph.pl / inferno format) with the first frame `oncpu` or
//! `offcpu`, plus per-span `cpu_self_samples` / `cpu_total_samples`
//! aggregates for the BENCH report (schema v3). Pooled workers ship their
//! folded entries over MRW1 and the driver re-roots them under a
//! per-process lane frame (`oncpu;worker0;…`) via [`ingest_folded`].
//!
//! Cost contract: with profiling off, a span entry on a thread that never
//! profiled is one thread-local borrow plus one relaxed atomic load — no
//! slot is allocated, no lock taken, and the sampler thread does not
//! exist. The CI `profile-gate` job holds measured overhead *with*
//! profiling under 5% wall time.

use crate::lock_unpoisoned;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default sampling rate (Hz). Prime, so periodic work cannot alias.
pub const DEFAULT_HZ: u32 = 97;

/// Frames a slot can publish; deeper stacks keep their outermost
/// `MAX_DEPTH` frames (the logical depth still counts past the cap, so
/// pops stay balanced).
const MAX_DEPTH: usize = 64;

/// Global profiling switch. Span entries only *create* slots while this
/// is set; a thread that already owns a slot keeps maintaining it so its
/// stack depth stays correct across start/stop cycles.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Sampling rate of the active profiler, 0 when none is running. Lets
/// subsystems that spawn child processes (the MapReduce driver) mirror
/// the ambient rate into their workers without threading a handle
/// through every layer.
static ACTIVE_HZ: AtomicU32 = AtomicU32::new(0);

/// Rate of the active profiler, `None` when no profiler is running.
pub fn active_hz() -> Option<u32> {
    match ACTIVE_HZ.load(Ordering::SeqCst) {
        0 => None,
        hz => Some(hz),
    }
}

// ------------------------------------------------------------- interning

/// Span names are interned to small ids so slot writes are fixed-size
/// atomic stores. Spans are stage-grained (dozens of distinct names), so
/// the table stays tiny and the lock uncontended.
struct Interner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner { map: HashMap::new(), names: Vec::new() }))
}

fn intern(name: &str) -> u32 {
    let mut i = lock_unpoisoned(interner());
    if let Some(&id) = i.map.get(name) {
        return id;
    }
    let id = i.names.len() as u32;
    i.names.push(name.to_string());
    i.map.insert(name.to_string(), id);
    id
}

fn resolve(id: u32) -> String {
    let i = lock_unpoisoned(interner());
    i.names.get(id as usize).cloned().unwrap_or_else(|| format!("?{id}"))
}

// ------------------------------------------------------------ the seqlock

/// One thread's published span stack. The owning thread is the only
/// writer; the sampler is the only reader. All fields are atomics, so a
/// torn read is detectable garbage, never UB.
pub(crate) struct Slot {
    /// Seqlock version: odd while a write is in flight.
    version: AtomicU64,
    /// Logical stack depth (may exceed `MAX_DEPTH`; readers clamp).
    depth: AtomicUsize,
    /// Interned span-name ids, outermost first.
    frames: [AtomicU32; MAX_DEPTH],
    /// OS thread id for `/proc/self/task/<tid>/stat` (0 = unknown).
    tid: u64,
}

impl Slot {
    fn new(tid: u64) -> Slot {
        Slot {
            version: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            tid,
        }
    }

    /// Writer: push one frame. Owner-thread only.
    pub(crate) fn push(&self, id: u32) {
        let d = self.depth.load(Ordering::Relaxed);
        self.version.fetch_add(1, Ordering::Release); // odd: write begins
        if d < MAX_DEPTH {
            self.frames[d].store(id, Ordering::Relaxed);
        }
        self.depth.store(d + 1, Ordering::Relaxed);
        self.version.fetch_add(1, Ordering::Release); // even: write done
    }

    /// Writer: pop one frame. Depth-0 pops are no-ops (a span that began
    /// before profiling created this slot may close after).
    pub(crate) fn pop(&self) {
        let d = self.depth.load(Ordering::Relaxed);
        if d == 0 {
            return;
        }
        self.version.fetch_add(1, Ordering::Release);
        self.depth.store(d - 1, Ordering::Relaxed);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Reader: snapshot the stack. `None` = torn (write in flight or the
    /// version moved under us) — the caller discards and counts it.
    pub(crate) fn read(&self) -> Option<Vec<u32>> {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 & 1 == 1 {
            return None;
        }
        let d = self.depth.load(Ordering::Relaxed).min(MAX_DEPTH);
        let mut out = Vec::with_capacity(d);
        for f in &self.frames[..d] {
            out.push(f.load(Ordering::Relaxed));
        }
        std::sync::atomic::fence(Ordering::Acquire);
        if self.version.load(Ordering::Relaxed) != v1 {
            return None;
        }
        Some(out)
    }
}

fn slots() -> &'static Mutex<Vec<Arc<Slot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registered slots right now (the acceptance gate: zero until the first
/// span entry under an active profiler).
pub fn slot_count() -> usize {
    lock_unpoisoned(slots()).len()
}

thread_local! {
    /// This thread's slot, created on the first span entry while
    /// profiling is enabled and kept for the thread's lifetime.
    static SLOT: RefCell<Option<Arc<Slot>>> = const { RefCell::new(None) };
}

/// This thread's OS tid via `/proc/thread-self` (no libc). 0 when
/// unavailable (non-Linux) — such samples classify as off-CPU.
fn current_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|f| f.to_string_lossy().into_owned()))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Hook: a span named `name` opened on this thread. Called by the tracer
/// and by tracer-less collector span guards.
pub fn on_span_enter(name: &str) {
    SLOT.with(|cell| {
        let mut cell = cell.borrow_mut();
        if cell.is_none() {
            if !ENABLED.load(Ordering::Relaxed) {
                return;
            }
            let slot = Arc::new(Slot::new(current_tid()));
            lock_unpoisoned(slots()).push(slot.clone());
            *cell = Some(slot);
        }
        let id = intern(name);
        cell.as_ref().expect("slot just ensured").push(id);
    });
}

/// Hook: the innermost span on this thread closed.
pub fn on_span_exit() {
    SLOT.with(|cell| {
        if let Some(slot) = cell.borrow().as_ref() {
            slot.pop();
        }
    });
}

// ------------------------------------------------------------- sampling

/// On-CPU test: state character (field 3 of `/proc/self/task/<tid>/stat`,
/// the first token after the last `)`) equals `R`. Anything unreadable —
/// dead thread, non-Linux — is off-CPU.
fn is_on_cpu(tid: u64) -> bool {
    if tid == 0 {
        return false;
    }
    let Ok(text) = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")) else {
        return false;
    };
    parse_stat_state(&text) == Some('R')
}

/// The state character from `/proc/.../stat` content (split out so the
/// comm-with-parentheses trap is testable).
pub fn parse_stat_state(text: &str) -> Option<char> {
    let rest = text.rfind(')').map(|i| &text[i + 1..])?;
    rest.split_whitespace().next().and_then(|t| t.chars().next())
}

/// Accumulated samples, shared between the sampler thread, the live
/// Stats reader and `stop()`.
#[derive(Default)]
struct Accum {
    /// Collapsed stacks: (interned frames, on-CPU?) → samples.
    folded: HashMap<(Vec<u32>, bool), u64>,
    /// On-CPU samples whose *leaf* was this span.
    self_samples: HashMap<u32, u64>,
    /// On-CPU samples with this span *anywhere* on the stack (deduped
    /// per sample, so recursion cannot double-count).
    total_samples: HashMap<u32, u64>,
    oncpu: u64,
    offcpu: u64,
    torn: u64,
}

/// The active profiler's accumulator, for live reads (`ngs-serve` Stats)
/// and worker-side drains.
fn current() -> &'static Mutex<Option<Arc<Mutex<Accum>>>> {
    static CURRENT: OnceLock<Mutex<Option<Arc<Mutex<Accum>>>>> = OnceLock::new();
    CURRENT.get_or_init(|| Mutex::new(None))
}

/// Folded entries ingested from worker processes, re-rooted under their
/// lane frame; merged into the final [`ProfileData`] at `stop()`.
fn ingested() -> &'static Mutex<BTreeMap<String, u64>> {
    static INGESTED: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    INGESTED.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn sample_once(accum: &Mutex<Accum>) {
    let snapshot: Vec<Arc<Slot>> = lock_unpoisoned(slots()).clone();
    for slot in snapshot {
        let Some(stack) = slot.read() else {
            lock_unpoisoned(accum).torn += 1;
            continue;
        };
        if stack.is_empty() {
            continue; // idle thread: no span context to attribute
        }
        let on = is_on_cpu(slot.tid);
        let mut a = lock_unpoisoned(accum);
        if on {
            a.oncpu += 1;
            let leaf = *stack.last().expect("non-empty");
            *a.self_samples.entry(leaf).or_insert(0) += 1;
            let distinct: BTreeSet<u32> = stack.iter().copied().collect();
            for id in distinct {
                *a.total_samples.entry(id).or_insert(0) += 1;
            }
        } else {
            a.offcpu += 1;
        }
        *a.folded.entry((stack, on)).or_insert(0) += 1;
    }
}

fn render_stack(frames: &[u32], on: bool) -> String {
    let mut key = String::from(if on { "oncpu" } else { "offcpu" });
    for &id in frames {
        key.push(';');
        // Frame names live in the collapsed format's namespace: ';' splits
        // frames and ' ' splits stack from count, so both are mapped out.
        for ch in resolve(id).chars() {
            key.push(match ch {
                ';' | ' ' => '_',
                c => c,
            });
        }
    }
    key
}

/// Per-span on-CPU sample counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuSamples {
    /// Samples where this span was the innermost open span.
    pub self_samples: u64,
    /// Samples with this span anywhere on the stack.
    pub total_samples: u64,
}

/// Everything one profiling session produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileData {
    /// Configured sampling rate.
    pub hz: u32,
    /// Collapsed stacks (`state;frame;… → samples`), including entries
    /// ingested from pooled workers. BTreeMap: rendering is deterministic.
    pub folded: BTreeMap<String, u64>,
    /// Per-span on-CPU attribution, keyed by span name — feeds the BENCH
    /// schema-v3 `cpu_*` fields.
    pub per_span: BTreeMap<String, CpuSamples>,
    /// Total on-CPU samples (locally sampled; ingested lanes excluded).
    pub oncpu_samples: u64,
    /// Total off-CPU samples.
    pub offcpu_samples: u64,
    /// Snapshots discarded by the seqlock check.
    pub torn_samples: u64,
}

impl ProfileData {
    /// Render the collapsed file (one `stack count` line, sorted).
    pub fn to_folded_string(&self) -> String {
        render_folded(&self.folded)
    }
}

/// A running sampler. Singleton: [`start`] refuses a second concurrent
/// profiler (one process profiles one run at a time).
pub struct Profiler {
    stop: Arc<AtomicBool>,
    accum: Arc<Mutex<Accum>>,
    handle: Option<std::thread::JoinHandle<()>>,
    hz: u32,
}

/// Start sampling at `hz` (clamped to ≥ 1). Returns `None` when a
/// profiler is already active.
pub fn start(hz: u32) -> Option<Profiler> {
    if ENABLED.swap(true, Ordering::SeqCst) {
        return None;
    }
    let hz = hz.max(1);
    ACTIVE_HZ.store(hz, Ordering::SeqCst);
    let accum = Arc::new(Mutex::new(Accum::default()));
    *lock_unpoisoned(current()) = Some(accum.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = stop.clone();
        let accum = accum.clone();
        std::thread::Builder::new()
            .name("ngs-cpu-profiler".into())
            .spawn(move || {
                let period = Duration::from_nanos(1_000_000_000 / hz as u64);
                let mut next = Instant::now() + period;
                while !stop.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now < next {
                        // Parked, not slept: `stop` unparks this thread, so
                        // ending a run never waits out a sampling period.
                        // An early wake-up just goes round again.
                        std::thread::park_timeout(next - now);
                        continue;
                    }
                    if now - next >= period {
                        // Fell behind (long stat reads, scheduling): skip
                        // the missed ticks instead of bursting.
                        next = now;
                    }
                    next += period;
                    sample_once(&accum);
                }
            })
            .expect("spawn cpu profiler thread")
    };
    Some(Profiler { stop, accum, handle: Some(handle), hz })
}

impl Profiler {
    /// Configured sampling rate.
    pub fn hz(&self) -> u32 {
        self.hz
    }

    /// Stop the sampler and fold everything — local samples plus entries
    /// ingested from workers — into a [`ProfileData`].
    pub fn stop(mut self) -> ProfileData {
        self.halt();
        let accum = std::mem::take(&mut *lock_unpoisoned(&self.accum));
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for ((frames, on), count) in &accum.folded {
            *folded.entry(render_stack(frames, *on)).or_insert(0) += count;
        }
        for (stack, count) in std::mem::take(&mut *lock_unpoisoned(ingested())) {
            *folded.entry(stack).or_insert(0) += count;
        }
        let mut per_span: BTreeMap<String, CpuSamples> = BTreeMap::new();
        for (&id, &n) in &accum.total_samples {
            per_span.entry(resolve(id)).or_default().total_samples = n;
        }
        for (&id, &n) in &accum.self_samples {
            per_span.entry(resolve(id)).or_default().self_samples = n;
        }
        ProfileData {
            hz: self.hz,
            folded,
            per_span,
            oncpu_samples: accum.oncpu,
            offcpu_samples: accum.offcpu,
            torn_samples: accum.torn,
        }
    }
}

impl Profiler {
    /// Wake and join the sampler thread, then release the singleton.
    /// Idempotent: [`Profiler::stop`] runs it, and so does `Drop`.
    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        ACTIVE_HZ.store(0, Ordering::SeqCst);
        ENABLED.store(false, Ordering::SeqCst);
        *lock_unpoisoned(current()) = None;
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Live top-`n` spans by on-CPU self samples from the *active* profiler
/// (empty when none is running) — the `ngs-serve` Stats feed. Ties break
/// by name so the ranking is stable.
pub fn top_self_cpu(n: usize) -> Vec<(String, u64)> {
    let Some(accum) = lock_unpoisoned(current()).clone() else {
        return Vec::new();
    };
    let a = lock_unpoisoned(&accum);
    let mut rows: Vec<(String, u64)> =
        a.self_samples.iter().map(|(&id, &c)| (resolve(id), c)).collect();
    drop(a);
    rows.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
    rows.truncate(n);
    rows
}

/// Drain the active profiler's folded stacks as `(stack, count)` rows —
/// the worker-side shipping primitive (each `Done`/`Drain` reply carries
/// the samples accumulated since the last drain, so worker memory stays
/// bounded). Per-span aggregates are left in place. Empty when no
/// profiler is active.
pub fn drain_folded() -> Vec<(String, u64)> {
    let Some(accum) = lock_unpoisoned(current()).clone() else {
        return Vec::new();
    };
    let taken = std::mem::take(&mut lock_unpoisoned(&accum).folded);
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for ((frames, on), count) in &taken {
        *out.entry(render_stack(frames, *on)).or_insert(0) += count;
    }
    out.into_iter().collect()
}

/// Driver-side ingest of a worker's drained profile: each stack is
/// re-rooted under `lane` right after its `oncpu`/`offcpu` frame
/// (`oncpu;closet.sketch` from worker 0 becomes `oncpu;worker0;
/// closet.sketch`), giving the merged flamegraph one lane per process.
pub fn ingest_folded(lane: &str, entries: &[(String, u64)]) {
    if entries.is_empty() {
        return;
    }
    let mut ing = lock_unpoisoned(ingested());
    for (stack, count) in entries {
        let laned = match stack.split_once(';') {
            Some((state, rest)) => format!("{state};{lane};{rest}"),
            None => format!("{stack};{lane}"),
        };
        *ing.entry(laned).or_insert(0) += count;
    }
}

// ------------------------------------------------- collapsed-file tooling

/// Render a folded map as collapsed text (sorted, newline-terminated).
pub fn render_folded(folded: &BTreeMap<String, u64>) -> String {
    let mut out = String::with_capacity(folded.len() * 48);
    for (stack, count) in folded {
        writeln!(out, "{stack} {count}").unwrap();
    }
    out
}

/// Parse collapsed text (`stack count` per line). Typed errors name the
/// offending line.
pub fn parse_folded(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: expected \"stack count\", got {line:?}", i + 1));
        };
        let count: u64 = count
            .parse()
            .map_err(|_| format!("line {}: sample count {count:?} is not a number", i + 1))?;
        *out.entry(stack.to_string()).or_insert(0) += count;
    }
    Ok(out)
}

/// Merge folded maps by summing counts per stack. Commutative and
/// associative, and the BTreeMap keeps rendering byte-identical under any
/// input permutation.
pub fn merge_folded<I: IntoIterator<Item = BTreeMap<String, u64>>>(
    maps: I,
) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for map in maps {
        for (stack, count) in map {
            *out.entry(stack).or_insert(0u64) += count;
        }
    }
    out
}

// ------------------------------------------------------ flamegraph (SVG)

#[derive(Default)]
struct Node {
    count: u64,
    children: BTreeMap<String, Node>,
}

fn insert_stack(root: &mut Node, frames: &[&str], count: u64) {
    let mut node = root;
    node.count += count;
    for &f in frames {
        node = node.children.entry(f.to_string()).or_default();
        node.count += count;
    }
}

fn tree_depth(node: &Node) -> usize {
    1 + node.children.values().map(tree_depth).max().unwrap_or(0)
}

fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Deterministic frame colour: warm palette keyed by name hash; the two
/// state roots get fixed semantic colours.
fn frame_color(name: &str) -> String {
    match name {
        "oncpu" => "#c8503c".to_string(),
        "offcpu" => "#4a6d8c".to_string(),
        _ => {
            let h = fnv1a(name);
            let r = 190 + (h % 60) as u32;
            let g = 90 + ((h >> 8) % 90) as u32;
            let b = 30 + ((h >> 16) % 40) as u32;
            format!("#{r:02x}{g:02x}{b:02x}")
        }
    }
}

const SVG_WIDTH: f64 = 1200.0;
const FRAME_H: f64 = 16.0;
const HEADER_H: f64 = 24.0;

fn render_node(
    out: &mut String,
    name: &str,
    node: &Node,
    x: f64,
    depth: usize,
    per_sample: f64,
    total: u64,
) -> f64 {
    let w = node.count as f64 * per_sample;
    let y = HEADER_H + depth as f64 * FRAME_H;
    let pct = 100.0 * node.count as f64 / total.max(1) as f64;
    let title = format!("{name} ({} samples, {pct:.1}%)", node.count);
    write!(
        out,
        "<g><title>{}</title><rect x=\"{:.2}\" y=\"{:.1}\" width=\"{:.2}\" height=\"{:.1}\" \
         fill=\"{}\" stroke=\"#ffffff\" stroke-width=\"0.5\"/>",
        xml_escape(&title),
        x,
        y,
        w.max(0.1),
        FRAME_H,
        frame_color(name)
    )
    .unwrap();
    if w >= 30.0 {
        // ~6.6 px per character at font-size 11 monospace.
        let fit = ((w - 4.0) / 6.6) as usize;
        let label: String = name.chars().take(fit).collect();
        write!(
            out,
            "<text x=\"{:.2}\" y=\"{:.1}\" font-size=\"11\" fill=\"#000000\">{}</text>",
            x + 2.0,
            y + FRAME_H - 4.0,
            xml_escape(&label)
        )
        .unwrap();
    }
    out.push_str("</g>\n");
    let mut cx = x;
    for (child_name, child) in &node.children {
        cx = render_node(out, child_name, child, cx, depth + 1, per_sample, total);
    }
    x + w
}

/// Render a folded profile as a self-contained SVG flamegraph (icicle
/// layout, deterministic: frames at each level in name order). No
/// external resources, no scripts — viewable anywhere.
pub fn flamegraph_svg(folded: &BTreeMap<String, u64>) -> String {
    let mut root = Node::default();
    for (stack, &count) in folded {
        let frames: Vec<&str> = stack.split(';').collect();
        insert_stack(&mut root, &frames, count);
    }
    let total = root.count;
    let depth = tree_depth(&root) - 1; // root itself is not drawn
    let height = HEADER_H + depth.max(1) as f64 * FRAME_H + 4.0;
    let mut out = String::with_capacity(folded.len() * 256);
    write!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {SVG_WIDTH} {height}\" font-family=\"monospace\">\n\
         <rect x=\"0\" y=\"0\" width=\"{SVG_WIDTH}\" height=\"{height}\" fill=\"#fdf6ec\"/>\n\
         <text x=\"4\" y=\"16\" font-size=\"12\" fill=\"#000000\">ngs cpu profile \
         ({total} samples)</text>\n"
    )
    .unwrap();
    if total > 0 {
        let per_sample = SVG_WIDTH / total as f64;
        let mut x = 0.0;
        for (name, child) in &root.children {
            x = render_node(&mut out, name, child, x, 0, per_sample, total);
        }
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiler start/stop mutates process-global state (ENABLED, the
    /// slot registry); tests that use it serialise here.
    fn profiler_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        lock_unpoisoned(LOCK.get_or_init(|| Mutex::new(())))
    }

    #[test]
    fn seqlock_storm_accepted_snapshots_are_prefix_consistent() {
        // Writer cycles a known nested push/pop sequence at full speed;
        // every accepted snapshot must be a prefix of [1, 2, 3] — a
        // non-prefix snapshot means a torn read slipped the version check.
        let slot = Arc::new(Slot::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let slot = slot.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    slot.push(1);
                    slot.push(2);
                    slot.push(3);
                    slot.pop();
                    slot.pop();
                    slot.pop();
                }
            })
        };
        let mut accepted = 0u64;
        let mut torn = 0u64;
        let deadline = Instant::now() + Duration::from_millis(200);
        while Instant::now() < deadline {
            match slot.read() {
                None => torn += 1,
                Some(stack) => {
                    accepted += 1;
                    assert!(
                        stack.len() <= 3
                            && stack.iter().enumerate().all(|(i, &f)| f as usize == i + 1),
                        "non-prefix snapshot accepted: {stack:?}"
                    );
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert!(accepted > 0, "reader starved: {torn} torn, 0 accepted");
    }

    #[test]
    fn deep_stacks_clamp_but_stay_balanced() {
        let slot = Slot::new(0);
        for i in 0..(MAX_DEPTH as u32 + 10) {
            slot.push(i);
        }
        let stack = slot.read().unwrap();
        assert_eq!(stack.len(), MAX_DEPTH);
        assert_eq!(stack[0], 0);
        for _ in 0..(MAX_DEPTH + 10) {
            slot.pop();
        }
        assert!(slot.read().unwrap().is_empty());
        slot.pop(); // depth-0 pop is a no-op
        assert!(slot.read().unwrap().is_empty());
    }

    #[test]
    fn profiler_attributes_samples_to_open_spans() {
        let _guard = profiler_lock();
        let p = start(500).expect("no other profiler active");
        assert!(start(500).is_none(), "singleton: second start refused");
        on_span_enter("t.outer");
        on_span_enter("t.inner");
        // Busy-spin so the thread is likely R when sampled.
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(120) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        on_span_exit();
        on_span_exit();
        let data = p.stop();
        let total = data.oncpu_samples + data.offcpu_samples;
        assert!(total > 0, "no samples in 120ms at 500Hz");
        let inner = data.per_span.get("t.inner").copied().unwrap_or_default();
        let outer = data.per_span.get("t.outer").copied().unwrap_or_default();
        assert!(inner.self_samples <= inner.total_samples);
        assert!(outer.total_samples >= inner.total_samples, "outer contains inner");
        assert!(
            data.folded.keys().any(|k| k.contains("t.outer;t.inner")),
            "folded stack records the nesting: {:?}",
            data.folded
        );
        // After stop: hooks with no slot creation, and folded render parses.
        let parsed = parse_folded(&data.to_folded_string()).unwrap();
        assert_eq!(parsed, data.folded);
    }

    #[test]
    fn disabled_profiler_creates_no_slots_on_fresh_threads() {
        let _guard = profiler_lock();
        let before = slot_count();
        std::thread::spawn(|| {
            on_span_enter("off.span");
            on_span_exit();
        })
        .join()
        .unwrap();
        assert_eq!(slot_count(), before, "no slot without an active profiler");
    }

    #[test]
    fn ingest_re_roots_under_the_lane_frame() {
        let _guard = profiler_lock();
        let p = start(1).unwrap();
        ingest_folded("worker0", &[("oncpu;closet.sketch".into(), 5)]);
        ingest_folded("worker1", &[("offcpu;closet.validate".into(), 2)]);
        ingest_folded("worker0", &[("oncpu;closet.sketch".into(), 3)]);
        let data = p.stop();
        assert_eq!(data.folded.get("oncpu;worker0;closet.sketch"), Some(&8));
        assert_eq!(data.folded.get("offcpu;worker1;closet.validate"), Some(&2));
    }

    #[test]
    fn folded_round_trip_and_merge_are_deterministic() {
        let a = parse_folded("oncpu;x;y 3\noncpu;x 1\n").unwrap();
        let b = parse_folded("offcpu;z 7\noncpu;x;y 2\n").unwrap();
        let ab = merge_folded([a.clone(), b.clone()]);
        let ba = merge_folded([b, a]);
        assert_eq!(ab, ba, "merge is permutation-invariant");
        assert_eq!(render_folded(&ab), render_folded(&ba), "rendering byte-identical");
        assert_eq!(ab["oncpu;x;y"], 5);
        assert_eq!(ab["offcpu;z"], 7);
    }

    #[test]
    fn folded_parse_errors_are_typed() {
        let err = parse_folded("oncpu;x\n").unwrap_err();
        assert!(err.contains("line 1"), "got: {err}");
        let err = parse_folded("oncpu;x notanumber\n").unwrap_err();
        assert!(err.contains("not a number"), "got: {err}");
    }

    #[test]
    fn flamegraph_svg_is_self_contained_and_deterministic() {
        let folded =
            parse_folded("oncpu;run;correct 75\noncpu;run;build 20\noffcpu;run 5\n").unwrap();
        let svg = flamegraph_svg(&folded);
        let again = flamegraph_svg(&folded);
        assert_eq!(svg, again, "render is deterministic");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("correct"));
        assert!(svg.contains("100 samples"));
        // The xmlns declaration is the single URI in the document — no
        // external stylesheets, fonts or images.
        assert_eq!(svg.matches("http").count(), 1);
        assert!(!svg.contains("<script"));
        // Empty profile still renders a valid document.
        let empty = flamegraph_svg(&BTreeMap::new());
        assert!(empty.starts_with("<svg") && empty.ends_with("</svg>\n"));
    }

    #[test]
    fn stat_state_parses_after_last_paren() {
        let line = "1234 (my (weird) proc) R 1 1 1 0 -1 4194560";
        assert_eq!(parse_stat_state(line), Some('R'));
        assert_eq!(parse_stat_state("77 (x) S 0 0"), Some('S'));
        assert_eq!(parse_stat_state("no parens"), None);
    }

    #[test]
    fn stack_rendering_escapes_separator_characters() {
        let id = intern("weird name;with=sep");
        let key = render_stack(&[id], true);
        assert_eq!(key, "oncpu;weird_name_with=sep");
        parse_folded(&format!("{key} 3\n")).unwrap();
    }
}
