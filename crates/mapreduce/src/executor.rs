//! Multi-process worker-pool executor.
//!
//! The in-process engine ([`crate::map_reduce`]) survives task panics but
//! not process death: one SIGKILL or OOM-kill takes the whole job. This
//! module runs the same dataflow across N worker *processes* joined to a
//! driver over a Unix socket ([`crate::transport`]), so a dead worker
//! costs one task attempt, not the job:
//!
//! * the driver leases task attempts to workers and collects results;
//! * workers heartbeat from a dedicated thread; a worker silent past its
//!   deadline is declared dead (SIGKILLed if still running) and its lease
//!   reassigned to a healthy worker;
//! * dead workers are respawned with jittered exponential backoff up to a
//!   bounded budget, reusing [`JobConfig::max_attempts`] semantics for the
//!   task attempts themselves so [`JobStats`] accounting carries over;
//! * every payload is checksummed twice (outer frame + inner record
//!   frames): a worker killed mid-write surfaces as a torn frame and a
//!   retry, never as corrupt output.
//!
//! Closures cannot cross a process boundary, so pooled jobs are written
//! as [`MapReduceSpec`] implementations: named, serializable task
//! definitions that a worker process rebuilds from a [`JobRegistry`].
//! Determinism is preserved exactly — same chunking, same partitioner,
//! same stable sorts, outputs joined in task order — so a pooled run is
//! byte-identical to [`run_local`] on the same spec, which the kill-matrix
//! tests assert under SIGKILL at every (stage, task) coordinate.

use crate::codec::{decode_frames, encode_frames, verify_frames, Codec};
use crate::counters::JobStats;
use crate::fault::{FaultKind, FaultPlan, Stage};
use crate::job::{
    backoff_with_jitter, combine_partition, hash_one, reduce_sorted, JobConfig, JobError,
};
use crate::protocol::{Message, ProtocolError};
use crate::transport::{bind_socket, scratch_socket_path, FrameConn};
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A named, serializable MapReduce task definition that can be shipped to
/// a worker process and rebuilt there from a [`JobRegistry`].
pub trait MapReduceSpec: Send + Sync + Sized + 'static {
    /// Input record type.
    type I: Codec + Send + Sync + 'static;
    /// Intermediate key.
    type K: Ord + Hash + Clone + Send + Sync + Codec + 'static;
    /// Intermediate value.
    type V: Send + Sync + Codec + 'static;
    /// Output record type.
    type O: Codec + Send + 'static;

    /// Registry name; must be identical in driver and worker binaries.
    const NAME: &'static str;

    /// Serialize this spec's parameters for the `Setup` frame.
    fn to_bytes(&self) -> Vec<u8>;

    /// Rebuild the spec in a worker. `None` fails the worker's setup.
    fn from_bytes(bytes: &[u8]) -> Option<Self>;

    /// The mapper (same contract as [`crate::map_reduce`]).
    fn map(&self, record: &Self::I, emit: &mut dyn FnMut(Self::K, Self::V));

    /// Whether map output is folded through [`MapReduceSpec::combine`].
    fn use_combiner(&self) -> bool {
        false
    }

    /// Local aggregation of one key run (only called when
    /// [`MapReduceSpec::use_combiner`] is true).
    fn combine(&self, _key: &Self::K, _vals: &mut Vec<Self::V>) {}

    /// The reducer (same contract as [`crate::map_reduce`]).
    fn reduce(&self, key: &Self::K, values: Vec<Self::V>, emit: &mut dyn FnMut(Self::O));
}

/// Output of a type-erased map task.
struct MapOut {
    partitions: Vec<Vec<u8>>,
    emitted: u64,
    combined: u64,
}

/// Object-safe face of a [`MapReduceSpec`], operating purely on
/// inner-framed bytes so the worker loop needs no type knowledge.
trait SpecRunner: Send + Sync {
    fn map_task(&self, input: &[u8], parts: usize) -> Result<MapOut, String>;
    fn shuffle_task(&self, input: &[u8]) -> Result<Vec<u8>, String>;
    fn reduce_task(&self, input: &[u8]) -> Result<(Vec<u8>, u64), String>;
}

struct TypedRunner<S: MapReduceSpec> {
    spec: S,
}

impl<S: MapReduceSpec> SpecRunner for TypedRunner<S> {
    fn map_task(&self, input: &[u8], parts: usize) -> Result<MapOut, String> {
        let records = decode_frames::<S::I>(input).map_err(|e| format!("map input: {e}"))?;
        let mut partitions: Vec<Vec<(S::K, S::V)>> = (0..parts).map(|_| Vec::new()).collect();
        let mut emitted = 0u64;
        for record in &records {
            self.spec.map(record, &mut |k: S::K, v: S::V| {
                let p = (hash_one(&k) % parts as u64) as usize;
                partitions[p].push((k, v));
                emitted += 1;
            });
        }
        let mut combined = emitted;
        if self.spec.use_combiner() {
            combined = 0;
            let comb = |k: &S::K, vs: &mut Vec<S::V>| self.spec.combine(k, vs);
            for part in &mut partitions {
                combined += combine_partition(part, &comb) as u64;
            }
        }
        Ok(MapOut {
            partitions: partitions.iter().map(|p| encode_frames(p)).collect(),
            emitted,
            combined,
        })
    }

    fn shuffle_task(&self, input: &[u8]) -> Result<Vec<u8>, String> {
        let mut part =
            decode_frames::<(S::K, S::V)>(input).map_err(|e| format!("shuffle input: {e}"))?;
        // Stable sort: equal keys keep map-task order, matching the
        // in-process shuffle exactly.
        part.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(encode_frames(&part))
    }

    fn reduce_task(&self, input: &[u8]) -> Result<(Vec<u8>, u64), String> {
        let part =
            decode_frames::<(S::K, S::V)>(input).map_err(|e| format!("reduce input: {e}"))?;
        let reducer =
            |k: &S::K, vs: Vec<S::V>, emit: &mut dyn FnMut(S::O)| self.spec.reduce(k, vs, emit);
        let (out, groups) = reduce_sorted(&part, &reducer);
        Ok((encode_frames(&out), groups))
    }
}

type Factory = fn(&[u8]) -> Option<Box<dyn SpecRunner>>;

fn factory<S: MapReduceSpec>(bytes: &[u8]) -> Option<Box<dyn SpecRunner>> {
    S::from_bytes(bytes).map(|spec| Box::new(TypedRunner { spec }) as Box<dyn SpecRunner>)
}

/// Name → spec factory table a worker process uses to rebuild the job it
/// was asked to run. The driver and worker binaries must register the
/// same specs (a worker binary is just `JobRegistry` + [`worker_main`]).
#[derive(Clone, Default)]
pub struct JobRegistry {
    factories: std::collections::BTreeMap<String, Factory>,
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> JobRegistry {
        JobRegistry::default()
    }

    /// A registry with the built-in specs (currently [`WordCountSpec`]).
    pub fn with_builtins() -> JobRegistry {
        let mut reg = JobRegistry::new();
        reg.register::<WordCountSpec>();
        reg
    }

    /// Register a spec type under its [`MapReduceSpec::NAME`].
    pub fn register<S: MapReduceSpec>(&mut self) {
        self.factories.insert(S::NAME.to_string(), factory::<S>);
    }

    /// True when `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    fn make(&self, name: &str, bytes: &[u8]) -> Option<Box<dyn SpecRunner>> {
        self.factories.get(name).and_then(|f| f(bytes))
    }
}

/// The built-in word-count spec (used by tests and as a reference
/// implementation: one line of input per record, counts per word).
pub struct WordCountSpec;

impl MapReduceSpec for WordCountSpec {
    type I = String;
    type K = String;
    type V = u64;
    type O = (String, u64);

    const NAME: &'static str = "builtin.wordcount";

    fn to_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    fn from_bytes(bytes: &[u8]) -> Option<WordCountSpec> {
        bytes.is_empty().then_some(WordCountSpec)
    }

    fn map(&self, record: &String, emit: &mut dyn FnMut(String, u64)) {
        for w in record.split_whitespace() {
            emit(w.to_string(), 1);
        }
    }

    fn use_combiner(&self) -> bool {
        true
    }

    fn combine(&self, _key: &String, vals: &mut Vec<u64>) {
        let total: u64 = vals.iter().sum();
        vals.clear();
        vals.push(total);
    }

    fn reduce(&self, key: &String, values: Vec<u64>, emit: &mut dyn FnMut((String, u64))) {
        emit((key.clone(), values.iter().sum()));
    }
}

/// Pool shape and liveness policy for [`run_pooled`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker processes to keep alive.
    pub workers: usize,
    /// Command to spawn one worker: argv prefix; the driver appends the
    /// socket path and the worker id. Empty = *thread mode*: workers run
    /// as in-process threads speaking the same protocol (used by tests;
    /// process faults degrade to torn-frame + disconnect).
    pub worker_cmd: Vec<String>,
    /// How often workers must heartbeat.
    pub heartbeat_interval: Duration,
    /// Silence longer than this declares the worker dead.
    pub heartbeat_timeout: Duration,
    /// A task attempt leased longer than this is reassigned (its worker
    /// is declared dead first).
    pub lease_timeout: Duration,
    /// Replacement workers the pool may spawn per slot before giving up.
    pub max_respawns: u32,
    /// Directory for the pool's Unix socket (default: system temp dir).
    pub socket_dir: Option<PathBuf>,
}

impl PoolConfig {
    /// Thread-mode pool with `workers` workers and default liveness policy.
    pub fn with_workers(workers: usize) -> PoolConfig {
        PoolConfig {
            workers: workers.max(1),
            worker_cmd: Vec::new(),
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_secs(2),
            lease_timeout: Duration::from_secs(60),
            max_respawns: 4,
            socket_dir: None,
        }
    }

    /// Process-mode pool spawning workers via `cmd` (argv prefix).
    pub fn with_worker_cmd(workers: usize, cmd: Vec<String>) -> PoolConfig {
        PoolConfig { worker_cmd: cmd, ..PoolConfig::with_workers(workers) }
    }
}

/// Run `spec` on the in-process engine — the byte-identical reference for
/// [`run_pooled`], and the fallback when no pool is configured.
pub fn run_local<S: MapReduceSpec>(
    spec: &S,
    input: &[S::I],
    cfg: &JobConfig,
) -> Result<(Vec<S::O>, JobStats), JobError> {
    let mapper = |rec: &S::I, emit: &mut dyn FnMut(S::K, S::V)| spec.map(rec, emit);
    let reducer = |k: &S::K, vs: Vec<S::V>, emit: &mut dyn FnMut(S::O)| spec.reduce(k, vs, emit);
    if spec.use_combiner() {
        let comb = |k: &S::K, vs: &mut Vec<S::V>| spec.combine(k, vs);
        crate::job::map_reduce(cfg, input, mapper, Some(&comb), reducer)
    } else {
        crate::job::map_reduce(cfg, input, mapper, None, reducer)
    }
}

// ---------------------------------------------------------------------------
// Driver side
// ---------------------------------------------------------------------------

/// Events the scheduler thread consumes.
enum Event {
    /// A new connection was accepted (not yet identified).
    Conn(std::os::unix::net::UnixStream),
    /// A message arrived on connection `conn_id`.
    Msg(u64, Message),
    /// Connection `conn_id`'s reader ended with `err`.
    Gone(u64, ProtocolError),
}

/// A task attempt leased to a worker.
struct Lease {
    task: usize,
    attempt: u32,
    started: Instant,
    span: Option<ngs_observe::SpanId>,
    /// Driver-tracer timestamp at which `span` began — the lower clamp
    /// bound when the worker's trace chunk is stitched under it.
    span_begin_ns: u64,
}

/// One worker slot: at most one live worker (process or thread) at a time,
/// respawned in place when it dies.
struct Slot {
    child: Option<std::process::Child>,
    conn: Option<FrameConn>,
    conn_id: Option<u64>,
    ready: bool,
    dead: bool,
    last_beat: Instant,
    lease: Option<Lease>,
    respawns_left: u32,
    span: Option<ngs_observe::SpanId>,
    /// OS pid the worker reported in `Hello` (its own pid in thread mode).
    pid: u64,
    /// Estimated ns to add to this worker's trace timestamps to land on
    /// the driver's tracer timeline (see the `Hello` handshake).
    clock_offset_ns: i64,
    /// Driver-tracer timestamp at which the worker's span began.
    span_begin_ns: u64,
}

/// Result of one finished task attempt.
struct DoneOut {
    output: Vec<Vec<u8>>,
    emitted: u64,
    combined: u64,
    groups: u64,
}

/// Per-stage scheduling state.
struct StageState {
    stage: Stage,
    tasks: Vec<TaskSlot>,
    done: usize,
}

struct TaskSlot {
    input: Vec<u8>,
    attempt: u32,
    not_before: Instant,
    assigned: bool,
    result: Option<DoneOut>,
}

fn span_path(stage: Stage) -> &'static str {
    match stage {
        Stage::Map => "mapreduce.task.map",
        Stage::Shuffle => "mapreduce.task.shuffle",
        Stage::Reduce => "mapreduce.task.reduce",
    }
}

struct Pool<'a> {
    cfg: &'a JobConfig,
    pcfg: &'a PoolConfig,
    setup: Message,
    socket_path: PathBuf,
    tx: Sender<Event>,
    events: Receiver<Event>,
    accept_stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    slots: Vec<Slot>,
    slot_of_conn: HashMap<u64, usize>,
    pending_conns: HashMap<u64, FrameConn>,
    next_conn_id: u64,
    registry: Arc<JobRegistry>,
    tracer: Option<Arc<ngs_observe::Tracer>>,
    job_span: Option<ngs_observe::SpanId>,
    // Fault-tolerance tallies folded into JobStats at the end.
    task_failures: u64,
    retried: std::collections::BTreeSet<(u8, usize)>,
    corrupt_frames: u64,
    worker_deaths: u64,
    workers_respawned: u64,
    tasks_reassigned: u64,
}

#[cfg(test)]
thread_local! {
    /// Test-only latch: while set, pools driven from this thread lease no
    /// task before every worker has finished its handshake. A job small
    /// enough to end before a slow worker's `Hello` would otherwise never
    /// see that worker, and tests that count per-worker spans would depend
    /// on the scheduler.
    static LEASE_AFTER_FULL_HANDSHAKE: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

impl<'a> Pool<'a> {
    fn start(
        cfg: &'a JobConfig,
        pcfg: &'a PoolConfig,
        setup: Message,
        registry: Arc<JobRegistry>,
    ) -> Result<Pool<'a>, JobError> {
        let fail =
            |msg: String| JobError { stage: Stage::Map, task: 0, attempts: 0, last_error: msg };
        let socket_path = scratch_socket_path(pcfg.socket_dir.as_deref(), "drv");
        let listener = bind_socket(&socket_path)
            .map_err(|e| fail(format!("bind {}: {e}", socket_path.display())))?;
        let (tx, events) = std::sync::mpsc::channel();
        let accept_stop = Arc::new(AtomicBool::new(false));
        let accept_handle = {
            let tx = tx.clone();
            let stop = accept_stop.clone();
            std::thread::spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::Relaxed) || tx.send(Event::Conn(stream)).is_err() {
                        break;
                    }
                }
            })
        };
        let tracer = cfg
            .trace
            .as_ref()
            .map(|c| c.tracer().clone())
            .or_else(|| cfg.collector.as_ref().and_then(|c| c.tracer().cloned()))
            .filter(|t| t.is_enabled());
        let job_span = tracer.as_ref().map(|t| match cfg.trace.as_ref() {
            Some(ctx) => t.begin_under("mapreduce.job", ctx.parent()),
            None => t.begin("mapreduce.job"),
        });
        let n = pcfg.workers.max(1);
        let mut pool = Pool {
            cfg,
            pcfg,
            setup,
            socket_path,
            tx,
            events,
            accept_stop,
            accept_handle: Some(accept_handle),
            slots: (0..n)
                .map(|_| Slot {
                    child: None,
                    conn: None,
                    conn_id: None,
                    ready: false,
                    dead: false,
                    last_beat: Instant::now(),
                    lease: None,
                    respawns_left: pcfg.max_respawns,
                    span: None,
                    pid: 0,
                    clock_offset_ns: 0,
                    span_begin_ns: 0,
                })
                .collect(),
            slot_of_conn: HashMap::new(),
            pending_conns: HashMap::new(),
            next_conn_id: 0,
            registry,
            tracer,
            job_span,
            task_failures: 0,
            retried: std::collections::BTreeSet::new(),
            corrupt_frames: 0,
            worker_deaths: 0,
            workers_respawned: 0,
            tasks_reassigned: 0,
        };
        for idx in 0..n {
            if let Err(e) = pool.spawn_worker(idx) {
                pool.teardown();
                return Err(fail(e));
            }
        }
        Ok(pool)
    }

    /// Launch a worker (process or thread) into slot `idx`.
    fn spawn_worker(&mut self, idx: usize) -> Result<(), String> {
        let slot = &mut self.slots[idx];
        slot.ready = false;
        slot.conn = None;
        slot.conn_id = None;
        slot.last_beat = Instant::now();
        if self.pcfg.worker_cmd.is_empty() {
            // Thread mode: an in-process worker speaking the same protocol.
            let path = self.socket_path.clone();
            let registry = self.registry.clone();
            std::thread::spawn(move || {
                if let Ok(conn) = FrameConn::connect(&path) {
                    worker_loop(conn, &registry, idx as u64, false);
                }
            });
        } else {
            let mut cmd = std::process::Command::new(&self.pcfg.worker_cmd[0]);
            cmd.args(&self.pcfg.worker_cmd[1..])
                .arg(&self.socket_path)
                .arg(idx.to_string())
                .stdin(std::process::Stdio::null());
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawn worker {idx} ({}): {e}", self.pcfg.worker_cmd[0]))?;
            self.slots[idx].child = Some(child);
        }
        Ok(())
    }

    /// Declare slot `idx`'s worker dead: SIGKILL + reap any process, close
    /// the socket, fail + requeue its lease, respawn if budget remains.
    fn on_worker_death(
        &mut self,
        idx: usize,
        st: &mut StageState,
        why: &str,
    ) -> Result<(), JobError> {
        if self.slots[idx].dead && self.slots[idx].conn.is_none() {
            return Ok(());
        }
        self.worker_deaths += 1;
        if let Some(c) = self.cfg.collector.as_deref() {
            c.incr("mapreduce.worker_deaths");
        }
        let slot = &mut self.slots[idx];
        if let Some(mut child) = slot.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(conn) = slot.conn.take() {
            conn.shutdown();
        }
        if let Some(cid) = slot.conn_id.take() {
            self.slot_of_conn.remove(&cid);
        }
        slot.ready = false;
        if let (Some(t), Some(span)) = (self.tracer.as_ref(), slot.span.take()) {
            t.instant_under("mapreduce.worker.died", span, why);
            t.end(span);
        }
        let lease = self.slots[idx].lease.take();
        if let Some(lease) = lease {
            self.tasks_reassigned += 1;
            if let Some(t) = self.tracer.as_ref() {
                if let Some(span) = lease.span {
                    t.end(span);
                }
            }
            self.fail_attempt(st, lease.task, lease.attempt, &format!("worker {idx} died: {why}"))?;
        }
        // Bounded respawn with jittered backoff: the sleep is tiny (base
        // retry_backoff) and happens at most max_respawns times per slot.
        let slot = &mut self.slots[idx];
        if slot.respawns_left > 0 {
            slot.respawns_left -= 1;
            let used = self.pcfg.max_respawns - slot.respawns_left;
            std::thread::sleep(backoff_with_jitter(self.cfg.retry_backoff, used, st.stage, idx));
            self.workers_respawned += 1;
            if let Some(c) = self.cfg.collector.as_deref() {
                c.incr("mapreduce.workers_respawned");
            }
            self.spawn_worker(idx).map_err(|e| JobError {
                stage: st.stage,
                task: 0,
                attempts: 0,
                last_error: e,
            })?;
        } else {
            slot.dead = true;
            if self.slots.iter().all(|s| s.dead) {
                let task = st.tasks.iter().position(|t| t.result.is_none()).unwrap_or(0);
                return Err(JobError {
                    stage: st.stage,
                    task,
                    attempts: st.tasks.get(task).map_or(0, |t| t.attempt),
                    last_error: "worker pool exhausted: every slot is out of respawns".into(),
                });
            }
        }
        Ok(())
    }

    /// Record one failed attempt of `task`; requeue it (with jittered
    /// backoff) or fail the job when attempts are exhausted.
    fn fail_attempt(
        &mut self,
        st: &mut StageState,
        task: usize,
        attempt: u32,
        error: &str,
    ) -> Result<(), JobError> {
        self.task_failures += 1;
        if let Some(c) = self.cfg.collector.as_deref() {
            c.incr("mapreduce.task_failures");
        }
        if let (Some(t), Some(parent)) = (self.tracer.as_ref(), self.job_span) {
            let mut msg = format!("task={task} attempt={attempt} error={error}");
            msg.truncate(200);
            t.instant_under("mapreduce.task.failed", parent, &msg);
        }
        let next = attempt + 1;
        if next >= self.cfg.max_attempts.max(1) {
            return Err(JobError {
                stage: st.stage,
                task,
                attempts: next,
                last_error: error.to_string(),
            });
        }
        let ts = &mut st.tasks[task];
        ts.attempt = next;
        ts.assigned = false;
        ts.not_before =
            Instant::now() + backoff_with_jitter(self.cfg.retry_backoff, next, st.stage, task);
        Ok(())
    }

    /// Hand every ready task to an idle live worker.
    fn try_assign(
        &mut self,
        st: &mut StageState,
        stage_span: Option<ngs_observe::SpanId>,
    ) -> Result<(), JobError> {
        #[cfg(test)]
        if LEASE_AFTER_FULL_HANDSHAKE.get() && !self.slots.iter().all(|s| s.ready || s.dead) {
            return Ok(());
        }
        loop {
            let now = Instant::now();
            let Some(task) = st
                .tasks
                .iter()
                .position(|t| t.result.is_none() && !t.assigned && t.not_before <= now)
            else {
                return Ok(());
            };
            let Some(widx) = self
                .slots
                .iter()
                .position(|s| s.ready && !s.dead && s.lease.is_none() && s.conn.is_some())
            else {
                return Ok(());
            };
            let attempt = st.tasks[task].attempt;
            let span = self.tracer.as_ref().zip(stage_span).map(|(t, parent)| {
                t.begin_under_detail(
                    span_path(st.stage),
                    parent,
                    &format!("task={task} attempt={attempt} worker={widx}"),
                )
            });
            let msg = Message::Task {
                stage: st.stage.code(),
                task: task as u64,
                attempt,
                trace_span: span.map_or(0, |s| s.as_u64()),
                input: st.tasks[task].input.clone(),
            };
            st.tasks[task].assigned = true;
            let span_begin_ns = self.tracer.as_ref().map_or(0, |t| t.now_ns());
            self.slots[widx].lease =
                Some(Lease { task, attempt, started: Instant::now(), span, span_begin_ns });
            let send = self.slots[widx].conn.as_mut().expect("checked above").send(&msg);
            if let Err(e) = send {
                self.on_worker_death(widx, st, &format!("send failed: {e}"))?;
            }
        }
    }

    /// Kill workers past their heartbeat or lease deadline.
    fn sweep_deadlines(&mut self, st: &mut StageState) -> Result<(), JobError> {
        let now = Instant::now();
        for idx in 0..self.slots.len() {
            let s = &self.slots[idx];
            if s.dead || !s.ready {
                continue;
            }
            if now.duration_since(s.last_beat) > self.pcfg.heartbeat_timeout {
                self.on_worker_death(idx, st, "heartbeat deadline exceeded")?;
                continue;
            }
            if let Some(lease) = &s.lease {
                if now.duration_since(lease.started) > self.pcfg.lease_timeout {
                    self.on_worker_death(idx, st, "task lease expired")?;
                }
            }
        }
        Ok(())
    }

    /// Stitch a worker's shipped trace chunk into the driver trace under
    /// `under`, clamped to `[lo, now]` on the driver timeline.
    fn ingest_chunk(
        &self,
        idx: usize,
        chunk: &[ngs_observe::trace::TraceEvent],
        under: ngs_observe::SpanId,
        lo: u64,
    ) {
        let Some(t) = self.tracer.as_ref() else { return };
        if chunk.is_empty() {
            return;
        }
        let slot = &self.slots[idx];
        let meta = ngs_observe::trace::ProcessMeta {
            pid: slot.pid as u32,
            role: format!("worker{idx}"),
            clock_offset_ns: slot.clock_offset_ns,
        };
        t.ingest(chunk, under, &meta, (lo, t.now_ns()));
    }

    fn handle_msg(&mut self, cid: u64, msg: Message, st: &mut StageState) -> Result<(), JobError> {
        match msg {
            Message::Hello { worker_id, pid, now_ns } => {
                let idx = worker_id as usize;
                let Some(mut conn) = self.pending_conns.remove(&cid) else {
                    return Ok(());
                };
                if idx >= self.slots.len() || self.slots[idx].dead || self.slots[idx].conn.is_some()
                {
                    conn.shutdown();
                    return Ok(());
                }
                // Clock-offset estimate: the worker's monotonic now,
                // bracketed by our receive time, so the error is at most
                // one send-to-dispatch latency (and always makes worker
                // events look *later*, never earlier, than they were —
                // residual error is absorbed by clamping at ingest).
                let clock_offset_ns =
                    self.tracer.as_ref().map_or(0, |t| t.now_ns() as i64 - now_ns as i64);
                let mut setup = self.setup.clone();
                if let Message::Setup { traced, clock_offset_ns: offset, .. } = &mut setup {
                    *traced = self.tracer.is_some();
                    *offset = clock_offset_ns;
                }
                if conn.send(&setup).is_err() {
                    conn.shutdown();
                    return Ok(());
                }
                let slot = &mut self.slots[idx];
                slot.conn = Some(conn);
                slot.conn_id = Some(cid);
                slot.ready = true;
                slot.last_beat = Instant::now();
                slot.pid = pid;
                slot.clock_offset_ns = clock_offset_ns;
                slot.span = self.tracer.as_ref().zip(self.job_span).map(|(t, parent)| {
                    t.begin_under_detail(
                        &format!("mapreduce.worker.{idx}"),
                        parent,
                        &format!("pid={pid} clock_offset_ns={clock_offset_ns}"),
                    )
                });
                slot.span_begin_ns = self.tracer.as_ref().map_or(0, |t| t.now_ns());
                self.slot_of_conn.insert(cid, idx);
            }
            Message::Heartbeat { worker_id, rss_bytes, peak_alloc_bytes, alloc_count } => {
                let idx = worker_id as usize;
                if let Some(slot) = self.slots.get_mut(idx) {
                    if slot.conn_id == Some(cid) {
                        slot.last_beat = Instant::now();
                        if let Some(c) = self.cfg.collector.as_deref() {
                            c.gauge_max(
                                &format!("mapreduce.worker.{idx}.peak_rss_bytes"),
                                rss_bytes as f64,
                            );
                            // Allocator stats only flow when the worker
                            // profiles memory; zero means "not tracking".
                            if peak_alloc_bytes > 0 {
                                c.gauge_max(
                                    &format!("mapreduce.worker.{idx}.peak_alloc_bytes"),
                                    peak_alloc_bytes as f64,
                                );
                            }
                            if alloc_count > 0 {
                                c.gauge_max(
                                    &format!("mapreduce.worker.{idx}.alloc_count"),
                                    alloc_count as f64,
                                );
                            }
                        }
                    }
                }
            }
            Message::Done {
                stage,
                task,
                attempt,
                emitted,
                combined,
                groups,
                busy_ns,
                output,
                trace,
                profile,
            } => {
                let Some(&idx) = self.slot_of_conn.get(&cid) else {
                    return Ok(());
                };
                // Profile samples are real CPU time regardless of lease
                // bookkeeping — fold them into this worker's lane before
                // any early return below.
                ngs_observe::profile::ingest_folded(&format!("worker{idx}"), &profile);
                let matches = self.slots[idx].lease.as_ref().is_some_and(|l| {
                    l.task == task as usize && l.attempt == attempt && stage == st.stage.code()
                });
                if !matches {
                    return Ok(());
                }
                let lease = self.slots[idx].lease.take().expect("checked above");
                if let (Some(t), Some(span)) = (self.tracer.as_ref(), lease.span) {
                    // Stitch before ending the lease span: children must
                    // close no later than their parent.
                    self.ingest_chunk(idx, &trace, span, lease.span_begin_ns);
                    t.end(span);
                }
                if let Some(c) = self.cfg.collector.as_deref() {
                    c.record_span_ns(span_path(st.stage), busy_ns, 1);
                }
                let task = task as usize;
                // Validate shape and inner checksums before trusting a
                // single byte: a corrupt buffer costs one attempt.
                let expect_bufs = match st.stage {
                    Stage::Map => match &self.setup {
                        Message::Setup { parts, .. } => *parts as usize,
                        _ => unreachable!("setup template is always Message::Setup"),
                    },
                    Stage::Shuffle | Stage::Reduce => 1,
                };
                let intact = output.len() == expect_bufs
                    && output.iter().all(|buf| verify_frames(buf).is_ok());
                if !intact {
                    self.corrupt_frames += 1;
                    if let Some(c) = self.cfg.collector.as_deref() {
                        c.incr("mapreduce.corrupt_frames");
                    }
                    return self.fail_attempt(
                        st,
                        task,
                        attempt,
                        "task output failed frame verification",
                    );
                }
                if attempt > 0 {
                    self.retried.insert((st.stage.code(), task));
                    if let Some(c) = self.cfg.collector.as_deref() {
                        c.incr("mapreduce.task_retries");
                    }
                }
                if st.tasks[task].result.is_none() {
                    st.tasks[task].result = Some(DoneOut { output, emitted, combined, groups });
                    st.done += 1;
                }
            }
            Message::Failed { stage, task, attempt, error, trace } => {
                let Some(&idx) = self.slot_of_conn.get(&cid) else {
                    return Ok(());
                };
                let matches = self.slots[idx].lease.as_ref().is_some_and(|l| {
                    l.task == task as usize && l.attempt == attempt && stage == st.stage.code()
                });
                if !matches {
                    return Ok(());
                }
                let lease = self.slots[idx].lease.take().expect("checked above");
                if let (Some(t), Some(span)) = (self.tracer.as_ref(), lease.span) {
                    self.ingest_chunk(idx, &trace, span, lease.span_begin_ns);
                    t.end(span);
                }
                self.fail_attempt(st, task as usize, attempt, &error)?;
            }
            Message::TraceFlush { worker_id, trace, profile } => {
                // Normally seen by the drain pump in teardown; mid-stage it
                // means the worker flushed out-of-band — stitch under its
                // worker span.
                let idx = worker_id as usize;
                if let Some(slot) = self.slots.get(idx) {
                    if slot.conn_id == Some(cid) {
                        ngs_observe::profile::ingest_folded(&format!("worker{idx}"), &profile);
                        if let Some(span) = slot.span {
                            self.ingest_chunk(idx, &trace, span, slot.span_begin_ns);
                        }
                    }
                }
            }
            // Workers never receive these; a confused peer is ignored.
            Message::Setup { .. } | Message::Task { .. } | Message::Drain => {}
        }
        Ok(())
    }

    /// Run one stage's tasks to completion; results in task order.
    fn run_stage(
        &mut self,
        stage: Stage,
        inputs: Vec<Vec<u8>>,
        stage_span_name: &str,
    ) -> Result<Vec<DoneOut>, JobError> {
        let stage_span = self
            .tracer
            .as_ref()
            .zip(self.job_span)
            .map(|(t, parent)| t.begin_under(stage_span_name, parent));
        let now = Instant::now();
        let mut st = StageState {
            stage,
            tasks: inputs
                .into_iter()
                .map(|input| TaskSlot {
                    input,
                    attempt: 0,
                    not_before: now,
                    assigned: false,
                    result: None,
                })
                .collect(),
            done: 0,
        };
        let result = self.drive_stage(&mut st, stage_span);
        if let (Some(t), Some(span)) = (self.tracer.as_ref(), stage_span) {
            t.end(span);
        }
        let outs = result?;
        Ok(outs)
    }

    fn drive_stage(
        &mut self,
        st: &mut StageState,
        stage_span: Option<ngs_observe::SpanId>,
    ) -> Result<Vec<DoneOut>, JobError> {
        while st.done < st.tasks.len() {
            self.try_assign(st, stage_span)?;
            match self.events.recv_timeout(Duration::from_millis(5)) {
                Ok(Event::Conn(stream)) => {
                    let cid = self.next_conn_id;
                    self.next_conn_id += 1;
                    let writer = FrameConn::from_stream(stream);
                    match writer.try_clone() {
                        Ok(mut reader) => {
                            self.pending_conns.insert(cid, writer);
                            let tx = self.tx.clone();
                            std::thread::spawn(move || loop {
                                match reader.recv() {
                                    Ok(msg) => {
                                        if tx.send(Event::Msg(cid, msg)).is_err() {
                                            break;
                                        }
                                    }
                                    Err(e) => {
                                        let _ = tx.send(Event::Gone(cid, e));
                                        break;
                                    }
                                }
                            });
                        }
                        Err(_) => writer.shutdown(),
                    }
                }
                Ok(Event::Msg(cid, msg)) => self.handle_msg(cid, msg, st)?,
                Ok(Event::Gone(cid, err)) => {
                    self.pending_conns.remove(&cid);
                    if let Some(&idx) = self.slot_of_conn.get(&cid) {
                        self.on_worker_death(idx, st, &format!("connection lost: {err}"))?;
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(JobError {
                        stage: st.stage,
                        task: 0,
                        attempts: 0,
                        last_error: "pool event channel closed".into(),
                    });
                }
            }
            self.sweep_deadlines(st)?;
        }
        Ok(st
            .tasks
            .drain(..)
            .map(|t| t.result.expect("stage finished with every task done"))
            .collect())
    }

    /// Graceful drain: tell every live worker the job is over, kill those
    /// that never got as far as being live, collect the final trace
    /// flushes, reap processes (kill stragglers), stop the accept thread.
    fn teardown(&mut self) {
        for slot in &mut self.slots {
            if let Some(conn) = slot.conn.as_mut() {
                let _ = conn.send(&Message::Drain);
            }
        }
        // A worker that had not finished `Hello`/`Setup` when the job ended
        // gets no `Drain`: it blocks waiting for a `Setup` nobody will send,
        // and the reap loop below would sit out its whole deadline on it.
        // Hang up on the half-made connections and kill such workers now.
        for (_, conn) in self.pending_conns.drain() {
            conn.shutdown();
        }
        for slot in &mut self.slots {
            if slot.conn.is_none() {
                if let Some(mut child) = slot.child.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
        // Traced or CPU-profiled runs: each live worker answers `Drain`
        // with a final `TraceFlush` before closing its socket. Pump the
        // event channel until every such worker has flushed or
        // disconnected, so trace chunks land under the worker spans
        // *before* the spans end below and the last profile samples make
        // it into the merged flamegraph.
        if self.tracer.is_some() || ngs_observe::profile::active_hz().is_some() {
            let mut waiting: std::collections::HashSet<u64> =
                self.slots.iter().filter_map(|s| s.conn.as_ref().and(s.conn_id)).collect();
            let deadline = Instant::now() + Duration::from_millis(500);
            while !waiting.is_empty() {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match self.events.recv_timeout(deadline - now) {
                    Ok(Event::Msg(cid, Message::TraceFlush { worker_id, trace, profile })) => {
                        let idx = worker_id as usize;
                        if self.slots.get(idx).is_some_and(|s| s.conn_id == Some(cid)) {
                            ngs_observe::profile::ingest_folded(&format!("worker{idx}"), &profile);
                            if let Some(span) = self.slots[idx].span {
                                let lo = self.slots[idx].span_begin_ns;
                                self.ingest_chunk(idx, &trace, span, lo);
                            }
                            waiting.remove(&cid);
                        }
                    }
                    Ok(Event::Gone(cid, _)) => {
                        waiting.remove(&cid);
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
        for idx in 0..self.slots.len() {
            if let Some(mut child) = self.slots[idx].child.take() {
                let deadline = Instant::now() + Duration::from_secs(2);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            if let Some(conn) = self.slots[idx].conn.take() {
                conn.shutdown();
            }
            if let (Some(t), Some(span)) = (self.tracer.as_ref(), self.slots[idx].span.take()) {
                t.end(span);
            }
        }
        self.accept_stop.store(true, Ordering::Relaxed);
        // Wake the accept loop so it observes the stop flag.
        let _ = FrameConn::connect(&self.socket_path);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let (Some(t), Some(span)) = (self.tracer.as_ref(), self.job_span.take()) {
            t.end(span);
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

/// Run `spec` over `input` on a pool of worker processes. Output is
/// byte-identical to [`run_local`] with the same `cfg`: identical
/// chunking, partitioning, sort order, and task-order result assembly.
pub fn run_pooled<S: MapReduceSpec>(
    spec: &S,
    input: &[S::I],
    cfg: &JobConfig,
    pool: &PoolConfig,
) -> Result<(Vec<S::O>, JobStats), JobError> {
    let parts = cfg.reduce_partitions.max(1);
    let chunk_size = input.len().div_ceil(cfg.workers.max(1)).max(1);
    let map_inputs: Vec<Vec<u8>> = input.chunks(chunk_size).map(encode_frames).collect();
    let setup = Message::Setup {
        spec: S::NAME.to_string(),
        spec_bytes: spec.to_bytes(),
        parts: parts as u64,
        fault_plan: cfg.fault_plan.to_bytes(),
        heartbeat_ms: pool.heartbeat_interval.as_millis().max(1) as u64,
        // Patched per worker at `Hello`: traced mirrors the driver tracer,
        // clock_offset_ns is that worker's estimate.
        traced: false,
        profile_mem: ngs_observe::alloc::is_enabled(),
        // Mirror the driver's ambient CPU-profiler rate so worker lanes
        // sample at the same cadence and the merged flamegraph's counts
        // are comparable across processes.
        profile_hz: ngs_observe::profile::active_hz().unwrap_or(0) as u64,
        clock_offset_ns: 0,
    };
    let mut registry = JobRegistry::new();
    registry.register::<S>();
    let mut driver = Pool::start(cfg, pool, setup, Arc::new(registry))?;
    let result = run_pooled_inner::<S>(&mut driver, input.len(), map_inputs, parts);
    driver.teardown();
    result
}

fn run_pooled_inner<S: MapReduceSpec>(
    driver: &mut Pool<'_>,
    input_len: usize,
    map_inputs: Vec<Vec<u8>>,
    parts: usize,
) -> Result<(Vec<S::O>, JobStats), JobError> {
    let mut stats = JobStats { map_input_records: input_len as u64, ..Default::default() };

    // ---- Map -------------------------------------------------------------
    let t0 = Instant::now();
    let map_tasks = map_inputs.len();
    let map_done = driver.run_stage(Stage::Map, map_inputs, "mapreduce.stage.map")?;
    stats.map_time = t0.elapsed();
    for out in &map_done {
        stats.map_output_records += out.emitted;
        stats.combine_output_records += out.combined;
    }

    // ---- Shuffle ---------------------------------------------------------
    // Distributed here (unlike the inline in-process sort): one task per
    // partition, each sorting the concatenation — in map-task order — of
    // that partition's buffers. Inner frame sequences concatenate cleanly.
    let t1 = Instant::now();
    let mut shuffle_inputs: Vec<Vec<u8>> = Vec::with_capacity(parts);
    for p in 0..parts {
        let mut buf = Vec::new();
        for out in &map_done {
            buf.extend_from_slice(&out.output[p]);
        }
        if map_tasks == 0 {
            buf = encode_frames::<(S::K, S::V)>(&[]);
        }
        stats.shuffle_bytes += buf.len() as u64;
        shuffle_inputs.push(buf);
    }
    drop(map_done);
    let shuffle_done =
        driver.run_stage(Stage::Shuffle, shuffle_inputs, "mapreduce.stage.shuffle")?;
    stats.shuffle_time = t1.elapsed();

    // ---- Reduce ----------------------------------------------------------
    let t2 = Instant::now();
    let reduce_inputs: Vec<Vec<u8>> =
        shuffle_done.into_iter().map(|mut d| d.output.swap_remove(0)).collect();
    let reduce_done = driver.run_stage(Stage::Reduce, reduce_inputs, "mapreduce.stage.reduce")?;
    let mut result: Vec<S::O> = Vec::new();
    for (pi, d) in reduce_done.into_iter().enumerate() {
        stats.reduce_input_groups += d.groups;
        let records = decode_frames::<S::O>(&d.output[0]).map_err(|e| JobError {
            stage: Stage::Reduce,
            task: pi,
            attempts: 0,
            last_error: format!("reduce output: {e}"),
        })?;
        result.extend(records);
    }
    stats.reduce_output_records = result.len() as u64;
    stats.reduce_time = t2.elapsed();

    stats.task_failures = driver.task_failures;
    stats.retried_tasks = driver.retried.len() as u64;
    stats.corrupt_frames = driver.corrupt_frames;
    stats.worker_deaths = driver.worker_deaths;
    stats.workers_respawned = driver.workers_respawned;
    stats.tasks_reassigned = driver.tasks_reassigned;
    Ok((result, stats))
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Entry point for a worker process. `args` are the trailing command-line
/// arguments the driver appended: `<socket-path> <worker-id>`. Returns the
/// process exit code. The hosting binary decides how the hidden worker
/// mode is reached (e.g. a `--mr-worker` first argument).
pub fn worker_main(registry: &JobRegistry, args: &[String]) -> i32 {
    let (Some(path), Some(id)) = (args.first(), args.get(1).and_then(|s| s.parse::<u64>().ok()))
    else {
        eprintln!("mr-worker: usage: <socket-path> <worker-id>");
        return 2;
    };
    match FrameConn::connect(std::path::Path::new(path)) {
        Ok(conn) => worker_loop(conn, registry, id, true),
        Err(e) => {
            eprintln!("mr-worker {id}: {e}");
            2
        }
    }
}

/// The worker protocol loop. `process_mode` selects how `KillWorker`
/// injection dies: a real self-SIGKILL for a process, or torn-frame +
/// disconnect for a thread-mode worker (a thread cannot be SIGKILLed
/// without taking the test process with it; the driver observes the same
/// torn frame either way).
fn worker_loop(
    mut reader: FrameConn,
    registry: &JobRegistry,
    worker_id: u64,
    process_mode: bool,
) -> i32 {
    let Ok(writer) = reader.try_clone() else {
        return 2;
    };
    let writer = Arc::new(Mutex::new(writer));
    let pid = std::process::id() as u64;
    // One session tracer for the whole worker lifetime: a single epoch, so
    // the driver's one clock-offset estimate (from the `now_ns` below)
    // covers every chunk this worker ever ships.
    let session_tracer = ngs_observe::Tracer::new();
    let hello = Message::Hello { worker_id, pid, now_ns: session_tracer.now_ns() };
    if writer.lock().expect("writer lock").send(&hello).is_err() {
        return 2;
    }
    let setup = match reader.recv() {
        Ok(msg @ Message::Setup { .. }) => msg,
        _ => return 2,
    };
    let Message::Setup {
        spec,
        spec_bytes,
        parts,
        fault_plan,
        heartbeat_ms,
        traced,
        profile_mem,
        profile_hz,
        clock_offset_ns: _,
    } = setup
    else {
        unreachable!("matched above");
    };
    let Some(runner) = registry.make(&spec, &spec_bytes) else {
        eprintln!("mr-worker {worker_id}: unknown or undecodable spec {spec:?}");
        return 2;
    };
    let Some(plan) = FaultPlan::from_bytes(&fault_plan) else {
        eprintln!("mr-worker {worker_id}: bad fault plan");
        return 2;
    };
    let parts = parts as usize;
    if profile_mem {
        // The worker binary carries the same tracking allocator as the
        // driver; enabling is a no-op when it is not installed.
        ngs_observe::alloc::enable();
    }
    // CPU profiler for the worker's own span stacks: folded stacks ship
    // back with every `Done` and the final `Drain` reply, so the driver
    // merges one lane per worker process. Held for the worker lifetime;
    // drop stops the sampler thread.
    let _profiler = (profile_hz > 0)
        .then(|| ngs_observe::profile::start(profile_hz.min(u32::MAX as u64) as u32))
        .flatten();
    let tracer = if traced {
        session_tracer.set_role(&format!("worker{worker_id}"));
        Some(session_tracer)
    } else {
        None
    };

    // Heartbeats from a dedicated thread, so a worker busy in a long task
    // still proves liveness. StallHeartbeat injection raises `stalled`,
    // silencing the beacon while the worker plays dead.
    let running = Arc::new(AtomicBool::new(true));
    let stalled = Arc::new(AtomicBool::new(false));
    let beat_handle = {
        let writer = writer.clone();
        let running = running.clone();
        let stalled = stalled.clone();
        std::thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(heartbeat_ms));
                if stalled.load(Ordering::Relaxed) {
                    break;
                }
                let rss_bytes = ngs_observe::read_memory().rss_bytes.unwrap_or(0);
                let (peak_alloc_bytes, alloc_count) = ngs_observe::alloc::snapshot()
                    .map_or((0, 0), |s| (s.peak_live_bytes, s.alloc_count));
                let beat =
                    Message::Heartbeat { worker_id, rss_bytes, peak_alloc_bytes, alloc_count };
                if writer.lock().expect("writer lock").send(&beat).is_err() {
                    break;
                }
            }
        })
    };

    let code = loop {
        match reader.recv() {
            Ok(Message::Task { stage, task, attempt, trace_span, input }) => {
                let Some(stage) = Stage::from_code(stage) else {
                    break 2;
                };
                let fault = plan.fault_for(stage, task as usize, attempt);
                if fault == Some(FaultKind::StallHeartbeat) {
                    stalled.store(true, Ordering::Relaxed);
                    // Play dead: no heartbeats, no result, no exit. The
                    // driver's deadline sweep must kill and replace us.
                    loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                }
                let started = Instant::now();
                // One root span per attempt: the chunk shipped with the
                // result holds exactly this attempt's events, and its root
                // re-parents under the driver-side lease span (whose id
                // rides along in the detail for post-hoc correlation).
                let task_span = tracer.as_ref().map(|t| {
                    t.begin_under_detail(
                        "worker.task",
                        ngs_observe::SpanId::ROOT,
                        &format!("stage={stage} task={task} attempt={attempt} lease={trace_span}"),
                    )
                });
                // The raw begin/end pair above never feeds the CPU
                // profiler (only strictly-scoped guards do), so publish
                // the frame explicitly — it must exist even untraced,
                // or a profiled-but-untraced worker samples nothing.
                ngs_observe::profile::on_span_enter("worker.task");
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let _exec = tracer.as_ref().map(|t| t.span("worker.exec"));
                    run_worker_task(&*runner, stage, task as usize, attempt, &fault, &input, parts)
                }));
                ngs_observe::profile::on_span_exit();
                if let (Some(t), Some(s)) = (tracer.as_ref(), task_span) {
                    t.end(s);
                }
                let trace = tracer.as_ref().map_or_else(Vec::new, |t| t.take_events());
                let busy_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                let msg = match outcome {
                    Ok(Ok((output, emitted, combined, groups))) => Message::Done {
                        stage: stage.code(),
                        task,
                        attempt,
                        emitted,
                        combined,
                        groups,
                        busy_ns,
                        output,
                        trace,
                        profile: ngs_observe::profile::drain_folded(),
                    },
                    Ok(Err(error)) => {
                        Message::Failed { stage: stage.code(), task, attempt, error, trace }
                    }
                    Err(payload) => {
                        let error = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "panic".into());
                        Message::Failed {
                            stage: stage.code(),
                            task,
                            attempt,
                            error: format!("panic: {error}"),
                            trace,
                        }
                    }
                };
                if fault == Some(FaultKind::KillWorker) {
                    // Die mid-result-write: half a frame on the wire, then
                    // gone. The driver must see Torn, requeue the lease,
                    // and never surface partial output.
                    let _ = writer.lock().expect("writer lock").send_torn(&msg);
                    if process_mode {
                        // Quiet both ends: the driver may SIGKILL-and-reap
                        // us the instant it sees the torn frame, leaving
                        // this grandchild to find no such pid.
                        let _ = std::process::Command::new("kill")
                            .args(["-9", &pid.to_string()])
                            .stdout(std::process::Stdio::null())
                            .stderr(std::process::Stdio::null())
                            .status();
                        std::process::abort();
                    }
                    break 0;
                }
                if writer.lock().expect("writer lock").send(&msg).is_err() {
                    break 0;
                }
            }
            Ok(Message::Drain) => {
                // Flush any events recorded outside a task attempt — and
                // the last profile samples — before the socket closes, so
                // the driver's stitched trace and merged flamegraph are
                // complete even for idle workers.
                if let Some(t) = tracer.as_ref() {
                    t.instant_under("worker.drain", ngs_observe::SpanId::ROOT, "");
                }
                let trace = tracer.as_ref().map_or_else(Vec::new, |t| t.take_events());
                let profile = ngs_observe::profile::drain_folded();
                if tracer.is_some() || !profile.is_empty() {
                    let flush = Message::TraceFlush { worker_id, trace, profile };
                    let _ = writer.lock().expect("writer lock").send(&flush);
                }
                break 0;
            }
            Ok(_) => break 2,
            // Driver gone (job done and socket closed, or driver crash):
            // nothing left to flush — exit cleanly.
            Err(_) => break 0,
        }
    };
    running.store(false, Ordering::Relaxed);
    let _ = beat_handle.join();
    code
}

type TaskOutput = (Vec<Vec<u8>>, u64, u64, u64);

/// Execute one task attempt on a worker, applying thread-level fault
/// injection (Panic / IoError / CorruptFrame) at the task boundary.
fn run_worker_task(
    runner: &dyn SpecRunner,
    stage: Stage,
    task: usize,
    attempt: u32,
    fault: &Option<FaultKind>,
    input: &[u8],
    parts: usize,
) -> Result<TaskOutput, String> {
    if *fault == Some(FaultKind::Panic) {
        panic!("injected panic in {stage} task {task} attempt {attempt}");
    }
    if *fault == Some(FaultKind::IoError) {
        return Err(format!("injected I/O error in {stage} task {task} attempt {attempt}"));
    }
    let (mut output, emitted, combined, groups) = match stage {
        Stage::Map => {
            let out = runner.map_task(input, parts)?;
            (out.partitions, out.emitted, out.combined, 0)
        }
        Stage::Shuffle => (vec![runner.shuffle_task(input)?], 0, 0, 0),
        Stage::Reduce => {
            let (buf, groups) = runner.reduce_task(input)?;
            (vec![buf], 0, 0, groups)
        }
    };
    if *fault == Some(FaultKind::CorruptFrame) {
        // Flip a bit inside the first buffer's stored checksum: the
        // driver's verify pass must reject the whole attempt.
        output[0][8] ^= 0x01;
    }
    Ok((output, emitted, combined, groups))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<String> {
        vec![
            "a b a the quick".into(),
            "b c the lazy dog".into(),
            "a dog and a fox".into(),
            "the end the end".into(),
        ]
    }

    fn cfg() -> JobConfig {
        let mut cfg = JobConfig::with_workers(2);
        cfg.reduce_partitions = 4;
        cfg.retry_backoff = Duration::from_micros(200);
        cfg
    }

    fn pool() -> PoolConfig {
        PoolConfig::with_workers(2)
    }

    #[test]
    fn pooled_matches_local_exactly() {
        let input = docs();
        let (local, _) = run_local(&WordCountSpec, &input, &cfg()).expect("local");
        let (pooled, stats) = run_pooled(&WordCountSpec, &input, &cfg(), &pool()).expect("pooled");
        // Not just the same multiset: the same order — the determinism
        // contract that makes kill-matrix byte-parity possible at all.
        assert_eq!(pooled, local);
        assert_eq!(stats.map_input_records, input.len() as u64);
        assert_eq!(stats.worker_deaths, 0);
        assert_eq!(stats.task_failures, 0);
    }

    #[test]
    fn empty_input_is_fine_pooled() {
        let input: Vec<String> = Vec::new();
        let (local, _) = run_local(&WordCountSpec, &input, &cfg()).expect("local");
        let (pooled, _) = run_pooled(&WordCountSpec, &input, &cfg(), &pool()).expect("pooled");
        assert_eq!(pooled, local);
        assert!(pooled.is_empty());
    }

    #[test]
    fn thread_faults_are_retried_in_the_pool() {
        let input = docs();
        let (clean, _) = run_local(&WordCountSpec, &input, &cfg()).expect("local");
        let mut faulty = cfg();
        faulty.fault_plan = FaultPlan::none()
            .with_fault(Stage::Map, 0, 0, FaultKind::Panic)
            .with_fault(Stage::Shuffle, 1, 0, FaultKind::IoError)
            .with_fault(Stage::Reduce, 2, 0, FaultKind::Panic);
        let (pooled, stats) = run_pooled(&WordCountSpec, &input, &faulty, &pool()).expect("pooled");
        assert_eq!(pooled, clean);
        assert_eq!(stats.task_failures, 3);
        assert_eq!(stats.retried_tasks, 3);
        assert_eq!(stats.worker_deaths, 0);
    }

    #[test]
    fn corrupt_worker_output_is_detected_and_retried() {
        let input = docs();
        let (clean, _) = run_local(&WordCountSpec, &input, &cfg()).expect("local");
        let mut faulty = cfg();
        faulty.fault_plan = FaultPlan::none().with_fault(Stage::Map, 1, 0, FaultKind::CorruptFrame);
        let (pooled, stats) = run_pooled(&WordCountSpec, &input, &faulty, &pool()).expect("pooled");
        assert_eq!(pooled, clean);
        assert_eq!(stats.corrupt_frames, 1);
        assert_eq!(stats.task_failures, 1);
        assert_eq!(stats.retried_tasks, 1);
    }

    #[test]
    fn killed_worker_tears_the_frame_and_the_lease_moves() {
        let input = docs();
        let (clean, _) = run_local(&WordCountSpec, &input, &cfg()).expect("local");
        let mut faulty = cfg();
        faulty.fault_plan = FaultPlan::none()
            .with_fault(Stage::Map, 0, 0, FaultKind::KillWorker)
            .with_fault(Stage::Reduce, 1, 0, FaultKind::KillWorker);
        let (pooled, stats) = run_pooled(&WordCountSpec, &input, &faulty, &pool()).expect("pooled");
        assert_eq!(pooled, clean);
        assert_eq!(stats.worker_deaths, 2);
        assert_eq!(stats.tasks_reassigned, 2);
        assert_eq!(stats.workers_respawned, 2);
        assert_eq!(stats.task_failures, 2);
    }

    #[test]
    fn stalled_heartbeat_is_detected_within_deadline() {
        let input = docs();
        let (clean, _) = run_local(&WordCountSpec, &input, &cfg()).expect("local");
        let mut faulty = cfg();
        faulty.fault_plan =
            FaultPlan::none().with_fault(Stage::Shuffle, 0, 0, FaultKind::StallHeartbeat);
        let mut pcfg = pool();
        pcfg.heartbeat_interval = Duration::from_millis(10);
        pcfg.heartbeat_timeout = Duration::from_millis(250);
        let started = Instant::now();
        let (pooled, stats) = run_pooled(&WordCountSpec, &input, &faulty, &pcfg).expect("pooled");
        assert_eq!(pooled, clean);
        assert_eq!(stats.worker_deaths, 1);
        assert_eq!(stats.tasks_reassigned, 1);
        // Detection must come from the heartbeat deadline (250 ms), not the
        // 60 s lease timeout.
        assert!(started.elapsed() < Duration::from_secs(30), "took {:?}", started.elapsed());
    }

    #[test]
    fn respawn_budget_exhaustion_fails_the_job() {
        let input = docs();
        let mut faulty = cfg();
        // Kill every attempt of map task 0: each death consumes a respawn
        // and an attempt; with max_attempts high the respawn budget runs
        // out first (2 slots × 1 respawn), failing the job cleanly.
        faulty.max_attempts = 64;
        for attempt in 0..64 {
            faulty.fault_plan =
                faulty.fault_plan.with_fault(Stage::Map, 0, attempt, FaultKind::KillWorker);
        }
        let mut pcfg = pool();
        pcfg.max_respawns = 1;
        let err = run_pooled(&WordCountSpec, &input, &faulty, &pcfg).expect_err("must fail");
        assert_eq!(err.stage, Stage::Map);
        assert!(err.last_error.contains("exhausted"), "{}", err.last_error);
    }

    #[test]
    fn attempt_exhaustion_fails_the_job_like_in_process() {
        let input = docs();
        let mut faulty = cfg();
        faulty.max_attempts = 2;
        faulty.fault_plan = FaultPlan::none()
            .with_fault(Stage::Reduce, 0, 0, FaultKind::IoError)
            .with_fault(Stage::Reduce, 0, 1, FaultKind::IoError);
        let err = run_pooled(&WordCountSpec, &input, &faulty, &pool()).expect_err("must fail");
        assert_eq!(err.stage, Stage::Reduce);
        assert_eq!(err.task, 0);
        assert_eq!(err.attempts, 2);
        assert!(err.last_error.contains("injected I/O error"), "{}", err.last_error);
    }

    #[test]
    fn seeded_plans_recover_in_the_pool_too() {
        let input = docs();
        let (clean, _) = run_local(&WordCountSpec, &input, &cfg()).expect("local");
        for seed in [3u64, 17, 99] {
            let mut faulty = cfg();
            faulty.fault_plan = FaultPlan::seeded(seed, 0.5);
            let (pooled, _) = run_pooled(&WordCountSpec, &input, &faulty, &pool()).expect("pooled");
            assert_eq!(pooled, clean, "seed {seed}");
        }
    }

    #[test]
    fn pooled_run_emits_worker_and_task_spans() {
        use ngs_observe::TraceEventKind;
        LEASE_AFTER_FULL_HANDSHAKE.set(true);
        let input = docs();
        let tracer = Arc::new(ngs_observe::Tracer::new());
        let collector = Arc::new(ngs_observe::Collector::with_tracer(tracer.clone()));
        let mut traced = cfg();
        traced.collector = Some(collector.clone());
        run_pooled(&WordCountSpec, &input, &traced, &pool()).expect("pooled");
        let events = tracer.events();
        let begins: Vec<_> = events.iter().filter(|e| e.kind == TraceEventKind::Begin).collect();
        let by_name = |n: &str| begins.iter().filter(|e| e.name == n).count();
        assert_eq!(by_name("mapreduce.job"), 1);
        for stage in ["mapreduce.stage.map", "mapreduce.stage.shuffle", "mapreduce.stage.reduce"] {
            assert_eq!(by_name(stage), 1, "{stage}");
        }
        assert_eq!(by_name("mapreduce.worker.0"), 1);
        assert_eq!(by_name("mapreduce.worker.1"), 1);
        assert!(by_name("mapreduce.task.map") >= 1);
        assert!(by_name("mapreduce.task.shuffle") >= 1);
        assert!(by_name("mapreduce.task.reduce") >= 1);
        // Begin/end balance even across worker lifetimes.
        let ends = events.iter().filter(|e| e.kind == TraceEventKind::End).count();
        assert_eq!(begins.len(), ends);
        // Task timing reached the collector from worker-reported busy_ns.
        let report = collector.report("mr");
        assert!(report.spans.contains_key("mapreduce.task.map"));
    }

    #[test]
    fn pooled_run_stitches_worker_spans_under_leases() {
        use ngs_observe::TraceEventKind;
        LEASE_AFTER_FULL_HANDSHAKE.set(true);
        let input = docs();
        let tracer = Arc::new(ngs_observe::Tracer::new());
        let collector = Arc::new(ngs_observe::Collector::with_tracer(tracer.clone()));
        let mut traced = cfg();
        traced.collector = Some(collector);
        run_pooled(&WordCountSpec, &input, &traced, &pool()).expect("pooled");

        // The stitched trace must be structurally sound end to end:
        // timestamps corrected and clamped, every worker span nested.
        let parsed = ngs_observe::traceview::parse_jsonl(&tracer.to_jsonl()).expect("parses");
        let spans = ngs_observe::traceview::check_well_formed(&parsed).expect("well-formed");

        let events = tracer.events();
        let begins: Vec<_> = events.iter().filter(|e| e.kind == TraceEventKind::Begin).collect();
        let lease_count = begins.iter().filter(|e| e.name.starts_with("mapreduce.task.")).count();
        let worker_tasks: Vec<_> = begins.iter().filter(|e| e.name == "worker.task").collect();
        assert_eq!(
            worker_tasks.len(),
            lease_count,
            "every completed lease carries exactly one shipped worker.task span"
        );
        // Each worker.task parents under a mapreduce.task.* lease span and
        // stays inside its interval.
        for wt in &worker_tasks {
            let parent = spans.get(&wt.parent).expect("parent exists");
            assert!(parent.name.starts_with("mapreduce.task."), "parent {}", parent.name);
            let node = &spans[&wt.id];
            assert!(node.start_ns >= parent.start_ns && node.end_ns <= parent.end_ns);
        }
        // worker.exec nests under worker.task (intra-chunk parentage).
        for ex in begins.iter().filter(|e| e.name == "worker.exec") {
            assert!(worker_tasks.iter().any(|wt| wt.id == ex.parent));
        }
        // The drain flush landed too: one worker.drain instant per worker,
        // parented under its mapreduce.worker.<id> span.
        let drains: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Instant && e.name == "worker.drain")
            .collect();
        assert_eq!(drains.len(), 2);
        for d in drains {
            assert!(spans[&d.parent].name.starts_with("mapreduce.worker."));
        }
    }

    #[test]
    fn registry_round_trips_builtin_specs() {
        let reg = JobRegistry::with_builtins();
        assert!(reg.contains(WordCountSpec::NAME));
        assert!(reg.make(WordCountSpec::NAME, &[]).is_some());
        assert!(reg.make(WordCountSpec::NAME, &[1]).is_none(), "bad spec bytes must not build");
        assert!(reg.make("no.such.spec", &[]).is_none());
    }
}
