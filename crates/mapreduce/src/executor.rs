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
//!   retry, never as corrupt output;
//! * the pool is a [`PoolSession`] that outlives its jobs: workers are
//!   spawned, greeted and reaped once, and each job (`Setup`, then its
//!   tasks) runs on whoever is alive — [`run_pooled`] is a session of one.
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
use crate::protocol::{task_frame, Message, ProtocolError, HEADER_LEN};
use crate::transport::{bind_socket, scratch_socket_path, FrameConn};
use ngs_observe::trace::TraceEvent;
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
    /// A frame arrived on connection `cid`: its verified payload, read in
    /// full at `at` — the reader's clock, so a message that waits in the
    /// queue while the driver is busy between two jobs keeps its true age.
    /// It is decoded by whoever takes it off the queue: what a `Done`
    /// carries is then allocated on the scheduler's thread, which also
    /// frees it, not in a reader thread's malloc arena.
    Frame { cid: u64, payload: Vec<u8>, at: Instant },
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

/// One worker slot of a session: at most one live worker (process or
/// thread) at a time, respawned in place when it dies.
struct Slot {
    child: Option<std::process::Child>,
    conn: Option<FrameConn>,
    conn_id: Option<u64>,
    dead: bool,
    last_beat: Instant,
    respawns_left: u32,
    /// OS pid the worker reported in `Hello` (its own pid in thread mode).
    pid: u64,
    /// The worker tracer's clock in its `Hello` and when that arrived: a
    /// job with a tracer turns the pair into its clock-offset estimate.
    hello: (u64, Instant),
}

/// What one job knows about the worker in a slot.
#[derive(Default)]
struct JobWorker {
    /// The worker has been sent this job's `Setup`.
    ready: bool,
    lease: Option<Lease>,
    span: Option<ngs_observe::SpanId>,
    /// Driver-tracer timestamp at which the worker's span began.
    span_begin_ns: u64,
    /// Estimated ns to add to this worker's trace timestamps to land on
    /// the job tracer's timeline.
    clock_offset_ns: i64,
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

impl StageState {
    /// The state events are handled against while no stage runs (queued
    /// events at the start of a job): nothing to lease, nothing to fail.
    fn idle() -> StageState {
        StageState { stage: Stage::Map, tasks: Vec::new(), done: 0 }
    }
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

/// How long a drained worker gets to hang up before teardown kills it.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// A pool of worker processes that outlives the jobs it runs: the socket,
/// the accept thread, the worker slots with their respawn budget and
/// liveness — everything that does not depend on which job is running.
/// [`PoolSession::run`] runs one job after another on the same warm
/// workers (each job sends its own `Setup`); dropping the session drains
/// and reaps them. [`run_pooled`] is a session of one job.
pub struct PoolSession {
    pcfg: PoolConfig,
    socket_path: PathBuf,
    tx: Sender<Event>,
    events: Receiver<Event>,
    accept_stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    readers: Vec<std::thread::JoinHandle<()>>,
    slots: Vec<Slot>,
    slot_of_conn: HashMap<u64, usize>,
    pending_conns: HashMap<u64, FrameConn>,
    next_conn_id: u64,
    /// What thread-mode workers build their jobs from; every job registers
    /// its spec before its first `Setup`.
    registry: Arc<Mutex<JobRegistry>>,
    jobs_started: u64,
    /// Workers started, and sessions opened (this one), since a job last
    /// reported them in its [`JobStats`].
    unreported_spawns: u64,
    unreported_sessions: u64,
    torn_down: bool,
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

fn session_error(last_error: String) -> JobError {
    JobError { stage: Stage::Map, task: 0, attempts: 0, last_error }
}

impl PoolSession {
    /// Bind the socket and start `pool.workers` workers. They connect and
    /// say `Hello` on their own time; the first job picks them up.
    ///
    /// # Errors
    /// [`JobError`] when the socket cannot be bound or a worker cannot be
    /// spawned (whatever was started is torn down again).
    pub fn start(pool: &PoolConfig) -> Result<PoolSession, JobError> {
        let socket_path = scratch_socket_path(pool.socket_dir.as_deref(), "drv");
        let listener = bind_socket(&socket_path)
            .map_err(|e| session_error(format!("bind {}: {e}", socket_path.display())))?;
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
        let n = pool.workers.max(1);
        let mut session = PoolSession {
            pcfg: pool.clone(),
            socket_path,
            tx,
            events,
            accept_stop,
            accept_handle: Some(accept_handle),
            readers: Vec::new(),
            slots: (0..n)
                .map(|_| Slot {
                    child: None,
                    conn: None,
                    conn_id: None,
                    dead: false,
                    last_beat: Instant::now(),
                    respawns_left: pool.max_respawns,
                    pid: 0,
                    hello: (0, Instant::now()),
                })
                .collect(),
            slot_of_conn: HashMap::new(),
            pending_conns: HashMap::new(),
            next_conn_id: 0,
            registry: Arc::new(Mutex::new(JobRegistry::new())),
            jobs_started: 0,
            unreported_spawns: 0,
            unreported_sessions: 1,
            torn_down: false,
        };
        for idx in 0..n {
            // On failure the drop of `session` tears down what was started.
            session.spawn_worker(idx).map_err(session_error)?;
        }
        Ok(session)
    }

    /// Run `spec` over `input` on this session's workers. Output and
    /// [`JobStats`] are those of [`run_local`] with the same `cfg`, as for
    /// [`run_pooled`]; the job has its own `mapreduce.job`, worker and
    /// lease spans. A failed job leaves the session usable.
    ///
    /// # Errors
    /// [`JobError`] when a task exhausts its attempts or every slot its
    /// respawn budget.
    pub fn run<S: MapReduceSpec>(
        &mut self,
        spec: &S,
        input: &[S::I],
        cfg: &JobConfig,
    ) -> Result<(Vec<S::O>, JobStats), JobError> {
        self.run_job(spec, input, cfg, false)
    }

    /// [`PoolSession::run`]; with `last` set the session is torn down
    /// before the job's spans close, so the workers' final trace flush
    /// lands under them.
    fn run_job<S: MapReduceSpec>(
        &mut self,
        spec: &S,
        input: &[S::I],
        cfg: &JobConfig,
        last: bool,
    ) -> Result<(Vec<S::O>, JobStats), JobError> {
        let parts = cfg.reduce_partitions.max(1);
        let chunk_size = input.len().div_ceil(cfg.workers.max(1)).max(1);
        // One map task per chunk, as in process.
        let map_inputs: Vec<Vec<u8>> = input.chunks(chunk_size).map(encode_frames).collect();
        self.registry.lock().expect("registry lock").register::<S>();
        let mut job = JobRun::new(self, cfg, S::NAME, spec.to_bytes(), parts);
        let result = job.begin().and_then(|()| job.run_stages::<S>(input.len(), map_inputs));
        if last {
            job.end_session();
        }
        job.finish();
        result.map(|(output, mut stats)| {
            job.fold_into(&mut stats);
            (output, stats)
        })
    }

    /// Launch a worker (process or thread) into slot `idx`.
    fn spawn_worker(&mut self, idx: usize) -> Result<(), String> {
        let slot = &mut self.slots[idx];
        slot.conn = None;
        slot.conn_id = None;
        slot.last_beat = Instant::now();
        if self.pcfg.worker_cmd.is_empty() {
            // Thread mode: an in-process worker speaking the same protocol.
            // Detached on purpose: one that plays dead (`StallHeartbeat`)
            // never returns.
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
        self.unreported_spawns += 1;
        Ok(())
    }

    /// Take an accepted connection: it stays pending until its `Hello`
    /// names a slot, and a reader thread turns its frames into events.
    fn adopt(&mut self, stream: std::os::unix::net::UnixStream) {
        let cid = self.next_conn_id;
        self.next_conn_id += 1;
        let writer = FrameConn::from_stream(stream);
        let Ok(mut reader) = writer.try_clone() else {
            writer.shutdown();
            return;
        };
        self.pending_conns.insert(cid, writer);
        let tx = self.tx.clone();
        self.readers.push(std::thread::spawn(move || loop {
            let event = match reader.recv_payload() {
                Ok(payload) => Event::Frame { cid, payload, at: Instant::now() },
                Err(e) => Event::Gone(cid, e),
            };
            let gone = matches!(event, Event::Gone(..));
            if tx.send(event).is_err() || gone {
                break;
            }
        }));
    }

    /// Graceful end of the session: tell every live worker to leave, kill
    /// those that never got as far as being live, reap the processes, stop
    /// the accept and reader threads, remove the socket. Returns each
    /// worker's final trace flush by slot index. Idempotent.
    fn teardown(&mut self) -> Vec<(usize, Vec<TraceEvent>)> {
        let mut flushes = Vec::new();
        if std::mem::replace(&mut self.torn_down, true) {
            return flushes;
        }
        // Connections a `Drain` went out on and that have not hung up yet.
        let mut draining: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for slot in &mut self.slots {
            if let (Some(conn), Some(cid)) = (slot.conn.as_mut(), slot.conn_id) {
                if conn.send(&Message::Drain).is_ok() {
                    draining.insert(cid);
                }
            }
        }
        // A worker that had not finished `Hello` when the session ended
        // gets no `Drain`: it blocks waiting for a `Setup` nobody will
        // send. Hang up on the half-made connections and kill such workers
        // now instead of waiting out the deadline on them.
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
        // A drained worker answers with its final `TraceFlush` (traced or
        // profiled runs) and then closes its socket, the last thing it
        // does before it exits. Block on the event channel until every one
        // has; past the deadline the rest are killed.
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while !draining.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(left) {
                Ok(Event::Frame { cid, payload, .. }) => {
                    if let Ok(Message::TraceFlush { worker_id, trace, profile }) =
                        Message::from_payload(&payload)
                    {
                        let idx = worker_id as usize;
                        if self.slots.get(idx).is_some_and(|s| s.conn_id == Some(cid)) {
                            ngs_observe::profile::ingest_folded(&format!("worker{idx}"), &profile);
                            flushes.push((idx, trace));
                        }
                    }
                }
                Ok(Event::Gone(cid, _)) => {
                    draining.remove(&cid);
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                if slot.conn_id.is_some_and(|cid| draining.contains(&cid)) {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
            if let Some(conn) = slot.conn.take() {
                conn.shutdown();
            }
        }
        self.accept_stop.store(true, Ordering::Relaxed);
        // Wake the accept loop so it observes the stop flag.
        let _ = FrameConn::connect(&self.socket_path);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Every connection is shut down by now, so every reader has seen
        // end-of-stream.
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        let _ = std::fs::remove_file(&self.socket_path);
        flushes
    }
}

impl Drop for PoolSession {
    fn drop(&mut self) {
        // Outside a job there is no span for a final trace flush to go
        // under; its profile rows have been folded in all the same.
        self.teardown();
    }
}

/// One job on a session: the per-job half of the scheduler — config, the
/// `Setup` it sends, fault tallies, spans — over the session's slots.
struct JobRun<'s, 'a> {
    session: &'s mut PoolSession,
    cfg: &'a JobConfig,
    /// This job's number within the session, as stamped on its `Setup`.
    id: u64,
    /// Template of the `Setup` each worker gets (tracing fields patched per
    /// worker).
    setup: Message,
    parts: usize,
    workers: Vec<JobWorker>,
    tracer: Option<Arc<ngs_observe::Tracer>>,
    job_span: Option<ngs_observe::SpanId>,
    // Tallies folded into JobStats at the end.
    task_failures: u64,
    retried: std::collections::BTreeSet<(u8, usize)>,
    corrupt_frames: u64,
    worker_deaths: u64,
    workers_respawned: u64,
    tasks_reassigned: u64,
    wire_bytes_sent: u64,
    wire_bytes_received: u64,
}

impl<'s, 'a> JobRun<'s, 'a> {
    fn new(
        session: &'s mut PoolSession,
        cfg: &'a JobConfig,
        spec: &str,
        spec_bytes: Vec<u8>,
        parts: usize,
    ) -> JobRun<'s, 'a> {
        let id = session.jobs_started;
        session.jobs_started += 1;
        let setup = Message::Setup {
            job: id,
            spec: spec.to_string(),
            spec_bytes,
            parts: parts as u64,
            fault_plan: cfg.fault_plan.to_bytes(),
            heartbeat_ms: session.pcfg.heartbeat_interval.as_millis().max(1) as u64,
            // Patched per worker in `admit`: traced mirrors the job's
            // tracer, clock_offset_ns is that worker's estimate.
            traced: false,
            profile_mem: ngs_observe::alloc::is_enabled(),
            // Mirror the driver's ambient CPU-profiler rate so worker lanes
            // sample at the same cadence and the merged flamegraph's counts
            // are comparable across processes.
            profile_hz: ngs_observe::profile::active_hz().unwrap_or(0) as u64,
            clock_offset_ns: 0,
        };
        let tracer =
            cfg.collector.as_ref().and_then(|c| c.tracer().cloned()).filter(|t| t.is_enabled());
        let job_span = tracer.as_ref().map(|t| t.begin("mapreduce.job"));
        let workers = session.slots.iter().map(|_| JobWorker::default()).collect();
        JobRun {
            session,
            cfg,
            id,
            setup,
            parts,
            workers,
            tracer,
            job_span,
            task_failures: 0,
            retried: std::collections::BTreeSet::new(),
            corrupt_frames: 0,
            worker_deaths: 0,
            workers_respawned: 0,
            tasks_reassigned: 0,
            wire_bytes_sent: 0,
            wire_bytes_received: 0,
        }
    }

    /// Catch up with what happened since the last job — heartbeats that
    /// queued up, workers that said `Hello` or died — and set every
    /// connected worker up for this job.
    fn begin(&mut self) -> Result<(), JobError> {
        let mut idle = StageState::idle();
        self.pump(&mut idle, Duration::ZERO)?;
        if self.session.slots.iter().all(|s| s.dead) {
            return Err(self.exhausted(&idle));
        }
        for idx in 0..self.workers.len() {
            if self.session.slots[idx].conn.is_some() && !self.workers[idx].ready {
                self.admit(idx, &mut idle)?;
            }
        }
        Ok(())
    }

    fn exhausted(&self, st: &StageState) -> JobError {
        let task = st.tasks.iter().position(|t| t.result.is_none()).unwrap_or(0);
        JobError {
            stage: st.stage,
            task,
            attempts: st.tasks.get(task).map_or(0, |t| t.attempt),
            last_error: "worker pool exhausted: every slot is out of respawns".into(),
        }
    }

    /// Send slot `idx`'s connected worker this job's `Setup` and open its
    /// `mapreduce.worker.N` span.
    fn admit(&mut self, idx: usize, st: &mut StageState) -> Result<(), JobError> {
        let slot = &mut self.session.slots[idx];
        // Clock-offset estimate: the worker's monotonic clock in its
        // `Hello`, advanced by the time since that arrived, against ours
        // now. The error is at most one send-to-read latency (and always
        // makes worker events look *later*, never earlier, than they were
        // — residual error is absorbed by clamping at ingest).
        let clock_offset_ns = self.tracer.as_ref().map_or(0, |t| {
            let (hello_ns, at) = slot.hello;
            let worker_now = hello_ns as i128 + at.elapsed().as_nanos() as i128;
            (t.now_ns() as i128 - worker_now) as i64
        });
        let mut setup = self.setup.clone();
        if let Message::Setup { traced, clock_offset_ns: offset, .. } = &mut setup {
            *traced = self.tracer.is_some();
            *offset = clock_offset_ns;
        }
        let sent = slot.conn.as_mut().expect("admit needs a connection").send(&setup);
        if let Err(e) = sent {
            return self.on_worker_death(idx, st, &format!("send failed: {e}"));
        }
        let pid = slot.pid;
        let span = self.tracer.as_ref().zip(self.job_span).map(|(t, parent)| {
            t.begin_under_detail(
                &format!("mapreduce.worker.{idx}"),
                parent,
                &format!("pid={pid} clock_offset_ns={clock_offset_ns}"),
            )
        });
        self.workers[idx] = JobWorker {
            ready: true,
            lease: None,
            span,
            span_begin_ns: self.tracer.as_ref().map_or(0, |t| t.now_ns()),
            clock_offset_ns,
        };
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
        let slot = &mut self.session.slots[idx];
        if slot.dead && slot.conn.is_none() {
            return Ok(());
        }
        self.worker_deaths += 1;
        if let Some(c) = self.cfg.collector.as_deref() {
            c.incr("mapreduce.worker_deaths");
        }
        if let Some(mut child) = slot.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(conn) = slot.conn.take() {
            conn.shutdown();
        }
        if let Some(cid) = slot.conn_id.take() {
            self.session.slot_of_conn.remove(&cid);
        }
        let worker = std::mem::take(&mut self.workers[idx]);
        if let (Some(t), Some(span)) = (self.tracer.as_ref(), worker.span) {
            t.instant_under("mapreduce.worker.died", span, why);
            t.end(span);
        }
        if let Some(lease) = worker.lease {
            self.tasks_reassigned += 1;
            if let (Some(t), Some(span)) = (self.tracer.as_ref(), lease.span) {
                t.end(span);
            }
            self.fail_attempt(st, lease.task, lease.attempt, &format!("worker {idx} died: {why}"))?;
        }
        // Bounded respawn with jittered backoff: the sleep is tiny (base
        // retry_backoff) and happens at most max_respawns times per slot.
        let slot = &mut self.session.slots[idx];
        if slot.respawns_left > 0 {
            slot.respawns_left -= 1;
            let used = self.session.pcfg.max_respawns - slot.respawns_left;
            std::thread::sleep(backoff_with_jitter(self.cfg.retry_backoff, used, st.stage, idx));
            self.workers_respawned += 1;
            if let Some(c) = self.cfg.collector.as_deref() {
                c.incr("mapreduce.workers_respawned");
            }
            self.session.spawn_worker(idx).map_err(|e| JobError {
                stage: st.stage,
                task: 0,
                attempts: 0,
                last_error: e,
            })?;
        } else {
            slot.dead = true;
            if self.session.slots.iter().all(|s| s.dead) {
                return Err(self.exhausted(st));
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
        if LEASE_AFTER_FULL_HANDSHAKE.get()
            && !self.workers.iter().zip(&self.session.slots).all(|(w, s)| w.ready || s.dead)
        {
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
            let Some(widx) = self.workers.iter().position(|w| w.ready && w.lease.is_none()) else {
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
            // Framed straight from the task's input, which stays where it
            // is for the next attempt.
            let frame = task_frame(
                st.stage.code(),
                task as u64,
                attempt,
                span.map_or(0, |s| s.as_u64()),
                &st.tasks[task].input,
            );
            st.tasks[task].assigned = true;
            let span_begin_ns = self.tracer.as_ref().map_or(0, |t| t.now_ns());
            self.workers[widx].lease =
                Some(Lease { task, attempt, started: Instant::now(), span, span_begin_ns });
            self.wire_bytes_sent += frame.len() as u64;
            let conn = self.session.slots[widx].conn.as_mut().expect("a ready worker is connected");
            if let Err(e) = conn.send_frame(&frame) {
                self.on_worker_death(widx, st, &format!("send failed: {e}"))?;
            }
        }
    }

    /// Kill workers past their heartbeat or lease deadline.
    fn sweep_deadlines(&mut self, st: &mut StageState) -> Result<(), JobError> {
        let now = Instant::now();
        for idx in 0..self.workers.len() {
            let worker = &self.workers[idx];
            if !worker.ready {
                continue;
            }
            let silent = now.saturating_duration_since(self.session.slots[idx].last_beat);
            if silent > self.session.pcfg.heartbeat_timeout {
                self.on_worker_death(idx, st, "heartbeat deadline exceeded")?;
                continue;
            }
            if let Some(lease) = &worker.lease {
                if now.duration_since(lease.started) > self.session.pcfg.lease_timeout {
                    self.on_worker_death(idx, st, "task lease expired")?;
                }
            }
        }
        Ok(())
    }

    /// Stitch a worker's shipped trace chunk into the job trace under
    /// `under`, clamped to `[lo, now]` on the driver timeline.
    fn ingest_chunk(&self, idx: usize, chunk: &[TraceEvent], under: ngs_observe::SpanId, lo: u64) {
        let Some(t) = self.tracer.as_ref() else { return };
        if chunk.is_empty() {
            return;
        }
        let meta = ngs_observe::trace::ProcessMeta {
            pid: self.session.slots[idx].pid as u32,
            role: format!("worker{idx}"),
            clock_offset_ns: self.workers[idx].clock_offset_ns,
        };
        t.ingest(chunk, under, &meta, (lo, t.now_ns()));
    }

    /// The lease of slot `idx` when `(job, stage, task, attempt)` names
    /// it; anything else is a result nobody waits for any more.
    fn take_lease(
        &mut self,
        idx: usize,
        st: &StageState,
        (job, stage, task, attempt): (u64, u8, u64, u32),
    ) -> Option<Lease> {
        let named = job == self.id
            && stage == st.stage.code()
            && self.workers[idx]
                .lease
                .as_ref()
                .is_some_and(|l| l.task as u64 == task && l.attempt == attempt);
        named.then(|| self.workers[idx].lease.take()).flatten()
    }

    fn handle_msg(
        &mut self,
        cid: u64,
        msg: Message,
        wire: usize,
        at: Instant,
        st: &mut StageState,
    ) -> Result<(), JobError> {
        match msg {
            Message::Hello { worker_id, pid, now_ns } => {
                let idx = worker_id as usize;
                let Some(conn) = self.session.pending_conns.remove(&cid) else {
                    return Ok(());
                };
                let Some(slot) = self
                    .session
                    .slots
                    .get_mut(idx)
                    .filter(|slot| !slot.dead && slot.conn.is_none())
                else {
                    conn.shutdown();
                    return Ok(());
                };
                slot.conn = Some(conn);
                slot.conn_id = Some(cid);
                // Beats are due from the first `Setup`, which goes out right
                // below — not from the `Hello`, which may have waited in the
                // queue through a pause between two jobs.
                slot.last_beat = Instant::now();
                slot.pid = pid;
                slot.hello = (now_ns, at);
                self.session.slot_of_conn.insert(cid, idx);
                self.admit(idx, st)?;
            }
            Message::Heartbeat { worker_id, rss_bytes, peak_alloc_bytes, alloc_count } => {
                let idx = worker_id as usize;
                if let Some(slot) = self.session.slots.get_mut(idx) {
                    if slot.conn_id == Some(cid) {
                        slot.last_beat = at;
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
                job,
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
                let Some(&idx) = self.session.slot_of_conn.get(&cid) else {
                    return Ok(());
                };
                // Profile samples are real CPU time regardless of lease
                // bookkeeping — fold them into this worker's lane before
                // any early return below.
                ngs_observe::profile::ingest_folded(&format!("worker{idx}"), &profile);
                let Some(lease) = self.take_lease(idx, st, (job, stage, task, attempt)) else {
                    return Ok(());
                };
                self.wire_bytes_received += wire as u64;
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
                    Stage::Map => self.parts,
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
                    // No attempt will need the input again.
                    st.tasks[task].input = Vec::new();
                    st.tasks[task].result = Some(DoneOut { output, emitted, combined, groups });
                    st.done += 1;
                }
            }
            Message::Failed { job, stage, task, attempt, error, trace } => {
                let Some(&idx) = self.session.slot_of_conn.get(&cid) else {
                    return Ok(());
                };
                let Some(lease) = self.take_lease(idx, st, (job, stage, task, attempt)) else {
                    return Ok(());
                };
                self.wire_bytes_received += wire as u64;
                if let (Some(t), Some(span)) = (self.tracer.as_ref(), lease.span) {
                    self.ingest_chunk(idx, &trace, span, lease.span_begin_ns);
                    t.end(span);
                }
                self.fail_attempt(st, task as usize, attempt, &error)?;
            }
            Message::TraceFlush { worker_id, trace, profile } => {
                // Normally seen by the session's teardown; mid-job it means
                // the worker flushed out-of-band — stitch under its worker
                // span.
                let idx = worker_id as usize;
                if self.session.slots.get(idx).is_some_and(|s| s.conn_id == Some(cid)) {
                    ngs_observe::profile::ingest_folded(&format!("worker{idx}"), &profile);
                    if let Some(span) = self.workers[idx].span {
                        self.ingest_chunk(idx, &trace, span, self.workers[idx].span_begin_ns);
                    }
                }
            }
            // Workers never receive these; a confused peer is ignored.
            Message::Setup { .. } | Message::Task { .. } | Message::Drain => {}
        }
        Ok(())
    }

    /// Connection `cid` ended, or sent something that is not a message: if
    /// it is a worker's, that worker is dead.
    fn connection_lost(
        &mut self,
        cid: u64,
        err: &ProtocolError,
        st: &mut StageState,
    ) -> Result<(), JobError> {
        if let Some(conn) = self.session.pending_conns.remove(&cid) {
            conn.shutdown();
        }
        match self.session.slot_of_conn.get(&cid) {
            Some(&idx) => self.on_worker_death(idx, st, &format!("connection lost: {err}")),
            None => Ok(()),
        }
    }

    /// Wait up to `wait` for an event, then handle it and everything queued
    /// behind it. Deadlines are only judged between two pumps, so never
    /// against a heartbeat that has arrived but not been looked at — however
    /// long the driver was away (between two jobs of a session, say).
    fn pump(&mut self, st: &mut StageState, wait: Duration) -> Result<(), JobError> {
        // The session holds a sender itself, so the channel only ever
        // reports "nothing (yet)".
        let mut next = self.session.events.recv_timeout(wait).ok();
        while let Some(event) = next {
            match event {
                Event::Conn(stream) => self.session.adopt(stream),
                Event::Frame { cid, payload, at } => {
                    let wire = HEADER_LEN + payload.len();
                    match Message::from_payload(&payload) {
                        Ok(msg) => {
                            drop(payload);
                            self.handle_msg(cid, msg, wire, at, st)?;
                        }
                        // Its reader goes on reading; hanging up ends it.
                        Err(err) => self.connection_lost(cid, &err, st)?,
                    }
                }
                Event::Gone(cid, err) => self.connection_lost(cid, &err, st)?,
            }
            next = self.session.events.try_recv().ok();
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
        if result.is_err() {
            // Leases still out belong to a stage nobody waits for: close
            // their spans (late results are told apart by job and stage).
            for worker in &mut self.workers {
                if let Some(lease) = worker.lease.take() {
                    if let (Some(t), Some(span)) = (self.tracer.as_ref(), lease.span) {
                        t.end(span);
                    }
                }
            }
        }
        if let (Some(t), Some(span)) = (self.tracer.as_ref(), stage_span) {
            t.end(span);
        }
        result?;
        Ok(st
            .tasks
            .into_iter()
            .map(|t| t.result.expect("stage finished with every task done"))
            .collect())
    }

    fn drive_stage(
        &mut self,
        st: &mut StageState,
        stage_span: Option<ngs_observe::SpanId>,
    ) -> Result<(), JobError> {
        while st.done < st.tasks.len() {
            self.try_assign(st, stage_span)?;
            self.pump(st, Duration::from_millis(5))?;
            self.sweep_deadlines(st)?;
        }
        Ok(())
    }

    /// Map, shuffle and reduce `map_inputs` (one inner-framed buffer per
    /// map task) into the job's output and the counters of its data flow.
    fn run_stages<S: MapReduceSpec>(
        &mut self,
        input_len: usize,
        map_inputs: Vec<Vec<u8>>,
    ) -> Result<(Vec<S::O>, JobStats), JobError> {
        let parts = self.parts;
        let mut stats = JobStats { map_input_records: input_len as u64, ..Default::default() };

        // ---- Map ---------------------------------------------------------
        let t0 = Instant::now();
        let map_tasks = map_inputs.len();
        let mut map_done = self.run_stage(Stage::Map, map_inputs, "mapreduce.stage.map")?;
        stats.map_time = t0.elapsed();
        for out in &map_done {
            stats.map_output_records += out.emitted;
            stats.combine_output_records += out.combined;
        }

        // ---- Shuffle -----------------------------------------------------
        // Distributed here (unlike the inline in-process sort): one task
        // per partition, each sorting the concatenation — in map-task order
        // — of that partition's buffers. Inner frame sequences concatenate
        // cleanly.
        let t1 = Instant::now();
        let mut shuffle_inputs: Vec<Vec<u8>> = Vec::with_capacity(parts);
        for p in 0..parts {
            let mut buf = Vec::with_capacity(map_done.iter().map(|out| out.output[p].len()).sum());
            for out in &mut map_done {
                // Each map buffer is let go as soon as it is copied.
                buf.extend_from_slice(&std::mem::take(&mut out.output[p]));
            }
            if map_tasks == 0 {
                buf = encode_frames::<(S::K, S::V)>(&[]);
            }
            stats.shuffle_bytes += buf.len() as u64;
            shuffle_inputs.push(buf);
        }
        drop(map_done);
        let shuffle_done =
            self.run_stage(Stage::Shuffle, shuffle_inputs, "mapreduce.stage.shuffle")?;
        stats.shuffle_time = t1.elapsed();

        // ---- Reduce ------------------------------------------------------
        let t2 = Instant::now();
        let reduce_inputs: Vec<Vec<u8>> =
            shuffle_done.into_iter().map(|mut d| d.output.swap_remove(0)).collect();
        let reduce_done = self.run_stage(Stage::Reduce, reduce_inputs, "mapreduce.stage.reduce")?;
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
        Ok((result, stats))
    }

    /// Tear the session down while this job's spans are still open: each
    /// worker's final trace flush is stitched under its worker span.
    fn end_session(&mut self) {
        for (idx, chunk) in self.session.teardown() {
            if let Some(span) = self.workers[idx].span {
                self.ingest_chunk(idx, &chunk, span, self.workers[idx].span_begin_ns);
            }
        }
    }

    /// Close the job's worker spans and its job span; the workers stay up.
    fn finish(&mut self) {
        let Some(t) = self.tracer.as_ref() else { return };
        for worker in &mut self.workers {
            if let Some(span) = worker.span.take() {
                t.end(span);
            }
        }
        if let Some(span) = self.job_span.take() {
            t.end(span);
        }
    }

    /// The job's fault, pool and wire tallies, into its [`JobStats`].
    fn fold_into(&mut self, stats: &mut JobStats) {
        stats.task_failures = self.task_failures;
        stats.retried_tasks = self.retried.len() as u64;
        stats.corrupt_frames = self.corrupt_frames;
        stats.worker_deaths = self.worker_deaths;
        stats.workers_respawned = self.workers_respawned;
        stats.tasks_reassigned = self.tasks_reassigned;
        stats.wire_bytes_sent = self.wire_bytes_sent;
        stats.wire_bytes_received = self.wire_bytes_received;
        stats.pool_spawns = std::mem::take(&mut self.session.unreported_spawns);
        stats.pool_sessions = std::mem::take(&mut self.session.unreported_sessions);
    }
}

/// Run `spec` over `input` on a pool of worker processes: a
/// [`PoolSession`] of one job. Output is byte-identical to [`run_local`]
/// with the same `cfg`: identical chunking, partitioning, sort order, and
/// task-order result assembly.
pub fn run_pooled<S: MapReduceSpec>(
    spec: &S,
    input: &[S::I],
    cfg: &JobConfig,
    pool: &PoolConfig,
) -> Result<(Vec<S::O>, JobStats), JobError> {
    PoolSession::start(pool)?.run_job(spec, input, cfg, true)
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
        Ok(conn) => worker_loop(conn, &Mutex::new(registry.clone()), id, true),
        Err(e) => {
            eprintln!("mr-worker {id}: {e}");
            2
        }
    }
}

/// Stop signal of the heartbeat thread: it sleeps on the condvar, so a
/// stop wakes it at once instead of after the rest of its interval.
#[derive(Default)]
struct Beacon {
    stopped: Mutex<bool>,
    wake: std::sync::Condvar,
}

impl Beacon {
    fn stop(&self) {
        *self.stopped.lock().expect("beacon lock") = true;
        self.wake.notify_all();
    }

    /// Wait out one interval; `false` as soon as the beacon is stopped.
    fn tick(&self, interval: Duration) -> bool {
        let stopped = self.stopped.lock().expect("beacon lock");
        let (stopped, _) = self
            .wake
            .wait_timeout_while(stopped, interval, |stopped| !*stopped)
            .expect("beacon lock");
        !*stopped
    }
}

/// The job a worker is set up for: what its latest `Setup` said.
struct WorkerJob {
    id: u64,
    runner: Box<dyn SpecRunner>,
    plan: FaultPlan,
    parts: usize,
    traced: bool,
}

/// The worker protocol loop: `Hello`, then any number of jobs — a `Setup`
/// followed by that job's `Task`s — until `Drain` or the driver hangs up.
/// `registry` rebuilds a job's spec from its `Setup` (behind a mutex: the
/// thread-mode workers of a session share the one its jobs register their
/// specs in). `process_mode` selects
/// how `KillWorker` injection dies: a real self-SIGKILL for a process, or
/// torn-frame + disconnect for a thread-mode worker (a thread cannot be
/// SIGKILLed without taking the test process with it; the driver observes
/// the same torn frame either way).
fn worker_loop(
    mut reader: FrameConn,
    registry: &Mutex<JobRegistry>,
    worker_id: u64,
    process_mode: bool,
) -> i32 {
    let Ok(writer) = reader.try_clone() else {
        return 2;
    };
    let writer = Arc::new(Mutex::new(writer));
    let pid = std::process::id() as u64;
    // One tracer for the whole worker lifetime: a single epoch, so the
    // driver's clock-offset estimates (all from the `now_ns` below) cover
    // every chunk this worker ever ships.
    let tracer = ngs_observe::Tracer::new();
    tracer.set_role(&format!("worker{worker_id}"));
    let hello = Message::Hello { worker_id, pid, now_ns: tracer.now_ns() };
    if writer.lock().expect("writer lock").send(&hello).is_err() {
        return 2;
    }

    // Started by the first `Setup`, for the worker's lifetime: the
    // heartbeat thread (so a worker busy in a long task still proves
    // liveness; `StallHeartbeat` injection stops it while the worker plays
    // dead) and the CPU profiler for the worker's own span stacks, whose
    // folded stacks ship back with every `Done` and the final `Drain`
    // reply so the driver merges one lane per worker process.
    let beacon = Arc::new(Beacon::default());
    let mut beat_handle = None;
    let mut profiler = None;
    let mut job: Option<WorkerJob> = None;

    let code = loop {
        match reader.recv() {
            Ok(Message::Setup {
                job: id,
                spec,
                spec_bytes,
                parts,
                fault_plan,
                heartbeat_ms,
                traced,
                profile_mem,
                profile_hz,
                clock_offset_ns: _,
            }) => {
                let runner = registry.lock().expect("registry lock").make(&spec, &spec_bytes);
                let Some(runner) = runner else {
                    eprintln!("mr-worker {worker_id}: unknown or undecodable spec {spec:?}");
                    break 2;
                };
                let Some(plan) = FaultPlan::from_bytes(&fault_plan) else {
                    eprintln!("mr-worker {worker_id}: bad fault plan");
                    break 2;
                };
                job = Some(WorkerJob { id, runner, plan, parts: parts as usize, traced });
                if profile_mem {
                    // The worker binary carries the same tracking allocator
                    // as the driver; enabling is a no-op when it is not
                    // installed.
                    ngs_observe::alloc::enable();
                }
                if profiler.is_none() && profile_hz > 0 {
                    profiler = ngs_observe::profile::start(profile_hz.min(u32::MAX as u64) as u32);
                }
                if beat_handle.is_none() {
                    let (writer, beacon) = (writer.clone(), beacon.clone());
                    let interval = Duration::from_millis(heartbeat_ms);
                    beat_handle = Some(std::thread::spawn(move || {
                        while beacon.tick(interval) {
                            let rss_bytes = ngs_observe::read_memory().rss_bytes.unwrap_or(0);
                            let (peak_alloc_bytes, alloc_count) = ngs_observe::alloc::snapshot()
                                .map_or((0, 0), |s| (s.peak_live_bytes, s.alloc_count));
                            let beat = Message::Heartbeat {
                                worker_id,
                                rss_bytes,
                                peak_alloc_bytes,
                                alloc_count,
                            };
                            if writer.lock().expect("writer lock").send(&beat).is_err() {
                                break;
                            }
                        }
                    }));
                }
            }
            Ok(Message::Task { stage, task, attempt, trace_span, input }) => {
                let (Some(job), Some(stage)) = (job.as_ref(), Stage::from_code(stage)) else {
                    break 2;
                };
                let tracer = job.traced.then_some(&tracer);
                let fault = job.plan.fault_for(stage, task as usize, attempt);
                if fault == Some(FaultKind::StallHeartbeat) {
                    beacon.stop();
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
                let task_span = tracer.map(|t| {
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
                    let _exec = tracer.map(|t| t.span("worker.exec"));
                    run_worker_task(
                        &*job.runner,
                        stage,
                        task as usize,
                        attempt,
                        &fault,
                        &input,
                        job.parts,
                    )
                }));
                ngs_observe::profile::on_span_exit();
                if let (Some(t), Some(s)) = (tracer, task_span) {
                    t.end(s);
                }
                let trace = tracer.map_or_else(Vec::new, |t| t.take_events());
                let busy_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                let failed = |error: String, trace| Message::Failed {
                    job: job.id,
                    stage: stage.code(),
                    task,
                    attempt,
                    error,
                    trace,
                };
                let msg = match outcome {
                    Ok(Ok((output, emitted, combined, groups))) => Message::Done {
                        job: job.id,
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
                    Ok(Err(error)) => failed(error, trace),
                    Err(payload) => {
                        let error = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "panic".into());
                        failed(format!("panic: {error}"), trace)
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
                let traced = job.as_ref().is_some_and(|job| job.traced);
                if traced {
                    tracer.instant_under("worker.drain", ngs_observe::SpanId::ROOT, "");
                }
                let trace = if traced { tracer.take_events() } else { Vec::new() };
                let profile = ngs_observe::profile::drain_folded();
                if traced || !profile.is_empty() {
                    let flush = Message::TraceFlush { worker_id, trace, profile };
                    let _ = writer.lock().expect("writer lock").send(&flush);
                }
                break 0;
            }
            Ok(_) => break 2,
            // Driver gone (session over and socket closed, or driver
            // crash): nothing left to flush — exit cleanly.
            Err(_) => break 0,
        }
    };
    // Leave at once: the stop wakes the heartbeat thread out of its wait,
    // the profiler's sampler stops with it, and only then — by dropping
    // `reader`, the last handle — does the socket close, which is what the
    // driver's teardown takes as "exiting".
    beacon.stop();
    if let Some(handle) = beat_handle {
        let _ = handle.join();
    }
    drop(profiler);
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

    /// A second spec for the session tests: words grouped by their length
    /// (no combiner; values keep map order, so the output is ordered).
    struct ByLengthSpec;

    impl MapReduceSpec for ByLengthSpec {
        type I = String;
        type K = u64;
        type V = String;
        type O = (u64, Vec<String>);

        const NAME: &'static str = "test.by_length";

        fn to_bytes(&self) -> Vec<u8> {
            Vec::new()
        }

        fn from_bytes(bytes: &[u8]) -> Option<ByLengthSpec> {
            bytes.is_empty().then_some(ByLengthSpec)
        }

        fn map(&self, record: &String, emit: &mut dyn FnMut(u64, String)) {
            for w in record.split_whitespace() {
                emit(w.len() as u64, w.to_string());
            }
        }

        fn reduce(&self, len: &u64, words: Vec<String>, emit: &mut dyn FnMut((u64, Vec<String>))) {
            emit((*len, words));
        }
    }

    /// Job `n` of a session test: the two specs alternate. Returns whether
    /// the pooled output equals `run_local`'s, and the pooled stats.
    fn alternating_job(session: &mut PoolSession, n: usize, job: &JobConfig) -> (bool, JobStats) {
        let input = docs();
        if n.is_multiple_of(2) {
            let (local, local_stats) = run_local(&WordCountSpec, &input, &cfg()).expect("local");
            let (pooled, stats) = session.run(&WordCountSpec, &input, job).expect("pooled");
            assert_eq!(stats.reduce_input_groups, local_stats.reduce_input_groups);
            (pooled == local, stats)
        } else {
            let (local, local_stats) = run_local(&ByLengthSpec, &input, &cfg()).expect("local");
            let (pooled, stats) = session.run(&ByLengthSpec, &input, job).expect("pooled");
            assert_eq!(stats.map_output_records, local_stats.map_output_records);
            (pooled == local, stats)
        }
    }

    #[test]
    fn six_alternating_jobs_on_one_session_match_run_local() {
        let mut session = PoolSession::start(&pool()).expect("session");
        let mut total = JobStats::default();
        for n in 0..6 {
            let (equal, stats) = alternating_job(&mut session, n, &cfg());
            assert!(equal, "job {n} diverged from run_local");
            // The pool is paid for once, on the first job.
            assert_eq!(
                (stats.pool_sessions, stats.pool_spawns),
                (u64::from(n == 0), 2 * u64::from(n == 0))
            );
            assert!(stats.wire_bytes_sent > 0 && stats.wire_bytes_received > 0);
            total.merge(&stats);
        }
        assert_eq!((total.pool_sessions, total.pool_spawns), (1, 2));
        assert_eq!((total.worker_deaths, total.task_failures), (0, 0));
    }

    #[test]
    fn a_kill_in_job_three_is_recovered_and_the_respawned_worker_serves_the_rest() {
        let mut session = PoolSession::start(&pool()).expect("session");
        let mut total = JobStats::default();
        for n in 0..6 {
            let mut job = cfg();
            if n == 2 {
                job.fault_plan =
                    FaultPlan::none().with_fault(Stage::Reduce, 1, 0, FaultKind::KillWorker);
            }
            let (equal, stats) = alternating_job(&mut session, n, &job);
            assert!(equal, "job {n} diverged from run_local");
            assert_eq!(stats.worker_deaths, u64::from(n == 2), "job {n}");
            total.merge(&stats);
        }
        assert_eq!(total.workers_respawned, 1);
        assert_eq!(total.tasks_reassigned, 1);
        assert_eq!((total.pool_sessions, total.pool_spawns), (1, 3));
    }

    #[test]
    fn a_driver_pause_longer_than_the_heartbeat_timeout_kills_nobody() {
        let mut pcfg = pool();
        pcfg.heartbeat_interval = Duration::from_millis(20);
        pcfg.heartbeat_timeout = Duration::from_millis(500);
        let mut session = PoolSession::start(&pcfg).expect("session");
        let mut total = JobStats::default();
        for n in 0..3 {
            // The driver is away for more than two timeouts; the heartbeats
            // of that time are in the queue, stamped with their arrival, and
            // are read before anybody is judged.
            std::thread::sleep(pcfg.heartbeat_timeout * 5 / 2);
            let (equal, stats) = alternating_job(&mut session, n, &cfg());
            assert!(equal, "job {n} diverged from run_local");
            total.merge(&stats);
        }
        assert_eq!((total.worker_deaths, total.pool_spawns), (0, 2));
    }

    #[test]
    fn a_hello_that_waited_out_a_pause_is_not_held_against_its_worker() {
        let mut pcfg = pool();
        pcfg.heartbeat_timeout = Duration::from_millis(300);
        let mut session = PoolSession::start(&pcfg).expect("session");
        // Take both connections the way a job's first pump would, so their
        // `Hello`s are read — and stamped — now, but let nobody look at them
        // for two timeouts: the shape of a worker that was slow to connect
        // and missed a short first job. It was never set up, so it owed no
        // heartbeat in that time.
        let mut early = Vec::new();
        let mut adopted = 0;
        while adopted < 2 {
            match session.events.recv().expect("the session holds a sender") {
                Event::Conn(stream) => {
                    session.adopt(stream);
                    adopted += 1;
                }
                other => early.push(other),
            }
        }
        for event in early {
            session.tx.send(event).expect("the session holds the receiver");
        }
        std::thread::sleep(pcfg.heartbeat_timeout * 2);
        let (equal, stats) = alternating_job(&mut session, 0, &cfg());
        assert!(equal);
        assert_eq!((stats.worker_deaths, stats.pool_spawns), (0, 2));
    }

    #[test]
    fn a_worker_lost_between_jobs_is_respawned_for_the_next_job() {
        LEASE_AFTER_FULL_HANDSHAKE.set(true);
        let mut session = PoolSession::start(&pool()).expect("session");
        let (equal, _) = alternating_job(&mut session, 0, &cfg());
        assert!(equal);
        // Hang up on worker 0 while no job runs: its death is noticed, and
        // its replacement set up, by the job that comes next.
        session.slots[0].conn.as_ref().expect("worker 0 is connected").shutdown();
        let (equal, stats) = alternating_job(&mut session, 1, &cfg());
        assert!(equal);
        assert_eq!((stats.worker_deaths, stats.workers_respawned, stats.pool_spawns), (1, 1, 1));
        assert_eq!(stats.task_failures, 0, "no lease was lost with it");
        assert_eq!(session.slots[0].respawns_left, pool().max_respawns - 1);
    }

    #[test]
    fn respawn_budget_exhaustion_mid_session_fails_that_job_and_the_session_still_tears_down() {
        let mut pcfg = pool();
        pcfg.max_respawns = 1;
        let mut session = PoolSession::start(&pcfg).expect("session");
        let (equal, _) = alternating_job(&mut session, 0, &cfg());
        assert!(equal);
        let mut faulty = cfg();
        faulty.max_attempts = 64;
        for attempt in 0..64 {
            faulty.fault_plan =
                faulty.fault_plan.with_fault(Stage::Map, 0, attempt, FaultKind::KillWorker);
        }
        let err = session.run(&WordCountSpec, &docs(), &faulty).expect_err("must fail");
        assert_eq!(err.stage, Stage::Map);
        assert!(err.last_error.contains("exhausted"), "{}", err.last_error);
        // Nobody is left to run anything; the session says so at once.
        let err = session.run(&ByLengthSpec, &docs(), &cfg()).expect_err("no workers left");
        assert!(err.last_error.contains("exhausted"), "{}", err.last_error);
        // With every slot dead there is nobody to drain and nothing to wait
        // for: teardown joins its threads and removes the socket.
        let flushes = session.teardown();
        assert!(flushes.is_empty());
        assert!(session.accept_handle.is_none() && session.readers.is_empty());
        assert!(!session.socket_path.exists());
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
