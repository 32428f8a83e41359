//! Persistent work-stealing thread pool backing the `rayon` shim.
//!
//! One global pool is created lazily on the first parallel operation.
//! Its size comes from, in precedence order: [`set_num_threads`]
//! (the CLIs' `--threads` flag), the `NGS_THREADS` environment
//! variable, then `std::thread::available_parallelism`. A pool of
//! `N` threads spawns `N - 1` long-lived workers; the calling thread
//! is the N-th lane and participates in its own jobs, so `N == 1`
//! means strictly in-line sequential execution with no pool at all.
//!
//! Jobs are split into chunks; each chunk becomes a [`Task`] pushed
//! round-robin onto per-worker deques. A worker pops from the front
//! of its own deque and steals from the back of the others; the
//! caller steals back only its own job's tasks, then blocks until the
//! job's remaining-task latch reaches zero. Workers are never torn
//! down: a panic inside a chunk is caught, recorded on the job, and
//! re-thrown on the *calling* thread once the job drains, so a
//! poisoned job cannot wedge the pool for subsequent jobs.
//!
//! Each job also records which threads actually executed at least one
//! of its chunks (a participants bitmask). The popcount lands in a
//! thread-local readable via [`last_threads_used`], which is how
//! telemetry spans report the parallelism a job *got*, not the
//! parallelism that was theoretically available.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Participants-mask bit for threads that are not pool workers (the
/// thread that submitted the job, or a nested caller).
const CALLER_BIT: u64 = 1 << 63;

/// Pool size requested via [`set_num_threads`]; 0 means "not set".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// The lazily-created global pool (leaked so workers can hold
/// `&'static` references for the life of the process).
static POOL: OnceLock<&'static Pool> = OnceLock::new();

thread_local! {
    /// This thread's bit in job participant masks. Workers overwrite
    /// it at startup; every other thread is a "caller".
    static PARTICIPANT_BIT: Cell<u64> = const { Cell::new(CALLER_BIT) };
    /// Threads observed by the most recent parallel operation that
    /// completed on this thread. See [`last_threads_used`].
    static LAST_THREADS: Cell<usize> = const { Cell::new(1) };
}

/// Request a pool size. Effective only before the first parallel
/// operation creates the pool; later calls are ignored (the pool
/// cannot be resized once its workers exist).
pub fn set_num_threads(threads: usize) {
    CONFIGURED.store(threads.max(1), Ordering::Relaxed);
}

/// The number of threads parallel operations will use: the live pool
/// size if the pool exists, otherwise the size it would be created
/// with right now.
pub fn effective_threads() -> usize {
    match POOL.get() {
        Some(pool) => pool.threads,
        None => resolve_threads(),
    }
}

/// How many distinct threads executed at least one chunk of the most
/// recent parallel operation completed on the calling thread (always
/// at least 1; sequential fallbacks record exactly 1). This is the
/// honest figure for telemetry, as opposed to `effective_threads`,
/// which is only an upper bound.
pub fn last_threads_used() -> usize {
    LAST_THREADS.with(|c| c.get().max(1))
}

/// Record that an operation ran sequentially on the calling thread.
pub(crate) fn note_sequential() {
    LAST_THREADS.with(|c| c.set(1));
}

fn resolve_threads() -> usize {
    let configured = CONFIGURED.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    if let Ok(value) = std::env::var("NGS_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Box::leak(Box::new(Pool::new(resolve_threads()))))
}

/// One chunk of one job.
struct Task {
    job: Arc<JobCore>,
    chunk: usize,
}

/// Shared state of one submitted job. `ctx` points at a stack frame
/// of the submitting thread; the submitter blocks until `remaining`
/// hits zero, so the pointer outlives every `exec` call.
struct JobCore {
    /// Monomorphized chunk runner; `unsafe` because it trusts `ctx`.
    exec: unsafe fn(*const (), usize),
    ctx: *const (),
    /// Tasks not yet finished; the last decrement latches `done`.
    remaining: AtomicUsize,
    /// Set by the first panicking chunk; later chunks short-circuit.
    panicked: AtomicBool,
    /// First panic payload, re-thrown on the submitting thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Bitmask of threads that executed at least one chunk.
    participants: AtomicU64,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `ctx` is only dereferenced by `exec` while the submitting
// thread blocks in `execute`, and the concrete context type behind it
// is constrained to `Sync` data (`parallel_apply_indexed` requires
// `F: Sync` and guards per-chunk state with mutexes).
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

struct Pool {
    /// Total thread budget including the submitting thread's lane.
    threads: usize,
    /// One deque per worker (`threads - 1` of them).
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Count of queued (not yet claimed) tasks, for worker sleep.
    queued: Mutex<usize>,
    wake: Condvar,
    /// Round-robin cursor for task placement.
    next: AtomicUsize,
}

impl Pool {
    fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let workers = threads - 1;
        Pool {
            threads,
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: Mutex::new(0),
            wake: Condvar::new(),
            next: AtomicUsize::new(0),
        }
    }

    fn spawn_workers(pool: &'static Pool) {
        for me in 0..pool.deques.len() {
            std::thread::Builder::new()
                .name(format!("ngs-par-{me}"))
                .spawn(move || worker_loop(pool, me))
                .expect("spawn pool worker");
        }
    }

    /// Pop from the front of `me`'s deque, else steal from the back
    /// of another worker's.
    fn pop_task(&self, me: usize) -> Option<Task> {
        if let Some(task) = self.deques[me].lock().unwrap().pop_front() {
            self.claim_one();
            return Some(task);
        }
        for (other, deque) in self.deques.iter().enumerate() {
            if other == me {
                continue;
            }
            if let Some(task) = deque.lock().unwrap().pop_back() {
                self.claim_one();
                return Some(task);
            }
        }
        None
    }

    /// Take back a queued task belonging to `job` (caller
    /// participation: the submitter only ever runs its own chunks).
    fn steal_own(&self, job: &Arc<JobCore>) -> Option<Task> {
        for deque in &self.deques {
            let mut queue = deque.lock().unwrap();
            if let Some(pos) = queue.iter().position(|t| Arc::ptr_eq(&t.job, job)) {
                let task = queue.remove(pos);
                drop(queue);
                self.claim_one();
                return task;
            }
        }
        None
    }

    fn claim_one(&self) {
        let mut queued = self.queued.lock().unwrap();
        *queued = queued.saturating_sub(1);
    }

    fn push_tasks(&self, job: &Arc<JobCore>, n_tasks: usize) {
        for chunk in 0..n_tasks {
            let lane = self.next.fetch_add(1, Ordering::Relaxed) % self.deques.len();
            self.deques[lane].lock().unwrap().push_back(Task { job: Arc::clone(job), chunk });
        }
        let mut queued = self.queued.lock().unwrap();
        *queued += n_tasks;
        self.wake.notify_all();
    }
}

fn worker_loop(pool: &'static Pool, me: usize) {
    PARTICIPANT_BIT.with(|bit| bit.set(1 << (me % 63)));
    loop {
        if let Some(task) = pool.pop_task(me) {
            run_task(task);
        } else {
            let queued = pool.queued.lock().unwrap();
            if *queued == 0 {
                // Timed wait: a missed notify costs 50 ms, never a hang.
                let _ = pool.wake.wait_timeout(queued, Duration::from_millis(50)).unwrap();
            }
        }
    }
}

/// Execute one task on the current thread (worker or submitter).
/// Panics are caught and parked on the job; the final decrement
/// latches `done` regardless, so the submitter always wakes.
fn run_task(task: Task) {
    let job = task.job;
    if !job.panicked.load(Ordering::Acquire) {
        let bit = PARTICIPANT_BIT.with(|b| b.get());
        job.participants.fetch_or(bit, Ordering::Relaxed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: the submitting thread blocks in `execute` until
            // `remaining` reaches zero, so `ctx` is still alive here.
            unsafe { (job.exec)(job.ctx, task.chunk) }
        }));
        if let Err(payload) = result {
            job.panicked.store(true, Ordering::Release);
            let mut slot = job.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut done = job.done.lock().unwrap();
        *done = true;
        job.done_cv.notify_all();
    }
}

/// Run `n_tasks` chunks of a job through the pool and return how many
/// distinct threads executed at least one chunk. Re-throws the first
/// chunk panic on the calling thread after the job fully drains.
///
/// # Safety contract (internal)
/// `exec(ctx, chunk)` must be sound for every `chunk in 0..n_tasks`
/// from any thread, and `ctx` must stay valid until this returns —
/// which it does, because this function blocks on the job latch.
pub(crate) fn execute(ctx: *const (), exec: unsafe fn(*const (), usize), n_tasks: usize) -> usize {
    if n_tasks == 0 {
        note_sequential();
        return 1;
    }
    if n_tasks == 1 || effective_threads() <= 1 {
        for chunk in 0..n_tasks {
            // SAFETY: ctx is a live pointer supplied by our caller in
            // this same stack frame (see the contract above).
            unsafe { exec(ctx, chunk) }
        }
        note_sequential();
        return 1;
    }
    let pool = pool_with_workers();
    if pool.deques.is_empty() {
        for chunk in 0..n_tasks {
            // SAFETY: as above.
            unsafe { exec(ctx, chunk) }
        }
        note_sequential();
        return 1;
    }

    let job = Arc::new(JobCore {
        exec,
        ctx,
        remaining: AtomicUsize::new(n_tasks),
        panicked: AtomicBool::new(false),
        panic: Mutex::new(None),
        participants: AtomicU64::new(0),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    pool.push_tasks(&job, n_tasks);
    // Participate: drain our own job's still-queued tasks. Anything
    // we don't find here is already executing on a worker.
    while let Some(task) = pool.steal_own(&job) {
        run_task(task);
    }
    let mut done = job.done.lock().unwrap();
    while !*done {
        done = job.done_cv.wait(done).unwrap();
    }
    drop(done);
    if let Some(payload) = job.panic.lock().unwrap().take() {
        note_sequential();
        std::panic::resume_unwind(payload);
    }
    let used = (job.participants.load(Ordering::Relaxed).count_ones() as usize).max(1);
    LAST_THREADS.with(|c| c.set(used));
    used
}

/// Get the global pool, spawning its workers exactly once.
fn pool_with_workers() -> &'static Pool {
    static SPAWNED: OnceLock<()> = OnceLock::new();
    let pool = pool();
    SPAWNED.get_or_init(|| Pool::spawn_workers(pool));
    pool
}
