//! The MapReduce execution engine.
//!
//! One job runs as: input split into per-worker chunks → each worker maps
//! its records, emitting `(K, V)` pairs into `reduce_partitions` buffers
//! selected by key hash → optional per-worker combiner → shuffle: the
//! per-worker buffers of each partition are concatenated, sorted by key and
//! grouped → reduce workers process partitions, each group invoking the
//! reducer once — the same dataflow as Hadoop's mapper/combiner/partitioner/
//! reducer contract (§1.3.1), including task-level fault tolerance:
//!
//! * every map and reduce task runs under [`std::panic::catch_unwind`]
//!   and is retried with exponential backoff up to
//!   [`JobConfig::max_attempts`] times (Hadoop's `mapred.map.max.attempts`);
//! * a map task *attempt* covers map + combine, so a retried task recomputes
//!   its whole output and lands it in the same slot;
//! * a [`FaultPlan`] on the config deterministically injects panics and I/O
//!   errors at `(stage, task, attempt)` coordinates, so the recovery paths
//!   are exercised by tests rather than trusted.
//!
//! A task that exhausts its attempts fails the job with [`JobError`]; no
//! panic escapes `map_reduce`. The engine keeps everything in memory:
//! durability across driver restarts is the caller's, through
//! `ngs_durable::CheckpointStore` at a pipeline stage boundary.

use crate::codec::Codec;
use crate::counters::JobStats;
use crate::fault::{FaultKind, FaultPlan, Stage};
pub(crate) use ngs_core_hash::hash_one;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Minimal internal hashing (FxHash-style) so the crate does not depend on
/// `ngs-core`; the partitioner only needs speed and rough uniformity.
mod ngs_core_hash {
    use std::hash::Hasher;

    #[derive(Default)]
    pub struct Fx(u64);

    impl Hasher for Fx {
        fn finish(&self) -> u64 {
            self.0
        }

        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
            }
        }

        fn write_u64(&mut self, v: u64) {
            self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    pub fn hash_one<T: std::hash::Hash>(v: &T) -> u64 {
        let mut h = Fx::default();
        v.hash(&mut h);
        h.finish()
    }
}

/// Configuration shared by all jobs in a pipeline.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Worker threads for the map and reduce phases (the "cluster size").
    pub workers: usize,
    /// Number of reduce partitions (Hadoop's number of reducers).
    pub reduce_partitions: usize,
    /// Attempts per task before the job fails (Hadoop default: 4).
    pub max_attempts: u32,
    /// Base delay before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Deterministic fault injection schedule (empty = no faults).
    pub fault_plan: FaultPlan,
    /// When set, every task attempt is timed under the
    /// `mapreduce.task.map` / `mapreduce.task.reduce` spans and retries are
    /// counted live (`mapreduce.task_retries`). Phase-level totals are the
    /// caller's job — fold the returned [`JobStats`] with
    /// [`crate::counters::record_job_stats`]. A collector built with
    /// [`ngs_observe::Collector::with_tracer`] additionally emits the
    /// job's trace tree under the calling thread's innermost open span —
    /// pipelines call `map_reduce` inside a phase span. Every traced job
    /// emits one `mapreduce.job` span, one `mapreduce.stage.{map,shuffle,
    /// reduce}` span per phase, and one span per task *attempt* (retries
    /// are sibling spans under the same stage, annotated
    /// `task=N attempt=M`).
    pub collector: Option<std::sync::Arc<ngs_observe::Collector>>,
}

impl JobConfig {
    /// In-memory config with `workers` threads and `4·workers` partitions.
    pub fn with_workers(workers: usize) -> JobConfig {
        JobConfig {
            workers: workers.max(1),
            reduce_partitions: workers.max(1) * 4,
            max_attempts: 4,
            retry_backoff: Duration::from_millis(2),
            fault_plan: FaultPlan::none(),
            collector: None,
        }
    }
}

impl Default for JobConfig {
    fn default() -> JobConfig {
        JobConfig::with_workers(std::thread::available_parallelism().map_or(4, |n| n.get()))
    }
}

/// A task exhausted its attempts and failed the job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The stage the failing task belonged to.
    pub stage: Stage,
    /// Task index within its stage (map: input chunk; reduce: partition).
    pub task: usize,
    /// Attempts consumed, `== max_attempts`.
    pub attempts: u32,
    /// Human-readable description of the final failure.
    pub last_error: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} task {} failed after {} attempts: {}",
            self.stage, self.task, self.attempts, self.last_error
        )
    }
}

impl std::error::Error for JobError {}

/// Fault-tolerance counters shared across worker threads.
#[derive(Default)]
struct FaultCounters {
    task_failures: AtomicU64,
    retried_tasks: AtomicU64,
}

/// Render a panic payload for [`JobError::last_error`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Run one task to completion: call `body(attempt)` under `catch_unwind`,
/// retrying with exponential backoff until success or `max_attempts`.
/// `trace` (set when the collector carries an enabled tracer) parents each
/// attempt's span under its stage — task attempts run on worker threads
/// whose ambient span stacks are empty, so the parent must travel
/// explicitly.
fn run_attempts<T>(
    stage: Stage,
    task: usize,
    cfg: &JobConfig,
    counters: &FaultCounters,
    trace: Option<&ngs_observe::TraceContext>,
    body: impl Fn(u32) -> Result<T, String>,
) -> Result<T, JobError> {
    let max_attempts = cfg.max_attempts.max(1);
    let span_path = match stage {
        Stage::Map => "mapreduce.task.map",
        Stage::Shuffle => "mapreduce.task.shuffle",
        Stage::Reduce => "mapreduce.task.reduce",
    };
    let mut attempt = 0;
    loop {
        // The span guards live *outside* catch_unwind: a panicking attempt
        // still closes its trace span on unwind, keeping begin/end balanced.
        let detail = trace.map(|_| format!("task={task} attempt={attempt}"));
        let outcome = {
            let _span = cfg.collector.as_deref().map(|c| match trace {
                Some(ctx) => c.span_traced(
                    span_path,
                    ctx.parent(),
                    detail.as_deref().unwrap_or(""),
                    ngs_observe::available_cores(),
                ),
                None => c.span(span_path),
            });
            catch_unwind(AssertUnwindSafe(|| body(attempt)))
        };
        let error = match outcome {
            Ok(Ok(value)) => {
                if attempt > 0 {
                    counters.retried_tasks.fetch_add(1, Ordering::Relaxed);
                    if let Some(c) = cfg.collector.as_deref() {
                        c.incr("mapreduce.task_retries");
                    }
                }
                return Ok(value);
            }
            Ok(Err(e)) => e,
            Err(payload) => panic_message(payload),
        };
        counters.task_failures.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = cfg.collector.as_deref() {
            c.incr("mapreduce.task_failures");
        }
        if let Some(ctx) = trace {
            let mut msg = format!("task={task} attempt={attempt} error={error}");
            msg.truncate(200);
            ctx.instant("mapreduce.task.failed", &msg);
        }
        attempt += 1;
        if attempt >= max_attempts {
            return Err(JobError { stage, task, attempts: attempt, last_error: error });
        }
        std::thread::sleep(backoff_with_jitter(cfg.retry_backoff, attempt, stage, task));
    }
}

/// The delay before retry number `attempt` (1-based): exponential in the
/// attempt (`base, 2·base, 4·base, …`) scaled by a jitter factor in
/// `[0.5, 1.0)` drawn from a RNG seeded purely by the task's coordinates.
/// Jitter de-synchronizes simultaneous retries (many tasks failing in the
/// same tick — e.g. every lease of a killed worker — would otherwise hammer
/// the scheduler in lock-step), while the coordinate seed keeps every run
/// byte-for-byte reproducible. Never exceeds the un-jittered delay.
pub(crate) fn backoff_with_jitter(
    base: Duration,
    attempt: u32,
    stage: Stage,
    task: usize,
) -> Duration {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let exp = base * (1u32 << (attempt - 1).min(16));
    let seed = hash_one(&(stage.code() as u64, task as u64, attempt as u64));
    let factor = StdRng::seed_from_u64(seed).gen_range(0.5..1.0);
    exp.mul_f64(factor)
}

/// Sort one partition by key and fold runs of equal keys through the
/// combiner in place; returns the partition's post-combine length. Shared
/// by the in-process map attempt and the worker-pool map task, so both
/// executors combine identically (a requirement for byte-identical output).
pub(crate) fn combine_partition<K, V>(
    part: &mut Vec<(K, V)>,
    comb: &(dyn Fn(&K, &mut Vec<V>) + Sync),
) -> usize
where
    K: Ord + Clone,
{
    part.sort_by(|a, b| a.0.cmp(&b.0));
    let mut result: Vec<(K, V)> = Vec::with_capacity(part.len());
    let drained = std::mem::take(part);
    let mut run_key: Option<K> = None;
    let mut run_vals: Vec<V> = Vec::new();
    for (k, v) in drained {
        match &run_key {
            Some(rk) if *rk == k => run_vals.push(v),
            _ => {
                if let Some(rk) = run_key.take() {
                    comb(&rk, &mut run_vals);
                    for v in run_vals.drain(..) {
                        result.push((rk.clone(), v));
                    }
                }
                run_key = Some(k);
                run_vals.push(v);
            }
        }
    }
    if let Some(rk) = run_key.take() {
        comb(&rk, &mut run_vals);
        for v in run_vals.drain(..) {
            result.push((rk.clone(), v));
        }
    }
    *part = result;
    part.len()
}

/// Output of one successful map task.
struct MapTaskOut<K, V> {
    partitions: Vec<Vec<(K, V)>>,
    emitted: u64,
    combined: u64,
}

/// One map task attempt: map the chunk and combine. An injected fault
/// fails the attempt.
#[allow(clippy::type_complexity)]
fn map_task_attempt<I, K, V, M>(
    task: usize,
    attempt: u32,
    chunk: &[I],
    parts: usize,
    cfg: &JobConfig,
    mapper: &M,
    combiner: Option<&(dyn Fn(&K, &mut Vec<V>) + Sync)>,
) -> Result<MapTaskOut<K, V>, String>
where
    K: Ord + Hash + Clone + Codec,
    V: Codec,
    M: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
{
    match cfg.fault_plan.fault_for(Stage::Map, task, attempt) {
        Some(FaultKind::Panic) => panic!("injected panic in map task {task} attempt {attempt}"),
        Some(FaultKind::IoError) => {
            return Err(format!("injected I/O error in map task {task} attempt {attempt}"))
        }
        // Process-level faults degrade to plain attempt failures in-process:
        // a thread cannot be SIGKILLed, but the plan must still perturb the
        // same coordinates so portable plans exercise the retry path
        // everywhere.
        Some(kind @ (FaultKind::KillWorker | FaultKind::StallHeartbeat)) => {
            return Err(format!("injected {kind:?} in map task {task} attempt {attempt}"))
        }
        // A map task's output never leaves memory in-process, so there is
        // no frame to corrupt (see `FaultKind::CorruptFrame`).
        Some(FaultKind::CorruptFrame) | None => {}
    }

    let mut partitions: Vec<Vec<(K, V)>> = (0..parts).map(|_| Vec::new()).collect();
    let mut emitted = 0u64;
    for record in chunk {
        mapper(record, &mut |k: K, v: V| {
            let p = (hash_one(&k) % parts as u64) as usize;
            partitions[p].push((k, v));
            emitted += 1;
        });
    }

    // Local combine: sort each partition, fold runs of equal keys
    // through the combiner.
    let mut combined = emitted;
    if let Some(comb) = combiner {
        combined = 0;
        for part in &mut partitions {
            combined += combine_partition(part, comb) as u64;
        }
    }
    Ok(MapTaskOut { partitions, emitted, combined })
}

/// Run a full map/combine/shuffle/reduce job.
///
/// * `mapper(record, emit)` — called once per input record; `emit(k, v)`
///   routes the pair to its partition.
/// * `combiner` — optional local aggregation: called per worker per key run
///   with the values collected so far, replacing them.
/// * `reducer(key, values, emit)` — called once per distinct key.
///
/// Output order is deterministic — partitions in index order, keys sorted
/// within each partition — and unaffected by retries: map outputs are
/// collected by task index, not completion order, so a retried task's
/// (re-computed, identical) output lands in the same slot.
///
/// # Errors
/// [`JobError`] when any task fails [`JobConfig::max_attempts`] times.
/// Panics in the mapper/combiner/reducer are caught, retried, and — if
/// persistent — reported through the error, never propagated.
#[allow(clippy::type_complexity)]
pub fn map_reduce<I, K, V, O, M, R>(
    cfg: &JobConfig,
    input: &[I],
    mapper: M,
    combiner: Option<&(dyn Fn(&K, &mut Vec<V>) + Sync)>,
    reducer: R,
) -> Result<(Vec<O>, JobStats), JobError>
where
    I: Sync,
    K: Ord + Hash + Clone + Send + Sync + Codec,
    V: Send + Sync + Codec,
    O: Send,
    M: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
    R: Fn(&K, Vec<V>, &mut dyn FnMut(O)) + Sync,
{
    let mut stats = JobStats { map_input_records: input.len() as u64, ..Default::default() };
    let workers = cfg.workers.max(1);
    let parts = cfg.reduce_partitions.max(1);
    let counters = FaultCounters::default();

    // ---- Trace scaffolding ----------------------------------------------
    // One `mapreduce.job` span for the run, one stage span per phase; task
    // attempts parent under their stage via the context handed to
    // `run_attempts`. Job/stage spans are trace-only (raw tracer spans):
    // phase *aggregates* already reach reports through `JobStats`, so
    // duplicating them as collector spans would double-count.
    let job_trace: Option<ngs_observe::TraceContext> = cfg
        .collector
        .as_ref()
        .and_then(|c| c.tracer().cloned())
        .map(ngs_observe::TraceContext::new)
        .filter(|ctx| ctx.tracer().is_enabled());
    let job_span = job_trace.as_ref().map(|ctx| ctx.span("mapreduce.job"));
    let job_ctx = job_trace.as_ref().zip(job_span.as_ref()).map(|(ctx, span)| ctx.child(span.id()));

    // ---- Map phase -------------------------------------------------------
    // One task per input chunk; each task retried independently. Results
    // are joined in task order, which keeps downstream processing
    // deterministic regardless of scheduling or retries.
    let t0 = Instant::now();
    let chunk_size = input.len().div_ceil(workers).max(1);
    let chunks: Vec<&[I]> = input.chunks(chunk_size).collect();
    let mapper = &mapper;
    let counters_ref = &counters;
    let map_stage_span = job_ctx.as_ref().map(|ctx| ctx.span("mapreduce.stage.map"));
    let map_stage_ctx =
        job_ctx.as_ref().zip(map_stage_span.as_ref()).map(|(ctx, span)| ctx.child(span.id()));
    let map_stage_ctx = map_stage_ctx.as_ref();
    let map_results: Vec<Result<MapTaskOut<K, V>, JobError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .map(|(task, chunk)| {
                scope.spawn(move || {
                    run_attempts(Stage::Map, task, cfg, counters_ref, map_stage_ctx, |attempt| {
                        map_task_attempt(task, attempt, chunk, parts, cfg, mapper, combiner)
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("task harness must not panic")).collect()
    });
    drop(map_stage_span);
    record_stage_peak_mem(cfg, "map");
    let mut worker_outputs: Vec<Vec<Vec<(K, V)>>> = Vec::with_capacity(map_results.len());
    for result in map_results {
        let out = result?;
        stats.map_output_records += out.emitted;
        stats.combine_output_records += out.combined;
        worker_outputs.push(out.partitions);
    }
    stats.map_time = t0.elapsed();

    // ---- Shuffle ---------------------------------------------------------
    // No retryable tasks here (pure in-memory regrouping), so the trace
    // gets the stage span only.
    let shuffle_span = job_ctx.as_ref().map(|ctx| ctx.span("mapreduce.stage.shuffle"));
    let t1 = Instant::now();
    let mut partitions: Vec<Vec<(K, V)>> = (0..parts).map(|_| Vec::new()).collect();
    for worker_parts in worker_outputs {
        for (pi, mut part) in worker_parts.into_iter().enumerate() {
            stats.shuffle_bytes += (part.len() * std::mem::size_of::<(K, V)>()) as u64;
            partitions[pi].append(&mut part);
        }
    }
    // Sort partitions by key using at most `workers` threads, each
    // handling a contiguous tile of partitions (a job with hundreds of
    // partitions must not spawn hundreds of threads).
    let tile = parts.div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        for tile_slice in partitions.chunks_mut(tile) {
            scope.spawn(move || {
                for part in tile_slice {
                    part.sort_by(|a, b| a.0.cmp(&b.0));
                }
            });
        }
    });
    stats.shuffle_time = t1.elapsed();
    drop(shuffle_span);
    record_stage_peak_mem(cfg, "shuffle");

    // ---- Reduce ----------------------------------------------------------
    // One task per partition (the retry unit), executed by at most
    // `workers` threads over contiguous tiles. Retrying is safe because
    // a task only reads its partition and clones values out of it.
    let t2 = Instant::now();
    let reducer = &reducer;
    let partitions_ref = &partitions;
    let reduce_stage_span = job_ctx.as_ref().map(|ctx| ctx.span("mapreduce.stage.reduce"));
    let reduce_stage_ctx =
        job_ctx.as_ref().zip(reduce_stage_span.as_ref()).map(|(ctx, span)| ctx.child(span.id()));
    let reduce_stage_ctx = reduce_stage_ctx.as_ref();
    let reduce_results: Vec<Result<(Vec<O>, u64), JobError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..parts)
            .step_by(tile)
            .map(|start| {
                let end = (start + tile).min(parts);
                scope.spawn(move || {
                    (start..end)
                        .map(|pi| {
                            run_attempts(
                                Stage::Reduce,
                                pi,
                                cfg,
                                counters_ref,
                                reduce_stage_ctx,
                                |attempt| {
                                    reduce_task_attempt(
                                        pi,
                                        attempt,
                                        &partitions_ref[pi],
                                        cfg,
                                        reducer,
                                    )
                                },
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("task harness must not panic")).collect()
    });
    drop(reduce_stage_span);
    record_stage_peak_mem(cfg, "reduce");
    let mut result = Vec::new();
    for part_result in reduce_results {
        let (mut out, groups) = part_result?;
        stats.reduce_input_groups += groups;
        result.append(&mut out);
    }
    stats.reduce_output_records = result.len() as u64;
    stats.reduce_time = t2.elapsed();

    stats.task_failures = counters.task_failures.load(Ordering::Relaxed);
    stats.retried_tasks = counters.retried_tasks.load(Ordering::Relaxed);
    Ok((result, stats))
}

/// Record a `mapreduce.stage.<stage>.peak_mem_bytes` max-merged gauge on the
/// job's collector at a stage boundary. Prefers the tracking allocator's
/// live-byte high-watermark (exact, when the binary runs with
/// `--profile-mem`), falling back to `/proc` peak RSS; no-op when neither
/// source is available or the job has no collector.
fn record_stage_peak_mem(cfg: &JobConfig, stage: &str) {
    let Some(collector) = cfg.collector.as_deref() else {
        return;
    };
    let peak = ngs_observe::alloc::snapshot()
        .map(|s| s.peak_live_bytes)
        .or_else(|| ngs_observe::read_memory().peak_rss_bytes);
    if let Some(peak) = peak {
        collector.gauge_max(&format!("mapreduce.stage.{stage}.peak_mem_bytes"), peak as f64);
    }
}

/// One reduce task attempt: group and reduce a single sorted partition.
fn reduce_task_attempt<K, V, O, R>(
    task: usize,
    attempt: u32,
    part: &[(K, V)],
    cfg: &JobConfig,
    reducer: &R,
) -> Result<(Vec<O>, u64), String>
where
    K: Ord + Codec,
    V: Codec,
    R: Fn(&K, Vec<V>, &mut dyn FnMut(O)) + Sync,
{
    match cfg.fault_plan.fault_for(Stage::Reduce, task, attempt) {
        Some(FaultKind::Panic) => {
            panic!("injected panic in reduce task {task} attempt {attempt}")
        }
        Some(kind) => {
            return Err(format!("injected {kind:?} in reduce task {task} attempt {attempt}"))
        }
        None => {}
    }
    Ok(reduce_sorted(part, reducer))
}

/// Group a key-sorted partition into runs and invoke the reducer once per
/// distinct key; returns `(outputs, group_count)`. Shared by the in-process
/// reduce attempt and the worker-pool reduce task.
pub(crate) fn reduce_sorted<K, V, O, R>(part: &[(K, V)], reducer: &R) -> (Vec<O>, u64)
where
    K: Ord + Codec,
    V: Codec,
    R: Fn(&K, Vec<V>, &mut dyn FnMut(O)) + Sync,
{
    let mut out = Vec::new();
    let mut groups = 0u64;
    let mut i = 0;
    while i < part.len() {
        let mut j = i + 1;
        while j < part.len() && part[j].0 == part[i].0 {
            j += 1;
        }
        // Hand the reducer owned values; `clone_via_codec` is a direct
        // clone for every provided codec (see its docs for why the
        // public API uses the codec bound instead of `V: Clone`).
        let values: Vec<V> = part[i..j].iter().map(|(_, v)| v.clone_via_codec()).collect();
        groups += 1;
        reducer(&part[i].0, values, &mut |o: O| out.push(o));
        i = j;
    }
    (out, groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn word_count(cfg: &JobConfig, docs: &[&str]) -> Vec<(String, u64)> {
        let (mut out, _) = word_count_stats(cfg, docs).expect("job failed");
        out.sort();
        out
    }

    #[allow(clippy::type_complexity)]
    fn word_count_stats(
        cfg: &JobConfig,
        docs: &[&str],
    ) -> Result<(Vec<(String, u64)>, JobStats), JobError> {
        map_reduce(
            cfg,
            docs,
            |doc: &&str, emit| {
                for w in doc.split_whitespace() {
                    emit(w.to_string(), 1u64);
                }
            },
            None,
            |k: &String, vs: Vec<u64>, emit| emit((k.clone(), vs.iter().sum())),
        )
    }

    #[test]
    fn word_count_correct() {
        let docs = ["a b a", "b c", "a"];
        let cfg = JobConfig::with_workers(3);
        let got = word_count(&cfg, &docs);
        assert_eq!(got, vec![("a".into(), 3u64), ("b".into(), 2), ("c".into(), 1)]);
    }

    #[test]
    fn output_independent_of_worker_count() {
        let docs = ["x y z x", "y y", "z w x q", "m n o p q r s"];
        let baseline = word_count(&JobConfig::with_workers(1), &docs);
        for workers in [2, 3, 8] {
            assert_eq!(word_count(&JobConfig::with_workers(workers), &docs), baseline);
        }
    }

    #[test]
    fn combiner_preserves_results_and_shrinks_shuffle() {
        let docs: Vec<String> =
            (0..200).map(|i| format!("k{} k{} k{}", i % 3, i % 3, i % 5)).collect();
        let input: Vec<&str> = docs.iter().map(|s| s.as_str()).collect();
        let cfg = JobConfig::with_workers(4);
        let mapper = |doc: &&str, emit: &mut dyn FnMut(String, u64)| {
            for w in doc.split_whitespace() {
                emit(w.to_string(), 1u64);
            }
        };
        let reducer = |k: &String, vs: Vec<u64>, emit: &mut dyn FnMut((String, u64))| {
            emit((k.clone(), vs.iter().sum()))
        };
        let (mut plain, s_plain) =
            map_reduce(&cfg, &input, mapper, None, reducer).expect("plain job");
        let combiner = |_k: &String, vs: &mut Vec<u64>| {
            let total: u64 = vs.iter().sum();
            vs.clear();
            vs.push(total);
        };
        let (mut combined, s_comb) =
            map_reduce(&cfg, &input, mapper, Some(&combiner), reducer).expect("combined job");
        plain.sort();
        combined.sort();
        assert_eq!(plain, combined);
        assert!(s_comb.combine_output_records < s_plain.map_output_records);
    }

    #[test]
    fn stats_are_plausible() {
        let docs = ["a a a", "b"];
        let cfg = JobConfig::with_workers(2);
        let (_, stats) = word_count_stats(&cfg, &docs).expect("job failed");
        assert_eq!(stats.map_input_records, 2);
        assert_eq!(stats.map_output_records, 4);
        assert_eq!(stats.reduce_input_groups, 2);
        assert_eq!(stats.task_failures, 0);
        assert_eq!(stats.retried_tasks, 0);
    }

    #[test]
    fn collector_times_every_task_attempt() {
        let docs = ["a b a", "b c", "a"];
        let mut cfg = JobConfig::with_workers(3);
        cfg.retry_backoff = Duration::from_micros(100);
        cfg.fault_plan = FaultPlan::none().with_fault(Stage::Map, 1, 0, FaultKind::Panic);
        let collector = std::sync::Arc::new(ngs_observe::Collector::new());
        cfg.collector = Some(collector.clone());
        let (_, stats) = word_count_stats(&cfg, &docs).expect("job must recover");
        let report = collector.report("mr");
        // 3 map tasks + 1 retried attempt; one attempt per reduce partition.
        assert_eq!(report.spans["mapreduce.task.map"].count, 4);
        assert_eq!(report.spans["mapreduce.task.reduce"].count, cfg.reduce_partitions as u64);
        // Live counters agree with the JobStats the caller gets back.
        assert_eq!(report.counters["mapreduce.task_failures"], stats.task_failures);
        assert_eq!(report.counters["mapreduce.task_retries"], stats.retried_tasks);
    }

    #[test]
    fn trace_records_every_task_attempt_under_its_stage() {
        use ngs_observe::{TraceEventKind, Tracer};
        let docs = ["a b a", "b c", "a"];
        let mut cfg = JobConfig::with_workers(3);
        cfg.reduce_partitions = 2;
        cfg.retry_backoff = Duration::from_micros(100);
        cfg.fault_plan = FaultPlan::none().with_fault(Stage::Map, 1, 0, FaultKind::Panic);
        let tracer = std::sync::Arc::new(Tracer::new());
        let collector = std::sync::Arc::new(ngs_observe::Collector::with_tracer(tracer.clone()));
        cfg.collector = Some(collector);
        word_count_stats(&cfg, &docs).expect("job must recover");

        let events = tracer.events();
        let begins: Vec<_> = events.iter().filter(|e| e.kind == TraceEventKind::Begin).collect();
        let by_name = |n: &str| begins.iter().filter(|e| e.name == n).collect::<Vec<_>>();
        let job = by_name("mapreduce.job");
        assert_eq!(job.len(), 1);
        for stage in ["mapreduce.stage.map", "mapreduce.stage.shuffle", "mapreduce.stage.reduce"] {
            let s = by_name(stage);
            assert_eq!(s.len(), 1, "{stage}");
            assert_eq!(s[0].parent, job[0].id, "{stage} parents under the job");
        }
        // 3 map tasks + 1 retried attempt, all siblings under the map stage.
        let map_stage_id = by_name("mapreduce.stage.map")[0].id;
        let map_tasks = by_name("mapreduce.task.map");
        assert_eq!(map_tasks.len(), 4);
        assert!(map_tasks.iter().all(|e| e.parent == map_stage_id));
        let task1: Vec<_> = map_tasks.iter().filter(|e| e.detail.starts_with("task=1")).collect();
        assert_eq!(task1.len(), 2, "failed attempt 0 and successful attempt 1");
        assert!(task1.iter().any(|e| e.detail == "task=1 attempt=0"));
        assert!(task1.iter().any(|e| e.detail == "task=1 attempt=1"));
        // One attempt per reduce partition under the reduce stage.
        let reduce_stage_id = by_name("mapreduce.stage.reduce")[0].id;
        let reduce_tasks = by_name("mapreduce.task.reduce");
        assert_eq!(reduce_tasks.len(), 2);
        assert!(reduce_tasks.iter().all(|e| e.parent == reduce_stage_id));
        // The injected failure left an instant marker.
        assert!(events.iter().any(|e| e.kind == TraceEventKind::Instant
            && e.name == "mapreduce.task.failed"
            && e.detail.contains("task=1 attempt=0")));
        // Begin/end balance (the panicked attempt included).
        let ends = events.iter().filter(|e| e.kind == TraceEventKind::End).count();
        assert_eq!(begins.len(), ends);
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_desynchronized() {
        let base = Duration::from_millis(8);
        for attempt in 1..6u32 {
            let exp = base * (1u32 << (attempt - 1));
            for task in 0..32 {
                let d = backoff_with_jitter(base, attempt, Stage::Map, task);
                assert_eq!(d, backoff_with_jitter(base, attempt, Stage::Map, task));
                assert!(d >= exp.mul_f64(0.5) && d < exp, "{d:?} vs {exp:?}");
            }
        }
        // Coordinates actually spread the delays: tasks failing in the same
        // tick must not all sleep the same duration.
        let delays: std::collections::BTreeSet<Duration> =
            (0..16).map(|t| backoff_with_jitter(base, 1, Stage::Reduce, t)).collect();
        assert!(delays.len() > 8, "only {} distinct delays of 16", delays.len());
    }

    #[test]
    fn empty_input_is_fine() {
        let empty: Vec<&str> = Vec::new();
        let (out, stats) = map_reduce(
            &JobConfig::with_workers(4),
            &empty,
            |_doc: &&str, _emit: &mut dyn FnMut(String, u64)| {},
            None,
            |k: &String, vs: Vec<u64>, emit| emit((k.clone(), vs.len() as u64)),
        )
        .expect("empty job");
        assert!(out.is_empty());
        assert_eq!(stats.map_input_records, 0);
    }

    #[test]
    fn injected_map_panic_is_retried() {
        let docs = ["a b a", "b c", "a"];
        let mut cfg = JobConfig::with_workers(3);
        cfg.retry_backoff = Duration::from_micros(100);
        cfg.fault_plan = FaultPlan::none().with_fault(Stage::Map, 1, 0, FaultKind::Panic);
        let (mut out, stats) = word_count_stats(&cfg, &docs).expect("job must recover");
        out.sort();
        assert_eq!(out, word_count(&JobConfig::with_workers(3), &docs));
        assert_eq!(stats.task_failures, 1);
        assert_eq!(stats.retried_tasks, 1);
    }

    #[test]
    fn exhausted_attempts_fail_the_job_without_panicking() {
        let docs = ["a b", "c d"];
        let mut cfg = JobConfig::with_workers(2);
        cfg.max_attempts = 3;
        cfg.retry_backoff = Duration::from_micros(100);
        cfg.fault_plan = FaultPlan::none()
            .with_fault(Stage::Map, 0, 0, FaultKind::Panic)
            .with_fault(Stage::Map, 0, 1, FaultKind::Panic)
            .with_fault(Stage::Map, 0, 2, FaultKind::Panic);
        let err = word_count_stats(&cfg, &docs).expect_err("job must fail");
        assert_eq!(err.stage, Stage::Map);
        assert_eq!(err.task, 0);
        assert_eq!(err.attempts, 3);
        assert!(err.last_error.contains("injected panic"), "{}", err.last_error);
    }

    #[test]
    fn injected_reduce_failure_is_retried() {
        let docs = ["a b a", "b c"];
        let mut cfg = JobConfig::with_workers(2);
        cfg.retry_backoff = Duration::from_micros(100);
        cfg.fault_plan = FaultPlan::none()
            .with_fault(Stage::Reduce, 0, 0, FaultKind::Panic)
            .with_fault(Stage::Reduce, 3, 0, FaultKind::IoError);
        let (mut out, stats) = word_count_stats(&cfg, &docs).expect("job must recover");
        out.sort();
        assert_eq!(out, word_count(&JobConfig::with_workers(2), &docs));
        assert_eq!(stats.task_failures, 2);
        assert_eq!(stats.retried_tasks, 2);
    }

    proptest! {
        #[test]
        fn equals_sequential_group_by(pairs in proptest::collection::vec((0u64..50, any::<u32>()), 0..300),
                                      workers in 1usize..6) {
            // Reference: BTreeMap group-by-key, summed.
            let mut expect: BTreeMap<u64, u64> = BTreeMap::new();
            for &(k, v) in &pairs {
                *expect.entry(k).or_insert(0) += v as u64;
            }
            let cfg = JobConfig::with_workers(workers);
            let (mut got, _) = map_reduce(
                &cfg,
                &pairs,
                |&(k, v): &(u64, u32), emit| emit(k, v),
                None,
                |k: &u64, vs: Vec<u32>, emit| emit((*k, vs.iter().map(|&v| v as u64).sum::<u64>())),
            ).expect("job failed");
            got.sort();
            let expect: Vec<(u64, u64)> = expect.into_iter().collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn seeded_faults_never_change_results(seed in any::<u64>(), workers in 1usize..5) {
            let docs = ["the quick brown fox", "jumps over the lazy dog", "the end"];
            let mut faulty = JobConfig::with_workers(workers);
            faulty.retry_backoff = Duration::from_micros(50);
            faulty.fault_plan = FaultPlan::seeded(seed, 0.5);
            let clean_out = word_count(&JobConfig::with_workers(workers), &docs);
            let (mut out, _) = word_count_stats(&faulty, &docs).expect("seeded faults must recover");
            out.sort();
            prop_assert_eq!(out, clean_out);
        }
    }
}
