//! Crash-survivability matrix for the multi-process MapReduce pool, run
//! against the real `ngs-mr-worker` binary (true SIGKILL, true process
//! respawn — not the thread-mode shim the unit tests use).
//!
//! The contract under test: for EVERY (stage, task) coordinate, a worker
//! SIGKILLed while holding that task's lease must not change a single
//! output byte versus an unfaulted in-process run, and the driver's
//! stats must show the death, the respawn, and the lease reassignment.

use closet::PairCountSpec;
use mapreduce_lite::{
    run_local, run_pooled, FaultKind, FaultPlan, JobConfig, JobStats, PoolConfig, PoolSession,
    Stage, WordCountSpec,
};
use std::time::{Duration, Instant};

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_ngs-mr-worker").to_string()]
}

fn process_pool(workers: usize) -> PoolConfig {
    PoolConfig::with_worker_cmd(workers, worker_cmd())
}

/// Sketch groups with overlapping membership, so Task 2 produces pair
/// counts > 1 and every reduce partition has real work.
fn groups() -> Vec<(u64, Vec<u32>)> {
    (0..12u64)
        .map(|g| {
            let len = 3 + (g % 4) as u32;
            (100 + g, (0..len).map(|i| (g as u32 * 3 + i) % 10).collect())
        })
        .collect()
}

fn base_cfg() -> JobConfig {
    let mut cfg = JobConfig::with_workers(2);
    cfg.reduce_partitions = 3;
    cfg.retry_backoff = Duration::from_millis(1);
    cfg
}

#[test]
fn unfaulted_pooled_run_matches_in_process_bytes() {
    let input = groups();
    let cfg = base_cfg();
    let (clean, _) = run_local(&PairCountSpec, &input, &cfg).expect("local");
    let (pooled, stats) =
        run_pooled(&PairCountSpec, &input, &cfg, &process_pool(2)).expect("pooled");
    assert_eq!(pooled, clean);
    assert_eq!(stats.worker_deaths, 0);
    assert_eq!(stats.task_failures, 0);
    // Sanity: the job actually counted overlapping pairs.
    assert!(clean.iter().any(|&(_, n)| n > 1), "{clean:?}");
}

#[test]
fn sigkill_at_every_stage_task_coordinate_is_survivable() {
    let input = groups();
    let cfg = base_cfg();
    let (clean, _) = run_local(&PairCountSpec, &input, &cfg).expect("local");
    // 2 map tasks (one per worker chunk), 3 shuffle + 3 reduce tasks (one
    // per partition): the full coordinate space of this job shape.
    for (stage, tasks) in [(Stage::Map, 2), (Stage::Shuffle, 3), (Stage::Reduce, 3)] {
        for task in 0..tasks {
            let mut faulty = base_cfg();
            faulty.fault_plan = FaultPlan::none().with_fault(stage, task, 0, FaultKind::KillWorker);
            let (pooled, stats) = run_pooled(&PairCountSpec, &input, &faulty, &process_pool(2))
                .unwrap_or_else(|e| panic!("{stage:?} task {task}: {e}"));
            assert_eq!(pooled, clean, "output diverged after SIGKILL at {stage:?} task {task}");
            assert!(stats.worker_deaths >= 1, "{stage:?} task {task}: no death recorded");
            assert!(stats.tasks_reassigned >= 1, "{stage:?} task {task}: lease not reassigned");
            assert_eq!(stats.workers_respawned, stats.worker_deaths);
            // A reassignment is also a failure + retry, per the JobStats
            // contract.
            assert!(stats.task_failures >= stats.tasks_reassigned);
            assert!(stats.retried_tasks >= 1);
        }
    }
}

#[test]
fn stalled_worker_process_is_detected_by_heartbeat_deadline() {
    let input = groups();
    let mut faulty = base_cfg();
    faulty.fault_plan = FaultPlan::none().with_fault(Stage::Map, 1, 0, FaultKind::StallHeartbeat);
    let cfg = base_cfg();
    let (clean, _) = run_local(&PairCountSpec, &input, &cfg).expect("local");
    let mut pool = process_pool(2);
    pool.heartbeat_interval = Duration::from_millis(20);
    pool.heartbeat_timeout = Duration::from_millis(400);
    let started = Instant::now();
    let (pooled, stats) = run_pooled(&PairCountSpec, &input, &faulty, &pool).expect("pooled");
    let elapsed = started.elapsed();
    assert_eq!(pooled, clean);
    assert!(stats.worker_deaths >= 1, "stalled worker never declared dead");
    assert!(stats.tasks_reassigned >= 1);
    // Detection must come from the 400 ms heartbeat deadline, nowhere
    // near the 60 s lease timeout.
    assert!(elapsed < Duration::from_secs(30), "detection took {elapsed:?}");
}

/// A job of two records is over before a slow-starting sibling worker has
/// said `Hello`. That worker then waits for a `Setup` nobody will send;
/// teardown must kill it at once, not sit out the reap deadline on it (the
/// 2.012 s `mapreduce.pool_fixed_cost_s` the benchmark once recorded).
#[test]
fn teardown_never_waits_for_a_worker_that_missed_the_job() {
    let lines = ["a b".to_string(), "b c".to_string()];
    let cfg = JobConfig::with_workers(2);
    let (clean, _) = run_local(&WordCountSpec, &lines, &cfg).expect("local");
    for round in 0..200u32 {
        // Worker 1 starts 0–40 ms late, sweeping its `Hello` from well
        // inside the job to well after it; worker 0 starts at once. The
        // pool appends `<socket> <worker-id>` to the command.
        let late =
            format!(r#"[ "$2" = 1 ] && sleep 0.0{:02}; exec "$0" "$1" "$2""#, round % 5 * 10);
        let mut cmd = vec!["sh".to_string(), "-c".to_string(), late];
        cmd.extend(worker_cmd());
        let pool = PoolConfig::with_worker_cmd(2, cmd);
        let started = Instant::now();
        let (pooled, stats) = run_pooled(&WordCountSpec, &lines, &cfg, &pool).expect("pooled");
        // What is not a stage is spawn and teardown, and spawn does not wait.
        let outside = started.elapsed() - (stats.map_time + stats.shuffle_time + stats.reduce_time);
        assert_eq!(pooled, clean);
        assert_eq!(stats.worker_deaths, 0);
        assert!(
            outside < Duration::from_millis(200),
            "round {round}: spawn and teardown took {outside:?}"
        );
    }
}

/// The heartbeat thread waits on a condvar that `Drain` wakes, so a worker
/// leaves when told and not at its next beat: with a 5 s interval, a whole
/// run — spawn, a two-record job, teardown — stays under 2 s, round after
/// round. (A worker joined behind `sleep(heartbeat_interval)` takes 5 s.)
#[test]
fn teardown_is_not_held_up_by_the_heartbeat_interval() {
    let lines = ["a b".to_string(), "b c".to_string()];
    let cfg = JobConfig::with_workers(2);
    let (clean, _) = run_local(&WordCountSpec, &lines, &cfg).expect("local");
    let mut pool = process_pool(2);
    pool.heartbeat_interval = Duration::from_secs(5);
    // No beat arrives during a job this short; nobody is to die of that.
    pool.heartbeat_timeout = Duration::from_secs(60);
    for round in 0..5u32 {
        let started = Instant::now();
        let (pooled, stats) = run_pooled(&WordCountSpec, &lines, &cfg, &pool).expect("pooled");
        let took = started.elapsed();
        assert_eq!(pooled, clean);
        assert_eq!((stats.worker_deaths, stats.pool_sessions, stats.pool_spawns), (0, 1, 2));
        assert!(took < Duration::from_secs(2), "round {round}: the run took {took:?}");
    }
}

/// One session of real worker processes, six jobs alternating two specs,
/// one worker SIGKILLed while it holds a lease of job 3: every job's output
/// is `run_local`'s, the death costs one respawn, and jobs 4–6 run on the
/// replacement without another spawn.
#[test]
fn a_session_survives_a_sigkill_and_keeps_its_workers_for_the_later_jobs() {
    let pairs = groups();
    let lines: Vec<String> = (0..40).map(|i| format!("w{} w{} the end", i % 7, i % 3)).collect();
    let mut session = PoolSession::start(&process_pool(2)).expect("session");
    let mut total = JobStats::default();
    for n in 0..6 {
        let mut cfg = base_cfg();
        if n == 2 {
            cfg.fault_plan =
                FaultPlan::none().with_fault(Stage::Shuffle, 1, 0, FaultKind::KillWorker);
        }
        let stats = if n % 2 == 0 {
            let (clean, _) = run_local(&PairCountSpec, &pairs, &base_cfg()).expect("local");
            let (pooled, stats) = session.run(&PairCountSpec, &pairs, &cfg).expect("pooled");
            assert_eq!(pooled, clean, "job {n}");
            stats
        } else {
            let (clean, _) = run_local(&WordCountSpec, &lines, &base_cfg()).expect("local");
            let (pooled, stats) = session.run(&WordCountSpec, &lines, &cfg).expect("pooled");
            assert_eq!(pooled, clean, "job {n}");
            stats
        };
        assert_eq!(stats.worker_deaths, u64::from(n == 2), "job {n}");
        assert_eq!(stats.pool_spawns, [2, 0, 1, 0, 0, 0][n], "job {n}");
        total.merge(&stats);
    }
    assert_eq!((total.workers_respawned, total.tasks_reassigned), (1, 1));
    assert_eq!((total.pool_sessions, total.pool_spawns), (1, 3));
}

#[test]
fn closet_cluster_cli_is_byte_identical_with_worker_processes() {
    let dir = std::env::temp_dir().join(format!("ngs_worker_crash_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let input = dir.join("reads.fasta");
    std::fs::write(&input, synthetic_fasta()).expect("write input");
    let run = |out: &str, extra: &[&str]| {
        let out_path = dir.join(out);
        // Each run also writes its event trace: on a CI failure the
        // workdir (and these JSONL files, worker/task spans included) is
        // uploaded as the debugging artifact.
        let trace_path = dir.join(format!("{out}.trace.jsonl"));
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_closet-cluster"))
            .arg("--input")
            .arg(&input)
            .arg("--output")
            .arg(&out_path)
            .arg("--trace-jsonl")
            .arg(&trace_path)
            .args(["--workers", "2", "--thresholds", "0.8,0.6"])
            .args(extra)
            .status()
            .expect("spawn closet-cluster");
        assert!(status.success(), "closet-cluster {extra:?} exited {status}");
        assert!(trace_path.exists(), "no trace written for {out}");
        std::fs::read(&out_path).expect("read output")
    };
    let inproc = run("inproc.tsv", &[]);
    let pooled = run("pooled.tsv", &["--mr-workers", "2"]);
    let pooled_trace =
        std::fs::read_to_string(dir.join("pooled.tsv.trace.jsonl")).expect("read trace");
    assert!(pooled_trace.contains("mapreduce.worker.0"), "pooled trace lacks worker spans");
    assert_eq!(pooled, inproc, "--mr-workers must not change a single output byte");
    assert!(!inproc.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four divergent "genes", four near-identical reads each: enough signal
/// for CLOSET to form clusters at the test thresholds.
fn synthetic_fasta() -> String {
    let mut out = String::new();
    for gene in 0..4u64 {
        let mut state = 0x9E37_79B9u64.wrapping_mul(gene + 1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let gene_seq: Vec<u8> = (0..240).map(|_| b"ACGT"[next() % 4]).collect();
        for copy in 0..4usize {
            let mut read = gene_seq.clone();
            // One substitution per copy keeps same-gene reads similar.
            let pos = 20 + copy * 37;
            read[pos] = b"TGCA"[(read[pos] as usize + copy) % 4];
            out.push_str(&format!(">g{gene}c{copy}\n"));
            out.push_str(std::str::from_utf8(&read).unwrap());
            out.push('\n');
        }
    }
    out
}
