//! Acceptance tests for the fault-tolerance layer: task retries, exhausted
//! attempts as typed errors, and the full CLOSET pipeline running correctly
//! under injected faults.

use ngs::mapreduce::codec::encode_frames;
use ngs::mapreduce::{map_reduce, FaultKind, FaultPlan, JobConfig, Stage};
use ngs::prelude::*;
use std::time::Duration;

/// A deterministic k-mer counting job over simulated reads.
#[allow(clippy::type_complexity)]
fn kmer_count_job(
    cfg: &JobConfig,
    reads: &[Read],
) -> Result<(Vec<(u64, u32)>, ngs::mapreduce::JobStats), ngs::mapreduce::JobError> {
    map_reduce(
        cfg,
        reads,
        |r: &Read, emit: &mut dyn FnMut(u64, u32)| {
            ngs::kmer::for_each_kmer(&r.seq, 11, |_, v| emit(v, 1));
        },
        None,
        |k: &u64, vs: Vec<u32>, emit: &mut dyn FnMut((u64, u32))| emit((*k, vs.len() as u32)),
    )
}

fn test_reads(seed: u64) -> Vec<Read> {
    let genome = GenomeSpec::uniform(4_000).generate(seed).seq;
    let cfg =
        ReadSimConfig::with_coverage(genome.len(), 40, 12.0, ErrorModel::uniform(40, 0.01), seed);
    simulate_reads(&genome, &cfg).reads
}

fn fast_retry(mut cfg: JobConfig) -> JobConfig {
    cfg.retry_backoff = Duration::from_micros(100);
    cfg
}

// (a) A map task that panics on its first attempt succeeds on retry with
// byte-identical output.
#[test]
fn map_panic_retried_with_byte_identical_output() {
    let reads = test_reads(1);
    let clean_cfg = JobConfig::with_workers(4);
    let (mut clean, clean_stats) = kmer_count_job(&clean_cfg, &reads).expect("clean job");
    clean.sort_unstable();

    let mut faulty_cfg = fast_retry(JobConfig::with_workers(4));
    faulty_cfg.fault_plan = FaultPlan::none()
        .with_fault(Stage::Map, 0, 0, FaultKind::Panic)
        .with_fault(Stage::Map, 2, 0, FaultKind::Panic);
    let (mut faulty, stats) = kmer_count_job(&faulty_cfg, &reads).expect("job must recover");
    faulty.sort_unstable();

    assert_eq!(clean_stats.task_failures, 0);
    assert_eq!(stats.task_failures, 2);
    assert_eq!(stats.retried_tasks, 2);
    // Byte-identical: compare the codec encodings, not just logical equality.
    assert_eq!(encode_frames(&clean), encode_frames(&faulty));
}

// (b) A task that fails `max_attempts` times yields `Err(JobError)` — no
// panic escapes `map_reduce`.
#[test]
fn exhausted_attempts_yield_err_not_panic() {
    let reads = test_reads(3);
    let mut cfg = fast_retry(JobConfig::with_workers(2));
    cfg.max_attempts = 3;
    cfg.fault_plan = FaultPlan::none()
        .with_fault(Stage::Map, 0, 0, FaultKind::Panic)
        .with_fault(Stage::Map, 0, 1, FaultKind::Panic)
        .with_fault(Stage::Map, 0, 2, FaultKind::Panic);
    let caught = std::panic::catch_unwind(|| kmer_count_job(&cfg, &reads));
    let result = caught.expect("no panic may escape map_reduce");
    let err = result.expect_err("job must fail after exhausting attempts");
    assert_eq!(err.stage, Stage::Map);
    assert_eq!(err.task, 0);
    assert_eq!(err.attempts, 3);
    assert!(err.last_error.contains("injected panic"), "{}", err.last_error);
}

// Reduce-stage variant of (b): injected I/O errors exhaust attempts too.
#[test]
fn exhausted_reduce_attempts_yield_err() {
    let reads = test_reads(4);
    let mut cfg = fast_retry(JobConfig::with_workers(2));
    cfg.max_attempts = 2;
    cfg.fault_plan = FaultPlan::none()
        .with_fault(Stage::Reduce, 0, 0, FaultKind::IoError)
        .with_fault(Stage::Reduce, 0, 1, FaultKind::IoError);
    let err = kmer_count_job(&cfg, &reads).expect_err("reduce task must fail the job");
    assert_eq!(err.stage, Stage::Reduce);
    assert_eq!(err.attempts, 2);
}

// The full CLOSET pipeline (8 MapReduce tasks, §4.4) completes correctly
// under a fault plan injecting at least one failure into each stage, and
// its cluster output is identical to the fault-free run.
#[test]
fn closet_pipeline_correct_under_injected_faults() {
    let cfg = CommunityConfig {
        gene_len: 500,
        ranks: vec![
            RankSpec { name: "phylum", children: 3, divergence: 0.2 },
            RankSpec { name: "species", children: 2, divergence: 0.03 },
        ],
        n_reads: 300,
        read_len_min: 300,
        read_len_max: 450,
        error_rate: 0.005,
        abundance_exponent: 0.7,
        seed: 11,
    };
    let c = simulate_community(&cfg);

    let clean_params = ClosetParams::standard(380, vec![0.8, 0.6], 4);
    let clean = closet::run(&c.reads, &clean_params).expect("clean pipeline");
    assert_eq!(clean.job_stats.task_failures, 0);

    // Explicit first-attempt faults in both stages (these fire in every
    // job of the pipeline) plus a seeded background layer. Seeded faults
    // only ever hit first attempts, so with max_attempts = 4 the pipeline
    // must converge.
    let mut faulty_params = ClosetParams::standard(380, vec![0.8, 0.6], 4);
    faulty_params.job = fast_retry(faulty_params.job);
    faulty_params.job.fault_plan = FaultPlan::seeded(0xC105E7, 0.2)
        .with_fault(Stage::Map, 0, 0, FaultKind::Panic)
        .with_fault(Stage::Reduce, 0, 0, FaultKind::IoError);
    let faulty = closet::run(&c.reads, &faulty_params).expect("faulty pipeline must recover");

    // At least one failure per stage was injected and retried away.
    assert!(faulty.job_stats.task_failures >= 2, "{:?}", faulty.job_stats);
    assert!(faulty.job_stats.retried_tasks > 0, "{:?}", faulty.job_stats);

    // Identical results: same confirmed edges and same clusters at every
    // threshold.
    assert_eq!(faulty.confirmed_edges, clean.confirmed_edges);
    assert_eq!(faulty.sketch_stats.unique_edges, clean.sketch_stats.unique_edges);
    assert_eq!(faulty.clusters_by_threshold.len(), clean.clusters_by_threshold.len());
    for ((t_f, cl_f), (t_c, cl_c)) in
        faulty.clusters_by_threshold.iter().zip(&clean.clusters_by_threshold)
    {
        assert_eq!(t_f, t_c);
        let verts = |cls: &[closet::Cluster]| {
            let mut v: Vec<Vec<u32>> = cls.iter().map(|c| c.vertices.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(verts(cl_f), verts(cl_c), "clusters differ at t={t_f}");
    }
}
