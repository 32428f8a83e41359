//! Observability smoke bench: run each pipeline on a tiny dataset with a
//! recording collector, write `BENCH_<pipeline>.json` reports, and exit
//! non-zero when any required span is missing. CI runs this on every push
//! (the `smoke-bench` job), so a refactor that silently drops an
//! instrumentation point fails the build instead of the next benchmarking
//! session.
//!
//! Usage: `smoke_bench [--out-dir DIR] [--profile-mem] [--profile-cpu[=HZ]]
//! [--resource-jsonl PATH]` (default out-dir `.`). With `--profile-mem` the
//! tracking allocator is enabled, so the reports carry nonzero `alloc`
//! figures and per-span `alloc_peak_bytes`, and the peak watermark is
//! rebased between pipelines so each report shows its own peak. With
//! `--profile-cpu` each pipeline runs under the span-stack CPU sampler: its
//! BENCH report carries the v3 `cpu` axis and a `PROFILE_<pipeline>.folded`
//! collapsed-stack file lands next to it. The `NGS_SMOKE_ALLOC_BLOWUP_MB` env
//! var is a test-only hook that holds an extra N-MiB buffer live across the
//! reptile run — CI uses it to prove `ngs-trace diff` fails on the memory
//! axis while wall time stays in tolerance.

use ngs_bench::datasets;
use ngs_observe::Collector;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Registered at compile time; counts nothing until `--profile-mem` flips
/// it on (see `ngs_observe::alloc`).
#[global_allocator]
static ALLOC: ngs_observe::alloc::TrackingAllocator = ngs_observe::alloc::TrackingAllocator;

/// The spans every pipeline must produce, keyed by pipeline name. The same
/// lists gate the CLIs' `--metrics-json` runs (see `crates/cli/src/bin/`).
const REQUIRED: &[(&str, &[&str])] = &[
    (
        "reptile",
        &[
            "reptile.build.anchors",
            "reptile.build.tiles",
            "reptile.build.neighbor_index",
            "reptile.correct",
        ],
    ),
    ("redeem", &["redeem.em.iteration", "redeem.threshold.fit"]),
    (
        "closet",
        &[
            "closet.sketch",
            "closet.validate",
            "closet.cluster",
            // The worker-pool comparison pair: Phase-I sketch jobs
            // in-process vs on worker processes. Blessed into
            // bench/baselines/BENCH_closet.json, so a regression in pool
            // overhead fails the perf gate like any other span.
            "closet.mr.inproc",
            "closet.mr.pooled",
        ],
    ),
];

fn main() -> ExitCode {
    // Hidden worker mode: the closet comparison pair re-execs this binary
    // as its pool workers, so driver and workers share one build.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_some_and(|a| a == "--mr-worker") {
        let mut registry = mapreduce_lite::JobRegistry::with_builtins();
        closet::register_specs(&mut registry);
        std::process::exit(mapreduce_lite::worker_main(&registry, &raw[1..]));
    }

    let mut out_dir = PathBuf::from(".");
    let mut profile_mem = false;
    let mut profile_cpu: Option<u32> = None;
    let mut resource_jsonl: Option<PathBuf> = None;
    let mut argv = raw.into_iter();
    while let Some(tok) = argv.next() {
        match tok.as_str() {
            "--out-dir" => match argv.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out-dir requires a value");
                    return ExitCode::FAILURE;
                }
            },
            "--profile-mem" => profile_mem = true,
            "--profile-cpu" => profile_cpu = Some(ngs_observe::profile::DEFAULT_HZ),
            tok if tok.starts_with("--profile-cpu=") => {
                match tok["--profile-cpu=".len()..].parse::<u32>() {
                    Ok(hz) if (1..=10_000).contains(&hz) => profile_cpu = Some(hz),
                    _ => {
                        eprintln!("--profile-cpu: rate must be an integer in 1..=10000 Hz");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--resource-jsonl" => match argv.next() {
                Some(path) => resource_jsonl = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--resource-jsonl requires a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: \
                     smoke_bench [--out-dir DIR] [--profile-mem] [--profile-cpu[=HZ]] \
                     [--resource-jsonl PATH]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    // Measure tracking overhead before the pipelines so the figure lands in
    // every report (the acceptance criterion wants it in the artifact).
    let overhead_frac = profile_mem.then(measure_tracking_overhead);
    if let Some(frac) = overhead_frac {
        eprintln!("allocator tracking overhead on an alloc-heavy loop: {:+.2}%", frac * 100.0);
        if !ngs_observe::alloc::enable() {
            eprintln!("tracking allocator failed to install");
            return ExitCode::FAILURE;
        }
    }
    let sampler = resource_jsonl.as_ref().map(|_| {
        ngs_observe::sampler::ResourceSampler::start(std::time::Duration::from_millis(50))
    });

    // Rebase the peak watermark before each pipeline so each BENCH report
    // carries that pipeline's own peak, not the max so far. The CPU
    // profiler likewise restarts per pipeline, so each folded file and
    // each report's `cpu` axis covers exactly that pipeline's samples.
    let mut failed = false;
    let runs: Vec<(&str, Collector)> = [
        ("reptile", run_reptile as fn() -> Collector),
        ("redeem", run_redeem),
        ("closet", run_closet),
    ]
    .into_iter()
    .map(|(name, run)| {
        ngs_observe::alloc::reset_peak();
        let blowup = (name == "reptile").then(alloc_blowup);
        let profiler = profile_cpu.and_then(ngs_observe::profile::start);
        let collector = run();
        if let Some(p) = profiler {
            let data = p.stop();
            collector.apply_cpu_profile(&data);
            let path = out_dir.join(format!("PROFILE_{name}.folded"));
            match ngs_durable::write_atomic(&path, data.to_folded_string().as_bytes()) {
                Ok(()) => eprintln!(
                    "wrote {} cpu samples ({} stacks) to {}",
                    data.oncpu_samples + data.offcpu_samples,
                    data.folded.len(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!("write {}: {e}", path.display());
                    failed = true;
                }
            }
        }
        drop(blowup);
        (name, collector)
    })
    .collect();
    for (pipeline, collector) in &runs {
        if let Some(frac) = overhead_frac {
            collector.gauge("bench.alloc_tracking_overhead_frac", frac);
        }
        if let Err(msg) = check_and_write(pipeline, collector, &out_dir) {
            eprintln!("FAIL {pipeline}: {msg}");
            failed = true;
        }
    }
    if let (Some(sampler), Some(path)) = (sampler, resource_jsonl) {
        let samples = sampler.stop();
        let jsonl = ngs_observe::sampler::to_jsonl(&samples);
        if let Err(e) = ngs_durable::write_atomic(&path, jsonl.as_bytes()) {
            eprintln!("write {}: {e}", path.display());
            failed = true;
        } else {
            eprintln!("wrote {} resource samples to {}", samples.len(), path.display());
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Time an allocation-heavy loop with tracking off, then on, and return the
/// fractional slowdown. One quick reading on a shared CI box — logged as a
/// gauge for trend-watching, asserted loosely (< 3x) only in
/// `crates/observe/tests/alloc_tracking.rs`.
fn measure_tracking_overhead() -> f64 {
    fn storm() -> std::time::Duration {
        let start = Instant::now();
        for i in 0..100_000usize {
            let v = vec![0u8; 64 + (i % 512)];
            std::hint::black_box(&v);
        }
        start.elapsed()
    }
    ngs_observe::alloc::disable();
    storm(); // warm-up
    let disabled = storm().as_secs_f64().max(1e-9);
    ngs_observe::alloc::enable();
    let enabled = storm().as_secs_f64();
    ngs_observe::alloc::disable();
    enabled / disabled - 1.0
}

/// Test-only hook: hold an extra `NGS_SMOKE_ALLOC_BLOWUP_MB` MiB live for
/// the duration of a pipeline run, inflating its spans' peak-memory figures
/// without touching their wall time.
fn alloc_blowup() -> Option<Vec<u8>> {
    let mb: usize = std::env::var("NGS_SMOKE_ALLOC_BLOWUP_MB").ok()?.parse().ok()?;
    (mb > 0).then(|| vec![0xAB; mb << 20])
}

/// Verify the pipeline's required spans and write its JSON report.
fn check_and_write(pipeline: &str, collector: &Collector, out_dir: &Path) -> Result<(), String> {
    let required =
        REQUIRED.iter().find(|(p, _)| *p == pipeline).map(|(_, spans)| *spans).unwrap_or_default();
    let report = collector.report(pipeline);
    let missing = report.missing_spans(required);
    if !missing.is_empty() {
        return Err(format!("missing required spans: {}", missing.join(", ")));
    }
    let path = out_dir.join(format!("BENCH_{pipeline}.json"));
    ngs_durable::write_atomic(&path, report.to_json().as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "OK {pipeline}: {} spans, {} counters -> {}",
        report.spans.len(),
        report.counters.len(),
        path.display()
    );
    Ok(())
}

/// Reptile on a tiny Chapter-2 dataset: two correction passes through one
/// built index (exercising the index-reuse path).
fn run_reptile() -> Collector {
    let spec = datasets::Ch2Spec { genome_len: 6_000, ..datasets::ch2_specs()[1].clone() };
    let (_, sim) = datasets::make_ch2(&spec);
    let collector = Collector::new();
    // Phase 1 once, as the CLI runs it: the table the thresholds are read
    // off is the table the index keeps.
    let (params, tiles) = {
        let _s = collector.span("reptile.build.tiles");
        reptile::ReptileParams::from_data_with_tiles(&sim.reads, spec.genome_len, None)
    };
    let corrector =
        reptile::Reptile::build_with_observed(&sim.reads, params, Some(tiles), &collector);
    let _ = corrector.correct_observed(&sim.reads, &collector);
    collector
}

/// REDEEM on a tiny repeat genome: EM plus the §3.7 threshold fit.
fn run_redeem() -> Collector {
    let spec = datasets::Ch3Spec {
        genome_len: 4_000,
        // The R1 repeat classes scaled down to fit the shrunken genome.
        repeats: vec![ngs_simulate::RepeatClass { length: 300, multiplicity: 5 }],
        ..datasets::ch3_specs()[0].clone()
    };
    let (_, sim) = datasets::make_ch3(&spec);
    let collector = Collector::new();
    let k = 9;
    let model = redeem::KmerErrorModel::uniform(k, spec.error_rate);
    let redeem = redeem::Redeem::new(&sim.reads, k, &model, 1);
    let result =
        redeem.run_observed(&redeem::EmConfig { dmax: 1, max_iters: 30, tol: 1e-7 }, &collector);
    let _ = redeem::fit_threshold_model_observed(&result.t, 3, &collector);
    collector
}

/// CLOSET on a tiny community, with per-task MapReduce spans enabled,
/// plus the in-process vs multi-process Phase-I comparison pair.
fn run_closet() -> Collector {
    let spec = datasets::Ch4Spec { n_reads: 400, ..datasets::ch4_specs()[0].clone() };
    let community = datasets::make_ch4(&spec);
    let collector = std::sync::Arc::new(Collector::new());
    let mut params = closet::ClosetParams::standard(370, vec![0.8, 0.6], 2);
    params.job.collector = Some(collector.clone());
    closet::run_observed(&community.reads, &params, &collector).expect("closet pipeline");

    // The same sketch jobs once in-process and once on two worker
    // processes (this binary, re-execed). The pooled run must cost only
    // IPC overhead on top of the in-process one; both spans land in the
    // baseline so the gap is regression-gated.
    let span_ns = |d: std::time::Duration| d.as_nanos().min(u64::MAX as u128) as u64;
    let job = mapreduce_lite::JobConfig::with_workers(2);
    let t0 = Instant::now();
    let (inproc, _) =
        closet::build_candidate_edges_pooled(&community.reads, &params.sketch, &job, None)
            .expect("in-process sketch");
    collector.record_span_ns("closet.mr.inproc", span_ns(t0.elapsed()), 2);
    let exe = std::env::current_exe().expect("own executable");
    let pool = mapreduce_lite::PoolConfig::with_worker_cmd(
        2,
        vec![exe.to_string_lossy().into_owned(), "--mr-worker".into()],
    );
    let t1 = Instant::now();
    let (pooled, _) =
        closet::build_candidate_edges_pooled(&community.reads, &params.sketch, &job, Some(&pool))
            .expect("pooled sketch");
    collector.record_span_ns("closet.mr.pooled", span_ns(t1.elapsed()), 2);
    assert_eq!(pooled, inproc, "pooled sketch diverged from in-process bytes");

    drop(params); // release the config's Arc clone
    std::sync::Arc::try_unwrap(collector).expect("collector uniquely owned after the run")
}
