//! Acceptance tests for the event-tracing layer: any program of span
//! operations serialises to well-formed JSONL (property-tested), MapReduce
//! jobs emit one span per task *attempt* — retries and fault-injected
//! failures included — and a full CLOSET run's trace agrees span-for-span
//! with the aggregate metrics the collector records for the same run.

use ngs::mapreduce::{map_reduce_simple, FaultKind, FaultPlan, JobConfig, Stage};
use ngs::observe::traceview::{self, SpanNode};
use ngs::observe::{Collector, SpanId, Tracer};
use ngs::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Parse a tracer's JSONL output and validate the span tree, panicking on
/// any structural defect.
fn well_formed(tracer: &Tracer) -> BTreeMap<SpanId, SpanNode> {
    let parsed = traceview::parse_jsonl(&tracer.to_jsonl()).expect("trace must parse");
    traceview::check_well_formed(&parsed).expect("trace must be well-formed")
}

// ---- property: arbitrary span programs stay well-formed ------------------

proptest! {
    // Ops: 0 = open a child span, 1 = close the innermost open span,
    // 2 = emit an instant. Whatever the interleaving, the serialised trace
    // must parse and pass every well-formedness check (balance, nesting,
    // parent existence, timestamp ordering).
    #[test]
    fn random_span_programs_serialise_well_formed(ops in vec(0u8..3, 0..120)) {
        let tracer = Tracer::new();
        let mut open: Vec<SpanId> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                // Names with quotes, backslashes and newlines exercise the
                // JSON escaping path.
                0 => open.push(tracer.begin(&format!("sp\"an\\{i}\n"))),
                1 => {
                    if let Some(id) = open.pop() {
                        tracer.end(id);
                    }
                }
                _ => tracer.instant("mark", &format!("i={i}\t\"q\"")),
            }
        }
        while let Some(id) = open.pop() {
            tracer.end(id);
        }
        let spans = well_formed(&tracer);
        let begins = ops.iter().filter(|&&op| op == 0).count();
        prop_assert_eq!(spans.len(), begins);
    }
}

// ---- MapReduce: every task attempt is a span -----------------------------

#[allow(clippy::type_complexity)]
fn counting_job(
    cfg: &JobConfig,
    reads: &[Read],
) -> Result<(Vec<(u64, u32)>, ngs::mapreduce::JobStats), ngs::mapreduce::JobError> {
    map_reduce_simple(
        cfg,
        reads,
        |r: &Read, emit: &mut dyn FnMut(u64, u32)| {
            ngs::kmer::for_each_kmer(&r.seq, 11, |_, v| emit(v, 1));
        },
        |k: &u64, vs: Vec<u32>, emit: &mut dyn FnMut((u64, u32))| emit((*k, vs.len() as u32)),
    )
}

fn test_reads(n: usize, seed: u64) -> Vec<Read> {
    let genome = GenomeSpec::uniform(3_000).generate(seed).seq;
    let cfg =
        ReadSimConfig::with_coverage(genome.len(), n, 10.0, ErrorModel::uniform(40, 0.01), seed);
    simulate_reads(&genome, &cfg).reads
}

fn spans_named<'a>(spans: &'a BTreeMap<SpanId, SpanNode>, name: &str) -> Vec<&'a SpanNode> {
    spans.values().filter(|s| s.name == name).collect()
}

#[test]
fn faulty_map_reduce_trace_is_balanced_with_retry_siblings() {
    let tracer = Arc::new(Tracer::new());
    let collector = Arc::new(Collector::with_tracer(tracer.clone()));
    let mut cfg = JobConfig::with_workers(4);
    cfg.retry_backoff = Duration::from_micros(100);
    cfg.collector = Some(collector.clone());
    cfg.fault_plan = FaultPlan::none().with_fault(Stage::Map, 1, 0, FaultKind::Panic);

    let reads = test_reads(60, 7);
    let (_, stats) = counting_job(&cfg, &reads).expect("job must recover from the fault");
    assert_eq!(stats.task_failures, 1);

    // The panicked attempt must still close its span (balance under unwind)
    // and the whole trace must nest correctly.
    let spans = well_formed(&tracer);

    // One job span, three stage spans parented under it.
    let jobs = spans_named(&spans, "mapreduce.job");
    assert_eq!(jobs.len(), 1);
    let job_id = jobs[0].id;
    for stage in ["mapreduce.stage.map", "mapreduce.stage.shuffle", "mapreduce.stage.reduce"] {
        let nodes = spans_named(&spans, stage);
        assert_eq!(nodes.len(), 1, "{stage}");
        assert_eq!(nodes[0].parent, job_id, "{stage} must parent under the job");
    }

    // Task 1 was panicked on attempt 0: both attempts appear as siblings
    // under the map stage, distinguishable by their detail strings.
    let map_stage_id = spans_named(&spans, "mapreduce.stage.map")[0].id;
    let attempts: Vec<_> = spans_named(&spans, "mapreduce.task.map")
        .into_iter()
        .filter(|s| s.detail.starts_with("task=1 "))
        .collect();
    assert_eq!(attempts.len(), 2, "failed attempt and its retry must both be spans");
    for a in &attempts {
        assert_eq!(a.parent, map_stage_id, "retry attempts are siblings under the stage");
    }
    let details: Vec<&str> = attempts.iter().map(|s| s.detail.as_str()).collect();
    assert!(details.contains(&"task=1 attempt=0"), "{details:?}");
    assert!(details.contains(&"task=1 attempt=1"), "{details:?}");

    // The failure itself is recorded as an instant event.
    let parsed = traceview::parse_jsonl(&tracer.to_jsonl()).unwrap();
    let failures = parsed.events.iter().filter(|e| e.name == "mapreduce.task.failed").count();
    assert_eq!(failures as u64, stats.task_failures);
}

// ---- CLOSET: the trace agrees with the collector's aggregates ------------

#[test]
fn closet_trace_has_one_span_per_task_attempt() {
    let cfg = CommunityConfig {
        gene_len: 400,
        ranks: vec![
            RankSpec { name: "phylum", children: 2, divergence: 0.15 },
            RankSpec { name: "species", children: 2, divergence: 0.03 },
        ],
        n_reads: 150,
        read_len_min: 250,
        read_len_max: 350,
        error_rate: 0.005,
        abundance_exponent: 0.7,
        seed: 11,
    };
    let community = simulate_community(&cfg);

    let tracer = Arc::new(Tracer::new());
    let collector = Arc::new(Collector::with_tracer(tracer.clone()));
    let mut params = ClosetParams::standard(300, vec![0.85, 0.6], 4);
    params.job.retry_backoff = Duration::from_micros(100);
    params.job.collector = Some(collector.clone());
    // Inject one panic per job on map task 0, attempt 0, so retries show up
    // throughout the multi-job pipeline.
    params.job.fault_plan = FaultPlan::none().with_fault(Stage::Map, 0, 0, FaultKind::Panic);

    let out = closet::build_edges_observed(&community.reads, &params, &collector)
        .and_then(|edges| closet::cluster_edges_observed(&edges, &params, &collector))
        .expect("closet must recover from injected faults");
    assert!(out.job_stats.task_failures > 0, "fault plan must have fired");

    let spans = well_formed(&tracer);
    let report = collector.report("closet");

    // Acceptance: one trace span per MapReduce task attempt. The collector's
    // SpanStat counts one observation per attempt through the same guard, so
    // the two views of the run must agree exactly.
    for task in ["mapreduce.task.map", "mapreduce.task.reduce"] {
        let traced = spans_named(&spans, task).len() as u64;
        let counted = report.spans.get(task).map(|s| s.count).unwrap_or(0);
        assert_eq!(traced, counted, "{task}: trace and aggregate report disagree");
        assert!(traced > 0, "{task}: pipeline must have run traced tasks");
    }

    // Each retried attempt sits next to the failed one: the pipeline runs
    // many jobs, so pair attempts within the same stage parent. Every
    // `attempt=1` span must have its failed `attempt=0` sibling there.
    let map_tasks = spans_named(&spans, "mapreduce.task.map");
    let mut retry_pairs = 0u64;
    for retry in &map_tasks {
        if let Some(task) = retry.detail.strip_suffix(" attempt=1") {
            let first = map_tasks
                .iter()
                .find(|a| a.parent == retry.parent && a.detail == format!("{task} attempt=0"));
            assert!(
                first.is_some(),
                "retry {:?} must have its first attempt as a sibling under the same stage",
                retry.detail
            );
            retry_pairs += 1;
        }
    }
    assert_eq!(retry_pairs, out.job_stats.retried_tasks);

    // Failure instants match the aggregate failure count.
    let parsed = traceview::parse_jsonl(&tracer.to_jsonl()).unwrap();
    let failures =
        parsed.events.iter().filter(|e| e.name == "mapreduce.task.failed").count() as u64;
    assert_eq!(failures, out.job_stats.task_failures);

    // Every pipeline-level collector span also appears in the trace.
    for name in ["closet.sketch", "closet.validate", "closet.cluster"] {
        assert!(!spans_named(&spans, name).is_empty(), "{name} must appear in the trace");
    }
}

// ---- disabled tracer is inert -------------------------------------------

#[test]
fn disabled_tracer_records_nothing_through_the_full_pipeline() {
    let tracer = Arc::new(Tracer::disabled());
    let collector = Arc::new(Collector::with_tracer(tracer.clone()));
    let mut cfg = JobConfig::with_workers(2);
    cfg.collector = Some(collector.clone());
    let reads = test_reads(30, 3);
    counting_job(&cfg, &reads).expect("job");
    assert!(tracer.events().is_empty(), "disabled tracer must not record events");
    // The collector's aggregates are unaffected by the inert tracer.
    let report = collector.report("t");
    assert!(report.spans.contains_key("mapreduce.task.map"));
}
