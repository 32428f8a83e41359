//! Acceptance tests for the observability layer: merge algebra of the
//! report types (associativity/commutativity, property-tested) and the
//! fault-injection path — MapReduce fault-tolerance counters must surface
//! unchanged through `record_job_stats` into the report and its JSON.

use ngs::mapreduce::{
    map_reduce, record_job_stats, FaultKind, FaultPlan, JobConfig, JobStats, Stage,
};
use ngs::observe::{Collector, CpuTotals, LogHistogram, Report, SpanStat};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

// ---- generators ----------------------------------------------------------

/// A small pool of metric names so merges actually collide on keys.
const NAMES: &[&str] = &["a", "b.c", "b.d", "e.f.g", "h"];

fn arb_job_stats() -> impl Strategy<Value = JobStats> {
    vec(0u64..1_000_000, 19).prop_map(|v| JobStats {
        map_input_records: v[0],
        map_output_records: v[1],
        combine_output_records: v[2],
        shuffle_bytes: v[3],
        reduce_input_groups: v[4],
        reduce_output_records: v[5],
        map_time: Duration::from_nanos(v[6]),
        shuffle_time: Duration::from_nanos(v[7]),
        reduce_time: Duration::from_nanos(v[8]),
        task_failures: v[9],
        retried_tasks: v[10],
        corrupt_frames: v[11],
        worker_deaths: v[12],
        workers_respawned: v[13],
        tasks_reassigned: v[14],
        pool_spawns: v[15],
        pool_sessions: v[16],
        wire_bytes_sent: v[17],
        wire_bytes_received: v[18],
    })
}

/// Spans with and without a measured CPU time (`cpu_ns` null), so merges
/// fold measured into unmeasured stats both ways.
fn arb_spans() -> impl Strategy<Value = BTreeMap<String, SpanStat>> {
    let stat = (1u64..20, 0u64..1_000_000, 1usize..64);
    let cpu = (any::<bool>(), 0u64..1_000_000);
    vec((0usize..NAMES.len(), stat, cpu), 0..4).prop_map(|kvs| {
        kvs.into_iter()
            .map(|(i, (count, ns, threads), (measured, cpu_ns))| {
                let mut s = SpanStat::default();
                for j in 0..count {
                    s.observe(ns + j, threads);
                    if measured {
                        s.observe_cpu(cpu_ns + j);
                    }
                }
                (NAMES[i].to_string(), s)
            })
            .collect()
    })
}

/// Hand-built count-0 stats carrying garbage wall figures — the
/// adversarial input for the span-invariant property (a well-behaved
/// writer can only produce these by bypassing `SpanStat::observe`).
fn arb_corrupt_spans() -> impl Strategy<Value = BTreeMap<String, SpanStat>> {
    vec((0usize..NAMES.len(), 1u64..1_000_000), 0..3).prop_map(|kvs| {
        kvs.into_iter()
            .map(|(i, ns)| {
                let stat =
                    SpanStat { count: 0, total_ns: ns, max_ns: ns / 2, ..SpanStat::default() };
                (NAMES[i].to_string(), stat)
            })
            .collect()
    })
}

fn arb_counters() -> impl Strategy<Value = BTreeMap<String, u64>> {
    vec((0usize..NAMES.len(), 0u64..1_000_000), 0..4)
        .prop_map(|kvs| kvs.into_iter().map(|(i, v)| (NAMES[i].to_string(), v)).collect())
}

fn arb_gauges() -> impl Strategy<Value = BTreeMap<String, f64>> {
    vec((0usize..NAMES.len(), -1e12f64..1e12), 0..4)
        .prop_map(|kvs| kvs.into_iter().map(|(i, v)| (NAMES[i].to_string(), v)).collect())
}

fn arb_histograms() -> impl Strategy<Value = BTreeMap<String, LogHistogram>> {
    vec((0usize..NAMES.len(), vec((0u64..(1u64 << 40), 1u64..100), 0..6)), 0..4).prop_map(|kvs| {
        kvs.into_iter()
            .map(|(i, obs)| {
                let mut h = LogHistogram::default();
                for (value, count) in obs {
                    h.record_n(value, count);
                }
                (NAMES[i].to_string(), h)
            })
            .collect()
    })
}

fn arb_report() -> impl Strategy<Value = Report> {
    let spans_and_cpu = (arb_spans(), (any::<bool>(), 0u64..1 << 40));
    (spans_and_cpu, arb_counters(), arb_gauges(), arb_histograms()).prop_map(
        |((spans, (has_cpu, process_ns)), counters, gauges, histograms)| Report {
            pipeline: "p".to_string(),
            spans,
            counters,
            gauges,
            histograms,
            cpu: has_cpu.then_some(CpuTotals { process_ns }),
            ..Default::default()
        },
    )
}

fn merged(a: &Report, b: &Report) -> Report {
    let mut out = a.clone();
    out.merge(b);
    out
}

fn merged_stats(a: &JobStats, b: &JobStats) -> JobStats {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #[test]
    fn job_stats_merge_is_commutative(a in arb_job_stats(), b in arb_job_stats()) {
        prop_assert_eq!(merged_stats(&a, &b), merged_stats(&b, &a));
    }

    #[test]
    fn job_stats_merge_is_associative(
        a in arb_job_stats(),
        b in arb_job_stats(),
        c in arb_job_stats(),
    ) {
        prop_assert_eq!(
            merged_stats(&merged_stats(&a, &b), &c),
            merged_stats(&a, &merged_stats(&b, &c))
        );
    }

    #[test]
    fn report_merge_is_commutative(a in arb_report(), b in arb_report()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn report_merge_is_associative(a in arb_report(), b in arb_report(), c in arb_report()) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn count_one_span_invariant_survives_merge(
        a in arb_report(),
        b in arb_report(),
        corrupt in arb_corrupt_spans(),
    ) {
        // Merge two honest reports plus one carrying hand-built count-0
        // stats with garbage wall figures (the shape that once produced
        // blessed baselines where a count-1 span had total_ns != max_ns).
        // Every counted span in the result must satisfy the span
        // invariants, in particular count == 1 ⇒ total == min == max.
        let poison = Report {
            pipeline: "p".to_string(),
            spans: corrupt,
            ..Default::default()
        };
        let m = merged(&merged(&a, &poison), &b);
        for (name, s) in &m.spans {
            if s.count == 0 {
                continue;
            }
            prop_assert!(s.min_ns <= s.max_ns, "{name}: min {} > max {}", s.min_ns, s.max_ns);
            prop_assert!(s.max_ns <= s.total_ns, "{name}: max {} > total {}", s.max_ns, s.total_ns);
            if s.count == 1 {
                prop_assert_eq!(s.total_ns, s.min_ns, "{}", name);
                prop_assert_eq!(s.total_ns, s.max_ns, "{}", name);
            }
        }
    }

    #[test]
    fn job_stats_survive_report_path_verbatim(stats in arb_job_stats()) {
        // Folding JobStats into a collector and reading the report back must
        // not distort any counter.
        let collector = Collector::new();
        record_job_stats(&collector, "job", &stats);
        let report = collector.report("mr");
        prop_assert_eq!(report.counter("job.task_failures"), stats.task_failures);
        prop_assert_eq!(report.counter("job.retried_tasks"), stats.retried_tasks);
        prop_assert_eq!(report.counter("job.corrupt_frames"), stats.corrupt_frames);
        prop_assert_eq!(report.counter("job.map_input_records"), stats.map_input_records);
        prop_assert_eq!(report.counter("job.shuffle_bytes"), stats.shuffle_bytes);
        // What the pool cost keeps its own names, whatever the prefix.
        prop_assert_eq!(report.counter("mapreduce.pool.spawns"), stats.pool_spawns);
        prop_assert_eq!(report.counter("mapreduce.pool.sessions"), stats.pool_sessions);
        prop_assert_eq!(report.counter("mapreduce.wire_bytes_sent"), stats.wire_bytes_sent);
        prop_assert_eq!(report.counter("mapreduce.wire_bytes_received"), stats.wire_bytes_received);
    }
}

// ---- fault injection through the report path -----------------------------

/// Word count with two injected faults: the recovery counters must surface
/// unchanged through `record_job_stats` → `Report` → JSON.
#[test]
fn fault_counters_surface_through_report_and_json() {
    let docs = ["a b a", "b c", "a", "d e f"];
    let mut cfg = JobConfig::with_workers(4);
    cfg.retry_backoff = Duration::from_micros(100);
    cfg.fault_plan = FaultPlan::none().with_fault(Stage::Map, 0, 0, FaultKind::Panic).with_fault(
        Stage::Reduce,
        1,
        0,
        FaultKind::IoError,
    );
    let collector = std::sync::Arc::new(Collector::new());
    cfg.collector = Some(collector.clone());

    let (_, stats) = map_reduce(
        &cfg,
        &docs,
        |doc: &&str, emit: &mut dyn FnMut(String, u64)| {
            for w in doc.split_whitespace() {
                emit(w.to_string(), 1u64);
            }
        },
        None,
        |k: &String, vs: Vec<u64>, emit| emit((k.clone(), vs.iter().sum::<u64>())),
    )
    .expect("job must recover from injected faults");
    assert_eq!(stats.task_failures, 2);
    assert_eq!(stats.retried_tasks, 2);

    record_job_stats(&collector, "job", &stats);
    let report = collector.report("mr");

    // The counters reach the report unchanged, by both paths: the live
    // per-attempt counters and the folded JobStats.
    assert_eq!(report.counter("job.task_failures"), 2);
    assert_eq!(report.counter("job.retried_tasks"), 2);
    assert_eq!(report.counter("mapreduce.task_failures"), 2);
    assert_eq!(report.counter("mapreduce.task_retries"), 2);
    // The retried map attempt is visible as one extra span entry: four
    // single-doc chunks plus the re-run of task 0.
    let map_span = report.span("mapreduce.task.map").expect("map task span");
    assert_eq!(map_span.count, docs.len() as u64 + 1, "one extra map attempt from the retry");

    // …and the JSON carries them verbatim.
    let json = report.to_json();
    assert!(json.contains("\"job.task_failures\": 2"), "{json}");
    assert!(json.contains("\"job.retried_tasks\": 2"), "{json}");
}

/// The disabled collector keeps every un-instrumented entry point silent:
/// nothing recorded, empty report, valid JSON.
#[test]
fn disabled_collector_stays_empty_through_job() {
    let collector = Collector::disabled();
    record_job_stats(&collector, "job", &JobStats { task_failures: 9, ..Default::default() });
    let report = collector.report("quiet");
    assert!(report.counters.is_empty());
    assert!(report.spans.is_empty());
    assert!(report.to_json().contains("\"pipeline\": \"quiet\""));
}
