//! End-to-end tests for `--trace-jsonl` and `--metrics-json` on the three
//! pipeline CLIs and the `ngs-trace` tool: every pipeline writes a
//! well-formed trace whose MapReduce-free span set covers the required
//! metrics spans, a schema-3 report that passes the span invariants, and
//! `ngs-trace chrome` / `summary` accept the trace.

use ngs_core::Read;
use ngs_observe::json::Json;
use ngs_observe::traceview;
use std::path::{Path, PathBuf};
use std::process::Command;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn random_genome(len: usize, seed: &mut u64) -> Vec<u8> {
    (0..len).map(|_| b"ACGT"[(xorshift(seed) % 4) as usize]).collect()
}

fn sample_reads(genome: &[u8], n: usize, read_len: usize, seed: &mut u64) -> Vec<Read> {
    (0..n)
        .map(|i| {
            let pos = (xorshift(seed) as usize) % (genome.len() - read_len);
            let mut seq = genome[pos..pos + read_len].to_vec();
            if xorshift(seed) % 100 < 40 {
                let at = (xorshift(seed) as usize) % read_len;
                seq[at] = b"ACGT"[(xorshift(seed) % 4) as usize];
            }
            Read::new(format!("r{i}"), seq)
        })
        .collect()
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ngs_trace_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_input(dir: &Path, n: usize, read_len: usize, seed: u64) -> PathBuf {
    let mut seed = seed;
    let genome = random_genome(1200, &mut seed);
    let reads = sample_reads(&genome, n, read_len, &mut seed);
    let input = dir.join("reads.fastq");
    let file = std::fs::File::create(&input).unwrap();
    ngs_seqio::write_fastq(file, &reads).unwrap();
    input
}

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn assert_ok(out: &std::process::Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed (status {:?}):\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

const NGS_TRACE: &str = env!("CARGO_BIN_EXE_ngs-trace");

/// Run one pipeline with `--trace-jsonl` + `--metrics-json`, validate the
/// trace, and check the span contract: each of the pipeline's `required`
/// metrics spans must appear both in the BENCH report and in the trace,
/// because both views hang off the same collector. (The report also holds
/// synthetic `*.job.*` phase spans derived from `JobStats`, which have no
/// trace counterpart by design — the real per-attempt spans do.)
///
/// The report itself must be schema 4, pass the span invariants, and carry
/// the process CPU clock in `cpu`. Every span measured by a guard — all but
/// the `*.job.*` phase spans, recorded from `JobStats` durations — has a
/// `cpu_ns`, and on the (sequential) required spans the process total
/// bounds it; with
/// `--profile-mem` in `extra` its top-level `alloc` section and per-span
/// `alloc_peak_bytes` must be populated.
fn pipeline_trace_roundtrip(bin: &str, dir: &Path, extra: &[&str], required: &[&str]) -> PathBuf {
    let input = write_input(dir, 300, 60, 0x7ace_0001);
    let output = dir.join("out.fastq");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("BENCH.json");
    let mut args = vec![
        "--input",
        input.to_str().unwrap(),
        "--output",
        output.to_str().unwrap(),
        "--trace-jsonl",
        trace.to_str().unwrap(),
        "--metrics-json",
        metrics.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    assert_ok(&run(bin, &args), "pipeline run");

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let parsed = traceview::parse_jsonl(&text).expect("trace parses");
    let spans = traceview::check_well_formed(&parsed).expect("trace well-formed");
    assert!(!spans.is_empty(), "trace must contain spans");

    let bench = std::fs::read_to_string(&metrics).expect("metrics written");
    let (_, bench_spans) = ngs_observe::parse_bench_report(&bench).expect("metrics report parses");
    let trace_names = traceview::span_names(&parsed);
    for name in required {
        assert!(bench_spans.contains_key(*name), "required span {name:?} missing from report");
        assert!(
            trace_names.iter().any(|t| t == name),
            "required span {name:?} missing from trace (trace has {trace_names:?})"
        );
    }

    let doc = ngs_observe::json::parse(&bench).expect("metrics report is JSON");
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(4));
    if let Err(violations) = ngs_observe::validate_bench_invariants(&bench) {
        panic!("span invariants violated: {violations:?}");
    }
    let process_ns = doc.get("cpu").and_then(|c| c.get("process_ns")).and_then(Json::as_u64);
    let process_ns = process_ns.expect("every report carries the process CPU clock");
    for (name, span) in &bench_spans {
        let measured = !name.contains(".job.");
        assert_eq!(span.cpu_ns.is_some(), measured, "{name}: cpu_ns {:?}", span.cpu_ns);
    }
    for name in required {
        let cpu_ns = bench_spans[*name].cpu_ns;
        assert!(cpu_ns.is_some_and(|ns| ns <= process_ns), "{name}: cpu_ns {cpu_ns:?}");
    }
    if extra.contains(&"--profile-mem") {
        let alloc = doc.get("alloc").expect("report has an alloc section");
        for field in ["allocated_bytes", "peak_live_bytes", "alloc_count"] {
            let value = alloc.get(field).and_then(Json::as_u64);
            assert!(value.is_some_and(|v| v > 0), "alloc.{field} not populated: {value:?}");
        }
        assert!(
            required.iter().all(|name| bench_spans[*name].alloc_peak_bytes.is_some()),
            "every required span carries alloc_peak_bytes"
        );
        assert!(
            bench_spans.values().any(|s| s.alloc_peak_bytes.is_some_and(|b| b > 0)),
            "some span saw a nonzero allocation peak"
        );
    }
    trace
}

/// `ngs-trace chrome` + `summary` must both accept a pipeline's trace.
fn trace_tools_accept(trace: &Path, dir: &Path) {
    let chrome_out = dir.join("chrome.json");
    let out =
        run(NGS_TRACE, &["chrome", trace.to_str().unwrap(), "--out", chrome_out.to_str().unwrap()]);
    assert_ok(&out, "ngs-trace chrome");
    let chrome = std::fs::read_to_string(&chrome_out).unwrap();
    assert!(chrome.trim_start().starts_with('['), "chrome output is a JSON array");
    assert!(chrome.contains("\"ph\": \"B\""), "chrome output has begin events");

    let out = run(NGS_TRACE, &["summary", trace.to_str().unwrap(), "--top", "5"]);
    assert_ok(&out, "ngs-trace summary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("critical path"), "summary header missing: {stdout}");
}

#[test]
fn reptile_trace_converts_and_covers_required_spans() {
    let dir = test_dir("reptile");
    let trace = pipeline_trace_roundtrip(
        env!("CARGO_BIN_EXE_reptile-correct"),
        &dir,
        &["--genome-len", "1200", "--profile-mem"],
        &["reptile.run", "reptile.correct"],
    );
    trace_tools_accept(&trace, &dir);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn redeem_trace_converts_and_covers_required_spans() {
    let dir = test_dir("redeem");
    let trace = pipeline_trace_roundtrip(
        env!("CARGO_BIN_EXE_redeem-detect"),
        &dir,
        &["--k", "9", "--max-iters", "8"],
        &["redeem.run", "redeem.threshold.fit"],
    );
    trace_tools_accept(&trace, &dir);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn closet_trace_converts_and_covers_required_spans() {
    let dir = test_dir("closet");
    let trace = pipeline_trace_roundtrip(
        env!("CARGO_BIN_EXE_closet-cluster"),
        &dir,
        &["--workers", "2", "--thresholds", "0.7,0.5"],
        &["closet.run", "closet.sketch", "closet.validate", "closet.cluster"],
    );
    trace_tools_accept(&trace, &dir);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn malformed_trace_is_rejected_with_exit_2() {
    let dir = test_dir("malformed");
    let bad = dir.join("bad.jsonl");
    std::fs::write(
        &bad,
        "{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": 1, \
          \"role\": \"main\", \"clock_offset_ns\": 0}\n\
         {\"ev\": \"B\", \"seq\": 0, \"id\": 1, \"parent\": 0, \"name\": \"dangling\", \
          \"detail\": \"\", \"tid\": 0, \"ts_ns\": 5}\n",
    )
    .unwrap();
    let out = run(NGS_TRACE, &["chrome", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "dangling span must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed"), "error should say malformed: {stderr}");
    let _ = std::fs::remove_dir_all(dir);
}
