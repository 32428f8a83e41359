//! Trace tooling over the `ngs-observe` trace files:
//!
//! * `chrome` — convert a `--trace-jsonl` trace to Chrome `chrome://tracing`
//!   JSON (also loads in Perfetto);
//! * `summary` — validate a trace and print the top-N spans by *self* time
//!   (duration minus direct children — the critical-path view);
//! * `merge` — stitch per-process traces into one timeline.
//!
//! Where the CPU went is in the `--metrics-json` report instead: every
//! span carries its process CPU time (`cpu_ns`).
//!
//! Subcommands take positional file arguments, so this binary parses its
//! command line by hand instead of through `ngs_cli::Args` (which is
//! `--key value` only).

use std::process::ExitCode;

const USAGE: &str = "ngs-trace — trace viewer

USAGE:
  ngs-trace chrome TRACE.jsonl [--out FILE.json]
  ngs-trace summary TRACE.jsonl [--top N]
  ngs-trace merge PROC1.jsonl PROC2.jsonl ... --out MERGED.jsonl [--chrome FILE.json]

MERGE:
  Stitch per-process traces (e.g. the `trace.jsonl.driver` and
  `trace.jsonl.worker*` components a pooled run emits) into one
  well-formed timeline: each file's clock offset is applied, colliding
  span ids are remapped, and the output is independent of argument
  order. --chrome additionally writes a Chrome/Perfetto export with one
  lane per process.

EXIT CODES:
  0  success
  2  usage, I/O or parse error";

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.is_empty() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match argv[0].as_str() {
        "chrome" => cmd_chrome(&argv[1..]),
        "summary" => cmd_summary(&argv[1..]),
        "merge" => cmd_merge(&argv[1..]),
        other => fail(&format!("unknown subcommand {other:?} (try --help)")),
    }
}

/// `--key value` options in command-line order.
type Opts<'a> = Vec<(&'a str, &'a str)>;

/// Split `rest` into positional operands and `--key value` options.
fn split_opts(rest: &[String]) -> Result<(Vec<&str>, Opts<'_>), String> {
    let mut positional = Vec::new();
    let mut opts = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        if let Some(key) = rest[i].strip_prefix("--") {
            let value =
                rest.get(i + 1).map(String::as_str).ok_or(format!("--{key} needs a value"))?;
            opts.push((key, value));
            i += 2;
        } else {
            positional.push(rest[i].as_str());
            i += 1;
        }
    }
    Ok((positional, opts))
}

fn load_trace(path: &str) -> Result<ngs_observe::traceview::ParsedTrace, String> {
    ngs_observe::traceview::parse_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn cmd_chrome(rest: &[String]) -> ExitCode {
    let (positional, opts) = match split_opts(rest) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let [trace_path] = positional[..] else {
        return fail("usage: ngs-trace chrome TRACE.jsonl [--out FILE.json]");
    };
    let mut out_path: Option<&str> = None;
    for (key, value) in opts {
        match key {
            "out" => out_path = Some(value),
            _ => return fail(&format!("unknown option --{key}")),
        }
    }
    let trace = match load_trace(trace_path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    if let Err(e) = ngs_observe::traceview::check_well_formed(&trace) {
        return fail(&format!("{trace_path}: malformed trace: {e}"));
    }
    let chrome = ngs_observe::traceview::to_chrome_json(&trace);
    match out_path {
        Some(path) => {
            if let Err(e) = ngs_durable::write_atomic(path, chrome.as_bytes()) {
                return fail(&format!("write {path}: {e}"));
            }
            eprintln!("wrote {} events to {path}", trace.events.len());
        }
        None => print!("{chrome}"),
    }
    ExitCode::SUCCESS
}

fn cmd_summary(rest: &[String]) -> ExitCode {
    let (positional, opts) = match split_opts(rest) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let [trace_path] = positional[..] else {
        return fail("usage: ngs-trace summary TRACE.jsonl [--top N]");
    };
    let mut top = 20usize;
    for (key, value) in opts {
        match key {
            "top" => match value.parse().ok() {
                Some(n) => top = n,
                None => return fail("--top: not a number"),
            },
            _ => return fail(&format!("unknown option --{key}")),
        }
    }
    let trace = match load_trace(trace_path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let spans = match ngs_observe::traceview::check_well_formed(&trace) {
        Ok(s) => s,
        Err(e) => return fail(&format!("{trace_path}: malformed trace: {e}")),
    };
    let rows = ngs_observe::traceview::self_time_summary(&spans);
    println!(
        "== critical path: {} spans, top {} by self time ==",
        spans.len(),
        top.min(rows.len())
    );
    print!("{}", ngs_observe::traceview::render_summary(&rows, top));
    ExitCode::SUCCESS
}

fn cmd_merge(rest: &[String]) -> ExitCode {
    let (positional, opts) = match split_opts(rest) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    if positional.is_empty() {
        return fail(
            "usage: ngs-trace merge PROC1.jsonl ... --out MERGED.jsonl [--chrome FILE.json]",
        );
    }
    let mut out_path: Option<&str> = None;
    let mut chrome_path: Option<&str> = None;
    for (key, value) in opts {
        match key {
            "out" => out_path = Some(value),
            "chrome" => chrome_path = Some(value),
            _ => return fail(&format!("unknown option --{key}")),
        }
    }
    let mut inputs = Vec::with_capacity(positional.len());
    for path in &positional {
        match load_trace(path) {
            Ok(t) => inputs.push(t),
            Err(e) => return fail(&e),
        }
    }
    let merged = match ngs_observe::traceview::merge_traces(&inputs) {
        Ok(m) => m,
        Err(e) => return fail(&format!("merge: {e}")),
    };
    // A merge that produces an ill-formed timeline is a bug worth failing
    // on, not a file worth writing.
    if let Err(e) = ngs_observe::traceview::check_well_formed(&merged) {
        return fail(&format!("merged trace is malformed: {e}"));
    }
    let jsonl = ngs_observe::trace::render_jsonl(&merged.events, &merged.meta);
    match out_path {
        Some(path) => {
            if let Err(e) = ngs_durable::write_atomic(path, jsonl.as_bytes()) {
                return fail(&format!("write {path}: {e}"));
            }
            eprintln!(
                "merged {} file(s), {} events ({} process(es)) into {path}",
                positional.len(),
                merged.events.len(),
                merged
                    .events
                    .iter()
                    .map(|e| e.pid)
                    .collect::<std::collections::BTreeSet<_>>()
                    .len()
            );
        }
        None => print!("{jsonl}"),
    }
    if let Some(path) = chrome_path {
        let chrome = ngs_observe::traceview::to_chrome_json(&merged);
        if let Err(e) = ngs_durable::write_atomic(path, chrome.as_bytes()) {
            return fail(&format!("write {path}: {e}"));
        }
        eprintln!("wrote Chrome export to {path}");
    }
    ExitCode::SUCCESS
}
