//! Reading and analysing JSONL traces: parsing, well-formedness checks,
//! Chrome `chrome://tracing` conversion and critical-path summaries. The
//! `ngs-trace` binary is a thin CLI over this module.

use crate::json::{parse, Json};
use crate::trace::{ProcessMeta, SpanId, TraceEvent, TraceEventKind, TRACE_SCHEMA_VERSION};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A parsed trace: the header's schema version and process metadata plus
/// the event list in `seq` order.
#[derive(Debug, Clone)]
pub struct ParsedTrace {
    /// `schema_version` from the header line.
    pub schema_version: u64,
    /// Process metadata from the header.
    pub meta: ProcessMeta,
    /// Events sorted by `seq`.
    pub events: Vec<TraceEvent>,
}

fn field_u64(obj: &Json, key: &str, line_no: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {line_no}: missing or non-integer \"{key}\""))
}

fn field_str<'a>(obj: &'a Json, key: &str, line_no: usize) -> Result<&'a str, String> {
    obj.get(key).and_then(Json::as_str).ok_or_else(|| format!("line {line_no}: missing \"{key}\""))
}

/// Parse a JSONL trace produced by [`Tracer::to_jsonl`](crate::Tracer::to_jsonl).
/// Only the current schema version is read; a missing or other
/// `schema_version` is an error naming the found version, and a header
/// without its process metadata or a malformed event is an error, not a
/// skip — a trace a tool cannot fully read is a trace it cannot be trusted
/// to analyse.
pub fn parse_jsonl(text: &str) -> Result<ParsedTrace, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty trace: no header line")?;
    let header = parse(header).map_err(|e| format!("line 1 (header): {e}"))?;
    let schema_version = header
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("header has no \"schema_version\" (not an ngs-trace file?)")?;
    if schema_version != TRACE_SCHEMA_VERSION as u64 {
        return Err(format!(
            "unsupported schema_version {schema_version} (this tool reads version {TRACE_SCHEMA_VERSION})"
        ));
    }
    let header_pid = field_u64(&header, "pid", 1)? as u32;
    let meta = ProcessMeta {
        pid: header_pid,
        role: field_str(&header, "role", 1)?.to_string(),
        clock_offset_ns: header
            .get("clock_offset_ns")
            .and_then(Json::as_f64)
            .ok_or("line 1: missing or non-numeric \"clock_offset_ns\"")?
            as i64,
    };
    let mut events = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let obj = parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let kind = match field_str(&obj, "ev", line_no)? {
            "B" => TraceEventKind::Begin,
            "E" => TraceEventKind::End,
            "I" => TraceEventKind::Instant,
            other => return Err(format!("line {line_no}: unknown event kind {other:?}")),
        };
        events.push(TraceEvent {
            kind,
            seq: field_u64(&obj, "seq", line_no)?,
            id: SpanId::from_u64(field_u64(&obj, "id", line_no)?),
            parent: SpanId::from_u64(field_u64(&obj, "parent", line_no)?),
            name: field_str(&obj, "name", line_no)?.to_string(),
            detail: field_str(&obj, "detail", line_no)?.to_string(),
            thread: field_u64(&obj, "tid", line_no)?,
            ts_ns: field_u64(&obj, "ts_ns", line_no)?,
            pid: obj.get("pid").and_then(Json::as_u64).unwrap_or(header_pid as u64) as u32,
        });
    }
    events.sort_by_key(|e| e.seq);
    Ok(ParsedTrace { schema_version, meta, events })
}

/// Stitch N per-process traces into one timeline (the `ngs-trace merge`
/// subcommand):
///
/// * inputs are ordered by `(pid, role)`, **not** argument order, so the
///   merged output is byte-identical however the files are listed;
/// * each file's events are shifted onto the reference timeline by its
///   header `clock_offset_ns`;
/// * when span ids and seqs are already globally unique — the component
///   files a pooled driver writes share one id space — events are merged
///   as-is, preserving cross-file parent links (a worker span may parent
///   under a driver-file lease span);
/// * colliding id spaces (independently recorded traces) are re-mapped
///   per file: fresh ids, parents resolved within their own file (dangling
///   cross-file parents become roots), and fresh seqs assigned in
///   `(ts_ns, file, seq)` order, which preserves every per-file invariant.
///
/// The caller decides whether to require well-formedness of the result
/// (merge itself only stitches).
pub fn merge_traces(inputs: &[ParsedTrace]) -> Result<ParsedTrace, String> {
    if inputs.is_empty() {
        return Err("nothing to merge: no input traces".to_string());
    }
    // Deterministic input order, independent of argv order.
    let mut sorted: Vec<&ParsedTrace> = inputs.iter().collect();
    sorted.sort_by(|a, b| {
        (a.meta.pid, &a.meta.role, a.events.len(), a.events.first().map(|e| e.seq)).cmp(&(
            b.meta.pid,
            &b.meta.role,
            b.events.len(),
            b.events.first().map(|e| e.seq),
        ))
    });

    // Shift each file onto the reference timeline and stamp pids.
    let mut files: Vec<Vec<TraceEvent>> = sorted
        .iter()
        .map(|t| {
            t.events
                .iter()
                .map(|e| TraceEvent {
                    ts_ns: e.ts_ns.saturating_add_signed(t.meta.clock_offset_ns),
                    ..e.clone()
                })
                .collect()
        })
        .collect();

    // Are ids and seqs globally unique across files?
    let mut ids = BTreeSet::new();
    let mut seqs = BTreeSet::new();
    let mut disjoint = true;
    'outer: for file in &files {
        for e in file {
            if !seqs.insert(e.seq) || (e.kind != TraceEventKind::End && !ids.insert(e.id)) {
                disjoint = false;
                break 'outer;
            }
        }
    }
    if !disjoint {
        // Re-map each file into a fresh id space; parents resolve within
        // their own file only.
        let mut next_id = 1u64;
        for file in &mut files {
            let mut map: BTreeMap<u64, u64> = BTreeMap::new();
            for e in file.iter_mut() {
                if e.kind != TraceEventKind::End {
                    map.insert(e.id.as_u64(), next_id);
                    e.id = SpanId::from_u64(next_id);
                    next_id += 1;
                    e.parent = e
                        .parent
                        .is_root()
                        .then_some(SpanId::ROOT)
                        .or_else(|| map.get(&e.parent.as_u64()).map(|&p| SpanId::from_u64(p)))
                        .unwrap_or(SpanId::ROOT);
                } else {
                    e.id = map.get(&e.id.as_u64()).map_or(SpanId::ROOT, |&m| SpanId::from_u64(m));
                    e.parent = SpanId::ROOT;
                }
            }
            file.retain(|e| !(e.kind == TraceEventKind::End && e.id.is_root()));
        }
        // Fresh seqs in (ts, file, seq) order: per-file relative order is
        // preserved, so per-file invariants survive.
        let mut tagged: Vec<(u64, usize, u64, TraceEvent)> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for e in file {
                tagged.push((e.ts_ns, fi, e.seq, e.clone()));
            }
        }
        tagged.sort_by_key(|a| (a.0, a.1, a.2));
        files = vec![tagged
            .into_iter()
            .enumerate()
            .map(|(i, (_, _, _, mut e))| {
                e.seq = i as u64 + 1;
                e
            })
            .collect()];
    }

    let mut events: Vec<TraceEvent> = files.into_iter().flatten().collect();
    events.sort_by_key(|e| e.seq);
    let meta =
        ProcessMeta { pid: sorted[0].meta.pid, role: "merged".to_string(), clock_offset_ns: 0 };
    Ok(ParsedTrace { schema_version: TRACE_SCHEMA_VERSION as u64, meta, events })
}

/// One reconstructed span interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span's id.
    pub id: SpanId,
    /// Parent id (ROOT for top-level spans).
    pub parent: SpanId,
    /// Span name.
    pub name: String,
    /// Detail annotation from the begin event.
    pub detail: String,
    /// Thread the span began on.
    pub thread: u64,
    /// Begin timestamp, ns since trace epoch.
    pub start_ns: u64,
    /// End timestamp, ns since trace epoch.
    pub end_ns: u64,
}

impl SpanNode {
    /// Wall time of this span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Check structural invariants and reconstruct the span tree:
///
/// 1. every Begin has exactly one matching End (per span id) and vice versa;
/// 2. no span id begins twice;
/// 3. every non-ROOT parent refers to a span that exists;
/// 4. child intervals nest within their parent (`parent.start ≤ child.start`
///    and `child.end ≤ parent.end`, with End-before-child's-End ordering
///    checked on the seq axis so zero-length spans still validate).
///
/// Returns the spans keyed by id on success.
pub fn check_well_formed(trace: &ParsedTrace) -> Result<BTreeMap<SpanId, SpanNode>, String> {
    let mut spans: BTreeMap<SpanId, SpanNode> = BTreeMap::new();
    let mut open: BTreeMap<SpanId, u64> = BTreeMap::new(); // id → begin seq
    let mut end_seq: BTreeMap<SpanId, u64> = BTreeMap::new();
    for e in &trace.events {
        match e.kind {
            TraceEventKind::Begin => {
                if e.id.is_root() {
                    return Err(format!("seq {}: begin with ROOT id", e.seq));
                }
                if spans.contains_key(&e.id) {
                    return Err(format!("seq {}: span {} begins twice", e.seq, e.id.as_u64()));
                }
                open.insert(e.id, e.seq);
                spans.insert(
                    e.id,
                    SpanNode {
                        id: e.id,
                        parent: e.parent,
                        name: e.name.clone(),
                        detail: e.detail.clone(),
                        thread: e.thread,
                        start_ns: e.ts_ns,
                        end_ns: e.ts_ns,
                    },
                );
            }
            TraceEventKind::End => match open.remove(&e.id) {
                None => {
                    return Err(format!(
                        "seq {}: end for span {} which is not open",
                        e.seq,
                        e.id.as_u64()
                    ))
                }
                Some(_) => {
                    let node = spans.get_mut(&e.id).unwrap();
                    if e.ts_ns < node.start_ns {
                        return Err(format!(
                            "span {} ends at {} before it starts at {}",
                            e.id.as_u64(),
                            e.ts_ns,
                            node.start_ns
                        ));
                    }
                    node.end_ns = e.ts_ns;
                    end_seq.insert(e.id, e.seq);
                }
            },
            TraceEventKind::Instant => {}
        }
    }
    if let Some((id, seq)) = open.iter().next() {
        return Err(format!("span {} (begun at seq {seq}) never ends", id.as_u64()));
    }
    // Parent existence + interval nesting.
    for node in spans.values() {
        if node.parent.is_root() {
            continue;
        }
        let parent = spans.get(&node.parent).ok_or_else(|| {
            format!("span {} parents under unknown span {}", node.id.as_u64(), node.parent.as_u64())
        })?;
        if node.start_ns < parent.start_ns || node.end_ns > parent.end_ns {
            return Err(format!(
                "span {} [{}, {}] escapes parent {} [{}, {}]",
                node.id.as_u64(),
                node.start_ns,
                node.end_ns,
                parent.id.as_u64(),
                parent.start_ns,
                parent.end_ns
            ));
        }
        if end_seq[&node.id] > end_seq[&node.parent] {
            return Err(format!(
                "span {} closes after its parent {}",
                node.id.as_u64(),
                node.parent.as_u64()
            ));
        }
    }
    Ok(spans)
}

/// The distinct span names in a trace (instants excluded) — what the CLI
/// compares against `--metrics-json` required-span lists.
pub fn span_names(trace: &ParsedTrace) -> Vec<String> {
    let mut names: Vec<String> = trace
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Begin)
        .map(|e| e.name.clone())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Convert to Chrome `chrome://tracing` / Perfetto JSON (array-of-events
/// form). Durations become `ph: "B"`/`"E"` pairs, instants `ph: "i"`;
/// timestamps are microseconds as floats, so nanosecond precision
/// survives. End events inherit their span's name (Chrome matches B/E
/// pairs per thread by name, and our guards are LIFO per thread). Each
/// event keeps its origin pid, so a stitched multi-process trace renders
/// with one lane per process.
pub fn to_chrome_json(trace: &ParsedTrace) -> String {
    let mut names: BTreeMap<SpanId, &str> = BTreeMap::new();
    for e in &trace.events {
        if e.kind == TraceEventKind::Begin {
            names.insert(e.id, &e.name);
        }
    }
    let mut out = String::with_capacity(64 + trace.events.len() * 128);
    out.push_str("[\n");
    for (i, e) in trace.events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ph = match e.kind {
            TraceEventKind::Begin => "B",
            TraceEventKind::End => "E",
            TraceEventKind::Instant => "i",
        };
        let name = match e.kind {
            TraceEventKind::End => names.get(&e.id).copied().unwrap_or(""),
            _ => &e.name,
        };
        write!(out, "{{\"ph\": \"{ph}\", \"pid\": {}, \"tid\": {}, \"ts\": ", e.pid, e.thread)
            .unwrap();
        // Microseconds with ns precision.
        write!(out, "{}.{:03}", e.ts_ns / 1_000, e.ts_ns % 1_000).unwrap();
        out.push_str(", \"name\": ");
        crate::report::json_string(&mut out, name);
        if e.kind == TraceEventKind::Instant {
            out.push_str(", \"s\": \"t\"");
        }
        if !e.detail.is_empty() || e.kind != TraceEventKind::End {
            out.push_str(", \"args\": {\"detail\": ");
            crate::report::json_string(&mut out, &e.detail);
            write!(out, ", \"span_id\": {}, \"parent_id\": {}}}", e.id.as_u64(), e.parent.as_u64())
                .unwrap();
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// One row of the critical-path summary: a span name with its aggregate
/// *self* time (duration minus the time covered by direct children —
/// where the run actually spent its wall clock).
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimeRow {
    /// Span name.
    pub name: String,
    /// Occurrences.
    pub count: u64,
    /// Σ span duration, counting only spans with no same-name ancestor:
    /// a recursive span's outer interval already covers its nested
    /// re-entries, so adding the inner intervals would double-count the
    /// same wall clock under one name.
    pub total_ns: u64,
    /// Σ max(0, duration − Σ direct children durations). Children running
    /// concurrently on other threads can overlap each other, so self time
    /// clamps at zero rather than going negative.
    pub self_ns: u64,
}

/// Aggregate self time per span name, sorted by descending self time
/// (then name, for determinism).
///
/// Self time is computed per span *id* (each interval subtracts only its
/// own direct children), so recursion cannot double-count it. The per-name
/// `total_ns` needs the explicit same-name-ancestor exclusion below:
/// without it a recursive name's total would exceed the wall clock it
/// actually occupied.
pub fn self_time_summary(spans: &BTreeMap<SpanId, SpanNode>) -> Vec<SelfTimeRow> {
    let mut child_total: BTreeMap<SpanId, u64> = BTreeMap::new();
    for node in spans.values() {
        if !node.parent.is_root() {
            *child_total.entry(node.parent).or_insert(0) += node.duration_ns();
        }
    }
    // A span is "outermost for its name" when no ancestor shares its name.
    let has_same_name_ancestor = |node: &SpanNode| {
        let mut at = node.parent;
        while let Some(ancestor) = spans.get(&at) {
            if ancestor.name == node.name {
                return true;
            }
            at = ancestor.parent;
        }
        false
    };
    let mut rows: BTreeMap<&str, SelfTimeRow> = BTreeMap::new();
    for node in spans.values() {
        let duration = node.duration_ns();
        let children = child_total.get(&node.id).copied().unwrap_or(0);
        let row = rows.entry(&node.name).or_insert_with(|| SelfTimeRow {
            name: node.name.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        if !has_same_name_ancestor(node) {
            row.total_ns += duration;
        }
        row.self_ns += duration.saturating_sub(children);
    }
    let mut out: Vec<SelfTimeRow> = rows.into_values().collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    out
}

/// Render the top-`n` self-time rows as a human table.
pub fn render_summary(rows: &[SelfTimeRow], n: usize) -> String {
    let mut out = String::new();
    writeln!(out, "{:<44} {:>8} {:>14} {:>14}", "span", "count", "total_ms", "self_ms").unwrap();
    for row in rows.iter().take(n) {
        writeln!(
            out,
            "{:<44} {:>8} {:>14.3} {:>14.3}",
            row.name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn sample_trace() -> ParsedTrace {
        let t = Tracer::new();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            t.instant("tick", "k=v");
        }
        parse_jsonl(&t.to_jsonl()).expect("own output must parse")
    }

    #[test]
    fn round_trips_own_jsonl() {
        let trace = sample_trace();
        assert_eq!(trace.schema_version, TRACE_SCHEMA_VERSION as u64);
        assert_eq!(trace.meta.pid, std::process::id());
        assert_eq!(trace.meta.role, "main");
        assert_eq!(trace.meta.clock_offset_ns, 0);
        assert_eq!(trace.events.len(), 5);
        assert!(trace.events.iter().all(|e| e.pid == std::process::id()));
        let spans = check_well_formed(&trace).expect("well-formed");
        assert_eq!(spans.len(), 2);
        assert_eq!(span_names(&trace), vec!["inner".to_string(), "outer".to_string()]);
    }

    #[test]
    fn rejects_v1_files_like_unknown_versions() {
        let v1 = "\
{\"schema_version\": 1, \"kind\": \"ngs-trace\", \"unit\": \"ns\"}
{\"ev\": \"B\", \"seq\": 1, \"id\": 1, \"parent\": 0, \"name\": \"p\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 10}
{\"ev\": \"E\", \"seq\": 2, \"id\": 1, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 30}
";
        let err = parse_jsonl(v1).unwrap_err();
        assert!(err.contains("unsupported schema_version 1"), "{err}");
        // A current header must carry its process metadata.
        let err = parse_jsonl("{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\"}")
            .unwrap_err();
        assert!(err.contains("pid"), "{err}");
    }

    #[test]
    fn detects_unbalanced_and_escaping_traces() {
        let t = Tracer::new();
        let id = t.begin("dangling");
        let trace = parse_jsonl(&t.to_jsonl()).unwrap();
        assert!(check_well_formed(&trace).unwrap_err().contains("never ends"));
        t.end(id);

        // Hand-built: child interval escapes its parent.
        let bad = "\
{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": 1, \"role\": \"main\", \"clock_offset_ns\": 0}
{\"ev\": \"B\", \"seq\": 1, \"id\": 1, \"parent\": 0, \"name\": \"p\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 10}
{\"ev\": \"B\", \"seq\": 2, \"id\": 2, \"parent\": 1, \"name\": \"c\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 20}
{\"ev\": \"E\", \"seq\": 3, \"id\": 1, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 30}
{\"ev\": \"E\", \"seq\": 4, \"id\": 2, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 40}
";
        let trace = parse_jsonl(bad).unwrap();
        let err = check_well_formed(&trace).unwrap_err();
        assert!(err.contains("escapes parent") || err.contains("closes after"), "{err}");
    }

    #[test]
    fn rejects_bad_schema_and_lines() {
        assert!(parse_jsonl("").is_err());
        let err = parse_jsonl("{\"schema_version\": 99}").unwrap_err();
        assert!(err.contains("unsupported schema_version 99"), "{err}");
        assert!(err.contains("reads version 2"), "error names the readable version: {err}");
        let err = parse_jsonl("{\"kind\": \"ngs-trace\"}").unwrap_err();
        assert!(err.contains("schema_version"), "missing version named: {err}");
        let trace_with_garbage =
            "{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": 1, \"role\": \"main\", \"clock_offset_ns\": 0}\nnot json\n";
        assert!(parse_jsonl(trace_with_garbage).is_err());
    }

    #[test]
    fn merge_is_deterministic_and_preserves_cross_file_parents() {
        // A pooled driver's component files: one id/seq space, the worker
        // file's root span parents under a lease span in the driver file.
        let driver_file = "\
{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": 100, \"role\": \"driver\", \"clock_offset_ns\": 0}
{\"ev\": \"B\", \"seq\": 1, \"id\": 1, \"parent\": 0, \"name\": \"lease\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 10}
{\"ev\": \"E\", \"seq\": 6, \"id\": 1, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 90}
";
        let worker_file = "\
{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": 200, \"role\": \"worker0\", \"clock_offset_ns\": 0}
{\"ev\": \"B\", \"seq\": 2, \"id\": 2, \"parent\": 1, \"name\": \"worker.task\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 20}
{\"ev\": \"E\", \"seq\": 5, \"id\": 2, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 80}
";
        let a = parse_jsonl(driver_file).unwrap();
        let b = parse_jsonl(worker_file).unwrap();
        let ab = merge_traces(&[a.clone(), b.clone()]).unwrap();
        let ba = merge_traces(&[b, a]).unwrap();
        assert_eq!(ab.events, ba.events, "merge is independent of input order");
        assert_eq!(ab.meta.role, "merged");
        let spans = check_well_formed(&ab).expect("stitched trace is well-formed");
        let task = spans.values().find(|s| s.name == "worker.task").unwrap();
        let lease = spans.values().find(|s| s.name == "lease").unwrap();
        assert_eq!(task.parent, lease.id, "cross-file parent link preserved");
        // Per-event pids survive into the merged render.
        let pids: BTreeSet<u32> = ab.events.iter().map(|e| e.pid).collect();
        assert_eq!(pids, BTreeSet::from([100, 200]));
    }

    #[test]
    fn merge_applies_clock_offsets_and_remaps_colliding_ids() {
        // Two independently recorded traces: same ids/seqs (collision), and
        // the second runs on a clock 1000ns behind the reference.
        let one = "\
{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": 10, \"role\": \"a\", \"clock_offset_ns\": 0}
{\"ev\": \"B\", \"seq\": 1, \"id\": 1, \"parent\": 0, \"name\": \"a.run\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 0}
{\"ev\": \"E\", \"seq\": 2, \"id\": 1, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 500}
";
        let two = "\
{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": 20, \"role\": \"b\", \"clock_offset_ns\": 1000}
{\"ev\": \"B\", \"seq\": 1, \"id\": 1, \"parent\": 0, \"name\": \"b.run\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 0}
{\"ev\": \"E\", \"seq\": 2, \"id\": 1, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 200}
";
        let merged = merge_traces(&[parse_jsonl(two).unwrap(), parse_jsonl(one).unwrap()]).unwrap();
        let spans = check_well_formed(&merged).expect("well-formed after remap");
        assert_eq!(spans.len(), 2);
        let b_run = spans.values().find(|s| s.name == "b.run").unwrap();
        assert_eq!((b_run.start_ns, b_run.end_ns), (1000, 1200), "offset applied");
        let a_run = spans.values().find(|s| s.name == "a.run").unwrap();
        assert_ne!(a_run.id, b_run.id, "colliding ids re-mapped");
        // Determinism holds on the remap path too.
        let again = merge_traces(&[parse_jsonl(one).unwrap(), parse_jsonl(two).unwrap()]).unwrap();
        assert_eq!(merged.events, again.events);
    }

    #[test]
    fn chrome_conversion_has_one_record_per_event() {
        let trace = sample_trace();
        let chrome = to_chrome_json(&trace);
        let parsed = crate::json::parse(&chrome).expect("chrome JSON parses");
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), trace.events.len());
        // B and E records carry the same name so Chrome can pair them.
        let names: Vec<&str> =
            arr.iter().filter_map(|e| e.get("name").and_then(|n| n.as_str())).collect();
        assert_eq!(names.iter().filter(|&&n| n == "outer").count(), 2);
        assert_eq!(names.iter().filter(|&&n| n == "inner").count(), 2);
    }

    #[test]
    fn self_time_subtracts_children() {
        let bad = "\
{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": 1, \"role\": \"main\", \"clock_offset_ns\": 0}
{\"ev\": \"B\", \"seq\": 1, \"id\": 1, \"parent\": 0, \"name\": \"p\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 0}
{\"ev\": \"B\", \"seq\": 2, \"id\": 2, \"parent\": 1, \"name\": \"c\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 100}
{\"ev\": \"E\", \"seq\": 3, \"id\": 2, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 700}
{\"ev\": \"E\", \"seq\": 4, \"id\": 1, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 1000}
";
        let spans = check_well_formed(&parse_jsonl(bad).unwrap()).unwrap();
        let rows = self_time_summary(&spans);
        assert_eq!(rows[0].name, "c", "child dominates self time");
        assert_eq!(rows[0].self_ns, 600);
        assert_eq!(rows[1].name, "p");
        assert_eq!(rows[1].self_ns, 400);
        assert_eq!(rows[1].total_ns, 1000);
        let table = render_summary(&rows, 10);
        assert!(table.contains("self_ms"));
    }

    #[test]
    fn recursive_spans_do_not_double_count() {
        // p [0,1000] ⊃ p [100,700] ⊃ c [200,500]: the recursive name "p"
        // occupies 1000ns of wall clock, not 1000+600.
        let trace = "\
{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": 1, \"role\": \"main\", \"clock_offset_ns\": 0}
{\"ev\": \"B\", \"seq\": 1, \"id\": 1, \"parent\": 0, \"name\": \"p\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 0}
{\"ev\": \"B\", \"seq\": 2, \"id\": 2, \"parent\": 1, \"name\": \"p\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 100}
{\"ev\": \"B\", \"seq\": 3, \"id\": 3, \"parent\": 2, \"name\": \"c\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 200}
{\"ev\": \"E\", \"seq\": 4, \"id\": 3, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 500}
{\"ev\": \"E\", \"seq\": 5, \"id\": 2, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 700}
{\"ev\": \"E\", \"seq\": 6, \"id\": 1, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 1000}
";
        let spans = check_well_formed(&parse_jsonl(trace).unwrap()).unwrap();
        let rows = self_time_summary(&spans);
        let p = rows.iter().find(|r| r.name == "p").unwrap();
        assert_eq!(p.count, 2, "both occurrences are counted");
        assert_eq!(p.total_ns, 1000, "only the outermost interval contributes total time");
        // Self time per id: outer p = 1000−600, inner p = 600−300.
        assert_eq!(p.self_ns, 400 + 300);
        let c = rows.iter().find(|r| r.name == "c").unwrap();
        assert_eq!(c.total_ns, 300);
        assert_eq!(c.self_ns, 300);
        // Totals for distinct names may overlap (c nests in p); the fix is
        // only about one *name* never exceeding its own wall clock.
        assert!(p.total_ns <= 1000);
    }

    #[test]
    fn summary_rows_tie_break_by_name() {
        // Two sibling spans with identical self time: the ordering must be
        // deterministic (by name), so `ngs-trace summary --top N` shows the
        // same rows run after run.
        let trace = "\
{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": 1, \"role\": \"main\", \"clock_offset_ns\": 0}
{\"ev\": \"B\", \"seq\": 1, \"id\": 1, \"parent\": 0, \"name\": \"zeta\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 0}
{\"ev\": \"E\", \"seq\": 2, \"id\": 1, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 500}
{\"ev\": \"B\", \"seq\": 3, \"id\": 2, \"parent\": 0, \"name\": \"alpha\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 600}
{\"ev\": \"E\", \"seq\": 4, \"id\": 2, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 1100}
";
        let spans = check_well_formed(&parse_jsonl(trace).unwrap()).unwrap();
        let rows = self_time_summary(&spans);
        assert_eq!(rows[0].self_ns, rows[1].self_ns, "setup: a genuine tie");
        assert_eq!(rows[0].name, "alpha");
        assert_eq!(rows[1].name, "zeta");
    }

    #[test]
    fn render_summary_clamps_top_n_to_row_count() {
        let trace = "\
{\"schema_version\": 2, \"kind\": \"ngs-trace\", \"unit\": \"ns\", \"pid\": 1, \"role\": \"main\", \"clock_offset_ns\": 0}
{\"ev\": \"B\", \"seq\": 1, \"id\": 1, \"parent\": 0, \"name\": \"only\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 0}
{\"ev\": \"E\", \"seq\": 2, \"id\": 1, \"parent\": 0, \"name\": \"\", \"detail\": \"\", \"tid\": 1, \"ts_ns\": 100}
";
        let spans = check_well_formed(&parse_jsonl(trace).unwrap()).unwrap();
        let rows = self_time_summary(&spans);
        // N far beyond the row count: every row once, no padding, no panic.
        let table = render_summary(&rows, 1_000);
        assert_eq!(table.lines().count(), 1 + rows.len(), "header plus one line per row");
        assert_eq!(table.matches("only").count(), 1);
        // N = 0 renders just the header.
        assert_eq!(render_summary(&rows, 0).lines().count(), 1);
    }
}
