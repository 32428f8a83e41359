//! The [`Report`] snapshot: human table, `BENCH_*.json` JSON, and merging;
//! plus the readers of that JSON ([`parse_bench_report`],
//! [`validate_bench_invariants`]).
//!
//! JSON schema (`schema_version` 4) — all keys always present:
//!
//! ```json
//! {
//!   "schema_version": 4,
//!   "pipeline": "reptile",
//!   "memory": {"rss_bytes": 1048576, "peak_rss_bytes": 2097152},
//!   "alloc": {"allocated_bytes": 4096, "freed_bytes": 1024,
//!             "live_bytes": 3072, "peak_live_bytes": 4096,
//!             "alloc_count": 3},
//!   "cpu": {"process_ns": 5040000000},
//!   "spans": {"reptile.build": {"count": 1, "total_ns": 9, "min_ns": 9,
//!             "max_ns": 9, "threads": 8,
//!             "alloc_bytes": 2048, "alloc_peak_bytes": 4096,
//!             "cpu_ns": 17}},
//!   "counters": {"reptile.bases_changed": 42},
//!   "gauges": {"redeem.threshold.value": 7.25},
//!   "histograms": {"reptile.tile_og": {"count": 10, "sum": 55,
//!                  "min": 1, "max": 16, "mean": 5.5,
//!                  "p50": 4, "p90": 15, "p99": 16,
//!                  "buckets": [{"lo": 1, "hi": 1, "count": 3}]}}
//! }
//! ```
//!
//! Schema history: version 2 added the top-level `alloc` section and the
//! per-span `alloc_bytes`/`alloc_peak_bytes` fields (all zero / `null`
//! without the tracking allocator — see DESIGN.md §Memory profiling);
//! version 3 added a top-level `cpu` section and per-span CPU sample
//! counts from a sampling profiler, both `null` unless it ran; version 4
//! replaces them with the process CPU clock: `cpu.process_ns` read at
//! snapshot time and a per-span `cpu_ns` (see [`SpanStat::cpu_ns`] and
//! DESIGN.md §CPU per span).
//!
//! Memory fields are `null` when `/proc/self/status` is unavailable (the
//! probe distinguishes "no reading" from "zero bytes"); `alloc` is `null`
//! unless the tracking allocator is installed and enabled; `cpu` is
//! `null` only where the process CPU clock is unavailable, and a span's
//! `cpu_ns` is `null` when it was recorded from a duration rather than
//! measured (a skipped axis, not a zero); `p50`/`p90`/`p99` are
//! bucket-resolution estimates from the log₂ histogram (see
//! [`LogHistogram::quantile`]) and are `null` on empty histograms.

use crate::alloc::AllocStats;
use crate::histogram::LogHistogram;
use crate::json::{parse, Json};
use crate::memory::MemoryProbe;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a gauge folds across [`Report::merge`].
///
/// [`GaugeMerge::Min`] and [`GaugeMerge::Max`] are associative and
/// commutative; [`GaugeMerge::Last`] is inherently order-dependent (the
/// right-hand report wins) and is for folds with a meaningful order, e.g.
/// sequential phases of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GaugeMerge {
    /// Keep the minimum (the historical default: BIC scores, thresholds).
    #[default]
    Min,
    /// Keep the maximum (high-watermarks: peak memory, widest clique).
    Max,
    /// Keep the most recently merged value.
    Last,
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total wall time across entries, nanoseconds.
    pub total_ns: u64,
    /// Shortest single entry, nanoseconds.
    pub min_ns: u64,
    /// Longest single entry, nanoseconds.
    pub max_ns: u64,
    /// Largest thread count observed at span open.
    pub threads: usize,
    /// Σ bytes the process allocated while each entry was open, on every
    /// thread (0 without the tracking allocator — see `ngs_observe::alloc`).
    /// Overlapping entries each count the whole process, as with
    /// [`SpanStat::cpu_ns`].
    pub alloc_bytes: u64,
    /// Largest process-wide live-byte high-watermark observed at any
    /// entry's close (0 without the tracking allocator).
    pub alloc_peak_bytes: u64,
    /// Σ process CPU time over the entries, nanoseconds: how far the
    /// process CPU clock ([`crate::process_cpu_ns`]) advanced while each
    /// was open, so it includes every thread's work, pool workers too.
    /// Entries that overlap (concurrent requests, nested spans) each count
    /// the whole process over their interval, just as their wall times
    /// count overlapping intervals. `None` when no entry was measured
    /// (spans recorded from a duration, e.g. replayed or `JobStats` times).
    pub cpu_ns: Option<u64>,
}

/// The report's `cpu` section: the process CPU clock read at snapshot
/// time. `None` on the report (serialised as `null`) only where the clock
/// is unavailable, or for a disabled collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTotals {
    /// CPU time the process had used, nanoseconds.
    pub process_ns: u64,
}

impl Default for SpanStat {
    fn default() -> SpanStat {
        SpanStat {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            threads: 0,
            alloc_bytes: 0,
            alloc_peak_bytes: 0,
            cpu_ns: None,
        }
    }
}

impl SpanStat {
    /// Fold one span occurrence in.
    pub fn observe(&mut self, ns: u64, threads: usize) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.threads = self.threads.max(threads);
    }

    /// Fold one occurrence's allocation figures in (complements
    /// [`SpanStat::observe`], which counts the occurrence itself).
    pub fn observe_alloc(&mut self, alloc_bytes: u64, alloc_peak_bytes: u64) {
        self.alloc_bytes = self.alloc_bytes.saturating_add(alloc_bytes);
        self.alloc_peak_bytes = self.alloc_peak_bytes.max(alloc_peak_bytes);
    }

    /// Fold one occurrence's measured CPU time in (additive, like the
    /// allocation bytes).
    pub fn observe_cpu(&mut self, cpu_ns: u64) {
        self.cpu_ns = Some(self.cpu_ns.unwrap_or(0).saturating_add(cpu_ns));
    }

    /// Fold another aggregate in. Commutative and associative.
    ///
    /// Wall-time figures only flow from sides that actually counted an
    /// occurrence: a `count == 0` operand contributes nothing to
    /// `total_ns`/`min_ns`/`max_ns` (its fields are by definition the
    /// fold identity, and a hand-built stat carrying nonzero figures at
    /// count 0 must not skew totals without moving the extrema — that
    /// is exactly how `total_ns > max_ns` once crept into count-1 spans).
    /// Symmetrically, when `self` has never counted
    /// an occurrence its wall fields are replaced, not folded, which
    /// keeps the operation commutative. The invariant
    /// `count == 1 ⇒ total_ns == min_ns == max_ns` therefore survives
    /// any sequence of merges (property-tested in
    /// `tests/observability.rs`).
    pub fn merge(&mut self, other: &SpanStat) {
        if other.count > 0 {
            if self.count == 0 {
                self.total_ns = other.total_ns;
                self.min_ns = other.min_ns;
                self.max_ns = other.max_ns;
            } else {
                self.total_ns = self.total_ns.saturating_add(other.total_ns);
                self.min_ns = self.min_ns.min(other.min_ns);
                self.max_ns = self.max_ns.max(other.max_ns);
            }
        }
        self.count += other.count;
        self.threads = self.threads.max(other.threads);
        self.alloc_bytes = self.alloc_bytes.saturating_add(other.alloc_bytes);
        self.alloc_peak_bytes = self.alloc_peak_bytes.max(other.alloc_peak_bytes);
        if let Some(cpu_ns) = other.cpu_ns {
            self.observe_cpu(cpu_ns);
        }
    }
}

/// An immutable metrics snapshot for one pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Pipeline identifier (`reptile`, `redeem`, `closet`, …) — names the
    /// `BENCH_<pipeline>.json` file.
    pub pipeline: String,
    /// Span aggregates keyed by dot-separated path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (merged per [`GaugeMerge`] mode, minimum by default).
    pub gauges: BTreeMap<String, f64>,
    /// Merge modes for gauges recorded with a non-default mode (absent
    /// names merge by [`GaugeMerge::Min`]).
    pub gauge_modes: BTreeMap<String, GaugeMerge>,
    /// Log histograms.
    pub histograms: BTreeMap<String, LogHistogram>,
    /// Memory probe taken at snapshot time.
    pub memory: MemoryProbe,
    /// Tracking-allocator snapshot taken at report time (`None` without
    /// the tracking allocator installed and enabled).
    pub alloc: Option<AllocStats>,
    /// Process CPU clock at snapshot time (`None` where unavailable).
    pub cpu: Option<CpuTotals>,
}

impl Report {
    /// Fold `other` into `self`: spans/histograms merge element-wise,
    /// counters add, gauges fold per their [`GaugeMerge`] mode (minimum by
    /// default), memory and alloc snapshots take maxima, process CPU times
    /// add (so a merged report's `cpu` still bounds each span's sequential
    /// `cpu_ns`). With equal
    /// `pipeline` names and no [`GaugeMerge::Last`] gauges the operation
    /// is associative and commutative (property-tested in
    /// `tests/observability.rs`). When the two reports disagree on a
    /// gauge's mode, `self`'s wins.
    pub fn merge(&mut self, other: &Report) {
        for (k, v) in &other.spans {
            self.spans.entry(k.clone()).or_default().merge(v);
        }
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            let mode = self
                .gauge_modes
                .get(k)
                .or_else(|| other.gauge_modes.get(k))
                .copied()
                .unwrap_or_default();
            self.gauges
                .entry(k.clone())
                .and_modify(|g| {
                    *g = match mode {
                        GaugeMerge::Min => g.min(v),
                        GaugeMerge::Max => g.max(v),
                        GaugeMerge::Last => v,
                    }
                })
                .or_insert(v);
        }
        for (k, &m) in &other.gauge_modes {
            self.gauge_modes.entry(k.clone()).or_insert(m);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
        self.memory.merge(&other.memory);
        match (&mut self.alloc, &other.alloc) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(*b),
            (_, None) => {}
        }
        match (&mut self.cpu, &other.cpu) {
            (Some(a), Some(b)) => a.process_ns = a.process_ns.saturating_add(b.process_ns),
            (slot @ None, Some(b)) => *slot = Some(*b),
            (_, None) => {}
        }
    }

    /// Span lookup by exact path.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.get(path)
    }

    /// Counter lookup (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The span paths in `required` that this report is missing — the
    /// CLIs' `--metrics-json` runs fail when this is non-empty.
    pub fn missing_spans(&self, required: &[&str]) -> Vec<String> {
        required.iter().filter(|&&p| !self.spans.contains_key(p)).map(|&p| p.to_string()).collect()
    }

    /// Render the human-readable table (for `--metrics-json` runs' stderr).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        writeln!(out, "== metrics: {} ==", self.pipeline).unwrap();
        // Allocation columns only when some span actually has figures —
        // untracked runs keep the narrow table.
        let with_alloc = self.spans.values().any(|s| s.alloc_peak_bytes > 0 || s.alloc_bytes > 0);
        // A CPU column only when some span was measured.
        let with_cpu = self.spans.values().any(|s| s.cpu_ns.is_some());
        if !self.spans.is_empty() {
            write!(
                out,
                "{:<44} {:>8} {:>12} {:>12} {:>7}",
                "span", "count", "total_ms", "max_ms", "thr"
            )
            .unwrap();
            if with_alloc {
                write!(out, " {:>12} {:>12}", "alloc_mb", "peak_mb").unwrap();
            }
            if with_cpu {
                write!(out, " {:>12}", "cpu_ms").unwrap();
            }
            writeln!(out).unwrap();
            for (path, s) in &self.spans {
                write!(
                    out,
                    "{:<44} {:>8} {:>12.3} {:>12.3} {:>7}",
                    path,
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.max_ns as f64 / 1e6,
                    s.threads
                )
                .unwrap();
                if with_alloc {
                    write!(
                        out,
                        " {:>12.2} {:>12.2}",
                        s.alloc_bytes as f64 / (1024.0 * 1024.0),
                        s.alloc_peak_bytes as f64 / (1024.0 * 1024.0)
                    )
                    .unwrap();
                }
                match s.cpu_ns {
                    Some(ns) if with_cpu => write!(out, " {:>12.3}", ns as f64 / 1e6).unwrap(),
                    None if with_cpu => write!(out, " {:>12}", "-").unwrap(),
                    _ => {}
                }
                writeln!(out).unwrap();
            }
        }
        if !self.counters.is_empty() {
            writeln!(out, "{:<44} {:>20}", "counter", "value").unwrap();
            for (name, v) in &self.counters {
                writeln!(out, "{:<44} {:>20}", name, v).unwrap();
            }
        }
        if !self.gauges.is_empty() {
            writeln!(out, "{:<44} {:>20}", "gauge", "value").unwrap();
            for (name, v) in &self.gauges {
                writeln!(out, "{:<44} {:>20.4}", name, v).unwrap();
            }
        }
        if !self.histograms.is_empty() {
            writeln!(
                out,
                "{:<44} {:>10} {:>12} {:>8} {:>8} {:>10} {:>10} {:>10}",
                "histogram", "count", "mean", "min", "max", "p50", "p90", "p99"
            )
            .unwrap();
            for (name, h) in &self.histograms {
                writeln!(
                    out,
                    "{:<44} {:>10} {:>12.2} {:>8} {:>8} {:>10} {:>10} {:>10}",
                    name,
                    h.count(),
                    h.mean(),
                    h.min().unwrap_or(0),
                    h.max().unwrap_or(0),
                    h.quantile(0.5).unwrap_or(0),
                    h.quantile(0.9).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0)
                )
                .unwrap();
            }
        }
        match (self.memory.rss_bytes, self.memory.peak_rss_bytes) {
            (None, None) => {}
            (rss, peak) => {
                let mb = |b: Option<u64>| match b {
                    Some(b) => format!("{:.1} MB", b as f64 / (1024.0 * 1024.0)),
                    None => "n/a".to_string(),
                };
                writeln!(out, "memory: rss {}, peak {}", mb(rss), mb(peak)).unwrap();
            }
        }
        if let Some(a) = &self.alloc {
            writeln!(
                out,
                "alloc: live {:.1} MB, peak {:.1} MB, {} allocations",
                a.live_bytes as f64 / (1024.0 * 1024.0),
                a.peak_live_bytes as f64 / (1024.0 * 1024.0),
                a.alloc_count
            )
            .unwrap();
        }
        if let Some(c) = &self.cpu {
            writeln!(out, "cpu: process {:.3} s", c.process_ns as f64 / 1e9).unwrap();
        }
        out
    }

    /// Serialize to the `BENCH_<pipeline>.json` schema (see module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema_version\": 4,\n  \"pipeline\": ");
        json_string(&mut out, &self.pipeline);
        out.push_str(",\n  \"memory\": {\"rss_bytes\": ");
        json_opt_u64(&mut out, self.memory.rss_bytes);
        out.push_str(", \"peak_rss_bytes\": ");
        json_opt_u64(&mut out, self.memory.peak_rss_bytes);
        out.push_str("},\n  \"alloc\": ");
        match &self.alloc {
            Some(a) => write!(
                out,
                "{{\"allocated_bytes\": {}, \"freed_bytes\": {}, \"live_bytes\": {}, \
                 \"peak_live_bytes\": {}, \"alloc_count\": {}}}",
                a.allocated_bytes, a.freed_bytes, a.live_bytes, a.peak_live_bytes, a.alloc_count
            )
            .unwrap(),
            None => out.push_str("null"),
        }
        out.push_str(",\n  \"cpu\": ");
        match &self.cpu {
            Some(c) => write!(out, "{{\"process_ns\": {}}}", c.process_ns).unwrap(),
            None => out.push_str("null"),
        }
        out.push_str(",\n  \"spans\": {");
        for (i, (path, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_string(&mut out, path);
            write!(
                out,
                ": {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"threads\": {}, \
                 \"alloc_bytes\": {}, \"alloc_peak_bytes\": {}, \"cpu_ns\": ",
                s.count,
                s.total_ns,
                if s.count == 0 { 0 } else { s.min_ns },
                s.max_ns,
                s.threads,
                s.alloc_bytes,
                s.alloc_peak_bytes
            )
            .unwrap();
            json_opt_u64(&mut out, s.cpu_ns);
            out.push('}');
        }
        out.push_str("\n  },\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_string(&mut out, name);
            write!(out, ": {v}").unwrap();
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_string(&mut out, name);
            out.push_str(": ");
            json_f64(&mut out, *v);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_string(&mut out, name);
            write!(
                out,
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": ",
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0)
            )
            .unwrap();
            json_f64(&mut out, h.mean());
            out.push_str(", \"p50\": ");
            json_opt_u64(&mut out, h.quantile(0.5));
            out.push_str(", \"p90\": ");
            json_opt_u64(&mut out, h.quantile(0.9));
            out.push_str(", \"p99\": ");
            json_opt_u64(&mut out, h.quantile(0.99));
            out.push_str(", \"buckets\": [");
            for (j, (lo, hi, c)) in h.nonzero_buckets().into_iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write!(out, "{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {c}}}").unwrap();
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Append a JSON-escaped string literal.
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a finite JSON number (non-finite values become null).
fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v}").unwrap();
    } else {
        out.push_str("null");
    }
}

/// Append an optional integer (`None` → null).
fn json_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => write!(out, "{v}").unwrap(),
        None => out.push_str("null"),
    }
}

/// One span's figures read back from a `BENCH_*.json` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BenchSpan {
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Peak live bytes while the span was open (`None` on runs without the
    /// tracking allocator).
    pub alloc_peak_bytes: Option<u64>,
    /// Process CPU time while the span was open (`None` when it was not
    /// measured).
    pub cpu_ns: Option<u64>,
}

/// Extract `pipeline` and the span → [`BenchSpan`] map from a
/// `BENCH_*.json` document. Only `total_ns` is required per span, so
/// hand-written wall-only fixtures parse too.
pub fn parse_bench_report(text: &str) -> Result<(String, BTreeMap<String, BenchSpan>), String> {
    let doc = parse(text)?;
    let pipeline = doc
        .get("pipeline")
        .and_then(Json::as_str)
        .ok_or("report has no \"pipeline\" field")?
        .to_string();
    let spans_obj = doc.get("spans").and_then(Json::as_obj).ok_or("report has no \"spans\"")?;
    let mut spans = BTreeMap::new();
    for (name, stat) in spans_obj {
        let total = stat
            .get("total_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("span {name:?} has no integer \"total_ns\""))?;
        let alloc_peak_bytes = stat.get("alloc_peak_bytes").and_then(Json::as_u64);
        // `null` (an unmeasured span) and absent both read as None: the
        // CPU axis was skipped, not measured at zero.
        let cpu_ns = stat.get("cpu_ns").and_then(Json::as_u64);
        spans.insert(name.clone(), BenchSpan { total_ns: total, alloc_peak_bytes, cpu_ns });
    }
    Ok((pipeline, spans))
}

/// Check every span of a `BENCH_*.json` document against the span-stat
/// invariants, returning one message per violation:
///
/// * `count == 0` ⇒ `total_ns == 0`;
/// * `count == 1` ⇒ `total_ns == min_ns == max_ns` (a single occurrence
///   *is* the minimum, maximum, and total);
/// * `count >= 1` ⇒ `min_ns <= max_ns <= total_ns`.
///
/// Spans missing any of the four wall fields are skipped — this validator
/// hardens full reports, not hand-written wall-only fixtures.
pub fn validate_bench_invariants(text: &str) -> Result<(), Vec<String>> {
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("unparseable report: {e}")]),
    };
    let Some(spans) = doc.get("spans").and_then(Json::as_obj) else {
        return Ok(());
    };
    let mut violations = Vec::new();
    for (name, stat) in spans {
        let field = |k: &str| stat.get(k).and_then(Json::as_u64);
        let (Some(count), Some(total), Some(min), Some(max)) =
            (field("count"), field("total_ns"), field("min_ns"), field("max_ns"))
        else {
            continue;
        };
        if count == 0 {
            if total != 0 {
                violations.push(format!("span {name:?}: count 0 but total_ns {total}"));
            }
            continue;
        }
        if count == 1 && !(total == min && total == max) {
            violations.push(format!(
                "span {name:?}: count 1 requires total_ns == min_ns == max_ns, \
                 got total_ns {total}, min_ns {min}, max_ns {max}"
            ));
        } else if min > max || max > total {
            violations.push(format!(
                "span {name:?}: requires min_ns <= max_ns <= total_ns, \
                 got total_ns {total}, min_ns {min}, max_ns {max}"
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let c = crate::Collector::new();
        c.record_span_ns("p.build", 1_000_000, 4);
        c.record_span_ns("p.build", 3_000_000, 8);
        c.add("p.records", 7);
        c.gauge("p.threshold", 2.5);
        c.record_n("p.sizes", 3, 10);
        c.report("p")
    }

    #[test]
    fn span_stat_aggregates() {
        let r = sample();
        let s = r.span("p.build").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 4_000_000);
        assert_eq!(s.min_ns, 1_000_000);
        assert_eq!(s.max_ns, 3_000_000);
        assert_eq!(s.threads, 8);
    }

    #[test]
    fn json_contains_all_sections() {
        let j = sample().to_json();
        for needle in [
            "\"schema_version\": 4",
            "\"pipeline\": \"p\"",
            "\"p.build\": {\"count\": 2, \"total_ns\": 4000000",
            "\"alloc_bytes\": 0, \"alloc_peak_bytes\": 0, \"cpu_ns\": null}",
            "\"p.records\": 7",
            "\"p.threshold\": 2.5",
            "\"p.sizes\": {\"count\": 10",
            "\"buckets\": [{\"lo\": 2, \"hi\": 3, \"count\": 10}]",
            "\"rss_bytes\"",
        ] {
            assert!(j.contains(needle), "missing {needle:?} in:\n{j}");
        }
        // Without the tracking allocator the alloc section is explicit null,
        // not a zeroed object.
        assert!(j.contains("\"alloc\": null"), "missing alloc null in:\n{j}");
        // An enabled collector's report always carries the process CPU
        // clock; a span recorded from a duration has an explicit null CPU
        // time (matched above), not a zero.
        assert!(j.contains("\"cpu\": {\"process_ns\": "), "missing cpu section in:\n{j}");
        let mut r = sample();
        r.cpu = Some(CpuTotals { process_ns: 5_040_000_000 });
        r.spans.get_mut("p.build").unwrap().observe_cpu(1_500);
        let j = r.to_json();
        assert!(j.contains("\"cpu\": {\"process_ns\": 5040000000}"), "missing cpu in:\n{j}");
        assert!(
            j.contains("\"alloc_peak_bytes\": 0, \"cpu_ns\": 1500}"),
            "missing cpu_ns in:\n{j}"
        );
    }

    #[test]
    fn json_emits_alloc_section_when_present() {
        let mut r = sample();
        r.alloc = Some(AllocStats {
            allocated_bytes: 4096,
            freed_bytes: 1024,
            live_bytes: 3072,
            peak_live_bytes: 4096,
            alloc_count: 3,
        });
        let j = r.to_json();
        assert!(
            j.contains(
                "\"alloc\": {\"allocated_bytes\": 4096, \"freed_bytes\": 1024, \
                 \"live_bytes\": 3072, \"peak_live_bytes\": 4096, \"alloc_count\": 3}"
            ),
            "missing alloc object in:\n{j}"
        );
    }

    #[test]
    fn json_escapes_strings() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
        let mut s = String::new();
        json_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn table_renders_every_section() {
        let t = sample().render_table();
        assert!(t.contains("p.build"));
        assert!(t.contains("p.records"));
        assert!(t.contains("p.threshold"));
        assert!(t.contains("p.sizes"));
        assert!(t.contains("memory:"));
    }

    #[test]
    fn missing_spans_lists_absent_paths() {
        let r = sample();
        assert!(r.missing_spans(&["p.build"]).is_empty());
        assert_eq!(r.missing_spans(&["p.build", "p.absent"]), vec!["p.absent".to_string()]);
    }

    #[test]
    fn merge_folds_everything() {
        let mut a = sample();
        let mut b = sample();
        b.spans.get_mut("p.build").unwrap().observe_cpu(7);
        let cpu = a.cpu.unwrap().process_ns + b.cpu.unwrap().process_ns;
        a.merge(&b);
        assert_eq!(a.span("p.build").unwrap().count, 4);
        assert_eq!(a.span("p.build").unwrap().cpu_ns, Some(7), "a null side adds nothing");
        assert_eq!(a.cpu, Some(CpuTotals { process_ns: cpu }), "process CPU times add");
        assert_eq!(a.counter("p.records"), 14);
        assert_eq!(a.gauges["p.threshold"], 2.5);
        assert_eq!(a.histograms["p.sizes"].count(), 20);
        a.merge(&b);
        assert_eq!(a.span("p.build").unwrap().cpu_ns, Some(14));
    }

    #[test]
    fn count_zero_operand_contributes_no_wall_time() {
        // A corrupt stat claiming wall time at count 0 must not skew a
        // count-1 span's totals away from its extrema — in either
        // merge direction.
        let mut real = SpanStat::default();
        real.observe(1_000, 4);
        let corrupt = SpanStat { count: 0, total_ns: 999_999, max_ns: 7, ..Default::default() };

        let mut left = real;
        left.merge(&corrupt);
        assert_eq!((left.count, left.total_ns, left.min_ns, left.max_ns), (1, 1_000, 1_000, 1_000));

        let mut right = corrupt;
        right.merge(&real);
        assert_eq!(
            (right.count, right.total_ns, right.min_ns, right.max_ns),
            (1, 1_000, 1_000, 1_000)
        );
    }

    #[test]
    fn count_one_invariant_survives_merge_chains() {
        let mut a = SpanStat::default();
        a.observe(5_000, 2);
        let mut acc = SpanStat::default();
        acc.merge(&a);
        acc.merge(&SpanStat::default());
        assert_eq!(acc.count, 1);
        assert_eq!(acc.total_ns, acc.min_ns);
        assert_eq!(acc.total_ns, acc.max_ns);
    }

    #[test]
    fn merge_identity_is_default() {
        let a = sample();
        let mut b = a.clone();
        b.merge(&Report { pipeline: "p".into(), ..Default::default() });
        assert_eq!(a, b);
    }

    #[test]
    fn gauges_min_merge_by_default() {
        let ca = crate::Collector::new();
        ca.gauge("p.threshold", 5.0);
        let cb = crate::Collector::new();
        cb.gauge("p.threshold", 2.0);
        let mut a = ca.report("p");
        a.merge(&cb.report("p"));
        assert_eq!(a.gauges["p.threshold"], 2.0, "default merge is min");
        assert!(a.gauge_modes.is_empty(), "Min mode is implicit, not stored");
    }

    #[test]
    fn gauges_max_merge_keeps_peak() {
        let ca = crate::Collector::new();
        ca.gauge_max("p.peak_mem", 100.0);
        let cb = crate::Collector::new();
        cb.gauge_max("p.peak_mem", 300.0);
        let mut ab = ca.report("p");
        ab.merge(&cb.report("p"));
        let mut ba = cb.report("p");
        ba.merge(&ca.report("p"));
        assert_eq!(ab.gauges["p.peak_mem"], 300.0, "max mode keeps the peak");
        assert_eq!(ab.gauges, ba.gauges, "max merge is commutative");
        assert_eq!(ab.gauge_modes.get("p.peak_mem"), Some(&GaugeMerge::Max));
    }

    #[test]
    fn gauge_mode_survives_merge_into_untyped_report() {
        // The max mode must win even when the left-hand report never saw
        // the gauge (e.g. merging a worker's report into a fresh one).
        let cb = crate::Collector::new();
        cb.gauge_max("p.peak_mem", 300.0);
        let mut a = crate::Collector::new().report("p");
        a.merge(&cb.report("p"));
        assert_eq!(a.gauges["p.peak_mem"], 300.0);
        let cc = crate::Collector::new();
        cc.gauge_max("p.peak_mem", 150.0);
        a.merge(&cc.report("p"));
        assert_eq!(a.gauges["p.peak_mem"], 300.0, "mode was inherited from the first merge");
    }

    #[test]
    fn gauges_last_merge_takes_right_hand_value() {
        let ca = crate::Collector::new();
        ca.gauge_with_mode("p.phase", 1.0, GaugeMerge::Last);
        let cb = crate::Collector::new();
        cb.gauge_with_mode("p.phase", 2.0, GaugeMerge::Last);
        let mut a = ca.report("p");
        a.merge(&cb.report("p"));
        assert_eq!(a.gauges["p.phase"], 2.0, "last mode: right-hand report wins");
    }
    #[test]
    fn parse_bench_report_reads_alloc_fields() {
        let c = crate::Collector::new();
        c.record_span("p.build", 100_000_000, 4, None, 2048, 4096);
        let json = c.report("p").to_json();
        let (pipeline, spans) = parse_bench_report(&json).unwrap();
        assert_eq!(pipeline, "p");
        assert_eq!(
            spans["p.build"],
            BenchSpan { total_ns: 100_000_000, alloc_peak_bytes: Some(4096), ..Default::default() }
        );
    }

    #[test]
    fn parse_bench_report_reads_cpu_fields_and_skips_nulls() {
        // A span recorded from a duration has a null CPU time; a measured
        // one comes through as a number.
        let c = crate::Collector::new();
        c.record_span_ns("p.build", 100_000_000, 4);
        c.record_span_cpu("p.task", 100_000_000, 1, 70_000_000);
        let (_, spans) = parse_bench_report(&c.report("p").to_json()).unwrap();
        assert_eq!(spans["p.build"].cpu_ns, None);
        assert_eq!(spans["p.task"].cpu_ns, Some(70_000_000));
        let json = r#"{"pipeline": "p", "spans": {"p.build": {"total_ns": 5}}}"#;
        assert_eq!(parse_bench_report(json).unwrap().1["p.build"].cpu_ns, None);
    }

    #[test]
    fn validator_accepts_collector_reports() {
        let c = crate::Collector::new();
        drop(c.span("p.measured"));
        c.record_span_cpu("p.task", 5_000, 1, 4_000);
        c.record_span_ns("p.once", 5_000, 1);
        c.record_span_ns("p.twice", 1_000, 2);
        c.record_span_ns("p.twice", 3_000, 2);
        validate_bench_invariants(&c.report("p").to_json()).expect("honest report validates");
    }

    #[test]
    fn validator_rejects_count_one_envelope_totals() {
        // A count-1 span whose total_ns was inflated past min/max.
        let json = r#"{"pipeline": "p", "spans": {
            "reptile.build.tiles": {"count": 1, "total_ns": 18008569,
                                    "min_ns": 17324288, "max_ns": 17324288}}}"#;
        let violations = validate_bench_invariants(json).unwrap_err();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("count 1"), "{violations:?}");
    }

    #[test]
    fn validator_rejects_inverted_extrema_and_zero_count_totals() {
        let json = r#"{"pipeline": "p", "spans": {
            "a": {"count": 2, "total_ns": 10, "min_ns": 9, "max_ns": 12},
            "b": {"count": 0, "total_ns": 7, "min_ns": 0, "max_ns": 0},
            "wall_only": {"total_ns": 5}}}"#;
        let violations = validate_bench_invariants(json).unwrap_err();
        assert_eq!(violations.len(), 2, "{violations:?}");
    }
}
