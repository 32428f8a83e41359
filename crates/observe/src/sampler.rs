//! Background resource sampling and live progress reporting.
//!
//! [`ResourceSampler`] runs a thread that periodically snapshots the
//! tracking allocator ([`crate::alloc::snapshot`]) and `/proc/self/{statm,stat}`
//! (RSS, user/system CPU ticks, thread count) into a timestamped timeline.
//! [`to_jsonl`] serialises the timeline (`schema_version` 2, kind
//! `ngs-resources`): a header line followed by one JSON object per sample,
//! written next to the trace by the CLIs' `--resource-jsonl` flag. Schema v2
//! added `ticks_per_sec` (USER_HZ from the aux vector) and
//! `page_size_bytes` to the header so downstream tooling can convert ticks
//! to CPU% and resident pages to bytes without guessing platform constants;
//! [`validate_resources_header`] reads it back.
//!
//! [`ProgressMeter`] is the human-facing companion: a thread that polls two
//! collector counters (records and bytes read) once a second and prints a
//! throughput/ETA heartbeat to stderr, for long runs on a terminal.

use crate::alloc::AllocStats;
use crate::Collector;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One point on the resource timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceSample {
    /// Milliseconds since the sampler started.
    pub elapsed_ms: u64,
    /// Tracking-allocator snapshot (`None` while tracking is off).
    pub alloc: Option<AllocStats>,
    /// Resident set size in bytes from `/proc/self/statm` (`None` off-Linux).
    pub rss_bytes: Option<u64>,
    /// User-mode CPU ticks from `/proc/self/stat`.
    pub utime_ticks: Option<u64>,
    /// Kernel-mode CPU ticks from `/proc/self/stat`.
    pub stime_ticks: Option<u64>,
    /// OS thread count from `/proc/self/stat`.
    pub num_threads: Option<u64>,
}

/// Process stats from procfs (split out so the parser is testable without
/// a live sampler).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// Resident set size in bytes.
    pub rss_bytes: Option<u64>,
    /// User-mode CPU ticks.
    pub utime_ticks: Option<u64>,
    /// Kernel-mode CPU ticks.
    pub stime_ticks: Option<u64>,
    /// OS thread count.
    pub num_threads: Option<u64>,
}

/// Resource-timeline JSONL schema version written by [`to_jsonl`].
pub const RESOURCE_SCHEMA_VERSION: u32 = 2;

/// `AT_PAGESZ` aux-vector key (see `getauxval(3)`).
const AT_PAGESZ: u64 = 6;
/// `AT_CLKTCK` aux-vector key: kernel USER_HZ, the unit of `/proc` CPU ticks.
const AT_CLKTCK: u64 = 17;

/// Look up one key in `/proc/self/auxv` — native-endian `(key, value)`
/// usize pairs, terminated by an `AT_NULL` (0) key. Returns `None` when the
/// file is unreadable (non-Linux) or the key is absent.
fn auxv_lookup(key: u64) -> Option<u64> {
    let bytes = std::fs::read("/proc/self/auxv").ok()?;
    const W: usize = std::mem::size_of::<usize>();
    for pair in bytes.chunks_exact(2 * W) {
        let k = usize::from_ne_bytes(pair[..W].try_into().ok()?) as u64;
        let v = usize::from_ne_bytes(pair[W..].try_into().ok()?) as u64;
        if k == 0 {
            break;
        }
        if k == key {
            return Some(v);
        }
    }
    None
}

/// USER_HZ — the tick unit of `utime_ticks`/`stime_ticks` — from
/// `AT_CLKTCK`, falling back to the near-universal 100 when the aux vector
/// is unavailable. Cached after the first read.
pub fn ticks_per_sec() -> u64 {
    static CACHE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| auxv_lookup(AT_CLKTCK).filter(|&v| v > 0).unwrap_or(100))
}

/// The page size `rss` pages are counted in, from `AT_PAGESZ`, falling back
/// to 4096 when the aux vector is unavailable. Cached after the first read.
pub fn page_size_bytes() -> u64 {
    static CACHE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| auxv_lookup(AT_PAGESZ).filter(|&v| v > 0).unwrap_or(4096))
}

/// Parse `/proc/self/statm` content: the second field is resident pages.
/// `page_size` comes from the aux vector ([`page_size_bytes`]) — no libc
/// dependency.
pub fn parse_statm(text: &str, page_size: u64) -> Option<u64> {
    let pages: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * page_size)
}

/// Parse `/proc/self/stat` content. The command field (2nd) may contain
/// spaces and parentheses, so fields are counted after the *last* `)`:
/// `utime` is field 14, `stime` 15 and `num_threads` 20 (1-indexed as in
/// proc(5)).
pub fn parse_stat(text: &str) -> (Option<u64>, Option<u64>, Option<u64>) {
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return (None, None, None);
    };
    // `rest` starts at field 3 ("state"), so field N lives at index N - 3.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3).and_then(|s| s.parse::<u64>().ok());
    (field(14), field(15), field(20))
}

/// Read `/proc/self/{statm,stat}`. Fields are `None` when procfs is
/// unavailable (non-Linux) — the timeline stays valid and just omits them.
pub fn read_proc_sample() -> ProcSample {
    let rss_bytes = std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|t| parse_statm(&t, page_size_bytes()));
    let (utime_ticks, stime_ticks, num_threads) = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .map_or((None, None, None), |t| parse_stat(&t));
    ProcSample { rss_bytes, utime_ticks, stime_ticks, num_threads }
}

/// Take one full resource sample at `elapsed` since the sampler epoch.
fn take_sample(elapsed: Duration) -> ResourceSample {
    let proc = read_proc_sample();
    ResourceSample {
        elapsed_ms: elapsed.as_millis().min(u64::MAX as u128) as u64,
        alloc: crate::alloc::snapshot(),
        rss_bytes: proc.rss_bytes,
        utime_ticks: proc.utime_ticks,
        stime_ticks: proc.stime_ticks,
        num_threads: proc.num_threads,
    }
}

/// Background thread snapshotting resources every `interval` until
/// [`ResourceSampler::stop`] joins it and returns the timeline.
pub struct ResourceSampler {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<ResourceSample>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ResourceSampler {
    /// Start sampling every `interval` (one sample is taken immediately, so
    /// even a short run gets a baseline point).
    pub fn start(interval: Duration) -> ResourceSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(vec![take_sample(Duration::ZERO)]));
        let handle = {
            let stop = stop.clone();
            let samples = samples.clone();
            std::thread::Builder::new()
                .name("ngs-resource-sampler".into())
                .spawn(move || {
                    let epoch = Instant::now();
                    while !stop.load(Relaxed) {
                        std::thread::sleep(interval);
                        let mut guard = crate::lock_unpoisoned(&samples);
                        #[cfg(test)]
                        tests::fault_hook();
                        guard.push(take_sample(epoch.elapsed()));
                    }
                })
                .expect("spawn resource sampler thread")
        };
        ResourceSampler { stop, samples, handle: Some(handle) }
    }

    /// Stop the thread, append a final sample and return the timeline.
    pub fn stop(mut self) -> Vec<ResourceSample> {
        self.stop.store(true, Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        // `lock_unpoisoned`: the sampler thread may have panicked while
        // holding the lock; the samples gathered up to that point are still
        // a well-formed timeline and must not cascade a second panic here.
        let mut samples = std::mem::take(&mut *crate::lock_unpoisoned(&self.samples));
        // Close the timeline with a final reading so short phases between
        // ticks still show their end state.
        let last_ms = samples.last().map_or(0, |s| s.elapsed_ms);
        let mut fin = take_sample(Duration::ZERO);
        fin.elapsed_ms = last_ms;
        samples.push(fin);
        samples
    }
}

impl Drop for ResourceSampler {
    fn drop(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn push_opt(out: &mut String, key: &str, v: Option<u64>) {
    use std::fmt::Write as _;
    match v {
        Some(v) => write!(out, ", \"{key}\": {v}").unwrap(),
        None => write!(out, ", \"{key}\": null").unwrap(),
    }
}

/// Serialise a timeline as JSONL: a header object
/// `{"schema_version": 2, "kind": "ngs-resources", "unit": "ms",
/// "ticks_per_sec": …, "page_size_bytes": …}` followed by one object per
/// sample. Absent readings serialise as `null`, never 0.
pub fn to_jsonl(samples: &[ResourceSample]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(96 + samples.len() * 160);
    writeln!(
        out,
        "{{\"schema_version\": {RESOURCE_SCHEMA_VERSION}, \"kind\": \"ngs-resources\", \
         \"unit\": \"ms\", \"ticks_per_sec\": {}, \"page_size_bytes\": {}}}",
        ticks_per_sec(),
        page_size_bytes()
    )
    .unwrap();
    for s in samples {
        write!(out, "{{\"elapsed_ms\": {}", s.elapsed_ms).unwrap();
        match s.alloc {
            Some(a) => write!(
                out,
                ", \"alloc\": {{\"allocated_bytes\": {}, \"freed_bytes\": {}, \
                 \"live_bytes\": {}, \"peak_live_bytes\": {}, \"alloc_count\": {}}}",
                a.allocated_bytes, a.freed_bytes, a.live_bytes, a.peak_live_bytes, a.alloc_count
            )
            .unwrap(),
            None => out.push_str(", \"alloc\": null"),
        }
        push_opt(&mut out, "rss_bytes", s.rss_bytes);
        push_opt(&mut out, "utime_ticks", s.utime_ticks);
        push_opt(&mut out, "stime_ticks", s.stime_ticks);
        push_opt(&mut out, "num_threads", s.num_threads);
        out.push_str("}\n");
    }
    out
}

/// Metadata read back from a resource-timeline header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceHeader {
    /// Schema version of the file.
    pub schema_version: u32,
    /// USER_HZ the tick fields are counted in.
    pub ticks_per_sec: u64,
    /// Page size RSS was converted with.
    pub page_size_bytes: u64,
}

/// Parse and validate a resources JSONL header line, mirroring the trace
/// reader: only [`RESOURCE_SCHEMA_VERSION`] is accepted, anything else is a
/// typed error naming the found version, as is a non-resources header or
/// one without its metadata fields.
pub fn validate_resources_header(line: &str) -> Result<ResourceHeader, String> {
    let obj = crate::json::parse(line).map_err(|e| format!("header: {e}"))?;
    let kind = obj.get("kind").and_then(crate::json::Json::as_str).unwrap_or("");
    if kind != "ngs-resources" {
        return Err(format!("header kind {kind:?} is not \"ngs-resources\""));
    }
    let v = obj
        .get("schema_version")
        .and_then(crate::json::Json::as_u64)
        .ok_or("header has no \"schema_version\"")?;
    if v != RESOURCE_SCHEMA_VERSION as u64 {
        return Err(format!(
            "unsupported schema_version {v} (this tool reads version {RESOURCE_SCHEMA_VERSION})"
        ));
    }
    let field = |key: &str| {
        obj.get(key)
            .and_then(crate::json::Json::as_u64)
            .ok_or_else(|| format!("header has no integer \"{key}\""))
    };
    Ok(ResourceHeader {
        schema_version: v as u32,
        ticks_per_sec: field("ticks_per_sec")?,
        page_size_bytes: field("page_size_bytes")?,
    })
}

/// Throughput over one poll window; `None` when the window is degenerate
/// (zero or non-finite length) — the case that used to print `inf`/`NaN`
/// rates in heartbeat lines.
pub fn rate_per_sec(delta: u64, secs: f64) -> Option<f64> {
    if secs.is_finite() && secs > 0.0 {
        Some(delta as f64 / secs)
    } else {
        None
    }
}

/// ETA in seconds for reaching `total_bytes`, `None` when unknowable: the
/// total is absent or zero (empty or unsized input), the rate is absent,
/// non-positive or non-finite, or ingest already passed the total. Callers
/// render `None` as `--`, never as `inf`/`NaN` seconds.
pub fn eta_secs(bytes: u64, byte_rate: Option<f64>, total_bytes: Option<u64>) -> Option<f64> {
    let total = total_bytes.filter(|&t| t > 0)?;
    let rate = byte_rate.filter(|r| r.is_finite() && *r > 0.0)?;
    if bytes < total {
        Some((total - bytes) as f64 / rate)
    } else {
        None
    }
}

fn fmt_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) if r.is_finite() => format!("{r:.0}"),
        _ => "--".into(),
    }
}

fn fmt_rate_mb(rate: Option<f64>) -> String {
    match rate {
        Some(r) if r.is_finite() => format!("{:.1}", r / 1e6),
        _ => "--".into(),
    }
}

/// Live progress heartbeat: polls two counters on a shared [`Collector`]
/// and prints `progress: …` lines with throughput (records/s, MB/s) and an
/// ETA for the ingest phase — `--` when the input size is unknown or zero.
pub struct ProgressMeter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressMeter {
    /// Start the heartbeat, polling `records_counter` and `bytes_counter`
    /// every `interval`. `total_bytes` (typically the input file size)
    /// enables the ETA column while bytes remain.
    pub fn start(
        collector: Arc<Collector>,
        records_counter: &str,
        bytes_counter: &str,
        total_bytes: Option<u64>,
        interval: Duration,
    ) -> ProgressMeter {
        let stop = Arc::new(AtomicBool::new(false));
        let records_counter = records_counter.to_string();
        let bytes_counter = bytes_counter.to_string();
        let handle = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("ngs-progress".into())
                .spawn(move || {
                    let mut last = (0u64, 0u64);
                    loop {
                        std::thread::sleep(interval);
                        if stop.load(Relaxed) {
                            return;
                        }
                        let records = collector.counter_value(&records_counter);
                        let bytes = collector.counter_value(&bytes_counter);
                        let secs = interval.as_secs_f64();
                        let rec_rate = rate_per_sec(records.saturating_sub(last.0), secs);
                        let byte_rate = rate_per_sec(bytes.saturating_sub(last.1), secs);
                        last = (records, bytes);
                        let eta = match eta_secs(bytes, byte_rate, total_bytes) {
                            Some(s) => format!("{s:.0}s"),
                            None => "--".into(),
                        };
                        eprintln!(
                            "progress: {records} records ({}/s), {:.1} MB ({} MB/s), eta {eta}",
                            fmt_rate(rec_rate),
                            bytes as f64 / 1e6,
                            fmt_rate_mb(byte_rate),
                        );
                    }
                })
                .expect("spawn progress thread")
        };
        ProgressMeter { stop, handle: Some(handle) }
    }

    /// Stop the heartbeat (also happens on drop).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ProgressMeter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-only fault injection: the sampler thread calls this while
    /// holding the samples lock, so an armed panic poisons the mutex
    /// exactly the way a real sampler bug would.
    static PANIC_NEXT_SAMPLE: AtomicBool = AtomicBool::new(false);

    /// The fault flag is process-global, so tests that run a live sampler
    /// serialise on this lock to keep the injected panic from landing in
    /// another test's sampler thread.
    fn sampler_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        crate::lock_unpoisoned(&LOCK)
    }

    pub(super) fn fault_hook() {
        if PANIC_NEXT_SAMPLE.swap(false, Relaxed) {
            panic!("injected sampler fault");
        }
    }

    #[test]
    fn sampler_panic_poisons_nothing_downstream() {
        let _guard = sampler_test_lock();
        let sampler = ResourceSampler::start(Duration::from_millis(5));
        // Let at least one clean sample land, then blow up the sampler
        // thread mid-push (lock held → mutex poisoned).
        std::thread::sleep(Duration::from_millis(15));
        PANIC_NEXT_SAMPLE.store(true, Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        // The run still completes: stop() recovers the poisoned lock and
        // the timeline it returns serialises to a well-formed report.
        let samples = sampler.stop();
        assert!(!samples.is_empty());
        assert!(samples.windows(2).all(|w| w[0].elapsed_ms <= w[1].elapsed_ms));
        let jsonl = to_jsonl(&samples);
        validate_resources_header(jsonl.lines().next().unwrap()).unwrap();
        for line in jsonl.lines() {
            crate::json::parse(line).expect("well-formed timeline after sampler panic");
        }
    }

    #[test]
    fn statm_parses_resident_pages() {
        assert_eq!(parse_statm("12345 678 90 1 0 2 0\n", 4096), Some(678 * 4096));
        assert_eq!(parse_statm("garbage", 4096), None);
        assert_eq!(parse_statm("", 4096), None);
    }

    #[test]
    fn stat_parses_after_last_paren() {
        // A comm field with spaces and a ')' inside — the classic trap.
        let line = "1234 (my (weird) proc) S 1 1 1 0 -1 4194560 100 0 0 0 \
                    77 33 0 0 20 0 9 0 123456 1000000 200 18446744073709551615";
        let (utime, stime, threads) = parse_stat(line);
        assert_eq!(utime, Some(77));
        assert_eq!(stime, Some(33));
        assert_eq!(threads, Some(9));
        assert_eq!(parse_stat("no parens here"), (None, None, None));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn proc_sample_reads_live_values() {
        let s = read_proc_sample();
        assert!(s.rss_bytes.unwrap() > 0);
        assert!(s.num_threads.unwrap() >= 1);
    }

    #[test]
    fn sampler_produces_monotonic_timeline() {
        let _guard = sampler_test_lock();
        let sampler = ResourceSampler::start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(25));
        let samples = sampler.stop();
        assert!(samples.len() >= 3, "initial + periodic + final, got {}", samples.len());
        assert!(samples.windows(2).all(|w| w[0].elapsed_ms <= w[1].elapsed_ms));
        let jsonl = to_jsonl(&samples);
        let mut lines = jsonl.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"schema_version\": 2"), "{header}");
        assert!(header.contains("\"kind\": \"ngs-resources\""), "{header}");
        assert!(header.contains("\"ticks_per_sec\": "), "{header}");
        assert!(header.contains("\"page_size_bytes\": "), "{header}");
        let meta = validate_resources_header(header).unwrap();
        assert_eq!(meta.schema_version, RESOURCE_SCHEMA_VERSION);
        assert_eq!(meta.ticks_per_sec, ticks_per_sec());
        assert_eq!(meta.page_size_bytes, page_size_bytes());
        assert_eq!(lines.count(), samples.len());
        for line in jsonl.lines() {
            crate::json::parse(line).expect("every timeline line parses as JSON");
        }
    }

    #[test]
    fn auxv_metadata_has_sane_values() {
        // On Linux these come from the aux vector; elsewhere the fallbacks.
        // Either way the values must be positive and plausible.
        let hz = ticks_per_sec();
        assert!((1..=10_000).contains(&hz), "ticks_per_sec {hz}");
        let page = page_size_bytes();
        assert!(page.is_power_of_two() && page >= 4096, "page_size_bytes {page}");
    }

    #[test]
    fn resources_header_versions_are_validated() {
        // v1 files predate the metadata fields: rejected like any other
        // version this tool does not write.
        let err = validate_resources_header(
            "{\"schema_version\": 1, \"kind\": \"ngs-resources\", \"unit\": \"ms\"}",
        )
        .unwrap_err();
        assert!(err.contains("unsupported schema_version 1"), "{err}");
        // v2 carries its own metadata, and must.
        let err = validate_resources_header(
            "{\"schema_version\": 2, \"kind\": \"ngs-resources\", \"unit\": \"ms\"}",
        )
        .unwrap_err();
        assert!(err.contains("ticks_per_sec"), "{err}");
        let v2 = validate_resources_header(
            "{\"schema_version\": 2, \"kind\": \"ngs-resources\", \"unit\": \"ms\", \
             \"ticks_per_sec\": 250, \"page_size_bytes\": 16384}",
        )
        .unwrap();
        assert_eq!(v2.ticks_per_sec, 250);
        assert_eq!(v2.page_size_bytes, 16384);
        // Unknown future versions and foreign files are typed errors.
        let err = validate_resources_header(
            "{\"schema_version\": 99, \"kind\": \"ngs-resources\", \"unit\": \"ms\"}",
        )
        .unwrap_err();
        assert!(err.contains("unsupported schema_version 99"), "{err}");
        let err = validate_resources_header("{\"schema_version\": 2, \"kind\": \"ngs-trace\"}")
            .unwrap_err();
        assert!(err.contains("not \"ngs-resources\""), "{err}");
        let err = validate_resources_header("{\"kind\": \"ngs-resources\"}").unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn degenerate_rates_and_etas_are_none_never_inf_or_nan() {
        // Zero-length poll window: rate is unknowable, not infinite.
        assert_eq!(rate_per_sec(100, 0.0), None);
        assert_eq!(rate_per_sec(100, f64::NAN), None);
        assert_eq!(rate_per_sec(100, -1.0), None);
        assert_eq!(rate_per_sec(50, 2.0), Some(25.0));
        assert_eq!(rate_per_sec(0, 2.0), Some(0.0));

        // Unknown input size (stdin, generated data): no ETA.
        assert_eq!(eta_secs(10, Some(5.0), None), None);
        // Zero-byte input: 0/0 used to be NaN; now simply unknowable.
        assert_eq!(eta_secs(0, Some(0.0), Some(0)), None);
        assert_eq!(eta_secs(0, None, Some(0)), None);
        // Stalled or degenerate rate against a known total.
        assert_eq!(eta_secs(10, Some(0.0), Some(100)), None);
        assert_eq!(eta_secs(10, Some(f64::INFINITY), Some(100)), None);
        assert_eq!(eta_secs(10, None, Some(100)), None);
        // Already past the total (counter counts more than file bytes).
        assert_eq!(eta_secs(200, Some(5.0), Some(100)), None);
        // The healthy case still computes.
        assert_eq!(eta_secs(40, Some(30.0), Some(100)), Some(2.0));

        // And the renderers never emit inf/NaN text.
        assert_eq!(fmt_rate(None), "--");
        assert_eq!(fmt_rate(Some(f64::INFINITY)), "--");
        assert_eq!(fmt_rate(Some(12.4)), "12");
        assert_eq!(fmt_rate_mb(None), "--");
        assert_eq!(fmt_rate_mb(Some(2_500_000.0)), "2.5");
    }

    #[test]
    fn progress_meter_with_zero_total_does_not_panic() {
        let collector = Arc::new(Collector::new());
        let meter = ProgressMeter::start(
            collector.clone(),
            "z.records",
            "z.bytes",
            Some(0),
            Duration::from_millis(5),
        );
        std::thread::sleep(Duration::from_millis(15));
        meter.stop();
    }

    #[test]
    fn progress_meter_reports_counter_movement() {
        let collector = Arc::new(Collector::new());
        collector.add("t.records", 10);
        collector.add("t.bytes", 1000);
        let meter = ProgressMeter::start(
            collector.clone(),
            "t.records",
            "t.bytes",
            Some(2000),
            Duration::from_millis(5),
        );
        std::thread::sleep(Duration::from_millis(20));
        meter.stop();
        // The meter only prints to stderr; this test pins that start/stop
        // does not hang or panic while counters move underneath it.
        collector.add("t.records", 1);
    }
}
