//! Process memory probe.
//!
//! RSS and peak RSS are read from `/proc/self/status` (`VmRSS` / `VmHWM`),
//! the only portable-enough source that needs no allocator hooks or
//! dependencies. On platforms without procfs both fields are `None` —
//! reports stay valid and simply omit the memory row instead of claiming
//! a resident set of 0 bytes.

/// A point-in-time memory snapshot. `None` fields mean the probe had no
/// source to read (non-Linux, procfs unmounted), not "zero bytes".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryProbe {
    /// Resident set size in bytes (`None` when unavailable).
    pub rss_bytes: Option<u64>,
    /// Peak resident set size in bytes (`None` when unavailable).
    pub peak_rss_bytes: Option<u64>,
}

impl MemoryProbe {
    /// Fold another probe in by taking per-field maxima, treating `None`
    /// as absent rather than zero (the only merge that is meaningful for
    /// point samples, and it keeps report merging associative and
    /// commutative).
    pub fn merge(&mut self, other: &MemoryProbe) {
        self.rss_bytes = max_opt(self.rss_bytes, other.rss_bytes);
        self.peak_rss_bytes = max_opt(self.peak_rss_bytes, other.peak_rss_bytes);
    }
}

fn max_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (x, None) | (None, x) => x,
    }
}

/// Parse a `Vm…: <n> kB` line into bytes.
fn parse_kb_line(line: &str) -> Option<u64> {
    let rest = line.split(':').nth(1)?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Probe the current process. Returns `None` fields when `/proc` is
/// unavailable or the expected lines are missing.
pub fn read_memory() -> MemoryProbe {
    let mut probe = MemoryProbe::default();
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            if line.starts_with("VmRSS:") {
                probe.rss_bytes = parse_kb_line(line);
            } else if line.starts_with("VmHWM:") {
                probe.peak_rss_bytes = parse_kb_line(line);
            }
        }
    }
    probe
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_lines() {
        assert_eq!(parse_kb_line("VmRSS:\t  1024 kB"), Some(1024 * 1024));
        assert_eq!(parse_kb_line("VmHWM:     12 kB"), Some(12 * 1024));
        assert_eq!(parse_kb_line("garbage"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn probe_reports_values_on_linux() {
        let p = read_memory();
        assert!(p.rss_bytes.unwrap() > 0);
        assert!(p.peak_rss_bytes.unwrap() >= p.rss_bytes.unwrap());
    }

    #[test]
    fn merge_takes_maxima_and_keeps_none_absent() {
        let mut a = MemoryProbe { rss_bytes: Some(10), peak_rss_bytes: Some(20) };
        let b = MemoryProbe { rss_bytes: Some(15), peak_rss_bytes: Some(5) };
        a.merge(&b);
        assert_eq!(a, MemoryProbe { rss_bytes: Some(15), peak_rss_bytes: Some(20) });

        let mut unavailable = MemoryProbe::default();
        unavailable.merge(&MemoryProbe::default());
        assert_eq!(unavailable, MemoryProbe::default(), "None never becomes Some(0)");
        unavailable.merge(&a);
        assert_eq!(unavailable, a, "a reading survives merging with an absent probe");
    }
}
