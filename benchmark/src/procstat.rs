//! CPU time, peak memory and machine facts from `/proc`.

use std::process::Command;

/// CPU seconds parsed from one `/proc/<pid>/stat` line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    /// utime + stime of the process itself.
    pub own_s: f64,
    /// cutime + cstime: children that were waited for (MR workers).
    pub children_s: f64,
}

impl CpuTimes {
    pub fn total_s(&self) -> f64 {
        self.own_s + self.children_s
    }
}

/// Parse a `/proc/<pid>/stat` line. The second field is the executable
/// name in parentheses and may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat(line: &str, ticks_per_second: f64) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    // After the comm: state(3) ppid(4) ... utime(14) stime(15) cutime(16) cstime(17).
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let tick = |field_no: usize| fields.get(field_no - 3)?.parse::<u64>().ok();
    Some(CpuTimes {
        own_s: (tick(14)? + tick(15)?) as f64 / ticks_per_second,
        children_s: (tick(16)? + tick(17)?) as f64 / ticks_per_second,
    })
}

/// CPU times of `pid` (`None` once the process is gone).
pub fn cpu_times_of(pid: u32) -> Option<CpuTimes> {
    let ticks_per_second = ngs_observe::sampler::ticks_per_sec() as f64;
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?, ticks_per_second)
}

pub fn cpu_times_self() -> CpuTimes {
    cpu_times_of(std::process::id()).expect("/proc/self/stat is readable on Linux")
}

/// Parse the `VmHWM:` (peak resident set) line of `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

pub fn vm_hwm_kb_of(pid: u32) -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First three fields of `/proc/loadavg` (1, 5 and 15 minute load).
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_ascii_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).lines().next().map(str::to_string))?
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, or "unknown" outside a git repository (the
/// benchmark also runs from plain source exports).
pub fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_a_parenthesised_comm() {
        let line = "4242 (ngs (bench) :-) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    150 25 300 50 20 0 3 0 100 1000000 200 18446744073709551615";
        let t = parse_stat(line, 100.0).unwrap();
        assert_eq!(t, CpuTimes { own_s: 1.75, children_s: 3.5 });
        assert_eq!(t.total_s(), 5.25);
    }

    #[test]
    fn stat_parsing_rejects_truncated_lines() {
        assert_eq!(parse_stat("1 (x) S 1 2 3", 100.0), None);
        assert_eq!(parse_stat("no parens here", 100.0), None);
    }

    #[test]
    fn own_stat_and_status_are_readable() {
        assert!(cpu_times_self().total_s() >= 0.0);
        assert!(vm_hwm_kb_of(std::process::id()).unwrap() > 0);
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n"), Some(12345));
    }
}
