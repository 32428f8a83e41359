//! Fresh child processes of this binary.
//!
//! Every workload runs in its own child so that the thread-pool size,
//! allocator state and the peak-memory high-water mark never bleed from one
//! workload (or from input simulation) into another. A child prints one
//! JSON line on stdout; its stderr — the shipped drivers' own chatter —
//! goes to `child.log` in the scratch directory and is shown on failure.

use crate::json::{self, Json};
use crate::procstat;
use crate::workloads::{path_str, Workload};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// A command that re-executes this binary in child mode `mode`.
pub fn command(
    mode: &str,
    workload: &Workload,
    dir: &Path,
    threads: usize,
) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("child.log"))
        .map_err(|e| format!("cannot open child.log: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", workload.name, "--dir", path_str(dir)])
        // Explicit, never "all cores".
        .env("NGS_THREADS", threads.to_string())
        // Sockets and temporary files of the program stay in the scratch
        // directory; the relative path also keeps socket paths short.
        .env("TMPDIR", dir)
        .stdin(Stdio::null())
        .stderr(Stdio::from(log));
    Ok(cmd)
}

/// Run a child to completion and parse the JSON on its last stdout line.
pub fn run(mut cmd: Command, dir: &Path) -> Result<Json, String> {
    let out =
        cmd.stdout(Stdio::piped()).output().map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("child exited with {}\n{}", out.status, log_tail(dir)));
    }
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(line).map_err(|e| format!("child printed bad JSON ({e}): {line}"))
}

pub fn log_tail(dir: &Path) -> String {
    let log = std::fs::read_to_string(dir.join("child.log")).unwrap_or_default();
    let lines: Vec<&str> = log.lines().collect();
    let tail = &lines[lines.len().saturating_sub(15)..];
    format!("--- last lines of child.log ---\n{}", tail.join("\n"))
}

/// Content hash of every output file of one repetition.
fn output_hashes(workload: &Workload, dir: &Path) -> Result<Vec<u64>, String> {
    workload
        .output_paths(dir)
        .iter()
        .map(|p| {
            std::fs::read(p)
                .map(|b| ngs_durable::checksum_bytes(&b))
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Child mode `reps`: one untimed warm-up repetition, then timed
/// repetitions until `seconds` of timed work *and* `min_reps` are done.
/// Every repetition's output must be byte-identical to the warm-up's.
pub fn reps_main(
    workload: &Workload,
    dir: &Path,
    seconds: f64,
    min_reps: usize,
    shrink: usize,
    extra_args: &[String],
) -> Result<Json, String> {
    let mut argv = workload.driver_args(dir, shrink);
    argv.extend(extra_args.iter().cloned());

    let (two_thread_speedup, _) = crate::wake::wake_cores();
    workload.run_driver(&argv)?;
    let reference = output_hashes(workload, dir)?;

    let mut reps = Vec::new();
    let mut timed_s = 0.0;
    while reps.len() < min_reps || timed_s < seconds {
        let cpu0 = procstat::cpu_times_self();
        let t0 = Instant::now();
        workload.run_driver(&argv)?;
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = procstat::cpu_times_self().total_s() - cpu0.total_s();
        let identical = output_hashes(workload, dir)? == reference;
        timed_s += wall_s;
        reps.push(json::obj([
            ("wall_s", json::num(wall_s)),
            ("cpu_s", json::num(cpu_s)),
            ("identical", Json::Bool(identical)),
        ]));
    }
    let vm_hwm_kb = procstat::vm_hwm_kb_of(std::process::id()).ok_or("cannot read VmHWM")?;
    Ok(json::obj([
        ("reps", Json::Arr(reps)),
        ("vm_hwm_kb", json::num(vm_hwm_kb as f64)),
        ("two_thread_speedup", json::num(two_thread_speedup)),
    ]))
}
