//! `serve-open`: requests against a warm correction server.
//!
//! The server is the shipped `ngs-serve` driver (`ngs_cli::serving::
//! serve_main`) in a child process: it loads the reads, warm-starts the
//! index from the snapshot a batch run left in the checkpoint directory and
//! listens on a Unix socket. This process is the only load generator: two
//! client threads on two connections.
//!
//! * open loop — requests of `batch` reads are *due* on a fixed schedule
//!   (independent users); each is timed from its due time, so a stall
//!   charges every request it delays, and the generator's own lateness is
//!   reported;
//! * closed loop — the two connections send back to back (callers that
//!   wait for their reply): the saturation throughput.

use crate::child;
use crate::procstat;
use crate::run::{self, Metric, Outcome, RunConfig, Scratch};
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{path_str, Inputs, Spec, Truth, Workload};
use ngs_core::Read;
use ngs_server::{Client, ClientConfig, ClientError, Endpoint, ServeMessage};
use rand::{Rng as _, SeedableRng as _};
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader};
use std::path::Path;
use std::process::{Child, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client threads and connections of the load generator.
const CLIENTS: usize = 2;
/// Share of the measured seconds spent in the open loop; the rest is the
/// closed loop.
const OPEN_LOOP_SHARE: f64 = 0.6;
/// The closed loop is judged window by window.
const CLOSED_LOOP_WINDOW: Duration = Duration::from_millis(500);
const SIGTERM: i32 = 15;

extern "C" {
    /// `kill(2)` from the platform C library (always linked by std).
    fn kill(pid: i32, sig: i32) -> i32;
}

/// A running `ngs-serve` child. Dropping it stops the process.
struct ServerProc {
    child: Child,
    endpoint: Endpoint,
}

impl ServerProc {
    /// Start the server and wait until it prints its ready line.
    fn start(workload: &Workload, dir: &Path, shrink: usize) -> Result<ServerProc, String> {
        let data = workload.reptile_data().expect("serve workload corrects a reptile dataset");
        let socket = dir.join("serve.sock");
        let _ = std::fs::remove_file(&socket);
        let mut cmd = child::command("serve", workload, dir, crate::THREADS)?;
        cmd.args(["--input", path_str(&workload.input_path(dir))])
            .args(["--listen", &format!("unix:{}", socket.display())])
            .args(["--checkpoint-dir", path_str(&dir.join("ckpt")), "--resume"])
            .args(["--workers", &crate::THREADS.to_string()])
            .args([
                "--genome-len",
                &(data.genome_len / shrink).to_string(),
                "--d",
                &data.d.to_string(),
            ])
            .stdout(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| format!("cannot start the server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut ready = String::new();
        let read = BufReader::new(stdout).read_line(&mut ready);
        let mut server = ServerProc { child, endpoint: Endpoint::Unix(socket) };
        if !matches!(read, Ok(n) if n > 0) || !ready.contains("listening on") {
            server.stop();
            return Err(format!("server never became ready ({ready:?})\n{}", child::log_tail(dir)));
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM (graceful drain), then wait for the exit.
    fn stop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            // SAFETY: `kill` only takes two integers; the pid is our own
            // live child (not yet waited for), so it cannot have been reused.
            unsafe { kill(self.child.id() as i32, SIGTERM) };
        }
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The request stream: request `i` carries `batch` consecutive reads from a
/// seeded offset, and must come back as the batch output for those reads.
struct Requests<'a> {
    reads: &'a [Read],
    expected: &'a [Read],
    offsets: Vec<usize>,
    batch: usize,
}

impl Requests<'_> {
    fn offset(&self, i: usize) -> usize {
        self.offsets[i % self.offsets.len()]
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    corrected: u64,
    mismatched: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    other_errors: u64,
}

impl Tally {
    fn attempted(&self) -> u64 {
        self.corrected + self.failed()
    }

    fn failed(&self) -> u64 {
        self.mismatched + self.overloaded + self.deadline_exceeded + self.other_errors
    }

    fn add(&mut self, o: &Tally) {
        self.corrected += o.corrected;
        self.mismatched += o.mismatched;
        self.overloaded += o.overloaded;
        self.deadline_exceeded += o.deadline_exceeded;
        self.other_errors += o.other_errors;
    }
}

/// One request, verified against the batch output.
fn send(client: &mut Client, requests: &Requests, i: usize, tally: &mut Tally) {
    let at = requests.offset(i);
    let (reads, expected) =
        (&requests.reads[at..at + requests.batch], &requests.expected[at..at + requests.batch]);
    match client.correct(reads, 0) {
        Ok(reply) if reply.reads == expected => tally.corrected += 1,
        Ok(_) => tally.mismatched += 1,
        Err(ClientError::DeadlineExceeded) => tally.deadline_exceeded += 1,
        Err(ClientError::RetriesExhausted(why)) if why.contains("overloaded") => {
            tally.overloaded += 1
        }
        Err(_) => tally.other_errors += 1,
    }
}

fn new_client(endpoint: &Endpoint, seed: u64) -> Client {
    // One attempt: a request the server sheds is a failed request, not a
    // retried one.
    Client::new(endpoint.clone(), ClientConfig { max_attempts: 1, seed, ..ClientConfig::default() })
}

/// Latency of a request timed from when it was due, and how late it was
/// actually sent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueTiming {
    pub latency: Duration,
    pub lag: Duration,
}

pub fn due_timing(due: Instant, sent: Instant, done: Instant) -> DueTiming {
    DueTiming {
        latency: done.saturating_duration_since(due),
        lag: sent.saturating_duration_since(due),
    }
}

/// Drive `n` requests due every `interval` from `start` through `issue`,
/// which performs one request and returns when its reply arrived. A request
/// is never sent before it is due; after a stall the backlog is sent
/// without pause, and every delayed request is charged its waiting time.
pub fn open_loop<F: FnMut(usize)>(
    start: Instant,
    interval: Duration,
    indices: impl Iterator<Item = usize>,
    mut issue: F,
) -> Vec<DueTiming> {
    indices
        .map(|i| {
            let due = start + interval.mul_f64(i as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            issue(i);
            due_timing(due, sent, Instant::now())
        })
        .collect()
}

struct OpenLoopResult {
    timings: Vec<DueTiming>,
    tally: Tally,
    wall_s: f64,
}

fn run_open_loop(
    endpoint: &Endpoint,
    requests: &Requests,
    rate: f64,
    seconds: f64,
    trace: Option<&Recorder>,
) -> OpenLoopResult {
    let n = (rate * seconds).round().max(CLIENTS as f64) as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let parent = trace.and_then(Recorder::current);
    // A moment of slack so every thread is waiting when the schedule starts.
    let start = Instant::now() + Duration::from_millis(20);
    let per_thread: Vec<(Vec<DueTiming>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                s.spawn(move || {
                    let mut client = new_client(endpoint, t as u64);
                    let mut tally = Tally::default();
                    let timings = open_loop(start, interval, (t..n).step_by(CLIENTS), |i| {
                        send(&mut client, requests, i, &mut tally);
                    });
                    if let Some(rec) = trace {
                        for (k, timing) in timings.iter().enumerate() {
                            let due = start + interval.mul_f64((t + k * CLIENTS) as f64);
                            rec.record(parent, "server.request", due, due + timing.latency);
                        }
                    }
                    (timings, tally)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut result = OpenLoopResult { timings: Vec::new(), tally: Tally::default(), wall_s };
    for (timings, tally) in per_thread {
        result.timings.extend(timings);
        result.tally.add(&tally);
    }
    result
}

/// Progress of a closed loop at the end of one window.
struct WindowMark {
    at: Instant,
    corrected: u64,
    server_cpu_s: f64,
}

/// `clients` connections sending back to back for `seconds`. The calling
/// thread marks the requests answered and the server's CPU time every
/// `CLOSED_LOOP_WINDOW`, so that throughput can be reported as a median over
/// windows instead of one figure that a single slow moment spoils.
fn run_closed_loop(
    endpoint: &Endpoint,
    requests: &Requests,
    clients: usize,
    seconds: f64,
    server_pid: u32,
) -> (Tally, Vec<WindowMark>) {
    let corrected = AtomicU64::new(0);
    let mark = |corrected: &AtomicU64| WindowMark {
        at: Instant::now(),
        corrected: corrected.load(Ordering::Relaxed),
        server_cpu_s: procstat::cpu_times_of(server_pid).map_or(f64::NAN, |c| c.own_s),
    };
    let mut marks = vec![mark(&corrected)];
    let deadline = marks[0].at + Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let corrected = &corrected;
                s.spawn(move || {
                    let mut client = new_client(endpoint, 100 + t as u64);
                    let mut tally = Tally::default();
                    let mut i = t;
                    while Instant::now() < deadline {
                        let before = tally.corrected;
                        send(&mut client, requests, i, &mut tally);
                        corrected.fetch_add(tally.corrected - before, Ordering::Relaxed);
                        i += clients;
                    }
                    tally
                })
            })
            .collect();
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            std::thread::sleep(left.min(CLOSED_LOOP_WINDOW));
            marks.push(mark(&corrected));
        }
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut total = Tally::default();
    for t in &tallies {
        total.add(t);
    }
    (total, marks)
}

/// One set-up: simulate and write the reads, run the batch driver once
/// (leaving the index snapshot and the reference output), start the server
/// on the snapshot and wait until it listens.
fn set_up(
    workload: &Workload,
    cfg: &RunConfig,
    dir: &Path,
) -> Result<(Inputs, ServerProc), String> {
    let inputs = workload.generate(cfg.seed, cfg.shrink(), dir)?;
    let ckpt = dir.join("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let mut batch = child::command("reps", workload, dir, crate::THREADS)?;
    batch.args(["--shrink", &cfg.shrink().to_string(), "--checkpoint-dir", path_str(&ckpt)]);
    child::run(batch, dir)?;
    let server = ServerProc::start(workload, dir, cfg.shrink())?;
    Ok((inputs, server))
}

/// Both passes of `serve-open`. The end-to-end metrics are always measured
/// with tracing off; with `trace` the per-request spans and the
/// single-connection service probe are added and the per-layer metrics
/// returned as the second value.
pub fn run(
    workload: &Workload,
    cfg: &RunConfig,
    trace: Option<&Recorder>,
) -> Result<(Outcome, BTreeMap<String, f64>), String> {
    let Spec::Serve { batch, open_loop_rate, .. } = workload.spec else {
        unreachable!("serve::run is only called for the serve workload");
    };
    let scratch = Scratch::create(&cfg.out_dir, workload.name)?;
    let dir = scratch.0.as_path();

    // Each set-up starts a server; all but the last are stopped again.
    let mut live: Option<ServerProc> = None;
    let (inputs, setup_times) = run::timed_setups(cfg, || {
        drop(live.take());
        let (inputs, server) = set_up(workload, cfg, dir)?;
        live = Some(server);
        Ok(inputs)
    })?;
    let mut server = live.expect("the last set-up left a server running");

    let Truth::Reads { original, .. } = &inputs.truth else {
        unreachable!("reptile data has read truth")
    };
    let expected = ngs_cli::read_sequences(path_str(&workload.output_paths(dir)[0]))
        .map_err(|e| e.to_string())?;
    if expected.len() != original.len() {
        return Err(format!("batch output has {} reads, input {}", expected.len(), original.len()));
    }
    let batch = batch.min(original.len());
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x10ad);
    let offsets = (0..4096).map(|_| rng.gen_range(0..=original.len() - batch)).collect();
    let requests = Requests { reads: original, expected: &expected, offsets, batch };
    let endpoint = server.endpoint.clone();

    // Warm-up: both cores, connections, caches, the server's lazy state.
    let (two_thread_speedup, _) = crate::wake::wake_cores();
    let (warm, _) = run_closed_loop(&endpoint, &requests, CLIENTS, 0.3, server.pid());
    if warm.corrected == 0 {
        return Err(format!("no warm-up request was answered\n{}", child::log_tail(dir)));
    }

    let open_seconds = if cfg.quick { 1.0 } else { cfg.seconds * OPEN_LOOP_SHARE };
    let closed_seconds = if cfg.quick { 0.5 } else { cfg.seconds * (1.0 - OPEN_LOOP_SHARE) };
    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        layer.insert(name.to_string(), value);
    };

    // Open loop.
    let server_cpu0 = procstat::cpu_times_of(server.pid()).ok_or("server vanished")?;
    let own_cpu0 = procstat::cpu_times_self();
    let open = match trace {
        Some(rec) => rec.span("server.open_loop", || {
            run_open_loop(&endpoint, &requests, open_loop_rate, open_seconds, Some(rec))
        }),
        None => run_open_loop(&endpoint, &requests, open_loop_rate, open_seconds, None),
    };
    let open_cpu = procstat::cpu_times_of(server.pid()).ok_or("server vanished")?.own_s
        - server_cpu0.own_s
        + procstat::cpu_times_self().own_s
        - own_cpu0.own_s;
    let queue_stats =
        new_client(&endpoint, 7).stats().map_err(|e| format!("stats request failed: {e}"))?;
    let latencies_ms: Vec<f64> =
        open.timings.iter().map(|t| t.latency.as_secs_f64() * 1e3).collect();
    let lags_us: Vec<f64> = open.timings.iter().map(|t| t.lag.as_secs_f64() * 1e6).collect();
    // A percentile without ten samples beyond it is not reportable; the
    // next lower one stands in (only `--quick` runs are that short).
    let p50 = stats::percentile(&latencies_ms, 0.50);
    let p95 = stats::percentile_if_supported(&latencies_ms, 0.95).unwrap_or(p50);
    let p99 = stats::percentile_if_supported(&latencies_ms, 0.99).unwrap_or(p95);
    put("server.lat_p50_ms", p50);
    put("server.lat_p95_ms", p95);
    put("server.lat_p99_ms", p99);
    put("server.loadgen_lag_p99_us", stats::percentile(&lags_us, 0.99));
    put("server.queue_wait_p99_us", queue_stats.queue_wait_p99_us as f64);
    let attempted = open.tally.attempted().max(1) as f64;
    put("server.overloaded_frac", open.tally.overloaded as f64 / attempted);
    put("server.deadline_exceeded_frac", open.tally.deadline_exceeded as f64 / attempted);
    put("server.open_loop_cpu_frac", open_cpu / (open.wall_s * procstat::nproc() as f64));

    // Closed loop at saturation, window by window. The quiet open loop may
    // have let a core doze off again.
    crate::wake::wake_cores();
    let (closed, marks) =
        run_closed_loop(&endpoint, &requests, CLIENTS, closed_seconds, server.pid());
    let (mut window_reads_per_s, mut window_cpu_us_per_read) = (Vec::new(), Vec::new());
    for pair in marks.windows(2) {
        let reads = ((pair[1].corrected - pair[0].corrected) * batch as u64) as f64;
        let seconds = pair[1].at.duration_since(pair[0].at).as_secs_f64();
        // The last window may be a sliver; a window without a reply has no rate.
        if seconds >= CLOSED_LOOP_WINDOW.as_secs_f64() / 2.0 && reads > 0.0 {
            window_reads_per_s.push(reads / seconds);
            window_cpu_us_per_read
                .push((pair[1].server_cpu_s - pair[0].server_cpu_s) * 1e6 / reads);
        }
    }
    if window_reads_per_s.is_empty() {
        return Err("the closed loop completed no window".into());
    }
    put("server.sat_requests_per_s", stats::median(&window_reads_per_s) / batch as f64);

    if let Some(rec) = trace {
        // Did the open loop run as scheduled? (> 1 means a backlog grew.)
        put("trace.coverage_frac", rec.total_s("server.open_loop") / open_seconds);
        let request = ServeMessage::Correct {
            request_id: 1,
            deadline_ms: 0,
            reads: original[..batch].to_vec(),
        };
        let rounds = 2_000;
        let bytes = rec.span("server.codec_probe", || {
            (0..rounds)
                .map(|_| {
                    let payload = std::hint::black_box(&request).to_payload();
                    let back = ServeMessage::from_payload(&payload);
                    debug_assert!(back.is_ok());
                    std::hint::black_box(back).map_or(0, |_| payload.len())
                })
                .sum::<usize>()
        });
        // Encoded and decoded once each: 2 × the bytes.
        put("server.codec_mb_per_s", 2.0 * bytes as f64 / 1e6 / rec.total_s("server.codec_probe"));
        // Service time with nothing queued: one connection, back to back.
        let (single, marks) = rec.span("server.service_probe", || {
            run_closed_loop(&endpoint, &requests, 1, open_seconds / 4.0, server.pid())
        });
        let single_s = marks[marks.len() - 1].at.duration_since(marks[0].at).as_secs_f64();
        put(
            "server.service_us_per_read",
            single_s * 1e6 / (single.corrected.max(1) * batch as u64) as f64,
        );
    }

    let peak_kb = procstat::vm_hwm_kb_of(server.pid()).ok_or("server vanished")?;
    server.stop();

    let mut outcome =
        Outcome { two_thread_speedup: Some(two_thread_speedup), ..Outcome::default() };
    let mut total = open.tally;
    total.add(&closed);
    outcome.attempted = total.attempted();
    outcome.failed = total.failed();
    if total.failed() > 0 {
        outcome.problems.push(format!("requests not answered with the batch output: {total:?}"));
    }
    outcome.put("reads_per_s", Metric::over_reps(&window_reads_per_s));
    outcome.put("cpu_us_per_read", Metric::over_reps(&window_cpu_us_per_read));
    outcome.put("peak_rss_mb", Metric::single(peak_kb as f64 / 1024.0));
    outcome.put("setup_s", Metric::over_reps(&setup_times));
    run::score(workload, &inputs, dir, &mut outcome);
    Ok((outcome, layer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_so_a_stall_charges_everyone_it_delays() {
        let interval = Duration::from_millis(10);
        let start = Instant::now();
        // Request 2 stalls for 50 ms; the service time is otherwise ~0.
        let timings = open_loop(start, interval, 0..8, |i| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        // The stalled request itself.
        assert!(ms(timings[2].latency) >= 50.0);
        // Requests 3 and 4 were due at 30 and 40 ms but the sender was busy
        // until 70 ms: their latency is the wait, though each took no time.
        assert!(ms(timings[3].latency) >= 35.0, "{:?}", timings[3]);
        assert!(ms(timings[4].latency) >= 25.0, "{:?}", timings[4]);
        assert!(ms(timings[3].lag) >= 35.0 && timings[3].latency >= timings[3].lag);
        // Measured from the send instead, the stall would be invisible.
        assert!(timings[3].latency - timings[3].lag < timings[3].lag);
        // Before the stall, and once the backlog is gone (request 7 is due
        // at 70 ms), requests are answered sooner than the delayed ones.
        assert!(timings[1].latency < timings[3].latency, "{:?}", timings[1]);
        assert!(timings[7].latency < timings[3].latency, "{:?}", timings[7]);
    }

    #[test]
    fn a_request_is_never_sent_early() {
        let start = Instant::now() + Duration::from_millis(30);
        let timings = open_loop(start, Duration::from_millis(5), 0..3, |_| {});
        assert!(Instant::now() >= start + Duration::from_millis(10));
        assert!(timings.iter().all(|t| t.lag < Duration::from_millis(20)));
        let t =
            due_timing(start, start - Duration::from_millis(1), start + Duration::from_millis(2));
        assert_eq!((t.lag, t.latency), (Duration::ZERO, Duration::from_millis(2)));
    }
}
