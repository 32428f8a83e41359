//! Fault harness for the real `ngs-serve` binary: true processes, true
//! sockets, true signals. The contracts under test:
//!
//! * served corrections are byte-identical to `reptile-correct` batch
//!   output, cold or warm-started;
//! * overload is shed with explicit `Overloaded` replies and a bounded
//!   queue — never unbounded buffering;
//! * SIGTERM during load finishes in-flight requests and exits 0;
//! * SIGKILL mid-request is survivable: a restarted server warm-starts
//!   from the checkpoint and idempotent client retries succeed;
//! * deadline storms get `DeadlineExceeded`, not hangs;
//! * a stalled or garbage-spewing connection dies alone — the server
//!   keeps serving everyone else;
//! * malformed numeric CLI args exit 2 before any work happens.

use ngs_cli::read_sequences;
use ngs_core::Read;
use ngs_server::{Client, ClientConfig, ClientError, Endpoint};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;
const SIGSTOP: i32 = 19;

const GENOME_LEN: usize = 5_000;

fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("serve_chaos_{tag}_{}_{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A unix socket path short enough for `sun_path` even when TMPDIR is a
/// deep CI workspace — sockets always go to /tmp, artifacts to `scratch`.
fn short_socket(tag: &str) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("unix:/tmp/ngsc_{tag}_{}_{seq}.sock", std::process::id())
}

fn simulate(dir: &Path) -> String {
    let reads = dir.join("reads.fastq");
    let status = Command::new(env!("CARGO_BIN_EXE_simulate-reads"))
        .args(["--output", reads.to_str().unwrap()])
        .args(["--genome-len", &GENOME_LEN.to_string()])
        .args(["--coverage", "10", "--read-len", "36", "--seed", "11"])
        .status()
        .expect("run simulate-reads");
    assert!(status.success(), "simulate-reads failed");
    reads.to_str().unwrap().to_string()
}

/// Batch-mode ground truth, optionally leaving an index checkpoint behind
/// for the server to warm-start from.
fn batch_correct(dir: &Path, reads: &str, ckpt: Option<&Path>) -> Vec<u8> {
    let out = dir.join("batch.fastq");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reptile-correct"));
    cmd.args(["--input", reads, "--output", out.to_str().unwrap()])
        .args(["--genome-len", &GENOME_LEN.to_string()]);
    if let Some(c) = ckpt {
        cmd.args(["--checkpoint-dir", c.to_str().unwrap()]);
    }
    let status = cmd.status().expect("run reptile-correct");
    assert!(status.success(), "reptile-correct failed");
    std::fs::read(out).expect("read batch output")
}

struct ServeProc {
    child: Child,
    endpoint: Endpoint,
    stderr_path: PathBuf,
}

impl ServeProc {
    /// Spawn `ngs-serve` and block until its ready line names the bound
    /// endpoint (the ephemeral-port handshake).
    fn start(dir: &Path, reads: &str, listen: &str, extra: &[&str]) -> ServeProc {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let stderr_path = dir.join(format!("serve_{seq}.err"));
        let stderr = std::fs::File::create(&stderr_path).expect("stderr file");
        let mut child = Command::new(env!("CARGO_BIN_EXE_ngs-serve"))
            .args(["--input", reads, "--listen", listen])
            .args(["--genome-len", &GENOME_LEN.to_string()])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn ngs-serve");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout"))
            .read_line(&mut line)
            .expect("read ready line");
        let ep = line
            .trim()
            .strip_prefix("ngs-serve: listening on ")
            .unwrap_or_else(|| {
                panic!(
                    "no ready line (got {line:?}); stderr:\n{}",
                    std::fs::read_to_string(&stderr_path).unwrap_or_default()
                )
            })
            .to_string();
        let endpoint = Endpoint::parse(&ep).expect("parse ready endpoint");
        ServeProc { child, endpoint, stderr_path }
    }

    fn sigterm(&self) {
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
    }

    fn wait_exit(&mut self, timeout: Duration) -> std::process::ExitStatus {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(Instant::now() < deadline, "server did not exit within {timeout:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// SIGTERM, assert a clean drain (exit 0 + the drained summary line).
    fn shutdown_clean(mut self) -> String {
        self.sigterm();
        let status = self.wait_exit(Duration::from_secs(30));
        let err = self.stderr_text();
        assert!(status.success(), "expected exit 0 after SIGTERM, got {status:?}; stderr:\n{err}");
        assert!(err.contains("drained:"), "no drain summary in stderr:\n{err}");
        err
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn quick_client(endpoint: &Endpoint) -> Client {
    Client::new(
        endpoint.clone(),
        ClientConfig { base_backoff: Duration::from_millis(5), ..ClientConfig::default() },
    )
}

/// Correct the whole file through the server in batches, returning the
/// serialized FASTQ bytes (same writer as the batch pipeline).
fn serve_correct(endpoint: &Endpoint, reads: &[Read], dir: &Path) -> Vec<u8> {
    let mut client = quick_client(endpoint);
    let mut corrected = Vec::with_capacity(reads.len());
    for chunk in reads.chunks(500) {
        let batch = client.correct(chunk, 0).expect("served correction");
        assert_eq!(batch.reads.len(), chunk.len());
        corrected.extend(batch.reads);
    }
    let out = dir.join("served.fastq");
    ngs_cli::write_sequences(out.to_str().unwrap(), &corrected).expect("write served output");
    std::fs::read(out).expect("read served output")
}

/// `"name": 123` scraper for the handful of metric fields the assertions
/// need — keeps the test free of a JSON-parser dependency.
fn json_u64(text: &str, name: &str) -> Option<u64> {
    let at = text.find(&format!("\"{name}\""))?;
    let rest = &text[at..];
    let colon = rest.find(':')?;
    let digits: String =
        rest[colon + 1..].trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[test]
fn served_output_matches_batch_and_restart_is_warm() {
    let dir = scratch("parity");
    let reads_path = simulate(&dir);
    let reads = read_sequences(&reads_path).expect("load reads");
    let ckpt = dir.join("ckpt");
    let expected = batch_correct(&dir, &reads_path, Some(&ckpt));

    // Cold start against the same checkpoint dir: builds and saves.
    let listen = short_socket("par");
    let ckpt_flags = ["--checkpoint-dir", ckpt.to_str().unwrap(), "--resume", "--workers", "2"];
    let cold = ServeProc::start(&dir, &reads_path, &listen, &ckpt_flags);
    assert_eq!(serve_correct(&cold.endpoint, &reads, &dir), expected, "cold parity");
    cold.shutdown_clean();

    // Warm restart on the same socket: index loaded, not rebuilt, and the
    // trace proves it.
    let trace = dir.join("serve-trace.jsonl");
    let mut flags: Vec<&str> = ckpt_flags.to_vec();
    flags.extend(["--trace-jsonl", trace.to_str().unwrap()]);
    let warm = ServeProc::start(&dir, &reads_path, &listen, &flags);
    assert!(warm.stderr_text().contains("warm start"), "stderr:\n{}", warm.stderr_text());
    assert_eq!(serve_correct(&warm.endpoint, &reads, &dir), expected, "warm parity");
    warm.shutdown_clean();
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(trace_text.contains("serve.index.load"), "warm start span missing from trace");
    assert!(
        !trace_text.contains("reptile.build."),
        "warm start still ran the index build:\n{trace_text}"
    );
    assert!(trace_text.contains("serve.request"), "request spans missing from trace");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn queue_full_flood_sheds_explicitly_with_bounded_memory() {
    let dir = scratch("flood");
    let reads_path = simulate(&dir);
    let reads = read_sequences(&reads_path).expect("load reads");
    let metrics = dir.join("metrics.json");
    let server = ServeProc::start(
        &dir,
        &reads_path,
        "tcp:127.0.0.1:0",
        &["--workers", "1", "--queue-capacity", "1", "--metrics-json", metrics.to_str().unwrap()],
    );

    // 8 single-attempt clients fire the whole read set at once at a
    // 1-worker, 1-slot server: anything not admitted must be refused
    // explicitly (`Overloaded` -> RetriesExhausted with no retries left),
    // never buffered.
    let outcomes: Vec<_> = (0..8)
        .map(|i| {
            let endpoint = server.endpoint.clone();
            let reads = reads.clone();
            std::thread::spawn(move || {
                let mut c = Client::new(
                    endpoint,
                    ClientConfig { max_attempts: 1, seed: i, ..ClientConfig::default() },
                );
                c.correct(&reads, 0).map(|b| b.reads.len())
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    let served = outcomes.iter().filter(|r| r.is_ok()).count();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Err(ClientError::RetriesExhausted(m)) if m.contains("overloaded")))
        .count();
    assert_eq!(served + shed, 8, "unexpected outcomes: {outcomes:?}");
    assert!(served >= 1, "nothing served under flood");
    assert!(shed >= 1, "nothing shed under flood: {outcomes:?}");

    server.shutdown_clean();
    let metrics = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(json_u64(&metrics, "serve.overloaded").unwrap_or(0) >= 1, "{metrics}");
    assert!(json_u64(&metrics, "serve.queue_depth_peak").unwrap_or(99) <= 1, "{metrics}");
    let peak = json_u64(&metrics, "peak_rss_bytes").expect("peak rss");
    assert!(peak < 512 << 20, "unbounded memory under overload: peak {peak} bytes");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sigterm_under_load_finishes_in_flight_and_exits_zero() {
    let dir = scratch("drain");
    let reads_path = simulate(&dir);
    let reads = read_sequences(&reads_path).expect("load reads");
    let server = ServeProc::start(&dir, &reads_path, "tcp:127.0.0.1:0", &["--workers", "1"]);

    // One big in-flight request, SIGTERM mid-correction: the drain must
    // finish it (the reply arrives), then the process exits 0.
    let endpoint = server.endpoint.clone();
    let in_flight = {
        let reads = reads.clone();
        std::thread::spawn(move || quick_client(&endpoint).correct(&reads, 0))
    };
    std::thread::sleep(Duration::from_millis(100));
    let err = server.shutdown_clean();
    let batch = in_flight.join().expect("client thread").expect("in-flight request dropped");
    assert_eq!(batch.reads.len(), reads.len());
    assert!(err.contains("corrected"), "drain summary lost the served request:\n{err}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sigkill_mid_request_is_survived_by_retry_against_warm_restart() {
    let dir = scratch("kill9");
    let reads_path = simulate(&dir);
    let reads = read_sequences(&reads_path).expect("load reads");
    let ckpt = dir.join("ckpt");
    let expected = batch_correct(&dir, &reads_path, Some(&ckpt));
    let listen = short_socket("k9");
    let flags = ["--checkpoint-dir", ckpt.to_str().unwrap(), "--resume", "--workers", "1"];

    let mut first = ServeProc::start(&dir, &reads_path, &listen, &flags);

    // Freeze the server before the request is sent, so the request cannot
    // be answered before the SIGKILL however fast correction is: the kernel
    // still accepts the connection and buffers the request, the frozen
    // process never replies.
    // SAFETY: plain signal to our own child.
    assert_eq!(unsafe { kill(first.child.id() as i32, SIGSTOP) }, 0, "SIGSTOP");

    // Client with a deep retry budget; its request is pending when the
    // server is SIGKILLed, then it keeps retrying (idempotent) until the
    // restarted server answers.
    let endpoint = first.endpoint.clone();
    let client_thread = {
        let reads = reads.clone();
        std::thread::spawn(move || {
            let mut c = Client::new(
                endpoint,
                ClientConfig {
                    max_attempts: 20,
                    base_backoff: Duration::from_millis(100),
                    ..ClientConfig::default()
                },
            );
            c.correct(&reads, 0)
        })
    };
    std::thread::sleep(Duration::from_millis(50)); // let the request start (early is harmless)
    first.child.kill().expect("SIGKILL");
    let _ = first.child.wait();

    // Warm restart on the same socket path; the retrying client finds it.
    let second = ServeProc::start(&dir, &reads_path, &listen, &flags);
    assert!(second.stderr_text().contains("warm start"), "{}", second.stderr_text());
    let batch = client_thread.join().expect("client thread").expect("retries never landed");
    assert_eq!(batch.reads.len(), reads.len());
    assert!(batch.attempts > 1, "the SIGKILL was not even noticed (attempts=1)");

    // And the restarted server still matches batch output byte-for-byte.
    assert_eq!(serve_correct(&second.endpoint, &reads, &dir), expected);
    second.shutdown_clean();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn deadline_storm_gets_deadline_exceeded_and_server_stays_healthy() {
    let dir = scratch("storm");
    let reads_path = simulate(&dir);
    let reads = read_sequences(&reads_path).expect("load reads");
    let server = ServeProc::start(&dir, &reads_path, "tcp:127.0.0.1:0", &["--workers", "1"]);

    // A 1 ms budget cannot cover a full-file batch: every request must
    // come back DeadlineExceeded (terminal — retrying would spend the
    // same budget), and promptly, not after the full correction.
    let storm: Vec<_> = (0..4)
        .map(|_| {
            let endpoint = server.endpoint.clone();
            let reads = reads.clone();
            std::thread::spawn(move || quick_client(&endpoint).correct(&reads, 1))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("storm thread"))
        .collect();
    for r in &storm {
        assert!(matches!(r, Err(ClientError::DeadlineExceeded)), "got {r:?}");
    }

    // The storm must not have wedged the server.
    let batch = quick_client(&server.endpoint).correct(&reads[..200], 0).expect("healthy after");
    assert_eq!(batch.reads.len(), 200);
    let err = server.shutdown_clean();
    assert!(err.contains("deadline-exceeded"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stalled_and_garbage_connections_die_alone() {
    let dir = scratch("isolate");
    let reads_path = simulate(&dir);
    let reads = read_sequences(&reads_path).expect("load reads");
    let server = ServeProc::start(
        &dir,
        &reads_path,
        "tcp:127.0.0.1:0",
        &["--idle-timeout-ms", "300", "--poll-interval-ms", "10"],
    );
    let addr = match &server.endpoint {
        Endpoint::Tcp(addr) => addr.clone(),
        other => panic!("expected tcp endpoint, got {other:?}"),
    };

    // A stalled client: half a frame header, then silence. The server
    // must cut it off at the idle timeout (EOF on our side), not wait
    // forever or die.
    let mut stalled = std::net::TcpStream::connect(&addr).expect("connect stalled");
    stalled.write_all(b"MRW1\x10\x00").expect("half a header");
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 16];
    let n = stalled.read(&mut buf).expect("read after stall");
    assert_eq!(n, 0, "server should close a stalled connection");

    // A garbage-spewing client: killed on the spot (bad magic).
    let mut garbage = std::net::TcpStream::connect(&addr).expect("connect garbage");
    garbage.write_all(&[0xde; 64]).expect("garbage");
    garbage.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let n = garbage.read(&mut buf).expect("read after garbage");
    assert_eq!(n, 0, "server should close a garbage connection");

    // Everyone else is unaffected.
    let batch = quick_client(&server.endpoint).correct(&reads[..200], 0).expect("still serving");
    assert_eq!(batch.reads.len(), 200);
    let err = server.shutdown_clean();
    let conn_errors: u64 = err
        .split_once(" connection errors")
        .and_then(|(before, _)| before.rsplit('(').next()?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no connection-error count in drain summary:\n{err}"));
    assert!(conn_errors >= 2, "expected both bad connections counted, got {conn_errors}:\n{err}");
    let _ = std::fs::remove_dir_all(dir);
}

/// (label, extra flags, extra env) for one bad-argument invocation.
type BadArgCase = (&'static str, &'static [&'static str], &'static [(&'static str, &'static str)]);

#[test]
fn malformed_numeric_args_exit_2_before_any_work() {
    let cases: &[BadArgCase] = &[
        ("ngs-serve --threads 0", &["--threads", "0"], &[]),
        ("ngs-serve --workers 0", &["--workers", "0"], &[]),
        ("ngs-serve --queue-capacity 0", &["--queue-capacity", "0"], &[]),
        ("ngs-serve NGS_THREADS=0", &[], &[("NGS_THREADS", "0")]),
        ("ngs-serve NGS_THREADS=wat", &[], &[("NGS_THREADS", "wat")]),
    ];
    for (what, flags, envs) in cases {
        // `--input` names a missing file on purpose: validation must
        // reject the numbers before any I/O happens.
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ngs-serve"));
        cmd.args(["--input", "/nonexistent.fastq", "--listen", "tcp:127.0.0.1:0"]).args(*flags);
        for (k, v) in *envs {
            cmd.env(k, v);
        }
        let out = cmd.output().expect("run ngs-serve");
        assert_eq!(out.status.code(), Some(2), "{what}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("invalid parameter"), "{what}: stderr {stderr:?}");
    }

    // Same contract on the batch pipeline binary.
    let out = Command::new(env!("CARGO_BIN_EXE_reptile-correct"))
        .args(["--input", "/nonexistent.fastq", "--output", "/dev/null", "--threads", "1e3"])
        .output()
        .expect("run reptile-correct");
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
}
