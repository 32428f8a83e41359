//! The correction server: accept loop, per-connection handlers, admission
//! control, deadlines, and graceful drain.
//!
//! Threading model (no shared mutable read state):
//!
//! ```text
//! accept loop ──spawns──▶ handler (1/conn): read frame ─▶ AdmissionGate::enter
//!      │                     │   ├─ Full ─▶ reply Overloaded
//!      │ polls drain flag    │   └─ permit ─▶ correct ─▶ release ─▶ reply
//!      ▼                     └── sole writer to its conn
//! ```
//!
//! * The **handler** reads one request at a time through the incremental
//!   [`FrameReader`], so a torn frame, checksum mismatch, or stalled peer
//!   kills exactly that connection. It corrects the request itself, behind
//!   the [`AdmissionGate`]: at most `workers` requests are corrected at
//!   once and at most `queue_capacity` wait for a permit; anything beyond
//!   is answered `Overloaded` at once — the server never holds more than
//!   `queue_capacity + workers` admitted requests, bounding memory under
//!   any flood.
//! * The request **deadline** is checked once the permit is held (it may
//!   have expired while waiting) and between every read, so expired work
//!   is cancelled between reads and answered with `DeadlineExceeded`,
//!   never half-served. A panic while correcting costs that request only.
//! * **Drain** (SIGTERM → flag): the accept loop stops accepting, handlers
//!   finish their in-flight request and reply `Draining` to anything that
//!   arrives after the flag, `serve` joins them and returns a summary —
//!   exit 0.

use crate::conn::{ConnError, FrameReader, Listener, ReadOutcome};
use crate::proto::ServeMessage;
use crate::queue::{AdmissionGate, Full};
use ngs_core::Read;
use ngs_observe::{Collector, SpanId};
use reptile::read_correct::correct_read;
use reptile::{Reptile, ReptileStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests corrected at once.
    pub workers: usize,
    /// Requests that may wait for one of the `workers` slots; the next one
    /// is refused with `Overloaded`.
    pub queue_capacity: usize,
    /// Deadline applied when a request carries `deadline_ms: 0`.
    pub default_deadline: Duration,
    /// Requests with more reads than this get `RequestError`.
    pub max_reads_per_request: usize,
    /// A peer silent mid-frame for this long is disconnected.
    pub idle_timeout: Duration,
    /// Poll cadence for the accept loop and frame reader (drain latency).
    pub poll_interval: Duration,
    /// Test hook: request a drain after this many admitted requests.
    pub max_requests: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 64,
            default_deadline: Duration::from_secs(10),
            max_reads_per_request: 100_000,
            idle_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(20),
            max_requests: None,
        }
    }
}

/// What one `serve` lifetime did (mirrors the `serve.*` counters).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered with `Corrected`.
    pub corrected: u64,
    /// Requests refused with `Overloaded`.
    pub overloaded: u64,
    /// Requests answered with `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Requests refused with `Draining`.
    pub draining_rejected: u64,
    /// Requests refused with `RequestError`.
    pub request_errors: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections killed by protocol errors or stalls.
    pub connection_errors: u64,
}

#[derive(Default)]
struct Counters {
    corrected: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    draining_rejected: AtomicU64,
    request_errors: AtomicU64,
    connections: AtomicU64,
    connection_errors: AtomicU64,
}

impl Counters {
    fn summary(&self) -> ServeSummary {
        ServeSummary {
            corrected: self.corrected.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            draining_rejected: self.draining_rejected.load(Ordering::Relaxed),
            request_errors: self.request_errors.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            connection_errors: self.connection_errors.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    reptile: Arc<Reptile>,
    gate: AdmissionGate,
    collector: Arc<Collector>,
    config: ServerConfig,
    drain: Arc<AtomicBool>,
    counters: Counters,
    /// Trace parent for per-request spans (the `serve.run` root).
    root: SpanId,
    served_total: AtomicU64,
    /// When `serve` started (index already warm) — the `Stats` uptime epoch.
    started: Instant,
}

/// A warm corrector bound to a socket.
pub struct Server {
    reptile: Arc<Reptile>,
    config: ServerConfig,
    collector: Arc<Collector>,
}

impl Server {
    /// Wrap an already-built (or warm-started) index.
    pub fn new(reptile: Arc<Reptile>, config: ServerConfig, collector: Arc<Collector>) -> Server {
        Server { reptile, config, collector }
    }

    /// Serve until `drain` flips, then drain gracefully and return the
    /// summary. The caller owns binding (so tests can grab the ephemeral
    /// port first) and flipping `drain` (signal handler, test, or the
    /// `max_requests` hook inside).
    pub fn serve(self, listener: Listener, drain: Arc<AtomicBool>) -> ServeSummary {
        let run_span =
            self.collector.span_with_threads("serve.run", self.config.workers.max(1) + 1);
        let shared = Arc::new(Shared {
            reptile: self.reptile,
            gate: AdmissionGate::new(self.config.workers, self.config.queue_capacity),
            collector: self.collector.clone(),
            drain: drain.clone(),
            counters: Counters::default(),
            root: run_span.trace_id(),
            served_total: AtomicU64::new(0),
            started: Instant::now(),
            config: self.config,
        });

        if let Err(e) = listener.set_nonblocking(true) {
            eprintln!("serve: cannot enter non-blocking accept: {e}");
            drain.store(true, Ordering::Release);
        }
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !drain.load(Ordering::Acquire) {
            match listener.accept() {
                Ok(conn) => {
                    shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                    shared.collector.incr("serve.connections");
                    let shared = shared.clone();
                    let h = std::thread::Builder::new()
                        .name("serve-conn".into())
                        .spawn(move || handle_conn(&shared, conn))
                        .expect("spawn handler");
                    handlers.push(h);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(shared.config.poll_interval);
                    // Reap finished handlers so a long-lived server does
                    // not accumulate join handles.
                    handlers.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("serve: accept failed: {e}");
                    std::thread::sleep(shared.config.poll_interval);
                }
            }
        }

        // Drain: no new connections (loop exited); handlers finish what
        // they admitted, observe the flag at their next frame boundary and
        // exit.
        drop(listener);
        for h in handlers {
            let _ = h.join();
        }
        drop(run_span);
        shared.counters.summary()
    }

    /// Spawn `serve` on a background thread (in-process tests, the load
    /// generator). The returned handle owns the drain flag.
    pub fn spawn(self, listener: Listener) -> ServerHandle {
        let drain = Arc::new(AtomicBool::new(false));
        let flag = drain.clone();
        let thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || self.serve(listener, flag))
            .expect("spawn server");
        ServerHandle { drain, thread }
    }
}

/// Handle to an in-process [`Server::spawn`] instance.
pub struct ServerHandle {
    drain: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<ServeSummary>,
}

impl ServerHandle {
    /// The drain flag (flip to begin a graceful shutdown).
    pub fn drain_flag(&self) -> Arc<AtomicBool> {
        self.drain.clone()
    }

    /// Request a drain and wait for the summary.
    pub fn shutdown(self) -> ServeSummary {
        self.drain.store(true, Ordering::Release);
        self.thread.join().expect("server thread panicked")
    }
}

/// Per-connection loop: read a frame, admit or refuse, correct, reply.
fn handle_conn(shared: &Shared, conn: crate::conn::Conn) {
    let mut reader = match FrameReader::new(conn, shared.config.poll_interval) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve: connection setup failed: {e}");
            shared.counters.connection_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    loop {
        match reader.read_message(&shared.drain, shared.config.idle_timeout) {
            Ok(ReadOutcome::Message(msg)) => {
                if !handle_message(shared, &mut reader, msg) {
                    break;
                }
            }
            Ok(ReadOutcome::Closed) | Ok(ReadOutcome::Drained) => break,
            Err(e) => {
                // Per-connection isolation: a torn frame, garbage bytes, a
                // checksum mismatch, or a stalled peer ends *this*
                // connection; the listener and every other connection
                // continue unaffected.
                let detail = match &e {
                    ConnError::Protocol(p) => format!("protocol error: {p}"),
                    ConnError::Stalled { buffered } => {
                        format!("stalled mid-frame ({buffered} byte(s) buffered)")
                    }
                };
                eprintln!("serve: dropping connection: {detail}");
                shared.counters.connection_errors.fetch_add(1, Ordering::Relaxed);
                shared.collector.incr("serve.conn_errors");
                break;
            }
        }
    }
    reader.shutdown();
}

/// Dispatch one decoded message; `false` ends the connection.
fn handle_message(shared: &Shared, reader: &mut FrameReader, msg: ServeMessage) -> bool {
    match msg {
        ServeMessage::Ping { request_id } => {
            let pong = ServeMessage::Pong {
                request_id,
                k: shared.reptile.params().k as u64,
                // The wire slot keeps its name; what the index holds of
                // k-mers are its anchors.
                distinct_kmers: shared.reptile.spectrum().len() as u64,
            };
            pong.write_to(reader.conn_mut()).is_ok()
        }
        ServeMessage::Correct { request_id, deadline_ms, reads } => {
            handle_correct(shared, reader, request_id, deadline_ms, reads)
        }
        // Answered without the admission gate, so an operator still gets a
        // snapshot while the gate is refusing.
        ServeMessage::Stats { request_id } => {
            stats_snapshot(shared, request_id).write_to(reader.conn_mut()).is_ok()
        }
        other => {
            // A structurally valid frame carrying a server→client tag is a
            // confused or malicious peer; cut it off.
            eprintln!(
                "serve: dropping connection: unexpected client message (request_id {})",
                other.request_id()
            );
            shared.counters.connection_errors.fetch_add(1, Ordering::Relaxed);
            shared.collector.incr("serve.conn_errors");
            false
        }
    }
}

fn handle_correct(
    shared: &Shared,
    reader: &mut FrameReader,
    request_id: u64,
    deadline_ms: u64,
    reads: Vec<Read>,
) -> bool {
    shared.collector.incr("serve.requests");
    if reads.is_empty() || reads.len() > shared.config.max_reads_per_request {
        shared.counters.request_errors.fetch_add(1, Ordering::Relaxed);
        shared.collector.incr("serve.request_errors");
        let reply = ServeMessage::RequestError {
            request_id,
            message: format!(
                "batch of {} read(s) outside 1..={}",
                reads.len(),
                shared.config.max_reads_per_request
            ),
        };
        return reply.write_to(reader.conn_mut()).is_ok();
    }
    if shared.drain.load(Ordering::Acquire) {
        shared.counters.draining_rejected.fetch_add(1, Ordering::Relaxed);
        shared.collector.incr("serve.draining_rejected");
        return ServeMessage::Draining { request_id }.write_to(reader.conn_mut()).is_ok();
    }
    let admitted = Instant::now();
    let budget = if deadline_ms == 0 {
        shared.config.default_deadline
    } else {
        Duration::from_millis(deadline_ms)
    };
    shared.collector.record("serve.batch_reads", reads.len() as u64);
    let reply = match shared.gate.enter() {
        Ok((permit, queued)) => {
            shared.collector.gauge_max("serve.queue_depth_peak", queued as f64);
            let reply = serve_one(shared, request_id, reads, admitted + budget, admitted);
            // Released before the reply leaves: whoever holds an answer sees
            // the request no longer in flight.
            drop(permit);
            reply
        }
        Err(Full) => {
            // Explicit backpressure: refuse now, buffer nothing.
            shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
            shared.collector.incr("serve.overloaded");
            ServeMessage::Overloaded {
                request_id,
                queue_capacity: shared.gate.queue_capacity() as u64,
            }
        }
    };
    reply.write_to(reader.conn_mut()).is_ok()
}

/// Build a `StatsReply` from the live collector — the same histograms the
/// post-run BENCH report reads, so the two views agree within a bucket.
fn stats_snapshot(shared: &Shared, request_id: u64) -> ServeMessage {
    let report = shared.collector.report("serve");
    let pct =
        |name: &str, p: f64| report.histograms.get(name).and_then(|h| h.quantile(p)).unwrap_or(0);
    // The closed spans ranked by process CPU time, in µs (name order
    // breaks ties: the sort is stable over the report's sorted map).
    let mut cpu_top: Vec<(String, u64)> = report
        .spans
        .iter()
        .filter_map(|(name, s)| Some((name.clone(), s.cpu_ns? / 1000)))
        .collect();
    cpu_top.sort_by_key(|(_, cpu_us)| std::cmp::Reverse(*cpu_us));
    cpu_top.truncate(5);
    ServeMessage::StatsReply {
        request_id,
        queue_depth: shared.gate.waiting() as u64,
        queue_capacity: shared.gate.queue_capacity() as u64,
        in_flight: shared.gate.running() as u64,
        conn_errors: shared.counters.connection_errors.load(Ordering::Relaxed),
        latency_p50_us: pct("serve.latency_us", 0.5),
        latency_p90_us: pct("serve.latency_us", 0.9),
        latency_p99_us: pct("serve.latency_us", 0.99),
        queue_wait_p50_us: pct("serve.queue_wait_us", 0.5),
        queue_wait_p90_us: pct("serve.queue_wait_us", 0.9),
        queue_wait_p99_us: pct("serve.queue_wait_us", 0.99),
        rss_bytes: ngs_observe::read_memory().rss_bytes.unwrap_or(0),
        uptime_ms: shared.started.elapsed().as_millis().min(u64::MAX as u128) as u64,
        cpu_top,
    }
}

/// Correct one admitted request while its permit is held. A panic costs
/// that request, never the handler: the index is read-only and the request
/// dies with its unwind, so nothing half-updated outlives it.
fn serve_one(
    shared: &Shared,
    request_id: u64,
    reads: Vec<Read>,
    deadline: Instant,
    admitted: Instant,
) -> ServeMessage {
    let wait_us = admitted.elapsed().as_micros().min(u64::MAX as u128) as u64;
    shared.collector.record("serve.queue_wait_us", wait_us);
    let served = catch_unwind(AssertUnwindSafe(|| {
        let detail = format!("request={request_id} reads={}", reads.len());
        let span = shared.collector.span_traced("serve.request", shared.root, &detail, 1);
        #[cfg(test)]
        assert_ne!(request_id, tests::POISONED_REQUEST, "injected fault");
        let reply = correct_batch(shared, request_id, deadline, reads);
        match &reply {
            ServeMessage::Corrected { .. } => {
                shared.counters.corrected.fetch_add(1, Ordering::Relaxed);
                shared.collector.incr("serve.corrected");
            }
            ServeMessage::DeadlineExceeded { .. } => {
                shared.counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                shared.collector.incr("serve.deadline_exceeded");
            }
            _ => {}
        }
        drop(span);
        let latency_us = admitted.elapsed().as_micros().min(u64::MAX as u128) as u64;
        shared.collector.record("serve.latency_us", latency_us);
        reply
    }));
    let reply = served.unwrap_or_else(|panic| {
        let cause = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("panic with a non-string payload");
        eprintln!("serve: request {request_id} panicked: {cause}");
        shared.counters.request_errors.fetch_add(1, Ordering::Relaxed);
        shared.collector.incr("serve.worker_panics");
        ServeMessage::RequestError { request_id, message: format!("internal: {cause}") }
    });
    let served = shared.served_total.fetch_add(1, Ordering::Relaxed) + 1;
    if let Some(max) = shared.config.max_requests {
        if served >= max {
            shared.drain.store(true, Ordering::Release);
        }
    }
    reply
}

/// Run the correction on the request's own reads, cancelling between reads
/// once the deadline passes.
fn correct_batch(
    shared: &Shared,
    request_id: u64,
    deadline: Instant,
    mut reads: Vec<Read>,
) -> ServeMessage {
    if Instant::now() >= deadline {
        // Expired while waiting for a permit: cancel before doing any work.
        return ServeMessage::DeadlineExceeded { request_id };
    }
    let rpt = &shared.reptile;
    // Identical preprocessing to batch `reptile-correct` (per-read
    // independent, so serving a batch in pieces stays byte-identical).
    reptile::ambig::preprocess_in_place(&mut reads, rpt.params());
    let index = rpt.neighbor_tables().view(rpt.spectrum());
    let mut stats = ReptileStats::default();
    for read in &mut reads {
        if Instant::now() >= deadline {
            return ServeMessage::DeadlineExceeded { request_id };
        }
        stats.merge(&correct_read(read, rpt.params(), rpt.tiles(), &index));
    }
    shared.collector.add("serve.bases_changed", stats.bases_changed);
    ServeMessage::Corrected {
        request_id,
        reads,
        bases_changed: stats.bases_changed,
        reads_changed: stats.reads_changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{scratch_endpoint, Endpoint};
    use ngs_simulate::{simulate_reads, ErrorModel, GenomeSpec, ReadSimConfig};
    use reptile::ReptileParams;

    /// The request id `serve_one` panics on, standing in for any bug in the
    /// correction path.
    pub(super) const POISONED_REQUEST: u64 = 0xDEAD_0000_0BAD;

    fn small_reptile() -> (Vec<Read>, Arc<Reptile>) {
        let g = GenomeSpec::uniform(4_000).generate(7).seq;
        let cfg = ReadSimConfig::with_coverage(
            g.len(),
            36,
            25.0,
            ErrorModel::illumina_like(36, 0.01),
            99,
        );
        let sim = simulate_reads(&g, &cfg);
        let params = ReptileParams::from_data(&sim.reads, g.len());
        let pre = reptile::ambig::preprocess_ambiguous(&sim.reads, &params);
        let rpt = Arc::new(Reptile::build(&pre, params));
        (sim.reads, rpt)
    }

    fn start(rpt: Arc<Reptile>, config: ServerConfig) -> (Endpoint, ServerHandle, Arc<Collector>) {
        let collector = Arc::new(Collector::new());
        let ep = scratch_endpoint("srvtest");
        let listener = Listener::bind(&ep).expect("bind");
        let handle = Server::new(rpt, config, collector.clone()).spawn(listener);
        (ep, handle, collector)
    }

    fn roundtrip(ep: &Endpoint, msg: &ServeMessage) -> ServeMessage {
        let mut conn = ep.connect().expect("connect");
        msg.write_to(&mut conn).expect("write");
        ServeMessage::read_from(&mut conn).expect("read reply")
    }

    #[test]
    fn serves_corrections_matching_batch_mode() {
        let (reads, rpt) = small_reptile();
        let batch: Vec<Read> = reads[..40].to_vec();
        let (expected, _) =
            rpt.correct(&reptile::ambig::preprocess_ambiguous(&batch, rpt.params()));

        let (ep, handle, collector) = start(rpt, ServerConfig::default());
        let reply =
            roundtrip(&ep, &ServeMessage::Correct { request_id: 5, deadline_ms: 0, reads: batch });
        match reply {
            ServeMessage::Corrected { request_id, reads: got, .. } => {
                assert_eq!(request_id, 5);
                assert_eq!(got.len(), expected.len());
                for (a, b) in got.iter().zip(&expected) {
                    assert_eq!(a.seq, b.seq, "served output must match batch output");
                    assert_eq!(a.id, b.id);
                }
            }
            other => panic!("expected Corrected, got {other:?}"),
        }
        let summary = handle.shutdown();
        assert_eq!(summary.corrected, 1);
        assert_eq!(summary.connections, 1);
        let report = collector.report("serve");
        assert_eq!(report.span("serve.request").expect("span").count, 1);
        assert_eq!(report.histograms["serve.latency_us"].count(), 1);
    }

    /// Regression: a panic in `serve_one` used to end the worker thread for
    /// good — "worker lost" for that request, `in_flight` left raised, and
    /// after `workers` of them a server that admits what nobody pops.
    #[test]
    fn a_panicking_request_costs_neither_worker_nor_in_flight() {
        let (reads, rpt) = small_reptile();
        let workers = 2;
        let config = ServerConfig { workers, ..ServerConfig::default() };
        let (ep, handle, collector) = start(rpt, config);
        let request = |request_id| ServeMessage::Correct {
            request_id,
            deadline_ms: 0,
            reads: reads[..4].to_vec(),
        };
        for _ in 0..workers + 1 {
            match roundtrip(&ep, &request(POISONED_REQUEST)) {
                ServeMessage::RequestError { request_id, message } => {
                    assert_eq!(request_id, POISONED_REQUEST);
                    assert!(message.starts_with("internal: "), "{message}");
                    assert!(message.contains("injected fault"), "{message}");
                }
                other => panic!("expected RequestError, got {other:?}"),
            }
        }
        let reply = roundtrip(&ep, &request(7));
        assert!(matches!(reply, ServeMessage::Corrected { request_id: 7, .. }), "{reply:?}");
        match roundtrip(&ep, &ServeMessage::Stats { request_id: 8 }) {
            ServeMessage::StatsReply { in_flight, cpu_top, .. } => {
                assert_eq!(in_flight, 0);
                // The served request's span is closed, so it is ranked.
                assert!(cpu_top.iter().any(|(name, _)| name == "serve.request"), "{cpu_top:?}");
            }
            other => panic!("expected StatsReply, got {other:?}"),
        }
        let summary = handle.shutdown();
        assert_eq!(summary.corrected, 1);
        assert_eq!(summary.request_errors, workers as u64 + 1);
        assert_eq!(summary.connection_errors, 0);
        assert_eq!(collector.report("serve").counter("serve.worker_panics"), workers as u64 + 1);
    }

    #[test]
    fn ping_reports_the_warm_index() {
        let (_, rpt) = small_reptile();
        let k = rpt.params().k as u64;
        let distinct = rpt.spectrum().len() as u64;
        let (ep, handle, _) = start(rpt, ServerConfig::default());
        let reply = roundtrip(&ep, &ServeMessage::Ping { request_id: 77 });
        assert_eq!(reply, ServeMessage::Pong { request_id: 77, k, distinct_kmers: distinct });
        handle.shutdown();
    }

    #[test]
    fn oversized_and_empty_batches_get_request_error() {
        let (reads, rpt) = small_reptile();
        let config = ServerConfig { max_reads_per_request: 3, ..ServerConfig::default() };
        let (ep, handle, _) = start(rpt, config);
        let reply = roundtrip(
            &ep,
            &ServeMessage::Correct { request_id: 1, deadline_ms: 0, reads: reads[..5].to_vec() },
        );
        assert!(matches!(reply, ServeMessage::RequestError { request_id: 1, .. }), "{reply:?}");
        let reply =
            roundtrip(&ep, &ServeMessage::Correct { request_id: 2, deadline_ms: 0, reads: vec![] });
        assert!(matches!(reply, ServeMessage::RequestError { request_id: 2, .. }), "{reply:?}");
        let summary = handle.shutdown();
        assert_eq!(summary.request_errors, 2);
        assert_eq!(summary.corrected, 0);
    }

    #[test]
    fn expired_deadline_is_refused_not_half_served() {
        use std::io::Write as _;
        let (reads, rpt) = small_reptile();
        // One worker and two slow requests: while the second still waits
        // for the worker, a third arrives with a 1 ms deadline. It is
        // popped only after the whole of the second has been served — far
        // past its deadline, however fast a single read is corrected.
        let config = ServerConfig { workers: 1, queue_capacity: 4, ..ServerConfig::default() };
        let (ep, handle, _) = start(rpt, config);
        let slow: Vec<Read> = reads.iter().cycle().take(8 * reads.len()).cloned().collect();
        // Framed up front and sent from two threads, so the second request
        // reaches the server well before the first can be corrected.
        let frames: Vec<Vec<u8>> = (1..=2)
            .map(|request_id| {
                let request =
                    ServeMessage::Correct { request_id, deadline_ms: 0, reads: slow.clone() };
                mapreduce_lite::protocol::encode_frame(&request.to_payload())
            })
            .collect();
        let mut busy: Vec<_> = (0..2).map(|_| ep.connect().expect("connect")).collect();
        std::thread::scope(|s| {
            for (conn, frame) in busy.iter_mut().zip(&frames) {
                s.spawn(move || conn.write_all(frame).expect("write"));
            }
        });
        loop {
            match roundtrip(&ep, &ServeMessage::Stats { request_id: 9 }) {
                ServeMessage::StatsReply { queue_depth, in_flight, latency_p50_us, .. } => {
                    if queue_depth >= 1 && in_flight >= 1 {
                        break;
                    }
                    assert_eq!(latency_p50_us, 0, "a slow request was answered unobserved");
                }
                other => panic!("expected StatsReply, got {other:?}"),
            }
            std::thread::yield_now();
        }
        let reply = roundtrip(
            &ep,
            &ServeMessage::Correct { request_id: 3, deadline_ms: 1, reads: reads[..10].to_vec() },
        );
        assert_eq!(reply, ServeMessage::DeadlineExceeded { request_id: 3 });
        for conn in &mut busy {
            let served = ServeMessage::read_from(conn).expect("busy reply");
            assert!(matches!(served, ServeMessage::Corrected { .. }), "{served:?}");
        }
        let summary = handle.shutdown();
        assert_eq!(summary.deadline_exceeded, 1);
        assert_eq!(summary.corrected, 2);
    }

    #[test]
    fn workers_bound_the_requests_corrected_at_once() {
        use std::io::Write as _;
        let (reads, rpt) = small_reptile();
        let slow: Vec<Read> = reads.iter().cycle().take(8 * reads.len()).cloned().collect();
        // Framed up front and sent from two threads, so both requests reach
        // the server together, well inside the time one takes to correct.
        let frames: Vec<Vec<u8>> = (1..=2)
            .map(|request_id| {
                let request =
                    ServeMessage::Correct { request_id, deadline_ms: 0, reads: slow.clone() };
                mapreduce_lite::protocol::encode_frame(&request.to_payload())
            })
            .collect();
        for workers in [1, 2] {
            let config = ServerConfig { workers, queue_capacity: 4, ..ServerConfig::default() };
            let (ep, handle, _) = start(rpt.clone(), config);
            let mut busy: Vec<_> = (0..2).map(|_| ep.connect().expect("connect")).collect();
            std::thread::scope(|s| {
                for (conn, frame) in busy.iter_mut().zip(&frames) {
                    s.spawn(move || conn.write_all(frame).expect("write"));
                }
            });
            // Both slow requests are admitted: corrected side by side with
            // two permits, one behind the other with one.
            loop {
                match roundtrip(&ep, &ServeMessage::Stats { request_id: 9 }) {
                    ServeMessage::StatsReply { queue_depth, in_flight, latency_p50_us, .. } => {
                        assert!(in_flight <= workers as u64, "{in_flight} > {workers}");
                        if in_flight + queue_depth == 2 {
                            assert_eq!(in_flight, workers as u64);
                            break;
                        }
                        assert_eq!(latency_p50_us, 0, "a slow request was answered unobserved");
                    }
                    other => panic!("expected StatsReply, got {other:?}"),
                }
                std::thread::yield_now();
            }
            for conn in &mut busy {
                let served = ServeMessage::read_from(conn).expect("busy reply");
                assert!(matches!(served, ServeMessage::Corrected { .. }), "{served:?}");
            }
            assert_eq!(handle.shutdown().corrected, 2);
        }
    }

    #[test]
    fn queue_full_is_refused_with_overloaded() {
        let (reads, rpt) = small_reptile();
        let config = ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() };
        let (ep, handle, _) = start(rpt, config);
        // Saturate: one request occupies the worker, one fills the queue,
        // further requests must be shed immediately.
        let conns: Vec<_> = (0..6)
            .map(|i| {
                let mut c = ep.connect().expect("connect");
                ServeMessage::Correct { request_id: i, deadline_ms: 0, reads: reads.clone() }
                    .write_to(&mut c)
                    .expect("write");
                c
            })
            .collect();
        let mut overloaded = 0;
        let mut served = 0;
        for mut c in conns {
            match ServeMessage::read_from(&mut c).expect("reply") {
                ServeMessage::Overloaded { queue_capacity, .. } => {
                    assert_eq!(queue_capacity, 1);
                    overloaded += 1;
                }
                ServeMessage::Corrected { .. } => served += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(overloaded >= 1, "flood must shed load explicitly");
        assert!(served >= 1, "admitted work must still be served");
        assert_eq!(overloaded + served, 6);
        let summary = handle.shutdown();
        assert_eq!(summary.overloaded, overloaded);
        assert_eq!(summary.corrected, served);
    }

    #[test]
    fn torn_connection_kills_only_that_connection() {
        let (reads, rpt) = small_reptile();
        let (ep, handle, _) = start(rpt, ServerConfig::default());
        // Kill one connection mid-frame...
        {
            let mut c = ep.connect().expect("connect");
            let mut wire = Vec::new();
            ServeMessage::Correct { request_id: 1, deadline_ms: 0, reads: reads[..4].to_vec() }
                .write_to(&mut wire)
                .unwrap();
            use std::io::Write as _;
            c.write_all(&wire[..wire.len() / 2]).unwrap();
            drop(c);
        }
        // ...and one with garbage...
        {
            let mut c = ep.connect().expect("connect");
            use std::io::Write as _;
            c.write_all(b"NOPE definitely not a frame").unwrap();
            std::thread::sleep(Duration::from_millis(50));
        }
        // ...the server still answers a healthy client.
        let reply = roundtrip(
            &ep,
            &ServeMessage::Correct { request_id: 3, deadline_ms: 0, reads: reads[..4].to_vec() },
        );
        assert!(matches!(reply, ServeMessage::Corrected { request_id: 3, .. }), "{reply:?}");
        let summary = handle.shutdown();
        assert!(summary.connection_errors >= 2, "{summary:?}");
        assert_eq!(summary.corrected, 1);
    }

    #[test]
    fn drain_finishes_in_flight_and_refuses_new_work() {
        let (reads, rpt) = small_reptile();
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let (ep, handle, _) = start(rpt, config);
        let mut inflight = ep.connect().expect("connect");
        ServeMessage::Correct { request_id: 1, deadline_ms: 0, reads: reads.clone() }
            .write_to(&mut inflight)
            .expect("write");
        // Raise the drain flag only once request 1 is past admission —
        // queued, being corrected, or already answered (a first latency
        // sample) — however long the handler takes to get there.
        loop {
            match roundtrip(&ep, &ServeMessage::Stats { request_id: 9 }) {
                ServeMessage::StatsReply { queue_depth, in_flight, latency_p50_us, .. } => {
                    if queue_depth + in_flight >= 1 || latency_p50_us > 0 {
                        break;
                    }
                }
                other => panic!("expected StatsReply, got {other:?}"),
            }
            std::thread::yield_now();
        }
        // Drain with request 1 admitted; it must still finish.
        handle.drain_flag().store(true, Ordering::Release);
        let reply = ServeMessage::read_from(&mut inflight).expect("in-flight reply");
        assert!(matches!(reply, ServeMessage::Corrected { request_id: 1, .. }), "{reply:?}");
        let summary = handle.shutdown();
        assert_eq!(summary.corrected, 1);
        // And the socket is gone afterwards: no more connections.
        assert!(ep.connect().is_err(), "drained server must stop accepting");
    }

    #[test]
    fn stats_snapshot_matches_the_collectors_own_report() {
        let (reads, rpt) = small_reptile();
        let config = ServerConfig { queue_capacity: 7, ..ServerConfig::default() };
        let (ep, handle, collector) = start(rpt, config);
        for i in 0..3 {
            let reply = roundtrip(
                &ep,
                &ServeMessage::Correct {
                    request_id: i,
                    deadline_ms: 0,
                    reads: reads[..8].to_vec(),
                },
            );
            assert!(matches!(reply, ServeMessage::Corrected { .. }), "{reply:?}");
        }
        let reply = roundtrip(&ep, &ServeMessage::Stats { request_id: 42 });
        let report = collector.report("serve");
        match reply {
            ServeMessage::StatsReply {
                request_id,
                queue_depth,
                queue_capacity,
                in_flight,
                conn_errors,
                latency_p50_us,
                latency_p99_us,
                queue_wait_p50_us,
                uptime_ms,
                ..
            } => {
                assert_eq!(request_id, 42);
                assert_eq!(queue_depth, 0, "idle server must report an empty queue");
                assert_eq!(queue_capacity, 7);
                assert_eq!(in_flight, 0);
                assert_eq!(conn_errors, 0);
                // The reply is drawn from the very histograms the BENCH
                // report reads, so quantiles agree exactly, not just
                // within a bucket.
                let h = &report.histograms["serve.latency_us"];
                assert_eq!(h.count(), 3);
                assert_eq!(latency_p50_us, h.quantile(0.5).unwrap());
                assert_eq!(latency_p99_us, h.quantile(0.99).unwrap());
                let w = &report.histograms["serve.queue_wait_us"];
                assert_eq!(queue_wait_p50_us, w.quantile(0.5).unwrap());
                assert!(latency_p50_us > 0);
                assert!(uptime_ms < 600_000, "uptime must be this run, not an epoch");
            }
            other => panic!("expected StatsReply, got {other:?}"),
        }
        // A stats probe is not a correction request: counters untouched.
        let summary = handle.shutdown();
        assert_eq!(summary.corrected, 3);
        assert_eq!(summary.request_errors, 0);
    }

    #[test]
    fn max_requests_hook_drains_after_n() {
        let (reads, rpt) = small_reptile();
        let config = ServerConfig { workers: 1, max_requests: Some(2), ..ServerConfig::default() };
        let (ep, handle, _) = start(rpt, config);
        for i in 0..2 {
            let reply = roundtrip(
                &ep,
                &ServeMessage::Correct {
                    request_id: i,
                    deadline_ms: 0,
                    reads: reads[..4].to_vec(),
                },
            );
            assert!(matches!(reply, ServeMessage::Corrected { .. }), "{reply:?}");
        }
        let summary = handle.shutdown();
        assert_eq!(summary.corrected, 2);
    }
}
