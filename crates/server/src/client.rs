//! Retrying client for the correction server.
//!
//! The request contract is idempotent (same reads → same corrected bytes),
//! so the retry matrix can be aggressive about transport failures:
//!
//! | outcome                          | action                           |
//! |----------------------------------|----------------------------------|
//! | `Corrected` / `Pong`             | return                           |
//! | `Overloaded`                     | jittered backoff, retry          |
//! | `Draining`                       | jittered backoff, retry          |
//! | torn / closed conn, I/O error    | reconnect, retry (idempotent)    |
//! | `DeadlineExceeded`               | terminal — caller picks a budget |
//! | `RequestError`                   | terminal — request is wrong      |
//! | wrong `request_id` in reply      | terminal — protocol violation    |
//!
//! Backoff is full-jitter exponential (`uniform(0, base·2^attempt)` capped
//! at `max_backoff`), so a thundering herd of retrying clients decorrelates
//! instead of re-flooding the server in lockstep.

use crate::conn::{Conn, Endpoint};
use crate::proto::{encode_correct, ServeMessage};
use mapreduce_lite::protocol::encode_frame;
use ngs_core::Read;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::io::Write as _;
use std::time::Duration;

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Total attempts per request (first try + retries).
    pub max_attempts: usize,
    /// Base of the exponential backoff.
    pub base_backoff: Duration,
    /// Ceiling for any single backoff sleep.
    pub max_backoff: Duration,
    /// Jitter seed (deterministic per client; vary per thread in a swarm).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            seed: 0x5eed,
        }
    }
}

/// Terminal client-side failure (retryable outcomes are retried inside).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Retries exhausted while the server kept shedding load or the
    /// transport kept failing; the string describes the last attempt.
    RetriesExhausted(String),
    /// The server refused within the deadline budget; not retried (a
    /// retry would spend the same budget again).
    DeadlineExceeded,
    /// The request itself is unservable (e.g. too many reads).
    RequestError(String),
    /// The reply violated the protocol (wrong id or unexpected variant).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::RetriesExhausted(last) => write!(f, "retries exhausted: {last}"),
            ClientError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ClientError::RequestError(m) => write!(f, "request error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

/// A successful correction round-trip.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectedBatch {
    /// Corrected reads, in request order.
    pub reads: Vec<Read>,
    /// Total bases changed in the batch.
    pub bases_changed: u64,
    /// Reads with at least one change.
    pub reads_changed: u64,
    /// Attempts this request took (1 = no retries).
    pub attempts: u32,
}

/// A live operational snapshot of the server (the decoded
/// [`ServeMessage::StatsReply`], minus the request id plumbing).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub queue_depth: u64,
    pub queue_capacity: u64,
    pub in_flight: u64,
    pub conn_errors: u64,
    pub latency_p50_us: u64,
    pub latency_p90_us: u64,
    pub latency_p99_us: u64,
    pub queue_wait_p50_us: u64,
    pub queue_wait_p90_us: u64,
    pub queue_wait_p99_us: u64,
    pub rss_bytes: u64,
    pub uptime_ms: u64,
    /// Top spans by process CPU time since start, in µs (closed spans of
    /// the server's collector, most first).
    pub cpu_top: Vec<(String, u64)>,
}

/// What one attempt produced, before the retry policy is applied.
enum Attempt {
    Done(ServeMessage),
    /// Retryable: server shed load or the transport failed; reconnect on
    /// `reconnect` before the next try.
    Retry {
        why: String,
        reconnect: bool,
    },
}

/// One connection to the server, re-dialed lazily after failures.
pub struct Client {
    endpoint: Endpoint,
    config: ClientConfig,
    conn: Option<Conn>,
    rng: StdRng,
    next_id: u64,
    /// Retries performed over this client's lifetime (telemetry).
    pub retries: u64,
}

impl Client {
    /// A client for `endpoint` (connects lazily on first use).
    pub fn new(endpoint: Endpoint, config: ClientConfig) -> Client {
        let rng = StdRng::seed_from_u64(config.seed);
        Client { endpoint, config, conn: None, rng, next_id: 1, retries: 0 }
    }

    /// Correct `reads` with the given deadline budget (0 = server default).
    pub fn correct(
        &mut self,
        reads: &[Read],
        deadline_ms: u64,
    ) -> Result<CorrectedBatch, ClientError> {
        let request_id = self.next_id;
        self.next_id += 1;
        // Framed once from the borrowed reads; every attempt resends it.
        let mut payload = Vec::new();
        encode_correct(request_id, deadline_ms, reads, &mut payload);
        let reply = self.call(request_id, &encode_frame(&payload))?;
        match reply.0 {
            ServeMessage::Corrected { reads, bases_changed, reads_changed, .. } => {
                Ok(CorrectedBatch { reads, bases_changed, reads_changed, attempts: reply.1 })
            }
            other => Err(unexpected(other)),
        }
    }

    /// Probe the server, returning `(k, distinct_kmers)` of its index.
    pub fn ping(&mut self) -> Result<(u64, u64), ClientError> {
        let request_id = self.next_id;
        self.next_id += 1;
        let reply =
            self.call(request_id, &encode_frame(&ServeMessage::Ping { request_id }.to_payload()))?;
        match reply.0 {
            ServeMessage::Pong { k, distinct_kmers, .. } => Ok((k, distinct_kmers)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch a live stats snapshot (queue, percentiles, memory, uptime).
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        let request_id = self.next_id;
        self.next_id += 1;
        let reply =
            self.call(request_id, &encode_frame(&ServeMessage::Stats { request_id }.to_payload()))?;
        match reply.0 {
            ServeMessage::StatsReply {
                queue_depth,
                queue_capacity,
                in_flight,
                conn_errors,
                latency_p50_us,
                latency_p90_us,
                latency_p99_us,
                queue_wait_p50_us,
                queue_wait_p90_us,
                queue_wait_p99_us,
                rss_bytes,
                uptime_ms,
                cpu_top,
                ..
            } => Ok(StatsSnapshot {
                queue_depth,
                queue_capacity,
                in_flight,
                conn_errors,
                latency_p50_us,
                latency_p90_us,
                latency_p99_us,
                queue_wait_p50_us,
                queue_wait_p90_us,
                queue_wait_p99_us,
                rss_bytes,
                uptime_ms,
                cpu_top,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Run one framed request through the retry policy. Returns the
    /// terminal reply (already filtered: only success variants reach the
    /// caller) and the number of attempts taken.
    fn call(&mut self, request_id: u64, frame: &[u8]) -> Result<(ServeMessage, u32), ClientError> {
        let mut last = String::from("no attempt made");
        for attempt in 0..self.config.max_attempts {
            if attempt > 0 {
                self.retries += 1;
                std::thread::sleep(self.backoff(attempt));
            }
            match self.attempt(frame) {
                Attempt::Done(reply) => {
                    if reply.request_id() != request_id {
                        self.conn = None;
                        return Err(ClientError::Protocol(format!(
                            "reply for request {} while waiting for {request_id}",
                            reply.request_id(),
                        )));
                    }
                    return match reply {
                        ServeMessage::DeadlineExceeded { .. } => Err(ClientError::DeadlineExceeded),
                        ServeMessage::RequestError { message, .. } => {
                            Err(ClientError::RequestError(message))
                        }
                        ok => Ok((ok, attempt as u32 + 1)),
                    };
                }
                Attempt::Retry { why, reconnect } => {
                    if reconnect {
                        self.conn = None;
                    }
                    last = why;
                }
            }
        }
        Err(ClientError::RetriesExhausted(last))
    }

    /// One wire round-trip (connect if needed, send, await the reply).
    fn attempt(&mut self, frame: &[u8]) -> Attempt {
        let conn = match &mut self.conn {
            Some(c) => c,
            None => match self.endpoint.connect() {
                Ok(c) => self.conn.insert(c),
                Err(e) => return Attempt::Retry { why: format!("connect: {e}"), reconnect: true },
            },
        };
        if let Err(e) = conn.write_all(frame) {
            return Attempt::Retry { why: format!("send: {e}"), reconnect: true };
        }
        match ServeMessage::read_from(conn) {
            Ok(ServeMessage::Overloaded { .. }) => {
                Attempt::Retry { why: "server overloaded".into(), reconnect: false }
            }
            Ok(ServeMessage::Draining { .. }) => {
                // The instance is going away; next attempt re-dials (a
                // replacement may be listening by then).
                Attempt::Retry { why: "server draining".into(), reconnect: true }
            }
            Ok(reply) => Attempt::Done(reply),
            // Torn/closed/checksum/I/O: the request is idempotent, so a
            // fresh connection and a full resend are always safe.
            Err(e) => Attempt::Retry { why: format!("recv: {e}"), reconnect: true },
        }
    }

    /// Full-jitter exponential backoff for retry number `attempt` (≥ 1).
    fn backoff(&mut self, attempt: usize) -> Duration {
        let base = self.config.base_backoff.as_millis().max(1) as u64;
        let cap = self.config.max_backoff.as_millis().max(1) as u64;
        let ceiling = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
        Duration::from_millis(self.rng.gen_range(0..=ceiling))
    }
}

fn unexpected(reply: ServeMessage) -> ClientError {
    ClientError::Protocol(format!("unexpected reply variant (request {})", reply.request_id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{scratch_endpoint, Listener};

    #[test]
    fn backoff_is_jittered_bounded_and_grows() {
        let mut c = Client::new(
            Endpoint::Unix("/nonexistent.sock".into()),
            ClientConfig {
                base_backoff: Duration::from_millis(4),
                max_backoff: Duration::from_millis(64),
                ..ClientConfig::default()
            },
        );
        let mut seen_distinct = std::collections::BTreeSet::new();
        for attempt in 1..10 {
            for _ in 0..50 {
                let d = c.backoff(attempt);
                let cap = (4u64 << attempt.min(20)).min(64);
                assert!(d.as_millis() as u64 <= cap, "attempt {attempt}: {d:?} > {cap}ms");
                seen_distinct.insert(d.as_millis() as u64);
            }
        }
        assert!(seen_distinct.len() > 10, "jitter must spread: {seen_distinct:?}");
    }

    #[test]
    fn unreachable_endpoint_exhausts_retries() {
        let mut c = Client::new(
            scratch_endpoint("noone"),
            ClientConfig {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                ..ClientConfig::default()
            },
        );
        match c.ping() {
            Err(ClientError::RetriesExhausted(why)) => {
                assert!(why.contains("connect"), "{why}");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(c.retries, 2);
    }

    /// A scripted single-connection server: answers each accepted
    /// connection with the canned replies, in order.
    fn scripted_server(
        ep: &Endpoint,
        scripts: Vec<Vec<ServeMessage>>,
    ) -> std::thread::JoinHandle<()> {
        let listener = Listener::bind(ep).expect("bind");
        std::thread::spawn(move || {
            for script in scripts {
                let mut conn = listener.accept().expect("accept");
                for reply in script {
                    // Read (and discard) one request, then answer.
                    let _ = ServeMessage::read_from(&mut conn).expect("request");
                    reply.write_to(&mut conn).expect("reply");
                }
            }
        })
    }

    #[test]
    fn overloaded_is_retried_on_the_same_connection() {
        let ep = scratch_endpoint("retry");
        // One connection: Overloaded twice, then Pong. request_id is 1
        // throughout because retries resend the same request.
        let server = scripted_server(
            &ep,
            vec![vec![
                ServeMessage::Overloaded { request_id: 1, queue_capacity: 4 },
                ServeMessage::Overloaded { request_id: 1, queue_capacity: 4 },
                ServeMessage::Pong { request_id: 1, k: 15, distinct_kmers: 7 },
            ]],
        );
        let mut c = Client::new(
            ep,
            ClientConfig {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                ..ClientConfig::default()
            },
        );
        assert_eq!(c.ping(), Ok((15, 7)));
        assert_eq!(c.retries, 2);
        server.join().unwrap();
    }

    #[test]
    fn torn_connection_reconnects_and_retries() {
        let ep = scratch_endpoint("torn");
        let listener = Listener::bind(&ep).expect("bind");
        let server = std::thread::spawn(move || {
            // First connection: read the request, write half a reply, die.
            let mut conn = listener.accept().expect("accept");
            let _ = ServeMessage::read_from(&mut conn).expect("request");
            let mut wire = Vec::new();
            ServeMessage::Pong { request_id: 1, k: 15, distinct_kmers: 7 }
                .write_to(&mut wire)
                .unwrap();
            conn.write_all(&wire[..wire.len() / 2]).unwrap();
            conn.shutdown();
            drop(conn);
            // Second connection: behave.
            let mut conn = listener.accept().expect("accept 2");
            let _ = ServeMessage::read_from(&mut conn).expect("request 2");
            ServeMessage::Pong { request_id: 1, k: 15, distinct_kmers: 7 }
                .write_to(&mut conn)
                .unwrap();
        });
        let mut c = Client::new(
            ep,
            ClientConfig {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                ..ClientConfig::default()
            },
        );
        assert_eq!(c.ping(), Ok((15, 7)));
        assert_eq!(c.retries, 1);
        server.join().unwrap();
    }

    #[test]
    fn stats_round_trips_and_retries_like_any_request() {
        let ep = scratch_endpoint("stats");
        let reply = ServeMessage::StatsReply {
            request_id: 1,
            queue_depth: 2,
            queue_capacity: 64,
            in_flight: 1,
            conn_errors: 0,
            latency_p50_us: 4_000,
            latency_p90_us: 8_000,
            latency_p99_us: 16_000,
            queue_wait_p50_us: 100,
            queue_wait_p90_us: 500,
            queue_wait_p99_us: 900,
            rss_bytes: 10 << 20,
            uptime_ms: 5_000,
            cpu_top: vec![("reptile.correct".into(), 99)],
        };
        let server = scripted_server(
            &ep,
            vec![vec![
                ServeMessage::Overloaded { request_id: 1, queue_capacity: 64 },
                reply.clone(),
            ]],
        );
        let mut c = Client::new(
            ep,
            ClientConfig {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                ..ClientConfig::default()
            },
        );
        let snap = c.stats().expect("stats");
        assert_eq!(
            snap,
            StatsSnapshot {
                queue_depth: 2,
                queue_capacity: 64,
                in_flight: 1,
                conn_errors: 0,
                latency_p50_us: 4_000,
                latency_p90_us: 8_000,
                latency_p99_us: 16_000,
                queue_wait_p50_us: 100,
                queue_wait_p90_us: 500,
                queue_wait_p99_us: 900,
                rss_bytes: 10 << 20,
                uptime_ms: 5_000,
                cpu_top: vec![("reptile.correct".into(), 99)],
            }
        );
        assert_eq!(c.retries, 1, "Overloaded before StatsReply must be retried");
        server.join().unwrap();
    }

    #[test]
    fn deadline_and_request_errors_are_terminal() {
        let ep = scratch_endpoint("terminal");
        let server = scripted_server(
            &ep,
            vec![
                vec![ServeMessage::DeadlineExceeded { request_id: 1 }],
                vec![ServeMessage::RequestError { request_id: 2, message: "nope".into() }],
            ],
        );
        let mut c = Client::new(ep, ClientConfig::default());
        assert_eq!(c.ping(), Err(ClientError::DeadlineExceeded));
        // Terminal replies consume no retries.
        assert_eq!(c.retries, 0);
        // The deadline reply leaves the connection usable, but the
        // scripted server only answers once per connection — drop it so
        // the next request dials the second script.
        c.conn = None;
        assert_eq!(c.ping(), Err(ClientError::RequestError("nope".into())));
        server.join().unwrap();
    }

    #[test]
    fn mismatched_request_id_is_a_protocol_error() {
        let ep = scratch_endpoint("mismatch");
        let server = scripted_server(
            &ep,
            vec![vec![ServeMessage::Pong { request_id: 999, k: 1, distinct_kmers: 1 }]],
        );
        let mut c = Client::new(ep, ClientConfig::default());
        match c.ping() {
            Err(ClientError::Protocol(why)) => assert!(why.contains("999"), "{why}"),
            other => panic!("expected Protocol error, got {other:?}"),
        }
        server.join().unwrap();
    }
}
