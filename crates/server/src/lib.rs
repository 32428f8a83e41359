//! `ngs-server` — a crash-tolerant correction daemon for the Reptile
//! pipeline (DESIGN.md §Serving).
//!
//! Batch `reptile-correct` pays the Phase-1 index build on every
//! invocation; this crate keeps that index **warm in one process** and
//! serves correction requests over a Unix or TCP socket, speaking the same
//! MRW1 length-prefixed checksummed frames as the MapReduce worker pool.
//! The correction contract is byte-identical to batch mode: the same
//! ambiguity preprocessing, the same per-read algorithm, the same output
//! for the same input — which is what makes requests idempotent and
//! client-side retries safe.
//!
//! The robustness invariants, each enforced by a layer here and exercised
//! by the `serve_chaos` suite in `ngs-cli`:
//!
//! * **Bounded admission** ([`queue::AdmissionGate`]) — each connection's
//!   handler corrects its own requests, at most `workers` at once, with at
//!   most `queue_capacity` more waiting in arrival order; a full waiting
//!   room returns `Overloaded` immediately, so the server never holds more
//!   than `queue_capacity + workers` requests and RSS stays flat under
//!   floods.
//! * **Deadlines** ([`server`]) — each request carries a budget; expired
//!   work is cancelled *between reads* and answered `DeadlineExceeded`,
//!   never half-served.
//! * **Connection isolation** ([`conn::FrameReader`]) — torn frames,
//!   garbage, checksum mismatches, and stalled peers kill exactly one
//!   connection.
//! * **Graceful drain** ([`signal`]) — SIGTERM stops accepting, finishes
//!   in-flight work, answers late arrivals `Draining`, and exits 0.
//! * **A panic costs one request** ([`server`]) — correction runs under
//!   `catch_unwind`; the request is answered `RequestError`, and its
//!   admission permit is given back on unwind.
//! * **Retrying client** ([`client::Client`]) — full-jitter exponential
//!   backoff; `Overloaded`/`Draining`/torn connections are retryable,
//!   `DeadlineExceeded`/`RequestError` are terminal.
//! * **Measured** ([`server`]) — every request is a `serve.request`
//!   trace span, and request latency and queue wait feed the
//!   `LogHistogram`s behind `ngs-client --stats`.

pub mod client;
pub mod conn;
pub mod proto;
pub mod queue;
pub mod server;
pub mod signal;

pub use client::{Client, ClientConfig, ClientError, CorrectedBatch, StatsSnapshot};
pub use conn::{Conn, Endpoint, Listener};
pub use proto::ServeMessage;
pub use server::{ServeSummary, Server, ServerConfig, ServerHandle};
