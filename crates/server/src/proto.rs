//! Wire protocol between `ngs-serve` and its clients.
//!
//! Every message travels as one `MRW1` outer frame — the same
//! length-prefixed, checksummed framing the MapReduce worker pool
//! speaks ([`mapreduce_lite::protocol`]), so torn writes from a killed
//! peer surface as [`ProtocolError::Torn`] and bit flips as
//! [`ProtocolError::ChecksumMismatch`], never as half a message. The
//! payload is one [`ServeMessage`]: a tag byte plus
//! [`Codec`]-encoded fields. Serving tags start at 32, far above the pool
//! protocol's 1–7, so a serving frame accidentally delivered to a pool
//! endpoint (or vice versa) decodes to `Malformed` instead of a wrong
//! message.
//!
//! The request contract is **idempotent**: correcting the same reads twice
//! yields the same bytes, so a client that saw a torn connection can
//! always retry the whole request on a fresh connection (see
//! `DESIGN.md` §Serving for the retry matrix).

use mapreduce_lite::protocol::{encode_frame, read_frame, ProtocolError};
use mapreduce_lite::Codec;
use ngs_core::Read;
use std::io::Write;

/// First serving tag; 1–7 belong to the worker-pool protocol.
const TAG_BASE: u8 = 32;
const TAG_CORRECT: u8 = TAG_BASE;
const TAG_CORRECTED: u8 = TAG_BASE + 1;
const TAG_OVERLOADED: u8 = TAG_BASE + 2;
const TAG_DEADLINE_EXCEEDED: u8 = TAG_BASE + 3;
const TAG_DRAINING: u8 = TAG_BASE + 4;
const TAG_REQUEST_ERROR: u8 = TAG_BASE + 5;
const TAG_PING: u8 = TAG_BASE + 6;
const TAG_PONG: u8 = TAG_BASE + 7;
const TAG_STATS: u8 = TAG_BASE + 8;
const TAG_STATS_REPLY: u8 = TAG_BASE + 9;

fn encode_read(r: &Read, out: &mut Vec<u8>) {
    r.id.encode(out);
    r.seq.encode(out);
    match &r.qual {
        Some(q) => {
            true.encode(out);
            q.encode(out);
        }
        None => false.encode(out),
    }
}

fn decode_read(inp: &mut &[u8]) -> Option<Read> {
    let id = String::decode(inp)?;
    let seq = Vec::<u8>::decode(inp)?;
    let qual = if bool::decode(inp)? { Some(Vec::<u8>::decode(inp)?) } else { None };
    Some(Read { id, seq, qual })
}

fn encode_reads(reads: &[Read], out: &mut Vec<u8>) {
    (reads.len() as u64).encode(out);
    for r in reads {
        encode_read(r, out);
    }
}

fn decode_reads(inp: &mut &[u8]) -> Option<Vec<Read>> {
    let n = u64::decode(inp)?;
    // Cap the pre-allocation by what the payload could possibly hold (each
    // read costs ≥ 9 bytes on the wire) so a corrupt length cannot balloon.
    let mut reads = Vec::with_capacity((n as usize).min(inp.len() / 9 + 1));
    for _ in 0..n {
        reads.push(decode_read(inp)?);
    }
    Some(reads)
}

/// Encode the payload of a [`ServeMessage::Correct`] from borrowed reads,
/// so a client can frame a request without first cloning the batch into
/// the message. [`ServeMessage::to_payload`] encodes `Correct` through
/// here, so the two are byte-identical.
pub fn encode_correct(request_id: u64, deadline_ms: u64, reads: &[Read], out: &mut Vec<u8>) {
    out.push(TAG_CORRECT);
    (request_id, deadline_ms).encode(out);
    encode_reads(reads, out);
}

/// One serving message. `request_id` is chosen by the client and echoed
/// verbatim in every reply, so a client multiplexing requests can match
/// responses (the bundled [`crate::client::Client`] sends one at a time).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeMessage {
    /// Client → server: correct this batch of reads.
    Correct {
        /// Client-chosen id, echoed in the reply.
        request_id: u64,
        /// Deadline budget in milliseconds, measured from server receipt.
        /// 0 means "use the server's default deadline".
        deadline_ms: u64,
        /// The reads to correct (raw; the server applies the same
        /// ambiguity preprocessing as batch `reptile-correct`).
        reads: Vec<Read>,
    },
    /// Server → client: the corrected batch, in request order.
    Corrected {
        request_id: u64,
        reads: Vec<Read>,
        /// Total bases changed across the batch.
        bases_changed: u64,
        /// Reads with at least one change.
        reads_changed: u64,
    },
    /// Server → client: every correction slot is busy and the waiting room
    /// is full; retry with backoff.
    Overloaded {
        request_id: u64,
        /// Waiting-room capacity at rejection time (a client-side tuning
        /// hint).
        queue_capacity: u64,
    },
    /// Server → client: the deadline expired before (or while) correcting.
    /// No partial output is ever returned — retry with a larger budget.
    DeadlineExceeded { request_id: u64 },
    /// Server → client: the server is draining after SIGTERM; this request
    /// was not admitted. Safe to retry against a replacement instance.
    Draining { request_id: u64 },
    /// Server → client: the request was structurally valid but not
    /// servable (e.g. more reads than `--max-reads-per-request`).
    /// Not retryable without changing the request.
    RequestError { request_id: u64, message: String },
    /// Client → server: liveness / identity probe.
    Ping { request_id: u64 },
    /// Server → client: probe reply describing the warm index.
    Pong {
        request_id: u64,
        /// k-mer length of the loaded index.
        k: u64,
        /// Distinct k-mers in the loaded spectrum.
        distinct_kmers: u64,
    },
    /// Client → server: request a live operational snapshot. Never queued —
    /// answered inline even when admission is refusing, so an operator
    /// can see *why* requests are bouncing.
    Stats { request_id: u64 },
    /// Server → client: point-in-time snapshot of the server's collector.
    /// Percentiles come from the same histograms the post-run BENCH report
    /// reads, so a live probe and the report agree within bucket tolerance.
    StatsReply {
        request_id: u64,
        /// Requests currently waiting for a correction slot.
        queue_depth: u64,
        /// Waiting-room capacity (`--queue-capacity` at startup).
        queue_capacity: u64,
        /// Requests admitted and currently being corrected.
        in_flight: u64,
        /// Connections dropped for protocol or I/O errors since start.
        conn_errors: u64,
        /// End-to-end request latency percentiles, µs (0 until first request).
        latency_p50_us: u64,
        latency_p90_us: u64,
        latency_p99_us: u64,
        /// Admission-queue wait percentiles, µs (0 until first request).
        queue_wait_p50_us: u64,
        queue_wait_p90_us: u64,
        queue_wait_p99_us: u64,
        /// Resident set size of the server process, bytes (0 if unreadable).
        rss_bytes: u64,
        /// Milliseconds since the server finished loading its index.
        uptime_ms: u64,
        /// Top spans by process CPU time since start (name, µs), most
        /// first: the closed spans of the server's collector, by `cpu_ns`.
        cpu_top: Vec<(String, u64)>,
    },
}

impl ServeMessage {
    /// The echoed request id of any message.
    pub fn request_id(&self) -> u64 {
        match self {
            ServeMessage::Correct { request_id, .. }
            | ServeMessage::Corrected { request_id, .. }
            | ServeMessage::Overloaded { request_id, .. }
            | ServeMessage::DeadlineExceeded { request_id }
            | ServeMessage::Draining { request_id }
            | ServeMessage::RequestError { request_id, .. }
            | ServeMessage::Ping { request_id }
            | ServeMessage::Pong { request_id, .. }
            | ServeMessage::Stats { request_id }
            | ServeMessage::StatsReply { request_id, .. } => *request_id,
        }
    }

    /// Encode into an outer-frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ServeMessage::Correct { request_id, deadline_ms, reads } => {
                encode_correct(*request_id, *deadline_ms, reads, &mut out)
            }
            ServeMessage::Corrected { request_id, reads, bases_changed, reads_changed } => {
                out.push(TAG_CORRECTED);
                (*request_id, *bases_changed, *reads_changed).encode(&mut out);
                encode_reads(reads, &mut out);
            }
            ServeMessage::Overloaded { request_id, queue_capacity } => {
                out.push(TAG_OVERLOADED);
                (*request_id, *queue_capacity).encode(&mut out);
            }
            ServeMessage::DeadlineExceeded { request_id } => {
                out.push(TAG_DEADLINE_EXCEEDED);
                request_id.encode(&mut out);
            }
            ServeMessage::Draining { request_id } => {
                out.push(TAG_DRAINING);
                request_id.encode(&mut out);
            }
            ServeMessage::RequestError { request_id, message } => {
                out.push(TAG_REQUEST_ERROR);
                request_id.encode(&mut out);
                message.encode(&mut out);
            }
            ServeMessage::Ping { request_id } => {
                out.push(TAG_PING);
                request_id.encode(&mut out);
            }
            ServeMessage::Pong { request_id, k, distinct_kmers } => {
                out.push(TAG_PONG);
                (*request_id, *k, *distinct_kmers).encode(&mut out);
            }
            ServeMessage::Stats { request_id } => {
                out.push(TAG_STATS);
                request_id.encode(&mut out);
            }
            ServeMessage::StatsReply {
                request_id,
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
            } => {
                out.push(TAG_STATS_REPLY);
                (*request_id, *queue_depth, *queue_capacity).encode(&mut out);
                (*in_flight, *conn_errors).encode(&mut out);
                (*latency_p50_us, *latency_p90_us, *latency_p99_us).encode(&mut out);
                (*queue_wait_p50_us, *queue_wait_p90_us, *queue_wait_p99_us).encode(&mut out);
                (*rss_bytes, *uptime_ms).encode(&mut out);
                (cpu_top.len() as u32).encode(&mut out);
                for (name, samples) in cpu_top {
                    name.encode(&mut out);
                    samples.encode(&mut out);
                }
            }
        }
        out
    }

    /// Decode an outer-frame payload. The whole payload must be consumed;
    /// trailing bytes are [`ProtocolError::Malformed`], like the pool
    /// protocol.
    pub fn from_payload(payload: &[u8]) -> Result<ServeMessage, ProtocolError> {
        let (&tag, mut inp) = payload.split_first().ok_or(ProtocolError::Malformed)?;
        let inp = &mut inp;
        let msg = match tag {
            TAG_CORRECT => {
                let (request_id, deadline_ms) =
                    <(u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let reads = decode_reads(inp).ok_or(ProtocolError::Malformed)?;
                ServeMessage::Correct { request_id, deadline_ms, reads }
            }
            TAG_CORRECTED => {
                let (request_id, bases_changed, reads_changed) =
                    <(u64, u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let reads = decode_reads(inp).ok_or(ProtocolError::Malformed)?;
                ServeMessage::Corrected { request_id, reads, bases_changed, reads_changed }
            }
            TAG_OVERLOADED => {
                let (request_id, queue_capacity) =
                    <(u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                ServeMessage::Overloaded { request_id, queue_capacity }
            }
            TAG_DEADLINE_EXCEEDED => {
                let request_id = u64::decode(inp).ok_or(ProtocolError::Malformed)?;
                ServeMessage::DeadlineExceeded { request_id }
            }
            TAG_DRAINING => {
                let request_id = u64::decode(inp).ok_or(ProtocolError::Malformed)?;
                ServeMessage::Draining { request_id }
            }
            TAG_REQUEST_ERROR => {
                let request_id = u64::decode(inp).ok_or(ProtocolError::Malformed)?;
                let message = String::decode(inp).ok_or(ProtocolError::Malformed)?;
                ServeMessage::RequestError { request_id, message }
            }
            TAG_PING => {
                let request_id = u64::decode(inp).ok_or(ProtocolError::Malformed)?;
                ServeMessage::Ping { request_id }
            }
            TAG_PONG => {
                let (request_id, k, distinct_kmers) =
                    <(u64, u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                ServeMessage::Pong { request_id, k, distinct_kmers }
            }
            TAG_STATS => {
                let request_id = u64::decode(inp).ok_or(ProtocolError::Malformed)?;
                ServeMessage::Stats { request_id }
            }
            TAG_STATS_REPLY => {
                let (request_id, queue_depth, queue_capacity) =
                    <(u64, u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let (in_flight, conn_errors) =
                    <(u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let (latency_p50_us, latency_p90_us, latency_p99_us) =
                    <(u64, u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let (queue_wait_p50_us, queue_wait_p90_us, queue_wait_p99_us) =
                    <(u64, u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let (rss_bytes, uptime_ms) =
                    <(u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let n = u32::decode(inp).ok_or(ProtocolError::Malformed)? as usize;
                let mut cpu_top = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    let name = String::decode(inp).ok_or(ProtocolError::Malformed)?;
                    let samples = u64::decode(inp).ok_or(ProtocolError::Malformed)?;
                    cpu_top.push((name, samples));
                }
                ServeMessage::StatsReply {
                    request_id,
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
                }
            }
            _ => return Err(ProtocolError::Malformed),
        };
        if !inp.is_empty() {
            return Err(ProtocolError::Malformed);
        }
        Ok(msg)
    }

    /// Encode and write as a single frame (one `write_all`, so a live
    /// writer never interleaves partial frames).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ProtocolError> {
        w.write_all(&encode_frame(&self.to_payload())).map_err(|e| ProtocolError::Io(e.to_string()))
    }

    /// Read one frame and decode it (blocking; the server uses the
    /// incremental [`crate::conn::FrameReader`] instead so it can poll the
    /// drain flag and detect stalled peers).
    pub fn read_from(r: &mut impl std::io::Read) -> Result<ServeMessage, ProtocolError> {
        ServeMessage::from_payload(&read_frame(r)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn sample_messages() -> Vec<ServeMessage> {
        vec![
            ServeMessage::Correct {
                request_id: 7,
                deadline_ms: 250,
                reads: vec![
                    Read::new("r1", b"ACGTACGT"),
                    Read { id: "r2".into(), seq: b"GGGTTT".to_vec(), qual: Some(vec![40; 6]) },
                ],
            },
            ServeMessage::Corrected {
                request_id: 7,
                reads: vec![Read::new("r1", b"ACGAACGT")],
                bases_changed: 1,
                reads_changed: 1,
            },
            ServeMessage::Overloaded { request_id: 9, queue_capacity: 64 },
            ServeMessage::DeadlineExceeded { request_id: 10 },
            ServeMessage::Draining { request_id: 11 },
            ServeMessage::RequestError { request_id: 12, message: "too many reads".into() },
            ServeMessage::Ping { request_id: 13 },
            ServeMessage::Pong { request_id: 13, k: 15, distinct_kmers: 123_456 },
            ServeMessage::Stats { request_id: 14 },
            sample_stats_reply(),
        ]
    }

    fn sample_stats_reply() -> ServeMessage {
        ServeMessage::StatsReply {
            request_id: 14,
            queue_depth: 3,
            queue_capacity: 64,
            in_flight: 2,
            conn_errors: 1,
            latency_p50_us: 4_100,
            latency_p90_us: 8_200,
            latency_p99_us: 16_400,
            queue_wait_p50_us: 120,
            queue_wait_p90_us: 900,
            queue_wait_p99_us: 4_000,
            rss_bytes: 48 << 20,
            uptime_ms: 90_000,
            cpu_top: vec![("reptile.correct".into(), 812), ("serve.admit".into(), 44)],
        }
    }

    #[test]
    fn messages_round_trip_through_frames() {
        for msg in sample_messages() {
            let mut wire = Vec::new();
            msg.write_to(&mut wire).expect("write");
            let mut cur = Cursor::new(wire.as_slice());
            assert_eq!(ServeMessage::read_from(&mut cur).expect("read"), msg);
            assert_eq!(ServeMessage::read_from(&mut cur), Err(ProtocolError::Closed));
            assert_eq!(
                msg.request_id(),
                ServeMessage::from_payload(&msg.to_payload()).unwrap().request_id()
            );
        }
    }

    #[test]
    fn borrowed_correct_frame_matches_the_owned_message() {
        let with_qual = sample_messages().swap_remove(0);
        let without_qual = ServeMessage::Correct {
            request_id: 8,
            deadline_ms: 0,
            reads: vec![Read::new("r1", b"ACGTACGT"), Read::new("r2", b"TTGCA")],
        };
        let empty = ServeMessage::Correct { request_id: 9, deadline_ms: 5, reads: vec![] };
        for msg in [with_qual, without_qual, empty] {
            let ServeMessage::Correct { request_id, deadline_ms, reads } = &msg else {
                unreachable!()
            };
            let mut payload = Vec::new();
            encode_correct(*request_id, *deadline_ms, reads, &mut payload);
            assert_eq!(encode_frame(&payload), encode_frame(&msg.to_payload()), "{msg:?}");
        }
    }

    #[test]
    fn pool_tags_are_not_serving_messages() {
        // A worker-pool Drain frame (tag 7) must not decode as serving.
        let pool = mapreduce_lite::Message::Drain.to_payload();
        assert_eq!(ServeMessage::from_payload(&pool), Err(ProtocolError::Malformed));
        // And a serving Ping must not decode as a pool message.
        let serve = ServeMessage::Ping { request_id: 1 }.to_payload();
        assert_eq!(mapreduce_lite::Message::from_payload(&serve), Err(ProtocolError::Malformed));
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut payload = ServeMessage::Ping { request_id: 3 }.to_payload();
        payload.push(0);
        assert_eq!(ServeMessage::from_payload(&payload), Err(ProtocolError::Malformed));
        assert_eq!(ServeMessage::from_payload(&[]), Err(ProtocolError::Malformed));
        assert_eq!(ServeMessage::from_payload(&[200]), Err(ProtocolError::Malformed));
    }

    #[test]
    fn stats_truncation_at_every_offset_is_typed_never_silent() {
        use mapreduce_lite::protocol::{encode_frame, read_frame};
        for msg in [ServeMessage::Stats { request_id: 14 }, sample_stats_reply()] {
            let wire = encode_frame(&msg.to_payload());
            for cut in 0..wire.len() {
                let mut cur = Cursor::new(&wire[..cut]);
                let got = read_frame(&mut cur);
                let expect = if cut == 0 { ProtocolError::Closed } else { ProtocolError::Torn };
                assert_eq!(got, Err(expect), "cut at {cut}");
            }
            // Payload-level truncation (torn before the checksum was
            // written) is Malformed, never a partial snapshot.
            let payload = msg.to_payload();
            for cut in 0..payload.len() {
                assert_eq!(
                    ServeMessage::from_payload(&payload[..cut]),
                    Err(ProtocolError::Malformed),
                    "payload cut at {cut}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn stats_frames_reject_every_single_bit_flip(
            flip_byte in 0usize..200,
            flip_bit in 0u8..8,
        ) {
            use mapreduce_lite::protocol::encode_frame;
            let reply = sample_stats_reply();
            let mut wire = encode_frame(&reply.to_payload());
            let idx = flip_byte % wire.len();
            wire[idx] ^= 1 << flip_bit;
            let mut cur = Cursor::new(wire.as_slice());
            // Magic, length, checksum or payload — a flipped bit must never
            // surface as a different-but-valid snapshot.
            if let Ok(got) = ServeMessage::read_from(&mut cur) {
                prop_assert_eq!(got, reply, "corruption passed verification");
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            junk in proptest::collection::vec(any::<u8>(), 0..500),
        ) {
            let _ = ServeMessage::from_payload(&junk);
        }

        #[test]
        fn truncation_is_always_detected(cut_frac in 0.0f64..1.0) {
            let msg = &sample_messages()[0];
            let payload = msg.to_payload();
            let cut = ((payload.len() as f64) * cut_frac) as usize;
            if cut < payload.len() {
                prop_assert!(ServeMessage::from_payload(&payload[..cut]).is_err());
            }
        }
    }
}
