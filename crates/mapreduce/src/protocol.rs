//! Wire protocol between the pool driver and its worker processes.
//!
//! Everything on the socket is an *outer frame*:
//!
//! ```text
//! [magic "MRW1" 4B][payload_len u64 LE][checksum(payload) u64 LE][payload]
//! ```
//!
//! (the checksum is [`crate::codec::checksum`], word-wise and four lanes
//! wide) and every payload is one [`Message`], tag byte + [`Codec`]-encoded
//! fields. The outer checksum makes torn writes from a SIGKILLed worker
//! detectable at the transport (the driver sees [`ProtocolError::Torn`]
//! or [`ProtocolError::ChecksumMismatch`], never half a message), while
//! the task *data* carried inside `Task`/`Done` payloads is itself a
//! sequence of inner checksummed frames ([`crate::codec::encode_frames`])
//! so corruption introduced after the outer frame was built — or by a
//! fault plan — is still caught before any record is trusted.
//!
//! A connection carries one worker's whole life in a
//! [`crate::PoolSession`]: `Hello`, then for every job of the session a
//! `Setup` followed by that job's `Task`s — each answered by a `Done` or
//! `Failed` stamped with the job's number —, then `Drain` (answered by a
//! `TraceFlush` when there is something to flush); `Heartbeat`s run
//! alongside from the first `Setup` on:
//!
//! ```text
//! Hello → (Setup → Task*)* → Drain
//! ```
//!
//! Decoding is total: any byte sequence yields either a message or a
//! typed [`ProtocolError`]; no input panics or silently short-reads.

use crate::codec::{checksum, sealed, Codec, SEAL_LEN};
use ngs_observe::trace::{SpanId, TraceEvent, TraceEventKind};
use std::io::{Read, Write};

/// Outer-frame magic. Version-bump the last byte on layout changes so a
/// stale worker binary fails its first frame instead of mis-decoding.
pub const PROTO_MAGIC: [u8; 4] = *b"MRW1";

/// Outer-frame header length: magic + payload length + checksum.
pub const HEADER_LEN: usize = 4 + SEAL_LEN;

/// Upper bound on one frame's payload (1 GiB). A length field above this
/// is treated as corruption, not as a huge allocation request.
pub const MAX_FRAME_LEN: u64 = 1 << 30;

/// [`read_frame`] reserves at most this much before payload bytes arrive;
/// past it the payload grows as they do.
const PAYLOAD_PREALLOC: usize = 64 * 1024;

/// Why a frame could not be read or a message could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Clean end-of-stream on a frame boundary (the peer closed the
    /// socket between messages). Orderly; not corruption.
    Closed,
    /// End-of-stream mid-frame: the peer died while writing. The frame —
    /// and the task attempt that produced it — must be discarded.
    Torn,
    /// Structurally invalid bytes (bad magic, bad message tag, trailing
    /// garbage after a message).
    Malformed,
    /// The length field exceeds [`MAX_FRAME_LEN`].
    TooLarge(u64),
    /// The payload hash does not match the header checksum.
    ChecksumMismatch,
    /// An underlying I/O error other than EOF.
    Io(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Closed => f.write_str("connection closed"),
            ProtocolError::Torn => f.write_str("torn frame: peer died mid-write"),
            ProtocolError::Malformed => f.write_str("malformed protocol frame"),
            ProtocolError::TooLarge(n) => write!(f, "frame length {n} exceeds cap"),
            ProtocolError::ChecksumMismatch => f.write_str("frame checksum mismatch"),
            ProtocolError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Build a complete outer frame around the payload `body` appends.
fn build_frame(body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = PROTO_MAGIC.to_vec();
    sealed(&mut out, body);
    out
}

/// Encode one payload as a complete outer frame (header + payload).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    build_frame(|out| out.extend_from_slice(payload))
}

/// The complete outer frame of a [`Message::Task`], from a borrowed input:
/// the driver keeps each task's input for retries and frames it straight
/// from there, lease after lease.
pub fn task_frame(stage: u8, task: u64, attempt: u32, trace_span: u64, input: &[u8]) -> Vec<u8> {
    build_frame(|out| encode_task(stage, task, attempt, trace_span, input, out))
}

fn encode_task(
    stage: u8,
    task: u64,
    attempt: u32,
    trace_span: u64,
    input: &[u8],
    out: &mut Vec<u8>,
) {
    out.push(TAG_TASK);
    (stage, task, attempt).encode(out);
    trace_span.encode(out);
    (input.len() as u32).encode(out);
    out.extend_from_slice(input);
}

fn io_error(e: std::io::Error) -> ProtocolError {
    ProtocolError::Io(e.to_string())
}

/// Read until `buf` is full or EOF; returns the bytes actually read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e.to_string())),
        }
    }
    Ok(filled)
}

/// Read one frame, verifying structure and checksum. EOF exactly on a
/// frame boundary is [`ProtocolError::Closed`]; EOF anywhere inside a
/// frame is [`ProtocolError::Torn`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    let got = read_full(r, &mut header)?;
    if got == 0 {
        return Err(ProtocolError::Closed);
    }
    if got < HEADER_LEN {
        return Err(ProtocolError::Torn);
    }
    if header[..4] != PROTO_MAGIC {
        return Err(ProtocolError::Malformed);
    }
    let len = u64::from_le_bytes(header[4..12].try_into().expect("fixed slice"));
    let expected = u64::from_le_bytes(header[12..20].try_into().expect("fixed slice"));
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::TooLarge(len));
    }
    // The payload grows only by the bytes that arrive: a header claiming a
    // large frame must not make the reader reserve it up front.
    let mut payload = Vec::with_capacity((len as usize).min(PAYLOAD_PREALLOC));
    r.take(len).read_to_end(&mut payload).map_err(io_error)?;
    if (payload.len() as u64) < len {
        return Err(ProtocolError::Torn);
    }
    if checksum(&payload) != expected {
        return Err(ProtocolError::ChecksumMismatch);
    }
    Ok(payload)
}

/// One message between driver and worker. `stage`/`kind` fields travel as
/// the `u8` wire codes from [`crate::fault`].
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → driver, first frame after connecting: identify yourself.
    Hello {
        /// Pool-assigned worker index (passed on the worker command line).
        worker_id: u64,
        /// The worker's OS pid, so the driver can SIGKILL a stalled one.
        pid: u64,
        /// The worker tracer's monotonic clock at send time, in ns since
        /// its epoch. The driver brackets this with its own receive time to
        /// estimate the clock offset between the two trace timelines.
        now_ns: u64,
    },
    /// Driver → worker: the parameters of one job. Sent after `Hello` and
    /// again, between tasks, whenever the session starts its next job; it
    /// replaces the spec, partition count and fault plan the worker holds.
    Setup {
        /// Sequence number of the job within its session. The worker
        /// stamps every `Done`/`Failed` with it, so a result that outlived
        /// its (failed) job cannot be mistaken for one of the next job's.
        job: u64,
        /// Registry name of the [`crate::executor::MapReduceSpec`] to run.
        spec: String,
        /// Opaque spec payload (the spec's own serialized parameters).
        spec_bytes: Vec<u8>,
        /// Number of reduce partitions (the map-side partitioner modulus).
        parts: u64,
        /// Serialized [`crate::FaultPlan`] ([`crate::FaultPlan::to_bytes`]).
        fault_plan: Vec<u8>,
        /// Interval at which the worker must heartbeat, in milliseconds
        /// (fixed by the first `Setup`: the beacon outlives the job).
        heartbeat_ms: u64,
        /// Whether the driver is tracing: workers record and ship trace
        /// chunks only when set, so un-traced runs pay nothing.
        traced: bool,
        /// Whether the driver profiles memory: workers enable their
        /// tracking allocator and report stats in heartbeats when set.
        profile_mem: bool,
        /// The driver's offset estimate for this worker (ns to add to
        /// worker-local timestamps to land on the driver timeline), echoed
        /// so the worker can annotate its own exports.
        clock_offset_ns: i64,
    },
    /// Driver → worker: run one task attempt.
    Task {
        /// Stage wire code (map 0 / shuffle 1 / reduce 2).
        stage: u8,
        /// Task index within the stage.
        task: u64,
        /// Attempt number (for fault-plan coordinates and tracing).
        attempt: u32,
        /// Driver-side trace span id the attempt belongs to (0 = untraced).
        trace_span: u64,
        /// Stage-specific input: inner-framed records (map input chunk, or
        /// a partition's concatenated map output for shuffle/reduce).
        input: Vec<u8>,
    },
    /// Worker → driver: a task attempt finished.
    Done {
        /// The job the attempt belonged to (see [`Message::Setup`]).
        job: u64,
        stage: u8,
        task: u64,
        attempt: u32,
        /// Records emitted by the mapper (map tasks only).
        emitted: u64,
        /// Records surviving the combiner (map tasks only).
        combined: u64,
        /// Distinct key groups reduced (reduce tasks only).
        groups: u64,
        /// Wall nanoseconds the attempt spent executing.
        busy_ns: u64,
        /// CPU nanoseconds the worker process spent over the attempt (its
        /// process CPU clock, all threads; 0 where the clock is missing).
        cpu_ns: u64,
        /// Stage output: map → one inner-framed buffer per partition;
        /// shuffle/reduce → a single buffer.
        output: Vec<Vec<u8>>,
        /// Trace events the worker recorded during this attempt (drained
        /// from its tracer, so each chunk holds exactly one attempt).
        /// Empty when the run is untraced.
        trace: Vec<TraceEvent>,
    },
    /// Worker → driver: a task attempt failed but the worker is healthy.
    Failed {
        job: u64,
        stage: u8,
        task: u64,
        attempt: u32,
        error: String,
        /// Trace events recorded up to the failure (see [`Message::Done`]).
        trace: Vec<TraceEvent>,
    },
    /// Worker → driver: periodic liveness beacon with the worker's RSS and
    /// (when `--profile-mem` is on) its tracking-allocator stats.
    Heartbeat {
        worker_id: u64,
        rss_bytes: u64,
        /// Peak live bytes per the worker's tracking allocator (0 when
        /// memory profiling is off or the allocator is not installed).
        peak_alloc_bytes: u64,
        /// Total allocation count per the tracking allocator (0 when off).
        alloc_count: u64,
    },
    /// Driver → worker: the session is over; flush, wake the heartbeat
    /// thread and exit 0.
    Drain,
    /// Worker → driver, in response to `Drain` on a traced run: any trace
    /// events still buffered outside a task attempt (e.g. the worker's
    /// drain marker), flushed before the socket closes.
    TraceFlush { worker_id: u64, trace: Vec<TraceEvent> },
}

const TAG_HELLO: u8 = 1;
const TAG_SETUP: u8 = 2;
const TAG_TASK: u8 = 3;
const TAG_DONE: u8 = 4;
const TAG_FAILED: u8 = 5;
const TAG_HEARTBEAT: u8 = 6;
const TAG_DRAIN: u8 = 7;
const TAG_TRACE_FLUSH: u8 = 8;

/// Append the wire encoding of a trace chunk: a count followed by one
/// fixed-shape record per event. Span ids travel as their raw `u64`.
fn encode_trace(trace: &[TraceEvent], out: &mut Vec<u8>) {
    (trace.len() as u32).encode(out);
    for e in trace {
        let kind: u8 = match e.kind {
            TraceEventKind::Begin => 0,
            TraceEventKind::End => 1,
            TraceEventKind::Instant => 2,
        };
        (kind, e.seq, e.id.as_u64()).encode(out);
        e.parent.as_u64().encode(out);
        e.name.encode(out);
        e.detail.encode(out);
        (e.thread, e.ts_ns, e.pid).encode(out);
    }
}

/// Decode a trace chunk written by [`encode_trace`]. `None` on malformed
/// or truncated input (including an unknown event-kind byte).
fn decode_trace(inp: &mut &[u8]) -> Option<Vec<TraceEvent>> {
    let n = u32::decode(inp)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let (kind, seq, id) = <(u8, u64, u64)>::decode(inp)?;
        let kind = match kind {
            0 => TraceEventKind::Begin,
            1 => TraceEventKind::End,
            2 => TraceEventKind::Instant,
            _ => return None,
        };
        let parent = u64::decode(inp)?;
        let name = String::decode(inp)?;
        let detail = String::decode(inp)?;
        let (thread, ts_ns, pid) = <(u64, u64, u32)>::decode(inp)?;
        out.push(TraceEvent {
            kind,
            seq,
            id: SpanId::from_u64(id),
            parent: SpanId::from_u64(parent),
            name,
            detail,
            thread,
            ts_ns,
            pid,
        });
    }
    Some(out)
}

impl Message {
    /// Encode into an outer-frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode as one complete outer frame, the payload written once.
    pub fn to_frame(&self) -> Vec<u8> {
        build_frame(|out| self.encode_into(out))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { worker_id, pid, now_ns } => {
                out.push(TAG_HELLO);
                (*worker_id, *pid, *now_ns).encode(out);
            }
            Message::Setup {
                job,
                spec,
                spec_bytes,
                parts,
                fault_plan,
                heartbeat_ms,
                traced,
                profile_mem,
                clock_offset_ns,
            } => {
                out.push(TAG_SETUP);
                job.encode(out);
                spec.encode(out);
                spec_bytes.encode(out);
                (*parts, *heartbeat_ms).encode(out);
                fault_plan.encode(out);
                (*traced, *profile_mem, *clock_offset_ns).encode(out);
            }
            Message::Task { stage, task, attempt, trace_span, input } => {
                encode_task(*stage, *task, *attempt, *trace_span, input, out);
            }
            Message::Done {
                job,
                stage,
                task,
                attempt,
                emitted,
                combined,
                groups,
                busy_ns,
                cpu_ns,
                output,
                trace,
            } => {
                out.push(TAG_DONE);
                job.encode(out);
                (*stage, *task, *attempt).encode(out);
                (*emitted, *combined, *groups).encode(out);
                (*busy_ns, *cpu_ns).encode(out);
                output.encode(out);
                encode_trace(trace, out);
            }
            Message::Failed { job, stage, task, attempt, error, trace } => {
                out.push(TAG_FAILED);
                job.encode(out);
                (*stage, *task, *attempt).encode(out);
                error.encode(out);
                encode_trace(trace, out);
            }
            Message::Heartbeat { worker_id, rss_bytes, peak_alloc_bytes, alloc_count } => {
                out.push(TAG_HEARTBEAT);
                (*worker_id, *rss_bytes).encode(out);
                (*peak_alloc_bytes, *alloc_count).encode(out);
            }
            Message::Drain => out.push(TAG_DRAIN),
            Message::TraceFlush { worker_id, trace } => {
                out.push(TAG_TRACE_FLUSH);
                worker_id.encode(out);
                encode_trace(trace, out);
            }
        }
    }

    /// Decode an outer-frame payload. The whole payload must be consumed;
    /// trailing bytes are [`ProtocolError::Malformed`].
    pub fn from_payload(payload: &[u8]) -> Result<Message, ProtocolError> {
        let (&tag, mut inp) = payload.split_first().ok_or(ProtocolError::Malformed)?;
        let inp = &mut inp;
        let msg = match tag {
            TAG_HELLO => {
                let (worker_id, pid, now_ns) =
                    <(u64, u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                Message::Hello { worker_id, pid, now_ns }
            }
            TAG_SETUP => {
                let job = u64::decode(inp).ok_or(ProtocolError::Malformed)?;
                let spec = String::decode(inp).ok_or(ProtocolError::Malformed)?;
                let spec_bytes = Vec::<u8>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let (parts, heartbeat_ms) =
                    <(u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let fault_plan = Vec::<u8>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let (traced, profile_mem, clock_offset_ns) =
                    <(bool, bool, i64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                Message::Setup {
                    job,
                    spec,
                    spec_bytes,
                    parts,
                    fault_plan,
                    heartbeat_ms,
                    traced,
                    profile_mem,
                    clock_offset_ns,
                }
            }
            TAG_TASK => {
                let (stage, task, attempt) =
                    <(u8, u64, u32)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let trace_span = u64::decode(inp).ok_or(ProtocolError::Malformed)?;
                let input = Vec::<u8>::decode(inp).ok_or(ProtocolError::Malformed)?;
                Message::Task { stage, task, attempt, trace_span, input }
            }
            TAG_DONE => {
                let job = u64::decode(inp).ok_or(ProtocolError::Malformed)?;
                let (stage, task, attempt) =
                    <(u8, u64, u32)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let (emitted, combined, groups) =
                    <(u64, u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let (busy_ns, cpu_ns) =
                    <(u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let output = Vec::<Vec<u8>>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let trace = decode_trace(inp).ok_or(ProtocolError::Malformed)?;
                Message::Done {
                    job,
                    stage,
                    task,
                    attempt,
                    emitted,
                    combined,
                    groups,
                    busy_ns,
                    cpu_ns,
                    output,
                    trace,
                }
            }
            TAG_FAILED => {
                let job = u64::decode(inp).ok_or(ProtocolError::Malformed)?;
                let (stage, task, attempt) =
                    <(u8, u64, u32)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let error = String::decode(inp).ok_or(ProtocolError::Malformed)?;
                let trace = decode_trace(inp).ok_or(ProtocolError::Malformed)?;
                Message::Failed { job, stage, task, attempt, error, trace }
            }
            TAG_HEARTBEAT => {
                let (worker_id, rss_bytes) =
                    <(u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                let (peak_alloc_bytes, alloc_count) =
                    <(u64, u64)>::decode(inp).ok_or(ProtocolError::Malformed)?;
                Message::Heartbeat { worker_id, rss_bytes, peak_alloc_bytes, alloc_count }
            }
            TAG_DRAIN => Message::Drain,
            TAG_TRACE_FLUSH => {
                let worker_id = u64::decode(inp).ok_or(ProtocolError::Malformed)?;
                let trace = decode_trace(inp).ok_or(ProtocolError::Malformed)?;
                Message::TraceFlush { worker_id, trace }
            }
            _ => return Err(ProtocolError::Malformed),
        };
        if !inp.is_empty() {
            return Err(ProtocolError::Malformed);
        }
        Ok(msg)
    }
}

/// Read one frame and decode it as a message.
pub fn read_message(r: &mut impl Read) -> Result<Message, ProtocolError> {
    Message::from_payload(&read_frame(r)?)
}

/// Encode and write one message as a single frame, with one `write_all`
/// (one buffer, so a live writer never interleaves with itself; only death
/// can tear a frame).
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), ProtocolError> {
    w.write_all(&msg.to_frame()).map_err(io_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    /// A reader that hands out at most `chunk` bytes per `read` call —
    /// the partial-read behaviour of a real socket.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A small but non-trivial trace chunk: parented spans, an instant,
    /// non-ASCII detail — so the adversarial frame tests chew on the trace
    /// encoding too.
    fn sample_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                kind: TraceEventKind::Begin,
                seq: 1,
                id: SpanId::from_u64(1),
                parent: SpanId::ROOT,
                name: "worker.task".into(),
                detail: "stage=map task=7 attempt=1".into(),
                thread: 3,
                ts_ns: 1_000,
                pid: 31_337,
            },
            TraceEvent {
                kind: TraceEventKind::Instant,
                seq: 2,
                id: SpanId::from_u64(2),
                parent: SpanId::from_u64(1),
                name: "worker.tick".into(),
                detail: "κλειδί".into(),
                thread: 3,
                ts_ns: 1_500,
                pid: 31_337,
            },
            TraceEvent {
                kind: TraceEventKind::End,
                seq: 3,
                id: SpanId::from_u64(1),
                parent: SpanId::ROOT,
                name: String::new(),
                detail: String::new(),
                thread: 3,
                ts_ns: 2_000,
                pid: 31_337,
            },
        ]
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello { worker_id: 3, pid: 4242, now_ns: 123_456_789 },
            Message::Setup {
                job: 3,
                spec: "wordcount".into(),
                spec_bytes: vec![1, 2, 3],
                parts: 8,
                fault_plan: crate::FaultPlan::seeded(5, 0.1).to_bytes(),
                heartbeat_ms: 50,
                traced: true,
                profile_mem: true,
                clock_offset_ns: -987_654,
            },
            Message::Task {
                stage: 0,
                task: 7,
                attempt: 1,
                trace_span: 99,
                input: crate::codec::encode_frames(&[(1u64, 2u32), (3, 4)]),
            },
            Message::Done {
                job: 3,
                stage: 2,
                task: 1,
                attempt: 0,
                emitted: 10,
                combined: 4,
                groups: 3,
                busy_ns: 12345,
                cpu_ns: 23456,
                output: vec![vec![9, 8, 7], vec![], vec![1]],
                trace: sample_trace(),
            },
            Message::Failed {
                job: 3,
                stage: 1,
                task: 0,
                attempt: 2,
                error: "injected".into(),
                trace: sample_trace(),
            },
            Message::Heartbeat {
                worker_id: 1,
                rss_bytes: 1 << 20,
                peak_alloc_bytes: 3 << 20,
                alloc_count: 777,
            },
            Message::Drain,
            Message::TraceFlush { worker_id: 2, trace: sample_trace() },
        ]
    }

    #[test]
    fn messages_round_trip_through_frames() {
        for msg in sample_messages() {
            let mut wire = Vec::new();
            write_message(&mut wire, &msg).expect("write");
            let mut cur = Cursor::new(wire.as_slice());
            assert_eq!(read_message(&mut cur).expect("read"), msg);
            // The stream is now exactly drained: next read is a clean close.
            assert_eq!(read_message(&mut cur), Err(ProtocolError::Closed));
        }
    }

    #[test]
    fn back_to_back_frames_read_in_order() {
        let mut wire = Vec::new();
        for msg in sample_messages() {
            write_message(&mut wire, &msg).expect("write");
        }
        let mut cur = Cursor::new(wire.as_slice());
        for msg in sample_messages() {
            assert_eq!(read_message(&mut cur).expect("read"), msg);
        }
        assert_eq!(read_message(&mut cur), Err(ProtocolError::Closed));
    }

    #[test]
    fn truncation_at_every_offset_is_typed_never_silent() {
        let msg = Message::Task {
            stage: 0,
            task: 3,
            attempt: 0,
            trace_span: 0,
            input: crate::codec::encode_frames(&(0u64..40).collect::<Vec<_>>()),
        };
        let wire = encode_frame(&msg.to_payload());
        for cut in 0..wire.len() {
            let mut cur = Cursor::new(&wire[..cut]);
            let got = read_frame(&mut cur);
            let expect = if cut == 0 { ProtocolError::Closed } else { ProtocolError::Torn };
            assert_eq!(got, Err(expect), "cut at {cut}");
        }
    }

    #[test]
    fn torn_tail_after_complete_frame_is_detected() {
        // A completed frame followed by a half-written one: the reader must
        // deliver the first and flag the second — the SIGKILL-mid-write shape.
        let good =
            Message::Heartbeat { worker_id: 0, rss_bytes: 1, peak_alloc_bytes: 0, alloc_count: 0 };
        let torn = Message::Done {
            job: 0,
            stage: 0,
            task: 0,
            attempt: 0,
            emitted: 5,
            combined: 5,
            groups: 0,
            busy_ns: 1,
            cpu_ns: 1,
            output: vec![vec![0; 64]],
            trace: sample_trace(),
        };
        let mut wire = encode_frame(&good.to_payload());
        let second = encode_frame(&torn.to_payload());
        wire.extend_from_slice(&second[..second.len() / 2]);
        let mut cur = Cursor::new(wire.as_slice());
        assert_eq!(read_message(&mut cur).expect("first frame intact"), good);
        assert_eq!(read_frame(&mut cur), Err(ProtocolError::Torn));
    }

    #[test]
    fn bad_magic_and_oversize_lengths_are_rejected() {
        let mut wire = encode_frame(b"x");
        wire[0] = b'Z';
        assert_eq!(read_frame(&mut Cursor::new(wire.as_slice())), Err(ProtocolError::Malformed));

        let mut wire = encode_frame(b"x");
        wire[4..12].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(wire.as_slice())),
            Err(ProtocolError::TooLarge(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn unknown_tag_and_trailing_garbage_are_malformed() {
        assert_eq!(Message::from_payload(&[200]), Err(ProtocolError::Malformed));
        assert_eq!(Message::from_payload(&[]), Err(ProtocolError::Malformed));
        let mut payload = Message::Drain.to_payload();
        payload.push(0);
        assert_eq!(Message::from_payload(&payload), Err(ProtocolError::Malformed));
    }

    #[test]
    fn trace_chunk_truncation_at_every_offset_is_typed_never_silent() {
        let msg = Message::TraceFlush { worker_id: 9, trace: sample_trace() };
        let wire = encode_frame(&msg.to_payload());
        for cut in 0..wire.len() {
            let mut cur = Cursor::new(&wire[..cut]);
            let got = read_frame(&mut cur);
            let expect = if cut == 0 { ProtocolError::Closed } else { ProtocolError::Torn };
            assert_eq!(got, Err(expect), "cut at {cut}");
        }
        // Payload-level truncation (torn before the checksum was written)
        // is Malformed, never a partial chunk.
        let payload = msg.to_payload();
        for cut in 1..payload.len() {
            assert_eq!(
                Message::from_payload(&payload[..cut]),
                Err(ProtocolError::Malformed),
                "payload cut at {cut}"
            );
        }
    }

    #[test]
    fn trace_chunk_rejects_unknown_event_kind() {
        let payload = Message::TraceFlush { worker_id: 0, trace: sample_trace() }.to_payload();
        // tag(1) + worker_id(8) + count(4) leaves the first event's kind byte.
        let mut bad = payload.clone();
        bad[1 + 8 + 4] = 7;
        assert_eq!(Message::from_payload(&bad), Err(ProtocolError::Malformed));
    }

    proptest! {
        #[test]
        fn frames_survive_partial_reads(
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            chunk in 1usize..17,
        ) {
            let wire = encode_frame(&payload);
            let mut r = Trickle { data: &wire, pos: 0, chunk };
            prop_assert_eq!(read_frame(&mut r), Ok(payload));
        }

        #[test]
        fn bit_flips_never_yield_a_wrong_payload(
            payload in proptest::collection::vec(any::<u8>(), 1..200),
            flip_byte in 0usize..220,
            flip_bit in 0u8..8,
        ) {
            let mut wire = encode_frame(&payload);
            let idx = flip_byte % wire.len();
            wire[idx] ^= 1 << flip_bit;
            // Whatever the flip hit — magic, length, checksum, payload —
            // the reader must either error or return the original bytes
            // (impossible here: one flipped bit always lands somewhere),
            // and must never panic.
            if let Ok(got) = read_frame(&mut Cursor::new(wire.as_slice())) {
                prop_assert_eq!(got, payload, "corruption passed verification");
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            junk in proptest::collection::vec(any::<u8>(), 0..400),
        ) {
            let _ = read_frame(&mut Cursor::new(junk.as_slice()));
            let _ = Message::from_payload(&junk);
        }

        #[test]
        fn split_writes_reassemble(
            msgs_n in 1usize..5,
            chunk in 1usize..9,
        ) {
            let msgs: Vec<Message> = sample_messages().into_iter().cycle().take(msgs_n).collect();
            let mut wire = Vec::new();
            for m in &msgs {
                write_message(&mut wire, m).unwrap();
            }
            let mut r = Trickle { data: &wire, pos: 0, chunk };
            for m in &msgs {
                prop_assert_eq!(&read_message(&mut r).unwrap(), m);
            }
            prop_assert_eq!(read_message(&mut r), Err(ProtocolError::Closed));
        }
    }
}
