//! Byte-level fuzzing of the parsers that read untrusted bytes: the
//! FASTQ/FASTA readers, the MRW1 decoders (task frames and the worker
//! protocol), the fault plan a worker gets in its `Setup`, the checkpoint
//! manifest, the JSONL trace reader and the `BENCH_*.json` report readers.
//! Valid encodings are mutated — bytes substituted, the buffer truncated,
//! the formats' own delimiters `@+>\n\r` inserted — and every mutant must
//! decode to `Ok`, a typed `Err`, a checkpoint miss or a `None` plan, never
//! a panic.

use mapreduce_lite::codec::{decode_all, decode_frames, encode_all, encode_frames};
use mapreduce_lite::protocol::read_frame;
use mapreduce_lite::{FaultKind, FaultPlan, Message, Stage};
use ngs_core::Read;
use ngs_durable::{CheckpointStore, Fingerprint};
use ngs_observe::traceview::{check_well_formed, parse_jsonl};
use ngs_observe::{
    parse_bench_report, validate_bench_invariants, Collector, SpanId, TraceEvent, TraceEventKind,
    Tracer,
};
use ngs_seqio::{read_fasta, read_fastq, write_fasta, write_fastq};
use proptest::prelude::*;

/// The delimiter bytes of FASTQ (`@`, `+`), FASTA (`>`) and both line
/// endings.
const DELIMITERS: &[u8] = b"@+>\n\r";

/// One edit of a byte buffer. Positions are taken modulo the length, so
/// every edit applies to every buffer.
#[derive(Debug, Clone)]
enum Mutation {
    Substitute { at: usize, byte: u8 },
    Truncate { at: usize },
    Insert { at: usize, byte: u8 },
}

fn delimiter() -> impl Strategy<Value = u8> {
    (0..DELIMITERS.len()).prop_map(|i| DELIMITERS[i])
}

/// Substitutions draw any byte or a delimiter; insertions a delimiter.
fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Substitute { at, byte }),
        (any::<usize>(), delimiter()).prop_map(|(at, byte)| Mutation::Substitute { at, byte }),
        any::<usize>().prop_map(|at| Mutation::Truncate { at }),
        (any::<usize>(), delimiter()).prop_map(|(at, byte)| Mutation::Insert { at, byte }),
    ]
}

fn mutate(mut bytes: Vec<u8>, edits: &[Mutation]) -> Vec<u8> {
    for edit in edits {
        let n = bytes.len();
        match *edit {
            Mutation::Substitute { at, byte } if n > 0 => bytes[at % n] = byte,
            Mutation::Substitute { .. } => {}
            Mutation::Truncate { at } => bytes.truncate(at % (n + 1)),
            Mutation::Insert { at, byte } => bytes.insert(at % (n + 1), byte),
        }
    }
    bytes
}

/// A handful of reads with N bases, empty sequences and odd ids included.
fn reads() -> impl Strategy<Value = Vec<Read>> {
    let base = (0..5usize).prop_map(|i| b"ACGTN"[i]);
    let read = (proptest::collection::vec(base, 0..40), 0u8..42).prop_map(|(seq, q)| {
        let qual = vec![33 + q; seq.len()];
        (seq, qual)
    });
    proptest::collection::vec(read, 0..6).prop_map(|rs| {
        rs.into_iter()
            .enumerate()
            .map(|(i, (seq, qual))| Read::with_qual(format!("r{i} x"), seq, qual))
            .collect()
    })
}

/// One message of every worker-protocol kind, with small varied contents.
fn messages(seed: u64, bytes: &[u8]) -> Vec<Message> {
    let trace = vec![TraceEvent {
        kind: TraceEventKind::Begin,
        seq: seed % 5,
        id: SpanId::from_u64(seed | 1),
        parent: SpanId::from_u64(0),
        name: "worker.task".to_string(),
        detail: format!("attempt={}", seed % 3),
        thread: 1,
        ts_ns: seed,
        pid: 7,
    }];
    let (stage, task, attempt) = ((seed % 3) as u8, seed >> 8, (seed % 4) as u32);
    vec![
        Message::Hello { worker_id: seed, pid: seed >> 1, now_ns: seed >> 2 },
        Message::Setup {
            job: seed,
            spec: "wordcount".to_string(),
            spec_bytes: bytes.to_vec(),
            parts: seed % 9,
            fault_plan: bytes.to_vec(),
            heartbeat_ms: 50,
            traced: seed.is_multiple_of(2),
            profile_mem: seed.is_multiple_of(3),
            clock_offset_ns: seed as i64,
        },
        Message::Task { stage, task, attempt, trace_span: seed ^ 7, input: bytes.to_vec() },
        Message::Done {
            job: seed,
            stage,
            task,
            attempt,
            emitted: seed % 11,
            combined: seed % 7,
            groups: seed % 5,
            busy_ns: seed,
            cpu_ns: seed >> 3,
            output: vec![bytes.to_vec(), Vec::new()],
            trace: trace.clone(),
        },
        Message::Failed {
            job: seed,
            stage,
            task,
            attempt,
            error: "boom".to_string(),
            trace: trace.clone(),
        },
        Message::Heartbeat {
            worker_id: seed,
            rss_bytes: seed,
            peak_alloc_bytes: 0,
            alloc_count: 3,
        },
        Message::Drain,
        Message::TraceFlush { worker_id: seed, trace },
    ]
}

/// A checkpoint directory holding a manifest over two saved stages.
fn checkpoint_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ngs_fuzz_manifest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let c = Collector::new();
    let mut store = CheckpointStore::open(&dir, "fuzz", Fingerprint::of_bytes(b"in"), &c).unwrap();
    store.save("reptile.index", 7, b"tile table bytes").unwrap();
    store.save("closet.edges", 9, b"edge list").unwrap();
    dir
}

/// A JSONL trace with nested spans, an instant and escaped names.
fn trace_jsonl(seed: u64) -> String {
    let tracer = Tracer::new();
    let outer = tracer.begin("pipeline");
    let inner = tracer.begin_under_detail(&format!("stage\"{}\n", seed % 7), outer, "d=1");
    tracer.instant("mark", &format!("i={seed}"));
    tracer.end(inner);
    tracer.end(outer);
    tracer.to_jsonl()
}

/// A `BENCH_*.json` report with spans, counters and a gauge.
fn bench_report(seed: u64) -> String {
    let c = Collector::new();
    c.record_span_ns("p.build", 1_000 + seed % 1_000, 2);
    c.record_span_ns("p.build", 3_000, 4);
    c.record_span_ns("p.correct", seed % 5_000, 1);
    c.add("p.records", seed % 100);
    c.gauge("p.threshold", (seed % 10) as f64 / 4.0);
    c.report("fuzz").to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fastq_reader_types_every_mutant(
        reads in reads(),
        edits in proptest::collection::vec(mutation(), 1..6),
    ) {
        let mut bytes = Vec::new();
        write_fastq(&mut bytes, &reads).unwrap();
        let mutant = mutate(bytes, &edits);
        let _ = read_fastq(&mutant[..]);
    }

    #[test]
    fn fasta_reader_types_every_mutant(
        reads in reads(),
        width in 1usize..80,
        edits in proptest::collection::vec(mutation(), 1..6),
    ) {
        let mut bytes = Vec::new();
        write_fasta(&mut bytes, &reads, width).unwrap();
        let mutant = mutate(bytes, &edits);
        let _ = read_fasta(&mutant[..]);
    }

    #[test]
    fn spill_frames_type_every_mutant(
        keys in proptest::collection::vec((0u64..1000, any::<u64>()), 0..20),
        edits in proptest::collection::vec(mutation(), 1..6),
    ) {
        let items: Vec<(String, u64)> =
            keys.iter().map(|&(k, v)| (format!("k{k}"), v)).collect();
        let _ = decode_frames::<(String, u64)>(&mutate(encode_frames(&items), &edits));
        // The record decoder behind the checksum.
        let _ = decode_all::<(String, u64)>(&mutate(encode_all(&items), &edits));
    }

    #[test]
    fn protocol_frames_type_every_mutant(
        seed in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        edits in proptest::collection::vec(mutation(), 1..6),
    ) {
        let frames: Vec<Vec<u8>> =
            messages(seed, &bytes).iter().map(Message::to_frame).collect();
        // The outer frames: magic, length, checksum. Frame by frame until
        // the stream ends or breaks.
        let mutant = mutate(frames.concat(), &edits);
        let mut rest = &mutant[..];
        while let Ok(frame) = read_frame(&mut rest) {
            let _ = Message::from_payload(&frame);
        }
        // The message decoder behind the checksum.
        for frame in &frames {
            let payload = read_frame(&mut &frame[..]).unwrap();
            let _ = Message::from_payload(&mutate(payload, &edits));
        }
    }

    #[test]
    fn fault_plan_decoder_types_every_mutant(
        seed in any::<u64>(),
        p in 0.0f64..=1.0,
        seeded in any::<bool>(),
        edits in proptest::collection::vec(mutation(), 1..6),
    ) {
        let base = if seeded { FaultPlan::seeded(seed, p) } else { FaultPlan::none() };
        let plan = base
            .with_fault(Stage::Map, (seed % 7) as usize, 0, FaultKind::Panic)
            .with_fault(Stage::Shuffle, 1, (seed % 3) as u32, FaultKind::StallHeartbeat)
            .with_fault(Stage::Reduce, 2, 1, FaultKind::CorruptFrame);
        // A mutant decodes to a plan or to `None`; it never panics.
        if let Some(back) = FaultPlan::from_bytes(&mutate(plan.to_bytes(), &edits)) {
            let _ = back.fault_for(Stage::Map, 0, 0);
        }
    }

    #[test]
    fn checkpoint_manifest_misses_on_every_mutant(
        edits in proptest::collection::vec(mutation(), 1..6),
    ) {
        let dir = checkpoint_dir();
        let manifest = dir.join("MANIFEST");
        let bytes = std::fs::read(&manifest).unwrap();
        std::fs::write(&manifest, mutate(bytes, &edits)).unwrap();
        let c = Collector::new();
        let store = CheckpointStore::open(&dir, "fuzz", Fingerprint::of_bytes(b"in"), &c).unwrap();
        // A surviving stage still loads its own, verified bytes.
        if let Some(bytes) = store.load("reptile.index", 7) {
            prop_assert_eq!(&bytes[..], &b"tile table bytes"[..]);
        }
        if let Some(bytes) = store.load("closet.edges", 9) {
            prop_assert_eq!(&bytes[..], &b"edge list"[..]);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn trace_reader_types_every_mutant(
        seed in any::<u64>(),
        edits in proptest::collection::vec(mutation(), 1..6),
    ) {
        let mutant = mutate(trace_jsonl(seed).into_bytes(), &edits);
        if let Ok(trace) = parse_jsonl(&String::from_utf8_lossy(&mutant)) {
            let _ = check_well_formed(&trace);
        }
    }

    #[test]
    fn bench_report_readers_type_every_mutant(
        seed in any::<u64>(),
        edits in proptest::collection::vec(mutation(), 1..6),
    ) {
        let mutant = mutate(bench_report(seed).into_bytes(), &edits);
        let text = String::from_utf8_lossy(&mutant);
        let _ = parse_bench_report(&text);
        let _ = validate_bench_invariants(&text);
    }
}
