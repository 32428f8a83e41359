//! Differential tests: the byte-line reader and the block writer against
//! the line-based [`super::reference`] implementation they replaced. Both
//! readers see the same bytes — valid records in every shape the format
//! allows, and mutants of them — and must agree on every item, on
//! `skipped_records()` and on `bytes_read()`, under every policy; both
//! writers must produce the same bytes.

use super::reference;
use crate::MalformedPolicy;
use ngs_core::{Read, Result};
use proptest::prelude::*;

/// Ids: plain, with spaces, non-ASCII, with trailing Unicode whitespace
/// (trimmed away by the reader), empty, and made of the delimiters.
const IDS: &[&str] =
    &["r0", "read 1/1", "φ-read", "读取", "r\u{a0}", "r\u{2003}x", "", "@@", "r+1", "x\t"];

/// Line endings, each with the whitespace `str::trim_end` removes before
/// it: ASCII (vertical tab and form feed included) and Unicode.
const ENDINGS: &[&str] = &[
    "\n",
    "\r\n",
    " \n",
    "\t\r\n",
    "\u{b}\n",
    "\u{c}\n",
    "\u{85}\n",
    "\u{a0}\n",
    "\u{2003}\r\n",
    "\u{3000}\n",
];

/// Bytes that are never valid UTF-8 where they are inserted into ASCII: a
/// continuation byte, lead bytes without their continuation, and bytes
/// UTF-8 never uses.
const NOT_UTF8: &[u8] = &[0x80, 0xbf, 0xc3, 0xe2, 0xf0, 0xfe, 0xff];

/// The delimiters of FASTQ and both line endings, as in `tests/byte_fuzz.rs`.
const DELIMITERS: &[u8] = b"@+\n\r";

/// One record before rendering.
#[derive(Debug, Clone)]
struct Spec {
    id: usize,
    /// Indices into `ACGTNacgtn`: N bases and lowercase included.
    seq: Vec<u8>,
    /// Base quality; position `j` gets `(base + j) % 94`, so `'!'` and `'~'`
    /// both occur.
    qual: u8,
    /// Rendering choices: bits 0–15 pick the four lines' endings; bit 16 a
    /// blank line before the record, bit 17 the id repeated after `'+'`,
    /// bit 18 no newline after the last record's qualities, bits 19–20 a non-UTF-8 byte in the
    /// sequence or quality line.
    layout: u32,
}

fn spec() -> impl Strategy<Value = Spec> {
    (0..IDS.len(), proptest::collection::vec(0u8..10, 0..40), 0u8..94, any::<u32>())
        .prop_map(|(id, seq, qual, layout)| Spec { id, seq, qual, layout })
}

fn render(specs: &[Spec]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let ending = |line: u32| ENDINGS[(s.layout >> (4 * line)) as usize % 16 % ENDINGS.len()];
        let bit = |b: u32| s.layout >> b & 1 == 1;
        let bad = NOT_UTF8[s.layout as usize % NOT_UTF8.len()];
        if bit(16) {
            out.extend_from_slice(ending(0).as_bytes());
        }
        out.push(b'@');
        out.extend_from_slice(IDS[s.id].as_bytes());
        out.extend_from_slice(ending(0).as_bytes());
        let mut seq: Vec<u8> = s.seq.iter().map(|&b| b"ACGTNacgtn"[b as usize]).collect();
        if bit(19) {
            seq.insert(seq.len() / 2, bad);
        }
        out.extend_from_slice(&seq);
        out.extend_from_slice(ending(1).as_bytes());
        out.push(b'+');
        if bit(17) {
            out.extend_from_slice(IDS[s.id].as_bytes());
        }
        out.extend_from_slice(ending(2).as_bytes());
        let mut qual: Vec<u8> =
            (0..s.seq.len()).map(|j| 33 + (s.qual as usize + j) as u8 % 94).collect();
        if bit(20) {
            qual.insert(qual.len() / 2, bad);
        }
        out.extend_from_slice(&qual);
        // An empty quality line needs its newline: at EOF it is missing.
        if !(bit(18) && i + 1 == specs.len() && !qual.is_empty()) {
            out.extend_from_slice(ending(3).as_bytes());
        }
    }
    out
}

/// One edit of the rendered bytes, as in `tests/byte_fuzz.rs`, plus
/// insertions of bytes that break UTF-8. Positions are taken modulo the
/// length, so every edit applies to every buffer.
#[derive(Debug, Clone)]
enum Mutation {
    Substitute { at: usize, byte: u8 },
    Truncate { at: usize },
    Insert { at: usize, byte: u8 },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let delimiter = (0..DELIMITERS.len()).prop_map(|i| DELIMITERS[i]);
    let not_utf8 = (0..NOT_UTF8.len()).prop_map(|i| NOT_UTF8[i]);
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Substitute { at, byte }),
        any::<usize>().prop_map(|at| Mutation::Truncate { at }),
        (any::<usize>(), delimiter).prop_map(|(at, byte)| Mutation::Insert { at, byte }),
        (any::<usize>(), not_utf8).prop_map(|(at, byte)| Mutation::Insert { at, byte }),
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

/// A source that hands out its bytes a few at a time, so lines straddle
/// the reader's buffer refills.
struct Trickle<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    reads: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = want.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Every item a reader yields with the counters after it, then the
/// counters at the end. Capped, though every item consumes input.
type Trace = (Vec<(Result<Read>, u64, usize)>, u64, usize);

const POLICIES: [MalformedPolicy; 4] = [
    MalformedPolicy::FailFast,
    MalformedPolicy::Skip { max: 0 },
    MalformedPolicy::Skip { max: 1 },
    MalformedPolicy::Skip { max: 3 },
];

macro_rules! trace {
    ($reader:expr) => {{
        let mut reader = $reader;
        let mut items = Vec::new();
        while let Some(item) = reader.next() {
            items.push((item, reader.bytes_read(), reader.skipped_records()));
            assert!(items.len() < 10_000, "reader does not advance");
        }
        let trace: Trace = (items, reader.bytes_read(), reader.skipped_records());
        trace
    }};
}

fn check_reader(data: &[u8], sizes: &[usize]) -> std::result::Result<(), TestCaseError> {
    for policy in POLICIES {
        let want = trace!(reference::FastqReader::with_policy(data, policy));
        let got = trace!(super::FastqReader::with_policy(data, policy));
        prop_assert_eq!(&got, &want, "{:?} on {:?}", policy, String::from_utf8_lossy(data));
        let trickled =
            trace!(super::FastqReader::with_policy(Trickle { data, sizes, reads: 0 }, policy));
        prop_assert_eq!(&trickled, &want, "{:?}, trickled {:?}", policy, sizes);
    }
    let want = trace!(reference::FastqReader::new(data));
    prop_assert_eq!(trace!(super::FastqReader::new(data)), want);
    Ok(())
}

/// Reads for the writers: any id, any sequence bytes, qualities absent,
/// in range, above 93, or of another length than the sequence.
fn writer_reads() -> impl Strategy<Value = Vec<Read>> {
    let qual = prop_oneof![
        Just(None),
        proptest::collection::vec(0u8..94, 0..40).prop_map(Some),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Some),
    ];
    let read = (0..IDS.len(), proptest::collection::vec(any::<u8>(), 0..40), qual, any::<bool>())
        .prop_map(|(id, seq, qual, fit)| {
            // Mostly one score per base, as a parsed read has.
            let qual = qual.map(|mut q: Vec<u8>| {
                if fit {
                    q.resize(seq.len(), 93);
                }
                q
            });
            Read { id: IDS[id].to_string(), seq, qual }
        });
    proptest::collection::vec(read, 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reader_matches_reference_on_valid_records(
        specs in proptest::collection::vec(spec(), 0..6),
        sizes in proptest::collection::vec(1usize..9, 1..4),
    ) {
        // Without the non-UTF-8 bits, every rendering is a valid file.
        let valid: Vec<Spec> =
            specs.into_iter().map(|s| Spec { layout: s.layout & !(3 << 19), ..s }).collect();
        let data = render(&valid);
        let reads = super::read_fastq(&data[..]);
        prop_assert!(reads.as_ref().is_ok_and(|r| r.len() == valid.len()), "{:?}", reads);
        check_reader(&data, &sizes)?;
    }

    #[test]
    fn reader_matches_reference_on_mutants(
        specs in proptest::collection::vec(spec(), 1..6),
        edits in proptest::collection::vec(mutation(), 0..4),
        sizes in proptest::collection::vec(1usize..9, 1..4),
    ) {
        check_reader(&mutate(render(&specs), &edits), &sizes)?;
    }

    #[test]
    fn writer_matches_reference(reads in writer_reads()) {
        let mut want = Vec::new();
        reference::write_fastq(&mut want, &reads).unwrap();
        let mut got = Vec::new();
        super::write_fastq(&mut got, &reads).unwrap();
        prop_assert_eq!(got, want);
    }
}

#[test]
fn writer_matches_reference_across_blocks() {
    // About 2 MB: many writer blocks, the last one partial.
    let reads: Vec<Read> = (0..10_000)
        .map(|i| {
            let seq: Vec<u8> = (0..100 + i % 7).map(|j| b"ACGTN"[(i * 31 + j) % 5]).collect();
            let qual =
                (i % 3 != 0).then(|| (0..seq.len()).map(|j| ((i + j) % 120) as u8).collect());
            Read { id: format!("read_{i} len={}", seq.len()), seq, qual }
        })
        .collect();
    let mut want = Vec::new();
    let mut w = reference::FastqWriter::new(&mut want);
    for r in &reads {
        w.write_record(r).unwrap();
    }
    w.flush().unwrap();
    let mut got = Vec::new();
    super::write_fastq(&mut got, &reads).unwrap();
    assert!(got.len() > 8 * super::WRITE_BLOCK_BYTES);
    assert!(got == want, "block writer output differs from the reference");
    // Records written without a final flush reach the sink when the
    // writer is dropped.
    let mut dropped = Vec::new();
    let mut w = super::FastqWriter::new(&mut dropped);
    for r in &reads {
        w.write_record(r).unwrap();
    }
    drop(w);
    assert!(dropped == want, "dropping the writer lost buffered records");
}
