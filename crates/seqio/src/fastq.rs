//! FASTQ parsing and serialization (Sanger quality encoding).
//!
//! The reader takes each line as bytes, in place in its `BufReader` when
//! the line lies whole there, and accepts, trims and rejects exactly what
//! `BufRead::read_line` + `str::trim_end` do: a line must be UTF-8, and
//! trailing Unicode whitespace is dropped. A record then costs three
//! allocations — the id, the uppercased sequence and the decoded
//! qualities, each sized exactly. The writer appends whole records to one
//! reused buffer and hands it to the sink in large blocks.

use crate::MalformedPolicy;
use ngs_core::qual::{decode_quals_checked, encode_quals_into, Phred};
use ngs_core::{NgsError, Read, Result};
use std::io::{BufRead, BufReader, Write};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// Read-ahead of the reader's `BufReader`.
const READ_BUF_BYTES: usize = 128 * 1024;

/// The writer hands its buffer to the sink once it holds this many bytes.
const WRITE_BLOCK_BYTES: usize = 128 * 1024;

/// Quality score given to reads written without qualities.
const DEFAULT_QUAL: Phred = Phred(40);

/// The line source of a [`FastqReader`]. A line that lies whole in the
/// `BufReader`'s buffer is read in place and consumed on the next call; one
/// that straddles a refill is gathered into a reused buffer.
struct Lines<R: std::io::Read> {
    inner: BufReader<R>,
    /// The current line when it straddled a refill.
    line: Vec<u8>,
    /// Whether the current line is the front of the `BufReader`'s buffer,
    /// still to be consumed, rather than in `line`.
    in_place: bool,
    /// Bytes of the current line, newline included.
    raw_len: usize,
    /// Bytes of the current line, trailing whitespace trimmed.
    len: usize,
    bytes_read: u64,
}

impl<R: std::io::Read> Lines<R> {
    fn new(source: R) -> Lines<R> {
        Lines {
            inner: BufReader::with_capacity(READ_BUF_BYTES, source),
            line: Vec::new(),
            in_place: false,
            raw_len: 0,
            len: 0,
            bytes_read: 0,
        }
    }

    /// The next line, UTF-8 with trailing whitespace trimmed, or `None` at
    /// EOF. A line that is not UTF-8 is consumed and is an I/O error, and
    /// its bytes are not counted, as under `BufRead::read_line`.
    fn next(&mut self) -> Result<Option<&[u8]>> {
        if std::mem::take(&mut self.in_place) {
            self.inner.consume(self.raw_len);
        }
        let (newline, ascii) = scan_line(self.inner.fill_buf()?);
        let raw = match newline {
            Some(end) => {
                self.in_place = true;
                &self.inner.buffer()[..=end]
            }
            None => {
                self.line.clear();
                if self.inner.read_until(b'\n', &mut self.line)? == 0 {
                    return Ok(None);
                }
                &self.line[..]
            }
        };
        self.raw_len = raw.len();
        self.len = if ascii && newline.is_some() {
            raw.iter().rposition(|&b| !is_ascii_white_space(b)).map_or(0, |i| i + 1)
        } else {
            std::str::from_utf8(raw)
                .map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    )
                })?
                .trim_end()
                .len()
        };
        self.bytes_read += self.raw_len as u64;
        Ok(Some(&raw[..self.len]))
    }

    /// The line last returned by [`Lines::next`].
    fn current(&self) -> &[u8] {
        let raw = if self.in_place { self.inner.buffer() } else { &self.line[..] };
        &raw[..self.len]
    }
}

/// The offset of the first `'\n'` in `buf`, and whether every byte before
/// it (or in `buf`, when there is none) is ASCII. Scans eight bytes at a
/// time: a line is a few dozen bytes, so the bytewise loop would dominate.
fn scan_line(buf: &[u8]) -> (Option<usize>, bool) {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut high = 0u64;
    let mut words = buf.chunks_exact(8);
    for (w, word) in words.by_ref().enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        // The lowest set high bit marks the first zero byte of
        // `word ^ NEWLINES` exactly (only bits above it can be spurious).
        let x = word ^ NEWLINES;
        let found = x.wrapping_sub(ONES) & !x & HIGH;
        if found != 0 {
            let at = found.trailing_zeros() as usize / 8;
            let before = word & ((1u64 << (8 * at)) - 1);
            return (Some(8 * w + at), (high | before) & HIGH == 0);
        }
        high |= word;
    }
    let tail = words.remainder();
    let start = buf.len() - tail.len();
    let newline = tail.iter().position(|&b| b == b'\n');
    let rest = &tail[..newline.unwrap_or(tail.len())];
    (newline.map(|i| start + i), high & HIGH == 0 && rest.is_ascii())
}

/// `char::is_whitespace` on an ASCII byte: tab, line feed, vertical tab,
/// form feed, carriage return and space.
fn is_ascii_white_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// A line [`Lines::next`] returned, as text.
fn text(line: &[u8]) -> &str {
    std::str::from_utf8(line).expect("Lines::next returns only UTF-8 lines")
}

/// Streaming FASTQ reader yielding one [`Read`] per 4-line record.
pub struct FastqReader<R: std::io::Read> {
    lines: Lines<R>,
    record_no: usize,
    policy: MalformedPolicy,
    skipped: usize,
    /// Set while resynchronization has left a header line, already consumed
    /// from the stream, in `lines` for the next parse attempt.
    pending_header: bool,
}

impl<R: std::io::Read> FastqReader<R> {
    /// Wrap a byte source in a FASTQ reader with the default
    /// [`MalformedPolicy::FailFast`].
    pub fn new(source: R) -> FastqReader<R> {
        FastqReader::with_policy(source, MalformedPolicy::default())
    }

    /// Wrap a byte source in a FASTQ reader with an explicit malformed-record
    /// policy.
    pub fn with_policy(source: R, policy: MalformedPolicy) -> FastqReader<R> {
        FastqReader {
            lines: Lines::new(source),
            record_no: 0,
            policy,
            skipped: 0,
            pending_header: false,
        }
    }

    /// How many malformed records have been skipped so far (always 0 under
    /// [`MalformedPolicy::FailFast`]).
    pub fn skipped_records(&self) -> usize {
        self.skipped
    }

    /// Raw bytes consumed from the source so far (newlines included) — the
    /// denominator for throughput/ETA math against the input file size.
    pub fn bytes_read(&self) -> u64 {
        self.lines.bytes_read
    }

    /// Scan forward to the next line starting with `'@'` (the next plausible
    /// record header) and keep it for the next parse attempt. Quality lines
    /// may legitimately start with `'@'`, so this is a heuristic: a wrong
    /// pick parses as another malformed record and consumes another unit of
    /// the skip budget, so a systematically broken file still errors out.
    fn resync(&mut self) -> Result<()> {
        while let Some(l) = self.lines.next()? {
            if l.starts_with(b"@") {
                self.pending_header = true;
                return Ok(());
            }
        }
        Ok(())
    }

    fn next_record(&mut self) -> Result<Option<Read>> {
        loop {
            match self.parse_one() {
                Ok(r) => return Ok(r),
                Err(e) => match self.policy {
                    MalformedPolicy::FailFast => return Err(e),
                    MalformedPolicy::Skip { max } => {
                        if self.skipped >= max {
                            return Err(NgsError::MalformedRecord(format!(
                                "malformed-record skip budget of {max} exhausted; next: {e}"
                            )));
                        }
                        self.skipped += 1;
                        self.resync()?;
                    }
                },
            }
        }
    }

    fn parse_one(&mut self) -> Result<Option<Read>> {
        // Header: one kept by resync, or the next non-blank line.
        let header = if std::mem::take(&mut self.pending_header) {
            self.lines.current()
        } else {
            loop {
                match self.lines.next()? {
                    None => return Ok(None),
                    Some([]) => continue,
                    Some(l) => break l,
                }
            }
        };
        let n = self.record_no;
        self.record_no += 1;
        let id = match header.strip_prefix(b"@") {
            Some(id) => text(id).to_string(),
            None => {
                let header = text(header);
                return Err(NgsError::MalformedRecord(format!(
                    "record {n}: expected '@', got {header:?}"
                )));
            }
        };
        let mut seq = self
            .lines
            .next()?
            .ok_or_else(|| NgsError::MalformedRecord(format!("record {n}: missing sequence")))?
            .to_vec();
        seq.make_ascii_uppercase();
        let plus = self
            .lines
            .next()?
            .ok_or_else(|| NgsError::MalformedRecord(format!("record {n}: missing '+' line")))?;
        if !plus.starts_with(b"+") {
            let plus = text(plus);
            return Err(NgsError::MalformedRecord(format!(
                "record {n}: expected '+', got {plus:?}"
            )));
        }
        let qual_ascii = self
            .lines
            .next()?
            .ok_or_else(|| NgsError::MalformedRecord(format!("record {n}: missing qualities")))?;
        if qual_ascii.len() != seq.len() {
            return Err(NgsError::MalformedRecord(format!(
                "record {n}: sequence length {} != quality length {}",
                seq.len(),
                qual_ascii.len()
            )));
        }
        // Out-of-range quality characters are corruption (truncated or
        // garbage lines), not ultra-low-quality bases — reject rather than
        // clamp, naming the record like the other malformed-input errors.
        let qual = decode_quals_checked(qual_ascii)
            .map_err(|e| NgsError::MalformedRecord(format!("record {n}: {e}")))?;
        Ok(Some(Read { id, seq, qual: Some(qual) }))
    }
}

impl<R: std::io::Read> Iterator for FastqReader<R> {
    type Item = Result<Read>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Read all records from a FASTQ source.
pub fn read_fastq<R: std::io::Read>(source: R) -> Result<Vec<Read>> {
    FastqReader::new(source).collect()
}

/// Read all records under `policy`, returning the reads and the number of
/// malformed records skipped. Ticks the `seqio.bytes_read` /
/// `seqio.records_read` counters on `collector` every
/// [`crate::OBSERVE_FLUSH_RECORDS`] records (and once at the end), so a
/// progress meter polling the collector sees throughput while the read is
/// still in flight.
pub fn read_fastq_observed<R: std::io::Read>(
    source: R,
    policy: MalformedPolicy,
    collector: &ngs_observe::Collector,
) -> Result<(Vec<Read>, usize)> {
    let mut reader = FastqReader::with_policy(source, policy);
    let mut reads = Vec::new();
    let mut flushed_bytes = 0u64;
    let mut flushed_records = 0u64;
    while let Some(r) = reader.next_record()? {
        reads.push(r);
        if reads.len() % crate::OBSERVE_FLUSH_RECORDS == 0 {
            let b = reader.bytes_read();
            collector.add("seqio.bytes_read", b - flushed_bytes);
            collector.add("seqio.records_read", reads.len() as u64 - flushed_records);
            flushed_bytes = b;
            flushed_records = reads.len() as u64;
        }
    }
    collector.add("seqio.bytes_read", reader.bytes_read() - flushed_bytes);
    collector.add("seqio.records_read", reads.len() as u64 - flushed_records);
    Ok((reads, reader.skipped_records()))
}

/// Buffered FASTQ writer: records are appended to one reused buffer, which
/// goes to the sink in blocks of about 128 KiB. [`FastqWriter::flush`]
/// writes the rest; dropping the writer writes it too, ignoring errors, as
/// `BufWriter` does.
pub struct FastqWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> FastqWriter<W> {
    /// Create a FASTQ writer.
    pub fn new(inner: W) -> FastqWriter<W> {
        FastqWriter { inner, buf: Vec::with_capacity(WRITE_BLOCK_BYTES) }
    }

    /// Write one record. Reads without qualities get a uniform Q40 string so
    /// the output stays structurally valid.
    pub fn write_record(&mut self, read: &Read) -> Result<()> {
        let buf = &mut self.buf;
        buf.push(b'@');
        buf.extend_from_slice(read.id.as_bytes());
        buf.push(b'\n');
        buf.extend_from_slice(&read.seq);
        buf.extend_from_slice(b"\n+\n");
        match &read.qual {
            Some(q) => encode_quals_into(q, buf),
            None => buf.resize(buf.len() + read.seq.len(), DEFAULT_QUAL.to_ascii()),
        }
        buf.push(b'\n');
        if buf.len() >= WRITE_BLOCK_BYTES {
            self.write_buf()?;
        }
        Ok(())
    }

    /// Write the buffered records and flush the underlying writer.
    pub fn flush(&mut self) -> Result<()> {
        self.write_buf()?;
        self.inner.flush()?;
        Ok(())
    }

    /// Hand the buffer to the sink and empty it, also when the write fails,
    /// so a failed block is never written twice.
    fn write_buf(&mut self) -> std::io::Result<()> {
        let written = self.inner.write_all(&self.buf);
        self.buf.clear();
        written
    }
}

impl<W: Write> Drop for FastqWriter<W> {
    fn drop(&mut self) {
        let _ = self.write_buf();
    }
}

/// Write all records to a FASTQ sink.
pub fn write_fastq<W: Write>(sink: W, reads: &[Read]) -> Result<()> {
    let mut w = FastqWriter::new(sink);
    for r in reads {
        w.write_record(r)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_observe::Collector;

    #[test]
    fn parses_basic_record() {
        let data = b"@r1\nACGT\n+\nIIII\n@r2\nNN\n+r2\n!~\n";
        let reads = read_fastq(&data[..]).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].id, "r1");
        assert_eq!(reads[0].seq, b"ACGT");
        assert_eq!(reads[0].qual, Some(vec![40, 40, 40, 40]));
        assert_eq!(reads[1].qual, Some(vec![0, 93]));
    }

    #[test]
    fn ascii_white_space_is_char_white_space() {
        for b in 0u8..128 {
            assert_eq!(is_ascii_white_space(b), char::from(b).is_whitespace(), "byte {b:#04x}");
        }
    }

    #[test]
    fn scan_line_matches_bytewise_scan() {
        // Every newline position and every non-ASCII position around the
        // eight-byte word boundaries, and buffers without a newline.
        for len in 0..20 {
            for nl in (0..len).map(Some).chain([None]) {
                for hi in (0..len).map(Some).chain([None]) {
                    let mut buf = vec![b'A'; len];
                    if let Some(i) = hi {
                        buf[i] = 0xc3;
                    }
                    if let Some(i) = nl {
                        buf[i] = b'\n';
                    }
                    let newline = buf.iter().position(|&b| b == b'\n');
                    let ascii = buf[..newline.unwrap_or(len)].is_ascii();
                    assert_eq!(scan_line(&buf), (newline, ascii), "{buf:?}");
                }
            }
        }
    }

    #[test]
    fn length_mismatch_is_error() {
        let data = b"@r1\nACGT\n+\nIII\n";
        assert!(read_fastq(&data[..]).is_err());
    }

    #[test]
    fn missing_plus_is_error() {
        let data = b"@r1\nACGT\nIIII\n";
        assert!(read_fastq(&data[..]).is_err());
    }

    #[test]
    fn truncated_record_is_error() {
        let data = b"@r1\nACGT\n+\n";
        assert!(read_fastq(&data[..]).is_err());
    }

    #[test]
    fn reads_without_qual_get_q40() {
        let r = Read::new("x", b"ACG");
        let mut buf = Vec::new();
        write_fastq(&mut buf, std::slice::from_ref(&r)).unwrap();
        let back = read_fastq(&buf[..]).unwrap();
        assert_eq!(back[0].qual, Some(vec![40, 40, 40]));
    }

    /// Expect a [`NgsError::MalformedRecord`] whose message names the
    /// offending record.
    fn expect_malformed(data: &[u8], record: usize, needle: &str) {
        match read_fastq(data) {
            Err(NgsError::MalformedRecord(msg)) => {
                assert!(
                    msg.contains(&format!("record {record}")),
                    "message must name record {record}: {msg:?}"
                );
                assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
            }
            other => panic!("expected MalformedRecord, got {other:?}"),
        }
    }

    #[test]
    fn crlf_line_endings_parse() {
        let data = b"@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nGG\r\n+\r\nII\r\n";
        let reads = read_fastq(&data[..]).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].seq, b"ACGT");
        assert_eq!(reads[0].qual, Some(vec![40, 40, 40, 40]));
        assert_eq!(reads[1].seq, b"GG");
    }

    #[test]
    fn truncated_final_record_names_record_number() {
        // Record 0 is complete; record 1 ends after its sequence line.
        let data = b"@r1\nACGT\n+\nIIII\n@r2\nGGTT\n";
        expect_malformed(data, 1, "missing '+' line");
        // Truncated even earlier: header only.
        expect_malformed(b"@r1\nACGT\n+\nIIII\n@r2\n", 1, "missing sequence");
        // Qualities missing entirely.
        expect_malformed(b"@r1\nACGT\n+\n", 0, "missing qualities");
    }

    #[test]
    fn plus_line_mismatch_names_record_number() {
        let data = b"@r1\nACGT\n+\nIIII\n@r2\nGGTT\nXIIII\nIIII\n";
        expect_malformed(data, 1, "expected '+'");
    }

    #[test]
    fn seq_qual_length_mismatch_names_record_number() {
        let data = b"@r1\nACGT\n+\nIIII\n@r2\nGGTT\n+\nII\n";
        expect_malformed(data, 1, "sequence length 4 != quality length 2");
    }

    /// Regression: out-of-range quality characters used to be silently
    /// clamped by `Phred::from_ascii`, so a corrupt quality line parsed as an
    /// ultra-low-quality read. The reader must reject them instead, naming
    /// the record like the other malformed-input errors.
    #[test]
    fn out_of_range_quality_names_record_number() {
        // Record 1 carries a space (0x20, below '!') in its quality line.
        let data = b"@r1\nACGT\n+\nIIII\n@r2\nGGTT\n+\nII I\n";
        expect_malformed(data, 1, "invalid quality character 0x20");
        // Control characters are rejected too (bytes above '~' are already
        // unrepresentable here: the line reader requires UTF-8).
        expect_malformed(b"@r1\nAC\n+\nI\x07\n", 0, "invalid quality character 0x07");
    }

    #[test]
    fn header_without_at_names_record_number() {
        let data = b"@r1\nAC\n+\nII\nr2\nGG\n+\nII\n";
        expect_malformed(data, 1, "expected '@'");
    }

    #[test]
    fn skip_policy_recovers_good_records_around_bad_one() {
        // Record 1 has a seq/qual length mismatch; records 0 and 2 are fine.
        let data = b"@r1\nACGT\n+\nIIII\n@bad\nGGTT\n+\nII\n@r3\nCC\n+\nII\n";
        let (reads, skipped) = read_fastq_observed(
            &data[..],
            MalformedPolicy::Skip { max: 10 },
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].id, "r1");
        assert_eq!(reads[1].id, "r3");
    }

    #[test]
    fn skip_policy_resyncs_past_garbage_lines() {
        let data = b"@r1\nAC\n+\nII\nnot a header\nstill not\n@r2\nGG\n+\nII\n";
        let (reads, skipped) = read_fastq_observed(
            &data[..],
            MalformedPolicy::Skip { max: 10 },
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(reads.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(), vec!["r1", "r2"]);
    }

    #[test]
    fn skip_budget_exhaustion_is_an_error() {
        let data = b"@b1\nACGT\n+\nII\n@b2\nACGT\n+\nII\n@r\nCC\n+\nII\n";
        // Budget 1 covers the first bad record but not the second.
        match read_fastq_observed(
            &data[..],
            MalformedPolicy::Skip { max: 1 },
            &Collector::disabled(),
        ) {
            Err(NgsError::MalformedRecord(msg)) => {
                assert!(msg.contains("skip budget of 1 exhausted"), "{msg:?}");
            }
            other => panic!("expected budget error, got {other:?}"),
        }
        // Budget 2 gets through to the good record.
        let (reads, skipped) = read_fastq_observed(
            &data[..],
            MalformedPolicy::Skip { max: 2 },
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(skipped, 2);
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].id, "r");
    }

    #[test]
    fn fail_fast_is_the_default_and_skips_nothing() {
        let data = b"@b1\nACGT\n+\nII\n";
        let mut r = FastqReader::new(&data[..]);
        assert!(r.next().unwrap().is_err());
        assert_eq!(r.skipped_records(), 0);
    }

    #[test]
    fn bytes_read_counts_raw_input() {
        let data = b"@r1\nACGT\n+\nIIII\n@r2\nNN\n+r2\n!~\n";
        let mut reader = FastqReader::new(&data[..]);
        for r in reader.by_ref() {
            r.unwrap();
        }
        assert_eq!(reader.bytes_read(), data.len() as u64, "newlines included");
    }

    #[test]
    fn observed_reader_ticks_collector_counters() {
        let data = b"@r1\nACGT\n+\nIIII\n@r2\nNN\n+\n!~\n";
        let c = ngs_observe::Collector::new();
        let (reads, skipped) =
            read_fastq_observed(&data[..], MalformedPolicy::FailFast, &c).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(skipped, 0);
        assert_eq!(c.counter_value("seqio.records_read"), 2);
        assert_eq!(c.counter_value("seqio.bytes_read"), data.len() as u64);
    }

    #[test]
    fn skip_policy_with_truncated_tail() {
        // The final record is truncated mid-stream; skip policy consumes it
        // and ends cleanly at EOF.
        let data = b"@r1\nAC\n+\nII\n@r2\nGGTT\n";
        let (reads, skipped) = read_fastq_observed(
            &data[..],
            MalformedPolicy::Skip { max: 5 },
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].id, "r1");
    }
}
