//! FASTA parsing and serialization.

use crate::MalformedPolicy;
use ngs_core::{NgsError, Read, Result};
use std::io::{BufRead, BufReader, Write};

/// Streaming FASTA reader yielding one [`Read`] per record.
///
/// Multi-line sequences are concatenated; leading/trailing whitespace on
/// sequence lines is trimmed; sequences are uppercased.
pub struct FastaReader<R: std::io::Read> {
    inner: BufReader<R>,
    /// Header of the next record, already consumed from the stream.
    pending_header: Option<String>,
    line: String,
    done: bool,
    policy: MalformedPolicy,
    skipped: usize,
    bytes_read: u64,
}

impl<R: std::io::Read> FastaReader<R> {
    /// Wrap a byte source in a FASTA reader with the default
    /// [`MalformedPolicy::FailFast`].
    pub fn new(source: R) -> FastaReader<R> {
        FastaReader::with_policy(source, MalformedPolicy::default())
    }

    /// Wrap a byte source in a FASTA reader with an explicit malformed-record
    /// policy. Under [`MalformedPolicy::Skip`], a run of non-header garbage
    /// lines where a header was expected counts as one skipped record and
    /// parsing resumes at the next `>` header.
    pub fn with_policy(source: R, policy: MalformedPolicy) -> FastaReader<R> {
        FastaReader {
            inner: BufReader::new(source),
            pending_header: None,
            line: String::new(),
            done: false,
            policy,
            skipped: 0,
            bytes_read: 0,
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
        self.bytes_read
    }

    /// Read the next line into `self.line`, counting its bytes. Returns the
    /// untrimmed length (0 at EOF).
    fn fill_line(&mut self) -> Result<usize> {
        self.line.clear();
        let n = self.inner.read_line(&mut self.line)?;
        self.bytes_read += n as u64;
        Ok(n)
    }

    /// Scan forward to the next `>` header and stash it.
    fn resync(&mut self) -> Result<()> {
        loop {
            if self.fill_line()? == 0 {
                self.done = true;
                return Ok(());
            }
            if let Some(rest) = self.line.trim_end().strip_prefix('>') {
                self.pending_header = Some(rest.to_string());
                return Ok(());
            }
        }
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
        if self.done && self.pending_header.is_none() {
            return Ok(None);
        }
        // Find the header: either one left over from the previous record or
        // the first non-empty line of the stream.
        let header = loop {
            if let Some(h) = self.pending_header.take() {
                break h;
            }
            if self.fill_line()? == 0 {
                self.done = true;
                return Ok(None);
            }
            let t = self.line.trim_end();
            if t.is_empty() {
                continue;
            }
            if let Some(rest) = t.strip_prefix('>') {
                break rest.to_string();
            }
            return Err(NgsError::MalformedRecord(format!("expected FASTA header, got {t:?}")));
        };

        let mut seq = Vec::new();
        loop {
            if self.fill_line()? == 0 {
                self.done = true;
                break;
            }
            let t = self.line.trim_end();
            if let Some(rest) = t.strip_prefix('>') {
                self.pending_header = Some(rest.to_string());
                break;
            }
            seq.extend(t.trim().bytes().map(|b| b.to_ascii_uppercase()));
        }
        Ok(Some(Read { id: header, seq, qual: None }))
    }
}

impl<R: std::io::Read> Iterator for FastaReader<R> {
    type Item = Result<Read>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Read all records from a FASTA source.
pub fn read_fasta<R: std::io::Read>(source: R) -> Result<Vec<Read>> {
    FastaReader::new(source).collect()
}

/// Read all records under `policy`, returning the reads and the number of
/// malformed records skipped. Ticks the `seqio.bytes_read` /
/// `seqio.records_read` counters on `collector` every
/// [`crate::OBSERVE_FLUSH_RECORDS`] records (and once at the end), so a
/// progress meter polling the collector sees throughput while the read is
/// still in flight.
pub fn read_fasta_observed<R: std::io::Read>(
    source: R,
    policy: MalformedPolicy,
    collector: &ngs_observe::Collector,
) -> Result<(Vec<Read>, usize)> {
    let mut reader = FastaReader::with_policy(source, policy);
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

/// Buffered FASTA writer.
pub struct FastaWriter<W: Write> {
    inner: W,
    /// Wrap sequence lines at this many columns (0 = no wrapping).
    pub line_width: usize,
}

impl<W: Write> FastaWriter<W> {
    /// Create a writer wrapping sequences at `line_width` columns.
    pub fn new(inner: W, line_width: usize) -> FastaWriter<W> {
        FastaWriter { inner, line_width }
    }

    /// Write one record.
    pub fn write_record(&mut self, read: &Read) -> Result<()> {
        writeln!(self.inner, ">{}", read.id)?;
        if self.line_width == 0 {
            self.inner.write_all(&read.seq)?;
            writeln!(self.inner)?;
        } else {
            for chunk in read.seq.chunks(self.line_width) {
                self.inner.write_all(chunk)?;
                writeln!(self.inner)?;
            }
            if read.seq.is_empty() {
                writeln!(self.inner)?;
            }
        }
        Ok(())
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> Result<()> {
        self.inner.flush()?;
        Ok(())
    }
}

/// Write all records to a FASTA sink, wrapping at `line_width` columns.
pub fn write_fasta<W: Write>(sink: W, reads: &[Read], line_width: usize) -> Result<()> {
    let mut w = FastaWriter::new(std::io::BufWriter::new(sink), line_width);
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
    fn parses_multiline_records() {
        let data = b">chr1 test\nACGT\nacgt\n\n>chr2\nNNN\n";
        let reads = read_fasta(&data[..]).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].id, "chr1 test");
        assert_eq!(reads[0].seq, b"ACGTACGT");
        assert_eq!(reads[1].id, "chr2");
        assert_eq!(reads[1].seq, b"NNN");
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(read_fasta(&b""[..]).unwrap().is_empty());
        assert!(read_fasta(&b"\n\n"[..]).unwrap().is_empty());
    }

    #[test]
    fn garbage_before_header_is_an_error() {
        assert!(read_fasta(&b"ACGT\n>x\nACGT\n"[..]).is_err());
    }

    #[test]
    fn record_without_trailing_newline() {
        let reads = read_fasta(&b">x\nACG"[..]).unwrap();
        assert_eq!(reads[0].seq, b"ACG");
    }

    #[test]
    fn wrapping_respected() {
        let r = Read::new("x", b"ACGTACGTAC");
        let mut buf = Vec::new();
        write_fasta(&mut buf, std::slice::from_ref(&r), 4).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, ">x\nACGT\nACGT\nAC\n");
    }

    #[test]
    fn skip_policy_resyncs_at_next_header() {
        let data = b"garbage before\nany header\n>x\nACGT\n>y\nGG\n";
        let (reads, skipped) = read_fasta_observed(
            &data[..],
            MalformedPolicy::Skip { max: 3 },
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(reads.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(), vec!["x", "y"]);
    }

    #[test]
    fn skip_budget_zero_behaves_like_fail_fast() {
        let data = b"garbage\n>x\nACGT\n";
        assert!(read_fasta_observed(
            &data[..],
            MalformedPolicy::Skip { max: 0 },
            &Collector::disabled()
        )
        .is_err());
        let mut r = FastaReader::new(&data[..]);
        assert!(r.next().unwrap().is_err());
        assert_eq!(r.skipped_records(), 0);
    }

    #[test]
    fn skip_policy_all_garbage_ends_cleanly() {
        let data = b"no headers here\nat all\n";
        let (reads, skipped) = read_fasta_observed(
            &data[..],
            MalformedPolicy::Skip { max: 5 },
            &Collector::disabled(),
        )
        .unwrap();
        assert!(reads.is_empty());
        assert_eq!(skipped, 1);
    }

    #[test]
    fn bytes_read_counts_raw_input() {
        let data = b">chr1 test\nACGT\nacgt\n\n>chr2\nNNN\n";
        let mut reader = FastaReader::new(&data[..]);
        for r in reader.by_ref() {
            r.unwrap();
        }
        assert_eq!(reader.bytes_read(), data.len() as u64, "newlines included");
    }

    #[test]
    fn observed_reader_ticks_collector_counters() {
        let data = b">x\nACGT\n>y\nGG\n";
        let c = ngs_observe::Collector::new();
        let (reads, skipped) =
            read_fasta_observed(&data[..], MalformedPolicy::FailFast, &c).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(skipped, 0);
        assert_eq!(c.counter_value("seqio.records_read"), 2);
        assert_eq!(c.counter_value("seqio.bytes_read"), data.len() as u64);
    }

    #[test]
    fn empty_sequence_round_trips() {
        let r = Read::new("empty", b"");
        let mut buf = Vec::new();
        write_fasta(&mut buf, std::slice::from_ref(&r), 60).unwrap();
        let back = read_fasta(&buf[..]).unwrap();
        assert_eq!(back, vec![r]);
    }
}
