//! The line-based FASTQ reader and writer that `super` replaced, kept
//! verbatim as the oracle of the differential tests: a `String` per line
//! through `BufRead::read_line`, `str::trim_end`, and one `write!` per
//! record field. Test-only code.

use crate::MalformedPolicy;
use ngs_core::qual::{decode_quals_checked, encode_quals};
use ngs_core::{NgsError, Read, Result};
use std::io::{BufRead, BufReader, Write};

/// Streaming FASTQ reader yielding one [`Read`] per 4-line record.
pub struct FastqReader<R: std::io::Read> {
    inner: BufReader<R>,
    line: String,
    record_no: usize,
    policy: MalformedPolicy,
    skipped: usize,
    /// Header line found while resynchronizing after a malformed record,
    /// already consumed from the stream.
    pending_header: Option<String>,
    bytes_read: u64,
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
            inner: BufReader::new(source),
            line: String::new(),
            record_no: 0,
            policy,
            skipped: 0,
            pending_header: None,
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

    fn read_line(&mut self) -> Result<Option<&str>> {
        self.line.clear();
        if self.inner.read_line(&mut self.line)? == 0 {
            return Ok(None);
        }
        self.bytes_read += self.line.len() as u64;
        Ok(Some(self.line.trim_end()))
    }

    /// Scan forward to the next line starting with `'@'` (the next plausible
    /// record header) and stash it for the next parse attempt. Quality lines
    /// may legitimately start with `'@'`, so this is a heuristic: a wrong
    /// pick parses as another malformed record and consumes another unit of
    /// the skip budget, so a systematically broken file still errors out.
    fn resync(&mut self) -> Result<()> {
        loop {
            match self.read_line()? {
                None => return Ok(()),
                Some(l) if l.starts_with('@') => {
                    self.pending_header = Some(l.to_string());
                    return Ok(());
                }
                Some(_) => continue,
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
        // Header: one stashed by resync, or the next non-blank line.
        let header = match self.pending_header.take() {
            Some(h) => h,
            None => loop {
                match self.read_line()? {
                    None => return Ok(None),
                    Some("") => continue,
                    Some(l) => break l.to_string(),
                }
            },
        };
        let n = self.record_no;
        self.record_no += 1;
        let id = header
            .strip_prefix('@')
            .ok_or_else(|| {
                NgsError::MalformedRecord(format!("record {n}: expected '@', got {header:?}"))
            })?
            .to_string();
        let seq: Vec<u8> = self
            .read_line()?
            .ok_or_else(|| NgsError::MalformedRecord(format!("record {n}: missing sequence")))?
            .bytes()
            .map(|b| b.to_ascii_uppercase())
            .collect();
        let plus = self
            .read_line()?
            .ok_or_else(|| NgsError::MalformedRecord(format!("record {n}: missing '+' line")))?;
        if !plus.starts_with('+') {
            return Err(NgsError::MalformedRecord(format!(
                "record {n}: expected '+', got {plus:?}"
            )));
        }
        let qual_ascii = self
            .read_line()?
            .ok_or_else(|| NgsError::MalformedRecord(format!("record {n}: missing qualities")))?
            .as_bytes()
            .to_vec();
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
        let qual = decode_quals_checked(&qual_ascii)
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

/// Buffered FASTQ writer.
pub struct FastqWriter<W: Write> {
    inner: W,
}

impl<W: Write> FastqWriter<W> {
    /// Create a FASTQ writer.
    pub fn new(inner: W) -> FastqWriter<W> {
        FastqWriter { inner }
    }

    /// Write one record. Reads without qualities get a uniform Q40 string so
    /// the output stays structurally valid.
    pub fn write_record(&mut self, read: &Read) -> Result<()> {
        writeln!(self.inner, "@{}", read.id)?;
        self.inner.write_all(&read.seq)?;
        writeln!(self.inner, "\n+")?;
        match &read.qual {
            Some(q) => self.inner.write_all(&encode_quals(q))?,
            None => self.inner.write_all(&encode_quals(&vec![40u8; read.seq.len()]))?,
        }
        writeln!(self.inner)?;
        Ok(())
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> Result<()> {
        self.inner.flush()?;
        Ok(())
    }
}

/// Write all records to a FASTQ sink.
pub fn write_fastq<W: Write>(sink: W, reads: &[Read]) -> Result<()> {
    let mut w = FastqWriter::new(std::io::BufWriter::new(sink));
    for r in reads {
        w.write_record(r)?;
    }
    w.flush()
}
