//! `ngs-seqio` — streaming FASTA and FASTQ I/O.
//!
//! The datasets in the paper arrive as FASTA (reference genomes) and FASTQ
//! (Illumina / 454 reads with quality strings). This crate provides buffered,
//! allocation-conscious readers and writers for both formats, returning
//! [`ngs_core::Read`] records.

pub mod fasta;
pub mod fastq;

pub use fasta::{read_fasta, read_fasta_observed, write_fasta, FastaReader, FastaWriter};
pub use fastq::{read_fastq, read_fastq_observed, write_fastq, FastqReader, FastqWriter};

/// The `*_observed` readers fold their `seqio.bytes_read` /
/// `seqio.records_read` counters into the collector every this many records
/// (and once at the end) — frequent enough for live throughput/ETA, rare
/// enough to keep the mutex off the parse hot path.
pub const OBSERVE_FLUSH_RECORDS: usize = 4096;

/// What a reader does with a structurally malformed record.
///
/// Real sequencing archives carry occasional truncated or corrupt records; a
/// million-read correction run should not abort on one of them, but silent
/// unbounded skipping would hide a systematically broken file. The policy
/// makes the trade-off explicit:
///
/// * [`MalformedPolicy::FailFast`] (the default) — the first malformed
///   record is an error, exactly the pre-policy behaviour.
/// * [`MalformedPolicy::Skip`] — abandon the malformed record, resynchronize
///   at the next plausible record header, and keep going, up to `max`
///   skips; exceeding the budget is an error naming the budget. Skipped
///   counts are reported by the readers (`skipped_records()`) and flow into
///   the `seqio.records_skipped` observe counter and BENCH JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MalformedPolicy {
    /// Error on the first malformed record.
    #[default]
    FailFast,
    /// Skip malformed records, up to `max` of them.
    Skip {
        /// Maximum number of records that may be skipped before erroring.
        max: usize,
    },
}

#[cfg(test)]
mod round_trip_tests {
    use super::*;
    use ngs_core::Read;
    use proptest::prelude::*;

    fn arb_seq() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
            1..120,
        )
    }

    proptest! {
        #[test]
        fn fasta_round_trips(seqs in proptest::collection::vec(arb_seq(), 1..8)) {
            let reads: Vec<Read> = seqs
                .into_iter()
                .enumerate()
                .map(|(i, s)| Read::new(format!("read_{i}"), s))
                .collect();
            let mut buf = Vec::new();
            write_fasta(&mut buf, &reads, 60).unwrap();
            let back = read_fasta(&buf[..]).unwrap();
            prop_assert_eq!(back, reads);
        }

        #[test]
        fn fastq_round_trips(seqs in proptest::collection::vec(arb_seq(), 1..8)) {
            let reads: Vec<Read> = seqs
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    let qual = (0..s.len()).map(|j| ((i + j) % 42) as u8).collect();
                    Read::with_qual(format!("read_{i}"), s, qual)
                })
                .collect();
            let mut buf = Vec::new();
            write_fastq(&mut buf, &reads).unwrap();
            let back = read_fastq(&buf[..]).unwrap();
            prop_assert_eq!(back, reads);
        }
    }
}
