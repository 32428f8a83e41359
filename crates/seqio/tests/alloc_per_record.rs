//! The FASTQ reader's and writer's allocation contract, counted by the
//! tracking global allocator this test binary registers: a parsed record
//! costs three allocations (id, sequence, qualities), and writing records
//! allocates nothing per record.
//!
//! The allocator's counters are process-wide, so this binary holds one
//! test only.

use ngs_core::Read;
use ngs_observe::alloc::{self, TrackingAllocator};
use ngs_seqio::{write_fastq, FastqReader};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Allocation calls (reallocations included) made by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    assert!(alloc::enable(), "this binary registered the tracking allocator");
    let before = alloc::snapshot().expect("tracking is enabled").alloc_count;
    f();
    let after = alloc::snapshot().expect("tracking is enabled").alloc_count;
    alloc::disable();
    after - before
}

#[test]
fn three_allocations_per_record_read_none_per_record_written() {
    const RECORDS: u64 = 2_000;
    let reads: Vec<Read> = (0..RECORDS as usize)
        .map(|i| {
            let seq: Vec<u8> = (0..36 + i % 80).map(|j| b"ACGTN"[(i + j * 7) % 5]).collect();
            let qual = (0..seq.len()).map(|j| ((i + j) % 42) as u8).collect();
            Read::with_qual(format!("read_{i}"), seq, qual)
        })
        .collect();
    let mut fastq = Vec::new();
    write_fastq(&mut fastq, &reads).unwrap();

    // Reading: the reader's buffers once, then three per record.
    let mut parsed = Vec::with_capacity(reads.len());
    let n = allocations(|| {
        for r in FastqReader::new(&fastq[..]) {
            parsed.push(r.unwrap());
        }
    });
    assert_eq!(parsed, reads);
    assert!(
        (3 * RECORDS..3 * RECORDS + 16).contains(&n),
        "{n} allocations to read {RECORDS} records"
    );
    for r in &parsed {
        assert_eq!(r.seq.capacity(), r.seq.len(), "sequence sized exactly");
        let qual = r.qual.as_ref().unwrap();
        assert_eq!(qual.capacity(), qual.len(), "qualities sized exactly");
    }

    // Writing into a sink with room: the writer's block buffer only.
    let mut out = Vec::with_capacity(fastq.len());
    let n = allocations(|| write_fastq(&mut out, &reads).unwrap());
    assert_eq!(out, fastq);
    assert!(n < 16, "{n} allocations to write {RECORDS} records");
}
