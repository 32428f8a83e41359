//! The MapReduce substrate in isolation: a k-mer counting job (the
//! bioinformatics "word count") with a combiner, at several worker counts.
//!
//! ```sh
//! cargo run --release --example mapreduce_wordcount
//! ```

use ngs::mapreduce::{map_reduce, JobConfig};
use ngs::prelude::*;

fn main() {
    let genome = GenomeSpec::uniform(30_000).generate(3).seq;
    let cfg =
        ReadSimConfig::with_coverage(genome.len(), 50, 30.0, ErrorModel::uniform(50, 0.005), 5);
    let reads = simulate_reads(&genome, &cfg).reads;
    let k = 12;

    // The k-mer counting job, at several worker counts.
    let combiner = |_k: &u64, vs: &mut Vec<u32>| {
        let total: u32 = vs.iter().sum();
        vs.clear();
        vs.push(total);
    };
    for workers in [1usize, 2, 4, 8] {
        let job = JobConfig::with_workers(workers);
        let t0 = std::time::Instant::now();
        let (counts, stats) = map_reduce(
            &job,
            &reads,
            |r: &Read, emit: &mut dyn FnMut(u64, u32)| {
                ngs::kmer::for_each_kmer(&r.seq, k, |_, v| emit(v, 1));
            },
            Some(&combiner),
            |kmer: &u64, vs: Vec<u32>, emit: &mut dyn FnMut((u64, u32))| {
                emit((*kmer, vs.iter().sum()))
            },
        )
        .expect("k-mer count job");
        println!(
            "workers={workers}: {} distinct {k}-mers in {:.2?} \
             (map {:.2?}, shuffle {:.2?}, reduce {:.2?}; combine shrank {} -> {})",
            counts.len(),
            t0.elapsed(),
            stats.map_time,
            stats.shuffle_time,
            stats.reduce_time,
            stats.map_output_records,
            stats.combine_output_records
        );
    }

    // Sanity: the job agrees with the library's k-spectrum.
    let job = JobConfig::with_workers(4);
    let (counts, _) = map_reduce(
        &job,
        &reads,
        |r: &Read, emit: &mut dyn FnMut(u64, u32)| {
            ngs::kmer::for_each_kmer(&r.seq, k, |_, v| emit(v, 1));
        },
        Some(&combiner),
        |kmer: &u64, vs: Vec<u32>, emit: &mut dyn FnMut((u64, u32))| emit((*kmer, vs.iter().sum())),
    )
    .expect("k-mer count job");
    let spectrum = KSpectrum::from_reads(&reads, k);
    assert_eq!(counts.len(), spectrum.len());
    for &(kmer, c) in &counts {
        assert_eq!(spectrum.count(kmer), c);
    }
    println!("map-reduce counts match KSpectrum ({} kmers)", counts.len());
}
