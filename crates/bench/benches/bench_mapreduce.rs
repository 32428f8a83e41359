//! MapReduce runtime scaling: a k-mer counting job at 1/2/4/8 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mapreduce_lite::{map_reduce, JobConfig};
use ngs_core::Read;
use ngs_simulate::{simulate_reads, ErrorModel, GenomeSpec, ReadSimConfig};
use std::time::Duration;

fn dataset() -> Vec<Read> {
    let genome = GenomeSpec::uniform(8_000).generate(5).seq;
    let cfg =
        ReadSimConfig::with_coverage(genome.len(), 50, 15.0, ErrorModel::uniform(50, 0.01), 6);
    simulate_reads(&genome, &cfg).reads
}

fn count_job(reads: &[Read], cfg: &JobConfig) -> usize {
    let combiner = |_k: &u64, vs: &mut Vec<u32>| {
        let total: u32 = vs.iter().sum();
        vs.clear();
        vs.push(total);
    };
    let (counts, _) = map_reduce(
        cfg,
        reads,
        |r: &Read, emit: &mut dyn FnMut(u64, u32)| {
            ngs_kmer::for_each_kmer(&r.seq, 13, |_, v| emit(v, 1));
        },
        Some(&combiner),
        |k: &u64, vs: Vec<u32>, emit: &mut dyn FnMut((u64, u32))| emit((*k, vs.iter().sum())),
    )
    .expect("k-mer count job");
    counts.len()
}

fn bench_scaling(c: &mut Criterion) {
    let reads = dataset();
    let mut g = c.benchmark_group("mapreduce_kmer_count");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(8));
    for workers in [1usize, 2, 4, 8] {
        let cfg = JobConfig::with_workers(workers);
        g.bench_with_input(BenchmarkId::new("workers", workers), &cfg, |b, cfg| {
            b.iter(|| count_job(&reads, cfg))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
