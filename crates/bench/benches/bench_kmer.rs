//! k-mer substrate benchmarks, including the §2.3 data-structure ablation:
//! masked-replica neighbour retrieval vs brute-force mutant enumeration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ngs_kmer::neighbor::{default_chunks, NeighborIndex, NeighborStrategy};
use ngs_kmer::{KSpectrum, TileTable};
use ngs_simulate::{simulate_reads, ErrorModel, GenomeSpec, ReadSimConfig};
use std::time::Duration;

fn dataset() -> ngs_simulate::SimulatedReads {
    let genome = GenomeSpec::uniform(10_000).generate(1).seq;
    let cfg = ReadSimConfig::with_coverage(
        genome.len(),
        36,
        30.0,
        ErrorModel::illumina_like(36, 0.01),
        2,
    );
    simulate_reads(&genome, &cfg)
}

fn bench_spectrum_build(c: &mut Criterion) {
    let sim = dataset();
    let mut g = c.benchmark_group("spectrum_build");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(8));
    g.bench_function("both_strands_k13", |b| {
        b.iter(|| KSpectrum::from_reads_both_strands(&sim.reads, 13))
    });
    g.bench_function("tile_table_k10", |b| b.iter(|| TileTable::build(&sim.reads, 10, 0, 20)));
    g.finish();
}

fn bench_neighbor_ablation(c: &mut Criterion) {
    let sim = dataset();
    let spectrum = KSpectrum::from_reads_both_strands(&sim.reads, 13);
    let queries: Vec<u64> = spectrum.kmers().iter().step_by(97).copied().collect();
    let mut g = c.benchmark_group("neighbor_query_d1");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(8));
    let chunks = default_chunks(spectrum.k(), 1);
    for (name, strategy) in [
        ("masked_replicas", NeighborStrategy::MaskedReplicas { chunks }),
        ("brute_force", NeighborStrategy::BruteForce),
    ] {
        let index = NeighborIndex::build(&spectrum, 1, strategy);
        g.bench_with_input(BenchmarkId::new(name, queries.len()), &queries, |b, qs| {
            b.iter(|| {
                let mut total = 0usize;
                for &q in qs {
                    total += index.neighbors(q, 1).len();
                }
                total
            })
        });
    }
    g.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let sim = dataset();
    let spectrum = KSpectrum::from_reads_both_strands(&sim.reads, 13);
    let mut g = c.benchmark_group("neighbor_index_build");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(8));
    let chunks = default_chunks(spectrum.k(), 1);
    g.bench_function("masked_replicas_d1", |b| {
        b.iter(|| NeighborIndex::build(&spectrum, 1, NeighborStrategy::MaskedReplicas { chunks }))
    });
    g.finish();
}

criterion_group!(benches, bench_spectrum_build, bench_neighbor_ablation, bench_index_build);
criterion_main!(benches);
