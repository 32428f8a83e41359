//! Integration across substrate crates: seqio ↔ simulate ↔ kmer ↔
//! mapreduce consistency.

use ngs::mapreduce::{map_reduce, JobConfig};
use ngs::prelude::*;

#[test]
fn fasta_genome_round_trip_preserves_spectrum() {
    let genome = GenomeSpec::uniform(5_000).generate(1).seq;
    let record = Read::new("chr1", &genome);
    let mut buf = Vec::new();
    write_fasta(&mut buf, std::slice::from_ref(&record), 70).unwrap();
    let back = read_fasta(&buf[..]).unwrap();
    assert_eq!(back[0].seq, genome);
    let s1 = KSpectrum::from_reads(std::slice::from_ref(&record), 11);
    let s2 = KSpectrum::from_reads(&back, 11);
    assert_eq!(s1.kmers(), s2.kmers());
    assert_eq!(s1.counts(), s2.counts());
}

#[test]
fn mapreduce_kmer_count_equals_kspectrum() {
    let genome = GenomeSpec::uniform(8_000).generate(2).seq;
    let cfg =
        ReadSimConfig::with_coverage(genome.len(), 40, 20.0, ErrorModel::uniform(40, 0.01), 3);
    let sim = simulate_reads(&genome, &cfg);
    let k = 13;
    let (counts, _) = map_reduce(
        &JobConfig::with_workers(4),
        &sim.reads,
        |r: &Read, emit: &mut dyn FnMut(u64, u32)| {
            ngs::kmer::for_each_kmer(&r.seq, k, |_, v| emit(v, 1));
        },
        None,
        |kmer: &u64, vs: Vec<u32>, emit: &mut dyn FnMut((u64, u32))| emit((*kmer, vs.len() as u32)),
    )
    .expect("k-mer count job");
    let spectrum = KSpectrum::from_reads(&sim.reads, k);
    assert_eq!(counts.len(), spectrum.len());
    for (kmer, c) in counts {
        assert_eq!(spectrum.count(kmer), c, "kmer {kmer:x}");
    }
}

#[test]
fn neighbor_index_strategies_agree_on_simulated_spectrum() {
    use ngs::kmer::neighbor::check_against_brute_force;
    let genome = GenomeSpec::uniform(2_000).generate(6).seq;
    let cfg =
        ReadSimConfig::with_coverage(genome.len(), 36, 15.0, ErrorModel::uniform(36, 0.02), 7);
    let sim = simulate_reads(&genome, &cfg);
    // Every legal chunk count against brute force, on observed k-mers and
    // on a substitution of each (mostly unobserved, with observed
    // neighbours).
    for (k, d) in [(9, 1), (9, 2), (11, 1)] {
        let spectrum = KSpectrum::from_reads(&sim.reads, k);
        let observed = spectrum.kmers().iter().step_by(17);
        let queries: Vec<u64> =
            observed.flat_map(|&v| [v, ngs::kmer::mutate_base(v, k, k / 2, 2)]).collect();
        check_against_brute_force(&spectrum, d, &queries).unwrap();
    }
}

#[test]
fn error_model_estimated_from_mapper_matches_truth_based_estimate() {
    let genome = GenomeSpec::uniform(12_000).generate(8).seq;
    let cfg = ReadSimConfig::with_coverage(
        genome.len(),
        36,
        30.0,
        ErrorModel::illumina_like(36, 0.01),
        9,
    );
    let sim = simulate_reads(&genome, &cfg);

    // Estimate via the mapper (what the paper does with RMAP, §3.4.1)…
    let mapper = Mapper::build(&genome, 6);
    let (results, _) = mapper.map_all(&sim.reads, 5);
    let pairs = mapper.truth_pairs(&sim.reads, &results);
    let pairs_ref: Vec<(&[u8], &[u8])> = pairs.iter().map(|(o, t)| (*o, t.as_slice())).collect();
    let mapped_model = ErrorModel::estimate(&pairs_ref, 36);

    // …and via the simulator's exact truth.
    let truth_pairs: Vec<(&[u8], &[u8])> = sim
        .reads
        .iter()
        .zip(&sim.truth)
        .map(|(r, t)| (r.seq.as_slice(), t.true_seq.as_slice()))
        .collect();
    let truth_model = ErrorModel::estimate(&truth_pairs, 36);

    for pos in [0usize, 17, 35] {
        let a = mapped_model.error_rate_at(pos);
        let b = truth_model.error_rate_at(pos);
        assert!((a - b).abs() < 0.01, "pos {pos}: mapped {a:.4} vs truth {b:.4}");
    }
}
