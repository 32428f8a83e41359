//! `ngs` — the facade crate for the `ngs-correct` workspace.
//!
//! This crate re-exports the three systems of Yang (2011), *Error
//! correction and clustering algorithms for next generation sequencing*,
//! together with every substrate they run on:
//!
//! | Area | Module | Paper |
//! |---|---|---|
//! | Tile-based error correction | [`reptile`] | Chapter 2 |
//! | Repeat-aware EM detection/correction | [`redeem`] | Chapter 3 |
//! | Metagenomic quasi-clique clustering | [`closet`] | Chapter 4 |
//! | MapReduce runtime | [`mapreduce`] | §1.3.1 |
//! | k-mers, spectra, tiles, Hamming neighbourhoods | [`kmer`] | §2.3 |
//! | FASTA/FASTQ I/O | [`seqio`] | — |
//! | Alignment / identity functions | [`align`] | §4.1 |
//! | Read & community simulation with ground truth | [`simulate`] | §3.4.1 |
//! | RMAP-style mapping | [`mapper`] | §2.4 |
//! | Gain/EBA, detection curves, ARI | [`eval`] | §2.4, §3.4, §4.5 |
//! | Spans, counters, histograms, reports | [`observe`] | Tables 2.2–4.3 |
//!
//! # Quick start
//!
//! ```
//! use ngs::prelude::*;
//!
//! // Simulate a small dataset with ground truth…
//! let genome = GenomeSpec::uniform(5_000).generate(7).seq;
//! let cfg = ReadSimConfig::with_coverage(
//!     genome.len(), 36, 40.0, ErrorModel::illumina_like(36, 0.01), 1);
//! let sim = simulate_reads(&genome, &cfg);
//!
//! // …correct it with Reptile…
//! let params = ReptileParams::from_data(&sim.reads, genome.len());
//! let (corrected, _stats) = Reptile::run(&sim.reads, params);
//!
//! // …and measure the §2.4 Gain.
//! let truths: Vec<Vec<u8>> = sim.truth.iter().map(|t| t.true_seq.clone()).collect();
//! let eval = evaluate_correction(&sim.reads, &corrected, &truths);
//! assert!(eval.gain() > 0.0);
//! ```

pub use closet;
pub use mapreduce_lite as mapreduce;
pub use ngs_align as align;
pub use ngs_core as core;
pub use ngs_eval as eval;
pub use ngs_kmer as kmer;
pub use ngs_mapper as mapper;
pub use ngs_observe as observe;
pub use ngs_seqio as seqio;
pub use ngs_simulate as simulate;
pub use redeem;
pub use reptile;
pub use shrec;

/// One-stop imports for the common pipelines.
pub mod prelude {
    pub use closet::{ClosetParams, Validator};
    pub use mapreduce_lite::{map_reduce, JobConfig};
    pub use ngs_core::{Phred, Read};
    pub use ngs_eval::{
        adjusted_rand_index, clusters_to_partition, detection_curve, evaluate_correction,
        min_wrong_predictions,
    };
    pub use ngs_kmer::{KSpectrum, NeighborIndex};
    pub use ngs_mapper::{MapResult, Mapper};
    pub use ngs_seqio::{read_fasta, read_fastq, write_fasta, write_fastq};
    pub use ngs_simulate::{
        simulate_community, simulate_reads, CommunityConfig, ErrorModel, GenomeSpec, RankSpec,
        ReadSimConfig, RepeatClass,
    };
    pub use redeem::{EmConfig, KmerErrorModel, Redeem};
    pub use reptile::{Reptile, ReptileParams};
    pub use shrec::{Shrec, ShrecParams};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = GenomeSpec::uniform(100);
        let _ = JobConfig::with_workers(2);
        let _ = Read::new("r", b"ACGT");
    }
}
