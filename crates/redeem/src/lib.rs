//! `redeem` — Read Error DEtection and correction via Expectation
//! Maximization (Chapter 3).
//!
//! REDEEM targets genomes where repeats make observed k-mer counts `Y_l`
//! unreliable evidence: "an erroneous kmer may appear at a moderate
//! frequency if it has few nucleotide differences from one or more valid
//! kmers that have a high frequency of occurrence in the genome." Instead
//! of thresholding `Y`, REDEEM computes a maximum-likelihood estimate of
//! `T_l`, the expected number of *attempts* to read k-mer `x_l` — the
//! quantity actually proportional to genomic occurrence — via an EM
//! algorithm over the k-mer misread graph (§3.2):
//!
//! * [`error_model`] — the position-specific misread probabilities
//!   `q_i(α,β)` in k-mer coordinates, with the four presets of §3.4.2
//!   (tIED / wIED / tUED / wUED);
//! * [`em`] — the sparse EM over observed k-mers within Hamming distance
//!   `d_max`, with row-normalised misread matrix `P_e`: the graph found
//!   edge by edge once by a self-join over the masked replicas, one weight
//!   per directed edge, and the incoming weights read through a
//!   reverse-edge index;
//! * [`threshold`] — §3.7's mixture model (Gamma + G Normals + Uniform) fit
//!   by a second EM with BIC model selection, yielding a data-driven
//!   detection threshold;
//! * [`correct`] — §3.3's per-base posterior correction, averaging
//!   `π_t(b)` across the k-mers covering each read position, on the reads
//!   in place.

pub mod correct;
pub mod em;
pub mod error_model;
pub mod snapshot;
pub mod threshold;

pub use correct::{correct_reads, correct_reads_in_place, CorrectionStats};
pub use em::{EmConfig, EmResult, EmState, Redeem};
pub use error_model::KmerErrorModel;
pub use threshold::{
    estimate_genome_length, fit_threshold_model, fit_threshold_model_observed, MixtureFit,
};
