//! Per-base posterior correction (§3.3).
//!
//! "Suppose the nucleotide at position i of the read appears at position t
//! of kmer x_l. The probability that the true nucleotide at position t was
//! b prior to possible misread is
//!
//! ```text
//! π_t(b) = Σ_{x_m ∈ N(l), x_mt = b} α_m pe(x_m, x_l)
//!        / Σ_{x_m ∈ N(l)}           α_m pe(x_m, x_l)
//! ```
//!
//! where estimates T_m are substituted for the unknown α_m. Since multiple
//! overlapping kmers provide non-independent information about the base at
//! position i, we average across available t … If argmax_b π(b) ≠ r[i],
//! then we declare nucleotide r[i] misread and correct it. To limit
//! computations, we apply this method to reads likely to contain at least
//! one erroneous kmer, as identified with a liberal threshold M."

use crate::em::Redeem;
use crate::error_model::KmerErrorModel;
use ngs_core::{alphabet, Read};
use ngs_kmer::Kmer;
use rayon::prelude::*;

/// Correct `reads` using EM estimates `t` (parallel to the model's
/// spectrum). Only reads containing a k-mer with `T < liberal_threshold`
/// are processed; k-mers detected as erroneous (`T < detect_threshold`)
/// contribute no source mass to the posterior — detection feeds correction,
/// as §3.5 puts it: "Relying on the overlapping erroneous kmers, we correct
/// errors in the reads". Returns corrected copies.
pub fn correct_reads(
    redeem: &Redeem,
    model: &KmerErrorModel,
    t: &[f64],
    reads: &[Read],
    liberal_threshold: f64,
    detect_threshold: f64,
) -> Vec<Read> {
    let spectrum = redeem.spectrum();
    let k = spectrum.k();
    assert_eq!(t.len(), spectrum.len());
    reads
        .par_iter()
        .map(|r| {
            let mut read = r.clone();
            let mut scratch = ReadScratch::default();
            correct_one(
                redeem,
                model,
                t,
                &mut read,
                liberal_threshold,
                detect_threshold,
                k,
                &mut scratch,
            );
            read
        })
        .collect()
}

/// Buffers one read's correction reuses, so the loop over its covering
/// k-mers allocates nothing.
#[derive(Default)]
struct ReadScratch {
    /// Valid source k-mers of the current observed k-mer, each with its
    /// posterior mass `T_m · pe(x_m, x_l)`.
    sources: Vec<(Kmer, f64)>,
    /// Source mass by k-mer position and base.
    by_base: Vec<[f64; 4]>,
    /// Per read position: summed per-k-mer posteriors, and how many
    /// k-mers contributed.
    post: Vec<[f64; 4]>,
    cover: Vec<u32>,
}

#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn correct_one(
    redeem: &Redeem,
    model: &KmerErrorModel,
    t: &[f64],
    read: &mut Read,
    liberal_threshold: f64,
    detect_threshold: f64,
    k: usize,
    scratch: &mut ReadScratch,
) {
    let spectrum = redeem.spectrum();
    if read.len() < k {
        return;
    }
    // Gate: does the read contain a suspicious k-mer?
    let kmers = ngs_kmer::kmers_of(&read.seq, k);
    if kmers.is_empty() {
        return;
    }
    let suspicious =
        kmers.iter().any(|&(_, v)| spectrum.index_of(v).is_none_or(|i| t[i] < liberal_threshold));
    if !suspicious {
        return;
    }

    // Accumulate per-base posteriors averaged over covering k-mers.
    let len = read.len();
    let ReadScratch { sources, by_base, post, cover } = scratch;
    post.clear();
    post.resize(len, [0.0f64; 4]);
    cover.clear();
    cover.resize(len, 0u32);
    let nbr = redeem.neighbors_raw();
    let spectrum_kmers = spectrum.kmers();
    for &(offset, v) in &kmers {
        let Some(l) = spectrum.index_of(v) else { continue };
        // Posterior over sources m for this observed k-mer instance.
        let (s, e) = (redeem.offset_of(l), redeem.offset_of(l + 1));
        sources.clear();
        let mut z = 0.0f64;
        for &m in &nbr[s..e] {
            let m = m as usize;
            // Detected-erroneous k-mers are not valid source sequences:
            // substitute alpha_m = 0 for them.
            if t[m] < detect_threshold {
                continue;
            }
            let w = t[m] * model.pe(spectrum_kmers[m], v);
            sources.push((spectrum_kmers[m], w));
            z += w;
        }
        if z <= 0.0 {
            continue;
        }
        // Each source is decoded once, last base first; every
        // (position, base) cell still sums its sources in row order.
        by_base.clear();
        by_base.resize(k, [0.0f64; 4]);
        for &(mut source, w) in sources.iter() {
            for cell in by_base.iter_mut().rev() {
                cell[(source & 3) as usize] += w;
                source >>= 2;
            }
        }
        for (pos_in_kmer, pb) in by_base.iter().enumerate() {
            let read_pos = offset + pos_in_kmer;
            for b in 0..4 {
                post[read_pos][b] += pb[b] / z;
            }
            cover[read_pos] += 1;
        }
    }

    for i in 0..len {
        if cover[i] == 0 {
            continue;
        }
        let (mut best, mut best_p) = (0usize, -1.0f64);
        for b in 0..4 {
            if post[i][b] > best_p {
                best_p = post[i][b];
                best = b;
            }
        }
        let new_base = alphabet::decode_base(best as u8);
        if new_base != read.seq[i] {
            read.seq[i] = new_base;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::EmConfig;
    use ngs_eval::evaluate_correction;
    use ngs_simulate::{simulate_reads, ErrorModel, GenomeSpec, ReadSimConfig, RepeatClass};

    fn run_pipeline(
        repeats: Vec<RepeatClass>,
        pe: f64,
        seed: u64,
    ) -> (ngs_simulate::SimulatedReads, Vec<Read>) {
        let g = GenomeSpec::with_repeats(6_000, repeats).generate(41).seq;
        let cfg = ReadSimConfig {
            read_len: 36,
            n_reads: 6_000 * 60 / 36,
            error_model: ErrorModel::uniform(36, pe),
            both_strands: false,
            with_quals: false,
            n_rate: 0.0,
            seed,
        };
        let sim = simulate_reads(&g, &cfg);
        let k = 9;
        let km = KmerErrorModel::uniform(k, pe);
        let redeem = Redeem::new(&sim.reads, k, &km, 1);
        let res = redeem.run(&EmConfig::default());
        // Liberal threshold: half the coverage constant.
        let cov = 60.0 / 36.0 * (36 - k + 1) as f64;
        let corrected = correct_reads(&redeem, &km, &res.t, &sim.reads, cov * 0.5, cov * 0.25);
        (sim, corrected)
    }

    #[test]
    fn corrects_errors_on_plain_genome() {
        let (sim, corrected) = run_pipeline(vec![], 0.01, 1);
        let truths: Vec<Vec<u8>> = sim.truth.iter().map(|t| t.true_seq.clone()).collect();
        let eval = evaluate_correction(&sim.reads, &corrected, &truths);
        assert!(eval.gain() > 0.5, "gain={} {eval:?}", eval.gain());
    }

    #[test]
    fn corrects_errors_on_repeat_rich_genome() {
        let (sim, corrected) = run_pipeline(
            vec![
                RepeatClass { length: 150, multiplicity: 10 },
                RepeatClass { length: 300, multiplicity: 5 },
            ],
            0.01,
            2,
        );
        let truths: Vec<Vec<u8>> = sim.truth.iter().map(|t| t.true_seq.clone()).collect();
        let eval = evaluate_correction(&sim.reads, &corrected, &truths);
        assert!(eval.gain() > 0.4, "gain={} {eval:?}", eval.gain());
    }

    #[test]
    fn error_free_reads_mostly_untouched() {
        let (sim, corrected) = run_pipeline(vec![], 0.0, 3);
        let truths: Vec<Vec<u8>> = sim.truth.iter().map(|t| t.true_seq.clone()).collect();
        let eval = evaluate_correction(&sim.reads, &corrected, &truths);
        assert_eq!(eval.fp, 0, "{eval:?}");
    }
}
