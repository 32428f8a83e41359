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
use ngs_kmer::{KSpectrum, Kmer};
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
    let mut corrected = reads.to_vec();
    correct_reads_in_place(redeem, model, t, &mut corrected, liberal_threshold, detect_threshold);
    corrected
}

/// [`correct_reads`] on the reads themselves: a few batches per thread,
/// each with one set of buffers for all its reads.
pub fn correct_reads_in_place(
    redeem: &Redeem,
    model: &KmerErrorModel,
    t: &[f64],
    reads: &mut [Read],
    liberal_threshold: f64,
    detect_threshold: f64,
) {
    assert_eq!(t.len(), redeem.spectrum().len());
    let pass = Correction {
        spectrum: redeem.spectrum(),
        suspicious: NodeSet::of(t, |t| t < liberal_threshold),
        sources: Sources::build(redeem, model, t, detect_threshold),
    };
    let batch = (reads.len() / (rayon::current_num_threads() * 4)).max(256);
    reads.chunks_mut(batch).collect::<Vec<_>>().into_par_iter().for_each(|batch| {
        let mut scratch = ReadScratch::default();
        for read in batch {
            pass.correct_one(read, &mut scratch);
        }
    });
}

/// One bit per spectrum k-mer: a threshold's verdict on `T`, small enough
/// to stay in cache while rows and reads are scanned in random order.
struct NodeSet(Vec<u64>);

impl NodeSet {
    fn of(t: &[f64], pick: impl Fn(f64) -> bool) -> NodeSet {
        let mut words = vec![0u64; t.len().div_ceil(64)];
        for (i, &x) in t.iter().enumerate() {
            words[i / 64] |= u64::from(pick(x)) << (i % 64);
        }
        NodeSet(words)
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 != 0
    }
}

/// What the posterior of an occurrence of `x_l` is computed from, which
/// depends on `l` alone — so it is computed once per k-mer, not once per
/// occurrence: the k-mers `m` of row `l` that are valid source sequences
/// (not detected as erroneous; for those `α_m = 0`), in row order, each
/// with its mass `T_m · pe(x_m, x_l)`, and their sum `z_l`.
struct Sources {
    /// Node `l`'s sources are `mass[start[l]..start[l + 1]]`.
    start: Vec<u32>,
    mass: Vec<(Kmer, f64)>,
    z: Vec<f64>,
}

impl Default for Sources {
    fn default() -> Sources {
        Sources { start: vec![0], mass: Vec::new(), z: Vec::new() }
    }
}

impl Sources {
    fn build(redeem: &Redeem, model: &KmerErrorModel, t: &[f64], detect_threshold: f64) -> Sources {
        let detected = NodeSet::of(t, |t| t < detect_threshold);
        let (kmers, nbr) = (redeem.spectrum().kmers(), redeem.neighbors_raw());
        let n = kmers.len();
        let per_block = n.div_ceil(rayon::current_num_threads() * 4).max(1);
        let firsts: Vec<usize> = (0..n).step_by(per_block).collect();
        let blocks: Vec<Sources> = firsts
            .into_par_iter()
            .map(|first| {
                let mut block = Sources::default();
                for l in first..(first + per_block).min(n) {
                    let mut z = 0.0f64;
                    for &m in &nbr[redeem.offset_of(l)..redeem.offset_of(l + 1)] {
                        let m = m as usize;
                        if !detected.contains(m) {
                            let w = t[m] * model.pe(kmers[m], kmers[l]);
                            block.mass.push((kmers[m], w));
                            z += w;
                        }
                    }
                    block.start.push(block.mass.len() as u32);
                    block.z.push(z);
                }
                block
            })
            .collect();
        let mut all = Sources::default();
        for block in blocks {
            let base = all.mass.len() as u32;
            all.start.extend(block.start[1..].iter().map(|&s| base + s));
            all.mass.extend(block.mass);
            all.z.extend(block.z);
        }
        all
    }

    fn of(&self, l: usize) -> &[(Kmer, f64)] {
        &self.mass[self.start[l] as usize..self.start[l + 1] as usize]
    }
}

/// What correcting a read consults.
struct Correction<'a> {
    spectrum: &'a KSpectrum,
    /// `T < liberal_threshold`: a read holding one of these (or a k-mer
    /// outside the spectrum) is corrected.
    suspicious: NodeSet,
    sources: Sources,
}

/// Buffers one read's correction reuses, so the loop over its covering
/// k-mers allocates nothing.
#[derive(Default)]
struct ReadScratch {
    /// The read's k-mers: offset, spectrum index.
    kmers: Vec<(usize, Option<usize>)>,
    /// Source mass by k-mer position and base.
    by_base: Vec<[f64; 4]>,
    /// Per read position: summed per-k-mer posteriors, and how many
    /// k-mers contributed.
    post: Vec<[f64; 4]>,
    cover: Vec<u32>,
}

impl Correction<'_> {
    #[allow(clippy::needless_range_loop)]
    fn correct_one(&self, read: &mut Read, scratch: &mut ReadScratch) {
        let k = self.spectrum.k();
        if read.len() < k {
            return;
        }
        // Gate: does the read contain a suspicious k-mer?
        let ReadScratch { kmers, by_base, post, cover } = scratch;
        kmers.clear();
        ngs_kmer::for_each_kmer(&read.seq, k, |offset, v| {
            kmers.push((offset, self.spectrum.index_of(v)));
        });
        if kmers.is_empty() {
            return;
        }
        if !kmers.iter().any(|&(_, l)| l.is_none_or(|i| self.suspicious.contains(i))) {
            return;
        }

        // Accumulate per-base posteriors averaged over covering k-mers.
        let len = read.len();
        post.clear();
        post.resize(len, [0.0f64; 4]);
        cover.clear();
        cover.resize(len, 0u32);
        for &(offset, l) in kmers.iter() {
            let Some(l) = l else { continue };
            let z = self.sources.z[l];
            if z <= 0.0 {
                continue;
            }
            let sources = self.sources.of(l);
            for c in &mut cover[offset..offset + k] {
                *c += 1;
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
            for (cell, pb) in post[offset..offset + k].iter_mut().zip(by_base.iter()) {
                for b in 0..4 {
                    cell[b] += pb[b] / z;
                }
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

    /// The correction the per-k-mer source table replaced, kept as its
    /// oracle: every occurrence scans its row, tests `T` against the
    /// detection threshold and evaluates `pe` itself, and every posterior
    /// cell is divided by `z`.
    #[allow(clippy::needless_range_loop)]
    fn reference_correct_reads(
        redeem: &Redeem,
        model: &KmerErrorModel,
        t: &[f64],
        reads: &[Read],
        liberal_threshold: f64,
        detect_threshold: f64,
    ) -> Vec<Read> {
        let spectrum = redeem.spectrum();
        let k = spectrum.k();
        let mut out = reads.to_vec();
        for read in out.iter_mut().filter(|r| r.len() >= k) {
            let kmers = ngs_kmer::kmers_of(&read.seq, k);
            let suspicious = kmers
                .iter()
                .any(|&(_, v)| spectrum.index_of(v).is_none_or(|i| t[i] < liberal_threshold));
            if kmers.is_empty() || !suspicious {
                continue;
            }
            let mut post = vec![[0.0f64; 4]; read.len()];
            let mut cover = vec![0u32; read.len()];
            for &(offset, v) in &kmers {
                let Some(l) = spectrum.index_of(v) else { continue };
                let (s, e) = (redeem.offset_of(l), redeem.offset_of(l + 1));
                let mut by_base = vec![[0.0f64; 4]; k];
                let mut z = 0.0f64;
                let mut sources = Vec::new();
                for &m in &redeem.neighbors_raw()[s..e] {
                    let m = m as usize;
                    if t[m] < detect_threshold {
                        continue;
                    }
                    let w = t[m] * model.pe(spectrum.kmers()[m], v);
                    sources.push((spectrum.kmers()[m], w));
                    z += w;
                }
                if z <= 0.0 {
                    continue;
                }
                for &(source, w) in &sources {
                    for (pos, cell) in by_base.iter_mut().enumerate() {
                        cell[ngs_kmer::packed_base(source, k, pos) as usize] += w;
                    }
                }
                for (pos, pb) in by_base.iter().enumerate() {
                    for b in 0..4 {
                        post[offset + pos][b] += pb[b] / z;
                    }
                    cover[offset + pos] += 1;
                }
            }
            for i in (0..read.len()).filter(|&i| cover[i] > 0) {
                let (mut best, mut best_p) = (0usize, -1.0f64);
                for b in 0..4 {
                    if post[i][b] > best_p {
                        (best, best_p) = (b, post[i][b]);
                    }
                }
                read.seq[i] = alphabet::decode_base(best as u8);
            }
        }
        out
    }

    /// The source table and the threshold bits change no base: against the reference on reads with repeats and
    /// `N`s, at `d_max` 1 and 2, with thresholds that gate few reads, most
    /// reads and all of them.
    #[test]
    fn correction_matches_the_reference() {
        let repeats = vec![RepeatClass { length: 150, multiplicity: 8 }];
        for (k, dmax, seed) in [(9, 1, 21), (8, 2, 22)] {
            let g = GenomeSpec::with_repeats(2_000, repeats.clone()).generate(seed).seq;
            let cfg = ReadSimConfig {
                read_len: 36,
                n_reads: 2_000 * 40 / 36,
                error_model: ErrorModel::uniform(36, 0.02),
                both_strands: true,
                with_quals: false,
                n_rate: 0.01,
                seed,
            };
            let reads = simulate_reads(&g, &cfg).reads;
            let km = KmerErrorModel::uniform(k, 0.02);
            let redeem = Redeem::new(&reads, k, &km, dmax);
            let t = redeem.run(&EmConfig { dmax, max_iters: 10, tol: 0.0 }).t;
            for (liberal, detect) in [(5.0, 2.0), (30.0, 8.0), (f64::INFINITY, 0.0)] {
                let want = reference_correct_reads(&redeem, &km, &t, &reads, liberal, detect);
                let mut got = reads.clone();
                correct_reads_in_place(&redeem, &km, &t, &mut got, liberal, detect);
                assert!(got.iter().map(|r| &r.seq).eq(want.iter().map(|r| &r.seq)));
                assert!(got.iter().zip(&reads).any(|(a, b)| a.seq != b.seq), "nothing corrected");
            }
        }
    }
}
