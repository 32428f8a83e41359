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
//! position i, we average across available t … If argmax_b π(b) ≠ `r[i]`,
//! then we declare nucleotide `r[i]` misread and correct it. To limit
//! computations, we apply this method to reads likely to contain at least
//! one erroneous kmer, as identified with a liberal threshold M."
//!
//! A read's correction is a chain of dependent random loads per k-mer: the
//! spectrum's directory entry, then the bucket's keys, then the k-mer's `z`
//! and source offset, then its source row. Looked up one k-mer at a time,
//! each load waits for the one before it, and the data-dependent branches
//! between k-mers keep the CPU from starting the next k-mer's loads early.
//! So a read is corrected in passes over all its k-mers: prefetch every
//! directory entry, then every bucket's first key, then look every k-mer up,
//! then (for a read the gate lets through) prefetch every `z` and offset,
//! then every source row, and only then compute. Each pass's loads are in
//! flight together. The arithmetic, and so every corrected base, is the
//! same as with one k-mer at a time.

use crate::em::Redeem;
use crate::error_model::KmerErrorModel;
use ngs_core::{alphabet, Read};
use ngs_kmer::directory::prefetch;
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
/// each with one set of buffers for all its reads. Returns what the pass
/// did, summed over the batches.
pub fn correct_reads_in_place(
    redeem: &Redeem,
    model: &KmerErrorModel,
    t: &[f64],
    reads: &mut [Read],
    liberal_threshold: f64,
    detect_threshold: f64,
) -> CorrectionStats {
    assert_eq!(t.len(), redeem.spectrum().len());
    let pass = Correction {
        spectrum: redeem.spectrum(),
        suspicious: NodeSet::of(t, |t| t < liberal_threshold),
        sources: Sources::build(redeem, model, t, detect_threshold),
    };
    let batch = (reads.len() / (rayon::current_num_threads() * 4)).max(256);
    let per_batch: Vec<CorrectionStats> = reads
        .chunks_mut(batch)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|batch| {
            let mut scratch = ReadScratch::default();
            let mut stats = CorrectionStats::default();
            for read in batch {
                pass.correct_one(read, &mut scratch, &mut stats);
            }
            stats
        })
        .collect();
    let mut all = CorrectionStats::default();
    for stats in &per_batch {
        all.merge(stats);
    }
    all
}

/// What one correction pass did. Exact counts, equal at every thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorrectionStats {
    /// Reads the liberal threshold let through: they hold a k-mer with
    /// `T` below it, or one outside the spectrum.
    pub reads_gated: u64,
    /// Reads with at least one changed base.
    pub reads_changed: u64,
    /// Individual bases changed.
    pub bases_changed: u64,
}

impl CorrectionStats {
    /// Accumulate another batch's counters.
    fn merge(&mut self, other: &CorrectionStats) {
        self.reads_gated += other.reads_gated;
        self.reads_changed += other.reads_changed;
        self.bases_changed += other.bases_changed;
    }

    /// Fold the counters into an observe collector as
    /// `redeem.correct.{reads_gated,reads_changed,bases_changed}`. Stats
    /// are summed per batch and folded here once, so correction's hot path
    /// never touches the collector.
    pub fn record_into(&self, collector: &ngs_observe::Collector) {
        collector.add("redeem.correct.reads_gated", self.reads_gated);
        collector.add("redeem.correct.reads_changed", self.reads_changed);
        collector.add("redeem.correct.bases_changed", self.bases_changed);
    }
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
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Sources {
    /// Node `l`'s sources are `mass[start[l]..start[l + 1]]`.
    start: Vec<u32>,
    mass: Vec<(Kmer, f64)>,
    z: Vec<f64>,
}

impl Sources {
    fn build(redeem: &Redeem, model: &KmerErrorModel, t: &[f64], detect_threshold: f64) -> Sources {
        Self::build_in_blocks(redeem, model, t, detect_threshold, rayon::current_num_threads() * 4)
    }

    /// [`Sources::build`] over about `blocks` blocks of rows, each filled on
    /// the pool. Every array is allocated once at its final size: a count
    /// pass sizes each row, then each block writes its own slices of
    /// `mass` and `z`. A row's sum runs in row order, so the table does not
    /// depend on the block count.
    fn build_in_blocks(
        redeem: &Redeem,
        model: &KmerErrorModel,
        t: &[f64],
        detect_threshold: f64,
        blocks: usize,
    ) -> Sources {
        let detected = NodeSet::of(t, |t| t < detect_threshold);
        let (kmers, nbr) = (redeem.spectrum().kmers(), redeem.neighbors_raw());
        let n = kmers.len();
        let row = |l: usize| &nbr[redeem.offset_of(l)..redeem.offset_of(l + 1)];
        let per_block = n.div_ceil(blocks.max(1)).max(1);

        // Count pass: start[l + 1] holds row l's source count, then the
        // prefix sum turns counts into offsets.
        let mut start = vec![0u32; n + 1];
        let counts: Vec<(usize, &mut [u32])> =
            start[1..].chunks_mut(per_block).enumerate().collect();
        counts.into_par_iter().for_each(|(b, counts)| {
            for (l, count) in (b * per_block..).zip(counts) {
                *count = row(l).iter().filter(|&&m| !detected.contains(m as usize)).count() as u32;
            }
        });
        for l in 0..n {
            start[l + 1] = start[l]
                .checked_add(start[l + 1])
                .expect("a source table holds at most u32::MAX entries");
        }

        // Fill pass: each block of rows owns its slice of `mass` and of `z`.
        let mut mass = vec![(0, 0.0f64); start[n] as usize];
        let mut z = vec![0.0f64; n];
        let mut slices = Vec::new();
        let mut rest = mass.as_mut_slice();
        for first in (0..n).step_by(per_block) {
            let end = (first + per_block).min(n);
            let (block, tail) = rest.split_at_mut((start[end] - start[first]) as usize);
            slices.push((first, block));
            rest = tail;
        }
        let jobs: Vec<_> = slices.into_iter().zip(z.chunks_mut(per_block)).collect();
        jobs.into_par_iter().for_each(|((first, block), z)| {
            let mut out = block.iter_mut();
            for (l, z) in (first..).zip(z) {
                for &m in row(l) {
                    let m = m as usize;
                    if !detected.contains(m) {
                        let w = t[m] * model.pe(kmers[m], kmers[l]);
                        *out.next().expect("the count pass sized this row") = (kmers[m], w);
                        *z += w;
                    }
                }
            }
        });
        Sources { start, mass, z }
    }

    fn of(&self, l: usize) -> &[(Kmer, f64)] {
        &self.mass[self.start[l] as usize..self.start[l + 1] as usize]
    }

    /// Start loading `z_l` and row `l`'s offset.
    #[inline]
    fn prefetch_offsets(&self, l: usize) {
        prefetch(&self.z[l]);
        prefetch(&self.start[l]);
    }

    /// Start loading row `l`'s first source; reads the offsets that
    /// [`Sources::prefetch_offsets`] loads.
    #[inline]
    fn prefetch_row(&self, l: usize) {
        if let Some(first) = self.of(l).first() {
            prefetch(first);
        }
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
    /// The read's k-mers: offset, packed k-mer, spectrum index.
    kmers: Vec<(usize, Kmer, Option<usize>)>,
    /// Source mass by k-mer position and base.
    by_base: Vec<[f64; 4]>,
    /// Per read position: summed per-k-mer posteriors, and how many
    /// k-mers contributed.
    post: Vec<[f64; 4]>,
    cover: Vec<u32>,
}

impl Correction<'_> {
    /// Correct one read in place and count it into `stats`. The loads of
    /// all the read's k-mers are issued pass by pass before they are used
    /// (see the module docs).
    #[allow(clippy::needless_range_loop)]
    fn correct_one(&self, read: &mut Read, scratch: &mut ReadScratch, stats: &mut CorrectionStats) {
        let k = self.spectrum.k();
        if read.len() < k {
            return;
        }
        let ReadScratch { kmers, by_base, post, cover } = scratch;
        kmers.clear();
        ngs_kmer::for_each_kmer(&read.seq, k, |offset, v| kmers.push((offset, v, None)));
        if kmers.is_empty() {
            return;
        }
        for &(_, v, _) in kmers.iter() {
            self.spectrum.prefetch_directory(v);
        }
        for &(_, v, _) in kmers.iter() {
            self.spectrum.prefetch_bucket(v);
        }
        for (_, v, l) in kmers.iter_mut() {
            *l = self.spectrum.index_of(*v);
        }
        // Gate: does the read contain a suspicious k-mer?
        if !kmers.iter().any(|&(_, _, l)| l.is_none_or(|i| self.suspicious.contains(i))) {
            return;
        }
        stats.reads_gated += 1;
        for l in kmers.iter().filter_map(|&(_, _, l)| l) {
            self.sources.prefetch_offsets(l);
        }
        for l in kmers.iter().filter_map(|&(_, _, l)| l) {
            self.sources.prefetch_row(l);
        }

        // Accumulate per-base posteriors averaged over covering k-mers.
        let len = read.len();
        post.clear();
        post.resize(len, [0.0f64; 4]);
        cover.clear();
        cover.resize(len, 0u32);
        for &(offset, _, l) in kmers.iter() {
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

        let mut changed = 0u64;
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
                changed += 1;
            }
        }
        stats.reads_changed += u64::from(changed > 0);
        stats.bases_changed += changed;
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
    /// cell is divided by `z`. Also returns how many reads the gate let
    /// through.
    #[allow(clippy::needless_range_loop)]
    fn reference_correct_reads(
        redeem: &Redeem,
        model: &KmerErrorModel,
        t: &[f64],
        reads: &[Read],
        liberal_threshold: f64,
        detect_threshold: f64,
    ) -> (Vec<Read>, u64) {
        let spectrum = redeem.spectrum();
        let k = spectrum.k();
        let mut out = reads.to_vec();
        let mut gated = 0;
        for read in out.iter_mut().filter(|r| r.len() >= k) {
            let kmers = ngs_kmer::kmers_of(&read.seq, k);
            let suspicious = kmers
                .iter()
                .any(|&(_, v)| spectrum.index_of(v).is_none_or(|i| t[i] < liberal_threshold));
            if kmers.is_empty() || !suspicious {
                continue;
            }
            gated += 1;
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
        (out, gated)
    }

    /// Correct `reads` with the source table and with the reference;
    /// require the same bases, and counters that agree with the output.
    fn assert_matches_reference(
        redeem: &Redeem,
        km: &KmerErrorModel,
        t: &[f64],
        reads: &[Read],
        liberal: f64,
        detect: f64,
    ) -> CorrectionStats {
        let (want, gated) = reference_correct_reads(redeem, km, t, reads, liberal, detect);
        let mut got = reads.to_vec();
        let stats = correct_reads_in_place(redeem, km, t, &mut got, liberal, detect);
        assert!(got.iter().map(|r| &r.seq).eq(want.iter().map(|r| &r.seq)));
        let changed: Vec<u64> = got
            .iter()
            .zip(reads)
            .map(|(a, b)| a.seq.iter().zip(&b.seq).filter(|(x, y)| x != y).count() as u64)
            .collect();
        let want_stats = CorrectionStats {
            reads_gated: gated,
            reads_changed: changed.iter().filter(|&&c| c > 0).count() as u64,
            bases_changed: changed.iter().sum(),
        };
        assert_eq!(stats, want_stats, "liberal {liberal}, detect {detect}");
        stats
    }

    /// Reads from a `genome_len` genome with one 8-copy repeat, both
    /// strands, 2 % substitutions and 1 % `N`s, at 40× coverage.
    fn repeat_reads(genome: &[u8], read_len: usize, seed: u64) -> Vec<Read> {
        let cfg = ReadSimConfig {
            read_len,
            n_reads: genome.len() * 40 / read_len,
            error_model: ErrorModel::uniform(read_len, 0.02),
            both_strands: true,
            with_quals: false,
            n_rate: 0.01,
            seed,
        };
        simulate_reads(genome, &cfg).reads
    }

    fn repeat_genome(seed: u64) -> Vec<u8> {
        let repeats = vec![RepeatClass { length: 150, multiplicity: 8 }];
        GenomeSpec::with_repeats(2_000, repeats).generate(seed).seq
    }

    /// The model and its EM estimates over `reads`.
    fn fitted(reads: &[Read], k: usize, dmax: usize) -> (Redeem, KmerErrorModel, Vec<f64>) {
        let km = KmerErrorModel::uniform(k, 0.02);
        let redeem = Redeem::new(reads, k, &km, dmax);
        let t = redeem.run(&EmConfig { dmax, max_iters: 10, tol: 0.0 }).t;
        (redeem, km, t)
    }

    /// The source table and the threshold bits change no base: against the
    /// reference on reads with repeats and `N`s, at `d_max` 1 and 2, with
    /// thresholds that gate few reads, most reads and all of them.
    #[test]
    fn correction_matches_the_reference() {
        for (k, dmax, seed) in [(9, 1, 21), (8, 2, 22)] {
            let reads = repeat_reads(&repeat_genome(seed), 36, seed);
            let (redeem, km, t) = fitted(&reads, k, dmax);
            for (liberal, detect) in [(5.0, 2.0), (30.0, 8.0), (f64::INFINITY, 0.0)] {
                let stats = assert_matches_reference(&redeem, &km, &t, &reads, liberal, detect);
                assert!(stats.bases_changed > 0, "nothing corrected");
            }
        }
    }

    /// At k = 32 a key fills the word: a poly-T run puts `u64::MAX` in the
    /// spectrum, in the directory's last bucket, and poly-A (`0`) in its
    /// first.
    #[test]
    fn correction_matches_the_reference_at_k_32() {
        let mut genome = repeat_genome(23);
        genome.splice(1_000..1_000, [b'T'; 40]);
        let reads = repeat_reads(&genome, 60, 23);
        let (redeem, km, t) = fitted(&reads, 32, 1);
        assert!(redeem.spectrum().index_of(u64::MAX).is_some());
        assert!(redeem.spectrum().index_of(0).is_some());
        for (liberal, detect) in [(5.0, 2.0), (f64::INFINITY, 0.0)] {
            let stats = assert_matches_reference(&redeem, &km, &t, &reads, liberal, detect);
            assert!(stats.bases_changed > 0, "nothing corrected");
        }
    }

    /// 150 bp reads interleaved with 36 bp ones, so one batch's scratch
    /// grows and shrinks from read to read.
    #[test]
    fn correction_matches_the_reference_on_long_reads() {
        let genome = repeat_genome(24);
        let long = repeat_reads(&genome, 150, 24);
        let short = repeat_reads(&genome, 36, 25);
        let reads: Vec<Read> = long.into_iter().zip(short).flat_map(|(a, b)| [a, b]).collect();
        let (redeem, km, t) = fitted(&reads, 11, 1);
        for (liberal, detect) in [(5.0, 2.0), (f64::INFINITY, 0.0)] {
            let stats = assert_matches_reference(&redeem, &km, &t, &reads, liberal, detect);
            assert!(stats.bases_changed > 0, "nothing corrected");
        }
    }

    /// A detection threshold above every `T` leaves no k-mer a source, so
    /// no base has a posterior and no read changes — though every read
    /// with a k-mer passes the gate.
    #[test]
    fn nothing_changes_when_every_kmer_is_detected() {
        let reads = repeat_reads(&repeat_genome(26), 36, 26);
        let (redeem, km, t) = fitted(&reads, 9, 1);
        let above = t.iter().fold(0.0f64, |a, &b| a.max(b)) * 2.0 + 1.0;
        let sources = Sources::build(&redeem, &km, &t, above);
        assert!(sources.mass.is_empty() && sources.z.iter().all(|&z| z == 0.0));
        let stats = assert_matches_reference(&redeem, &km, &t, &reads, f64::INFINITY, above);
        let with_kmers = reads.iter().filter(|r| !ngs_kmer::kmers_of(&r.seq, 9).is_empty());
        assert_eq!(stats.reads_gated, with_kmers.count() as u64);
        assert_eq!((stats.reads_changed, stats.bases_changed), (0, 0));
    }

    /// The final-size table filled in blocks equals the one a single
    /// sequential pass pushes, whatever the block count.
    #[test]
    fn source_table_does_not_depend_on_blocks() {
        for (k, dmax, seed) in [(9, 1, 27), (8, 2, 28)] {
            let reads = repeat_reads(&repeat_genome(seed), 36, seed);
            let (redeem, km, t) = fitted(&reads, k, dmax);
            let (kmers, nbr) = (redeem.spectrum().kmers(), redeem.neighbors_raw());
            for detect in [0.0, 2.0, 8.0] {
                let mut want = Sources { start: vec![0], mass: Vec::new(), z: Vec::new() };
                for l in 0..kmers.len() {
                    let mut z = 0.0f64;
                    for &m in &nbr[redeem.offset_of(l)..redeem.offset_of(l + 1)] {
                        let m = m as usize;
                        if t[m] >= detect {
                            let w = t[m] * km.pe(kmers[m], kmers[l]);
                            want.mass.push((kmers[m], w));
                            z += w;
                        }
                    }
                    want.start.push(want.mass.len() as u32);
                    want.z.push(z);
                }
                for blocks in [1, 3, 8] {
                    let got = Sources::build_in_blocks(&redeem, &km, &t, detect, blocks);
                    assert_eq!(got, want, "k {k}, detect {detect}, {blocks} blocks");
                }
            }
        }
    }
}
