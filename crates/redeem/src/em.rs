//! The REDEEM EM algorithm (§3.2).
//!
//! Observed k-mer counts follow a multinomial whose category probabilities
//! mix the true sampling rates of all k-mers in the (incomplete, observed-
//! only) neighbourhood: `p_l = Σ_{x_m ∈ N^{dmax}_l} s_m · pe(x_m, x_l)`.
//! The EM update equations, initialised with `T_l = Y_l`:
//!
//! ```text
//! E:  E[Y_lm | Y, T] = Y_m · T_l · pe(x_l, x_m) / Σ_{l'} T_{l'} · pe(x_{l'}, x_m)
//! M:  T_l = Σ_m E[Y_lm | Y, T]
//! ```
//!
//! `P_e` is sparse (capped at `d_max`) and row-normalised over the observed
//! neighbourhood, exactly as §3.2 prescribes.

use crate::error_model::KmerErrorModel;
use ngs_core::Read;
use ngs_kmer::neighbor::{default_chunks, HammingGraph};
use ngs_kmer::KSpectrum;
use rayon::prelude::*;
use std::ops::Range;

/// EM configuration.
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Maximum Hamming distance for the k-mer neighbourhood (paper: 1).
    pub dmax: usize,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Relative log-likelihood improvement below which EM stops.
    pub tol: f64,
}

impl Default for EmConfig {
    fn default() -> EmConfig {
        EmConfig { dmax: 1, max_iters: 60, tol: 1e-7 }
    }
}

/// Result of an EM run.
#[derive(Debug, Clone)]
pub struct EmResult {
    /// Estimated expected read attempts `T_l`, parallel to the spectrum.
    pub t: Vec<f64>,
    /// Log-likelihood (up to an additive constant) after each iteration.
    pub loglik_trace: Vec<f64>,
    /// Iterations actually run.
    pub iterations: usize,
}

/// EM state at an iteration boundary — the unit `redeem-detect
/// --checkpoint-dir` persists every N iterations.
///
/// The EM update reads nothing but `t`, `prev_ll` and the iteration count,
/// so resuming [`Redeem::run_resumable`] from any checkpointed state is
/// *exactly* equivalent to never having stopped: the remaining iterations
/// compute bit-identical `T` values (all state round-trips through
/// `f64::to_bits`). `converged` distinguishes a finished run from a
/// mid-flight one, so resuming a converged state runs zero iterations
/// instead of overshooting the tolerance check.
#[derive(Debug, Clone, PartialEq)]
pub struct EmState {
    /// Current `T_l` estimates, parallel to the spectrum.
    pub t: Vec<f64>,
    /// Log-likelihood of the previous iteration (`-inf` before the first).
    pub prev_ll: f64,
    /// Log-likelihood after each completed iteration.
    pub loglik_trace: Vec<f64>,
    /// Iterations completed so far.
    pub iterations: usize,
    /// Whether the tolerance check has already fired.
    pub converged: bool,
}

impl EmState {
    /// The EM starting point: `T = Y`. An empty spectrum has nothing to
    /// estimate and starts converged, so the EM runs no iteration.
    pub fn initial(y: &[f64]) -> EmState {
        EmState {
            t: y.to_vec(),
            prev_ll: f64::NEG_INFINITY,
            loglik_trace: Vec::new(),
            iterations: 0,
            converged: y.is_empty(),
        }
    }

    /// Finish this state into a result.
    pub fn into_result(self) -> EmResult {
        EmResult { t: self.t, loglik_trace: self.loglik_trace, iterations: self.iterations }
    }
}

/// The REDEEM model: spectrum, misread graph and edge weights.
pub struct Redeem {
    spectrum: KSpectrum,
    /// CSR offsets into `nbr` / `w_out` / `rev`; node `l`'s edges are
    /// `offsets[l]..offsets[l+1]`. The self-loop is always first, the
    /// neighbours follow in ascending order.
    offsets: Vec<u32>,
    /// Neighbour node ids (self first).
    nbr: Vec<u32>,
    /// Row-normalised `pe(l → nbr)` — probability node `l` is misread as the
    /// neighbour ("outgoing").
    w_out: Vec<f64>,
    /// The reverse of every edge: edge `e = (l → m)` in row `l` has its
    /// twin `(m → l)` at `rev[e]` in row `m` (a self-loop is its own). The
    /// graph is symmetric, so the "incoming" weight `pe(m → l)` normalised
    /// over row `m` is `w_out[rev[e]]` — the same expression over the same
    /// operands, stored once.
    rev: Vec<u32>,
    y: Vec<f64>,
}

impl Redeem {
    /// Build the model from reads: spectrum, Hamming neighbourhoods (a
    /// self-join over the masked replicas) and normalised misread weights.
    pub fn new(reads: &[Read], k: usize, model: &KmerErrorModel, dmax: usize) -> Redeem {
        Self::new_observed(reads, k, model, dmax, &ngs_observe::Collector::disabled())
    }

    /// [`Redeem::new`] with observability: the spectrum count is timed under
    /// the `redeem.build.spectrum` span, the graph and its weights under
    /// `redeem.build.graph`.
    pub fn new_observed(
        reads: &[Read],
        k: usize,
        model: &KmerErrorModel,
        dmax: usize,
        collector: &ngs_observe::Collector,
    ) -> Redeem {
        assert_eq!(model.k(), k, "error model k must match spectrum k");
        let spectrum = {
            let _span = collector.span("redeem.build.spectrum");
            KSpectrum::from_reads(reads, k)
        };
        let _span = collector.span("redeem.build.graph");
        Self::from_spectrum(spectrum, model, dmax)
    }

    /// Build from a precomputed spectrum: the Hamming graph, found edge by
    /// edge once, then one `pe` per directed edge.
    pub fn from_spectrum(spectrum: KSpectrum, model: &KmerErrorModel, dmax: usize) -> Redeem {
        let chunks = default_chunks(spectrum.k(), dmax);
        let (offsets, nbr) = HammingGraph::build(&spectrum, dmax, chunks).into_parts();
        let rev = reverse_edges(&offsets, &nbr).expect("a Hamming graph is symmetric");

        // Row l: w[e] = pe(l → nbr[e]), then the row is normalised by its
        // own sum, in row order. A few blocks of rows per thread.
        let kmers = spectrum.kmers();
        let mut w_out = vec![0.0f64; nbr.len()];
        let mut blocks: Vec<(Range<usize>, &mut [f64])> = Vec::new();
        let mut rest = w_out.as_mut_slice();
        let n = spectrum.len();
        let per_block = n.div_ceil(rayon::current_num_threads() * 4).max(1);
        for first in (0..n).step_by(per_block) {
            let rows = first..(first + per_block).min(n);
            let edges = (offsets[rows.end] - offsets[rows.start]) as usize;
            let (block, tail) = rest.split_at_mut(edges);
            blocks.push((rows, block));
            rest = tail;
        }
        blocks.into_par_iter().for_each(|(rows, block)| {
            let base = offsets[rows.start] as usize;
            for l in rows {
                let (s, e) = (offsets[l] as usize, offsets[l + 1] as usize);
                let w = &mut block[s - base..e - base];
                let diag = model.diag(kmers[l]);
                for (w, &m) in w.iter_mut().zip(&nbr[s..e]) {
                    *w = model.pe_with_diag(kmers[l], kmers[m as usize], diag);
                }
                let rowsum: f64 = w.iter().sum();
                for w in w.iter_mut() {
                    *w /= rowsum;
                }
            }
        });

        let y: Vec<f64> = spectrum.counts().iter().map(|&c| c as f64).collect();
        Redeem { spectrum, offsets, nbr, w_out, rev, y }
    }

    /// The spectrum the model was built over.
    pub fn spectrum(&self) -> &KSpectrum {
        &self.spectrum
    }

    /// The raw CSR arrays `(offsets, nbr, w_out)` for checkpoint
    /// serialization — inverse of [`Redeem::from_csr_parts`].
    pub fn csr_parts(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.offsets, &self.nbr, &self.w_out)
    }

    /// Reassemble a model from checkpointed CSR parts, re-validating the
    /// structural invariants (offset monotonicity, in-range neighbour ids,
    /// self-loop-first rows with ascending neighbours, a symmetric graph,
    /// parallel weight array) so a corrupt checkpoint errors instead of
    /// producing a model that panics or silently computes garbage mid-EM.
    /// The reverse edges are re-derived, not read.
    pub fn from_csr_parts(
        spectrum: KSpectrum,
        offsets: Vec<u32>,
        nbr: Vec<u32>,
        w_out: Vec<f64>,
    ) -> ngs_core::Result<Redeem> {
        use ngs_core::NgsError;
        let n = spectrum.len();
        let bad = |msg: String| Err(NgsError::MalformedRecord(format!("redeem CSR: {msg}")));
        if offsets.len() != n + 1 || offsets.first() != Some(&0) {
            return bad(format!("{} offsets for {n} nodes", offsets.len()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return bad("offsets not monotone".into());
        }
        if *offsets.last().unwrap() as usize != nbr.len() || w_out.len() != nbr.len() {
            return bad(format!(
                "edge arrays disagree: last offset {}, |nbr|={}, |w_out|={}",
                offsets.last().unwrap(),
                nbr.len(),
                w_out.len(),
            ));
        }
        if nbr.iter().any(|&m| m as usize >= n) {
            return bad("neighbour id out of range".into());
        }
        for l in 0..n {
            let row = &nbr[offsets[l] as usize..offsets[l + 1] as usize];
            if row.first() != Some(&(l as u32)) {
                return bad(format!("row {l} does not start with its self-loop"));
            }
            if row[1..].windows(2).any(|w| w[0] >= w[1]) || row[1..].contains(&(l as u32)) {
                return bad(format!("row {l}: neighbours not strictly ascending"));
            }
        }
        let rev = match reverse_edges(&offsets, &nbr) {
            Ok(rev) => rev,
            Err(msg) => return bad(msg),
        };
        let y: Vec<f64> = spectrum.counts().iter().map(|&c| c as f64).collect();
        Ok(Redeem { spectrum, offsets, nbr, w_out, rev, y })
    }

    /// Observed counts `Y` as floats (parallel to the spectrum).
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// CSR offset of node `l`'s edge row (valid for `l ∈ 0..=len`).
    pub fn offset_of(&self, l: usize) -> usize {
        self.offsets[l] as usize
    }

    /// The raw CSR neighbour array (self-loop first within each row).
    pub fn neighbors_raw(&self) -> &[u32] {
        &self.nbr
    }

    /// Number of edges of the misread graph: pairs of distinct k-mers
    /// within `d_max`, each counted once.
    pub fn edge_count(&self) -> usize {
        (self.nbr.len() - self.spectrum.len()) / 2
    }

    /// Average neighbourhood size (including self) — a diagnostic.
    pub fn average_degree(&self) -> f64 {
        if self.spectrum.is_empty() {
            return 0.0;
        }
        self.nbr.len() as f64 / self.spectrum.len() as f64
    }

    /// Run the EM, returning `T` estimates.
    pub fn run(&self, cfg: &EmConfig) -> EmResult {
        self.run_observed(cfg, &ngs_observe::Collector::disabled())
    }

    /// [`Redeem::run`] with observability: each EM iteration is timed under
    /// the `redeem.em.iteration` span, per-iteration log-likelihood
    /// improvements feed the `redeem.em.loglik_delta` histogram (log₂
    /// buckets of ⌈ΔLL⌉), and the final log-likelihood lands in the
    /// `redeem.em.final_loglik` gauge.
    pub fn run_observed(&self, cfg: &EmConfig, collector: &ngs_observe::Collector) -> EmResult {
        self.run_resumable(cfg, None, 0, &mut |_| true, collector)
    }

    /// [`Redeem::run_observed`] with checkpoint hooks: start from `resume`
    /// (or the `T = Y` initial state), and every `checkpoint_every`
    /// completed iterations hand the current [`EmState`] to
    /// `on_checkpoint`. The hook returning `false` aborts the run at that
    /// boundary and returns the state so far — the crash-injection tests
    /// use this to kill the EM at an exact iteration; real callers persist
    /// the state and return `true`. `checkpoint_every == 0` disables the
    /// hook entirely.
    pub fn run_resumable(
        &self,
        cfg: &EmConfig,
        resume: Option<EmState>,
        checkpoint_every: usize,
        on_checkpoint: &mut dyn FnMut(&EmState) -> bool,
        collector: &ngs_observe::Collector,
    ) -> EmResult {
        let n = self.spectrum.len();
        let mut state = resume.unwrap_or_else(|| EmState::initial(&self.y));
        let start_iterations = state.iterations;
        // Per-node buffers every iteration refills.
        let (mut denom, mut terms, mut t_next) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        while !state.converged && state.iterations < cfg.max_iters {
            state.iterations += 1;
            let mut iter_span =
                collector.span_with_threads("redeem.em.iteration", rayon::current_num_threads());
            // Denominators: denom_m = Σ_{l ∈ row m} T_l · pe(l → m), which
            // in CSR terms is a gather over row m with the incoming weights,
            // read through the reverse edges.
            let t = &state.t;
            fill_rows(&mut denom, |m| {
                let (s, e) = (self.offsets[m] as usize, self.offsets[m + 1] as usize);
                self.nbr[s..e]
                    .iter()
                    .zip(&self.rev[s..e])
                    .map(|(&l, &r)| t[l as usize] * self.w_out[r as usize])
                    .sum::<f64>()
                    .max(1e-300)
            });

            // Log-likelihood (up to constant): Σ_m Y_m ln denom_m, summed
            // in node order.
            fill_rows(&mut terms, |m| self.y[m] * denom[m].ln());
            let ll: f64 = terms.iter().sum();
            state.loglik_trace.push(ll);

            // M-step: T_l = Σ_{m ∈ row l} Y_m · T_l · pe(l→m) / denom_m.
            fill_rows(&mut t_next, |l| {
                let (s, e) = (self.offsets[l] as usize, self.offsets[l + 1] as usize);
                let tl = t[l];
                self.nbr[s..e]
                    .iter()
                    .zip(&self.w_out[s..e])
                    .map(|(&m, &w)| {
                        let m = m as usize;
                        self.y[m] * tl * w / denom[m]
                    })
                    .sum()
            });
            std::mem::swap(&mut state.t, &mut t_next);
            // Report the parallelism the E/M gathers actually got, not
            // the pool size (they may have run sequentially).
            iter_span.set_threads(rayon::last_threads_used());

            if state.prev_ll.is_finite() {
                collector
                    .record("redeem.em.loglik_delta", (ll - state.prev_ll).abs().ceil() as u64);
                let rel = (ll - state.prev_ll).abs() / (state.prev_ll.abs().max(1.0));
                if rel < cfg.tol {
                    state.converged = true;
                }
            }
            if !state.converged {
                state.prev_ll = ll;
            }
            if checkpoint_every > 0
                && !state.converged
                && state.iterations.is_multiple_of(checkpoint_every)
                && !on_checkpoint(&state)
            {
                break;
            }
        }
        // Count only the iterations run in *this* session, so a resumed
        // run's BENCH report reflects the work it actually did.
        collector.add("redeem.em.iterations", (state.iterations - start_iterations) as u64);
        if let Some(&ll) = state.loglik_trace.last() {
            collector.gauge("redeem.em.final_loglik", ll);
        }
        state.into_result()
    }
}

/// `out[l] = f(l)` for every node `l`, in parallel over a few blocks of
/// nodes per thread. Each value is its own expression, so the result does
/// not depend on the blocking.
fn fill_rows(out: &mut [f64], f: impl Fn(usize) -> f64 + Sync) {
    let per_block = out.len().div_ceil(rayon::current_num_threads() * 4).max(1);
    out.chunks_mut(per_block).enumerate().collect::<Vec<_>>().into_par_iter().for_each(
        |(b, block)| {
            for (i, v) in block.iter_mut().enumerate() {
                *v = f(b * per_block + i);
            }
        },
    );
}

/// The reverse of every edge of a CSR graph whose rows are their node, then
/// its neighbours ascending (see [`Redeem`]'s `rev`), by one pass over the
/// rows in node order: row `m`'s neighbours below `m` lead the row in
/// ascending order, so when row `l` reaches its edge to some `m > l`, the
/// next unmatched entry of row `m` must be `l`. Errors when the graph is
/// not symmetric.
fn reverse_edges(offsets: &[u32], nbr: &[u32]) -> Result<Vec<u32>, String> {
    let n = offsets.len() - 1;
    let mut rev = vec![u32::MAX; nbr.len()];
    let mut next: Vec<u32> = offsets[..n].iter().map(|&s| s + 1).collect();
    for l in 0..n {
        let s = offsets[l] as usize;
        rev[s] = s as u32;
        for e in s + 1..offsets[l + 1] as usize {
            let m = nbr[e] as usize;
            if m < l {
                continue;
            }
            let f = next[m] as usize;
            if f >= offsets[m + 1] as usize || nbr[f] as usize != l {
                return Err(format!("edge {l} -> {m} has no reverse"));
            }
            (rev[e], rev[f]) = (f as u32, e as u32);
            next[m] += 1;
        }
    }
    match rev.iter().position(|&r| r == u32::MAX) {
        Some(e) => Err(format!("edge {e} has no reverse")),
        None => Ok(rev),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_simulate::{simulate_reads, ErrorModel, GenomeSpec, ReadSimConfig, RepeatClass};

    fn build(
        genome_len: usize,
        repeats: Vec<RepeatClass>,
        pe: f64,
        seed: u64,
    ) -> (Vec<u8>, Redeem, KmerErrorModel, ngs_simulate::SimulatedReads) {
        build_at(genome_len, repeats, pe, seed, 1)
    }

    fn build_at(
        genome_len: usize,
        repeats: Vec<RepeatClass>,
        pe: f64,
        seed: u64,
        dmax: usize,
    ) -> (Vec<u8>, Redeem, KmerErrorModel, ngs_simulate::SimulatedReads) {
        let g = GenomeSpec::with_repeats(genome_len, repeats).generate(31).seq;
        let cfg = ReadSimConfig {
            read_len: 36,
            n_reads: genome_len * 50 / 36,
            error_model: ErrorModel::uniform(36, pe),
            both_strands: false,
            with_quals: false,
            n_rate: 0.0,
            seed,
        };
        let sim = simulate_reads(&g, &cfg);
        let k = 9;
        let km = KmerErrorModel::uniform(k, pe);
        let redeem = Redeem::new(&sim.reads, k, &km, dmax);
        (g, redeem, km, sim)
    }

    #[test]
    fn loglik_nondecreasing() {
        let (_, redeem, _, _) = build(4_000, vec![], 0.01, 1);
        let res = redeem.run(&EmConfig { dmax: 1, max_iters: 20, tol: 0.0 });
        for w in res.loglik_trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "loglik decreased: {} -> {}", w[0], w[1]);
        }
    }

    /// EM never lowers the likelihood it climbs: on a genome half made of
    /// a 10-copy repeat, at `d_max` 1 and 2, no step of the trace drops by
    /// more than rounding (`1e-12·|ll|`) up to the shipped tolerance.
    #[test]
    fn loglik_never_decreases_on_repeats() {
        for dmax in [1, 2] {
            let repeats = vec![RepeatClass { length: 300, multiplicity: 10 }];
            let (_, redeem, _, _) = build_at(6_000, repeats, 0.01, 12, dmax);
            let res = redeem.run(&EmConfig { dmax, ..EmConfig::default() });
            assert!(res.loglik_trace.len() >= 3, "dmax={dmax}: {:?}", res.loglik_trace);
            for (i, w) in res.loglik_trace.windows(2).enumerate() {
                assert!(
                    w[1] >= w[0] - 1e-12 * w[0].abs(),
                    "dmax={dmax} iteration {}: loglik {} -> {}",
                    i + 2,
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn total_mass_preserved() {
        // Σ T_l stays equal to Σ Y_l: the M-step redistributes counts.
        let (_, redeem, _, _) = build(4_000, vec![], 0.02, 2);
        let res = redeem.run(&EmConfig::default());
        let sum_y: f64 = redeem.y().iter().sum();
        let sum_t: f64 = res.t.iter().sum();
        assert!((sum_y - sum_t).abs() / sum_y < 1e-9, "Y={sum_y} T={sum_t}");
    }

    #[test]
    fn error_kmers_get_depressed_t() {
        let (g, redeem, _, _) = build(4_000, vec![], 0.01, 3);
        let res = redeem.run(&EmConfig::default());
        // Split kmers by genomic truth; average T of error kmers must be far
        // below average T of genomic kmers, and more separated than Y.
        let genomic = genomic_flags(&g, redeem.spectrum());
        let (mut tg, mut te, mut yg, mut ye) = (0.0, 0.0, 0.0, 0.0);
        let (mut ng, mut ne) = (0usize, 0usize);
        for (i, &is_g) in genomic.iter().enumerate() {
            if is_g {
                tg += res.t[i];
                yg += redeem.y()[i];
                ng += 1;
            } else {
                te += res.t[i];
                ye += redeem.y()[i];
                ne += 1;
            }
        }
        assert!(ne > 0 && ng > 0);
        let (tg, te, yg, ye) = (tg / ng as f64, te / ne as f64, yg / ng as f64, ye / ne as f64);
        // At maximum likelihood a singleton error k-mer keeps T close to
        // its count (the neighbourhood cannot explain a whole observation),
        // but T must still drop below Y and widen the genomic/error ratio.
        assert!(te < ye, "error-kmer T {te} should drop below Y {ye}");
        assert!(tg / te > yg / ye, "T separation should beat Y separation");
    }

    #[test]
    fn repeat_kmer_t_tracks_multiplicity() {
        // A 10-copy repeat: its kmers' T should be ~10x the unique baseline.
        let (g, redeem, _, _) =
            build(6_000, vec![RepeatClass { length: 300, multiplicity: 10 }], 0.005, 4);
        let res = redeem.run(&EmConfig::default());
        let genomic = genomic_flags(&g, redeem.spectrum());
        // Baseline: median T of genomic kmers.
        let mut tg: Vec<f64> =
            genomic.iter().enumerate().filter(|(_, &f)| f).map(|(i, _)| res.t[i]).collect();
        tg.sort_unstable_by(f64::total_cmp);
        let median = tg[tg.len() / 2];
        let max = *tg.last().unwrap();
        assert!(max > 5.0 * median, "repeat kmers should stand out: max={max} median={median}");
    }

    /// Truth flags: does each spectrum k-mer occur in the genome (fwd or rc)?
    fn genomic_flags(genome: &[u8], spectrum: &KSpectrum) -> Vec<bool> {
        use ngs_core::hash::FxHashSet;
        let k = spectrum.k();
        let mut set: FxHashSet<u64> = FxHashSet::default();
        ngs_kmer::for_each_kmer(genome, k, |_, v| {
            set.insert(v);
            set.insert(ngs_kmer::packed::reverse_complement_packed(v, k));
        });
        spectrum.kmers().iter().map(|v| set.contains(v)).collect()
    }

    /// The model build the sorted passes replaced, kept as their oracle:
    /// probe every k-mer for its neighbours, then compute `pe` separately
    /// for the row sums, the outgoing and the incoming weights. Returns
    /// `(offsets, nbr, w_out, w_in)`.
    fn reference_csr(
        spectrum: &KSpectrum,
        model: &KmerErrorModel,
        dmax: usize,
    ) -> (Vec<u32>, Vec<u32>, Vec<f64>, Vec<f64>) {
        use ngs_kmer::neighbor::{NeighborIndex, NeighborStrategy};
        let chunks = default_chunks(spectrum.k(), dmax);
        let index =
            NeighborIndex::build(spectrum, dmax, NeighborStrategy::MaskedReplicas { chunks });
        let kmers = spectrum.kmers();
        let (mut offsets, mut nbr) = (vec![0u32], Vec::new());
        for (l, &v) in kmers.iter().enumerate() {
            nbr.push(l as u32);
            nbr.extend(index.neighbors(v, dmax).into_iter().map(|m| m as u32));
            offsets.push(nbr.len() as u32);
        }
        let diags: Vec<f64> = kmers.iter().map(|&v| model.diag(v)).collect();
        let row = |l: usize| offsets[l] as usize..offsets[l + 1] as usize;
        let rowsums: Vec<f64> = (0..kmers.len())
            .map(|l| {
                nbr[row(l)]
                    .iter()
                    .map(|&m| model.pe_with_diag(kmers[l], kmers[m as usize], diags[l]))
                    .sum()
            })
            .collect();
        let (mut w_out, mut w_in) = (Vec::new(), Vec::new());
        for l in 0..kmers.len() {
            for &m in &nbr[row(l)] {
                let m = m as usize;
                w_out.push(model.pe_with_diag(kmers[l], kmers[m], diags[l]) / rowsums[l]);
                w_in.push(model.pe_with_diag(kmers[m], kmers[l], diags[m]) / rowsums[m]);
            }
        }
        (offsets, nbr, w_out, w_in)
    }

    /// The self-join and the single weight pass give the reference's graph
    /// and weights to the bit, and the incoming weight read through the
    /// reverse edge is the reference's `w_in` to the bit — so the EM's sums
    /// see the same operands in the same order.
    #[test]
    fn model_matches_the_reference_build_bit_for_bit() {
        let repeats = vec![RepeatClass { length: 150, multiplicity: 6 }];
        for (k, dmax, seed) in [(9, 1, 11), (7, 2, 12), (11, 1, 13), (8, 2, 14)] {
            let g = GenomeSpec::with_repeats(1_500, repeats.clone()).generate(seed).seq;
            let cfg = ReadSimConfig {
                read_len: 36,
                n_reads: 1_500 * 30 / 36,
                error_model: ErrorModel::uniform(36, 0.02),
                both_strands: true,
                with_quals: false,
                n_rate: 0.01,
                seed,
            };
            let reads = simulate_reads(&g, &cfg).reads;
            let km = KmerErrorModel::uniform(k, 0.02);
            let redeem = Redeem::new(&reads, k, &km, dmax);
            let (offsets, nbr, w_out, w_in) = reference_csr(redeem.spectrum(), &km, dmax);
            let ctx = format!("k={k} dmax={dmax}");
            assert!(redeem.average_degree() > 1.5, "{ctx}: too few edges to test anything");
            assert_eq!(redeem.offsets, offsets, "{ctx}");
            assert_eq!(redeem.nbr, nbr, "{ctx}");
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&redeem.w_out), bits(&w_out), "{ctx}");
            let incoming: Vec<f64> = redeem.rev.iter().map(|&r| redeem.w_out[r as usize]).collect();
            assert_eq!(bits(&incoming), bits(&w_in), "{ctx}");
        }
    }

    #[test]
    fn reverse_edges_pair_every_edge_with_its_twin() {
        let (_, redeem, _, _) = build(2_000, vec![], 0.02, 9);
        for l in 0..redeem.spectrum.len() {
            for e in redeem.offset_of(l)..redeem.offset_of(l + 1) {
                let f = redeem.rev[e] as usize;
                assert_eq!(redeem.rev[f] as usize, e);
                assert_eq!(redeem.nbr[f] as usize, l);
                let m = redeem.nbr[e] as usize;
                assert!((redeem.offset_of(m)..redeem.offset_of(m + 1)).contains(&f));
            }
        }
    }

    #[test]
    fn average_degree_reported() {
        let (_, redeem, _, _) = build(2_000, vec![], 0.01, 5);
        assert!(redeem.average_degree() >= 1.0);
    }

    /// Resume equivalence: killing the EM at any checkpoint boundary and
    /// resuming from the captured state must produce bit-identical `T`
    /// values and the same iteration count as an uninterrupted run.
    #[test]
    fn resume_from_any_checkpoint_is_bit_identical() {
        let (_, redeem, _, _) = build(3_000, vec![], 0.01, 7);
        // tol 0 never converges, so every kill point is reached.
        let cfg = EmConfig { dmax: 1, max_iters: 12, tol: 0.0 };
        let collector = ngs_observe::Collector::disabled();
        let full = redeem.run_resumable(&cfg, None, 0, &mut |_| true, &collector);
        assert_eq!(full.iterations, 12);

        for kill_after in [2usize, 4, 6, 10] {
            // Run until the checkpoint at `kill_after` iterations, abort.
            let mut captured: Option<EmState> = None;
            let partial = redeem.run_resumable(
                &cfg,
                None,
                kill_after,
                &mut |s| {
                    if captured.is_none() {
                        captured = Some(s.clone());
                        false // simulate the process dying here
                    } else {
                        true
                    }
                },
                &collector,
            );
            let state = captured.expect("checkpoint hook must fire");
            assert_eq!(partial.iterations, kill_after.min(full.iterations));
            if state.iterations >= full.iterations {
                continue; // converged before the kill point
            }
            // Resume and compare bit-for-bit.
            let resumed = redeem.run_resumable(&cfg, Some(state), 0, &mut |_| true, &collector);
            assert_eq!(resumed.iterations, full.iterations, "kill_after={kill_after}");
            assert_eq!(resumed.loglik_trace.len(), full.loglik_trace.len());
            for (a, b) in resumed.t.iter().zip(&full.t) {
                assert_eq!(a.to_bits(), b.to_bits(), "T diverged after resume");
            }
            for (a, b) in resumed.loglik_trace.iter().zip(&full.loglik_trace) {
                assert_eq!(a.to_bits(), b.to_bits(), "trace diverged after resume");
            }
        }
    }

    /// A state captured *after* convergence resumes to zero extra work.
    #[test]
    fn resuming_converged_state_runs_no_iterations() {
        let (_, redeem, _, _) = build(2_000, vec![], 0.01, 8);
        let cfg = EmConfig { dmax: 1, max_iters: 40, tol: 1e-4 };
        let collector = ngs_observe::Collector::disabled();
        let full = redeem.run_resumable(&cfg, None, 0, &mut |_| true, &collector);
        assert!(full.iterations < 40, "should converge before the cap");
        let finished = EmState {
            t: full.t.clone(),
            prev_ll: f64::NEG_INFINITY,
            loglik_trace: full.loglik_trace.clone(),
            iterations: full.iterations,
            converged: true,
        };
        let c2 = ngs_observe::Collector::new();
        let resumed = redeem.run_resumable(&cfg, Some(finished), 0, &mut |_| true, &c2);
        assert_eq!(resumed.iterations, full.iterations);
        assert_eq!(c2.report("redeem").counter("redeem.em.iterations"), 0);
        for (a, b) in resumed.t.iter().zip(&full.t) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn observed_run_reports_iteration_spans() {
        let (_, redeem, _, _) = build(2_000, vec![], 0.01, 6);
        let collector = ngs_observe::Collector::new();
        let res = redeem.run_observed(&EmConfig { dmax: 1, max_iters: 8, tol: 0.0 }, &collector);
        let report = collector.report("redeem");
        let span = report.span("redeem.em.iteration").expect("iteration span");
        assert_eq!(span.count, res.iterations as u64);
        assert_eq!(report.counter("redeem.em.iterations"), res.iterations as u64);
        assert!(report.gauges.contains_key("redeem.em.final_loglik"));
        // The plain entry point must not record anything.
        let silent = ngs_observe::Collector::disabled();
        redeem.run_observed(&EmConfig::default(), &silent);
        assert!(silent.report("redeem").spans.is_empty());
    }
}
