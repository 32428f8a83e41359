//! Data-driven threshold inference — the §3.7 mixture model.
//!
//! The histogram of estimated `T_l` is multi-modal: a spike near 0 (k-mers
//! absent from the genome), then peaks at the coverage constant ×1, ×2, …
//! (genomic occurrence α = 1, 2, …). §3.7 models it as
//!
//! ```text
//! T_l ~ π₀·Gamma(α,β) + Σ_{g=1..G} π_g·N(μ_g, σ_g²) + π_{G+1}·U(0, max T)
//! ```
//!
//! with Negative-Binomial-linked Normal parameters `μ_g = gμp/(1−p)`,
//! `σ_g² = gμp/(1−p)²`, fit by EM; `Ĝ` is chosen by BIC. k-mers whose
//! posterior puts them in the Gamma component are declared non-genomic, so
//! the detection threshold is the largest `T` dominated by component 0.

use ngs_core::stats::{digamma, ln_gamma};
use rayon::prelude::*;

/// A fitted mixture model and the threshold it implies.
#[derive(Debug, Clone)]
pub struct MixtureFit {
    /// Mixing proportions `π_0 … π_{G+1}`.
    pub weights: Vec<f64>,
    /// Gamma shape `α`.
    pub alpha: f64,
    /// Gamma rate `β`.
    pub beta: f64,
    /// Negative-binomial location parameter `μ`.
    pub mu: f64,
    /// Negative-binomial probability parameter `p`.
    pub p: f64,
    /// Number of Normal components `G`.
    pub g: usize,
    /// Final log-likelihood.
    pub loglik: f64,
    /// BIC of the fit (lower is better).
    pub bic: f64,
    /// Detection threshold: the largest `T` whose posterior argmax is the
    /// Gamma (erroneous) component.
    pub threshold: f64,
    /// Mean of the g = 1 Normal component (`μp/(1−p)` — the coverage
    /// constant; ≈ 57 in the paper's E. coli example).
    pub coverage_constant: f64,
}

fn gamma_logpdf(x: f64, alpha: f64, beta: f64) -> f64 {
    if x <= 0.0 {
        return f64::NEG_INFINITY;
    }
    alpha * beta.ln() + (alpha - 1.0) * x.ln() - beta * x - ln_gamma(alpha)
}

fn normal_logpdf(x: f64, mean: f64, var: f64) -> f64 {
    let var = var.max(1e-9);
    -0.5 * ((x - mean) * (x - mean) / var + var.ln() + (2.0 * std::f64::consts::PI).ln())
}

/// Solve `ln α − ψ(α) = c` for `α > 0` by bisection (the Gamma M-step).
fn solve_gamma_shape(c: f64) -> f64 {
    // ln α − ψ(α) is strictly decreasing in α, → ∞ as α→0, → 0 as α→∞.
    if c <= 1e-12 {
        return 1e6; // effectively Normal-shaped: huge alpha
    }
    let (mut lo, mut hi) = (1e-6f64, 1e6f64);
    for _ in 0..200 {
        let mid = (lo * hi).sqrt(); // geometric bisection over decades
        let v = mid.ln() - digamma(mid);
        if v > c {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi / lo < 1.0 + 1e-12 {
            break;
        }
    }
    (lo * hi).sqrt()
}

/// Points per E-step block. Block boundaries depend on `n` alone, and the
/// per-block statistics are folded in block order, so the fit is the same
/// function of its input at every pool size.
const BLOCK: usize = 4096;

/// Largest `G` a sweep fits: the E step is compiled once for each
/// component count `N = G + 2` (Gamma + `G` Normals + Uniform) up to this.
const MAX_G: usize = 14;
const MAX_COMPONENTS: usize = MAX_G + 2;

/// What every candidate `G` shares, computed once per sweep.
struct FitInput<'a> {
    t: &'a [f64],
    /// `ln max(x, 1e-6)` per point — the Gamma density's and the Gamma
    /// M step's view of the data.
    ln_t: Vec<f64>,
    t_max: f64,
    /// Initial coverage constant: the median of clearly-nonzero values.
    cov0: f64,
}

impl<'a> FitInput<'a> {
    /// `None` when no fit is possible: a non-finite entry (it would poison
    /// every sum and burn all iterations on a NaN likelihood) or nothing
    /// above the error spike.
    fn new(t: &'a [f64]) -> Option<FitInput<'a>> {
        if !t.iter().all(|x| x.is_finite()) {
            return None;
        }
        let mut nz: Vec<f64> = t.iter().cloned().filter(|&x| x > 2.0).collect();
        if nz.is_empty() {
            return None;
        }
        let mid = nz.len() / 2;
        let cov0 = nz.select_nth_unstable_by(mid, f64::total_cmp).1.max(3.0);
        Some(FitInput {
            t,
            ln_t: t.iter().map(|&x| x.max(1e-6).ln()).collect(),
            t_max: t.iter().cloned().fold(0.0f64, f64::max).max(1.0),
            cov0,
        })
    }
}

/// Everything the E step needs that is constant across points, hoisted out
/// of the point loop once per iteration. Each per-point expression keeps
/// the operation order of [`gamma_logpdf`] / [`normal_logpdf`], so a
/// point's log-densities are bit-identical to calling them.
struct EStepConsts {
    g: usize,
    /// `ln max(π_0, 1e-300)`, then the Gamma density's constants.
    ln_w_gamma: f64,
    alpha_ln_beta: f64,
    alpha_m1: f64,
    beta: f64,
    ln_gamma_alpha: f64,
    /// The Normal components `1..=G` (the first `g` entries are live).
    normals: [NormalConsts; MAX_G],
    ln_2pi: f64,
    /// `ln max(π_{G+1}, 1e-300)` plus the Uniform log-density.
    log_uniform: f64,
}

#[derive(Clone, Copy, Default)]
struct NormalConsts {
    ln_w: f64,
    mean: f64,
    var: f64,
    ln_var: f64,
}

impl EStepConsts {
    fn new(weights: &[f64], alpha: f64, beta: f64, mu: f64, p: f64, t_max: f64) -> EStepConsts {
        let g = weights.len() - 2;
        let ln_w = |comp: usize| weights[comp].max(1e-300).ln();
        let coverage = mu * p / (1.0 - p);
        let mut normals = [NormalConsts::default(); MAX_G];
        for (i, normal) in normals[..g].iter_mut().enumerate() {
            let comp = (i + 1) as f64;
            let var = (comp * mu * p / ((1.0 - p) * (1.0 - p))).max(1e-9);
            *normal =
                NormalConsts { ln_w: ln_w(i + 1), mean: comp * coverage, var, ln_var: var.ln() };
        }
        EStepConsts {
            g,
            ln_w_gamma: ln_w(0),
            alpha_ln_beta: alpha * beta.ln(),
            alpha_m1: alpha - 1.0,
            beta,
            ln_gamma_alpha: ln_gamma(alpha),
            normals,
            ln_2pi: (2.0 * std::f64::consts::PI).ln(),
            log_uniform: ln_w(g + 1) + -(t_max.ln()),
        }
    }
}

/// Sufficient statistics of one E step (or one block of it) over `N`
/// components.
struct SuffStats<const N: usize> {
    ll: f64,
    /// `E[N_c]`.
    counts: [f64; N],
    /// `Σ r_c·x`.
    sum_t: [f64; N],
    /// `Σ r_c·x²`.
    sum_t2: [f64; N],
    /// `Σ r_0·ln x`.
    sum_lnt_0: f64,
}

impl<const N: usize> SuffStats<N> {
    const ZERO: SuffStats<N> =
        SuffStats { ll: 0.0, counts: [0.0; N], sum_t: [0.0; N], sum_t2: [0.0; N], sum_lnt_0: 0.0 };

    fn add(&mut self, other: &SuffStats<N>) {
        self.ll += other.ll;
        self.sum_lnt_0 += other.sum_lnt_0;
        for c in 0..N {
            self.counts[c] += other.counts[c];
            self.sum_t[c] += other.sum_t[c];
            self.sum_t2[c] += other.sum_t2[c];
        }
    }

    /// The same statistics padded with zeros to [`MAX_COMPONENTS`] slots,
    /// the shape the M step indexes.
    fn widen(&self) -> SuffStats<MAX_COMPONENTS> {
        let mut wide = SuffStats::ZERO;
        wide.ll = self.ll;
        wide.sum_lnt_0 = self.sum_lnt_0;
        wide.counts[..N].copy_from_slice(&self.counts);
        wide.sum_t[..N].copy_from_slice(&self.sum_t);
        wide.sum_t2[..N].copy_from_slice(&self.sum_t2);
        wide
    }
}

/// One block of the E step for `N = G + 2` components. With `N` a
/// constant the log-densities and the statistics are fixed-size arrays the
/// compiler unrolls; every per-point expression, and the order of the sums
/// over components, is the dynamic-length loop's, so the fit is unchanged
/// to the bit.
fn e_step_block<const N: usize>(c: &EStepConsts, t: &[f64], ln_t: &[f64]) -> SuffStats<N> {
    let mut s = SuffStats::ZERO;
    let mut logp = [0.0f64; N];
    for (&x, &ln_x) in t.iter().zip(ln_t) {
        logp[0] = c.ln_w_gamma
            + (c.alpha_ln_beta + c.alpha_m1 * ln_x - c.beta * x.max(1e-6) - c.ln_gamma_alpha);
        for (lp, normal) in logp[1..N - 1].iter_mut().zip(&c.normals) {
            let d = x - normal.mean;
            *lp = normal.ln_w + -0.5 * (d * d / normal.var + normal.ln_var + c.ln_2pi);
        }
        logp[N - 1] = c.log_uniform;
        let m = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut z = 0.0;
        for lp in logp.iter_mut() {
            *lp = (*lp - m).exp();
            z += *lp;
        }
        s.ll += m + z.ln();
        for (comp, &pz) in logp.iter().enumerate() {
            let r = pz / z;
            s.counts[comp] += r;
            s.sum_t[comp] += r * x;
            s.sum_t2[comp] += r * x * x;
        }
        s.sum_lnt_0 += logp[0] / z * ln_x;
    }
    s
}

/// One E step: blocks of [`BLOCK`] points on the pool, their statistics
/// folded sequentially in block order.
fn e_step_n<const N: usize>(c: &EStepConsts, input: &FitInput) -> SuffStats<MAX_COMPONENTS> {
    let n = input.t.len();
    let blocks: Vec<SuffStats<N>> = (0..n.div_ceil(BLOCK))
        .into_par_iter()
        .map(|b| {
            let span = b * BLOCK..((b + 1) * BLOCK).min(n);
            e_step_block(c, &input.t[span.clone()], &input.ln_t[span])
        })
        .collect();
    let mut total = SuffStats::ZERO;
    for block in &blocks {
        total.add(block);
    }
    total.widen()
}

/// [`e_step_n`] at `N = G + 2` for the consts' `G`.
fn e_step(c: &EStepConsts, input: &FitInput) -> SuffStats<MAX_COMPONENTS> {
    match c.g {
        1 => e_step_n::<3>(c, input),
        2 => e_step_n::<4>(c, input),
        3 => e_step_n::<5>(c, input),
        4 => e_step_n::<6>(c, input),
        5 => e_step_n::<7>(c, input),
        6 => e_step_n::<8>(c, input),
        7 => e_step_n::<9>(c, input),
        8 => e_step_n::<10>(c, input),
        9 => e_step_n::<11>(c, input),
        10 => e_step_n::<12>(c, input),
        11 => e_step_n::<13>(c, input),
        12 => e_step_n::<14>(c, input),
        13 => e_step_n::<15>(c, input),
        14 => e_step_n::<16>(c, input),
        g => unreachable!("G = {g} is outside 1..=MAX_G"),
    }
}

/// Fit the mixture for a fixed `G`; returns the fit and the number of E
/// steps it took, or `None` when there are too few points for `G`.
fn fit_fixed_g(input: &FitInput, g: usize, max_iters: usize) -> Option<(MixtureFit, usize)> {
    let n = input.t.len();
    if n < 10 * (g + 2) {
        return None;
    }
    let t_max = input.t_max;

    // Initialisation: coverage constant from the median of clearly-nonzero
    // values; Gamma hugging zero.
    let mut p = 0.5f64;
    let mut mu = input.cov0 * (1.0 - p) / p; // so that μp/(1−p) = cov0
    let mut alpha = 1.0f64;
    let mut beta = 1.0f64;
    let n_comp = g + 2;
    let mut weights = vec![1.0 / n_comp as f64; n_comp];

    let mut loglik = f64::NEG_INFINITY;
    let mut iterations = 0;
    for iter in 1..=max_iters {
        iterations = iter;
        let consts = EStepConsts::new(&weights, alpha, beta, mu, p, t_max);
        let SuffStats { ll, counts, sum_t, sum_t2, sum_lnt_0 } = e_step(&consts, input);

        // M step: mixing weights.
        for (comp, w) in weights.iter_mut().enumerate() {
            *w = (counts[comp] / n as f64).max(1e-9);
        }

        // Gamma component.
        if counts[0] > 1e-6 && sum_t[0] > 1e-12 {
            let c = (sum_t[0] / counts[0]).ln() - sum_lnt_0 / counts[0];
            alpha = solve_gamma_shape(c.max(1e-9)).clamp(0.05, 1e4);
            beta = counts[0] * alpha / sum_t[0];
        }

        // Negative-binomial-linked Normal components: solve for p̂ by
        // bisection with μ̂ given by the closed form of §3.7.
        let s_n: f64 = (1..=g).map(|c| counts[c]).sum();
        let s_gn: f64 = (1..=g).map(|c| c as f64 * counts[c]).sum();
        let s_t: f64 = (1..=g).map(|c| sum_t[c]).sum();
        let s_t2g: f64 = (1..=g).map(|c| sum_t2[c] / c as f64).sum();
        if s_n > 1e-6 && s_gn > 1e-9 && s_t2g > 1e-9 {
            let mu_of = |ph: f64| -> f64 {
                let disc = s_n * s_n + 4.0 * (1.0 - ph) * (1.0 - ph) * s_gn * s_t2g;
                // The positive root of the quadratic in μ (§3.7's form has a
                // negative denominator; take the root giving μ > 0).
                (disc.sqrt() - s_n) / (2.0 * ph * s_gn)
            };
            let f_of = |ph: f64| -> f64 {
                let m = mu_of(ph);
                (1.0 - ph) * (1.0 + ph) * s_t2g
                    - 2.0 * m * ph * ph * s_t
                    - m * m * ph * ph * s_gn
                    - m * ph * (1.0 + ph) / (1.0 - ph) * s_n
            };
            let (mut lo, mut hi) = (1e-4, 1.0 - 1e-4);
            let (flo, fhi) = (f_of(lo), f_of(hi));
            if flo.is_finite() && fhi.is_finite() && flo * fhi < 0.0 {
                for _ in 0..100 {
                    let mid = 0.5 * (lo + hi);
                    if f_of(mid) * flo > 0.0 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                p = 0.5 * (lo + hi);
                mu = mu_of(p).max(1e-6);
            } else {
                // Fall back to moment matching: mean and variance of the
                // g-scaled pooled component.
                let mean1 = s_t / s_gn; // per-copy mean
                let var1 = (s_t2g / s_n - mean1 * mean1 * (s_gn / s_n)).abs().max(1e-6);
                // mean1 = μp/(1−p), var1 ≈ μp/(1−p)²  =>  1−p = mean1/var1.
                let q = (mean1 / var1).clamp(1e-4, 1.0 - 1e-4);
                p = 1.0 - q;
                mu = (mean1 * (1.0 - p) / p).max(1e-6);
            }
        }

        if (ll - loglik).abs() < 1e-8 * ll.abs().max(1.0) {
            loglik = ll;
            break;
        }
        loglik = ll;
    }

    // BIC: parameters = (n_comp − 1) mixing + α, β, μ, p.
    let k_params = (n_comp - 1) + 4;
    let bic = -2.0 * loglik + k_params as f64 * (n as f64).ln();

    // Threshold: largest T assigned to the Gamma component by posterior
    // argmax, scanning a fine grid up to the first Normal mean.
    let coverage = mu * p / (1.0 - p);
    let var1 = mu * p / ((1.0 - p) * (1.0 - p));
    let mut threshold = 0.0f64;
    let grid_max = coverage.max(2.0);
    let steps = 400;
    for s in 0..=steps {
        let x = grid_max * s as f64 / steps as f64;
        let lg = weights[0].max(1e-300).ln() + gamma_logpdf(x.max(1e-6), alpha, beta);
        let ln1 = weights[1].max(1e-300).ln() + normal_logpdf(x, coverage, var1);
        let lu = weights[g + 1].max(1e-300).ln() + (-(t_max.ln()));
        if lg > ln1 && lg > lu {
            threshold = x;
        }
    }

    let fit = MixtureFit {
        weights,
        alpha,
        beta,
        mu,
        p,
        g,
        loglik,
        bic,
        threshold,
        coverage_constant: coverage,
    };
    Some((fit, iterations))
}

/// Estimate genome length and repeat structure from EM estimates — §3.6:
/// "Indeed, T_l can be used to estimate genome length and repetition [Li
/// and Waterman, 2003]": each genomic k-mer of occurrence `α` contributes
/// `α · coverage_constant` expected attempts, so
/// `|G| ≈ Σ T_l / coverage_constant` (k-mer-level length, i.e. `|G| − k + 1`
/// for a single-stranded spectrum).
pub fn estimate_genome_length(t: &[f64], coverage_constant: f64) -> f64 {
    if coverage_constant <= 0.0 {
        return 0.0;
    }
    t.iter().sum::<f64>() / coverage_constant
}

/// Fit the §3.7 mixture for `G ∈ 1..=max_g`, choosing Ĝ by BIC, and return
/// the winning fit (with its implied detection threshold). Returns `None`
/// when the data is degenerate (e.g. all-zero estimates, or any non-finite
/// one). `max_g` above 14 is treated as 14.
pub fn fit_threshold_model(t: &[f64], max_g: usize) -> Option<MixtureFit> {
    fit_threshold_model_observed(t, max_g, &ngs_observe::Collector::disabled())
}

/// [`fit_threshold_model`] with observability: the whole BIC sweep runs
/// under the `redeem.threshold.fit` span, each candidate `G` leaves its BIC
/// in the `redeem.threshold.bic.g<G>` gauge (gauges merge by minimum, which
/// is exactly the BIC selection rule), its final log-likelihood in
/// `redeem.threshold.loglik.g<G>` and its E-step count in
/// `redeem.threshold.iterations.g<G>`, and the winner's threshold and
/// coverage constant land in `redeem.threshold.value` /
/// `redeem.threshold.coverage_constant`.
pub fn fit_threshold_model_observed(
    t: &[f64],
    max_g: usize,
    collector: &ngs_observe::Collector,
) -> Option<MixtureFit> {
    let mut span =
        collector.span_with_threads("redeem.threshold.fit", rayon::current_num_threads());
    let best = FitInput::new(t).and_then(|input| {
        (1..=max_g.clamp(1, MAX_G))
            .filter_map(|g| {
                let (fit, iterations) = fit_fixed_g(&input, g, 200)?;
                collector.add("redeem.threshold.candidates", 1);
                collector.add(&format!("redeem.threshold.iterations.g{g}"), iterations as u64);
                collector.gauge(&format!("redeem.threshold.loglik.g{g}"), fit.loglik);
                collector.gauge(&format!("redeem.threshold.bic.g{g}"), fit.bic);
                Some(fit)
            })
            .min_by(|a, b| a.bic.total_cmp(&b.bic))
    });
    // The E-step block map is the only pool work under this span; report
    // the parallelism it got, and a sweep that ran none as serial.
    span.set_threads(if best.is_some() { rayon::last_threads_used() } else { 1 });
    if let Some(fit) = &best {
        collector.gauge("redeem.threshold.best_bic", fit.bic);
        collector.gauge("redeem.threshold.value", fit.threshold);
        collector.gauge("redeem.threshold.coverage_constant", fit.coverage_constant);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synthetic_t(coverage: f64, n_err: usize, n1: usize, n2: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Vec::new();
        for _ in 0..n_err {
            // Error kmers: small values hugging zero.
            t.push(rng.gen_range(0.0..2.0f64));
        }
        for _ in 0..n1 {
            let x: f64 = coverage + rng.gen_range(-3.0 * coverage.sqrt()..3.0 * coverage.sqrt());
            t.push(x.max(0.1));
        }
        for _ in 0..n2 {
            let x: f64 =
                2.0 * coverage + rng.gen_range(-4.0 * coverage.sqrt()..4.0 * coverage.sqrt());
            t.push(x.max(0.1));
        }
        t
    }

    /// The pre-block-parallel `fit_fixed_g`, verbatim: per-point `Vec`,
    /// constants recomputed per point, full responsibility matrix, one
    /// running sum over all points. The oracle for the rewritten E step.
    fn reference_fit_fixed_g(t: &[f64], g: usize, max_iters: usize) -> Option<MixtureFit> {
        let n = t.len();
        if n < 10 * (g + 2) {
            return None;
        }
        let t_max = t.iter().cloned().fold(0.0f64, f64::max).max(1.0);
        let uniform_logpdf = -(t_max.ln());

        // Initialisation: coverage constant from the median of clearly-nonzero
        // values; Gamma hugging zero.
        let mut nz: Vec<f64> = t.iter().cloned().filter(|&x| x > 2.0).collect();
        if nz.is_empty() {
            return None;
        }
        nz.sort_unstable_by(f64::total_cmp);
        let cov0 = nz[nz.len() / 2].max(3.0);
        let mut p = 0.5f64;
        let mut mu = cov0 * (1.0 - p) / p; // so that μp/(1−p) = cov0
        let mut alpha = 1.0f64;
        let mut beta = 1.0f64;
        let n_comp = g + 2;
        let mut weights = vec![1.0 / n_comp as f64; n_comp];

        let mut loglik = f64::NEG_INFINITY;
        let mut resp = vec![0.0f64; n * n_comp];
        for _iter in 0..max_iters {
            // E step.
            let mut ll = 0.0;
            let mut counts = vec![0.0f64; n_comp]; // E[N_g]
            let mut sum_t = vec![0.0f64; n_comp]; // E[T | Z_g]·N_g
            let mut sum_t2 = vec![0.0f64; n_comp];
            let mut sum_lnt_0 = 0.0f64;
            let coverage = mu * p / (1.0 - p);
            for (i, &x) in t.iter().enumerate() {
                let mut logp = vec![0.0f64; n_comp];
                logp[0] = weights[0].max(1e-300).ln() + gamma_logpdf(x.max(1e-6), alpha, beta);
                for comp in 1..=g {
                    let mean = comp as f64 * coverage;
                    let var = comp as f64 * mu * p / ((1.0 - p) * (1.0 - p));
                    logp[comp] = weights[comp].max(1e-300).ln() + normal_logpdf(x, mean, var);
                }
                logp[g + 1] = weights[g + 1].max(1e-300).ln() + uniform_logpdf;
                let m = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut z = 0.0;
                for lp in &mut logp {
                    *lp = (*lp - m).exp();
                    z += *lp;
                }
                ll += m + z.ln();
                for (comp, &pz) in logp.iter().enumerate() {
                    let r = pz / z;
                    resp[i * n_comp + comp] = r;
                    counts[comp] += r;
                    sum_t[comp] += r * x;
                    sum_t2[comp] += r * x * x;
                }
                sum_lnt_0 += resp[i * n_comp] * x.max(1e-6).ln();
            }

            // M step: mixing weights.
            for (comp, w) in weights.iter_mut().enumerate() {
                *w = (counts[comp] / n as f64).max(1e-9);
            }

            // Gamma component.
            if counts[0] > 1e-6 && sum_t[0] > 1e-12 {
                let c = (sum_t[0] / counts[0]).ln() - sum_lnt_0 / counts[0];
                alpha = solve_gamma_shape(c.max(1e-9)).clamp(0.05, 1e4);
                beta = counts[0] * alpha / sum_t[0];
            }

            // Negative-binomial-linked Normal components: solve for p̂ by
            // bisection with μ̂ given by the closed form of §3.7.
            let s_n: f64 = (1..=g).map(|c| counts[c]).sum();
            let s_gn: f64 = (1..=g).map(|c| c as f64 * counts[c]).sum();
            let s_t: f64 = (1..=g).map(|c| sum_t[c]).sum();
            let s_t2g: f64 = (1..=g).map(|c| sum_t2[c] / c as f64).sum();
            if s_n > 1e-6 && s_gn > 1e-9 && s_t2g > 1e-9 {
                let mu_of = |ph: f64| -> f64 {
                    let disc = s_n * s_n + 4.0 * (1.0 - ph) * (1.0 - ph) * s_gn * s_t2g;
                    // The positive root of the quadratic in μ (§3.7's form has a
                    // negative denominator; take the root giving μ > 0).
                    (disc.sqrt() - s_n) / (2.0 * ph * s_gn)
                };
                let f_of = |ph: f64| -> f64 {
                    let m = mu_of(ph);
                    (1.0 - ph) * (1.0 + ph) * s_t2g
                        - 2.0 * m * ph * ph * s_t
                        - m * m * ph * ph * s_gn
                        - m * ph * (1.0 + ph) / (1.0 - ph) * s_n
                };
                let (mut lo, mut hi) = (1e-4, 1.0 - 1e-4);
                let (flo, fhi) = (f_of(lo), f_of(hi));
                if flo.is_finite() && fhi.is_finite() && flo * fhi < 0.0 {
                    for _ in 0..100 {
                        let mid = 0.5 * (lo + hi);
                        if f_of(mid) * flo > 0.0 {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    p = 0.5 * (lo + hi);
                    mu = mu_of(p).max(1e-6);
                } else {
                    // Fall back to moment matching: mean and variance of the
                    // g-scaled pooled component.
                    let mean1 = s_t / s_gn; // per-copy mean
                    let var1 = (s_t2g / s_n - mean1 * mean1 * (s_gn / s_n)).abs().max(1e-6);
                    // mean1 = μp/(1−p), var1 ≈ μp/(1−p)²  =>  1−p = mean1/var1.
                    let q = (mean1 / var1).clamp(1e-4, 1.0 - 1e-4);
                    p = 1.0 - q;
                    mu = (mean1 * (1.0 - p) / p).max(1e-6);
                }
            }

            if (ll - loglik).abs() < 1e-8 * ll.abs().max(1.0) {
                loglik = ll;
                break;
            }
            loglik = ll;
        }

        // BIC: parameters = (n_comp − 1) mixing + α, β, μ, p.
        let k_params = (n_comp - 1) + 4;
        let bic = -2.0 * loglik + k_params as f64 * (n as f64).ln();

        // Threshold: largest T assigned to the Gamma component by posterior
        // argmax, scanning a fine grid up to the first Normal mean.
        let coverage = mu * p / (1.0 - p);
        let var1 = mu * p / ((1.0 - p) * (1.0 - p));
        let mut threshold = 0.0f64;
        let grid_max = coverage.max(2.0);
        let steps = 400;
        for s in 0..=steps {
            let x = grid_max * s as f64 / steps as f64;
            let lg = weights[0].max(1e-300).ln() + gamma_logpdf(x.max(1e-6), alpha, beta);
            let ln1 = weights[1].max(1e-300).ln() + normal_logpdf(x, coverage, var1);
            let lu = weights[g + 1].max(1e-300).ln() + (-(t_max.ln()));
            if lg > ln1 && lg > lu {
                threshold = x;
            }
        }

        Some(MixtureFit {
            weights,
            alpha,
            beta,
            mu,
            p,
            g,
            loglik,
            bic,
            threshold,
            coverage_constant: coverage,
        })
    }

    #[test]
    fn gamma_shape_solver_inverts() {
        for alpha in [0.3f64, 1.0, 2.5, 10.0, 100.0] {
            let c = alpha.ln() - digamma(alpha);
            let back = solve_gamma_shape(c);
            assert!((back - alpha).abs() / alpha < 1e-3, "alpha={alpha} back={back}");
        }
    }

    #[test]
    fn recovers_coverage_constant() {
        let t = synthetic_t(57.0, 4000, 3000, 400, 1);
        let fit = fit_threshold_model(&t, 3).expect("fit");
        assert!(
            (fit.coverage_constant - 57.0).abs() < 10.0,
            "coverage constant {} (expected ~57)",
            fit.coverage_constant
        );
    }

    #[test]
    fn threshold_separates_modes() {
        let t = synthetic_t(60.0, 5000, 3000, 300, 2);
        let fit = fit_threshold_model(&t, 3).expect("fit");
        assert!(
            fit.threshold > 2.0 && fit.threshold < 40.0,
            "threshold {} should fall between the error spike and the \
             coverage peak",
            fit.threshold
        );
        // Classification sanity: nearly all error kmers below, genomic above.
        let err_below = t[..5000].iter().filter(|&&x| x < fit.threshold).count();
        let gen_above = t[5000..].iter().filter(|&&x| x >= fit.threshold).count();
        assert!(err_below > 4800, "err_below={err_below}");
        assert!(gen_above > 3200, "gen_above={gen_above}");
    }

    #[test]
    fn bic_prefers_enough_components() {
        let t = synthetic_t(50.0, 3000, 2500, 800, 3);
        let fit = fit_threshold_model(&t, 4).expect("fit");
        assert!(fit.g >= 1);
        assert!(fit.loglik.is_finite());
        assert!(fit.bic.is_finite());
    }

    #[test]
    fn genome_length_estimate() {
        // 1000 unique kmers at coverage 50 plus 100 two-copy kmers at 100.
        let mut t = vec![50.0; 1000];
        t.extend(vec![100.0; 100]);
        let est = estimate_genome_length(&t, 50.0);
        // True kmer-level genome length = 1000 + 2*100 = 1200.
        assert!((est - 1200.0).abs() < 1e-9, "est {est}");
        assert_eq!(estimate_genome_length(&t, 0.0), 0.0);
    }

    #[test]
    fn observed_fit_traces_bic_per_candidate() {
        let t = synthetic_t(50.0, 3000, 2500, 800, 7);
        let collector = ngs_observe::Collector::new();
        let fit = fit_threshold_model_observed(&t, 3, &collector).expect("fit");
        let report = collector.report("redeem");
        let span = report.span("redeem.threshold.fit").expect("span");
        assert!((1..=rayon::current_num_threads()).contains(&span.threads), "{}", span.threads);
        assert_eq!(report.counter("redeem.threshold.candidates"), 3);
        // Every candidate G leaves its BIC, and the winner's BIC is the min.
        let best = report.gauges["redeem.threshold.best_bic"];
        assert_eq!(best, fit.bic);
        for g in 1..=3 {
            assert!(report.gauges[&format!("redeem.threshold.bic.g{g}")] >= best);
            // ... and how hard it was to get there: E steps and final loglik.
            let iterations = report.counter(&format!("redeem.threshold.iterations.g{g}"));
            assert!((2..=200).contains(&iterations), "g={g} iterations={iterations}");
            assert!(report.gauges[&format!("redeem.threshold.loglik.g{g}")].is_finite());
        }
        assert_eq!(report.gauges[&format!("redeem.threshold.loglik.g{}", fit.g)], fit.loglik);
        assert_eq!(report.gauges["redeem.threshold.value"], fit.threshold);
    }

    #[test]
    fn degenerate_input_returns_none() {
        let mut poisoned = synthetic_t(57.0, 3000, 3000, 300, 5);
        let mid = poisoned.len() / 2;
        let cases: Vec<(&str, Vec<f64>)> = vec![
            ("empty", vec![]),
            ("tiny", vec![0.5; 5]),
            ("zeros", vec![0.0; 1000]),
            ("nan", {
                poisoned[mid] = f64::NAN;
                poisoned.clone()
            }),
            ("+inf", {
                poisoned[mid] = f64::INFINITY;
                poisoned.clone()
            }),
            ("-inf", {
                poisoned[mid] = f64::NEG_INFINITY;
                poisoned.clone()
            }),
        ];
        for (name, t) in cases {
            let collector = ngs_observe::Collector::new();
            assert!(fit_threshold_model_observed(&t, 3, &collector).is_none(), "{name}");
            // Rejected up front: no candidate was fitted, no E step ran.
            let report = collector.report("redeem");
            assert_eq!(report.counter("redeem.threshold.candidates"), 0, "{name}");
            for g in 1..=3 {
                let e_steps = report.counter(&format!("redeem.threshold.iterations.g{g}"));
                assert_eq!(e_steps, 0, "{name} g={g}");
            }
            assert_eq!(report.span("redeem.threshold.fit").expect("span").threads, 1, "{name}");
        }
    }

    fn reference_fit_threshold_model(t: &[f64], max_g: usize) -> Option<MixtureFit> {
        (1..=max_g.max(1))
            .filter_map(|g| reference_fit_fixed_g(t, g, 200))
            .min_by(|a, b| a.bic.total_cmp(&b.bic))
    }

    fn rel_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * a.abs().max(b.abs())
    }

    /// `None`/`Some`, `g`, every fitted parameter to 1e-6 relative, and the
    /// threshold to one scan step.
    fn assert_matches_reference(t: &[f64], max_g: usize) -> Result<(), TestCaseError> {
        let (new, old) = (fit_threshold_model(t, max_g), reference_fit_threshold_model(t, max_g));
        let (Some(new), Some(old)) = (&new, &old) else {
            prop_assert!(new.is_none() && old.is_none(), "new={new:?} reference={old:?}");
            return Ok(());
        };
        prop_assert_eq!(new.g, old.g);
        for (name, a, b) in [
            ("coverage_constant", new.coverage_constant, old.coverage_constant),
            ("loglik", new.loglik, old.loglik),
            ("bic", new.bic, old.bic),
            ("alpha", new.alpha, old.alpha),
            ("beta", new.beta, old.beta),
            ("mu", new.mu, old.mu),
            ("p", new.p, old.p),
        ] {
            prop_assert!(rel_close(a, b), "{name}: new={a} reference={b}");
        }
        let step = old.coverage_constant.max(2.0) / 400.0;
        prop_assert!(
            (new.threshold - old.threshold).abs() <= step * (1.0 + 1e-9),
            "threshold: new={} reference={} step={step}",
            new.threshold,
            old.threshold
        );
        Ok(())
    }

    proptest! {
        // Few cases: unoptimised, the reference costs ~6 s per case.
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn block_parallel_fit_matches_reference(
            coverage in 20.0f64..100.0,
            n_err in 200usize..20_000,
            n1 in 200usize..20_000,
            n2 in 200usize..20_000,
            max_g in 1usize..5,
            seed in 0u64..1_000_000,
        ) {
            let t = synthetic_t(coverage, n_err, n1, n2, seed);
            assert_matches_reference(&t, max_g)?;
        }

        /// `n` below, at and just above one block, and several blocks with a
        /// ragged tail.
        #[test]
        fn block_boundaries_match_reference(
            coverage in 20.0f64..100.0,
            max_g in 1usize..5,
            seed in 0u64..1_000_000,
        ) {
            for n in [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17] {
                let (n_err, n2) = (n / 2, n / 10);
                let t = synthetic_t(coverage, n_err, n - n_err - n2, n2, seed);
                prop_assert_eq!(t.len(), n);
                assert_matches_reference(&t, max_g)?;
            }
        }
    }

    /// Within one block the fold adds a single partial sum to zero, so the
    /// fit is the reference's to the bit.
    #[test]
    fn single_block_fit_is_bit_identical_to_reference() {
        let t = synthetic_t(57.0, 2000, 1800, 296, 11);
        assert_eq!(t.len(), BLOCK);
        let (new, old) = (fit_threshold_model(&t, 3), reference_fit_threshold_model(&t, 3));
        let (new, old) = (new.expect("fit"), old.expect("reference fit"));
        assert_eq!(
            (new.g, new.threshold.to_bits(), new.loglik.to_bits(), new.bic.to_bits()),
            (old.g, old.threshold.to_bits(), old.loglik.to_bits(), old.bic.to_bits())
        );
    }

    /// The reference fit's E step at fixed parameters — per-point `Vec`,
    /// the textbook densities, one running sum — as the bits of `ll`, `N_c`,
    /// `Σ r·x`, `Σ r·x²` and `Σ r₀·ln x`.
    fn reference_e_step_bits(t: &[f64], f: &MixtureFit) -> Vec<u64> {
        let (g, n_comp) = (f.g, f.g + 2);
        let t_max = t.iter().cloned().fold(0.0f64, f64::max).max(1.0);
        let coverage = f.mu * f.p / (1.0 - f.p);
        let (mut ll, mut sum_lnt_0) = (0.0f64, 0.0f64);
        let mut sums = vec![vec![0.0f64; n_comp]; 3];
        for &x in t {
            let mut logp = vec![0.0f64; n_comp];
            logp[0] = f.weights[0].max(1e-300).ln() + gamma_logpdf(x.max(1e-6), f.alpha, f.beta);
            for (comp, lp) in logp.iter_mut().enumerate().skip(1).take(g) {
                let mean = comp as f64 * coverage;
                let var = comp as f64 * f.mu * f.p / ((1.0 - f.p) * (1.0 - f.p));
                *lp = f.weights[comp].max(1e-300).ln() + normal_logpdf(x, mean, var);
            }
            logp[g + 1] = f.weights[g + 1].max(1e-300).ln() + -(t_max.ln());
            let m = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut z = 0.0;
            for lp in &mut logp {
                *lp = (*lp - m).exp();
                z += *lp;
            }
            ll += m + z.ln();
            for (comp, &pz) in logp.iter().enumerate() {
                let r = pz / z;
                sums[0][comp] += r;
                sums[1][comp] += r * x;
                sums[2][comp] += r * x * x;
            }
            sum_lnt_0 += logp[0] / z * x.max(1e-6).ln();
        }
        let all = [ll, sum_lnt_0].into_iter().chain(sums.into_iter().flatten());
        all.map(f64::to_bits).collect()
    }

    /// The E step is compiled once per component count. For every `G` it
    /// reproduces the reference's sufficient statistics at the fitted
    /// parameters, and the reference fit, to the bit (one block, so the
    /// fold adds a single partial sum to zero).
    #[test]
    fn every_g_fit_is_bit_identical_to_reference() {
        let t = synthetic_t(57.0, 500, 450, 77, 13);
        assert!(t.len() <= BLOCK);
        let input = FitInput::new(&t).expect("fit input");
        for g in 1..=MAX_G {
            let (new, _) = fit_fixed_g(&input, g, 200).expect("fit");
            let old = reference_fit_fixed_g(&t, g, 200).expect("reference fit");
            let bits = |f: &MixtureFit| {
                let scalars =
                    [f.alpha, f.beta, f.mu, f.p, f.loglik, f.bic, f.threshold, f.coverage_constant];
                let all = f.weights.iter().chain(&scalars);
                (f.g, all.map(|x| x.to_bits()).collect::<Vec<u64>>())
            };
            assert_eq!(bits(&new), bits(&old), "g={g}");

            let consts =
                EStepConsts::new(&new.weights, new.alpha, new.beta, new.mu, new.p, input.t_max);
            let s = e_step(&consts, &input);
            let n_comp = g + 2;
            let stats = [s.ll, s.sum_lnt_0].into_iter().chain(
                [&s.counts, &s.sum_t, &s.sum_t2].into_iter().flat_map(|v| v[..n_comp].to_vec()),
            );
            let stats: Vec<u64> = stats.map(f64::to_bits).collect();
            assert_eq!(stats, reference_e_step_bits(&t, &new), "g={g}");
        }
    }

    /// Pins the multi-block fit to the bit. CI runs this at `NGS_THREADS=1`
    /// and `4`: a block fold that depended on the pool size would fail one.
    #[test]
    fn multi_block_fit_golden_bits() {
        let t = synthetic_t(57.0, 9000, 7000, 1500, 42);
        assert!(t.len() > 4 * BLOCK);
        let fit = fit_threshold_model(&t, 3).expect("fit");
        assert_eq!(
            (fit.g, fit.threshold.to_bits(), fit.loglik.to_bits()),
            (2, 4619950167216415464, 13901634021958092147),
            "g={} threshold={} loglik={}",
            fit.g,
            fit.threshold,
            fit.loglik
        );
    }
}
