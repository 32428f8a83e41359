//! `reptile` — Representative Tiling for Error Correction (Chapter 2).
//!
//! Reptile corrects substitution errors in short reads by working with the
//! k-spectrum of the input instead of the reads themselves:
//!
//! 1. **Information extraction** (§2.3 Phase 1): the k-spectrum `R^k` over
//!    both strands, the Hamming-graph neighbour index (masked replicas), and
//!    the tile table with plain/high-quality occurrence counts;
//! 2. **Per-read correction** (§2.3 Phase 2): place a tile (an
//!    `l`-concatenation of two k-mers) on the read, compare it against its
//!    d-mutant tiles (Algorithm 1), and advance the placement according to
//!    decisions D1–D3 (Algorithm 2), in both the 5′→3′ and 3′→5′
//!    directions. Contextual information from the neighbouring k-mer in the
//!    same tile disambiguates corrections that a single k-mer cannot
//!    (Fig. 2.1's α₂ vs α₂″ example).
//!
//! Ambiguous bases are handled by §2.4's density rule (module [`ambig`]).
//! Thresholds are chosen from the data's own histograms (module [`params`]),
//! "to help avoid the unrealistic assumptions of uniformly distributed read
//! errors and uniform genome coverage".

pub mod ambig;
pub mod params;
pub mod read_correct;
pub mod snapshot;
pub mod tile_correct;

pub use params::ReptileParams;
pub use read_correct::ReptileStats;
pub use tile_correct::{EnumStats, TileDecision};

use ngs_core::Read;
use ngs_kmer::neighbor::{NeighborStrategy, NeighborTables};
use ngs_kmer::{KSpectrum, TileTable};
use ngs_observe::{Collector, LogHistogram};
use rayon::prelude::*;

/// The Reptile corrector: immutable index data shared across reads.
///
/// All Phase-1 products — the k-spectrum, the tile table, *and* the
/// Hamming-graph neighbour tables — are built exactly once in
/// [`Reptile::build`] and reused by every [`Reptile::correct`] call, so
/// repeated or chunked correction passes pay the Phase-1 cost only once.
pub struct Reptile {
    params: ReptileParams,
    spectrum: KSpectrum,
    tiles: TileTable,
    /// Masked-replica neighbour tables over `spectrum`, built once;
    /// `correct` takes O(1) views of them per call.
    neighbor_tables: NeighborTables,
}

/// The neighbour tables every corrector uses: a pure function of the
/// spectrum and `(k, d)`, so a snapshot re-derives instead of storing them.
fn build_neighbor_tables(spectrum: &KSpectrum, params: &ReptileParams) -> NeighborTables {
    NeighborTables::build(
        spectrum,
        params.d,
        NeighborStrategy::MaskedReplicas { chunks: params.neighbor_chunks() },
    )
}

impl Reptile {
    /// Build the Phase-1 indexes from the (already ambiguity-preprocessed)
    /// read set.
    pub fn build(reads: &[Read], params: ReptileParams) -> Reptile {
        Self::build_observed(reads, params, &Collector::disabled())
    }

    /// [`Reptile::build`] with observability: spans
    /// `reptile.build.{spectrum,tiles,neighbor_index}`, the
    /// `reptile.index_builds` counter, and the `reptile.kmer_multiplicity`
    /// histogram land in `collector`.
    pub fn build_observed(reads: &[Read], params: ReptileParams, collector: &Collector) -> Reptile {
        params.validate();
        // Spans open with the pool size and close with the thread count
        // the parallel work actually used, so sequential fallbacks (small
        // inputs, NGS_THREADS=1) stop reporting full fan-out.
        let threads = rayon::current_num_threads();
        let spectrum = {
            let mut s = collector.span_with_threads("reptile.build.spectrum", threads);
            let spectrum = KSpectrum::from_reads_both_strands(reads, params.k);
            s.set_threads(rayon::last_threads_used());
            spectrum
        };
        let tiles = {
            let mut s = collector.span_with_threads("reptile.build.tiles", threads);
            let tiles = TileTable::build(reads, params.k, params.tile_overlap, params.qc);
            s.set_threads(rayon::last_threads_used());
            tiles
        };
        let neighbor_tables = {
            let mut s = collector.span_with_threads("reptile.build.neighbor_index", threads);
            collector.incr("reptile.index_builds");
            let tables = build_neighbor_tables(&spectrum, &params);
            s.set_threads(rayon::last_threads_used());
            tables
        };
        if collector.is_enabled() {
            let mut hist = LogHistogram::new();
            for &c in spectrum.counts() {
                hist.record(c as u64);
            }
            collector.merge_histogram("reptile.kmer_multiplicity", &hist);
            collector.add("reptile.distinct_kmers", spectrum.len() as u64);
        }
        Reptile { params, spectrum, tiles, neighbor_tables }
    }

    /// The parameters in use.
    pub fn params(&self) -> &ReptileParams {
        &self.params
    }

    /// The k-spectrum (exposed for diagnostics and tests).
    pub fn spectrum(&self) -> &KSpectrum {
        &self.spectrum
    }

    /// The tile table (exposed for diagnostics and tests).
    pub fn tiles(&self) -> &TileTable {
        &self.tiles
    }

    /// The neighbour tables built in [`Reptile::build`] (exposed for
    /// diagnostics and tests).
    pub fn neighbor_tables(&self) -> &NeighborTables {
        &self.neighbor_tables
    }

    /// Correct every read, returning corrected copies and statistics.
    pub fn correct(&self, reads: &[Read]) -> (Vec<Read>, ReptileStats) {
        self.correct_observed(reads, &Collector::disabled())
    }

    /// [`Reptile::correct`] with observability: the `reptile.correct` span,
    /// the D1/D2/D3 decision counters, and the `reptile.tile_decision`
    /// histogram land in `collector`.
    pub fn correct_observed(
        &self,
        reads: &[Read],
        collector: &Collector,
    ) -> (Vec<Read>, ReptileStats) {
        let mut span = collector.span_with_threads("reptile.correct", rayon::current_num_threads());
        let index = self.neighbor_tables.view(&self.spectrum);
        let results: Vec<(Read, ReptileStats)> = reads
            .par_iter()
            .map(|r| {
                let mut read = r.clone();
                let stats =
                    read_correct::correct_read(&mut read, &self.params, &self.tiles, &index);
                (read, stats)
            })
            .collect();
        span.set_threads(rayon::last_threads_used());
        let mut all = ReptileStats::default();
        let mut out = Vec::with_capacity(results.len());
        for (read, stats) in results {
            all.merge(&stats);
            out.push(read);
        }
        drop(span);
        all.record_into(collector);
        collector.add("reptile.reads_corrected", reads.len() as u64);
        (out, all)
    }

    /// Full pipeline: preprocess ambiguous bases, build indexes, correct.
    /// This is the entry point matching the released Reptile tool.
    pub fn run(reads: &[Read], params: ReptileParams) -> (Vec<Read>, ReptileStats) {
        Self::run_observed(reads, params, &Collector::disabled())
    }

    /// [`Reptile::run`] with observability (see [`Reptile::build_observed`]
    /// and [`Reptile::correct_observed`] for the spans and counters).
    pub fn run_observed(
        reads: &[Read],
        params: ReptileParams,
        collector: &Collector,
    ) -> (Vec<Read>, ReptileStats) {
        let preprocessed = {
            let _s = collector.span("reptile.preprocess");
            ambig::preprocess_ambiguous(reads, &params)
        };
        let reptile = Reptile::build_observed(&preprocessed, params, collector);
        reptile.correct_observed(&preprocessed, collector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_eval::evaluate_correction;
    use ngs_simulate::{simulate_reads, ErrorModel, GenomeSpec, ReadSimConfig};

    fn simulate(
        genome_len: usize,
        pe: f64,
        coverage: f64,
        seed: u64,
    ) -> (Vec<u8>, ngs_simulate::SimulatedReads) {
        let g = GenomeSpec::uniform(genome_len).generate(23).seq;
        let cfg = ReadSimConfig::with_coverage(
            g.len(),
            36,
            coverage,
            ErrorModel::illumina_like(36, pe),
            seed,
        );
        let sim = simulate_reads(&g, &cfg);
        (g, sim)
    }

    #[test]
    fn corrects_most_errors_at_high_coverage() {
        let (g, sim) = simulate(20_000, 0.01, 60.0, 1);
        let params = ReptileParams::from_data(&sim.reads, g.len());
        let (corrected, stats) = Reptile::run(&sim.reads, params);
        let truths: Vec<Vec<u8>> = sim.truth.iter().map(|t| t.true_seq.clone()).collect();
        let eval = evaluate_correction(&sim.reads, &corrected, &truths);
        assert!(eval.gain() > 0.55, "gain={} {eval:?} stats={stats:?}", eval.gain());
        assert!(eval.specificity() > 0.999, "specificity={}", eval.specificity());
        assert!(eval.eba() < 0.05, "eba={}", eval.eba());
    }

    #[test]
    fn error_free_data_untouched() {
        let (g, sim) = simulate(20_000, 0.0, 40.0, 2);
        let params = ReptileParams::from_data(&sim.reads, g.len());
        let (corrected, _) = Reptile::run(&sim.reads, params);
        let truths: Vec<Vec<u8>> = sim.truth.iter().map(|t| t.true_seq.clone()).collect();
        let eval = evaluate_correction(&sim.reads, &corrected, &truths);
        assert_eq!(eval.fp, 0, "{eval:?}");
    }

    #[test]
    fn beats_no_correction_at_typical_coverage() {
        let (g, sim) = simulate(15_000, 0.015, 40.0, 3);
        let params = ReptileParams::from_data(&sim.reads, g.len());
        let (corrected, _) = Reptile::run(&sim.reads, params);
        let truths: Vec<Vec<u8>> = sim.truth.iter().map(|t| t.true_seq.clone()).collect();
        let eval = evaluate_correction(&sim.reads, &corrected, &truths);
        assert!(eval.gain() > 0.4, "gain={} {eval:?}", eval.gain());
    }

    #[test]
    fn handles_reads_with_ambiguous_bases() {
        let g = GenomeSpec::uniform(10_000).generate(29).seq;
        let cfg = ReadSimConfig {
            read_len: 36,
            n_reads: 12_000,
            error_model: ErrorModel::uniform(36, 0.005),
            both_strands: true,
            with_quals: true,
            n_rate: 0.01,
            seed: 4,
        };
        let sim = simulate_reads(&g, &cfg);
        let params = ReptileParams::from_data(&sim.reads, g.len());
        let (corrected, _) = Reptile::run(&sim.reads, params);
        let truths: Vec<Vec<u8>> = sim.truth.iter().map(|t| t.true_seq.clone()).collect();
        let eval = evaluate_correction(&sim.reads, &corrected, &truths);
        // Most injected Ns should be resolved to the true base.
        assert!(eval.gain() > 0.5, "gain={} {eval:?}", eval.gain());
        // No read should still contain an N in a low-density region at high
        // coverage... at least some Ns must be gone:
        let n_before: usize =
            sim.reads.iter().map(|r| r.seq.iter().filter(|&&b| b == b'N').count()).sum();
        let n_after: usize =
            corrected.iter().map(|r| r.seq.iter().filter(|&&b| b == b'N').count()).sum();
        assert!(n_after < n_before / 4, "Ns before={n_before} after={n_after}");
    }

    /// Regression: `correct` used to rebuild the full `NeighborIndex` on
    /// every call even though the struct docs promised index data shared
    /// across reads. Two `correct` calls must yield identical output, and
    /// the observe report must show exactly one index build regardless of
    /// how many correction passes ran.
    #[test]
    fn repeated_correct_reuses_single_index_build() {
        let (g, sim) = simulate(8_000, 0.02, 30.0, 11);
        let params = ReptileParams::from_data(&sim.reads, g.len());
        let preprocessed = ambig::preprocess_ambiguous(&sim.reads, &params);
        let collector = Collector::new();
        let reptile = Reptile::build_observed(&preprocessed, params, &collector);
        let (out1, stats1) = reptile.correct_observed(&preprocessed, &collector);
        let (out2, stats2) = reptile.correct_observed(&preprocessed, &collector);
        assert_eq!(stats1, stats2);
        for (a, b) in out1.iter().zip(&out2) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.id, b.id);
        }
        let report = collector.report("reptile");
        assert_eq!(report.counter("reptile.index_builds"), 1, "index must be built once");
        let build_span = report.span("reptile.build.neighbor_index").expect("build span");
        assert_eq!(build_span.count, 1, "one neighbour-index build span");
        let correct_span = report.span("reptile.correct").expect("correct span");
        assert_eq!(correct_span.count, 2, "two correction passes");
        // Decision counters surfaced through the report match the stats.
        assert_eq!(
            report.counter("reptile.tiles_validated"),
            stats1.tiles_validated + stats2.tiles_validated
        );
        assert_eq!(report.counter("reptile.bases_changed"), stats1.bases_changed * 2);
        // So do the enumeration costs, which are counts and not timings:
        // every corrected or unresolved placement went through an
        // enumeration, and an enumeration probes at most once.
        let cost = stats1.enumeration;
        let enum_counter = |name: &str| report.counter(&format!("reptile.enum.{name}"));
        assert_eq!(enum_counter("enumerations"), cost.enumerations * 2);
        assert_eq!(enum_counter("neighbor_probes"), cost.neighbor_probes * 2);
        assert_eq!(enum_counter("tile_runs_scanned"), cost.tile_runs_scanned * 2);
        assert_eq!(enum_counter("tile_entries_scanned"), cost.tile_entries_scanned * 2);
        assert_eq!(enum_counter("mutants_found"), cost.mutants_found * 2);
        assert!(cost.enumerations >= stats1.tiles_corrected + stats1.tiles_unresolved);
        assert!(cost.neighbor_probes > 0 && cost.neighbor_probes < cost.enumerations, "{cost:?}");
        assert!(cost.tile_runs_scanned > cost.enumerations, "{cost:?}");
    }

    #[test]
    fn preserves_read_count_ids_and_lengths() {
        let (g, sim) = simulate(8_000, 0.02, 30.0, 5);
        let params = ReptileParams::from_data(&sim.reads, g.len());
        let (corrected, _) = Reptile::run(&sim.reads, params);
        assert_eq!(corrected.len(), sim.reads.len());
        for (a, b) in corrected.iter().zip(&sim.reads) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.len(), b.len());
            assert_eq!(a.qual, b.qual);
        }
    }
}
