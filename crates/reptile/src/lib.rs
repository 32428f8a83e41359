//! `reptile` — Representative Tiling for Error Correction (Chapter 2).
//!
//! Reptile corrects substitution errors in short reads by working with the
//! tiles — pairs of k-mers — the input holds instead of the reads themselves:
//!
//! 1. **Information extraction** (§2.3 Phase 1): one tile table over both
//!    strands with plain/high-quality occurrence counts, and derived from it
//!    the *anchors* — the first k-mers that start a tile with `O_g ≥ C_m` —
//!    behind the Hamming-graph neighbour index (masked replicas). No
//!    k-spectrum is counted: a tile of the table is observed, which is all
//!    Definition 2.2 asks of a d-mutant tile, and no decision reads a
//!    mutant with `O_g < C_m`;
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
use ngs_kmer::tile::split_tile;
use ngs_kmer::{KSpectrum, TileTable};
use ngs_observe::{Collector, LogHistogram};
use rayon::prelude::*;
use read_correct::{correct_read_with, ReadScratch};

/// The Reptile corrector: immutable index data shared across reads.
///
/// Phase 1 is one structure, the tile table; the anchors and the
/// neighbour tables over them are functions of it and of `(C_m, k, d)`,
/// derived once in [`Reptile::build_with`] (or on loading a snapshot) and
/// reused by every correction call.
pub struct Reptile {
    params: ReptileParams,
    tiles: TileTable,
    /// What `neighbor_tables` indexes, derived from `tiles` by [`anchors`].
    anchors: KSpectrum,
    /// Masked-replica neighbour tables over `anchors`; correction takes
    /// O(1) views of them per call.
    neighbor_tables: NeighborTables,
}

/// The first k-mers a d-mutant search can be led to: every first k-mer of
/// `tiles` that starts a tile with `O_g ≥ cm`, ascending, with the largest
/// `O_g` of its run in the count slot. A mutant tile below `C_m` changes no
/// decision (`tile_correct::evidence_floor`), so a first k-mer that starts
/// none at or above it is never worth a visit.
pub(crate) fn anchors(tiles: &TileTable, cm: u32) -> KSpectrum {
    let (k, l) = (tiles.k(), tiles.overlap());
    // One `(first k-mer, largest O_g)` per run; tiles ascend, so a run's
    // tiles are adjacent and the first k-mers come out ascending.
    let mut runs: Vec<(u64, u32)> = Vec::new();
    for (tile, counts) in tiles.iter() {
        let first = split_tile(tile, k, l).0;
        match runs.last_mut() {
            Some((kmer, max_og)) if *kmer == first => *max_og = (*max_og).max(counts.og),
            _ => runs.push((first, counts.og)),
        }
    }
    let (kmers, best) = runs.into_iter().filter(|&(_, max_og)| max_og >= cm).unzip();
    KSpectrum::from_sorted(k, kmers, best).expect("the first k-mers of ascending tiles ascend")
}

impl Reptile {
    /// The corrector over `tiles`: anchors and neighbour tables derived,
    /// under the spans `reptile.build.{anchors,neighbor_index}`. The caller
    /// has checked `params` and that `tiles` have their `k` and `l`.
    pub(crate) fn from_tiles(
        params: ReptileParams,
        tiles: TileTable,
        collector: &Collector,
    ) -> Reptile {
        debug_assert_eq!((tiles.k(), tiles.overlap()), (params.k, params.tile_overlap));
        // Spans open with the pool size and close with the thread count
        // the parallel work actually used, so sequential fallbacks (small
        // inputs, NGS_THREADS=1) stop reporting full fan-out.
        let threads = rayon::current_num_threads();
        let anchors = {
            let _s = collector.span_with_threads("reptile.build.anchors", 1);
            anchors(&tiles, params.cm)
        };
        let neighbor_tables = {
            let mut s = collector.span_with_threads("reptile.build.neighbor_index", threads);
            collector.incr("reptile.index_builds");
            let strategy = NeighborStrategy::MaskedReplicas { chunks: params.neighbor_chunks() };
            let tables = NeighborTables::build(&anchors, params.d, strategy);
            s.set_threads(rayon::last_threads_used());
            tables
        };
        if collector.is_enabled() {
            let mut hist = LogHistogram::new();
            for (_, counts) in tiles.iter() {
                hist.record(u64::from(counts.og));
            }
            collector.merge_histogram("reptile.tile_og", &hist);
            collector.add("reptile.anchors", anchors.len() as u64);
        }
        Reptile { params, tiles, anchors, neighbor_tables }
    }

    /// Build the Phase-1 indexes from the (already ambiguity-preprocessed)
    /// read set.
    pub fn build(reads: &[Read], params: ReptileParams) -> Reptile {
        Self::build_with(reads, params, None)
    }

    /// [`Reptile::build`] around a tile table the caller already has:
    /// `tiles`, when given, must be `TileTable::build(reads, k, l, Q_c)` for
    /// these reads and parameters — what
    /// [`ReptileParams::from_data_with_tiles`] returned, as long as no read
    /// was changed since and `k`, `l` and `Q_c` still are what it chose. A
    /// table of another `k` or `l` is built again; debug builds check the
    /// rest of the condition.
    pub fn build_with(reads: &[Read], params: ReptileParams, tiles: Option<TileTable>) -> Reptile {
        Self::build_with_observed(reads, params, tiles, &Collector::disabled())
    }

    /// [`Reptile::build_with`] with observability: spans
    /// `reptile.build.{tiles,anchors,neighbor_index}` (no `tiles` span when
    /// the given table is taken), the `reptile.index_builds` and
    /// `reptile.anchors` counters, and the `reptile.tile_og` histogram land
    /// in `collector`.
    pub fn build_with_observed(
        reads: &[Read],
        params: ReptileParams,
        tiles: Option<TileTable>,
        collector: &Collector,
    ) -> Reptile {
        params.validate();
        let (k, l, qc) = (params.k, params.tile_overlap, params.qc);
        let tiles = match tiles.filter(|t| (t.k(), t.overlap()) == (k, l)) {
            Some(tiles) => {
                debug_assert!(
                    tiles.iter().eq(TileTable::build(reads, k, l, qc).iter()),
                    "the given tile table is not the table of these reads at Qc = {qc}"
                );
                tiles
            }
            None => {
                let mut s = collector
                    .span_with_threads("reptile.build.tiles", rayon::current_num_threads());
                let tiles = TileTable::build(reads, k, l, qc);
                s.set_threads(rayon::last_threads_used());
                tiles
            }
        };
        Self::from_tiles(params, tiles, collector)
    }

    /// The parameters in use.
    pub fn params(&self) -> &ReptileParams {
        &self.params
    }

    /// The anchors — exactly what [`Reptile::neighbor_tables`] indexes, so
    /// `neighbor_tables().view(spectrum())` is the index correction uses:
    /// first k-mers of the tile table that start a tile with `O_g ≥ C_m`,
    /// the count slot holding the largest such `O_g`.
    pub fn spectrum(&self) -> &KSpectrum {
        &self.anchors
    }

    /// The tile table (exposed for diagnostics and tests).
    pub fn tiles(&self) -> &TileTable {
        &self.tiles
    }

    /// The neighbour tables over [`Reptile::spectrum`] (exposed for
    /// diagnostics and tests).
    pub fn neighbor_tables(&self) -> &NeighborTables {
        &self.neighbor_tables
    }

    /// Correct every read, returning corrected copies and statistics.
    pub fn correct(&self, reads: &[Read]) -> (Vec<Read>, ReptileStats) {
        let mut reads = reads.to_vec();
        let stats = self.correct_in_place(&mut reads);
        (reads, stats)
    }

    /// Correct every read where it lies (sequences only; ids and qualities
    /// are not touched).
    pub fn correct_in_place(&self, reads: &mut [Read]) -> ReptileStats {
        self.correct_in_place_observed(reads, &Collector::disabled())
    }

    /// [`Reptile::correct_in_place`] with observability: the
    /// `reptile.correct` span, the D1/D2/D3 decision counters, and the
    /// `reptile.tile_decision` histogram land in `collector`.
    pub fn correct_in_place_observed(
        &self,
        reads: &mut [Read],
        collector: &Collector,
    ) -> ReptileStats {
        let mut span = collector.span_with_threads("reptile.correct", rayon::current_num_threads());
        let index = self.neighbor_tables.view(&self.anchors);
        // A few batches per thread, each with one set of buffers for all
        // its reads. The counters are sums, so neither the batch size nor
        // the thread count shows in them.
        let batch = (reads.len() / (rayon::current_num_threads() * 4)).max(256);
        let per_batch: Vec<ReptileStats> = reads
            .chunks_mut(batch)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|batch| {
                let mut scratch = ReadScratch::default();
                let mut stats = ReptileStats::default();
                for read in batch {
                    stats.merge(&correct_read_with(
                        read,
                        &self.params,
                        &self.tiles,
                        &index,
                        &mut scratch,
                    ));
                }
                stats
            })
            .collect();
        span.set_threads(rayon::last_threads_used());
        let mut all = ReptileStats::default();
        for stats in &per_batch {
            all.merge(stats);
        }
        drop(span);
        all.record_into(collector);
        collector.add("reptile.reads_corrected", reads.len() as u64);
        all
    }

    /// Full pipeline: preprocess ambiguous bases, build indexes, correct.
    /// This is the entry point matching the released Reptile tool.
    pub fn run(reads: &[Read], params: ReptileParams) -> (Vec<Read>, ReptileStats) {
        let mut reads = ambig::preprocess_ambiguous(reads, &params);
        let stats = Reptile::build(&reads, params).correct_in_place(&mut reads);
        (reads, stats)
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
        let reptile = Reptile::build_with_observed(&preprocessed, params, None, &collector);
        let (mut out1, mut out2) = (preprocessed.clone(), preprocessed.clone());
        let stats1 = reptile.correct_in_place_observed(&mut out1, &collector);
        let stats2 = reptile.correct_in_place_observed(&mut out2, &collector);
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
        // enumeration, an enumeration probes at most once and scans the
        // tile's own run before any neighbour's, and every correction went
        // to a mutant found at or above the evidence floor.
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
        assert!(cost.mutants_found >= stats1.tiles_corrected, "{cost:?}");
        assert!(cost.mutants_found < cost.enumerations, "{cost:?}");
    }

    /// Phase 1 once: the table `from_data_with_tiles` read the thresholds
    /// off is the table `build` builds, so handing it to `build_with` gives
    /// the same index; a table of another shape is built again; and
    /// correcting in place is `correct` without the copy.
    #[test]
    fn the_once_path_builds_what_the_wrappers_build() {
        let (g, sim) = simulate(8_000, 0.02, 30.0, 11);
        let (params, tiles) = ReptileParams::from_data_with_tiles(&sim.reads, g.len(), None);
        assert_eq!(params, ReptileParams::from_data(&sim.reads, g.len()));
        let mut reads = sim.reads.clone();
        assert_eq!(ambig::preprocess_in_place(&mut reads, &params), 0, "no N in this input");

        let stale = TileTable::build(&reads[..50], params.k + 1, 0, params.qc);
        let built = Reptile::build(&reads, params.clone());
        for given in [tiles, stale] {
            let collector = Collector::new();
            let same_shape = given.k() == params.k;
            let with =
                Reptile::build_with_observed(&reads, params.clone(), Some(given), &collector);
            assert_eq!(with.snapshot_bytes(), built.snapshot_bytes());
            assert_eq!(with.spectrum().kmers(), built.spectrum().kmers());
            assert_eq!(with.spectrum().counts(), built.spectrum().counts());
            let report = collector.report("reptile");
            assert_eq!(report.span("reptile.build.tiles").is_none(), same_shape);
            assert_eq!(report.counter("reptile.anchors"), built.spectrum().len() as u64);
        }

        let (corrected, stats) = built.correct(&reads);
        assert_eq!(built.correct_in_place(&mut reads), stats);
        assert_eq!(reads, corrected);
        assert!(stats.bases_changed > 0);
    }

    /// The anchors are the first k-mers that start a tile at or above
    /// `C_m`, each with the best `O_g` of its run — and they are what the
    /// neighbour tables index, so the two views handed out agree.
    #[test]
    fn anchors_are_the_strong_first_kmers_of_the_table() {
        let (g, sim) = simulate(8_000, 0.02, 30.0, 5);
        let params = ReptileParams::from_data(&sim.reads, g.len());
        let reptile = Reptile::build(&sim.reads, params.clone());
        let mut best: std::collections::BTreeMap<u64, u32> = Default::default();
        for (tile, counts) in reptile.tiles().iter() {
            let first = split_tile(tile, params.k, params.tile_overlap).0;
            let slot = best.entry(first).or_default();
            *slot = (*slot).max(counts.og);
        }
        let strong = best.len();
        best.retain(|_, og| *og >= params.cm);
        assert!(best.len() < strong / 2, "most first k-mers start erroneous tiles only");
        assert!(reptile.spectrum().iter().eq(best.into_iter()));
        // `view` panics on a spectrum other than the one indexed.
        reptile.neighbor_tables().view(reptile.spectrum());
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
