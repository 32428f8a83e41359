//! Reptile parameters and their data-driven selection (§2.3 "Choosing
//! Parameters").
//!
//! "Given short read data R, we examine the empirical distribution of
//! quality scores and choose threshold Qc such that a given percentage
//! (e.g., 15% to 20%) of bases have quality score value below Qc. … we
//! choose Cg so that only a small percentage (e.g., 1% to 3%) of tiles have
//! high quality multiplicity greater than Cg. Cm is chosen so that a larger
//! percentage (e.g., 4% to 6%) of tiles occur more than Cm times. … By
//! default, we set Cr = 2. … we choose k = ⌈log₄|G|⌉."

use ngs_core::stats::Histogram;
use ngs_core::Read;
use ngs_kmer::TileTable;

/// Full parameter set for a Reptile run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReptileParams {
    /// k-mer length (`1..=16`, tiles must fit in a `u64`).
    pub k: usize,
    /// Maximum Hamming distance for mutant k-mers (default 1).
    pub d: usize,
    /// Overlap `l` between a tile's two k-mers (`|t| = 2k − l`; default 0).
    pub tile_overlap: usize,
    /// Upper validation threshold: tiles with `O_g ≥ C_g` are trusted as-is.
    pub cg: u32,
    /// Lower evidence threshold `C_m`.
    pub cm: u32,
    /// Frequency ratio `C_r`: a correction target must be at least this many
    /// times more frequent than the tile it replaces.
    pub cr: f64,
    /// High-quality base cutoff `Q_c` (raw Phred).
    pub qc: u8,
    /// A correction must touch at least one base with quality below `Q_m`.
    pub qm: u8,
    /// Default base substituted for correctable ambiguous bases.
    pub default_n_base: u8,
    /// Maximum ambiguous bases allowed in any `k`-window for an `N` to be
    /// considered correctable (§2.4's density rule; defaults to `d`).
    pub max_n_per_window: usize,
    /// Extra shifted tile placements tried after an inconclusive decision
    /// before skipping (D3 exploration breadth).
    pub max_shift_retries: usize,
}

impl ReptileParams {
    /// Paper-default parameters for a genome of roughly `genome_len` bases,
    /// with thresholds that still must be refined from data
    /// ([`ReptileParams::from_data`] does both).
    pub fn defaults(genome_len: usize) -> ReptileParams {
        let k = (genome_len.max(4) as f64).log(4.0).ceil() as usize;
        let k = k.clamp(10, 16);
        ReptileParams {
            k,
            d: 1,
            tile_overlap: 0,
            cg: 8,
            cm: 4,
            cr: 2.0,
            qc: 20,
            qm: 25,
            default_n_base: b'A',
            max_n_per_window: 1,
            max_shift_retries: 2,
        }
    }

    /// Select thresholds from the data's own histograms, per §2.3.
    pub fn from_data(reads: &[Read], genome_len: usize) -> ReptileParams {
        Self::from_data_with_tiles(reads, genome_len, None).0
    }

    /// [`ReptileParams::from_data`], handing back the tile table whose `O_g`
    /// histogram set `C_g` and `C_m`: `TileTable::build(reads, k, l, Q_c)`
    /// at the returned parameters, which is the table
    /// [`Reptile::build_with`](crate::Reptile::build_with) indexes — Phase 1
    /// need not build it a second time. `k_override` replaces the
    /// genome-length rule for `k` *before* the histogram is taken, so the
    /// thresholds belong to the tiles that will be corrected.
    ///
    /// # Panics
    /// Panics when `k_override` is outside `1..=16`.
    pub fn from_data_with_tiles(
        reads: &[Read],
        genome_len: usize,
        k_override: Option<usize>,
    ) -> (ReptileParams, TileTable) {
        let mut p = ReptileParams::defaults(genome_len);
        p.k = k_override.unwrap_or(p.k);

        // Qc: ~18% of bases below the cutoff.
        let mut qhist = Histogram::new();
        let mut have_quals = false;
        for r in reads {
            if let Some(q) = &r.qual {
                have_quals = true;
                for &s in q {
                    qhist.record(s as usize);
                }
            }
        }
        if have_quals {
            p.qc = qhist.quantile(0.18).unwrap_or(20) as u8;
            p.qm = qhist.quantile(0.30).unwrap_or(25) as u8;
        } else {
            // Without qualities all bases count as high quality; thresholds
            // on Qm must never block corrections.
            p.qc = 0;
            p.qm = u8::MAX;
        }

        // Cg / Cm from the high-quality tile multiplicity histogram.
        let table = TileTable::build(reads, p.k, p.tile_overlap, p.qc);
        let mut thist = Histogram::new();
        for (_, c) in table.iter() {
            thist.record(c.og as usize);
        }
        if thist.total() > 0 {
            // ~2% of tiles above Cg (top of the trusted mode). Cm must sit
            // *below* the trusted-tile mode so genuine low-coverage tiles can
            // validate and erroneous ones (O_g ≈ 0–2) fall in the correction
            // branch: a fixed fraction of Cg tracks the coverage, while the
            // 5%-tail estimate caps it when the distribution is tight.
            p.cg = thist.upper_tail_cutoff(0.02).unwrap_or(8).max(3) as u32;
            let tail = thist.upper_tail_cutoff(0.05).unwrap_or(4).max(2) as u32;
            p.cm = (p.cg / 4).clamp(2, tail.max(2));
            if p.cm >= p.cg {
                p.cm = (p.cg / 2).max(2);
            }
        }
        (p, table)
    }

    /// Number of positional chunks for the masked-replica neighbour index:
    /// the workspace-wide rule [`ngs_kmer::neighbor::default_chunks`].
    pub fn neighbor_chunks(&self) -> usize {
        ngs_kmer::neighbor::default_chunks(self.k, self.d)
    }

    /// Tile length in bases.
    pub fn tile_len(&self) -> usize {
        2 * self.k - self.tile_overlap
    }

    /// The parameter domains, as an error naming the first one violated.
    /// `d < k` because the masked-replica index needs more chunks than
    /// masked chunks; `C_r ≥ 1` (which a NaN fails) because Algorithm 1's
    /// evidence floor rests on it.
    pub fn check(&self) -> Result<(), &'static str> {
        if !(1..=16).contains(&self.k) {
            return Err("k must be in 1..=16");
        }
        if self.d == 0 || self.d >= self.k {
            return Err("d must be in 1..k");
        }
        if self.tile_overlap >= self.k {
            return Err("tile overlap must be < k");
        }
        if self.cr.is_nan() || self.cr < 1.0 {
            return Err("Cr must be >= 1");
        }
        if !matches!(self.default_n_base, b'A' | b'C' | b'G' | b'T') {
            return Err("default N base must be one of ACGT");
        }
        Ok(())
    }

    /// Panic on out-of-domain parameters (called by `Reptile::build`).
    pub fn validate(&self) {
        if let Err(violated) = self.check() {
            panic!("{violated}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_simulate::{simulate_reads, ErrorModel, GenomeSpec, ReadSimConfig};

    #[test]
    fn defaults_choose_k_from_genome() {
        assert_eq!(ReptileParams::defaults(4_600_000).k, 12);
        assert_eq!(ReptileParams::defaults(1_000_000).k, 10);
        assert_eq!(ReptileParams::defaults(100).k, 10); // clamped
    }

    #[test]
    fn from_data_orders_thresholds() {
        let g = GenomeSpec::uniform(10_000).generate(1).seq;
        let cfg =
            ReadSimConfig::with_coverage(g.len(), 36, 50.0, ErrorModel::illumina_like(36, 0.01), 7);
        let sim = simulate_reads(&g, &cfg);
        let p = ReptileParams::from_data(&sim.reads, g.len());
        assert!(p.cm < p.cg, "cm={} cg={}", p.cm, p.cg);
        assert!(p.cm >= 2);
        assert!(p.qc > 0, "quality histogram should give a nonzero Qc");
        p.validate();
    }

    /// `from_data` histograms a tile table it builds itself; the thresholds
    /// on the inputs of the `lib.rs` tests are those the hash-map table gave.
    #[test]
    fn from_data_thresholds_are_pinned() {
        let thresholds =
            |genome_seed: u64, genome_len: usize, cfg: &dyn Fn(usize) -> ReadSimConfig| {
                let g = GenomeSpec::uniform(genome_len).generate(genome_seed).seq;
                let p = ReptileParams::from_data(&simulate_reads(&g, &cfg(g.len())).reads, g.len());
                (p.cg, p.cm, p.qc, p.qm)
            };
        let illumina = |pe: f64, coverage: f64, seed: u64| {
            move |len: usize| {
                ReadSimConfig::with_coverage(
                    len,
                    36,
                    coverage,
                    ErrorModel::illumina_like(36, pe),
                    seed,
                )
            }
        };
        assert_eq!(thresholds(23, 20_000, &illumina(0.01, 60.0, 1)), (17, 4, 21, 24));
        assert_eq!(thresholds(23, 20_000, &illumina(0.0, 40.0, 2)), (17, 4, 21, 24));
        assert_eq!(thresholds(23, 15_000, &illumina(0.015, 40.0, 3)), (11, 2, 21, 24));
        assert_eq!(thresholds(23, 8_000, &illumina(0.02, 30.0, 11)), (8, 2, 21, 24));
        assert_eq!(thresholds(23, 8_000, &illumina(0.02, 30.0, 5)), (9, 2, 21, 24));
        let with_ns = |_: usize| ReadSimConfig {
            read_len: 36,
            n_reads: 12_000,
            error_model: ErrorModel::uniform(36, 0.005),
            both_strands: true,
            with_quals: true,
            n_rate: 0.01,
            seed: 4,
        };
        assert_eq!(thresholds(29, 10_000, &with_ns), (12, 3, 21, 24));
    }

    /// Regression: `--k` used to replace `k` after `C_g`/`C_m` had been read
    /// off the tile histogram at the genome-length `k`, so 24-mers were
    /// corrected with the thresholds of 20-mers. On the first `lib.rs` input
    /// (pinned above at `k = 10`: `C_g` 17, `C_m` 4) a 24-mer is covered
    /// by fewer reads than a 20-mer and the thresholds come out lower; the
    /// table handed back is the one they were read off.
    #[test]
    fn k_override_takes_thresholds_and_table_at_that_k() {
        let g = GenomeSpec::uniform(20_000).generate(23).seq;
        let cfg =
            ReadSimConfig::with_coverage(g.len(), 36, 60.0, ErrorModel::illumina_like(36, 0.01), 1);
        let reads = simulate_reads(&g, &cfg).reads;
        let (p, tiles) = ReptileParams::from_data_with_tiles(&reads, g.len(), Some(12));
        assert_eq!((p.k, p.cg, p.cm, p.qc, p.qm), (12, 10, 2, 21, 24));
        assert!(tiles.iter().eq(TileTable::build(&reads, 12, p.tile_overlap, p.qc).iter()));
        p.validate();

        let (default_k, tiles) = ReptileParams::from_data_with_tiles(&reads, g.len(), None);
        assert_eq!(default_k, ReptileParams::from_data(&reads, g.len()));
        assert_eq!((default_k.k, tiles.k()), (10, 10));
    }

    #[test]
    fn from_data_without_quals() {
        let g = GenomeSpec::uniform(5_000).generate(2).seq;
        let mut cfg =
            ReadSimConfig::with_coverage(g.len(), 36, 30.0, ErrorModel::uniform(36, 0.01), 8);
        cfg.with_quals = false;
        let sim = simulate_reads(&g, &cfg);
        let p = ReptileParams::from_data(&sim.reads, g.len());
        assert_eq!(p.qc, 0);
        assert_eq!(p.qm, u8::MAX);
        p.validate();
    }

    #[test]
    fn neighbor_chunks_by_distance() {
        let mut p = ReptileParams::defaults(1_000_000);
        assert_eq!(p.neighbor_chunks(), 3);
        p.d = 2;
        assert_eq!(p.neighbor_chunks(), 4);
        p.k = 3;
        assert_eq!(p.neighbor_chunks(), 3);
    }

    #[test]
    #[should_panic(expected = "tile overlap")]
    fn validate_rejects_bad_overlap() {
        let mut p = ReptileParams::defaults(1_000_000);
        p.tile_overlap = p.k;
        p.validate();
    }
}
