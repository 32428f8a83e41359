//! Read-level correction — Algorithm 2 (§2.3).
//!
//! A tiling of the read is grown from 5′ to 3′: after a validated or
//! corrected tile, the next tile starts at the current tile's second k-mer
//! (D1/D2: "select t_next such that the suffix-prefix overlap between t
//! and t_next equals α₂; d₁ ← 0"). After an inconclusive decision, an
//! alternative decomposition is tried — shifted placements first (D3a),
//! then skipping past the dead-end region (D3b) leaving a small
//! unvalidated gap, as in Fig. 2.2. "The same strategy is applied in the 3′
//! to 5′ direction": we realise the backward pass by running the forward
//! pass over the read's reverse complement (the k-spectrum and tile table
//! are strand-symmetric, so every table lookup is valid verbatim).

use crate::params::ReptileParams;
use crate::tile_correct::{
    correct_tile, differing_positions, EnumStats, TileDecision, TileScratch,
};
use ngs_core::alphabet;
use ngs_core::Read;
use ngs_kmer::neighbor::NeighborIndex;
use ngs_kmer::packed::{encode_kmer, packed_base};
use ngs_kmer::TileTable;

/// Statistics for a correction run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReptileStats {
    /// Tile placements validated as-is.
    pub tiles_validated: u64,
    /// Tile placements corrected.
    pub tiles_corrected: u64,
    /// Tile placements with insufficient evidence.
    pub tiles_unresolved: u64,
    /// Individual bases changed.
    pub bases_changed: u64,
    /// Reads with at least one changed base.
    pub reads_changed: u64,
    /// What the d-mutant enumerations behind those decisions cost.
    pub enumeration: EnumStats,
}

impl ReptileStats {
    /// Accumulate another run's counters.
    pub fn merge(&mut self, other: &ReptileStats) {
        self.tiles_validated += other.tiles_validated;
        self.tiles_corrected += other.tiles_corrected;
        self.tiles_unresolved += other.tiles_unresolved;
        self.bases_changed += other.bases_changed;
        self.reads_changed += other.reads_changed;
        self.enumeration.merge(&other.enumeration);
    }

    /// Fold the counters into an observe collector: one counter per field
    /// (the enumeration costs as `reptile.enum.*`) plus the
    /// `reptile.tile_decision` histogram recording the D1/D2/D3 mix of
    /// Algorithm 2 (1 = validated, 2 = corrected, 3 = unresolved).
    /// Stats are accumulated per-read and folded here once, so correction's
    /// hot path never touches the collector.
    pub fn record_into(&self, collector: &ngs_observe::Collector) {
        collector.add("reptile.tiles_validated", self.tiles_validated);
        collector.add("reptile.tiles_corrected", self.tiles_corrected);
        collector.add("reptile.tiles_unresolved", self.tiles_unresolved);
        collector.add("reptile.bases_changed", self.bases_changed);
        collector.add("reptile.reads_changed", self.reads_changed);
        let e = &self.enumeration;
        collector.add("reptile.enum.enumerations", e.enumerations);
        collector.add("reptile.enum.neighbor_probes", e.neighbor_probes);
        collector.add("reptile.enum.tile_runs_scanned", e.tile_runs_scanned);
        collector.add("reptile.enum.tile_entries_scanned", e.tile_entries_scanned);
        collector.add("reptile.enum.mutants_found", e.mutants_found);
        collector.record_n("reptile.tile_decision", 1, self.tiles_validated);
        collector.record_n("reptile.tile_decision", 2, self.tiles_corrected);
        collector.record_n("reptile.tile_decision", 3, self.tiles_unresolved);
    }
}

/// One directional pass of Algorithm 2 over `seq` (qualities index-aligned).
fn pass(
    seq: &mut [u8],
    quals: Option<&[u8]>,
    params: &ReptileParams,
    tiles: &TileTable,
    index: &NeighborIndex<'_>,
    scratch: &mut TileScratch,
    stats: &mut ReptileStats,
) {
    let k = params.k;
    let m = params.tile_len();
    let len = seq.len();
    if len < m {
        return;
    }
    let last_start = len - m;
    let mut p = 0usize; // desired tile start
    let mut d1 = params.d; // budget for the leading k-mer
    loop {
        let base = p.min(last_start);
        let mut advanced = false;
        // Try the aligned placement, then shifted alternatives (D3a).
        for shift in 0..=params.max_shift_retries {
            let q = base + shift;
            if q > last_start {
                break;
            }
            let span = &seq[q..q + m];
            let (Some(a1), Some(a2)) = (encode_kmer(&span[..k]), encode_kmer(&span[m - k..]))
            else {
                // Ambiguous base inside the span: no tile can be formed.
                continue;
            };
            // Shifted placements lose the "leading k-mer already validated"
            // guarantee, so they get the full budget back.
            let eff_d1 = if shift == 0 { d1.min(params.d) } else { params.d };
            let tile_quals = quals.map(|qv| &qv[q..q + m]);
            match correct_tile(a1, a2, eff_d1, params.d, tile_quals, params, tiles, index, scratch)
            {
                TileDecision::Valid => {
                    stats.tiles_validated += 1;
                }
                TileDecision::Corrected { tile } => {
                    let original =
                        ngs_kmer::tile::compose_tile(a1, a2, k, params.tile_overlap).unwrap();
                    for i in differing_positions(original, tile, m) {
                        seq[q + i] = alphabet::decode_base(packed_base(tile, m, i));
                        stats.bases_changed += 1;
                    }
                    stats.tiles_corrected += 1;
                }
                TileDecision::Unresolved => {
                    stats.tiles_unresolved += 1;
                    continue;
                }
            }
            // Success: advance so the next tile's first k-mer is this tile's
            // (possibly corrected) second k-mer.
            if q == last_start {
                return; // reached the 3' end
            }
            p = q + (m - k);
            d1 = 0;
            advanced = true;
            break;
        }
        if !advanced {
            // D3b: skip past the dead-end region, leaving a gap.
            if base == last_start {
                return;
            }
            p = base + m;
            d1 = params.d;
        }
    }
}

/// What correcting a read needs beside the read, kept by a worker from one
/// read to the next so that no read allocates: Algorithm 1's buffers, the
/// sequence both passes work on, and the qualities in 3′→5′ order.
#[derive(Default)]
pub(crate) struct ReadScratch {
    tile: TileScratch,
    seq: Vec<u8>,
    rev_quals: Vec<u8>,
}

/// Correct one read in place (sequence only; id and qualities preserved).
/// Runs the 5′→3′ pass, then the 3′→5′ pass via the reverse complement.
pub fn correct_read(
    read: &mut Read,
    params: &ReptileParams,
    tiles: &TileTable,
    index: &NeighborIndex<'_>,
) -> ReptileStats {
    correct_read_with(read, params, tiles, index, &mut ReadScratch::default())
}

/// [`correct_read`] on buffers the caller keeps.
pub(crate) fn correct_read_with(
    read: &mut Read,
    params: &ReptileParams,
    tiles: &TileTable,
    index: &NeighborIndex<'_>,
    scratch: &mut ReadScratch,
) -> ReptileStats {
    let mut stats = ReptileStats::default();
    let ReadScratch { tile, seq, rev_quals } = scratch;
    // Both passes work on one copy, so the read itself stays the "before"
    // to compare against.
    seq.clear();
    seq.extend_from_slice(&read.seq);

    // Forward pass.
    pass(seq, read.qual.as_deref(), params, tiles, index, tile, &mut stats);

    // Backward pass on the reverse complement (strand-symmetric tables).
    alphabet::reverse_complement_in_place(seq);
    let rev_quals = read.qual.as_ref().map(|q| {
        rev_quals.clear();
        rev_quals.extend(q.iter().rev());
        rev_quals.as_slice()
    });
    pass(seq, rev_quals, params, tiles, index, tile, &mut stats);
    alphabet::reverse_complement_in_place(seq);

    if *seq != read.seq {
        read.seq.copy_from_slice(seq);
        stats.reads_changed = 1;
    }
    stats.enumeration = std::mem::take(&mut tile.stats);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_kmer::neighbor::NeighborStrategy;

    /// A corpus of identical reads covering one "genome" string, plus one
    /// read with planted errors.
    fn setup(genome: &[u8], n_clean: usize, k: usize) -> (Vec<Read>, ReptileParams) {
        let mut params = ReptileParams::defaults(1 << (2 * k));
        params.k = k;
        params.tile_overlap = 0;
        params.cg = 8;
        params.cm = 2;
        params.qm = u8::MAX;
        params.d = 1;
        let reads: Vec<Read> = (0..n_clean)
            .flat_map(|i| {
                // Overlapping windows over the genome for tile diversity.
                (0..=(genome.len() - 20))
                    .step_by(4)
                    .map(move |s| Read::new(format!("r{i}_{s}"), &genome[s..s + 20]))
            })
            .collect();
        (reads, params)
    }

    fn run_one(reads: &[Read], params: &ReptileParams, victim: Read) -> (Read, ReptileStats) {
        let tiles = TileTable::build(reads, params.k, params.tile_overlap, params.qc);
        let anchors = crate::anchors(&tiles, params.cm);
        let index = NeighborIndex::build(
            &anchors,
            params.d,
            NeighborStrategy::MaskedReplicas { chunks: params.neighbor_chunks() },
        );
        let mut read = victim;
        let stats = correct_read(&mut read, params, &tiles, &index);
        (read, stats)
    }

    #[test]
    fn fixes_single_error_mid_read() {
        let genome = b"ACGTTGCAGGATCCATTACAGTGGCCAATG";
        let (reads, params) = setup(genome, 4, 5);
        let clean = &genome[2..22];
        let mut bad = clean.to_vec();
        bad[9] = alphabet::complement_base(bad[9]);
        let (fixed, stats) = run_one(&reads, &params, Read::new("victim", &bad));
        assert_eq!(fixed.seq, clean.to_vec(), "stats={stats:?}");
        assert!(stats.bases_changed >= 1);
        assert_eq!(stats.reads_changed, 1);
    }

    #[test]
    fn fixes_error_near_three_prime_end() {
        let genome = b"ACGTTGCAGGATCCATTACAGTGGCCAATG";
        let (reads, params) = setup(genome, 4, 5);
        let clean = &genome[0..20];
        let mut bad = clean.to_vec();
        bad[18] = alphabet::complement_base(bad[18]);
        let (fixed, stats) = run_one(&reads, &params, Read::new("victim", &bad));
        assert_eq!(fixed.seq, clean.to_vec(), "stats={stats:?}");
    }

    #[test]
    fn fixes_error_at_five_prime_end() {
        let genome = b"ACGTTGCAGGATCCATTACAGTGGCCAATG";
        let (reads, params) = setup(genome, 4, 5);
        let clean = &genome[4..24];
        let mut bad = clean.to_vec();
        bad[0] = alphabet::complement_base(bad[0]);
        let (fixed, stats) = run_one(&reads, &params, Read::new("victim", &bad));
        assert_eq!(fixed.seq, clean.to_vec(), "stats={stats:?}");
    }

    #[test]
    fn clean_read_unchanged() {
        let genome = b"ACGTTGCAGGATCCATTACAGTGGCCAATG";
        let (reads, params) = setup(genome, 4, 5);
        let clean = genome[3..23].to_vec();
        let (fixed, stats) = run_one(&reads, &params, Read::new("victim", &clean));
        assert_eq!(fixed.seq, clean);
        assert_eq!(stats.reads_changed, 0);
        assert_eq!(stats.bases_changed, 0);
    }

    /// The walk of a clean 20-base read, by hand: per pass, tiles at 0, 5
    /// and 10; only the first has a budget for its leading k-mer (`d₁ = d`),
    /// the two after an advance have `d₁ = 0`. With `C_g` out of reach every
    /// placement enters enumeration, so of six enumerations two probe the
    /// neighbour index and four scan exactly one run.
    #[test]
    fn only_placements_with_a_leading_budget_probe_the_index() {
        let genome = b"ACGTTGCAGGATCCATTACAGTGGCCAATG";
        let (reads, mut params) = setup(genome, 4, 5);
        params.cg = u32::MAX;
        let (fixed, stats) = run_one(&reads, &params, Read::new("clean", &genome[3..23]));
        assert_eq!(fixed.seq, genome[3..23].to_vec());
        assert_eq!(
            (stats.tiles_validated, stats.tiles_corrected, stats.tiles_unresolved),
            (6, 0, 0)
        );
        let cost = stats.enumeration;
        assert_eq!(cost.enumerations, 6);
        assert_eq!(cost.neighbor_probes, 2);
        // One run per enumeration — the tile's own, which holds the tile —
        // plus one per neighbour the two probes found that starts a tile at
        // or above the floor; only such tiles count as mutants found.
        assert!(cost.tile_runs_scanned >= 6, "{cost:?}");
        assert!(cost.tile_entries_scanned >= cost.mutants_found + 6, "{cost:?}");

        // With every observed tile trusted, the same read validates on the
        // first lookup throughout and enumerates nothing.
        params.cg = 1;
        let (_, stats) = run_one(&reads, &params, Read::new("clean", &genome[3..23]));
        assert_eq!(stats.tiles_validated, 6);
        assert_eq!(stats.enumeration, EnumStats::default());
    }

    #[test]
    fn short_read_is_noop() {
        let genome = b"ACGTTGCAGGATCCATTACAGTGGCCAATG";
        let (reads, params) = setup(genome, 4, 5);
        let (fixed, stats) = run_one(&reads, &params, Read::new("tiny", b"ACGT"));
        assert_eq!(fixed.seq, b"ACGT".to_vec());
        assert_eq!(stats.tiles_validated + stats.tiles_corrected + stats.tiles_unresolved, 0);
    }

    #[test]
    fn two_errors_in_different_tiles_both_fixed() {
        let genome = b"ACGTTGCAGGATCCATTACAGTGGCCAATGTTACG";
        let (reads, params) = setup(genome, 4, 5);
        let clean = &genome[0..24];
        let mut bad = clean.to_vec();
        bad[3] = alphabet::complement_base(bad[3]);
        bad[20] = alphabet::complement_base(bad[20]);
        let (fixed, stats) = run_one(&reads, &params, Read::new("victim", &bad));
        assert_eq!(fixed.seq, clean.to_vec(), "stats={stats:?}");
    }
}
