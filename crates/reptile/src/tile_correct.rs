//! Tile validation and correction — Algorithm 1 (§2.3).
//!
//! A decision about tile `t = α₁ ||_l α₂` is made from its high-quality
//! occurrence count `O_g(t)` and the counts of its *d-mutant tiles*
//! (Definition 2.2), located through the Hamming-graph neighbourhoods of its
//! constituent k-mers: `{t' = α₁' ||_l α₂' | (α₁', α₂') ∈ N^{d₁}×N^{d₂}}`.
//! "As a rule of thumb, there must be compelling evidence before a
//! correction is made."

use crate::params::ReptileParams;
use ngs_kmer::neighbor::NeighborIndex;
use ngs_kmer::packed::{decode_kmer, hamming_distance, packed_base, Kmer};
use ngs_kmer::tile::{compose_tile, Tile};
use ngs_kmer::TileTable;

/// Outcome of Algorithm 1 on one tile placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileDecision {
    /// The tile is trusted as observed.
    Valid,
    /// The tile should be replaced by `tile`.
    Corrected {
        /// The replacement tile (packed, same length).
        tile: Tile,
    },
    /// Insufficient evidence to validate or correct ("ambiguities").
    Unresolved,
}

/// Buffers one read's tile decisions reuse, so Algorithm 1 allocates
/// nothing per tile.
#[derive(Default)]
pub struct TileScratch {
    /// Observed Hamming neighbours of the tile's first and second k-mer.
    side1: Vec<Kmer>,
    side2: Vec<Kmer>,
    /// The tile's observed d-mutant tiles with their high-quality counts.
    mutants: Vec<(Tile, u32)>,
}

/// Candidate k-mers for one side of a tile: the original, then its observed
/// Hamming neighbours within the side's budget (`neighbors` is the buffer
/// they are read into).
fn side_candidates<'a>(
    index: &NeighborIndex<'_>,
    kmer: Kmer,
    budget: usize,
    neighbors: &'a mut Vec<Kmer>,
) -> impl Iterator<Item = Kmer> + Clone + 'a {
    index.neighbor_kmers_into(kmer, budget, neighbors);
    std::iter::once(kmer).chain(neighbors.iter().copied())
}

/// Enumerate the observed d-mutant tiles of `(a1, a2)` (excluding the tile
/// itself), with their high-quality counts, ascending, into
/// `scratch.mutants`.
fn mutant_tiles(
    a1: Kmer,
    a2: Kmer,
    (d1, d2): (usize, usize),
    params: &ReptileParams,
    tiles: &TileTable,
    index: &NeighborIndex<'_>,
    scratch: &mut TileScratch,
) {
    let k = params.k;
    let l = params.tile_overlap;
    let original = compose_tile(a1, a2, k, l).expect("read-derived tile must be consistent");
    let TileScratch { side1, side2, mutants } = scratch;
    mutants.clear();
    let c2 = side_candidates(index, a2, d2, side2);
    for m1 in side_candidates(index, a1, d1, side1) {
        for m2 in c2.clone() {
            let Some(t) = compose_tile(m1, m2, k, l) else { continue };
            if t == original {
                continue;
            }
            let counts = tiles.counts(t);
            if counts.oc > 0 {
                mutants.push((t, counts.og));
            }
        }
    }
    mutants.sort_unstable();
    mutants.dedup();
}

/// Positions (within the tile) where `a` and `b` differ, ascending.
pub fn differing_positions(a: Tile, b: Tile, m: usize) -> impl Iterator<Item = usize> {
    (0..m).filter(move |&i| packed_base(a, m, i) != packed_base(b, m, i))
}

/// Algorithm 1: decide the fate of the tile `(a1, a2)` as read from a read,
/// given the read's quality scores over the tile span (`None` when the
/// dataset has no qualities).
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's inputs
pub fn correct_tile(
    a1: Kmer,
    a2: Kmer,
    d1: usize,
    d2: usize,
    tile_quals: Option<&[u8]>,
    params: &ReptileParams,
    tiles: &TileTable,
    index: &NeighborIndex<'_>,
    scratch: &mut TileScratch,
) -> TileDecision {
    let k = params.k;
    let l = params.tile_overlap;
    let m = params.tile_len();
    let t = compose_tile(a1, a2, k, l).expect("read-derived tile must be consistent");
    let og = tiles.og(t);

    // Lines 1–3: unconditional validation above Cg.
    if og >= params.cg {
        return TileDecision::Valid;
    }

    mutant_tiles(a1, a2, (d1, d2), params, tiles, index, scratch);
    let mutants = &scratch.mutants;

    // Lines 4–9: no mutant tiles.
    if mutants.is_empty() {
        return if og >= params.cm { TileDecision::Valid } else { TileDecision::Unresolved };
    }

    if og >= params.cm {
        // Lines 10–15: moderately supported tile; correct only on compelling
        // relative evidence: the one strong mutant closest to the tile.
        let threshold = (og as f64) * params.cr;
        let strong = mutants.iter().filter(|&&(_, mog)| mog as f64 >= threshold);
        let Some(min_d) = strong.clone().map(|&(mt, _)| hamming_distance(t, mt)).min() else {
            return TileDecision::Valid;
        };
        let mut closest = strong.filter(|&&(mt, _)| hamming_distance(t, mt) == min_d);
        let (Some(&(target, _)), None) = (closest.next(), closest.next()) else {
            return TileDecision::Unresolved;
        };
        // Quality gate: at least one corrected base must be low-quality.
        if let Some(quals) = tile_quals {
            let touched_lowq = differing_positions(t, target, m)
                .any(|i| quals.get(i).is_none_or(|&q| q < params.qm));
            if !touched_lowq {
                return TileDecision::Unresolved;
            }
        }
        TileDecision::Corrected { tile: target }
    } else {
        // Lines 16–21: weakly supported tile; correct only to a unique
        // strong mutant.
        let mut strong = mutants.iter().filter(|&&(_, mog)| mog >= params.cm);
        match (strong.next(), strong.next()) {
            (Some(&(tile, _)), None) => TileDecision::Corrected { tile },
            _ => TileDecision::Unresolved,
        }
    }
}

/// Debug helper: render a packed tile as ASCII (used in tests and traces).
pub fn tile_string(t: Tile, m: usize) -> String {
    String::from_utf8(decode_kmer(t, m)).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_core::Read;
    use ngs_kmer::neighbor::NeighborStrategy;
    use ngs_kmer::packed::encode_kmer;
    use ngs_kmer::KSpectrum;

    /// Build a tiny corpus where `good` occurs `n_good` times and `bad`
    /// occurs once, then return everything a tile decision needs.
    struct Fixture {
        params: ReptileParams,
        spectrum: KSpectrum,
        tiles: TileTable,
    }

    fn fixture(reads: Vec<Read>, k: usize) -> Fixture {
        let mut params = ReptileParams::defaults(1 << (2 * k));
        params.k = k;
        params.tile_overlap = 0;
        params.cg = 8;
        params.cm = 2;
        params.cr = 2.0;
        params.qm = u8::MAX; // no quality gating in these tests
        let spectrum = KSpectrum::from_reads_both_strands(&reads, k);
        let tiles = TileTable::build(&reads, k, 0, 0);
        Fixture { params, spectrum, tiles }
    }

    fn decide(f: &Fixture, a1: &[u8], a2: &[u8], d: usize) -> TileDecision {
        let index = NeighborIndex::build(
            &f.spectrum,
            d,
            NeighborStrategy::MaskedReplicas { chunks: f.params.neighbor_chunks() },
        );
        correct_tile(
            encode_kmer(a1).unwrap(),
            encode_kmer(a2).unwrap(),
            d,
            d,
            None,
            &f.params,
            &f.tiles,
            &index,
            &mut TileScratch::default(),
        )
    }

    fn repeat_reads(seq: &[u8], n: usize) -> Vec<Read> {
        (0..n).map(|i| Read::new(format!("r{i}"), seq)).collect()
    }

    #[test]
    fn high_count_tile_validated() {
        let f = fixture(repeat_reads(b"ACGTATTGCA", 10), 5);
        assert_eq!(decide(&f, b"ACGTA", b"TTGCA", 1), TileDecision::Valid);
    }

    #[test]
    fn lone_tile_with_no_neighbors_unresolved() {
        let mut reads = repeat_reads(b"ACGTATTGCA", 1);
        reads.push(Read::new("far", b"GGGGGGGGGG"));
        let f = fixture(reads, 5);
        // Og = 1 < Cm = 2, no mutant tiles anywhere near.
        assert_eq!(decide(&f, b"ACGTA", b"TTGCA", 1), TileDecision::Unresolved);
    }

    #[test]
    fn erroneous_tile_corrected_to_dominant() {
        // 9 clean copies, 1 copy with an error in the second k-mer.
        let mut reads = repeat_reads(b"ACGTATTGCA", 9);
        reads.push(Read::new("err", b"ACGTATTGGA"));
        let f = fixture(reads, 5);
        match decide(&f, b"ACGTA", b"TTGGA", 1) {
            TileDecision::Corrected { tile } => {
                assert_eq!(tile_string(tile, 10), "ACGTATTGCA");
            }
            other => panic!("expected correction, got {other:?}"),
        }
    }

    #[test]
    fn error_in_first_kmer_corrected() {
        let mut reads = repeat_reads(b"ACGTATTGCA", 9);
        reads.push(Read::new("err", b"ACTTATTGCA"));
        let f = fixture(reads, 5);
        match decide(&f, b"ACTTA", b"TTGCA", 1) {
            TileDecision::Corrected { tile } => {
                assert_eq!(tile_string(tile, 10), "ACGTATTGCA");
            }
            other => panic!("expected correction, got {other:?}"),
        }
    }

    #[test]
    fn ambiguous_equidistant_targets_unresolved() {
        // Two equally strong variants, the query sits one substitution from
        // each: contextual ambiguity must block correction (Fig. 2.1's α₂
        // vs α₂″ without context).
        let mut reads = repeat_reads(b"ACGTATTGCA", 6);
        reads.extend(repeat_reads(b"ACGTATTACA", 6));
        reads.push(Read::new("err", b"ACGTATTCCA"));
        let f = fixture(reads, 5);
        // TTCCA is distance 1 from both TTGCA and TTACA.
        assert_eq!(decide(&f, b"ACGTA", b"TTCCA", 1), TileDecision::Unresolved);
    }

    #[test]
    fn context_disambiguates_variants() {
        // Same two variants, but the first k-mer context only co-occurs with
        // one of them — the d-mutant tile through the other context does not
        // exist in the tile table, so correction succeeds.
        let mut reads = repeat_reads(b"ACGTATTGCA", 6); // context ACGTA + TTGCA
        reads.extend(repeat_reads(b"TTTTATTACA", 6)); // context TTTTA + TTACA
        reads.push(Read::new("err", b"ACGTATTCCA"));
        let f = fixture(reads, 5);
        match decide(&f, b"ACGTA", b"TTCCA", 1) {
            TileDecision::Corrected { tile } => {
                assert_eq!(tile_string(tile, 10), "ACGTATTGCA");
            }
            other => panic!("expected contextual correction, got {other:?}"),
        }
    }

    #[test]
    fn moderate_tile_without_stronger_mutant_valid() {
        // Tile occurs 3 times (>= Cm), a mutant occurs 4 times (< Cr ratio).
        let mut reads = repeat_reads(b"ACGTATTGCA", 3);
        reads.extend(repeat_reads(b"ACGTATTGGA", 4));
        let f = fixture(reads, 5);
        assert_eq!(decide(&f, b"ACGTA", b"TTGCA", 1), TileDecision::Valid);
    }

    #[test]
    fn quality_gate_blocks_high_quality_corrections() {
        // The erroneous tile occurs Cm times so Algorithm 1 takes the
        // moderately-supported branch, which is the one with the quality
        // gate (the low-count branch corrects unconditionally).
        let mut reads = repeat_reads(b"ACGTATTGCA", 9);
        reads.push(Read::new("err1", b"ACGTATTGGA"));
        reads.push(Read::new("err2", b"ACGTATTGGA"));
        let mut f = fixture(reads, 5);
        f.params.qm = 10; // corrections must touch a base with q < 10
        let index =
            NeighborIndex::build(&f.spectrum, 1, NeighborStrategy::MaskedReplicas { chunks: 5 });
        let quals = vec![30u8; 10]; // all bases high quality
        let dec = correct_tile(
            encode_kmer(b"ACGTA").unwrap(),
            encode_kmer(b"TTGGA").unwrap(),
            1,
            1,
            Some(&quals),
            &f.params,
            &f.tiles,
            &index,
            &mut TileScratch::default(),
        );
        assert_eq!(dec, TileDecision::Unresolved);
    }

    #[test]
    fn differing_positions_reported() {
        let a = encode_kmer(b"ACGTAA").unwrap();
        let b = encode_kmer(b"ACCTAT").unwrap();
        assert_eq!(differing_positions(a, b, 6).collect::<Vec<_>>(), vec![2, 5]);
    }
}
